//! A hand-rolled single-threaded reactor runtime.
//!
//! The build environment is offline, so instead of tokio the invalidation
//! plane runs on this minimal executor: a ready queue, a parked-task table
//! and a timer wheel, all driven by one thread. N per-cache invalidation
//! pipes ([`crate::pipe`]) register wakers with their [`RecvFuture`]s, so a
//! single reactor thread multiplexes every cache's apply loop — replacing
//! the thread-per-cache layout without losing wake-on-delivery semantics.
//!
//! [`RecvFuture`]: crate::pipe::RecvFuture
//!
//! Design:
//!
//! * **Ready queue** — task ids whose wakers fired, drained FIFO each
//!   iteration; cross-thread wakes park/unpark the reactor via a condvar.
//!   The run loop sets a *sleeping* flag under the ready-queue lock just
//!   before it waits, and wakers, timer registrations and shutdown notify
//!   the condvar only when they find that flag set (clearing it, so a
//!   burst of wakes costs one notify). A notify is a futex syscall even
//!   with no waiter, and a reactor that is running or spinning needs none:
//!   it sees the ready queue on its next iteration.
//! * **Parked-task table** — every spawned task lives in a slab keyed by
//!   [`TaskId`]; a task not in the ready queue is parked and consumes no
//!   cycles until its waker fires.
//! * **Timer wheel** — a min-heap of `(deadline, seq, waker)`; the reactor
//!   sleeps exactly until the next deadline when no task is ready, and an
//!   iteration with no timer pending never reads the clock or takes the
//!   timer lock. Timer durations use the same microsecond [`SimDuration`]
//!   arithmetic as the latency models in [`crate::latency`] (one simulated
//!   microsecond maps to one wall-clock microsecond), so a
//!   [`LatencyModel`] sample can be slept on directly with
//!   [`TimerHandle::sleep_model`].
//!
//! [`LatencyModel`]: crate::latency::LatencyModel

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Iterations the run loop spins on [`ReactorShared::ready_hint`] before
/// parking on the condvar. Tuned to bridge a producer's inter-send gap
/// (sub-microsecond) without burning meaningful CPU when genuinely idle:
/// the spin costs a few microseconds once per idle transition, a park
/// costs two futex syscalls per message under a ping-pong load.
const SPIN_BEFORE_PARK: u32 = 4096;
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};
use tcache_types::SimDuration;

/// Identifies one spawned task inside a [`Reactor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// Monotone counters describing the reactor's activity.
#[derive(Debug, Default)]
struct ReactorCounters {
    spawned: AtomicU64,
    completed: AtomicU64,
    polls: AtomicU64,
    wakes: AtomicU64,
    coalesced_wakes: AtomicU64,
    timers_fired: AtomicU64,
    spin_recoveries: AtomicU64,
}

/// A point-in-time copy of the reactor's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReactorStats {
    /// Tasks spawned over the reactor's lifetime.
    pub spawned: u64,
    /// Tasks that ran to completion.
    pub completed: u64,
    /// Total future polls performed.
    pub polls: u64,
    /// Waker fires observed (ready-queue pushes).
    pub wakes: u64,
    /// Waker fires absorbed by the per-task scheduled flag: the task was
    /// already enqueued (or mid-poll) so no second ready-queue entry was
    /// pushed.
    pub coalesced_wakes: u64,
    /// Timer entries that reached their deadline and woke a task.
    pub timers_fired: u64,
    /// Idle iterations resolved by the pre-park spin: a waker fired within
    /// the spin window, so the reactor skipped a condvar park/unpark
    /// round-trip (each one is two futex syscalls under load).
    pub spin_recoveries: u64,
}

struct TimerEntry {
    deadline: Instant,
    seq: u64,
    waker: Waker,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.deadline, self.seq) == (other.deadline, other.seq)
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deadline, self.seq).cmp(&(other.deadline, other.seq))
    }
}

/// The ready queue and the run loop's sleeping flag, guarded together by
/// one lock so a waker can never miss the moment the loop goes to sleep.
#[derive(Default)]
struct ReadyQueue {
    tasks: VecDeque<TaskId>,
    /// Set by the run loop just before it waits on `parked`, cleared when
    /// it wakes — or by the thread that wakes it, so a burst of wakes
    /// costs one notify. `parked` is signalled only while this is set: a
    /// condvar notify is a futex syscall even when nobody waits.
    sleeping: bool,
}

/// State shared between the reactor thread, task wakers and handles.
struct ReactorShared {
    ready: Mutex<ReadyQueue>,
    /// Lock-free mirror of the ready queue's length, maintained under the
    /// `ready` lock. The run loop's pre-park spin polls this instead of
    /// re-taking the lock on every spin iteration.
    ready_hint: AtomicUsize,
    /// Parks the reactor thread while no task is ready and no timer is due.
    parked: Condvar,
    timers: Mutex<BinaryHeap<Reverse<TimerEntry>>>,
    /// Lock-free mirror of the timer heap's length, maintained under the
    /// `timers` lock, so an iteration with no timer pending skips the clock
    /// read and the timer lock.
    timers_pending: AtomicUsize,
    timer_seq: AtomicU64,
    shutdown: AtomicBool,
    counters: ReactorCounters,
}

impl ReactorShared {
    fn push_ready(&self, id: TaskId) {
        let mut ready = self.ready.lock().expect("reactor lock");
        ready.tasks.push_back(id);
        self.ready_hint.store(ready.tasks.len(), Ordering::Release);
        self.counters.wakes.fetch_add(1, Ordering::Relaxed);
        let sleeping = std::mem::take(&mut ready.sleeping);
        drop(ready);
        if sleeping {
            self.parked.notify_one();
        }
    }

    /// Wakes the run loop if it is asleep, so it re-reads the timer heap.
    fn unpark(&self) {
        let sleeping = std::mem::take(&mut self.ready.lock().expect("reactor lock").sleeping);
        if sleeping {
            self.parked.notify_one();
        }
    }

    /// The earliest pending timer deadline, if any.
    fn next_deadline(&self) -> Option<Instant> {
        if self.timers_pending.load(Ordering::Acquire) == 0 {
            return None;
        }
        let timers = self.timers.lock().expect("reactor lock");
        timers.peek().map(|Reverse(e)| e.deadline)
    }
}

/// Per-task waker: pushes the task onto the ready queue and unparks the
/// reactor thread. Safe to fire from any thread (pipe senders fire it from
/// the publishing side). The `scheduled` flag coalesces wakes: a task
/// already sitting in the ready queue is not enqueued a second time, so a
/// burst of N sends costs one ready-queue push and one lock round-trip, not
/// N contains-scans.
struct TaskWaker {
    id: TaskId,
    shared: Arc<ReactorShared>,
    /// Set while the task is enqueued (or about to be polled); cleared by
    /// the reactor just before each poll so wakes during the poll re-enqueue.
    scheduled: Arc<AtomicBool>,
}

impl TaskWaker {
    fn wake_impl(&self) {
        if self.scheduled.swap(true, Ordering::AcqRel) {
            // Already queued or mid-poll: the pending poll observes
            // whatever this wake was announcing.
            self.shared
                .counters
                .coalesced_wakes
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.shared.push_ready(self.id);
    }
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_impl();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.wake_impl();
    }
}

type BoxedTask = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// One entry of the parked-task table.
struct TaskSlot {
    future: BoxedTask,
    waker: Waker,
    /// Scheduled flag shared with the waker; cleared just before each poll
    /// so wakes arriving mid-poll re-enqueue the task.
    scheduled: Arc<AtomicBool>,
}

/// The single-threaded reactor. Build it, [`Reactor::spawn`] tasks onto it,
/// then move it to its thread and call [`Reactor::run`]. Keep a
/// [`ReactorHandle`] (from [`Reactor::handle`]) to request shutdown and to
/// sample [`ReactorStats`] from outside.
pub struct Reactor {
    shared: Arc<ReactorShared>,
    /// The parked-task table: every live task, keyed by id. Tasks absent
    /// from the ready queue sit here untouched until a waker fires.
    tasks: HashMap<TaskId, TaskSlot>,
    /// The batch being polled, swapped with the ready queue each
    /// iteration so neither buffer is reallocated.
    batch: VecDeque<TaskId>,
    next_task: u64,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("live_tasks", &self.tasks.len())
            .finish_non_exhaustive()
    }
}

impl Default for Reactor {
    fn default() -> Self {
        Reactor::new()
    }
}

impl Reactor {
    /// Creates an empty reactor.
    pub fn new() -> Self {
        Reactor {
            shared: Arc::new(ReactorShared {
                ready: Mutex::new(ReadyQueue::default()),
                ready_hint: AtomicUsize::new(0),
                parked: Condvar::new(),
                timers: Mutex::new(BinaryHeap::new()),
                timers_pending: AtomicUsize::new(0),
                timer_seq: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
                counters: ReactorCounters::default(),
            }),
            tasks: HashMap::new(),
            batch: VecDeque::new(),
            next_task: 0,
        }
    }

    /// Spawns a task; it is immediately ready and will be polled on the
    /// next [`Reactor::run`] iteration.
    pub fn spawn(&mut self, future: impl Future<Output = ()> + Send + 'static) -> TaskId {
        let id = TaskId(self.next_task);
        self.next_task += 1;
        let scheduled = Arc::new(AtomicBool::new(true));
        let waker = Waker::from(Arc::new(TaskWaker {
            id,
            shared: Arc::clone(&self.shared),
            scheduled: Arc::clone(&scheduled),
        }));
        self.tasks.insert(
            id,
            TaskSlot {
                future: Box::pin(future),
                waker,
                scheduled,
            },
        );
        self.shared.counters.spawned.fetch_add(1, Ordering::Relaxed);
        self.shared.push_ready(id);
        id
    }

    /// A handle for shutting the reactor down and sampling its counters
    /// from other threads.
    pub fn handle(&self) -> ReactorHandle {
        ReactorHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// A timer handle tasks use to sleep on this reactor.
    pub fn timer(&self) -> TimerHandle {
        TimerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Number of live (parked or ready) tasks.
    pub fn live_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Fires every timer whose deadline has passed; returns the next
    /// pending deadline, if any. Free when no timer is pending.
    fn fire_due_timers(&self) -> Option<Instant> {
        if self.shared.timers_pending.load(Ordering::Acquire) == 0 {
            return None;
        }
        let now = Instant::now();
        let mut due = Vec::new();
        let next = {
            let mut timers = self.shared.timers.lock().expect("reactor lock");
            while let Some(Reverse(head)) = timers.peek() {
                if head.deadline > now {
                    break;
                }
                let Reverse(entry) = timers.pop().expect("peeked entry exists");
                due.push(entry.waker);
            }
            self.shared
                .timers_pending
                .store(timers.len(), Ordering::Release);
            timers.peek().map(|Reverse(e)| e.deadline)
        };
        self.shared
            .counters
            .timers_fired
            .fetch_add(due.len() as u64, Ordering::Relaxed);
        for waker in due {
            waker.wake();
        }
        next
    }

    /// Parks the run loop until a waker fires, the next timer is due or
    /// shutdown is requested. Everything is re-checked under the `ready`
    /// lock, and every waking party takes that lock before reading the
    /// sleeping flag, so no wakeup can slip between the check and the wait.
    fn park(&self) {
        let shared = &self.shared;
        let mut ready = shared.ready.lock().expect("reactor lock");
        if !ready.tasks.is_empty() || shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Read under the ready lock: a timer pushed after this read unparks
        // the loop, because `Sleep::poll` takes the ready lock after pushing.
        let deadline = shared.next_deadline();
        if deadline.is_some_and(|d| d <= Instant::now()) {
            return;
        }
        ready.sleeping = true;
        ready = match deadline {
            Some(d) => {
                let timeout = d.saturating_duration_since(Instant::now());
                shared.parked.wait_timeout(ready, timeout).expect("reactor lock").0
            }
            None => shared.parked.wait(ready).expect("reactor lock"),
        };
        ready.sleeping = false;
    }

    /// Runs the event loop until every task completes or
    /// [`ReactorHandle::shutdown`] is called. This is the reactor thread's
    /// body; everything else talks to it through wakers and handles.
    pub fn run(mut self) {
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            if self.tasks.is_empty() {
                return;
            }
            let next_deadline = self.fire_due_timers();

            // Take the current ready batch. Tasks woken while this batch
            // runs land in the next batch.
            {
                let mut ready = self.shared.ready.lock().expect("reactor lock");
                std::mem::swap(&mut ready.tasks, &mut self.batch);
                self.shared.ready_hint.store(0, Ordering::Release);
            }

            if self.batch.is_empty() {
                // Briefly spin on the lock-free ready hint before parking:
                // a producer mid-burst refills the queue within
                // microseconds, and a park/unpark round-trip (two futex
                // syscalls) costs far more than the gap it bridges. Only
                // safe to spin when no timer deadline is pending.
                if next_deadline.is_none() {
                    let mut woke = false;
                    for _ in 0..SPIN_BEFORE_PARK {
                        if self.shared.ready_hint.load(Ordering::Acquire) > 0
                            || self.shared.shutdown.load(Ordering::Acquire)
                        {
                            woke = true;
                            break;
                        }
                        std::hint::spin_loop();
                    }
                    if woke {
                        self.shared
                            .counters
                            .spin_recoveries
                            .fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                }
                self.park();
                continue;
            }

            for id in self.batch.drain(..) {
                let Some(slot) = self.tasks.get_mut(&id) else {
                    continue; // Spurious wake of a completed task.
                };
                // Clear the scheduled flag *before* polling: a wake that
                // arrives mid-poll must re-enqueue the task or its signal
                // would be lost.
                slot.scheduled.store(false, Ordering::Release);
                let mut cx = Context::from_waker(&slot.waker);
                self.shared.counters.polls.fetch_add(1, Ordering::Relaxed);
                if slot.future.as_mut().poll(&mut cx).is_ready() {
                    self.tasks.remove(&id);
                    self.shared
                        .counters
                        .completed
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// Cross-thread control handle of a running [`Reactor`].
#[derive(Clone)]
pub struct ReactorHandle {
    shared: Arc<ReactorShared>,
}

impl std::fmt::Debug for ReactorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorHandle").finish_non_exhaustive()
    }
}

impl ReactorHandle {
    /// Asks the reactor loop to exit after its current batch; pending tasks
    /// are abandoned. Idempotent.
    pub fn shutdown(&self) {
        // The flag is set under the ready lock: the run loop checks it under
        // that lock right before sleeping, so it either sees the flag or is
        // already asleep (and flagged) when this wakes it.
        let mut ready = self.shared.ready.lock().expect("reactor lock");
        self.shared.shutdown.store(true, Ordering::Release);
        let sleeping = std::mem::take(&mut ready.sleeping);
        drop(ready);
        if sleeping {
            self.shared.parked.notify_all();
        }
    }

    /// Returns `true` once shutdown has been requested.
    pub fn is_shut_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// A snapshot of the reactor's counters.
    pub fn stats(&self) -> ReactorStats {
        let c = &self.shared.counters;
        ReactorStats {
            spawned: c.spawned.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            polls: c.polls.load(Ordering::Relaxed),
            wakes: c.wakes.load(Ordering::Relaxed),
            coalesced_wakes: c.coalesced_wakes.load(Ordering::Relaxed),
            timers_fired: c.timers_fired.load(Ordering::Relaxed),
            spin_recoveries: c.spin_recoveries.load(Ordering::Relaxed),
        }
    }
}

/// Cooperatively yields the current task: it re-enqueues itself at the back
/// of the ready queue and resumes only after every other currently-ready
/// task has been polled. This is how a batch-dequeuing apply task with
/// backlog left gives its reactor siblings a turn (the budget re-yield).
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future returned by [`yield_now`].
#[derive(Debug)]
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            // The reactor cleared this task's scheduled flag before the
            // poll, so this wake re-enqueues it behind its siblings.
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

/// Handle for creating timer futures on a reactor. Cloneable and cheap;
/// pass one into every task that needs to sleep.
#[derive(Clone)]
pub struct TimerHandle {
    shared: Arc<ReactorShared>,
}

impl std::fmt::Debug for TimerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerHandle").finish_non_exhaustive()
    }
}

impl TimerHandle {
    /// A future completing after `duration` of wall-clock time.
    pub fn sleep(&self, duration: Duration) -> Sleep {
        Sleep {
            shared: Arc::clone(&self.shared),
            deadline: Instant::now() + duration,
        }
    }

    /// A future completing after `duration` of simulated time, mapping one
    /// simulated microsecond to one wall-clock microsecond — the same
    /// arithmetic [`crate::latency::LatencyModel`] samples use.
    pub fn sleep_sim(&self, duration: SimDuration) -> Sleep {
        self.sleep(Duration::from_micros(duration.as_micros()))
    }

    /// Samples a delay from `model` with `rng` and sleeps on it: the async
    /// equivalent of the discrete-event channel's per-message latency.
    pub fn sleep_model<R: rand::Rng + ?Sized>(
        &self,
        model: &crate::latency::LatencyModel,
        rng: &mut R,
    ) -> Sleep {
        self.sleep_sim(model.sample(rng))
    }
}

/// Future returned by the [`TimerHandle`] sleep constructors.
pub struct Sleep {
    shared: Arc<ReactorShared>,
    deadline: Instant,
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        if Instant::now() >= self.deadline {
            return Poll::Ready(());
        }
        // Re-register on every poll: wakers may change between polls, and a
        // stale duplicate entry merely re-polls the task once.
        let seq = self.shared.timer_seq.fetch_add(1, Ordering::Relaxed);
        {
            let mut timers = self.shared.timers.lock().expect("reactor lock");
            timers.push(Reverse(TimerEntry {
                deadline: self.deadline,
                seq,
                waker: cx.waker().clone(),
            }));
            self.shared
                .timers_pending
                .store(timers.len(), Ordering::Release);
        }
        // A loop asleep on a later deadline (or none) must re-read the heap;
        // polled on the reactor thread itself this finds it awake and is free.
        self.shared.unpark();
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyModel;
    use crate::pipe::{bounded_pipe, OverflowPolicy, UNBOUNDED};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_spawned_tasks_to_completion() {
        let mut reactor = Reactor::new();
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let counter = Arc::clone(&counter);
            reactor.spawn(async move {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(reactor.live_tasks(), 10);
        let handle = reactor.handle();
        reactor.run();
        assert_eq!(counter.load(Ordering::Relaxed), 10);
        let stats = handle.stats();
        assert_eq!(stats.spawned, 10);
        assert_eq!(stats.completed, 10);
        assert!(stats.polls >= 10);
    }

    #[test]
    fn one_reactor_thread_multiplexes_many_pipes() {
        // Four pipes, four parked tasks, one reactor thread: every message
        // sent from the main thread must be consumed by the right task.
        let mut reactor = Reactor::new();
        let mut senders = Vec::new();
        let received: Vec<Arc<AtomicU64>> =
            (0..4).map(|_| Arc::new(AtomicU64::new(0))).collect();
        for counter in &received {
            let (tx, rx) = bounded_pipe::<u64>(UNBOUNDED, OverflowPolicy::Block);
            senders.push(tx);
            let counter = Arc::clone(counter);
            reactor.spawn(async move {
                while let Some(v) = rx.recv_async().await {
                    counter.fetch_add(v, Ordering::Relaxed);
                }
            });
        }
        let handle = reactor.handle();
        let thread = std::thread::spawn(move || reactor.run());
        for (i, tx) in senders.iter().enumerate() {
            for v in 0..100u64 {
                tx.send((i as u64 + 1) * 1000 + v).unwrap();
            }
        }
        drop(senders); // Disconnect: every task drains and completes.
        thread.join().unwrap();
        for (i, counter) in received.iter().enumerate() {
            let expected: u64 = (0..100u64).map(|v| (i as u64 + 1) * 1000 + v).sum();
            assert_eq!(counter.load(Ordering::Relaxed), expected, "pipe {i}");
        }
        let stats = handle.stats();
        assert_eq!(stats.completed, 4);
        assert!(stats.wakes > 0);
    }

    #[test]
    fn timers_fire_in_deadline_order() {
        let mut reactor = Reactor::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        let timer = reactor.timer();
        for (label, ms) in [(3u8, 30u64), (1, 5), (2, 15)] {
            let order = Arc::clone(&order);
            let timer = timer.clone();
            reactor.spawn(async move {
                timer.sleep(Duration::from_millis(ms)).await;
                order.lock().unwrap().push(label);
            });
        }
        let handle = reactor.handle();
        reactor.run();
        assert_eq!(*order.lock().unwrap(), vec![1, 2, 3]);
        assert!(handle.stats().timers_fired >= 3);
    }

    #[test]
    fn sleep_sim_maps_microseconds_one_to_one() {
        let mut reactor = Reactor::new();
        let timer = reactor.timer();
        let elapsed = Arc::new(Mutex::new(Duration::ZERO));
        let out = Arc::clone(&elapsed);
        reactor.spawn(async move {
            let start = Instant::now();
            timer.sleep_sim(SimDuration::from_millis(20)).await;
            *out.lock().unwrap() = start.elapsed();
        });
        reactor.run();
        let took = *elapsed.lock().unwrap();
        assert!(took >= Duration::from_millis(20), "slept only {took:?}");
    }

    #[test]
    fn latency_model_samples_drive_reactor_sleeps() {
        let mut reactor = Reactor::new();
        let timer = reactor.timer();
        let fired = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&fired);
        reactor.spawn(async move {
            let mut rng = StdRng::seed_from_u64(5);
            let model = LatencyModel::Uniform {
                min: SimDuration::from_micros(100),
                max: SimDuration::from_millis(2),
            };
            for _ in 0..5 {
                timer.sleep_model(&model, &mut rng).await;
                counter.fetch_add(1, Ordering::Relaxed);
            }
        });
        reactor.run();
        assert_eq!(fired.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn shutdown_abandons_parked_tasks() {
        let mut reactor = Reactor::new();
        let (_tx, rx) = bounded_pipe::<u64>(UNBOUNDED, OverflowPolicy::Block);
        reactor.spawn(async move {
            // Parks forever: the sender is never dropped nor written to.
            let _ = rx.recv_async().await;
        });
        let handle = reactor.handle();
        assert!(!handle.is_shut_down());
        let thread = std::thread::spawn(move || reactor.run());
        // Test-only wall-clock coordination: let the reactor park first.
        #[allow(clippy::disallowed_methods)]
        std::thread::sleep(Duration::from_millis(10));
        handle.shutdown();
        thread.join().unwrap();
        assert!(handle.is_shut_down());
        let stats = handle.stats();
        assert_eq!(stats.spawned, 1);
        assert_eq!(stats.completed, 0, "the parked task was abandoned");
    }

    /// Waits for `thread` to finish, failing the test after `limit` — a
    /// reactor that missed its wakeup never returns from `run`.
    fn join_within(
        thread: std::thread::JoinHandle<()>,
        done: &std::sync::mpsc::Receiver<()>,
        limit: Duration,
    ) {
        done.recv_timeout(limit)
            .expect("reactor never woke up: a wakeup was lost");
        thread.join().unwrap();
    }

    /// Shutdown racing the run loop's way into its wait: the flag is set
    /// under the ready lock, so the loop either sees it or is woken by it.
    /// Every iteration must join promptly.
    #[test]
    fn shutdown_never_loses_the_wakeup() {
        for round in 0..10_000u32 {
            let mut reactor = Reactor::new();
            let (tx, rx) = bounded_pipe::<u64>(UNBOUNDED, OverflowPolicy::Block);
            reactor.spawn(async move {
                let _ = rx.recv_async().await;
            });
            let handle = reactor.handle();
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let thread = std::thread::spawn(move || {
                reactor.run();
                let _ = done_tx.send(());
            });
            // Vary where in the loop the shutdown lands: immediately,
            // mid-spin, around the spin-to-park transition, or after the
            // reactor has parked (the spin is SPIN_BEFORE_PARK pauses).
            for _ in 0..(round % 100) * (SPIN_BEFORE_PARK / 40) {
                std::hint::spin_loop();
            }
            handle.shutdown();
            join_within(thread, &done_rx, Duration::from_secs(10));
            drop(tx);
        }
    }

    /// Cross-thread ping-pong through a reactor task: every round the
    /// reactor runs dry and either spins or sleeps, and each message from
    /// the driving thread must wake it.
    #[test]
    fn park_and_wake_ping_pong() {
        const ROUNDS: u64 = 20_000;
        let mut reactor = Reactor::new();
        let (ping_tx, ping_rx) = bounded_pipe::<u64>(UNBOUNDED, OverflowPolicy::Block);
        let (pong_tx, pong_rx) = bounded_pipe::<u64>(UNBOUNDED, OverflowPolicy::Block);
        reactor.spawn(async move {
            while let Some(v) = ping_rx.recv_async().await {
                pong_tx.send(v + 1).unwrap();
            }
        });
        let handle = reactor.handle();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let thread = std::thread::spawn(move || {
            reactor.run();
            let _ = done_tx.send(());
        });
        for i in 0..ROUNDS {
            ping_tx.send(i).unwrap();
            assert_eq!(
                pong_rx.recv_timeout(Duration::from_secs(10)),
                Some(i + 1),
                "round {i}: the reactor missed a wake"
            );
        }
        drop(ping_tx);
        join_within(thread, &done_rx, Duration::from_secs(10));
        let stats = handle.stats();
        assert_eq!(stats.completed, 1);
        // A ping that lands while the task is still running is drained
        // without a wake, so only "some rounds parked" is deterministic.
        assert!(stats.wakes > 1, "the parked task was woken across threads");
    }

    #[test]
    fn task_id_displays() {
        assert_eq!(TaskId(3).to_string(), "task3");
    }
}
