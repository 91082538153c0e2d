//! Bounded invalidation pipes with explicit overflow policies.
//!
//! The live transport's original queue was unbounded: a slow cache simply
//! grew its queue without limit and the system gave no backpressure signal.
//! [`bounded_pipe`] replaces it with a capacity-limited MPSC queue whose
//! behaviour at capacity is an explicit [`OverflowPolicy`]:
//!
//! * [`OverflowPolicy::Block`] — the sender waits for a free slot; the
//!   commit path absorbs the backpressure (and the stall is counted so it
//!   can be attributed).
//! * [`OverflowPolicy::DropNewest`] — the incoming message is rejected; the
//!   cache keeps its oldest pending invalidations.
//! * [`OverflowPolicy::DropOldest`] — the oldest pending message is evicted
//!   to make room; the cache always sees the freshest invalidations.
//!
//! Every transition is counted in [`PipeStats`] so overflow and stalls are
//! observable per cache. The receiving side supports blocking, timed and
//! *asynchronous* receives; [`PipeReceiver::recv_async`] registers a
//! [`std::task::Waker`], which is what lets one reactor thread multiplex
//! many caches' pipes (see [`crate::reactor`]).
//!
//! Two rules keep the sending side cheap on a commit path:
//!
//! * **Batch sends.** [`PipeSender::send`], [`PipeSender::try_send`] and
//!   [`PipeSender::send_batch`] share one enqueue routine that takes the
//!   pipe lock once per capacity window and signals the receiver at most
//!   once per window, so a whole invalidation batch costs one lock and at
//!   most one wakeup.
//! * **Notify only waiters.** The pipe counts the threads blocked in
//!   [`PipeReceiver::recv`] / [`PipeReceiver::recv_timeout`] and in `Block`
//!   sends, under the pipe mutex, and signals a condvar only while its
//!   count is nonzero. A condvar notify is a futex syscall even when
//!   nobody waits; a receiver parked on the reactor is woken through its
//!   waker alone.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

/// What a pipe does with an incoming message while it is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// The sender blocks until a slot frees (backpressure onto the
    /// publisher / commit path).
    #[default]
    Block,
    /// The incoming message is dropped; pending messages are kept.
    DropNewest,
    /// The oldest pending message is evicted to admit the incoming one.
    DropOldest,
}

impl std::fmt::Display for OverflowPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OverflowPolicy::Block => write!(f, "block"),
            OverflowPolicy::DropNewest => write!(f, "drop-newest"),
            OverflowPolicy::DropOldest => write!(f, "drop-oldest"),
        }
    }
}

/// Monotone counters describing one pipe's traffic. All counters are
/// atomics; snapshot them with [`PipeStats::snapshot`].
#[derive(Debug, Default)]
pub struct PipeStats {
    enqueued: AtomicU64,
    send_windows: AtomicU64,
    rejected: AtomicU64,
    evicted: AtomicU64,
    received: AtomicU64,
    stalled_sends: AtomicU64,
    stall_micros: AtomicU64,
    batched_polls: AtomicU64,
    max_drain: AtomicU64,
    coalesced_wakeups: AtomicU64,
    budget_yields: AtomicU64,
}

/// A point-in-time copy of [`PipeStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipeStatsSnapshot {
    /// Messages accepted into the queue (including ones later evicted by
    /// [`OverflowPolicy::DropOldest`]).
    pub enqueued: u64,
    /// Sender lock windows that enqueued at least one message: one per
    /// send, one per [`PipeSender::send_batch`] call with room for the
    /// whole batch (more only when a `Block` pipe fills mid-batch).
    pub send_windows: u64,
    /// Incoming messages rejected at capacity ([`OverflowPolicy::DropNewest`]).
    pub rejected: u64,
    /// Pending messages evicted at capacity ([`OverflowPolicy::DropOldest`]).
    pub evicted: u64,
    /// Messages handed to the receiver.
    pub received: u64,
    /// Sender waits for a slot ([`OverflowPolicy::Block`]), counted per
    /// capacity window: a batch that fills the pipe twice stalls twice,
    /// however many messages each wait admits.
    pub stalled_sends: u64,
    /// Total wall-clock time senders spent waiting for slots, in
    /// microseconds.
    pub stall_micros: u64,
    /// Batch-receive polls ([`PipeReceiver::recv_batch_async`] /
    /// [`PipeReceiver::drain_into`]) that handed out at least one message.
    pub batched_polls: u64,
    /// Largest number of messages a single batch poll drained.
    pub max_drain: u64,
    /// Send windows that found a wakeup already in flight and skipped
    /// firing the receiver's waker again (the receiver observes the
    /// messages in the drain the pending wakeup triggers). Counted per
    /// window, not per message: a batch sent in one window coalesces at
    /// most once.
    pub coalesced_wakeups: u64,
    /// Times the receiver's apply loop exhausted its per-poll budget with
    /// backlog remaining and cooperatively re-yielded to the reactor
    /// (reported via [`PipeReceiver::note_budget_yield`]).
    pub budget_yields: u64,
}

impl PipeStatsSnapshot {
    /// Messages lost to overflow under either drop policy.
    pub fn overflow_dropped(&self) -> u64 {
        self.rejected.saturating_add(self.evicted)
    }

    /// Mean messages drained per successful batch poll (0 when no batch
    /// poll has completed).
    pub fn mean_drain(&self) -> f64 {
        if self.batched_polls == 0 {
            0.0
        } else {
            self.received as f64 / self.batched_polls as f64
        }
    }

    /// Accumulates another pipe's counters into this one. Counter sums
    /// saturate instead of wrapping so long sweeps cannot corrupt
    /// aggregates; `max_drain` takes the maximum, not the sum.
    pub fn merge(&mut self, other: PipeStatsSnapshot) {
        self.enqueued = self.enqueued.saturating_add(other.enqueued);
        self.send_windows = self.send_windows.saturating_add(other.send_windows);
        self.rejected = self.rejected.saturating_add(other.rejected);
        self.evicted = self.evicted.saturating_add(other.evicted);
        self.received = self.received.saturating_add(other.received);
        self.stalled_sends = self.stalled_sends.saturating_add(other.stalled_sends);
        self.stall_micros = self.stall_micros.saturating_add(other.stall_micros);
        self.batched_polls = self.batched_polls.saturating_add(other.batched_polls);
        self.max_drain = self.max_drain.max(other.max_drain);
        self.coalesced_wakeups = self.coalesced_wakeups.saturating_add(other.coalesced_wakeups);
        self.budget_yields = self.budget_yields.saturating_add(other.budget_yields);
    }
}

impl PipeStats {
    /// Takes a consistent-enough snapshot of all counters.
    pub fn snapshot(&self) -> PipeStatsSnapshot {
        PipeStatsSnapshot {
            enqueued: self.enqueued.load(Ordering::Relaxed),
            send_windows: self.send_windows.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            received: self.received.load(Ordering::Relaxed),
            stalled_sends: self.stalled_sends.load(Ordering::Relaxed),
            stall_micros: self.stall_micros.load(Ordering::Relaxed),
            batched_polls: self.batched_polls.load(Ordering::Relaxed),
            max_drain: self.max_drain.load(Ordering::Relaxed),
            coalesced_wakeups: self.coalesced_wakeups.load(Ordering::Relaxed),
            budget_yields: self.budget_yields.load(Ordering::Relaxed),
        }
    }
}

/// What a successful [`PipeSender::send`] / [`PipeSender::try_send`] did
/// with the message, so callers can attribute overflow to the policy that
/// caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The message was enqueued into a free slot.
    Enqueued,
    /// The message was enqueued, evicting the oldest pending message
    /// ([`OverflowPolicy::DropOldest`] at capacity) — one message was lost.
    EnqueuedEvictingOldest,
    /// The message was rejected ([`OverflowPolicy::DropNewest`] at
    /// capacity) — this message was lost.
    Rejected,
}

impl SendOutcome {
    /// Whether the sent message itself entered the queue.
    pub fn was_enqueued(&self) -> bool {
        !matches!(self, SendOutcome::Rejected)
    }

    /// Whether the send cost a message (the incoming one or an evicted
    /// pending one).
    pub fn lost_a_message(&self) -> bool {
        !matches!(self, SendOutcome::Enqueued)
    }
}

/// Error returned by [`PipeSender::send`] / [`PipeSender::try_send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipeSendError<T> {
    /// The receiver has been dropped; the value is handed back.
    Disconnected(T),
    /// The pipe is full and the policy is [`OverflowPolicy::Block`]
    /// (returned by `try_send` only — `send` waits instead).
    Full(T),
}

impl<T> PipeSendError<T> {
    /// Recovers the value that could not be sent.
    pub fn into_inner(self) -> T {
        match self {
            PipeSendError::Disconnected(v) | PipeSendError::Full(v) => v,
        }
    }
}

/// What one enqueue call ([`PipeSender::send_batch`]) did with its
/// messages, summed over every capacity window it took — exactly what the
/// publisher's per-cache attribution needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchOutcome {
    /// Messages that entered the queue (under [`OverflowPolicy::DropOldest`]
    /// this includes ones whose entry evicted a pending message).
    pub enqueued: u64,
    /// Messages lost to the overflow policy: incoming ones rejected
    /// ([`OverflowPolicy::DropNewest`]) plus pending ones evicted
    /// ([`OverflowPolicy::DropOldest`]).
    pub lost: u64,
    /// Whether the call had to wait for capacity ([`OverflowPolicy::Block`]).
    pub stalled: bool,
}

impl BatchOutcome {
    /// The single-message view of this outcome.
    fn single(self) -> SendOutcome {
        match (self.enqueued, self.lost) {
            (_, 0) => SendOutcome::Enqueued,
            (0, _) => SendOutcome::Rejected,
            _ => SendOutcome::EnqueuedEvictingOldest,
        }
    }
}

struct PipeInner<T> {
    queue: VecDeque<T>,
    /// Waker of a pending [`RecvFuture`] / [`RecvBatchFuture`], if the
    /// receiver is parked.
    recv_waker: Option<Waker>,
    /// A wakeup has been fired but the receiver has not polled since.
    /// While set, further sends coalesce into the in-flight wakeup instead
    /// of firing again (the receiver drains the whole backlog when it
    /// runs). Cleared at the top of every receive poll.
    wake_pending: bool,
    senders: usize,
    receiver_alive: bool,
    /// Threads blocked on `not_empty` in [`PipeReceiver::recv`] /
    /// [`PipeReceiver::recv_timeout`]. `not_empty` is signalled only while
    /// this is nonzero: a condvar notify is a syscall even with no waiter.
    blocked_receivers: usize,
    /// Threads blocked on `not_full` in an [`OverflowPolicy::Block`] send;
    /// `not_full` is signalled only while this is nonzero.
    blocked_senders: usize,
}

struct PipeShared<T> {
    inner: Mutex<PipeInner<T>>,
    /// Signalled when a message arrives or the last sender disconnects,
    /// if a receiver thread is blocked.
    not_empty: Condvar,
    /// Signalled when a slot frees or the receiver disconnects, if a
    /// sender thread is blocked.
    not_full: Condvar,
    capacity: usize,
    policy: OverflowPolicy,
    stats: PipeStats,
}

impl<T> PipeShared<T> {
    fn lock(&self) -> MutexGuard<'_, PipeInner<T>> {
        self.inner.lock().expect("pipe lock")
    }

    /// Pops one message, updating counters and signalling a blocked
    /// writer.
    fn pop(&self, inner: &mut PipeInner<T>) -> Option<T> {
        let value = inner.queue.pop_front()?;
        self.stats.received.fetch_add(1, Ordering::Relaxed);
        if inner.blocked_senders > 0 {
            self.not_full.notify_one();
        }
        Some(value)
    }

    /// Pops up to `max` messages into `buf`, updating the batch counters
    /// once for the whole drain and signalling writers once instead of
    /// per message. Returns the number of messages drained.
    fn pop_batch(&self, inner: &mut PipeInner<T>, buf: &mut Vec<T>, max: usize) -> usize {
        let n = inner.queue.len().min(max);
        if n == 0 {
            return 0;
        }
        buf.extend(inner.queue.drain(..n));
        self.stats.received.fetch_add(n as u64, Ordering::Relaxed);
        self.stats.batched_polls.fetch_add(1, Ordering::Relaxed);
        self.stats.max_drain.fetch_max(n as u64, Ordering::Relaxed);
        // One notify_all for the whole batch: every blocked sender
        // re-checks capacity under the lock, so over-notifying is safe and
        // far cheaper than n notify_one calls.
        if inner.blocked_senders > 0 {
            self.not_full.notify_all();
        }
        n
    }

    /// Takes the receiver's waker for firing once the lock is released, or
    /// coalesces into a wakeup already in flight (counted; the receiver
    /// picks the new messages up in the drain that wakeup triggers).
    fn take_waker(&self, inner: &mut PipeInner<T>) -> Option<Waker> {
        if inner.wake_pending {
            self.stats.coalesced_wakeups.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let waker = inner.recv_waker.take()?;
        inner.wake_pending = true;
        Some(waker)
    }

    /// The one enqueue routine behind every send: enqueues `first` and then
    /// the rest of `iter`, applying the overflow policy per message.
    ///
    /// The lock is taken once per capacity window — once in total unless a
    /// `Block` pipe fills mid-batch. Each window that enqueued anything
    /// signals the receiver once (its waker, coalesced with one already in
    /// flight, and `not_empty` only if a receiver thread is blocked). A
    /// full `Block` pipe parks the caller on `not_full` when `wait` is set
    /// (the window already enqueued was signalled first, so a parked
    /// receiver always drains it) and fails with [`PipeSendError::Full`]
    /// otherwise.
    fn enqueue(
        &self,
        first: T,
        iter: &mut impl Iterator<Item = T>,
        wait: bool,
    ) -> Result<BatchOutcome, PipeSendError<T>> {
        let mut outcome = BatchOutcome::default();
        let mut pending = Some(first);
        while let Some(head) = pending.take() {
            let mut inner = self.lock();
            if !inner.receiver_alive {
                return Err(PipeSendError::Disconnected(head));
            }
            if self.policy == OverflowPolicy::Block && inner.queue.len() >= self.capacity {
                if !wait {
                    return Err(PipeSendError::Full(head));
                }
                inner = self.wait_for_slot(inner);
                outcome.stalled = true;
                if !inner.receiver_alive {
                    return Err(PipeSendError::Disconnected(head));
                }
            }
            let (mut window, mut rejected, mut evicted) = (0u64, 0u64, 0u64);
            let mut next = Some(head);
            while let Some(value) = next.take() {
                if inner.queue.len() >= self.capacity {
                    match self.policy {
                        OverflowPolicy::Block => {
                            // Window closed: signal what we have, then park
                            // for a slot on the next pass round the loop.
                            pending = Some(value);
                            break;
                        }
                        OverflowPolicy::DropNewest => {
                            rejected += 1;
                            next = iter.next();
                            continue;
                        }
                        OverflowPolicy::DropOldest => {
                            inner.queue.pop_front();
                            evicted += 1;
                        }
                    }
                }
                inner.queue.push_back(value);
                window += 1;
                next = iter.next();
            }
            if rejected > 0 {
                self.stats.rejected.fetch_add(rejected, Ordering::Relaxed);
            }
            if evicted > 0 {
                self.stats.evicted.fetch_add(evicted, Ordering::Relaxed);
            }
            outcome.lost += rejected + evicted;
            if window == 0 {
                continue;
            }
            outcome.enqueued += window;
            self.stats.enqueued.fetch_add(window, Ordering::Relaxed);
            self.stats.send_windows.fetch_add(1, Ordering::Relaxed);
            // notify_all: a window may carry several messages for several
            // blocked `recv` callers, and with one waiter it costs the same.
            if inner.blocked_receivers > 0 {
                self.not_empty.notify_all();
            }
            let waker = self.take_waker(&mut inner);
            drop(inner);
            if let Some(w) = waker {
                w.wake();
            }
        }
        Ok(outcome)
    }

    /// Parks a `Block` sender until the queue has room or the receiver is
    /// gone, counting the stall.
    fn wait_for_slot<'a>(
        &self,
        mut inner: MutexGuard<'a, PipeInner<T>>,
    ) -> MutexGuard<'a, PipeInner<T>> {
        self.stats.stalled_sends.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        inner.blocked_senders += 1;
        while inner.queue.len() >= self.capacity && inner.receiver_alive {
            inner = self.not_full.wait(inner).expect("pipe lock");
        }
        inner.blocked_senders -= 1;
        self.stats.stall_micros.fetch_add(
            u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        inner
    }
}

/// The sending half of a bounded pipe. Cloneable.
pub struct PipeSender<T> {
    shared: Arc<PipeShared<T>>,
}

/// The receiving half of a bounded pipe.
pub struct PipeReceiver<T> {
    shared: Arc<PipeShared<T>>,
}

impl<T> std::fmt::Debug for PipeSender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipeSender")
            .field("capacity", &self.shared.capacity)
            .field("policy", &self.shared.policy)
            .finish_non_exhaustive()
    }
}

impl<T> std::fmt::Debug for PipeReceiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipeReceiver")
            .field("capacity", &self.shared.capacity)
            .field("policy", &self.shared.policy)
            .finish_non_exhaustive()
    }
}

/// Creates a bounded pipe with the given capacity and overflow policy.
/// `capacity` is clamped to at least 1; pass [`UNBOUNDED`] for a pipe that
/// never overflows.
pub fn bounded_pipe<T>(
    capacity: usize,
    policy: OverflowPolicy,
) -> (PipeSender<T>, PipeReceiver<T>) {
    let shared = Arc::new(PipeShared {
        inner: Mutex::new(PipeInner {
            queue: VecDeque::new(),
            recv_waker: None,
            wake_pending: false,
            senders: 1,
            receiver_alive: true,
            blocked_receivers: 0,
            blocked_senders: 0,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        capacity: capacity.max(1),
        policy,
        stats: PipeStats::default(),
    });
    (
        PipeSender {
            shared: Arc::clone(&shared),
        },
        PipeReceiver { shared },
    )
}

/// Capacity value meaning "effectively unbounded".
pub const UNBOUNDED: usize = usize::MAX;

impl<T> Clone for PipeSender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        PipeSender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for PipeSender<T> {
    fn drop(&mut self) {
        let waker = {
            let mut inner = self.shared.lock();
            inner.senders -= 1;
            if inner.senders == 0 {
                if inner.blocked_receivers > 0 {
                    self.shared.not_empty.notify_all();
                }
                match inner.recv_waker.take() {
                    Some(w) => {
                        inner.wake_pending = true;
                        Some(w)
                    }
                    None => None,
                }
            } else {
                None
            }
        };
        if let Some(w) = waker {
            w.wake();
        }
    }
}

impl<T> Drop for PipeReceiver<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.lock();
        inner.receiver_alive = false;
        if inner.blocked_senders > 0 {
            self.shared.not_full.notify_all();
        }
    }
}

impl<T> PipeSender<T> {
    /// Sends `value`, applying the overflow policy at capacity: `Block`
    /// waits for a slot, `DropNewest` rejects `value`, `DropOldest` evicts
    /// the oldest pending message. The returned [`SendOutcome`] says which
    /// of those happened.
    ///
    /// # Errors
    /// Returns [`PipeSendError::Disconnected`] when the receiver is gone.
    pub fn send(&self, value: T) -> Result<SendOutcome, PipeSendError<T>> {
        self.shared
            .enqueue(value, &mut std::iter::empty(), true)
            .map(BatchOutcome::single)
    }

    /// Sends without ever blocking: at capacity, `Block` behaves like a
    /// plain bounded channel and returns [`PipeSendError::Full`]; the drop
    /// policies behave exactly as in [`PipeSender::send`].
    ///
    /// # Errors
    /// [`PipeSendError::Full`] under `Block` at capacity,
    /// [`PipeSendError::Disconnected`] when the receiver is gone.
    pub fn try_send(&self, value: T) -> Result<SendOutcome, PipeSendError<T>> {
        self.shared
            .enqueue(value, &mut std::iter::empty(), false)
            .map(BatchOutcome::single)
    }

    /// Sends every message in `batch`, taking the pipe lock once per
    /// capacity window instead of once per message and signalling the
    /// receiver at most once per window. With room for the whole batch
    /// (the common case on the invalidation plane, which runs unbounded)
    /// that is a single lock acquisition and at most a single wakeup no
    /// matter how many messages are enqueued — the producer-side
    /// complement of [`PipeReceiver::recv_batch_async`].
    ///
    /// Overflow follows [`PipeSender::send`] per message: `Block` parks
    /// until a slot frees (the window already enqueued is signalled first,
    /// so a parked receiver always drains it), `DropNewest` rejects the
    /// overflowing message, `DropOldest` evicts the head. The returned
    /// [`BatchOutcome`] sums what happened over the whole batch.
    ///
    /// The iterator is advanced while the pipe lock is held, so pass a
    /// cheap one (a slice iterator, a range) that never waits on another
    /// sender of the same pipe; [`crate::LiveSender`] streams arbitrary
    /// iterators through [`PipeSender::send`] for that reason.
    ///
    /// # Errors
    /// Returns [`PipeSendError::Disconnected`] carrying the first
    /// undelivered message when the receiver is gone; the rest of the
    /// batch is dropped.
    pub fn send_batch<I>(&self, batch: I) -> Result<BatchOutcome, PipeSendError<T>>
    where
        I: IntoIterator<Item = T>,
    {
        let mut iter = batch.into_iter();
        match iter.next() {
            Some(first) => self.shared.enqueue(first, &mut iter, true),
            None => Ok(BatchOutcome::default()),
        }
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Returns `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The pipe's capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// The pipe's overflow policy.
    pub fn policy(&self) -> OverflowPolicy {
        self.shared.policy
    }

    /// A snapshot of the pipe's counters.
    pub fn stats(&self) -> PipeStatsSnapshot {
        self.shared.stats.snapshot()
    }
}

impl<T> PipeReceiver<T> {
    /// Receives without blocking; `None` means the pipe is currently empty
    /// (disconnection is reported by [`PipeReceiver::recv`]).
    pub fn try_recv(&self) -> Option<T> {
        let mut inner = self.shared.lock();
        self.shared.pop(&mut inner)
    }

    /// Blocks until a message arrives or every sender is dropped (`None`).
    pub fn recv(&self) -> Option<T> {
        let mut inner = self.shared.lock();
        loop {
            if let Some(v) = self.shared.pop(&mut inner) {
                return Some(v);
            }
            if inner.senders == 0 {
                return None;
            }
            inner.blocked_receivers += 1;
            inner = self.shared.not_empty.wait(inner).expect("pipe lock");
            inner.blocked_receivers -= 1;
        }
    }

    /// Blocks until a message arrives, the timeout elapses, or every sender
    /// is dropped. `None` covers both timeout and disconnection; check
    /// [`PipeReceiver::is_disconnected`] to distinguish them.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<T> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.shared.lock();
        loop {
            if let Some(v) = self.shared.pop(&mut inner) {
                return Some(v);
            }
            if inner.senders == 0 {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            inner.blocked_receivers += 1;
            let (guard, _) = self
                .shared
                .not_empty
                .wait_timeout(inner, deadline - now)
                .expect("pipe lock");
            inner = guard;
            inner.blocked_receivers -= 1;
        }
    }

    /// Drains every message currently queued without blocking.
    pub fn drain(&self) -> Vec<T> {
        let mut inner = self.shared.lock();
        let mut out = Vec::with_capacity(inner.queue.len());
        while let Some(v) = self.shared.pop(&mut inner) {
            out.push(v);
        }
        out
    }

    /// Drains up to `max` currently-queued messages into `buf` without
    /// blocking, returning how many were moved. Counters are updated once
    /// for the whole batch and blocked senders are signalled once — this is
    /// the cheap path a batch-dequeuing apply task uses.
    pub fn drain_into(&self, buf: &mut Vec<T>, max: usize) -> usize {
        let mut inner = self.shared.lock();
        self.shared.pop_batch(&mut inner, buf, max)
    }

    /// Returns a future resolving to the next message, or `None` once every
    /// sender is dropped and the queue is drained. This is the reactor
    /// integration point: the future registers its [`Waker`] with the pipe
    /// and senders wake it on delivery.
    pub fn recv_async(&self) -> RecvFuture<'_, T> {
        RecvFuture { receiver: self }
    }

    /// Returns a future that waits until the pipe is non-empty, then drains
    /// up to `max` messages into `buf` in one poll, resolving to the number
    /// drained. Resolves to `0` only once every sender is dropped and the
    /// queue is fully drained. One wakeup services the whole backlog — the
    /// batch-dequeue half of the reactor apply path.
    pub fn recv_batch_async<'a>(
        &'a self,
        buf: &'a mut Vec<T>,
        max: usize,
    ) -> RecvBatchFuture<'a, T> {
        RecvBatchFuture {
            receiver: self,
            buf,
            max: max.max(1),
        }
    }

    /// Records one cooperative budget yield in this pipe's counters: the
    /// apply loop drained a full budget, saw backlog remaining, and handed
    /// the reactor back to its sibling tasks.
    pub fn note_budget_yield(&self) {
        self.shared
            .stats
            .budget_yields
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Returns `true` once every sender has been dropped.
    pub fn is_disconnected(&self) -> bool {
        self.shared.lock().senders == 0
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Returns `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the pipe's counters.
    pub fn stats(&self) -> PipeStatsSnapshot {
        self.shared.stats.snapshot()
    }
}

/// Future returned by [`PipeReceiver::recv_async`].
pub struct RecvFuture<'a, T> {
    receiver: &'a PipeReceiver<T>,
}

impl<T> Future for RecvFuture<'_, T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let shared = &self.receiver.shared;
        let mut inner = shared.lock();
        inner.wake_pending = false;
        if let Some(v) = shared.pop(&mut inner) {
            return Poll::Ready(Some(v));
        }
        if inner.senders == 0 {
            return Poll::Ready(None);
        }
        inner.recv_waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// Future returned by [`PipeReceiver::recv_batch_async`]: resolves to the
/// number of messages drained into the caller's buffer (`0` means every
/// sender is gone and the pipe is empty).
pub struct RecvBatchFuture<'a, T> {
    receiver: &'a PipeReceiver<T>,
    buf: &'a mut Vec<T>,
    max: usize,
}

impl<T> Future for RecvBatchFuture<'_, T> {
    type Output = usize;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let shared = &this.receiver.shared;
        let mut inner = shared.lock();
        inner.wake_pending = false;
        let n = shared.pop_batch(&mut inner, this.buf, this.max);
        if n > 0 {
            return Poll::Ready(n);
        }
        if inner.senders == 0 {
            return Poll::Ready(0);
        }
        inner.recv_waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_pipe_round_trip() {
        let (tx, rx) = bounded_pipe::<u64>(UNBOUNDED, OverflowPolicy::Block);
        for i in 0..100 {
            assert_eq!(tx.send(i), Ok(SendOutcome::Enqueued));
        }
        assert_eq!(tx.len(), 100);
        assert_eq!(rx.drain(), (0..100).collect::<Vec<_>>());
        assert!(tx.is_empty() && rx.is_empty());
        let stats = tx.stats();
        assert_eq!(stats.enqueued, 100);
        assert_eq!(stats.received, 100);
        assert_eq!(stats.overflow_dropped(), 0);
    }

    #[test]
    fn send_batch_enqueues_everything_in_one_window() {
        let (tx, rx) = bounded_pipe::<u64>(UNBOUNDED, OverflowPolicy::Block);
        let outcome = tx.send_batch(0..100).unwrap();
        assert_eq!(outcome.enqueued, 100);
        assert_eq!((outcome.lost, outcome.stalled), (0, false));
        assert_eq!(tx.send_batch(std::iter::empty()), Ok(BatchOutcome::default()));
        assert_eq!(rx.drain(), (0..100).collect::<Vec<_>>());
        assert_eq!(tx.stats().enqueued, 100);
        assert_eq!(tx.stats().send_windows, 1, "one lock window for the batch");
    }

    #[test]
    fn send_batch_applies_drop_policies_per_message() {
        let (tx, rx) = bounded_pipe::<u64>(2, OverflowPolicy::DropNewest);
        let outcome = tx.send_batch(0..5).unwrap();
        assert_eq!((outcome.enqueued, outcome.lost), (2, 3), "only the window fits");
        assert_eq!(rx.drain(), vec![0, 1]);
        assert_eq!(rx.stats().rejected, 3);

        let (tx, rx) = bounded_pipe::<u64>(2, OverflowPolicy::DropOldest);
        let outcome = tx.send_batch(0..5).unwrap();
        assert_eq!((outcome.enqueued, outcome.lost), (5, 3), "evictions still enqueue");
        assert_eq!(rx.drain(), vec![3, 4]);
        assert_eq!(rx.stats().evicted, 3);
    }

    #[test]
    fn send_batch_crosses_capacity_windows_under_block() {
        let (tx, rx) = bounded_pipe::<u64>(4, OverflowPolicy::Block);
        let handle = std::thread::spawn(move || tx.send_batch(0..64));
        let mut got = Vec::new();
        while got.len() < 64 {
            got.push(rx.recv().expect("sender alive until batch done"));
        }
        let outcome = handle.join().unwrap().unwrap();
        assert_eq!(outcome.enqueued, 64);
        assert!(outcome.stalled, "a 4-slot pipe cannot take 64 at once");
        assert_eq!(got, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn send_batch_reports_disconnect_with_first_undelivered() {
        let (tx, rx) = bounded_pipe::<u64>(UNBOUNDED, OverflowPolicy::Block);
        drop(rx);
        assert_eq!(tx.send_batch(7..10), Err(PipeSendError::Disconnected(7)));
    }

    #[test]
    fn drop_newest_rejects_at_capacity() {
        let (tx, rx) = bounded_pipe::<u64>(2, OverflowPolicy::DropNewest);
        assert_eq!(tx.send(1), Ok(SendOutcome::Enqueued));
        assert_eq!(tx.send(2), Ok(SendOutcome::Enqueued));
        assert_eq!(tx.send(3), Ok(SendOutcome::Rejected));
        assert_eq!(rx.drain(), vec![1, 2]);
        let stats = rx.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.enqueued, 2);
        assert_eq!(stats.overflow_dropped(), 1);
    }

    #[test]
    fn drop_oldest_evicts_at_capacity() {
        let (tx, rx) = bounded_pipe::<u64>(2, OverflowPolicy::DropOldest);
        assert_eq!(tx.send(1), Ok(SendOutcome::Enqueued));
        assert_eq!(tx.send(2), Ok(SendOutcome::Enqueued));
        for i in 3..=5 {
            let outcome = tx.send(i).unwrap();
            assert_eq!(outcome, SendOutcome::EnqueuedEvictingOldest);
            assert!(outcome.was_enqueued() && outcome.lost_a_message());
        }
        assert_eq!(rx.drain(), vec![4, 5]);
        let stats = rx.stats();
        assert_eq!(stats.evicted, 3);
        assert_eq!(stats.enqueued, 5);
        assert_eq!(stats.received, 2);
    }

    #[test]
    fn block_policy_stalls_the_sender_until_a_slot_frees() {
        let (tx, rx) = bounded_pipe::<u64>(1, OverflowPolicy::Block);
        assert_eq!(tx.send(1), Ok(SendOutcome::Enqueued));
        let handle = std::thread::spawn(move || tx.send(2).map(|_| tx.stats()));
        // Give the sender time to park, then free the slot (test-only
        // wall-clock coordination).
        #[allow(clippy::disallowed_methods)]
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Some(1));
        let stats = handle.join().unwrap().unwrap();
        assert_eq!(stats.stalled_sends, 1);
        assert!(stats.stall_micros > 0);
        assert_eq!(rx.recv(), Some(2), "the stalled send completed");
        assert_eq!(rx.recv(), None, "sender dropped after its send completed");
        assert_eq!(rx.stats().received, 2);
    }

    #[test]
    fn try_send_reports_full_under_block() {
        let (tx, rx) = bounded_pipe::<u64>(1, OverflowPolicy::Block);
        assert_eq!(tx.try_send(1), Ok(SendOutcome::Enqueued));
        assert_eq!(tx.try_send(2), Err(PipeSendError::Full(2)));
        assert_eq!(tx.capacity(), 1);
        assert_eq!(tx.policy(), OverflowPolicy::Block);
        drop(rx);
        assert_eq!(tx.try_send(3), Err(PipeSendError::Disconnected(3)));
        assert_eq!(tx.send(4).unwrap_err().into_inner(), 4);
    }

    #[test]
    fn recv_blocks_until_message_or_disconnect() {
        let (tx, rx) = bounded_pipe::<u64>(4, OverflowPolicy::Block);
        let handle = std::thread::spawn(move || rx.recv());
        tx.send(7).unwrap();
        assert_eq!(handle.join().unwrap(), Some(7));

        let (tx, rx) = bounded_pipe::<u64>(4, OverflowPolicy::Block);
        let handle = std::thread::spawn(move || rx.recv());
        drop(tx);
        assert_eq!(handle.join().unwrap(), None);
    }

    #[test]
    fn recv_timeout_expires_without_traffic() {
        let (tx, rx) = bounded_pipe::<u64>(4, OverflowPolicy::Block);
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), None);
        assert!(!rx.is_disconnected());
        tx.send(1).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)), Some(1));
        drop(tx);
        assert!(rx.is_disconnected());
        assert_eq!(rx.recv_timeout(Duration::from_millis(1)), None);
    }

    #[test]
    fn blocked_sender_unblocks_on_receiver_drop() {
        let (tx, rx) = bounded_pipe::<u64>(1, OverflowPolicy::Block);
        tx.send(1).unwrap();
        let handle = std::thread::spawn(move || tx.send(2));
        // Test-only wall-clock coordination: let the sender park first.
        #[allow(clippy::disallowed_methods)]
        std::thread::sleep(Duration::from_millis(10));
        drop(rx);
        assert_eq!(handle.join().unwrap(), Err(PipeSendError::Disconnected(2)));
    }

    /// Overflow counters must match a sequential oracle: replay the same
    /// bounded-queue semantics over a plain `VecDeque` and compare every
    /// counter for both drop policies.
    #[test]
    fn overflow_counters_match_a_sequential_oracle() {
        for policy in [OverflowPolicy::DropNewest, OverflowPolicy::DropOldest] {
            let capacity = 7usize;
            let (tx, rx) = bounded_pipe::<u64>(capacity, policy);
            let mut oracle: VecDeque<u64> = VecDeque::new();
            let (mut enqueued, mut rejected, mut evicted) = (0u64, 0u64, 0u64);
            // A deterministic on/off traffic pattern: bursts of sends
            // interleaved with partial drains.
            for round in 0..50u64 {
                for i in 0..(round % 11) {
                    let v = round * 100 + i;
                    if oracle.len() >= capacity {
                        match policy {
                            OverflowPolicy::DropNewest => {
                                rejected += 1;
                                assert_eq!(tx.send(v), Ok(SendOutcome::Rejected));
                                continue;
                            }
                            OverflowPolicy::DropOldest => {
                                oracle.pop_front();
                                evicted += 1;
                            }
                            OverflowPolicy::Block => unreachable!(),
                        }
                        assert_eq!(tx.send(v), Ok(SendOutcome::EnqueuedEvictingOldest));
                    } else {
                        assert_eq!(tx.send(v), Ok(SendOutcome::Enqueued));
                    }
                    oracle.push_back(v);
                    enqueued += 1;
                }
                for _ in 0..(round % 5) {
                    assert_eq!(rx.try_recv(), oracle.pop_front());
                }
            }
            // Drain the tail and compare the full counter set.
            let tail: Vec<u64> = rx.drain();
            assert_eq!(tail, oracle.into_iter().collect::<Vec<_>>());
            let stats = rx.stats();
            assert_eq!(stats.enqueued, enqueued, "{policy}");
            assert_eq!(stats.rejected, rejected, "{policy}");
            assert_eq!(stats.evicted, evicted, "{policy}");
            assert_eq!(stats.received, stats.enqueued - stats.evicted, "{policy}");
            assert_eq!(stats.overflow_dropped(), rejected + evicted, "{policy}");
        }
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = PipeStatsSnapshot {
            enqueued: 1,
            send_windows: 1,
            rejected: 2,
            evicted: 3,
            received: 4,
            stalled_sends: 5,
            stall_micros: 6,
            batched_polls: 2,
            max_drain: 7,
            coalesced_wakeups: 8,
            budget_yields: 9,
        };
        a.merge(a);
        assert_eq!(a.enqueued, 2);
        assert_eq!(a.send_windows, 2);
        assert_eq!(a.stall_micros, 12);
        assert_eq!(a.overflow_dropped(), 10);
        assert_eq!(a.batched_polls, 4);
        assert_eq!(a.max_drain, 7, "max_drain takes the max, not the sum");
        assert_eq!(a.coalesced_wakeups, 16);
        assert_eq!(a.budget_yields, 18);
    }

    /// Long sweeps aggregate many snapshots; sums must saturate instead of
    /// wrapping (the satellite fix for u64 counter aggregation).
    #[test]
    fn stats_merge_saturates_instead_of_wrapping() {
        let mut a = PipeStatsSnapshot {
            enqueued: u64::MAX - 1,
            send_windows: u64::MAX,
            rejected: u64::MAX,
            evicted: u64::MAX,
            received: u64::MAX - 3,
            stalled_sends: 1,
            stall_micros: u64::MAX,
            batched_polls: u64::MAX,
            max_drain: 5,
            coalesced_wakeups: u64::MAX,
            budget_yields: u64::MAX,
        };
        a.merge(a);
        assert_eq!(a.enqueued, u64::MAX);
        assert_eq!(a.rejected, u64::MAX);
        assert_eq!(a.received, u64::MAX);
        assert_eq!(a.stalled_sends, 2);
        assert_eq!(a.stall_micros, u64::MAX);
        assert_eq!(a.overflow_dropped(), u64::MAX, "overflow sum saturates too");
        assert_eq!(a.max_drain, 5);
    }

    /// Runs `f` on its own thread and fails the test if it has not
    /// finished within `limit` — a lost wakeup shows as a hang, not a
    /// wrong value.
    fn within<R: Send + 'static>(limit: Duration, f: impl FnOnce() -> R + Send + 'static) -> R {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = done_tx.send(f());
        });
        let result = done_rx
            .recv_timeout(limit)
            .expect("timed out: a blocked thread was never woken");
        worker.join().unwrap();
        result
    }

    const PING_PONG_ROUNDS: u64 = 100_000;

    /// Both sides block in `recv` on every round, so every `send_batch`
    /// must see its peer counted as a blocked receiver and signal it.
    #[test]
    fn blocking_recv_and_send_batch_ping_pong() {
        within(Duration::from_secs(120), || {
            let (ping_tx, ping_rx) = bounded_pipe::<u64>(UNBOUNDED, OverflowPolicy::Block);
            let (pong_tx, pong_rx) = bounded_pipe::<u64>(UNBOUNDED, OverflowPolicy::Block);
            let echo = std::thread::spawn(move || {
                while let Some(v) = ping_rx.recv() {
                    pong_tx.send_batch([v + 1]).unwrap();
                }
            });
            for i in 0..PING_PONG_ROUNDS {
                ping_tx.send_batch([i]).unwrap();
                assert_eq!(pong_rx.recv(), Some(i + 1));
            }
            drop(ping_tx);
            echo.join().unwrap();
            assert_eq!(pong_rx.recv(), None, "echo dropped its sender");
        });
    }

    /// A one-slot `Block` pipe: the sender stalls on `not_full` while the
    /// receiver blocks on `not_empty`, so each side's progress depends on
    /// the other's signal reaching a counted waiter.
    #[test]
    fn block_pipe_stall_ping_pong() {
        let stats = within(Duration::from_secs(120), || {
            let (tx, rx) = bounded_pipe::<u64>(1, OverflowPolicy::Block);
            let producer = std::thread::spawn(move || {
                for i in 0..PING_PONG_ROUNDS {
                    tx.send(i).unwrap();
                }
            });
            for i in 0..PING_PONG_ROUNDS {
                assert_eq!(rx.recv(), Some(i));
            }
            producer.join().unwrap();
            assert_eq!(rx.recv(), None);
            rx.stats()
        });
        assert_eq!(stats.received, PING_PONG_ROUNDS);
        assert_eq!(stats.send_windows, PING_PONG_ROUNDS);
    }

    #[test]
    fn policy_displays() {
        assert_eq!(OverflowPolicy::Block.to_string(), "block");
        assert_eq!(OverflowPolicy::DropNewest.to_string(), "drop-newest");
        assert_eq!(OverflowPolicy::DropOldest.to_string(), "drop-oldest");
        assert_eq!(OverflowPolicy::default(), OverflowPolicy::Block);
    }
}
