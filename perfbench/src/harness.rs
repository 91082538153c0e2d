//! One round of a run: set up a fresh system, drive it from one closed-loop
//! client thread for a fixed wall-clock time, replay the execution log
//! through the consistency monitor, and check the results.
//!
//! The client issues the live plane's calls itself —
//! [`EdgeCache::execute_read_only`] round-robin over the caches and
//! [`Database::execute_update`](tcache::db::Database::execute_update) — while
//! the system's reactor thread applies invalidations. A traced round also
//! records an in-memory [`Span`] around every call into a layer and samples
//! the invalidation stream's lag after every op.

use crate::inputs::{Inputs, Op, Spec};
use crate::placement::Placement;
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use tcache::cache::{EdgeCache, ReadMode};
use tcache::monitor::{BatchedIngest, MonitorReport, ReadPhase};
use tcache::types::{
    CacheId, ObjectId, SimTime, Strategy, TransactionRecord, TxnId, Value, Version,
};
use tcache::{two_tier_parents, DeliveryMode, SystemBuilder, TCacheSystem, TransportMode};

/// Read-only transactions buffered per monitor ingest epoch (the live
/// plane's value).
const INGEST_EPOCH_BOUND: usize = 64;

/// How long the post-loop quiesce may wait for the reactor to settle.
const QUIESCE_TIMEOUT: Duration = Duration::from_secs(10);

/// What one round runs.
#[derive(Debug, Clone, Copy)]
pub struct RoundPlan<'a> {
    /// The workload's deployment and traffic mix.
    pub spec: Spec,
    /// The pre-generated op stream.
    pub inputs: &'a Inputs,
    /// Seed of the system's loss models.
    pub seed: u64,
    /// Wall-clock length of the measured loop.
    pub duration: Duration,
    /// Upper bound on ops in the measured loop (tests use a small one).
    pub max_ops: u64,
    /// Whether to record spans and stream-lag samples.
    pub traced: bool,
    /// Where the client and reactor threads run.
    pub placement: Placement,
}

/// Set-up phases, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// `SystemBuilder::build`.
    pub build_s: f64,
    /// Loading every object into the database.
    pub populate_s: f64,
    /// One read of every object through every cache.
    pub warm_s: f64,
}

impl Setup {
    /// The whole set-up.
    pub fn total_s(&self) -> f64 {
        self.build_s + self.populate_s + self.warm_s
    }
}

/// The layer call a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// `execute_read_only` that did not move the cache's miss counter.
    CacheHit,
    /// `execute_read_only` that fetched at least one object from the database.
    CacheMiss,
    /// `Database::execute_update`, publish upcalls included.
    DbUpdate,
    /// `BatchedIngest::record_update_commit` during replay.
    MonitorUpdate,
    /// `BatchedIngest::submit_read` (its epoch flushes included) during
    /// replay, and the final flush.
    MonitorRead,
}

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The call.
    pub kind: SpanKind,
    /// Duration, in nanoseconds.
    pub dur_ns: u64,
}

/// Public counters of every layer, summed over caches where per cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub hits: u64,
    pub misses: u64,
    pub txns_aborted: u64,
    pub fastpath_txns: u64,
    pub promoted_txns: u64,
    pub invalidations_applied: u64,
    pub invalidations_ignored: u64,
    pub gaps_detected: u64,
    pub invalidations_missed: u64,
    pub updates_committed: u64,
    pub updates_aborted: u64,
    pub optimistic_hits: u64,
    pub lock_fallbacks: u64,
    pub locked_reads: u64,
    pub publish_nanos: u64,
    /// The largest single drain of any pipe (a high-water mark, not a sum).
    pub pipe_max_drain: u64,
    pub pipe_coalesced_wakeups: u64,
    pub pipe_stalled_sends: u64,
    pub reactor_polls: u64,
    pub reactor_wakes: u64,
    pub reactor_spin_recoveries: u64,
    pub delivery_dropped: u64,
    pub delivery_delivered: u64,
    pub relay_overflows: u64,
}

impl Counters {
    /// Reads every layer's counters.
    pub fn snapshot(system: &TCacheSystem) -> Counters {
        let stats = system.stats();
        let reactor = system.reactor_stats().unwrap_or_default();
        let mut c = Counters {
            hits: stats.cache.hits,
            misses: stats.cache.misses,
            txns_aborted: stats.cache.txns_aborted,
            fastpath_txns: stats.cache.fastpath_txns,
            promoted_txns: stats.cache.promoted_txns,
            invalidations_applied: stats.cache.invalidations_applied,
            invalidations_ignored: stats.cache.invalidations_ignored,
            updates_committed: stats.db.updates_committed,
            updates_aborted: stats.db.updates_aborted,
            optimistic_hits: stats.db.read_path.optimistic_hits,
            lock_fallbacks: stats.db.read_path.lock_fallbacks,
            locked_reads: stats.db.read_path.locked_reads,
            reactor_polls: reactor.polls,
            reactor_wakes: reactor.wakes,
            reactor_spin_recoveries: reactor.spin_recoveries,
            relay_overflows: system.relay_overflows(),
            ..Counters::default()
        };
        for node in &stats.per_cache {
            let lifecycle = system
                .cache(node.id)
                .expect("stats name deployed caches")
                .lifecycle_stats();
            c.gaps_detected += lifecycle.gaps_detected;
            c.invalidations_missed += lifecycle.invalidations_missed;
            c.pipe_max_drain = c.pipe_max_drain.max(node.pipe.max_drain);
            c.pipe_coalesced_wakeups += node.pipe.coalesced_wakeups;
            c.pipe_stalled_sends += node.pipe.stalled_sends;
            c.delivery_dropped += node.delivery.dropped;
            c.delivery_delivered += node.delivery.delivered;
        }
        c.publish_nanos = system
            .database()
            .publish_stats()
            .iter()
            .map(|(_, p)| p.publish_nanos)
            .sum();
        c
    }

    /// Counter growth from `before` to `self`; the pipe drain high-water
    /// mark is kept as is.
    pub fn since(&self, before: &Counters) -> Counters {
        macro_rules! delta {
            ($($field:ident),*) => {
                Counters {
                    $($field: self.$field.saturating_sub(before.$field),)*
                    pipe_max_drain: self.pipe_max_drain,
                }
            };
        }
        delta!(
            hits,
            misses,
            txns_aborted,
            fastpath_txns,
            promoted_txns,
            invalidations_applied,
            invalidations_ignored,
            gaps_detected,
            invalidations_missed,
            updates_committed,
            updates_aborted,
            optimistic_hits,
            lock_fallbacks,
            locked_reads,
            publish_nanos,
            pipe_coalesced_wakeups,
            pipe_stalled_sends,
            reactor_polls,
            reactor_wakes,
            reactor_spin_recoveries,
            delivery_dropped,
            delivery_delivered,
            relay_overflows
        )
    }
}

/// Everything one round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Whether spans were recorded.
    pub traced: bool,
    /// Set-up phase times.
    pub setup: Setup,
    /// Ops issued in the measured loop.
    pub ops: u64,
    /// Read-only transactions issued.
    pub reads: u64,
    /// Update transactions issued.
    pub updates: u64,
    /// Calls that returned `Err`.
    pub failed: u64,
    /// Wall-clock length of the measured loop, in seconds.
    pub loop_s: f64,
    /// Latency of every read-only transaction (aborted ones included), ns.
    pub read_ns: Vec<u64>,
    /// Latency of every update transaction, ns.
    pub update_ns: Vec<u64>,
    /// Time from an update returning until every cache's stream position
    /// covered its invalidations, polled at op boundaries, ns.
    pub inv_age_ns: Vec<u64>,
    /// Cache plus database footprint at the end of the loop, bytes.
    pub footprint_bytes: u64,
    /// Wall-clock monitor replay time, in seconds.
    pub replay_s: f64,
    /// The monitor's classification of the round.
    pub report: MonitorReport,
    /// Monitor ingest epochs flushed during replay.
    pub epochs_flushed: u64,
    /// Counter growth over the measured loop (and its quiesce).
    pub counters: Counters,
    /// Spans of the loop and the replay (traced rounds only).
    pub spans: Vec<Span>,
    /// Latest stream position minus the lowest applied one, after every
    /// op (traced rounds only).
    pub stream_lag: Vec<u64>,
    /// Failed correctness checks.
    pub violations: Vec<String>,
}

/// What the measured loop logs for the replay.
#[derive(Default)]
struct ExecLog {
    entries: Vec<Entry>,
    /// Observed `(object, version)` pairs of every read, back to back.
    observed: Vec<(ObjectId, Version)>,
    updates: Vec<UpdateLog>,
}

#[derive(Clone, Copy)]
enum Entry {
    Read {
        cache: u32,
        len: u32,
        committed: bool,
        degraded: bool,
    },
    Update(u32),
}

struct UpdateLog {
    txn: TxnId,
    reads: Vec<(ObjectId, Version)>,
    written: Vec<(ObjectId, Version)>,
}

/// Runs one round.
///
/// # Errors
/// Fails if the threads cannot be placed or set-up hits an error; a failed
/// check of the measured results is reported in [`Round::violations`]
/// instead.
pub fn run_round(plan: &RoundPlan<'_>) -> Result<Round, String> {
    let mut round = Round {
        traced: plan.traced,
        ..Round::default()
    };
    let mut next_txn = 0u64;
    let system = set_up(plan, &mut round.setup, &mut next_txn)?;

    let before = Counters::snapshot(&system);
    let mut log = ExecLog::default();
    if plan.traced {
        measured_loop::<true>(plan, &system, &mut next_txn, &mut round, &mut log);
    } else {
        measured_loop::<false>(plan, &system, &mut next_txn, &mut round, &mut log);
    }
    let caches: Vec<&EdgeCache> = system
        .cache_ids()
        .filter_map(|id| system.cache(id))
        .collect();
    round.footprint_bytes = (caches.iter().map(|c| c.footprint_bytes()).sum::<usize>()
        + system.database().footprint_bytes()) as u64;

    match system.quiesce(QUIESCE_TIMEOUT) {
        Ok(true) => {}
        Ok(false) => round.violations.push(format!(
            "the reactor did not settle within {QUIESCE_TIMEOUT:?}"
        )),
        Err(e) => round.violations.push(format!("quiesce failed: {e}")),
    }
    round.counters = Counters::snapshot(&system).since(&before);
    if plan.spec.lossless() {
        let latest = system.database().invalidation_latest_seq();
        for cache in &caches {
            if cache.last_applied_seq() != latest {
                round.violations.push(format!(
                    "cache {} applied stream position {} after quiesce, database is at {latest}",
                    cache.id().0,
                    cache.last_applied_seq()
                ));
            }
        }
        let c = round.counters;
        if c.gaps_detected + c.invalidations_missed + c.delivery_dropped > 0 {
            round.violations.push(format!(
                "a lossless stream lost invalidations: {} gaps, {} missed, {} dropped",
                c.gaps_detected, c.invalidations_missed, c.delivery_dropped
            ));
        }
    }
    drop(caches);
    drop(system);

    replay(plan, log, &mut round);
    check(&mut round);
    Ok(round)
}

/// Builds, populates and warms a system, timing each phase.
fn set_up(
    plan: &RoundPlan<'_>,
    setup: &mut Setup,
    next_txn: &mut u64,
) -> Result<TCacheSystem, String> {
    let spec = &plan.spec;
    let mut builder = SystemBuilder::new()
        .dependency_bound(spec.dependency_bound)
        .strategy(Strategy::Abort)
        .shards(spec.shards)
        .caches(spec.caches)
        .invalidation_loss(spec.loss)
        .invalidation_delay_millis(0)
        .transport(TransportMode::Reactor)
        .delivery(DeliveryMode::Modeled)
        .seed(plan.seed);
    if let Some((roots, leaves)) = spec.two_tier {
        builder = builder.cache_parents(two_tier_parents(roots, leaves));
    }
    // The reactor thread inherits the affinity its spawner has at build.
    plan.placement.pin_for_spawn()?;
    let started = Instant::now();
    let system = builder.build();
    setup.build_s = started.elapsed().as_secs_f64();
    plan.placement.pin_client()?;

    let started = Instant::now();
    system.populate((0..spec.objects).map(|i| (ObjectId(i), Value::new(0))));
    setup.populate_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    for id in system.cache_ids() {
        let cache = system.cache(id).expect("cache_ids names deployed caches");
        for object in 0..spec.objects {
            *next_txn += 1;
            let txn = cache
                .execute_read_only(SimTime::ZERO, TxnId(*next_txn), &[ObjectId(object)])
                .map_err(|e| format!("warming read of object {object} on cache {}: {e}", id.0))?;
            if !txn.committed {
                return Err(format!(
                    "warming read of object {object} on cache {} aborted",
                    id.0
                ));
            }
        }
    }
    setup.warm_s = started.elapsed().as_secs_f64();
    Ok(system)
}

/// Allocates and touches room for `n` items in an empty buffer, so the
/// measured loop neither reallocates nor takes first-touch page faults
/// while it fills the buffer.
fn prefault<T: Copy>(buffer: &mut Vec<T>, n: usize, filler: T) {
    buffer.resize(n, filler);
    buffer.clear();
}

fn nanos(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

/// The closed loop: one op at a time until the deadline or `max_ops`.
fn measured_loop<const TRACED: bool>(
    plan: &RoundPlan<'_>,
    system: &TCacheSystem,
    next_txn: &mut u64,
    round: &mut Round,
    log: &mut ExecLog,
) {
    let inputs = plan.inputs;
    let db = system.database();
    let caches: Vec<&EdgeCache> = system
        .cache_ids()
        .filter_map(|id| system.cache(id))
        .collect();
    let min_applied = || {
        caches
            .iter()
            .map(|c| c.last_applied_seq())
            .min()
            .unwrap_or(0)
    };
    let capacity = inputs.ops.len().min(plan.max_ops as usize);
    prefault(&mut round.read_ns, capacity, 0);
    prefault(&mut round.update_ns, capacity, 0);
    prefault(&mut round.inv_age_ns, capacity, 0);
    prefault(&mut log.entries, capacity, Entry::Update(0));
    prefault(
        &mut log.observed,
        inputs.keys.len(),
        (ObjectId(0), Version(0)),
    );
    if TRACED {
        let filler = Span {
            kind: SpanKind::CacheHit,
            dur_ns: 0,
        };
        prefault(&mut round.spans, capacity, filler);
        prefault(&mut round.stream_lag, capacity, 0);
    }
    // (highest invalidation seq of a commit, when the update returned)
    let mut pending: VecDeque<(u64, Instant)> = VecDeque::new();
    let mut cursor = 0usize;
    let started = Instant::now();
    let deadline = started + plan.duration;
    let mut now = started;
    while round.ops < plan.max_ops && now < deadline {
        let op = inputs.ops[cursor];
        cursor += 1;
        if cursor == inputs.ops.len() {
            cursor = 0;
        }
        *next_txn += 1;
        let txn = TxnId(*next_txn);
        match op {
            Op::Read { cache, start, len } => {
                let keys = inputs.read_keys(start, len);
                let server = caches[cache as usize];
                let misses_before = if TRACED { server.stats().misses } else { 0 };
                let t0 = Instant::now();
                let result = server.execute_read_only(SimTime::ZERO, txn, keys);
                let t1 = Instant::now();
                round.read_ns.push(nanos(t0, t1));
                round.reads += 1;
                match result {
                    Ok(read) => {
                        log.observed.extend_from_slice(&read.observed);
                        log.entries.push(Entry::Read {
                            cache,
                            len: read.observed.len() as u32,
                            committed: read.committed,
                            degraded: read.mode == ReadMode::PassThrough,
                        });
                    }
                    Err(_) => round.failed += 1,
                }
                if TRACED {
                    let kind = if server.stats().misses == misses_before {
                        SpanKind::CacheHit
                    } else {
                        SpanKind::CacheMiss
                    };
                    round.spans.push(Span {
                        kind,
                        dur_ns: nanos(t0, t1),
                    });
                }
                now = t1;
            }
            Op::Update { set } => {
                let t0 = Instant::now();
                let result = db.execute_update(txn, &inputs.updates[set as usize]);
                let t1 = Instant::now();
                round.update_ns.push(nanos(t0, t1));
                round.updates += 1;
                match result {
                    Ok(commit) => {
                        if let Some(seq) = commit.invalidations.iter().map(|i| i.seq).max() {
                            pending.push_back((seq, t1));
                        }
                        log.entries.push(Entry::Update(log.updates.len() as u32));
                        log.updates.push(UpdateLog {
                            txn,
                            reads: commit.reads,
                            written: commit.written,
                        });
                    }
                    Err(_) => round.failed += 1,
                }
                if TRACED {
                    round.spans.push(Span {
                        kind: SpanKind::DbUpdate,
                        dur_ns: nanos(t0, t1),
                    });
                }
                now = t1;
            }
        }
        round.ops += 1;
        if TRACED {
            let applied = min_applied();
            round
                .stream_lag
                .push(db.invalidation_latest_seq().saturating_sub(applied));
        }
        if !pending.is_empty() {
            let applied = min_applied();
            while let Some(&(seq, committed_at)) = pending.front() {
                if seq > applied {
                    break;
                }
                round.inv_age_ns.push(nanos(committed_at, now));
                pending.pop_front();
            }
        }
    }
    // Commits still pending when the loop stops are not counted: on a lossy
    // link a position may only pass them with a later commit.
    round.loop_s = started.elapsed().as_secs_f64();
}

/// Replays the log through a fresh monitor behind a [`BatchedIngest`], in
/// execution order (one client thread, so that is the real order).
fn replay(plan: &RoundPlan<'_>, mut log: ExecLog, round: &mut Round) {
    let mut ingest = BatchedIngest::new(plan.spec.caches, INGEST_EPOCH_BOUND);
    let mut sink = |_token: u64, _class| {};
    let traced = plan.traced;
    let mut offset = 0usize;
    let started = Instant::now();
    let span = |round: &mut Round, kind, t0: Instant| {
        if traced {
            round.spans.push(Span {
                kind,
                dur_ns: nanos(t0, Instant::now()),
            });
        }
    };
    for entry in &log.entries {
        let t0 = Instant::now();
        match *entry {
            Entry::Read {
                cache,
                len,
                committed,
                degraded,
            } => {
                let observed = log.observed[offset..offset + len as usize].to_vec();
                offset += len as usize;
                let phase = if degraded {
                    ReadPhase::Degraded
                } else {
                    ReadPhase::Healthy
                };
                ingest.submit_read(
                    cache as usize,
                    Some(CacheId(cache)),
                    Some(phase),
                    observed,
                    committed,
                    &mut sink,
                );
                span(round, SpanKind::MonitorRead, t0);
            }
            Entry::Update(index) => {
                let update = &mut log.updates[index as usize];
                let record = TransactionRecord::update_committed(
                    update.txn,
                    std::mem::take(&mut update.reads),
                    std::mem::take(&mut update.written),
                    SimTime::ZERO,
                );
                ingest.record_update_commit(&record);
                span(round, SpanKind::MonitorUpdate, t0);
            }
        }
    }
    let t0 = Instant::now();
    ingest.flush(&mut sink);
    span(round, SpanKind::MonitorRead, t0);
    round.epochs_flushed = ingest.epochs_flushed();
    round.report = ingest.monitor().report();
    round.replay_s = started.elapsed().as_secs_f64();
}

/// The correctness checks on a finished round.
fn check(round: &mut Round) {
    if round.failed > 0 {
        round
            .violations
            .push(format!("{} calls returned Err", round.failed));
    }
    let report = round.report;
    if report.read_only_total() != round.reads {
        round.violations.push(format!(
            "the monitor classified {} read-only transactions, {} were issued",
            report.read_only_total(),
            round.reads
        ));
    }
    if report.aborted_total() != round.counters.txns_aborted {
        round.violations.push(format!(
            "the monitor saw {} aborts, the caches counted {}",
            report.aborted_total(),
            round.counters.txns_aborted
        ));
    }
    if report.updates_committed != round.counters.updates_committed {
        round.violations.push(format!(
            "the monitor replayed {} committed updates, the database committed {}",
            report.updates_committed, round.counters.updates_committed
        ));
    }
}
