//! Differential property test pinning [`BatchedIngest`] against immediate
//! ingest: on any randomized schedule of update and read-only transactions
//! (spread over caches, healthy and degraded phases, arbitrary shard
//! assignment and epoch bound), deferring read classification to epoch
//! flushes must produce the same per-transaction verdict and the same
//! global, per-cache and per-phase `MonitorReport`s as classifying each
//! read the moment it completes.
//!
//! Generated reads observe only versions installed at submission time
//! (clamped in the driver loop) — the reachable state space: a cache can
//! never serve a version the database has not committed, and verdict
//! stability under deferral holds exactly on that domain. (An earlier,
//! unclamped version of this generator produced reads of future versions
//! and correctly detected that deferral changes their verdicts.)
//!
//! Update transactions carry read sets as the database reports them: the
//! version each written object had before the write (read-modify-write)
//! and the current version of each object read but not written. These
//! reads give the serialization graph its read→overwriter edges, so the
//! deferred reads are also classified against those.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use tcache_monitor::{BatchedIngest, ConsistencyMonitor, ReadPhase, TransactionClass};
use tcache_types::{CacheId, ObjectId, SimTime, TransactionRecord, TxnId, Version};

#[derive(Debug, Clone)]
enum Op {
    /// Commit an update writing the next version of each object in
    /// `writes`, after reading every written object and every object in
    /// `reads` at its current version.
    UpdateCommit { writes: Vec<u64>, reads: Vec<u64> },
    /// An update aborted by the database (counted, no history extension).
    UpdateAbort,
    /// A completed read-only transaction.
    Read {
        cache: u64,
        degraded: bool,
        reads: Vec<(u64, u64)>,
        committed: bool,
        shard: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            prop::collection::vec(0u64..6, 1..4),
            prop::collection::vec(0u64..6, 0..3),
        )
            .prop_map(|(mut writes, mut reads)| {
                writes.sort_unstable();
                writes.dedup();
                reads.sort_unstable();
                reads.dedup();
                reads.retain(|o| !writes.contains(o));
                Op::UpdateCommit { writes, reads }
            }),
        Just(Op::UpdateAbort),
        (
            (0u64..3, 0u64..2),
            (
                prop::collection::vec((0u64..6, 0u64..30), 1..5),
                0u64..2,
                0usize..8,
            ),
        )
            .prop_map(|((cache, degraded), (reads, committed, shard))| Op::Read {
                cache,
                degraded: degraded == 1,
                reads,
                committed: committed == 1,
                shard,
            }),
        // A second read arm so the schedule mix leans toward reads.
        (0u64..3, prop::collection::vec((0u64..6, 0u64..30), 1..5), 0usize..8).prop_map(
            |(cache, reads, shard)| Op::Read {
                cache,
                degraded: false,
                reads,
                committed: true,
                shard,
            }
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn batched_ingest_matches_immediate(
        ops in prop::collection::vec(op_strategy(), 1..60),
        shards in 1usize..5,
        bound in 1usize..20,
    ) {
        let mut immediate = ConsistencyMonitor::new();
        let mut batched = BatchedIngest::new(shards, bound);
        let mut deferred: BTreeMap<u64, TransactionClass> = BTreeMap::new();
        let mut sink = |token: u64, class: TransactionClass| {
            deferred.insert(token, class);
        };

        let mut expected: Vec<(u64, TransactionClass)> = Vec::new();
        let mut caches: BTreeSet<CacheId> = BTreeSet::new();
        // The database assigns each update transaction ONE version, larger
        // than every version previously installed, and installs it for all
        // of the transaction's writes; the interval test is sound only on
        // such version-ordered histories. `installed[o]` is the increasing
        // list of versions installed for object `o`.
        let mut next_version: u64 = 0;
        let mut installed: BTreeMap<u64, Vec<u64>> = BTreeMap::new();

        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::UpdateCommit { writes, reads } => {
                    next_version += 1;
                    let current = |obj: u64| {
                        let latest = installed.get(&obj).and_then(|vs| vs.last().copied());
                        (ObjectId(obj), Version(latest.unwrap_or(0)))
                    };
                    let observed: Vec<(ObjectId, Version)> =
                        writes.iter().chain(reads).map(|&obj| current(obj)).collect();
                    let written: Vec<(ObjectId, Version)> = writes
                        .iter()
                        .map(|&obj| {
                            installed.entry(obj).or_default().push(next_version);
                            (ObjectId(obj), Version(next_version))
                        })
                        .collect();
                    let record = TransactionRecord::update_committed(
                        TxnId(i as u64),
                        observed,
                        written,
                        SimTime::from_micros(i as u64 + 1),
                    );
                    immediate.record_update_commit(&record);
                    batched.record_update_commit(&record);
                }
                Op::UpdateAbort => {
                    immediate.record_update_abort();
                    batched.record_update_abort();
                }
                Op::Read { cache, degraded, reads, committed, shard } => {
                    let cache = CacheId(*cache as u32);
                    caches.insert(cache);
                    let phase = if *degraded {
                        ReadPhase::Degraded
                    } else {
                        ReadPhase::Healthy
                    };
                    // Map each raw read onto a version actually installed
                    // for its object (or the initial version) — the only
                    // versions a cache could have served at this point.
                    let observed: Vec<(ObjectId, Version)> = reads
                        .iter()
                        .map(|&(o, raw)| {
                            let versions = installed.get(&o).map(Vec::as_slice).unwrap_or(&[]);
                            let idx = (raw as usize) % (versions.len() + 1);
                            let v = if idx == versions.len() { 0 } else { versions[idx] };
                            (ObjectId(o), Version(v))
                        })
                        .collect();
                    let class = immediate.record_read_only_in_phase(
                        cache,
                        phase,
                        &observed,
                        *committed,
                    );
                    let token = batched.submit_read(
                        *shard,
                        Some(cache),
                        Some(phase),
                        observed,
                        *committed,
                        &mut sink,
                    );
                    expected.push((token, class));
                }
            }
        }

        let monitor = batched.finish(&mut sink);

        // Per-transaction verdicts are identical even though the batched
        // side classified each read with (possibly) more update history.
        for (token, class) in &expected {
            prop_assert_eq!(deferred.get(token).copied(), Some(*class));
        }
        prop_assert_eq!(deferred.len(), expected.len());

        // Global and partitioned reports agree exactly.
        prop_assert_eq!(monitor.report(), immediate.report());
        for cache in caches {
            prop_assert_eq!(monitor.cache_report(cache), immediate.cache_report(cache));
            for phase in [ReadPhase::Healthy, ReadPhase::Degraded] {
                prop_assert_eq!(
                    monitor.phase_report(cache, phase),
                    immediate.phase_report(cache, phase)
                );
            }
        }
    }
}
