//! The online consistency monitor used by the experiment harness.
//!
//! The monitor receives every completed transaction — committed update
//! transactions from the database, committed and aborted read-only
//! transactions from the cache — and classifies each read-only transaction
//! as consistent, inconsistent, or (un)justifiably aborted.
//!
//! Classification is two-tiered:
//!
//! 1. the **interval test** ([`VersionHistory::reads_consistent`]): the
//!    reads are consistent if a single point of the update *commit order*
//!    covers all of them. This is cheap (O(reads)) and conservative —
//!    everything it accepts is serializable;
//! 2. reads the interval test rejects are re-examined with the **exact
//!    serialization-graph oracle** ([`crate::sgt`]): independent updates may
//!    commute, so a read set with no single commit-order point can still be
//!    serializable. Only reads the SGT also rejects are counted
//!    inconsistent.
//!
//! The fast path covers the overwhelming majority of transactions; the
//! graph is built only for the rare interval failures. Because the database
//! serializes update transactions in version order and versions increase
//! monotonically with commit time, a read-only transaction's verdict never
//! changes once issued (a later update can only introduce versions newer
//! than everything the transaction could have read), so each transaction is
//! classified the moment it is reported. Per-read-only-transaction state is
//! dropped immediately; the update history grows with the run, as any exact
//! oracle's must. Per committed update it retains the transaction id, one
//! graph node (installed version and successor ordinals), the update's
//! reads and writes in a flat arena, and one version-log entry per write
//! (see [`crate::sgt`] for the layout). Each tier probes the per-object map
//! once per object read.

use crate::history::VersionHistory;
use crate::report::{MonitorReport, ReadPhase, TransactionClass};
use crate::sgt::SerializationGraph;
use std::collections::BTreeMap;
use tcache_types::{CacheId, ObjectId, TransactionRecord, Version};

/// The consistency monitor.
///
/// Update transactions extend one global version history (all caches read
/// through the same database), while read-only classifications are kept both
/// globally and per cache server: cache serializability is defined per
/// cache, so a multi-cache experiment needs to know *which* cache served the
/// inconsistent reads.
#[derive(Debug, Default)]
pub struct ConsistencyMonitor {
    sgt: SerializationGraph,
    report: MonitorReport,
    per_cache: BTreeMap<CacheId, MonitorReport>,
    per_phase: BTreeMap<(CacheId, ReadPhase), MonitorReport>,
}

impl ConsistencyMonitor {
    /// Creates an empty monitor.
    pub fn new() -> Self {
        ConsistencyMonitor::default()
    }

    /// Records a committed update transaction (its writes extend the global
    /// version history).
    pub fn record_update_commit(&mut self, record: &TransactionRecord) {
        debug_assert!(record.is_update() && record.committed);
        self.sgt.add_update(record);
        self.report.updates_committed += 1;
    }

    /// Records an update transaction aborted by the database's concurrency
    /// control (it does not extend the history).
    pub fn record_update_abort(&mut self) {
        self.report.updates_aborted += 1;
    }

    /// Records a completed read-only transaction and returns its
    /// classification.
    ///
    /// `reads` are the `(object, version)` pairs actually returned to the
    /// client; for aborted transactions this is the partial prefix observed
    /// before the abort. `committed` distinguishes the two cases.
    pub fn record_read_only(
        &mut self,
        reads: &[(ObjectId, Version)],
        committed: bool,
    ) -> TransactionClass {
        let consistent = self.reads_serializable(reads);
        let class = match (committed, consistent) {
            (true, true) => TransactionClass::CommittedConsistent,
            (true, false) => TransactionClass::CommittedInconsistent,
            // An aborted transaction whose observed prefix was already
            // inconsistent: the abort was clearly justified.
            (false, false) => TransactionClass::AbortedJustified,
            // The observed prefix was still consistent. The cache aborted
            // because the *next* read would have been stale; from the
            // client's perspective the transaction was consistent so far.
            (false, true) => TransactionClass::AbortedUnnecessary,
        };
        self.report.record(class);
        class
    }

    /// Like [`ConsistencyMonitor::record_read_only`], additionally
    /// attributing the classification to the cache server that executed the
    /// transaction. The global report receives the transaction too.
    pub fn record_read_only_from(
        &mut self,
        cache: CacheId,
        reads: &[(ObjectId, Version)],
        committed: bool,
    ) -> TransactionClass {
        let class = self.record_read_only(reads, committed);
        self.per_cache.entry(cache).or_default().record(class);
        class
    }

    /// Like [`ConsistencyMonitor::record_read_only_from`], additionally
    /// attributing the classification to the lifecycle `phase` the cache was
    /// in when it served the transaction. The per-cache and global reports
    /// receive the transaction as usual; the per-`(cache, phase)` report is
    /// on top, so phase reports for one cache partition that cache's report.
    pub fn record_read_only_in_phase(
        &mut self,
        cache: CacheId,
        phase: ReadPhase,
        reads: &[(ObjectId, Version)],
        committed: bool,
    ) -> TransactionClass {
        let class = self.record_read_only_from(cache, reads, committed);
        self.per_phase.entry((cache, phase)).or_default().record(class);
        class
    }

    /// The report restricted to transactions `cache` served while in
    /// `phase` (empty if none). Only transactions reported through
    /// [`ConsistencyMonitor::record_read_only_in_phase`] appear here.
    pub fn phase_report(&self, cache: CacheId, phase: ReadPhase) -> MonitorReport {
        self.per_phase
            .get(&(cache, phase))
            .copied()
            .unwrap_or_default()
    }

    /// Decides whether `reads` is serializable with the update history:
    /// interval test first, exact SGT (bounded reachability form) on
    /// interval failure.
    fn reads_serializable(&self, reads: &[(ObjectId, Version)]) -> bool {
        if self.sgt.history().reads_consistent(reads) {
            return true;
        }
        self.sgt.read_only_consistent_fast(reads)
    }

    /// Non-mutating oracle entry point: decides whether `reads` is
    /// serializable against the update history recorded so far, *without*
    /// recording the transaction or touching any report.
    ///
    /// This is the two-tier verdict (`record_read_only` uses the same
    /// decision), exposed so external checkers — notably the explicit-state
    /// model in `tcache-model` — can query the monitor on histories they
    /// assemble themselves.
    pub fn is_serializable(&self, reads: &[(ObjectId, Version)]) -> bool {
        self.reads_serializable(reads)
    }

    /// Non-mutating entry point for the *first tier only*: the commit-order
    /// interval test, with no SGT fallback. Incomplete as an oracle — it
    /// mis-flags commuting independent updates — which is exactly why the
    /// model checker uses it as its intentionally-broken reference oracle.
    pub fn interval_consistent(&self, reads: &[(ObjectId, Version)]) -> bool {
        self.sgt.history().reads_consistent(reads)
    }

    /// Convenience wrapper accepting a [`TransactionRecord`] from a cache.
    /// When the record names its cache, the classification is attributed to
    /// that cache's per-cache report as well.
    pub fn record_read_only_record(&mut self, record: &TransactionRecord) -> TransactionClass {
        debug_assert!(!record.is_update());
        match record.cache {
            Some(cache) => self.record_read_only_from(cache, &record.reads, record.committed),
            None => self.record_read_only(&record.reads, record.committed),
        }
    }

    /// The version history assembled so far.
    pub fn history(&self) -> &VersionHistory {
        self.sgt.history()
    }

    /// The aggregate report so far.
    pub fn report(&self) -> MonitorReport {
        self.report
    }

    /// The report restricted to transactions `cache` served (empty if the
    /// cache never reported a transaction). Update counters are global and
    /// stay zero in per-cache reports.
    pub fn cache_report(&self, cache: CacheId) -> MonitorReport {
        self.per_cache.get(&cache).copied().unwrap_or_default()
    }

    /// Every per-cache report, in `CacheId` order.
    pub fn per_cache_reports(&self) -> impl Iterator<Item = (CacheId, MonitorReport)> + '_ {
        self.per_cache.iter().map(|(&id, &report)| (id, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcache_types::{SimTime, TxnId};

    fn o(i: u64) -> ObjectId {
        ObjectId(i)
    }
    fn v(i: u64) -> Version {
        Version(i)
    }

    fn update(id: u64, version: u64, objects: &[u64]) -> TransactionRecord {
        TransactionRecord::update_committed(
            TxnId(id),
            vec![],
            objects.iter().map(|&obj| (o(obj), v(version))).collect(),
            SimTime::ZERO,
        )
    }

    #[test]
    fn classifies_committed_transactions() {
        let mut m = ConsistencyMonitor::new();
        m.record_update_commit(&update(1, 1, &[1, 2]));
        m.record_update_commit(&update(2, 2, &[1]));

        // Consistent: the latest versions.
        assert_eq!(
            m.record_read_only(&[(o(1), v(2)), (o(2), v(1))], true),
            TransactionClass::CommittedConsistent
        );
        // Inconsistent: o1@0 requires a point before txn 1, o2@1 on/after
        // it — and txn 1 wrote both objects, so no reordering can help.
        assert_eq!(
            m.record_read_only(&[(o(1), v(0)), (o(2), v(1))], true),
            TransactionClass::CommittedInconsistent
        );
        let r = m.report();
        assert_eq!(r.committed_consistent, 1);
        assert_eq!(r.committed_inconsistent, 1);
        assert_eq!(r.updates_committed, 2);
    }

    #[test]
    fn commuting_independent_updates_are_not_flagged() {
        // t1 writes o1@1; t2 writes o2@2. The updates do not conflict, so a
        // reader observing o1@0 (before t1) and o2@2 (after t2) is
        // serializable as t2, R, t1 — the interval test alone would flag it,
        // the SGT fallback accepts it.
        let mut m = ConsistencyMonitor::new();
        m.record_update_commit(&update(1, 1, &[1]));
        m.record_update_commit(&update(2, 2, &[2]));
        assert_eq!(
            m.record_read_only(&[(o(1), v(0)), (o(2), v(2))], true),
            TransactionClass::CommittedConsistent
        );
        // With a conflict between the updates (t2 also writes o1), the same
        // read set is genuinely non-serializable.
        let mut m = ConsistencyMonitor::new();
        m.record_update_commit(&update(1, 1, &[1]));
        m.record_update_commit(&update(2, 2, &[1, 2]));
        assert_eq!(
            m.record_read_only(&[(o(1), v(0)), (o(2), v(2))], true),
            TransactionClass::CommittedInconsistent
        );
    }

    #[test]
    fn classifies_aborted_transactions() {
        let mut m = ConsistencyMonitor::new();
        m.record_update_commit(&update(1, 1, &[1, 2]));
        // Aborted with a consistent prefix: unnecessary.
        assert_eq!(
            m.record_read_only(&[(o(1), v(1))], false),
            TransactionClass::AbortedUnnecessary
        );
        // Aborted with an inconsistent prefix: justified.
        assert_eq!(
            m.record_read_only(&[(o(1), v(0)), (o(2), v(1))], false),
            TransactionClass::AbortedJustified
        );
        m.record_update_abort();
        let r = m.report();
        assert_eq!(r.aborted_unnecessary, 1);
        assert_eq!(r.aborted_justified, 1);
        assert_eq!(r.updates_aborted, 1);
        assert_eq!(r.abort_ratio(), 1.0);
    }

    #[test]
    fn record_wrapper_uses_the_record_fields() {
        let mut m = ConsistencyMonitor::new();
        m.record_update_commit(&update(1, 1, &[1]));
        let ro = TransactionRecord::read_only(
            TxnId(100),
            tcache_types::CacheId(0),
            vec![(o(1), v(1))],
            true,
            SimTime::ZERO,
        );
        assert_eq!(
            m.record_read_only_record(&ro),
            TransactionClass::CommittedConsistent
        );
        assert_eq!(m.history().latest_version(o(1)), v(1));
    }

    #[test]
    fn per_cache_reports_partition_the_global_report() {
        let mut m = ConsistencyMonitor::new();
        m.record_update_commit(&update(1, 1, &[1, 2]));
        // Cache 0 serves a consistent commit and a justified abort; cache 1
        // serves an inconsistent commit.
        m.record_read_only_from(CacheId(0), &[(o(1), v(1)), (o(2), v(1))], true);
        m.record_read_only_from(CacheId(0), &[(o(1), v(0)), (o(2), v(1))], false);
        m.record_read_only_from(CacheId(1), &[(o(1), v(0)), (o(2), v(1))], true);
        let c0 = m.cache_report(CacheId(0));
        let c1 = m.cache_report(CacheId(1));
        assert_eq!(c0.committed_consistent, 1);
        assert_eq!(c0.aborted_justified, 1);
        assert_eq!(c1.committed_inconsistent, 1);
        // A cache that never reported anything yields the empty report.
        assert_eq!(m.cache_report(CacheId(9)), MonitorReport::default());
        // Per-cache read-only counts sum to the global report's.
        let global = m.report();
        let summed: u64 = m
            .per_cache_reports()
            .map(|(_, r)| r.read_only_total())
            .sum();
        assert_eq!(summed, global.read_only_total());
        assert_eq!(
            m.per_cache_reports().map(|(id, _)| id).collect::<Vec<_>>(),
            vec![CacheId(0), CacheId(1)]
        );
        // Records carrying a cache id are attributed automatically.
        let ro = TransactionRecord::read_only(
            TxnId(50),
            CacheId(1),
            vec![(o(1), v(1)), (o(2), v(1))],
            true,
            SimTime::ZERO,
        );
        m.record_read_only_record(&ro);
        assert_eq!(m.cache_report(CacheId(1)).committed_consistent, 1);
    }

    #[test]
    fn phase_reports_partition_the_per_cache_report() {
        let mut m = ConsistencyMonitor::new();
        m.record_update_commit(&update(1, 1, &[1, 2]));
        // A healthy-phase inconsistent commit and a degraded-phase
        // consistent one on the same cache.
        m.record_read_only_in_phase(
            CacheId(0),
            ReadPhase::Healthy,
            &[(o(1), v(0)), (o(2), v(1))],
            true,
        );
        m.record_read_only_in_phase(
            CacheId(0),
            ReadPhase::Degraded,
            &[(o(1), v(1)), (o(2), v(1))],
            true,
        );
        let healthy = m.phase_report(CacheId(0), ReadPhase::Healthy);
        let degraded = m.phase_report(CacheId(0), ReadPhase::Degraded);
        assert_eq!(healthy.committed_inconsistent, 1);
        assert_eq!(degraded.committed_consistent, 1);
        assert_eq!(degraded.committed_inconsistent, 0);
        // The phase reports partition the cache report, which in turn feeds
        // the global one.
        let cache = m.cache_report(CacheId(0));
        assert_eq!(
            healthy.read_only_total() + degraded.read_only_total(),
            cache.read_only_total()
        );
        assert_eq!(m.report().read_only_total(), cache.read_only_total());
        // A phase the cache never reported in yields the empty report.
        assert_eq!(
            m.phase_report(CacheId(1), ReadPhase::Degraded),
            MonitorReport::default()
        );
    }

    #[test]
    fn verdicts_are_stable_under_later_updates() {
        let mut m = ConsistencyMonitor::new();
        m.record_update_commit(&update(1, 1, &[1, 2]));
        let reads = vec![(o(1), v(1)), (o(2), v(1))];
        assert_eq!(
            m.record_read_only(&reads, true),
            TransactionClass::CommittedConsistent
        );
        // A later update cannot retroactively invalidate the verdict: the
        // same read set is still classified consistent.
        m.record_update_commit(&update(2, 2, &[1]));
        assert_eq!(
            m.record_read_only(&reads, true),
            TransactionClass::CommittedConsistent
        );
    }

    #[test]
    fn empty_read_set_is_consistent() {
        let mut m = ConsistencyMonitor::new();
        assert_eq!(
            m.record_read_only(&[], true),
            TransactionClass::CommittedConsistent
        );
    }

    #[test]
    fn reading_a_nonexistent_version_is_inconsistent() {
        let mut m = ConsistencyMonitor::new();
        m.record_update_commit(&update(1, 1, &[1]));
        assert_eq!(
            m.record_read_only(&[(o(1), v(9))], true),
            TransactionClass::CommittedInconsistent
        );
    }
}
