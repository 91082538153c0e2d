//! Serialization graph testing.
//!
//! The textbook construction: nodes are committed transactions, edges are
//! write→read, write→write and read→write dependencies on each object. A
//! history is serializable iff the graph is acyclic. For the paper's setting
//! the update transactions are already totally ordered by their versions, so
//! the interesting question is whether adding one read-only transaction
//! keeps the graph acyclic; [`SerializationGraph::read_only_consistent`]
//! answers exactly that.
//!
//! The interval test in [`crate::history`] checks the stricter criterion of
//! placement in *commit order*; property tests below verify that it is
//! conservative with respect to this exact checker (interval-consistent ⇒
//! SGT-consistent).
//!
//! # Layout
//!
//! Updates are identified by their arrival *ordinal* (see
//! [`crate::history`]), and everything per update is indexed by it: a node
//! holding the version the update installed and its successor ordinals, and
//! a range of one flat arena holding the update's writes and reads. Per
//! committed update the graph retains that node, the [`TxnId`], the
//! accesses (16 bytes each) and one `(version, ordinal)` entry per write in
//! the version history; no record is cloned and no per-version map is kept.
//!
//! # Readers of the latest version
//!
//! An update `U` that read version `v` of object `o` precedes the update
//! that overwrote `v` (a read→write anti-dependency). If `v` was already
//! overwritten when `U` arrives, the overwriter is in the history and the
//! edge is added at once. Otherwise `v` is `o`'s latest version, and `U`
//! joins `o`'s readers-of-latest list, which the next write of `o` drains
//! into edges. Under version order that list is all the index needs: an
//! object's latest version only grows, so a version that is not the latest
//! when read never becomes the latest again and no later write could
//! consume a reader of it. A read of a version that was never installed
//! breaks version order and routes queries through the rebuild (below),
//! which does not use the list.

use crate::graph::DiGraph;
use crate::history::{IdBuildHasher, Ordinal, VersionHistory};
use std::collections::HashSet;
use tcache_types::{ObjectId, TransactionRecord, TxnId, Version};

/// A node of the serialization graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Node {
    /// The fictitious initial transaction that installed every object at
    /// [`Version::INITIAL`].
    Initial,
    /// A committed transaction.
    Txn(TxnId),
}

/// One committed update, indexed by its ordinal.
#[derive(Debug)]
struct UpdateNode {
    /// The (max) version the update installed.
    version: Version,
    /// Update→update successor ordinals, maintained incrementally.
    succ: Vec<Ordinal>,
    /// `accesses[start..split]` are the update's writes and
    /// `accesses[split..end]` its reads.
    start: usize,
    split: usize,
    end: usize,
}

/// A serialization graph built from a history of committed transactions.
///
/// Besides the access arena that [`SerializationGraph::read_only_consistent`]
/// rebuilds a [`DiGraph`] from, the graph maintains its update→update edges
/// **incrementally** as records arrive (edges from a transaction's version
/// predecessors and readers-of-overwritten-versions). When records arrive in
/// version order — which they always do coming from the database, whose
/// commit order *is* version order — every maintained edge points from a
/// lower-version transaction to a higher-version one, and
/// [`SerializationGraph::read_only_consistent_fast`] answers candidate
/// queries with a version-bounded reachability search instead of an O(n)
/// graph rebuild. Out-of-order records flip a flag that routes fast queries
/// through the exact rebuild path instead.
///
/// Each [`SerializationGraph::add_update`] call is one node: update
/// transaction ids are expected to be unique, as the database assigns them.
#[derive(Debug, Default)]
pub struct SerializationGraph {
    history: VersionHistory,
    /// One node per committed update, indexed by ordinal.
    nodes: Vec<UpdateNode>,
    /// Every update's writes then reads, in arrival order. Retained to serve
    /// the exact rebuild path ([`SerializationGraph::read_only_consistent`]
    /// and the out-of-order fallback of the fast query). Retention cannot be
    /// deferred until `out_of_order` flips: the rebuild needs every update
    /// from the start of the history. Histories beyond what a process should
    /// retain belong in an external log, not this in-memory oracle.
    accesses: Vec<(ObjectId, Version)>,
    /// Set when an edge or record arrives out of version order, breaking
    /// the invariant the fast query's pruning relies on; fast queries then
    /// take the exact rebuild path instead.
    out_of_order: bool,
}

/// Adds the edge `from → to` to the incremental adjacency, flagging an edge
/// that does not increase the version.
fn add_edge(nodes: &mut [UpdateNode], out_of_order: &mut bool, from: Ordinal, to: Ordinal) {
    if from == to {
        return;
    }
    if nodes[from as usize].version >= nodes[to as usize].version {
        *out_of_order = true;
    }
    let succ = &mut nodes[from as usize].succ;
    if !succ.contains(&to) {
        succ.push(to);
    }
}

impl SerializationGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        SerializationGraph::default()
    }

    /// Adds a committed update transaction to the history.
    pub fn add_update(&mut self, record: &TransactionRecord) {
        debug_assert!(record.is_update() && record.committed);
        let version = record
            .writes
            .iter()
            .map(|&(_, v)| v)
            .max()
            .unwrap_or(Version::INITIAL);
        let me = self.history.push_txn(record.id);
        let start = self.accesses.len();
        self.accesses.extend_from_slice(&record.writes);
        let split = self.accesses.len();
        self.accesses.extend_from_slice(&record.reads);
        self.nodes.push(UpdateNode {
            version,
            succ: Vec::new(),
            start,
            split,
            end: self.accesses.len(),
        });

        let SerializationGraph {
            history,
            nodes,
            out_of_order,
            ..
        } = self;
        for &(object, version) in &record.writes {
            // Incremental edges, derived before the write enters the
            // history: the previous writer precedes this transaction, and
            // so does everything that read the version being overwritten.
            let log = history.log_mut(object);
            if version < log.latest() {
                *out_of_order = true;
            }
            if let Some(writer) = log.latest_writer() {
                add_edge(nodes, out_of_order, writer, me);
            }
            for reader in log.latest_readers.drain(..) {
                add_edge(nodes, out_of_order, reader, me);
            }
            log.install(version, me);
        }

        for &(object, version) in &record.reads {
            let log = history.log_mut(object);
            let seen = log.seen(version);
            match seen.writer {
                Some(writer) => add_edge(nodes, out_of_order, writer, me),
                None if version != Version::INITIAL => {
                    // An update claiming to have read a version that was
                    // never installed: the incremental reader index cannot
                    // model it, so route fast queries through the rebuild.
                    *out_of_order = true;
                }
                None => {}
            }
            if let Some((_, next)) = seen.next {
                add_edge(nodes, out_of_order, me, next);
            }
            if version == log.latest() {
                log.latest_readers.push(me);
            }
        }
    }

    /// The version history assembled so far.
    pub fn history(&self) -> &VersionHistory {
        &self.history
    }

    /// Builds the full graph over the update transactions plus one candidate
    /// read-only transaction described by its `(object, version)` reads.
    fn build_graph(&self, reads: &[(ObjectId, Version)], candidate: TxnId) -> DiGraph<Node> {
        let mut g = DiGraph::new();
        g.add_node(Node::Initial);

        // Write-write and write-read edges among update transactions follow
        // version order per object.
        for (ord, update) in self.nodes.iter().enumerate() {
            let node = Node::Txn(self.history.txn(ord as Ordinal));
            g.add_node(node);
            for &(object, version) in &self.accesses[update.start..update.split] {
                // Edge from the previous writer of this object.
                let prev_writer = self
                    .history
                    .writer_before(object, version)
                    .map(Node::Txn)
                    .unwrap_or(Node::Initial);
                g.add_edge(prev_writer, node);
                // Edge to the next writer, if it already exists.
                if let Some((_, next)) = self.history.next_write_after(object, version) {
                    g.add_edge(node, Node::Txn(next));
                }
            }
            for &(object, version) in &self.accesses[update.split..update.end] {
                let writer = self
                    .history
                    .writer_of(object, version)
                    .map(Node::Txn)
                    .unwrap_or(Node::Initial);
                if writer != node {
                    g.add_edge(writer, node);
                }
                if let Some((_, next)) = self.history.next_write_after(object, version) {
                    if Node::Txn(next) != node {
                        g.add_edge(node, Node::Txn(next));
                    }
                }
            }
        }

        // The candidate read-only transaction: wr edges from the writers of
        // the versions it read, rw anti-dependency edges to the writers of
        // the next versions.
        let cnode = Node::Txn(candidate);
        g.add_node(cnode);
        for &(object, version) in reads {
            let writer = self
                .history
                .writer_of(object, version)
                .map(Node::Txn)
                .unwrap_or(Node::Initial);
            g.add_edge(writer, cnode);
            if let Some((_, next)) = self.history.next_write_after(object, version) {
                g.add_edge(cnode, Node::Txn(next));
            }
        }
        g
    }

    /// Returns `true` if the update history together with the given
    /// read-only transaction is serializable (the graph is acyclic).
    pub fn read_only_consistent(&self, candidate: TxnId, reads: &[(ObjectId, Version)]) -> bool {
        // A read of a version that never existed is trivially inconsistent.
        for &(object, version) in reads {
            if version != Version::INITIAL && self.history.writer_of(object, version).is_none() {
                return false;
            }
        }
        !self.build_graph(reads, candidate).has_cycle()
    }

    /// Same verdict as [`SerializationGraph::read_only_consistent`], but
    /// answered from the incrementally maintained edges with a bounded
    /// reachability search.
    ///
    /// The candidate read-only transaction `R` has incoming edges from the
    /// writers of the versions it read (its *predecessors* `P`) and outgoing
    /// anti-dependency edges to the writers of the next versions (its
    /// *successors* `S`). Adding `R` creates a cycle iff some `p ∈ P` is
    /// reachable from some `s ∈ S` among the update transactions. When the
    /// history is version-ordered, every update edge increases the version,
    /// so the search from `S` can prune any transaction whose version
    /// exceeds `max(version(P))` — in practice that confines it to the
    /// staleness window of the read set, a handful of transactions, which
    /// is what makes the exact oracle affordable on every query.
    pub fn read_only_consistent_fast(&self, reads: &[(ObjectId, Version)]) -> bool {
        if self.out_of_order {
            // Fall back to the exact rebuild; the pruning below would be
            // unsound on a non-version-ordered edge set.
            return self.read_only_consistent(TxnId(u64::MAX), reads);
        }
        let mut predecessors: Vec<Ordinal> = Vec::with_capacity(reads.len());
        let mut successors: Vec<Ordinal> = Vec::with_capacity(reads.len());
        for &(object, version) in reads {
            let seen = self.history.seen(object, version);
            match seen.writer {
                Some(writer) => predecessors.push(writer),
                None if version != Version::INITIAL => return false,
                None => {}
            }
            if let Some((_, next)) = seen.next {
                successors.push(next);
            }
        }
        if successors.is_empty() || predecessors.is_empty() {
            // R has no outgoing (or no incoming) edges: no cycle through R.
            return true;
        }
        let version = |ord: Ordinal| self.nodes[ord as usize].version;
        let horizon = predecessors
            .iter()
            .map(|&p| version(p))
            .max()
            .unwrap_or(Version::INITIAL);
        predecessors.sort_unstable();
        predecessors.dedup();
        let is_predecessor = |ord: Ordinal| predecessors.binary_search(&ord).is_ok();

        // DFS from every successor, pruned to versions <= horizon.
        let mut visited: HashSet<Ordinal, IdBuildHasher> = HashSet::default();
        let mut stack: Vec<Ordinal> = Vec::new();
        for &s in &successors {
            if version(s) <= horizon {
                if is_predecessor(s) {
                    return false;
                }
                if visited.insert(s) {
                    stack.push(s);
                }
            }
        }
        while let Some(ord) = stack.pop() {
            for &next in &self.nodes[ord as usize].succ {
                if version(next) > horizon {
                    continue;
                }
                if is_predecessor(next) {
                    return false;
                }
                if visited.insert(next) {
                    stack.push(next);
                }
            }
        }
        true
    }

    /// Returns `true` if the update-only history is serializable. With the
    /// database's version-ordered commits this always holds; the check exists
    /// to validate the database in integration tests.
    pub fn updates_serializable(&self) -> bool {
        !self.build_graph(&[], TxnId(u64::MAX)).has_cycle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcache_types::SimTime;

    fn o(i: u64) -> ObjectId {
        ObjectId(i)
    }
    fn v(i: u64) -> Version {
        Version(i)
    }

    fn update(id: u64, version: u64, objects: &[u64]) -> TransactionRecord {
        TransactionRecord::update_committed(
            TxnId(id),
            objects.iter().map(|&obj| (o(obj), v(version - 1))).collect(),
            objects.iter().map(|&obj| (o(obj), v(version))).collect(),
            SimTime::ZERO,
        )
    }

    fn graph_with_updates() -> SerializationGraph {
        let mut g = SerializationGraph::new();
        // t1 writes o1,o2 at v1; t2 writes o1 at v2; t3 writes o2 at v3.
        g.add_update(&TransactionRecord::update_committed(
            TxnId(1),
            vec![(o(1), v(0)), (o(2), v(0))],
            vec![(o(1), v(1)), (o(2), v(1))],
            SimTime::ZERO,
        ));
        g.add_update(&TransactionRecord::update_committed(
            TxnId(2),
            vec![(o(1), v(1))],
            vec![(o(1), v(2))],
            SimTime::ZERO,
        ));
        g.add_update(&TransactionRecord::update_committed(
            TxnId(3),
            vec![(o(2), v(1))],
            vec![(o(2), v(3))],
            SimTime::ZERO,
        ));
        g
    }

    #[test]
    fn update_history_is_serializable() {
        let g = graph_with_updates();
        assert!(g.updates_serializable());
        assert_eq!(g.history().total_writes(), 4);
    }

    #[test]
    fn consistent_read_only_transactions_pass() {
        let g = graph_with_updates();
        // Snapshot after t1.
        assert!(g.read_only_consistent(TxnId(100), &[(o(1), v(1)), (o(2), v(1))]));
        // Snapshot after everything.
        assert!(g.read_only_consistent(TxnId(101), &[(o(1), v(2)), (o(2), v(3))]));
        // Initial snapshot.
        assert!(g.read_only_consistent(TxnId(102), &[(o(1), v(0)), (o(2), v(0))]));
        // Mixed but placeable: o1@2 (latest) with o2@1 (superseded at v3):
        // place between t2 and t3.
        assert!(g.read_only_consistent(TxnId(103), &[(o(1), v(2)), (o(2), v(1))]));
        // Empty read set.
        assert!(g.read_only_consistent(TxnId(104), &[]));
    }

    #[test]
    fn torn_reads_create_cycles() {
        let g = graph_with_updates();
        // o1 at the initial version but o2 after t1: t1 → T (wr on o2) and
        // T → t1 (rw on o1) — a cycle.
        assert!(!g.read_only_consistent(TxnId(100), &[(o(1), v(0)), (o(2), v(1))]));
    }

    #[test]
    fn independent_updates_may_be_reordered_by_sgt_but_not_by_commit_order() {
        let g = graph_with_updates();
        // T reads o1@1 (overwritten by t2) and o2@3 (written by t3). t2 and
        // t3 do not conflict, so the serial order t1, t3, T, t2 is valid and
        // the SGT accepts the reads…
        let reads = [(o(1), v(1)), (o(2), v(3))];
        assert!(g.read_only_consistent(TxnId(101), &reads));
        // …while the commit-order (interval) test conservatively rejects
        // them: there is no single point of the commit order covering both.
        assert!(!g.history().reads_consistent(&reads));
    }

    #[test]
    fn reading_a_nonexistent_version_is_inconsistent() {
        let g = graph_with_updates();
        assert!(!g.read_only_consistent(TxnId(100), &[(o(1), v(7))]));
    }

    #[test]
    fn interval_test_is_conservative_wrt_sgt_on_examples() {
        let g = graph_with_updates();
        let cases: Vec<Vec<(ObjectId, Version)>> = vec![
            vec![(o(1), v(1)), (o(2), v(1))],
            vec![(o(1), v(0)), (o(2), v(1))],
            vec![(o(1), v(2)), (o(2), v(1))],
            vec![(o(1), v(1)), (o(2), v(3))],
            vec![(o(1), v(2)), (o(2), v(3))],
        ];
        for (i, reads) in cases.iter().enumerate() {
            let by_interval = g.history().reads_consistent(reads);
            let by_graph = g.read_only_consistent(TxnId(1000 + i as u64), reads);
            assert!(
                !by_interval || by_graph,
                "case {i}: interval-consistent reads must be SGT-consistent"
            );
        }
    }

    #[test]
    fn reader_edges_close_cycles() {
        let record = |id: u64, reads: &[(u64, u64)], writes: &[(u64, u64)]| {
            TransactionRecord::update_committed(
                TxnId(id),
                reads.iter().map(|&(obj, ver)| (o(obj), v(ver))).collect(),
                writes.iter().map(|&(obj, ver)| (o(obj), v(ver))).collect(),
                SimTime::ZERO,
            )
        };
        // u1 writes o1 and o2; u2 reads o2@1 (the latest) and writes o3;
        // u3 overwrites o2. The read gives u2 → u3, an edge only the
        // readers-of-latest list can supply: u2 and u3 write no common
        // object.
        let mut g = SerializationGraph::new();
        g.add_update(&record(1, &[(1, 0), (2, 0)], &[(1, 1), (2, 1)]));
        g.add_update(&record(2, &[(2, 1), (3, 0)], &[(3, 2)]));
        g.add_update(&record(3, &[(2, 1)], &[(2, 3)]));
        // R reads o3 before u2 (R → u2) and o2 from u3 (u3 → R):
        // R → u2 → u3 → R.
        let reads = [(o(3), v(0)), (o(2), v(3))];
        assert!(!g.read_only_consistent(TxnId(100), &reads));
        assert!(!g.read_only_consistent_fast(&reads));
        // Without u2's read of o2, u2 and u3 commute and R is placeable.
        let mut g = SerializationGraph::new();
        g.add_update(&record(1, &[(1, 0), (2, 0)], &[(1, 1), (2, 1)]));
        g.add_update(&record(2, &[(3, 0)], &[(3, 2)]));
        g.add_update(&record(3, &[(2, 1)], &[(2, 3)]));
        assert!(g.read_only_consistent(TxnId(100), &reads));
        assert!(g.read_only_consistent_fast(&reads));
    }

    #[test]
    fn read_modify_write_updates_leave_no_reader_entries() {
        // Each update reads the version it overwrites. Once the write has
        // happened that version is no longer the latest, so no later write
        // could consume a reader entry for it and none may be kept.
        let mut g = SerializationGraph::new();
        for i in 1..=10_000u64 {
            g.add_update(&update(i, i, &[1]));
        }
        assert!(g.history().reader_entries() <= 1);
        assert_eq!(g.history().total_writes(), 10_000);
        // A pure read of the latest version is kept until the overwrite.
        g.add_update(&TransactionRecord::update_committed(
            TxnId(10_001),
            vec![(o(1), v(10_000))],
            vec![(o(2), v(10_001))],
            SimTime::ZERO,
        ));
        assert_eq!(g.history().reader_entries(), 1);
        g.add_update(&update(10_002, 10_002, &[1]));
        assert_eq!(g.history().reader_entries(), 0);
    }

    #[test]
    fn longer_update_chains_stay_serializable() {
        let mut g = SerializationGraph::new();
        for i in 1..=50u64 {
            g.add_update(&update(i, i, &[i % 5, (i + 1) % 5]));
        }
        assert!(g.updates_serializable());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use tcache_types::SimTime;

    /// Generates a random but well-formed update history over a small object
    /// space: transaction `i` (version `i+1`) writes a random subset.
    fn arb_history() -> impl Strategy<Value = Vec<Vec<u64>>> {
        prop::collection::vec(prop::collection::vec(0u64..6, 1..4), 1..12)
    }

    proptest! {
        /// The fast interval test is conservative with respect to the
        /// explicit serialization-graph test: whenever it classifies a read
        /// set as consistent, the SGT does too.
        #[test]
        fn interval_test_is_conservative_wrt_sgt(
            history in arb_history(),
            reads in prop::collection::vec((0u64..6, 0u64..13), 1..5),
        ) {
            let mut sgt = SerializationGraph::new();
            for (i, objects) in history.iter().enumerate() {
                let version = Version(i as u64 + 1);
                let mut distinct = objects.clone();
                distinct.sort();
                distinct.dedup();
                let record = TransactionRecord::update_committed(
                    TxnId(i as u64 + 1),
                    distinct.iter().map(|&o| (ObjectId(o), Version(i as u64))).collect(),
                    distinct.iter().map(|&o| (ObjectId(o), version)).collect(),
                    SimTime::ZERO,
                );
                sgt.add_update(&record);
            }
            let reads: Vec<(ObjectId, Version)> = reads
                .into_iter()
                .map(|(o, v)| (ObjectId(o), Version(v)))
                .collect();
            let by_interval = sgt.history().reads_consistent(&reads);
            let by_graph = sgt.read_only_consistent(TxnId(9999), &reads);
            prop_assert!(!by_interval || by_graph,
                "interval-consistent reads must be SGT-consistent");
        }

        /// The incremental reachability query agrees with the exact
        /// graph-rebuild checker on every in-order history.
        #[test]
        fn fast_query_matches_rebuild(
            history in arb_history(),
            reads in prop::collection::vec((0u64..6, 0u64..13), 1..5),
        ) {
            let mut sgt = SerializationGraph::new();
            // Reads mirror the database: each update reads the actual
            // current version of everything it writes.
            let mut latest: std::collections::HashMap<u64, Version> = Default::default();
            for (i, objects) in history.iter().enumerate() {
                let version = Version(i as u64 + 1);
                let mut distinct = objects.clone();
                distinct.sort();
                distinct.dedup();
                let record = TransactionRecord::update_committed(
                    TxnId(i as u64 + 1),
                    distinct
                        .iter()
                        .map(|&o| {
                            (ObjectId(o), latest.get(&o).copied().unwrap_or(Version::INITIAL))
                        })
                        .collect(),
                    distinct.iter().map(|&o| (ObjectId(o), version)).collect(),
                    SimTime::ZERO,
                );
                for &o in &distinct {
                    latest.insert(o, version);
                }
                sgt.add_update(&record);
            }
            let reads: Vec<(ObjectId, Version)> = reads
                .into_iter()
                .map(|(o, v)| (ObjectId(o), Version(v)))
                .collect();
            let fast = sgt.read_only_consistent_fast(&reads);
            let slow = sgt.read_only_consistent(TxnId(9999), &reads);
            prop_assert_eq!(fast, slow, "fast and rebuild oracles disagree on {:?}", &reads);
        }

        /// Reads taken from a single prefix of the history (a true snapshot)
        /// are always consistent under both checkers.
        #[test]
        fn snapshots_are_always_consistent(
            history in arb_history(),
            cut in 0usize..12,
        ) {
            let mut sgt = SerializationGraph::new();
            let mut latest: std::collections::HashMap<u64, Version> = Default::default();
            for (i, objects) in history.iter().enumerate() {
                let version = Version(i as u64 + 1);
                let mut distinct = objects.clone();
                distinct.sort();
                distinct.dedup();
                let record = TransactionRecord::update_committed(
                    TxnId(i as u64 + 1),
                    vec![],
                    distinct.iter().map(|&o| (ObjectId(o), version)).collect(),
                    SimTime::ZERO,
                );
                sgt.add_update(&record);
                if i < cut {
                    for &o in &distinct {
                        latest.insert(o, version);
                    }
                }
            }
            let reads: Vec<(ObjectId, Version)> = (0u64..6)
                .map(|o| (ObjectId(o), latest.get(&o).copied().unwrap_or(Version::INITIAL)))
                .collect();
            prop_assert!(sgt.history().reads_consistent(&reads));
            prop_assert!(sgt.read_only_consistent(TxnId(9999), &reads));
        }
    }

    /// One update: the objects it writes and `(object, raw, kind)` pure
    /// reads of objects it may not write.
    type UpdateSpec = (Vec<u64>, Vec<(u64, u64, u64)>);

    /// An update history in which updates also read objects they do not
    /// write.
    fn arb_history_with_reads() -> impl Strategy<Value = Vec<UpdateSpec>> {
        prop::collection::vec(
            (
                prop::collection::vec(0u64..6, 1..4),
                prop::collection::vec((0u64..6, 0u64..16, 0u64..4), 0..3),
            ),
            1..12,
        )
    }

    /// Maps `raw` onto a version installed for the object, or the initial
    /// version.
    fn clamp(installed: &[Version], raw: u64) -> Version {
        let idx = raw as usize % (installed.len() + 1);
        installed.get(idx).copied().unwrap_or(Version::INITIAL)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The incremental reachability query, and the monitor's two-tier
        /// verdict, agree with the exact graph rebuild on histories whose
        /// updates read objects they do not write — the reads that feed the
        /// readers-of-latest index. Pure reads are at the latest version
        /// half the time, otherwise at any installed version or the initial
        /// one (a stale read, which breaks version order and routes the
        /// fast query through the rebuild). Candidate reads observe
        /// installed versions only. Enough cases run that dropping the
        /// readers-of-latest edges fails the test.
        #[test]
        fn fast_query_matches_rebuild_with_pure_reads(
            history in arb_history_with_reads(),
            reads in prop::collection::vec((0u64..6, 0u64..16), 1..5),
        ) {
            let mut sgt = SerializationGraph::new();
            let mut monitor = crate::monitor::ConsistencyMonitor::new();
            let mut installed: std::collections::HashMap<u64, Vec<Version>> = Default::default();
            for (i, (objects, pure)) in history.iter().enumerate() {
                let version = Version(i as u64 + 1);
                let mut distinct = objects.clone();
                distinct.sort();
                distinct.dedup();
                let latest = |o: &u64| {
                    installed
                        .get(o)
                        .and_then(|vs| vs.last().copied())
                        .unwrap_or(Version::INITIAL)
                };
                let mut update_reads: Vec<(ObjectId, Version)> =
                    distinct.iter().map(|o| (ObjectId(*o), latest(o))).collect();
                for &(o, raw, kind) in pure {
                    if distinct.contains(&o) {
                        continue;
                    }
                    let seen = if kind < 2 {
                        latest(&o)
                    } else {
                        clamp(installed.get(&o).map(Vec::as_slice).unwrap_or(&[]), raw)
                    };
                    update_reads.push((ObjectId(o), seen));
                }
                let record = TransactionRecord::update_committed(
                    TxnId(i as u64 + 1),
                    update_reads,
                    distinct.iter().map(|&o| (ObjectId(o), version)).collect(),
                    SimTime::ZERO,
                );
                for &o in &distinct {
                    installed.entry(o).or_default().push(version);
                }
                sgt.add_update(&record);
                monitor.record_update_commit(&record);
            }
            let reads: Vec<(ObjectId, Version)> = reads
                .into_iter()
                .map(|(o, raw)| {
                    let versions = installed.get(&o).map(Vec::as_slice).unwrap_or(&[]);
                    (ObjectId(o), clamp(versions, raw))
                })
                .collect();
            let slow = sgt.read_only_consistent(TxnId(9999), &reads);
            let fast = sgt.read_only_consistent_fast(&reads);
            prop_assert_eq!(fast, slow, "fast and rebuild oracles disagree on {:?}", &reads);
            // The interval tier presumes a serializable update history, as
            // the database produces; a stale update read can close a cycle
            // among the updates themselves, and then the rebuild rejects
            // every read set.
            if sgt.updates_serializable() {
                prop_assert_eq!(
                    monitor.is_serializable(&reads),
                    slow,
                    "monitor and rebuild oracles disagree on {:?}",
                    &reads
                );
            }
        }
    }
}
