//! Two-phase commit across shards.
//!
//! The coordinator partitions a transaction's writes by owning shard, runs
//! the prepare phase on every participant, and commits only if every
//! participant voted yes; otherwise every participant aborts. With a single
//! shard this degenerates to ordinary atomic commit, matching the paper's
//! single-column experimental setup, but the protocol is fully general.
//!
//! Only *writes* interact with the lock tables: the reads an update
//! transaction performs before preparing (and every read-only access) go
//! through the stores' optimistic seqlock path (see [`crate::store`]), so
//! they are snapshots of committed state validated against the bucket
//! sequence rather than lock acquisitions. The exclusive write locks taken
//! at prepare time are unchanged — they are what serializes installs of
//! the same object, which is the precondition the store's `install`
//! documents. Under those locks a shard re-validates every written object:
//! it must still exist and still be at the version the transaction
//! observed ([`PreparedWrite::observed`]), or the vote is no. The check
//! rides the same optimistic surface ([`VersionedStore::version_of`]) and
//! is exact because the objects it guards are already exclusively locked
//! by that point. Objects a transaction only reads are not re-validated.
//!
//! [`VersionedStore::version_of`]: crate::store::VersionedStore::version_of

use crate::shard::{PreparedWrite, Shard, Vote};
use std::sync::Arc;
use tcache_types::{ConflictReason, ObjectId, TCacheError, TCacheResult, TxnId, Version};

/// Routes objects to shards by hashing the object id.
#[derive(Debug, Clone, Copy)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    /// Creates a router over `shards` shards.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a database needs at least one shard");
        ShardRouter { shards }
    }

    /// Returns the index of the shard owning `object`.
    pub fn shard_of(&self, object: ObjectId) -> usize {
        // Objects are numbered densely in the workloads; simple modulo
        // spreads clusters across shards which is the adversarial case for
        // 2PC (most transactions span several shards).
        (object.as_u64() % self.shards as u64) as usize
    }

    /// Number of shards routed over.
    pub fn shard_count(&self) -> usize {
        self.shards
    }
}

/// The outcome of a coordinated commit.
#[derive(Debug, Clone)]
pub struct CommitOutcome {
    /// Which objects were installed, with the versions installed.
    pub installed: Vec<(ObjectId, Version)>,
    /// How many shards participated.
    pub participants: usize,
}

/// The two-phase-commit coordinator.
#[derive(Debug)]
pub struct Coordinator {
    shards: Vec<Arc<Shard>>,
    router: ShardRouter,
}

impl Coordinator {
    /// Creates a coordinator over the given shards.
    ///
    /// # Panics
    /// Panics if `shards` is empty.
    pub fn new(shards: Vec<Arc<Shard>>) -> Self {
        let router = ShardRouter::new(shards.len());
        Coordinator { shards, router }
    }

    /// The router used to place objects.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// Access to a shard by index.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn shard(&self, index: usize) -> &Arc<Shard> {
        &self.shards[index]
    }

    /// Returns the shard owning `object`.
    pub fn shard_for(&self, object: ObjectId) -> &Arc<Shard> {
        &self.shards[self.router.shard_of(object)]
    }

    /// Runs two-phase commit for `txn` over the given writes.
    ///
    /// # Errors
    /// Returns [`TCacheError::UpdateAborted`] with
    /// [`ConflictReason::PrepareRejected`] if any participant votes no; all
    /// participants are then told to abort and no write is installed.
    pub fn commit(
        &self,
        txn: TxnId,
        writes: Vec<PreparedWrite>,
    ) -> TCacheResult<CommitOutcome> {
        // Partition the writes by shard.
        let mut per_shard: Vec<Vec<PreparedWrite>> = vec![Vec::new(); self.shards.len()];
        for w in writes {
            per_shard[self.router.shard_of(w.object)].push(w);
        }
        let participants: Vec<usize> = per_shard
            .iter()
            .enumerate()
            .filter(|(_, ws)| !ws.is_empty())
            .map(|(i, _)| i)
            .collect();

        // Phase 1: prepare.
        let mut prepared = Vec::new();
        let mut all_yes = true;
        for &i in &participants {
            let vote = self.shards[i].prepare(txn, std::mem::take(&mut per_shard[i]));
            if vote == Vote::Yes {
                prepared.push(i);
            } else {
                all_yes = false;
                break;
            }
        }

        if !all_yes {
            // Phase 2 (abort): roll back every participant that prepared.
            for &i in &prepared {
                self.shards[i].abort(txn);
            }
            return Err(TCacheError::UpdateAborted {
                txn,
                reason: ConflictReason::PrepareRejected,
            });
        }

        // Phase 2 (commit).
        let mut installed = Vec::new();
        for &i in &participants {
            installed.extend(self.shards[i].commit(txn)?);
        }
        Ok(CommitOutcome {
            installed,
            participants: participants.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcache_types::{DependencyList, Value};

    fn coordinator(shards: usize, objects: u64) -> Coordinator {
        let shards: Vec<Arc<Shard>> = (0..shards).map(|i| Arc::new(Shard::new(i, 0))).collect();
        let coord = Coordinator::new(shards);
        for i in 0..objects {
            coord
                .shard_for(ObjectId(i))
                .populate(ObjectId(i), Value::new(0));
        }
        coord
    }

    /// A write based on a fresh read of `o` (missing objects read as the
    /// initial version).
    fn write(coord: &Coordinator, o: u64, ver: u64) -> PreparedWrite {
        let object = ObjectId(o);
        PreparedWrite {
            object,
            observed: coord
                .shard_for(object)
                .store()
                .version_of(object)
                .unwrap_or(Version::INITIAL),
            value: Value::new(ver),
            version: Version(ver),
            dependencies: DependencyList::bounded(3),
        }
    }

    #[test]
    fn router_is_stable_and_covers_all_shards() {
        let r = ShardRouter::new(4);
        assert_eq!(r.shard_count(), 4);
        for i in 0..100 {
            assert_eq!(r.shard_of(ObjectId(i)), r.shard_of(ObjectId(i)));
            assert!(r.shard_of(ObjectId(i)) < 4);
        }
        let hit: std::collections::HashSet<_> =
            (0..100).map(|i| r.shard_of(ObjectId(i))).collect();
        assert_eq!(hit.len(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardRouter::new(0);
    }

    #[test]
    fn multi_shard_commit_installs_everywhere() {
        let coord = coordinator(3, 9);
        let outcome = coord
            .commit(TxnId(1), vec![write(&coord, 0, 1), write(&coord, 1, 1), write(&coord, 2, 1)])
            .unwrap();
        assert_eq!(outcome.installed.len(), 3);
        assert_eq!(outcome.participants, 3);
        for i in 0..3u64 {
            let e = coord.shard_for(ObjectId(i)).store().get(ObjectId(i)).unwrap();
            assert_eq!(e.version, Version(1));
        }
    }

    #[test]
    fn single_shard_transactions_have_one_participant() {
        let coord = coordinator(3, 9);
        // Objects 0, 3, 6 all map to shard 0 with modulo routing.
        let outcome = coord
            .commit(TxnId(1), vec![write(&coord, 0, 1), write(&coord, 3, 1), write(&coord, 6, 1)])
            .unwrap();
        assert_eq!(outcome.participants, 1);
    }

    #[test]
    fn prepare_rejection_aborts_everywhere() {
        let coord = coordinator(2, 4);
        // Hold a lock on object 1 (shard 1) through a dangling prepare.
        assert_eq!(
            coord.shard_for(ObjectId(1)).prepare(TxnId(9), vec![write(&coord, 1, 5)]),
            Vote::Yes
        );
        // A transaction touching objects 0 (shard 0) and 1 (shard 1) must
        // fail and leave shard 0 untouched and unlocked.
        let err = coord
            .commit(TxnId(2), vec![write(&coord, 0, 2), write(&coord, 1, 2)])
            .unwrap_err();
        assert!(matches!(err, TCacheError::UpdateAborted { .. }));
        assert_eq!(
            coord.shard_for(ObjectId(0)).store().get(ObjectId(0)).unwrap().version,
            Version::INITIAL
        );
        // Shard 0 must not be left locked: a fresh transaction succeeds.
        coord.commit(TxnId(3), vec![write(&coord, 0, 3)]).unwrap();
        // Clean up the dangling prepare and verify object 1 commits too.
        coord.shard_for(ObjectId(1)).abort(TxnId(9));
        coord.commit(TxnId(4), vec![write(&coord, 1, 4)]).unwrap();
    }

    #[test]
    fn unknown_object_rejects_commit() {
        let coord = coordinator(2, 2);
        let err = coord.commit(TxnId(1), vec![write(&coord, 77, 1)]).unwrap_err();
        assert!(matches!(err, TCacheError::UpdateAborted { .. }));
    }

    #[test]
    fn empty_write_set_commits_trivially() {
        let coord = coordinator(2, 2);
        let outcome = coord.commit(TxnId(1), vec![]).unwrap();
        assert!(outcome.installed.is_empty());
        assert_eq!(outcome.participants, 0);
    }
}
