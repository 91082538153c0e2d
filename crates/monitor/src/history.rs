//! The global version history assembled from committed update transactions.
//!
//! # Layout
//!
//! Every committed update gets an *ordinal*: its index in arrival order.
//! The history keeps one [`TxnId`] per ordinal and one `ObjectLog` per
//! object, in a single map keyed by [`ObjectId`]. An object's log holds
//!
//! * its installed versions in increasing order, each with the ordinal of
//!   the update that installed it, and
//! * the ordinals of the updates that read the object's *latest* version
//!   (the version the next write will overwrite).
//!
//! So one map probe answers everything an access `(object, version)`
//! needs: who wrote that version, which write came next, and which version
//! is the latest. The readers-of-latest list is maintained by
//! [`crate::sgt::SerializationGraph`], which consumes it when the next write
//! of the object arrives.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use tcache_types::{ObjectId, TxnId, Version};

/// Index of an update in arrival order.
pub(crate) type Ordinal = u32;

/// A multiply-xor hasher for program-assigned integer keys ([`ObjectId`]s
/// and ordinals).
///
/// It gives no protection against keys crafted to collide, which is why it
/// is used only for ids the program assigns itself: the monitor is an
/// experiment oracle and never hashes input from outside the program.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`IdHasher`]s for the monitor's maps and sets.
pub(crate) type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// One object's write history and the readers of its latest version.
#[derive(Debug, Default, Clone)]
pub(crate) struct ObjectLog {
    /// Installed versions in increasing order, with the installing update.
    versions: Vec<(Version, Ordinal)>,
    /// Updates that read the latest version; consumed by the next write.
    pub(crate) latest_readers: Vec<Ordinal>,
}

/// What an access `(object, version)` sees in the object's log.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Seen {
    /// The update that installed exactly `version` (`None` for the initial
    /// version and for versions never installed).
    pub(crate) writer: Option<Ordinal>,
    /// The next installed version after `version`, with its writer.
    pub(crate) next: Option<(Version, Ordinal)>,
}

impl ObjectLog {
    /// Writer and next write for `version`, from one binary search.
    pub(crate) fn seen(&self, version: Version) -> Seen {
        let idx = self.versions.partition_point(|&(v, _)| v <= version);
        let writer = idx
            .checked_sub(1)
            .map(|i| self.versions[i])
            .filter(|&(v, _)| v == version)
            .map(|(_, ord)| ord);
        Seen {
            writer,
            next: self.versions.get(idx).copied(),
        }
    }

    /// The latest installed version (initial if never written).
    pub(crate) fn latest(&self) -> Version {
        self.versions.last().map_or(Version::INITIAL, |&(v, _)| v)
    }

    /// The update that installed the latest version, if any.
    pub(crate) fn latest_writer(&self) -> Option<Ordinal> {
        self.versions.last().map(|&(_, ord)| ord)
    }

    /// Records that update `ord` installed `version`. Versions arrive in
    /// increasing order in normal operation; the list stays sorted even if
    /// they do not, and a version installed twice keeps its first writer.
    pub(crate) fn install(&mut self, version: Version, ord: Ordinal) {
        if self.versions.last().is_none_or(|&(v, _)| v < version) {
            self.versions.push((version, ord));
            return;
        }
        let pos = self.versions.partition_point(|&(v, _)| v < version);
        if self.versions.get(pos).map(|&(v, _)| v) != Some(version) {
            self.versions.insert(pos, (version, ord));
        }
    }
}

/// Per-object write history: which transaction installed which version.
///
/// Update transactions are serializable in version order (the database
/// assigns each transaction a version larger than everything it observed),
/// so this history is the reference against which read-only transactions are
/// judged. See the [module docs](self) for the layout.
#[derive(Debug, Default, Clone)]
pub struct VersionHistory {
    /// Every object that was written or whose latest version was read.
    objects: HashMap<ObjectId, ObjectLog, IdBuildHasher>,
    /// The transaction behind each ordinal.
    txns: Vec<TxnId>,
}

impl VersionHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        VersionHistory::default()
    }

    /// Records that `txn` installed `version` of `object`.
    pub fn record_write(&mut self, object: ObjectId, version: Version, txn: TxnId) {
        let ord = self.push_txn(txn);
        self.log_mut(object).install(version, ord);
    }

    /// Assigns the next ordinal to `txn`.
    pub(crate) fn push_txn(&mut self, txn: TxnId) -> Ordinal {
        let ord = Ordinal::try_from(self.txns.len()).expect("fewer than 2^32 update transactions");
        self.txns.push(txn);
        ord
    }

    /// The transaction behind ordinal `ord`.
    pub(crate) fn txn(&self, ord: Ordinal) -> TxnId {
        self.txns[ord as usize]
    }

    /// The log of `object`, created empty if absent.
    pub(crate) fn log_mut(&mut self, object: ObjectId) -> &mut ObjectLog {
        self.objects.entry(object).or_default()
    }

    /// What an access `(object, version)` sees (nothing for unknown
    /// objects).
    pub(crate) fn seen(&self, object: ObjectId, version: Version) -> Seen {
        self.objects
            .get(&object)
            .map_or(Seen::default(), |log| log.seen(version))
    }

    /// The writer of the largest installed version of `object` strictly
    /// smaller than `version`.
    pub(crate) fn writer_before(&self, object: ObjectId, version: Version) -> Option<TxnId> {
        let log = self.objects.get(&object)?;
        let idx = log.versions.partition_point(|&(v, _)| v < version);
        let (_, ord) = *log.versions.get(idx.checked_sub(1)?)?;
        Some(self.txn(ord))
    }

    /// The transaction that wrote `version` of `object`
    /// (`None` for the initial version or unknown objects).
    pub fn writer_of(&self, object: ObjectId, version: Version) -> Option<TxnId> {
        self.seen(object, version).writer.map(|ord| self.txn(ord))
    }

    /// The smallest installed version of `object` strictly greater than
    /// `version`, together with its writer. `None` if `version` is (still)
    /// the latest.
    pub fn next_write_after(&self, object: ObjectId, version: Version) -> Option<(Version, TxnId)> {
        self.seen(object, version)
            .next
            .map(|(v, ord)| (v, self.txn(ord)))
    }

    /// The latest installed version of `object` (initial if never written).
    pub fn latest_version(&self, object: ObjectId) -> Version {
        self.objects
            .get(&object)
            .map_or(Version::INITIAL, ObjectLog::latest)
    }

    /// Number of objects with at least one recorded write.
    pub fn written_objects(&self) -> usize {
        // Objects read only at their initial version have a log with no
        // versions; they were never written.
        self.objects
            .values()
            .filter(|log| !log.versions.is_empty())
            .count()
    }

    /// Total number of recorded writes.
    pub fn total_writes(&self) -> usize {
        self.objects.values().map(|log| log.versions.len()).sum()
    }

    /// Number of `(object, reader)` entries in the readers-of-latest lists.
    #[cfg(test)]
    pub(crate) fn reader_entries(&self) -> usize {
        self.objects
            .values()
            .map(|log| log.latest_readers.len())
            .sum()
    }

    /// Decides whether a set of reads `(object, version)` is consistent:
    /// there must exist a serialization point `p` (a version) such that for
    /// every read, the version read is the latest version of that object
    /// installed at or before `p`. Because update transactions serialize in
    /// version order, such a point exists exactly when
    /// `max(version read) < min(next version installed after each read)`.
    ///
    /// Reads of versions that were never installed (other than the initial
    /// version) are inconsistent by definition.
    pub fn reads_consistent(&self, reads: &[(ObjectId, Version)]) -> bool {
        let mut max_read = Version::INITIAL;
        let mut min_next: Option<Version> = None;
        for &(object, version) in reads {
            let seen = self.seen(object, version);
            // The read version must exist: either the initial version or an
            // installed one.
            if version != Version::INITIAL && seen.writer.is_none() {
                return false;
            }
            max_read = max_read.max(version);
            if let Some((next, _)) = seen.next {
                min_next = Some(min_next.map_or(next, |m| m.min(next)));
            }
        }
        min_next.is_none_or(|next| max_read < next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(i: u64) -> ObjectId {
        ObjectId(i)
    }
    fn v(i: u64) -> Version {
        Version(i)
    }

    fn sample_history() -> VersionHistory {
        // Object 1: versions 2 (t1), 5 (t2); object 2: versions 2 (t1), 8 (t3).
        let mut h = VersionHistory::new();
        h.record_write(o(1), v(2), TxnId(1));
        h.record_write(o(2), v(2), TxnId(1));
        h.record_write(o(1), v(5), TxnId(2));
        h.record_write(o(2), v(8), TxnId(3));
        h
    }

    #[test]
    fn writer_and_next_lookup() {
        let h = sample_history();
        assert_eq!(h.writer_of(o(1), v(2)), Some(TxnId(1)));
        assert_eq!(h.writer_of(o(1), v(5)), Some(TxnId(2)));
        assert_eq!(h.writer_of(o(1), v(3)), None);
        assert_eq!(h.next_write_after(o(1), v(2)), Some((v(5), TxnId(2))));
        assert_eq!(h.next_write_after(o(1), v(5)), None);
        assert_eq!(h.next_write_after(o(1), Version::INITIAL), Some((v(2), TxnId(1))));
        assert_eq!(h.next_write_after(o(9), v(1)), None);
        assert_eq!(h.latest_version(o(1)), v(5));
        assert_eq!(h.latest_version(o(9)), Version::INITIAL);
        assert_eq!(h.written_objects(), 2);
        assert_eq!(h.total_writes(), 4);
    }

    #[test]
    fn out_of_order_and_duplicate_records_are_handled() {
        let mut h = VersionHistory::new();
        h.record_write(o(1), v(5), TxnId(2));
        h.record_write(o(1), v(2), TxnId(1));
        h.record_write(o(1), v(2), TxnId(1));
        assert_eq!(h.total_writes(), 2);
        assert_eq!(h.next_write_after(o(1), v(2)), Some((v(5), TxnId(2))));
        // A version installed twice keeps its first writer.
        h.record_write(o(1), v(5), TxnId(3));
        assert_eq!(h.writer_of(o(1), v(5)), Some(TxnId(2)));
        assert_eq!(h.total_writes(), 2);
    }

    #[test]
    fn objects_with_empty_logs_are_not_written() {
        let mut h = sample_history();
        // A log created for reading an object at its initial version holds
        // no versions: the object was never written.
        h.log_mut(o(7)).latest_readers.push(0);
        assert_eq!(h.written_objects(), 2);
        assert_eq!(h.total_writes(), 4);
        assert_eq!(h.latest_version(o(7)), Version::INITIAL);
        assert!(h.reads_consistent(&[(o(7), Version::INITIAL), (o(1), v(5))]));
    }

    #[test]
    fn consistent_snapshot_reads() {
        let h = sample_history();
        // Both objects at the t1 snapshot.
        assert!(h.reads_consistent(&[(o(1), v(2)), (o(2), v(2))]));
        // Latest versions of both.
        assert!(h.reads_consistent(&[(o(1), v(5)), (o(2), v(8))]));
        // Mixed but placeable: o1@5 (latest), o2@2 is superseded at 8, so any
        // point p in [5, 8) works.
        assert!(h.reads_consistent(&[(o(1), v(5)), (o(2), v(2))]));
        // Initial versions are consistent before anything was written.
        assert!(h.reads_consistent(&[(o(3), Version::INITIAL)]));
        assert!(h.reads_consistent(&[]));
    }

    #[test]
    fn inconsistent_reads_are_rejected() {
        let h = sample_history();
        // o2@8 requires p >= 8, but o1@2 requires p < 5.
        assert!(!h.reads_consistent(&[(o(1), v(2)), (o(2), v(8))]));
        // Reading a version that never existed.
        assert!(!h.reads_consistent(&[(o(1), v(3))]));
        // Initial version of o1 together with the latest o2.
        assert!(!h.reads_consistent(&[(o(1), Version::INITIAL), (o(2), v(8))]));
    }

    #[test]
    fn single_reads_are_always_consistent() {
        let h = sample_history();
        for &(obj, ver) in &[(1u64, 2u64), (1, 5), (2, 2), (2, 8)] {
            assert!(h.reads_consistent(&[(o(obj), v(ver))]));
        }
    }
}
