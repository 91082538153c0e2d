//! The three workloads and their pre-generated, seeded op streams.
//!
//! A run generates its whole op stream from the seed before any system is
//! built, so set-up and the measured loop never pay for input generation,
//! and an FNV-1a digest of the stream shows which inputs a run executed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use tcache::types::{AccessSet, ObjectId, SimTime};
use tcache::workload::{ParetoClusters, UniformRandom, WorkloadGenerator, ZipfWorkload};

/// Ops in one generated stream. The measured loop cycles through the
/// stream when a round outruns it.
pub const DEFAULT_STREAM_OPS: usize = 1 << 20;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Zipf-skewed reads over a small catalogue: the cache hit path.
    HitZipf,
    /// The paper's §V setting: clustered accesses, 20% loss, two-tier tree.
    PaperLossy,
    /// A large uniform catalogue with half the transactions updates.
    UpdateWide,
}

/// How a workload draws the objects of one transaction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Keys {
    /// Zipf over the whole catalogue.
    Zipf { exponent: f64 },
    /// Bounded-Pareto offsets from a uniformly chosen cluster head.
    ParetoClusters { cluster: u64, alpha: f64 },
    /// Uniform over the whole catalogue.
    Uniform,
}

/// The deployment and traffic mix of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Edge caches deployed (reads go to them round-robin).
    pub caches: usize,
    /// `Some((roots, leaves_per_root))` arranges the caches in a two-tier
    /// invalidation tree; `None` is the flat star.
    pub two_tier: Option<(usize, usize)>,
    /// Objects in the catalogue.
    pub objects: u64,
    /// Database shards.
    pub shards: usize,
    /// Uniform loss probability of every invalidation link.
    pub loss: f64,
    /// Dependency-list bound.
    pub dependency_bound: usize,
    /// Probability that an op is an update transaction.
    pub update_share: f64,
    /// Objects accessed per transaction (repetitions allowed).
    pub per_txn: usize,
    /// Key distribution.
    pub keys: Keys,
}

impl Spec {
    /// Whether every invalidation reaches every cache.
    pub fn lossless(&self) -> bool {
        self.loss == 0.0
    }
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::HitZipf,
        Workload::PaperLossy,
        Workload::UpdateWide,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HitZipf => "hit_zipf",
            Workload::PaperLossy => "paper_lossy",
            Workload::UpdateWide => "update_wide",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The deployment and traffic mix.
    pub fn spec(self) -> Spec {
        match self {
            Workload::HitZipf => Spec {
                caches: 4,
                two_tier: None,
                objects: 4_096,
                shards: 1,
                loss: 0.0,
                dependency_bound: 3,
                update_share: 0.02,
                per_txn: 3,
                keys: Keys::Zipf { exponent: 0.99 },
            },
            Workload::PaperLossy => Spec {
                caches: 8,
                two_tier: Some((2, 3)),
                objects: 2_000,
                shards: 1,
                loss: 0.2,
                dependency_bound: 5,
                update_share: 1.0 / 6.0,
                per_txn: 5,
                keys: Keys::ParetoClusters {
                    cluster: 5,
                    alpha: 1.0,
                },
            },
            Workload::UpdateWide => Spec {
                caches: 2,
                two_tier: None,
                objects: 262_144,
                shards: 4,
                loss: 0.0,
                dependency_bound: 3,
                update_share: 0.5,
                per_txn: 3,
                keys: Keys::Uniform,
            },
        }
    }
}

/// One op of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A read-only transaction on `cache` over `Inputs::keys[start..start + len]`.
    Read { cache: u32, start: u32, len: u32 },
    /// An update transaction over `Inputs::updates[set]`.
    Update { set: u32 },
}

/// A generated op stream.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The ops, in issue order.
    pub ops: Vec<Op>,
    /// The keys of every read op, back to back.
    pub keys: Vec<ObjectId>,
    /// The access set of every update op.
    pub updates: Vec<AccessSet>,
    /// FNV-1a digest of the stream (op kinds, caches and keys).
    pub digest: u64,
    /// Wall-clock generation cost per op, in nanoseconds.
    pub gen_ns_per_op: f64,
}

impl Inputs {
    /// Generates `stream_ops` ops of `workload` from `seed`.
    ///
    /// # Panics
    /// Panics if `stream_ops` is zero or the stream's keys overflow `u32`
    /// offsets.
    pub fn generate(workload: Workload, seed: u64, stream_ops: usize) -> Inputs {
        assert!(stream_ops > 0, "a stream needs at least one op");
        let started = Instant::now();
        let spec = workload.spec();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut generator: Box<dyn WorkloadGenerator> = match spec.keys {
            Keys::Zipf { exponent } => Box::new(ZipfWorkload::new(
                seed,
                spec.objects,
                exponent,
                spec.per_txn,
            )),
            Keys::ParetoClusters { cluster, alpha } => Box::new(ParetoClusters::new(
                spec.objects,
                cluster,
                spec.per_txn,
                alpha,
            )),
            Keys::Uniform => Box::new(UniformRandom::new(spec.objects, spec.per_txn)),
        };
        let mut digest = Fnv::new();
        let mut ops = Vec::with_capacity(stream_ops);
        let mut keys = Vec::new();
        let mut updates = Vec::new();
        let mut reads = 0usize;
        for _ in 0..stream_ops {
            let set = generator.generate(SimTime::ZERO, &mut rng);
            let op = if rng.gen_bool(spec.update_share) {
                updates.push(set);
                Op::Update {
                    set: u32::try_from(updates.len() - 1).expect("update count fits u32"),
                }
            } else {
                let cache = (reads % spec.caches) as u32;
                reads += 1;
                let start = u32::try_from(keys.len()).expect("key offset fits u32");
                keys.extend_from_slice(set.objects());
                Op::Read {
                    cache,
                    start,
                    len: set.len() as u32,
                }
            };
            match op {
                Op::Read { cache, .. } => digest.write(1 + u64::from(cache)),
                Op::Update { .. } => digest.write(0),
            }
            for object in set_objects(&op, &keys, &updates) {
                digest.write(object.0);
            }
            ops.push(op);
        }
        let elapsed = started.elapsed();
        Inputs {
            ops,
            keys,
            updates,
            digest: digest.finish(),
            gen_ns_per_op: elapsed.as_nanos() as f64 / stream_ops as f64,
        }
    }

    /// The keys of a read op.
    pub fn read_keys(&self, start: u32, len: u32) -> &[ObjectId] {
        &self.keys[start as usize..(start + len) as usize]
    }
}

fn set_objects<'a>(op: &Op, keys: &'a [ObjectId], updates: &'a [AccessSet]) -> &'a [ObjectId] {
    match *op {
        Op::Read { start, len, .. } => &keys[start as usize..(start + len) as usize],
        Op::Update { set } => updates[set as usize].objects(),
    }
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
