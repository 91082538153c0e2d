//! Live-stack end-to-end benchmark of T-Cache.
//!
//! One closed-loop client thread drives a real [`tcache::TCacheSystem`]
//! (reactor transport, modeled delivery) through the live plane's calls,
//! while the system's reactor thread applies invalidations on a CPU of its
//! own. A run is a handful of *rounds*; each builds a fresh system (timed as
//! set-up), measures for its share of the run's seconds, replays the log
//! through the consistency monitor and checks the results. Metrics are
//! medians over rounds. See `README.md` beside this crate for the workloads
//! and the meaning of every metric.

pub mod harness;
pub mod inputs;
pub mod placement;
pub mod report;

use harness::{run_round, RoundPlan};
use inputs::{Inputs, Workload};
use placement::{AffinityGuard, Placement};
use report::Metric;
use std::io::Write;
use std::time::Duration;

/// Rounds of an untraced run.
pub const UNTRACED_ROUNDS: usize = 10;

/// Rounds of a traced run: untraced and traced rounds alternate, so the
/// tracing overhead is measured within one run.
pub const TRACED_ROUNDS: usize = 10;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: Workload,
    /// Seeds the op stream and the system's loss models.
    pub seed: u64,
    /// Total measured time over all rounds.
    pub seconds: f64,
    /// Run the traced variant and report per-layer metrics.
    pub trace: bool,
    /// Length of the generated op stream.
    pub stream_ops: usize,
    /// Upper bound on ops per round.
    pub max_ops_per_round: u64,
    /// Rounds in the run.
    pub rounds: usize,
}

impl Options {
    /// A run of `workload` with the default stream and no op bound.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Options {
        Options {
            workload,
            seed,
            seconds,
            trace,
            stream_ops: inputs::DEFAULT_STREAM_OPS,
            max_ops_per_round: u64::MAX,
            rounds: if trace {
                TRACED_ROUNDS
            } else {
                UNTRACED_ROUNDS
            },
        }
    }
}

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Ops issued over all rounds.
    pub attempted: u64,
    /// Calls that returned `Err`.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Digest of the executed op stream.
    pub digest: u64,
    /// Failed correctness checks.
    pub violations: Vec<String>,
}

impl Outcome {
    /// The result line.
    pub fn json(&self) -> String {
        report::result_json(self.correct, self.attempted, self.failed, &self.metrics)
    }
}

/// Runs the benchmark, writing progress lines (each starting with `#`) to
/// `log`.
///
/// # Errors
/// Fails if the threads cannot be placed on two CPUs or set-up fails.
pub fn run(options: &Options, log: &mut impl Write) -> Result<Outcome, String> {
    let _restore = AffinityGuard::save()?;
    let placement = Placement::choose()?;
    let spec = options.workload.spec();
    let inputs = Inputs::generate(options.workload, options.seed, options.stream_ops);
    let rounds = options.rounds;
    let say = |log: &mut dyn Write, line: String| {
        // Progress lines are informational; a closed stdout is not an error.
        let _ = writeln!(log, "# {line}");
    };
    say(
        log,
        format!(
            "workload {} seed {} | {placement} | {} caches, {} objects | {} rounds of {:.2} s{}",
            options.workload.name(),
            options.seed,
            spec.caches,
            spec.objects,
            rounds,
            options.seconds / rounds as f64,
            if options.trace { ", traced" } else { "" }
        ),
    );
    say(
        log,
        format!(
            "inputs: {} ops, digest {:016x}, generated at {:.1} ns/op",
            inputs.ops.len(),
            inputs.digest,
            inputs.gen_ns_per_op
        ),
    );

    // Each round is reduced to its figures as soon as it ends, so only one
    // round's latency samples and log are held at a time.
    let mut per_round = Vec::with_capacity(rounds);
    let (mut traced_tps, mut untraced_tps) = (Vec::new(), Vec::new());
    let mut violations = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for index in 0..rounds {
        let plan = RoundPlan {
            spec,
            inputs: &inputs,
            seed: options.seed,
            duration: Duration::from_secs_f64(options.seconds / rounds as f64),
            max_ops: options.max_ops_per_round,
            traced: options.trace && index % 2 == 1,
            placement,
        };
        let mut round = run_round(&plan)?;
        let tps = report::txn_per_s(&round);
        say(
            log,
            format!(
                "round {index}{}: setup {:.4} s, {} ops in {:.3} s ({tps:.0} txn/s), replay {:.3} s, {} violations",
                if round.traced { " (traced)" } else { "" },
                round.setup.total_s(),
                round.ops,
                round.loop_s,
                round.replay_s,
                round.violations.len()
            ),
        );
        attempted += round.ops;
        failed += round.failed;
        violations.append(&mut round.violations);
        if !options.trace {
            per_round.push(report::end_to_end(&mut round));
        } else if round.traced {
            traced_tps.push(tps);
            per_round.push(report::per_layer(&mut round));
        } else {
            untraced_tps.push(tps);
        }
    }

    for violation in &violations {
        say(log, format!("check failed: {violation}"));
    }
    let metrics = if options.trace {
        report::traced_metrics(inputs.gen_ns_per_op, per_round, &traced_tps, &untraced_tps)
    } else {
        report::medians(report::END_TO_END, &per_round)
    };
    for metric in &metrics {
        say(
            log,
            format!("{:<32} {:>16.4} {}", metric.name, metric.value, metric.unit),
        );
    }
    Ok(Outcome {
        correct: violations.is_empty(),
        attempted,
        failed,
        metrics,
        digest: inputs.digest,
        violations,
    })
}
