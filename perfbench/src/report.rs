//! Turning rounds into named metrics, and the result line.
//!
//! Every metric is computed per round and reported as the median over the
//! run's rounds, so one disturbed round cannot move a run's figure.

use crate::harness::{Round, SpanKind};

/// Whether a larger or a smaller value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric's name, unit and better direction.
pub type MetricDef = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// The end-to-end metrics of an untraced run, in output order.
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s", Lower),
    ("txn_per_s", "1/s", Higher),
    ("read_p50_ns", "ns", Lower),
    ("read_p99_ns", "ns", Lower),
    ("update_p50_ns", "ns", Lower),
    ("update_p99_ns", "ns", Lower),
    ("inv_age_p50_ns", "ns", Lower),
    ("classify_ns_per_txn", "ns", Lower),
    ("mem_footprint_mb", "MB", Lower),
];

/// The per-layer metrics of a traced run, in output order.
pub const PER_LAYER: &[MetricDef] = &[
    ("cache.read_txn.hit_ns", "ns", Lower),
    ("cache.read_txn.miss_ns", "ns", Lower),
    ("cache.hit_ratio", "ratio", Higher),
    ("cache.fastpath_share", "ratio", Higher),
    ("cache.promoted_txns", "count", Lower),
    ("cache.invalidations_applied", "count", Higher),
    ("cache.invalidations_ignored", "count", Lower),
    ("cache.gaps_detected", "count", Lower),
    ("cache.invalidations_missed", "count", Lower),
    ("db.update_ns", "ns", Lower),
    ("db.publish_ns_per_update", "ns", Lower),
    ("db.commit_ns_per_update", "ns", Lower),
    ("db.read_path.optimistic_share", "ratio", Higher),
    ("db.read_path.lock_fallbacks", "count", Lower),
    ("db.updates_aborted", "count", Lower),
    ("net.pipe.max_drain", "count", Higher),
    ("net.pipe.coalesced_wakeups", "count", Higher),
    ("net.pipe.stalled_sends", "count", Lower),
    ("net.reactor.polls", "count", Lower),
    ("net.reactor.wakes", "count", Lower),
    ("net.reactor.spin_recoveries", "count", Higher),
    ("net.delivery.dropped", "count", Lower),
    ("net.delivery.delivered", "count", Higher),
    ("net.relay_overflows", "count", Lower),
    ("net.stream_lag_p99", "count", Lower),
    ("net.inv_age_p99_ns", "ns", Lower),
    ("monitor.update_ns", "ns", Lower),
    ("monitor.read_ns", "ns", Lower),
    ("monitor.epochs_flushed", "count", Lower),
    ("monitor.committed_consistent", "count", Higher),
    ("monitor.committed_inconsistent", "count", Lower),
    ("monitor.aborted_justified", "count", Higher),
    ("monitor.aborted_unnecessary", "count", Lower),
    ("monitor.inconsistency_ratio", "ratio", Lower),
    ("monitor.abort_ratio", "ratio", Lower),
    ("monitor.detection_ratio", "ratio", Higher),
    ("core.build_s", "s", Lower),
    ("core.populate_s", "s", Lower),
    ("core.warm_s", "s", Lower),
    ("workload.gen_ns_per_op", "ns", Lower),
    ("trace.residual_ns_per_op", "ns", Lower),
    ("trace.residual_share", "ratio", Lower),
    ("trace.overhead_share", "ratio", Lower),
];

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The `q`-quantile (nearest rank) of `values`, or 0 when empty. Reorders
/// `values`.
pub fn quantile(values: &mut [u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len()) - 1;
    *values.select_nth_unstable(rank).1 as f64
}

/// The median of `values` (mean of the middle two for an even count), or
/// 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Throughput of a round, in transactions per second.
pub fn txn_per_s(round: &Round) -> f64 {
    if round.loop_s > 0.0 {
        round.ops as f64 / round.loop_s
    } else {
        0.0
    }
}

/// A round's end-to-end metrics.
pub fn end_to_end(round: &mut Round) -> Vec<(&'static str, f64)> {
    let txns = round.reads + round.updates;
    vec![
        ("setup_s", round.setup.total_s()),
        ("txn_per_s", txn_per_s(round)),
        ("read_p50_ns", quantile(&mut round.read_ns, 0.50)),
        ("read_p99_ns", quantile(&mut round.read_ns, 0.99)),
        ("update_p50_ns", quantile(&mut round.update_ns, 0.50)),
        ("update_p99_ns", quantile(&mut round.update_ns, 0.99)),
        ("inv_age_p50_ns", quantile(&mut round.inv_age_ns, 0.50)),
        (
            "classify_ns_per_txn",
            round.replay_s * 1e9 / txns.max(1) as f64,
        ),
        ("mem_footprint_mb", round.footprint_bytes as f64 / 1e6),
    ]
}

/// Sum and count of a round's spans of one kind.
fn span_total(round: &Round, kind: SpanKind) -> (u64, u64) {
    round
        .spans
        .iter()
        .filter(|s| s.kind == kind)
        .fold((0, 0), |(sum, n), s| (sum + s.dur_ns, n + 1))
}

fn span_mean(round: &Round, kind: SpanKind) -> f64 {
    let (sum, n) = span_total(round, kind);
    ratio(sum, n)
}

/// Loop time not covered by a layer span, in nanoseconds.
fn residual_ns(round: &Round) -> f64 {
    let covered: u64 = [SpanKind::CacheHit, SpanKind::CacheMiss, SpanKind::DbUpdate]
        .into_iter()
        .map(|kind| span_total(round, kind).0)
        .sum();
    round.loop_s * 1e9 - covered as f64
}

/// A traced round's per-layer metrics, except the two that are measured
/// per run (input generation and tracing overhead).
pub fn per_layer(round: &mut Round) -> Vec<(&'static str, f64)> {
    let c = round.counters;
    let report = round.report;
    let update_ns = span_mean(round, SpanKind::DbUpdate);
    let publish_ns = ratio(c.publish_nanos, round.updates);
    let (monitor_read_ns, _) = span_total(round, SpanKind::MonitorRead);
    let residual = residual_ns(round);
    let loop_ns = round.loop_s * 1e9;
    vec![
        (
            "cache.read_txn.hit_ns",
            span_mean(round, SpanKind::CacheHit),
        ),
        (
            "cache.read_txn.miss_ns",
            span_mean(round, SpanKind::CacheMiss),
        ),
        ("cache.hit_ratio", ratio(c.hits, c.hits + c.misses)),
        ("cache.fastpath_share", ratio(c.fastpath_txns, round.reads)),
        ("cache.promoted_txns", c.promoted_txns as f64),
        (
            "cache.invalidations_applied",
            c.invalidations_applied as f64,
        ),
        (
            "cache.invalidations_ignored",
            c.invalidations_ignored as f64,
        ),
        ("cache.gaps_detected", c.gaps_detected as f64),
        ("cache.invalidations_missed", c.invalidations_missed as f64),
        ("db.update_ns", update_ns),
        ("db.publish_ns_per_update", publish_ns),
        ("db.commit_ns_per_update", update_ns - publish_ns),
        (
            "db.read_path.optimistic_share",
            ratio(
                c.optimistic_hits,
                c.optimistic_hits + c.lock_fallbacks + c.locked_reads,
            ),
        ),
        ("db.read_path.lock_fallbacks", c.lock_fallbacks as f64),
        ("db.updates_aborted", c.updates_aborted as f64),
        ("net.pipe.max_drain", c.pipe_max_drain as f64),
        (
            "net.pipe.coalesced_wakeups",
            c.pipe_coalesced_wakeups as f64,
        ),
        ("net.pipe.stalled_sends", c.pipe_stalled_sends as f64),
        ("net.reactor.polls", c.reactor_polls as f64),
        ("net.reactor.wakes", c.reactor_wakes as f64),
        (
            "net.reactor.spin_recoveries",
            c.reactor_spin_recoveries as f64,
        ),
        ("net.delivery.dropped", c.delivery_dropped as f64),
        ("net.delivery.delivered", c.delivery_delivered as f64),
        ("net.relay_overflows", c.relay_overflows as f64),
        ("net.stream_lag_p99", quantile(&mut round.stream_lag, 0.99)),
        ("net.inv_age_p99_ns", quantile(&mut round.inv_age_ns, 0.99)),
        (
            "monitor.update_ns",
            span_mean(round, SpanKind::MonitorUpdate),
        ),
        (
            "monitor.read_ns",
            ratio(monitor_read_ns, report.read_only_total()),
        ),
        ("monitor.epochs_flushed", round.epochs_flushed as f64),
        (
            "monitor.committed_consistent",
            report.committed_consistent as f64,
        ),
        (
            "monitor.committed_inconsistent",
            report.committed_inconsistent as f64,
        ),
        ("monitor.aborted_justified", report.aborted_justified as f64),
        (
            "monitor.aborted_unnecessary",
            report.aborted_unnecessary as f64,
        ),
        ("monitor.inconsistency_ratio", report.inconsistency_ratio()),
        ("monitor.abort_ratio", report.abort_ratio()),
        ("monitor.detection_ratio", report.detection_ratio()),
        ("core.build_s", round.setup.build_s),
        ("core.populate_s", round.setup.populate_s),
        ("core.warm_s", round.setup.warm_s),
        (
            "trace.residual_ns_per_op",
            residual / round.ops.max(1) as f64,
        ),
        (
            "trace.residual_share",
            if loop_ns > 0.0 {
                residual / loop_ns
            } else {
                0.0
            },
        ),
    ]
}

/// Reports every metric of `defs`, in order, as the median of its values
/// over `per_round`.
///
/// # Panics
/// Panics if a round lacks one of the metrics, which is a bug in this file.
pub fn medians(defs: &[MetricDef], per_round: &[Vec<(&'static str, f64)>]) -> Vec<Metric> {
    defs.iter()
        .map(|&(name, unit, _)| {
            let values: Vec<f64> = per_round
                .iter()
                .map(|round| {
                    round
                        .iter()
                        .find(|(n, _)| *n == name)
                        .unwrap_or_else(|| panic!("no value computed for {name}"))
                        .1
                })
                .collect();
            Metric {
                name,
                unit,
                value: median(&values),
            }
        })
        .collect()
}

/// The per-layer metrics of a traced run: medians over its traced rounds'
/// figures, with the tracing overhead measured from the throughput of its
/// traced and untraced rounds.
pub fn traced_metrics(
    gen_ns_per_op: f64,
    mut per_round: Vec<Vec<(&'static str, f64)>>,
    traced_tps: &[f64],
    untraced_tps: &[f64],
) -> Vec<Metric> {
    let untraced = median(untraced_tps);
    let overhead = if untraced > 0.0 {
        1.0 - median(traced_tps) / untraced
    } else {
        0.0
    };
    for values in &mut per_round {
        values.push(("workload.gen_ns_per_op", gen_ns_per_op));
        values.push(("trace.overhead_share", overhead));
    }
    medians(PER_LAYER, &per_round)
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
