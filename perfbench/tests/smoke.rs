//! Tiny-op-count runs of every workload: every metric `BENCHMARK.json`
//! names is printed with its unit, the correctness checks pass, and the
//! input digest is a function of the seed alone.

use perfbench::inputs::{Inputs, Workload};
use perfbench::placement::Placement;
use perfbench::report::{MetricDef, END_TO_END, PER_LAYER};
use perfbench::Options;
use serde_json::Value;

const TINY_OPS: usize = 3_000;

fn tiny(workload: Workload, trace: bool) -> Options {
    let mut options = Options::new(workload, 7, 0.5, trace);
    options.stream_ops = TINY_OPS;
    options.max_ops_per_round = TINY_OPS as u64;
    // A traced run needs an untraced and a traced round.
    options.rounds = if trace { 2 } else { 1 };
    options
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    serde_json::Value::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(json: &'a Value, key: &str) -> &'a [Value] {
    match json.get(key) {
        Some(Value::Seq(items)) => items,
        other => panic!("{key} is not a list: {other:?}"),
    }
}

fn text<'a>(json: &'a Value, key: &str) -> &'a str {
    match json.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key} is not a string: {other:?}"),
    }
}

#[test]
fn metric_tables_match_benchmark_json() {
    let json = benchmark_json();
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed: Vec<(&str, &str, &str)> = entries(&json, key)
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let defined: Vec<(&str, &str, &str)> = defs
            .iter()
            .map(|&(name, unit, better): &MetricDef| (name, unit, better.word()))
            .collect();
        assert_eq!(listed, defined, "{key} in BENCHMARK.json");
    }
    let workloads: Vec<&str> = entries(&json, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, known);
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    for workload in Workload::ALL {
        for (trace, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
            let mut log = Vec::new();
            let outcome = perfbench::run(&tiny(workload, trace), &mut log)
                .unwrap_or_else(|e| panic!("{} did not run: {e}", workload.name()));
            assert!(
                outcome.correct,
                "{} (trace {trace}) failed its checks: {:?}",
                workload.name(),
                outcome.violations
            );
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted > 0);

            let result = Value::parse(&outcome.json()).expect("the result line is JSON");
            let metrics = match result.get("metrics") {
                Some(Value::Map(metrics)) => metrics,
                other => panic!("metrics is not an object: {other:?}"),
            };
            let names: Vec<&str> = metrics.iter().map(|(name, _)| name.as_str()).collect();
            let expected: Vec<&str> = defs.iter().map(|d| d.0).collect();
            assert_eq!(names, expected, "{} (trace {trace})", workload.name());
            for ((name, metric), def) in metrics.iter().zip(defs) {
                assert_eq!(text(metric, "unit"), def.1, "unit of {name}");
                assert!(
                    matches!(
                        metric.get("value"),
                        Some(Value::U64(_) | Value::F64(_) | Value::I64(_))
                    ),
                    "value of {name} is a number"
                );
            }
            let log = String::from_utf8(log).expect("progress lines are text");
            assert!(
                log.contains(&format!("digest {:016x}", outcome.digest)),
                "the run prints its input digest"
            );
        }
    }
}

#[test]
fn the_input_digest_depends_on_the_seed_only() {
    for workload in Workload::ALL {
        let a = Inputs::generate(workload, 7, TINY_OPS);
        let b = Inputs::generate(workload, 7, TINY_OPS);
        let c = Inputs::generate(workload, 8, TINY_OPS);
        assert_eq!(
            a.digest,
            b.digest,
            "{}: one seed, one stream",
            workload.name()
        );
        assert_eq!(a.ops, b.ops);
        assert_ne!(
            a.digest,
            c.digest,
            "{}: another seed, another stream",
            workload.name()
        );
    }
}

#[test]
fn two_tier_workloads_name_every_cache() {
    for workload in Workload::ALL {
        let spec = workload.spec();
        if let Some((roots, leaves)) = spec.two_tier {
            assert_eq!(roots + roots * leaves, spec.caches, "{}", workload.name());
        }
    }
}

#[test]
fn a_single_cpu_run_is_refused() {
    let placement = Placement::choose().expect("the test host has two CPUs");
    // Confine this test thread to one CPU; placement must now refuse.
    let confined = Placement {
        client_cpu: placement.client_cpu,
        reactor_cpu: placement.client_cpu,
    };
    confined
        .pin_client()
        .expect("pinning to an allowed CPU works");
    let refused = Placement::choose().expect_err("one CPU cannot host two threads apart");
    assert!(refused.contains("shared-CPU"), "{refused}");
}
