//! Harness self-test: every workload runs once in smoke mode (tiny
//! designs, one hop), untraced and traced, and must pass its own output
//! checks. The metric names and units each run prints must be exactly
//! the ones `BENCHMARK.json` declares, in both directions.
//!
//! `cargo test --manifest-path perfbench/Cargo.toml`

use std::collections::{BTreeMap, HashMap};
use std::process::Command;

use serde::Deserialize;

#[derive(Deserialize)]
struct Named {
    name: String,
}

#[derive(Deserialize)]
struct MetricSpec {
    name: String,
    unit: String,
}

#[derive(Deserialize)]
struct Bench {
    workloads: Vec<Named>,
    end_to_end: Vec<MetricSpec>,
    per_layer: Vec<MetricSpec>,
}

#[derive(Deserialize)]
struct Value {
    value: f64,
    unit: String,
}

#[derive(Deserialize)]
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: HashMap<String, Value>,
}

fn bench() -> Bench {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn run(workload: &str, trace: u8) -> Outcome {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{stderr}"
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("{e}: {last}"))
}

#[test]
fn every_workload_passes_and_prints_exactly_the_declared_metrics() {
    let spec = bench();
    // serve-warm is runnable but not declared (see README.md); it must
    // still print the declared metrics.
    let all = ["fig7-cold", "checkpoint-resume", "serve-warm"];
    for w in &spec.workloads {
        assert!(
            all.contains(&w.name.as_str()),
            "unknown workload {}",
            w.name
        );
    }
    for workload in all {
        for (trace, declared) in [(0, &spec.end_to_end), (1, &spec.per_layer)] {
            let outcome = run(workload, trace);
            assert!(outcome.correct, "{workload} trace {trace}: incorrect");
            assert!(outcome.attempted >= 1);
            assert_eq!(outcome.failed, 0, "{workload} trace {trace}");
            let printed: BTreeMap<&str, &str> = outcome
                .metrics
                .iter()
                .map(|(k, v)| (k.as_str(), v.unit.as_str()))
                .collect();
            let wanted: BTreeMap<&str, &str> = declared
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str()))
                .collect();
            assert_eq!(printed, wanted, "{workload} trace {trace}");
            for (name, v) in &outcome.metrics {
                assert!(v.value.is_finite(), "{workload}: {name} = {}", v.value);
            }
        }
    }
}

#[test]
fn unknown_workload_fails_without_a_result_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("perfbench runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
