//! The schema the driver and later PRs rely on: `BENCHMARK.json` stays
//! inside the driver's limits, and a smoke run of every workload prints
//! exactly the metric names it lists — none missing, none extra.

use std::path::Path;
use std::process::Command;

use benchmark::json::{self, Value};
use benchmark::spec::{self, MetricSpec};

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_obj().iter().map(|(k, _)| k.as_str()).collect()
}

#[test]
fn benchmark_json_meets_the_driver_contract() {
    let text = include_str!("../../BENCHMARK.json");
    assert!(text.len() <= 64 * 1024);
    let doc = json::parse(text).unwrap();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let seconds = doc.get("run_seconds").unwrap().as_f64().unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    let workloads = doc.get("workloads").unwrap().as_arr();
    assert!((2..=8).contains(&workloads.len()));
    let mut names: Vec<&str> = Vec::new();
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        names.push(w.get("name").unwrap().as_str().unwrap());
        let why = w.get("why").unwrap().as_str().unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }

    let end_to_end = doc.get("end_to_end").unwrap().as_arr();
    assert!((1..=16).contains(&end_to_end.len()));
    for m in end_to_end {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let bound = m.get("bound").unwrap().as_f64().unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let per_layer = doc.get("per_layer").unwrap().as_arr();
    assert!((1..=128).contains(&per_layer.len()));
    for m in per_layer {
        assert_eq!(keys(m), ["name", "unit", "better"]);
    }
    for m in end_to_end.iter().chain(per_layer) {
        names.push(m.get("name").unwrap().as_str().unwrap());
        assert!(is_unit(m.get("unit").unwrap().as_str().unwrap()));
        let better = m.get("better").unwrap().as_str().unwrap();
        assert!(better == "lower" || better == "higher");
    }
    for name in &names {
        assert!(is_name(name), "{name}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");

    // Set-up time is an end-to-end metric with the largest bound.
    let setup = end_to_end
        .iter()
        .find(|m| m.get("name").unwrap().as_str() == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    assert_eq!(setup.get("better").unwrap().as_str(), Some("lower"));
    let largest = end_to_end
        .iter()
        .map(|m| m.get("bound").unwrap().as_f64().unwrap())
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").unwrap().as_f64(), Some(largest));
}

/// Run one smoke pass of `workload` and check the last line of its output
/// against the metrics the spec lists for that trace mode.
fn smoke(workload: &str, trace: &str, listed: &[MetricSpec]) {
    let out_file = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("schema-{workload}"))
        .join("result.json");
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["run", "--smoke", "--seed", "3", "--seconds", "0"])
        .args(["--workload", workload, "--trace", trace, "--out"])
        .arg(&out_file)
        .output()
        .expect("the benchmark binary runs");
    assert!(
        output.status.success(),
        "{workload} --trace {trace}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).unwrap();
    let summary = json::parse(stdout.lines().last().expect("a last line")).unwrap();
    assert_eq!(
        keys(&summary),
        ["correct", "attempted", "failed", "metrics"]
    );
    assert_eq!(summary.get("correct").unwrap().as_bool(), Some(true));
    assert_eq!(summary.get("failed").unwrap().as_f64(), Some(0.0));
    assert!(summary.get("attempted").unwrap().as_f64().unwrap() >= 1.0);

    let metrics = summary.get("metrics").unwrap();
    let expected: Vec<&str> = listed.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(keys(metrics), expected, "{workload} --trace {trace}");
    for (m, (name, value)) in listed.iter().zip(metrics.as_obj()) {
        assert_eq!(keys(value), ["value", "unit"], "{name}");
        assert_eq!(value.get("unit").unwrap().as_str(), Some(m.unit.as_str()));
        assert!(
            value.get("value").unwrap().as_f64().is_some(),
            "{name} is not a finite number"
        );
    }
    if trace == "1" {
        let trace_file = out_file.with_file_name(format!("trace-{workload}.jsonl"));
        let text = std::fs::read_to_string(trace_file).unwrap();
        assert!(text.lines().count() > 4);
        for line in text.lines().take(50) {
            let span = json::parse(line).unwrap();
            assert_eq!(
                keys(&span),
                [
                    "trace",
                    "span",
                    "parent",
                    "layer",
                    "name",
                    "wall_start_ns",
                    "wall_end_ns",
                    "sim_ns",
                    "class"
                ]
            );
        }
    }
}

fn smoke_both(workload: &str) {
    let spec = spec::load();
    assert!(spec.workloads.iter().any(|w| w == workload));
    smoke(workload, "0", &spec.end_to_end);
    smoke(workload, "1", &spec.per_layer);
}

#[test]
fn four_workloads_are_listed() {
    assert_eq!(
        spec::load().workloads,
        [
            "steady_hybrid",
            "hot_resident",
            "uncached_hdd",
            "ingest_mix"
        ]
    );
}

#[test]
fn steady_hybrid_prints_exactly_the_listed_metrics() {
    smoke_both("steady_hybrid");
}

#[test]
fn hot_resident_prints_exactly_the_listed_metrics() {
    smoke_both("hot_resident");
}

#[test]
fn uncached_hdd_prints_exactly_the_listed_metrics() {
    smoke_both("uncached_hdd");
}

#[test]
fn ingest_mix_prints_exactly_the_listed_metrics() {
    smoke_both("ingest_mix");
}
