//! `BENCHMARK.json` as data: the metric names, units, directions and
//! bounds, the workload names and the run length. The file is compiled
//! in, so a binary can never disagree with the spec it was built beside.

use crate::json::{self, Value};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the base value a metric may worsen by before it counts
    /// as a regression; per-layer metrics have none.
    pub bound: Option<f64>,
}

/// The parsed spec.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

const TEXT: &str = include_str!("../../BENCHMARK.json");

fn metrics(doc: &Value, key: &str) -> Vec<MetricSpec> {
    doc.get(key)
        .map(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("BENCHMARK.json: {key} entry lacks \"{k}\""))
            };
            MetricSpec {
                name: field("name").to_string(),
                unit: field("unit").to_string(),
                better: match field("better") {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    other => panic!("BENCHMARK.json: better = {other:?}"),
                },
                bound: m.get("bound").and_then(Value::as_f64),
            }
        })
        .collect()
}

/// Parse the compiled-in `BENCHMARK.json`.
pub fn load() -> Spec {
    let doc = json::parse(TEXT).expect("BENCHMARK.json parses");
    Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .expect("BENCHMARK.json: run_seconds"),
        workloads: doc
            .get("workloads")
            .map(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
            .collect(),
        end_to_end: metrics(&doc, "end_to_end"),
        per_layer: metrics(&doc, "per_layer"),
    }
}
