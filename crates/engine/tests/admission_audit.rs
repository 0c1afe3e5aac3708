//! The admission tier's audit coverage, in its own process: these
//! tests flip the process-global audit switch ([`invariant::force_enable`]),
//! which must not leak per-mutation validation cost into the
//! equivalence suite's seeded lockstep runs.

use engine::{EngineConfig, SearchEngine};
use hybridcache::{AdmissionConfig, HybridConfig, PolicyKind};
use workload::{Query, TopicChurnLog};

const DOCS: u64 = 40_000;
const QUERIES: usize = 600;

fn cfg_with(policy: PolicyKind, admission: AdmissionConfig) -> EngineConfig {
    let mut cache = HybridConfig::paper(1 << 20, 8 << 20, policy);
    cache.admission = admission;
    EngineConfig::cached(DOCS, cache, 9)
}

/// Sketch parameters sized for the small test corpus (mirrors the
/// equivalence suite).
fn small_sketch() -> AdmissionConfig {
    let mut a = AdmissionConfig::sketch_default();
    a.sketch_width = 1 << 12;
    a.reset_window = 4_096;
    a.ghost_capacity = 512;
    a.epoch = 128;
    a.write_budget_blocks = 64;
    a
}

#[test]
fn sketch_run_audits_clean_and_reports_controller_activity() {
    invariant::force_enable();
    let mut e = SearchEngine::new(cfg_with(PolicyKind::Cblru, small_sketch()));
    let stream: Vec<Query> = TopicChurnLog::new(e.log().clone(), 150)
        .stream_iter(QUERIES)
        .collect();
    e.run_queries(&stream);
    assert!(e.validation_report().is_clean());
    let stats = e.cache().unwrap().admission().stats();
    assert!(stats.epochs > 0, "controller never completed an epoch");
    assert!(
        stats.list_filtered + stats.result_filtered > 0,
        "sketch gate never filtered anything on a churn stream"
    );
}
