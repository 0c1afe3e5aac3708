//! The admission tier's equivalence and efficiency contracts.
//!
//! **Inertness** (the equivalence half): an engine whose cache config
//! carries the full sketch parameter block pinned to
//! `AdmissionPolicy::Static` must be indistinguishable — the entire
//! [`RunReport`], the store counters, every simulated figure — from one
//! built with the bare static default. The sketch tier being *present*
//! may never move a paper number; only flipping the policy to `Sketch`
//! may.
//!
//! **Efficiency** (the perf half, small-scale witnesses of the claim
//! `results/scale-0.1/ext_admission.txt` records): on scan-heavy and
//! topic-churn streams the sketch gate must spend fewer SSD bytes than the
//! static paper gate without giving up hit ratio.

use engine::{EngineConfig, RunReport, SearchEngine};
use hybridcache::{AdmissionConfig, AdmissionPolicy, HybridConfig, PolicyKind};
use workload::{Query, ScanHeavyLog, TopicChurnLog};

const DOCS: u64 = 40_000;
const QUERIES: usize = 600;

/// The efficiency witnesses need the sketch's cold-start (every key
/// must earn `min_freq` before the SSD admits it) to amortize; they run
/// longer streams and are release-only — under debug audits they take
/// minutes, and `ci.sh` runs this suite explicitly in release.
const EFF_QUERIES: usize = 2_000;

fn cfg_with(policy: PolicyKind, admission: AdmissionConfig) -> EngineConfig {
    let mut cache = HybridConfig::paper(1 << 20, 8 << 20, policy);
    cache.admission = admission;
    EngineConfig::cached(DOCS, cache, 9)
}

fn run_with(policy: PolicyKind, admission: AdmissionConfig, seed_static: bool) -> RunReport {
    let mut e = SearchEngine::new(cfg_with(policy, admission));
    if seed_static {
        e.seed_static_from_log(QUERIES);
    }
    e.run(QUERIES)
}

/// Sketch parameters sized for the small test corpus: short reset
/// window and epoch so the controller actually cycles within the test
/// stream.
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
fn static_arm_is_bit_identical_with_sketch_params_present() {
    let mut pinned = small_sketch();
    pinned.policy = AdmissionPolicy::Static;
    for policy in [
        PolicyKind::Lru,
        PolicyKind::Cblru,
        PolicyKind::Cbslru {
            static_fraction: 0.3,
        },
    ] {
        let seeded = matches!(policy, PolicyKind::Cbslru { .. });
        let bare = run_with(policy, AdmissionConfig::static_default(), seeded);
        let inert = run_with(policy, pinned, seeded);
        assert_eq!(bare, inert, "sketch params moved a figure under {policy:?}");
    }
}

#[test]
fn static_arm_is_bit_identical_in_lockstep() {
    // Per-query lockstep: responses, cache stats, and store stats agree
    // after *every* query, not just at the end — so a transient
    // divergence cannot cancel out.
    let mut a = SearchEngine::new(cfg_with(
        PolicyKind::Cblru,
        AdmissionConfig::static_default(),
    ));
    let mut pinned = small_sketch();
    pinned.policy = AdmissionPolicy::Static;
    let mut b = SearchEngine::new(cfg_with(PolicyKind::Cblru, pinned));
    let stream: Vec<Query> = a.log().stream(QUERIES);
    for (i, q) in stream.iter().enumerate() {
        let ta = a.execute(q);
        let tb = b.execute(q);
        assert_eq!(ta, tb, "response diverged at query {i}");
        let (ma, mb) = (a.cache().unwrap(), b.cache().unwrap());
        assert_eq!(ma.stats(), mb.stats(), "cache stats diverged at query {i}");
        assert_eq!(
            ma.store_stats(),
            mb.store_stats(),
            "store stats diverged at query {i}"
        );
    }
    assert!(a.validation_report().is_clean());
    assert!(b.validation_report().is_clean());
}

#[test]
fn policy_toggle_round_trips_and_sketch_diverges() {
    // Sanity that the configured gate is live: Sketch must actually
    // change SSD admission behavior somewhere in the run.
    let sketch = run_with(PolicyKind::Cblru, small_sketch(), false);
    let stat = run_with(PolicyKind::Cblru, AdmissionConfig::static_default(), false);
    let (cs, cst) = (sketch.cache.unwrap(), stat.cache.unwrap());
    assert_ne!(
        cs.ssd_bytes_written, cst.ssd_bytes_written,
        "Sketch policy never disagreed with the static gate"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: debug audits make the long stream crawl"
)]
fn sketch_beats_static_on_scan_heavy_stream() {
    let run = |admission: AdmissionConfig| {
        let mut e = SearchEngine::new(cfg_with(PolicyKind::Cblru, admission));
        let stream: Vec<Query> = ScanHeavyLog::new(e.log().clone(), 4, 2)
            .stream_iter(EFF_QUERIES)
            .collect();
        let r = e.run_queries(&stream);
        assert!(e.validation_report().is_clean());
        r
    };
    let stat = run(AdmissionConfig::static_default());
    let sketch = run(small_sketch());
    let (bs, bst) = (
        sketch.cache.unwrap().ssd_bytes_written,
        stat.cache.unwrap().ssd_bytes_written,
    );
    assert!(
        bs < bst,
        "sketch must write less on scans ({bs} vs {bst} bytes)"
    );
    assert!(
        sketch.hit_ratio() >= stat.hit_ratio(),
        "sketch gave up hit ratio ({} vs {})",
        sketch.hit_ratio(),
        stat.hit_ratio()
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: debug audits make the long stream crawl"
)]
fn sketch_beats_static_on_topic_churn_stream() {
    let run = |admission: AdmissionConfig| {
        let mut e = SearchEngine::new(cfg_with(PolicyKind::Cblru, admission));
        let stream: Vec<Query> = TopicChurnLog::new(e.log().clone(), EFF_QUERIES as u64 / 8)
            .stream_iter(EFF_QUERIES)
            .collect();
        let r = e.run_queries(&stream);
        assert!(e.validation_report().is_clean());
        r
    };
    let stat = run(AdmissionConfig::static_default());
    let sketch = run(small_sketch());
    let (bs, bst) = (
        sketch.cache.unwrap().ssd_bytes_written,
        stat.cache.unwrap().ssd_bytes_written,
    );
    assert!(
        bs < bst,
        "sketch must write less under churn ({bs} vs {bst} bytes)"
    );
    assert!(
        sketch.hit_ratio() >= stat.hit_ratio(),
        "sketch gave up hit ratio ({} vs {})",
        sketch.hit_ratio(),
        stat.hit_ratio()
    );
}
