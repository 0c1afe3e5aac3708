//! The two ends of the engine's one I/O path. At queue depth 1 there is
//! never more than one pending request, so the scheduler cannot matter:
//! every policy must produce the same full [`RunReport`]. At depth 4 the
//! queue must actually fill; what deep queues then produce is pinned by
//! the deep rows of `golden_ledger` (as depth 1 is by its other rows).

use engine::{EngineConfig, IndexPlacement, RunReport, SearchEngine};
use hybridcache::{HybridConfig, PolicyKind};
use storagecore::SchedulerPolicy;

const DOCS: u64 = 40_000;
const QUERIES: usize = 300;

fn engine_with(cfg: EngineConfig, depth: usize, policy: SchedulerPolicy) -> SearchEngine {
    let mut e = SearchEngine::new(cfg);
    e.set_queue_depth(depth);
    e.set_io_scheduler(policy);
    e
}

#[test]
fn depth_one_is_reference_under_every_scheduler() {
    // With at most one pending request every policy picks the same
    // (only) candidate, so the scheduler knob cannot matter at depth 1.
    let cached = EngineConfig::cached(
        DOCS,
        HybridConfig::paper(1 << 20, 8 << 20, PolicyKind::Cblru),
        5,
    );
    for cfg in [cached, EngineConfig::no_cache(DOCS, IndexPlacement::Hdd, 5)] {
        let fifo = engine_with(cfg.clone(), 1, SchedulerPolicy::Fifo).run(QUERIES);
        let elevator = engine_with(cfg.clone(), 1, SchedulerPolicy::Elevator).run(QUERIES);
        assert_eq!(fifo, elevator, "depth-1 diverged under the elevator");
    }
}

#[test]
fn deep_queue_measures_real_occupancy() {
    // Sanity for the BENCH_4 arm: at depth 4 the uncached-HDD engine
    // batches its index reads, so the device queue must actually fill.
    invariant::force_enable();
    let cfg = EngineConfig::no_cache(DOCS, IndexPlacement::Hdd, 23);
    let mut e = engine_with(cfg, 4, SchedulerPolicy::Elevator);
    let r: RunReport = e.run(QUERIES);
    assert!(r.queries > 0);
    let audit = e.validation_report();
    assert!(audit.is_clean(), "{}", audit.summary());
    let q = e.index_queue_stats();
    assert!(
        q.max_occupancy() > 1,
        "depth-4 run never filled the queue (max occupancy {})",
        q.max_occupancy()
    );
    assert!(q.mean_occupancy() >= 1.0);
}
