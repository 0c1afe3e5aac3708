//! The two ends of the engine's one I/O path. At queue depth 1 there is
//! never more than one pending request, so the scheduler cannot matter:
//! every policy must produce the same full [`RunReport`]. At depth 4 (and
//! at depth 8 behind a cache) the queue must actually fill and every
//! audited structure must stay coherent; what deep queues then produce is
//! pinned by the deep rows of `golden_ledger` (as depth 1 is by its other
//! rows).

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
    // The cached engine at depth 8 on an 8-channel SSD under the
    // elevator is the deepest configuration any suite audits.
    invariant::force_enable();
    let mut cached = EngineConfig::cached(
        DOCS,
        HybridConfig::paper(256 << 10, 2 << 20, PolicyKind::Cblru),
        11,
    );
    cached.ssd_channels = 8;
    let uncached = EngineConfig::no_cache(DOCS, IndexPlacement::Hdd, 23);
    for (cfg, depth) in [(uncached, 4), (cached, 8)] {
        let mut e = engine_with(cfg, depth, SchedulerPolicy::Elevator);
        let r: RunReport = e.run(QUERIES);
        assert!(r.queries > 0);
        let audit = e.validation_report();
        assert!(audit.is_clean(), "depth {depth}: {}", audit.summary());
        let q = e.index_queue_stats();
        assert!(
            q.max_occupancy() > 1,
            "depth-{depth} run never filled the queue (max occupancy {})",
            q.max_occupancy()
        );
        assert!(q.mean_occupancy() >= 1.0);
    }
}
