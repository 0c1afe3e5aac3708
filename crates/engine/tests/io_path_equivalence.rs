//! The engine's deep I/O path. A queue deeper than 1 must actually fill
//! and leave every audited structure coherent; what deep queues then
//! produce is pinned by the deep rows of `golden_ledger` (as depth 1 is
//! by its other rows).

use engine::{EngineConfig, IndexPlacement, RunReport, SearchEngine};
use hybridcache::{HybridConfig, PolicyKind};

const DOCS: u64 = 40_000;
const QUERIES: usize = 300;

#[test]
fn deep_queue_measures_real_occupancy() {
    // Sanity for the depth-4 `uncached_hdd` row of
    // `results/scale-0.1/ext_queue_depth.txt`: at depth 4 the uncached-HDD
    // engine batches its index reads, so the device queue must actually
    // fill. The cached engine at depth 8 is the deepest configuration any
    // suite audits.
    invariant::force_enable();
    let cached = EngineConfig::cached(
        DOCS,
        HybridConfig::paper(256 << 10, 2 << 20, PolicyKind::Cblru),
        11,
    );
    let uncached = EngineConfig::no_cache(DOCS, IndexPlacement::Hdd, 23);
    for (cfg, depth) in [(uncached, 4), (cached, 8)] {
        let mut e = SearchEngine::new(cfg);
        e.set_queue_depth(depth);
        let r: RunReport = e.run(QUERIES);
        assert!(r.queries > 0);
        let audit = e.validation_report();
        assert!(audit.is_clean(), "depth {depth}: {}", audit.summary());
        let q = e.index_io_stats().queue();
        assert!(
            q.max_occupancy() > 1,
            "depth-{depth} run never filled the queue (max occupancy {})",
            q.max_occupancy()
        );
        assert!(q.mean_occupancy() >= 1.0);
    }
}
