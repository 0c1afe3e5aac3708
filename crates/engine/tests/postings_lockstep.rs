//! The postings backends in lockstep at production scale, and the
//! block-max gate points that are part of the figures' pedigree: over the
//! pinned workload two engines differing only in `PostingsBackend` must
//! agree per query on the response, the cache counters and the store
//! counters, and the blocked arm must probe and prune exactly the pinned
//! counts — any change to top-K or postings generation that moves a gate
//! point or a scanned count shows up here first.
//!
//! Release-only (400 k docs × 30 k queries: 11.5 s in release on two
//! cores, most of it the Reference engine's `HashMap` top-K; minutes in
//! debug); `ci.sh` runs it with `cargo test --release`.

use engine::{EngineConfig, PostingsBackend, SearchEngine};
use hybridcache::{HybridConfig, PolicyKind};

const DOCS: u64 = 400_000;
const QUERIES: usize = 30_000;
const SEED: u64 = 42;

fn engine(postings: PostingsBackend) -> SearchEngine {
    let policy = PolicyKind::Cbslru {
        static_fraction: 0.3,
    };
    let mut e = SearchEngine::new(EngineConfig {
        postings,
        ..EngineConfig::cached(DOCS, HybridConfig::paper(16 << 20, 160 << 20, policy), SEED)
    });
    e.seed_static_from_log(QUERIES);
    e
}

#[test]
#[cfg_attr(debug_assertions, ignore = "production-scale workload: release only")]
fn backends_agree_per_query_and_the_block_max_counts_hold() {
    let mut reference = engine(PostingsBackend::Reference);
    let mut blocked = engine(PostingsBackend::Blocked);
    let snapshot = |e: &SearchEngine| {
        let cache = e.cache().expect("cached config");
        (*cache.stats(), cache.store_stats())
    };
    assert_eq!(
        snapshot(&reference),
        snapshot(&blocked),
        "diverged during seeding"
    );
    for (i, q) in reference.log().stream(QUERIES).iter().enumerate() {
        let (tr, tb) = (reference.execute(q), blocked.execute(q));
        assert_eq!(tr, tb, "response diverged at query {i} (id {})", q.id);
        assert_eq!(
            snapshot(&reference),
            snapshot(&blocked),
            "cache counters diverged at query {i} (id {})",
            q.id
        );
    }
    let skips = blocked.postings_skip_stats();
    assert_eq!(skips.skip_probes, 411_608, "block-max bounds consulted");
    assert_eq!(skips.skipped, 7_505_840_124, "postings pruned unread");
}
