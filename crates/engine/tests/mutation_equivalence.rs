//! The mutability toggle against its oracle.
//!
//! Three layers of evidence:
//! * **Zero-ingest bit-identity** — a `Live` engine that never receives
//!   a mutation must be indistinguishable from a `Frozen` one on every
//!   simulated figure: the full [`engine::RunReport`], the cache stats,
//!   both devices' `IoStats`, the result digest, and every individual
//!   response time, across seeds, cache configs and queue depths. Both
//!   read through the same pristine `LiveIndex`; what differs is the
//!   segment arena and policy a `Live` engine carries — these tests pin
//!   that neither touches device geometry or any figure.
//! * **Segmentation invisibility** — the same mutation history applied
//!   under an aggressive seal/compact policy and under a
//!   never-seal policy must yield the same match sets for the same
//!   queries (segments and merges change *where* postings live, never
//!   *what* matches).
//! * **Coherence-mode correctness** — `Cooperative` and `InvalidateAll`
//!   compaction handling must agree on every result (equal digests,
//!   equal postings scanned); they may only differ on cache hit ratios
//!   and I/O, which is the `ext_ingest` sweep's business
//!   (`results/scale-0.1/ext_ingest.txt`), not correctness.

use engine::{
    CompactionMode, EngineConfig, IndexMutability, IndexPlacement, LiveConfig, SearchEngine,
};
use hybridcache::{HybridConfig, PolicyKind};
use proptest::prelude::*;
use searchidx::{GrowthPolicy, IndexReader, SegmentPolicy};
use storagecore::{BlockDevice, SchedulerPolicy};
use workload::{IngestSpec, IngestStream, MutationOp, Query};

const DOCS: u64 = 40_000;
const QUERIES: usize = 250;

fn cached_cfg(seed: u64) -> EngineConfig {
    EngineConfig::cached(
        DOCS,
        HybridConfig::paper(1 << 20, 8 << 20, PolicyKind::Cblru),
        seed,
    )
}

fn live(mut cfg: EngineConfig) -> EngineConfig {
    cfg.mutability = IndexMutability::Live(LiveConfig::default());
    cfg
}

fn live_with(
    mut cfg: EngineConfig,
    segments: SegmentPolicy,
    compaction: CompactionMode,
) -> EngineConfig {
    cfg.mutability = IndexMutability::Live(LiveConfig {
        segments,
        compaction,
    });
    cfg
}

/// An eager lifecycle so a few hundred mutations exercise many seals
/// and several compactions.
fn eager() -> SegmentPolicy {
    SegmentPolicy {
        seal_threshold_docs: 16,
        compact_fanin: 3,
        growth: GrowthPolicy::Contiguous,
    }
}

/// Apply a generated mutation stream, resolving `DeleteDoc` picks
/// against the currently-alive ingested docs. Returns the ops applied.
fn apply_ops(e: &mut SearchEngine, ops: &[workload::TimedMutation]) -> usize {
    let mut alive: Vec<u32> = Vec::new();
    let mut applied = 0;
    for m in ops {
        match &m.op {
            MutationOp::AddDoc { terms } => {
                let doc = e.ingest_document(terms).expect("live arm ingests");
                alive.push(doc);
                applied += 1;
            }
            MutationOp::DeleteDoc { pick } => {
                if alive.is_empty() {
                    continue;
                }
                let idx = (*pick % alive.len() as u64) as usize;
                let doc = alive.swap_remove(idx);
                assert!(e.delete_document(doc), "picked doc was alive");
                applied += 1;
            }
        }
    }
    applied
}

/// In-vocabulary ops for the test corpus (the synthetic vocabulary is
/// `(docs/10).clamp(10_000, 2_000_000)` terms; stay well inside it).
fn ops(seed: u64, n: usize) -> Vec<workload::TimedMutation> {
    IngestStream::new(IngestSpec::small(4_000, seed)).generate(n)
}

fn assert_engines_identical(frozen: &SearchEngine, live: &SearchEngine) {
    assert_eq!(
        frozen.index_io_stats(),
        live.index_io_stats(),
        "index-device I/O diverged"
    );
    assert_eq!(frozen.result_digest(), live.result_digest());
    match (frozen.cache(), live.cache()) {
        (Some(cf), Some(cl)) => {
            assert_eq!(cf.stats(), cl.stats(), "cache stats diverged");
            assert_eq!(
                cf.device().stats(),
                cl.device().stats(),
                "cache-SSD I/O diverged"
            );
        }
        (None, None) => {}
        _ => panic!("one arm lost its cache"),
    }
}

#[test]
fn zero_ingest_live_is_bit_identical_to_frozen() {
    for (name, cfg) in [
        ("cached", cached_cfg(3)),
        (
            "uncached",
            EngineConfig::no_cache(DOCS, IndexPlacement::Hdd, 3),
        ),
    ] {
        let mut frozen = SearchEngine::new(cfg.clone());
        let mut arm = SearchEngine::new(live(cfg));
        assert!(arm.is_live() && !frozen.is_live());
        let rf = frozen.run(QUERIES);
        let rl = arm.run(QUERIES);
        assert_eq!(rf, rl, "{name}: RunReport diverged");
        assert_engines_identical(&frozen, &arm);
        assert!(
            arm.live_index().unwrap().is_pristine(),
            "{name}: queries must not mutate"
        );
        assert_eq!(arm.mutation_io_time(), simclock::SimDuration::ZERO);
    }
}

#[test]
fn zero_ingest_lockstep_responses_match_on_both_io_paths() {
    for (depth, policy) in [(1, SchedulerPolicy::Fifo), (4, SchedulerPolicy::Elevator)] {
        let mut frozen = SearchEngine::new(cached_cfg(7));
        let mut arm = SearchEngine::new(live(cached_cfg(7)));
        for e in [&mut frozen, &mut arm] {
            e.set_queue_depth(depth);
            e.set_io_scheduler(policy);
        }
        let stream: Vec<Query> = frozen.log().clone().stream(120);
        for (i, q) in stream.iter().enumerate() {
            let tf = frozen.execute(q);
            let tl = arm.execute(q);
            assert_eq!(tf, tl, "response diverged at query {i} at depth {depth}");
        }
        assert_engines_identical(&frozen, &arm);
    }
}

#[test]
fn ingested_documents_are_visible_and_deletes_hide() {
    let mut e = SearchEngine::new(live(EngineConfig::no_cache(DOCS, IndexPlacement::Hdd, 11)));
    let before = e.live_index().unwrap().num_docs();
    let doc = e.ingest_document(&[(3, 2), (9, 1)]).expect("live ingests");
    let l = e.live_index().unwrap();
    assert_eq!(l.num_docs(), before + 1);
    assert!(l
        .postings(3)
        .postings()
        .iter()
        .any(|p| p.doc == doc && p.tf == 2));
    assert!(l.postings(9).postings().iter().any(|p| p.doc == doc));

    assert!(e.delete_document(doc), "was alive");
    assert!(!e.delete_document(doc), "idempotent");
    let l = e.live_index().unwrap();
    assert!(!l.doc_alive(doc));
    assert!(l.postings(3).postings().iter().all(|p| p.doc != doc));

    // A frozen engine refuses mutations, and a refusal leaves no trace:
    // no live handle, no ledger entry, no WAL charge on the device.
    let mut f = SearchEngine::new(EngineConfig::no_cache(DOCS, IndexPlacement::Hdd, 11));
    let ops_before = f.index_io_stats().total_ops();
    assert_eq!(f.ingest_document(&[(3, 1)]), None);
    assert!(!f.delete_document(0));
    assert!(f.live_index().is_none() && !f.is_live());
    assert_eq!(f.mutation_stats(), searchidx::MutationStats::default());
    assert_eq!(f.mutation_io_time(), simclock::SimDuration::ZERO);
    assert_eq!(f.index_io_stats().total_ops(), ops_before);
    // The segment validators run on frozen engines too.
    let audit = f.validation_report();
    assert!(audit.is_clean(), "{}", audit.summary());
}

#[test]
fn segmented_history_matches_unsegmented_history_on_match_sets() {
    // Arm A seals every 16 docs and compacts at fan-in 3; arm B never
    // seals (threshold beyond the stream). Same mutations, same queries,
    // same matches — segmentation must be invisible to correctness.
    let base = EngineConfig::no_cache(DOCS, IndexPlacement::Hdd, 19);
    let never = SegmentPolicy {
        seal_threshold_docs: u64::MAX,
        compact_fanin: usize::MAX,
        growth: GrowthPolicy::Contiguous,
    };
    let mut a = SearchEngine::new(live_with(
        base.clone(),
        eager(),
        CompactionMode::Cooperative,
    ));
    let mut b = SearchEngine::new(live_with(base, never, CompactionMode::Cooperative));
    let stream = ops(5, 300);
    assert_eq!(apply_ops(&mut a, &stream), apply_ops(&mut b, &stream));
    assert!(
        a.mutation_stats().compactions > 0,
        "eager arm never compacted — the test lost its point"
    );
    assert_eq!(b.mutation_stats().seals, 0, "lazy arm must never seal");

    let queries: Vec<Query> = a.log().clone().stream(QUERIES);
    let ra = a.run_queries(&queries);
    let rb = b.run_queries(&queries);
    assert_eq!(
        a.result_digest(),
        b.result_digest(),
        "match sets diverged between segmentation histories"
    );
    assert_eq!(ra.postings_scanned, rb.postings_scanned);
    for e in [&a, &b] {
        let audit = e.validation_report();
        assert!(audit.is_clean(), "{}", audit.summary());
    }
}

#[test]
fn cooperative_and_invalidate_all_agree_on_every_result() {
    let mut coop = SearchEngine::new(live_with(
        cached_cfg(23),
        eager(),
        CompactionMode::Cooperative,
    ));
    let mut naive = SearchEngine::new(live_with(
        cached_cfg(23),
        eager(),
        CompactionMode::InvalidateAll,
    ));
    let stream: Vec<Query> = coop.log().clone().stream(400);
    let muts = ops(31, 240);
    let mut next = muts.iter();
    let mut alive_c: Vec<u32> = Vec::new();
    let mut alive_n: Vec<u32> = Vec::new();
    for (i, q) in stream.iter().enumerate() {
        if i % 2 == 0 {
            if let Some(m) = next.next() {
                for (e, alive) in [(&mut coop, &mut alive_c), (&mut naive, &mut alive_n)] {
                    match &m.op {
                        MutationOp::AddDoc { terms } => {
                            alive.push(e.ingest_document(terms).unwrap());
                        }
                        MutationOp::DeleteDoc { pick } => {
                            if !alive.is_empty() {
                                let idx = (*pick % alive.len() as u64) as usize;
                                let doc = alive.swap_remove(idx);
                                e.delete_document(doc);
                            }
                        }
                    }
                }
            }
        }
        coop.execute(q);
        naive.execute(q);
    }
    assert_eq!(alive_c, alive_n, "mutation histories diverged");
    assert!(
        coop.mutation_stats().compactions > 0,
        "no compaction — the coherence modes were never exercised"
    );
    assert_eq!(
        coop.result_digest(),
        naive.result_digest(),
        "compaction coherence changed a result"
    );
    assert_eq!(
        coop.report().postings_scanned,
        naive.report().postings_scanned
    );
    for (arm, e) in [("cooperative", &coop), ("invalidate-all", &naive)] {
        let audit = e.validation_report();
        assert!(audit.is_clean(), "{arm}: {}", audit.summary());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Zero-ingest bit-identity across seeds, cache configs and queue
    /// depths 1 and 2.
    #[test]
    fn zero_ingest_equivalence_for_every_seed(seed in 0u64..1_000, cached: bool, depth in 1usize..=2) {
        let cfg = || if cached {
            cached_cfg(seed)
        } else {
            EngineConfig::no_cache(DOCS, IndexPlacement::Hdd, seed)
        };
        let mut frozen = SearchEngine::new(cfg());
        let mut arm = SearchEngine::new(live(cfg()));
        frozen.set_queue_depth(depth);
        arm.set_queue_depth(depth);
        let rf = frozen.run(120);
        let rl = arm.run(120);
        prop_assert_eq!(rf, rl);
        prop_assert_eq!(frozen.result_digest(), arm.result_digest());
        prop_assert_eq!(frozen.index_io_stats(), arm.index_io_stats());
    }
}
