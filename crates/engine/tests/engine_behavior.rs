//! End-to-end behavioural tests of the simulated search engine: the
//! qualitative claims of the paper must emerge from the model.

use engine::{EngineConfig, IndexPlacement, SearchCluster, SearchEngine};
use hybridcache::{HybridConfig, PolicyKind};
use proptest::prelude::*;

const DOCS: u64 = 50_000;
const SEED: u64 = 20120901;

fn small_cache(policy: PolicyKind) -> HybridConfig {
    // 1 MB memory / 8 MB SSD with the paper's 20/80 split.
    HybridConfig::paper(1 << 20, 8 << 20, policy)
}

#[test]
fn no_cache_run_reads_the_index() {
    let mut e = SearchEngine::new(EngineConfig::no_cache(DOCS, IndexPlacement::Hdd, SEED));
    let report = e.run(300);
    assert_eq!(report.queries, 300);
    assert!(
        report.index_ops > 0,
        "every query must touch the index device"
    );
    assert!(report.mean_response > simclock::SimDuration::from_micros(100));
    assert!(report.throughput_qps > 0.0);
    assert!(report.hit_ratio() == 0.0);
}

#[test]
fn runs_are_deterministic() {
    let run = || {
        let mut e = SearchEngine::new(EngineConfig::cached(
            DOCS,
            small_cache(PolicyKind::Cblru),
            SEED,
        ));
        let r = e.run(400);
        (
            r.mean_response,
            r.postings_scanned,
            r.hit_ratio().to_bits(),
            r.flash.map(|f| f.block_erases),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn caching_raises_hit_ratio_and_cuts_response_time() {
    let mut plain = SearchEngine::new(EngineConfig::no_cache(DOCS, IndexPlacement::Hdd, SEED));
    let uncached = plain.run(800);
    let mut cached = SearchEngine::new(EngineConfig::cached(
        DOCS,
        small_cache(PolicyKind::Cblru),
        SEED,
    ));
    let with_cache = cached.run(800);
    assert!(
        with_cache.hit_ratio() > 0.2,
        "hit ratio {}",
        with_cache.hit_ratio()
    );
    assert!(
        with_cache.mean_response < uncached.mean_response,
        "cached {} vs uncached {}",
        with_cache.mean_response,
        uncached.mean_response
    );
    assert!(with_cache.throughput_qps > uncached.throughput_qps);
}

#[test]
fn repeated_query_hits_memory() {
    let mut e = SearchEngine::new(EngineConfig::cached(
        DOCS,
        small_cache(PolicyKind::Cblru),
        SEED,
    ));
    let q = workload::Query {
        id: 3,
        terms: e.log().terms_of(3),
    };
    e.execute(&q);
    e.execute(&q);
    let stats = *e.cache().expect("cached config").stats();
    assert_eq!(stats.results.mem_hits, 1);
    assert_eq!(stats.results.misses, 1);
}

#[test]
fn computed_mem_hit_and_ssd_hit_fold_the_same_digest_term() {
    // The cache keeps a result's digest term, not its documents: serving
    // the query from DRAM (S1) or from the SSD (S3) must move the result
    // digest exactly as computing it does, and as a cache-less engine does.
    let query = |e: &SearchEngine, id| workload::Query {
        id,
        terms: e.log().terms_of(id),
    };
    let delta = |e: &mut SearchEngine, q: &workload::Query| {
        let before = e.result_digest();
        e.execute(q);
        e.result_digest().wrapping_sub(before)
    };
    let mut plain = SearchEngine::new(EngineConfig::no_cache(DOCS, IndexPlacement::Hdd, SEED));
    let q = query(&plain, 3);
    // The term itself, from the documents: an FNV chain over (doc, score
    // bits) in rank order, forced odd.
    let docs = searchidx::TopKProcessor::new(EngineConfig::default_topk(DOCS))
        .process(plain.index(), &q.terms)
        .result
        .docs;
    assert!(!docs.is_empty());
    let term = docs.iter().fold(0x9e37_79b9_7f4a_7c15_u64, |h, d| {
        let h = (h ^ d.doc as u64).wrapping_mul(0x100_0000_01b3);
        (h ^ d.score.to_bits() as u64).wrapping_mul(0x100_0000_01b3)
    }) | 1;
    let expected = delta(&mut plain, &q);
    assert_eq!(expected, term, "cache-less engine");

    let mut e = SearchEngine::new(EngineConfig::cached(
        DOCS,
        small_cache(PolicyKind::Lru),
        SEED,
    ));
    let results = |e: &SearchEngine| e.cache().expect("cached config").stats().results;
    assert_eq!(delta(&mut e, &q), expected, "computed");
    assert_eq!(results(&e).misses, 1);
    assert_eq!(delta(&mut e, &q), expected, "DRAM hit");
    assert_eq!(results(&e).mem_hits, 1);
    // ~10 results fit the 200 KB DRAM result region: 40 others demote it.
    for id in 100..140 {
        let other = query(&e, id);
        e.execute(&other);
    }
    let ssd_hits = results(&e).ssd_hits;
    assert_eq!(delta(&mut e, &q), expected, "SSD hit");
    assert_eq!(results(&e).ssd_hits, ssd_hits + 1);
}

#[test]
fn two_level_cache_beats_one_level_at_same_memory() {
    let one_level = {
        let mut cfg = small_cache(PolicyKind::Cblru);
        cfg.ssd_result_bytes = 0;
        cfg.ssd_list_bytes = 0;
        let mut e = SearchEngine::new(EngineConfig::cached(DOCS, cfg, SEED));
        e.run(1500)
    };
    let two_level = {
        let mut e = SearchEngine::new(EngineConfig::cached(
            DOCS,
            small_cache(PolicyKind::Cblru),
            SEED,
        ));
        e.run(1500)
    };
    assert!(
        two_level.hit_ratio() > one_level.hit_ratio(),
        "2LC {} vs 1LC {}",
        two_level.hit_ratio(),
        one_level.hit_ratio()
    );
    assert!(
        two_level.mean_response < one_level.mean_response,
        "2LC {} vs 1LC {}",
        two_level.mean_response,
        one_level.mean_response
    );
}

#[test]
fn cost_based_policies_reduce_erasures() {
    let erases = |policy| {
        let mut e = SearchEngine::new(EngineConfig::cached(DOCS, small_cache(policy), SEED));
        let r = e.run(2500);
        r.flash.expect("cache SSD present").block_erases
    };
    let lru = erases(PolicyKind::Lru);
    let cblru = erases(PolicyKind::Cblru);
    assert!(
        cblru < lru,
        "CBLRU must erase less than LRU ({cblru} vs {lru})"
    );
}

#[test]
fn cost_based_policies_raise_hit_ratio() {
    let hit = |policy| {
        let mut e = SearchEngine::new(EngineConfig::cached(DOCS, small_cache(policy), SEED));
        e.run(2500).hit_ratio()
    };
    let lru = hit(PolicyKind::Lru);
    let cblru = hit(PolicyKind::Cblru);
    assert!(cblru > lru, "CBLRU hit ratio {cblru} must beat LRU {lru}");
}

#[test]
fn cbslru_seeding_works() {
    let mut e = SearchEngine::new(EngineConfig::cached(
        DOCS,
        small_cache(PolicyKind::Cbslru {
            static_fraction: 0.3,
        }),
        SEED,
    ));
    e.seed_static_from_log(2_000);
    let r = e.run(1500);
    assert!(r.hit_ratio() > 0.2);
    // Static seeding must have produced SSD hits (queries served from the
    // static partition before ever being computed).
    let stats = r.cache.expect("cached");
    assert!(
        stats.results.ssd_hits + stats.lists.ssd_hits > 0,
        "static partition must serve hits"
    );
}

#[test]
fn ssd_index_beats_hdd_index_without_cache() {
    let mean = |placement| {
        let mut e = SearchEngine::new(EngineConfig::no_cache(DOCS, placement, SEED));
        e.run(300).mean_response
    };
    let hdd = mean(IndexPlacement::Hdd);
    let ssd = mean(IndexPlacement::Ssd);
    assert!(ssd < hdd, "SSD index {ssd} must beat HDD index {hdd}");
}

#[test]
fn trace_capture_records_read_dominant_io() {
    let mut cfg = EngineConfig::no_cache(DOCS, IndexPlacement::Hdd, SEED);
    cfg.capture_trace = true;
    let mut e = SearchEngine::new(cfg);
    e.run(200);
    let trace = e.take_trace();
    assert!(!trace.is_empty());
    let profile = tracetools::TraceProfile::from_events(&trace);
    assert!(
        profile.read_fraction > 0.99,
        "search I/O is read-dominant ({})",
        profile.read_fraction
    );
    // Taking the trace drains it but capture continues.
    e.run(50);
    assert!(!e.take_trace().is_empty());
}

#[test]
fn situations_cover_the_table() {
    use engine::Situation;
    let mut e = SearchEngine::new(EngineConfig::cached(
        DOCS,
        small_cache(PolicyKind::Cblru),
        SEED,
    ));
    let r = e.run(2000);
    let t = &r.situations;
    assert!(t.count(Situation::S1ResultMem) > 0, "memory result hits");
    assert!(t.count(Situation::S8ResultHdd) > 0, "computed results");
    assert!(t.count(Situation::S2ListMem) > 0, "memory list hits");
    assert!(t.total() > 2000);
    let p_sum: f64 = Situation::ALL.iter().map(|&s| t.probability(s)).sum();
    assert!((p_sum - 1.0).abs() < 1e-9, "probabilities sum to 1");
}

#[test]
fn ttl_degrades_hit_ratio_gracefully() {
    let run = |ttl: Option<simclock::SimDuration>| {
        let mut cfg = small_cache(PolicyKind::Cblru);
        cfg.ttl = ttl;
        let mut e = SearchEngine::new(EngineConfig::cached(DOCS, cfg, SEED));
        e.run(2_000).hit_ratio()
    };
    let static_hit = run(None);
    let generous = run(Some(simclock::SimDuration::from_secs(3_600)));
    let harsh = run(Some(simclock::SimDuration::from_millis(1)));
    assert!(
        (generous - static_hit).abs() < 0.05,
        "generous TTL ≈ static ({generous} vs {static_hit})"
    );
    assert!(
        harsh < static_hit * 0.7,
        "1 ms TTL must hurt ({harsh} vs {static_hit})"
    );
}

#[test]
fn measurement_reset_preserves_cache_warmth() {
    let mut e = SearchEngine::new(EngineConfig::cached(
        DOCS,
        small_cache(PolicyKind::Cblru),
        SEED,
    ));
    e.run(1000);
    e.reset_measurements();
    let steady = e.run(1000);
    assert_eq!(steady.queries, 1000);
    // A warm cache hits immediately in the new window.
    assert!(steady.hit_ratio() > 0.2, "hit {}", steady.hit_ratio());
}

#[test]
fn reference_mode_is_the_processors_backend() {
    // One switch: reference mode routes top-K through the `Reference`
    // backend, which pins and counts nothing and answers exactly as the
    // blocked twin does; switching it off restores the configured backend.
    let engine = || {
        SearchEngine::new(EngineConfig::cached(
            DOCS,
            small_cache(PolicyKind::Cblru),
            SEED,
        ))
    };
    let (mut reference, mut blocked) = (engine(), engine());
    reference.set_reference_mode(true);
    let queries = reference.log().stream(400);
    let (first, rest) = queries.split_at(300);
    for (i, q) in first.iter().enumerate() {
        let (tr, tb) = (reference.execute(q), blocked.execute(q));
        assert_eq!(tr, tb, "response diverged at query {i}");
    }
    assert_eq!(reference.result_digest(), blocked.result_digest());
    assert_eq!(reference.postings_skip_stats(), Default::default());
    assert_eq!(reference.postings_store_stats(), Default::default());
    assert!(blocked.postings_store_stats().terms > 0);

    reference.set_reference_mode(false);
    for (i, q) in rest.iter().enumerate() {
        let (tr, tb) = (reference.execute(q), blocked.execute(q));
        assert_eq!(
            tr,
            tb,
            "response diverged at query {} after the switch",
            300 + i
        );
    }
    assert_eq!(reference.result_digest(), blocked.result_digest());
    assert!(
        reference.postings_store_stats().terms > 0,
        "pins lists again"
    );
    assert!(
        reference.postings_skip_stats().skip_probes > 0,
        "counts again"
    );
}

#[test]
fn captured_trace_carries_the_engine_clock() {
    // Every index-device event is stamped on the engine's clock, inside its
    // query's window: a trace's inter-arrival times and depth profile mean it.
    let cached = EngineConfig::cached(40_000, small_cache(PolicyKind::Cblru), 7);
    for mut cfg in [
        EngineConfig::no_cache(40_000, IndexPlacement::Hdd, 7),
        cached,
    ] {
        cfg.capture_trace = true;
        let per_query = cfg.cost.per_query;
        let mut e = SearchEngine::new(cfg);
        let (mut last, mut events, mut stamped) = (e.now(), 0, 0);
        for q in e.log().clone().stream(50) {
            let start = e.now();
            e.execute(&q);
            for ev in e.take_trace() {
                let in_window = start + per_query <= ev.at && ev.finish <= e.now();
                let ordered = last <= ev.at && ev.at <= ev.start && ev.start <= ev.finish;
                stamped += (in_window && ordered) as usize;
                events += 1;
                last = ev.at;
            }
        }
        assert!(events > 0, "the run never touched the index device");
        assert_eq!(stamped, events, "events stamped inside their query");
    }
}

#[test]
fn repeated_cluster_runs_are_deterministic() {
    let run = || {
        let cfg = EngineConfig::cached(40_000, small_cache(PolicyKind::Cblru), 5);
        SearchCluster::new(cfg, 2).run(300)
    };
    assert_eq!(run(), run(), "same configuration, same stream, same report");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Scatter-gather dominance: the cluster's mean response (max over
    /// shards + merge cost) can never undercut any single shard's mean
    /// response, whatever the shard count or seed.
    #[test]
    fn cluster_mean_response_dominates_every_shard(seed in 0u64..1_000, shards in 1usize..=4) {
        let cfg = EngineConfig::cached(40_000, small_cache(PolicyKind::Cblru), seed);
        let r = SearchCluster::new(cfg, shards).run(120);
        for (i, shard) in r.shards.iter().enumerate() {
            prop_assert!(
                r.mean_response >= shard.mean_response,
                "cluster mean {} undercuts shard {i} mean {}",
                r.mean_response,
                shard.mean_response
            );
        }
    }
}
