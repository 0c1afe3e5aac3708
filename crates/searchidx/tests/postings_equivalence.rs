//! Property-based equivalence of the two postings backends.
//!
//! The blocked representation is only allowed to change *how fast*
//! queries run, never *what they return*: random corpora and query mixes
//! must produce identical top-K results and identical per-term scan
//! counts (the simulated figures are built from them).

use proptest::prelude::*;
use searchidx::blocks::HOT_PREFIX;
use searchidx::{
    BlockPostings, CorpusSpec, IndexReader, MemIndex, PostingsBackend, SyntheticIndex, TermId,
    TopKConfig, TopKProcessor, BLOCK_SIZE,
};

/// Random small corpora: documents as term-id sequences over a compact
/// vocabulary (so lists overlap).
fn corpus() -> impl Strategy<Value = Vec<Vec<TermId>>> {
    prop::collection::vec(prop::collection::vec(0u32..30, 1..20), 1..120)
}

/// Random query mixes over the same vocabulary (some terms will be OOV).
fn queries() -> impl Strategy<Value = Vec<Vec<TermId>>> {
    prop::collection::vec(prop::collection::vec(0u32..34, 1..5), 1..16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Disjunctive top-K: results, scores, and per-term scanned/df counts
    /// are bit-identical across backends, for exact and pruned configs,
    /// with both processors accumulating dirty state across the whole
    /// query mix.
    #[test]
    fn topk_backends_bit_identical(
        docs in corpus(),
        qs in queries(),
        k in 1usize..8,
        eps_pct in 0u32..60,
        acc_limit in 8usize..64,
    ) {
        // Audit every block-store mutation during the runs (debug builds).
        invariant::force_enable();
        let idx = MemIndex::from_docs(docs);
        let config = TopKConfig {
            k,
            epsilon: eps_pct as f64 / 100.0,
            check_every: 16,
            accumulator_limit: acc_limit,
        };
        let mut reference = TopKProcessor::new(config);
        reference.set_backend(PostingsBackend::Reference);
        let mut blocked = TopKProcessor::new(config);
        blocked.set_backend(PostingsBackend::Blocked);
        for q in &qs {
            let a = reference.process(&idx, q);
            let b = blocked.process(&idx, q);
            prop_assert_eq!(&a.result, &b.result, "top-K for {:?}", q);
            prop_assert_eq!(&a.usage, &b.usage, "usage for {:?}", q);
            prop_assert_eq!(
                a.postings_scanned(), b.postings_scanned(),
                "scan totals for {:?}", q
            );
        }
        for (arm, p) in [("reference", &reference), ("blocked", &blocked)] {
            let report = p.validation_report();
            prop_assert!(report.is_clean(), "{} arm: {}", arm, report.summary());
        }
    }

    /// The pinned prefix is a faithful copy: after any `ensure` schedule
    /// it equals `postings_range(0, built)`, and `built` is a whole
    /// number of blocks or all of `min(df, HOT_PREFIX)`. The corpora's
    /// lists fit one block; the synthetic lists straddle the pin (terms
    /// 0..=20 are longer than it, the rest shorter).
    #[test]
    fn block_postings_roundtrip_any_schedule(
        docs in corpus(),
        synthetic in any::<bool>(),
        term in 0u32..30,
        steps in prop::collection::vec(prop_oneof![1u64..80, 1u64..2_000], 1..6),
    ) {
        invariant::force_enable();
        if synthetic {
            let idx = SyntheticIndex::new(CorpusSpec::tiny(3));
            check_ensure_schedule(&idx, term, &steps)?;
        } else {
            check_ensure_schedule(&MemIndex::from_docs(docs), term, &steps)?;
        }
    }
}

fn check_ensure_schedule<R: IndexReader>(
    idx: &R,
    term: TermId,
    steps: &[u64],
) -> Result<(), TestCaseError> {
    let df = idx.doc_freq(term);
    let full = df.min(HOT_PREFIX);
    let mut bp = BlockPostings::new(df);
    let mut upto = 0u64;
    for s in steps {
        upto += s;
        bp.ensure(idx, term, upto);
        prop_assert!(bp.built() >= upto.min(full));
        prop_assert!(bp.built() == full || bp.built() % BLOCK_SIZE as u64 == 0);
        prop_assert!(bp.built() <= full);
        prop_assert_eq!(bp.hot_prefix(), idx.postings_range(term, 0, bp.built()));
    }
    let mut report = invariant::Report::new();
    invariant::Validate::validate(&bp, &mut report);
    prop_assert!(report.is_clean(), "{}", report.summary());
    Ok(())
}

/// Scans that run off the end of the pinned prefix: in exact mode every
/// list is read to its end, so a list longer than `HOT_PREFIX` + 2 blocks
/// is served from the pin, then from regenerated blocks (a partial last
/// one among them), on every visit after the cold first one. A light
/// pruning config puts the block-max gate in front of those blocks too.
#[test]
fn blocked_scan_across_the_pinned_prefix_matches_reference() {
    let deep = HOT_PREFIX + 2 * BLOCK_SIZE as u64 + 37;
    // Term 0: `deep` docs with tf 1..=5. Term 1 is in every doc, so it is
    // the lower-idf, last-processed list and term 0 is never cut short by
    // the last-term rule.
    let mem = MemIndex::from_docs((0..deep as u32 + 40).map(|d| {
        let mut doc = vec![1];
        if (d as u64) < deep {
            doc.extend(vec![0; d as usize % 5 + 1]);
        }
        doc
    }));
    assert_eq!(mem.doc_freq(0), deep);
    let synthetic = SyntheticIndex::new(CorpusSpec::tiny(9));
    assert!(synthetic.doc_freq(0) > deep);

    fn check<R: IndexReader>(idx: &R, config: TopKConfig, reaches_past_the_pin: bool) {
        let blocked = TopKProcessor::new(config);
        assert_eq!(blocked.backend(), PostingsBackend::Blocked);
        for (visit, query) in [[0u32, 1], [1, 0], [0, 1]].iter().enumerate() {
            let got = blocked.process(idx, query);
            let want = blocked.process_reference(idx, query);
            assert_eq!(got.result, want.result, "visit {visit}");
            assert_eq!(got.usage, want.usage, "visit {visit}");
            let deepest = got.usage.iter().map(|u| u.scanned).max().unwrap();
            assert_eq!(
                deepest > HOT_PREFIX + 2 * BLOCK_SIZE as u64,
                reaches_past_the_pin,
                "visit {visit}: deepest scan {deepest}"
            );
        }
        // Nothing is kept past the pin, however deep the scans went.
        let cap = idx.doc_freq(0).min(HOT_PREFIX) + idx.doc_freq(1).min(HOT_PREFIX);
        let pinned = blocked.store_stats().hot_postings;
        assert!(pinned <= cap && (pinned == cap || config.epsilon > 0.0));
        let report = blocked.validation_report();
        assert!(report.is_clean(), "{}", report.summary());
    }
    let exact = TopKConfig {
        k: 10,
        epsilon: 0.0,
        check_every: 48,
        accumulator_limit: 400,
    };
    // ε small and the accumulator budget out of reach: the gate is live
    // from the K-th candidate on but (almost) never fires.
    let gated = TopKConfig {
        epsilon: 1e-9,
        accumulator_limit: usize::MAX,
        ..exact
    };
    check(&mem, exact, true);
    check(&synthetic, exact, true);
    check(&mem, gated, true);
    check(&synthetic, gated, true);
    // The default config quits long before the pin ends.
    check(&synthetic, TopKConfig::default(), false);
}

/// Determinism across store lifetimes: replaying the same query mix
/// against a fresh blocked processor reproduces the dirty-store run.
#[test]
fn blocked_store_state_does_not_leak_into_results() {
    let docs: Vec<Vec<TermId>> = (0..400u32)
        .map(|d| (0..(d % 13 + 2)).map(|i| (d * 11 + i * 29) % 40).collect())
        .collect();
    let idx = MemIndex::from_docs(docs);
    let queries: Vec<Vec<TermId>> = (0..80u32)
        .map(|q| (0..(q % 4 + 1)).map(|i| (q * 17 + i * 7) % 44).collect())
        .collect();
    let dirty = TopKProcessor::new(TopKConfig::default());
    let warm: Vec<_> = queries.iter().map(|q| dirty.process(&idx, q)).collect();
    let replay: Vec<_> = queries.iter().map(|q| dirty.process(&idx, q)).collect();
    let fresh = TopKProcessor::new(TopKConfig::default());
    let cold: Vec<_> = queries.iter().map(|q| fresh.process(&idx, q)).collect();
    for ((w, r), c) in warm.iter().zip(&replay).zip(&cold) {
        assert_eq!(w.result, r.result);
        assert_eq!(w.usage, r.usage);
        assert_eq!(w.result, c.result);
        assert_eq!(w.usage, c.usage);
    }
}
