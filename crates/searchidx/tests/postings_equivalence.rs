//! Property-based equivalence of the two postings backends.
//!
//! The blocked representation is only allowed to change *how fast*
//! queries run, never *what they return*: random corpora and query mixes
//! must produce identical top-K results and identical per-term scan
//! counts (the simulated figures are built from them).

use proptest::prelude::*;
use searchidx::blocks::HOT_PREFIX;
use searchidx::{
    BlockPostings, CorpusSpec, IndexReader, LiveIndex, MemIndex, Posting, PostingsBackend,
    SegmentPolicy, SyntheticIndex, TermId, TopKConfig, TopKProcessor, BLOCK_SIZE,
};
use simclock::SimTime;

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
    /// its doc ids and tf runs re-materialise to `postings_range(0,
    /// built)`, and `built` is a whole number of blocks or all of
    /// `min(df, HOT_PREFIX)`. The corpora's lists fit one block; the
    /// synthetic lists straddle the pin (terms 0..=20 are longer than it,
    /// the rest shorter); the live index serves a merged view (base,
    /// sealed and write segments, tombstones) of the same corpora after
    /// adds, deletes and a seal.
    #[test]
    fn block_postings_roundtrip_any_schedule(
        docs in corpus(),
        kind in 0u8..3,
        term in 0u32..30,
        steps in prop::collection::vec(prop_oneof![1u64..80, 1u64..2_000], 1..6),
        added in prop::collection::vec(prop::collection::vec((0u32..30, 1u32..6), 1..6), 1..40),
    ) {
        invariant::force_enable();
        match kind {
            0 => check_ensure_schedule(&MemIndex::from_docs(docs), term, &steps)?,
            1 => check_ensure_schedule(&SyntheticIndex::new(CorpusSpec::tiny(3)), term, &steps)?,
            _ => {
                let mut live = LiveIndex::new(MemIndex::from_docs(docs), SegmentPolicy::default());
                for (i, doc) in added.iter().enumerate() {
                    let mut terms = doc.clone();
                    terms.sort_unstable();
                    terms.dedup_by_key(|&mut (t, _)| t);
                    let at = live.add_document(SimTime::ZERO, &terms).doc;
                    if i % 3 == 0 {
                        live.delete_document(SimTime::ZERO, at / 2);
                    }
                    if i == added.len() / 2 {
                        live.seal(SimTime::ZERO);
                    }
                }
                prop_assert!(!live.is_pristine());
                check_ensure_schedule(&live, term, &steps)?;
            }
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
        let pinned: Vec<Posting> = bp.postings().collect();
        prop_assert_eq!(pinned, idx.postings_range(term, 0, bp.built()));
        let (docs, runs) = bp.pinned();
        prop_assert_eq!(docs.len() as u64, bp.built());
        prop_assert_eq!(bp.bytes(), 4 * bp.built() + 8 * runs.len() as u64);
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
        let pinned = blocked.store_stats().built_postings;
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
    // Batches of 100 and 77 end inside blocks and — the mem list's tf
    // cycles with the doc id, so its canonical order is five long runs —
    // inside runs; the accumulator-scaled chunk (|acc| / 4) takes over
    // from there with whatever length it has.
    let ragged = |check_every| TopKConfig {
        check_every,
        ..gated
    };
    check(&mem, exact, true);
    check(&synthetic, exact, true);
    check(&mem, gated, true);
    check(&synthetic, gated, true);
    check(&mem, ragged(100), true);
    check(&synthetic, ragged(77), true);
    // The default config quits long before the pin ends.
    check(&synthetic, TopKConfig::default(), false);
}

/// `invalidate_term` / `invalidate_all_terms` must forget the one block a
/// scan past the pin leaves regenerated in the processor's scratch, or the
/// next index's list of the same term and length would be served from it.
#[test]
fn invalidation_forgets_the_decoded_block() {
    // One df-4200 list: its last block, 32, is the first past the
    // pinned HOT_PREFIX, so a full scan leaves it (regenerated, as doc
    // ids plus runs) in the one-block cache. The second index keeps
    // the df and swaps the hundred tail docs for others. Canonical
    // order is tf 3 (docs < 4050), tf 2 (docs 4050..4100 and the odd
    // tail docs), tf 1 (the even tail docs): block 32 is the end of
    // the tf-2 run and all of the tf-1 run, tail docs in both. K
    // covers the whole list so the tail reaches the result.
    let list_of = |tail_from: u32| -> Vec<Vec<TermId>> {
        (0..4300u32)
            .map(|d| {
                let tail = (tail_from..tail_from + 100).contains(&d);
                let tf = if d < 4050 {
                    3
                } else if tail && d % 2 == 0 {
                    1
                } else {
                    2
                };
                if d < 4100 || tail {
                    vec![0; tf]
                } else {
                    vec![1]
                }
            })
            .collect()
    };
    let before = MemIndex::from_docs(list_of(4100));
    let after = MemIndex::from_docs(list_of(4200));
    assert_eq!(before.doc_freq(0), 4200);
    assert_eq!(after.doc_freq(0), 4200);
    assert!(4200 > HOT_PREFIX && 4200 <= HOT_PREFIX + BLOCK_SIZE as u64);
    let proc = TopKProcessor::new(TopKConfig {
        k: 5000,
        epsilon: 0.0,
        check_every: 128,
        accumulator_limit: 400,
    });
    for _ in 0..3 {
        let out = proc.process(&before, &[0]);
        assert_eq!(out.result, proc.process_reference(&before, &[0]).result);
    }
    let tail = before.postings_range(0, HOT_PREFIX, 4200);
    assert_eq!(
        (tail[53].tf, tail[54].tf),
        (2, 1),
        "two runs in the cached block"
    );
    assert!(proc.invalidate_term(0));
    // Cold first visit, then the first blocked one re-reaches block 32.
    for visit in 0..3 {
        let out = proc.process(&after, &[0]);
        let want = proc.process_reference(&after, &[0]);
        assert_eq!(out.result, want.result, "visit {visit} after invalidation");
        assert_eq!(out.usage, want.usage);
    }
    // Same through the drop-everything invalidator.
    proc.invalidate_all_terms();
    for visit in 0..3 {
        let out = proc.process(&before, &[0]);
        let want = proc.process_reference(&before, &[0]);
        assert_eq!(
            out.result, want.result,
            "visit {visit} after invalidate_all"
        );
    }
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
