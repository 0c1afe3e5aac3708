//! The segmented mutable index against its oracles.
//!
//! Five kinds of evidence:
//! * **Pristine delegation** — a live index that has never been mutated
//!   answers every reader method bit-identically to its base (the
//!   engine-level `mutation_equivalence` suite builds on this).
//! * **Rebuild equivalence** — after an arbitrary add/delete/seal/compact
//!   history, the merged view matches an index rebuilt from scratch over
//!   the surviving documents (same match sets, same tfs, same dfs).
//! * **Conservation** — a property test that interleaved mutations never
//!   lose a live document or resurrect a deleted one, and that the
//!   `segment-doc-range` / `tombstone-conservation` / `wal-monotonic`
//!   validators catch planted corruption of each kind.
//! * **Spliced-view equivalence** — the merged view, the base with the
//!   delta spliced in at tf-ranked slots, equals the whole-list merge it
//!   replaced (kept here as [`materialize`]) on every reader method,
//!   after every step of a random history, over an exact and a
//!   statistical base.
//! * **Work proportionality** — counted, not timed: a query after a
//!   mutation asks the base for the postings it scans, not for the list,
//!   and re-ranks the delta only when a mutation touched the term.

use std::cell::Cell;

use fxmap::FxHashMap;
use invariant::Validate;
use proptest::prelude::*;
use searchidx::{
    CorpusSpec, DocId, GrowthPolicy, IndexReader, LiveIndex, MemIndex, Posting, PostingList,
    SegmentId, SegmentPolicy, SyntheticIndex, TermId, TopKConfig, TopKProcessor, UsagePart,
    BASE_SEGMENT, WRITE_SEGMENT,
};
use simclock::SimTime;

fn base_docs() -> Vec<Vec<TermId>> {
    (0..300u32)
        .map(|d| (0..(d % 9 + 1)).map(|i| (d * 13 + i * 7) % 25).collect())
        .collect()
}

fn policy(seal: u64, fanin: usize) -> SegmentPolicy {
    SegmentPolicy {
        seal_threshold_docs: seal,
        compact_fanin: fanin,
        growth: GrowthPolicy::Contiguous,
    }
}

/// Token stream for a doc given `(term, tf)` pairs (what `MemIndex`
/// rebuilds from).
fn tokens(terms: &[(TermId, u32)]) -> Vec<TermId> {
    let mut out = Vec::new();
    for &(t, tf) in terms {
        for _ in 0..tf {
            out.push(t);
        }
    }
    out
}

#[test]
fn pristine_live_index_delegates_bit_identically() {
    let mem = MemIndex::from_docs(base_docs());
    let live = LiveIndex::new(MemIndex::from_docs(base_docs()), SegmentPolicy::default());
    assert!(live.is_pristine());
    assert_eq!(live.num_docs(), mem.num_docs());
    assert_eq!(live.num_terms(), mem.num_terms());
    for t in 0..30u32 {
        assert_eq!(live.doc_freq(t), mem.doc_freq(t));
        assert_eq!(live.postings(t), mem.postings(t), "term {t}");
        assert_eq!(live.postings_range(t, 2, 9), mem.postings_range(t, 2, 9));
        assert_eq!(live.list_bytes(t), mem.list_bytes(t));
        assert!(
            live.idf(t).to_bits() == mem.idf(t).to_bits(),
            "idf bits for {t}"
        );
        assert_eq!(live.split_usage(t, 4), None, "pristine split must delegate");
    }

    // Same over the synthetic (statistical) base the engine uses.
    let spec = CorpusSpec::tiny(7);
    let synth = SyntheticIndex::new(spec.clone());
    let live = LiveIndex::new(SyntheticIndex::new(spec), SegmentPolicy::default());
    for t in 0..synth.num_terms() as u32 {
        assert_eq!(live.doc_freq(t), synth.doc_freq(t));
        assert_eq!(
            live.postings_range(t, 0, 17),
            synth.postings_range(t, 0, 17)
        );
    }
}

#[test]
fn ingested_docs_become_visible_and_deletes_hide() {
    let mut live = LiveIndex::new(MemIndex::from_docs(base_docs()), policy(4, 3));
    let t0 = SimTime::ZERO;
    let added = live.add_document(t0, &[(2, 5), (7, 1)]);
    assert!(!live.is_pristine());
    assert!(live
        .postings(2)
        .postings()
        .iter()
        .any(|p| p.doc == added.doc && p.tf == 5));
    assert_eq!(live.doc_freq(7), live.base().doc_freq(7) + 1);

    // Delete it again: gone from every list.
    assert!(live.delete_document(t0, added.doc).deleted);
    assert!(!live.delete_document(t0, added.doc).deleted, "idempotent");
    for t in [2u32, 7] {
        assert!(live
            .postings(t)
            .postings()
            .iter()
            .all(|p| p.doc != added.doc));
    }

    // Drive seals + compactions past the dead doc: never resurrected.
    for i in 0..40u32 {
        live.add_document(t0, &[(i % 9, 2), (20, 1)]);
        if live.seal_due() {
            live.seal(t0);
        }
        if live.compaction_due() {
            live.compact(t0);
        }
    }
    assert!(live.stats().compactions > 0, "compaction exercised");
    for t in [2u32, 7] {
        assert!(live
            .postings(t)
            .postings()
            .iter()
            .all(|p| p.doc != added.doc));
    }
    assert!(live.validation_report().is_clean());
}

/// Deterministic mutation history used by the rebuild and split tests.
fn scripted_history(live: &mut LiveIndex<MemIndex>, model: &mut Vec<Vec<TermId>>) {
    let t0 = SimTime::ZERO;
    let mut salt = 0x5EEDu32;
    for step in 0..120u32 {
        salt = salt.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        if step % 7 == 3 && !model.is_empty() {
            // Delete a pseudo-random doc (maybe already dead).
            let doc = salt % live.num_docs() as u32;
            let out = live.delete_document(t0, doc);
            if out.deleted {
                model[doc as usize] = Vec::new();
            }
        } else {
            let n = salt % 4 + 1;
            let terms: Vec<(TermId, u32)> = (0..n)
                .map(|i| ((salt.wrapping_add(i * 11)) % 25, salt % 3 + 1))
                .collect::<std::collections::BTreeMap<_, _>>()
                .into_iter()
                .collect();
            let out = live.add_document(t0, &terms);
            assert_eq!(out.doc as usize, model.len());
            model.push(tokens(&terms));
        }
        if live.seal_due() {
            live.seal(t0);
        }
        if live.compaction_due() {
            live.compact(t0);
        }
    }
}

#[test]
fn ingest_then_query_matches_rebuild_from_scratch() {
    let mut live = LiveIndex::new(MemIndex::from_docs(base_docs()), policy(16, 3));
    let mut model = base_docs();
    scripted_history(&mut live, &mut model);
    assert!(live.validation_report().is_clean());
    assert!(live.stats().growth.reallocs > 0, "doubling is counted");

    let rebuilt = MemIndex::from_docs(model.clone());
    for t in 0..25u32 {
        // Match sets (docs and tfs) must agree exactly; order may
        // differ (merge priority vs. rebuild order), so compare
        // doc-sorted.
        let mut a: Vec<Posting> = live.postings(t).postings().to_vec();
        let mut b: Vec<Posting> = rebuilt.postings(t).postings().to_vec();
        a.sort_unstable_by_key(|p| p.doc);
        b.sort_unstable_by_key(|p| p.doc);
        assert_eq!(a, b, "term {t}");
        assert_eq!(live.doc_freq(t), rebuilt.doc_freq(t));
    }
    // Document-slot model: deletes never shrink the collection.
    assert_eq!(live.num_docs(), model.len() as u64);
}

#[test]
fn split_usage_accounts_every_scanned_posting() {
    let mut live = LiveIndex::new(MemIndex::from_docs(base_docs()), policy(8, 3));
    let mut model = base_docs();
    scripted_history(&mut live, &mut model);
    for t in 0..25u32 {
        let df = live.doc_freq(t);
        for scanned in [0, 1, df / 2, df, df + 5] {
            let parts = live.split_usage(t, scanned).expect("mutated index splits");
            let total: u64 = parts.iter().map(|p| p.scanned).sum();
            assert_eq!(total, scanned.min(df), "term {t} scanned {scanned}");
            // Zero-scanned layers are omitted (no I/O to charge), so the
            // part dfs partition the merged df only at a full scan.
            let df_total: u64 = parts.iter().map(|p| p.df).sum();
            if scanned >= df {
                assert_eq!(df_total, df, "part dfs must partition the merged df");
            } else {
                assert!(df_total <= df);
            }
            for p in &parts {
                assert!(p.scanned <= p.df);
                assert!(
                    p.segment == BASE_SEGMENT
                        || p.segment == WRITE_SEGMENT
                        || live.sealed_segment(p.segment).is_some(),
                    "part segment {} must be addressable",
                    p.segment
                );
            }
        }
    }
}

#[test]
fn wal_checkpoints_on_seal_but_keeps_lifetime_ledger() {
    let mut live = LiveIndex::new(MemIndex::from_docs(base_docs()), policy(8, 100));
    for i in 0..20u32 {
        live.add_document(SimTime::from_nanos(i as u64), &[(i % 5, 1)]);
        if live.seal_due() {
            live.seal(SimTime::from_nanos(i as u64));
        }
    }
    let wal = live.wal();
    assert!(
        wal.total_bytes() > wal.retained_bytes(),
        "seal checkpointed"
    );
    assert!(wal.validation_report().is_clean());
    assert_eq!(live.stats().wal_records, wal.next_lsn());
}

// --- planted corruption: each validator fires ------------------------

#[test]
fn wal_corruption_is_detected() {
    let mut live = LiveIndex::new(MemIndex::from_docs(base_docs()), SegmentPolicy::default());
    live.add_document(SimTime::ZERO, &[(1, 1)]);
    live.add_document(SimTime::ZERO, &[(2, 1)]);
    assert!(live.validation_report().is_clean());
    live.debug_break_wal();
    let report = live.validation_report();
    assert!(!report.is_clean());
    assert!(
        report.summary().contains("wal-monotonic"),
        "{}",
        report.summary()
    );
}

#[test]
fn segment_overlap_is_detected() {
    let mut live = LiveIndex::new(MemIndex::from_docs(base_docs()), policy(4, 100));
    for i in 0..8u32 {
        live.add_document(SimTime::ZERO, &[(i % 3, 1)]);
        if live.seal_due() {
            live.seal(SimTime::ZERO);
        }
    }
    assert!(live.validation_report().is_clean());
    live.debug_overlap_segments();
    let report = live.validation_report();
    assert!(!report.is_clean());
    assert!(
        report.summary().contains("segment-doc-range"),
        "{}",
        report.summary()
    );
}

#[test]
fn tombstone_leak_is_detected() {
    let mut live = LiveIndex::new(MemIndex::from_docs(base_docs()), SegmentPolicy::default());
    live.delete_document(SimTime::ZERO, 5);
    assert!(live.validation_report().is_clean());
    live.debug_leak_tombstone();
    let report = live.validation_report();
    assert!(!report.is_clean());
    assert!(
        report.summary().contains("tombstone-conservation"),
        "{}",
        report.summary()
    );
}

// --- property: no document is ever lost or resurrected ----------------

/// One scripted mutation for the property test.
#[derive(Debug, Clone)]
enum Op {
    Add(Vec<(TermId, u32)>),
    Delete(u32),
    Seal,
    Compact,
}

fn add_strategy() -> impl Strategy<Value = Op> {
    prop::collection::vec((0u32..20, 1u32..4), 1..5).prop_map(|pairs| {
        // Dedup on term (last tf wins) and sort, as add_document requires.
        let m: std::collections::BTreeMap<TermId, u32> = pairs.into_iter().collect();
        Op::Add(m.into_iter().collect())
    })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The shim's `prop_oneof!` is unweighted; repeat the add arm to bias
    // the mix toward growth.
    prop_oneof![
        add_strategy(),
        add_strategy(),
        add_strategy(),
        (0u32..400).prop_map(Op::Delete),
        (0u32..400).prop_map(Op::Delete),
        Just(Op::Seal),
        Just(Op::Compact),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn interleaved_mutations_never_lose_or_resurrect(
        ops in prop::collection::vec(op_strategy(), 1..80),
        seal_threshold in 2u64..12,
        fanin in 2usize..5,
    ) {
        let base: Vec<Vec<TermId>> = (0..40u32)
            .map(|d| vec![d % 20, (d * 3) % 20])
            .collect();
        let mut live = LiveIndex::new(
            MemIndex::from_docs(base.clone()),
            policy(seal_threshold, fanin),
        );
        // The model: every doc's surviving (term, tf) pairs.
        let mut alive: FxHashMap<u32, Vec<(TermId, u32)>> = FxHashMap::default();
        let mut dead: Vec<u32> = Vec::new();
        for (d, terms) in base.iter().enumerate() {
            let mut tf: FxHashMap<TermId, u32> = FxHashMap::default();
            for &t in terms {
                *tf.entry(t).or_default() += 1;
            }
            let mut pairs: Vec<(TermId, u32)> = tf.into_iter().collect();
            pairs.sort_unstable();
            alive.insert(d as u32, pairs);
        }
        let t0 = SimTime::ZERO;
        for op in ops {
            match op {
                Op::Add(terms) => {
                    let out = live.add_document(t0, &terms);
                    alive.insert(out.doc, terms);
                }
                Op::Delete(pick) => {
                    let doc = pick % live.num_docs() as u32;
                    let out = live.delete_document(t0, doc);
                    prop_assert_eq!(out.deleted, alive.contains_key(&doc));
                    if out.deleted {
                        alive.remove(&doc);
                        dead.push(doc);
                    }
                }
                Op::Seal => { live.seal(t0); }
                Op::Compact => { live.compact(t0); }
            }
            let report = live.validation_report();
            prop_assert!(report.is_clean(), "{}", report.summary());
        }
        // Every live doc appears in each of its terms' lists exactly once,
        // with the right tf; every dead doc appears nowhere.
        let mut by_term: FxHashMap<TermId, FxHashMap<u32, u32>> = FxHashMap::default();
        for t in 0..20u32 {
            let mut seen: FxHashMap<u32, u32> = FxHashMap::default();
            for p in live.postings(t).postings() {
                prop_assert!(
                    !seen.contains_key(&p.doc),
                    "doc {} duplicated in term {t}", p.doc
                );
                seen.insert(p.doc, p.tf);
            }
            by_term.insert(t, seen);
        }
        for (&doc, terms) in &alive {
            for &(t, tf) in terms {
                let found = by_term[&t].get(&doc);
                prop_assert_eq!(
                    found, Some(&tf),
                    "live doc {} lost from term {} (expected tf {})", doc, t, tf
                );
            }
        }
        for &doc in &dead {
            for t in 0..20u32 {
                prop_assert!(
                    !by_term[&t].contains_key(&doc),
                    "dead doc {} resurrected in term {}", doc, t
                );
            }
        }
    }
}

// --- the spliced merged view against the whole-list merge -------------

/// A fully merged list: postings, each posting's index into `parts`, and
/// `(segment, live df)` per contributing layer.
struct Materialized {
    postings: Vec<Posting>,
    origin: Vec<u32>,
    parts: Vec<(SegmentId, u64)>,
}

/// The whole-list merge `LiveIndex` ran on every read before its view
/// became lazy, verbatim but for reading the layers through the public
/// API: every layer regenerated, tombstone-filtered and k-way merged.
/// `added` is every document ingested so far (slot, terms); the write
/// segment's docs are those past the last sealed range.
fn materialize<B: IndexReader>(
    live: &LiveIndex<B>,
    added: &[(DocId, Vec<(TermId, u32)>)],
    term: TermId,
) -> Materialized {
    let mut layers: Vec<(SegmentId, Vec<Posting>)> = Vec::new();
    layers.push((BASE_SEGMENT, live.base().postings(term).postings().to_vec()));
    let mut write_lo = live.base().num_docs() as DocId;
    for id in live.sealed_ids() {
        let seg = live.sealed_segment(id).expect("listed id");
        write_lo = seg.doc_range().1;
        if let Some(l) = seg.list(term) {
            layers.push((id, l.postings().to_vec()));
        }
    }
    let write: Vec<Posting> = added
        .iter()
        .filter(|(doc, _)| *doc >= write_lo)
        .filter_map(|(doc, terms)| {
            let &(_, tf) = terms.iter().find(|(t, _)| *t == term)?;
            Some(Posting { doc: *doc, tf })
        })
        .collect();
    if !write.is_empty() {
        let canonical = PostingList::new(term, write);
        layers.push((WRITE_SEGMENT, canonical.postings().to_vec()));
    }
    // Tombstone filter (before the merge, so df per layer is live).
    for (_, l) in &mut layers {
        l.retain(|p| live.doc_alive(p.doc));
    }
    layers.retain(|(seg, l)| *seg == BASE_SEGMENT || !l.is_empty());
    let parts: Vec<(SegmentId, u64)> = layers
        .iter()
        .map(|(seg, l)| (*seg, l.len() as u64))
        .collect();
    // Stable k-way merge by descending tf; ties go to the earlier
    // layer, preserving each layer's internal order.
    let total: usize = layers.iter().map(|(_, l)| l.len()).sum();
    let mut postings = Vec::with_capacity(total);
    let mut origin = Vec::with_capacity(total);
    let mut heads = vec![0usize; layers.len()];
    for _ in 0..total {
        let mut best: Option<(usize, u32)> = None;
        for (i, (_, l)) in layers.iter().enumerate() {
            if heads[i] < l.len() {
                let tf = l[heads[i]].tf;
                if best.is_none_or(|(_, btf)| tf > btf) {
                    best = Some((i, tf));
                }
            }
        }
        let (i, _) = best.expect("total counted");
        postings.push(layers[i].1[heads[i]]);
        origin.push(i as u32);
        heads[i] += 1;
    }
    Materialized {
        postings,
        origin,
        parts,
    }
}

impl Materialized {
    fn range(&self, start: u64, end: u64) -> &[Posting] {
        let len = self.postings.len() as u64;
        &self.postings[start.min(len) as usize..end.min(len) as usize]
    }

    fn split_usage(&self, scanned: u64) -> Vec<UsagePart> {
        let take = (scanned as usize).min(self.origin.len());
        let mut counts = vec![0u64; self.parts.len()];
        for &o in &self.origin[..take] {
            counts[o as usize] += 1;
        }
        let parts = self.parts.iter().zip(&counts);
        parts
            .filter(|&(_, &c)| c > 0)
            .map(|(&(segment, df), &c)| UsagePart {
                segment,
                scanned: c,
                df,
            })
            .collect()
    }
}

/// Base for the equivalence histories: lists of ~100 postings with tfs
/// 1–4, so the merge pulls the base in several chunks and the ingested
/// postings (same tf range) interleave with it.
fn wide_base() -> Vec<Vec<TermId>> {
    (0..600u32)
        .map(|d| {
            let mut doc = vec![d % 20; (d % 4 + 1) as usize];
            doc.extend([(d * 3 + 1) % 20, (d * 7 + 2) % 20]);
            doc
        })
        .collect()
}

/// One mutation per step, then reads of the step's term checked against
/// [`materialize`]; at the end, every term in full.
fn spliced_view_equals_whole_list_merge_over<B: IndexReader>(
    base: B,
    steps: Vec<(Op, TermId, u64, u64, u64)>,
    seal_threshold: u64,
    fanin: usize,
) -> Result<(), TestCaseError> {
    let mut live = LiveIndex::new(base, policy(seal_threshold, fanin));
    let mut added: Vec<(DocId, Vec<(TermId, u32)>)> = Vec::new();
    let t0 = SimTime::ZERO;
    for (op, term, a, b, c) in steps {
        match op {
            Op::Add(terms) => {
                let out = live.add_document(t0, &terms);
                added.push((out.doc, terms));
            }
            // `Delete` picks up to 400: mostly base docs, and the
            // ingested ones once the history has grown.
            Op::Delete(pick) => {
                let doc = (pick as u64 * 7 % live.num_docs()) as DocId;
                live.delete_document(t0, doc);
            }
            Op::Seal => {
                live.seal(t0);
            }
            Op::Compact => {
                live.compact(t0);
            }
        }
        if live.is_pristine() {
            prop_assert_eq!(live.split_usage(term, a), None);
            continue;
        }
        // One term per step, so other terms' views live through
        // several mutations before they are read again. Reads come
        // in no particular order: a range somewhere in the list
        // first, then usage splits on either side of it.
        let want = materialize(&live, &added, term);
        let df = want.postings.len() as u64;
        let (start, end) = (a.min(b), a.max(b));
        prop_assert_eq!(
            live.postings_range(term, start, end),
            want.range(start, end)
        );
        prop_assert_eq!(live.split_usage(term, c), Some(want.split_usage(c)));
        prop_assert_eq!(live.doc_freq(term), df);
        let idf = if df == 0 {
            0.0
        } else {
            (1.0 + live.num_docs() as f64 / df as f64).ln()
        };
        prop_assert_eq!(live.idf(term).to_bits(), idf.to_bits());
        prop_assert_eq!(live.postings_range(term, b, b + c), want.range(b, b + c));
    }
    for term in 0..20u32 {
        let want = materialize(&live, &added, term);
        let df = want.postings.len() as u64;
        prop_assert_eq!(live.doc_freq(term), df);
        for scanned in (0..=df + 1).rev() {
            let split = live.split_usage(term, scanned);
            if live.is_pristine() {
                prop_assert_eq!(split, None);
            } else {
                prop_assert_eq!(split, Some(want.split_usage(scanned)), "term {}", term);
            }
        }
        prop_assert_eq!(
            live.postings(term),
            PostingList::from_sorted(term, want.postings)
        );
    }
    Ok(())
}

/// A statistical base of 20 terms whose head tfs run to about ten, so
/// ingested postings (tf 1–3) land between base runs, and whose lists
/// hold the deleted base docs.
fn synthetic_base() -> SyntheticIndex {
    SyntheticIndex::new(CorpusSpec {
        docs: 600,
        vocab: 20,
        alpha: 1.0,
        avg_doc_len: 8,
        seed: 5,
    })
}

fn step_strategy() -> impl Strategy<Value = Vec<(Op, TermId, u64, u64, u64)>> {
    prop::collection::vec(
        (op_strategy(), 0u32..20, 0u64..140, 0u64..140, 0u64..140),
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn spliced_view_equals_whole_list_merge(
        steps in step_strategy(),
        seal_threshold in 2u64..12,
        fanin in 2usize..5,
    ) {
        let base = MemIndex::from_docs(wide_base());
        spliced_view_equals_whole_list_merge_over(base, steps, seal_threshold, fanin)?;
    }

    #[test]
    fn spliced_view_over_a_synthetic_base_equals_whole_list_merge(
        steps in step_strategy(),
        seal_threshold in 2u64..12,
        fanin in 2usize..5,
    ) {
        spliced_view_equals_whole_list_merge_over(synthetic_base(), steps, seal_threshold, fanin)?;
    }
}

/// The trait's default `runs_range`, spelled per posting: `postings`
/// appended to `(docs, runs)`, the last run extended while the tf repeats.
fn append_runs_model(docs: &mut Vec<DocId>, runs: &mut Vec<(u32, u32)>, postings: &[Posting]) {
    for p in postings {
        docs.push(p.doc);
        match runs.last_mut() {
            Some(last) if last.1 == p.tf => last.0 = docs.len() as u32,
            _ => runs.push((docs.len() as u32, p.tf)),
        }
    }
}

proptest! {
    #[test]
    fn runs_range_appends_what_postings_range_returns(
        term in 0u32..26,
        a in 0u64..80,
        b in 0u64..80,
        // Base and ingested tfs are 1 to 3: the buffer's last run often
        // carries the range's first tf, and must then absorb it.
        lead_tf in 1u32..4,
        pristine in any::<bool>(),
    ) {
        let mut live = LiveIndex::new(MemIndex::from_docs(base_docs()), policy(16, 3));
        if !pristine {
            scripted_history(&mut live, &mut base_docs());
            let stats = live.stats();
            prop_assert!(stats.docs_deleted > 0 && stats.seals > 0 && stats.compactions > 0);
        }
        let (start, end) = (a.min(b), a.max(b));
        // The live index (merged view, or pristine delegation) and its
        // `MemIndex` base, which keeps the trait's default.
        fn check<R: IndexReader>(index: &R, term: TermId, start: u64, end: u64, lead_tf: u32)
            -> Result<(), TestCaseError> {
            let (mut docs, mut runs) = (vec![7], vec![(1, lead_tf)]);
            let (mut want_docs, mut want_runs) = (docs.clone(), runs.clone());
            let postings = index.postings_range(term, start, end);
            append_runs_model(&mut want_docs, &mut want_runs, &postings);
            index.runs_range(term, start, end, &mut docs, &mut runs);
            prop_assert_eq!(docs, want_docs);
            prop_assert_eq!(runs, want_runs);
            Ok(())
        }
        check(&live, term, start, end, lead_tf)?;
        check(live.base(), term, start, end, lead_tf)?;
    }
}

#[test]
fn position_of_matches_a_linear_scan() {
    fn check<R: IndexReader>(index: &R, what: &str) {
        let docs = index.num_docs() as usize;
        for term in 0..index.num_terms() as TermId + 1 {
            let mut want: Vec<Option<u64>> = vec![None; docs + 1];
            for (i, p) in index.postings(term).postings().iter().enumerate() {
                want[p.doc as usize] = Some(i as u64);
            }
            for (doc, &w) in want.iter().enumerate() {
                assert_eq!(
                    index.position_of(term, doc as DocId),
                    w,
                    "{what}: term {term} doc {doc}"
                );
            }
        }
    }
    check(&SyntheticIndex::new(CorpusSpec::tiny(7)), "synthetic");
    check(&MemIndex::from_docs(wide_base()), "mem");
}

// --- work proportionality: counts, no wall clock -----------------------

/// A base that counts the postings it is asked to produce and the
/// `tf_rank`s it is asked for.
struct Counting<B> {
    inner: B,
    asked: Cell<u64>,
    ranks: Cell<u64>,
}

impl<B: IndexReader> IndexReader for Counting<B> {
    fn num_docs(&self) -> u64 {
        self.inner.num_docs()
    }
    fn num_terms(&self) -> u64 {
        self.inner.num_terms()
    }
    fn doc_freq(&self, term: TermId) -> u64 {
        self.inner.doc_freq(term)
    }
    fn postings(&self, term: TermId) -> PostingList {
        let list = self.inner.postings(term);
        self.asked.set(self.asked.get() + list.len() as u64);
        list
    }
    fn postings_range(&self, term: TermId, start: u64, end: u64) -> Vec<Posting> {
        let range = self.inner.postings_range(term, start, end);
        self.asked.set(self.asked.get() + range.len() as u64);
        range
    }
    fn position_of(&self, term: TermId, doc: DocId) -> Option<u64> {
        self.inner.position_of(term, doc)
    }
    fn tf_rank(&self, term: TermId, tf: u32) -> u64 {
        self.ranks.set(self.ranks.get() + 1);
        self.inner.tf_rank(term, tf)
    }
}

#[test]
fn a_query_after_a_mutation_pays_for_what_it_scans() {
    let base = Counting {
        inner: SyntheticIndex::new(CorpusSpec::enwiki_like(100_000, 11)),
        asked: Cell::new(0),
        ranks: Cell::new(0),
    };
    let mut live = LiveIndex::new(base, SegmentPolicy::default());
    let config = TopKConfig::default();
    let processor = TopKProcessor::new(config);
    // What the processor asks for beyond what it scans is at most one
    // batch; the view asks the base for exactly the positions it reads.
    let chunk = config.check_every as u64;
    let (touched, spared) = (0u32, 1u32);
    // (postings scanned, postings asked of the base, `tf_rank` calls)
    let asked_by = |live: &LiveIndex<Counting<SyntheticIndex>>, term: TermId| {
        let (asked, ranks) = (live.base().asked.get(), live.base().ranks.get());
        let out = processor.process(live, &[term]);
        let base = live.base();
        let ranks = base.ranks.get() - ranks;
        (out.usage[0].scanned, base.asked.get() - asked, ranks)
    };

    // Both terms get a delta posting, so both splices rank one.
    live.add_document(SimTime::ZERO, &[(touched, 3), (spared, 2)]);
    live.delete_document(SimTime::ZERO, 17);
    let mut scanned = [0; 2];
    for (i, term) in [touched, spared].into_iter().enumerate() {
        let (n, asked, ranks) = asked_by(&live, term);
        assert!(n > 0 && live.base().doc_freq(term) >= 50 * n, "n = {n}");
        assert!(
            asked <= n + 2 * chunk,
            "scanned {n}, asked the base for {asked}"
        );
        assert_eq!(ranks, 1, "one delta posting, one rank");
        scanned[i] = n;
    }
    // No merged posting is stored, so a re-query after an add that does
    // not mention the term asks the base for what it scans again — but
    // the term's splice outlives the add: nothing is re-ranked.
    live.add_document(SimTime::ZERO, &[(touched, 1), (9, 2)]);
    let (again, asked, ranks) = asked_by(&live, spared);
    assert_eq!(again, scanned[1]);
    assert!(
        asked <= again + 2 * chunk,
        "scanned {again}, asked the base for {asked}"
    );
    assert_eq!(ranks, 0, "an unrelated add must not rebuild the splice");
    // The term the add mentions is re-ranked: two delta tfs now.
    assert_eq!(asked_by(&live, touched).2, 2);
}
