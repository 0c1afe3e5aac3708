//! The statistical corpus model.
//!
//! A [`SyntheticIndex`] reproduces the *distributions* of a large text
//! collection without materializing it:
//!
//! * term popularity is Zipf(α) over the vocabulary (term id = rank);
//! * a term's total occurrence count follows from the Zipf mass and the
//!   collection's token count;
//! * document frequency (list length) and the within-list tf distribution
//!   follow from occurrences via a geometric tf model;
//! * posting lists are generated **lazily and deterministically**: the
//!   list for a term is a pure function of `(seed, term)`, so the index
//!   behaves like an immutable on-disk structure while costing no memory
//!   until read — exactly how the cache experiments need it to behave.

use simclock::Rng;

use crate::blocks::close_run;
use crate::types::{DocId, IndexReader, Posting, PostingList, TermId, POSTING_BYTES};

/// Parameters of the synthetic collection.
#[derive(Debug, Clone)]
pub struct CorpusSpec {
    /// Number of documents (the paper sweeps 1–5 million).
    pub docs: u64,
    /// Vocabulary size.
    pub vocab: u64,
    /// Zipf exponent of term popularity (~1.0 for natural text).
    pub alpha: f64,
    /// Average tokens per document (enwiki articles average a few
    /// hundred).
    pub avg_doc_len: u64,
    /// Master seed; everything derives from it.
    pub seed: u64,
}

impl CorpusSpec {
    /// The paper's collection at a configurable document count: enwiki-like
    /// vocabulary/length statistics.
    pub fn enwiki_like(docs: u64, seed: u64) -> Self {
        CorpusSpec {
            docs,
            vocab: (docs / 10).clamp(10_000, 2_000_000),
            alpha: 1.0,
            avg_doc_len: 400,
            seed,
        }
    }

    /// A small spec for unit tests.
    pub fn tiny(seed: u64) -> Self {
        CorpusSpec {
            docs: 10_000,
            vocab: 2_000,
            alpha: 1.0,
            avg_doc_len: 100,
            seed,
        }
    }

    /// Total tokens in the collection.
    pub fn total_tokens(&self) -> u64 {
        self.docs * self.avg_doc_len
    }
}

/// The lazily-generated synthetic inverted index.
#[derive(Debug, Clone)]
pub struct SyntheticIndex {
    spec: CorpusSpec,
    /// Zipf normalization constant: sum over ranks of r^-α.
    zipf_norm: f64,
    /// Cached per-term document frequencies (computed once, 8 B per term).
    df: Vec<u64>,
}

impl SyntheticIndex {
    /// Build the index skeleton (document frequencies only; postings stay
    /// lazy). O(vocab) time and memory.
    pub fn new(spec: CorpusSpec) -> Self {
        assert!(spec.docs > 0 && spec.vocab > 0 && spec.avg_doc_len > 0);
        assert!(spec.alpha > 0.0);
        let zipf_norm: f64 = (1..=spec.vocab).map(|r| (r as f64).powf(-spec.alpha)).sum();
        let tokens = spec.total_tokens() as f64;
        let df = (0..spec.vocab)
            .map(|rank| {
                let occurrences = tokens * ((rank + 1) as f64).powf(-spec.alpha) / zipf_norm;
                // Occurrences spread over docs: a term appearing o times
                // lands in roughly o / (1 + o/docs·c) distinct documents;
                // the standard occupancy approximation df = docs·(1 - e^{-o/docs}).
                let df = spec.docs as f64 * (1.0 - (-occurrences / spec.docs as f64).exp());
                (df.round() as u64).clamp(1, spec.docs)
            })
            .collect();
        SyntheticIndex {
            spec,
            zipf_norm,
            df,
        }
    }

    /// The spec.
    pub fn spec(&self) -> &CorpusSpec {
        &self.spec
    }

    /// Expected occurrences of `term` in the whole collection.
    pub fn occurrences(&self, term: TermId) -> f64 {
        self.spec.total_tokens() as f64 * ((term + 1) as f64).powf(-self.spec.alpha)
            / self.zipf_norm
    }

    /// Mean tf of a posting of `term`.
    fn mean_tf(&self, term: TermId) -> f64 {
        (self.occurrences(term) / self.df[term as usize] as f64).max(1.0)
    }

    /// `(doc_start, stride)` of `term`'s doc-id walk: position `i` holds
    /// doc `(doc_start + i·stride) mod docs`, with `gcd(stride, docs) = 1`.
    fn doc_walk(&self, term: TermId) -> (u64, u64) {
        let mut rng = Rng::new(self.spec.seed ^ (term as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let docs = self.spec.docs;
        let doc_start = rng.next_below(docs);
        let mut stride = rng.next_range(1, docs.max(2) - 1) | 1;
        while gcd(stride, docs) != 1 {
            stride = (stride + 2) % docs;
            if stride < 2 {
                stride = 1;
            }
        }
        (doc_start, stride)
    }

    /// Walk positions `[start, end)` of `term`'s canonical list (indices
    /// clamp to the list), handing `run` each maximal run of equal tf
    /// with its doc ids, in list order.
    ///
    /// The list is a pure function of `(seed, term)`:
    /// * `tf` at position `i` is the Geometric(p) quantile at the
    ///   descending plotting position `1 − (i + 0.5)/df`, so the sequence
    ///   is sorted tf-descending *by construction*;
    /// * doc ids follow a stride walk `(start + i·stride) mod docs` with
    ///   `gcd(stride, docs) = 1`, guaranteeing distinctness without
    ///   materializing a permutation.
    ///
    /// Walked **by runs**: tf is non-increasing in `i`, so the quantile
    /// (an `ln`) is evaluated only where a run of equal tf can end — the
    /// previous run's length ahead, then galloping, then bisecting — and
    /// never again once tf reaches 1; each run's doc ids come off the
    /// walk with an add and a conditional subtract. Near a list's head
    /// runs are one posting long and this is one `ln` per position; a few
    /// hundred positions in it is a handful per run.
    fn walk_runs<F>(&self, term: TermId, start: u64, end: u64, mut run: F)
    where
        F: FnMut(u32, std::iter::Take<&mut DocWalk>),
    {
        let df = self.doc_freq(term);
        let start = start.min(df);
        let end = end.min(df);
        if start >= end {
            return;
        }
        let docs = self.spec.docs;
        let (doc_start, stride) = self.doc_walk(term);
        let mean_tf = self.mean_tf(term);
        let p = (1.0 / mean_tf).clamp(1e-6, 1.0);
        let ln_q = if p >= 1.0 { 0.0 } else { (1.0 - p).ln() };
        let tf_at = |i: u64| -> u32 {
            if ln_q == 0.0 {
                return 1;
            }
            // Quantile of Geometric(p) at q = 1 - (i+0.5)/df:
            // x = ceil(ln(1 - q) / ln(1 - p)).
            let u = (i as f64 + 0.5) / df as f64;
            (u.ln() / ln_q).ceil().clamp(1.0, u32::MAX as f64) as u32
        };

        let mut walk = DocWalk {
            doc: ((doc_start as u128 + start as u128 * stride as u128) % docs as u128) as u64,
            stride,
            docs,
        };
        let mut at = start;
        let mut tf = tf_at(at);
        let mut prev_run = 1;
        while at < end {
            // `[at, run_end)` holds `tf`; `next_tf` is the tf at
            // `run_end` whenever that is still inside the range.
            let (mut run_end, mut next_tf) = (end, tf);
            if tf > 1 {
                // Invariant: tf_at(last_same) == tf, and tf_at(run_end) ==
                // next_tf < tf unless run_end is still `end`.
                let mut last_same = at;
                let (mut step, mut next_step) = (prev_run, 1);
                let mut bracketed = false;
                while run_end - last_same > 1 {
                    let probe = if bracketed {
                        last_same + (run_end - last_same) / 2
                    } else {
                        (last_same + step).min(run_end - 1)
                    };
                    let probe_tf = tf_at(probe);
                    if probe_tf == tf {
                        last_same = probe;
                        (step, next_step) = (next_step, next_step * 2);
                    } else {
                        (run_end, next_tf) = (probe, probe_tf);
                        bracketed = true;
                    }
                }
            }
            run(tf, walk.by_ref().take((run_end - at) as usize));
            prev_run = run_end - at;
            (at, tf) = (run_end, next_tf);
        }
    }
}

/// A cursor on a term's doc-id walk: each step adds the stride and wraps
/// at the collection size. Endless; [`SyntheticIndex::walk_runs`] takes
/// one run's worth at a time.
struct DocWalk {
    doc: u64,
    stride: u64,
    docs: u64,
}

impl Iterator for DocWalk {
    type Item = DocId;

    #[inline]
    fn next(&mut self) -> Option<DocId> {
        let doc = self.doc as DocId;
        self.doc += self.stride;
        if self.doc >= self.docs {
            self.doc -= self.docs;
        }
        Some(doc)
    }
}

impl IndexReader for SyntheticIndex {
    fn num_docs(&self) -> u64 {
        self.spec.docs
    }

    fn num_terms(&self) -> u64 {
        self.spec.vocab
    }

    fn doc_freq(&self, term: TermId) -> u64 {
        self.df.get(term as usize).copied().unwrap_or(0)
    }

    fn list_bytes(&self, term: TermId) -> u64 {
        self.doc_freq(term) * POSTING_BYTES
    }

    /// Generate the term's full posting list. Equivalent to
    /// `postings_range(term, 0, df)` — O(df).
    fn postings(&self, term: TermId) -> PostingList {
        let df = self.doc_freq(term);
        PostingList::from_sorted(term, self.postings_range(term, 0, df))
    }

    /// O(end − start) lazy generation — the property that lets the cache
    /// experiments run against multi-million-document indexes: a query
    /// that early-terminates after `n` postings only ever pays for `n`.
    /// See [`SyntheticIndex::walk_runs`] for how the list is defined.
    fn postings_range(&self, term: TermId, start: u64, end: u64) -> Vec<Posting> {
        let mut out =
            Vec::with_capacity(end.min(self.doc_freq(term)).saturating_sub(start) as usize);
        self.walk_runs(term, start, end, |tf, docs| {
            out.extend(docs.map(|doc| Posting { doc, tf }));
        });
        out
    }

    /// The run walker's output as it comes: doc ids appended, each run's
    /// tf recorded once.
    fn runs_range(
        &self,
        term: TermId,
        start: u64,
        end: u64,
        docs: &mut Vec<DocId>,
        runs: &mut Vec<(u32, u32)>,
    ) {
        self.walk_runs(term, start, end, |tf, walk| {
            docs.extend(walk);
            close_run(runs, docs.len(), tf);
        });
    }

    /// O(1) in the list length: the walk `(doc_start + i·stride) mod docs`
    /// is a bijection on `[0, docs)`, so `doc` sits at
    /// `i = (doc − doc_start)·stride⁻¹ mod docs`, and is a member iff
    /// `i < df`.
    fn position_of(&self, term: TermId, doc: DocId) -> Option<u64> {
        let docs = self.spec.docs;
        if doc as u64 >= docs {
            return None;
        }
        let (doc_start, stride) = self.doc_walk(term);
        let offset = (doc as u64 + docs - doc_start) % docs;
        let i = (offset as u128 * mod_inverse(stride, docs) as u128 % docs as u128) as u64;
        (i < self.doc_freq(term)).then_some(i)
    }
}

/// `a⁻¹ mod m` for coprime `a` and `m` (extended Euclid).
fn mod_inverse(a: u64, m: u64) -> u64 {
    let (mut r0, mut r1) = (m as i128, (a % m) as i128);
    let (mut t0, mut t1) = (0i128, 1i128);
    while r1 != 0 {
        let q = r0 / r1;
        (r0, r1) = (r1, r0 - q * r1);
        (t0, t1) = (t1, t0 - q * t1);
    }
    debug_assert_eq!(r0, 1, "{a} and {m} are not coprime");
    t0.rem_euclid(m as i128) as u64
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::append_runs;

    fn idx() -> SyntheticIndex {
        SyntheticIndex::new(CorpusSpec::tiny(42))
    }

    #[test]
    fn df_is_monotone_in_popularity() {
        let i = idx();
        // Popular terms (low rank) have bigger lists, with wide margins to
        // dodge rounding plateaus.
        assert!(i.doc_freq(0) > i.doc_freq(50));
        assert!(i.doc_freq(50) > i.doc_freq(1500));
        assert!(i.doc_freq(0) <= i.num_docs());
        assert!(i.doc_freq(1999) >= 1);
    }

    #[test]
    fn oov_terms_are_empty() {
        let i = idx();
        assert_eq!(i.doc_freq(2_000), 0);
        assert!(i.postings(2_000).is_empty());
        assert_eq!(i.idf(2_000), 0.0);
    }

    #[test]
    fn postings_are_deterministic() {
        let a = idx().postings(7);
        let b = idx().postings(7);
        assert_eq!(a, b);
        // Different seeds give different lists.
        let c = SyntheticIndex::new(CorpusSpec {
            seed: 43,
            ..CorpusSpec::tiny(0)
        })
        .postings(7);
        assert_ne!(a, c);
    }

    #[test]
    fn postings_match_df_and_are_distinct_docs() {
        let i = idx();
        for term in [0u32, 10, 100, 1000] {
            let l = i.postings(term);
            assert_eq!(l.len() as u64, i.doc_freq(term), "term {term}");
            let mut docs: Vec<DocId> = l.postings().iter().map(|p| p.doc).collect();
            docs.sort_unstable();
            docs.dedup();
            assert_eq!(docs.len(), l.len(), "term {term} has duplicate docs");
            assert!(docs.iter().all(|&d| (d as u64) < i.num_docs()));
        }
    }

    #[test]
    fn lists_are_tf_descending() {
        let l = idx().postings(3);
        assert!(l.postings().windows(2).all(|w| w[0].tf >= w[1].tf));
    }

    #[test]
    fn popular_terms_have_higher_mean_tf() {
        let i = idx();
        let mean = |t: TermId| {
            let l = i.postings(t);
            l.postings().iter().map(|p| p.tf as f64).sum::<f64>() / l.len() as f64
        };
        // Rank-0 term saturates df, so its occurrences pile up as tf.
        assert!(mean(0) > mean(1500) * 1.2, "{} vs {}", mean(0), mean(1500));
    }

    #[test]
    fn idf_increases_with_rarity() {
        let i = idx();
        assert!(i.idf(1500) > i.idf(0));
    }

    #[test]
    fn enwiki_preset_scales() {
        let spec = CorpusSpec::enwiki_like(5_000_000, 1);
        assert_eq!(spec.docs, 5_000_000);
        assert_eq!(spec.vocab, 500_000);
        let i = SyntheticIndex::new(spec);
        // The head term's list is megabytes, the tail's is tiny — the
        // "variable in size" property the paper leans on.
        assert!(i.list_bytes(0) > 1_000_000);
        assert!(i.list_bytes(499_999) < 10_000);
    }

    #[test]
    fn list_size_distribution_is_heavily_skewed() {
        let i = idx();
        let total: u64 = (0..i.num_terms() as u32).map(|t| i.doc_freq(t)).sum();
        let head: u64 = (0..20u32).map(|t| i.doc_freq(t)).sum();
        // Top 1% of terms hold a large share of all postings.
        assert!(
            head as f64 / total as f64 > 0.15,
            "head share = {}",
            head as f64 / total as f64
        );
    }

    #[test]
    fn range_generation_matches_full_list() {
        let i = idx();
        for term in [0u32, 5, 300, 1999] {
            let full = i.postings(term);
            let df = full.len() as u64;
            // Whole list in one range.
            assert_eq!(i.postings_range(term, 0, df), full.postings().to_vec());
            // Stitched chunks equal the whole.
            let mut stitched = Vec::new();
            let mut cursor = 0;
            while cursor < df {
                let end = (cursor + 7).min(df);
                stitched.extend(i.postings_range(term, cursor, end));
                cursor = end;
            }
            assert_eq!(stitched, full.postings().to_vec(), "term {term}");
            // Clamping.
            assert!(i.postings_range(term, df, df + 10).is_empty());
            assert_eq!(i.postings_range(term, df - 1, df * 2).len(), 1);
        }
    }

    /// The generator's definition: one quantile evaluation and one
    /// wide-multiply walk step per position, as `postings_range` computed
    /// it before it generated by runs. The oracle for everything below.
    fn per_position(idx: &SyntheticIndex, term: TermId, start: u64, end: u64) -> Vec<Posting> {
        let df = idx.doc_freq(term);
        let (start, end) = (start.min(df), end.min(df));
        if start >= end {
            return Vec::new();
        }
        let docs = idx.spec.docs;
        let (doc_start, stride) = idx.doc_walk(term);
        let p = (1.0 / idx.mean_tf(term)).clamp(1e-6, 1.0);
        let ln_q = if p >= 1.0 { 0.0 } else { (1.0 - p).ln() };
        (start..end)
            .map(|i| {
                let doc =
                    ((doc_start as u128 + i as u128 * stride as u128) % docs as u128) as DocId;
                let tf = if ln_q == 0.0 {
                    1
                } else {
                    let u = (i as f64 + 0.5) / df as f64;
                    (u.ln() / ln_q).ceil().clamp(1.0, u32::MAX as f64) as u32
                };
                Posting { doc, tf }
            })
            .collect()
    }

    /// Index of [`oracle_indexes`] whose tail terms have `ln_q == 0`.
    const SPARSE: usize = 3;
    /// Index of [`oracle_indexes`] whose head term has a mean tf in the
    /// thousands.
    const DENSE: usize = 4;

    /// The collections the run generator is held to its definition on.
    fn oracle_indexes() -> &'static [SyntheticIndex] {
        static INDEXES: std::sync::OnceLock<Vec<SyntheticIndex>> = std::sync::OnceLock::new();
        INDEXES.get_or_init(|| {
            let spec = |docs, vocab, avg_doc_len| CorpusSpec {
                docs,
                vocab,
                alpha: 1.0,
                avg_doc_len,
                seed: 11,
            };
            [
                CorpusSpec::tiny(42),
                CorpusSpec::enwiki_like(400_000, 42),
                CorpusSpec::enwiki_like(40_000, 7),
                spec(100_000, 5_000, 1),
                spec(2_000, 100, 50_000),
            ]
            .map(SyntheticIndex::new)
            .into()
        })
    }

    #[test]
    fn oracle_indexes_reach_both_tf_extremes() {
        // p clamps to 1.0: every tf is 1 and the quantile is never taken.
        let sparse = &oracle_indexes()[SPARSE];
        let flat: Vec<TermId> = (0..5_000).filter(|&t| sparse.mean_tf(t) == 1.0).collect();
        assert!(flat.len() > 1_000, "{} terms with ln_q == 0", flat.len());
        assert!(
            sparse.doc_freq(flat[0]) >= 50,
            "df {}",
            sparse.doc_freq(flat[0])
        );
        for &t in &flat[..50] {
            let list = sparse.postings_range(t, 0, u64::MAX);
            assert!(list.iter().all(|p| p.tf == 1));
            assert_eq!(list, per_position(sparse, t, 0, u64::MAX));
        }
        // A huge mean tf: every run is one posting long for hundreds of
        // positions, so the generator never leaves its per-position gear.
        let dense = &oracle_indexes()[DENSE];
        assert!(dense.mean_tf(0) > 1_000.0);
        let head = dense.postings_range(0, 0, 500);
        assert!(head.windows(2).all(|w| w[0].tf > w[1].tf));
        assert_eq!(head, per_position(dense, 0, 0, 500));
    }

    proptest::proptest! {
        #[test]
        fn runs_match_the_per_position_definition(
            which in 0usize..5,
            head_term in proptest::prelude::any::<bool>(),
            term in proptest::prelude::any::<u32>(),
            shape in 0u32..4,
            at in proptest::prelude::any::<u64>(),
            len in 1u64..3_000,
        ) {
            use proptest::prelude::*;
            let idx = &oracle_indexes()[which];
            let vocab = idx.num_terms() as u32;
            let term = term % if head_term { vocab.min(200) } else { vocab };
            let df = idx.doc_freq(term);
            let (start, end) = match shape {
                // The whole list.
                0 => (0, df),
                // A range that starts and (usually) ends inside a run;
                // near the tail its end runs past the list.
                1 => (at % df, at % df + len),
                // One posting, as the engine's `[scanned − 1, scanned)`.
                2 => (at % df, at % df + 1),
                // Nothing: the start is at or past the end of the list.
                _ => (df + at % 3, df + len),
            };
            let got = idx.postings_range(term, start, end);
            prop_assert_eq!(got.len() as u64, end.min(df).saturating_sub(start));
            prop_assert_eq!(got, per_position(idx, term, start, end));
        }

        #[test]
        fn runs_range_appends_what_postings_range_returns(
            which in 0usize..5,
            term in proptest::prelude::any::<u32>(),
            at in proptest::prelude::any::<u64>(),
            len in 0u64..3_000,
            // The buffer's last run carries the range's first tf (so the
            // two must merge into one run), one more, or one less.
            lead_tf in 0u32..3,
        ) {
            use proptest::prelude::*;
            let idx = &oracle_indexes()[which];
            let term = term % idx.num_terms() as u32;
            let df = idx.doc_freq(term);
            let (start, end) = (at % df, at % df + len);
            let first_tf = idx.postings_range(term, start, start + 1)[0].tf;
            let lead = Posting { doc: 3, tf: (first_tf + lead_tf).saturating_sub(1).max(1) };
            let (mut docs, mut runs) = (Vec::new(), Vec::new());
            append_runs(&mut docs, &mut runs, &[lead, lead]);
            let (mut want_docs, mut want_runs) = (docs.clone(), runs.clone());
            append_runs(&mut want_docs, &mut want_runs, &idx.postings_range(term, start, end));
            idx.runs_range(term, start, end, &mut docs, &mut runs);
            prop_assert_eq!(docs, want_docs);
            prop_assert_eq!(runs, want_runs);
        }
    }

    #[test]
    fn quantile_tf_mean_tracks_occurrences() {
        let i = idx();
        let term = 0u32; // head term saturates df, mean tf > 1
        let l = i.postings(term);
        let mean: f64 = l.postings().iter().map(|p| p.tf as f64).sum::<f64>() / l.len() as f64;
        let expected = i.occurrences(term) / i.doc_freq(term) as f64;
        assert!(
            (mean / expected - 1.0).abs() < 0.35,
            "mean tf {mean} vs expected {expected}"
        );
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(0, 5), 5);
    }
}
