//! Top-K retrieval with early termination over frequency-sorted lists.
//!
//! The processor implements the filtered vector model the paper builds on
//! (Persin/Saraiva): posting lists are tf-descending, so scanning can stop
//! once the best possible remaining contribution of a list cannot change
//! the top-K — "the lists are not fully traversed or are not traversed at
//! all". The fraction of each list actually visited is reported as the
//! term's **utilization** for this query; averaged over a query log it is
//! the `PU` of the paper's Formula 1.

use std::cell::RefCell;
use std::collections::HashMap;

use crate::blocks::{BlockStore, BlockStoreStats, PostingsBackend, BLOCK_SIZE};
use crate::skips::SkipStats;
use crate::types::{
    tf_weight as weight, DocId, IndexReader, Posting, ResultEntry, ScoredDoc, TermId,
};

/// Query-processing knobs.
#[derive(Debug, Clone, Copy)]
pub struct TopKConfig {
    /// Results to return (the paper caches the top 50).
    pub k: usize,
    /// Early-termination aggressiveness ε: a list scan stops when the next
    /// posting's contribution falls below `ε ×` the current K-th score.
    /// 0 disables early termination (exact evaluation) **and** the other
    /// pruning rules below.
    pub epsilon: f64,
    /// How often (in postings) the K-th score threshold is refreshed.
    pub check_every: usize,
    /// Accumulator budget (Moffat–Zobel's *quit* strategy): once this many
    /// candidate documents have accumulated, a list scan also stops as
    /// soon as its contribution can no longer beat the K-th score — this
    /// is what keeps the long tf = 1 plateaus of popular terms from being
    /// traversed end-to-end, producing the partial-utilization behaviour
    /// of the paper's Fig. 3(a).
    pub accumulator_limit: usize,
}

impl Default for TopKConfig {
    fn default() -> Self {
        TopKConfig {
            k: 50,
            epsilon: 0.15,
            check_every: 128,
            accumulator_limit: 400,
        }
    }
}

/// Per-term traversal accounting for one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TermUsage {
    /// The term.
    pub term: TermId,
    /// Postings visited.
    pub scanned: u64,
    /// Postings in the full list.
    pub df: u64,
}

impl TermUsage {
    /// Utilization rate `PU ∈ [0, 1]` — visited fraction of the list.
    pub fn utilization(&self) -> f64 {
        if self.df == 0 {
            0.0
        } else {
            self.scanned as f64 / self.df as f64
        }
    }

    /// Bytes of the list actually needed from storage.
    pub fn bytes_scanned(&self) -> u64 {
        self.scanned * crate::types::POSTING_BYTES
    }
}

/// The outcome of one query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Top-K documents, best first.
    pub result: ResultEntry,
    /// Traversal accounting, in processing order (descending idf).
    pub usage: Vec<TermUsage>,
    /// Block-max accounting (zero on the reference backends):
    /// `skip_probes` counts block-max bounds consulted, `skipped` counts
    /// postings pruned without decoding their block. Diagnostic only — it
    /// deliberately lives outside `usage`, whose `scanned` counts are
    /// part of the bit-identical simulated figures.
    pub skip_stats: SkipStats,
}

impl QueryOutcome {
    /// Total postings visited across all terms.
    pub fn postings_scanned(&self) -> u64 {
        self.usage.iter().map(|u| u.scanned).sum()
    }
}

/// Open-addressed score accumulator: a power-of-two table with linear
/// probing and a multiplicative (fx-style) hash. Replaces the per-query
/// `HashMap<DocId, f32>` on the hot path — no per-query allocation (the
/// table is pooled across queries), no SipHash, no per-entry boxing. The
/// accumulated multiset of `(doc, score)` pairs is identical to the
/// HashMap's, and every consumer below is order-independent, so results
/// are bit-identical to [`TopKProcessor::process_reference`].
#[derive(Debug, Clone)]
struct ScoreAccumulator {
    /// Slot → index into `entries`, [`EMPTY_SLOT`] when free. 4-byte
    /// slots keep the probe array dense; the payload lives once, in
    /// insertion order, in `entries`.
    slots: Vec<u32>,
    mask: usize,
    /// Occupied slot positions — sparse clearing.
    touched: Vec<u32>,
    /// `(doc, score)` pairs in insertion order. Threshold refreshes and
    /// top-K extraction stream this contiguously instead of chasing
    /// occupied slots through the probe array.
    entries: Vec<(DocId, f32)>,
}

/// Free-slot sentinel (an `entries` index, so no doc id is reserved).
const EMPTY_SLOT: u32 = u32::MAX;

impl Default for ScoreAccumulator {
    fn default() -> Self {
        ScoreAccumulator::with_capacity(1024)
    }
}

impl ScoreAccumulator {
    fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.next_power_of_two();
        ScoreAccumulator {
            slots: vec![EMPTY_SLOT; capacity],
            mask: capacity - 1,
            touched: Vec::new(),
            entries: Vec::new(),
        }
    }

    #[inline]
    fn hash(&self, doc: DocId) -> usize {
        // Fibonacci multiply; the high bits are the well-mixed ones.
        ((doc as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & self.mask
    }

    /// Live entries.
    #[inline]
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Reset for the next query, keeping the allocations. Sparse
    /// occupancy clears only the touched slots.
    fn clear(&mut self) {
        if self.touched.len() * 4 < self.slots.len() {
            for &i in &self.touched {
                self.slots[i as usize] = EMPTY_SLOT;
            }
        } else {
            self.slots.fill(EMPTY_SLOT);
        }
        self.touched.clear();
        self.entries.clear();
    }

    /// Accumulate `delta` into `doc`'s score.
    #[inline]
    fn add(&mut self, doc: DocId, delta: f32) {
        if self.entries.len() * 2 >= self.slots.len() {
            self.grow();
        }
        let mut i = self.hash(doc);
        loop {
            let idx = self.slots[i];
            if idx == EMPTY_SLOT {
                self.slots[i] = self.entries.len() as u32;
                self.touched.push(i as u32);
                self.entries.push((doc, delta));
                return;
            }
            let e = &mut self.entries[idx as usize];
            if e.0 == doc {
                e.1 += delta;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Double the probe array and re-seat the (unchanged) entries.
    fn grow(&mut self) {
        let capacity = (self.slots.len() * 2).next_power_of_two();
        self.slots.clear();
        self.slots.resize(capacity, EMPTY_SLOT);
        self.mask = capacity - 1;
        self.touched.clear();
        for (idx, e) in self.entries.iter().enumerate() {
            let mut i =
                ((e.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & self.mask;
            while self.slots[i] != EMPTY_SLOT {
                i = (i + 1) & self.mask;
            }
            self.slots[i] = idx as u32;
            self.touched.push(i as u32);
        }
    }

    /// Visit live entries in insertion order.
    #[inline]
    fn iter(&self) -> impl Iterator<Item = (DocId, f32)> + '_ {
        self.entries.iter().copied()
    }

    /// The K-th largest score (0 when fewer than K docs), using a pooled
    /// selection buffer. Same `select_nth_unstable_by` as the reference —
    /// the value only depends on the score multiset, not its order.
    fn kth_largest(&self, k: usize, scores: &mut Vec<f32>) -> f64 {
        if self.len() < k || k == 0 {
            return 0.0;
        }
        scores.clear();
        scores.extend(self.iter().map(|(_, s)| s));
        let idx = scores.len() - k;
        let (_, kth, _) =
            scores.select_nth_unstable_by(idx, |a, b| a.partial_cmp(b).expect("scores are finite"));
        *kth as f64
    }

    /// Extract the top K docs, best first, via a pooled sort buffer. The
    /// `(score desc, doc asc)` comparator is a total order over distinct
    /// docs, so the output is independent of accumulation order.
    fn top_k(&self, k: usize, docs: &mut Vec<ScoredDoc>) -> ResultEntry {
        docs.clear();
        docs.extend(self.iter().map(|(doc, score)| ScoredDoc { doc, score }));
        let cmp = |a: &ScoredDoc, b: &ScoredDoc| {
            b.score
                .partial_cmp(&a.score)
                .expect("scores are finite")
                .then(a.doc.cmp(&b.doc))
        };
        // The comparator is a total order over distinct docs, so
        // partitioning the best K to the front (O(N)) and sorting only
        // them yields exactly what sorting the whole set would.
        if k > 0 && docs.len() > k {
            docs.select_nth_unstable_by(k - 1, cmp);
        }
        docs.truncate(k);
        docs.sort_unstable_by(cmp);
        ResultEntry { docs: docs.clone() }
    }
}

/// Pooled per-query working memory, reused across `process` calls.
#[derive(Debug, Clone, Default)]
struct Scratch {
    acc: ScoreAccumulator,
    scores: Vec<f32>,
    docs: Vec<ScoredDoc>,
    /// Decode target for blocked scans — the per-engine decode arena of
    /// the disjunctive path (one buffer suffices: scans visit one block
    /// at a time).
    block_buf: Vec<Posting>,
    /// Which `(term, block)` currently sits in `block_buf`. Blocks are
    /// immutable once encoded, so a matching key means the decode can be
    /// skipped outright (hot for the Zipf-repeated head terms).
    cached_block: Option<(TermId, u64)>,
}

/// Memoized [`tf_weight`]: entry `i` is computed by the very function it
/// replaces, so a lookup returns bit-identical f64s while keeping `ln`
/// off the blocked scan path (tf is geometric, so virtually every
/// posting lands inside the table; the rare overflow recomputes).
#[derive(Debug, Clone)]
struct WeightTable {
    table: Vec<f64>,
}

impl Default for WeightTable {
    fn default() -> Self {
        WeightTable {
            table: (0..=1024).map(|tf| weight(tf as u32)).collect(),
        }
    }
}

impl WeightTable {
    #[inline]
    fn get(&self, tf: u32) -> f64 {
        match self.table.get(tf as usize) {
            Some(&w) => w,
            None => weight(tf),
        }
    }
}

/// The query processor. Stateless apart from configuration, pooled
/// scratch buffers, and the append-only [`BlockStore`] of compressed
/// lists; all collection state comes through the [`IndexReader`].
#[derive(Debug, Clone, Default)]
pub struct TopKProcessor {
    config: TopKConfig,
    backend: PostingsBackend,
    scratch: RefCell<Scratch>,
    store: RefCell<BlockStore>,
    weights: WeightTable,
}

impl TopKProcessor {
    /// With explicit configuration (and the default postings backend).
    pub fn new(config: TopKConfig) -> Self {
        TopKProcessor {
            config,
            backend: PostingsBackend::default(),
            scratch: RefCell::new(Scratch::default()),
            store: RefCell::new(BlockStore::default()),
            weights: WeightTable::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TopKConfig {
        &self.config
    }

    /// Which postings representation [`TopKProcessor::process`] scans.
    pub fn backend(&self) -> PostingsBackend {
        self.backend
    }

    /// Select the postings representation. Switching away from `Blocked`
    /// keeps the store's already-encoded lists for a later switch back.
    pub fn set_backend(&mut self, backend: PostingsBackend) {
        self.backend = backend;
    }

    /// Footprint of the block store (what the blocked backend has encoded
    /// so far).
    pub fn store_stats(&self) -> BlockStoreStats {
        self.store.borrow().stats()
    }

    /// Drop `term`'s encoded list from the block store. Required when the
    /// underlying index is mutable: the store is keyed by term only, so a
    /// changed list would otherwise alias its stale encoding.
    pub fn invalidate_term(&self, term: TermId) -> bool {
        self.store.borrow_mut().remove(term)
    }

    /// Drop every encoded list (for mutations whose touched-term set is
    /// unknown: tombstone deletes and content-changing compactions).
    pub fn invalidate_all_terms(&self) {
        self.store.borrow_mut().clear();
    }

    /// Audit every block-compressed list the processor has encoded so
    /// far (block accounting, alignment, skip-key agreement).
    pub fn validation_report(&self) -> invariant::Report {
        use invariant::Validate;
        let mut report = invariant::Report::new();
        self.store.borrow().validate(&mut report);
        report
    }

    /// Dedup the query's terms and order them rarest (highest-idf) first:
    /// their contributions set a high bar early, letting long lists
    /// terminate sooner.
    fn term_order<R: IndexReader>(index: &R, terms: &[TermId]) -> Vec<TermId> {
        let mut order: Vec<TermId> = terms.to_vec();
        order.sort_unstable();
        order.dedup();
        // One idf per term, not one per comparison: on the live index each
        // is a view lookup and an `ln`.
        let mut keyed: Vec<(f64, TermId)> = order.into_iter().map(|t| (index.idf(t), t)).collect();
        keyed.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("idf is finite"));
        keyed.into_iter().map(|(_, t)| t).collect()
    }

    /// Evaluate a disjunctive (OR) query. Terms are processed in
    /// descending-idf order; duplicate terms are collapsed.
    ///
    /// Dispatches on the configured [`PostingsBackend`]; both arms are
    /// bit-identical at the `ResultEntry`/`TermUsage` level (see the
    /// `postings_equivalence` suite and the `perf_regress` postings arm).
    pub fn process<R: IndexReader>(&self, index: &R, terms: &[TermId]) -> QueryOutcome {
        match self.backend {
            PostingsBackend::Reference => self.process_scan(index, terms),
            PostingsBackend::Blocked => self.process_blocked(index, terms),
        }
    }

    /// The uncompressed hot path (PR 1): accumulates into the pooled
    /// open-addressed scratch table, fetching postings lazily via
    /// `postings_range`. Bit-identical to
    /// [`TopKProcessor::process_reference`] — see the equivalence tests.
    fn process_scan<R: IndexReader>(&self, index: &R, terms: &[TermId]) -> QueryOutcome {
        let order = Self::term_order(index, terms);

        let mut scratch = self.scratch.borrow_mut();
        let Scratch {
            acc, scores, docs, ..
        } = &mut *scratch;
        acc.clear();
        let mut usage = Vec::with_capacity(order.len());
        let mut kth_score = 0.0f64;

        let num_terms = order.len();
        for (term_idx, term) in order.into_iter().enumerate() {
            let is_last = term_idx + 1 == num_terms;
            let df = index.doc_freq(term);
            let idf = index.idf(term);
            if df == 0 || idf == 0.0 {
                usage.push(TermUsage {
                    term,
                    scanned: 0,
                    df,
                });
                continue;
            }
            let mut scanned = 0u64;
            let base_chunk = if self.config.check_every > 0 {
                self.config.check_every as u64
            } else {
                1024
            };
            'scan: while scanned < df {
                // Lazy chunked fetch: an early-terminated list only pays
                // for the prefix it visits. The threshold-refresh interval
                // grows with the accumulator set so the O(|acc|) selection
                // stays amortized-linear over the whole scan.
                let chunk = base_chunk.max(acc.len() as u64 / 4);
                let batch = index.postings_range(term, scanned, scanned + chunk);
                if batch.is_empty() {
                    break;
                }
                for p in &batch {
                    // tf-descending ⇒ contribution is non-increasing; once
                    // it cannot move the K-th score, the rest of the list
                    // can't either. Three pruning rules, all gated on
                    // ε > 0 and a full candidate set:
                    //  1. ε-quit — contribution negligible vs the K-th;
                    //  2. last-term tie — on the final list, an entry that
                    //     can at best tie the K-th cannot change the set;
                    //  3. accumulator quit — with the candidate budget
                    //     full, a contribution that cannot beat the K-th
                    //     is abandoned (Moffat–Zobel "quit").
                    let contribution = weight(p.tf) * idf;
                    if self.config.epsilon > 0.0 && acc.len() >= self.config.k {
                        let quit = contribution < self.config.epsilon * kth_score
                            || (is_last && contribution <= kth_score)
                            || (acc.len() >= self.config.accumulator_limit
                                && contribution <= kth_score);
                        if quit {
                            break 'scan;
                        }
                    }
                    acc.add(p.doc, contribution as f32);
                    scanned += 1;
                }
                kth_score = acc.kth_largest(self.config.k, scores);
            }
            kth_score = acc.kth_largest(self.config.k, scores);
            usage.push(TermUsage { term, scanned, df });
        }

        QueryOutcome {
            result: acc.top_k(self.config.k, docs),
            usage,
            skip_stats: SkipStats::default(),
        }
    }

    /// The blocked hot path: scans the block-compressed store instead of
    /// regenerating postings through `postings_range` on every traversal.
    /// Structurally a mirror of [`TopKProcessor::process_scan`] — same
    /// chunking (`base_chunk.max(|acc|/4)`), same per-batch threshold
    /// refresh, same three pruning rules — plus one addition: before a
    /// block is decoded, its block-max bound `weight(max_tf) · idf` is
    /// tested against the quit predicate. The predicate is downward
    /// closed in the contribution and canonical order is tf-descending,
    /// so `quit(bound)` implies the reference would quit on this block's
    /// very next posting: skipping the decode reproduces the reference's
    /// exact `scanned` count, keeping usage (and every simulated figure
    /// downstream) bit-identical while whole blocks of decode *and*
    /// generation work disappear.
    ///
    /// Three more mechanisms, none of which can move the figures:
    /// * terms are encoded on their *second* visit (first visits scan
    ///   uncompressed, reference-style) — the once-queried Zipf tail
    ///   never funds a build it cannot amortize;
    /// * the head [`crate::blocks::HOT_PREFIX`] postings of each built
    ///   list stay pinned decoded, so the impact-ordered region every
    ///   query re-reads is served as a plain slice;
    /// * per slice, a hoisted check on the *weakest* posting at the
    ///   *largest* possible accumulator proves the (monotone) quit
    ///   predicate cannot fire, letting the per-posting checks drop out
    ///   of the add loop (`tf_weight` itself is memoized bit-identically
    ///   in a [`WeightTable`]).
    fn process_blocked<R: IndexReader>(&self, index: &R, terms: &[TermId]) -> QueryOutcome {
        let order = Self::term_order(index, terms);

        let mut store = self.store.borrow_mut();
        let mut scratch = self.scratch.borrow_mut();
        let Scratch {
            acc,
            scores,
            docs,
            block_buf,
            cached_block,
        } = &mut *scratch;
        acc.clear();
        let mut usage = Vec::with_capacity(order.len());
        let mut skip_stats = SkipStats::default();
        let mut kth_score = 0.0f64;

        let num_terms = order.len();
        for (term_idx, term) in order.into_iter().enumerate() {
            let is_last = term_idx + 1 == num_terms;
            let df = index.doc_freq(term);
            let idf = index.idf(term);
            if df == 0 || idf == 0.0 {
                usage.push(TermUsage {
                    term,
                    scanned: 0,
                    df,
                });
                continue;
            }
            let list = store.list_mut(term, df);
            let mut scanned = 0u64;
            let base_chunk = if self.config.check_every > 0 {
                self.config.check_every as u64
            } else {
                1024
            };
            if !list.note_visit() {
                // First sighting of this term: scan uncompressed, like
                // the reference arm (same batches, same quit rules, the
                // memoized weights) and encode nothing. Under a Zipf
                // log the once-queried tail never repays an encode;
                // terms that come back pay it on their second visit and
                // amortize it over every visit after that.
                'cold: while scanned < df {
                    let chunk = base_chunk.max(acc.len() as u64 / 4);
                    let batch = index.postings_range(term, scanned, scanned + chunk);
                    if batch.is_empty() {
                        break;
                    }
                    for p in &batch {
                        let contribution = self.weights.get(p.tf) * idf;
                        if self.config.epsilon > 0.0 && acc.len() >= self.config.k {
                            let quit = contribution < self.config.epsilon * kth_score
                                || (is_last && contribution <= kth_score)
                                || (acc.len() >= self.config.accumulator_limit
                                    && contribution <= kth_score);
                            if quit {
                                break 'cold;
                            }
                        }
                        acc.add(p.doc, contribution as f32);
                        scanned += 1;
                    }
                    kth_score = acc.kth_largest(self.config.k, scores);
                }
                kth_score = acc.kth_largest(self.config.k, scores);
                usage.push(TermUsage { term, scanned, df });
                continue;
            }
            'scan: while scanned < df {
                let chunk = base_chunk.max(acc.len() as u64 / 4);
                let batch_end = (scanned + chunk).min(df);
                while scanned < batch_end {
                    let block = scanned / BLOCK_SIZE as u64;
                    let block_start = block * BLOCK_SIZE as u64;
                    // Build only this block: if the gate below quits
                    // here, the rest of the batch is never generated —
                    // the reference arm pays `postings_range` for the
                    // full chunk it is about to abandon.
                    list.ensure(index, term, block_start + 1);
                    if self.config.epsilon > 0.0 && acc.len() >= self.config.k {
                        // Block-max gate: bound every contribution the
                        // block can make and apply the same quit
                        // predicate the per-posting loop would.
                        skip_stats.skip_probes += 1;
                        let bound = self.weights.get(list.block_max_tf(block as usize)) * idf;
                        let quit = bound < self.config.epsilon * kth_score
                            || (is_last && bound <= kth_score)
                            || (acc.len() >= self.config.accumulator_limit && bound <= kth_score);
                        if quit {
                            skip_stats.skipped += df - scanned;
                            break 'scan;
                        }
                    }
                    // Serve the block from the pinned decoded prefix
                    // when it is covered; decode (through the one-block
                    // cache) otherwise.
                    let block_end = (block_start + BLOCK_SIZE as u64).min(df);
                    let buf: &[Posting] = if block_end <= list.hot_prefix().len() as u64 {
                        &list.hot_prefix()[block_start as usize..block_end as usize]
                    } else {
                        if *cached_block != Some((term, block)) {
                            list.decode_block(block as usize, block_buf);
                            *cached_block = Some((term, block));
                        }
                        block_buf
                    };
                    let lo = (scanned - block_start) as usize;
                    let hi = ((batch_end - block_start) as usize).min(buf.len());
                    let slice = &buf[lo..hi];
                    // Hoisted quit check. The quit predicate is monotone
                    // — downward in the contribution, upward in the
                    // accumulator size — and canonical order is
                    // tf-descending, so the slice's *last* posting at
                    // the *largest* accumulator the slice could produce
                    // is the easiest quit there is. If even that cannot
                    // fire, no posting in the slice can, and the
                    // per-posting checks drop out of the loop entirely.
                    let check_free = self.config.epsilon <= 0.0
                        || match slice.last() {
                            Some(last) => {
                                let len_max = acc.len() + slice.len();
                                let c_min = self.weights.get(last.tf) * idf;
                                !(len_max >= self.config.k
                                    && (c_min < self.config.epsilon * kth_score
                                        || (is_last && c_min <= kth_score)
                                        || (len_max >= self.config.accumulator_limit
                                            && c_min <= kth_score)))
                            }
                            None => true,
                        };
                    if check_free {
                        for p in slice {
                            acc.add(p.doc, (self.weights.get(p.tf) * idf) as f32);
                        }
                        scanned += slice.len() as u64;
                        skip_stats.visited += slice.len() as u64;
                    } else {
                        for p in slice {
                            let contribution = self.weights.get(p.tf) * idf;
                            if self.config.epsilon > 0.0 && acc.len() >= self.config.k {
                                let quit = contribution < self.config.epsilon * kth_score
                                    || (is_last && contribution <= kth_score)
                                    || (acc.len() >= self.config.accumulator_limit
                                        && contribution <= kth_score);
                                if quit {
                                    skip_stats.skipped += df - scanned;
                                    break 'scan;
                                }
                            }
                            acc.add(p.doc, contribution as f32);
                            scanned += 1;
                            skip_stats.visited += 1;
                        }
                    }
                }
                kth_score = acc.kth_largest(self.config.k, scores);
            }
            kth_score = acc.kth_largest(self.config.k, scores);
            usage.push(TermUsage { term, scanned, df });
        }

        QueryOutcome {
            result: acc.top_k(self.config.k, docs),
            usage,
            skip_stats,
        }
    }

    /// The seed's `HashMap`-accumulator evaluation, kept verbatim as the
    /// reference implementation. [`TopKProcessor::process`] must return
    /// bit-identical outcomes; the equivalence tests and the old-vs-new
    /// Criterion benches run both.
    pub fn process_reference<R: IndexReader>(&self, index: &R, terms: &[TermId]) -> QueryOutcome {
        let order = Self::term_order(index, terms);

        let mut acc: HashMap<DocId, f32> = HashMap::new();
        let mut usage = Vec::with_capacity(order.len());
        let mut kth_score = 0.0f64;

        let num_terms = order.len();
        for (term_idx, term) in order.into_iter().enumerate() {
            let is_last = term_idx + 1 == num_terms;
            let df = index.doc_freq(term);
            let idf = index.idf(term);
            if df == 0 || idf == 0.0 {
                usage.push(TermUsage {
                    term,
                    scanned: 0,
                    df,
                });
                continue;
            }
            let mut scanned = 0u64;
            let base_chunk = if self.config.check_every > 0 {
                self.config.check_every as u64
            } else {
                1024
            };
            'scan: while scanned < df {
                let chunk = base_chunk.max(acc.len() as u64 / 4);
                let batch = index.postings_range(term, scanned, scanned + chunk);
                if batch.is_empty() {
                    break;
                }
                for p in &batch {
                    let contribution = weight(p.tf) * idf;
                    if self.config.epsilon > 0.0 && acc.len() >= self.config.k {
                        let quit = contribution < self.config.epsilon * kth_score
                            || (is_last && contribution <= kth_score)
                            || (acc.len() >= self.config.accumulator_limit
                                && contribution <= kth_score);
                        if quit {
                            break 'scan;
                        }
                    }
                    *acc.entry(p.doc).or_insert(0.0) += contribution as f32;
                    scanned += 1;
                }
                kth_score = kth_largest(&acc, self.config.k);
            }
            kth_score = kth_largest(&acc, self.config.k);
            usage.push(TermUsage { term, scanned, df });
        }

        QueryOutcome {
            result: top_k(&acc, self.config.k),
            usage,
            skip_stats: SkipStats::default(),
        }
    }
}

/// The K-th largest accumulator score (0 when fewer than K docs).
fn kth_largest(acc: &HashMap<DocId, f32>, k: usize) -> f64 {
    if acc.len() < k || k == 0 {
        return 0.0;
    }
    let mut scores: Vec<f32> = acc.values().copied().collect();
    let idx = scores.len() - k;
    let (_, kth, _) =
        scores.select_nth_unstable_by(idx, |a, b| a.partial_cmp(b).expect("scores are finite"));
    *kth as f64
}

/// Extract the top K docs, best first (ties by doc id for determinism).
fn top_k(acc: &HashMap<DocId, f32>, k: usize) -> ResultEntry {
    let mut docs: Vec<ScoredDoc> = acc
        .iter()
        .map(|(&doc, &score)| ScoredDoc { doc, score })
        .collect();
    docs.sort_unstable_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .expect("scores are finite")
            .then(a.doc.cmp(&b.doc))
    });
    docs.truncate(k);
    ResultEntry { docs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{CorpusSpec, SyntheticIndex};
    use crate::mem::MemIndex;
    use crate::types::IndexReader;

    /// Brute-force reference scorer.
    fn brute_force<R: IndexReader>(index: &R, terms: &[TermId], k: usize) -> Vec<DocId> {
        let mut order: Vec<TermId> = terms.to_vec();
        order.sort_unstable();
        order.dedup();
        let mut acc: HashMap<DocId, f32> = HashMap::new();
        for t in order {
            let idf = index.idf(t);
            for p in index.postings(t).postings() {
                *acc.entry(p.doc).or_insert(0.0) += (weight(p.tf) * idf) as f32;
            }
        }
        top_k(&acc, k).docs.iter().map(|d| d.doc).collect()
    }

    fn exact() -> TopKProcessor {
        TopKProcessor::new(TopKConfig {
            k: 10,
            epsilon: 0.0,
            check_every: 16,
            accumulator_limit: 400,
        })
    }

    #[test]
    fn exact_mode_matches_brute_force_on_mem_index() {
        let docs: Vec<Vec<TermId>> = (0..200u32)
            .map(|d| {
                // Deterministic varied docs.
                (0..(d % 17 + 3)).map(|i| (d * 7 + i * 13) % 50).collect()
            })
            .collect();
        let idx = MemIndex::from_docs(docs);
        let proc = exact();
        for query in [vec![1u32, 2], vec![0], vec![3, 7, 11, 13], vec![49]] {
            let got: Vec<DocId> = proc
                .process(&idx, &query)
                .result
                .docs
                .iter()
                .map(|d| d.doc)
                .collect();
            let want = brute_force(&idx, &query, 10);
            assert_eq!(got, want, "query {query:?}");
        }
    }

    #[test]
    fn exact_mode_matches_brute_force_on_synthetic_index() {
        let idx = SyntheticIndex::new(CorpusSpec::tiny(5));
        let proc = exact();
        for query in [vec![0u32, 100], vec![500, 1500], vec![10, 20, 30]] {
            let got: Vec<DocId> = proc
                .process(&idx, &query)
                .result
                .docs
                .iter()
                .map(|d| d.doc)
                .collect();
            let want = brute_force(&idx, &query, 10);
            assert_eq!(got, want, "query {query:?}");
        }
    }

    #[test]
    fn duplicate_terms_collapse() {
        let idx = SyntheticIndex::new(CorpusSpec::tiny(5));
        let proc = exact();
        let a = proc.process(&idx, &[3, 3, 3]);
        let b = proc.process(&idx, &[3]);
        assert_eq!(a.result, b.result);
        assert_eq!(a.usage.len(), 1);
    }

    #[test]
    fn early_termination_scans_less() {
        let idx = SyntheticIndex::new(CorpusSpec::tiny(5));
        let full = exact().process(&idx, &[0, 1, 2, 300]);
        let et = TopKProcessor::new(TopKConfig {
            k: 10,
            epsilon: 0.5,
            check_every: 16,
            accumulator_limit: 400,
        })
        .process(&idx, &[0, 1, 2, 300]);
        assert!(
            et.postings_scanned() < full.postings_scanned(),
            "{} !< {}",
            et.postings_scanned(),
            full.postings_scanned()
        );
    }

    #[test]
    fn early_termination_preserves_score_quality() {
        // Doc-identity overlap is meaningless here: geometric tf creates
        // large equal-score plateaus, so which plateau member lands in the
        // top-K is arbitrary. The meaningful guarantee is that the ET
        // result's scores are close to the exact ones.
        let idx = SyntheticIndex::new(CorpusSpec::tiny(5));
        let query = vec![0u32, 5, 40, 200];
        let full = exact().process(&idx, &query);
        let et = TopKProcessor::new(TopKConfig {
            k: 10,
            epsilon: 0.3,
            check_every: 16,
            accumulator_limit: 400,
        })
        .process(&idx, &query);
        assert_eq!(et.result.docs.len(), full.result.docs.len());
        // The quit strategy trades score mass for traversal: it forfeits
        // cross-term accumulation on pruned postings. Empirically it
        // scans ~2% of the postings and keeps ~half of the accumulated
        // score — the test pins both sides of that trade so a regression
        // in either direction (quality collapse, or pruning silently
        // disabled) fails.
        for (e, f) in et.result.docs.iter().zip(full.result.docs.iter()) {
            assert!(
                e.score >= 0.4 * f.score,
                "ET score {} collapsed vs exact {}",
                e.score,
                f.score
            );
        }
        assert!(
            et.postings_scanned() * 5 < full.postings_scanned(),
            "pruning must actually prune ({} vs {})",
            et.postings_scanned(),
            full.postings_scanned()
        );
    }

    #[test]
    fn popular_terms_have_lower_utilization() {
        let idx = SyntheticIndex::new(CorpusSpec::tiny(5));
        let proc = TopKProcessor::new(TopKConfig {
            k: 10,
            epsilon: 0.4,
            check_every: 16,
            accumulator_limit: 400,
        });
        // Mix the head term with rare companions that set the bar.
        let out = proc.process(&idx, &[0, 1200, 1300, 1400]);
        let util_of = |t: TermId| {
            out.usage
                .iter()
                .find(|u| u.term == t)
                .expect("term present")
                .utilization()
        };
        assert!(
            util_of(0) < 1.0,
            "the head term's huge list must not be fully scanned"
        );
        assert!(util_of(1400) > util_of(0));
    }

    #[test]
    fn k_larger_than_matches_returns_all() {
        let idx = MemIndex::from_docs(vec![vec![0u32], vec![0], vec![1]]);
        let proc = TopKProcessor::new(TopKConfig {
            k: 50,
            epsilon: 0.0,
            check_every: 0,
            accumulator_limit: 400,
        });
        let out = proc.process(&idx, &[0]);
        assert_eq!(out.result.docs.len(), 2);
    }

    #[test]
    fn empty_query_and_oov_terms() {
        let idx = SyntheticIndex::new(CorpusSpec::tiny(5));
        let proc = exact();
        let out = proc.process(&idx, &[]);
        assert!(out.result.docs.is_empty());
        let out = proc.process(&idx, &[99_999]);
        assert!(out.result.docs.is_empty());
        assert_eq!(out.usage[0].scanned, 0);
        assert_eq!(out.usage[0].utilization(), 0.0);
    }

    #[test]
    fn results_are_sorted_and_deterministic() {
        let idx = SyntheticIndex::new(CorpusSpec::tiny(5));
        let proc = exact();
        let a = proc.process(&idx, &[2, 7]);
        let b = proc.process(&idx, &[7, 2]);
        assert_eq!(a.result, b.result, "term order must not matter");
        assert!(a.result.docs.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn scratch_accumulator_matches_hashmap_reference() {
        // The pooled open-addressed path must be bit-identical to the
        // seed's HashMap path — same docs, same f32 scores, same scan
        // counts — in exact mode and under every pruning rule, across
        // repeated reuse of the same (dirty) scratch table.
        let idx = SyntheticIndex::new(CorpusSpec::tiny(5));
        let configs = [
            TopKConfig::default(),
            TopKConfig {
                k: 10,
                epsilon: 0.0,
                check_every: 16,
                accumulator_limit: 400,
            },
            TopKConfig {
                k: 10,
                epsilon: 0.5,
                check_every: 16,
                accumulator_limit: 40,
            },
            TopKConfig {
                k: 3,
                epsilon: 0.3,
                check_every: 0,
                accumulator_limit: 8,
            },
        ];
        for config in configs {
            let proc = TopKProcessor::new(config);
            for q in 0..40u32 {
                let terms: Vec<TermId> = (0..(q % 4 + 1))
                    .map(|i| (q * 37 + i * 211) % 2000)
                    .collect();
                let fast = proc.process(&idx, &terms);
                let reference = proc.process_reference(&idx, &terms);
                assert_eq!(fast.result, reference.result, "docs/scores for {terms:?}");
                assert_eq!(fast.usage, reference.usage, "scan counts for {terms:?}");
            }
        }
    }

    #[test]
    fn scratch_accumulator_survives_growth() {
        // Force the table through several doublings in one query (exact
        // mode accumulates every matching doc), then reuse it small.
        let docs: Vec<Vec<TermId>> = (0..5000u32).map(|d| vec![d % 3, 3 + d % 7]).collect();
        let idx = MemIndex::from_docs(docs);
        let proc = TopKProcessor::new(TopKConfig {
            k: 20,
            epsilon: 0.0,
            check_every: 64,
            accumulator_limit: 400,
        });
        for terms in [vec![0u32, 1, 2, 3, 4, 5, 6, 7, 8, 9], vec![4], vec![0, 5]] {
            let fast = proc.process(&idx, &terms);
            let reference = proc.process_reference(&idx, &terms);
            assert_eq!(fast.result, reference.result);
            assert_eq!(fast.usage, reference.usage);
        }
    }

    #[test]
    fn blocked_backend_matches_scan_and_reference() {
        // Same sweep as `scratch_accumulator_matches_hashmap_reference`,
        // but pitting the block-compressed backend (with its dirty,
        // reused store) against both reference paths, and checking the
        // block-max accounting actually fires under pruning configs.
        let idx = SyntheticIndex::new(CorpusSpec::tiny(5));
        let configs = [
            TopKConfig::default(),
            TopKConfig {
                k: 10,
                epsilon: 0.0,
                check_every: 16,
                accumulator_limit: 400,
            },
            TopKConfig {
                k: 10,
                epsilon: 0.5,
                check_every: 16,
                accumulator_limit: 40,
            },
            TopKConfig {
                k: 3,
                epsilon: 0.3,
                check_every: 0,
                accumulator_limit: 8,
            },
        ];
        for config in configs {
            let mut blocked = TopKProcessor::new(config);
            blocked.set_backend(PostingsBackend::Blocked);
            let mut scan = TopKProcessor::new(config);
            scan.set_backend(PostingsBackend::Reference);
            let mut pruned_blocks = 0u64;
            // Two passes: the first sees every term cold (scanned
            // uncompressed, nothing encoded), the second sees them warm
            // (store-backed, block-max gated). Outcomes must match the
            // references in both states.
            for pass in 0..2 {
                for q in 0..40u32 {
                    let terms: Vec<TermId> = (0..(q % 4 + 1))
                        .map(|i| (q * 37 + i * 211) % 2000)
                        .collect();
                    let b = blocked.process(&idx, &terms);
                    let s = scan.process(&idx, &terms);
                    let r = scan.process_reference(&idx, &terms);
                    assert_eq!(b.result, s.result, "docs/scores for {terms:?} pass {pass}");
                    assert_eq!(b.usage, s.usage, "scan counts for {terms:?} pass {pass}");
                    assert_eq!(b.result, r.result);
                    assert_eq!(b.usage, r.usage);
                    assert_eq!(s.skip_stats, SkipStats::default(), "reference reports none");
                    pruned_blocks += b.skip_stats.skip_probes;
                }
            }
            if config.epsilon > 0.0 {
                assert!(pruned_blocks > 0, "block-max gate must be exercised");
            }
            let stats = blocked.store_stats();
            assert!(stats.terms > 0 && stats.encoded_bytes > 0);
            assert_eq!(scan.store_stats(), BlockStoreStats::default());
        }
    }

    #[test]
    fn usage_reports_bytes() {
        let u = TermUsage {
            term: 0,
            scanned: 16,
            df: 64,
        };
        assert_eq!(u.bytes_scanned(), 128);
        assert!((u.utilization() - 0.25).abs() < 1e-12);
    }
}
