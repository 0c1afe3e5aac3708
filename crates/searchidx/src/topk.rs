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

use invariant::{audit, Report, Validate};

use crate::blocks::{BlockStore, BlockStoreStats, PostingsBackend, SkipStats, BLOCK_SIZE};
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
    /// postings pruned without reading their block. Diagnostic only — it
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
/// probing and a multiplicative (fx-style) hash, pooled across queries
/// (no per-query allocation, no SipHash, no per-entry boxing), that also
/// keeps the current best `k` entries in an indexed binary heap.
///
/// The heap is ordered by the *final* comparator `(score desc, doc asc)`
/// with the worst member at the root. Scores only grow (every
/// contribution is positive), so an entry inside the heap can only move
/// away from the root and an entry outside it can only displace the
/// root: after every [`ScoreAccumulator::add`] the heap is exactly the
/// top-`k` prefix of that total order. The pruning threshold is
/// therefore the root's score and the result is the sorted heap — the
/// same values [`TopKProcessor::process_reference`] re-derives with a
/// selection over the whole `HashMap` at every refresh, ties included.
#[derive(Debug, Clone)]
struct ScoreAccumulator {
    /// Slot → index into `entries`, [`EMPTY_SLOT`] when free. 4-byte
    /// slots keep the probe array dense; the payload lives once, in
    /// insertion order, in `entries`.
    slots: Vec<u32>,
    mask: usize,
    /// Occupied slot positions — sparse clearing.
    touched: Vec<u32>,
    entries: Vec<AccEntry>,
    /// How many entries the heap retains (the query's K).
    k: usize,
    /// `entries` indices of the best `min(k, len)` entries; a binary
    /// heap whose root is the worst of them.
    heap: Vec<u32>,
}

/// One accumulated document.
#[derive(Debug, Clone, Copy)]
struct AccEntry {
    doc: DocId,
    score: f32,
    /// Position in `heap`, [`EMPTY_SLOT`] while outside it.
    pos: u32,
}

impl AccEntry {
    /// Whether `self` ranks after `other` in `(score desc, doc asc)`.
    #[inline]
    fn worse_than(&self, other: &AccEntry) -> bool {
        self.score < other.score || (self.score == other.score && self.doc > other.doc)
    }
}

/// Free-slot / not-in-heap sentinel (an index, so no doc id is reserved).
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
            k: 0,
            heap: Vec::new(),
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

    /// Reset for the next query (which keeps its best `k`), keeping the
    /// allocations. Sparse occupancy clears only the touched slots.
    fn reset(&mut self, k: usize) {
        if self.touched.len() * 4 < self.slots.len() {
            for &i in &self.touched {
                self.slots[i as usize] = EMPTY_SLOT;
            }
        } else {
            self.slots.fill(EMPTY_SLOT);
        }
        self.touched.clear();
        self.entries.clear();
        self.heap.clear();
        self.k = k;
    }

    /// Accumulate `delta` (never negative) into `doc`'s score.
    #[inline]
    fn add(&mut self, doc: DocId, delta: f32) {
        if self.entries.len() * 2 >= self.slots.len() {
            self.grow();
        }
        let mut i = self.hash(doc);
        let idx = loop {
            let idx = self.slots[i];
            if idx == EMPTY_SLOT {
                self.slots[i] = self.entries.len() as u32;
                self.touched.push(i as u32);
                self.entries.push(AccEntry {
                    doc,
                    score: delta,
                    pos: EMPTY_SLOT,
                });
                break self.entries.len() - 1;
            }
            let e = &mut self.entries[idx as usize];
            if e.doc == doc {
                e.score += delta;
                if e.pos != EMPTY_SLOT {
                    // Already among the best: it got better, so it can
                    // only sink away from the (worst-at-root) top.
                    let pos = e.pos as usize;
                    self.sift_down(pos);
                    return;
                }
                break idx as usize;
            }
            i = (i + 1) & self.mask;
        };
        // `idx` is outside the heap: admit it while there is room, else
        // only if it now beats the current K-th.
        if self.heap.len() < self.k {
            self.heap.push(idx as u32);
            self.sift_up(self.heap.len() - 1);
        } else if let Some(&root) = self.heap.first() {
            if self.entries[root as usize].worse_than(&self.entries[idx]) {
                self.entries[root as usize].pos = EMPTY_SLOT;
                self.heap[0] = idx as u32;
                self.sift_down(0);
            }
        }
    }

    /// Move the member at heap position `at` towards the root until its
    /// parent is worse, recording positions.
    fn sift_up(&mut self, mut at: usize) {
        let idx = self.heap[at];
        let moving = self.entries[idx as usize];
        while at > 0 {
            let parent = (at - 1) / 2;
            let p = self.heap[parent];
            if !moving.worse_than(&self.entries[p as usize]) {
                break;
            }
            self.heap[at] = p;
            self.entries[p as usize].pos = at as u32;
            at = parent;
        }
        self.heap[at] = idx;
        self.entries[idx as usize].pos = at as u32;
    }

    /// Move the member at heap position `at` away from the root while a
    /// child is worse than it, recording positions.
    fn sift_down(&mut self, mut at: usize) {
        let idx = self.heap[at];
        let moving = self.entries[idx as usize];
        loop {
            let mut child = 2 * at + 1;
            if child >= self.heap.len() {
                break;
            }
            let right = child + 1;
            if right < self.heap.len()
                && self.entries[self.heap[right] as usize]
                    .worse_than(&self.entries[self.heap[child] as usize])
            {
                child = right;
            }
            let c = self.heap[child];
            if !self.entries[c as usize].worse_than(&moving) {
                break;
            }
            self.heap[at] = c;
            self.entries[c as usize].pos = at as u32;
            at = child;
        }
        self.heap[at] = idx;
        self.entries[idx as usize].pos = at as u32;
    }

    /// Double the probe array and re-seat the (unchanged) entries.
    fn grow(&mut self) {
        let capacity = (self.slots.len() * 2).next_power_of_two();
        self.slots.clear();
        self.slots.resize(capacity, EMPTY_SLOT);
        self.mask = capacity - 1;
        self.touched.clear();
        for idx in 0..self.entries.len() {
            let mut i = self.hash(self.entries[idx].doc);
            while self.slots[i] != EMPTY_SLOT {
                i = (i + 1) & self.mask;
            }
            self.slots[i] = idx as u32;
            self.touched.push(i as u32);
        }
    }

    /// The K-th largest score (0 when fewer than K docs): the heap root.
    #[inline]
    fn kth_largest(&self) -> f64 {
        match self.heap.first() {
            Some(&root) if self.heap.len() == self.k => self.entries[root as usize].score as f64,
            _ => 0.0,
        }
    }

    /// Extract the top K docs, best first, via a pooled sort buffer: the
    /// heap members under the comparator that ordered the heap.
    fn top_k(&self, docs: &mut Vec<ScoredDoc>) -> ResultEntry {
        docs.clear();
        docs.extend(self.heap.iter().map(|&idx| {
            let e = &self.entries[idx as usize];
            ScoredDoc {
                doc: e.doc,
                score: e.score,
            }
        }));
        docs.sort_unstable_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .expect("scores are finite")
                .then(a.doc.cmp(&b.doc))
        });
        ResultEntry { docs: docs.clone() }
    }
}

impl Validate for ScoreAccumulator {
    fn validate(&self, report: &mut Report) {
        let (k, len, members) = (self.k, self.entries.len(), self.heap.len());
        let mut check = |ok: bool, invariant: &'static str, at: usize| {
            report.check(ok, "ScoreAccumulator", invariant, || {
                format!("at index {at} (k {k}, {len} entries, {members} in the heap)")
            });
        };
        check(members == k.min(len), "heap-len", members);
        if self.heap.iter().any(|&idx| idx as usize >= len) {
            return check(false, "heap-pos-agree", len);
        }
        for (at, &idx) in self.heap.iter().enumerate() {
            let e = &self.entries[idx as usize];
            check(e.pos as usize == at, "heap-pos-agree", at);
            let parent = &self.entries[self.heap[at.saturating_sub(1) / 2] as usize];
            check(at == 0 || parent.worse_than(e), "heap-order", at);
        }
        let root = self.heap.first().map(|&r| self.entries[r as usize]);
        for (idx, e) in self.entries.iter().enumerate() {
            if e.pos == EMPTY_SLOT {
                let beaten = root.map_or(k == 0, |r| e.worse_than(&r));
                check(beaten, "heap-is-top-k", idx);
            } else {
                let held = self.heap.get(e.pos as usize) == Some(&(idx as u32));
                check(held, "pos-heap-agree", idx);
            }
            let mut i = self.hash(e.doc);
            while self.slots[i] != EMPTY_SLOT && self.slots[i] != idx as u32 {
                i = (i + 1) & self.mask;
            }
            check(self.slots[i] == idx as u32, "slot-entry-agree", idx);
        }
        let occupied = self.slots.iter().filter(|&&s| s != EMPTY_SLOT).count();
        let consistent = occupied == len && self.touched.len() == occupied;
        check(consistent, "slot-accounting", occupied);
    }
}

/// Pooled per-query working memory, reused across `process` calls.
#[derive(Debug, Clone, Default)]
struct Scratch {
    acc: ScoreAccumulator,
    /// Sort buffer of [`ScoreAccumulator::top_k`].
    docs: Vec<ScoredDoc>,
    /// The block a blocked scan regenerated last — scans past the pinned
    /// prefix visit one block at a time, so one buffer suffices.
    block_buf: Vec<Posting>,
    /// Which `(term, block)` currently sits in `block_buf`. A list is
    /// immutable until its term is invalidated, so a matching key means
    /// the regeneration can be skipped outright (the batches of one scan
    /// revisit a block); invalidating a term must forget the key with it.
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
/// scratch buffers, and the append-only [`BlockStore`] of pinned list
/// prefixes; all collection state comes through the [`IndexReader`].
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
    /// keeps the store's already-pinned lists for a later switch back.
    pub fn set_backend(&mut self, backend: PostingsBackend) {
        self.backend = backend;
    }

    /// Footprint of the block store (what the blocked backend has pinned
    /// so far).
    pub fn store_stats(&self) -> BlockStoreStats {
        self.store.borrow().stats()
    }

    /// Drop `term`'s pinned list from the block store. Required when the
    /// underlying index is mutable: the store is keyed by term only, so a
    /// changed list would otherwise alias its stale prefix.
    pub fn invalidate_term(&self, term: TermId) -> bool {
        self.scratch.borrow_mut().cached_block = None;
        self.store.borrow_mut().remove(term)
    }

    /// Drop every pinned list (for mutations whose touched-term set is
    /// unknown: tombstone deletes and content-changing compactions).
    pub fn invalidate_all_terms(&self) {
        self.scratch.borrow_mut().cached_block = None;
        self.store.borrow_mut().clear();
    }

    /// Audit every list prefix the processor has pinned so far (bound,
    /// block alignment, block-max soundness).
    pub fn validation_report(&self) -> Report {
        let mut report = Report::new();
        self.store.borrow().validate(&mut report);
        report
    }

    /// Dedup the query's terms and order them rarest (highest-idf) first,
    /// each with its idf: their contributions set a high bar early,
    /// letting long lists terminate sooner.
    fn keyed_term_order<R: IndexReader>(index: &R, terms: &[TermId]) -> Vec<(f64, TermId)> {
        let mut order: Vec<TermId> = terms.to_vec();
        order.sort_unstable();
        order.dedup();
        // One idf per term, not one per comparison: on the live index each
        // is a view lookup and an `ln`.
        let mut keyed: Vec<(f64, TermId)> = order.into_iter().map(|t| (index.idf(t), t)).collect();
        keyed.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("idf is finite"));
        keyed
    }

    /// [`TopKProcessor::keyed_term_order`] without the idfs.
    fn term_order<R: IndexReader>(index: &R, terms: &[TermId]) -> Vec<TermId> {
        let keyed = Self::keyed_term_order(index, terms);
        keyed.into_iter().map(|(_, t)| t).collect()
    }

    /// Postings per threshold refresh before the accumulator outgrows it.
    fn base_chunk(&self) -> u64 {
        if self.config.check_every > 0 {
            self.config.check_every as u64
        } else {
            1024
        }
    }

    /// Whether a scan stops at a posting contributing `contribution`.
    /// Lists are tf-descending, so the contribution is non-increasing:
    /// once it cannot move the K-th score, the rest of the list can't
    /// either. Three pruning rules, all gated on ε > 0 and a full
    /// candidate set:
    ///  1. ε-quit — contribution negligible vs the K-th;
    ///  2. last-term tie — on the final list, an entry that can at best
    ///     tie the K-th cannot change the set;
    ///  3. accumulator quit — with the candidate budget full, a
    ///     contribution that cannot beat the K-th is abandoned
    ///     (Moffat–Zobel "quit").
    ///
    /// Monotone: downward closed in `contribution`, upward in `acc_len`.
    #[inline]
    fn quits(&self, contribution: f64, kth_score: f64, acc_len: usize, is_last: bool) -> bool {
        self.config.epsilon > 0.0
            && acc_len >= self.config.k
            && (contribution < self.config.epsilon * kth_score
                || (is_last && contribution <= kth_score)
                || (acc_len >= self.config.accumulator_limit && contribution <= kth_score))
    }

    /// Scan `term`'s list off the index, fetching postings lazily via
    /// `postings_range` so an early-terminated list only pays for the
    /// prefix it visits; returns the postings scanned. `kth_score` is
    /// refreshed after every batch of `base_chunk.max(|acc|/4)` postings
    /// and once more at the end — [`TopKProcessor::process_reference`]'s
    /// cadence, kept because the quit rules read the threshold stale
    /// between refreshes, which makes the refresh points part of the
    /// figures.
    fn scan_uncompressed<R: IndexReader>(
        &self,
        index: &R,
        (idf, term): (f64, TermId),
        df: u64,
        is_last: bool,
        acc: &mut ScoreAccumulator,
        kth_score: &mut f64,
    ) -> u64 {
        let base_chunk = self.base_chunk();
        let mut scanned = 0u64;
        'scan: while scanned < df {
            let chunk = base_chunk.max(acc.len() as u64 / 4);
            let batch = index.postings_range(term, scanned, scanned + chunk);
            if batch.is_empty() {
                break;
            }
            for p in &batch {
                let contribution = self.weights.get(p.tf) * idf;
                if self.quits(contribution, *kth_score, acc.len(), is_last) {
                    break 'scan;
                }
                acc.add(p.doc, contribution as f32);
                scanned += 1;
            }
            *kth_score = acc.kth_largest();
        }
        *kth_score = acc.kth_largest();
        scanned
    }

    /// Evaluate a disjunctive (OR) query. Terms are processed in
    /// descending-idf order; duplicate terms are collapsed.
    ///
    /// Dispatches on the configured [`PostingsBackend`]; both arms are
    /// bit-identical at the `ResultEntry`/`TermUsage` level (see the
    /// `postings_equivalence` suite and the engine's `postings_lockstep`
    /// test).
    pub fn process<R: IndexReader>(&self, index: &R, terms: &[TermId]) -> QueryOutcome {
        match self.backend {
            PostingsBackend::Reference => self.process_scan(index, terms),
            PostingsBackend::Blocked => self.process_blocked(index, terms),
        }
    }

    /// The unblocked hot path (PR 1): every list through
    /// [`TopKProcessor::scan_uncompressed`] into the pooled scratch
    /// accumulator. Bit-identical to
    /// [`TopKProcessor::process_reference`] — see the equivalence tests.
    fn process_scan<R: IndexReader>(&self, index: &R, terms: &[TermId]) -> QueryOutcome {
        let order = Self::keyed_term_order(index, terms);

        let mut scratch = self.scratch.borrow_mut();
        let Scratch { acc, docs, .. } = &mut *scratch;
        acc.reset(self.config.k);
        let mut usage = Vec::with_capacity(order.len());
        let mut kth_score = 0.0f64;

        let num_terms = order.len();
        for (term_idx, (idf, term)) in order.into_iter().enumerate() {
            let is_last = term_idx + 1 == num_terms;
            let df = index.doc_freq(term);
            let scanned = if df == 0 || idf == 0.0 {
                0
            } else {
                self.scan_uncompressed(index, (idf, term), df, is_last, acc, &mut kth_score)
            };
            usage.push(TermUsage { term, scanned, df });
        }

        audit!(&*acc, "TopKProcessor::process_scan");
        QueryOutcome {
            result: acc.top_k(docs),
            usage,
            skip_stats: SkipStats::default(),
        }
    }

    /// The blocked hot path: scans the pinned prefixes of the block store
    /// instead of regenerating postings through `postings_range` on every
    /// traversal. Structurally a mirror of
    /// [`TopKProcessor::scan_uncompressed`] — same chunking
    /// (`base_chunk.max(|acc|/4)`), same per-batch threshold refresh,
    /// same [`TopKProcessor::quits`] — plus one addition: before a block
    /// is scanned, its block-max bound `weight(first tf) · idf` is tested
    /// against the quit predicate. The predicate is downward closed in
    /// the contribution and canonical order is tf-descending, so
    /// `quits(bound)` implies the reference would quit on this block's
    /// very next posting: skipping the block reproduces the reference's
    /// exact `scanned` count, keeping usage (and every simulated figure
    /// downstream) bit-identical while whole blocks of per-posting checks
    /// *and* generation work disappear.
    ///
    /// Three more mechanisms, none of which can move the figures:
    /// * terms are pinned on their *second* visit (first visits scan
    ///   through `postings_range`, reference-style) — the once-queried
    ///   Zipf tail never funds a build it cannot amortize;
    /// * only the head [`crate::blocks::HOT_PREFIX`] postings of a list
    ///   are pinned — the impact-ordered region every query re-reads is
    ///   served as a plain slice, and the rare block past it is
    ///   regenerated when (and only when) a scan gets there;
    /// * per slice, a hoisted check on the *weakest* posting at the
    ///   *largest* possible accumulator proves the (monotone) quit
    ///   predicate cannot fire, letting the per-posting checks drop out
    ///   of the add loop (`tf_weight` itself is memoized bit-identically
    ///   in a [`WeightTable`]).
    fn process_blocked<R: IndexReader>(&self, index: &R, terms: &[TermId]) -> QueryOutcome {
        let order = Self::keyed_term_order(index, terms);

        let mut store = self.store.borrow_mut();
        let mut scratch = self.scratch.borrow_mut();
        let Scratch {
            acc,
            docs,
            block_buf,
            cached_block,
        } = &mut *scratch;
        acc.reset(self.config.k);
        let mut usage = Vec::with_capacity(order.len());
        let mut skip_stats = SkipStats::default();
        let mut kth_score = 0.0f64;
        let base_chunk = self.base_chunk();

        let num_terms = order.len();
        for (term_idx, (idf, term)) in order.into_iter().enumerate() {
            let is_last = term_idx + 1 == num_terms;
            let df = index.doc_freq(term);
            if df == 0 || idf == 0.0 {
                usage.push(TermUsage {
                    term,
                    scanned: 0,
                    df,
                });
                continue;
            }
            let list = store.list_mut(term, df);
            if !list.note_visit() {
                // First sighting of this term: scan like the reference
                // arm and pin nothing. Under a Zipf log the once-queried
                // tail never repays a build; terms that come back pay it
                // on their second visit and amortize it over every visit
                // after that.
                let scanned =
                    self.scan_uncompressed(index, (idf, term), df, is_last, acc, &mut kth_score);
                usage.push(TermUsage { term, scanned, df });
                continue;
            }
            let mut scanned = 0u64;
            'scan: while scanned < df {
                let chunk = base_chunk.max(acc.len() as u64 / 4);
                let batch_end = (scanned + chunk).min(df);
                while scanned < batch_end {
                    let block = scanned / BLOCK_SIZE as u64;
                    let block_start = block * BLOCK_SIZE as u64;
                    // Pin only this block: if the gate below quits here,
                    // the rest of the batch is never generated — the
                    // reference arm pays `postings_range` for the full
                    // chunk it is about to abandon.
                    list.ensure(index, term, block_start + 1);
                    // Serve the block from the pinned prefix when it is
                    // covered; regenerate it (through the one-block
                    // cache) otherwise.
                    let block_end = (block_start + BLOCK_SIZE as u64).min(df);
                    let buf: &[Posting] = if block_end <= list.built() {
                        &list.hot_prefix()[block_start as usize..block_end as usize]
                    } else {
                        if *cached_block != Some((term, block)) {
                            *block_buf = index.postings_range(term, block_start, block_end);
                            *cached_block = Some((term, block));
                        }
                        block_buf
                    };
                    if self.config.epsilon > 0.0 && acc.len() >= self.config.k {
                        // Block-max gate: canonical order is tf-descending,
                        // so the block's first posting bounds every
                        // contribution the block can make; apply the same
                        // quit predicate the per-posting loop would.
                        skip_stats.skip_probes += 1;
                        let bound = self.weights.get(buf[0].tf) * idf;
                        if self.quits(bound, kth_score, acc.len(), is_last) {
                            skip_stats.skipped += df - scanned;
                            break 'scan;
                        }
                    }
                    let lo = (scanned - block_start) as usize;
                    let hi = ((batch_end - block_start) as usize).min(buf.len());
                    let slice = &buf[lo..hi];
                    // Hoisted quit check: the slice's *last* posting at
                    // the *largest* accumulator the slice could produce
                    // is the easiest quit there is (`quits` is monotone
                    // in both). If even that cannot fire, no posting in
                    // the slice can, and the per-posting checks drop out
                    // of the loop entirely.
                    let check_free = !slice.last().is_some_and(|last| {
                        let c_min = self.weights.get(last.tf) * idf;
                        self.quits(c_min, kth_score, acc.len() + slice.len(), is_last)
                    });
                    if check_free {
                        for p in slice {
                            acc.add(p.doc, (self.weights.get(p.tf) * idf) as f32);
                        }
                        scanned += slice.len() as u64;
                        skip_stats.visited += slice.len() as u64;
                    } else {
                        for p in slice {
                            let contribution = self.weights.get(p.tf) * idf;
                            if self.quits(contribution, kth_score, acc.len(), is_last) {
                                skip_stats.skipped += df - scanned;
                                break 'scan;
                            }
                            acc.add(p.doc, contribution as f32);
                            scanned += 1;
                            skip_stats.visited += 1;
                        }
                    }
                }
                kth_score = acc.kth_largest();
            }
            kth_score = acc.kth_largest();
            usage.push(TermUsage { term, scanned, df });
        }

        audit!(&*acc, "TopKProcessor::process_blocked");
        QueryOutcome {
            result: acc.top_k(docs),
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
    use crate::blocks::HOT_PREFIX;
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
        // but pitting the blocked backend (with its dirty,
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
            // Two passes: the first sees every term cold (scanned off
            // the index, nothing pinned), the second sees them warm
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

    /// Every `add` of `ops` (doc, delta) into `acc`, checked against the
    /// definition: the free `kth_largest` / `top_k` (a `select_nth` over
    /// the whole score multiset, a full `(score desc, doc asc)` sort
    /// truncated to K) over a `HashMap` model, plus the audit.
    fn check_adds_against_definition(
        acc: &mut ScoreAccumulator,
        k: usize,
        ops: &[(DocId, f32)],
    ) -> Result<(), proptest::error::TestCaseError> {
        use proptest::prelude::*;
        let mut model: HashMap<DocId, f32> = HashMap::new();
        let mut docs = Vec::new();
        acc.reset(k);
        for &(doc, delta) in ops {
            acc.add(doc, delta);
            *model.entry(doc).or_insert(0.0) += delta;
            prop_assert_eq!(acc.len(), model.len());
            prop_assert_eq!(acc.kth_largest(), kth_largest(&model, k));
            prop_assert_eq!(acc.top_k(&mut docs), top_k(&model, k));
            let report = acc.validation_report();
            prop_assert!(report.is_clean(), "{}", report.summary());
        }
        Ok(())
    }

    proptest::proptest! {
        #[test]
        fn heap_matches_selection_after_every_add(
            // Few docs: repeated adds to in-heap and out-of-heap entries.
            // Quarter-step deltas: exact f32 sums, so equal scores (and
            // doc-id ties at the K-th boundary) are the common case.
            dense in proptest::prop::collection::vec((0u32..40, 0u32..5), 0..300),
            // Many docs: the 4-slot table doubles half a dozen times.
            sparse in proptest::prop::collection::vec((0u32..100_000, 0u32..5), 0..300),
            k_first in 0usize..5,
            k_second in 0usize..5,
        ) {
            const KS: [usize; 5] = [0, 1, 3, 50, 10_000];
            let ops = |raw: &[(u32, u32)]| -> Vec<(DocId, f32)> {
                raw.iter().map(|&(doc, q)| (doc, q as f32 * 0.25)).collect()
            };
            let mut acc = ScoreAccumulator::with_capacity(4);
            check_adds_against_definition(&mut acc, KS[k_first], &ops(&dense))?;
            // Reuse after a reset, grown and dirty, under another K.
            check_adds_against_definition(&mut acc, KS[k_second], &ops(&sparse))?;
            check_adds_against_definition(&mut acc, KS[k_first], &ops(&dense))?;
        }
    }

    /// Ten docs with distinct scores under K = 3: docs 7, 8, 9 in the
    /// heap (root = doc 7), the rest outside.
    fn seeded_accumulator() -> ScoreAccumulator {
        let mut acc = ScoreAccumulator::with_capacity(4);
        acc.reset(3);
        for doc in 0..10u32 {
            acc.add(doc, 1.0 + doc as f32);
        }
        assert!(acc.validation_report().is_clean());
        assert_eq!(acc.entries[acc.heap[0] as usize].doc, 7);
        acc
    }

    fn violated(acc: &ScoreAccumulator) -> Vec<&'static str> {
        let report = acc.validation_report();
        report.violations().iter().map(|v| v.invariant).collect()
    }

    #[test]
    fn validator_catches_each_seeded_corruption() {
        let mut acc = seeded_accumulator();
        let dropped = acc.heap.pop().expect("three members");
        acc.entries[dropped as usize].pos = EMPTY_SLOT;
        assert!(violated(&acc).contains(&"heap-len"));

        let mut acc = seeded_accumulator();
        acc.heap.swap(1, 2);
        assert!(violated(&acc).contains(&"heap-pos-agree"));

        // The root stops being the worst member.
        let mut acc = seeded_accumulator();
        let root = acc.heap[0] as usize;
        acc.entries[root].score = 1e9;
        assert_eq!(violated(&acc), ["heap-order", "heap-order"]);

        // An entry outside the heap outranks the K-th.
        let mut acc = seeded_accumulator();
        acc.entries[2].score = 1e9;
        assert_eq!(violated(&acc), ["heap-is-top-k"]);

        // Tie direction: equal score, lower doc id ranks first.
        let mut acc = seeded_accumulator();
        acc.entries[2].score = acc.entries[7].score;
        assert_eq!(violated(&acc), ["heap-is-top-k"]);

        let mut acc = seeded_accumulator();
        acc.entries[2].pos = 0;
        assert_eq!(violated(&acc), ["pos-heap-agree"]);

        let mut acc = seeded_accumulator();
        let slot = acc.hash(4);
        acc.slots[slot] = EMPTY_SLOT;
        assert!(violated(&acc).contains(&"slot-entry-agree"));

        let mut acc = seeded_accumulator();
        acc.touched.pop();
        assert_eq!(violated(&acc), ["slot-accounting"]);
    }

    #[test]
    fn invalidation_forgets_the_decoded_block() {
        // One df-4200 list: its last block, 32, is the first past the
        // pinned HOT_PREFIX, so a full scan leaves it (regenerated) in the
        // one-block cache. The second index keeps the df and changes only
        // the tail docs (tf 1 everywhere, so canonical order is doc
        // order); K covers the whole list so the tail reaches the result.
        let list_of = |tail_from: u32| -> Vec<Vec<TermId>> {
            (0..4300u32)
                .map(|d| {
                    let has = d < 4100 || (tail_from..tail_from + 100).contains(&d);
                    vec![if has { 0 } else { 1 }]
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
