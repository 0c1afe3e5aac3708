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
#[expect(
    clippy::disallowed_types,
    reason = "std HashMap serves only the seed's Reference arm and the test models checked against it"
)]
use std::collections::HashMap;

use invariant::{audit, Report, Validate};

use crate::blocks::{BlockStore, BlockStoreStats, PostingsBackend, SkipStats, BLOCK_SIZE};
use crate::types::{tf_weight as weight, DocId, IndexReader, ResultEntry, ScoredDoc, TermId};

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

/// Open-addressed score accumulator: a power-of-two table of values with
/// linear probing, a multiplicative (fx-style) hash and one occupancy bit
/// per slot, pooled across queries (no per-query allocation, no SipHash),
/// that also keeps copies of the current best `k` entries in a binary heap.
///
/// Nearly every posting a query scores is a doc the table has not seen,
/// so the insert is what is cheap: a bit test and set in an L1-resident
/// bitmap (all a reset has to clear), one 8-byte store into a table line
/// that is never loaded, one compare against the heap root.
///
/// The heap is ordered by the *final* comparator `(score desc, doc asc)`
/// with the worst member at the root. Scores only grow (every
/// contribution is positive), so an entry inside the heap can only move
/// away from the root and an entry outside it can only displace the
/// root: after every [`ScoreAccumulator::add_run`] the heap is exactly
/// the top-`k` prefix of that total order. The pruning threshold is
/// therefore the root's score and the result is the sorted heap — the
/// same values [`TopKProcessor::process_reference`] re-derives with a
/// selection over the whole `HashMap` at every refresh, ties included.
/// The order is strict (doc ids are distinct), so membership needs no
/// back-pointer either: see [`ScoreAccumulator::raise`].
#[derive(Debug, Clone)]
struct ScoreAccumulator {
    /// The table: a slot's value is meaningful only under a set `occ` bit.
    slots: Vec<ScoredDoc>,
    /// One occupancy bit per slot.
    occ: Vec<u64>,
    /// Occupied slots.
    len: usize,
    /// How many entries the heap retains (the query's K).
    k: usize,
    /// Copies of the best `min(k, len)` entries: a heap, worst at the root.
    heap: Vec<ScoredDoc>,
}

/// Whether `a` ranks after `b` in `(score desc, doc asc)`.
#[inline]
fn worse(a: ScoredDoc, b: ScoredDoc) -> bool {
    a.score < b.score || (a.score == b.score && a.doc > b.doc)
}

/// Fibonacci multiply; the high bits are the well-mixed ones.
#[inline]
fn hash(doc: DocId) -> usize {
    ((doc as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize
}

impl Default for ScoreAccumulator {
    fn default() -> Self {
        ScoreAccumulator::with_capacity(1024)
    }
}

impl ScoreAccumulator {
    fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.next_power_of_two();
        ScoreAccumulator {
            slots: vec![ScoredDoc { doc: 0, score: 0.0 }; capacity],
            occ: vec![0; capacity.div_ceil(64)],
            len: 0,
            k: 0,
            heap: Vec::new(),
        }
    }

    /// Live entries.
    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    /// Reset for the next query (which keeps its best `k`); allocations stay.
    fn reset(&mut self, k: usize) {
        self.occ.fill(0);
        self.len = 0;
        self.heap.clear();
        self.k = k;
    }

    /// Accumulate `delta` (never negative) into `doc`'s score.
    #[inline]
    fn add(&mut self, doc: DocId, delta: f32) {
        self.add_run(std::slice::from_ref(&doc), delta);
    }

    /// Accumulate `delta` (never negative) into every doc of `docs`, in order.
    #[inline]
    fn add_run(&mut self, docs: &[DocId], delta: f32) {
        // One capacity check per run: at worst every doc is new.
        while (self.len + docs.len()) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        for &doc in docs {
            let mut i = hash(doc) & mask;
            // The probe: stop at `doc`'s slot or at the first free one.
            let old = loop {
                let (word, bit) = (i / 64, 1u64 << (i % 64));
                if self.occ[word] & bit == 0 {
                    self.occ[word] |= bit;
                    self.len += 1;
                    break None;
                }
                if self.slots[i].doc == doc {
                    break Some(self.slots[i]);
                }
                i = (i + 1) & mask;
            };
            let score = old.map_or(delta, |old| old.score + delta);
            let new = ScoredDoc { doc, score };
            self.slots[i] = new;
            match old {
                None => self.enter(new),
                Some(old) => self.raise(old, new),
            }
        }
    }

    /// Admit `entry`, which is outside the heap: while there is room,
    /// else only if it beats the current K-th (the root).
    #[inline]
    fn enter(&mut self, entry: ScoredDoc) {
        if self.heap.len() < self.k {
            self.heap.push(entry);
            self.sift_up(self.heap.len() - 1);
        } else if self.heap.first().is_some_and(|&root| worse(root, entry)) {
            self.heap[0] = entry;
            self.sift_down(0);
        }
    }

    /// An accumulated doc went from `old` to `new`. It is a heap member
    /// iff the heap is not full (then every doc is) or `old` does not rank
    /// after the root: rare, so found by scanning the ≤ K copies, and
    /// having got better it can only sink away from the worst-at-root top.
    fn raise(&mut self, old: ScoredDoc, new: ScoredDoc) {
        let member =
            self.heap.len() < self.k || self.heap.first().is_some_and(|&root| !worse(old, root));
        if !member {
            return self.enter(new);
        }
        let at = self.heap.iter().position(|m| m.doc == new.doc);
        let at = at.expect("a doc ranking with the heap is in it");
        self.heap[at] = new;
        self.sift_down(at);
    }

    /// Move the member at heap position `at` towards the root until its
    /// parent is worse.
    fn sift_up(&mut self, mut at: usize) {
        let moving = self.heap[at];
        while at > 0 {
            let parent = (at - 1) / 2;
            if !worse(moving, self.heap[parent]) {
                break;
            }
            self.heap[at] = self.heap[parent];
            at = parent;
        }
        self.heap[at] = moving;
    }

    /// Move the member at heap position `at` away from the root while a
    /// child is worse than it.
    fn sift_down(&mut self, mut at: usize) {
        let moving = self.heap[at];
        loop {
            let mut child = 2 * at + 1;
            if child >= self.heap.len() {
                break;
            }
            if child + 1 < self.heap.len() && worse(self.heap[child + 1], self.heap[child]) {
                child += 1;
            }
            if !worse(self.heap[child], moving) {
                break;
            }
            self.heap[at] = self.heap[child];
            at = child;
        }
        self.heap[at] = moving;
    }

    /// Double the table and re-seat its entries. The heap holds values,
    /// not slots, and needs no fix-up.
    fn grow(&mut self) {
        let grown = ScoreAccumulator::with_capacity(self.slots.len() * 2);
        let slots = std::mem::replace(&mut self.slots, grown.slots);
        let occ = std::mem::replace(&mut self.occ, grown.occ);
        let mask = self.slots.len() - 1;
        for (at, &entry) in slots.iter().enumerate() {
            if (occ[at / 64] >> (at % 64)) & 1 == 1 {
                let mut i = hash(entry.doc) & mask;
                while self.occupied(i) {
                    i = (i + 1) & mask;
                }
                self.occ[i / 64] |= 1 << (i % 64);
                self.slots[i] = entry;
            }
        }
    }

    #[inline]
    fn occupied(&self, slot: usize) -> bool {
        (self.occ[slot / 64] >> (slot % 64)) & 1 == 1
    }

    /// The K-th largest score (0 when fewer than K docs): the heap root.
    #[inline]
    fn kth_largest(&self) -> f64 {
        match self.heap.first() {
            Some(root) if self.heap.len() == self.k => root.score as f64,
            _ => 0.0,
        }
    }

    /// The top K docs, best first: the heap members under `worse`'s order
    /// (`total_cmp` is `<` on the finite, non-negative scores there are).
    fn top_k(&self) -> ResultEntry {
        let mut docs = self.heap.clone();
        docs.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc)));
        ResultEntry { docs }
    }
}

impl Validate for ScoreAccumulator {
    fn validate(&self, report: &mut Report) {
        let (k, len, members) = (self.k, self.len, self.heap.len());
        let mut check = |ok: bool, invariant: &'static str, at: usize| {
            report.check(ok, "ScoreAccumulator", invariant, || {
                format!("at index {at} (k {k}, {len} entries, {members} in the heap)")
            });
        };
        check(members == k.min(len), "heap-len", members);
        let occupied: usize = self.occ.iter().map(|w| w.count_ones() as usize).sum();
        check(occupied == len, "occ-count", occupied);
        let mask = self.slots.len() - 1;
        // Where a lookup of `doc` ends: its slot, or the clear bit that
        // says it is absent.
        let probe = |doc: DocId| {
            let mut i = hash(doc) & mask;
            while self.occupied(i) && self.slots[i].doc != doc {
                i = (i + 1) & mask;
            }
            i
        };
        for (at, &m) in self.heap.iter().enumerate() {
            let parent = self.heap[at.saturating_sub(1) / 2];
            check(at == 0 || worse(parent, m), "heap-order", at);
            let slot = probe(m.doc);
            let current = self.occupied(slot) && self.slots[slot] == m;
            check(current, "heap-member-current", at);
        }
        let root = self.heap.first().copied();
        let mut member_docs: Vec<DocId> = self.heap.iter().map(|m| m.doc).collect();
        member_docs.sort_unstable();
        for slot in (0..self.slots.len()).filter(|&s| self.occupied(s)) {
            let e = self.slots[slot];
            check(probe(e.doc) == slot, "probe-reachable", slot);
            if member_docs.binary_search(&e.doc).is_err() {
                let beaten = root.map_or(k == 0, |r| worse(e, r));
                check(beaten, "heap-is-top-k", slot);
            }
        }
    }
}

/// Pooled per-query working memory, reused across `process` calls.
#[derive(Debug, Clone, Default)]
struct Scratch {
    acc: ScoreAccumulator,
    /// The block a blocked scan regenerated last, as `(docs, runs)` with
    /// ends counted from the block's start — first visits and scans past
    /// the pinned prefix visit one block at a time, so one buffer suffices.
    block_docs: Vec<DocId>,
    block_runs: Vec<(u32, u32)>,
    /// Which `(term, block)` currently sits in the buffer. A list is
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
        let acc = &mut scratch.acc;
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
            result: acc.top_k(),
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
    /// * terms are pinned on their *second* visit — a first visit runs
    ///   the same loop over blocks regenerated one at a time into the
    ///   scratch buffer, so the once-queried Zipf tail never funds a
    ///   build it cannot amortize. Only scans of pinned lists are counted
    ///   in [`SkipStats`] (see there for why);
    /// * only the head [`crate::blocks::HOT_PREFIX`] postings of a list
    ///   are pinned — the impact-ordered region every query re-reads is
    ///   served as doc ids plus equal-tf runs, and the rare block past it
    ///   is regenerated (into the same form) when, and only when, a scan
    ///   gets there;
    /// * per slice, a hoisted check on the *weakest* posting at the
    ///   *largest* possible accumulator proves the (monotone) quit
    ///   predicate cannot fire, letting the per-posting checks drop out:
    ///   the slice is then accumulated a run at a time, one weight (the
    ///   `tf_weight` memoized bit-identically in a [`WeightTable`], times
    ///   the idf) and one [`ScoreAccumulator::add_run`] per run.
    fn process_blocked<R: IndexReader>(&self, index: &R, terms: &[TermId]) -> QueryOutcome {
        let order = Self::keyed_term_order(index, terms);

        let mut store = self.store.borrow_mut();
        let mut scratch = self.scratch.borrow_mut();
        let Scratch {
            acc,
            block_docs,
            block_runs,
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
                let scanned = 0;
                usage.push(TermUsage { term, scanned, df });
                continue;
            }
            let list = store.list_mut(term, df);
            // A first sighting pins nothing (nothing is built, so every
            // block comes through the scratch buffer) and counts nothing;
            // terms that come back pay the build on their second visit
            // and amortize it from there.
            let pinned = list.note_visit();
            let mut term_skips = SkipStats::default();
            let mut scanned = 0u64;
            // The run holding `scanned`, or an earlier one (within a list
            // the cursor only moves forward), and the tf at the current
            // block's first position (every block is entered at its start).
            let (mut cursor, mut block_max_tf) = (0usize, 0u32);
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
                    if pinned {
                        list.ensure(index, term, block_start + 1);
                    }
                    // Serve the block from the pinned prefix when it is
                    // covered; regenerate it (through the one-block
                    // cache) otherwise. Run ends count from `base`, the
                    // list position of `docs[0]`.
                    let block_end = (block_start + BLOCK_SIZE as u64).min(df);
                    let (docs, runs, base) = if block_end <= list.built() {
                        let (docs, runs) = list.pinned();
                        (docs, runs, 0)
                    } else {
                        if *cached_block != Some((term, block)) {
                            block_docs.clear();
                            block_runs.clear();
                            index.runs_range(term, block_start, block_end, block_docs, block_runs);
                            *cached_block = Some((term, block));
                        }
                        cursor = 0;
                        (&block_docs[..], &block_runs[..], block_start)
                    };
                    let lo = (scanned - base) as usize;
                    let hi = (batch_end.min(block_end) - base) as usize;
                    while runs[cursor].0 as usize <= lo {
                        cursor += 1;
                    }
                    if scanned == block_start {
                        block_max_tf = runs[cursor].1;
                    }
                    if self.config.epsilon > 0.0 && acc.len() >= self.config.k {
                        // Block-max gate: the block's first posting
                        // bounds every contribution the block can make.
                        term_skips.skip_probes += 1;
                        let bound = self.weights.get(block_max_tf) * idf;
                        if self.quits(bound, kth_score, acc.len(), is_last) {
                            term_skips.skipped += df - scanned;
                            break 'scan;
                        }
                    }
                    // The slice is positions `lo..hi`: runs `cursor..=last`.
                    let mut last = cursor;
                    while (runs[last].0 as usize) < hi {
                        last += 1;
                    }
                    // Hoisted quit check: the slice's *last* posting at
                    // the *largest* accumulator the slice could produce
                    // is the easiest quit there is (`quits` is monotone
                    // in both); if it cannot fire, nothing in the slice can.
                    let c_min = self.weights.get(runs[last].1) * idf;
                    let check_free = !self.quits(c_min, kth_score, acc.len() + hi - lo, is_last);
                    let mut pos = lo;
                    for &(end, tf) in &runs[cursor..=last] {
                        let run = &docs[pos..hi.min(end as usize)];
                        pos += run.len();
                        // One weight per run, not per posting.
                        let contribution = self.weights.get(tf) * idf;
                        if check_free {
                            acc.add_run(run, contribution as f32);
                            scanned += run.len() as u64;
                            term_skips.visited += run.len() as u64;
                            continue;
                        }
                        for &doc in run {
                            if self.quits(contribution, kth_score, acc.len(), is_last) {
                                term_skips.skipped += df - scanned;
                                break 'scan;
                            }
                            acc.add(doc, contribution as f32);
                            scanned += 1;
                            term_skips.visited += 1;
                        }
                    }
                    cursor = last;
                }
                kth_score = acc.kth_largest();
            }
            kth_score = acc.kth_largest();
            if pinned {
                skip_stats.absorb(term_skips);
            }
            usage.push(TermUsage { term, scanned, df });
        }

        audit!(&*acc, "TopKProcessor::process_blocked");
        QueryOutcome {
            result: acc.top_k(),
            usage,
            skip_stats,
        }
    }

    /// The seed's `HashMap`-accumulator evaluation, kept verbatim as the
    /// reference implementation. [`TopKProcessor::process`] must return
    /// bit-identical outcomes; the equivalence tests and the old-vs-new
    /// Criterion benches run both.
    #[expect(
        clippy::disallowed_types,
        reason = "seed's Reference oracle arm, kept verbatim; its map is read only by kth_largest and top_k, \
              which consume it order-independently"
    )]
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
#[expect(
    clippy::disallowed_types,
    reason = "seed's Reference oracle arm helper; consumes accumulator values order-independently \
              (select_nth on copied scores)"
)]
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
#[expect(
    clippy::disallowed_types,
    reason = "seed's Reference oracle arm helper; sorts candidates with explicit (score, doc-id) \
              tie-breaks, so map order never reaches the output"
)]
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
    #[expect(
        clippy::disallowed_types,
        reason = "the model map is read only through top_k"
    )]
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
        // The blocked backend (with its dirty, reused store and scratch
        // table) must be bit-identical to both reference paths — same
        // docs, same f32 scores, same scan counts — in exact mode and
        // under every pruning rule, and the block-max accounting must
        // actually fire under the pruning configs.
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
            // 4 B per doc id, and at least one 8 B run per built list.
            let held = 4 * stats.built_postings + 8 * stats.terms as u64;
            assert!(stats.terms > 0 && stats.encoded_bytes >= held);
            assert_eq!(scan.store_stats(), BlockStoreStats::default());
        }
    }

    /// Every `add` of `ops` (doc, delta) into `acc`, checked against the
    /// definition: the free `kth_largest` / `top_k` (a `select_nth` over
    /// the whole score multiset, a full `(score desc, doc asc)` sort
    /// truncated to K) over a `HashMap` model, plus the audit.
    #[expect(
        clippy::disallowed_types,
        reason = "the model map is read only through kth_largest and top_k"
    )]
    fn check_adds_against_definition(
        acc: &mut ScoreAccumulator,
        k: usize,
        ops: &[(DocId, f32)],
    ) -> Result<(), proptest::error::TestCaseError> {
        use proptest::prelude::*;
        let mut model: HashMap<DocId, f32> = HashMap::new();
        acc.reset(k);
        for &(doc, delta) in ops {
            acc.add(doc, delta);
            *model.entry(doc).or_insert(0.0) += delta;
            prop_assert_eq!(acc.len(), model.len());
            prop_assert_eq!(acc.kth_largest(), kth_largest(&model, k));
            prop_assert_eq!(acc.top_k(), top_k(&model, k));
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
            // Runs over few docs: repeats across runs and inside one.
            runs in proptest::prop::collection::vec(
                (proptest::prop::collection::vec(0u32..600, 0..200), 0u32..5),
                0..12,
            ),
        ) {
            use proptest::prelude::*;
            const KS: [usize; 5] = [0, 1, 3, 50, 10_000];
            let ops = |raw: &[(u32, u32)]| -> Vec<(DocId, f32)> {
                raw.iter().map(|&(doc, q)| (doc, q as f32 * 0.25)).collect()
            };
            let mut acc = ScoreAccumulator::with_capacity(4);
            check_adds_against_definition(&mut acc, KS[k_first], &ops(&dense))?;
            // Reuse after a reset, grown and dirty, under another K.
            check_adds_against_definition(&mut acc, KS[k_second], &ops(&sparse))?;
            check_adds_against_definition(&mut acc, KS[k_first], &ops(&dense))?;

            // `add_run(run, δ)` is `for d in run { add(d, δ) }` (which the
            // above holds to the definition), though one capacity check per
            // run may double the table earlier than one per add.
            let mut by_doc = ScoreAccumulator::with_capacity(4);
            acc.reset(KS[k_second]);
            by_doc.reset(KS[k_second]);
            for (run, q) in &runs {
                let delta = *q as f32 * 0.25;
                acc.add_run(run, delta);
                run.iter().for_each(|&doc| by_doc.add(doc, delta));
                prop_assert_eq!(acc.len(), by_doc.len());
                prop_assert_eq!(acc.kth_largest(), by_doc.kth_largest());
                prop_assert_eq!(acc.top_k(), by_doc.top_k());
                let report = acc.validation_report();
                prop_assert!(report.is_clean(), "{}", report.summary());
            }
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
        assert_eq!(acc.heap[0].doc, 7);
        acc
    }

    fn violated(acc: &ScoreAccumulator) -> Vec<&'static str> {
        let report = acc.validation_report();
        report.violations().iter().map(|v| v.invariant).collect()
    }

    /// The slot `doc` sits in.
    fn slot_of(acc: &ScoreAccumulator, doc: DocId) -> usize {
        let at = (0..acc.slots.len()).find(|&s| acc.occupied(s) && acc.slots[s].doc == doc);
        at.expect("accumulated")
    }

    #[test]
    fn validator_catches_each_seeded_corruption() {
        // Three members where the query's K keeps four.
        let mut acc = seeded_accumulator();
        acc.k = 4;
        assert_eq!(violated(&acc), ["heap-len"]);

        // The root stops being the worst member (in the table too, so
        // only the order trips).
        let mut acc = seeded_accumulator();
        let slot = slot_of(&acc, 7);
        acc.slots[slot].score = 1e9;
        acc.heap[0].score = 1e9;
        assert_eq!(violated(&acc), ["heap-order", "heap-order"]);

        // A member that missed an update of its doc.
        let mut acc = seeded_accumulator();
        let slot = slot_of(&acc, 9);
        acc.slots[slot].score += 1.0;
        assert_eq!(violated(&acc), ["heap-member-current"]);

        // An entry outside the heap outranks the K-th.
        let mut acc = seeded_accumulator();
        let slot = slot_of(&acc, 2);
        acc.slots[slot].score = 1e9;
        assert_eq!(violated(&acc), ["heap-is-top-k"]);

        // Tie direction: equal score, lower doc id ranks first.
        let mut acc = seeded_accumulator();
        acc.slots[slot].score = acc.heap[0].score;
        assert_eq!(violated(&acc), ["heap-is-top-k"]);

        // A count that lost an insert.
        let mut acc = seeded_accumulator();
        acc.len -= 1;
        assert_eq!(violated(&acc), ["occ-count"]);

        // Two docs in each other's slots: a lookup of either starts at
        // its own home and meets a clear bit before it meets the doc.
        let mut acc = seeded_accumulator();
        let (a, b) = (slot_of(&acc, 0), slot_of(&acc, 1));
        acc.slots.swap(a, b);
        assert_eq!(violated(&acc), ["probe-reachable", "probe-reachable"]);
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
