//! The segmented, mutable index: frozen base + sealed segments + write
//! segment + tombstones, served through a single [`IndexReader`] view.
//!
//! Layering (oldest to newest):
//!
//! ```text
//!   base (segment 0, immutable reader B)      docs [0, base_docs)
//!   sealed segments (immutable, id ≥ 1)       docs [base_docs, …)
//!   write segment (mutable, in memory)        docs […, next_doc)
//!   tombstones (global doc-id set)            filter over everything
//! ```
//!
//! Queries see the **merged view**: per-term, the tombstone-filtered
//! k-way merge of every layer's canonical tf-descending list, with ties
//! broken by layer order (base first, then sealed in doc-range order,
//! then write) so the merge is stable — the postings a query takes from
//! a layer are always a *prefix* of that layer's own canonical order,
//! which is what lets the engine charge per-segment partial reads
//! exactly.
//!
//! The view is **lazy**: per term only the small merge of the delta
//! layers (sealed + write; ingested documents only) is built eagerly.
//! The merged list itself is generated as a prefix, extended on demand
//! by a two-way merge that pulls the base through `postings_range` in
//! chunks — a query after a mutation pays for the postings it scans,
//! the term's delta postings and the tombstones it has not seen yet,
//! never for the whole list.
//!
//! **Pristine fast path:** until the first mutation, every reader method
//! delegates straight to the base, so an index that is never mutated —
//! every engine with `IndexMutability::Frozen` — reads exactly what the
//! bare base would. The engine's `golden_ledger` pins that branch.

use std::cell::{RefCell, RefMut};

use fxmap::{FxHashMap, FxHashSet};
use invariant::{Report, Validate};
use simclock::SimTime;

use crate::blocks::append_runs;
use crate::types::{DocId, IndexReader, Posting, PostingList, TermId, POSTING_BYTES};

use super::sealed::SealedSegment;
use super::wal::{Lsn, WalOp, WriteAheadLog};
use super::write::{GrowthPolicy, GrowthStats, WriteSegment};
use super::{SegmentId, BASE_SEGMENT, WRITE_SEGMENT};

/// Segment-lifecycle knobs of a live index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentPolicy {
    /// Seal the write segment once it holds this many documents.
    pub seal_threshold_docs: u64,
    /// Compact once this many sealed segments accumulate (the oldest
    /// `compact_fanin` are merged).
    pub compact_fanin: usize,
    /// How write-segment postings grow (contiguous doubling is the
    /// one policy).
    pub growth: GrowthPolicy,
}

impl Default for SegmentPolicy {
    fn default() -> Self {
        SegmentPolicy {
            seal_threshold_docs: 128,
            compact_fanin: 4,
            growth: GrowthPolicy::Contiguous,
        }
    }
}

/// Cumulative mutation ledger (adds, WAL, seals, merges).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MutationStats {
    /// Documents accepted.
    pub docs_added: u64,
    /// Documents tombstoned.
    pub docs_deleted: u64,
    /// WAL records appended.
    pub wal_records: u64,
    /// WAL bytes appended (lifetime).
    pub wal_bytes: u64,
    /// Write segments sealed.
    pub seals: u64,
    /// List bytes frozen into sealed segments.
    pub seal_bytes: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// List bytes read by compactions.
    pub merge_bytes_read: u64,
    /// List bytes written by compactions.
    pub merge_bytes_written: u64,
    /// Tombstones physically resolved by compactions.
    pub tombstones_cleared: u64,
    /// Write-segment growth ledger (cumulative across seals).
    pub growth: GrowthStats,
}

/// Result of accepting a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddOutcome {
    /// The slot assigned (never reused).
    pub doc: DocId,
    /// WAL record sequence number.
    pub lsn: Lsn,
    /// WAL bytes to charge to the device.
    pub wal_bytes: u64,
}

/// Result of a tombstone delete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeleteOutcome {
    /// Whether the document was alive (false: unknown/already dead; no
    /// WAL record is written).
    pub deleted: bool,
    /// WAL bytes to charge (0 when not deleted).
    pub wal_bytes: u64,
}

/// Result of sealing the write segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SealOutcome {
    /// Id of the new sealed segment.
    pub segment: SegmentId,
    /// Documents it holds.
    pub docs: u64,
    /// List bytes to persist (the segment image the engine writes).
    pub bytes: u64,
    /// WAL bytes for the seal record.
    pub wal_bytes: u64,
}

/// Result of one compaction round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactOutcome {
    /// Retired input segments, ascending.
    pub inputs: Vec<SegmentId>,
    /// The replacement segment.
    pub output: SegmentId,
    /// List bytes read from the inputs.
    pub bytes_read: u64,
    /// List bytes written to the output.
    pub bytes_written: u64,
    /// Tombstones physically resolved (their docs dropped for good).
    pub tombstones_cleared: u64,
    /// Whether any query-visible list content changed (only true when
    /// tombstoned postings were dropped; a pure concatenation merge is
    /// invisible to queries).
    pub content_changed: bool,
    /// WAL bytes for the compact record.
    pub wal_bytes: u64,
}

/// What changed since the engine last synchronized its per-term caches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtyTerms {
    /// Everything is suspect (deletes and content-changing compactions:
    /// a tombstone filters *every* list its doc appears in, and the doc's
    /// terms are unknown by design).
    pub all: bool,
    /// Specific touched terms (from adds), ascending, deduplicated.
    pub terms: Vec<TermId>,
}

/// One layer's share of a partially scanned merged list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UsagePart {
    /// [`BASE_SEGMENT`], a sealed id, or [`WRITE_SEGMENT`].
    pub segment: SegmentId,
    /// Postings the query took from this layer (a prefix of the layer's
    /// canonical list).
    pub scanned: u64,
    /// The layer's document frequency for the term.
    pub df: u64,
}

/// Views kept at most; reaching it drops them all (they rebuild lazily).
const VIEW_CAP: usize = 4096;

/// Fewest base postings one pull asks the base for.
const BASE_CHUNK: u64 = 64;

/// What the index remembers about one queried term.
#[derive(Debug, Default)]
struct TermView {
    /// How much of `LiveIndex::base_tombstones` this term has been
    /// probed for.
    tombstones_seen: usize,
    /// Base positions of this term's tombstoned base docs, ascending.
    /// Base tombstones are never cleared, so these outlive every merge.
    base_dead: Vec<u64>,
    /// The lazily merged list; `None` once a mutation made it stale.
    merge: Option<LazyMerge>,
}

/// A term's merged list, generated as a prefix on demand.
#[derive(Debug)]
struct LazyMerge {
    /// `(segment, live df)` per contributing layer, in merge-priority
    /// order; the base is always first.
    parts: Vec<(SegmentId, u64)>,
    /// Tombstone-filtered stable merge of the delta layers, each posting
    /// with its index into `parts`.
    delta: Vec<(Posting, u32)>,
    /// Delta postings already merged into the prefix.
    delta_taken: usize,
    /// Raw base positions already pulled.
    base_pulled: u64,
    /// Live base postings pulled but not merged yet, and how many of
    /// them the prefix has taken.
    pending: Vec<Posting>,
    pending_taken: usize,
    /// The merged prefix generated so far, and each posting's index into
    /// `parts`.
    postings: Vec<Posting>,
    origin: Vec<u32>,
}

impl LazyMerge {
    fn df(&self) -> u64 {
        self.parts.iter().map(|&(_, df)| df).sum()
    }

    /// Grow the prefix to `min(len, df)` postings: a stable two-way merge
    /// of the live base stream and the delta, the base winning ties.
    /// `base_dead` holds the base positions to skip.
    fn extend_to<B: IndexReader>(&mut self, base: &B, term: TermId, base_dead: &[u64], len: u64) {
        let len = len.min(self.df()) as usize;
        let base_df = base.doc_freq(term);
        while self.postings.len() < len {
            if self.pending_taken == self.pending.len() && self.base_pulled < base_df {
                let from = self.base_pulled;
                let want = ((len - self.postings.len()) as u64).max(BASE_CHUNK);
                let to = (from + want).min(base_df);
                self.pending = base.postings_range(term, from, to);
                let dead = base_dead.partition_point(|&p| p < from)
                    ..base_dead.partition_point(|&p| p < to);
                for &p in base_dead[dead].iter().rev() {
                    self.pending.remove((p - from) as usize);
                }
                self.pending_taken = 0;
                self.base_pulled = to;
                continue;
            }
            let base_head = self.pending.get(self.pending_taken);
            let delta_head = self.delta.get(self.delta_taken);
            match (base_head, delta_head) {
                (Some(b), d) if d.is_none_or(|(d, _)| b.tf >= d.tf) => {
                    self.postings.push(*b);
                    self.origin.push(0);
                    self.pending_taken += 1;
                }
                (_, Some(&(d, part))) => {
                    self.postings.push(d);
                    self.origin.push(part);
                    self.delta_taken += 1;
                }
                (_, None) => unreachable!("df counts only postings a layer holds"),
            }
        }
    }
}

/// The segmented mutable index over an immutable base reader.
#[derive(Debug)]
pub struct LiveIndex<B> {
    base: B,
    base_docs: u64,
    vocab: u64,
    policy: SegmentPolicy,
    wal: WriteAheadLog,
    sealed: Vec<SealedSegment>,
    write: WriteSegment,
    /// Docs tombstoned but not yet physically dropped by a compaction.
    tombstones: FxHashSet<DocId>,
    /// Every doc ever deleted (tombstoned *or* already compacted away) —
    /// the aliveness/resurrection oracle.
    dead: FxHashSet<DocId>,
    tombstones_cleared: u64,
    next_doc: DocId,
    next_segment: SegmentId,
    retired: Vec<SegmentId>,
    /// Sticky: set on the first mutation, never cleared. While false the
    /// reader delegates wholesale to the base.
    mutated: bool,
    dirty: DirtyTerms,
    growth_sealed: GrowthStats,
    stats: MutationStats,
    /// Every tombstoned base doc, in delete order (compaction never
    /// covers the base range, so none is ever cleared).
    base_tombstones: Vec<DocId>,
    views: RefCell<FxHashMap<TermId, TermView>>,
}

impl<B: IndexReader> LiveIndex<B> {
    /// Wrap `base` as segment 0 of a live index.
    pub fn new(base: B, policy: SegmentPolicy) -> Self {
        let base_docs = base.num_docs();
        let vocab = base.num_terms();
        let next_doc = base_docs as DocId;
        LiveIndex {
            base,
            base_docs,
            vocab,
            policy,
            wal: WriteAheadLog::new(),
            sealed: Vec::new(),
            write: WriteSegment::new(next_doc),
            tombstones: FxHashSet::default(),
            dead: FxHashSet::default(),
            tombstones_cleared: 0,
            next_doc,
            next_segment: 1,
            retired: Vec::new(),
            mutated: false,
            dirty: DirtyTerms::default(),
            growth_sealed: GrowthStats::default(),
            stats: MutationStats::default(),
            base_tombstones: Vec::new(),
            views: RefCell::new(FxHashMap::default()),
        }
    }

    /// The wrapped base reader (segment 0).
    pub fn base(&self) -> &B {
        &self.base
    }

    /// Segment-lifecycle knobs.
    pub fn policy(&self) -> &SegmentPolicy {
        &self.policy
    }

    /// Whether no mutation has ever been applied (the bit-identity fast
    /// path is still active).
    pub fn is_pristine(&self) -> bool {
        !self.mutated
    }

    /// The cumulative mutation ledger.
    pub fn stats(&self) -> MutationStats {
        let mut s = self.stats;
        s.wal_records = self.wal.next_lsn();
        s.wal_bytes = self.wal.total_bytes();
        s.tombstones_cleared = self.tombstones_cleared;
        s.growth = GrowthStats {
            appended: self.growth_sealed.appended + self.write.growth_stats().appended,
            reallocs: self.growth_sealed.reallocs + self.write.growth_stats().reallocs,
            copied: self.growth_sealed.copied + self.write.growth_stats().copied,
        };
        s
    }

    /// Whether `doc` exists and has not been deleted.
    pub fn doc_alive(&self, doc: DocId) -> bool {
        doc < self.next_doc && !self.dead.contains(&doc)
    }

    /// Active sealed-segment ids, ascending.
    pub fn sealed_ids(&self) -> Vec<SegmentId> {
        self.sealed.iter().map(|s| s.id()).collect()
    }

    /// An active sealed segment by id.
    pub fn sealed_segment(&self, id: SegmentId) -> Option<&SealedSegment> {
        self.sealed.iter().find(|s| s.id() == id)
    }

    /// Segments retired by compaction (their cached lists are dead).
    pub fn retired_ids(&self) -> &[SegmentId] {
        &self.retired
    }

    /// The WAL (read-only; the engine charges its bytes).
    pub fn wal(&self) -> &WriteAheadLog {
        &self.wal
    }

    /// Take the accumulated dirty-term set (engine synchronizes its
    /// per-term caches, e.g. the blocked-postings store, from this).
    pub fn take_dirty(&mut self) -> DirtyTerms {
        std::mem::take(&mut self.dirty)
    }

    /// Drop every term's merged list: the delta layers changed shape
    /// (seal, compaction) or lost a document whose terms are unknown.
    fn drop_merges(&mut self) {
        for view in self.views.get_mut().values_mut() {
            view.merge = None;
        }
    }

    /// Accept a document. `terms` must be distinct, ascending, in-vocab
    /// `(term, tf)` pairs with positive tf.
    pub fn add_document(&mut self, at: SimTime, terms: &[(TermId, u32)]) -> AddOutcome {
        debug_assert!(
            terms.windows(2).all(|w| w[0].0 < w[1].0),
            "terms not ascending"
        );
        debug_assert!(terms
            .iter()
            .all(|&(t, tf)| (t as u64) < self.vocab && tf > 0));
        let doc = self.next_doc;
        let (lsn, wal_bytes) = self.wal.append(
            at,
            WalOp::AddDoc {
                doc,
                terms: terms.to_vec(),
            },
        );
        let assigned = self.write.add_doc(terms);
        debug_assert_eq!(assigned, doc);
        self.next_doc += 1;
        self.stats.docs_added += 1;
        self.mutated = true;
        let views = self.views.get_mut();
        for (t, _) in terms {
            if let Some(view) = views.get_mut(t) {
                view.merge = None;
            }
        }
        if !self.dirty.all {
            for &(t, _) in terms {
                if let Err(i) = self.dirty.terms.binary_search(&t) {
                    self.dirty.terms.insert(i, t);
                }
            }
        }
        AddOutcome {
            doc,
            lsn,
            wal_bytes,
        }
    }

    /// Tombstone a document. Idempotent: deleting a dead or unknown doc
    /// is a no-op that writes nothing.
    pub fn delete_document(&mut self, at: SimTime, doc: DocId) -> DeleteOutcome {
        if !self.doc_alive(doc) {
            return DeleteOutcome {
                deleted: false,
                wal_bytes: 0,
            };
        }
        let (_, wal_bytes) = self.wal.append(at, WalOp::Delete { doc });
        self.tombstones.insert(doc);
        self.dead.insert(doc);
        self.stats.docs_deleted += 1;
        self.mutated = true;
        if (doc as u64) < self.base_docs {
            // Each view probes the base for it when next read.
            self.base_tombstones.push(doc);
        } else {
            self.drop_merges();
        }
        self.dirty.all = true;
        self.dirty.terms.clear();
        DeleteOutcome {
            deleted: true,
            wal_bytes,
        }
    }

    /// Whether the write segment has reached the seal threshold.
    pub fn seal_due(&self) -> bool {
        self.write.num_docs() >= self.policy.seal_threshold_docs
    }

    /// Freeze the write segment into a sealed segment (no-op when empty).
    /// The WAL is checkpointed: records at or below the seal are covered
    /// by segment state.
    pub fn seal(&mut self, at: SimTime) -> Option<SealOutcome> {
        if self.write.is_empty() {
            return None;
        }
        let id = self.next_segment;
        self.next_segment += 1;
        let seg = SealedSegment::from_write(id, &self.write, self.vocab);
        let docs = self.write.num_docs();
        let bytes = seg.bytes();
        let g = self.write.growth_stats();
        self.growth_sealed.appended += g.appended;
        self.growth_sealed.reallocs += g.reallocs;
        self.growth_sealed.copied += g.copied;
        let (lsn, wal_bytes) = self.wal.append(at, WalOp::Seal { segment: id, docs });
        self.wal.truncate_below(lsn);
        self.sealed.push(seg);
        self.write = WriteSegment::new(self.next_doc);
        self.stats.seals += 1;
        self.stats.seal_bytes += bytes;
        // Content of the merged view is unchanged (stable merge): the
        // sealed lists equal the write-segment lists they froze. Only
        // origin attribution moves, so no terms go dirty.
        self.mutated = true;
        self.drop_merges();
        Some(SealOutcome {
            segment: id,
            docs,
            bytes,
            wal_bytes,
        })
    }

    /// Whether enough sealed segments have accumulated to compact.
    pub fn compaction_due(&self) -> bool {
        self.sealed.len() >= self.policy.compact_fanin
    }

    /// Merge the oldest `compact_fanin` sealed segments into one,
    /// physically dropping tombstoned docs in their ranges.
    pub fn compact(&mut self, at: SimTime) -> Option<CompactOutcome> {
        let fanin = self.policy.compact_fanin.max(2);
        if self.sealed.len() < 2 {
            return None;
        }
        let take = fanin.min(self.sealed.len());
        let inputs: Vec<SealedSegment> = self.sealed.drain(..take).collect();
        let input_ids: Vec<SegmentId> = inputs.iter().map(|s| s.id()).collect();
        let bytes_read: u64 = inputs.iter().map(|s| s.bytes()).sum();
        let id = self.next_segment;
        self.next_segment += 1;
        let refs: Vec<&SealedSegment> = inputs.iter().collect();
        let (out, mstats) = SealedSegment::merge(id, &refs, &self.tombstones);
        let bytes_written = out.bytes();
        for d in &mstats.docs_dropped {
            self.tombstones.remove(d);
        }
        let cleared = mstats.docs_dropped.len() as u64;
        self.tombstones_cleared += cleared;
        let content_changed = cleared > 0;
        let (lsn, wal_bytes) = self.wal.append(
            at,
            WalOp::Compact {
                inputs: input_ids.clone(),
                output: id,
            },
        );
        self.wal.truncate_below(lsn);
        self.sealed.insert(0, out);
        self.retired.extend_from_slice(&input_ids);
        self.stats.compactions += 1;
        self.stats.merge_bytes_read += bytes_read;
        self.stats.merge_bytes_written += bytes_written;
        self.mutated = true;
        self.drop_merges();
        if content_changed {
            self.dirty.all = true;
            self.dirty.terms.clear();
        }
        Some(CompactOutcome {
            inputs: input_ids,
            output: id,
            bytes_read,
            bytes_written,
            tombstones_cleared: cleared,
            content_changed,
            wal_bytes,
        })
    }

    /// Split a partial scan of `term`'s merged list into per-layer
    /// prefixes. `None` while pristine: everything came from the base.
    pub fn split_usage(&self, term: TermId, scanned: u64) -> Option<Vec<UsagePart>> {
        if self.is_pristine() {
            return None;
        }
        let merged = self.merged_prefix(term, scanned);
        let take = (scanned as usize).min(merged.origin.len());
        let mut counts = vec![0u64; merged.parts.len()];
        for &o in &merged.origin[..take] {
            counts[o as usize] += 1;
        }
        let parts = merged.parts.iter().zip(&counts);
        Some(
            parts
                .filter(|&(_, &c)| c > 0)
                .map(|(&(segment, df), &c)| UsagePart {
                    segment,
                    scanned: c,
                    df,
                })
                .collect(),
        )
    }

    /// `term`'s merged list with at least `min(len, df)` postings of its
    /// prefix generated.
    fn merged_prefix(&self, term: TermId, len: u64) -> RefMut<'_, LazyMerge> {
        let mut views = self.views.borrow_mut();
        if views.len() >= VIEW_CAP && !views.contains_key(&term) {
            views.clear();
        }
        RefMut::map(views, |views| {
            let view = views.entry(term).or_default();
            for &doc in &self.base_tombstones[view.tombstones_seen..] {
                if let Some(pos) = self.base.position_of(term, doc) {
                    let at = view.base_dead.partition_point(|&p| p < pos);
                    view.base_dead.insert(at, pos);
                    view.merge = None;
                }
            }
            view.tombstones_seen = self.base_tombstones.len();
            let base_live = self.base.doc_freq(term) - view.base_dead.len() as u64;
            let merge = view
                .merge
                .get_or_insert_with(|| self.merge_delta(term, base_live));
            merge.extend_to(&self.base, term, &view.base_dead, len);
            merge
        })
    }

    /// Positions `[start, end)` of `term`'s merged list (clamped to it).
    fn merged_range(&self, term: TermId, start: u64, end: u64) -> RefMut<'_, [Posting]> {
        RefMut::map(self.merged_prefix(term, end), |merged| {
            let len = merged.postings.len() as u64;
            &mut merged.postings[start.min(len) as usize..end.min(len) as usize]
        })
    }

    /// A fresh merged list for `term`: the delta layers merged, no
    /// prefix generated yet.
    fn merge_delta(&self, term: TermId, base_live: u64) -> LazyMerge {
        // Layers in priority order: base, then sealed segments in
        // doc-range order (`self.sealed` is maintained doc-ascending:
        // seals append, compaction outputs re-enter at the front), then
        // the write segment. Doc order — not id order — is what keeps
        // the merge stable across compactions: a merged segment slots in
        // exactly where its inputs were.
        let mut parts = vec![(BASE_SEGMENT, base_live)];
        let mut delta = Vec::new();
        let write = self.write.postings(term);
        let sealed = self
            .sealed
            .iter()
            .filter_map(|seg| Some((seg.id(), seg.list(term)?)));
        for (segment, list) in sealed.chain([(WRITE_SEGMENT, &write)]) {
            // Tombstone filter before the merge, so df per layer is live.
            let before = delta.len();
            let part = parts.len() as u32;
            let live = list.postings().iter();
            delta.extend(
                live.filter(|p| !self.tombstones.contains(&p.doc))
                    .map(|&p| (p, part)),
            );
            if delta.len() > before {
                parts.push((segment, (delta.len() - before) as u64));
            }
        }
        // Each layer is tf-descending, so a stable sort of their
        // concatenation is their k-way merge with ties to the earlier
        // layer, each layer's internal order kept.
        delta.sort_by_key(|&(p, _)| std::cmp::Reverse(p.tf));
        LazyMerge {
            parts,
            delta,
            delta_taken: 0,
            base_pulled: 0,
            pending: Vec::new(),
            pending_taken: 0,
            postings: Vec::new(),
            origin: Vec::new(),
        }
    }

    /// Corruption hook: break WAL monotonicity.
    #[doc(hidden)]
    pub fn debug_break_wal(&mut self) {
        self.wal.debug_break_lsn();
    }

    /// Corruption hook: make the newest sealed segment's range collide
    /// with its neighbours. Panics if nothing is sealed.
    #[doc(hidden)]
    pub fn debug_overlap_segments(&mut self) {
        let seg = self.sealed.last_mut().expect("a sealed segment to corrupt");
        seg.debug_shift_range(DocId::MAX - 1_000);
    }

    /// Corruption hook: drop a tombstone without accounting for it
    /// (breaking delete conservation). Panics if no tombstones exist.
    #[doc(hidden)]
    pub fn debug_leak_tombstone(&mut self) {
        let &doc = self.tombstones.iter().next().expect("a tombstone to leak");
        self.tombstones.remove(&doc);
    }
}

impl<B: IndexReader> IndexReader for LiveIndex<B> {
    fn num_docs(&self) -> u64 {
        if self.is_pristine() {
            self.base.num_docs()
        } else {
            // Document *slots*: deletes do not shrink the collection
            // size (idf stays monotonic; slots are never renumbered).
            self.base_docs + self.stats.docs_added
        }
    }

    fn num_terms(&self) -> u64 {
        self.vocab
    }

    fn doc_freq(&self, term: TermId) -> u64 {
        if self.is_pristine() {
            self.base.doc_freq(term)
        } else {
            self.merged_prefix(term, 0).df()
        }
    }

    fn postings(&self, term: TermId) -> PostingList {
        if self.is_pristine() {
            self.base.postings(term)
        } else {
            let merged = self.merged_prefix(term, u64::MAX);
            PostingList::from_sorted(term, merged.postings.clone())
        }
    }

    // The pristine branch is every never-mutated engine's read path.
    fn postings_range(&self, term: TermId, start: u64, end: u64) -> Vec<Posting> {
        if self.is_pristine() {
            self.base.postings_range(term, start, end)
        } else {
            self.merged_range(term, start, end).to_vec()
        }
    }

    fn runs_range(
        &self,
        term: TermId,
        start: u64,
        end: u64,
        docs: &mut Vec<DocId>,
        runs: &mut Vec<(u32, u32)>,
    ) {
        if self.is_pristine() {
            self.base.runs_range(term, start, end, docs, runs);
        } else {
            append_runs(docs, runs, &self.merged_range(term, start, end));
        }
    }

    fn list_bytes(&self, term: TermId) -> u64 {
        self.doc_freq(term) * POSTING_BYTES
    }
}

impl<B: IndexReader> Validate for LiveIndex<B> {
    fn validate(&self, report: &mut Report) {
        self.wal.validate(report);
        self.write.validate(report);
        for seg in &self.sealed {
            seg.validate(report);
        }
        // Doc-range disjointness across base / sealed / write.
        let mut ranges: Vec<(DocId, DocId, String)> =
            vec![(0, self.base_docs as DocId, "base".to_string())];
        for seg in &self.sealed {
            let (lo, hi) = seg.doc_range();
            ranges.push((lo, hi, format!("sealed {}", seg.id())));
        }
        {
            let (lo, hi) = self.write.doc_range();
            ranges.push((lo, hi, "write".to_string()));
        }
        let mut sorted = ranges.clone();
        sorted.sort_by_key(|r| r.0);
        for w in sorted.windows(2) {
            report.check(w[0].1 <= w[1].0, "LiveIndex", "segment-doc-range", || {
                format!(
                    "{} [{}, {}) overlaps {} [{}, {})",
                    w[0].2, w[0].0, w[0].1, w[1].2, w[1].0, w[1].1
                )
            });
        }
        report.check(
            self.write.doc_range().1 == self.next_doc,
            "LiveIndex",
            "segment-doc-range",
            || {
                format!(
                    "write segment ends at {}, next_doc is {}",
                    self.write.doc_range().1,
                    self.next_doc
                )
            },
        );
        // Active/retired segment ids are disjoint and unique.
        let mut ids: Vec<SegmentId> = self.sealed.iter().map(|s| s.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        report.check(
            ids.len() == self.sealed.len(),
            "LiveIndex",
            "segment-doc-range",
            || "duplicate sealed segment ids".to_string(),
        );
        report.check(
            !self.retired.iter().any(|r| ids.binary_search(r).is_ok()),
            "LiveIndex",
            "segment-doc-range",
            || "a retired segment id is still active".to_string(),
        );
        // Tombstone conservation: every delete is either still pending
        // (a live tombstone) or was physically resolved by a compaction.
        report.check(
            self.stats.docs_deleted == self.tombstones.len() as u64 + self.tombstones_cleared,
            "LiveIndex",
            "tombstone-conservation",
            || {
                format!(
                    "{} deletes != {} live tombstones + {} cleared",
                    self.stats.docs_deleted,
                    self.tombstones.len(),
                    self.tombstones_cleared
                )
            },
        );
        report.check(
            self.dead.len() as u64 == self.stats.docs_deleted,
            "LiveIndex",
            "tombstone-conservation",
            || {
                format!(
                    "dead-set size {} != deletes applied {}",
                    self.dead.len(),
                    self.stats.docs_deleted
                )
            },
        );
        for &d in &self.tombstones {
            report.check(
                self.dead.contains(&d) && d < self.next_doc,
                "LiveIndex",
                "tombstone-conservation",
                || format!("tombstone {d} unknown to the dead set or beyond next_doc"),
            );
        }
        report.check(
            self.stats.docs_added == self.next_doc as u64 - self.base_docs,
            "LiveIndex",
            "segment-doc-range",
            || {
                format!(
                    "docs_added {} != slots assigned {}",
                    self.stats.docs_added,
                    self.next_doc as u64 - self.base_docs
                )
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{CorpusSpec, SyntheticIndex};

    fn live() -> LiveIndex<SyntheticIndex> {
        let spec = CorpusSpec {
            vocab: VIEW_CAP as u64 + 500,
            ..CorpusSpec::tiny(3)
        };
        LiveIndex::new(SyntheticIndex::new(spec), SegmentPolicy::default())
    }

    fn merges_held(live: &LiveIndex<SyntheticIndex>) -> usize {
        let views = live.views.borrow();
        views.values().filter(|v| v.merge.is_some()).count()
    }

    #[test]
    fn views_are_capped_and_still_exact() {
        let mut live = live();
        live.add_document(SimTime::ZERO, &[(0, 2), (4_500, 1)]);
        live.delete_document(SimTime::ZERO, 11);
        for t in 0..live.num_terms() as TermId {
            let hidden = live.base.position_of(t, 11).is_some() as u64;
            let added = [0, 4_500].contains(&t) as u64;
            assert_eq!(live.doc_freq(t), live.base.doc_freq(t) + added - hidden);
            assert!(live.views.borrow().len() <= VIEW_CAP);
        }
        assert!(
            live.views.borrow().len() < 1_000,
            "the cap never emptied the map"
        );
    }

    #[test]
    fn a_stale_merge_is_dropped_by_the_mutation_that_staled_it() {
        let mut live = live();
        live.add_document(SimTime::ZERO, &[(0, 2), (7, 1)]);
        for t in [0, 1, 7] {
            live.postings_range(t, 0, 10);
        }
        assert_eq!(merges_held(&live), 3);
        // An add drops the merges of the terms it mentions, no others.
        live.add_document(SimTime::ZERO, &[(7, 3)]);
        assert_eq!(merges_held(&live), 2);
        // A base-doc delete drops nothing until a term is found to hold it.
        live.delete_document(SimTime::ZERO, 11);
        assert_eq!(merges_held(&live), 2);
        // A seal moves every delta posting to another layer.
        live.seal(SimTime::ZERO);
        assert_eq!(merges_held(&live), 0);
        live.postings_range(0, 0, 10);
        // So does losing an ingested doc, whose terms are not recorded.
        live.delete_document(SimTime::ZERO, live.base_docs as DocId);
        assert_eq!(merges_held(&live), 0);
    }
}
