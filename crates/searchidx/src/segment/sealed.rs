//! Immutable sealed segments and the deterministic merge that compacts
//! them.
//!
//! A sealed segment is a frozen snapshot of a write segment: canonical
//! tf-descending lists over a contiguous range of document slots. Once
//! sealed it never changes — compaction builds a *new* segment from the
//! inputs (dropping tombstoned documents physically) and retires them.
//! Document slots are never renumbered; a merged segment covers the
//! union of its inputs' ranges, which keeps every doc id stable for the
//! lifetime of the index and makes cache keys `(segment, term)` the only
//! identity that ever moves.

use fxmap::{FxHashMap, FxHashSet};
use invariant::{Report, Validate};

use crate::types::{DocId, IndexReader, Posting, PostingList, TermId, POSTING_BYTES};

use super::write::WriteSegment;
use super::SegmentId;

/// What a merge physically did — the compaction ledger the engine turns
/// into charged I/O and cache invalidations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeStats {
    /// Postings read from the inputs.
    pub postings_in: u64,
    /// Postings written to the output.
    pub postings_out: u64,
    /// Tombstoned documents physically dropped (each counted once, not
    /// per posting).
    pub docs_dropped: Vec<DocId>,
}

/// An immutable segment: contiguous doc-slot range + canonical lists.
#[derive(Debug, Clone)]
pub struct SealedSegment {
    id: SegmentId,
    /// Owned slots `[doc_lo, doc_hi)`. Tombstoned slots stay *owned*
    /// (ids are never reused) even after their postings are dropped.
    doc_lo: DocId,
    doc_hi: DocId,
    /// Vocabulary bound inherited from the live index, so the segment
    /// can stand in as an [`IndexReader`] for layout building.
    vocab: u64,
    lists: Vec<PostingList>,
    by_term: FxHashMap<TermId, usize>,
    bytes: u64,
}

impl SealedSegment {
    /// Freeze a write segment. `vocab` is the index-wide vocabulary
    /// bound (for the [`IndexReader`] view).
    pub fn from_write(id: SegmentId, ws: &WriteSegment, vocab: u64) -> Self {
        let (doc_lo, doc_hi) = ws.doc_range();
        let lists: Vec<PostingList> = ws
            .terms()
            .into_iter()
            .map(|t| ws.postings(t))
            .filter(|l| !l.is_empty())
            .collect();
        Self::from_lists(id, doc_lo, doc_hi, vocab, lists)
    }

    fn from_lists(
        id: SegmentId,
        doc_lo: DocId,
        doc_hi: DocId,
        vocab: u64,
        lists: Vec<PostingList>,
    ) -> Self {
        let by_term = lists.iter().enumerate().map(|(i, l)| (l.term, i)).collect();
        let bytes = lists.iter().map(PostingList::bytes).sum();
        SealedSegment {
            id,
            doc_lo,
            doc_hi,
            vocab,
            lists,
            by_term,
            bytes,
        }
    }

    /// Merge `inputs` (doc-range ascending, adjacent) into a new segment
    /// `id`, physically dropping documents in `tombstones`.
    ///
    /// Deterministic: output lists are canonical (tf-descending, doc
    /// ascending), terms ascending. Because input ranges are adjacent
    /// and input lists are canonical, the merged list for a term equals
    /// the canonical re-sort of the concatenation — the merged *query
    /// view* of untouched terms is unchanged by compaction.
    pub fn merge(
        id: SegmentId,
        inputs: &[&SealedSegment],
        tombstones: &FxHashSet<DocId>,
    ) -> (SealedSegment, MergeStats) {
        assert!(!inputs.is_empty(), "merge of zero segments");
        // Doc order, not id order, is the merge invariant: a previous
        // compaction's output has the *largest* id but the *oldest* docs.
        debug_assert!(
            inputs.windows(2).all(|w| w[0].doc_hi <= w[1].doc_lo),
            "merge inputs must be doc-range ascending and disjoint"
        );
        let doc_lo = inputs.iter().map(|s| s.doc_lo).min().expect("non-empty");
        let doc_hi = inputs.iter().map(|s| s.doc_hi).max().expect("non-empty");
        let vocab = inputs[0].vocab;

        let mut stats = MergeStats {
            postings_in: 0,
            postings_out: 0,
            docs_dropped: Vec::new(),
        };
        let mut dropped: FxHashSet<DocId> = FxHashSet::default();
        let mut merged: FxHashMap<TermId, Vec<Posting>> = FxHashMap::default();
        for seg in inputs {
            for list in &seg.lists {
                stats.postings_in += list.len() as u64;
                let out = merged.entry(list.term).or_default();
                for &p in list.postings() {
                    if tombstones.contains(&p.doc) {
                        dropped.insert(p.doc);
                    } else {
                        out.push(p);
                    }
                }
            }
        }
        let mut terms: Vec<TermId> = merged.keys().copied().collect();
        terms.sort_unstable();
        let lists: Vec<PostingList> = terms
            .into_iter()
            .filter_map(|t| {
                let postings = merged.remove(&t).expect("key enumerated from map");
                if postings.is_empty() {
                    None
                } else {
                    stats.postings_out += postings.len() as u64;
                    Some(PostingList::new(t, postings))
                }
            })
            .collect();
        // Tombstoned docs with no postings left anywhere still count as
        // cleared if they fall in the merged range: the slot is dead and
        // no future merge will see it again.
        for &d in tombstones {
            if d >= doc_lo && d < doc_hi {
                dropped.insert(d);
            }
        }
        stats.docs_dropped = {
            let mut v: Vec<DocId> = dropped.into_iter().collect();
            v.sort_unstable();
            v
        };
        (
            SealedSegment::from_lists(id, doc_lo, doc_hi, vocab, lists),
            stats,
        )
    }

    /// Segment id.
    pub fn id(&self) -> SegmentId {
        self.id
    }

    /// Owned document slots `[lo, hi)`.
    pub fn doc_range(&self) -> (DocId, DocId) {
        (self.doc_lo, self.doc_hi)
    }

    /// The canonical list for `term`, if present.
    pub fn list(&self, term: TermId) -> Option<&PostingList> {
        self.by_term.get(&term).map(|&i| &self.lists[i])
    }

    /// Terms present, ascending.
    pub fn terms(&self) -> impl Iterator<Item = TermId> + '_ {
        self.lists.iter().map(|l| l.term)
    }

    /// Total list bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Corruption hook for audit tests: shift the owned range so it
    /// overlaps whatever precedes it.
    #[doc(hidden)]
    pub fn debug_shift_range(&mut self, delta: DocId) {
        self.doc_lo = self.doc_lo.wrapping_sub(delta);
    }
}

impl IndexReader for SealedSegment {
    fn num_docs(&self) -> u64 {
        (self.doc_hi - self.doc_lo) as u64
    }

    fn num_terms(&self) -> u64 {
        self.vocab
    }

    fn doc_freq(&self, term: TermId) -> u64 {
        self.list(term).map_or(0, |l| l.len() as u64)
    }

    fn postings(&self, term: TermId) -> PostingList {
        self.list(term)
            .cloned()
            .unwrap_or_else(|| PostingList::new(term, Vec::new()))
    }

    fn postings_range(&self, term: TermId, start: u64, end: u64) -> Vec<Posting> {
        match self.list(term) {
            None => Vec::new(),
            Some(l) => {
                let len = l.len() as u64;
                let s = start.min(len) as usize;
                let e = end.min(len) as usize;
                l.postings()[s..e].to_vec()
            }
        }
    }

    fn list_bytes(&self, term: TermId) -> u64 {
        self.doc_freq(term) * POSTING_BYTES
    }
}

impl Validate for SealedSegment {
    fn validate(&self, report: &mut Report) {
        report.check(
            self.doc_lo <= self.doc_hi,
            "SealedSegment",
            "segment-doc-range",
            || {
                format!(
                    "segment {} range inverted: [{}, {})",
                    self.id, self.doc_lo, self.doc_hi
                )
            },
        );
        for list in &self.lists {
            for p in list.postings() {
                report.check(
                    p.doc >= self.doc_lo && p.doc < self.doc_hi,
                    "SealedSegment",
                    "segment-doc-range",
                    || {
                        format!(
                            "segment {} term {}: doc {} outside [{}, {})",
                            self.id, list.term, p.doc, self.doc_lo, self.doc_hi
                        )
                    },
                );
            }
        }
        let bytes: u64 = self.lists.iter().map(PostingList::bytes).sum();
        report.check(
            bytes == self.bytes,
            "SealedSegment",
            "segment-doc-range",
            || {
                format!(
                    "segment {}: byte ledger {} != lists {}",
                    self.id, self.bytes, bytes
                )
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(id: SegmentId, base: DocId, docs: u32) -> SealedSegment {
        let mut ws = WriteSegment::new(base);
        for d in 0..docs {
            ws.add_doc(&[(d % 4, d % 3 + 1), (9, 1)]);
        }
        SealedSegment::from_write(id, &ws, 64)
    }

    #[test]
    fn seal_freezes_canonical_lists() {
        let s = seg(1, 50, 12);
        assert_eq!(s.doc_range(), (50, 62));
        assert_eq!(s.doc_freq(9), 12);
        let l = s.list(9).unwrap();
        assert!(l.postings().windows(2).all(|w| w[0].tf >= w[1].tf));
        assert!(s.validation_report().is_clean());
    }

    #[test]
    fn merge_drops_tombstones_and_counts_them() {
        let a = seg(1, 0, 10);
        let b = seg(2, 10, 10);
        let mut dead = FxHashSet::default();
        dead.insert(3);
        dead.insert(15);
        dead.insert(99); // outside both ranges: not cleared here
        let (m, stats) = SealedSegment::merge(7, &[&a, &b], &dead);
        assert_eq!(m.id(), 7);
        assert_eq!(m.doc_range(), (0, 20));
        assert_eq!(stats.docs_dropped, vec![3, 15]);
        assert_eq!(stats.postings_in, a.bytes() / 8 + b.bytes() / 8);
        // Dropped docs appear in no list.
        for t in m.terms().collect::<Vec<_>>() {
            assert!(m
                .postings(t)
                .postings()
                .iter()
                .all(|p| p.doc != 3 && p.doc != 15));
        }
        assert!(m.validation_report().is_clean());
    }

    #[test]
    fn merged_view_of_untouched_terms_is_stable() {
        // Concatenating adjacent canonical segments and re-sorting equals
        // the merge's output list: compaction is invisible to queries
        // when nothing was tombstoned.
        let a = seg(1, 0, 8);
        let b = seg(2, 8, 8);
        let (m, _) = SealedSegment::merge(3, &[&a, &b], &FxHashSet::default());
        for t in [0u32, 1, 2, 3, 9] {
            let mut concat = a.postings(t).postings().to_vec();
            concat.extend_from_slice(b.postings(t).postings());
            let expect = PostingList::new(t, concat);
            assert_eq!(m.postings(t), expect, "term {t}");
        }
    }

    #[test]
    fn shifted_range_trips_the_validator() {
        let mut s = seg(1, 50, 12);
        assert!(s.validation_report().is_clean());
        // Wrap lo past hi: the range inverts and containment fails.
        s.debug_shift_range(DocId::MAX - 100);
        let report = s.validation_report();
        assert!(!report.is_clean());
        assert!(report.summary().contains("segment-doc-range"));
    }
}
