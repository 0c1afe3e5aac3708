//! The in-memory write segment: where freshly ingested documents live
//! until the segment seals.
//!
//! Each term's postings are one contiguous array whose capacity doubles
//! on overflow; the copies that doubling costs are counted in
//! [`GrowthStats`].

use fxmap::FxHashMap;
use invariant::{Report, Validate};

use crate::types::{DocId, Posting, PostingList, TermId};

/// How a term's in-memory postings grow as documents arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GrowthPolicy {
    /// One contiguous array per term, capacity doubled on overflow
    /// (copying the existing postings).
    #[default]
    Contiguous,
}

/// Allocation/copy ledger of a write segment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GrowthStats {
    /// Postings appended.
    pub appended: u64,
    /// Reallocations performed.
    pub reallocs: u64,
    /// Postings copied by reallocations.
    pub copied: u64,
}

/// The mutable head segment: accepts documents, serves canonical
/// tf-descending lists for merge, and freezes into a sealed segment.
#[derive(Debug, Clone)]
pub struct WriteSegment {
    /// First document slot owned by this segment.
    doc_base: DocId,
    /// Documents accepted so far.
    docs: u64,
    postings: FxHashMap<TermId, Vec<Posting>>,
    stats: GrowthStats,
}

impl WriteSegment {
    /// An empty segment owning document slots from `doc_base`.
    pub fn new(doc_base: DocId) -> Self {
        WriteSegment {
            doc_base,
            docs: 0,
            postings: FxHashMap::default(),
            stats: GrowthStats::default(),
        }
    }

    /// Owned document slots `[base, base + docs)`.
    pub fn doc_range(&self) -> (DocId, DocId) {
        (self.doc_base, self.doc_base + self.docs as DocId)
    }

    /// Documents accepted.
    pub fn num_docs(&self) -> u64 {
        self.docs
    }

    /// Whether no documents have been accepted.
    pub fn is_empty(&self) -> bool {
        self.docs == 0
    }

    /// The allocation ledger.
    pub fn growth_stats(&self) -> GrowthStats {
        self.stats
    }

    /// Accept the next document; `terms` are distinct `(term, tf)` pairs.
    /// Returns the assigned document slot.
    pub fn add_doc(&mut self, terms: &[(TermId, u32)]) -> DocId {
        let doc = self.doc_base + self.docs as DocId;
        self.docs += 1;
        for &(term, tf) in terms {
            let v = self.postings.entry(term).or_default();
            if v.len() == v.capacity() {
                // Count the doubling copy explicitly (Vec would do it
                // implicitly; making it visible is the point).
                self.stats.reallocs += 1;
                self.stats.copied += v.len() as u64;
                v.reserve_exact((v.len()).max(1));
            }
            v.push(Posting { doc, tf });
            self.stats.appended += 1;
        }
        doc
    }

    /// Document frequency of `term` within this segment.
    pub fn doc_freq(&self, term: TermId) -> u64 {
        self.postings.get(&term).map_or(0, |p| p.len() as u64)
    }

    /// The segment's canonical (tf-descending, doc-ascending) list for
    /// `term`.
    pub fn postings(&self, term: TermId) -> PostingList {
        let raw = self.postings.get(&term).cloned().unwrap_or_default();
        PostingList::new(term, raw)
    }

    /// Terms present, ascending.
    pub fn terms(&self) -> Vec<TermId> {
        let mut t: Vec<TermId> = self.postings.keys().copied().collect();
        t.sort_unstable();
        t
    }

    /// Corruption hook for audit tests: smuggle in a posting whose doc
    /// slot lies outside the segment's owned range.
    #[doc(hidden)]
    pub fn debug_plant_foreign_doc(&mut self, term: TermId) {
        let foreign = Posting {
            doc: self.doc_base.wrapping_sub(1),
            tf: 1,
        };
        self.postings.entry(term).or_default().push(foreign);
    }
}

impl Validate for WriteSegment {
    fn validate(&self, report: &mut Report) {
        let (lo, hi) = self.doc_range();
        let mut appended = 0u64;
        for (term, postings) in &self.postings {
            for p in postings {
                appended += 1;
                report.check(
                    p.doc >= lo && p.doc < hi,
                    "WriteSegment",
                    "segment-doc-range",
                    || {
                        format!(
                            "term {term}: posting doc {} outside write range [{lo}, {hi})",
                            p.doc
                        )
                    },
                );
                report.check(p.tf > 0, "WriteSegment", "segment-doc-range", || {
                    format!("term {term}: doc {} has zero tf", p.doc)
                });
            }
        }
        report.check(
            appended == self.stats.appended,
            "WriteSegment",
            "segment-doc-range",
            || {
                format!(
                    "growth ledger says {} postings appended, segment holds {appended}",
                    self.stats.appended
                )
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill() -> WriteSegment {
        let mut ws = WriteSegment::new(100);
        for d in 0..40u32 {
            let terms: Vec<(TermId, u32)> = (0..=(d % 3)).map(|t| (t, d % 5 + 1)).collect();
            ws.add_doc(&terms);
        }
        ws
    }

    #[test]
    fn doc_slots_are_sequential_from_base() {
        let mut ws = WriteSegment::new(7);
        assert_eq!(ws.add_doc(&[(0, 1)]), 7);
        assert_eq!(ws.add_doc(&[(0, 2)]), 8);
        assert_eq!(ws.doc_range(), (7, 9));
        assert_eq!(ws.doc_freq(0), 2);
    }

    #[test]
    fn foreign_doc_trips_the_validator() {
        let mut ws = fill();
        assert!(ws.validation_report().is_clean());
        ws.debug_plant_foreign_doc(0);
        let report = ws.validation_report();
        assert!(!report.is_clean());
        assert!(report.summary().contains("segment-doc-range"));
    }
}
