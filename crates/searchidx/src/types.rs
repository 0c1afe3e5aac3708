//! Core index types.

/// Term identifier. Terms are identified by **popularity rank**: term 0 is
/// the most frequent term in the collection. This convention makes Zipf
/// sampling and df modelling direct.
pub type TermId = u32;

/// Document identifier.
pub type DocId = u32;

/// Bytes per posting on disk: 4 B doc id + 4 B term frequency.
pub const POSTING_BYTES: u64 = 8;

/// Bytes per document entry in a result (URL + snippet + date, ~400 B per
/// the paper's Sec. VI).
pub const RESULT_DOC_BYTES: u64 = 400;

/// Sub-linear tf damping, the classic `1 + ln(tf)`. The single source of
/// truth for the per-posting score contribution `tf_weight(tf) · idf`:
/// the disjunctive processor and the block-max bounds in
/// [`crate::blocks`] must use the same function, or block-max skipping
/// would stop being a sound upper bound.
#[inline]
pub fn tf_weight(tf: u32) -> f64 {
    1.0 + (tf.max(1) as f64).ln()
}

/// One posting: a document and the term's frequency within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// Document id.
    pub doc: DocId,
    /// Term frequency in that document.
    pub tf: u32,
}

/// A term's posting list, **sorted by descending term frequency** (the
/// frequency-sorted organization of the filtered vector model — Sec. VI:
/// "the inverted lists are sorted according to the frequency of the term
/// occurrence in each document").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostingList {
    /// The term.
    pub term: TermId,
    postings: Vec<Posting>,
}

impl PostingList {
    /// Build from postings; sorts into canonical tf-descending order
    /// (ties by ascending doc id, for determinism).
    pub fn new(term: TermId, mut postings: Vec<Posting>) -> Self {
        postings.sort_unstable_by(|a, b| b.tf.cmp(&a.tf).then(a.doc.cmp(&b.doc)));
        PostingList { term, postings }
    }

    /// Build from postings already in tf-descending order (checked in
    /// debug builds). Tie order among equal tf values is the generator's
    /// choice — it only has to be deterministic.
    pub fn from_sorted(term: TermId, postings: Vec<Posting>) -> Self {
        debug_assert!(
            postings.windows(2).all(|w| w[0].tf >= w[1].tf),
            "postings not tf-descending"
        );
        PostingList { term, postings }
    }

    /// Document frequency (list length).
    pub fn len(&self) -> usize {
        self.postings.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.postings.is_empty()
    }

    /// The postings, tf-descending.
    pub fn postings(&self) -> &[Posting] {
        &self.postings
    }

    /// On-disk size in bytes.
    pub fn bytes(&self) -> u64 {
        self.postings.len() as u64 * POSTING_BYTES
    }
}

/// A scored document in a result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredDoc {
    /// Document id.
    pub doc: DocId,
    /// Relevance score (tf-idf accumulation).
    pub score: f32,
}

/// A cached query result: the top-K documents with their display metadata
/// (modelled by size, not content).
#[derive(Debug, Clone, PartialEq)]
pub struct ResultEntry {
    /// Top documents, best first.
    pub docs: Vec<ScoredDoc>,
}

impl ResultEntry {
    /// Cache footprint: ~400 B per document (Sec. VI: a 50-doc entry is
    /// "nearly 20KB").
    pub fn bytes(&self) -> u64 {
        self.docs.len() as u64 * RESULT_DOC_BYTES
    }
}

/// Read access to an inverted index.
///
/// Both the statistical synthetic index and the exact in-memory index
/// implement this, so the query processor and the cache hierarchy are
/// oblivious to which one is underneath.
pub trait IndexReader {
    /// Documents in the collection.
    fn num_docs(&self) -> u64;

    /// Vocabulary size.
    fn num_terms(&self) -> u64;

    /// Document frequency of `term` (0 for out-of-vocabulary terms).
    fn doc_freq(&self, term: TermId) -> u64;

    /// The full posting list of `term` (empty for OOV terms).
    fn postings(&self, term: TermId) -> PostingList;

    /// The postings at positions `[start, end)` of the canonical
    /// (tf-descending) order. Indices beyond the list clamp. Readers with
    /// lazily generated lists override this with an O(end − start)
    /// implementation so partial traversals cost what they scan.
    fn postings_range(&self, term: TermId, start: u64, end: u64) -> Vec<Posting> {
        let list = self.postings(term);
        let len = list.len() as u64;
        let start = start.min(len) as usize;
        let end = end.min(len) as usize;
        list.postings()[start..end].to_vec()
    }

    /// [`IndexReader::postings_range`] appended to a `(docs, runs)` pair,
    /// the form the blocked scan reads: the doc ids go onto `docs` and
    /// the tfs onto `runs` as `(end, tf)` runs, ends counted from
    /// `docs[0]`, the last run extended while the tf repeats. Readers
    /// that can fill the pair without a `Posting` vector override this.
    fn runs_range(
        &self,
        term: TermId,
        start: u64,
        end: u64,
        docs: &mut Vec<DocId>,
        runs: &mut Vec<(u32, u32)>,
    ) {
        crate::blocks::append_runs(docs, runs, &self.postings_range(term, start, end));
    }

    /// The position of `doc` in `term`'s canonical order, `None` when the
    /// list does not hold it. The default scans the full list; readers
    /// that can answer without generating it override this.
    fn position_of(&self, term: TermId, doc: DocId) -> Option<u64> {
        let list = self.postings(term);
        list.postings()
            .iter()
            .position(|p| p.doc == doc)
            .map(|i| i as u64)
    }

    /// On-disk size of a term's list in bytes.
    fn list_bytes(&self, term: TermId) -> u64 {
        self.doc_freq(term) * POSTING_BYTES
    }

    /// Inverse document frequency (natural log, plus-one smoothed).
    fn idf(&self, term: TermId) -> f64 {
        let df = self.doc_freq(term);
        if df == 0 {
            0.0
        } else {
            (1.0 + self.num_docs() as f64 / df as f64).ln()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn posting_list_sorts_canonically() {
        let l = PostingList::new(
            0,
            vec![
                Posting { doc: 5, tf: 1 },
                Posting { doc: 2, tf: 9 },
                Posting { doc: 9, tf: 9 },
                Posting { doc: 1, tf: 3 },
            ],
        );
        let tfs: Vec<u32> = l.postings().iter().map(|p| p.tf).collect();
        assert_eq!(tfs, vec![9, 9, 3, 1]);
        // Tie on tf=9 broken by doc id.
        assert_eq!(l.postings()[0].doc, 2);
        assert_eq!(l.postings()[1].doc, 9);
    }

    #[test]
    fn sizes_match_the_paper() {
        let l = PostingList::new(0, vec![Posting { doc: 1, tf: 1 }; 16]);
        assert_eq!(l.bytes(), 128);
        let r = ResultEntry {
            docs: vec![ScoredDoc { doc: 0, score: 1.0 }; 50],
        };
        assert_eq!(r.bytes(), 20_000, "a 50-doc result entry is ~20 KB");
    }

    #[test]
    fn empty_list() {
        let l = PostingList::new(3, vec![]);
        assert!(l.is_empty());
        assert_eq!(l.bytes(), 0);
    }
}
