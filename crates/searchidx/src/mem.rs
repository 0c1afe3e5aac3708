//! An exact in-memory index built from real token streams.
//!
//! Used to validate the query processor against brute-force scoring, and
//! by the examples to index small real collections. Implements the same
//! [`IndexReader`] as the synthetic index.

use fxmap::FxHashMap;

use crate::types::{DocId, IndexReader, Posting, PostingList, TermId};

/// Exact inverted index over explicit documents.
#[derive(Debug, Clone, Default)]
pub struct MemIndex {
    lists: FxHashMap<TermId, PostingList>,
    /// Where each `(term, doc)` sits in its canonical list.
    positions: FxHashMap<(TermId, DocId), u32>,
    num_docs: u64,
    num_terms: u64,
}

impl MemIndex {
    /// Build from documents given as term-id sequences.
    pub fn from_docs<D, T>(docs: D) -> Self
    where
        D: IntoIterator<Item = T>,
        T: AsRef<[TermId]>,
    {
        let mut raw: FxHashMap<TermId, Vec<Posting>> = FxHashMap::default();
        let mut num_docs = 0u64;
        let mut num_terms = 0u64;
        for (doc_id, doc) in docs.into_iter().enumerate() {
            num_docs += 1;
            let mut tf: FxHashMap<TermId, u32> = FxHashMap::default();
            for &t in doc.as_ref() {
                *tf.entry(t).or_insert(0) += 1;
                num_terms = num_terms.max(t as u64 + 1);
            }
            for (t, f) in tf {
                raw.entry(t).or_default().push(Posting {
                    doc: doc_id as DocId,
                    tf: f,
                });
            }
        }
        let lists: FxHashMap<TermId, PostingList> = raw
            .into_iter()
            .map(|(t, postings)| (t, PostingList::new(t, postings)))
            .collect();
        let mut positions = FxHashMap::default();
        for (&t, list) in &lists {
            for (i, p) in list.postings().iter().enumerate() {
                positions.insert((t, p.doc), i as u32);
            }
        }
        MemIndex {
            lists,
            positions,
            num_docs,
            num_terms,
        }
    }

    /// All terms present in the index, in ascending id order. (`lists`
    /// is a `HashMap`, whose key order varies run to run — anything
    /// derived from this iteration, like layout assignments or build
    /// byproducts, must not inherit that nondeterminism.)
    pub fn terms(&self) -> impl Iterator<Item = TermId> + '_ {
        let mut keys: Vec<TermId> = self.lists.keys().copied().collect();
        keys.sort_unstable();
        keys.into_iter()
    }
}

impl IndexReader for MemIndex {
    fn num_docs(&self) -> u64 {
        self.num_docs
    }

    fn num_terms(&self) -> u64 {
        self.num_terms
    }

    fn doc_freq(&self, term: TermId) -> u64 {
        self.lists.get(&term).map_or(0, |l| l.len() as u64)
    }

    fn postings(&self, term: TermId) -> PostingList {
        self.lists
            .get(&term)
            .cloned()
            .unwrap_or_else(|| PostingList::new(term, Vec::new()))
    }

    /// O(end − start): a slice of the stored canonical list, where the
    /// trait default would clone the whole list first.
    fn postings_range(&self, term: TermId, start: u64, end: u64) -> Vec<Posting> {
        let list = self.lists.get(&term).map_or(&[][..], |l| l.postings());
        let len = list.len() as u64;
        list[start.min(len) as usize..end.min(len) as usize].to_vec()
    }

    fn position_of(&self, term: TermId, doc: DocId) -> Option<u64> {
        self.positions.get(&(term, doc)).map(|&i| i as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MemIndex {
        MemIndex::from_docs(vec![
            vec![0u32, 1, 0, 2], // doc 0: term 0 twice
            vec![1, 1, 1],       // doc 1: term 1 thrice
            vec![0, 2],          // doc 2
        ])
    }

    #[test]
    fn df_and_counts() {
        let i = sample();
        assert_eq!(i.num_docs(), 3);
        assert_eq!(i.num_terms(), 3);
        assert_eq!(i.doc_freq(0), 2);
        assert_eq!(i.doc_freq(1), 2);
        assert_eq!(i.doc_freq(2), 2);
        assert_eq!(i.doc_freq(9), 0);
    }

    #[test]
    fn tf_is_counted_per_doc() {
        let i = sample();
        let l = i.postings(1);
        // tf-descending: doc 1 (tf 3) before doc 0 (tf 1).
        assert_eq!(l.postings()[0], Posting { doc: 1, tf: 3 });
        assert_eq!(l.postings()[1], Posting { doc: 0, tf: 1 });
    }

    /// The trait's default `postings_range` over a [`MemIndex`]: every
    /// other method forwards, `postings_range` is not overridden.
    struct ViaDefault<'a>(&'a MemIndex);

    impl IndexReader for ViaDefault<'_> {
        fn num_docs(&self) -> u64 {
            self.0.num_docs()
        }
        fn num_terms(&self) -> u64 {
            self.0.num_terms()
        }
        fn doc_freq(&self, term: TermId) -> u64 {
            self.0.doc_freq(term)
        }
        fn postings(&self, term: TermId) -> PostingList {
            self.0.postings(term)
        }
    }

    proptest::proptest! {
        #[test]
        fn postings_range_equals_the_trait_default(
            docs in proptest::prop::collection::vec(
                proptest::prop::collection::vec(0u32..12, 1..10), 0..80),
            // Terms 12..14 are out of vocabulary; bounds run past any df.
            ranges in proptest::prop::collection::vec((0u32..14, 0u64..100, 0u64..100), 1..20),
        ) {
            use proptest::prelude::*;
            let idx = MemIndex::from_docs(docs);
            for (term, a, b) in ranges {
                let (start, end) = (a.min(b), a.max(b));
                prop_assert_eq!(
                    idx.postings_range(term, start, end),
                    ViaDefault(&idx).postings_range(term, start, end),
                    "term {} [{}, {})", term, start, end
                );
            }
        }
    }

    #[test]
    fn empty_index() {
        let i = MemIndex::from_docs(Vec::<Vec<TermId>>::new());
        assert_eq!(i.num_docs(), 0);
        assert!(i.postings(0).is_empty());
    }

    #[test]
    fn terms_are_sorted_and_complete() {
        let docs: Vec<Vec<TermId>> = (0..50)
            .map(|d| vec![(d * 31) % 17, (d * 7) % 13, 40])
            .collect();
        let i = MemIndex::from_docs(docs);
        let listed: Vec<TermId> = i.terms().collect();
        let mut sorted = listed.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(listed, sorted, "terms() must be sorted and duplicate-free");
        assert!(listed.contains(&40));
        assert!(listed.iter().all(|&t| i.doc_freq(t) > 0));
    }

    #[test]
    fn idf_favors_rare_terms() {
        let docs: Vec<Vec<TermId>> = (0..10)
            .map(|d| if d == 0 { vec![0, 1] } else { vec![0] })
            .collect();
        let i = MemIndex::from_docs(docs);
        assert!(i.idf(1) > i.idf(0));
    }
}
