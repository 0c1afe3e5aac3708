//! The on-device index image.
//!
//! Each term's posting list occupies a contiguous, sector-aligned extent;
//! extents are laid out in term-rank order (Lucene's segment files are
//! similarly contiguous per term). A query that visits only a prefix of a
//! frequency-sorted list reads only the prefix of the extent — that is
//! where the paper's partial-read economics (and its Fig. 1 trace shape)
//! come from.
//!
//! The on-device image stays at the fixed [`crate::types::POSTING_BYTES`]
//! per posting — the simulated I/O figures are defined against it — while
//! the *in-memory* serving copy is the pinned prefix of the
//! [`crate::blocks`] representation, which holds the head of the same
//! canonical sequence and nothing past it. The layout is byte-for-byte
//! reproducible
//! across runs: it iterates term ranks `0..num_terms`, and index
//! byproducts feeding it (e.g. `MemIndex::terms()`) are sorted.

use storagecore::{Extent, Lba, SECTOR_SIZE};

use crate::types::{IndexReader, TermId};

/// Sector extents of every posting list.
#[derive(Debug, Clone)]
pub struct IndexLayout {
    /// Start sector of each term's extent, plus one trailing end marker:
    /// term `t` occupies `[starts[t], starts[t+1])`.
    starts: Vec<Lba>,
    /// First sector of the index region on the device.
    base: Lba,
}

impl IndexLayout {
    /// Lay out all terms of `index` starting at sector `base`.
    pub fn build<R: IndexReader>(index: &R, base: Lba) -> Self {
        let terms = index.num_terms();
        let mut starts = Vec::with_capacity(terms as usize + 1);
        let mut cursor = base;
        for t in 0..terms {
            starts.push(cursor);
            let bytes = index.list_bytes(t as TermId);
            cursor += bytes.div_ceil(SECTOR_SIZE as u64).max(1);
        }
        starts.push(cursor);
        IndexLayout { starts, base }
    }

    /// Number of terms laid out.
    pub fn num_terms(&self) -> u64 {
        (self.starts.len() - 1) as u64
    }

    /// First sector of the index region.
    pub fn base(&self) -> Lba {
        self.base
    }

    /// One past the last sector used.
    pub fn end(&self) -> Lba {
        *self.starts.last().expect("layout has an end marker")
    }

    /// Total sectors occupied.
    pub fn sectors(&self) -> u64 {
        self.end() - self.base
    }

    /// Total bytes occupied.
    pub fn bytes(&self) -> u64 {
        self.sectors() * SECTOR_SIZE as u64
    }

    /// The full extent of a term's list.
    pub fn extent(&self, term: TermId) -> Extent {
        let t = term as usize;
        assert!((t as u64) < self.num_terms(), "term {term} not laid out");
        Extent::new(self.starts[t], self.starts[t + 1] - self.starts[t])
    }

    /// The extent covering bytes `[from, to)` of a term's list — the tail
    /// read a cache issues when its prefix already covers `[0, from)`, or
    /// the whole scanned prefix when `from` is 0. Rounds outward to whole
    /// sectors and clamps to the list's extent.
    pub fn range_extent(&self, term: TermId, from: u64, to: u64) -> Extent {
        assert!(from < to, "empty range [{from}, {to})");
        let full = self.extent(term);
        let first = (from / SECTOR_SIZE as u64).min(full.sectors - 1);
        let last = to
            .div_ceil(SECTOR_SIZE as u64)
            .clamp(first + 1, full.sectors);
        Extent::new(full.lba + first, last - first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{CorpusSpec, SyntheticIndex};
    use crate::types::IndexReader;

    fn layout() -> (SyntheticIndex, IndexLayout) {
        let idx = SyntheticIndex::new(CorpusSpec::tiny(7));
        let l = IndexLayout::build(&idx, 1000);
        (idx, l)
    }

    #[test]
    fn extents_are_disjoint_and_ordered() {
        let (_, l) = layout();
        for t in 0..(l.num_terms() - 1) as u32 {
            let a = l.extent(t);
            let b = l.extent(t + 1);
            assert_eq!(a.end(), b.lba, "extents must be back-to-back");
            assert!(!a.overlaps(&b));
        }
        assert_eq!(l.extent(0).lba, 1000);
    }

    #[test]
    fn extent_sizes_cover_the_lists() {
        let (idx, l) = layout();
        for t in [0u32, 10, 500, 1999] {
            let e = l.extent(t);
            assert!(e.bytes() >= idx.list_bytes(t), "term {t}");
            // No more than one sector of slack.
            assert!(e.bytes() < idx.list_bytes(t) + SECTOR_SIZE as u64 + 1);
        }
    }

    #[test]
    fn leading_range_extents_clamp() {
        let (idx, l) = layout();
        let full = l.extent(0);
        assert_eq!(l.range_extent(0, 0, 1).sectors, 1, "one byte, one sector");
        assert_eq!(l.range_extent(0, 0, 512).sectors, 1);
        assert_eq!(l.range_extent(0, 0, 513).sectors, 2);
        let big = idx.list_bytes(0) * 10;
        assert_eq!(l.range_extent(0, 0, big), full, "clamped to the full list");
    }

    #[test]
    fn range_extent_covers_tail_reads() {
        let (_, l) = layout();
        let full = l.extent(0);
        // Bytes [512, 1024) = exactly the second sector.
        let e = l.range_extent(0, 512, 1024);
        assert_eq!(e, Extent::new(full.lba + 1, 1));
        // Unaligned range rounds outward.
        let e = l.range_extent(0, 700, 900);
        assert_eq!(e, Extent::new(full.lba + 1, 1));
        // Clamped to the list.
        let e = l.range_extent(0, 0, u64::MAX);
        assert_eq!(e, full);
        assert!(full.contains(&l.range_extent(0, full.bytes() - 1, full.bytes() * 3)));
    }

    #[test]
    fn blocked_lists_fit_inside_their_extents() {
        // The pinned in-memory prefix must never outgrow the on-device
        // extent it mirrors, or memory accounting derived from the layout
        // would underestimate the serving footprint (about 2x slack: the
        // extent is 8 B a posting, the pin 4 B a doc id plus 8 B a tf run).
        let (idx, l) = layout();
        for t in [0u32, 10, 500, 1999] {
            let df = idx.doc_freq(t);
            let mut bp = crate::blocks::BlockPostings::new(df);
            bp.ensure(&idx, t, df);
            assert!(bp.bytes() > 0);
            assert!(
                bp.bytes() <= l.extent(t).bytes(),
                "term {t}: pinned {} B > extent {} B",
                bp.bytes(),
                l.extent(t).bytes()
            );
        }
    }

    #[test]
    fn layout_is_reproducible() {
        let idx = SyntheticIndex::new(CorpusSpec::tiny(7));
        let a = IndexLayout::build(&idx, 1000);
        let b = IndexLayout::build(&idx, 1000);
        assert_eq!(a.starts, b.starts);
    }

    #[test]
    fn totals_are_consistent() {
        let (idx, l) = layout();
        let list_total: u64 = (0..idx.num_terms() as u32)
            .map(|t| idx.list_bytes(t).div_ceil(SECTOR_SIZE as u64).max(1))
            .sum();
        assert_eq!(l.sectors(), list_total);
        assert_eq!(l.bytes(), l.sectors() * 512);
    }
}
