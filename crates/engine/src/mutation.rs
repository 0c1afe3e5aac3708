//! Live-index plumbing for the engine: the on-device layout of sealed
//! segments and the ring arena that places WAL appends and segment
//! images after the base index.
//!
//! The base index image and the [`searchidx::IndexLayout`] over it are
//! untouched by mutation — document slots are never renumbered, so the
//! frozen extents stay valid for the base layer forever. Everything
//! mutation adds (WAL records, sealed-segment images, merge outputs)
//! lives in the free region between the end of the stored fields and the
//! device's capacity, allocated ring-wise: the simulation charges honest
//! seeks/programs for the background writes without ever growing the
//! device.

#[expect(
    clippy::disallowed_types,
    reason = "keyed lookups only; the map is never iterated"
)]
use std::collections::HashMap;

use searchidx::{IndexReader, SealedSegment, TermId, POSTING_BYTES};
use storagecore::{Extent, Lba, SECTOR_SIZE};

/// Compact on-device layout of one sealed segment: only the terms the
/// segment actually holds get extents (a full [`searchidx::IndexLayout`]
/// would burn a sector per vocabulary term). Extent semantics mirror the
/// base layout — sector-aligned contiguous runs per term, prefix reads
/// rounded up to whole sectors.
#[derive(Debug, Clone)]
pub struct SegLayout {
    base: Lba,
    sectors: u64,
    /// `term -> (first sector within the image, sectors, list bytes)`,
    /// extents laid out in ascending-term order.
    #[expect(
        clippy::disallowed_types,
        reason = "keyed lookups only; the map is never iterated"
    )]
    by_term: HashMap<TermId, (u64, u64, u64)>,
}

impl SegLayout {
    /// Lay the segment's lists out back to back and place the image in
    /// a run of `arena` sectors.
    #[expect(
        clippy::disallowed_types,
        reason = "keyed lookups only; the map is never iterated"
    )]
    pub fn build(seg: &SealedSegment, arena: &mut SegmentArena) -> Self {
        let mut by_term = HashMap::new();
        let mut sectors = 0;
        for term in seg.terms() {
            let bytes = seg.doc_freq(term) * POSTING_BYTES;
            let len = bytes.div_ceil(SECTOR_SIZE as u64).max(1);
            by_term.insert(term, (sectors, len, bytes));
            sectors += len;
        }
        SegLayout {
            base: arena.alloc_segment(sectors),
            sectors,
            by_term,
        }
    }

    /// The whole image as one extent (what seal/merge I/O moves).
    pub fn image_extent(&self) -> Extent {
        Extent::new(self.base, self.sectors.max(1))
    }

    /// The full extent of one term's list.
    pub fn extent(&self, term: TermId) -> Option<Extent> {
        self.by_term
            .get(&term)
            .map(|&(first, sectors, _)| Extent::new(self.base + first, sectors))
    }

    /// The extent covering bytes `[from, to)` of a term's list, rounded
    /// outward to whole sectors and clamped.
    pub fn range_extent(&self, term: TermId, from: u64, to: u64) -> Option<Extent> {
        debug_assert!(from < to, "empty range [{from}, {to})");
        let full = self.extent(term)?;
        let first = (from / SECTOR_SIZE as u64).min(full.sectors - 1);
        let last = to
            .div_ceil(SECTOR_SIZE as u64)
            .clamp(first + 1, full.sectors);
        Some(Extent::new(full.lba + first, last - first))
    }
}

/// Ring allocator over the free device region past the stored fields: a
/// small WAL ring up front, segment images behind it. Purely an
/// accounting structure — retired segments' extents are simply reused
/// once the cursor laps, which is safe because the simulation never
/// stores data, only charges the I/O.
#[derive(Debug)]
pub struct SegmentArena {
    wal_base: Lba,
    wal_sectors: u64,
    wal_cursor: u64,
    seg_base: Lba,
    seg_sectors: u64,
    seg_cursor: u64,
}

impl SegmentArena {
    /// Carve the region `[base, base + sectors)`: one eighth (at least
    /// one sector) for the WAL ring, the rest for segment images.
    pub fn new(base: Lba, sectors: u64) -> Self {
        assert!(sectors >= 8, "arena too small: {sectors} sectors");
        let wal_sectors = (sectors / 8).max(1);
        SegmentArena {
            wal_base: base,
            wal_sectors,
            wal_cursor: 0,
            seg_base: base + wal_sectors,
            seg_sectors: sectors - wal_sectors,
            seg_cursor: 0,
        }
    }

    /// The next WAL append's extent (ring of whole sectors).
    pub fn wal_extent(&mut self, bytes: u64) -> Extent {
        let sectors = bytes
            .div_ceil(SECTOR_SIZE as u64)
            .clamp(1, self.wal_sectors);
        if self.wal_cursor + sectors > self.wal_sectors {
            self.wal_cursor = 0;
        }
        let e = Extent::new(self.wal_base + self.wal_cursor, sectors);
        self.wal_cursor += sectors;
        e
    }

    /// A contiguous run of `sectors` for a segment image (wraps to the
    /// start when the tail is too short; images larger than the whole
    /// region are clamped — the charge stays honest enough and extents
    /// stay on-device).
    pub fn alloc_segment(&mut self, sectors: u64) -> Lba {
        let sectors = sectors.clamp(1, self.seg_sectors);
        if self.seg_cursor + sectors > self.seg_sectors {
            self.seg_cursor = 0;
        }
        let lba = self.seg_base + self.seg_cursor;
        self.seg_cursor += sectors;
        lba
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use searchidx::WriteSegment;

    fn sealed() -> SealedSegment {
        let mut ws = WriteSegment::new(100);
        for d in 0..20u32 {
            ws.add_doc(&[(d % 5, 1 + d % 3), (7, 2)]);
        }
        SealedSegment::from_write(3, &ws, 1_000)
    }

    #[test]
    fn seg_layout_covers_every_list_without_vocab_padding() {
        let seg = sealed();
        let mut arena = SegmentArena::new(4_000, 8_000);
        let l = SegLayout::build(&seg, &mut arena);
        // Only present terms are laid out; extents are disjoint and
        // back-to-back in ascending term order from the arena's run.
        let mut terms: Vec<TermId> = seg.terms().collect();
        terms.sort_unstable();
        let mut cursor = 5_000;
        for &t in &terms {
            let e = l.extent(t).expect("present term laid out");
            assert_eq!(e.lba, cursor);
            assert!(e.bytes() >= seg.doc_freq(t) * POSTING_BYTES);
            cursor = e.end();
        }
        assert_eq!(l.image_extent(), Extent::new(5_000, cursor - 5_000));
        assert_eq!(l.extent(999), None, "absent term has no extent");
        // Ranges clamp like the base layout.
        let t = terms[0];
        assert_eq!(l.range_extent(t, 0, 1).unwrap().sectors, 1);
        let full = l.extent(t).unwrap();
        assert!(full.contains(&l.range_extent(t, 0, u64::MAX).unwrap()));
    }

    #[test]
    fn arena_rings_wal_and_segments_in_bounds() {
        let mut a = SegmentArena::new(1_000, 80);
        let region = Extent::new(1_000, 80);
        let mut seen_wrap = false;
        let mut last = 0;
        for i in 0..50 {
            let e = a.wal_extent(100 + i * 37);
            assert!(region.contains(&e), "wal extent {e} escaped the arena");
            if e.lba < last {
                seen_wrap = true;
            }
            last = e.lba;
        }
        assert!(seen_wrap, "wal ring never wrapped");
        for sectors in [5u64, 30, 64, 200] {
            let lba = a.alloc_segment(sectors);
            let clamped = sectors.min(80 - 10);
            assert!(
                lba >= a.seg_base && lba + clamped <= 1_000 + 80,
                "segment run escaped the arena"
            );
        }
    }
}
