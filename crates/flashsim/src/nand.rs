//! The raw NAND medium.
//!
//! [`Nand`] enforces the three hard rules of NAND flash and charges the
//! datasheet timing for each primitive:
//!
//! 1. **Erase-before-write** — a page can be programmed only when free;
//! 2. **Program-once** — a programmed page stays programmed until the
//!    whole block is erased;
//! 3. **In-order programming** — pages within a block must be programmed
//!    at increasing page offsets (the NAND "sequential program" rule that
//!    makes log-structured FTLs the natural design).
//!
//! Violations are driver bugs, so they panic rather than return errors —
//! an FTL that breaks the medium's rules must fail tests loudly.

use invariant::{Report, Validate};
use simclock::SimDuration;

use crate::params::FlashParams;

/// Logical page number (host-visible page index).
pub type Lpn = u64;

/// Physical page number: `block * pages_per_block + offset`.
pub type Ppn = u64;

/// Physical block index.
pub type BlockId = u64;

/// What a physical page currently holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageContent {
    /// Erased, programmable.
    Free,
    /// Holds live data for this logical page.
    Valid(Lpn),
    /// Holds stale data awaiting erase.
    Invalid,
}

/// Per-block state.
#[derive(Debug, Clone)]
struct Block {
    pages: Vec<PageContent>,
    /// Program frontier: next page offset that may be programmed.
    next_page: u32,
    valid: u32,
    erase_count: u64,
}

impl Block {
    fn new(pages_per_block: u32) -> Self {
        Block {
            pages: vec![PageContent::Free; pages_per_block as usize],
            next_page: 0,
            valid: 0,
            erase_count: 0,
        }
    }

    fn is_full(&self) -> bool {
        self.next_page as usize == self.pages.len()
    }
}

/// Medium-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NandStats {
    /// Pages read from the medium (host + GC).
    pub page_reads: u64,
    /// Pages programmed (host + GC).
    pub page_programs: u64,
    /// Blocks erased.
    pub block_erases: u64,
}

/// The NAND array.
#[derive(Debug, Clone)]
pub struct Nand {
    params: FlashParams,
    blocks: Vec<Block>,
    stats: NandStats,
    free_pages: u64,
    valid_pages: u64,
}

impl Nand {
    /// A freshly erased die.
    pub fn new(params: FlashParams) -> Self {
        params.validate().expect("invalid flash parameters");
        let blocks = (0..params.blocks)
            .map(|_| Block::new(params.pages_per_block))
            .collect();
        let free_pages = params.physical_pages();
        Nand {
            params,
            blocks,
            stats: NandStats::default(),
            free_pages,
            valid_pages: 0,
        }
    }

    /// Device parameters.
    pub fn params(&self) -> &FlashParams {
        &self.params
    }

    /// Medium counters.
    pub fn stats(&self) -> NandStats {
        self.stats
    }

    /// Zero the medium counters (not the wear state).
    pub fn reset_stats(&mut self) {
        self.stats = NandStats::default();
    }

    #[inline]
    fn ppn(&self, block: BlockId, offset: u32) -> Ppn {
        block * self.params.pages_per_block as u64 + offset as u64
    }

    /// Split a PPN into (block, offset).
    #[inline]
    pub fn locate(&self, ppn: Ppn) -> (BlockId, u32) {
        (
            ppn / self.params.pages_per_block as u64,
            (ppn % self.params.pages_per_block as u64) as u32,
        )
    }

    /// Content of a physical page.
    pub fn page(&self, ppn: Ppn) -> PageContent {
        let (b, o) = self.locate(ppn);
        self.blocks[b as usize].pages[o as usize]
    }

    /// Read a page. Reading free or invalid pages is a driver bug.
    pub fn read(&mut self, ppn: Ppn) -> SimDuration {
        let content = self.page(ppn);
        assert!(
            matches!(content, PageContent::Valid(_)),
            "read of non-valid page {ppn}: {content:?}"
        );
        self.stats.page_reads += 1;
        self.params.page_read
    }

    /// Program the next free page of `block` with data for `lpn`.
    /// Returns the PPN programmed and the latency. Panics if the block is
    /// full — callers track frontiers via [`Nand::block_has_room`].
    pub(crate) fn program(&mut self, block: BlockId, lpn: Lpn) -> (Ppn, SimDuration) {
        let frontier = self.blocks[block as usize].next_page;
        self.program_at(block, frontier, lpn)
    }

    /// Program `block` at `offset`, which must be at or past the program
    /// frontier (NAND allows skipping forward, never back). Skipped pages
    /// are burned: they stay `Free` but become unprogrammable until the
    /// next erase, and are accounted as consumed.
    pub(crate) fn program_at(
        &mut self,
        block: BlockId,
        offset: u32,
        lpn: Lpn,
    ) -> (Ppn, SimDuration) {
        let pages_per_block = self.params.pages_per_block;
        let b = &mut self.blocks[block as usize];
        assert!(
            offset < pages_per_block,
            "program offset {offset} beyond block of {pages_per_block} pages"
        );
        assert!(
            offset >= b.next_page,
            "program into full block {block} or behind its frontier ({offset} < {})",
            b.next_page
        );
        debug_assert_eq!(b.pages[offset as usize], PageContent::Free);
        b.pages[offset as usize] = PageContent::Valid(lpn);
        let consumed = (offset - b.next_page + 1) as u64;
        b.next_page = offset + 1;
        b.valid += 1;
        self.free_pages -= consumed;
        self.valid_pages += 1;
        self.stats.page_programs += 1;
        (self.ppn(block, offset), self.params.page_write)
    }

    /// Mark a previously valid page invalid (its logical page was
    /// overwritten or trimmed).
    pub fn invalidate(&mut self, ppn: Ppn) {
        let (block, offset) = self.locate(ppn);
        let b = &mut self.blocks[block as usize];
        let p = &mut b.pages[offset as usize];
        assert!(
            matches!(p, PageContent::Valid(_)),
            "invalidate of non-valid page {ppn}: {p:?}"
        );
        *p = PageContent::Invalid;
        b.valid -= 1;
        self.valid_pages -= 1;
    }

    /// Erase a block. All its pages become free. Erasing a block that
    /// still holds valid pages is a driver bug (the FTL must migrate
    /// first).
    pub(crate) fn erase(&mut self, block: BlockId) -> SimDuration {
        let pages_per_block = self.params.pages_per_block as u64;
        let b = &mut self.blocks[block as usize];
        assert_eq!(b.valid, 0, "erase of block {block} with valid pages");
        let reclaimed = b.next_page as u64;
        b.pages.fill(PageContent::Free);
        b.next_page = 0;
        b.erase_count += 1;
        self.free_pages += reclaimed;
        debug_assert!(self.free_pages <= self.params.physical_pages());
        let _ = pages_per_block;
        self.stats.block_erases += 1;
        self.params.block_erase
    }

    /// Whether `block` still has unprogrammed pages.
    pub fn block_has_room(&self, block: BlockId) -> bool {
        !self.blocks[block as usize].is_full()
    }

    /// Next programmable offset of `block` (== pages_per_block when full).
    pub fn block_frontier(&self, block: BlockId) -> u32 {
        self.blocks[block as usize].next_page
    }

    /// Valid pages in `block`.
    pub fn block_valid(&self, block: BlockId) -> u32 {
        self.blocks[block as usize].valid
    }

    /// Invalid (reclaimable) pages in `block`: programmed minus valid.
    pub fn block_invalid(&self, block: BlockId) -> u32 {
        let b = &self.blocks[block as usize];
        b.next_page - b.valid
    }

    /// Erase count of `block`.
    pub fn block_erase_count(&self, block: BlockId) -> u64 {
        self.blocks[block as usize].erase_count
    }

    /// The LPNs of the valid pages in `block`, with their offsets.
    pub fn block_valid_pages(&self, block: BlockId) -> Vec<(u32, Lpn)> {
        self.blocks[block as usize]
            .pages
            .iter()
            .enumerate()
            .filter_map(|(i, p)| match p {
                PageContent::Valid(lpn) => Some((i as u32, *lpn)),
                _ => None,
            })
            .collect()
    }

    /// Total free (programmable) pages on the die.
    pub fn free_pages(&self) -> u64 {
        self.free_pages
    }

    /// Total valid pages on the die.
    pub fn valid_pages(&self) -> u64 {
        self.valid_pages
    }

    /// (min, max, mean) erase count across blocks — wear-leveling summary.
    pub fn wear(&self) -> (u64, u64, f64) {
        let mut min = u64::MAX;
        let mut max = 0;
        let mut sum = 0u64;
        for b in &self.blocks {
            min = min.min(b.erase_count);
            max = max.max(b.erase_count);
            sum += b.erase_count;
        }
        (min, max, sum as f64 / self.blocks.len() as f64)
    }
}

impl Validate for Nand {
    fn validate(&self, report: &mut Report) {
        let subject = "Nand";
        let mut free_scan = 0u64;
        let mut valid_scan = 0u64;
        let mut erase_scan = 0u64;
        for (id, b) in self.blocks.iter().enumerate() {
            // The per-block valid counter is maintained incrementally by
            // program/invalidate/erase; the page array is ground truth.
            let valid = b
                .pages
                .iter()
                .filter(|p| matches!(p, PageContent::Valid(_)))
                .count() as u32;
            report.check(b.valid == valid, subject, "block-valid-agree", || {
                format!(
                    "block {id}: valid counter {} but {} Valid pages on the medium",
                    b.valid, valid
                )
            });
            // Pages at or past the program frontier are untouched since the
            // last erase — in-order programming never leaves data there.
            let frontier_clean = b.pages[b.next_page as usize..]
                .iter()
                .all(|p| matches!(p, PageContent::Free));
            report.check(frontier_clean, subject, "frontier-free", || {
                format!(
                    "block {id}: programmed page at or past frontier {}",
                    b.next_page
                )
            });
            report.check(
                b.next_page as usize <= b.pages.len(),
                subject,
                "frontier-range",
                || format!("block {id}: frontier {} beyond block", b.next_page),
            );
            free_scan += (b.pages.len() - b.next_page as usize) as u64;
            valid_scan += b.valid as u64;
            erase_scan += b.erase_count;
        }
        report.check(
            self.free_pages == free_scan,
            subject,
            "free-accounting",
            || {
                format!(
                    "free-page counter {} but {} programmable pages behind frontiers",
                    self.free_pages, free_scan
                )
            },
        );
        report.check(
            self.valid_pages == valid_scan,
            subject,
            "valid-accounting",
            || {
                format!(
                    "valid-page counter {} but {} per-block valid pages",
                    self.valid_pages, valid_scan
                )
            },
        );
        // Medium counters can be reset, per-block wear never is, so the
        // erase counter can only lag the cumulative wear.
        report.check(
            self.stats.block_erases <= erase_scan,
            subject,
            "erase-wear-agree",
            || {
                format!(
                    "{} erases counted since reset exceed lifetime wear {}",
                    self.stats.block_erases, erase_scan
                )
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nand() -> Nand {
        Nand::new(FlashParams::tiny(4)) // 4 blocks × 4 pages
    }

    #[test]
    fn fresh_die_is_all_free() {
        let n = nand();
        assert_eq!(n.free_pages(), 16);
        assert_eq!(n.valid_pages(), 0);
        assert_eq!(n.page(0), PageContent::Free);
    }

    #[test]
    fn program_read_invalidate_cycle() {
        let mut n = nand();
        let (ppn, t) = n.program(1, 42);
        assert_eq!(ppn, 4); // block 1, offset 0
        assert_eq!(t, n.params().page_write);
        assert_eq!(n.page(ppn), PageContent::Valid(42));
        assert_eq!(n.read(ppn), n.params().page_read);
        n.invalidate(ppn);
        assert_eq!(n.page(ppn), PageContent::Invalid);
        assert_eq!(n.block_invalid(1), 1);
    }

    #[test]
    fn programming_is_in_order() {
        let mut n = nand();
        let (p0, _) = n.program(2, 1);
        let (p1, _) = n.program(2, 2);
        let (p2, _) = n.program(2, 3);
        assert_eq!((p0, p1, p2), (8, 9, 10));
        assert_eq!(n.block_frontier(2), 3);
    }

    #[test]
    #[should_panic(expected = "beyond block")]
    fn program_past_end_panics() {
        let mut n = nand();
        for i in 0..5 {
            n.program(0, i);
        }
    }

    #[test]
    #[should_panic(expected = "non-valid page")]
    fn read_of_free_page_panics() {
        let mut n = nand();
        n.read(0);
    }

    #[test]
    #[should_panic(expected = "valid pages")]
    fn erase_with_valid_pages_panics() {
        let mut n = nand();
        n.program(0, 7);
        n.erase(0);
    }

    #[test]
    fn erase_reclaims_and_counts_wear() {
        let mut n = nand();
        for i in 0..4 {
            let (ppn, _) = n.program(0, i);
            n.invalidate(ppn);
        }
        assert_eq!(n.free_pages(), 12);
        let t = n.erase(0);
        assert_eq!(t, n.params().block_erase);
        assert_eq!(n.free_pages(), 16);
        assert_eq!(n.block_erase_count(0), 1);
        assert_eq!(n.block_frontier(0), 0);
        // Reprogram after erase is legal.
        n.program(0, 99);
    }

    #[test]
    fn valid_page_listing() {
        let mut n = nand();
        let (p0, _) = n.program(3, 10);
        n.program(3, 11);
        n.invalidate(p0);
        assert_eq!(n.block_valid_pages(3), vec![(1, 11)]);
        assert_eq!(n.block_valid(3), 1);
        assert_eq!(n.block_invalid(3), 1);
    }

    #[test]
    fn stats_count_everything() {
        let mut n = nand();
        let (ppn, _) = n.program(0, 5);
        n.read(ppn);
        n.read(ppn);
        n.invalidate(ppn);
        n.erase(0);
        let s = n.stats();
        assert_eq!(s.page_programs, 1);
        assert_eq!(s.page_reads, 2);
        assert_eq!(s.block_erases, 1);
        n.reset_stats();
        assert_eq!(n.stats().page_programs, 0);
        // Wear survives the reset.
        assert_eq!(n.block_erase_count(0), 1);
    }

    #[test]
    fn wear_summary() {
        let mut n = nand();
        n.erase(0);
        n.erase(0);
        n.erase(1);
        let (min, max, mean) = n.wear();
        assert_eq!(min, 0);
        assert_eq!(max, 2);
        assert!((mean - 0.75).abs() < 1e-12);
    }

    #[test]
    fn program_at_skips_forward_and_burns_pages() {
        let mut n = nand();
        let (ppn, _) = n.program_at(0, 2, 9);
        assert_eq!(ppn, 2);
        assert_eq!(n.block_frontier(0), 3);
        // Offsets 0 and 1 were skipped: consumed but still Free.
        assert_eq!(n.free_pages(), 16 - 3);
        assert_eq!(n.page(0), PageContent::Free);
        // Erase restores the full block.
        n.invalidate(ppn);
        n.erase(0);
        assert_eq!(n.free_pages(), 16);
    }

    #[test]
    #[should_panic(expected = "behind its frontier")]
    fn program_at_rejects_backwards() {
        let mut n = nand();
        n.program_at(0, 2, 1);
        n.program_at(0, 1, 2);
    }

    #[test]
    fn locate_roundtrip() {
        let n = nand();
        for ppn in 0..16 {
            let (b, o) = n.locate(ppn);
            assert_eq!(b * 4 + o as u64, ppn);
        }
    }
}
