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
//!
//! The state is one 4-byte word per physical page, flat over the die: the
//! logical page a valid page holds, or the `FREE` / `INVALID` sentinel at
//! the top of the `u32` range. Per block only the program frontier, the
//! valid count and the erase count are kept.

use invariant::{Report, Validate};
use simclock::SimDuration;

use crate::params::FlashParams;

/// Logical page number (host-visible page index).
pub type Lpn = u64;

/// Physical page number: `block * pages_per_block + offset`.
pub type Ppn = u64;

/// Physical block index.
pub type BlockId = u64;

/// Page-state word of an erased, programmable page.
const FREE: u32 = u32::MAX;

/// Page-state word of a page holding stale data awaiting erase. Every
/// physical page number, and so every logical one, stays below it
/// ([`FlashParams::validate`] refuses larger geometries), so the
/// [`PageMapFtl`](crate::PageMapFtl) map can hold its page numbers in the
/// same four bytes.
pub(crate) const INVALID: u32 = u32::MAX - 1;

/// What a physical page currently holds: the decoded view of one
/// page-state word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageContent {
    /// Erased, programmable.
    Free,
    /// Holds live data for this logical page.
    Valid(Lpn),
    /// Holds stale data awaiting erase.
    Invalid,
}

impl PageContent {
    fn decode(word: u32) -> Self {
        match word {
            FREE => PageContent::Free,
            INVALID => PageContent::Invalid,
            lpn => PageContent::Valid(lpn as Lpn),
        }
    }
}

/// Per-block counters; the block's pages live in [`Nand`]'s flat array.
#[derive(Debug, Clone, Default)]
struct Block {
    /// Program frontier: next page offset that may be programmed.
    next_page: u32,
    valid: u32,
    erase_count: u64,
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

/// The NAND array. Its page words are indexed by [`Ppn`], so a page read
/// or invalidate is a load from one cache line; [`Nand::page`] decodes a
/// word into [`PageContent`].
#[derive(Debug, Clone)]
pub struct Nand {
    params: FlashParams,
    pages: Vec<u32>,
    blocks: Vec<Block>,
    stats: NandStats,
    free_pages: u64,
    valid_pages: u64,
}

impl Nand {
    /// A freshly erased die.
    pub fn new(params: FlashParams) -> Self {
        params.validate().expect("invalid flash parameters");
        let free_pages = params.physical_pages();
        Nand {
            pages: vec![FREE; free_pages as usize],
            blocks: vec![Block::default(); params.blocks as usize],
            params,
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

    /// Split a PPN into (block, offset).
    #[inline]
    pub fn locate(&self, ppn: Ppn) -> (BlockId, u32) {
        (
            ppn / self.params.pages_per_block as u64,
            (ppn % self.params.pages_per_block as u64) as u32,
        )
    }

    /// The page-state words of `block`.
    fn block_pages(&self, block: BlockId) -> &[u32] {
        let ppb = self.params.pages_per_block as usize;
        let first = block as usize * ppb;
        &self.pages[first..first + ppb]
    }

    /// Content of a physical page.
    pub fn page(&self, ppn: Ppn) -> PageContent {
        PageContent::decode(self.pages[ppn as usize])
    }

    /// Read a page. Reading free or invalid pages is a driver bug.
    #[inline]
    pub fn read(&mut self, ppn: Ppn) -> SimDuration {
        let word = self.pages[ppn as usize];
        assert!(
            word < INVALID,
            "read of non-valid page {ppn}: {:?}",
            PageContent::decode(word)
        );
        self.stats.page_reads += 1;
        self.params.page_read
    }

    /// Program the next free page of `block` with data for `lpn`.
    /// Returns the PPN programmed and the latency. Panics if the block is
    /// full — callers track frontiers via [`Nand::block_has_room`].
    pub(crate) fn program(&mut self, block: BlockId, lpn: Lpn) -> (Ppn, SimDuration) {
        let ppb = self.params.pages_per_block;
        let b = &mut self.blocks[block as usize];
        assert!(
            b.next_page < ppb,
            "program beyond block {block}'s last page"
        );
        let ppn = block * ppb as u64 + b.next_page as u64;
        debug_assert_eq!(self.pages[ppn as usize], FREE);
        assert!(lpn < INVALID as Lpn, "lpn {lpn} beyond the page-word range");
        self.pages[ppn as usize] = lpn as u32;
        b.next_page += 1;
        b.valid += 1;
        self.free_pages -= 1;
        self.valid_pages += 1;
        self.stats.page_programs += 1;
        (ppn, self.params.page_write)
    }

    /// Mark a previously valid page invalid (its logical page was
    /// overwritten or trimmed). Returns the page's block.
    pub fn invalidate(&mut self, ppn: Ppn) -> BlockId {
        let p = &mut self.pages[ppn as usize];
        assert!(
            *p < INVALID,
            "invalidate of non-valid page {ppn}: {:?}",
            PageContent::decode(*p)
        );
        *p = INVALID;
        let block = ppn / self.params.pages_per_block as u64;
        self.blocks[block as usize].valid -= 1;
        self.valid_pages -= 1;
        block
    }

    /// Erase a block. All its pages become free. Erasing a block that
    /// still holds valid pages is a driver bug (the FTL must migrate
    /// first).
    pub(crate) fn erase(&mut self, block: BlockId) -> SimDuration {
        let ppb = self.params.pages_per_block as usize;
        let b = &mut self.blocks[block as usize];
        assert_eq!(b.valid, 0, "erase of block {block} with valid pages");
        let reclaimed = b.next_page as u64;
        b.next_page = 0;
        b.erase_count += 1;
        let first = block as usize * ppb;
        self.pages[first..first + ppb].fill(FREE);
        self.free_pages += reclaimed;
        debug_assert!(self.free_pages <= self.params.physical_pages());
        self.stats.block_erases += 1;
        self.params.block_erase
    }

    /// Whether `block` still has unprogrammed pages.
    #[inline]
    pub fn block_has_room(&self, block: BlockId) -> bool {
        self.blocks[block as usize].next_page < self.params.pages_per_block
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
    #[inline]
    pub fn block_invalid(&self, block: BlockId) -> u32 {
        let b = &self.blocks[block as usize];
        b.next_page - b.valid
    }

    /// Erase count of `block`.
    #[inline]
    pub fn block_erase_count(&self, block: BlockId) -> u64 {
        self.blocks[block as usize].erase_count
    }

    /// The LPNs of the valid pages in `block`, with their offsets.
    pub fn block_valid_pages(&self, block: BlockId) -> Vec<(u32, Lpn)> {
        self.block_pages(block)
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w < INVALID)
            .map(|(i, &w)| (i as u32, w as Lpn))
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
        let ppb = self.params.pages_per_block;
        let mut free_scan = 0u64;
        let mut valid_scan = 0u64;
        let mut erase_scan = 0u64;
        for (id, b) in self.blocks.iter().enumerate() {
            let pages = self.block_pages(id as BlockId);
            // The per-block valid counter is maintained incrementally by
            // program/invalidate/erase; the page array is ground truth.
            let valid = pages.iter().filter(|&&w| w < INVALID).count() as u32;
            report.check(b.valid == valid, subject, "block-valid-agree", || {
                format!(
                    "block {id}: valid counter {} but {} Valid pages on the medium",
                    b.valid, valid
                )
            });
            report.check(b.next_page <= ppb, subject, "frontier-range", || {
                format!("block {id}: frontier {} beyond block", b.next_page)
            });
            // Pages at or past the program frontier are untouched since the
            // last erase — in-order programming never leaves data there.
            let frontier_clean = pages
                .get(b.next_page as usize..)
                .is_none_or(|rest| rest.iter().all(|&w| w == FREE));
            report.check(frontier_clean, subject, "frontier-free", || {
                format!(
                    "block {id}: programmed page at or past frontier {}",
                    b.next_page
                )
            });
            free_scan += ppb.saturating_sub(b.next_page) as u64;
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
    fn locate_roundtrip() {
        let n = nand();
        for ppn in 0..16 {
            let (b, o) = n.locate(ppn);
            assert_eq!(b * 4 + o as u64, ppn);
        }
    }
}
