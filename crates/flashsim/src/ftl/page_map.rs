//! The ideal page-mapped FTL — the paper's baseline (Intel's 1998
//! page-mapped scheme with the full map held in controller RAM).
//!
//! The map is one 4-byte physical page number per logical page, with
//! `UNMAPPED` for a page that has no flash copy; its length is the exported
//! capacity every request is bounds-checked against. The greedy GC victim
//! comes from a bucket index rather than a scan of the die: a block with
//! `n > 0` invalid pages sits in bucket `n`, a bitmap over block ids. An
//! invalidate moves its block up one bucket, an erase takes it out, and
//! `PageMapFtl::pick_victim` walks the fullest non-empty bucket, so a GC
//! run reads the blocks of one bucket instead of every block.

use std::collections::VecDeque;

use invariant::{audit, Report, Validate};
use simclock::SimDuration;

use crate::ftl::{Ftl, FtlError, FtlStats};
use crate::nand::{BlockId, Lpn, Nand, PageContent, Ppn};
use crate::params::FlashParams;

/// Map entry of a logical page with no flash copy. Physical page numbers
/// stay below the medium's sentinels, so it never names a real page.
const UNMAPPED: u32 = u32::MAX;

/// Page-level mapping with log-structured writes and greedy garbage
/// collection.
///
/// * Host writes stream into the **host active block**; GC migrations
///   stream into a separate **GC active block** (hot/cold separation, so a
///   migrated cold page does not re-pollute the hot frontier).
/// * GC runs when the free pool drops below the watermark and picks the
///   block with the most invalid pages (ties: least-worn, then lowest id) —
///   the classic greedy policy, which is near-optimal for the skewed
///   workloads search engines generate.
#[derive(Debug, Clone)]
pub struct PageMapFtl {
    nand: Nand,
    /// lpn → ppn, `UNMAPPED` when the page has no flash copy.
    map: Vec<u32>,
    /// Blocks holding invalid pages, by invalid count.
    victims: VictimIndex,
    /// Erased blocks, allocated FIFO: reusing the longest-erased block
    /// first (rather than LIFO) spreads wear across the pool.
    free: VecDeque<BlockId>,
    active_host: Option<BlockId>,
    active_gc: Option<BlockId>,
    stats: FtlStats,
}

/// Blocks bucketed by invalid-page count: bit `b` of row `n` is set when
/// block `b` has exactly `n` invalid pages. Row 0 stays empty, since a
/// block with nothing to reclaim is never a victim. A row is walked in
/// ascending block id, with sequential loads.
#[derive(Debug, Clone)]
struct VictimIndex {
    /// `words` bitmap words per row, rows `0..=pages_per_block`.
    bits: Vec<u64>,
    words: usize,
    /// Blocks per row.
    len: Vec<u32>,
}

impl VictimIndex {
    fn new(blocks: u64, pages_per_block: u32) -> Self {
        let words = blocks.div_ceil(64) as usize;
        let rows = pages_per_block as usize + 1;
        VictimIndex {
            bits: vec![0; rows * words],
            words,
            len: vec![0; rows],
        }
    }

    fn slot(&self, row: u32, block: BlockId) -> (usize, u64) {
        (
            row as usize * self.words + block as usize / 64,
            1 << (block % 64),
        )
    }

    fn insert(&mut self, row: u32, block: BlockId) {
        let (word, bit) = self.slot(row, block);
        self.bits[word] |= bit;
        self.len[row as usize] += 1;
    }

    fn clear(&mut self, row: u32, block: BlockId) {
        let (word, bit) = self.slot(row, block);
        self.bits[word] &= !bit;
        self.len[row as usize] -= 1;
    }

    /// One more page of `block` went invalid; it now has `invalid`.
    fn bump(&mut self, block: BlockId, invalid: u32) {
        if invalid > 1 {
            self.clear(invalid - 1, block);
        }
        self.insert(invalid, block);
    }

    /// `block`, holding `invalid` invalid pages, is about to be erased.
    fn remove(&mut self, block: BlockId, invalid: u32) {
        if invalid > 0 {
            self.clear(invalid, block);
        }
    }

    /// The blocks of one row, in ascending id.
    fn row(&self, row: usize) -> impl Iterator<Item = BlockId> + '_ {
        let words = &self.bits[row * self.words..(row + 1) * self.words];
        words.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    (i * 64 + bit) as BlockId
                })
            })
        })
    }
}

impl PageMapFtl {
    /// Fresh device.
    pub fn new(params: FlashParams) -> Self {
        let nand = Nand::new(params);
        let logical = nand.params().logical_pages();
        let blocks = nand.params().blocks;
        PageMapFtl {
            map: vec![UNMAPPED; logical as usize],
            victims: VictimIndex::new(blocks, nand.params().pages_per_block),
            nand,
            free: (0..blocks).collect(),
            active_host: None,
            active_gc: None,
            stats: FtlStats::default(),
        }
    }

    /// Whether `lpn` currently has a flash copy.
    pub fn is_mapped(&self, lpn: Lpn) -> bool {
        self.map.get(lpn as usize).is_some_and(|&p| p != UNMAPPED)
    }

    /// Test hook: overwrite a mapping-table entry without touching the
    /// medium, desynchronizing the map from the validity state so the
    /// invariant auditor can prove it notices.
    #[doc(hidden)]
    pub fn debug_corrupt_map(&mut self, lpn: Lpn, ppn: Option<Ppn>) {
        self.map[lpn as usize] = ppn.map_or(UNMAPPED, |p| p as u32);
    }

    /// Test hook: drop `block` from its victim bucket without touching the
    /// medium, as a missed invalidate would, so the invariant auditor can
    /// prove it notices.
    #[doc(hidden)]
    pub fn debug_corrupt_victim_index(&mut self, block: BlockId) {
        self.victims.remove(block, self.nand.block_invalid(block));
    }

    /// Invalidate a mapped page's flash copy and move its block up one
    /// victim bucket.
    fn invalidate(&mut self, ppn: u32) {
        let block = self.nand.invalidate(ppn as Ppn);
        self.victims.bump(block, self.nand.block_invalid(block));
    }

    /// Drop `lpn`'s mapping and invalidate its flash copy, if it has one.
    fn unmap(&mut self, lpn: Lpn) {
        let old = std::mem::replace(&mut self.map[lpn as usize], UNMAPPED);
        if old != UNMAPPED {
            self.invalidate(old);
        }
    }

    /// Allocate a block for a write frontier, running GC first if the pool
    /// is at or below the watermark.
    fn alloc_block(&mut self, latency: &mut SimDuration) -> Result<BlockId, FtlError> {
        if (self.free.len() as u64) <= self.nand.params().gc_low_watermark {
            *latency += self.collect_garbage()?;
        }
        self.free.pop_front().ok_or(FtlError::DeviceFull)
    }

    /// Greedy GC: reclaim until the pool exceeds the watermark. Returns the
    /// time spent. Charged to the request that triggered it.
    fn collect_garbage(&mut self) -> Result<SimDuration, FtlError> {
        let watermark = self.nand.params().gc_low_watermark;
        let mut spent = SimDuration::ZERO;
        let mut ran = false;
        while (self.free.len() as u64) <= watermark {
            let victim = self.pick_victim();
            #[cfg(test)]
            assert_eq!(
                victim,
                self.scan_victim(),
                "the bucket index and the scan disagree"
            );
            let Some(victim) = victim else {
                // Nothing reclaimable. Fine if we already hold a block.
                break;
            };
            ran = true;
            spent += self.reclaim(victim)?;
        }
        if ran {
            self.stats.gc_runs += 1;
        }
        if self.free.is_empty() {
            return Err(FtlError::DeviceFull);
        }
        Ok(spent)
    }

    /// The block with the most invalid pages; ties go to the least-worn
    /// block, then to the lowest id. Active frontiers and free blocks are
    /// never victims. Returns `None` when no other block has any invalid
    /// page.
    fn pick_victim(&self) -> Option<BlockId> {
        let rows = &self.victims.len;
        (1..rows.len())
            .rev()
            .filter(|&row| rows[row] > 0)
            .find_map(|row| {
                // Ascending ids and a strict `<` keep the lowest id among
                // equally worn blocks.
                let mut best: Option<(u64, BlockId)> = None;
                for b in self.victims.row(row) {
                    if Some(b) == self.active_host || Some(b) == self.active_gc {
                        continue;
                    }
                    let wear = self.nand.block_erase_count(b);
                    if best.is_none_or(|(w, _)| wear < w) {
                        best = Some((wear, b));
                    }
                }
                best.map(|(_, b)| b)
            })
    }

    /// Migrate the victim's valid pages to the GC frontier and erase it.
    fn reclaim(&mut self, victim: BlockId) -> Result<SimDuration, FtlError> {
        let mut spent = SimDuration::ZERO;
        for (offset, lpn) in self.nand.block_valid_pages(victim) {
            let old_ppn = victim * self.nand.params().pages_per_block as u64 + offset as u64;
            spent += self.nand.read(old_ppn);
            // Ensure a GC frontier with room. The pool is guaranteed
            // non-empty here because the watermark keeps at least one
            // block back for exactly this migration.
            let gc_block = match self.active_gc {
                Some(b) if self.nand.block_has_room(b) => b,
                _ => {
                    let b = self.free.pop_front().ok_or(FtlError::DeviceFull)?;
                    self.active_gc = Some(b);
                    b
                }
            };
            let (new_ppn, t) = self.nand.program(gc_block, lpn);
            spent += t;
            self.invalidate(old_ppn as u32);
            self.map[lpn as usize] = new_ppn as u32;
            self.stats.pages_moved += 1;
        }
        self.victims.remove(victim, self.nand.block_invalid(victim));
        spent += self.nand.erase(victim);
        self.free.push_back(victim);
        Ok(spent)
    }
}

impl Ftl for PageMapFtl {
    fn params(&self) -> &FlashParams {
        self.nand.params()
    }

    fn nand(&self) -> &Nand {
        &self.nand
    }

    #[inline]
    fn logical_pages(&self) -> u64 {
        self.map.len() as u64
    }

    fn read(&mut self, lpn: Lpn) -> Result<SimDuration, FtlError> {
        self.check_lpn(lpn)?;
        self.stats.host_reads += 1;
        let t = match self.map[lpn as usize] {
            UNMAPPED => SimDuration::ZERO,
            ppn => self.nand.read(ppn as Ppn),
        };
        audit!(self, "PageMapFtl::read");
        Ok(t)
    }

    fn write(&mut self, lpn: Lpn) -> Result<SimDuration, FtlError> {
        self.check_lpn(lpn)?;
        self.stats.host_writes += 1;
        let mut t = SimDuration::ZERO;
        // Invalidate the stale copy first so the old page is reclaimable
        // by the GC this very write may trigger.
        self.unmap(lpn);
        let host_block = match self.active_host {
            Some(b) if self.nand.block_has_room(b) => b,
            _ => {
                let b = self.alloc_block(&mut t)?;
                self.active_host = Some(b);
                b
            }
        };
        let (ppn, tw) = self.nand.program(host_block, lpn);
        t += tw;
        self.map[lpn as usize] = ppn as u32;
        audit!(self, "PageMapFtl::write");
        Ok(t)
    }

    fn trim(&mut self, lpn: Lpn) -> Result<SimDuration, FtlError> {
        self.check_lpn(lpn)?;
        self.stats.host_trims += 1;
        self.unmap(lpn);
        audit!(self, "PageMapFtl::trim");
        Ok(SimDuration::ZERO)
    }

    fn stats(&self) -> FtlStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = FtlStats::default();
        self.nand.reset_stats();
    }
}

impl Validate for PageMapFtl {
    fn validate(&self, report: &mut Report) {
        let subject = "PageMapFtl";
        self.nand.validate(report);
        let params = self.nand.params();
        // Forward map: every mapped LPN points at a page the medium
        // considers live for exactly that LPN, and no physical page is
        // claimed twice. Together with the count check below this makes
        // map and validity bitmap mutually consistent: mapped == valid.
        let mut mapped = 0u64;
        let mut claimed = vec![false; params.physical_pages() as usize];
        for (lpn, &ppn) in self.map.iter().enumerate() {
            if ppn == UNMAPPED {
                continue;
            }
            mapped += 1;
            let content = self.nand.page(ppn as Ppn);
            report.check(
                content == PageContent::Valid(lpn as Lpn),
                subject,
                "map-valid-agree",
                || format!("lpn {lpn} maps to ppn {ppn} holding {content:?}"),
            );
            report.check(
                !std::mem::replace(&mut claimed[ppn as usize], true),
                subject,
                "map-injective",
                || format!("ppn {ppn} mapped by more than one logical page"),
            );
        }
        report.check(
            self.nand.valid_pages() == mapped,
            subject,
            "valid-count-agree",
            || {
                format!(
                    "{} valid pages on the medium but {} mapped logical pages",
                    self.nand.valid_pages(),
                    mapped
                )
            },
        );
        // The free pool holds fully-erased, unique, non-frontier blocks.
        let mut pooled = vec![false; params.blocks as usize];
        for &b in &self.free {
            report.check(
                !std::mem::replace(&mut pooled[b as usize], true),
                subject,
                "free-pool-unique",
                || format!("block {b} pooled twice"),
            );
            report.check(
                self.nand.block_frontier(b) == 0 && self.nand.block_valid(b) == 0,
                subject,
                "free-pool-erased",
                || {
                    format!(
                        "pooled block {b} has frontier {} / {} valid pages",
                        self.nand.block_frontier(b),
                        self.nand.block_valid(b)
                    )
                },
            );
            report.check(
                Some(b) != self.active_host && Some(b) != self.active_gc,
                subject,
                "free-pool-active",
                || format!("block {b} pooled while serving as a write frontier"),
            );
        }
        // Victim index: every block with n > 0 invalid pages is in bucket
        // n exactly once, and no other block is in any bucket.
        // (buckets listing it, the last of them) per block.
        let mut listed = vec![(0u32, 0usize); params.blocks as usize];
        for row in 0..self.victims.len.len() {
            let mut members = 0;
            for b in self.victims.row(row) {
                members += 1;
                let entry = listed.get_mut(b as usize);
                report.check(entry.is_some(), subject, "victim-index-agree", || {
                    format!("bucket {row} lists block {b}, beyond the die")
                });
                if let Some((times, last)) = entry {
                    *times += 1;
                    *last = row;
                }
            }
            report.check(
                self.victims.len[row] == members,
                subject,
                "victim-index-agree",
                || {
                    format!(
                        "bucket {row} counts {} blocks but lists {members}",
                        self.victims.len[row]
                    )
                },
            );
        }
        for (b, &(times, last)) in listed.iter().enumerate() {
            let invalid = self.nand.block_invalid(b as BlockId) as usize;
            let agree = if invalid > 0 {
                times == 1 && last == invalid
            } else {
                times == 0
            };
            report.check(agree, subject, "victim-index-agree", || {
                format!(
                    "block {b} has {invalid} invalid pages but is listed in {times} buckets (last {last})"
                )
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ftl() -> PageMapFtl {
        PageMapFtl::new(FlashParams::tiny(8)) // 8 blocks × 4 pages, 6 logical blocks
    }

    impl PageMapFtl {
        fn is_frontier(&self, b: BlockId) -> bool {
            Some(b) == self.active_host || Some(b) == self.active_gc
        }

        /// The greedy victim by definition: a scan of every block, keeping
        /// the first block with more invalid pages, or as many and less
        /// wear. The oracle [`PageMapFtl::pick_victim`] is held to.
        pub(super) fn scan_victim(&self) -> Option<BlockId> {
            let mut best: Option<(BlockId, u32, u64)> = None;
            for b in 0..self.nand.params().blocks {
                if self.is_frontier(b) {
                    continue;
                }
                let invalid = self.nand.block_invalid(b);
                if invalid == 0 {
                    continue;
                }
                let wear = self.nand.block_erase_count(b);
                let better = match best {
                    None => true,
                    Some((_, bi, bw)) => invalid > bi || (invalid == bi && wear < bw),
                };
                if better {
                    best = Some((b, invalid, wear));
                }
            }
            best.map(|(b, _, _)| b)
        }
    }

    /// Which of the victim choice's tie-breaks a device state exercised.
    #[derive(Debug, Default)]
    struct Ties {
        /// Candidates share the most invalid pages but not their wear, so
        /// the wear decides.
        invalid: bool,
        /// ... and the least wear, so the lower id decides.
        wear: bool,
        /// A write frontier holds more invalid pages than any candidate.
        frontier_best: bool,
    }

    impl Ties {
        fn note(&mut self, f: &PageMapFtl) {
            let blocks = 0..f.nand.params().blocks;
            let invalid = |b| f.nand.block_invalid(b);
            let candidates: Vec<BlockId> = blocks
                .clone()
                .filter(|&b| !f.is_frontier(b) && invalid(b) > 0)
                .collect();
            let most = candidates.iter().map(|&b| invalid(b)).max().unwrap_or(0);
            let top: Vec<u64> = candidates
                .iter()
                .filter(|&&b| invalid(b) == most)
                .map(|&b| f.nand.block_erase_count(b))
                .collect();
            let least = top.iter().min().copied().unwrap_or(0);
            self.invalid |= top.iter().any(|&w| w != least);
            self.wear |= top.iter().filter(|&&w| w == least).count() > 1;
            self.frontier_best |= blocks
                .filter(|&b| f.is_frontier(b))
                .any(|b| invalid(b) > most);
        }
    }

    /// Drive a `tiny(blocks)` device through `ops` — `(kind, raw)` pairs:
    /// kinds 0–3 overwrite one of three hot pages, 4–8 write and 9 trims a
    /// page anywhere — holding the bucket index to the scan after every
    /// operation (and, inside GC, before every victim choice) and the
    /// validator clean at the end.
    fn drive(blocks: u64, ops: &[(u8, u64)], ties: &mut Ties) {
        let mut f = PageMapFtl::new(FlashParams::tiny(blocks));
        let logical = f.logical_pages();
        for &(kind, raw) in ops {
            let lpn = if kind < 4 { raw % 3 } else { raw % logical };
            if kind == 9 {
                f.trim(lpn).unwrap();
            } else {
                f.write(lpn).unwrap();
            }
            assert_eq!(f.pick_victim(), f.scan_victim(), "after {kind}/{lpn}");
            ties.note(&f);
        }
        let report = f.validation_report();
        assert!(report.is_clean(), "{}", report.summary());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn bucket_index_picks_the_scans_victim(
            blocks in 4u64..=16,
            ops in proptest::prop::collection::vec((0u8..10, 0u64..1_000), 1..600),
        ) {
            drive(blocks, &ops, &mut Ties::default());
        }
    }

    #[test]
    fn victim_sequences_reach_every_tie_break() {
        let mut rng = simclock::Rng::new(5);
        let mut ties = Ties::default();
        for blocks in 4..=16 {
            let ops: Vec<(u8, u64)> = (0..600)
                .map(|_| (rng.next_below(10) as u8, rng.next_below(1_000)))
                .collect();
            drive(blocks, &ops, &mut ties);
        }
        assert!(ties.invalid && ties.wear && ties.frontier_best, "{ties:?}");
    }

    #[test]
    fn write_then_read_charges_page_costs() {
        let mut f = ftl();
        let tw = f.write(0).unwrap();
        assert_eq!(tw, f.params().page_write);
        let tr = f.read(0).unwrap();
        assert_eq!(tr, f.params().page_read);
        assert!(f.is_mapped(0));
    }

    #[test]
    fn unmapped_read_is_controller_only() {
        let mut f = ftl();
        assert_eq!(f.read(5).unwrap(), SimDuration::ZERO);
        assert_eq!(f.nand().stats().page_reads, 0);
    }

    #[test]
    fn out_of_range_is_rejected() {
        let mut f = ftl();
        let lim = f.logical_pages();
        assert_eq!(f.read(lim), Err(FtlError::OutOfRange(lim)));
        assert_eq!(f.write(lim), Err(FtlError::OutOfRange(lim)));
        assert_eq!(f.trim(lim), Err(FtlError::OutOfRange(lim)));
    }

    #[test]
    fn overwrite_invalidates_old_copy() {
        let mut f = ftl();
        f.write(3).unwrap();
        f.write(3).unwrap();
        assert_eq!(f.nand().valid_pages(), 1);
        assert_eq!(f.nand().stats().page_programs, 2);
    }

    #[test]
    fn trim_unmaps_without_media_write() {
        let mut f = ftl();
        f.write(1).unwrap();
        let programs_before = f.nand().stats().page_programs;
        f.trim(1).unwrap();
        assert!(!f.is_mapped(1));
        assert_eq!(f.nand().valid_pages(), 0);
        assert_eq!(f.nand().stats().page_programs, programs_before);
        // Reading after trim is a zero-fill.
        assert_eq!(f.read(1).unwrap(), SimDuration::ZERO);
        // Trimming an unmapped page is a no-op.
        f.trim(1).unwrap();
    }

    #[test]
    fn sustained_overwrites_trigger_gc_and_stay_correct() {
        let mut f = ftl();
        let logical = f.logical_pages();
        // Fill the device, then overwrite everything several times over.
        for round in 0..6 {
            for lpn in 0..logical {
                f.write(lpn).unwrap();
                let _ = round;
            }
        }
        assert!(f.stats().gc_runs > 0, "GC must have run");
        assert!(f.nand().stats().block_erases > 0);
        // Every logical page still mapped and readable.
        for lpn in 0..logical {
            assert!(f.is_mapped(lpn));
            assert!(f.read(lpn).unwrap() >= f.params().page_read);
        }
        // Valid pages == logical pages exactly.
        assert_eq!(f.nand().valid_pages(), logical);
    }

    #[test]
    fn gc_cost_lands_on_the_triggering_write() {
        let mut f = ftl();
        let logical = f.logical_pages();
        let plain = f.params().page_write;
        let mut spikes = 0;
        for _ in 0..4 {
            for lpn in 0..logical {
                let t = f.write(lpn).unwrap();
                if t > plain {
                    spikes += 1;
                    // A GC-carrying write includes at least one erase.
                    assert!(t >= plain + f.params().block_erase);
                }
            }
        }
        assert!(spikes > 0, "some writes must carry GC cost");
    }

    #[test]
    fn write_amplification_exceeds_one_under_pressure() {
        let mut f = ftl();
        let logical = f.logical_pages();
        let mut rng = simclock::Rng::new(7);
        for _ in 0..(logical * 10) {
            f.write(rng.next_below(logical)).unwrap();
        }
        let wa = f
            .stats()
            .write_amplification(f.nand().stats().page_programs);
        assert!(wa > 1.0, "WA = {wa}");
        assert!(wa < 4.0, "WA = {wa} unreasonably high for 25% OP");
    }

    #[test]
    fn sequential_writes_have_unit_amplification() {
        let mut f = ftl();
        let logical = f.logical_pages();
        for lpn in 0..logical {
            f.write(lpn).unwrap();
        }
        let wa = f
            .stats()
            .write_amplification(f.nand().stats().page_programs);
        assert!((wa - 1.0).abs() < 1e-12, "first fill must not amplify");
    }

    #[test]
    fn trim_reduces_gc_pressure() {
        // Write the whole device, trim half, then overwrite the other
        // half repeatedly: with the trims, GC victims are mostly garbage,
        // so migration work drops and erases don't grow.
        let run = |trim: bool| {
            let mut f = ftl();
            let logical = f.logical_pages();
            for lpn in 0..logical {
                f.write(lpn).unwrap();
            }
            // Hot set = even pages, cold set = odd pages, so hot and cold
            // interleave within physical blocks and GC must migrate the
            // cold neighbours — unless they were trimmed.
            if trim {
                for lpn in (1..logical).step_by(2) {
                    f.trim(lpn).unwrap();
                }
            }
            for _ in 0..8 {
                for lpn in (0..logical).step_by(2) {
                    f.write(lpn).unwrap();
                }
            }
            (f.stats().pages_moved, f.nand().stats().block_erases)
        };
        let (moved_t, erases_t) = run(true);
        let (moved_n, erases_n) = run(false);
        assert!(
            moved_t < moved_n,
            "trim must reduce GC migration ({moved_t} vs {moved_n})"
        );
        assert!(erases_t <= erases_n, "trim must not add erases");
    }

    #[test]
    fn wear_is_spread_across_blocks() {
        let mut f = ftl();
        let logical = f.logical_pages();
        let mut rng = simclock::Rng::new(3);
        for _ in 0..(logical * 30) {
            f.write(rng.next_below(logical)).unwrap();
        }
        let (min, max, _) = f.nand().wear();
        assert!(max > 0);
        // FIFO pooling keeps the spread loose but bounded.
        assert!(max - min <= max, "sanity");
        assert!(min > 0 || max < 10, "no block may monopolize erases");
    }

    #[test]
    fn validation_clean_through_gc_and_wear_leveling() {
        let mut f = PageMapFtl::new(FlashParams::tiny(12));
        let logical = f.logical_pages();
        let mut rng = simclock::Rng::new(11);
        for i in 0..logical * 25 {
            let lpn = rng.next_below(logical);
            if i % 7 == 0 {
                f.trim(lpn).unwrap();
            } else {
                f.write(lpn).unwrap();
            }
            if f.is_mapped(lpn) {
                f.read(lpn).unwrap();
            }
        }
        let report = f.validation_report();
        assert!(report.is_clean(), "{}", report.summary());
    }

    #[test]
    fn corrupted_map_entry_trips_the_validator() {
        let mut f = ftl();
        f.write(0).unwrap();
        f.write(1).unwrap();
        // Point lpn 1 at lpn 0's physical page: the page is valid but for
        // the wrong LPN, and two logical pages now claim one PPN.
        let ppn0 = f.map[0] as Ppn;
        assert_eq!(f.nand().page(ppn0), PageContent::Valid(0));
        f.debug_corrupt_map(1, Some(ppn0));
        let report = f.validation_report();
        let hit: Vec<_> = report.violations().iter().map(|v| v.invariant).collect();
        assert!(hit.contains(&"map-valid-agree"), "{}", report.summary());
        assert!(hit.contains(&"map-injective"), "{}", report.summary());
    }

    #[test]
    fn dropped_victim_bucket_entry_trips_the_validator() {
        let mut f = ftl();
        f.write(0).unwrap();
        f.write(0).unwrap();
        // The overwrite left one invalid page in the host frontier, which
        // now sits in bucket 1; lose it there.
        let block = f.active_host.unwrap();
        assert_eq!(f.nand().block_invalid(block), 1);
        assert!(f.validation_report().is_clean());
        f.debug_corrupt_victim_index(block);
        let report = f.validation_report();
        let hit: Vec<_> = report.violations().iter().map(|v| v.invariant).collect();
        assert_eq!(hit, ["victim-index-agree"], "{}", report.summary());
    }

    #[test]
    fn reset_stats_preserves_state() {
        let mut f = ftl();
        f.write(0).unwrap();
        f.reset_stats();
        assert_eq!(f.stats().host_writes, 0);
        assert_eq!(f.nand().stats().page_programs, 0);
        assert!(f.is_mapped(0), "mapping survives stats reset");
    }
}
