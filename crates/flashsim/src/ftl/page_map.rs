//! The ideal page-mapped FTL — the paper's baseline (Intel's 1998
//! page-mapped scheme with the full map held in controller RAM).

use invariant::{audit, Report, Validate};
use simclock::SimDuration;

use crate::ftl::{FreePool, Ftl, FtlError, FtlStats};
use crate::nand::{BlockId, Lpn, Nand, PageContent, Ppn};
use crate::params::FlashParams;

/// Page-level mapping with log-structured writes and greedy garbage
/// collection.
///
/// * Host writes stream into the **host active block**; GC migrations
///   stream into a separate **GC active block** (hot/cold separation, so a
///   migrated cold page does not re-pollute the hot frontier).
/// * GC runs when the free pool drops below the watermark and picks the
///   block with the most invalid pages (ties: least-worn) — the classic
///   greedy policy, which is near-optimal for the skewed workloads search
///   engines generate.
#[derive(Debug, Clone)]
pub struct PageMapFtl {
    nand: Nand,
    /// lpn → ppn, `None` when unmapped.
    map: Vec<Option<Ppn>>,
    free: FreePool,
    active_host: Option<BlockId>,
    active_gc: Option<BlockId>,
    stats: FtlStats,
}

impl PageMapFtl {
    /// Fresh device.
    pub fn new(params: FlashParams) -> Self {
        let nand = Nand::new(params);
        let logical = nand.params().logical_pages();
        let blocks = nand.params().blocks;
        PageMapFtl {
            nand,
            map: vec![None; logical as usize],
            free: FreePool::new(0..blocks),
            active_host: None,
            active_gc: None,
            stats: FtlStats::default(),
        }
    }

    /// Whether `lpn` currently has a flash copy.
    pub fn is_mapped(&self, lpn: Lpn) -> bool {
        self.map.get(lpn as usize).is_some_and(Option::is_some)
    }

    /// Test hook: overwrite a mapping-table entry without touching the
    /// medium, desynchronizing the map from the validity state so the
    /// invariant auditor can prove it notices.
    #[doc(hidden)]
    pub fn debug_corrupt_map(&mut self, lpn: Lpn, ppn: Option<Ppn>) {
        self.map[lpn as usize] = ppn;
    }

    /// Allocate a block for a write frontier, running GC first if the pool
    /// is at or below the watermark.
    fn alloc_block(&mut self, latency: &mut SimDuration) -> Result<BlockId, FtlError> {
        if (self.free.len() as u64) <= self.nand.params().gc_low_watermark {
            *latency += self.collect_garbage()?;
        }
        self.free.pop().ok_or(FtlError::DeviceFull)
    }

    /// Greedy GC: reclaim until the pool exceeds the watermark. Returns the
    /// time spent. Charged to the request that triggered it.
    fn collect_garbage(&mut self) -> Result<SimDuration, FtlError> {
        let watermark = self.nand.params().gc_low_watermark;
        let mut spent = SimDuration::ZERO;
        let mut ran = false;
        while (self.free.len() as u64) <= watermark {
            let Some(victim) = self.pick_victim() else {
                // Nothing reclaimable. Fine if we already hold a block.
                break;
            };
            ran = true;
            spent += self.reclaim(victim)?;
        }
        if ran {
            self.stats.gc_runs += 1;
        }
        if self.free.len() == 0 {
            return Err(FtlError::DeviceFull);
        }
        Ok(spent)
    }

    /// The block with the most invalid pages; ties broken by erase count.
    /// Active frontiers and free blocks are never victims. Returns `None`
    /// when no block has any invalid page.
    fn pick_victim(&self) -> Option<BlockId> {
        let mut best: Option<(BlockId, u32, u64)> = None;
        for b in 0..self.nand.params().blocks {
            if Some(b) == self.active_host || Some(b) == self.active_gc {
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
                    let b = self.free.pop().ok_or(FtlError::DeviceFull)?;
                    self.active_gc = Some(b);
                    b
                }
            };
            let (new_ppn, t) = self.nand.program(gc_block, lpn);
            spent += t;
            self.nand.invalidate(old_ppn);
            self.map[lpn as usize] = Some(new_ppn);
            self.stats.pages_moved += 1;
        }
        spent += self.nand.erase(victim);
        self.free.push(victim);
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

    fn read(&mut self, lpn: Lpn) -> Result<SimDuration, FtlError> {
        self.check_lpn(lpn)?;
        self.stats.host_reads += 1;
        let mut t = self.params().controller_overhead;
        if let Some(ppn) = self.map[lpn as usize] {
            t += self.nand.read(ppn);
        }
        audit!(self, "PageMapFtl::read");
        Ok(t)
    }

    fn write(&mut self, lpn: Lpn) -> Result<SimDuration, FtlError> {
        self.check_lpn(lpn)?;
        self.stats.host_writes += 1;
        let mut t = self.params().controller_overhead;
        // Invalidate the stale copy first so the old page is reclaimable
        // by the GC this very write may trigger.
        if let Some(old) = self.map[lpn as usize].take() {
            self.nand.invalidate(old);
        }
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
        self.map[lpn as usize] = Some(ppn);
        audit!(self, "PageMapFtl::write");
        Ok(t)
    }

    fn trim(&mut self, lpn: Lpn) -> Result<SimDuration, FtlError> {
        self.check_lpn(lpn)?;
        self.stats.host_trims += 1;
        if let Some(ppn) = self.map[lpn as usize].take() {
            self.nand.invalidate(ppn);
        }
        audit!(self, "PageMapFtl::trim");
        Ok(self.params().controller_overhead)
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
    #[expect(
        clippy::disallowed_types,
        reason = "the sets only answer membership; they are never iterated"
    )]
    fn validate(&self, report: &mut Report) {
        let subject = "PageMapFtl";
        self.nand.validate(report);
        // Forward map: every mapped LPN points at a page the medium
        // considers live for exactly that LPN, and no physical page is
        // claimed twice. Together with the count check below this makes
        // map and validity bitmap mutually consistent: mapped == valid.
        let mut mapped = 0u64;
        let mut claimed = std::collections::HashSet::new();
        for (lpn, slot) in self.map.iter().enumerate() {
            let Some(ppn) = slot else { continue };
            mapped += 1;
            report.check(
                self.nand.page(*ppn) == PageContent::Valid(lpn as Lpn),
                subject,
                "map-valid-agree",
                || {
                    format!(
                        "lpn {lpn} maps to ppn {ppn} holding {:?}",
                        self.nand.page(*ppn)
                    )
                },
            );
            report.check(claimed.insert(*ppn), subject, "map-injective", || {
                format!("ppn {ppn} mapped by more than one logical page")
            });
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
        let mut pooled = std::collections::HashSet::new();
        for b in self.free.iter() {
            report.check(pooled.insert(b), subject, "free-pool-unique", || {
                format!("block {b} pooled twice")
            });
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ftl() -> PageMapFtl {
        PageMapFtl::new(FlashParams::tiny(8)) // 8 blocks × 4 pages, 6 logical blocks
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
        let ppn0 = (0..f.nand().params().physical_pages())
            .find(|&p| f.nand().page(p) == PageContent::Valid(0))
            .unwrap();
        f.debug_corrupt_map(1, Some(ppn0));
        let report = f.validation_report();
        let hit: Vec<_> = report.violations().iter().map(|v| v.invariant).collect();
        assert!(hit.contains(&"map-valid-agree"), "{}", report.summary());
        assert!(hit.contains(&"map-injective"), "{}", report.summary());
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
