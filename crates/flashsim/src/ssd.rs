//! Sector-level adapter: the FTL behind the [`BlockDevice`] interface.

use simclock::SimDuration;
use storagecore::{BlockDevice, Extent, Geometry, IoError, IoKind, IoStats};

use crate::ftl::{Ftl, FtlError, PageMapFtl};
use crate::params::FlashParams;

/// A complete SSD: the page-mapped FTL exposed as a sector-addressed block
/// device.
///
/// Sector extents are widened to whole flash pages (a partial-page read
/// touches the whole page, as on real hardware). Multi-page requests are
/// spread over the configured channel count: the pure page latencies
/// divide by `min(channels, pages)` while GC work (already folded into the
/// per-page costs by the FTL) is preserved — a deliberate, documented
/// approximation.
#[derive(Debug, Clone)]
pub struct SsdDisk {
    ftl: PageMapFtl,
    geometry: Geometry,
    stats: IoStats,
    /// Whether the most recent request triggered a NAND erase (GC or
    /// host trim): such work serializes the package, so the I/O pipeline
    /// must treat the request as a barrier across all channels.
    last_barrier: bool,
}

impl SsdDisk {
    /// The paper's SSD: page-mapped FTL with Table III timing and the
    /// requested logical capacity.
    pub fn paper(logical_bytes: u64) -> Self {
        Self::with_ftl(PageMapFtl::new(FlashParams::paper(logical_bytes)))
    }

    /// Wrap an FTL.
    pub fn with_ftl(ftl: PageMapFtl) -> Self {
        let sectors = ftl.logical_pages() * ftl.params().sectors_per_page();
        SsdDisk {
            geometry: Geometry {
                sector_size: storagecore::SECTOR_SIZE as u32,
                sectors,
            },
            ftl,
            stats: IoStats::new(),
            last_barrier: false,
        }
    }

    /// The FTL, for its statistics and the medium's wear.
    pub fn ftl(&self) -> &PageMapFtl {
        &self.ftl
    }

    /// Logical pages spanned by a sector extent.
    fn page_range(&self, extent: Extent) -> (u64, u64) {
        let spp = self.ftl.params().sectors_per_page();
        let first = extent.lba / spp;
        let last = (extent.end() - 1) / spp;
        (first, last + 1)
    }

    /// Drive the FTL once per touched page, detect GC erases for the
    /// pipeline barrier, and divide the summed page latency over the
    /// channels the request spans.
    fn run<OP>(&mut self, kind: IoKind, extent: Extent, mut op: OP) -> Result<SimDuration, IoError>
    where
        OP: FnMut(&mut PageMapFtl, u64) -> Result<SimDuration, FtlError>,
    {
        self.check(extent)?;
        let (first, end) = self.page_range(extent);
        let pages = end - first;
        let erases_before = self.ftl.nand().stats().block_erases;
        let mut total = SimDuration::ZERO;
        for lpn in first..end {
            total += op(&mut self.ftl, lpn).map_err(|e| self.io_error(e, extent))?;
        }
        self.last_barrier = self.ftl.nand().stats().block_erases > erases_before;
        let lanes = (self.ftl.params().channels as u64).min(pages).max(1);
        let latency = total / lanes;
        self.stats.record(kind, extent.sectors, latency);
        Ok(latency)
    }

    /// The I/O error a host request on `extent` reports for an FTL error;
    /// reads, writes and trims all map through here.
    fn io_error(&self, e: FtlError, extent: Extent) -> IoError {
        match e {
            FtlError::OutOfRange(_) => IoError::OutOfRange {
                extent,
                sectors: self.geometry.sectors,
            },
            FtlError::DeviceFull => IoError::DeviceFull,
        }
    }
}

impl BlockDevice for SsdDisk {
    fn geometry(&self) -> Geometry {
        self.geometry
    }

    fn read(&mut self, extent: Extent) -> Result<SimDuration, IoError> {
        self.run(IoKind::Read, extent, |ftl, lpn| ftl.read(lpn))
    }

    fn write(&mut self, extent: Extent) -> Result<SimDuration, IoError> {
        self.run(IoKind::Write, extent, |ftl, lpn| ftl.write(lpn))
    }

    fn trim(&mut self, extent: Extent) -> Result<SimDuration, IoError> {
        // Only trim pages *fully* covered by the extent — trimming a
        // partially-covered page would discard live neighbouring sectors.
        self.check(extent)?;
        let spp = self.ftl.params().sectors_per_page();
        let first = extent.lba.div_ceil(spp);
        let end = extent.end() / spp;
        let erases_before = self.ftl.nand().stats().block_erases;
        let mut total = SimDuration::ZERO;
        for lpn in first..end {
            total += self.ftl.trim(lpn).map_err(|e| self.io_error(e, extent))?;
        }
        self.last_barrier = self.ftl.nand().stats().block_erases > erases_before;
        self.stats.record(IoKind::Trim, extent.sectors, total);
        Ok(total)
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
        self.ftl.reset_stats();
    }

    fn lanes(&self) -> u32 {
        self.ftl.params().channels.max(1)
    }

    /// Page-interleaved channel striping: a request entirely within one
    /// page reports that page's lane; any request spanning more than one
    /// page occupies every channel (`None`). The multi-page answer is a
    /// deliberate conservative approximation — pages interleave across
    /// channels, so a 2-page request on a 4-channel device really
    /// occupies exactly 2 lanes, but the single-latency request model
    /// has no way to book partial-stripe occupancy per lane. Reporting
    /// `None` serializes such a request against the whole package
    /// (pessimistic for queue overlap) rather than against one
    /// first-page lane that the request's tail does not actually use
    /// (which was both optimistic for the first lane and wrong for the
    /// others).
    fn lane_of(&self, extent: Extent) -> Option<u32> {
        let channels = self.ftl.params().channels.max(1);
        if channels == 1 || extent.sectors == 0 {
            return Some(0);
        }
        let (first, end) = self.page_range(extent);
        if end - first > 1 {
            None
        } else {
            Some((first % channels as u64) as u32)
        }
    }

    fn last_op_barrier(&self) -> bool {
        self.last_barrier
    }
}

impl invariant::Validate for SsdDisk {
    fn validate(&self, report: &mut invariant::Report) {
        self.ftl.validate(report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ssd() -> SsdDisk {
        SsdDisk::with_ftl(PageMapFtl::new(FlashParams::tiny(8)))
    }

    #[test]
    fn geometry_matches_logical_capacity() {
        let d = ssd();
        // 6 logical blocks × 4 pages × 4 sectors.
        assert_eq!(d.geometry().sectors, 96);
    }

    #[test]
    fn single_sector_read_touches_whole_page() {
        let mut d = ssd();
        d.write(Extent::new(0, 4)).unwrap(); // one full page
        let t = d.read(Extent::new(1, 1)).unwrap();
        assert_eq!(t, d.ftl().params().page_read);
        assert_eq!(d.ftl().nand().stats().page_reads, 1);
    }

    #[test]
    fn unaligned_extent_spans_two_pages() {
        let mut d = ssd();
        // Sectors 2..6 straddle pages 0 and 1.
        let t = d.write(Extent::new(2, 4)).unwrap();
        assert_eq!(t, d.ftl().params().page_write * 2);
        assert_eq!(d.ftl().nand().stats().page_programs, 2);
    }

    #[test]
    fn paper_ssd_block_write_programs_64_pages() {
        let mut d = SsdDisk::paper(16 * 1024 * 1024);
        // One 128 KB block = 256 sectors = 64 pages.
        let t = d.write(Extent::new(0, 256)).unwrap();
        assert_eq!(d.ftl().nand().stats().page_programs, 64);
        assert_eq!(t, d.ftl().params().page_write * 64);
    }

    #[test]
    fn channels_divide_multi_page_latency() {
        let mut params = FlashParams::tiny(8);
        params.channels = 4;
        let mut d = SsdDisk::with_ftl(PageMapFtl::new(params));
        // 4 pages over 4 channels: one page-time total.
        let t = d.write(Extent::new(0, 16)).unwrap();
        assert_eq!(t, d.ftl().params().page_write);
        // A single-page request cannot go faster than one page.
        let t1 = d.read(Extent::new(0, 1)).unwrap();
        assert_eq!(t1, d.ftl().params().page_read);
    }

    #[test]
    fn lane_mapping_interleaves_pages_across_channels() {
        let mut params = FlashParams::tiny(8);
        params.channels = 2;
        let d = SsdDisk::with_ftl(PageMapFtl::new(params));
        assert_eq!(d.lanes(), 2);
        assert_eq!(d.lane_of(Extent::new(0, 4)), Some(0)); // page 0
        assert_eq!(d.lane_of(Extent::new(4, 4)), Some(1)); // page 1
        assert_eq!(d.lane_of(Extent::new(8, 4)), Some(0)); // page 2
        assert_eq!(d.lane_of(Extent::new(0, 8)), None); // full stripe
                                                        // Single-channel devices always report lane 0.
        let d1 = ssd();
        assert_eq!(d1.lanes(), 1);
        assert_eq!(d1.lane_of(Extent::new(4, 4)), Some(0));
    }

    #[test]
    fn lane_of_single_page_extents_report_their_channel() {
        let mut params = FlashParams::tiny(8);
        params.channels = 4;
        let d = SsdDisk::with_ftl(PageMapFtl::new(params));
        // Aligned, unaligned and sub-page extents inside one page all
        // land on that page's interleaved channel.
        assert_eq!(d.lane_of(Extent::new(0, 4)), Some(0));
        assert_eq!(d.lane_of(Extent::new(5, 2)), Some(1)); // inside page 1
        assert_eq!(d.lane_of(Extent::new(9, 1)), Some(2)); // inside page 2
        assert_eq!(d.lane_of(Extent::new(16, 4)), Some(0)); // page 4 wraps
    }

    #[test]
    fn lane_of_partial_stripe_occupies_all_lanes() {
        // A 2-page extent on a 4-channel device touches exactly 2 lanes;
        // the model cannot book partial-stripe occupancy, so it answers
        // `None` (conservative: serializes against the whole package)
        // instead of the old first-page approximation which booked only
        // lane 0 and left lane 1's real work invisible.
        let mut params = FlashParams::tiny(8);
        params.channels = 4;
        let d = SsdDisk::with_ftl(PageMapFtl::new(params));
        assert_eq!(d.lane_of(Extent::new(0, 8)), None); // pages 0-1
        assert_eq!(d.lane_of(Extent::new(2, 4)), None); // straddles 0-1
        assert_eq!(d.lane_of(Extent::new(4, 12)), None); // pages 1-3
    }

    #[test]
    fn lane_of_full_stripe_occupies_all_lanes() {
        let mut params = FlashParams::tiny(8);
        params.channels = 2;
        let d = SsdDisk::with_ftl(PageMapFtl::new(params));
        assert_eq!(d.lane_of(Extent::new(0, 8)), None); // exactly one stripe
        assert_eq!(d.lane_of(Extent::new(0, 16)), None); // two stripes
    }

    #[test]
    fn queued_reads_overlap_on_distinct_channels() {
        use storagecore::{IoRequest, NullSink, PipelinedDevice};
        let mut params = FlashParams::tiny(8);
        params.channels = 2;
        let mut d = PipelinedDevice::new(SsdDisk::with_ftl(PageMapFtl::new(params)), NullSink);
        d.write(Extent::new(0, 16)).unwrap(); // prime pages 0..4
        d.set_depth(2);
        let a = d.submit(IoRequest::read(Extent::new(0, 4))).unwrap(); // page 0 → lane 0
        let b = d.submit(IoRequest::read(Extent::new(4, 4))).unwrap(); // page 1 → lane 1
        let ca = d.wait(a).unwrap();
        let cb = d.wait(b).unwrap();
        assert_eq!(ca.wait(), SimDuration::ZERO);
        assert_eq!(cb.wait(), SimDuration::ZERO, "distinct channels overlap");
        // Pages 0 and 2 share lane 0: the second read queues behind the
        // first (and behind lane 0's earlier completion).
        let c = d.submit(IoRequest::read(Extent::new(0, 4))).unwrap();
        let e = d.submit(IoRequest::read(Extent::new(8, 4))).unwrap();
        let (cc, ce) = (d.wait(c).unwrap(), d.wait(e).unwrap());
        assert!(ce.start_at > cc.start_at, "same lane serializes");
        assert_eq!(ce.start_at, cc.finish_at);
    }

    #[test]
    fn gc_erase_flags_a_barrier() {
        let mut d = ssd();
        d.write(Extent::new(0, 4)).unwrap();
        assert!(!d.last_op_barrier());
        let mut saw_barrier = false;
        for _ in 0..2000 {
            d.write(Extent::new(0, 4)).unwrap();
            if d.ftl().nand().stats().block_erases > 0 {
                saw_barrier = d.last_op_barrier();
                break;
            }
        }
        assert!(saw_barrier, "GC erase must surface as a pipeline barrier");
    }

    #[test]
    fn trim_only_covers_whole_pages() {
        let mut d = ssd();
        d.write(Extent::new(0, 8)).unwrap(); // pages 0 and 1
                                             // Trim sectors 1..7: only page... none fully covered? sectors 1-6.
                                             // Page 0 = sectors 0-3 (not fully covered), page 1 = 4-7 (missing 7).
        d.trim(Extent::new(1, 6)).unwrap();
        assert_eq!(d.ftl().stats().host_trims, 0);
        // Trim sectors 0..8 covers both pages.
        d.trim(Extent::new(0, 8)).unwrap();
        assert_eq!(d.ftl().stats().host_trims, 2);
    }

    #[test]
    fn out_of_range_is_io_error() {
        let mut d = ssd();
        let sectors = d.geometry().sectors;
        assert!(matches!(
            d.read(Extent::new(sectors, 1)),
            Err(IoError::OutOfRange { .. })
        ));
    }

    #[test]
    fn stats_reset_cascades_to_ftl() {
        let mut d = ssd();
        d.write(Extent::new(0, 4)).unwrap();
        d.reset_stats();
        assert_eq!(d.stats().total_ops(), 0);
        assert_eq!(d.ftl().stats().host_writes, 0);
        assert_eq!(d.ftl().nand().stats().page_programs, 0);
    }
}
