//! Sector-level adapter: an FTL behind the [`BlockDevice`] interface.

use simclock::SimDuration;
use storagecore::{
    BlockDevice, Extent, Geometry, IoError, IoKind, IoRequest, IoStats, OffloadDescriptor,
    OFFLOAD_DESCRIPTOR_BYTES,
};

use crate::ftl::{Ftl, FtlError, PageMapFtl};
use crate::params::FlashParams;

/// Cumulative in-flash compute-unit accounting for one [`SsdDisk`].
///
/// The device-side view of the offload path: how much work the
/// per-channel compute units did and what it cost in energy under the
/// configured [`crate::ComputeParams`]. The host-side bus view lives in
/// [`IoStats::bus`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComputeStats {
    /// Offload-carrying reads serviced.
    pub offload_ops: u64,
    /// Pages streamed through the compute units.
    pub pages_scanned: u64,
    /// Matching entries emitted to the host.
    pub entries_emitted: u64,
    /// Energy spent scanning, in nanojoules.
    pub scan_energy_nj: u64,
    /// Energy spent emitting matches, in nanojoules.
    pub emit_energy_nj: u64,
}

/// A complete SSD: an FTL exposed as a sector-addressed block device.
///
/// Sector extents are widened to whole flash pages (a partial-page read
/// touches the whole page, as on real hardware). Multi-page requests are
/// spread over the configured channel count: the pure page latencies
/// divide by `min(channels, pages)` while GC work (already folded into the
/// per-page costs by the FTL) is preserved — a deliberate, documented
/// approximation.
#[derive(Debug, Clone)]
pub struct SsdDisk<F = PageMapFtl> {
    ftl: F,
    geometry: Geometry,
    stats: IoStats,
    compute: ComputeStats,
    /// Whether the most recent request triggered a NAND erase (GC or
    /// host trim): such work serializes the package, so the I/O pipeline
    /// must treat the request as a barrier across all channels.
    last_barrier: bool,
}

impl SsdDisk<PageMapFtl> {
    /// The paper's SSD: page-mapped FTL with Table III timing and the
    /// requested logical capacity.
    pub fn paper(logical_bytes: u64) -> Self {
        Self::with_ftl(PageMapFtl::new(FlashParams::paper(logical_bytes)))
    }

    /// The paper's SSD with a wider channel count — the knob the queued
    /// I/O path uses to overlap independent page operations.
    pub fn paper_channels(logical_bytes: u64, channels: u32) -> Self {
        let mut params = FlashParams::paper(logical_bytes);
        params.channels = channels;
        Self::with_ftl(PageMapFtl::new(params))
    }
}

impl<F: Ftl> SsdDisk<F> {
    /// Wrap an FTL.
    pub fn with_ftl(ftl: F) -> Self {
        let sectors = ftl.logical_pages() * ftl.params().sectors_per_page();
        SsdDisk {
            geometry: Geometry {
                sector_size: storagecore::SECTOR_SIZE as u32,
                sectors,
            },
            ftl,
            stats: IoStats::new(),
            compute: ComputeStats::default(),
            last_barrier: false,
        }
    }

    /// The FTL, for scheme-specific statistics.
    pub fn ftl(&self) -> &F {
        &self.ftl
    }

    /// In-flash compute-unit accounting.
    pub fn compute_stats(&self) -> &ComputeStats {
        &self.compute
    }

    /// Test-only corruption hook: inflate the emitted-entry counter past
    /// what the compute units scanned, so the `emitted-within-scanned`
    /// validator provably fires.
    #[doc(hidden)]
    pub fn debug_corrupt_emitted_entries(&mut self, extra: u64) {
        self.compute.entries_emitted += extra;
    }

    /// Test-only mutable stats access, for seeding ledger corruption.
    #[doc(hidden)]
    pub fn debug_stats_mut(&mut self) -> &mut IoStats {
        &mut self.stats
    }

    /// Logical pages spanned by a sector extent.
    fn page_range(&self, extent: Extent) -> (u64, u64) {
        let spp = self.ftl.params().sectors_per_page();
        let first = extent.lba / spp;
        let last = (extent.end() - 1) / spp;
        (first, last + 1)
    }

    /// The per-page NAND op loop shared by every request shape: plain
    /// reads/writes and offload reads drive the FTL through this one
    /// path, so their NAND counters, GC triggers and barrier detection
    /// are identical by construction. Returns the page count and the
    /// summed per-page latency (pre channel division).
    fn execute<OP>(&mut self, extent: Extent, mut op: OP) -> Result<(u64, SimDuration), IoError>
    where
        OP: FnMut(&mut F, u64) -> Result<SimDuration, FtlError>,
    {
        self.check(extent)?;
        let (first, end) = self.page_range(extent);
        let pages = end - first;
        let erases_before = self.ftl.nand().stats().block_erases;
        let mut total = SimDuration::ZERO;
        for lpn in first..end {
            total += op(&mut self.ftl, lpn).map_err(|e| match e {
                FtlError::OutOfRange(_) => IoError::OutOfRange {
                    extent,
                    sectors: self.geometry.sectors,
                },
                FtlError::DeviceFull => IoError::DeviceFull,
            })?;
        }
        self.last_barrier = self.ftl.nand().stats().block_erases > erases_before;
        Ok((pages, total))
    }

    fn run<OP>(&mut self, kind: IoKind, extent: Extent, op: OP) -> Result<SimDuration, IoError>
    where
        OP: FnMut(&mut F, u64) -> Result<SimDuration, FtlError>,
    {
        let (pages, total) = self.execute(extent, op)?;
        if kind == IoKind::Read {
            // A plain read moves every touched page across the bus.
            self.stats
                .record_bus_read(pages * self.ftl.params().page_bytes as u64);
        }
        let lanes = (self.ftl.params().channels as u64).min(pages).max(1);
        let latency = total / lanes;
        self.stats.record(kind, extent.sectors, latency);
        Ok(latency)
    }

    /// Service a read whose matching runs in the per-channel compute
    /// units: the NAND work is exactly a plain read's (same FTL path,
    /// same GC, same barrier detection), the scan cost joins the
    /// channel-parallel pool, and only the descriptor plus the matching
    /// entries cross the bus. Under [`crate::ComputeParams::reference`]
    /// the charged latency is bit-identical to a plain read of the same
    /// extent.
    fn offload_read(
        &mut self,
        extent: Extent,
        desc: &OffloadDescriptor,
    ) -> Result<SimDuration, IoError> {
        let (pages, total) = self.execute(extent, |ftl, lpn| ftl.read(lpn))?;
        let params = self.ftl.params();
        let compute = params.compute;
        let page_bytes = params.page_bytes as u64;
        let channels = params.channels as u64;
        let lanes = channels.min(pages).max(1);
        let scan = compute.per_page_scan * pages;
        let emit = compute.per_entry_emit * desc.emit_entries as u64;
        let latency = (total + scan) / lanes + emit;
        self.compute.offload_ops += 1;
        self.compute.pages_scanned += pages;
        self.compute.entries_emitted += desc.emit_entries as u64;
        self.compute.scan_energy_nj += compute.page_scan_energy_nj * pages;
        self.compute.emit_energy_nj += compute.entry_emit_energy_nj * desc.emit_entries as u64;
        self.stats.record_bus_offload(
            desc.scan_entries as u64,
            desc.emit_entries as u64,
            pages * page_bytes,
            OFFLOAD_DESCRIPTOR_BYTES,
            desc.emitted_bytes(),
        );
        self.stats.record(IoKind::Read, extent.sectors, latency);
        Ok(latency)
    }
}

impl<F: Ftl> BlockDevice for SsdDisk<F> {
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
            total += self.ftl.trim(lpn).map_err(|_| IoError::DeviceFull)?;
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
        self.compute = ComputeStats::default();
        self.ftl.reset_stats();
    }

    fn request(&mut self, req: &IoRequest) -> Result<SimDuration, IoError> {
        match (req.kind, req.offload.as_ref()) {
            (IoKind::Read, Some(desc)) => self.offload_read(req.extent, desc),
            _ => match req.kind {
                IoKind::Read => self.read(req.extent),
                IoKind::Write => self.write(req.extent),
                IoKind::Trim => self.trim(req.extent),
            },
        }
    }

    fn supports_offload(&self) -> bool {
        true
    }

    fn offload_page_bytes(&self) -> u64 {
        self.ftl.params().page_bytes as u64
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

impl<F: Ftl + invariant::Validate> invariant::Validate for SsdDisk<F> {
    fn validate(&self, report: &mut invariant::Report) {
        self.ftl.validate(report);
        let subject = "SsdDisk";
        let bus = self.stats.bus();
        // The compute units can only emit entries they scanned.
        report.check(
            bus.offload_emitted_entries() <= bus.offload_scanned_entries(),
            subject,
            "emitted-within-scanned",
            || {
                format!(
                    "{} entries emitted from {} scanned",
                    bus.offload_emitted_entries(),
                    bus.offload_scanned_entries()
                )
            },
        );
        // Bus-byte conservation: what the offloads saved is exactly the
        // on-device page bytes minus what still crossed (descriptors down,
        // matches back). Both sides are linear sums, so the identity holds
        // for the accumulators iff it held for every request.
        let crossed = (bus.offload_descriptor_bytes() + bus.offload_emitted_bytes()) as i64;
        report.check(
            bus.saved_bytes() == bus.offload_scanned_bytes() as i64 - crossed,
            subject,
            "bus-conservation",
            || {
                format!(
                    "saved {} != scanned {} - crossed {}",
                    bus.saved_bytes(),
                    bus.offload_scanned_bytes(),
                    crossed
                )
            },
        );
        // The device-side compute view and the host-side bus view count
        // the same offloads.
        let page_bytes = self.ftl.params().page_bytes as u64;
        report.check(
            self.compute.offload_ops == bus.offload_ops()
                && self.compute.entries_emitted == bus.offload_emitted_entries()
                && self.compute.pages_scanned * page_bytes == bus.offload_scanned_bytes(),
            subject,
            "compute-bus-agree",
            || {
                format!(
                    "compute {{ops {}, emitted {}, pages {}}} vs bus {{ops {}, emitted {}, scanned bytes {}}}",
                    self.compute.offload_ops,
                    self.compute.entries_emitted,
                    self.compute.pages_scanned,
                    bus.offload_ops(),
                    bus.offload_emitted_entries(),
                    bus.offload_scanned_bytes()
                )
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftl::{BlockMapFtl, Dftl, FastFtl};

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
        use storagecore::{NullSink, PipelinedDevice};
        let mut params = FlashParams::tiny(8);
        params.channels = 2;
        let mut d = PipelinedDevice::new(SsdDisk::with_ftl(PageMapFtl::new(params)), NullSink);
        d.write(Extent::new(0, 16)).unwrap(); // prime pages 0..4
        d.set_depth(2);
        let a = d.submit_read(Extent::new(0, 4)).unwrap(); // page 0 → lane 0
        let b = d.submit_read(Extent::new(4, 4)).unwrap(); // page 1 → lane 1
        let ca = d.wait(a).unwrap();
        let cb = d.wait(b).unwrap();
        assert_eq!(ca.wait(), SimDuration::ZERO);
        assert_eq!(cb.wait(), SimDuration::ZERO, "distinct channels overlap");
        // Pages 0 and 2 share lane 0: the second read queues behind the
        // first (and behind lane 0's earlier completion).
        let c = d.submit_read(Extent::new(0, 4)).unwrap();
        let e = d.submit_read(Extent::new(8, 4)).unwrap();
        let (cc, ce) = (d.wait(c).unwrap(), d.wait(e).unwrap());
        assert!(ce.start_at > cc.start_at, "same lane serializes");
        assert_eq!(ce.start_at, cc.finish_at);
    }

    #[test]
    fn offload_read_is_timing_neutral_under_reference_compute() {
        use invariant::Validate;
        let mut host = ssd();
        let mut offl = ssd();
        for d in [&mut host, &mut offl] {
            d.write(Extent::new(0, 8)).unwrap(); // pages 0-1
        }
        let desc = OffloadDescriptor::new(0, 1000, 0, 8).with_counts(512, 16);
        let th = host.read(Extent::new(0, 8)).unwrap();
        let to = offl
            .request(&IoRequest::read(Extent::new(0, 8)).with_offload(desc))
            .unwrap();
        assert_eq!(th, to, "reference compute is timing-neutral");
        assert_eq!(
            host.ftl().nand().stats(),
            offl.ftl().nand().stats(),
            "identical NAND work"
        );
        assert_eq!(
            host.stats().kind(IoKind::Read),
            offl.stats().kind(IoKind::Read),
            "identical kind accounting"
        );
        // Only the bus ledger differs: the host arm moved both pages,
        // the offload arm moved a descriptor plus 16 x 8-byte matches.
        assert_eq!(host.stats().bus().read_page_bytes(), 4096);
        assert_eq!(host.stats().bus().offload_ops(), 0);
        assert_eq!(offl.stats().bus().read_page_bytes(), 0);
        assert_eq!(offl.stats().bus().offload_ops(), 1);
        assert_eq!(offl.stats().bus().offload_scanned_bytes(), 4096);
        assert_eq!(offl.stats().bus().offload_descriptor_bytes(), 24);
        assert_eq!(offl.stats().bus().offload_emitted_bytes(), 128);
        assert_eq!(offl.stats().bus().saved_bytes(), 4096 - 24 - 128);
        assert_eq!(offl.compute_stats().offload_ops, 1);
        assert_eq!(offl.compute_stats().pages_scanned, 2);
        assert_eq!(offl.compute_stats().entries_emitted, 16);
        let report = offl.validation_report();
        assert!(report.is_clean(), "{}", report.summary());
    }

    #[test]
    fn active_compute_charges_scan_and_emit() {
        let mut params = FlashParams::tiny(8);
        params.channels = 2;
        params.compute = crate::params::ComputeParams {
            per_page_scan: SimDuration::from_micros(8),
            per_entry_emit: SimDuration::from_nanos(50),
            page_scan_energy_nj: 100,
            entry_emit_energy_nj: 1,
        };
        let mut d = SsdDisk::with_ftl(PageMapFtl::new(params));
        d.write(Extent::new(0, 8)).unwrap(); // pages 0-1
        let desc = OffloadDescriptor::new(0, 1000, 0, 8).with_counts(512, 10);
        let t = d
            .request(&IoRequest::read(Extent::new(0, 8)).with_offload(desc))
            .unwrap();
        // (2 x 25us read + 2 x 8us scan) / 2 lanes + 10 x 50ns emit.
        assert_eq!(
            t,
            SimDuration::from_nanos((2 * 25_000 + 2 * 8_000) / 2 + 10 * 50)
        );
        assert_eq!(d.compute_stats().scan_energy_nj, 200);
        assert_eq!(d.compute_stats().emit_energy_nj, 10);
    }

    #[test]
    fn plain_request_ignores_no_descriptor_and_writes_never_offload() {
        let mut d = ssd();
        d.write(Extent::new(0, 4)).unwrap();
        // A descriptor on a write is ignored: the default kind dispatch
        // services it as a plain write.
        let desc = OffloadDescriptor::new(0, 10, 0, 8);
        d.request(&IoRequest::write(Extent::new(0, 4)).with_offload(desc))
            .unwrap();
        assert_eq!(d.stats().bus().offload_ops(), 0);
        assert!(d.supports_offload());
        assert_eq!(d.offload_page_bytes(), 2048);
    }

    #[test]
    fn corrupted_emitted_counter_trips_the_validator() {
        use invariant::Validate;
        let mut d = ssd();
        d.write(Extent::new(0, 4)).unwrap();
        let desc = OffloadDescriptor::new(0, 100, 0, 8).with_counts(256, 4);
        d.request(&IoRequest::read(Extent::new(0, 4)).with_offload(desc))
            .unwrap();
        assert!(d.validation_report().is_clean());
        // Claim the compute units emitted more than the bus ledger saw.
        d.debug_corrupt_emitted_entries(1_000_000);
        let report = d.validation_report();
        let hit: Vec<_> = report.violations().iter().map(|v| v.invariant).collect();
        assert!(hit.contains(&"compute-bus-agree"), "{}", report.summary());
    }

    #[test]
    fn corrupted_bus_ledger_trips_conservation() {
        use invariant::Validate;
        let mut d = ssd();
        d.write(Extent::new(0, 4)).unwrap();
        let desc = OffloadDescriptor::new(0, 100, 0, 8).with_counts(256, 4);
        d.request(&IoRequest::read(Extent::new(0, 4)).with_offload(desc))
            .unwrap();
        d.debug_stats_mut().debug_corrupt_bus_saved(512);
        let report = d.validation_report();
        let hit: Vec<_> = report.violations().iter().map(|v| v.invariant).collect();
        assert!(hit.contains(&"bus-conservation"), "{}", report.summary());
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
    fn works_with_every_ftl_scheme() {
        fn exercise<F: Ftl>(mut d: SsdDisk<F>) {
            let sectors = d.geometry().sectors;
            d.write(Extent::new(0, 8)).unwrap();
            d.read(Extent::new(0, 8)).unwrap();
            d.write(Extent::new(sectors - 8, 8)).unwrap();
            assert_eq!(d.stats().ops(IoKind::Write), 2);
        }
        exercise(SsdDisk::with_ftl(PageMapFtl::new(FlashParams::tiny(8))));
        exercise(SsdDisk::with_ftl(BlockMapFtl::new(FlashParams::tiny(8))));
        exercise(SsdDisk::with_ftl(FastFtl::new(FlashParams::tiny(12))));
        exercise(SsdDisk::with_ftl(Dftl::new(FlashParams::tiny(16), 64)));
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
