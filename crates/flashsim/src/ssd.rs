//! Sector-level adapter: the FTL behind the [`BlockDevice`] interface.

use simclock::SimDuration;
use storagecore::{BlockDevice, Extent, Geometry, IoError, IoKind, IoStats};

use crate::ftl::{Ftl, FtlError, PageMapFtl};
use crate::params::FlashParams;

/// A complete SSD: the page-mapped FTL exposed as a sector-addressed block
/// device.
///
/// Sector extents are widened to whole flash pages (a partial-page read
/// touches the whole page, as on real hardware). A request costs the sum
/// of its pages' latencies, GC work included (the FTL folds it into the
/// per-page costs): the paper's device is one channel, so pages never
/// overlap.
#[derive(Debug, Clone)]
pub struct SsdDisk {
    ftl: PageMapFtl,
    geometry: Geometry,
    stats: IoStats,
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

    /// Drive the FTL once per touched page and charge the summed page
    /// latency.
    fn run<OP>(&mut self, kind: IoKind, extent: Extent, mut op: OP) -> Result<SimDuration, IoError>
    where
        OP: FnMut(&mut PageMapFtl, u64) -> Result<SimDuration, FtlError>,
    {
        self.check(extent)?;
        let (first, end) = self.page_range(extent);
        let mut total = SimDuration::ZERO;
        for lpn in first..end {
            total += op(&mut self.ftl, lpn).map_err(|e| self.io_error(e, extent))?;
        }
        self.stats.record(kind, extent.sectors, total);
        Ok(total)
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
        let mut total = SimDuration::ZERO;
        for lpn in first..end {
            total += self.ftl.trim(lpn).map_err(|e| self.io_error(e, extent))?;
        }
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
