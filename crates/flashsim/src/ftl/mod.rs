//! The flash translation layer: [`PageMapFtl`], the ideal page-level
//! mapping the paper adopts as its baseline ("we take the ideal page-based
//! FTL as the base line"). It runs **foreground GC**: reclamation work is
//! charged to the host request that triggered it.

mod page_map;

pub use page_map::PageMapFtl;

use core::fmt;

use simclock::SimDuration;

use crate::nand::{Lpn, Nand};
use crate::params::FlashParams;

/// FTL-level request errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtlError {
    /// The logical page is beyond the exported capacity.
    OutOfRange(Lpn),
    /// Garbage collection could not reclaim space (the host wrote more
    /// than the exported capacity, or over-provisioning is mis-sized).
    DeviceFull,
}

impl fmt::Display for FtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtlError::OutOfRange(lpn) => write!(f, "logical page {lpn} out of range"),
            FtlError::DeviceFull => write!(f, "no reclaimable space"),
        }
    }
}

impl std::error::Error for FtlError {}

/// Counters an FTL maintains above the raw medium.
#[derive(Debug, Clone, Copy, Default)]
pub struct FtlStats {
    /// Host-issued page reads.
    pub host_reads: u64,
    /// Host-issued page writes.
    pub host_writes: u64,
    /// Host-issued page trims.
    pub host_trims: u64,
    /// Garbage-collection invocations.
    pub gc_runs: u64,
    /// Valid pages migrated by GC.
    pub pages_moved: u64,
}

impl FtlStats {
    /// Write amplification: medium programs per host write (1.0 is ideal).
    /// Needs the medium's program counter, which the caller reads from
    /// [`Nand::stats`].
    pub fn write_amplification(&self, nand_programs: u64) -> f64 {
        if self.host_writes == 0 {
            0.0
        } else {
            nand_programs as f64 / self.host_writes as f64
        }
    }
}

/// The logical-page interface of the translation layer. [`PageMapFtl`] is
/// its one implementor; callers name the trait to reach its methods.
pub trait Ftl {
    /// Device parameters.
    fn params(&self) -> &FlashParams;

    /// The underlying medium (for wear / erase statistics).
    fn nand(&self) -> &Nand;

    /// Host-visible pages: the capacity fact [`Ftl::check_lpn`] bounds
    /// every request by, held once by the implementor rather than
    /// recomputed from [`FlashParams::logical_pages`] on each page.
    fn logical_pages(&self) -> u64;

    /// Read one logical page. Unmapped pages cost nothing (the drive
    /// returns zeros without touching the medium).
    fn read(&mut self, lpn: Lpn) -> Result<SimDuration, FtlError>;

    /// Write one logical page.
    fn write(&mut self, lpn: Lpn) -> Result<SimDuration, FtlError>;

    /// Trim one logical page: drop the mapping, invalidate the flash copy.
    fn trim(&mut self, lpn: Lpn) -> Result<SimDuration, FtlError>;

    /// FTL-level counters.
    fn stats(&self) -> FtlStats;

    /// Zero FTL and medium counters (wear state persists).
    fn reset_stats(&mut self);

    /// Bounds check helper.
    #[inline]
    fn check_lpn(&self, lpn: Lpn) -> Result<(), FtlError> {
        if lpn < self.logical_pages() {
            Ok(())
        } else {
            Err(FtlError::OutOfRange(lpn))
        }
    }
}
