//! The [`BlockDevice`] trait: the contract every storage simulator
//! implements.

use core::fmt;

use simclock::{SimDuration, SimTime};

use crate::queue::IoRequest;
use crate::stats::IoStats;
use crate::types::{Extent, Geometry, IoKind, Lba};

/// Errors a device can return. These are *protocol* errors — a correct
/// driver never triggers them; they exist so the simulators can be strict
/// about their callers instead of silently mis-accounting time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoError {
    /// The extent exceeds the device geometry.
    OutOfRange {
        /// The rejected request's extent.
        extent: Extent,
        /// The device's capacity in sectors.
        sectors: u64,
    },
    /// Zero-length request.
    EmptyRequest,
    /// The device does not support this operation (e.g. Trim on a plain
    /// mechanical disk).
    Unsupported(IoKind),
    /// The device has exhausted an internal resource (e.g. the FTL found
    /// no free block even after garbage collection).
    DeviceFull,
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::OutOfRange { extent, sectors } => {
                write!(f, "extent {extent} exceeds device of {sectors} sectors")
            }
            IoError::EmptyRequest => write!(f, "zero-length request"),
            IoError::Unsupported(kind) => write!(f, "operation {} unsupported", kind.label()),
            IoError::DeviceFull => write!(f, "device out of space"),
        }
    }
}

impl std::error::Error for IoError {}

/// A simulated block device.
///
/// Requests are synchronous in *simulated* time: each call returns the
/// service latency the device charges for the request. Implementations are
/// position-stateful where that matters (the HDD head, the FTL's write
/// frontier), so request *order* affects latency — callers must issue
/// requests in the order the modelled host would.
pub trait BlockDevice {
    /// The device geometry.
    fn geometry(&self) -> Geometry;

    /// Service a read of `extent`.
    fn read(&mut self, extent: Extent) -> Result<SimDuration, IoError>;

    /// Service a write of `extent`.
    fn write(&mut self, extent: Extent) -> Result<SimDuration, IoError>;

    /// TRIM (discard) `extent`. Default: unsupported.
    fn trim(&mut self, extent: Extent) -> Result<SimDuration, IoError> {
        let _ = extent;
        Err(IoError::Unsupported(IoKind::Trim))
    }

    /// Cumulative request statistics.
    fn stats(&self) -> &IoStats;

    /// Reset the statistics (not the device state).
    fn reset_stats(&mut self);

    /// Validate an extent against the geometry; helper for implementations.
    fn check(&self, extent: Extent) -> Result<(), IoError> {
        if extent.sectors == 0 {
            return Err(IoError::EmptyRequest);
        }
        let g = self.geometry();
        if !g.contains(&extent) {
            return Err(IoError::OutOfRange {
                extent,
                sectors: g.sectors,
            });
        }
        Ok(())
    }

    /// Submit a request by kind — convenience for trace replay. Routed
    /// through [`BlockDevice::request`] so there is exactly one
    /// request-construction path.
    fn submit(&mut self, kind: IoKind, extent: Extent) -> Result<SimDuration, IoError> {
        self.request(&IoRequest::new(kind, extent))
    }

    /// Service one explicit [`IoRequest`]. Plain devices dispatch by kind;
    /// [`crate::PipelinedDevice`] overrides this to route through its
    /// submission queue.
    fn request(&mut self, req: &IoRequest) -> Result<SimDuration, IoError> {
        match req.kind {
            IoKind::Read => self.read(req.extent),
            IoKind::Write => self.write(req.extent),
            IoKind::Trim => self.trim(req.extent),
        }
    }

    // --- Pipeline topology hooks (defaults model a single-lane device) ---

    /// Number of independent service lanes (flash channels, …). The
    /// pipeline overlaps requests dispatched to *different* lanes.
    fn lanes(&self) -> u32 {
        1
    }

    /// Which lane services `extent`; `None` means the request occupies
    /// every lane (e.g. a multi-channel flash stripe).
    fn lane_of(&self, extent: Extent) -> Option<u32> {
        let _ = extent;
        Some(0)
    }

    /// Current mechanical head position, for seek-aware scheduling.
    /// Non-mechanical devices report 0.
    fn head_position(&self) -> Lba {
        0
    }

    /// Whether the most recent request triggered work that serializes the
    /// whole device (e.g. an FTL garbage-collection erase). The pipeline
    /// treats such a request as a barrier across all lanes.
    fn last_op_barrier(&self) -> bool {
        false
    }

    /// Sync the device-side submission clock to the driver's. Monotone:
    /// implementations must never move their clock backwards. Plain
    /// devices ignore it.
    fn set_now(&mut self, now: SimTime) {
        let _ = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ramdisk::RamDisk;

    #[test]
    fn check_rejects_empty_and_oob() {
        let dev = RamDisk::with_capacity_bytes(1 << 20, SimDuration::from_micros(1));
        assert_eq!(dev.check(Extent::new(0, 0)), Err(IoError::EmptyRequest));
        assert!(matches!(
            dev.check(Extent::new(2047, 2)),
            Err(IoError::OutOfRange { .. })
        ));
        assert_eq!(dev.check(Extent::new(2047, 1)), Ok(()));
    }

    #[test]
    fn submit_dispatches_by_kind() {
        let mut dev = RamDisk::with_capacity_bytes(1 << 20, SimDuration::from_micros(1));
        dev.submit(IoKind::Write, Extent::new(0, 8)).unwrap();
        dev.submit(IoKind::Read, Extent::new(0, 8)).unwrap();
        dev.submit(IoKind::Trim, Extent::new(0, 8)).unwrap();
        assert_eq!(dev.stats().ops(IoKind::Read), 1);
        assert_eq!(dev.stats().ops(IoKind::Write), 1);
        assert_eq!(dev.stats().ops(IoKind::Trim), 1);
    }

    #[test]
    fn error_display_is_informative() {
        let e = IoError::OutOfRange {
            extent: Extent::new(10, 5),
            sectors: 12,
        };
        assert!(e.to_string().contains("[10, 15)"));
        assert!(IoError::Unsupported(IoKind::Trim).to_string().contains('T'));
    }
}
