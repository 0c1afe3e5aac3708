//! Core addressing types: sectors, extents and device geometry.

use core::fmt;

/// Logical block (sector) address.
pub type Lba = u64;

/// Sector size in bytes. All devices in this workspace use 512 B logical
/// sectors, matching the traces the paper analyzes (UMass WebSearch uses
/// 512 B "logic sector numbers").
pub const SECTOR_SIZE: usize = 512;

/// A contiguous run of sectors `[lba, lba + sectors)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Extent {
    /// First sector.
    pub lba: Lba,
    /// Number of sectors; must be positive for a valid request.
    pub sectors: u64,
}

impl Extent {
    /// Construct an extent. `sectors` may be zero here; devices reject
    /// zero-length requests at submission time.
    pub const fn new(lba: Lba, sectors: u64) -> Self {
        Extent { lba, sectors }
    }

    /// Extent covering `bytes` rounded *up* to whole sectors, starting at
    /// byte offset `offset` (which must be sector-aligned in the caller's
    /// scheme — we align down defensively).
    pub fn from_bytes(offset: u64, bytes: u64) -> Self {
        let lba = offset / SECTOR_SIZE as u64;
        let end = offset + bytes;
        let last = end.div_ceil(SECTOR_SIZE as u64);
        Extent {
            lba,
            sectors: last.saturating_sub(lba).max(1),
        }
    }

    /// One-past-the-end sector.
    #[inline]
    pub fn end(&self) -> Lba {
        self.lba + self.sectors
    }

    /// Length in bytes.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.sectors * SECTOR_SIZE as u64
    }

    /// Whether this extent overlaps `other`.
    pub fn overlaps(&self, other: &Extent) -> bool {
        self.lba < other.end() && other.lba < self.end()
    }

    /// Whether `other` is fully contained in `self`.
    pub fn contains(&self, other: &Extent) -> bool {
        other.lba >= self.lba && other.end() <= self.end()
    }
}

impl fmt::Display for Extent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.lba, self.end())
    }
}

/// The kind of a block-level request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// Read sectors.
    Read,
    /// Write sectors.
    Write,
    /// ATA TRIM / discard: tell the device the sectors are dead. On flash
    /// this lets the FTL invalidate pages without a write.
    Trim,
}

impl IoKind {
    /// Stable short label used in traces and reports.
    pub fn label(&self) -> &'static str {
        match self {
            IoKind::Read => "R",
            IoKind::Write => "W",
            IoKind::Trim => "T",
        }
    }
}

/// Device geometry: how big the device is and how it is addressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Logical sector size in bytes.
    pub sector_size: u32,
    /// Total number of addressable sectors.
    pub sectors: u64,
}

impl Geometry {
    /// Geometry for a device of `bytes` capacity with the workspace-wide
    /// sector size (rounded down to whole sectors).
    pub fn from_bytes(bytes: u64) -> Self {
        Geometry {
            sector_size: SECTOR_SIZE as u32,
            sectors: bytes / SECTOR_SIZE as u64,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.sectors * self.sector_size as u64
    }

    /// Whether `extent` lies entirely on the device.
    pub fn contains(&self, extent: &Extent) -> bool {
        extent.sectors > 0 && extent.end() <= self.sectors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extent_end_and_bytes() {
        let e = Extent::new(10, 4);
        assert_eq!(e.end(), 14);
        assert_eq!(e.bytes(), 4 * 512);
        assert_eq!(e.to_string(), "[10, 14)");
    }

    #[test]
    fn extent_from_bytes_rounds_up() {
        // 1 byte still takes a sector.
        assert_eq!(Extent::from_bytes(0, 1), Extent::new(0, 1));
        // Exactly one sector.
        assert_eq!(Extent::from_bytes(0, 512), Extent::new(0, 1));
        // One byte over.
        assert_eq!(Extent::from_bytes(0, 513), Extent::new(0, 2));
        // Offset in the middle of a sector extends the run.
        assert_eq!(Extent::from_bytes(512, 512), Extent::new(1, 1));
        assert_eq!(Extent::from_bytes(700, 512), Extent::new(1, 2));
    }

    #[test]
    fn extent_overlap_cases() {
        let a = Extent::new(10, 10); // [10,20)
        assert!(a.overlaps(&Extent::new(15, 1)));
        assert!(a.overlaps(&Extent::new(5, 6))); // touches 10
        assert!(!a.overlaps(&Extent::new(20, 5))); // adjacent, not overlapping
        assert!(!a.overlaps(&Extent::new(0, 10)));
        assert!(a.contains(&Extent::new(10, 10)));
        assert!(a.contains(&Extent::new(12, 3)));
        assert!(!a.contains(&Extent::new(12, 9)));
    }

    #[test]
    fn geometry_bounds() {
        let g = Geometry::from_bytes(1 << 20); // 1 MiB = 2048 sectors
        assert_eq!(g.sectors, 2048);
        assert_eq!(g.capacity_bytes(), 1 << 20);
        assert!(g.contains(&Extent::new(0, 2048)));
        assert!(!g.contains(&Extent::new(1, 2048)));
        assert!(!g.contains(&Extent::new(0, 0)), "zero-length is invalid");
    }

    #[test]
    fn iokind_labels_are_distinct() {
        assert_ne!(IoKind::Read.label(), IoKind::Write.label());
        assert_ne!(IoKind::Write.label(), IoKind::Trim.label());
    }
}
