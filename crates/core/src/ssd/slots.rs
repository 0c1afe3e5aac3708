//! Block-granular slot allocation over an LBA region of the SSD.

use invariant::{Report, Validate};
use storagecore::{Extent, Lba};

use crate::config::HybridConfig;

/// Index of a 128 KB slot within a region.
pub type SlotId = u32;

/// Sectors per slot: one [`crate::BLOCK_BYTES`] block.
const SLOT_SECTORS: u64 = HybridConfig::sectors_per_block();

/// A contiguous LBA region divided into 128 KB slots.
#[derive(Debug, Clone)]
pub struct SlotRegion {
    base: Lba,
    nslots: u32,
    free: Vec<SlotId>,
}

impl SlotRegion {
    /// Region of `nslots` slots starting at `base`.
    pub fn new(base: Lba, nslots: u32) -> Self {
        // Free list popped from the back: hand slots out in LBA order so
        // the initial fill is one long sequential write.
        let free = (0..nslots).rev().collect();
        SlotRegion { base, nslots, free }
    }

    /// Total slots.
    pub fn capacity(&self) -> u32 {
        self.nslots
    }

    /// Currently free slots.
    pub fn free_count(&self) -> u32 {
        self.free.len() as u32
    }

    /// Slots in use.
    pub fn used_count(&self) -> u32 {
        self.nslots - self.free_count()
    }

    /// First sector of the region.
    pub fn base(&self) -> Lba {
        self.base
    }

    /// One past the region's last sector.
    pub fn end(&self) -> Lba {
        self.base + SLOT_SECTORS * self.nslots as u64
    }

    /// Allocate a slot.
    pub fn alloc(&mut self) -> Option<SlotId> {
        self.free.pop()
    }

    /// Return a slot to the pool.
    pub fn release(&mut self, slot: SlotId) {
        debug_assert!(slot < self.nslots);
        debug_assert!(!self.free.contains(&slot), "double release of slot {slot}");
        self.free.push(slot);
    }

    /// The full extent of a slot.
    pub fn extent(&self, slot: SlotId) -> Extent {
        assert!(slot < self.nslots, "slot {slot} out of range");
        Extent::new(self.base + slot as u64 * SLOT_SECTORS, SLOT_SECTORS)
    }

    /// The extent of a byte range `[offset, offset + bytes)` inside a slot.
    pub fn sub_extent(&self, slot: SlotId, offset: u64, bytes: u64) -> Extent {
        let full = self.extent(slot);
        assert!(
            offset + bytes <= full.bytes(),
            "sub-extent [{offset}, {}) exceeds slot of {} bytes",
            offset + bytes,
            full.bytes()
        );
        Extent::from_bytes(full.lba * storagecore::SECTOR_SIZE as u64 + offset, bytes)
    }

    /// Whether `slot` is currently on the free list (O(free) scan; used by
    /// validators, not the allocation path).
    pub fn is_free(&self, slot: SlotId) -> bool {
        self.free.contains(&slot)
    }
}

impl Validate for SlotRegion {
    /// The free list must stay a set of in-range slot ids — a duplicate
    /// means a double release, an out-of-range id a corrupted pool.
    fn validate(&self, report: &mut Report) {
        let mut seen = vec![false; self.nslots as usize];
        for &slot in &self.free {
            if !report.check(slot < self.nslots, "SlotRegion", "free-in-range", || {
                format!(
                    "free list holds slot {slot} but the region has {}",
                    self.nslots
                )
            }) {
                continue;
            }
            report.check(!seen[slot as usize], "SlotRegion", "free-unique", || {
                format!("slot {slot} appears twice on the free list (double release)")
            });
            seen[slot as usize] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> SlotRegion {
        SlotRegion::new(1000, 4)
    }

    #[test]
    fn geometry() {
        let r = region();
        assert_eq!(r.capacity(), 4);
        assert_eq!(r.extent(0).sectors, 256);
        assert_eq!(r.base(), 1000);
        assert_eq!(r.end(), 1000 + 4 * 256);
    }

    #[test]
    fn alloc_in_lba_order_then_release() {
        let mut r = region();
        assert_eq!(r.alloc(), Some(0));
        assert_eq!(r.alloc(), Some(1));
        assert_eq!(r.free_count(), 2);
        r.release(0);
        assert_eq!(r.free_count(), 3);
        assert_eq!(r.used_count(), 1);
        // Exhaust.
        while r.alloc().is_some() {}
        assert_eq!(r.alloc(), None);
    }

    #[test]
    fn extents_are_disjoint_and_slot_sized() {
        let r = region();
        let e0 = r.extent(0);
        let e1 = r.extent(1);
        assert_eq!(e0, Extent::new(1000, 256));
        assert_eq!(e1, Extent::new(1256, 256));
        assert!(!e0.overlaps(&e1));
        assert_eq!(e0.bytes(), 128 * 1024);
    }

    #[test]
    fn sub_extent_addresses_within_slot() {
        let r = region();
        // Entry 1 of a 20 KB-entry RB in slot 2.
        let e = r.sub_extent(2, 20_000, 20_000);
        let slot_start_bytes = (1000 + 2 * 256) * 512;
        assert_eq!(e.lba, (slot_start_bytes + 20_000) / 512);
        assert!(r.extent(2).contains(&e));
    }

    #[test]
    #[should_panic(expected = "exceeds slot")]
    fn sub_extent_overflow_panics() {
        let r = region();
        r.sub_extent(0, 120_000, 20_000);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn extent_of_bad_slot_panics() {
        region().extent(4);
    }
}
