//! Flash device parameters (the paper's Table III, plus knobs the paper
//! holds fixed).

use simclock::SimDuration;

/// Page size used throughout the paper: 2 KB.
pub const PAPER_PAGE_BYTES: u32 = 2048;

/// Block size used throughout the paper: 64 pages × 2 KB = 128 KB.
pub const PAPER_BLOCK_BYTES: u32 = 128 * 1024;

/// NAND + controller parameters.
#[derive(Debug, Clone)]
pub struct FlashParams {
    /// Bytes per page.
    pub page_bytes: u32,
    /// Pages per erase block.
    pub pages_per_block: u32,
    /// Physical blocks on the die (including over-provisioned ones).
    pub blocks: u64,
    /// Fraction of physical blocks *not* exported as logical capacity.
    /// 0.07 ≈ the 7 % over-provisioning typical of consumer drives like
    /// the Intel 320 the paper lists.
    pub overprovision: f64,
    /// Page read latency (cell-to-register + transfer).
    pub page_read: SimDuration,
    /// Page program latency.
    pub page_write: SimDuration,
    /// Block erase latency.
    pub block_erase: SimDuration,
    /// GC is triggered when free blocks drop to this count, and runs until
    /// it exceeds it.
    pub gc_low_watermark: u64,
}

impl FlashParams {
    /// The paper's simulated SSD (Table III): page-mapping FTL, 2 KB pages,
    /// 128 KB blocks, read 32.725 µs, write 101.475 µs, erase 1.5 ms.
    /// Capacity is a parameter; the paper's cache experiments use a few GB.
    pub fn paper(logical_bytes: u64) -> Self {
        let overprovision = 0.07;
        let block_bytes = PAPER_BLOCK_BYTES as u64;
        // Enough physical blocks that the logical capacity fits under the
        // over-provisioning reserve.
        let logical_blocks = logical_bytes.div_ceil(block_bytes);
        let blocks =
            ((logical_blocks as f64 / (1.0 - overprovision)).ceil() as u64).max(logical_blocks + 2);
        FlashParams {
            page_bytes: PAPER_PAGE_BYTES,
            pages_per_block: 64,
            blocks,
            overprovision,
            page_read: SimDuration::from_micros_f64(32.725),
            page_write: SimDuration::from_micros_f64(101.475),
            block_erase: SimDuration::from_micros(1500),
            gc_low_watermark: 2,
        }
    }

    /// A tiny device for unit tests: `blocks` physical blocks of 4 pages,
    /// fast timing, watermark 1.
    pub fn tiny(blocks: u64) -> Self {
        FlashParams {
            page_bytes: 2048,
            pages_per_block: 4,
            blocks,
            overprovision: 0.25,
            page_read: SimDuration::from_micros(25),
            page_write: SimDuration::from_micros(200),
            block_erase: SimDuration::from_micros(1500),
            gc_low_watermark: 1,
        }
    }

    /// Bytes per block.
    pub fn block_bytes(&self) -> u64 {
        self.page_bytes as u64 * self.pages_per_block as u64
    }

    /// Total physical pages.
    pub fn physical_pages(&self) -> u64 {
        self.blocks * self.pages_per_block as u64
    }

    /// Logical (host-visible) blocks after the over-provisioning reserve.
    pub fn logical_blocks(&self) -> u64 {
        let reserved = ((self.blocks as f64 * self.overprovision).ceil() as u64)
            .max(self.gc_low_watermark + 1);
        self.blocks.saturating_sub(reserved)
    }

    /// Logical pages exported to the host.
    pub fn logical_pages(&self) -> u64 {
        self.logical_blocks() * self.pages_per_block as u64
    }

    /// Logical capacity in bytes.
    pub fn logical_bytes(&self) -> u64 {
        self.logical_blocks() * self.block_bytes()
    }

    /// Sectors (512 B) per page.
    pub fn sectors_per_page(&self) -> u64 {
        self.page_bytes as u64 / storagecore::SECTOR_SIZE as u64
    }

    /// Validate invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.page_bytes == 0 || self.page_bytes % storagecore::SECTOR_SIZE as u32 != 0 {
            return Err("page size must be a positive multiple of the sector size".into());
        }
        if self.pages_per_block == 0 {
            return Err("pages_per_block must be positive".into());
        }
        if self.blocks < 2 {
            return Err("need at least 2 physical blocks".into());
        }
        // Page numbers are held in 4 bytes, below the medium's sentinels.
        let max_pages = crate::nand::INVALID as u64;
        if self
            .blocks
            .checked_mul(self.pages_per_block as u64)
            .is_none_or(|pages| pages > max_pages)
        {
            return Err(format!(
                "{} blocks of {} pages exceed the {max_pages} page numbers a 4-byte page state holds",
                self.blocks, self.pages_per_block
            ));
        }
        if !(0.0..1.0).contains(&self.overprovision) {
            return Err("overprovision must be in [0, 1)".into());
        }
        if self.logical_blocks() == 0 {
            return Err("no logical capacity left after over-provisioning".into());
        }
        if self.gc_low_watermark == 0 {
            return Err("gc_low_watermark must be >= 1".into());
        }
        if self.blocks <= self.gc_low_watermark + self.logical_blocks() {
            return Err("over-provisioning too small for the GC watermark".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_matches_table_iii() {
        let p = FlashParams::paper(2 * 1024 * 1024 * 1024);
        p.validate().unwrap();
        assert_eq!(p.page_bytes, 2048);
        assert_eq!(p.pages_per_block, 64);
        assert_eq!(p.block_bytes(), 128 * 1024);
        assert_eq!(p.page_read.as_nanos(), 32_725);
        assert_eq!(p.page_write.as_nanos(), 101_475);
        assert_eq!(p.block_erase.as_nanos(), 1_500_000);
    }

    #[test]
    fn paper_preset_exports_requested_capacity() {
        let want = 2u64 * 1024 * 1024 * 1024;
        let p = FlashParams::paper(want);
        assert!(
            p.logical_bytes() >= want,
            "logical {} < requested {want}",
            p.logical_bytes()
        );
        // And not wildly more.
        assert!(p.logical_bytes() < want + want / 4);
    }

    #[test]
    fn tiny_preset_is_valid() {
        FlashParams::tiny(8).validate().unwrap();
    }

    #[test]
    fn geometry_arithmetic() {
        let p = FlashParams::tiny(8);
        assert_eq!(p.block_bytes(), 8192);
        assert_eq!(p.physical_pages(), 32);
        assert_eq!(p.sectors_per_page(), 4);
        // 25% OP on 8 blocks reserves 2; watermark floor is also satisfied.
        assert_eq!(p.logical_blocks(), 6);
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut p = FlashParams::tiny(8);
        p.page_bytes = 100;
        assert!(p.validate().is_err());

        // Zero OP is tolerated: logical_blocks() floors the reserve at
        // watermark + 1. Full OP is not.
        let mut p = FlashParams::tiny(8);
        p.overprovision = 0.0;
        assert!(p.validate().is_ok());
        p.overprovision = 1.0;
        assert!(p.validate().is_err());

        let mut p = FlashParams::tiny(1);
        p.blocks = 1;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_rejects_page_numbers_beyond_four_bytes() {
        // 4-page blocks: the last geometry whose page numbers all sit
        // below the sentinels passes, one more block does not.
        let limit = crate::nand::INVALID as u64 / 4;
        let mut p = FlashParams::tiny(limit);
        assert!(p.validate().is_ok());
        p.blocks = limit + 1;
        let err = p.validate().unwrap_err();
        assert!(err.contains("4-byte"), "{err}");
        // The paper preset at 8 TiB needs 2^32 pages.
        assert!(FlashParams::paper(8 << 40).validate().is_err());
        let mut p = FlashParams::tiny(8);
        p.blocks = u64::MAX;
        assert!(
            p.validate().is_err(),
            "an overflowing page count is refused"
        );
    }
}
