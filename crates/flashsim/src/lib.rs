//! NAND flash + FTL simulator.
//!
//! A re-implementation of the parts of PSU's FlashSim the paper uses
//! (Table III): 2 KB pages, 64-page (128 KB) blocks, page read 32.725 µs,
//! page program 101.475 µs, block erase 1.5 ms, and the ideal
//! **page-mapped FTL** the paper takes as its baseline.
//!
//! Layering:
//!
//! * [`nand::Nand`] — the raw medium: blocks of pages with the three NAND
//!   hard rules (erase-before-write, program-once, program pages in order),
//!   per-block wear counters, and operation timing.
//! * [`ftl::PageMapFtl`] — the logical-page interface ([`ftl::Ftl`]); it
//!   owns the [`Nand`] and decides placement, garbage collection and the
//!   cost of a host request.
//! * [`ssd::SsdDisk`] — adapts the FTL to the sector-addressed
//!   [`storagecore::BlockDevice`], so the cache layers can treat the SSD
//!   exactly like any other disk; this is where Trim enters from above.
//!
//! Everything is deterministic; GC work is charged to the host request
//! that triggered it (foreground GC), which is what produces the paper's
//! Fig. 19(b) effect of background operations hurting read latency.

pub mod ftl;
pub mod nand;
pub mod params;
pub mod ssd;

pub use ftl::{Ftl, FtlError, PageMapFtl};
pub use nand::{Nand, NandStats, PageContent};
pub use params::{FlashParams, PAPER_BLOCK_BYTES, PAPER_PAGE_BYTES};
pub use ssd::SsdDisk;
