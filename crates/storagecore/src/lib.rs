//! Block-device abstraction for the hybridstore simulators.
//!
//! Every storage medium in the reproduction — the mechanical disk model in
//! `hddsim`, the NAND/FTL model in `flashsim`, and the in-memory reference
//! device here — implements [`BlockDevice`]: a *timing model* addressed by
//! logical sector extents. Requests return the simulated service latency;
//! the caller advances its [`simclock::Clock`] by that amount.
//!
//! Devices deliberately do **not** carry data payloads: the experiment
//! drivers keep logical content in ordinary Rust structures and charge
//! device time for touching it, which keeps memory bounded at search-engine
//! scale.

pub mod device;
pub mod queue;
pub mod ramdisk;
pub mod stats;
pub mod trace;
pub mod types;

pub use device::{BlockDevice, IoError};
pub use queue::{IoCompletion, IoRequest, PipelinedDevice};
pub use ramdisk::RamDisk;
pub use stats::{IoStats, QueueDepthStats};
pub use trace::{IoEvent, NullSink, TraceSink, VecSink};
pub use types::{Extent, Geometry, IoKind, Lba, SECTOR_SIZE};
