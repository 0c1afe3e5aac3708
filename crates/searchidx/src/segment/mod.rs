//! Live index mutation: the segmented write path.
//!
//! This module owns every mutable index structure — the write-ahead log
//! ([`wal`]), the in-memory write segment ([`write`]), immutable sealed
//! segments and their merge ([`sealed`]), and the [`LiveIndex`] that
//! composes them over a frozen base reader ([`live`]). Everything
//! outside `searchidx` must go through [`LiveIndex`]'s public mutation
//! API: the write segment and the WAL are private fields of `LiveIndex`,
//! so the compiler refuses any other path to them.

pub mod live;
pub mod sealed;
pub mod wal;
pub mod write;

/// Segment identifier. Segment 0 is the frozen base; sealed segments
/// take ids from 1; [`WRITE_SEGMENT`] is the in-memory head's sentinel.
pub type SegmentId = u32;

/// The frozen base reader's segment id.
pub const BASE_SEGMENT: SegmentId = 0;

/// Sentinel id of the in-memory write segment (it is never addressed on
/// a device and never owns cache entries).
pub const WRITE_SEGMENT: SegmentId = u32::MAX;

pub use live::{
    AddOutcome, CompactOutcome, DeleteOutcome, DirtyTerms, LiveIndex, MutationStats, SealOutcome,
    SegmentPolicy, UsagePart,
};
pub use sealed::{MergeStats, SealedSegment};
pub use wal::{Lsn, WalOp, WalRecord, WriteAheadLog, WAL_HEADER_BYTES};
pub use write::{GrowthPolicy, GrowthStats, WriteSegment, CHAIN_BLOCK};
