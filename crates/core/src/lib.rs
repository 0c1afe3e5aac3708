//! The paper's contribution: an SSD-based two-level hybrid cache for
//! large-scale search engines.
//!
//! Memory is the first-level cache, an SSD the second, and the HDD-resident
//! index the backing store. Two entry families are cached — fixed-size
//! **result entries** (~20 KB, the top-50 documents of a query) and
//! variable-size **inverted-list entries** — each with its own selection,
//! placement and replacement machinery:
//!
//! * **Selection** ([`selection`]): evicted lists are flushed to SSD at
//!   block granularity, `SC = ceil(SI·PU / SB)` (Formula 1), and admitted
//!   only when their efficiency value `EV = Freq / SC` (Formula 2) clears
//!   the `TEV` threshold; low-value data goes straight back to the HDD
//!   tier.
//! * **Placement** ([`ssd`]): an improved log-based cache file. Result
//!   entries are staged in a write buffer and assembled into 128 KB
//!   **result blocks** so the SSD only ever sees large block-aligned
//!   writes; three mapping tables (result, result-block, inverted-list)
//!   index the file.
//! * **Replacement** ([`ssd`], [`mem`]): **CBLRU** — an LRU list split
//!   into a Working Region and a Replace-First Region of window `W`;
//!   result-block victims maximize the invalid-entry count (IREN),
//!   inverted-list victims are size-matched; blocks cycle through
//!   free → normal → replaceable states, and replaceable data still
//!   serves hits until overwritten. **CBSLRU** additionally pins a
//!   static partition of the most efficient entries. The classic **LRU**
//!   (full-list caching, per-entry random writes) is implemented as the
//!   baseline.
//!
//! [`CacheManager`] ties the two levels together behind the query-,
//! selection- and replacement-management interface of the paper's Fig. 2,
//! charging all SSD traffic to a [`storagecore::BlockDevice`] so the flash
//! effects (erases, GC, access times) are measured, not assumed.

pub mod admission;
pub mod config;
pub mod manager;
pub mod mem;
pub mod selection;
pub mod ssd;
pub mod stats;
pub mod ttl;

pub use admission::{AdmissionStats, AdmissionTier};
pub use config::{
    AdmissionConfig, AdmissionPolicy, CachingScheme, HybridConfig, PolicyKind, BLOCK_BYTES,
    RESULT_ENTRY_BYTES,
};
pub use manager::{CacheManager, ListServe, Tier};
pub use selection::{efficiency_value, sc_blocks, sc_bytes};
pub use stats::CacheStats;
pub use ttl::TtlTracker;

/// Identity of a distinct query (the result-cache key).
pub type QueryId = u64;

/// Identity of an inverted-list cache entry: `(segment, term)` packed as
/// `segment << 32 | term`.
///
/// Segment 0 is the frozen base index, so for a frozen corpus the key is
/// numerically the term id — exactly the pre-segmentation behaviour. A
/// live index hands out fresh segment ids as it seals and merges, which
/// is what stops a freshly merged list from *aliasing* a stale cached
/// prefix of a retired segment: the old `(segment, term)` key can only
/// ever be invalidated, never re-resolved.
pub type TermKey = u64;

/// Packs a `(segment, term)` pair into a [`TermKey`].
#[inline]
pub const fn list_key(segment: u32, term: u32) -> TermKey {
    ((segment as u64) << 32) | term as u64
}

/// The segment id of a [`TermKey`].
#[inline]
pub const fn key_segment(key: TermKey) -> u32 {
    (key >> 32) as u32
}

/// The term id of a [`TermKey`].
#[inline]
pub const fn key_term(key: TermKey) -> u32 {
    key as u32
}
