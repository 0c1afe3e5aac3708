//! Cache building blocks.
//!
//! The paper's replacement machinery (Sec. VI-C) is assembled from a small
//! set of primitives, kept here so the baseline LRU and the proposed
//! CBLRU/CBSLRU share identical bookkeeping and differ *only* in policy:
//!
//! * [`LruList`] — an order-maintaining map with O(1) touch / insert /
//!   remove, backed by a slab whose nodes own their values and one hash
//!   index;
//! * [`SegmentedLru`] — an [`LruList`] split into the paper's **Working
//!   Region** and **Replace-First Region** of window `W` (Figs. 11 & 13);
//! * [`ByteBudget`] — capacity accounting for variable-sized entries;
//! * [`FreqSketch`] / [`GhostCache`] — the sketch-based admission tier's
//!   building blocks: a 4-bit counting frequency sketch (TinyLFU-style
//!   count-min with periodic halving) and a payload-free list of
//!   recently dismissed keys.
//!
//! The caches themselves — the L1 result and list caches and the SSD
//! stores — live in `hybridcache`, each an [`LruList`] or a
//! [`SegmentedLru`] that holds its entries; a store keeps a map beside
//! its list only for what the list does not hold (pinned entries, and
//! the result store's query table, whose list is over result blocks).
//! Structures here that keep redundant bookkeeping ([`GhostCache`],
//! [`FreqSketch`]) implement [`invariant::Validate`], so debug builds can
//! audit it against a from-scratch recount at each mutation boundary.

pub mod budget;
pub mod ghost;
pub mod lru;
pub mod segmented;
pub mod sketch;

pub use budget::ByteBudget;
pub use ghost::GhostCache;
pub use lru::LruList;
pub use segmented::SegmentedLru;
pub use sketch::{FreqSketch, COUNTER_MAX};
