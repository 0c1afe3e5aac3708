//! A ghost cache: bounded recency list of keys only, no payloads.
//!
//! The admission filter's blind spot is the key that was just evicted (or
//! just rejected) and immediately re-referenced: its sketch estimate may
//! still sit below the doorkeeper, yet the re-reference is the strongest
//! possible evidence of reuse. [`GhostCache`] remembers recently
//! dismissed keys as *metadata only* — an LRU list of keys with no
//! payload bytes — so the admission tier can fast-track exactly those
//! re-references past the frequency filter. This is the ARC/2Q ghost-list
//! idea applied to admission rather than sizing.

use core::fmt::Debug;
use std::hash::Hash;

use invariant::{audit, Report, Validate};

use crate::lru::LruList;

/// A bounded, payload-free LRU of recently dismissed keys.
#[derive(Debug, Clone)]
pub struct GhostCache<K> {
    list: LruList<K, ()>,
    capacity: usize,
    /// Incrementally maintained member count, cross-checked by
    /// [`Validate`] against the list's own bookkeeping.
    members: usize,
    /// Keys dropped off the LRU end to hold the bound.
    evictions: u64,
    /// Successful consume-on-hit lookups.
    hits: u64,
}

impl<K: Eq + Hash + Clone + Debug> GhostCache<K> {
    /// A ghost list remembering at most `capacity` keys. Capacity 0 is a
    /// legal degenerate: every record is dropped immediately.
    pub fn new(capacity: usize) -> Self {
        GhostCache {
            list: LruList::new(),
            capacity,
            members: 0,
            evictions: 0,
            hits: 0,
        }
    }

    /// Keys currently remembered.
    pub fn len(&self) -> usize {
        self.members
    }

    /// Whether no keys are remembered.
    pub fn is_empty(&self) -> bool {
        self.members == 0
    }

    /// The bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `(hits, evictions)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.evictions)
    }

    /// Whether `key` is remembered (no recency effect, nothing consumed).
    pub fn contains(&self, key: &K) -> bool {
        self.list.contains(key)
    }

    /// Remember `key` as the most recent ghost; a key already present is
    /// refreshed in place. Evicts the oldest ghost when full.
    pub fn record(&mut self, key: K) {
        if self.capacity == 0 {
            return;
        }
        if self.list.touch(&key).is_some() {
            audit!(self, "GhostCache::record(refresh)");
            return;
        }
        if self.members == self.capacity {
            self.list.pop_lru().expect("full list has an LRU key");
            self.members -= 1;
            self.evictions += 1;
        }
        self.list.insert_mru(key, ());
        self.members += 1;
        audit!(self, "GhostCache::record");
    }

    /// Consume a ghost hit: if `key` is remembered, forget it and return
    /// true (the caller fast-tracks the admission). A ghost entry is
    /// single-shot — evidence spent is evidence gone, so a scan cannot
    /// ride one stale ghost forever.
    pub fn take(&mut self, key: &K) -> bool {
        if self.list.remove(key).is_some() {
            self.members -= 1;
            self.hits += 1;
            audit!(self, "GhostCache::take");
            true
        } else {
            false
        }
    }

    /// Corruption hook for the seeded-corruption audit tests: skew the
    /// incremental member count without touching the list.
    #[doc(hidden)]
    pub fn debug_corrupt_members(&mut self, delta: usize) {
        self.members += delta;
    }
}

impl<K: Eq + Hash + Clone + Debug> Validate for GhostCache<K> {
    /// Cross-checks the incremental member count against the list's own
    /// length and re-asserts the capacity bound — the ghost list is pure
    /// metadata, so an unbounded or miscounted list silently grows until
    /// every rejection fast-tracks (admission filter disabled) or none
    /// does.
    fn validate(&self, report: &mut Report) {
        const S: &str = "GhostCache";
        report.check(
            self.members == self.list.len(),
            S,
            "ghost-length-agree",
            || {
                format!(
                    "member count says {} keys, the list holds {}",
                    self.members,
                    self.list.len()
                )
            },
        );
        report.check(
            self.list.len() <= self.capacity,
            S,
            "ghost-capacity",
            || {
                format!(
                    "{} ghosts remembered against a capacity of {}",
                    self.list.len(),
                    self.capacity
                )
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_take_roundtrip() {
        let mut g: GhostCache<u64> = GhostCache::new(4);
        g.record(1);
        g.record(2);
        assert!(g.contains(&1));
        assert!(g.take(&1), "remembered key fast-tracks");
        assert!(!g.take(&1), "a ghost is single-shot");
        assert!(!g.take(&9), "never-seen key does not");
        assert_eq!(g.len(), 1);
        assert_eq!(g.stats().0, 1);
    }

    #[test]
    fn capacity_bound_evicts_oldest() {
        let mut g: GhostCache<u64> = GhostCache::new(3);
        for k in 0..5 {
            g.record(k);
        }
        assert_eq!(g.len(), 3);
        assert!(!g.contains(&0), "oldest ghosts fall off");
        assert!(!g.contains(&1));
        assert!(g.contains(&2) && g.contains(&3) && g.contains(&4));
        assert_eq!(g.stats().1, 2);
    }

    #[test]
    fn refresh_moves_to_mru() {
        let mut g: GhostCache<u64> = GhostCache::new(2);
        g.record(1);
        g.record(2);
        g.record(1); // refresh, not duplicate
        assert_eq!(g.len(), 2);
        g.record(3); // evicts 2, the LRU ghost
        assert!(g.contains(&1) && g.contains(&3) && !g.contains(&2));
    }

    #[test]
    fn zero_capacity_is_inert() {
        let mut g: GhostCache<u64> = GhostCache::new(0);
        g.record(1);
        assert!(g.is_empty());
        assert!(!g.take(&1));
        assert!(g.validation_report().is_clean());
    }

    #[test]
    fn validator_fires_on_corrupted_count() {
        let mut g: GhostCache<u64> = GhostCache::new(4);
        g.record(1);
        assert!(g.validation_report().is_clean());
        g.debug_corrupt_members(1);
        let fired: Vec<&str> = g
            .validation_report()
            .violations()
            .iter()
            .map(|v| v.invariant)
            .collect();
        assert!(fired.contains(&"ghost-length-agree"), "got {fired:?}");
    }
}
