//! Access-frequency tracking.
//!
//! The efficiency value of the paper's Formula 2, `EV = Freq / SC`, needs
//! per-key access counts. [`FreqCounter`] keeps exact counts.

use fxmap::FxHashMap;
use std::hash::Hash;

/// Exact per-key access counter.
#[derive(Debug, Clone)]
pub struct FreqCounter<K> {
    counts: FxHashMap<K, u64>,
    accesses: u64,
}

impl<K: Eq + Hash + Clone> Default for FreqCounter<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Clone> FreqCounter<K> {
    /// An empty counter.
    pub fn new() -> Self {
        FreqCounter {
            counts: FxHashMap::default(),
            accesses: 0,
        }
    }

    /// Record one access and return the new count.
    pub fn record(&mut self, key: &K) -> u64 {
        self.accesses += 1;
        let c = self.counts.entry(key.clone()).or_insert(0);
        *c += 1;
        *c
    }

    /// Current count for `key` (0 if never seen).
    pub fn get(&self, key: &K) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Total recorded accesses.
    pub fn total(&self) -> u64 {
        self.accesses
    }

    /// Number of distinct keys with a positive count.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// The `k` most frequent keys, descending by count (ties: arbitrary
    /// but deterministic for a given insertion history is *not*
    /// guaranteed — callers needing stable order sort by key too).
    pub fn top_k(&self, k: usize) -> Vec<(K, u64)> {
        let mut all: Vec<(K, u64)> = self
            .counts
            .iter()
            .map(|(key, &c)| (key.clone(), c))
            .collect();
        all.sort_unstable_by_key(|&(_, c)| core::cmp::Reverse(c));
        all.truncate(k);
        all
    }

    /// Forget one key.
    pub fn remove(&mut self, key: &K) {
        self.counts.remove(key);
    }

    /// Forget everything.
    pub fn clear(&mut self) {
        self.counts.clear();
        self.accesses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate() {
        let mut f = FreqCounter::new();
        assert_eq!(f.get(&"a"), 0);
        assert_eq!(f.record(&"a"), 1);
        assert_eq!(f.record(&"a"), 2);
        assert_eq!(f.record(&"b"), 1);
        assert_eq!(f.get(&"a"), 2);
        assert_eq!(f.total(), 3);
        assert_eq!(f.distinct(), 2);
    }

    #[test]
    fn top_k_orders_by_count() {
        let mut f = FreqCounter::new();
        for _ in 0..5 {
            f.record(&"x");
        }
        for _ in 0..3 {
            f.record(&"y");
        }
        f.record(&"z");
        let top = f.top_k(2);
        assert_eq!(top, vec![("x", 5), ("y", 3)]);
        assert_eq!(f.top_k(10).len(), 3, "k beyond distinct keys is fine");
    }

    #[test]
    fn remove_and_clear() {
        let mut f = FreqCounter::new();
        f.record(&1);
        f.record(&2);
        f.remove(&1);
        assert_eq!(f.get(&1), 0);
        f.clear();
        assert_eq!(f.total(), 0);
        assert_eq!(f.distinct(), 0);
    }
}
