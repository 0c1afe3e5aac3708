//! The baseline: a byte-budgeted LRU cache for variable-sized entries.
//!
//! This is the "traditional LRU" every figure in the paper's evaluation
//! compares against, used both as the memory-level cache under all
//! policies and as the L2 policy in the LRU baseline runs.

use fxmap::FxHashMap;
use std::hash::Hash;

use invariant::{Report, Validate};

use crate::budget::ByteBudget;
use crate::lru::LruList;

/// One stored entry.
#[derive(Debug, Clone)]
struct Slot<V> {
    value: V,
    bytes: u64,
}

/// Byte-budgeted LRU cache.
#[derive(Debug, Clone)]
pub struct LruCache<K, V> {
    list: LruList<K>,
    map: FxHashMap<K, Slot<V>>,
    budget: ByteBudget,
    hits: u64,
    misses: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// A cache of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        LruCache {
            list: LruList::new(),
            map: FxHashMap::default(),
            budget: ByteBudget::new(capacity),
            hits: 0,
            misses: 0,
        }
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Bytes in use / capacity.
    pub fn budget(&self) -> &ByteBudget {
        &self.budget
    }

    /// (hits, misses) since construction.
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Hit ratio in `[0,1]` (0 when never queried).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Look up and promote. Counts a hit or miss.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        if self.list.touch(key) {
            self.hits += 1;
            Some(&self.map[key].value)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Look up and promote, returning a mutable reference. Counts a hit
    /// or miss like [`LruCache::get`]. Mutation must not change the
    /// entry's byte footprint — use [`LruCache::insert`] for resizes.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        if self.list.touch(key) {
            self.hits += 1;
            Some(&mut self.map.get_mut(key).expect("list/map agree").value)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Look up without promoting or counting.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|s| &s.value)
    }

    /// Whether present (no promotion, no counting).
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Size in bytes of a present entry.
    pub fn entry_bytes(&self, key: &K) -> Option<u64> {
        self.map.get(key).map(|s| s.bytes)
    }

    /// Insert `key` at MRU with `bytes` cost, evicting LRU entries until it
    /// fits. Returns the evicted `(key, value, bytes)` tuples, oldest
    /// first. An entry larger than the whole capacity is rejected and
    /// returned as `Err`.
    pub fn insert(&mut self, key: K, value: V, bytes: u64) -> Result<Vec<(K, V, u64)>, V> {
        if !self.budget.admissible(bytes) {
            return Err(value);
        }
        // Replacing an existing entry releases its old charge first.
        if let Some(old) = self.map.remove(&key) {
            self.budget.credit(old.bytes);
            self.list.remove(&key);
        }
        let mut evicted = Vec::new();
        while !self.budget.fits(bytes) {
            let victim = self
                .list
                .pop_lru()
                .expect("budget says full, list says empty");
            let slot = self.map.remove(&victim).expect("list/map agree");
            self.budget.credit(slot.bytes);
            evicted.push((victim, slot.value, slot.bytes));
        }
        self.budget.charge(bytes);
        self.list.insert_mru(key.clone());
        self.map.insert(key, Slot { value, bytes });
        Ok(evicted)
    }

    /// Remove an entry, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let slot = self.map.remove(key)?;
        self.list.remove(key);
        self.budget.credit(slot.bytes);
        Some(slot.value)
    }

    /// The LRU key, if any.
    pub fn peek_lru(&self) -> Option<&K> {
        self.list.peek_lru()
    }

    /// Pop the LRU entry.
    pub fn pop_lru(&mut self) -> Option<(K, V, u64)> {
        let key = self.list.pop_lru()?;
        let slot = self.map.remove(&key).expect("list/map agree");
        self.budget.credit(slot.bytes);
        Some((key, slot.value, slot.bytes))
    }

    /// Iterate keys from LRU to MRU.
    pub fn iter_lru(&self) -> impl Iterator<Item = &K> {
        self.list.iter_lru()
    }
}

impl<K: Eq + Hash + Clone + std::fmt::Debug, V> Validate for LruCache<K, V> {
    /// The recency list, the slot map, and the byte budget must describe
    /// the same population: list order covers exactly the map's keys and
    /// the budget's `used` equals the sum of the stored entry sizes
    /// (never above capacity).
    fn validate(&self, report: &mut Report) {
        report.check(
            self.list.len() == self.map.len(),
            "LruCache",
            "list-map-agree",
            || {
                format!(
                    "list tracks {} keys, map holds {}",
                    self.list.len(),
                    self.map.len()
                )
            },
        );
        let mut listed = 0u64;
        for k in self.list.iter_lru() {
            listed += 1;
            report.check(
                self.map.contains_key(k),
                "LruCache",
                "list-map-agree",
                || format!("{k:?} is on the recency list but has no slot"),
            );
        }
        report.check(
            listed as usize == self.list.len(),
            "LruCache",
            "list-link-count",
            || {
                format!(
                    "walking the list visits {listed} nodes but len() says {}",
                    self.list.len()
                )
            },
        );
        let stored: u64 = self.map.values().map(|s| s.bytes).sum();
        report.check(
            stored == self.budget.used(),
            "LruCache",
            "budget-accounting",
            || {
                format!(
                    "entries sum to {stored} bytes but the budget charges {}",
                    self.budget.used()
                )
            },
        );
        report.check(
            self.budget.used() <= self.budget.capacity(),
            "LruCache",
            "budget-capacity",
            || {
                format!(
                    "{} bytes charged against a capacity of {}",
                    self.budget.used(),
                    self.budget.capacity()
                )
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut c = LruCache::new(100);
        c.insert("a", 1, 10).unwrap();
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.hit_stats(), (1, 1));
        assert!((c.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eviction_is_lru_ordered() {
        let mut c = LruCache::new(30);
        c.insert(1, (), 10).unwrap();
        c.insert(2, (), 10).unwrap();
        c.insert(3, (), 10).unwrap();
        c.get(&1); // promote 1; LRU is now 2
        let evicted = c.insert(4, (), 20).unwrap();
        let keys: Vec<i32> = evicted.iter().map(|(k, _, _)| *k).collect();
        assert_eq!(keys, vec![2, 3]);
        assert!(c.contains(&1));
        assert!(c.contains(&4));
        assert_eq!(c.budget().used(), 30);
    }

    #[test]
    fn oversized_entry_rejected() {
        let mut c = LruCache::new(10);
        c.insert(1, (), 5).unwrap();
        assert!(c.insert(2, (), 11).is_err());
        assert!(c.contains(&1), "rejection must not disturb the cache");
    }

    #[test]
    fn reinsert_updates_size() {
        let mut c = LruCache::new(100);
        c.insert("k", 1, 80).unwrap();
        c.insert("k", 2, 10).unwrap();
        assert_eq!(c.budget().used(), 10);
        assert_eq!(c.peek(&"k"), Some(&2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn remove_credits_budget() {
        let mut c = LruCache::new(100);
        c.insert(1, "x", 40).unwrap();
        assert_eq!(c.remove(&1), Some("x"));
        assert_eq!(c.budget().used(), 0);
        assert_eq!(c.remove(&1), None);
    }

    #[test]
    fn pop_lru_returns_size() {
        let mut c = LruCache::new(100);
        c.insert(1, 'a', 10).unwrap();
        c.insert(2, 'b', 20).unwrap();
        assert_eq!(c.pop_lru(), Some((1, 'a', 10)));
        assert_eq!(c.budget().used(), 20);
    }

    #[test]
    fn peek_does_not_promote() {
        let mut c = LruCache::new(20);
        c.insert(1, (), 10).unwrap();
        c.insert(2, (), 10).unwrap();
        c.peek(&1);
        let evicted = c.insert(3, (), 10).unwrap();
        assert_eq!(evicted[0].0, 1, "peek must not have promoted key 1");
    }

    #[test]
    fn zero_byte_entries_are_fine() {
        let mut c = LruCache::new(10);
        for k in 0..100 {
            c.insert(k, (), 0).unwrap();
        }
        assert_eq!(c.len(), 100);
        assert_eq!(c.budget().used(), 0);
    }

    #[test]
    fn budget_never_exceeded_under_random_ops() {
        let mut c = LruCache::new(500);
        let mut state = 987654321u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..10_000 {
            let k = rnd() % 40;
            match rnd() % 3 {
                0 => {
                    let _ = c.insert(k, (), rnd() % 120);
                }
                1 => {
                    c.get(&k);
                }
                _ => {
                    c.remove(&k);
                }
            }
            assert!(c.budget().used() <= c.budget().capacity());
            assert_eq!(c.iter_lru().count(), c.len());
        }
    }
}
