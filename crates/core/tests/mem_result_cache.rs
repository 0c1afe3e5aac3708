//! The L1 result cache against a byte-budget model.
//!
//! `MemResultCache` counts entries (`⌊capacity_bytes / RESULT_ENTRY_BYTES⌋`
//! of them); the model below keeps the byte arithmetic of a budgeted LRU
//! — an entry is admissible iff it fits the whole capacity, and victims go
//! while `used + RESULT_ENTRY_BYTES > capacity` — so agreement after every
//! operation, at capacities that are not whole entries too, shows that
//! counting entries evicts exactly as charging bytes does. Three pinned
//! cases spell out the eviction contract: a full cache hands back its LRU
//! entry with that entry's frequency, a capacity-0 cache the insertion
//! itself, and a re-insert replaces without evicting.

use hybridcache::mem::MemResultCache;
use hybridcache::{QueryId, RESULT_ENTRY_BYTES};
use invariant::Validate;
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(QueryId, u32),
    Get(QueryId),
    Remove(QueryId),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..16, any::<u32>()).prop_map(|(id, v)| Op::Insert(id, v)),
            (0u64..16).prop_map(Op::Get),
            (0u64..16).prop_map(Op::Remove),
        ],
        1..300,
    )
}

/// A byte-budgeted LRU over `(id, payload, freq)`, MRU first.
struct Model {
    capacity: u64,
    entries: Vec<(QueryId, u32, u64)>,
}

impl Model {
    fn used(&self) -> u64 {
        self.entries.len() as u64 * RESULT_ENTRY_BYTES
    }

    fn position(&self, id: QueryId) -> Option<usize> {
        self.entries.iter().position(|e| e.0 == id)
    }

    fn insert(&mut self, id: QueryId, value: u32) -> Vec<(QueryId, u32, u64)> {
        if RESULT_ENTRY_BYTES > self.capacity {
            return vec![(id, value, 1)];
        }
        if let Some(at) = self.position(id) {
            self.entries.remove(at);
        }
        let mut evicted = Vec::new();
        while self.used() + RESULT_ENTRY_BYTES > self.capacity {
            evicted.push(self.entries.pop().expect("over budget means non-empty"));
        }
        self.entries.insert(0, (id, value, 1));
        evicted
    }

    fn get(&mut self, id: QueryId) -> Option<u32> {
        let mut entry = self.entries.remove(self.position(id)?);
        entry.2 += 1;
        self.entries.insert(0, entry);
        Some(entry.1)
    }

    fn remove(&mut self, id: QueryId) -> Option<u32> {
        Some(self.entries.remove(self.position(id)?).1)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mem_result_cache_matches_model(
        capacity in prop_oneof![
            0u64..=200_000,
            (0u64..=10).prop_map(|n| n * RESULT_ENTRY_BYTES),
        ],
        ops in ops(),
    ) {
        let mut cache: MemResultCache<u32> = MemResultCache::new(capacity);
        let mut model = Model { capacity, entries: Vec::new() };
        for op in ops {
            match op {
                Op::Insert(id, v) => {
                    // Equal-size entries: one insertion evicts at most one.
                    let evicted = model.insert(id, v);
                    prop_assert!(evicted.len() <= 1);
                    prop_assert_eq!(cache.insert(id, v), evicted.into_iter().next());
                }
                Op::Get(id) => prop_assert_eq!(cache.get(id).copied(), model.get(id)),
                Op::Remove(id) => prop_assert_eq!(cache.remove(id), model.remove(id)),
            }
            prop_assert_eq!(cache.len(), model.entries.len());
            for id in 0..16 {
                prop_assert_eq!(cache.contains(id), model.position(id).is_some());
            }
            let report = cache.validation_report();
            prop_assert!(report.is_clean(), "{}", report.summary());
        }
    }
}

#[test]
fn full_cache_evicts_exactly_the_lru_entry_with_its_frequency() {
    let mut c: MemResultCache<u32> = MemResultCache::new(3 * RESULT_ENTRY_BYTES);
    for id in 0..3 {
        assert_eq!(c.insert(id, 10 * id as u32), None);
    }
    c.get(0);
    c.get(0);
    c.get(1); // recency now 2 (LRU), 0, 1 (MRU); 0 has freq 3
    assert_eq!(c.insert(3, 30), Some((2, 20, 1)));
    assert_eq!(c.insert(4, 40), Some((0, 0, 3)));
    assert_eq!(c.len(), 3);
    assert!(c.validation_report().is_clean());
}

#[test]
fn zero_capacity_returns_the_insertion_itself() {
    let mut c: MemResultCache<&str> = MemResultCache::new(RESULT_ENTRY_BYTES - 1);
    assert_eq!(c.insert(7, "x"), Some((7, "x", 1)));
    assert!(c.is_empty());
    assert!(!c.contains(7));
}

#[test]
fn reinsert_replaces_without_evicting() {
    let mut c: MemResultCache<&str> = MemResultCache::new(2 * RESULT_ENTRY_BYTES);
    c.insert(1, "a");
    c.insert(2, "b");
    c.get(1);
    assert_eq!(c.insert(2, "b2"), None, "a cached id is replaced in place");
    assert_eq!(c.len(), 2);
    assert_eq!(c.get(2), Some(&"b2"));
    // The re-insert reset 2's frequency and made it MRU, then the
    // get above touched it again: 1 is the LRU entry, freq 2.
    assert_eq!(c.insert(3, "c"), Some((1, "a", 2)));
}
