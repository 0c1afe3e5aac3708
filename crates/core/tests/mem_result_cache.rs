//! The L1 result cache against a byte-budget model.
//!
//! `MemResultCache` counts entries (`⌊capacity_bytes / RESULT_ENTRY_BYTES⌋`
//! of them); the model below keeps the byte arithmetic of a budgeted LRU
//! — an entry is admissible iff it fits the whole capacity, and victims go
//! while `used + RESULT_ENTRY_BYTES > capacity` — so agreement after every
//! operation, at capacities that are not whole entries too, shows that
//! counting entries evicts exactly as charging bytes does.

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
                Op::Insert(id, v) => prop_assert_eq!(cache.insert(id, v), model.insert(id, v)),
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
