//! Property tests: the cache primitives against reference models.

use cachekit::{ByteBudget, LruCache, LruList, SegmentedLru};
use proptest::prelude::*;

/// Operations over a small key universe so collisions are common.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u8, u8), // key, size
    Get(u8),
    Remove(u8),
    PopLru,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (any::<u8>(), any::<u8>()).prop_map(|(k, s)| Op::Insert(k % 24, s)),
            any::<u8>().prop_map(|k| Op::Get(k % 24)),
            any::<u8>().prop_map(|k| Op::Remove(k % 24)),
            Just(Op::PopLru),
        ],
        1..300,
    )
}

/// A straightforward Vec-based LRU cache model.
struct Model {
    capacity: u64,
    // MRU first: (key, size)
    entries: Vec<(u8, u64)>,
}

impl Model {
    fn used(&self) -> u64 {
        self.entries.iter().map(|(_, s)| s).sum()
    }

    fn insert(&mut self, k: u8, size: u64) -> bool {
        if size > self.capacity {
            return false;
        }
        self.entries.retain(|(key, _)| *key != k);
        while self.used() + size > self.capacity {
            self.entries.pop();
        }
        self.entries.insert(0, (k, size));
        true
    }

    fn get(&mut self, k: u8) -> bool {
        if let Some(pos) = self.entries.iter().position(|(key, _)| *key == k) {
            let e = self.entries.remove(pos);
            self.entries.insert(0, e);
            true
        } else {
            false
        }
    }

    fn remove(&mut self, k: u8) -> bool {
        let n = self.entries.len();
        self.entries.retain(|(key, _)| *key != k);
        self.entries.len() != n
    }

    fn pop_lru(&mut self) -> Option<u8> {
        self.entries.pop().map(|(k, _)| k)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lru_cache_matches_model(capacity in 1u64..600, ops in ops()) {
        let mut cache: LruCache<u8, ()> = LruCache::new(capacity);
        let mut model = Model { capacity, entries: Vec::new() };
        for op in ops {
            match op {
                Op::Insert(k, s) => {
                    let size = s as u64;
                    let ok = cache.insert(k, (), size).is_ok();
                    let mok = model.insert(k, size);
                    prop_assert_eq!(ok, mok);
                }
                Op::Get(k) => {
                    prop_assert_eq!(cache.get(&k).is_some(), model.get(k));
                }
                Op::Remove(k) => {
                    prop_assert_eq!(cache.remove(&k).is_some(), model.remove(k));
                }
                Op::PopLru => {
                    prop_assert_eq!(cache.pop_lru().map(|(k, _, _)| k), model.pop_lru());
                }
            }
            prop_assert_eq!(cache.len(), model.entries.len());
            prop_assert_eq!(cache.budget().used(), model.used());
            prop_assert!(cache.budget().used() <= capacity);
            // Recency order agrees end to end.
            let got: Vec<u8> = cache.iter_lru().copied().collect();
            let want: Vec<u8> = model.entries.iter().rev().map(|(k, _)| *k).collect();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn segmented_window_is_always_the_lru_tail(
        keys in prop::collection::vec(0u16..50, 1..100),
        window in 0usize..12,
    ) {
        let mut seg = SegmentedLru::new(window);
        let mut order: Vec<u16> = Vec::new(); // LRU first
        for k in keys {
            if seg.contains(&k) {
                seg.touch(&k);
                order.retain(|&x| x != k);
                order.push(k);
            } else {
                seg.insert_mru(k);
                order.push(k);
            }
            let region: Vec<u16> = seg.iter_replace_first().copied().collect();
            let expect: Vec<u16> = order.iter().take(window).copied().collect();
            prop_assert_eq!(region, expect);
        }
    }

    #[test]
    fn budget_arithmetic_never_lies(charges in prop::collection::vec(0u64..1000, 1..50)) {
        let capacity: u64 = 20_000;
        let mut b = ByteBudget::new(capacity);
        let mut charged: Vec<u64> = Vec::new();
        for c in charges {
            if b.fits(c) {
                b.charge(c);
                charged.push(c);
            } else if let Some(x) = charged.pop() {
                b.credit(x);
            }
            prop_assert_eq!(b.used(), charged.iter().sum::<u64>());
            prop_assert!(b.used() <= capacity);
            prop_assert_eq!(b.free(), capacity - b.used());
        }
    }

    #[test]
    fn lru_list_pop_order_is_insert_order_without_touches(
        n in 1usize..60,
    ) {
        let mut l = LruList::new();
        for k in 0..n {
            l.insert_mru(k);
        }
        for k in 0..n {
            prop_assert_eq!(l.pop_lru(), Some(k));
        }
        prop_assert!(l.is_empty());
    }
}
