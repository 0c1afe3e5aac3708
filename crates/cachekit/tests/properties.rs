//! Property tests: the cache primitives against reference models.

use cachekit::{ByteBudget, LruList, SegmentedLru};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn segmented_window_is_always_the_lru_tail(
        keys in prop::collection::vec(0u16..50, 1..100),
        window in 0usize..12,
    ) {
        let mut seg = SegmentedLru::new(window);
        let mut order: Vec<u16> = Vec::new(); // LRU first
        for k in keys {
            if seg.touch(&k).is_some() {
                order.retain(|&x| x != k);
                order.push(k);
            } else {
                seg.insert_mru(k, ());
                order.push(k);
            }
            let region: Vec<u16> = seg.iter_replace_first().map(|(&k, _)| k).collect();
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
            l.insert_mru(k, k + 1);
        }
        for k in 0..n {
            prop_assert_eq!(l.pop_lru(), Some((k, k + 1)));
        }
        prop_assert!(l.is_empty());
    }
}
