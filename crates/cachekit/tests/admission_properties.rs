//! Property tests of the admission-tier primitives: the 4-bit frequency
//! sketch against an exact-count reference, and the ghost cache against
//! a Vec-based recency model.

#![expect(
    clippy::disallowed_types,
    reason = "each exact count is checked on its own, so map order never reaches a verdict"
)]

use cachekit::{FreqSketch, GhostCache, COUNTER_MAX};
use invariant::Validate;
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Count-min never undercounts, and no counter escapes the 4-bit
    /// ceiling regardless of the key mix.
    #[test]
    fn sketch_estimates_bound_true_counts(
        keys in prop::collection::vec(any::<u8>(), 1..400),
        width in 64usize..512,
    ) {
        invariant::force_enable();
        let mut sketch = FreqSketch::new(width, 1_000_000);
        let mut exact: HashMap<u8, u64> = HashMap::new();
        for &k in &keys {
            sketch.increment(u64::from(k));
            *exact.entry(k).or_insert(0) += 1;
        }
        for (&k, &count) in &exact {
            let est = u64::from(sketch.estimate(u64::from(k)));
            prop_assert!(
                est >= count.min(u64::from(COUNTER_MAX)),
                "undercount for {}: est {} true {}", k, est, count
            );
            prop_assert!(est <= u64::from(COUNTER_MAX), "counter escaped 4 bits");
        }
        prop_assert!(sketch.validation_report().is_clean());
    }

    /// Halving divides every estimate by two (rounding down) and never
    /// reorders two keys: the hotter key stays at least as hot.
    #[test]
    fn halving_preserves_relative_order(
        hot_extra in 1u8..12,
        base in 0u8..4,
        halvings in 1usize..4,
    ) {
        invariant::force_enable();
        let mut sketch = FreqSketch::new(1024, 1_000_000);
        for _ in 0..base {
            sketch.increment(1);
            sketch.increment(2);
        }
        for _ in 0..hot_extra {
            sketch.increment(1);
        }
        let mut hot = sketch.estimate(1);
        let mut cold = sketch.estimate(2);
        for _ in 0..halvings {
            sketch.halve();
            prop_assert_eq!(sketch.estimate(1), hot / 2);
            prop_assert_eq!(sketch.estimate(2), cold / 2);
            prop_assert!(sketch.estimate(1) >= sketch.estimate(2));
            hot /= 2;
            cold /= 2;
        }
        prop_assert!(sketch.validation_report().is_clean());
    }

    /// The aging clock halves exactly every `window` increments.
    #[test]
    fn reset_window_discipline(
        window in 1u64..50,
        increments in 1usize..300,
    ) {
        invariant::force_enable();
        let mut sketch = FreqSketch::new(64, window);
        for i in 0..increments as u64 {
            sketch.increment(i % 7);
        }
        prop_assert_eq!(sketch.resets(), increments as u64 / window);
        prop_assert!(sketch.validation_report().is_clean());
    }

    /// Ghost cache vs a Vec model: same membership, same hit/miss
    /// answers, capacity never exceeded.
    #[test]
    fn ghost_cache_matches_recency_model(
        ops in prop::collection::vec((any::<bool>(), any::<u8>()), 1..400),
        capacity in 0usize..12,
    ) {
        invariant::force_enable();
        let mut ghost: GhostCache<u8> = GhostCache::new(capacity);
        // MRU first.
        let mut model: Vec<u8> = Vec::new();
        for (is_record, k) in ops {
            let k = k % 24;
            if is_record {
                ghost.record(k);
                if capacity > 0 {
                    model.retain(|&x| x != k);
                    if model.len() == capacity {
                        model.pop();
                    }
                    model.insert(0, k);
                }
            } else {
                let hit = ghost.take(&k);
                let model_hit = model.contains(&k);
                prop_assert_eq!(hit, model_hit, "take({}) diverged", k);
                model.retain(|&x| x != k);
            }
            prop_assert_eq!(ghost.len(), model.len());
            prop_assert!(ghost.len() <= capacity);
        }
        prop_assert!(ghost.validation_report().is_clean());
    }
}
