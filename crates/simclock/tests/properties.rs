//! Property tests of the time, RNG and statistics primitives.

use proptest::prelude::*;
use simclock::{Histogram, Rng, RunningStats, SimDuration, Zipf};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn zipf_samples_stay_in_range(n in 1u64..100_000, alpha in 0.1f64..3.0, seed: u64) {
        let z = Zipf::new(n, alpha);
        let mut rng = Rng::new(seed);
        for _ in 0..200 {
            let k = z.sample(&mut rng);
            prop_assert!((1..=n).contains(&k));
        }
    }

    #[test]
    fn rng_bounded_draws(bound in 1u64..u64::MAX, seed: u64) {
        let mut rng = Rng::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.next_below(bound) < bound);
        }
    }

    #[test]
    fn rng_range_inclusive(lo: u64, span in 0u64..1_000_000, seed: u64) {
        let hi = lo.saturating_add(span);
        let mut rng = Rng::new(seed);
        for _ in 0..50 {
            let x = rng.next_range(lo, hi);
            prop_assert!((lo..=hi).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_permutation(len in 0usize..200, seed: u64) {
        let mut rng = Rng::new(seed);
        let mut xs: Vec<usize> = (0..len).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..len).collect::<Vec<_>>());
    }

    #[test]
    fn running_stats_merge_is_equivalent_to_sequential(
        xs in prop::collection::vec(-1e6f64..1e6, 1..200),
        split in 0usize..200,
    ) {
        let split = split.min(xs.len());
        let mut whole = RunningStats::new();
        xs.iter().for_each(|&x| whole.push(x));
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        xs[..split].iter().for_each(|&x| a.push(x));
        xs[split..].iter().for_each(|&x| b.push(x));
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() <= 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!((a.variance() - whole.variance()).abs() <= 1e-4 * (1.0 + whole.variance()));
        prop_assert_eq!(a.min(), whole.min());
        prop_assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn histogram_quantiles_are_monotone_and_bracket_data(
        xs in prop::collection::vec(0u64..1_000_000_000, 1..300),
    ) {
        let mut h = Histogram::new();
        for &x in &xs {
            h.record(x);
        }
        let q25 = h.quantile(0.25);
        let q50 = h.quantile(0.5);
        let q99 = h.quantile(0.99);
        prop_assert!(q25 <= q50 && q50 <= q99);
        let max = *xs.iter().max().expect("non-empty");
        // Bucket upper bounds: within one octave above the true max.
        prop_assert!(h.quantile(1.0) <= max.next_power_of_two().max(1) * 2);
        // Exact mean.
        let mean = xs.iter().map(|&x| x as f64).sum::<f64>() / xs.len() as f64;
        prop_assert!((h.mean() - mean).abs() < 1e-6 * (1.0 + mean));
    }

    #[test]
    fn duration_arithmetic_is_consistent(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        prop_assert_eq!((da + db).as_nanos(), a + b);
        prop_assert_eq!((da - db).as_nanos(), a.saturating_sub(b));
        prop_assert_eq!(da.saturating_sub(db).as_nanos(), a.saturating_sub(b));
    }

    #[test]
    fn forked_rngs_are_reproducible(seed: u64) {
        let mut a = Rng::new(seed);
        let mut b = Rng::new(seed);
        let fa = a.fork();
        let fb = b.fork();
        prop_assert_eq!(fa, fb);
        prop_assert_eq!(a.next_u64(), b.next_u64());
    }
}
