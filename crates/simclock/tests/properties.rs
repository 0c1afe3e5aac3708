//! Property tests of the time, RNG and statistics primitives.

use proptest::prelude::*;
use simclock::{Rng, SimDuration, Zipf};

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
