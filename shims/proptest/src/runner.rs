//! The case loop: deterministic RNG, per-case sampling, failure reporting.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::config::ProptestConfig;
use crate::error::TestCaseError;
use crate::strategy::Strategy;

/// SplitMix64 — tiny, deterministic, and decent enough for test-input
/// generation. Kept dependency-free on purpose.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift bounded draw (Lemire); bias is negligible for
        // test generation.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "PROPTEST_SEED picks which test cases run; no simulated figure reads it"
)]
fn base_seed() -> u64 {
    std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED_CAFE_F00D_0001)
}

fn case_rng(case: u32) -> TestRng {
    // Decorrelate cases by running the index through the generator once.
    let mut rng = TestRng::new(base_seed() ^ (u64::from(case) << 32 | u64::from(case)));
    rng.next_u64();
    rng
}

/// Run `config.cases` generated cases of `test` against `strategy`.
/// Panics (failing the enclosing `#[test]`) on the first failing case,
/// printing the counterexample.
pub fn run<S, F>(config: ProptestConfig, name: &str, strategy: &S, mut test: F)
where
    S: Strategy,
    S::Value: std::fmt::Debug,
    F: FnMut(S::Value) -> Result<(), TestCaseError>,
{
    for case in 0..config.cases {
        let value = strategy.sample(&mut case_rng(case));
        let outcome = catch_unwind(AssertUnwindSafe(|| test(value)));
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(TestCaseError::Reject(_))) => {}
            Ok(Err(TestCaseError::Fail(reason))) => {
                let shown = strategy.sample(&mut case_rng(case));
                panic!(
                    "proptest '{name}' failed at case {case}/{}: {reason}\n  input: {shown:?}",
                    config.cases
                );
            }
            Err(payload) => {
                let shown = strategy.sample(&mut case_rng(case));
                eprintln!(
                    "proptest '{name}' panicked at case {case}/{}\n  input: {shown:?}",
                    config.cases
                );
                resume_unwind(payload);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::new(7);
        let mut b = TestRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = TestRng::new(3);
        for bound in [1u64, 2, 7, 1_000_003] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn unit_is_in_range() {
        let mut rng = TestRng::new(11);
        for _ in 0..1_000 {
            let x = rng.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn macro_binds_both_param_forms(a in 1u64..100, pair in (0u8..4, any::<bool>()), seed: u64) {
            prop_assert!((1..100).contains(&a));
            prop_assert!(pair.0 < 4);
            // A full-range draw: just exercise it.
            let _ = seed.wrapping_add(u64::from(pair.1));
        }

        #[test]
        fn oneof_map_just_and_vec_compose(
            xs in prop::collection::vec(
                prop_oneof![
                    (0u32..10).prop_map(|v| v * 2),
                    Just(99u32),
                ],
                1..50,
            )
        ) {
            prop_assert!(!xs.is_empty() && xs.len() < 50);
            for x in xs {
                prop_assert!(x == 99 || (x % 2 == 0 && x < 20), "unexpected value {x}");
            }
        }
    }

    #[test]
    fn failing_property_panics_with_counterexample() {
        let caught = catch_unwind(|| {
            run(ProptestConfig::with_cases(16), "demo", &(0u64..100), |v| {
                if v >= 50 {
                    return Err(TestCaseError::fail("too big"));
                }
                Ok(())
            });
        });
        let msg = *caught
            .expect_err("must fail")
            .downcast::<String>()
            .expect("panic payload is a String");
        assert!(msg.contains("too big"), "{msg}");
        assert!(msg.contains("input:"), "{msg}");
    }
}
