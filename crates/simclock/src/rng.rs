//! Deterministic pseudo-random number generation.
//!
//! The workspace needs reproducible streams that are cheap, statistically
//! solid for simulation purposes, and independent across components. We use
//! **xoshiro256\*\*** (Blackman & Vigna) seeded through **SplitMix64**, the
//! combination its authors recommend. A [`Rng`] can [`fork`](Rng::fork)
//! child generators so each subsystem gets its own decorrelated stream from
//! a single experiment seed.

/// SplitMix64 step: used for seeding and as a standalone mixer.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A xoshiro256** generator.
///
/// Not cryptographically secure — it is a simulation RNG. Period 2^256 − 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Create a generator from a 64-bit seed. Any seed (including 0) is
    /// valid; the state is expanded with SplitMix64 so it is never the
    /// all-zero state.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derive an independent child generator. The child's stream is
    /// decorrelated from the parent's continuation because the fork draws
    /// a fresh 64-bit seed from the parent and re-expands it.
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53-bit resolution.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, bound)` using Lemire's multiply-shift rejection
    /// method (unbiased). Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Fast path for powers of two.
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform in the inclusive range `[lo, hi]`. Panics if `lo > hi`.
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        let span = hi - lo;
        if span == u64::MAX {
            self.next_u64()
        } else {
            lo + self.next_below(span + 1)
        }
    }

    /// Uniform usize index into a collection of length `len`.
    #[inline]
    pub fn next_index(&mut self, len: usize) -> usize {
        self.next_below(len as u64) as usize
    }

    /// Bernoulli draw with probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Sample one element by reference, or `None` if empty.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.next_index(xs.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_decorrelated_from_parent() {
        let mut parent = Rng::new(7);
        let mut child = parent.fork();
        let overlaps = (0..1000)
            .filter(|_| parent.next_u64() == child.next_u64())
            .count();
        assert_eq!(overlaps, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x), "x = {x}");
        }
    }

    #[test]
    fn f64_mean_is_near_half() {
        let mut r = Rng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn bounded_draws_respect_bound() {
        let mut r = Rng::new(5);
        for bound in [1u64, 2, 3, 7, 10, 100, 1 << 20] {
            for _ in 0..1000 {
                assert!(r.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn bounded_draws_cover_small_ranges() {
        let mut r = Rng::new(9);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[r.next_below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn range_is_inclusive() {
        let mut r = Rng::new(13);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..10_000 {
            match r.next_range(10, 12) {
                10 => lo_seen = true,
                12 => hi_seen = true,
                11 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::new(17);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            xs,
            (0..100).collect::<Vec<_>>(),
            "astronomically unlikely to be identity"
        );
    }

    #[test]
    fn choose_handles_empty_and_singleton() {
        let mut r = Rng::new(19);
        let empty: [u8; 0] = [];
        assert!(r.choose(&empty).is_none());
        assert_eq!(r.choose(&[42u8]), Some(&42));
    }

    #[test]
    fn splitmix_known_answer() {
        // Reference values from the canonical SplitMix64 implementation
        // seeded with 0: first output must be 0xE220A8397B1DCDAF.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
    }
}
