//! Distribution samplers used by the workload generators.
//!
//! The paper's workloads are governed by Zipf-like popularity (Sec. III:
//! "the access frequency of terms follows Zipf-like distribution"), so the
//! central piece here is a fast, exact [`Zipf`] sampler: it draws query
//! and term popularity, ingested documents' terms and the synthetic
//! trace's address bands. [`Exponential`] draws the gaps between
//! open-loop query arrivals and between ingest operations.

use crate::rng::Rng;

/// Zipf(α) sampler over ranks `1..=n`.
///
/// Uses the rejection-inversion method of Hörmann & Derflinger ("Rejection-
/// inversion to generate variates from monotone discrete distributions"),
/// which is exact for any α > 0 (α ≠ 1 handled by the generalized map, α = 1
/// by its logarithmic limit) and O(1) per sample after O(1) setup — unlike
/// the naive CDF table, it does not require O(n) memory, which matters when
/// the vocabulary has millions of terms.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    alpha: f64,
    // Precomputed constants of the rejection-inversion scheme.
    h_x1: f64,
    h_n: f64,
    s: f64,
}

impl Zipf {
    /// Create a sampler over `1..=n` with exponent `alpha > 0`.
    ///
    /// # Panics
    /// If `n == 0` or `alpha <= 0` or not finite.
    pub fn new(n: u64, alpha: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(alpha > 0.0 && alpha.is_finite(), "alpha must be positive");
        let h = |x: f64| -> f64 { h_integral(x, alpha) };
        let h_x1 = h(1.5) - 1.0;
        let h_n = h(n as f64 + 0.5);
        let s = 2.0 - h_integral_inv(h(2.5) - zipf_pow(2.0, alpha), alpha);
        Zipf {
            n,
            alpha,
            h_x1,
            h_n,
            s,
        }
    }

    /// Number of ranks.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The exponent α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Draw a rank in `1..=n` (rank 1 is the most popular).
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        loop {
            let u = self.h_n + rng.next_f64() * (self.h_x1 - self.h_n);
            let x = h_integral_inv(u, self.alpha);
            // Clamp against numeric drift at the boundaries.
            let k = x.round().clamp(1.0, self.n as f64);
            if (k - x).abs() <= self.s
                || u >= h_integral(k + 0.5, self.alpha) - zipf_pow(k, self.alpha)
            {
                return k as u64;
            }
        }
    }

    /// Exact probability mass of rank `k` (normalized over `1..=n`).
    /// O(n) — intended for tests and analysis, not hot paths.
    pub fn pmf(&self, k: u64) -> f64 {
        assert!(k >= 1 && k <= self.n);
        let z: f64 = (1..=self.n).map(|i| zipf_pow(i as f64, self.alpha)).sum();
        zipf_pow(k as f64, self.alpha) / z
    }
}

/// `x^(-alpha)` written so the α→ special cases stay finite.
#[inline]
fn zipf_pow(x: f64, alpha: f64) -> f64 {
    (-alpha * x.ln()).exp()
}

/// The integral H(x) = ∫ x^(-α) dx used by rejection-inversion:
/// `(x^(1-α) − 1)/(1−α)` for α ≠ 1 and `ln x` for α = 1, evaluated in a
/// numerically stable way via `expm1`/`ln1p` near α = 1.
#[inline]
fn h_integral(x: f64, alpha: f64) -> f64 {
    let log_x = x.ln();
    helper2((1.0 - alpha) * log_x) * log_x
}

/// Inverse of `h_integral`.
#[inline]
fn h_integral_inv(x: f64, alpha: f64) -> f64 {
    let mut t = x * (1.0 - alpha);
    if t < -1.0 {
        // Numerical drift below the domain of ln1p; clamp.
        t = -1.0;
    }
    (helper1(t) * x).exp()
}

/// `ln(1+x)/x`, stable near 0.
#[inline]
fn helper1(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))
    }
}

/// `(exp(x)-1)/x`, stable near 0.
#[inline]
fn helper2(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x))
    }
}

/// Exponential(λ) sampler by inversion.
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// `rate` = λ = 1/mean. Must be positive and finite.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite());
        Exponential { rate }
    }

    /// Draw a sample in `[0, ∞)`.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        // 1 - U avoids ln(0).
        -(1.0 - rng.next_f64()).ln() / self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_ranks(zipf: &Zipf, seed: u64, draws: usize) -> Vec<u64> {
        let mut rng = Rng::new(seed);
        let mut counts = vec![0u64; zipf.n() as usize];
        for _ in 0..draws {
            let k = zipf.sample(&mut rng);
            counts[(k - 1) as usize] += 1;
        }
        counts
    }

    #[test]
    fn zipf_stays_in_range() {
        for &(n, a) in &[
            (1u64, 1.0f64),
            (2, 0.5),
            (10, 1.0),
            (1000, 0.8),
            (1_000_000, 1.2),
        ] {
            let z = Zipf::new(n, a);
            let mut rng = Rng::new(99);
            for _ in 0..5_000 {
                let k = z.sample(&mut rng);
                assert!((1..=n).contains(&k), "n={n} a={a} k={k}");
            }
        }
    }

    #[test]
    fn zipf_rank1_frequency_matches_pmf() {
        let z = Zipf::new(100, 1.0);
        let counts = empirical_ranks(&z, 7, 200_000);
        let observed = counts[0] as f64 / 200_000.0;
        let expected = z.pmf(1);
        assert!(
            (observed - expected).abs() < 0.01,
            "observed {observed}, expected {expected}"
        );
    }

    #[test]
    fn zipf_is_monotone_decreasing_in_rank() {
        let z = Zipf::new(50, 1.0);
        let counts = empirical_ranks(&z, 21, 500_000);
        // Compare well-separated ranks to dodge sampling noise.
        assert!(counts[0] > counts[9]);
        assert!(counts[9] > counts[29]);
    }

    #[test]
    fn zipf_alpha_one_vs_two_head_mass() {
        // Larger alpha concentrates more mass on rank 1.
        let shallow = empirical_ranks(&Zipf::new(100, 0.6), 3, 100_000)[0];
        let steep = empirical_ranks(&Zipf::new(100, 2.0), 3, 100_000)[0];
        assert!(steep > shallow * 2, "steep={steep} shallow={shallow}");
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(200, 0.9);
        let total: f64 = (1..=200).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_single_rank_degenerates() {
        let z = Zipf::new(1, 1.0);
        let mut rng = Rng::new(1);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 1);
        }
    }

    #[test]
    fn exponential_mean() {
        let d = Exponential::new(0.25); // mean 4
        let mut rng = Rng::new(10);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean = {mean}");
    }
}
