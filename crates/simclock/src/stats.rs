//! Lightweight statistics shared by the simulators and the benchmark
//! harness: running mean/variance and exact order statistics.

use crate::time::SimDuration;

/// Welford running mean / variance / min / max. O(1) memory.
/// `PartialEq` is bit-wise on the accumulator state: two instances
/// compare equal exactly when they absorbed the same observations in
/// the same order, which is the determinism the cluster equivalence
/// tests lean on.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Add a duration observation in nanoseconds.
    pub fn push_duration(&mut self, d: SimDuration) {
        self.push(d.as_nanos() as f64);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Mean interpreted as a duration in nanoseconds.
    pub fn mean_duration(&self) -> SimDuration {
        SimDuration::from_nanos(self.mean().max(0.0).round() as u64)
    }

    /// Population variance (0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Smallest observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }
}

/// Exact quantile of a sample set by partial selection: the element at
/// rank `ceil(q·n) - 1` (the classic "nearest-rank" definition, so
/// `q = 0.99` over 100 samples is the 99th smallest). Every percentile
/// the simulator reports is this order statistic. `O(n)` via
/// `select_nth_unstable`; reorders `samples` in place. Returns 0 on an
/// empty slice.
pub fn quantile_exact(samples: &mut [u64], q: f64) -> u64 {
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    if samples.is_empty() {
        return 0;
    }
    let rank = ((samples.len() as f64) * q).ceil().max(1.0) as usize - 1;
    let rank = rank.min(samples.len() - 1);
    *samples.select_nth_unstable(rank).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basics() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn running_stats_empty() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn quantile_exact_is_the_nearest_rank_order_statistic() {
        let mut xs: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(quantile_exact(&mut xs, 0.5), 500);
        assert_eq!(quantile_exact(&mut xs, 0.99), 990);
        assert_eq!(quantile_exact(&mut xs, 0.999), 999);
        assert_eq!(quantile_exact(&mut xs, 1.0), 1000);
        assert_eq!(quantile_exact(&mut xs, 0.0), 1);
        assert_eq!(quantile_exact(&mut [], 0.9), 0);
        assert_eq!(quantile_exact(&mut [7], 0.999), 7);
    }

    #[test]
    fn duration_helpers() {
        let mut s = RunningStats::new();
        s.push_duration(SimDuration::from_micros(10));
        s.push_duration(SimDuration::from_micros(20));
        assert_eq!(s.mean_duration(), SimDuration::from_micros(15));
    }
}
