//! Lightweight statistics accumulators shared by the simulators and the
//! benchmark harness: running mean/variance, percentiles via a fixed-layout
//! log-scale histogram, and exact order statistics.

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

/// Log₂-bucketed histogram of non-negative integer observations (typically
/// nanoseconds). 64 buckets cover the entire `u64` range; relative error of
/// a reported percentile is bounded by one octave, which is plenty for
/// latency *shapes*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
        }
    }

    #[inline]
    fn bucket_of(x: u64) -> usize {
        if x == 0 {
            0
        } else {
            (64 - x.leading_zeros()) as usize
        }
    }

    /// Record an observation.
    pub fn record(&mut self, x: u64) {
        self.buckets[Self::bucket_of(x)] += 1;
        self.count += 1;
        self.sum += x as u128;
    }

    /// Record a duration in nanoseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of recorded values (histogram keeps the true sum).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate value at quantile `q` in `[0,1]` — returns the upper
    /// bound of the bucket containing the q-th observation.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q));
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i == 0 { 0 } else { 1u64 << i.min(63) };
            }
        }
        u64::MAX
    }
}

/// Exact quantile of a sample set by partial selection: the element at
/// rank `ceil(q·n) - 1` (the classic "nearest-rank" definition, so
/// `q = 0.99` over 100 samples is the 99th smallest). The log-scale
/// [`Histogram`] answers the same question with one-octave error, which
/// is fine for latency *shapes* but too coarse to compare two serving
/// arms whose p99s differ by less than 2x — the open-loop latency-vs-load
/// curves need the exact order statistic. `O(n)` via `select_nth_unstable`;
/// reorders `samples` in place. Returns 0 on an empty slice.
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
    fn histogram_mean_is_exact() {
        let mut h = Histogram::new();
        for x in [10u64, 20, 30, 40] {
            h.record(x);
        }
        assert!((h.mean() - 25.0).abs() < 1e-12);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn histogram_quantiles_are_octave_bounded() {
        let mut h = Histogram::new();
        for x in 1..=1000u64 {
            h.record(x);
        }
        let p50 = h.quantile(0.5);
        // True median 500; bucket upper bound must be within one octave.
        assert!((256..=1024).contains(&p50), "p50 = {p50}");
        let p100 = h.quantile(1.0);
        assert!(p100 >= 1000, "p100 = {p100}");
    }

    #[test]
    fn histogram_zero_and_max() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.25), 0);
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
    fn quantile_exact_refines_the_histogram_bound() {
        // Same data, same question: the histogram may only answer to the
        // enclosing octave; the exact quantile must land inside it.
        let mut h = Histogram::new();
        let mut xs = Vec::new();
        for x in 1..=1000u64 {
            h.record(x);
            xs.push(x);
        }
        let exact = quantile_exact(&mut xs, 0.99);
        assert_eq!(exact, 990);
        assert!(h.quantile(0.99) >= exact);
        assert!(h.quantile(0.99) <= exact * 2);
    }

    #[test]
    fn duration_helpers() {
        let mut s = RunningStats::new();
        s.push_duration(SimDuration::from_micros(10));
        s.push_duration(SimDuration::from_micros(20));
        assert_eq!(s.mean_duration(), SimDuration::from_micros(15));
        let mut h = Histogram::new();
        h.record_duration(SimDuration::from_micros(10));
        assert_eq!(h.count(), 1);
    }
}
