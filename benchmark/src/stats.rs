//! Exact order statistics and the small summary helpers the reports use.

use std::collections::BTreeMap;

/// 1-based rank of quantile `q` among `n` samples: the smallest rank
/// whose share of the samples reaches `q`.
pub fn rank(q: f64, n: u64) -> u64 {
    ((q * n as f64).ceil() as u64).clamp(1, n.max(1))
}

/// Quantile `q` of an ascending slice (0 when empty).
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    match sorted.len() {
        0 => 0,
        n => sorted[rank(q, n as u64) as usize - 1],
    }
}

/// A value → count map: exact quantiles of any number of samples in
/// memory proportional to the number of *distinct* values. Simulated
/// response times repeat heavily (every DRAM hit costs the same), which
/// is why this stays small where a sorted vector would not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExactQuantiles {
    counts: BTreeMap<u64, u64>,
    n: u64,
    sum: u128,
}

impl ExactQuantiles {
    pub fn push(&mut self, value: u64) {
        *self.counts.entry(value).or_insert(0) += 1;
        self.n += 1;
        self.sum += value as u128;
    }

    /// Add a batch of samples. Sorts `values` so that each distinct value
    /// costs one map operation, however often it repeats.
    pub fn extend(&mut self, values: &mut [u64]) {
        values.sort_unstable();
        for run in values.chunk_by(|a, b| a == b) {
            let count = run.len() as u64;
            *self.counts.entry(run[0]).or_insert(0) += count;
            self.n += count;
            self.sum += run[0] as u128 * count as u128;
        }
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// The exact order statistic at [`rank`]`(q, n)`.
    pub fn quantile(&self, q: f64) -> u64 {
        let mut remaining = rank(q, self.n);
        for (&value, &count) in &self.counts {
            if remaining <= count {
                return value;
            }
            remaining -= count;
        }
        0
    }

    /// `(value, count)` pairs in ascending value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&v, &c)| (v, c))
    }
}

/// Median of a non-empty set of measurements.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Range of the measurements as a share of their median — the per-rep
/// spread a result file records beside every wall-clock median.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / m
}

/// FNV-1a over 64-bit words: the `sim_fingerprint` hash. Fingerprints are
/// compared between commits, so the hash is this package's own rather than
/// a hasher of the workspace under test (`fxmap`), which a change may edit.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn text(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random samples with many repeats.
    fn samples(n: usize) -> Vec<u64> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 97
            })
            .collect()
    }

    #[test]
    fn quantile_map_matches_sorted_vector_oracle() {
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1_000, 4_321] {
            let values = samples(n);
            let mut map = ExactQuantiles::default();
            // Two batches and a single sample, as a pass adds them.
            let (head, tail) = values.split_at(n / 2);
            map.extend(&mut head.to_vec());
            map.extend(&mut tail[1..].to_vec());
            map.push(tail[0]);
            let mut sorted = values.clone();
            sorted.sort_unstable();
            for q in [0.0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(
                    map.quantile(q),
                    quantile_sorted(&sorted, q),
                    "n = {n}, q = {q}"
                );
            }
            assert_eq!(map.len(), n as u64);
            let mean = values.iter().sum::<u64>() as f64 / n as f64;
            assert!((map.mean() - mean).abs() < 1e-9);
        }
    }

    #[test]
    fn rank_is_the_smallest_rank_reaching_the_share() {
        assert_eq!(rank(0.5, 4), 2);
        assert_eq!(rank(0.5, 5), 3);
        assert_eq!(rank(0.99, 100), 99);
        assert_eq!(rank(0.99, 101), 100);
        assert_eq!(rank(0.0, 7), 1);
        assert_eq!(rank(1.0, 7), 7);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(spread(&[9.0, 10.0, 11.0]), 0.2);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn fingerprint_depends_on_every_word() {
        let mut a = Fingerprint::default();
        let mut b = Fingerprint::default();
        a.word(1);
        a.word(2);
        b.word(1);
        b.word(3);
        assert_ne!(a.finish(), b.finish());
    }
}
