//! Exact LRU stack-distance (Mattson) analysis.
//!
//! For every re-access, the **stack distance** is the number of distinct
//! addresses touched since the previous access to the same address. The
//! distribution of stack distances *is* the LRU success function: a cache
//! of capacity `C` hits exactly the accesses with distance < `C`. One
//! pass over a trace therefore yields the hit ratio at *every* capacity —
//! the analytical counterpart of the paper's Fig. 14 sweeps.
//!
//! Implementation: the classic O(n log n) algorithm — a Fenwick tree over
//! access slots marks the most-recent position of each live address; the
//! distance of a re-access is the number of marked slots after its
//! previous position.

#[expect(
    clippy::disallowed_types,
    reason = "keyed lookups only; the map is never iterated"
)]
use std::collections::HashMap;
use std::hash::Hash;

/// Fenwick (binary indexed) tree over u64 counts.
#[derive(Debug, Clone, Default)]
struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    fn len(&self) -> usize {
        self.tree.len()
    }

    /// Append a zero slot. The new node (1-based index `idx`) aggregates
    /// the range `(idx - lowbit(idx), idx]`; its value is assembled from
    /// the existing child nodes so appends never require a rebuild.
    fn push(&mut self) {
        let idx = self.tree.len() + 1;
        let lowbit = idx & idx.wrapping_neg();
        let stop = idx - lowbit;
        let mut v = 0;
        let mut j = idx - 1;
        while j > stop {
            v += self.tree[j - 1];
            j -= j & j.wrapping_neg();
        }
        self.tree.push(v);
    }

    fn add(&mut self, i: usize, delta: i64) {
        let mut idx = i + 1;
        while idx <= self.tree.len() {
            self.tree[idx - 1] = (self.tree[idx - 1] as i64 + delta) as u64;
            idx += idx & idx.wrapping_neg();
        }
    }

    /// Sum of `[0, i]`.
    fn prefix(&self, i: usize) -> u64 {
        let mut s = 0;
        let mut idx = i + 1;
        while idx > 0 {
            s += self.tree[idx - 1];
            idx -= idx & idx.wrapping_neg();
        }
        s
    }

    fn total(&self) -> u64 {
        if self.tree.is_empty() {
            0
        } else {
            self.prefix(self.tree.len() - 1)
        }
    }
}

/// Streaming stack-distance analyzer.
#[derive(Debug, Clone)]
pub struct StackDistance<A> {
    fenwick: Fenwick,
    #[expect(
        clippy::disallowed_types,
        reason = "keyed lookups only; the map is never iterated"
    )]
    last_slot: HashMap<A, usize>,
    /// `counts[d]` = re-accesses at stack distance `d`.
    counts: Vec<u64>,
    cold_misses: u64,
    accesses: u64,
}

impl<A: Eq + Hash + Clone> Default for StackDistance<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Eq + Hash + Clone> StackDistance<A> {
    /// Fresh analyzer.
    #[expect(
        clippy::disallowed_types,
        reason = "keyed lookups only; the map is never iterated"
    )]
    pub fn new() -> Self {
        StackDistance {
            fenwick: Fenwick::default(),
            last_slot: HashMap::new(),
            counts: Vec::new(),
            cold_misses: 0,
            accesses: 0,
        }
    }

    /// Record one access; returns its stack distance, or `None` for a
    /// cold (first-touch) miss.
    pub fn record(&mut self, addr: A) -> Option<u64> {
        self.accesses += 1;
        let slot = self.fenwick.len();
        self.fenwick.push();
        let distance = match self.last_slot.get(&addr) {
            Some(&prev) => {
                // Marked slots strictly after prev = distinct addresses
                // touched since.
                let after_prev = self.fenwick.total() - self.fenwick.prefix(prev);
                self.fenwick.add(prev, -1);
                Some(after_prev)
            }
            None => {
                self.cold_misses += 1;
                None
            }
        };
        self.fenwick.add(slot, 1);
        self.last_slot.insert(addr, slot);
        if let Some(d) = distance {
            let d = d as usize;
            if d >= self.counts.len() {
                self.counts.resize(d + 1, 0);
            }
            self.counts[d] += 1;
        }
        distance
    }

    /// Total accesses seen.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// First-touch misses (unavoidable at any capacity).
    pub fn cold_misses(&self) -> u64 {
        self.cold_misses
    }

    /// Distinct addresses seen.
    pub fn distinct(&self) -> usize {
        self.last_slot.len()
    }

    /// LRU hit ratio at capacity `c` (entries): accesses with stack
    /// distance < c, over all accesses.
    pub fn hit_ratio_at(&self, c: usize) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        let hits: u64 = self.counts.iter().take(c).sum();
        hits as f64 / self.accesses as f64
    }

    /// The success function sampled at `points` capacities (log-spaced up
    /// to the distinct-address count). Returns `(capacity, hit_ratio)`.
    pub fn success_function(&self, points: usize) -> Vec<(usize, f64)> {
        let max = self.distinct().max(1);
        let points = points.max(2);
        (0..points)
            .map(|i| {
                let c = ((max as f64).powf(i as f64 / (points - 1) as f64)).round() as usize;
                (c, self.hit_ratio_at(c))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_misses_have_no_distance() {
        let mut s = StackDistance::new();
        assert_eq!(s.record("a"), None);
        assert_eq!(s.record("b"), None);
        assert_eq!(s.cold_misses(), 2);
        assert_eq!(s.distinct(), 2);
    }

    #[test]
    fn textbook_example() {
        // Trace: a b c b a — distances: b→1 (c after it? no: b re-access
        // after c: distinct since = {c} = 1), a→2 (distinct {b, c}).
        let mut s = StackDistance::new();
        s.record('a');
        s.record('b');
        s.record('c');
        assert_eq!(s.record('b'), Some(1));
        assert_eq!(s.record('a'), Some(2));
    }

    #[test]
    fn immediate_reaccess_is_distance_zero() {
        let mut s = StackDistance::new();
        s.record(1);
        assert_eq!(s.record(1), Some(0));
        assert_eq!(s.record(1), Some(0));
    }

    #[test]
    fn hit_ratio_matches_lru_simulation() {
        // Cross-check the success function against an actual LRU cache on
        // a skewed synthetic trace.
        let mut rng = simclock::Rng::new(17);
        let zipf = simclock::Zipf::new(200, 1.0);
        let trace: Vec<u64> = (0..20_000).map(|_| zipf.sample(&mut rng)).collect();

        let mut sd = StackDistance::new();
        for &a in &trace {
            sd.record(a);
        }

        for capacity in [1usize, 8, 32, 128] {
            // Simulate an LRU cache of `capacity` entries.
            let cache = cachekit_sim(capacity, &trace);
            let expected = sd.hit_ratio_at(capacity);
            assert!(
                (cache - expected).abs() < 1e-12,
                "capacity {capacity}: simulated {cache} vs analytic {expected}"
            );
        }

        fn cachekit_sim(capacity: usize, trace: &[u64]) -> f64 {
            use std::collections::VecDeque;
            let mut order: VecDeque<u64> = VecDeque::new();
            let mut hits = 0u64;
            for &a in trace {
                if let Some(pos) = order.iter().position(|&x| x == a) {
                    hits += 1;
                    order.remove(pos);
                } else if order.len() == capacity {
                    order.pop_back();
                }
                order.push_front(a);
            }
            hits as f64 / trace.len() as f64
        }
    }

    #[test]
    fn success_function_is_monotone() {
        let mut rng = simclock::Rng::new(3);
        let mut sd = StackDistance::new();
        for _ in 0..5_000 {
            sd.record(rng.next_below(500));
        }
        let sf = sd.success_function(10);
        assert_eq!(sf.len(), 10);
        for w in sf.windows(2) {
            assert!(
                w[1].1 >= w[0].1 - 1e-12,
                "success function must not decrease"
            );
        }
        // At full capacity, only cold misses remain.
        let full = sd.hit_ratio_at(sd.distinct());
        let expected = 1.0 - sd.cold_misses() as f64 / sd.accesses() as f64;
        assert!((full - expected).abs() < 1e-12);
    }

    #[test]
    fn fenwick_prefix_sums() {
        let mut f = Fenwick::default();
        for _ in 0..10 {
            f.push();
        }
        f.add(0, 1);
        f.add(4, 2);
        f.add(9, 3);
        assert_eq!(f.prefix(0), 1);
        assert_eq!(f.prefix(3), 1);
        assert_eq!(f.prefix(4), 3);
        assert_eq!(f.prefix(9), 6);
        assert_eq!(f.total(), 6);
        f.add(4, -2);
        assert_eq!(f.total(), 4);
    }

    #[test]
    fn fenwick_push_after_adds() {
        // Appending slots after updates must preserve prefix sums.
        let mut f = Fenwick::default();
        for _ in 0..3 {
            f.push();
        }
        f.add(0, 5);
        f.add(2, 7);
        for _ in 0..8 {
            f.push();
        }
        assert_eq!(f.prefix(2), 12);
        f.add(7, 1);
        assert_eq!(f.total(), 13);
    }
}
