//! Adversarial workload scenarios for the admission tier.
//!
//! The stationary AOL-like log is the *friendly* case for a static
//! admission threshold: popularity never moves, so whatever TEV admits
//! today is still right tomorrow. These generators produce the streams
//! where a static gate wastes SSD writes and a sketch-based gate should
//! not:
//!
//! * [`DriftingZipfLog`] — the popularity *shape* itself drifts: phases
//!   alternate between a concentrated (head-heavy) and a flattened Zipf
//!   exponent while the rank→identity mapping rotates, so both *who* is
//!   hot and *how* hot changes per phase.
//! * [`TopicChurnLog`] — abrupt topic changeover: each phase draws from a
//!   disjoint band of query identities (fresh queries, fresh term mix),
//!   with zero cross-phase reuse. Every phase boundary floods the gate
//!   with cold lists.
//! * [`ScanHeavyLog`] — the stationary log interleaved with bursts of
//!   never-repeating one-hit-wonder queries, the classic scan workload
//!   that LRU-family admission is defenseless against: every scan query
//!   is evicted with `Freq = 1` yet still clears `EV = 1/SC ≥ TEV` for
//!   small lists, spending SSD writes (and erasures) on data that is
//!   never read again.
//!
//! All three are deterministic pure functions of their seeds, like the
//! logs they wrap — any stream position can be regenerated.

use simclock::{Rng, Zipf};

use crate::querylog::{Query, QueryLog};

/// A stream whose Zipf exponent and hot-set identity drift per phase.
#[derive(Debug, Clone)]
pub struct DriftingZipfLog {
    base: QueryLog,
    /// Queries per phase.
    period: u64,
    /// Popularity sampler of the odd phases (the flattened exponent).
    alt_zipf: Zipf,
    /// Identity-space rotation applied per phase.
    step: u64,
}

impl DriftingZipfLog {
    /// Wrap `base`; odd phases of `period` queries sample popularity with
    /// exponent `alt_alpha` instead of the spec's, and every phase
    /// rotates the rank→identity mapping by `step`.
    pub fn new(base: QueryLog, period: u64, alt_alpha: f64, step: u64) -> Self {
        assert!(period > 0, "phase length must be positive");
        let alt_zipf = Zipf::new(base.spec().distinct_queries, alt_alpha);
        DriftingZipfLog {
            alt_zipf,
            base,
            period,
            step,
        }
    }

    /// The stationary log underneath.
    pub fn base(&self) -> &QueryLog {
        &self.base
    }

    /// Generate a drifting stream of `n` queries.
    pub fn stream_iter(&self, n: usize) -> impl Iterator<Item = Query> + '_ {
        let mut rng = Rng::new(self.base.spec().seed.wrapping_add(0x0D1F_7A1F));
        let universe = self.base.spec().distinct_queries;
        (0..n as u64).map(move |i| {
            let phase = i / self.period;
            let rank = if phase % 2 == 0 {
                self.base.sample(&mut rng).id
            } else {
                self.alt_zipf.sample(&mut rng) - 1
            };
            let id = (rank + phase.wrapping_mul(self.step)) % universe;
            Query {
                id,
                terms: self.base.terms_of(id),
            }
        })
    }
}

/// A stream with abrupt topic changeover: phase `p` draws its queries
/// from the identity band `[p·U, (p+1)·U)` where `U` is the base log's
/// distinct-query universe. Terms are a pure function of the identity,
/// so each band is a fresh topic — fresh queries *and* fresh inverted
/// lists — with the same Zipf shape inside the band.
#[derive(Debug, Clone)]
pub struct TopicChurnLog {
    base: QueryLog,
    /// Queries per topic phase.
    period: u64,
}

impl TopicChurnLog {
    /// Wrap `base`, changing topic every `period` queries.
    pub fn new(base: QueryLog, period: u64) -> Self {
        assert!(period > 0, "phase length must be positive");
        TopicChurnLog { base, period }
    }

    /// The stationary log underneath.
    pub fn base(&self) -> &QueryLog {
        &self.base
    }

    /// Generate a churning stream of `n` queries.
    pub fn stream_iter(&self, n: usize) -> impl Iterator<Item = Query> + '_ {
        let mut rng = Rng::new(self.base.spec().seed.wrapping_add(0x70_71C5));
        let universe = self.base.spec().distinct_queries;
        (0..n as u64).map(move |i| {
            let phase = i / self.period;
            let id = self.base.sample(&mut rng).id + phase * universe;
            Query {
                id,
                terms: self.base.terms_of(id),
            }
        })
    }
}

/// The stationary log interleaved with bursts of never-repeating scan
/// queries.
#[derive(Debug, Clone)]
pub struct ScanHeavyLog {
    base: QueryLog,
    /// Normal queries between bursts.
    gap: u64,
    /// Scan queries per burst.
    burst: u64,
}

/// Scan identities live far above any log's distinct universe (and above
/// the topic-churn bands) so they never collide with real queries.
const SCAN_ID_BASE: u64 = 1 << 40;

impl ScanHeavyLog {
    /// Wrap `base`: after every `gap` normal queries, emit `burst`
    /// one-hit-wonder queries that never recur anywhere in the stream.
    pub fn new(base: QueryLog, gap: u64, burst: u64) -> Self {
        assert!(gap > 0, "gap must be positive");
        assert!(burst > 0, "burst must be positive");
        ScanHeavyLog { base, gap, burst }
    }

    /// The stationary log underneath.
    pub fn base(&self) -> &QueryLog {
        &self.base
    }

    /// Generate a scan-polluted stream of `n` queries.
    pub fn stream_iter(&self, n: usize) -> impl Iterator<Item = Query> + '_ {
        let mut rng = Rng::new(self.base.spec().seed.wrapping_add(0x5CA4));
        let cycle = self.gap + self.burst;
        (0..n as u64).map(move |i| {
            if i % cycle < self.gap {
                self.base.sample(&mut rng)
            } else {
                // A fresh identity every time: freq 1, forever.
                let id = SCAN_ID_BASE + i;
                Query {
                    id,
                    terms: self.base.terms_of(id),
                }
            }
        })
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "the tests read their maps and sets only through lookups, counts, max and set intersection"
)]
mod tests {
    use super::*;
    use crate::querylog::QueryLogSpec;
    use std::collections::{HashMap, HashSet};

    fn log() -> QueryLog {
        QueryLog::new(QueryLogSpec::tiny(2_000, 77))
    }

    fn ids(it: impl Iterator<Item = Query>) -> Vec<u64> {
        it.map(|q| q.id).collect()
    }

    #[test]
    fn all_scenarios_are_deterministic() {
        let d = DriftingZipfLog::new(log(), 200, 0.3, 137);
        assert_eq!(ids(d.stream_iter(500)), ids(d.stream_iter(500)));
        let c = TopicChurnLog::new(log(), 200);
        assert_eq!(ids(c.stream_iter(500)), ids(c.stream_iter(500)));
        let s = ScanHeavyLog::new(log(), 8, 4);
        assert_eq!(ids(s.stream_iter(500)), ids(s.stream_iter(500)));
    }

    #[test]
    fn scenario_terms_stay_consistent_with_identity() {
        let d = DriftingZipfLog::new(log(), 100, 0.3, 137);
        let c = TopicChurnLog::new(log(), 100);
        let s = ScanHeavyLog::new(log(), 8, 4);
        let mut seen: HashMap<u64, Vec<u32>> = HashMap::new();
        for q in d
            .stream_iter(800)
            .chain(c.stream_iter(800))
            .chain(s.stream_iter(800))
        {
            if let Some(prev) = seen.get(&q.id) {
                assert_eq!(prev, &q.terms, "query {} changed terms", q.id);
            } else {
                seen.insert(q.id, q.terms.clone());
            }
        }
    }

    #[test]
    fn drifting_zipf_flattens_the_head_in_odd_phases() {
        let d = DriftingZipfLog::new(log(), 1_000, 0.2, 0);
        let head_share = |from: usize, n: usize| {
            let mut counts: HashMap<u64, u64> = HashMap::new();
            for q in d.stream_iter(from + n).skip(from) {
                *counts.entry(q.id).or_insert(0) += 1;
            }
            let top = counts.values().max().copied().unwrap_or(0);
            top as f64 / n as f64
        };
        let concentrated = head_share(0, 1_000);
        let flattened = head_share(1_000, 1_000);
        assert!(
            flattened < concentrated / 2.0,
            "odd phases must flatten the head ({flattened} vs {concentrated})"
        );
    }

    #[test]
    fn drifting_zipf_rotates_identities() {
        let d = DriftingZipfLog::new(log(), 100, 0.85, 613);
        let early: HashSet<u64> = d.stream_iter(100).map(|q| q.id).collect();
        let late: HashSet<u64> = d.stream_iter(1_100).skip(1_000).map(|q| q.id).collect();
        let overlap = early.intersection(&late).count();
        assert!(
            overlap * 4 < early.len().min(late.len()),
            "hot sets must mostly rotate apart (overlap {overlap})"
        );
    }

    #[test]
    fn topic_churn_phases_are_disjoint() {
        let c = TopicChurnLog::new(log(), 300);
        let phase0: HashSet<u64> = c.stream_iter(300).map(|q| q.id).collect();
        let phase1: HashSet<u64> = c.stream_iter(600).skip(300).map(|q| q.id).collect();
        assert_eq!(phase0.intersection(&phase1).count(), 0, "no carry-over");
        // Each phase still repeats internally (Zipf shape intact) so a
        // cache has something to hit inside a phase.
        let repeats = 300 - phase0.len();
        assert!(repeats > 30, "phase must repeat internally ({repeats})");
    }

    #[test]
    fn scan_bursts_never_repeat() {
        let s = ScanHeavyLog::new(log(), 6, 3);
        let mut scan_seen = HashSet::new();
        let mut scans = 0u64;
        for q in s.stream_iter(3_000) {
            if q.id >= SCAN_ID_BASE {
                scans += 1;
                assert!(scan_seen.insert(q.id), "scan id {} repeated", q.id);
            }
        }
        assert_eq!(scans, 3_000 / 9 * 3, "a third of the stream is scans");
    }

    #[test]
    fn churn_hurts_a_fixed_cache_more_than_the_base_log() {
        // The adversarial property the admission benchmarks rely on: a
        // fixed-capacity LRU over query ids hits markedly less under
        // topic churn than on the stationary log.
        let hit_ratio = |ids: Vec<u64>| {
            let mut order: Vec<u64> = Vec::new();
            let mut hits = 0u64;
            let n = ids.len() as u64;
            for id in ids {
                if let Some(pos) = order.iter().position(|&x| x == id) {
                    order.remove(pos);
                    order.insert(0, id);
                    hits += 1;
                } else {
                    if order.len() == 64 {
                        order.pop();
                    }
                    order.insert(0, id);
                }
            }
            hits as f64 / n as f64
        };
        let stationary = hit_ratio(log().stream(6_000).into_iter().map(|q| q.id).collect());
        let churning = hit_ratio(ids(TopicChurnLog::new(log(), 100).stream_iter(6_000)));
        assert!(
            churning < stationary * 0.9,
            "churn must cost hits ({churning} vs {stationary})"
        );
    }
}
