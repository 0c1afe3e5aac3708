//! Open-loop arrival processes for the serving front-end.
//!
//! The replay harnesses so far ran *closed-loop*: the next query starts
//! the instant the previous one finishes, so the system is never asked
//! to do more than it can and queueing never happens. A serving system
//! faces *open-loop* traffic — users issue queries on their own schedule,
//! indifferent to how busy the cluster is — and the figure of merit
//! becomes tail latency **at an offered load**, not mean response per
//! query. These generators produce that traffic: a deterministic stream
//! of `(virtual timestamp, query)` pairs whose rate profile follows one
//! of five canonical shapes:
//!
//! * [`ArrivalKind::Poisson`] — homogeneous Poisson, the memoryless
//!   baseline every queueing result assumes.
//! * [`ArrivalKind::Bursty`] — a two-state Markov-modulated Poisson
//!   process (MMPP-2): quiet and burst regimes with exponential dwell
//!   times, the standard model for bursty web traffic.
//! * [`ArrivalKind::Diurnal`] — a sinusoidal rate profile (day/night
//!   cycle), generated exactly by Lewis–Shedler thinning.
//! * [`ArrivalKind::FlashCrowd`] — a step spike: rate multiplies by a
//!   factor inside one window (a breaking-news crowd), thinning again.
//! * [`ArrivalKind::HotTermStorm`] — Poisson *timing*, skewed *content*:
//!   inside periodic storm windows a configured share of queries collapse
//!   onto the single hottest query, the everyone-searches-the-same-thing
//!   event that stresses the result cache and the admission predicate
//!   rather than raw capacity.
//!
//! Like the scenario logs, every process is a pure function of its seeds
//! (simclock's seeded [`Rng`] and [`Exponential`] only — clippy's
//! workspace rules refuse host time and host-seeded hashing, and no other
//! RNG crate resolves): the same spec regenerates the same stream
//! bit-for-bit, on any host, at any worker count.

use simclock::dist::Exponential;
use simclock::{Rng, SimTime};

use crate::querylog::{Query, QueryLog};

/// One open-loop request: a query stamped with its arrival instant on
/// the virtual timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// When the query arrives at the front-end (virtual time).
    pub at: SimTime,
    /// The query itself (content drawn from the shared log).
    pub query: Query,
}

/// The rate profile of an [`ArrivalProcess`]. All rates are queries per
/// second of *virtual* time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalKind {
    /// Homogeneous Poisson at `rate_qps`.
    Poisson {
        /// Mean arrival rate.
        rate_qps: f64,
    },
    /// Two-state MMPP: exponential dwell in a quiet regime at `base_qps`,
    /// then a burst regime at `burst_qps`, alternating forever.
    Bursty {
        /// Quiet-regime rate.
        base_qps: f64,
        /// Burst-regime rate (≥ `base_qps`).
        burst_qps: f64,
        /// Mean dwell time in each regime, in virtual seconds.
        mean_dwell_secs: f64,
    },
    /// Sinusoidal rate `mean·(1 + amplitude·sin(2πt/period))` — the
    /// day/night cycle, sampled exactly by thinning.
    Diurnal {
        /// Rate averaged over a full period.
        mean_qps: f64,
        /// Relative swing in `[0, 1)`; 0 degenerates to Poisson.
        amplitude: f64,
        /// Cycle length in virtual seconds.
        period_secs: f64,
    },
    /// Poisson at `base_qps` except inside `[spike_start, spike_start +
    /// spike_secs)`, where the rate steps to `base_qps · spike_factor`.
    FlashCrowd {
        /// Rate outside the spike.
        base_qps: f64,
        /// Multiplier inside the spike (≥ 1).
        spike_factor: f64,
        /// Spike onset, in virtual seconds.
        spike_start_secs: f64,
        /// Spike duration, in virtual seconds.
        spike_secs: f64,
    },
    /// Poisson timing at `rate_qps`; inside each periodic storm window
    /// (`storm_secs` out of every `storm_period_secs`) a `storm_share`
    /// fraction of queries are replaced by the single hottest query
    /// (id 0).
    HotTermStorm {
        /// Arrival rate (timing is unaffected by the storm).
        rate_qps: f64,
        /// Storm recurrence period, in virtual seconds.
        storm_period_secs: f64,
        /// Storm length within each period, in virtual seconds.
        storm_secs: f64,
        /// Fraction of in-storm queries collapsed onto the hot query.
        storm_share: f64,
    },
}

impl ArrivalKind {
    /// The peak instantaneous rate the profile can reach — the thinning
    /// envelope, and a capacity bound the front-end must absorb.
    pub fn peak_qps(&self) -> f64 {
        match *self {
            ArrivalKind::Poisson { rate_qps } => rate_qps,
            ArrivalKind::Bursty {
                base_qps,
                burst_qps,
                ..
            } => base_qps.max(burst_qps),
            ArrivalKind::Diurnal {
                mean_qps,
                amplitude,
                ..
            } => mean_qps * (1.0 + amplitude),
            ArrivalKind::FlashCrowd {
                base_qps,
                spike_factor,
                ..
            } => base_qps * spike_factor,
            ArrivalKind::HotTermStorm { rate_qps, .. } => rate_qps,
        }
    }

    /// Per-kind seed salt so two processes over the same log but with
    /// different shapes draw decorrelated streams.
    fn salt(&self) -> u64 {
        match self {
            ArrivalKind::Poisson { .. } => 0x0AEB_0001,
            ArrivalKind::Bursty { .. } => 0x0AEB_0002,
            ArrivalKind::Diurnal { .. } => 0x0AEB_0003,
            ArrivalKind::FlashCrowd { .. } => 0x0AEB_0004,
            ArrivalKind::HotTermStorm { .. } => 0x0AEB_0005,
        }
    }
}

/// A deterministic open-loop arrival stream: query content from a
/// [`QueryLog`], timestamps from an [`ArrivalKind`] rate profile.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    log: QueryLog,
    kind: ArrivalKind,
}

const NS_PER_SEC: f64 = 1_000_000_000.0;

impl ArrivalProcess {
    /// Wrap `log` with the given rate profile. Panics on non-positive
    /// rates or degenerate shape parameters.
    pub fn new(log: QueryLog, kind: ArrivalKind) -> Self {
        match kind {
            ArrivalKind::Poisson { rate_qps } => {
                assert!(rate_qps > 0.0 && rate_qps.is_finite());
            }
            ArrivalKind::Bursty {
                base_qps,
                burst_qps,
                mean_dwell_secs,
            } => {
                assert!(base_qps > 0.0 && burst_qps >= base_qps);
                assert!(mean_dwell_secs > 0.0);
            }
            ArrivalKind::Diurnal {
                mean_qps,
                amplitude,
                period_secs,
            } => {
                assert!(mean_qps > 0.0);
                assert!((0.0..1.0).contains(&amplitude), "amplitude in [0,1)");
                assert!(period_secs > 0.0);
            }
            ArrivalKind::FlashCrowd {
                base_qps,
                spike_factor,
                spike_start_secs,
                spike_secs,
            } => {
                assert!(base_qps > 0.0 && spike_factor >= 1.0);
                assert!(spike_start_secs >= 0.0 && spike_secs > 0.0);
            }
            ArrivalKind::HotTermStorm {
                rate_qps,
                storm_period_secs,
                storm_secs,
                storm_share,
            } => {
                assert!(rate_qps > 0.0);
                assert!(storm_period_secs > 0.0 && storm_secs > 0.0);
                assert!(storm_secs <= storm_period_secs, "storm fits its period");
                assert!((0.0..=1.0).contains(&storm_share));
            }
        }
        ArrivalProcess { log, kind }
    }

    /// The rate profile.
    pub fn kind(&self) -> ArrivalKind {
        self.kind
    }

    /// The query log content is drawn from.
    pub fn log(&self) -> &QueryLog {
        &self.log
    }

    /// Generate the first `n` arrivals. Timestamps are strictly
    /// increasing (sub-nanosecond gaps round up to 1 ns), so FIFO order
    /// is total and every downstream tie-break is deterministic.
    pub fn generate(&self, n: usize) -> Vec<Arrival> {
        let mut rng = Rng::new(self.log.spec().seed.wrapping_add(self.kind.salt()));
        let mut t_ns: u64 = 0;
        let mut out = Vec::with_capacity(n);
        match self.kind {
            ArrivalKind::Poisson { rate_qps } => {
                let exp = Exponential::new(rate_qps);
                for _ in 0..n {
                    t_ns += gap_ns(exp.sample(&mut rng));
                    out.push(self.plain(&mut rng, t_ns));
                }
            }
            ArrivalKind::Bursty {
                base_qps,
                burst_qps,
                mean_dwell_secs,
            } => {
                // Exact MMPP-2 simulation: draw the next candidate gap at
                // the current regime's rate; if it crosses the regime
                // boundary, jump to the boundary, flip regimes, and
                // redraw (exponentials are memoryless, so restarting at
                // the boundary is exact).
                let dwell = Exponential::new(1.0 / mean_dwell_secs);
                let rates = [base_qps, burst_qps];
                let mut regime = 0usize;
                let mut regime_end_ns = gap_ns(dwell.sample(&mut rng));
                while out.len() < n {
                    let gap = gap_ns(Exponential::new(rates[regime]).sample(&mut rng));
                    if t_ns + gap > regime_end_ns {
                        t_ns = regime_end_ns;
                        regime = 1 - regime;
                        regime_end_ns += gap_ns(dwell.sample(&mut rng));
                        continue;
                    }
                    t_ns += gap;
                    out.push(self.plain(&mut rng, t_ns));
                }
            }
            ArrivalKind::Diurnal {
                mean_qps,
                amplitude,
                period_secs,
            } => {
                let peak = self.kind.peak_qps();
                let exp = Exponential::new(peak);
                while out.len() < n {
                    t_ns += gap_ns(exp.sample(&mut rng));
                    let phase = (t_ns as f64 / NS_PER_SEC) / period_secs;
                    let rate =
                        mean_qps * (1.0 + amplitude * (2.0 * std::f64::consts::PI * phase).sin());
                    if rng.next_f64() < rate / peak {
                        out.push(self.plain(&mut rng, t_ns));
                    }
                }
            }
            ArrivalKind::FlashCrowd {
                base_qps,
                spike_factor,
                spike_start_secs,
                spike_secs,
            } => {
                let peak = self.kind.peak_qps();
                let exp = Exponential::new(peak);
                let spike = (spike_start_secs * NS_PER_SEC) as u64
                    ..((spike_start_secs + spike_secs) * NS_PER_SEC) as u64;
                while out.len() < n {
                    t_ns += gap_ns(exp.sample(&mut rng));
                    let rate = if spike.contains(&t_ns) {
                        base_qps * spike_factor
                    } else {
                        base_qps
                    };
                    if rng.next_f64() < rate / peak {
                        out.push(self.plain(&mut rng, t_ns));
                    }
                }
            }
            ArrivalKind::HotTermStorm {
                rate_qps,
                storm_period_secs,
                storm_secs,
                storm_share,
            } => {
                let exp = Exponential::new(rate_qps);
                let period_ns = (storm_period_secs * NS_PER_SEC) as u64;
                let storm_ns = (storm_secs * NS_PER_SEC) as u64;
                for _ in 0..n {
                    t_ns += gap_ns(exp.sample(&mut rng));
                    let in_storm = t_ns % period_ns < storm_ns;
                    // Draw the storm coin before the content sample so
                    // the RNG consumption schedule is fixed per arrival.
                    let stormy = rng.next_f64() < storm_share;
                    let query = if in_storm && stormy {
                        Query {
                            id: 0,
                            terms: self.log.terms_of(0),
                        }
                    } else {
                        self.log.sample(&mut rng)
                    };
                    out.push(Arrival {
                        at: SimTime::from_nanos(t_ns),
                        query,
                    });
                }
            }
        }
        out
    }

    fn plain(&self, rng: &mut Rng, t_ns: u64) -> Arrival {
        Arrival {
            at: SimTime::from_nanos(t_ns),
            query: self.log.sample(rng),
        }
    }
}

/// Convert an exponential gap in seconds to nanoseconds, rounding up to
/// 1 ns so arrival times stay strictly increasing.
fn gap_ns(secs: f64) -> u64 {
    ((secs * NS_PER_SEC).round() as u64).max(1)
}

/// The offered load a generated stream actually carries: arrivals per
/// second of virtual time up to the last arrival. This — not the
/// configured rate — is what the latency-vs-load curves plot on their
/// x-axis, so thinning acceptance noise cannot skew a point.
pub fn offered_qps(arrivals: &[Arrival]) -> f64 {
    match arrivals.last() {
        Some(last) if last.at > SimTime::ZERO => {
            arrivals.len() as f64 / (last.at - SimTime::ZERO).as_secs_f64()
        }
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::querylog::QueryLogSpec;

    fn log() -> QueryLog {
        QueryLog::new(QueryLogSpec::tiny(2_000, 77))
    }

    fn kinds() -> Vec<ArrivalKind> {
        vec![
            ArrivalKind::Poisson { rate_qps: 500.0 },
            ArrivalKind::Bursty {
                base_qps: 100.0,
                burst_qps: 1_000.0,
                mean_dwell_secs: 0.5,
            },
            ArrivalKind::Diurnal {
                mean_qps: 400.0,
                amplitude: 0.8,
                period_secs: 2.0,
            },
            ArrivalKind::FlashCrowd {
                base_qps: 200.0,
                spike_factor: 5.0,
                spike_start_secs: 1.0,
                spike_secs: 1.0,
            },
            ArrivalKind::HotTermStorm {
                rate_qps: 500.0,
                storm_period_secs: 2.0,
                storm_secs: 0.5,
                storm_share: 0.7,
            },
        ]
    }

    #[test]
    fn every_kind_is_deterministic_and_strictly_increasing() {
        for kind in kinds() {
            let p = ArrivalProcess::new(log(), kind);
            let a = p.generate(600);
            let b = p.generate(600);
            assert_eq!(a, b, "{kind:?} not reproducible");
            assert!(
                a.windows(2).all(|w| w[0].at < w[1].at),
                "{kind:?} timestamps not strictly increasing"
            );
        }
    }

    #[test]
    fn different_kinds_draw_decorrelated_streams() {
        let poisson = ArrivalProcess::new(log(), ArrivalKind::Poisson { rate_qps: 500.0 });
        let storm = ArrivalProcess::new(
            log(),
            ArrivalKind::HotTermStorm {
                rate_qps: 500.0,
                storm_period_secs: 10.0,
                storm_secs: 0.001, // effectively never storms
                storm_share: 0.0,
            },
        );
        let a: Vec<u64> = poisson.generate(200).iter().map(|x| x.query.id).collect();
        let b: Vec<u64> = storm.generate(200).iter().map(|x| x.query.id).collect();
        assert_ne!(a, b, "kind salt must decorrelate content draws");
    }

    #[test]
    fn poisson_hits_its_configured_rate() {
        let p = ArrivalProcess::new(log(), ArrivalKind::Poisson { rate_qps: 800.0 });
        let measured = offered_qps(&p.generate(8_000));
        assert!(
            (measured - 800.0).abs() < 80.0,
            "measured {measured} qps vs 800 configured"
        );
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "the window counts are read only through max and min"
    )]
    fn bursty_rate_sits_between_its_regimes() {
        let p = ArrivalProcess::new(
            log(),
            ArrivalKind::Bursty {
                base_qps: 100.0,
                burst_qps: 1_000.0,
                mean_dwell_secs: 0.5,
            },
        );
        let arrivals = p.generate(6_000);
        let mean = offered_qps(&arrivals);
        assert!(
            mean > 150.0 && mean < 950.0,
            "MMPP mean {mean} outside its regimes"
        );
        // Burstiness: the densest 100 ms window must far exceed the
        // sparsest (a homogeneous Poisson at the same mean would not).
        let window = 100_000_000u64;
        let mut per_window = std::collections::HashMap::new();
        for a in &arrivals {
            *per_window.entry(a.at.as_nanos() / window).or_insert(0u64) += 1;
        }
        let max = per_window.values().max().copied().unwrap();
        let min = per_window.values().min().copied().unwrap();
        assert!(max > min * 3, "no burst structure (max {max}, min {min})");
    }

    #[test]
    fn diurnal_peak_half_outpaces_the_trough_half() {
        let period = 2.0;
        let p = ArrivalProcess::new(
            log(),
            ArrivalKind::Diurnal {
                mean_qps: 400.0,
                amplitude: 0.8,
                period_secs: period,
            },
        );
        let (mut peak, mut trough) = (0u64, 0u64);
        for a in p.generate(6_000) {
            let phase = (a.at.as_nanos() as f64 / NS_PER_SEC) % period / period;
            if phase < 0.5 {
                peak += 1; // sin > 0 half-period
            } else {
                trough += 1;
            }
        }
        assert!(
            peak as f64 > trough as f64 * 2.0,
            "peak {peak} vs trough {trough}"
        );
    }

    #[test]
    fn flash_crowd_spikes_inside_its_window() {
        let p = ArrivalProcess::new(
            log(),
            ArrivalKind::FlashCrowd {
                base_qps: 200.0,
                spike_factor: 5.0,
                spike_start_secs: 1.0,
                spike_secs: 1.0,
            },
        );
        let arrivals = p.generate(4_000);
        let in_spike = arrivals
            .iter()
            .filter(|a| (1_000_000_000..2_000_000_000).contains(&a.at.as_nanos()))
            .count();
        // One spike second at 1000 qps vs one base second at 200 qps.
        let base_second = arrivals
            .iter()
            .filter(|a| a.at.as_nanos() < 1_000_000_000)
            .count();
        assert!(
            in_spike > base_second * 3,
            "spike {in_spike} vs base {base_second}"
        );
    }

    #[test]
    fn hot_term_storm_concentrates_content_not_timing() {
        let p = ArrivalProcess::new(
            log(),
            ArrivalKind::HotTermStorm {
                rate_qps: 500.0,
                storm_period_secs: 2.0,
                storm_secs: 0.5,
                storm_share: 0.7,
            },
        );
        let arrivals = p.generate(8_000);
        let (mut storm_hot, mut storm_n, mut calm_hot, mut calm_n) = (0u64, 0u64, 0u64, 0u64);
        for a in &arrivals {
            let in_storm = a.at.as_nanos() % 2_000_000_000 < 500_000_000;
            let hot = a.query.id == 0;
            if in_storm {
                storm_n += 1;
                storm_hot += hot as u64;
            } else {
                calm_n += 1;
                calm_hot += hot as u64;
            }
        }
        let storm_share = storm_hot as f64 / storm_n as f64;
        let calm_share = calm_hot as f64 / calm_n as f64;
        assert!(
            storm_share > 0.5 && storm_share > calm_share * 3.0,
            "storm {storm_share} vs calm {calm_share}"
        );
        // Hot queries keep the log's term mapping, so the engine sees a
        // legitimate (cacheable) query, not a synthetic one.
        let l = log();
        for a in &arrivals {
            assert_eq!(a.query.terms, l.terms_of(a.query.id));
        }
    }

    #[test]
    fn offered_qps_handles_edges() {
        assert_eq!(offered_qps(&[]), 0.0);
        let p = ArrivalProcess::new(log(), ArrivalKind::Poisson { rate_qps: 100.0 });
        let one = p.generate(1);
        assert!(offered_qps(&one) > 0.0);
    }
}
