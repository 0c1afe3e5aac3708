//! The sketch-based SSD admission tier.
//!
//! The paper admits an evicted list to the SSD when `EV = Freq/SC` clears
//! a *static* threshold `TEV`, where `Freq` only counts accesses made
//! while the entry sat in memory. Two failure modes follow:
//!
//! * **One-hit wonders.** A scan-style access arrives, is cached, never
//!   re-used, and is evicted with `Freq = 1`. A small list then has
//!   `EV = 1/1 = 1 ≥ TEV = 0.5` — the gate *admits* it and the SSD pays a
//!   block write (and eventually an erasure) for data that will never be
//!   read back.
//! * **Phase blindness.** A fixed `TEV` cannot tighten when churn floods
//!   the gate with cold lists, nor relax when the workload settles.
//!
//! [`AdmissionTier`] adds the three pieces the modern admission
//! literature (TinyLFU) uses against exactly these modes: a
//! [`FreqSketch`] counting accesses across the whole stream (so reuse is
//! estimated *before* a write is spent), a [`GhostCache`] of recently
//! dismissed keys (a re-reference that just missed the gate is the
//! strongest reuse signal there is, and fast-tracks past the filter), and
//! an online controller nudging `TEV` and the sketch's reset window `W`
//! from hit-ratio and write-rate feedback.
//!
//! Under [`AdmissionPolicy::Static`] the tier is completely inert: no
//! sketch updates, no ghost bookkeeping, no controller ticks — the
//! manager runs the seed's gate verbatim, which is what keeps the
//! `Static` arm bit-identical on every simulated figure.

use cachekit::{FreqSketch, GhostCache};
use invariant::{Report, Validate};

use crate::config::{AdmissionConfig, AdmissionPolicy};
use crate::selection::efficiency_value;
use crate::{QueryId, TermKey};

/// Smoothing factor of the hit-ratio EWMA.
const EWMA_ALPHA: f64 = 0.25;
/// An epoch hit ratio this far below the EWMA reads as a phase change.
const PHASE_DELTA: f64 = 0.05;
/// Multiplicative TEV feedback per epoch.
const TEV_RAISE: f64 = 1.25;
const TEV_RELAX: f64 = 0.9;
/// TEV stays within [base/2, base*8] of the configured threshold (with a
/// floor for the LRU arm whose base TEV is 0).
const TEV_CEIL_FACTOR: f64 = 8.0;

/// Counters of the admission tier (kept **outside**
/// [`crate::stats::CacheStats`]: the bit-identity contract compares that
/// struct against the seed, and these counters only exist in the sketch
/// arm).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// List flushes admitted by the sketch gate.
    pub list_admitted: u64,
    /// List flushes filtered out (SSD write avoided).
    pub list_filtered: u64,
    /// List admissions fast-tracked by a ghost hit.
    pub list_fast_tracks: u64,
    /// Result flushes admitted.
    pub result_admitted: u64,
    /// Result flushes filtered out.
    pub result_filtered: u64,
    /// Result admissions fast-tracked by a ghost hit.
    pub result_fast_tracks: u64,
    /// Controller epochs completed.
    pub epochs: u64,
    /// TEV raised (write pressure) / relaxed (write slack).
    pub tev_raises: u64,
    pub tev_cuts: u64,
    /// Reset window shrunk (phase change) / grown (stability).
    pub window_shrinks: u64,
    pub window_grows: u64,
}

/// The admission tier: sketch + ghosts + controller. Owned by the cache
/// manager and consulted only when the policy is
/// [`AdmissionPolicy::Sketch`].
#[derive(Debug, Clone)]
pub struct AdmissionTier {
    cfg: AdmissionConfig,
    sketch: FreqSketch,
    list_ghost: GhostCache<TermKey>,
    result_ghost: GhostCache<QueryId>,
    /// The controller's live threshold, seeded from the config's TEV.
    tev: f64,
    base_tev: f64,
    /// Epoch accumulators.
    epoch_events: u64,
    epoch_hits: u64,
    epoch_written_blocks: u64,
    /// Hit-ratio EWMA across epochs (primed by the first epoch).
    hit_ewma: f64,
    ewma_primed: bool,
    stats: AdmissionStats,
}

/// Domain-separated key hashes: lists and results share one sketch, so a
/// term id must never alias a query id.
fn list_hash(term: TermKey) -> u64 {
    fxmap::hash_one(&(0u8, term))
}

fn result_hash(id: QueryId) -> u64 {
    fxmap::hash_one(&(1u8, id))
}

impl AdmissionTier {
    /// Build from the config; `base_tev` is the static threshold the
    /// controller starts from and stays anchored to.
    pub fn new(cfg: AdmissionConfig, base_tev: f64) -> Self {
        AdmissionTier {
            sketch: FreqSketch::new(cfg.sketch_width, cfg.reset_window),
            list_ghost: GhostCache::new(cfg.ghost_capacity),
            result_ghost: GhostCache::new(cfg.ghost_capacity),
            tev: base_tev,
            base_tev,
            epoch_events: 0,
            epoch_hits: 0,
            epoch_written_blocks: 0,
            hit_ewma: 0.0,
            ewma_primed: false,
            stats: AdmissionStats::default(),
            cfg,
        }
    }

    /// Whether the sketch gate is consulted.
    pub fn is_sketch(&self) -> bool {
        self.cfg.policy == AdmissionPolicy::Sketch
    }

    /// Tier counters.
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }

    /// The controller's current TEV.
    pub fn tev(&self) -> f64 {
        self.tev
    }

    /// The sketch's current reset window `W`.
    pub fn reset_window(&self) -> u64 {
        self.sketch.reset_window()
    }

    /// Record a list access (hit = served without touching the HDD).
    /// Inert under `Static`.
    pub fn record_list_access(&mut self, term: TermKey, hit: bool) {
        if !self.is_sketch() {
            return;
        }
        self.sketch.increment(list_hash(term));
        self.tick(hit);
    }

    /// Record a result access. Inert under `Static`.
    pub fn record_result_access(&mut self, id: QueryId, hit: bool) {
        if !self.is_sketch() {
            return;
        }
        self.sketch.increment(result_hash(id));
        self.tick(hit);
    }

    /// Gate one evicted list (`cached_freq` is the in-memory `Freq`,
    /// `blocks` the SC the paper would write). Only meaningful in the
    /// sketch arm; the caller keeps the static gate otherwise.
    pub fn admit_list(&mut self, term: TermKey, cached_freq: u64, blocks: u64) -> bool {
        debug_assert!(self.is_sketch());
        if self.list_ghost.take(&term) {
            self.stats.list_fast_tracks += 1;
            self.stats.list_admitted += 1;
            self.epoch_written_blocks += blocks;
            return true;
        }
        // The sketch sees the whole stream; the cached Freq only the
        // entry's residency. Either signal suffices.
        let est = u64::from(self.sketch.estimate(list_hash(term))).max(cached_freq);
        let pass =
            est >= u64::from(self.cfg.min_freq) && efficiency_value(est, blocks.max(1)) >= self.tev;
        if pass {
            self.stats.list_admitted += 1;
            self.epoch_written_blocks += blocks;
        } else {
            self.stats.list_filtered += 1;
            self.list_ghost.record(term);
        }
        pass
    }

    /// Gate one evicted result entry. `threshold` is the static
    /// result-frequency floor, kept as the sketch arm's baseline bar.
    pub fn admit_result(&mut self, id: QueryId, freq: u64, threshold: u64) -> bool {
        debug_assert!(self.is_sketch());
        if self.result_ghost.take(&id) {
            self.stats.result_fast_tracks += 1;
            self.stats.result_admitted += 1;
            self.epoch_written_blocks += 1;
            return true;
        }
        let est = u64::from(self.sketch.estimate(result_hash(id))).max(freq);
        let pass = est >= threshold.max(u64::from(self.cfg.min_freq));
        if pass {
            self.stats.result_admitted += 1;
            self.epoch_written_blocks += 1;
        } else {
            self.stats.result_filtered += 1;
            self.result_ghost.record(id);
        }
        pass
    }

    /// One controller tick per recorded access; retunes at epoch ends.
    fn tick(&mut self, hit: bool) {
        if self.cfg.epoch == 0 {
            return;
        }
        self.epoch_events += 1;
        if hit {
            self.epoch_hits += 1;
        }
        if self.epoch_events >= self.cfg.epoch {
            self.retune();
        }
    }

    /// End-of-epoch feedback: hit-ratio EWMA drives the reset window
    /// (phase change → forget faster), the write rate drives TEV.
    fn retune(&mut self) {
        let hr = self.epoch_hits as f64 / self.epoch_events as f64;
        if self.ewma_primed {
            if hr + PHASE_DELTA < self.hit_ewma {
                // Phase change: the cached estimate of "hot" is stale.
                // Forget fast — halve now and shorten the window.
                self.sketch.halve();
                let w = (self.sketch.reset_window() / 2).max(self.cfg.epoch.max(1));
                self.sketch.set_reset_window(w);
                self.stats.window_shrinks += 1;
            } else if self.sketch.reset_window() < self.cfg.reset_window {
                // Stable again: stretch the window back towards its
                // configured length so estimates deepen.
                let w = (self.sketch.reset_window() + self.sketch.reset_window() / 4 + 1)
                    .min(self.cfg.reset_window);
                self.sketch.set_reset_window(w);
                self.stats.window_grows += 1;
            }
            self.hit_ewma += EWMA_ALPHA * (hr - self.hit_ewma);
        } else {
            self.hit_ewma = hr;
            self.ewma_primed = true;
        }
        let ceil = (self.base_tev * TEV_CEIL_FACTOR).max(4.0);
        let floor = self.base_tev / 2.0;
        if self.epoch_written_blocks > self.cfg.write_budget_blocks {
            let t = (self.tev * TEV_RAISE).max(0.05).min(ceil);
            if t > self.tev {
                self.stats.tev_raises += 1;
            }
            self.tev = t;
        } else if self.epoch_written_blocks * 2 < self.cfg.write_budget_blocks && self.tev > floor {
            let t = (self.tev * TEV_RELAX).max(floor);
            if t < self.tev {
                self.stats.tev_cuts += 1;
            }
            self.tev = t;
        }
        self.epoch_events = 0;
        self.epoch_hits = 0;
        self.epoch_written_blocks = 0;
        self.stats.epochs += 1;
    }
}

impl Validate for AdmissionTier {
    /// Cascades into the sketch (total/reset-window agreement) and both
    /// ghost lists (length/capacity agreement), then re-asserts the
    /// controller's threshold is a usable number — a NaN TEV admits
    /// nothing forever and would silently turn the SSD tier off.
    fn validate(&self, report: &mut Report) {
        self.sketch.validate(report);
        self.list_ghost.validate(report);
        self.result_ghost.validate(report);
        report.check(
            self.tev.is_finite() && self.tev >= 0.0,
            "AdmissionTier",
            "controller-tev-sane",
            || format!("controller TEV is {}", self.tev),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AdmissionConfig;

    fn sketch_tier() -> AdmissionTier {
        AdmissionTier::new(AdmissionConfig::sketch_default(), 0.5)
    }

    #[test]
    fn static_tier_is_inert() {
        let mut t = AdmissionTier::new(AdmissionConfig::static_default(), 0.5);
        assert!(!t.is_sketch());
        t.record_list_access(1, true);
        t.record_result_access(2, false);
        assert_eq!(t.sketch.total(), 0, "no sketch updates under Static");
        assert_eq!(t.stats(), AdmissionStats::default());
    }

    #[test]
    fn one_hit_wonder_is_filtered_where_static_admits() {
        let mut t = sketch_tier();
        // The static gate would admit: EV = 1/1 = 1 >= 0.5. The sketch
        // gate sees a first-and-only access (estimate 1 < doorkeeper 2).
        t.record_list_access(7, false);
        assert!(!t.admit_list(7, 1, 1));
        assert_eq!(t.stats().list_filtered, 1);
    }

    #[test]
    fn repeated_access_clears_the_doorkeeper() {
        let mut t = sketch_tier();
        for _ in 0..3 {
            t.record_list_access(7, false);
        }
        assert!(t.admit_list(7, 1, 1), "sketch remembers pre-cache reuse");
    }

    #[test]
    fn ghost_hit_fast_tracks_and_is_single_shot() {
        let mut t = sketch_tier();
        t.record_list_access(9, false);
        assert!(!t.admit_list(9, 1, 1), "first offer filtered, ghosted");
        assert!(t.admit_list(9, 1, 1), "re-offer rides the ghost");
        assert_eq!(t.stats().list_fast_tracks, 1);
        assert!(!t.admit_list(9, 1, 1), "ghost evidence is spent");
    }

    #[test]
    fn results_use_their_own_ghost_and_threshold() {
        let mut t = sketch_tier();
        t.record_result_access(4, false);
        assert!(!t.admit_result(4, 1, 2));
        assert!(t.admit_result(4, 1, 2), "ghost fast-track");
        let mut t = sketch_tier();
        for _ in 0..4 {
            t.record_result_access(5, true);
        }
        assert!(t.admit_result(5, 1, 2), "sketch estimate clears the bar");
    }

    #[test]
    fn write_pressure_raises_tev_and_slack_relaxes_it() {
        let mut cfg = AdmissionConfig::sketch_default();
        cfg.epoch = 8;
        cfg.write_budget_blocks = 4;
        let mut t = AdmissionTier::new(cfg, 0.5);
        // Epoch 1: heavy admitted writes (hot keys clear the gate).
        for k in 0..4u64 {
            t.record_list_access(k, true);
            t.record_list_access(k, true);
            assert!(t.admit_list(k, 5, 2));
        }
        assert_eq!(t.stats().epochs, 1);
        assert!(t.tev() > 0.5, "over-budget epoch raises TEV");
        let high = t.tev();
        // Epochs of quiet hits: no writes, TEV relaxes toward base/2.
        for _ in 0..40 {
            t.record_list_access(1, true);
        }
        assert!(t.tev() < high, "write slack relaxes TEV");
        assert!(t.tev() >= 0.25, "anchored at base/2");
    }

    #[test]
    fn phase_change_shrinks_the_window_and_halves_the_sketch() {
        let mut cfg = AdmissionConfig::sketch_default();
        cfg.epoch = 16;
        cfg.reset_window = 1 << 20;
        let mut t = AdmissionTier::new(cfg, 0.5);
        // Prime the EWMA with an all-hits epoch.
        for _ in 0..16 {
            t.record_list_access(1, true);
        }
        let w0 = t.reset_window();
        // Then an all-misses epoch: a detected phase change.
        for k in 0..16u64 {
            t.record_list_access(1_000 + k, false);
        }
        assert!(t.reset_window() < w0, "window shrinks on a phase change");
        assert!(t.stats().window_shrinks >= 1);
        // Recovery epochs grow it back (never past the configured W).
        for _ in 0..64 {
            t.record_list_access(1, true);
        }
        assert!(t.stats().window_grows >= 1);
        assert!(t.reset_window() <= 1 << 20);
    }

    #[test]
    fn validator_cascades_into_sketch_and_ghosts() {
        let mut t = sketch_tier();
        t.record_list_access(3, false);
        t.admit_list(3, 1, 1); // filtered → ghosted
        assert!(t.validation_report().is_clean());
        t.list_ghost.debug_corrupt_members(1);
        let fired: Vec<&str> = t
            .validation_report()
            .violations()
            .iter()
            .map(|v| v.invariant)
            .collect();
        assert!(fired.contains(&"ghost-length-agree"), "got {fired:?}");
    }
}
