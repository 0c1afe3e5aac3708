//! Counter snapshots taken through the engine's public accessors, and
//! the window-delta arithmetic over them. Every counter a metric uses is
//! `end snapshot − snapshot taken after warm-up`, never a lifetime value,
//! so a metric means the same whether or not the engine happens to reset
//! the underlying statistic in `reset_measurements`.

use engine::{SearchEngine, Situation};
use hybridcache::stats::FamilyStats;
use storagecore::{BlockDevice, IoKind, IoStats};

use crate::stats::Fingerprint;

/// The one counter that is a wrapping fold, not a monotone count.
const RESULT_DIGEST: &str = "engine.result_digest";

const SITUATION_COUNT: [&str; 9] = [
    "situation.S1.count",
    "situation.S2.count",
    "situation.S3.count",
    "situation.S4.count",
    "situation.S5.count",
    "situation.S6.count",
    "situation.S7.count",
    "situation.S8.count",
    "situation.S9.count",
];
const SITUATION_SUM_NS: [&str; 9] = [
    "situation.S1.sum_ns",
    "situation.S2.sum_ns",
    "situation.S3.sum_ns",
    "situation.S4.sum_ns",
    "situation.S5.sum_ns",
    "situation.S6.sum_ns",
    "situation.S7.sum_ns",
    "situation.S8.sum_ns",
    "situation.S9.sum_ns",
];

/// Named simulated-side counters, in a fixed order. All of them live on
/// the simulated clock or count simulated events, so for one seed they
/// repeat exactly: they are what `sim_fingerprint` hashes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    values: Vec<(&'static str, u64)>,
}

impl Counters {
    pub fn from_pairs(pairs: &[(&'static str, u64)]) -> Self {
        Counters {
            values: pairs.to_vec(),
        }
    }

    fn set(&mut self, name: &'static str, value: u64) {
        self.values.push((name, value));
    }

    /// The value of `name`; panics on a name no snapshot records.
    pub fn get(&self, name: &str) -> u64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no counter named {name}"))
            .1
    }

    pub fn get_f(&self, name: &str) -> f64 {
        self.get(name) as f64
    }

    /// `self − start`, counter by counter. A counter that ran backwards
    /// is a bug in the snapshot (or an engine that reset mid-window) and
    /// panics rather than producing a wrapped value.
    pub fn since(&self, start: &Counters) -> Counters {
        assert_eq!(self.values.len(), start.values.len(), "snapshot shapes");
        let values = self
            .values
            .iter()
            .zip(&start.values)
            .map(|(&(name, end), &(start_name, begin))| {
                assert_eq!(name, start_name, "snapshot shapes");
                let delta = if name == RESULT_DIGEST {
                    end.wrapping_sub(begin)
                } else {
                    end.checked_sub(begin)
                        .unwrap_or_else(|| panic!("counter {name} ran backwards: {begin} -> {end}"))
                };
                (name, delta)
            })
            .collect();
        Counters { values }
    }

    pub fn fingerprint(&self, h: &mut Fingerprint) {
        for &(name, value) in &self.values {
            h.text(name);
            h.word(value);
        }
    }

    /// Snapshot every counter the metrics use.
    pub fn snapshot(e: &SearchEngine) -> Counters {
        let mut c = Counters::default();
        let report = e.report();
        c.set("engine.postings_scanned", report.postings_scanned);
        c.set(RESULT_DIGEST, e.result_digest());
        let skips = e.postings_skip_stats();
        c.set("searchidx.skipped", skips.skipped);

        let cache = report.cache.unwrap_or_default();
        family(
            &mut c,
            &cache.results,
            [
                "cache.results.mem_hits",
                "cache.results.ssd_hits",
                "cache.results.partial_hits",
                "cache.results.misses",
                "cache.results.ssd_admissions",
                "cache.results.ssd_rejections",
                "cache.results.rewrites_avoided",
            ],
        );
        family(
            &mut c,
            &cache.lists,
            [
                "cache.lists.mem_hits",
                "cache.lists.ssd_hits",
                "cache.lists.partial_hits",
                "cache.lists.misses",
                "cache.lists.ssd_admissions",
                "cache.lists.ssd_rejections",
                "cache.lists.rewrites_avoided",
            ],
        );
        c.set("cache.ssd_time_ns", cache.ssd_time.as_nanos());
        c.set("cache.ssd_bytes_written", cache.ssd_bytes_written);
        c.set("cache.ssd_bytes_read", cache.ssd_bytes_read);
        c.set("cache.trims", cache.trims);
        let (rc, ic) = e.cache().map(|m| m.store_stats()).unwrap_or_default();
        c.set("cache.evictions", ic.evictions + rc.collateral_evictions);

        let flash = report.flash.unwrap_or_default();
        c.set("flash.block_erases", flash.block_erases);
        c.set("flash.page_reads", flash.page_reads);
        c.set("flash.page_programs", flash.page_programs);
        c.set("flash.host_writes", flash.host_writes);
        c.set("flash.gc_runs", flash.gc_runs);
        c.set("flash.pages_moved", flash.pages_moved);

        let idle = IoStats::new();
        let cache_dev = e.cache().map_or(&idle, |m| m.device().stats());
        device(
            &mut c,
            cache_dev,
            [
                "cachedev.ops",
                "cachedev.bytes",
                "cachedev.busy_ns",
                "cachedev.queue_wait_ns",
                "cachedev.queue_dispatches",
                "cachedev.queue_occupancy",
            ],
        );
        device(
            &mut c,
            e.index_io_stats(),
            [
                "indexdev.ops",
                "indexdev.bytes",
                "indexdev.busy_ns",
                "indexdev.queue_wait_ns",
                "indexdev.queue_dispatches",
                "indexdev.queue_occupancy",
            ],
        );

        let m = e.mutation_stats();
        c.set("mutation.docs_added", m.docs_added);
        c.set("mutation.docs_deleted", m.docs_deleted);
        c.set("mutation.wal_bytes", m.wal_bytes);
        c.set("mutation.seals", m.seals);
        c.set("mutation.compactions", m.compactions);
        c.set("mutation.merge_bytes_written", m.merge_bytes_written);
        c.set("mutation.tombstones_cleared", m.tombstones_cleared);
        c.set("mutation.io_ns", e.mutation_io_time().as_nanos());

        for (i, s) in Situation::ALL.into_iter().enumerate() {
            let count = report.situations.count(s);
            c.set(SITUATION_COUNT[i], count);
            c.set(
                SITUATION_SUM_NS[i],
                report.situations.mean_time(s).as_nanos() * count,
            );
        }
        c
    }
}

/// One entry family's lookup outcomes and SSD admission decisions.
fn family(c: &mut Counters, f: &FamilyStats, names: [&'static str; 7]) {
    let values = [
        f.mem_hits,
        f.ssd_hits,
        f.partial_hits,
        f.misses,
        f.ssd_admissions,
        f.ssd_rejections,
        f.rewrites_avoided,
    ];
    for (name, value) in names.into_iter().zip(values) {
        c.set(name, value);
    }
}

/// One device's request, byte, busy-time and submission-queue counters.
fn device(c: &mut Counters, s: &IoStats, names: [&'static str; 6]) {
    let (r, w) = (s.kind(IoKind::Read), s.kind(IoKind::Write));
    let q = s.queue();
    c.set(names[0], s.total_ops());
    c.set(names[1], r.bytes() + w.bytes());
    c.set(names[2], s.total_busy().as_nanos());
    c.set(names[3], q.total_wait().as_nanos());
    c.set(names[4], q.dispatches());
    // The queue keeps the occupancy sum private; the mean times the
    // dispatch count recovers it exactly (both are integers well below
    // 2^53).
    c.set(
        names[5],
        (q.mean_occupancy() * q.dispatches() as f64).round() as u64,
    );
}

/// The `(count, sum_ns)` counter names of Table I situation `i` (0-based).
pub fn situation_names(i: usize) -> (&'static str, &'static str) {
    (SITUATION_COUNT[i], SITUATION_SUM_NS[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_delta_subtracts_counter_by_counter() {
        let start = Counters::from_pairs(&[("a", 10), ("b", 0), (RESULT_DIGEST, u64::MAX - 1)]);
        let end = Counters::from_pairs(&[("a", 25), ("b", 0), (RESULT_DIGEST, 3)]);
        let window = end.since(&start);
        assert_eq!(window.get("a"), 15);
        assert_eq!(window.get("b"), 0);
        // The digest is a wrapping sum, so its window is a wrapping
        // difference: MAX-1 + 5 wraps to 3.
        assert_eq!(window.get(RESULT_DIGEST), 5);
        // A window over nothing is all zeros, whatever the lifetime values.
        assert!(end.since(&end).values.iter().all(|&(_, v)| v == 0));
    }

    #[test]
    #[should_panic(expected = "ran backwards")]
    fn a_counter_reset_inside_the_window_is_refused() {
        let start = Counters::from_pairs(&[("a", 10)]);
        let end = Counters::from_pairs(&[("a", 9)]);
        end.since(&start);
    }

    #[test]
    fn deltas_of_consecutive_windows_add_up() {
        let t0 = Counters::from_pairs(&[("a", 3), ("b", 7)]);
        let t1 = Counters::from_pairs(&[("a", 8), ("b", 7)]);
        let t2 = Counters::from_pairs(&[("a", 20), ("b", 9)]);
        for name in ["a", "b"] {
            assert_eq!(
                t1.since(&t0).get(name) + t2.since(&t1).get(name),
                t2.since(&t0).get(name)
            );
        }
    }

    #[test]
    fn fingerprint_sees_names_and_values() {
        let fp = |c: &Counters| {
            let mut h = Fingerprint::default();
            c.fingerprint(&mut h);
            h.finish()
        };
        let a = Counters::from_pairs(&[("a", 1)]);
        assert_ne!(fp(&a), fp(&Counters::from_pairs(&[("a", 2)])));
        assert_ne!(fp(&a), fp(&Counters::from_pairs(&[("b", 1)])));
        assert_eq!(fp(&a), fp(&a.clone()));
    }
}
