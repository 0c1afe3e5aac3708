//! Trace analysis: the paper's four I/O-pattern properties, quantified,
//! plus measured queue depths from submit/complete pairs.

#[expect(
    clippy::disallowed_types,
    reason = "keyed lookups only; the map is never iterated"
)]
use std::collections::HashMap;

use simclock::SimDuration;
use storagecore::{IoEvent, IoKind, Lba};

/// Summary statistics of a block trace.
#[derive(Debug, Clone)]
pub struct TraceProfile {
    /// Total requests.
    pub requests: u64,
    /// Fraction of requests that are reads (paper: >99 % for search).
    pub read_fraction: f64,
    /// Distinct sectors touched / total sectors touched — low means high
    /// locality (the same data is hit again and again).
    pub unique_touch_fraction: f64,
    /// Fraction of *re-accesses* whose reuse distance (in distinct
    /// intervening sectors, a stack-distance approximation) is below 1024 —
    /// "how tight is the working set".
    pub near_reuse_fraction: f64,
    /// Fraction of consecutive request pairs that are sequential
    /// (next.lba == prev.end()) — low means random access.
    pub sequential_fraction: f64,
    /// Fraction of consecutive pairs that are *forward skips*: ahead of
    /// the previous request but by less than `skip_window` sectors — the
    /// paper's "skipped reads" within a list.
    pub skip_fraction: f64,
    /// Mean request size in sectors.
    pub mean_request_sectors: f64,
}

/// Window (sectors) within which a forward jump counts as a skipped read
/// rather than a random seek.
pub const SKIP_WINDOW: u64 = 2048;

impl TraceProfile {
    /// Analyze a trace.
    #[expect(
        clippy::disallowed_types,
        reason = "keyed lookups only; the map is never iterated"
    )]
    pub fn from_events(events: &[IoEvent]) -> Self {
        let requests = events.len() as u64;
        if requests == 0 {
            return TraceProfile {
                requests: 0,
                read_fraction: 0.0,
                unique_touch_fraction: 0.0,
                near_reuse_fraction: 0.0,
                sequential_fraction: 0.0,
                skip_fraction: 0.0,
                mean_request_sectors: 0.0,
            };
        }
        let reads = events.iter().filter(|e| e.kind == IoKind::Read).count() as u64;

        // Unique-touch & reuse distances over first sectors (per-request
        // granularity keeps this O(n log n) instead of per-sector blowup).
        let mut last_seen: HashMap<Lba, u64> = HashMap::new();
        let mut touches = 0u64;
        let mut reaccesses = 0u64;
        let mut near_reuse = 0u64;
        for (i, e) in events.iter().enumerate() {
            touches += 1;
            if let Some(&prev) = last_seen.get(&e.extent.lba) {
                reaccesses += 1;
                // Requests since last touch as a cheap reuse-distance
                // proxy (exact stack distance is O(n²) or needs a BIT;
                // the proxy preserves ordering between traces).
                if (i as u64 - prev) <= 1024 {
                    near_reuse += 1;
                }
            }
            last_seen.insert(e.extent.lba, i as u64);
        }
        let unique = last_seen.len() as u64;

        let mut sequential = 0u64;
        let mut skips = 0u64;
        for w in events.windows(2) {
            let prev_end = w[0].extent.end();
            let next = w[1].extent.lba;
            if next == prev_end {
                sequential += 1;
            } else if next > prev_end && next - prev_end < SKIP_WINDOW {
                skips += 1;
            }
        }
        let pairs = (requests - 1).max(1);

        let total_sectors: u64 = events.iter().map(|e| e.extent.sectors).sum();

        TraceProfile {
            requests,
            read_fraction: reads as f64 / requests as f64,
            unique_touch_fraction: unique as f64 / touches as f64,
            near_reuse_fraction: if reaccesses == 0 {
                0.0
            } else {
                near_reuse as f64 / reaccesses as f64
            },
            sequential_fraction: sequential as f64 / pairs as f64,
            skip_fraction: skips as f64 / pairs as f64,
            mean_request_sectors: total_sectors as f64 / requests as f64,
        }
    }

    /// Measured queue-depth profile from the submit/complete pairs the
    /// event-driven I/O pipeline records (`at` = submission, `start` =
    /// dispatch, `finish` = completion). A synchronous driver — every
    /// request completing before the next submits — profiles as a flat
    /// depth of 1 with zero wait.
    pub fn queue_depth(events: &[IoEvent]) -> QueueDepthProfile {
        QueueDepthProfile::from_events(events)
    }

    /// The Fig.-1 scatter series: `(read sequence number, first LBA)` for
    /// read requests, optionally downsampled to at most `max_points`.
    pub fn scatter_series(events: &[IoEvent], max_points: usize) -> Vec<(u64, Lba)> {
        let reads: Vec<(u64, Lba)> = events
            .iter()
            .filter(|e| e.kind == IoKind::Read)
            .enumerate()
            .map(|(i, e)| (i as u64, e.extent.lba))
            .collect();
        if reads.len() <= max_points || max_points == 0 {
            return reads;
        }
        let step = reads.len() as f64 / max_points as f64;
        (0..max_points)
            .map(|i| reads[(i as f64 * step) as usize])
            .collect()
    }
}

/// Device-queue occupancy measured from a recorded trace: how many
/// requests were outstanding (submitted, not yet completed) over time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueueDepthProfile {
    /// Requests in the trace.
    pub requests: u64,
    /// Largest number of simultaneously outstanding requests.
    pub max_outstanding: u64,
    /// Time-weighted mean outstanding over `[first submit, last finish]`
    /// (idle gaps included, so a bursty queued trace can average below 1).
    pub mean_outstanding: f64,
    /// Total queue wait: Σ (`start` − `at`) over all requests.
    pub total_wait: SimDuration,
}

impl QueueDepthProfile {
    /// Sweep the `[at, finish)` intervals of a trace.
    pub fn from_events(events: &[IoEvent]) -> Self {
        if events.is_empty() {
            return Self::default();
        }
        let mut points: Vec<(u64, i64)> = Vec::with_capacity(events.len() * 2);
        let mut total_wait = SimDuration::ZERO;
        for e in events {
            points.push((e.at.as_nanos(), 1));
            points.push((e.finish.as_nanos(), -1));
            total_wait += e.start.since(e.at);
        }
        // At equal instants completions (-1) drain before submissions
        // (+1), so a back-to-back synchronous trace profiles as depth 1.
        points.sort_unstable_by_key(|&(t, d)| (t, d));
        let first = points[0].0;
        let mut outstanding = 0i64;
        let mut max_outstanding = 0i64;
        let mut weighted: u128 = 0;
        let mut prev_t = first;
        for (t, d) in points {
            weighted += outstanding.max(0) as u128 * (t - prev_t) as u128;
            prev_t = t;
            outstanding += d;
            max_outstanding = max_outstanding.max(outstanding);
        }
        let span = prev_t - first;
        QueueDepthProfile {
            requests: events.len() as u64,
            max_outstanding: max_outstanding.max(0) as u64,
            mean_outstanding: if span == 0 {
                0.0
            } else {
                weighted as f64 / span as f64
            },
            total_wait,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::SimTime;
    use storagecore::Extent;

    fn ev(kind: IoKind, lba: Lba, sectors: u64) -> IoEvent {
        IoEvent {
            seq: 0,
            at: SimTime::ZERO,
            kind,
            extent: Extent::new(lba, sectors),
            latency: SimDuration::ZERO,
            start: SimTime::ZERO,
            finish: SimTime::ZERO,
        }
    }

    fn timed(at: u64, start: u64, finish: u64) -> IoEvent {
        IoEvent {
            seq: 0,
            at: SimTime::from_nanos(at),
            kind: IoKind::Read,
            extent: Extent::new(0, 8),
            latency: SimDuration::from_nanos(finish - start),
            start: SimTime::from_nanos(start),
            finish: SimTime::from_nanos(finish),
        }
    }

    #[test]
    fn queue_depth_of_synchronous_trace_is_one() {
        // Back-to-back: each finishes exactly when the next submits.
        let events = vec![timed(0, 0, 10), timed(10, 10, 20), timed(20, 20, 30)];
        let p = QueueDepthProfile::from_events(&events);
        assert_eq!(p.requests, 3);
        assert_eq!(p.max_outstanding, 1);
        assert!((p.mean_outstanding - 1.0).abs() < 1e-12);
        assert_eq!(p.total_wait, SimDuration::ZERO);
    }

    #[test]
    fn queue_depth_counts_overlap_and_wait() {
        // Two submitted at t=0; the second waits for the device.
        let events = vec![timed(0, 0, 10), timed(0, 10, 20)];
        let p = QueueDepthProfile::from_events(&events);
        assert_eq!(p.max_outstanding, 2);
        // Outstanding is 2 over [0,10) and 1 over [10,20).
        assert!((p.mean_outstanding - 1.5).abs() < 1e-12);
        assert_eq!(p.total_wait, SimDuration::from_nanos(10));
    }

    #[test]
    fn queue_depth_of_empty_trace_is_zero() {
        let p = QueueDepthProfile::from_events(&[]);
        assert_eq!(p.requests, 0);
        assert_eq!(p.max_outstanding, 0);
        assert_eq!(p.mean_outstanding, 0.0);
    }

    #[test]
    fn empty_trace() {
        let p = TraceProfile::from_events(&[]);
        assert_eq!(p.requests, 0);
        assert_eq!(p.read_fraction, 0.0);
    }

    #[test]
    fn read_fraction_counts_kinds() {
        let events = vec![
            ev(IoKind::Read, 0, 1),
            ev(IoKind::Read, 10, 1),
            ev(IoKind::Read, 20, 1),
            ev(IoKind::Write, 30, 1),
        ];
        let p = TraceProfile::from_events(&events);
        assert!((p.read_fraction - 0.75).abs() < 1e-12);
    }

    #[test]
    fn sequential_runs_are_detected() {
        let events = vec![
            ev(IoKind::Read, 0, 4),
            ev(IoKind::Read, 4, 4),         // sequential
            ev(IoKind::Read, 8, 4),         // sequential
            ev(IoKind::Read, 100, 4),       // skip (within window)
            ev(IoKind::Read, 1_000_000, 4), // random
        ];
        let p = TraceProfile::from_events(&events);
        assert!((p.sequential_fraction - 0.5).abs() < 1e-12);
        assert!((p.skip_fraction - 0.25).abs() < 1e-12);
    }

    #[test]
    fn locality_metrics() {
        // Hammer one sector + touch many once.
        let mut events = Vec::new();
        for i in 0..50 {
            events.push(ev(IoKind::Read, 0, 1));
            events.push(ev(IoKind::Read, 1000 + i, 1));
        }
        let p = TraceProfile::from_events(&events);
        // 51 unique first-lbas over 100 touches.
        assert!((p.unique_touch_fraction - 0.51).abs() < 1e-12);
        // Every re-access of sector 0 happens 2 requests later.
        assert!((p.near_reuse_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_request_size() {
        let events = vec![ev(IoKind::Read, 0, 2), ev(IoKind::Read, 10, 6)];
        let p = TraceProfile::from_events(&events);
        assert!((p.mean_request_sectors - 4.0).abs() < 1e-12);
    }

    #[test]
    fn scatter_filters_reads_and_downsamples() {
        let mut events = Vec::new();
        for i in 0..100 {
            events.push(ev(IoKind::Read, i * 10, 1));
        }
        events.push(ev(IoKind::Write, 777, 1));
        let all = TraceProfile::scatter_series(&events, 0);
        assert_eq!(all.len(), 100, "writes excluded");
        assert_eq!(all[5], (5, 50));
        let sampled = TraceProfile::scatter_series(&events, 10);
        assert_eq!(sampled.len(), 10);
        assert_eq!(sampled[0], (0, 0));
    }
}
