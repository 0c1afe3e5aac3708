//! Per-device I/O accounting.

use simclock::{Histogram, SimDuration};

use crate::types::IoKind;

/// Counters for one request kind.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KindStats {
    ops: u64,
    sectors: u64,
    busy: SimDuration,
}

impl KindStats {
    /// Number of requests.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Total sectors moved.
    pub fn sectors(&self) -> u64 {
        self.sectors
    }

    /// Total bytes moved.
    pub fn bytes(&self) -> u64 {
        self.sectors * crate::types::SECTOR_SIZE as u64
    }

    /// Total device-busy time.
    pub fn busy(&self) -> SimDuration {
        self.busy
    }

    /// Mean service latency (zero if no requests).
    pub fn mean_latency(&self) -> SimDuration {
        if self.ops == 0 {
            SimDuration::ZERO
        } else {
            self.busy / self.ops
        }
    }
}

/// Submission-queue accounting maintained by the event-driven I/O
/// pipeline ([`crate::PipelinedDevice`]). At queue depth 1 every
/// request is recorded at occupancy 1 with zero wait.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueDepthStats {
    dispatches: u64,
    occupancy_sum: u64,
    max_occupancy: u64,
    wait: SimDuration,
    max_wait: SimDuration,
    busy: SimDuration,
}

impl QueueDepthStats {
    /// Requests dispatched through the queue.
    pub fn dispatches(&self) -> u64 {
        self.dispatches
    }

    /// Largest number of requests outstanding at any dispatch (including
    /// the one being dispatched).
    pub fn max_occupancy(&self) -> u64 {
        self.max_occupancy
    }

    /// Mean queue occupancy observed at dispatch instants.
    pub fn mean_occupancy(&self) -> f64 {
        if self.dispatches == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.dispatches as f64
        }
    }

    /// Total time requests spent waiting in the queue.
    pub fn total_wait(&self) -> SimDuration {
        self.wait
    }

    /// Longest single queue wait.
    pub fn max_wait(&self) -> SimDuration {
        self.max_wait
    }

    /// Mean queue wait per dispatched request.
    pub fn mean_wait(&self) -> SimDuration {
        if self.dispatches == 0 {
            SimDuration::ZERO
        } else {
            self.wait / self.dispatches
        }
    }

    /// Total device-busy (service) time booked through the queue.
    pub fn busy(&self) -> SimDuration {
        self.busy
    }

    fn record(&mut self, occupancy: u64, wait: SimDuration, service: SimDuration) {
        self.dispatches += 1;
        self.occupancy_sum += occupancy;
        self.max_occupancy = self.max_occupancy.max(occupancy);
        self.wait += wait;
        self.max_wait = self.max_wait.max(wait);
        self.busy += service;
    }

    fn merge(&mut self, other: &QueueDepthStats) {
        self.dispatches += other.dispatches;
        self.occupancy_sum += other.occupancy_sum;
        self.max_occupancy = self.max_occupancy.max(other.max_occupancy);
        self.wait += other.wait;
        self.max_wait = self.max_wait.max(other.max_wait);
        self.busy += other.busy;
    }
}

/// Cumulative statistics a [`crate::BlockDevice`] maintains.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IoStats {
    read: KindStats,
    write: KindStats,
    trim: KindStats,
    latency_hist: Histogram,
    queue: QueueDepthStats,
}

impl IoStats {
    /// Fresh, zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completed request.
    pub fn record(&mut self, kind: IoKind, sectors: u64, latency: SimDuration) {
        let k = match kind {
            IoKind::Read => &mut self.read,
            IoKind::Write => &mut self.write,
            IoKind::Trim => &mut self.trim,
        };
        k.ops += 1;
        k.sectors += sectors;
        k.busy += latency;
        self.latency_hist.record_duration(latency);
    }

    /// Record one dispatch through the submission queue.
    pub fn record_queued(&mut self, occupancy: u64, wait: SimDuration, service: SimDuration) {
        self.queue.record(occupancy, wait, service);
    }

    /// Submission-queue accounting (zero when the device is driven
    /// synchronously without a pipeline wrapper).
    pub fn queue(&self) -> &QueueDepthStats {
        &self.queue
    }

    /// Stats for one kind.
    pub fn kind(&self, kind: IoKind) -> &KindStats {
        match kind {
            IoKind::Read => &self.read,
            IoKind::Write => &self.write,
            IoKind::Trim => &self.trim,
        }
    }

    /// Request count for a kind.
    pub fn ops(&self, kind: IoKind) -> u64 {
        self.kind(kind).ops
    }

    /// Total requests of all kinds.
    pub fn total_ops(&self) -> u64 {
        self.read.ops + self.write.ops + self.trim.ops
    }

    /// Total busy time across kinds.
    pub fn total_busy(&self) -> SimDuration {
        self.read.busy + self.write.busy + self.trim.busy
    }

    /// Mean latency across all requests.
    pub fn mean_latency(&self) -> SimDuration {
        let n = self.total_ops();
        if n == 0 {
            SimDuration::ZERO
        } else {
            self.total_busy() / n
        }
    }

    /// Approximate latency quantile over all requests (log₂ buckets).
    pub fn latency_quantile(&self, q: f64) -> SimDuration {
        SimDuration::from_nanos(self.latency_hist.quantile(q))
    }

    /// Fraction of requests that are reads (0 if idle). The paper's Sec. III
    /// observes search engines are >99 % reads; the engine asserts this on
    /// its own traces.
    pub fn read_fraction(&self) -> f64 {
        let n = self.total_ops();
        if n == 0 {
            0.0
        } else {
            self.read.ops as f64 / n as f64
        }
    }

    /// Merge another accumulator (for parallel sharding).
    pub fn merge(&mut self, other: &IoStats) {
        for kind in [IoKind::Read, IoKind::Write, IoKind::Trim] {
            let (dst, src) = match kind {
                IoKind::Read => (&mut self.read, &other.read),
                IoKind::Write => (&mut self.write, &other.write),
                IoKind::Trim => (&mut self.trim, &other.trim),
            };
            dst.ops += src.ops;
            dst.sectors += src.sectors;
            dst.busy += src.busy;
        }
        self.latency_hist.merge(&other.latency_hist);
        self.queue.merge(&other.queue);
    }

    /// Zero everything.
    pub fn reset(&mut self) {
        *self = IoStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_per_kind() {
        let mut s = IoStats::new();
        s.record(IoKind::Read, 8, SimDuration::from_micros(10));
        s.record(IoKind::Read, 8, SimDuration::from_micros(20));
        s.record(IoKind::Write, 16, SimDuration::from_micros(100));
        assert_eq!(s.ops(IoKind::Read), 2);
        assert_eq!(s.ops(IoKind::Write), 1);
        assert_eq!(s.ops(IoKind::Trim), 0);
        assert_eq!(s.kind(IoKind::Read).sectors(), 16);
        assert_eq!(s.kind(IoKind::Read).bytes(), 16 * 512);
        assert_eq!(
            s.kind(IoKind::Read).mean_latency(),
            SimDuration::from_micros(15)
        );
        assert_eq!(s.total_ops(), 3);
        assert_eq!(s.total_busy(), SimDuration::from_micros(130));
    }

    #[test]
    fn read_fraction() {
        let mut s = IoStats::new();
        assert_eq!(s.read_fraction(), 0.0);
        for _ in 0..99 {
            s.record(IoKind::Read, 1, SimDuration::ZERO);
        }
        s.record(IoKind::Write, 1, SimDuration::ZERO);
        assert!((s.read_fraction() - 0.99).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = IoStats::new();
        let mut b = IoStats::new();
        a.record(IoKind::Read, 4, SimDuration::from_micros(5));
        b.record(IoKind::Read, 4, SimDuration::from_micros(15));
        b.record(IoKind::Trim, 1, SimDuration::ZERO);
        a.merge(&b);
        assert_eq!(a.ops(IoKind::Read), 2);
        assert_eq!(a.ops(IoKind::Trim), 1);
        assert_eq!(
            a.kind(IoKind::Read).mean_latency(),
            SimDuration::from_micros(10)
        );
    }

    #[test]
    fn reset_zeroes() {
        let mut s = IoStats::new();
        s.record(IoKind::Write, 4, SimDuration::from_micros(5));
        s.reset();
        assert_eq!(s.total_ops(), 0);
        assert_eq!(s.mean_latency(), SimDuration::ZERO);
    }

    #[test]
    fn queue_section_accumulates_and_merges() {
        let mut s = IoStats::new();
        s.record_queued(1, SimDuration::ZERO, SimDuration::from_micros(10));
        s.record_queued(
            3,
            SimDuration::from_micros(20),
            SimDuration::from_micros(10),
        );
        assert_eq!(s.queue().dispatches(), 2);
        assert_eq!(s.queue().max_occupancy(), 3);
        assert!((s.queue().mean_occupancy() - 2.0).abs() < 1e-12);
        assert_eq!(s.queue().total_wait(), SimDuration::from_micros(20));
        assert_eq!(s.queue().max_wait(), SimDuration::from_micros(20));
        assert_eq!(s.queue().mean_wait(), SimDuration::from_micros(10));
        assert_eq!(s.queue().busy(), SimDuration::from_micros(20));
        let mut t = IoStats::new();
        t.record_queued(5, SimDuration::from_micros(4), SimDuration::from_micros(1));
        s.merge(&t);
        assert_eq!(s.queue().dispatches(), 3);
        assert_eq!(s.queue().max_occupancy(), 5);
        s.reset();
        assert_eq!(s.queue(), &QueueDepthStats::default());
    }

    #[test]
    fn quantile_reflects_distribution() {
        let mut s = IoStats::new();
        for _ in 0..90 {
            s.record(IoKind::Read, 1, SimDuration::from_micros(10));
        }
        for _ in 0..10 {
            s.record(IoKind::Read, 1, SimDuration::from_millis(2));
        }
        assert!(s.latency_quantile(0.5) < SimDuration::from_micros(33));
        assert!(s.latency_quantile(0.99) >= SimDuration::from_millis(1));
    }
}
