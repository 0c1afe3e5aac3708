//! The position-stateful disk model.

use simclock::SimDuration;
use storagecore::{BlockDevice, Extent, Geometry, IoError, IoKind, IoStats, Lba};

use crate::params::HddParams;

/// A simulated mechanical disk.
///
/// The model keeps the head position (the LBA after the last mechanical
/// access) and the read-ahead window filled by the last read. Request
/// latency decomposes as `overhead + seek + rotation + transfer`, where
/// seek and rotation are waived for buffer hits and sequential appends.
#[derive(Debug, Clone)]
pub struct HddDisk {
    params: HddParams,
    geometry: Geometry,
    /// LBA following the last mechanically-serviced request.
    head: Lba,
    /// Read-ahead window `[start, end)` held in the track buffer.
    buffer: Option<(Lba, Lba)>,
    stats: IoStats,
    /// Seeks actually performed (mechanical moves), for locality analysis.
    seeks: u64,
}

impl HddDisk {
    /// Build a disk from parameters. Panics on invalid parameters — a
    /// mis-built simulator should fail loudly at construction.
    pub fn new(params: HddParams) -> Self {
        params.validate().expect("invalid HDD parameters");
        let geometry = Geometry::from_bytes(params.capacity_bytes);
        HddDisk {
            params,
            geometry,
            head: 0,
            buffer: None,
            stats: IoStats::new(),
            seeks: 0,
        }
    }

    /// The paper's drive.
    pub fn wd3200aajs() -> Self {
        Self::new(HddParams::wd3200aajs())
    }

    /// The model parameters.
    pub fn params(&self) -> &HddParams {
        &self.params
    }

    /// Mechanical seeks performed so far.
    pub fn seek_count(&self) -> u64 {
        self.seeks
    }

    /// Seek time for a head move of `distance` sectors using the
    /// Ruemmler–Wilkes-style curve: square-root ramp over the first third
    /// of the stroke (calibrated so a one-third-stroke seek costs
    /// `seek_avg`), linear from there to `seek_full`.
    fn seek_time(&self, distance: u64) -> SimDuration {
        if distance == 0 {
            return SimDuration::ZERO;
        }
        let stroke = self.geometry.sectors.max(1);
        let frac = distance as f64 / stroke as f64;
        let track = self.params.seek_track.as_nanos() as f64;
        let avg = self.params.seek_avg.as_nanos() as f64;
        let full = self.params.seek_full.as_nanos() as f64;
        let ns = if frac <= 1.0 / 3.0 {
            // track + (avg - track) * sqrt(3 * frac)
            track + (avg - track) * (3.0 * frac).sqrt()
        } else {
            // Linear from (1/3, avg) to (1, full).
            avg + (full - avg) * (frac - 1.0 / 3.0) / (2.0 / 3.0)
        };
        SimDuration::from_nanos(ns.round() as u64)
    }

    /// Whether `extent` is entirely inside the read-ahead buffer.
    fn buffer_hit(&self, extent: &Extent) -> bool {
        match self.buffer {
            Some((start, end)) => extent.lba >= start && extent.end() <= end,
            None => false,
        }
    }

    fn mechanical_cost(&mut self, extent: Extent) -> SimDuration {
        let distance = self.head.abs_diff(extent.lba);
        if distance == 0 {
            // Sequential append: the head is already there and the sector
            // is just arriving under it — no seek, no rotational wait.
            SimDuration::ZERO
        } else {
            self.seeks += 1;
            self.seek_time(distance) + self.params.rotational_latency()
        }
    }

    fn service(&mut self, kind: IoKind, extent: Extent) -> Result<SimDuration, IoError> {
        self.check(extent)?;
        let mut latency = self.params.command_overhead;
        let buffered = kind == IoKind::Read && self.buffer_hit(&extent);
        if !buffered {
            latency += self.mechanical_cost(extent);
            self.head = extent.end();
            if kind == IoKind::Read {
                // The drive streams the track into its buffer as it reads.
                self.buffer = Some((
                    extent.lba,
                    (extent.end() + self.params.readahead_sectors).min(self.geometry.sectors),
                ));
            } else {
                // A write invalidates any overlapping read-ahead window
                // (conservatively: drop it entirely).
                self.buffer = None;
            }
        }
        latency += self.params.transfer(extent.bytes());
        self.stats.record(kind, extent.sectors, latency);
        Ok(latency)
    }
}

impl BlockDevice for HddDisk {
    fn geometry(&self) -> Geometry {
        self.geometry
    }

    fn read(&mut self, extent: Extent) -> Result<SimDuration, IoError> {
        self.service(IoKind::Read, extent)
    }

    fn write(&mut self, extent: Extent) -> Result<SimDuration, IoError> {
        self.service(IoKind::Write, extent)
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Expose the head for NCQ-style seek-distance scheduling.
    fn head_position(&self) -> Lba {
        self.head
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> HddDisk {
        HddDisk::new(HddParams::small_test_disk(1 << 30)) // 1 GiB, 2 Mi sectors
    }

    #[test]
    fn random_read_costs_seek_rotation_transfer() {
        let mut d = disk();
        let far = d.geometry().sectors / 2;
        let t = d.read(Extent::new(far, 8)).unwrap();
        // Must include at least rotational latency (4.17 ms) and be less
        // than full-stroke + rotation + generous slack.
        assert!(t > SimDuration::from_millis(4), "t = {t}");
        assert!(t < SimDuration::from_millis(30), "t = {t}");
        assert_eq!(d.seek_count(), 1);
    }

    #[test]
    fn sequential_append_skips_mechanics() {
        let mut d = disk();
        let t0 = d.read(Extent::new(1_000_000, 8)).unwrap();
        // Way outside the buffer window, but exactly at the head: a
        // sequential *write* continues without a seek.
        let t1 = d.write(Extent::new(1_000_008, 8)).unwrap();
        assert!(t1 < t0 / 10, "t0 = {t0}, t1 = {t1}");
        assert_eq!(d.seek_count(), 1);
    }

    #[test]
    fn readahead_buffer_serves_short_forward_reads() {
        let mut d = disk();
        d.read(Extent::new(500_000, 8)).unwrap();
        // Next sectors are in the read-ahead window.
        let t = d.read(Extent::new(500_008, 8)).unwrap();
        let expect = d.params().command_overhead + d.params().transfer(8 * 512);
        assert_eq!(t, expect);
        assert_eq!(d.seek_count(), 1, "buffer hit must not seek");
    }

    #[test]
    fn write_invalidates_readahead() {
        let mut d = disk();
        d.read(Extent::new(500_000, 8)).unwrap();
        d.write(Extent::new(500_100, 1)).unwrap();
        // Would have been a buffer hit before the write.
        let t = d.read(Extent::new(500_008, 8)).unwrap();
        assert!(t > SimDuration::from_millis(4), "t = {t}");
    }

    #[test]
    fn seek_curve_is_monotone_and_bounded() {
        let d = disk();
        let stroke = d.geometry().sectors;
        let mut prev = SimDuration::ZERO;
        for frac in [0.0001, 0.001, 0.01, 0.1, 1.0 / 3.0, 0.5, 0.9, 1.0] {
            let dist = ((stroke as f64) * frac) as u64;
            let t = d.seek_time(dist);
            assert!(t >= prev, "seek curve must be monotone (frac {frac})");
            prev = t;
        }
        assert!(d.seek_time(1) >= d.params().seek_track * 9 / 10);
        assert!(d.seek_time(stroke) <= d.params().seek_full + SimDuration::from_micros(1));
    }

    #[test]
    fn one_third_stroke_costs_average_seek() {
        let d = disk();
        let t = d.seek_time(d.geometry().sectors / 3);
        let avg = d.params().seek_avg;
        let err = t.as_nanos().abs_diff(avg.as_nanos());
        assert!(err < avg.as_nanos() / 100, "t = {t}, avg = {avg}");
    }

    #[test]
    fn zero_distance_seek_is_free() {
        let d = disk();
        assert_eq!(d.seek_time(0), SimDuration::ZERO);
    }

    #[test]
    fn random_pattern_is_much_slower_than_sequential() {
        // The property the whole paper rests on.
        let mut rnd = disk();
        let mut seq = disk();
        let sectors = rnd.geometry().sectors;
        let mut rng = simclock::Rng::new(42);
        let mut t_rnd = SimDuration::ZERO;
        let mut t_seq = SimDuration::ZERO;
        let mut cursor = 0;
        for _ in 0..200 {
            let lba = rng.next_below(sectors - 8);
            t_rnd += rnd.read(Extent::new(lba, 8)).unwrap();
            t_seq += seq.read(Extent::new(cursor, 8)).unwrap();
            cursor += 8;
        }
        assert!(
            t_rnd > t_seq * 20,
            "random {t_rnd} should dwarf sequential {t_seq}"
        );
    }

    #[test]
    fn stats_track_reads_and_writes() {
        let mut d = disk();
        d.read(Extent::new(0, 4)).unwrap();
        d.write(Extent::new(100, 4)).unwrap();
        assert_eq!(d.stats().ops(IoKind::Read), 1);
        assert_eq!(d.stats().ops(IoKind::Write), 1);
        d.reset_stats();
        assert_eq!(d.stats().total_ops(), 0);
    }

    #[test]
    fn elevator_ncq_shortens_seek_travel() {
        use storagecore::{IoRequest, NullSink, PipelinedDevice};
        // Submission order alternates between a low and a high band — the
        // worst case for reading in submission order, which seeks across
        // the stroke every request. The queue's nearest-first order sweeps
        // each band in turn.
        let lbas = [
            0u64, 1_500_000, 60_000, 1_560_000, 120_000, 1_620_000, 180_000, 1_680_000,
        ];
        let mut fifo = disk();
        for &lba in &lbas {
            fifo.read(Extent::new(lba, 8)).unwrap();
        }
        let mut d = PipelinedDevice::new(disk(), NullSink);
        d.set_depth(8);
        for &lba in &lbas {
            d.submit(IoRequest::read(Extent::new(lba, 8))).unwrap();
        }
        d.wait_all().unwrap();
        assert_eq!(d.stats().queue().max_occupancy(), 8);
        let elevator = d.stats().total_busy();
        let fifo = fifo.stats().total_busy();
        assert!(
            elevator * 2 < fifo,
            "NCQ reorder should at least halve seek travel: {elevator} vs {fifo}"
        );
    }

    #[test]
    fn head_position_tracks_last_access() {
        let mut d = disk();
        assert_eq!(d.head_position(), 0);
        d.read(Extent::new(600_000, 8)).unwrap();
        assert_eq!(d.head_position(), 600_008);
    }

    #[test]
    fn trim_is_unsupported() {
        let mut d = disk();
        assert_eq!(
            d.trim(Extent::new(0, 1)),
            Err(IoError::Unsupported(IoKind::Trim))
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = disk();
        let sectors = d.geometry().sectors;
        assert!(matches!(
            d.read(Extent::new(sectors, 1)),
            Err(IoError::OutOfRange { .. })
        ));
    }
}
