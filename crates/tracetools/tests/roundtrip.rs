//! Trace round-trip: a submit/complete trace recorded by the event-driven
//! pipeline and replayed onto a fresh device must reproduce the original
//! device's `IoStats` exactly.

use hddsim::{HddDisk, HddParams};
use simclock::{Rng, SimDuration, SimTime};
use storagecore::{BlockDevice, Extent, IoRequest, PipelinedDevice, RamDisk, VecSink};
use tracetools::replay;

const RAM_LATENCY: SimDuration = SimDuration::from_micros(8);

fn ram() -> RamDisk {
    RamDisk::with_capacity_bytes(1 << 20, RAM_LATENCY)
}

/// Record a queued trace on a RamDisk: batches of reads plus the odd
/// write, submitted four-deep, with host time advancing between batches.
fn record_queued_ram_trace() -> (PipelinedDevice<RamDisk, VecSink>, Vec<storagecore::IoEvent>) {
    let mut dev = PipelinedDevice::new(ram(), VecSink::new());
    dev.set_depth(4);
    let mut rng = Rng::new(7);
    let sectors = dev.geometry().sectors;
    let mut now = SimTime::ZERO;
    for batch in 0..25 {
        dev.set_now(now);
        let mut ids = Vec::new();
        for i in 0..4u64 {
            let lba = rng.next_below(sectors - 8);
            let req = if batch % 5 == 0 && i == 0 {
                IoRequest::write(Extent::new(lba, 8))
            } else {
                IoRequest::read(Extent::new(lba, 8))
            };
            ids.push(dev.submit(req).expect("in range"));
        }
        for id in ids {
            let completion = dev.wait(id).expect("served");
            now = now.max(completion.finish_at);
        }
        now += SimDuration::from_micros(3); // host compute between batches
    }
    let events = dev.sink().events().to_vec();
    (dev, events)
}

#[test]
fn queued_ram_trace_replays_to_identical_stats() {
    let (dev, events) = record_queued_ram_trace();

    let mut fresh = ram();
    let report = replay(&mut fresh, &events);
    assert_eq!(report.served, events.len() as u64);
    assert_eq!(report.rejected, 0);
    assert_eq!(
        fresh.stats(),
        dev.inner().stats(),
        "replay reproduces the recorded device's stats bit-identically"
    );
}

#[test]
fn queued_ram_trace_carries_measured_queue_depth() {
    let (dev, events) = record_queued_ram_trace();
    let queue = dev.stats().queue();
    assert_eq!(queue.dispatches(), events.len() as u64);
    assert!(
        queue.max_occupancy() > 1,
        "four-deep submission must overlap ({} outstanding)",
        queue.max_occupancy()
    );
    // The trace carries the wait: start - at summed over its events is
    // the quantity the device-side queue accounting books.
    let trace_wait: SimDuration = events.iter().map(|e| e.start.since(e.at)).sum();
    assert!(trace_wait > SimDuration::ZERO, "later batch members queue");
    assert_eq!(trace_wait, queue.total_wait());
}

#[test]
fn hdd_trace_replay_reproduces_seek_history() {
    // The HDD is position-stateful: per-request latency depends on where
    // the previous request left the head. Replaying the recorded order
    // must walk the same seek history and land on identical stats.
    let params = HddParams::small_test_disk(1 << 30);
    let mut rec = PipelinedDevice::new(HddDisk::new(params.clone()), VecSink::new());
    let mut rng = Rng::new(11);
    let sectors = rec.geometry().sectors;
    for _ in 0..200 {
        let lba = rng.next_below(sectors - 16);
        rec.read(Extent::new(lba, 16)).expect("in range");
    }
    let events = rec.sink().events().to_vec();

    let queue = rec.stats().queue();
    assert_eq!(queue.max_occupancy(), 1, "depth 1 never overlaps");
    assert_eq!(queue.total_wait(), SimDuration::ZERO);

    let mut fresh = HddDisk::new(params);
    let report = replay(&mut fresh, &events);
    assert_eq!(report.served, 200);
    assert_eq!(fresh.stats(), rec.inner().stats());
    assert_eq!(fresh.head_position(), rec.inner().head_position());
}
