//! The SSD stores mark their own writes and trims as background work.
//!
//! A background request on a `PipelinedDevice` dispatches at once and
//! returns its service latency; a foreground one behind a busy device is
//! also charged the queue wait. So at depth 4, with nothing but the stores
//! flagging requests, every store write and trim must cost exactly one
//! service time, however many precede it on the device.

#![expect(
    clippy::disallowed_methods,
    reason = "drives the stores below the admission gate to time their requests"
)]

use hybridcache::ssd::{ListStore, ResultStore, SlotRegion};
use hybridcache::{HybridConfig, BLOCK_BYTES};
use simclock::SimDuration;
use storagecore::{NullSink, PipelinedDevice, RamDisk};

#[test]
fn store_writes_and_trims_dispatch_as_background() {
    let service = SimDuration::from_micros(10);
    let mut dev = PipelinedDevice::new(RamDisk::with_capacity_bytes(64 << 20, service), NullSink);
    dev.set_depth(4);

    let mut lists: ListStore = ListStore::new(SlotRegion::new(0, 4), true, 2, 0.0);
    let (written, t) = lists.offer(1, 2, 2 * BLOCK_BYTES, 1, &mut dev);
    assert!(written);
    assert_eq!(t, service * 2, "two block writes, neither waits");
    assert_eq!(
        lists.invalidate(1, &mut dev),
        service * 2,
        "two trims, neither waits"
    );

    let rb_base = 4 * HybridConfig::sectors_per_block();
    let mut results: ResultStore<u32> = ResultStore::new(SlotRegion::new(rb_base, 2), true, 2, 0.0);
    let flush: SimDuration = (0..HybridConfig::entries_per_rb() as u64)
        .map(|id| results.offer(id, 0, 1, &mut dev))
        .sum();
    assert_eq!(
        flush, service,
        "one RB write behind four on the device, no wait"
    );
}
