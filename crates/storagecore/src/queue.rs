//! The event-driven I/O pipeline: explicit submit/complete request path
//! with per-device queueing and pluggable scheduling.
//!
//! The synchronous [`BlockDevice`] contract models a host that issues one
//! command and waits: nothing ever overlaps. [`PipelinedDevice`] wraps any
//! device behind an explicit request/completion pipeline: requests become
//! [`IoRequest`]s in a submission queue of at most `depth` outstanding
//! commands. A [`SchedulerPolicy`] picks the dispatch order; dispatch
//! consults the device's lane topology ([`BlockDevice::lanes`] /
//! [`BlockDevice::lane_of`]) so independent operations on different
//! lanes overlap in simulated time. Completions carry submit, start and
//! finish timestamps; a request's *response* is `finish - submit`,
//! which includes queue wait — the quantity a latency-honest driver
//! reports.
//!
//! **Depth 1 is the synchronous model.** With one command in flight, its
//! completion delivered before the host proceeds, the device is never
//! observably busy when a request arrives. Dispatch therefore uses
//! `start = submit` at depth 1 (the lane-busy horizon is only consulted
//! at depth ≥ 2): no wait accrues, response equals service, and every
//! scheduler picks the same (only) candidate — so every latency,
//! statistic and device-state transition is what calling the wrapped
//! device directly would produce.
//!
//! **The host clock.** Submissions are stamped with the wrapper's clock,
//! which the driver syncs through [`BlockDevice::set_now`] (monotone).
//! At depth 1 — and only there — the wrapper also advances it to each
//! completion's finish: the synchronous host has lived through that
//! request, so a driver that never syncs reads as issuing requests
//! back-to-back, and the clock is invisible to every latency and
//! statistic (`start = submit`, whatever `submit` is). At depth ≥ 2 only
//! the driver moves it: `CacheManager` issues several device operations
//! per lookup without re-syncing, and they are modelled as submitted at
//! one instant. A depth-1 clock may therefore run ahead of its driver's
//! (after background work the driver did not wait for); a driver that
//! reads completion timestamps measures them against
//! [`PipelinedDevice::now`], not its own clock.
//!
//! **Background requests.** Requests flagged [`IoRequest::background`]
//! (cache write-buffer flushes, trims of dead entries) dispatch
//! immediately in submission order — preserving the wrapped device's
//! state evolution (FTL wear, head position) at every depth — but their
//! completions still extend the lane-busy horizon, so at depth ≥ 2
//! foreground reads arriving behind a flush either wait for the lane or
//! overlap on another channel. The call returns the *service* latency
//! (what the device charged), matching the synchronous contract that
//! background accounting was built on.

use invariant::{audit, Report, Validate};
use simclock::{SimDuration, SimTime};

use crate::device::{BlockDevice, IoError};
use crate::stats::IoStats;
use crate::trace::{IoEvent, NullSink, TraceSink};
use crate::types::{Extent, Geometry, IoKind, Lba};

/// Dispatch-order policy for the submission queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerPolicy {
    /// Strict submission order — the reference policy.
    Fifo,
    /// NCQ-style shortest-seek-first: dispatch the pending request whose
    /// first LBA is nearest the device head ([`BlockDevice::head_position`]);
    /// ties break on submission order. On multi-lane devices with no head
    /// this degenerates to an LBA-proximity order, which is harmless.
    Elevator,
}

/// One block-level request in the explicit pipeline. This is the single
/// request-construction path: trace replay, the schedulers and the
/// synchronous convenience methods all build one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoRequest {
    /// Operation kind.
    pub kind: IoKind,
    /// Addressed sectors.
    pub extent: Extent,
    /// Off the critical path: dispatches immediately (in submission
    /// order) and the submitter does not wait for its completion.
    pub background: bool,
}

impl IoRequest {
    /// A foreground request.
    pub fn new(kind: IoKind, extent: Extent) -> Self {
        IoRequest {
            kind,
            extent,
            background: false,
        }
    }

    /// A foreground read.
    pub fn read(extent: Extent) -> Self {
        Self::new(IoKind::Read, extent)
    }

    /// A foreground write.
    pub fn write(extent: Extent) -> Self {
        Self::new(IoKind::Write, extent)
    }

    /// A foreground trim.
    pub fn trim(extent: Extent) -> Self {
        Self::new(IoKind::Trim, extent)
    }

    /// Mark the request as background work.
    pub fn background(mut self) -> Self {
        self.background = true;
        self
    }
}

/// A completed request with its lifecycle timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoCompletion {
    /// Queue-assigned id, unique per device, in submission order.
    pub id: u64,
    /// The request as dispatched.
    pub request: IoRequest,
    /// When the host submitted it.
    pub submit_at: SimTime,
    /// When the device started servicing it (`submit_at` plus queue wait).
    pub start_at: SimTime,
    /// When the device delivered the completion.
    pub finish_at: SimTime,
    /// Pure device service time (`finish_at - start_at`).
    pub service: SimDuration,
}

impl IoCompletion {
    /// Host-observed response time: queue wait plus service.
    pub fn response(&self) -> SimDuration {
        self.finish_at.since(self.submit_at)
    }

    /// Time spent waiting in the queue before the device was free.
    pub fn wait(&self) -> SimDuration {
        self.start_at.since(self.submit_at)
    }
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    id: u64,
    request: IoRequest,
    submit_at: SimTime,
}

/// A [`BlockDevice`] behind the explicit submit/complete pipeline.
///
/// The wrapper keeps a host-side clock (synced by the driver through
/// [`BlockDevice::set_now`]; self-advancing at depth 1 — see the module
/// docs), a per-lane busy horizon, its own [`IoStats`] mirror (kind
/// counters identical to the inner device's, plus the queue-depth
/// section), and a [`TraceSink`] that receives one
/// submit/start/finish-stamped [`IoEvent`] per completion.
#[derive(Debug)]
pub struct PipelinedDevice<D, S = NullSink> {
    inner: D,
    sink: S,
    depth: usize,
    policy: SchedulerPolicy,
    pending: Vec<Pending>,
    done: Vec<IoCompletion>,
    lane_busy: Vec<SimTime>,
    now: SimTime,
    next_id: u64,
    seq: u64,
    stats: IoStats,
}

impl<D: BlockDevice, S: TraceSink> PipelinedDevice<D, S> {
    /// Wrap `inner`, sending completion events to `sink`. Starts at
    /// queue depth 1 under [`SchedulerPolicy::Fifo`].
    pub fn new(inner: D, sink: S) -> Self {
        let lanes = inner.lanes().max(1) as usize;
        PipelinedDevice {
            inner,
            sink,
            depth: 1,
            policy: SchedulerPolicy::Fifo,
            pending: Vec::new(),
            done: Vec::new(),
            lane_busy: vec![SimTime::ZERO; lanes],
            now: SimTime::ZERO,
            next_id: 0,
            seq: 0,
            stats: IoStats::new(),
        }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The trace sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Mutable sink access (e.g. to drain buffered events).
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Maximum outstanding foreground requests.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Change the queue depth at runtime (0 is taken as 1). The
    /// submission queue must be idle (it always is between driver
    /// operations — waits drain it).
    pub fn set_depth(&mut self, depth: usize) {
        assert!(
            self.pending.is_empty(),
            "cannot change the queue depth with requests in flight"
        );
        self.depth = depth.max(1);
    }

    /// The active scheduler policy.
    pub fn policy(&self) -> SchedulerPolicy {
        self.policy
    }

    /// Switch the scheduler policy at runtime.
    pub fn set_policy(&mut self, policy: SchedulerPolicy) {
        self.policy = policy;
    }

    /// The host clock as the wrapper knows it.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Submit a request into the queue, returning its id. A background
    /// request dispatches immediately; its completion is still retained
    /// for a later [`PipelinedDevice::wait`]. If the submission overflows
    /// the queue depth, the scheduler dispatches pending requests to make
    /// room.
    pub fn submit(&mut self, request: IoRequest) -> Result<u64, IoError> {
        self.inner.check(request.extent)?;
        let id = self.next_id;
        self.next_id += 1;
        let submit_at = self.now;
        if request.background {
            let completion = self.run_request(id, request, submit_at, 1)?;
            self.done.push(completion);
            audit!(self, "PipelinedDevice::submit(background)");
            return Ok(id);
        }
        self.pending.push(Pending {
            id,
            request,
            submit_at,
        });
        while self.pending.len() > self.depth {
            self.dispatch_one()?;
        }
        audit!(self, "PipelinedDevice::submit");
        Ok(id)
    }

    /// Convenience: submit a foreground read.
    pub fn submit_read(&mut self, extent: Extent) -> Result<u64, IoError> {
        self.submit(IoRequest::read(extent))
    }

    /// Dispatch until the completion for `id` exists, then return it.
    pub fn wait(&mut self, id: u64) -> Result<IoCompletion, IoError> {
        loop {
            if let Some(pos) = self.done.iter().position(|c| c.id == id) {
                let completion = self.done.swap_remove(pos);
                audit!(self, "PipelinedDevice::wait");
                return Ok(completion);
            }
            assert!(
                self.pending.iter().any(|p| p.id == id),
                "waiting on unknown request id {id}"
            );
            self.dispatch_one()?;
        }
    }

    /// Dispatch everything pending and drain all retained completions
    /// (submission order).
    pub fn wait_all(&mut self) -> Result<Vec<IoCompletion>, IoError> {
        while !self.pending.is_empty() {
            self.dispatch_one()?;
        }
        let mut done = std::mem::take(&mut self.done);
        done.sort_unstable_by_key(|c| c.id);
        audit!(self, "PipelinedDevice::wait_all");
        Ok(done)
    }

    /// Number of requests currently in the submission queue.
    pub fn queued(&self) -> usize {
        self.pending.len()
    }

    /// Pick the next request per the scheduler policy and dispatch it.
    fn dispatch_one(&mut self) -> Result<(), IoError> {
        debug_assert!(!self.pending.is_empty());
        let idx = self.select();
        let Pending {
            id,
            request,
            submit_at,
        } = self.pending.remove(idx);
        let outstanding = self.pending.len() as u64 + 1;
        let completion = self.run_request(id, request, submit_at, outstanding)?;
        self.done.push(completion);
        Ok(())
    }

    /// Index into `pending` of the next request to dispatch.
    fn select(&self) -> usize {
        match self.policy {
            SchedulerPolicy::Fifo => 0,
            SchedulerPolicy::Elevator => self.nearest(),
        }
    }

    /// Pending index nearest the device head; ties break on submission
    /// order for determinism.
    fn nearest(&self) -> usize {
        let head: Lba = self.inner.head_position();
        self.pending
            .iter()
            .enumerate()
            .min_by_key(|(_, p)| (p.request.extent.lba.abs_diff(head), p.id))
            .map(|(i, _)| i)
            .expect("select on empty queue")
    }

    /// Run one request on the inner device and book its timeline. This is
    /// the only place inner-device state advances, so dispatch order *is*
    /// device order.
    fn run_request(
        &mut self,
        id: u64,
        request: IoRequest,
        submit_at: SimTime,
        outstanding: u64,
    ) -> Result<IoCompletion, IoError> {
        let service = self.inner.request(&request)?;
        // Depth 1 degenerates to the synchronous call-tree: the device is
        // never observably busy when a request arrives, so `start` pins to
        // the submission instant and no queue wait can accrue.
        let lane = self.inner.lane_of(request.extent);
        let start = if self.depth == 1 {
            submit_at
        } else {
            let horizon = match lane {
                Some(l) => self.lane_busy[l as usize % self.lane_busy.len()],
                None => self.busy_horizon(),
            };
            submit_at.max(horizon)
        };
        let finish = start + service;
        // GC/erase work detected by the device serializes the whole
        // package: the barrier retroactively occupies every lane.
        let barrier = self.inner.last_op_barrier() || lane.is_none();
        if barrier {
            for b in &mut self.lane_busy {
                *b = (*b).max(finish);
            }
        } else if let Some(l) = lane {
            let idx = l as usize % self.lane_busy.len();
            let slot = &mut self.lane_busy[idx];
            *slot = (*slot).max(finish);
        }
        self.stats
            .record(request.kind, request.extent.sectors, service);
        self.stats
            .record_queued(outstanding, start.since(submit_at), service);
        self.sink.record(IoEvent {
            seq: self.seq,
            at: submit_at,
            kind: request.kind,
            extent: request.extent,
            latency: service,
            start,
            finish,
        });
        self.seq += 1;
        if self.depth == 1 {
            self.now = self.now.max(finish);
        }
        Ok(IoCompletion {
            id,
            request,
            submit_at,
            start_at: start,
            finish_at: finish,
            service,
        })
    }

    /// Latest busy time across all lanes.
    fn busy_horizon(&self) -> SimTime {
        self.lane_busy
            .iter()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Synchronous dispatch: the host-observed response of a foreground
    /// request (wait + service; equal to the service latency at depth 1),
    /// or the device's service latency for a background one, whose
    /// submitter does not wait. A background request never queues, and
    /// with nothing pending there is nothing to schedule a foreground one
    /// against: both dispatch on the spot — what submit + wait would do,
    /// minus a queue round trip on every cache-SSD operation. No
    /// completion is retained.
    fn sync_request(&mut self, request: IoRequest) -> Result<SimDuration, IoError> {
        if request.background || self.pending.is_empty() {
            self.inner.check(request.extent)?;
            let id = self.next_id;
            self.next_id += 1;
            let completion = self.run_request(id, request, self.now, 1)?;
            audit!(self, "PipelinedDevice::sync_request(immediate)");
            return Ok(if request.background {
                completion.service
            } else {
                completion.response()
            });
        }
        let id = self.submit(request)?;
        Ok(self.wait(id)?.response())
    }
}

impl<D: BlockDevice, S: TraceSink> BlockDevice for PipelinedDevice<D, S> {
    fn geometry(&self) -> Geometry {
        self.inner.geometry()
    }

    fn read(&mut self, extent: Extent) -> Result<SimDuration, IoError> {
        self.request(&IoRequest::read(extent))
    }

    fn write(&mut self, extent: Extent) -> Result<SimDuration, IoError> {
        self.request(&IoRequest::write(extent))
    }

    fn trim(&mut self, extent: Extent) -> Result<SimDuration, IoError> {
        self.request(&IoRequest::trim(extent))
    }

    fn request(&mut self, req: &IoRequest) -> Result<SimDuration, IoError> {
        self.sync_request(*req)
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
        self.inner.reset_stats();
    }

    fn lanes(&self) -> u32 {
        self.inner.lanes()
    }

    fn lane_of(&self, extent: Extent) -> Option<u32> {
        self.inner.lane_of(extent)
    }

    fn head_position(&self) -> Lba {
        self.inner.head_position()
    }

    fn last_op_barrier(&self) -> bool {
        self.inner.last_op_barrier()
    }

    fn set_now(&mut self, now: SimTime) {
        self.now = self.now.max(now);
    }
}

impl<D: BlockDevice, S: TraceSink> Validate for PipelinedDevice<D, S> {
    #[expect(
        clippy::disallowed_types,
        reason = "the id set only answers membership; it is never iterated"
    )]
    fn validate(&self, report: &mut Report) {
        let subject = "PipelinedDevice";
        report.check(
            self.lane_busy.len() == self.inner.lanes().max(1) as usize,
            subject,
            "lane-count",
            || {
                format!(
                    "{} busy horizons for a {}-lane device",
                    self.lane_busy.len(),
                    self.inner.lanes()
                )
            },
        );
        report.check(
            self.pending.len() <= self.depth,
            subject,
            "queue-depth",
            || {
                format!(
                    "{} pending requests exceed depth {}",
                    self.pending.len(),
                    self.depth
                )
            },
        );
        // The queue holds requests in submission order: ids strictly
        // increasing, all drawn from the id counter, stamped no later
        // than the host clock.
        let mut seen = std::collections::HashSet::new();
        let mut prev_id: Option<u64> = None;
        for p in &self.pending {
            report.check(p.id < self.next_id, subject, "id-allocated", || {
                format!(
                    "pending id {} not yet allocated (next {})",
                    p.id, self.next_id
                )
            });
            report.check(seen.insert(p.id), subject, "id-unique", || {
                format!("duplicate in-flight id {}", p.id)
            });
            report.check(
                prev_id.is_none_or(|prev| prev < p.id),
                subject,
                "pending-order",
                || format!("pending ids out of submission order at id {}", p.id),
            );
            prev_id = Some(p.id);
            report.check(p.submit_at <= self.now, subject, "submit-clock", || {
                format!("pending id {} submitted in the future", p.id)
            });
        }
        // Retained completions: coherent timelines, booked lane horizons.
        for c in &self.done {
            report.check(c.id < self.next_id, subject, "id-allocated", || {
                format!(
                    "completion id {} not yet allocated (next {})",
                    c.id, self.next_id
                )
            });
            report.check(seen.insert(c.id), subject, "id-unique", || {
                format!("completion id {} duplicates an in-flight or done id", c.id)
            });
            report.check(
                c.submit_at <= c.start_at && c.start_at <= c.finish_at,
                subject,
                "completion-timeline",
                || {
                    format!(
                        "id {}: submit {:?} / start {:?} / finish {:?} out of order",
                        c.id, c.submit_at, c.start_at, c.finish_at
                    )
                },
            );
            report.check(
                c.service == c.finish_at.since(c.start_at),
                subject,
                "service-agree",
                || format!("id {}: service {:?} != finish - start", c.id, c.service),
            );
            // Lane horizons only advance, and every dispatch raises its
            // lane (or all lanes, for barriers) to at least its finish
            // time — so each retained completion is covered by the
            // current horizon of its lane.
            let covered = match self.inner.lane_of(c.request.extent) {
                Some(l) => self.lane_busy[l as usize % self.lane_busy.len()] >= c.finish_at,
                None => self.busy_horizon() >= c.finish_at,
            };
            report.check(covered, subject, "lane-horizon", || {
                format!(
                    "id {} finished at {:?} beyond its lane's busy horizon",
                    c.id, c.finish_at
                )
            });
        }
        // Occupancy accounting: the queue section books exactly one
        // dispatch (at occupancy >= 1) with the service time also charged
        // to the per-kind counters, so the two sections stay in lockstep.
        let q = self.stats.queue();
        report.check(
            q.dispatches() == self.stats.total_ops(),
            subject,
            "dispatch-ops-agree",
            || {
                format!(
                    "{} queue dispatches vs {} ops recorded",
                    q.dispatches(),
                    self.stats.total_ops()
                )
            },
        );
        report.check(
            q.busy() == self.stats.total_busy(),
            subject,
            "busy-agree",
            || {
                format!(
                    "queue busy {:?} vs per-kind busy {:?}",
                    q.busy(),
                    self.stats.total_busy()
                )
            },
        );
        if q.dispatches() > 0 {
            report.check(
                q.max_occupancy() >= 1 && q.mean_occupancy() >= 1.0,
                subject,
                "occupancy-floor",
                || {
                    format!(
                        "max occupancy {} / mean {:.3} below the dispatching request itself",
                        q.max_occupancy(),
                        q.mean_occupancy()
                    )
                },
            );
        }
        report.check(
            q.max_wait() <= q.total_wait(),
            subject,
            "wait-bounds",
            || {
                format!(
                    "max wait {:?} exceeds total wait {:?}",
                    q.max_wait(),
                    q.total_wait()
                )
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ramdisk::RamDisk;
    use crate::trace::VecSink;

    const US: u64 = 1_000;

    fn dev(depth: usize) -> PipelinedDevice<RamDisk, VecSink> {
        let mut d = PipelinedDevice::new(
            RamDisk::with_capacity_bytes(1 << 20, SimDuration::from_micros(10)),
            VecSink::new(),
        );
        d.set_depth(depth);
        d
    }

    #[test]
    fn direct_matches_bare_device() {
        // Depth 1 is the synchronous model: same latencies and stats as
        // calling the wrapped device directly, no wait, occupancy 1.
        let mut bare = RamDisk::with_capacity_bytes(1 << 20, SimDuration::from_micros(10));
        let mut wrapped = dev(1);
        for lba in [0u64, 100, 17] {
            let a = bare.read(Extent::new(lba, 8)).unwrap();
            let b = wrapped.read(Extent::new(lba, 8)).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(bare.stats().total_ops(), wrapped.stats().total_ops());
        assert_eq!(
            bare.stats().total_busy(),
            wrapped.stats().total_busy(),
            "wrapper stats mirror the device"
        );
        assert_eq!(wrapped.stats().queue().max_occupancy(), 1);
        assert_eq!(wrapped.stats().queue().total_wait(), SimDuration::ZERO);
    }

    #[test]
    fn batch_waits_queue_on_single_lane() {
        // RamDisk has one lane: three queued reads serialize, and the
        // later ones' responses include queue wait.
        let mut d = dev(4);
        let ids: Vec<u64> = (0..3)
            .map(|i| d.submit_read(Extent::new(i * 16, 8)).unwrap())
            .collect();
        let completions = d.wait_all().unwrap();
        assert_eq!(completions.len(), 3);
        for (i, c) in completions.iter().enumerate() {
            assert_eq!(c.id, ids[i]);
            assert_eq!(c.service, SimDuration::from_micros(10));
            assert_eq!(
                c.response(),
                SimDuration::from_nanos((i as u64 + 1) * 10 * US),
                "later dispatches wait behind earlier ones"
            );
        }
        assert_eq!(d.stats().queue().max_occupancy(), 3);
        assert!(d.stats().queue().total_wait() > SimDuration::ZERO);
    }

    #[test]
    fn submission_past_depth_forces_dispatch() {
        let mut d = dev(2);
        d.submit_read(Extent::new(0, 1)).unwrap();
        d.submit_read(Extent::new(8, 1)).unwrap();
        assert_eq!(d.queued(), 2);
        d.submit_read(Extent::new(16, 1)).unwrap();
        assert_eq!(d.queued(), 2, "overflow dispatches the scheduler's pick");
        d.wait_all().unwrap();
        assert_eq!(d.queued(), 0);
    }

    #[test]
    fn background_requests_do_not_wait() {
        let mut d = dev(4);
        let t = d
            .request(&IoRequest::write(Extent::new(0, 8)).background())
            .unwrap();
        assert_eq!(t, SimDuration::from_micros(10), "service, not response");
        // The flush occupies the lane: a foreground read right behind it
        // waits (submit clock has not advanced).
        let tr = d.read(Extent::new(64, 8)).unwrap();
        assert_eq!(tr, SimDuration::from_micros(20), "wait + service");
    }

    #[test]
    fn events_carry_submit_start_finish() {
        let mut d = dev(4);
        d.submit_read(Extent::new(0, 4)).unwrap();
        d.submit_read(Extent::new(100, 4)).unwrap();
        d.wait_all().unwrap();
        let ev = d.sink().events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].at, SimTime::ZERO);
        assert_eq!(ev[0].start, SimTime::ZERO);
        assert_eq!(ev[0].finish, SimTime::from_nanos(10 * US));
        assert_eq!(ev[1].at, SimTime::ZERO, "submitted before any dispatch");
        assert_eq!(ev[1].start, SimTime::from_nanos(10 * US));
        assert_eq!(ev[1].finish, SimTime::from_nanos(20 * US));
    }

    #[test]
    fn set_now_is_monotone() {
        let mut d = dev(2);
        d.set_now(SimTime::from_nanos(500));
        d.set_now(SimTime::from_nanos(100));
        assert_eq!(d.now(), SimTime::from_nanos(500));
    }

    #[test]
    #[should_panic(expected = "in flight")]
    fn path_switch_requires_idle_queue() {
        let mut d = dev(4);
        d.submit_read(Extent::new(0, 1)).unwrap();
        d.set_depth(1);
    }

    #[test]
    fn wait_on_unknown_id_panics() {
        let mut d = dev(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = d.wait(99);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn validation_clean_across_paths_and_policies() {
        for depth in [1, 4] {
            for policy in [SchedulerPolicy::Fifo, SchedulerPolicy::Elevator] {
                let mut d = dev(depth);
                d.set_policy(policy);
                for i in 0..6u64 {
                    d.submit(IoRequest::read(Extent::new((i * 37) % 512, 8)))
                        .unwrap();
                }
                let mid = d.validation_report();
                assert!(mid.is_clean(), "mid-flight: {}", mid.summary());
                d.request(&IoRequest::write(Extent::new(0, 8)).background())
                    .unwrap();
                d.wait_all().unwrap();
                let report = d.validation_report();
                assert!(
                    report.is_clean(),
                    "depth {depth}/{policy:?}: {}",
                    report.summary()
                );
            }
        }
    }

    #[test]
    fn protocol_errors_surface_at_submit() {
        let mut d = dev(2);
        assert_eq!(
            d.submit_read(Extent::new(0, 0)).unwrap_err(),
            IoError::EmptyRequest
        );
        assert!(matches!(
            d.read(Extent::new(u64::MAX - 8, 8)).unwrap_err(),
            IoError::OutOfRange { .. }
        ));
    }
}
