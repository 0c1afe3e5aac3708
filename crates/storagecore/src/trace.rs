//! I/O trace hooks.
//!
//! A [`TraceSink`] receives one [`IoEvent`] per completed request. The
//! `tracetools` crate builds its analyzers on these events; the devices and
//! drivers only know about the trait, keeping dependencies acyclic.

use simclock::{SimDuration, SimTime};

use crate::types::{Extent, IoKind};

/// One completed block-level request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoEvent {
    /// Monotonic per-sink sequence number, starting at 0.
    pub seq: u64,
    /// Submission time on the simulated clock (as reported by the driver).
    pub at: SimTime,
    /// Request kind.
    pub kind: IoKind,
    /// Addressed sectors.
    pub extent: Extent,
    /// Service latency charged by the device.
    pub latency: SimDuration,
    /// When the device started servicing the request (`at` plus queue
    /// wait). Synchronous drivers record `start == at`.
    pub start: SimTime,
    /// When the completion was delivered (`start + latency`).
    pub finish: SimTime,
}

/// Receives trace events.
pub trait TraceSink {
    /// Called once per completed request.
    fn record(&mut self, event: IoEvent);
}

/// Discards everything (the default sink).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline]
    fn record(&mut self, _event: IoEvent) {}
}

/// Buffers events in memory.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    events: Vec<IoEvent>,
}

impl VecSink {
    /// Empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded events.
    pub fn events(&self) -> &[IoEvent] {
        &self.events
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, event: IoEvent) {
        self.events.push(event);
    }
}
