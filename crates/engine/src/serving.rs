//! Open-loop serving front-end.
//!
//! The closed-loop harness ([`SearchCluster::run_queries`]) issues the
//! next query the instant the previous one finishes, so the system is
//! never offered more load than it can absorb and the latency figures
//! say nothing about behaviour near saturation. Real search front-ends
//! are *open loop*: queries arrive on their own schedule (see
//! [`workload::arrival`]), queue when the index servers are busy, and
//! blow through their deadlines when the offered load exceeds capacity.
//!
//! [`ServingSim`] puts that front-end in front of a replicated
//! [`SearchCluster`]: a FIFO queue ([`FrontQueue`]), queue-aware
//! admission (shed queries that are predicted to miss their deadline)
//! and batching into [`SearchCluster::execute_batch`] dispatches on the
//! least-loaded replica. Everything runs on virtual time: arrivals carry
//! [`SimTime`] stamps, service times come from the simulated engines,
//! and the whole schedule is a deterministic function of the seed.
//!
//! The closed loop stays what it was, [`SearchCluster::run_queries`].
//! Under [`OpenLoopConfig::reference`] (infinite deadline, batch size 1,
//! no shedding, zero dispatch overhead) the open loop drives the
//! cluster through the exact same sequence of `execute_batch` calls,
//! so the per-query service times and every cumulative shard statistic
//! are bit-identical — `tests/serving_equivalence.rs` pins this contract
//! per query.

use std::collections::VecDeque;

use invariant::{audit, Report, Validate};
use simclock::{quantile_exact, SimDuration, SimTime};
use workload::{Arrival, Query};

use crate::cluster::SearchCluster;
use crate::config::EngineConfig;

/// Smoothing factor for the front-end's EWMA service-time estimate.
const SERVICE_EWMA_ALPHA: f64 = 0.2;

/// A load point is "efficient" when goodput is at least this fraction
/// of the offered load; the saturation knee is the highest efficient
/// offered load before the first inefficient one (see [`detect_knee`]).
pub const KNEE_EFFICIENCY: f64 = 0.97;

/// What the admission gate does with a query predicted to miss its
/// deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Never shed: every arrival is enqueued (the naive FIFO arm).
    Admit,
    /// Drop the query at arrival; it is never dispatched.
    Drop,
}

/// Front-end configuration of a [`ServingSim`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopConfig {
    /// Relative deadline applied to every arrival; `None` = infinite
    /// (nothing sheds, nothing counts as a miss).
    pub deadline: Option<SimDuration>,
    /// Maximum queries drained into one [`SearchCluster::execute_batch`]
    /// dispatch; batching amortizes `dispatch_overhead`.
    pub batch_max: usize,
    /// Admission policy for queries predicted to miss their deadline.
    pub shed: ShedPolicy,
    /// Fixed per-dispatch cost (RPC fan-out, batch assembly) paid once
    /// per batch — the quantity batching amortizes.
    pub dispatch_overhead: SimDuration,
}

impl OpenLoopConfig {
    /// The equivalence anchor: infinite deadline, batch size 1, no
    /// shedding, zero overhead. Under this configuration the
    /// open loop issues the same `execute_batch` calls, in the same
    /// order, as the closed loop, and the per-query service times are
    /// bit-identical to [`SearchCluster::run_queries`].
    pub fn reference() -> Self {
        OpenLoopConfig {
            deadline: None,
            batch_max: 1,
            shed: ShedPolicy::Admit,
            dispatch_overhead: SimDuration::ZERO,
        }
    }

    /// The naive baseline the paper-style load sweep compares against:
    /// FIFO, one query per dispatch, no shedding.
    pub fn naive_fifo(deadline: SimDuration, dispatch_overhead: SimDuration) -> Self {
        OpenLoopConfig {
            deadline: Some(deadline),
            dispatch_overhead,
            ..OpenLoopConfig::reference()
        }
    }

    /// The optimized arm: batching plus queue-aware shedding.
    pub fn batched(
        deadline: SimDuration,
        dispatch_overhead: SimDuration,
        batch_max: usize,
    ) -> Self {
        OpenLoopConfig {
            deadline: Some(deadline),
            batch_max,
            shed: ShedPolicy::Drop,
            dispatch_overhead,
        }
    }
}

/// One query waiting in the front-end queue.
#[derive(Debug, Clone)]
struct Pending {
    /// Arrival sequence number (index into the arrival stream).
    seq: u64,
    /// Arrival timestamp.
    arrived: SimTime,
    /// Absolute deadline; `None` = infinite.
    deadline: Option<SimTime>,
    query: Query,
}

/// The front-end queue: one FIFO. Every arrival carries the same
/// relative deadline, so FIFO order is also earliest-deadline-first.
/// Carries redundant length and enqueue/dequeue counters precisely so
/// the [`Validate`] impl can cross-check them against the ground truth.
#[derive(Debug, Default)]
pub struct FrontQueue {
    items: VecDeque<Pending>,
    len: usize,
    enqueued: u64,
    dequeued: u64,
}

impl FrontQueue {
    fn push(&mut self, p: Pending) {
        self.items.push_back(p);
        self.len += 1;
        self.enqueued += 1;
    }

    fn pop_front(&mut self) -> Option<Pending> {
        let p = self.items.pop_front()?;
        self.len -= 1;
        self.dequeued += 1;
        Some(p)
    }

    /// Queued queries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Corruption hook for the audit tests: swap the first two entries,
    /// breaking FIFO order.
    #[doc(hidden)]
    pub fn corrupt_swap_front(&mut self) {
        if self.items.len() >= 2 {
            self.items.swap(0, 1);
        }
    }

    /// Corruption hook for the audit tests: desynchronize the redundant
    /// length counter from the queue contents.
    #[doc(hidden)]
    pub fn corrupt_len(&mut self) {
        self.len += 1;
        self.enqueued += 1;
    }
}

impl Validate for FrontQueue {
    fn validate(&self, report: &mut Report) {
        let mut prev_seq: Option<u64> = None;
        for item in &self.items {
            if let Some(ps) = prev_seq {
                report.check(ps < item.seq, "FrontQueue", "fifo-order", || {
                    format!("seq {} queued behind seq {}", item.seq, ps)
                });
            }
            prev_seq = Some(item.seq);
        }
        report.check(
            self.len == self.items.len(),
            "FrontQueue",
            "queue-length-agrees",
            || {
                format!(
                    "len counter {} but the queue holds {}",
                    self.len,
                    self.items.len()
                )
            },
        );
        report.check(
            self.enqueued - self.dequeued == self.len as u64,
            "FrontQueue",
            "flow-conservation",
            || {
                format!(
                    "enqueued {} - dequeued {} != len {}",
                    self.enqueued, self.dequeued, self.len
                )
            },
        );
    }
}

/// Terminal bookkeeping: which arrivals were answered and which were
/// shed. A query must end up in exactly one set; the [`Validate`] impl
/// proves disjointness and that the counters match the sets.
#[derive(Debug, Default)]
pub struct OutcomeLedger {
    arrivals: u64,
    answered: Vec<u64>,
    shed: Vec<u64>,
    answered_count: u64,
    shed_count: u64,
}

impl OutcomeLedger {
    fn arrive(&mut self) {
        self.arrivals += 1;
    }

    fn answer(&mut self, seq: u64) {
        self.answered.push(seq);
        self.answered_count += 1;
    }

    fn shed(&mut self, seq: u64) {
        self.shed.push(seq);
        self.shed_count += 1;
    }

    /// Corruption hook for the audit tests: record the first answered
    /// query as also shed.
    #[doc(hidden)]
    pub fn corrupt_double_outcome(&mut self) {
        if let Some(&seq) = self.answered.first() {
            self.shed.push(seq);
            self.shed_count += 1;
        }
    }

    /// Corruption hook for the audit tests: bump the answered counter
    /// without a matching outcome.
    #[doc(hidden)]
    pub fn corrupt_counter(&mut self) {
        self.answered_count += 1;
    }
}

impl Validate for OutcomeLedger {
    fn validate(&self, report: &mut Report) {
        report.check(
            self.answered_count == self.answered.len() as u64,
            "OutcomeLedger",
            "answered-counter-agrees",
            || {
                format!(
                    "counter {} but {} answered outcomes",
                    self.answered_count,
                    self.answered.len()
                )
            },
        );
        report.check(
            self.shed_count == self.shed.len() as u64,
            "OutcomeLedger",
            "shed-counter-agrees",
            || {
                format!(
                    "counter {} but {} shed outcomes",
                    self.shed_count,
                    self.shed.len()
                )
            },
        );
        report.check(
            self.answered.len() as u64 + self.shed.len() as u64 <= self.arrivals,
            "OutcomeLedger",
            "outcomes-bounded-by-arrivals",
            || {
                format!(
                    "{} answered + {} shed > {} arrivals",
                    self.answered.len(),
                    self.shed.len(),
                    self.arrivals
                )
            },
        );
        let mut seen = vec![0u8; self.arrivals as usize];
        for (which, set) in [("answered", &self.answered), ("shed", &self.shed)] {
            for &seq in set {
                let in_range = (seq as usize) < seen.len();
                report.check(in_range, "OutcomeLedger", "seq-in-range", || {
                    format!("{which} seq {seq} >= {} arrivals", self.arrivals)
                });
                if in_range {
                    seen[seq as usize] += 1;
                    report.check(
                        seen[seq as usize] <= 1,
                        "OutcomeLedger",
                        "exactly-one-outcome",
                        || format!("seq {seq} recorded more than once (latest: {which})"),
                    );
                }
            }
        }
    }
}

/// Terminal outcome of one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The admission gate dropped the query at arrival time.
    Shed,
    /// The query was dispatched and answered.
    Answered {
        /// When its batch was dispatched to a replica.
        dispatched: SimTime,
        /// When its response completed.
        completed: SimTime,
        /// The replica's service time for this query.
        service: SimDuration,
    },
}

/// Per-arrival record emitted by [`ServingSim::run`], in arrival order.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRecord {
    /// Arrival sequence number.
    pub seq: u64,
    /// Arrival timestamp.
    pub arrived: SimTime,
    /// Absolute deadline (`None` = infinite).
    pub deadline: Option<SimTime>,
    /// What happened to it.
    pub outcome: Outcome,
}

impl QueryRecord {
    /// Response time for answered queries (completion minus arrival),
    /// `None` for shed ones.
    pub fn response(&self) -> Option<SimDuration> {
        match self.outcome {
            Outcome::Shed => None,
            Outcome::Answered { completed, .. } => Some(completed.since(self.arrived)),
        }
    }

    /// Whether the query was answered within its deadline (infinite
    /// deadlines always count; shed queries never do).
    pub fn in_deadline(&self) -> bool {
        match self.outcome {
            Outcome::Shed => false,
            Outcome::Answered { completed, .. } => self.deadline.is_none_or(|d| completed <= d),
        }
    }
}

/// Aggregate figures for one open-loop run — the row a load sweep plots.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// Queries offered by the arrival process.
    pub arrivals: u64,
    /// Queries dispatched and answered.
    pub answered: u64,
    /// Queries dropped by the admission gate.
    pub shed: u64,
    /// Answered queries that finished past their deadline.
    pub deadline_misses: u64,
    /// `execute_batch` dispatches issued.
    pub batches: u64,
    /// Mean queries per dispatch.
    pub mean_batch: f64,
    /// Offered load: arrivals over the arrival horizon.
    pub offered_qps: f64,
    /// Goodput: queries answered within deadline over the makespan.
    pub goodput_qps: f64,
    /// Mean response (answered queries; completion minus arrival).
    pub mean_response: SimDuration,
    /// Median response.
    pub p50_response: SimDuration,
    /// 99th-percentile response (exact order statistic).
    pub p99_response: SimDuration,
    /// 99.9th-percentile response (exact order statistic).
    pub p999_response: SimDuration,
    /// Worst response.
    pub max_response: SimDuration,
    /// Mean time answered queries waited before dispatch.
    pub mean_queue_wait: SimDuration,
    /// Virtual time from zero to the last completion (or last arrival
    /// if later).
    pub makespan: SimDuration,
}

/// One point on a latency-vs-offered-load curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPoint {
    /// Offered load of the run.
    pub offered_qps: f64,
    /// Goodput achieved at that load.
    pub goodput_qps: f64,
}

/// Find the saturation knee of a load sweep: the highest offered load
/// (scanning in ascending offered order) whose goodput is at least
/// [`KNEE_EFFICIENCY`] of the offer, stopping at the first inefficient
/// point. Returns `0.0` if the very first point is already saturated.
pub fn detect_knee(points: &[LoadPoint]) -> f64 {
    let mut sorted: Vec<&LoadPoint> = points.iter().collect();
    sorted.sort_by(|a, b| a.offered_qps.total_cmp(&b.offered_qps));
    let mut knee = 0.0;
    for p in sorted {
        if p.goodput_qps >= KNEE_EFFICIENCY * p.offered_qps {
            knee = p.offered_qps;
        } else {
            break;
        }
    }
    knee
}

/// A replicated cluster behind an open-loop front-end.
///
/// All replicas are built from the same [`EngineConfig`] and shard
/// count, so their corpora, logs and initial cache states are
/// bit-identical; each query runs on exactly one replica, so their
/// caches diverge only by which queries each one served.
#[derive(Debug)]
pub struct ServingSim {
    replicas: Vec<SearchCluster>,
    open_loop: OpenLoopConfig,
    records: Vec<QueryRecord>,
    ledger: OutcomeLedger,
}

impl ServingSim {
    /// Build `replicas` identical `shards`-way clusters behind a
    /// front-end configured by `open_loop`.
    pub fn new(
        config: EngineConfig,
        shards: usize,
        replicas: usize,
        open_loop: OpenLoopConfig,
    ) -> Self {
        assert!(replicas >= 1, "a serving tier needs at least one replica");
        let replicas = (0..replicas)
            .map(|_| SearchCluster::new(config.clone(), shards))
            .collect();
        ServingSim {
            replicas,
            open_loop,
            records: Vec::new(),
            ledger: OutcomeLedger::default(),
        }
    }

    /// Replica count.
    pub fn replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Borrow one replica (e.g. to compare shard reports against a
    /// stand-alone closed-loop cluster).
    pub fn replica(&self, i: usize) -> &SearchCluster {
        &self.replicas[i]
    }

    /// Mutably borrow one replica (e.g. to snapshot its cumulative
    /// [`crate::ClusterReport`] via `run_queries(&[])`).
    pub fn replica_mut(&mut self, i: usize) -> &mut SearchCluster {
        &mut self.replicas[i]
    }

    /// Per-arrival records of the last open-loop run, in arrival order.
    pub fn records(&self) -> &[QueryRecord] {
        &self.records
    }

    /// Corruption surface for the audit tests: the last run's outcome
    /// ledger, mutable so planted corruption can prove the validators
    /// fire on real run state.
    #[doc(hidden)]
    pub fn ledger_mut(&mut self) -> &mut OutcomeLedger {
        &mut self.ledger
    }

    /// Run the structural validators over the front-end ledger and every
    /// replica's shards.
    pub fn validation_report(&self) -> Report {
        let mut merged = self.ledger.validation_report();
        for r in &self.replicas {
            merged.absorb(r.validation_report());
        }
        merged
    }

    /// The open-loop event loop: alternate between the next arrival and
    /// the next dispatch opportunity, whichever comes first in virtual
    /// time, until the stream is exhausted and the queue drains.
    pub fn run(&mut self, arrivals: &[Arrival]) -> ServingReport {
        let cfg = self.open_loop;
        assert!(cfg.batch_max >= 1, "batches hold at least one query");
        let n = arrivals.len();
        let mut queue = FrontQueue::default();
        let mut ledger = OutcomeLedger::default();
        let mut records: Vec<Option<QueryRecord>> = vec![None; n];
        let mut free_at = vec![SimTime::ZERO; self.replicas.len()];
        // EWMA of observed per-query dispatch cost (service + amortized
        // overhead), in ns. Updated when a batch is dispatched, i.e.
        // slightly ahead of when a real front-end would observe the
        // completion — a deliberate simplification that keeps the
        // estimator deterministic and replica-order independent.
        let mut est_ns = 0.0f64;
        let mut batches = 0u64;
        let mut batched_queries = 0u64;

        let mut next = 0usize; // next arrival index
        let mut now = SimTime::ZERO;
        while next < n || !queue.is_empty() {
            let arrival_at = arrivals
                .get(next)
                .map_or(SimTime::from_nanos(u64::MAX), |a| a.at);
            let dispatch_at = if queue.is_empty() {
                SimTime::from_nanos(u64::MAX)
            } else {
                // The least-loaded replica can start the next batch as
                // soon as it is free (or immediately if already idle).
                let min_free = free_at.iter().copied().min().expect(">=1 replica");
                min_free.max(now)
            };
            if arrival_at <= dispatch_at {
                now = arrival_at;
                let seq = next as u64;
                let a = &arrivals[next];
                next += 1;
                ledger.arrive();
                self.admit(
                    seq,
                    a,
                    now,
                    &cfg,
                    &mut queue,
                    &mut ledger,
                    &mut records,
                    &free_at,
                    est_ns,
                );
                audit!(&queue, "ServingSim::admit");
            } else {
                now = dispatch_at;
                let replica = Self::least_loaded(&free_at);
                let (size, batch_est, finish) =
                    self.dispatch(now, replica, &cfg, &mut queue, &mut ledger, &mut records);
                free_at[replica] = finish;
                batches += 1;
                batched_queries += size as u64;
                est_ns = if est_ns == 0.0 {
                    batch_est
                } else {
                    (1.0 - SERVICE_EWMA_ALPHA) * est_ns + SERVICE_EWMA_ALPHA * batch_est
                };
                audit!(&queue, "ServingSim::dispatch");
                audit!(&ledger, "ServingSim::dispatch");
            }
        }

        let records: Vec<QueryRecord> = records
            .into_iter()
            .map(|r| r.expect("every arrival reaches a terminal outcome"))
            .collect();
        audit!(&ledger, "ServingSim::run(done)");
        self.records = records;
        self.ledger = ledger;
        self.summarize(arrivals, batches, batched_queries)
    }

    /// Index of the replica that frees up first (ties toward the lowest
    /// index, keeping the schedule deterministic).
    fn least_loaded(free_at: &[SimTime]) -> usize {
        let mut best = 0;
        for (i, &t) in free_at.iter().enumerate().skip(1) {
            if t < free_at[best] {
                best = i;
            }
        }
        best
    }

    /// Admission gate: predict the arrival's finish from the queue state
    /// and the service estimate, and enqueue or shed it accordingly.
    #[expect(
        clippy::too_many_arguments,
        reason = "each argument is one piece of the run loop's local state, borrowed separately"
    )]
    fn admit(
        &mut self,
        seq: u64,
        arrival: &Arrival,
        now: SimTime,
        cfg: &OpenLoopConfig,
        queue: &mut FrontQueue,
        ledger: &mut OutcomeLedger,
        records: &mut [Option<QueryRecord>],
        free_at: &[SimTime],
        est_ns: f64,
    ) {
        let deadline = cfg.deadline.map(|d| now + d);

        let predicted_miss = match (cfg.shed, cfg.deadline) {
            (ShedPolicy::Admit, _) | (_, None) => false,
            (_, Some(rel)) => {
                if est_ns == 0.0 {
                    // Optimistic until the first dispatch calibrates the
                    // estimator.
                    false
                } else {
                    let min_free = free_at.iter().copied().min().expect(">=1 replica");
                    let backlog_ns = min_free.since(now).as_nanos() as f64;
                    let ahead = queue.len() as f64;
                    let wait_ns = backlog_ns + ahead * est_ns / free_at.len() as f64;
                    wait_ns + est_ns > rel.as_nanos() as f64
                }
            }
        };

        if predicted_miss {
            ledger.shed(seq);
            records[seq as usize] = Some(QueryRecord {
                seq,
                arrived: now,
                deadline,
                outcome: Outcome::Shed,
            });
            return;
        }

        queue.push(Pending {
            seq,
            arrived: now,
            deadline,
            query: arrival.query.clone(),
        });
    }

    /// Drain up to `batch_max` queries into one `execute_batch` dispatch
    /// on `replica`. Returns the batch size, the observed per-query cost
    /// (service + amortized overhead, ns) for the estimator, and the
    /// time the replica finishes the batch.
    fn dispatch(
        &mut self,
        at: SimTime,
        replica: usize,
        cfg: &OpenLoopConfig,
        queue: &mut FrontQueue,
        ledger: &mut OutcomeLedger,
        records: &mut [Option<QueryRecord>],
    ) -> (usize, f64, SimTime) {
        let mut batch = Vec::with_capacity(cfg.batch_max);
        while batch.len() < cfg.batch_max {
            match queue.pop_front() {
                Some(p) => batch.push(p),
                None => break,
            }
        }
        debug_assert!(!batch.is_empty(), "dispatch fires only when queued");
        let queries: Vec<Query> = batch.iter().map(|p| p.query.clone()).collect();
        let services = self.replicas[replica].execute_batch(&queries);

        // Completions are sequential within the batch: the replica works
        // the queries in order after the one-off dispatch overhead.
        let mut t = at + cfg.dispatch_overhead;
        let span_ns =
            cfg.dispatch_overhead.as_nanos() + services.iter().map(|s| s.as_nanos()).sum::<u64>();
        for (p, &service) in batch.iter().zip(&services) {
            t += service;
            ledger.answer(p.seq);
            records[p.seq as usize] = Some(QueryRecord {
                seq: p.seq,
                arrived: p.arrived,
                deadline: p.deadline,
                outcome: Outcome::Answered {
                    dispatched: at,
                    completed: t,
                    service,
                },
            });
        }
        (batch.len(), span_ns as f64 / batch.len() as f64, t)
    }

    /// Fold the per-arrival records into a [`ServingReport`].
    fn summarize(&self, arrivals: &[Arrival], batches: u64, batched_queries: u64) -> ServingReport {
        let mut responses: Vec<u64> = Vec::new();
        let mut waits_ns = 0u128;
        let mut answered = 0u64;
        let mut shed = 0u64;
        let mut misses = 0u64;
        let mut good = 0u64;
        let mut last_completion = SimTime::ZERO;
        for r in &self.records {
            match r.outcome {
                Outcome::Shed => shed += 1,
                Outcome::Answered {
                    dispatched,
                    completed,
                    ..
                } => {
                    answered += 1;
                    responses.push(completed.since(r.arrived).as_nanos());
                    waits_ns += dispatched.since(r.arrived).as_nanos() as u128;
                    if r.in_deadline() {
                        good += 1;
                    } else {
                        misses += 1;
                    }
                    last_completion = last_completion.max(completed);
                }
            }
        }
        let last_arrival = arrivals.last().map_or(SimTime::ZERO, |a| a.at);
        let makespan_end = last_completion.max(last_arrival);
        let makespan = makespan_end - SimTime::ZERO;
        let makespan_secs = makespan.as_secs_f64();
        let mean_ns = if responses.is_empty() {
            0
        } else {
            (responses.iter().map(|&v| v as u128).sum::<u128>() / responses.len() as u128) as u64
        };
        let mean_wait_ns = if answered == 0 {
            0
        } else {
            (waits_ns / answered as u128) as u64
        };
        ServingReport {
            arrivals: self.records.len() as u64,
            answered,
            shed,
            deadline_misses: misses,
            batches,
            mean_batch: if batches == 0 {
                0.0
            } else {
                batched_queries as f64 / batches as f64
            },
            offered_qps: workload::offered_qps(arrivals),
            goodput_qps: if makespan_secs == 0.0 {
                0.0
            } else {
                good as f64 / makespan_secs
            },
            mean_response: SimDuration::from_nanos(mean_ns),
            p50_response: SimDuration::from_nanos(quantile_exact(&mut responses, 0.50)),
            p99_response: SimDuration::from_nanos(quantile_exact(&mut responses, 0.99)),
            p999_response: SimDuration::from_nanos(quantile_exact(&mut responses, 0.999)),
            max_response: SimDuration::from_nanos(responses.iter().copied().max().unwrap_or(0)),
            mean_queue_wait: SimDuration::from_nanos(mean_wait_ns),
            makespan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use workload::{ArrivalKind, ArrivalProcess};

    fn pending(seq: u64, at_ns: u64, rel_ns: u64) -> Pending {
        Pending {
            seq,
            arrived: SimTime::from_nanos(at_ns),
            deadline: Some(SimTime::from_nanos(at_ns + rel_ns)),
            query: Query {
                id: seq,
                terms: vec![0],
            },
        }
    }

    #[test]
    fn the_front_queue_is_fifo() {
        let mut q = FrontQueue::default();
        for seq in 0..4 {
            q.push(pending(seq, seq * 10, 1_000));
        }
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop_front().map(|p| p.seq), Some(0));
        q.push(pending(4, 40, 1_000));
        assert!(q.validation_report().is_clean());
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_front())
            .map(|p| p.seq)
            .collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
        assert!(q.is_empty());
        assert!(q.validation_report().is_clean());
    }

    #[test]
    fn the_queue_validators_catch_planted_corruption() {
        let mut q = FrontQueue::default();
        for seq in 0..4 {
            q.push(pending(seq, seq * 10, 1_000));
        }
        assert!(q.validation_report().is_clean());
        q.corrupt_swap_front();
        let report = q.validation_report();
        assert!(report
            .violations()
            .iter()
            .any(|v| v.invariant == "fifo-order"));

        let mut q = FrontQueue::default();
        q.push(pending(0, 0, 1_000));
        q.corrupt_len();
        let report = q.validation_report();
        assert!(report
            .violations()
            .iter()
            .any(|v| v.invariant == "queue-length-agrees"));
    }

    #[test]
    fn the_ledger_validators_catch_double_outcomes() {
        let mut l = OutcomeLedger::default();
        for seq in 0..4 {
            l.arrive();
            if seq < 3 {
                l.answer(seq);
            } else {
                l.shed(seq);
            }
        }
        assert!(l.validation_report().is_clean());
        l.corrupt_double_outcome();
        let report = l.validation_report();
        assert!(report
            .violations()
            .iter()
            .any(|v| v.invariant == "exactly-one-outcome"));

        let mut l = OutcomeLedger::default();
        l.arrive();
        l.answer(0);
        l.corrupt_counter();
        assert!(!l.validation_report().is_clean());
    }

    #[test]
    fn knee_detection_finds_the_last_efficient_load() {
        let points = [
            LoadPoint {
                offered_qps: 100.0,
                goodput_qps: 100.0,
            },
            LoadPoint {
                offered_qps: 200.0,
                goodput_qps: 199.0,
            },
            LoadPoint {
                offered_qps: 400.0,
                goodput_qps: 396.0,
            },
            LoadPoint {
                offered_qps: 800.0,
                goodput_qps: 540.0,
            },
            LoadPoint {
                offered_qps: 1_600.0,
                goodput_qps: 560.0,
            },
        ];
        assert_eq!(detect_knee(&points), 400.0);
        // Order independence: the sweep may run points in any order.
        let mut shuffled = points;
        shuffled.reverse();
        assert_eq!(detect_knee(&shuffled), 400.0);
        // A sweep saturated from the start has no efficient region.
        assert_eq!(
            detect_knee(&[LoadPoint {
                offered_qps: 100.0,
                goodput_qps: 10.0
            }]),
            0.0
        );
        assert_eq!(detect_knee(&[]), 0.0);
    }

    fn tiny_config() -> EngineConfig {
        EngineConfig::cached(
            20_000,
            hybridcache::HybridConfig::paper(1 << 20, 8 << 20, hybridcache::PolicyKind::Cblru),
            7,
        )
    }

    #[test]
    fn the_reference_open_loop_matches_the_closed_loop_bit_for_bit() {
        let mut open = ServingSim::new(tiny_config(), 2, 1, OpenLoopConfig::reference());
        let mut closed = SearchCluster::new(tiny_config(), 2);
        let arrivals = ArrivalProcess::new(
            closed.log().clone(),
            ArrivalKind::Poisson { rate_qps: 50.0 },
        )
        .generate(200);
        let report = open.run(&arrivals);
        // Per-query services are the closed loop's responses, in lockstep.
        for (i, (rec, a)) in open.records().iter().zip(&arrivals).enumerate() {
            let closed_response = closed.execute(&a.query);
            match rec.outcome {
                Outcome::Answered { service, .. } => {
                    assert_eq!(service, closed_response, "query {i} (id {})", a.query.id);
                }
                Outcome::Shed => panic!("reference config never sheds"),
            }
        }
        assert_eq!(report.arrivals, 200);
        assert_eq!(report.answered, 200);
        assert_eq!(report.shed, 0);
        assert_eq!(report.deadline_misses, 0);
        // The cumulative shard state is bit-identical to the closed loop.
        let open_snapshot = open.replica_mut(0).run_queries(&[]);
        let closed_snapshot = closed.run_queries(&[]);
        assert_eq!(open_snapshot, closed_snapshot);
    }
}
