//! Document-partitioned cluster simulation.
//!
//! The paper's introduction motivates the whole problem with scale:
//! "large search engines need to process hundreds of queries per second
//! on collections of millions of documents", served by many index
//! servers. [`SearchCluster`] simulates that deployment shape: the
//! collection is document-partitioned over `n` shards, each shard is a
//! complete [`SearchEngine`] (own caches, own SSD, own index disk), every
//! query is broadcast to all shards, and the per-query response is the
//! **slowest shard** plus a merge step — the classic scatter-gather
//! latency model. Caching wins on a shard therefore only help the query
//! when *every* shard wins, which is exactly why result/list caching
//! matters more, not less, at cluster scale (tail latency).
//!
//! # Execution arms
//!
//! Shards are fully independent (no shared mutable state), so the
//! cluster offers two execution arms behind [`ClusterExecution`]: the
//! seed's sequential per-query shard loop stays as the `Sequential`
//! reference, and `Parallel` runs a **persistent worker pool** —
//! long-lived threads fed query batches over channels, each owning a
//! disjoint set of shard engines exclusively (no thread spawn per query,
//! no locking around an engine). Workers return per-query shard latencies and the coordinator
//! performs the scatter-gather merge (max-over-shards + merge cost) in
//! query order, so every simulated figure — [`ClusterReport`], per-shard
//! [`RunReport`]s, the virtual clock — is **bit-identical** across arms
//! and worker counts; only wall-clock moves. The equivalence test in
//! `crates/engine/tests/cluster_equivalence.rs` drives both arms through
//! identical query streams to enforce exactly that.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use simclock::{RunningStats, SimDuration};
use workload::{Query, QueryLog, QueryLogSpec};

use crate::config::EngineConfig;
use crate::engine::SearchEngine;
use crate::report::RunReport;

/// How [`SearchCluster`] visits its shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterExecution {
    /// The reference arm: visit every shard in turn on the calling
    /// thread, one query at a time (the seed's loop).
    Sequential,
    /// The optimized arm: a persistent pool of `workers` long-lived
    /// threads (`0` = one per shard), each owning a disjoint set of
    /// shard engines, fed query batches over channels.
    Parallel {
        /// Pool size; clamped to the shard count, `0` means one worker
        /// per shard.
        workers: usize,
    },
}

/// Cluster-level measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Queries executed.
    pub queries: u64,
    /// Mean scatter-gather response time (max over shards + merge).
    pub mean_response: SimDuration,
    /// Cluster throughput in queries per second of virtual time.
    pub throughput_qps: f64,
    /// Mean of the *fastest* shard per query — the gap to `mean_response`
    /// is the tail-latency cost of fan-out.
    pub mean_fastest_shard: SimDuration,
    /// Per-shard run reports.
    pub shards: Vec<RunReport>,
}

impl ClusterReport {
    /// Mean hit ratio across shards.
    pub fn mean_hit_ratio(&self) -> f64 {
        if self.shards.is_empty() {
            return 0.0;
        }
        self.shards.iter().map(RunReport::hit_ratio).sum::<f64>() / self.shards.len() as f64
    }
}

/// A batch job for one worker. The query slice is shared (`Arc`), so a
/// broadcast is `workers` refcount bumps, not `workers` copies.
enum Job {
    /// Execute the batch on every owned shard, in shard order.
    Batch(Arc<Vec<Query>>),
    /// Snapshot every owned shard's cumulative [`RunReport`].
    Report,
    /// Run the structural invariant validators on every owned shard.
    Validate,
}

/// One worker's answer to a [`Job`].
enum Reply {
    /// Per owned shard: `(shard id, per-query latencies)`.
    Batch(Vec<(usize, Vec<SimDuration>)>),
    /// Per owned shard: `(shard id, report snapshot)`.
    Report(Vec<(usize, RunReport)>),
    /// Per owned shard: `(shard id, invariant audit findings)`.
    Validate(Vec<(usize, invariant::Report)>),
}

/// Body of one pool thread: owns its engines exclusively for the life of
/// the pool and hands them back (via the join handle) on shutdown.
fn worker_main(
    mut engines: Vec<(usize, SearchEngine)>,
    jobs: Receiver<Job>,
    replies: Sender<Reply>,
) -> Vec<(usize, SearchEngine)> {
    while let Ok(job) = jobs.recv() {
        let reply = match job {
            Job::Batch(queries) => Reply::Batch(
                engines
                    .iter_mut()
                    .map(|(id, engine)| (*id, queries.iter().map(|q| engine.execute(q)).collect()))
                    .collect(),
            ),
            Job::Report => Reply::Report(engines.iter().map(|(id, e)| (*id, e.report())).collect()),
            Job::Validate => Reply::Validate(
                engines
                    .iter()
                    .map(|(id, e)| (*id, e.validation_report()))
                    .collect(),
            ),
        };
        if replies.send(reply).is_err() {
            break; // coordinator went away mid-job
        }
    }
    engines
}

/// Handle to one pool thread.
#[derive(Debug)]
struct Worker {
    /// `None` once the shutdown handshake has begun (dropping the sender
    /// is what ends the worker's receive loop).
    jobs: Option<Sender<Job>>,
    replies: Receiver<Reply>,
    handle: Option<JoinHandle<Vec<(usize, SearchEngine)>>>,
}

impl Worker {
    fn send(&self, job: Job) {
        self.jobs
            .as_ref()
            .expect("pool is live")
            .send(job)
            .expect("a cluster worker hung up");
    }

    fn recv(&self) -> Reply {
        self.replies.recv().expect("a cluster worker panicked")
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // Disconnect first so the worker's receive loop ends, then join;
        // joining before dropping the sender would deadlock.
        self.jobs.take();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The persistent worker pool of the `Parallel` arm.
#[derive(Debug)]
struct WorkerPool {
    workers: Vec<Worker>,
    num_shards: usize,
}

impl WorkerPool {
    /// Move `engines` into `workers` threads (0 = one per shard),
    /// round-robin so every worker owns an (almost) equal share.
    fn new(engines: Vec<SearchEngine>, workers: usize) -> Self {
        let num_shards = engines.len();
        let n = if workers == 0 { num_shards } else { workers }
            .min(num_shards)
            .max(1);
        let mut slots: Vec<Vec<(usize, SearchEngine)>> = (0..n).map(|_| Vec::new()).collect();
        for (i, engine) in engines.into_iter().enumerate() {
            slots[i % n].push((i, engine));
        }
        let workers = slots
            .into_iter()
            .map(|owned| {
                let (job_tx, job_rx) = channel();
                let (reply_tx, reply_rx) = channel();
                let handle = std::thread::Builder::new()
                    .name("cluster-shard-worker".into())
                    .spawn(move || worker_main(owned, job_rx, reply_tx))
                    .expect("spawn cluster worker");
                Worker {
                    jobs: Some(job_tx),
                    replies: reply_rx,
                    handle: Some(handle),
                }
            })
            .collect();
        WorkerPool {
            workers,
            num_shards,
        }
    }

    fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Broadcast the batch and gather per-shard latency vectors, indexed
    /// by shard id.
    fn run_batch(&self, queries: Arc<Vec<Query>>) -> Vec<Vec<SimDuration>> {
        let n = queries.len();
        for worker in &self.workers {
            worker.send(Job::Batch(Arc::clone(&queries)));
        }
        let mut per_shard: Vec<Vec<SimDuration>> = vec![Vec::new(); self.num_shards];
        for worker in &self.workers {
            match worker.recv() {
                Reply::Batch(latencies) => {
                    for (shard, lat) in latencies {
                        debug_assert_eq!(lat.len(), n);
                        per_shard[shard] = lat;
                    }
                }
                _ => unreachable!("batch job answered with a different reply"),
            }
        }
        per_shard
    }

    /// Snapshot every shard's cumulative report, in shard order.
    fn reports(&self) -> Vec<RunReport> {
        for worker in &self.workers {
            worker.send(Job::Report);
        }
        let mut out: Vec<Option<RunReport>> = (0..self.num_shards).map(|_| None).collect();
        for worker in &self.workers {
            match worker.recv() {
                Reply::Report(reports) => {
                    for (shard, report) in reports {
                        out[shard] = Some(report);
                    }
                }
                _ => unreachable!("report job answered with a different reply"),
            }
        }
        out.into_iter()
            .map(|r| r.expect("every shard reported"))
            .collect()
    }

    /// Audit every shard in place (the engines never leave their worker
    /// threads) and merge the findings.
    fn validation_report(&self) -> invariant::Report {
        for worker in &self.workers {
            worker.send(Job::Validate);
        }
        let mut merged = invariant::Report::new();
        for worker in &self.workers {
            match worker.recv() {
                Reply::Validate(reports) => {
                    for (_, report) in reports {
                        merged.absorb(report);
                    }
                }
                _ => unreachable!("validate job answered with a different reply"),
            }
        }
        merged
    }

    /// End the pool and recover the engines, in shard order.
    fn shutdown(self) -> Vec<SearchEngine> {
        let mut out: Vec<Option<SearchEngine>> = (0..self.num_shards).map(|_| None).collect();
        for mut worker in self.workers {
            worker.jobs.take(); // disconnect → worker loop ends
            let engines = worker
                .handle
                .take()
                .expect("worker joined once")
                .join()
                .unwrap_or_else(|_| panic!("a cluster worker panicked"));
            for (id, engine) in engines {
                out[id] = Some(engine);
            }
        }
        out.into_iter()
            .map(|e| e.expect("every shard came home"))
            .collect()
    }
}

/// Where the shard engines currently live.
#[derive(Debug)]
enum Backend {
    /// Engines on the calling thread (the seed path).
    Sequential(Vec<SearchEngine>),
    /// Engines moved into the persistent pool.
    Parallel(WorkerPool),
}

/// A document-partitioned search cluster.
#[derive(Debug)]
pub struct SearchCluster {
    backend: Backend,
    num_shards: usize,
    log: QueryLog,
    merge_cost_per_shard: SimDuration,
    response: RunningStats,
    fastest: RunningStats,
    clock: SimDuration,
    queries_run: u64,
}

impl SearchCluster {
    /// Build `n` shards, each holding `config.docs / n` documents with a
    /// shard-specific seed. The query log is shared (vocabulary of the
    /// shard corpus), modelling a front-end broadcasting to its index
    /// servers. Starts on the `Sequential` arm.
    pub fn new(config: EngineConfig, n: usize) -> Self {
        assert!(n >= 1, "a cluster needs at least one shard");
        let per_shard = (config.docs / n as u64).max(1_000);
        let shards: Vec<SearchEngine> = (0..n)
            .map(|i| {
                let mut c = config.clone();
                c.docs = per_shard;
                c.seed = config.seed.wrapping_add(i as u64 * 0x9E37);
                SearchEngine::new(c)
            })
            .collect();
        // Share one log across shards: use the smallest vocabulary so
        // every term resolves everywhere.
        let vocab = shards
            .iter()
            .map(|s| searchidx::IndexReader::num_terms(s.index()))
            .min()
            .expect("at least one shard");
        let log = QueryLog::new(QueryLogSpec::aol_like(vocab, config.seed ^ 0xC1A5));
        SearchCluster {
            num_shards: shards.len(),
            backend: Backend::Sequential(shards),
            log,
            merge_cost_per_shard: SimDuration::from_micros(200),
            response: RunningStats::new(),
            fastest: RunningStats::new(),
            clock: SimDuration::ZERO,
            queries_run: 0,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.num_shards
    }

    /// The current execution arm (`Parallel` reports the clamped pool
    /// size actually in use).
    pub fn execution(&self) -> ClusterExecution {
        match &self.backend {
            Backend::Sequential(_) => ClusterExecution::Sequential,
            Backend::Parallel(pool) => ClusterExecution::Parallel {
                workers: pool.workers(),
            },
        }
    }

    /// Switch execution arms. Engines migrate between the calling thread
    /// and the worker pool with all cumulative state intact (caches,
    /// clocks, device wear), so the toggle is safe mid-run and the
    /// simulated figures never depend on when it happens.
    pub fn set_execution(&mut self, exec: ClusterExecution) {
        let engines = match std::mem::replace(&mut self.backend, Backend::Sequential(Vec::new())) {
            Backend::Sequential(engines) => engines,
            Backend::Parallel(pool) => pool.shutdown(),
        };
        self.backend = match exec {
            ClusterExecution::Sequential => Backend::Sequential(engines),
            ClusterExecution::Parallel { workers } => {
                Backend::Parallel(WorkerPool::new(engines, workers))
            }
        };
    }

    /// Draw the next `n` queries from the shared log (the stream the
    /// front-end would broadcast). Public so harnesses can drive two
    /// clusters through one identical stream.
    pub fn stream(&mut self, n: usize) -> Vec<Query> {
        self.log.stream(n)
    }

    /// The shared query log. Arrival-process generators clone this so
    /// the open-loop front-end draws from the exact universe the shards
    /// were built for (every term resolves on every shard).
    pub fn log(&self) -> &QueryLog {
        &self.log
    }

    /// Fold one query's per-shard latencies into the cluster statistics
    /// and advance the virtual clock; returns the scatter-gather
    /// response. Always called in query order, which is what makes the
    /// two arms bit-identical.
    fn finish_query(&mut self, slowest: SimDuration, fastest: SimDuration) -> SimDuration {
        let response = slowest + self.merge_cost_per_shard * self.num_shards as u64;
        self.response.push_duration(response);
        self.fastest.push_duration(fastest);
        self.clock += response;
        self.queries_run += 1;
        response
    }

    /// Broadcast one query; returns the scatter-gather response time.
    pub fn execute(&mut self, query: &Query) -> SimDuration {
        let (slowest, fastest) = match &mut self.backend {
            Backend::Sequential(shards) => {
                let mut slowest = SimDuration::ZERO;
                let mut fastest = SimDuration::from_nanos(u64::MAX);
                for shard in shards.iter_mut() {
                    let t = shard.execute(query);
                    slowest = slowest.max(t);
                    fastest = fastest.min(t);
                }
                (slowest, fastest)
            }
            Backend::Parallel(pool) => {
                let per_shard = pool.run_batch(Arc::new(vec![query.clone()]));
                minmax(per_shard.iter().map(|lat| lat[0]))
            }
        };
        self.finish_query(slowest, fastest)
    }

    /// Broadcast a batch and return every query's scatter-gather
    /// response, in query order. This is [`SearchCluster::execute`] for
    /// a whole batch: the sequential arm replays the seed's query-major
    /// loop, the parallel arm pins the batch to the pool (shard-major)
    /// and merges in query order, so the responses — and every
    /// cumulative statistic they fold into — are bit-identical across
    /// arms. The serving front-end's batching layer dispatches through
    /// this, which is what makes its `OpenLoop` reference configuration
    /// (batch size 1, arrival order) collapse exactly onto the
    /// closed-loop path.
    pub fn execute_batch(&mut self, queries: &[Query]) -> Vec<SimDuration> {
        if matches!(self.backend, Backend::Sequential(_)) {
            return queries.iter().map(|q| self.execute(q)).collect();
        }
        if queries.is_empty() {
            return Vec::new();
        }
        let per_shard = match &mut self.backend {
            Backend::Parallel(pool) => pool.run_batch(Arc::new(queries.to_vec())),
            Backend::Sequential(_) => unreachable!("checked above"),
        };
        (0..queries.len())
            .map(|qi| {
                let (slowest, fastest) = minmax(per_shard.iter().map(|lat| lat[qi]));
                self.finish_query(slowest, fastest)
            })
            .collect()
    }

    /// Execute an explicit query stream and report. The sequential arm
    /// replays the seed's query-major loop; the parallel arm pins the
    /// whole batch to the pool (shard-major) and merges in query order —
    /// same figures either way.
    pub fn run_queries(&mut self, queries: &[Query]) -> ClusterReport {
        let before = self.queries_run;
        let t0 = self.clock;
        self.execute_batch(queries);
        let elapsed = self.clock - t0;
        let ran = self.queries_run - before;
        ClusterReport {
            queries: ran,
            mean_response: self.response.mean_duration(),
            throughput_qps: if elapsed == SimDuration::ZERO {
                0.0
            } else {
                ran as f64 / elapsed.as_secs_f64()
            },
            mean_fastest_shard: self.fastest.mean_duration(),
            shards: self.shard_reports(),
        }
    }

    /// Runs the structural invariant validators over every shard — on the
    /// sequential arm directly, on the parallel arm via a `Validate` job
    /// so the audit happens on the thread that owns each engine — and
    /// merges the findings into one report.
    pub fn validation_report(&self) -> invariant::Report {
        match &self.backend {
            Backend::Sequential(shards) => {
                let mut merged = invariant::Report::new();
                for shard in shards {
                    merged.absorb(shard.validation_report());
                }
                merged
            }
            Backend::Parallel(pool) => pool.validation_report(),
        }
    }

    /// Run `n` queries from the shared log.
    pub fn run(&mut self, n: usize) -> ClusterReport {
        let queries = self.stream(n);
        self.run_queries(&queries)
    }

    /// Snapshot every shard's cumulative report, in shard order.
    fn shard_reports(&mut self) -> Vec<RunReport> {
        match &mut self.backend {
            Backend::Sequential(shards) => shards.iter().map(SearchEngine::report).collect(),
            Backend::Parallel(pool) => pool.reports(),
        }
    }
}

/// `(max, min)` of a latency stream (empty streams keep the identities).
fn minmax(lats: impl Iterator<Item = SimDuration>) -> (SimDuration, SimDuration) {
    let mut slowest = SimDuration::ZERO;
    let mut fastest = SimDuration::from_nanos(u64::MAX);
    for t in lats {
        slowest = slowest.max(t);
        fastest = fastest.min(t);
    }
    (slowest, fastest)
}

/// Model-checked version of the worker-pool handoff protocol, exercised
/// by ci.sh's loom stage (`RUSTFLAGS="--cfg loom" cargo test -p engine
/// --lib loom_pool_model`). The pool's correctness claim is pure
/// ownership transfer: engines ride a channel *into* the worker thread,
/// every job/reply pair orders the worker's unsynchronized engine
/// mutations against the dispatcher, and join hands the engines (and all
/// their state) back. The models mirror those edges with loom's
/// race-checked cells — no `unsafe` needed, the checker validates access
/// *timing*, not memory itself.
#[cfg(all(test, loom))]
mod loom_pool_model {
    use loom::cell::UnsafeCell;
    use loom::sync::mpsc;
    use loom::thread;

    /// One worker owning one "engine" (an unsynchronized cell, exactly
    /// how `SearchEngine` rides the pool): dispatch two jobs, read both
    /// replies, shut down by dropping the job channel, and reclaim the
    /// engine through join. Every engine access must be ordered by those
    /// edges alone, on every schedule.
    #[test]
    fn engine_ownership_handoff_is_race_free() {
        loom::model(|| {
            let engine = UnsafeCell::new(0u64);
            // The dispatcher "warms" the engine before the pool exists
            // (SearchCluster runs sequentially until set_execution).
            engine.with_mut(|_| ());

            let (eng_tx, eng_rx) = mpsc::channel::<UnsafeCell<u64>>();
            let (job_tx, job_rx) = mpsc::channel::<u32>();
            let (reply_tx, reply_rx) = mpsc::channel::<u32>();
            let worker = thread::spawn(move || {
                let engine = eng_rx.recv().expect("pool construction sends the engine");
                let mut processed = 0u32;
                while let Ok(q) = job_rx.recv() {
                    // Unsynchronized engine mutation, ordered only by the
                    // job having arrived.
                    engine.with_mut(|_| ());
                    processed += q;
                    reply_tx.send(processed).unwrap();
                }
                // Disconnect = shutdown: ownership flows back via join.
                engine
            });

            eng_tx.send(engine).unwrap();
            job_tx.send(3).unwrap();
            assert_eq!(reply_rx.recv(), Ok(3));
            job_tx.send(4).unwrap();
            assert_eq!(reply_rx.recv(), Ok(7));
            drop(job_tx);
            let engine = worker.join().unwrap();
            // Reclaimed: the dispatcher may touch the engine again.
            engine.with_mut(|_| ());
        });
    }

    /// Scatter-gather across two workers sharing only the reply channel:
    /// each worker's engine stays private, and gathering both replies is
    /// enough for the dispatcher to proceed (`run_batch` joins nothing).
    #[test]
    fn scatter_gather_replies_are_ordered() {
        loom::model(|| {
            let (reply_tx, reply_rx) = mpsc::channel::<usize>();
            let workers: Vec<_> = (0..2)
                .map(|id| {
                    let reply_tx = reply_tx.clone();
                    let (job_tx, job_rx) = mpsc::channel::<()>();
                    let h = thread::spawn(move || {
                        let engine = UnsafeCell::new(0u64);
                        while job_rx.recv().is_ok() {
                            engine.with_mut(|_| ());
                            reply_tx.send(id).unwrap();
                        }
                    });
                    (job_tx, h)
                })
                .collect();
            drop(reply_tx);
            for (job_tx, _) in &workers {
                job_tx.send(()).unwrap();
            }
            let mut seen = [false; 2];
            for _ in 0..2 {
                seen[reply_rx.recv().expect("both workers reply")] = true;
            }
            assert!(seen[0] && seen[1], "one reply per dispatched job");
            for (job_tx, h) in workers {
                drop(job_tx);
                h.join().unwrap();
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexPlacement;
    use hybridcache::{HybridConfig, PolicyKind};

    const DOCS: u64 = 40_000;

    #[test]
    fn cluster_runs_and_reports() {
        let mut c = SearchCluster::new(EngineConfig::no_cache(DOCS, IndexPlacement::Hdd, 5), 4);
        assert_eq!(c.shards(), 4);
        assert_eq!(c.execution(), ClusterExecution::Sequential);
        let r = c.run(100);
        assert_eq!(r.queries, 100);
        assert!(r.throughput_qps > 0.0);
        assert_eq!(r.shards.len(), 4);
    }

    #[test]
    fn fanout_response_is_max_plus_merge() {
        // The cluster response must never be faster than its fastest
        // shard, and the fan-out gap must be visible.
        let mut c = SearchCluster::new(EngineConfig::no_cache(DOCS, IndexPlacement::Hdd, 7), 4);
        let r = c.run(200);
        assert!(r.mean_response > r.mean_fastest_shard);
    }

    #[test]
    fn sharding_cuts_per_query_latency() {
        // Smaller shards scan less per query: a 4-shard cluster answers
        // faster than a single engine on the whole collection (at the
        // price of 4x hardware). The effect needs a collection big enough
        // that per-query work actually scales with the shard size (above
        // the accumulator-budget floor).
        let big = 400_000;
        let single = {
            let mut c = SearchCluster::new(EngineConfig::no_cache(big, IndexPlacement::Hdd, 9), 1);
            c.run(80).mean_response
        };
        let sharded = {
            let mut c = SearchCluster::new(EngineConfig::no_cache(big, IndexPlacement::Hdd, 9), 4);
            c.run(80).mean_response
        };
        assert!(
            sharded < single,
            "4 shards {sharded} must beat 1 shard {single}"
        );
    }

    #[test]
    fn cached_cluster_hits_on_every_shard() {
        let cache = HybridConfig::paper(1 << 20, 8 << 20, PolicyKind::Cblru);
        let mut c = SearchCluster::new(EngineConfig::cached(DOCS, cache, 11), 3);
        let r = c.run(600);
        assert!(r.mean_hit_ratio() > 0.15, "hit {}", r.mean_hit_ratio());
        for shard in &r.shards {
            assert!(shard.cache.is_some());
        }
    }

    #[test]
    fn pool_clamps_worker_count_and_reports_arm() {
        let mut c = SearchCluster::new(EngineConfig::no_cache(DOCS, IndexPlacement::Hdd, 5), 2);
        c.set_execution(ClusterExecution::Parallel { workers: 16 });
        assert_eq!(
            c.execution(),
            ClusterExecution::Parallel { workers: 2 },
            "pool never outnumbers the shards"
        );
        c.set_execution(ClusterExecution::Parallel { workers: 0 });
        assert_eq!(c.execution(), ClusterExecution::Parallel { workers: 2 });
        let r = c.run(50);
        assert_eq!(r.queries, 50);
    }

    #[test]
    fn engines_survive_a_round_trip_through_the_pool() {
        // Sequential → parallel → sequential: cumulative state (clock,
        // response stats) keeps accumulating across the migrations.
        let mut c = SearchCluster::new(EngineConfig::no_cache(DOCS, IndexPlacement::Hdd, 13), 3);
        c.run(40);
        c.set_execution(ClusterExecution::Parallel { workers: 2 });
        c.run(40);
        c.set_execution(ClusterExecution::Sequential);
        let r = c.run(40);
        assert_eq!(r.queries, 40);
        assert_eq!(c.queries_run, 120);
    }
}
