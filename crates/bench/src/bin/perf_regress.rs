//! Performance-regression harness.
//!
//! **Engine arm** (PR 1, `BENCH_1.json`): runs one pinned, seeded
//! workload twice — once on the reference hot paths (linear victim
//! scans, `HashMap` top-K accumulator) and once on the optimized ones
//! (indexed victim selection, pooled open-addressed scratch) — and emits
//! a machine-readable JSON report.
//!
//! **Cluster arm** (PR 2, `BENCH_2.json`): runs one pinned, seeded
//! 4-shard cluster workload on both `ClusterExecution` arms — the
//! sequential reference loop and the persistent shard-worker pool — and
//! reports wall-clock for each, plus `max_worker_busy` (the pool's
//! critical path: what a machine with one core per worker would pay —
//! when workers outnumber cores the span absorbs preemption and
//! degenerates to the wall-clock). `available_parallelism` is recorded
//! because the wall-clock speedup is hardware-bound: on a single-core
//! container the pool can only tie the sequential arm; the ≥2x target
//! at 4 shards needs ≥2 free cores.
//!
//! **Postings arm** (PR 3, `BENCH_3.json`): runs the engine workload on
//! both `PostingsBackend`s — the reference traversal and the blocked
//! lists with block-max skipping — with every other toggle held at its
//! optimized setting, so the measured gap is the postings representation
//! alone. The blocked arm additionally reports its block-max accounting
//! (bounds consulted, postings pruned unread) and the block store's
//! footprint.
//!
//! **I/O-path arm** (PR 4, `BENCH_4.json`): runs the engine workload at
//! queue depth 1 + FIFO (the synchronous model; the committed file's
//! `direct` rows are these) and at depth 4 + elevator scheduling, where
//! NCQ-style reordering of the batched index reads is *allowed* to move
//! the simulated response times. A second uncached seek-bound pair
//! (`ncq_arms`) isolates the elevator's benefit: with every query
//! batching HDD index reads, depth-4 elevator scheduling shortens the
//! seek path and improves mean response — the headline
//! `response_time_ratio_vs_depth1`. On the hybrid config the
//! cache SSD absorbs most reads and the dominant queueing effect is
//! RB-flush lane contention, so that ratio (`hybrid_response_time_*`)
//! dips slightly below 1 and is recorded alongside. Both deep arms
//! report measured mean/max device-queue occupancy.
//!
//! **Admission arm** (PR 6, `BENCH_5.json`): runs a scenario × policy
//! matrix — the stationary log plus the three adversarial streams
//! (drifting-Zipf, topic-churn, scan-heavy) against the static paper
//! gate (CBLRU and seeded CBSLRU) and the sketch-based admission tier
//! (CBLRU + TinyLFU filter, ghost cache, online TEV/window controller).
//! Here the figures are *supposed* to move: the committed claim is that
//! the sketch arm writes fewer SSD bytes and erases fewer flash blocks
//! on the churn and scan scenarios at an equal-or-better hit ratio. A
//! separate `static_bit_identical` check re-verifies the inertness
//! contract (sketch params present but policy `Static` changes nothing),
//! and a hasher micro-bench records the FxHash-vs-SipHash map speedup
//! behind the hot-path swap.
//!
//! **Offload arm** (PR 7, `BENCH_7.json`): the in-flash postings
//! intersection offload. A queue-depth × channel-count grid of
//! Host/`InFlash` engine pairs re-checks the bit-identity gate (full
//! `RunReport`, both submission-queue sections, the cache SSD's whole
//! `IoStats` mirror — the reference compute model is timing-neutral, so
//! *everything* but the bus ledger must agree), plus one
//! production-scale headline pair for the measured bus-bytes-crossed
//! reduction. A device-level selectivity microbench then prices the
//! offload under the *active* compute model across three regimes:
//! selective intersections (the claim regime — large bus reduction, scan
//! latency amortized across channels), sparse probes (host galloping
//! does far less device work), and dense matches (the offload honestly
//! *loses*: it crosses more bytes than the plain read and its serial
//! emit cost grows with channel count).
//!
//! **Mutation arm** (PR 9, `BENCH_8.json`): the live-index write path.
//! A zero-ingest `Live` engine is first checked bit-identical to the
//! `Frozen` seed arm (the mutability toggle's oracle). Then, across a
//! sweep of ingest mixes (mutation ops interleaved with queries at 5,
//! 25 and 100 ops per 100 queries, an eager seal/compact lifecycle so
//! merges actually happen), `Cooperative` compaction reconciliation is
//! run against naive `InvalidateAll`: the two must agree on every
//! result (equal order-insensitive digests, equal postings scanned) and
//! cooperative reconciliation must keep a better SSD list hit ratio on
//! the churn-heavy mixes — never worse there, strictly better on at
//! least one (the lightest mix drives too few compactions to gate on
//! and is recorded only). Each row
//! reports query p50/p99, SSD hit ratios, flash write-amplification and
//! erasures, and the mutation ledger (WAL bytes, seals, compactions,
//! merge traffic, background mutation I/O time).
//!
//! In the first three arms every **simulated figure must be bit-identical** (hit
//! ratio, response times, cache/flash counters, the full `RunReport` /
//! `ClusterReport`): the optimizations are behavior-preserving by
//! construction, and this harness re-checks that end-to-end on every
//! run. Wall-clock is the only number allowed to move.
//!
//!     cargo run --release -p bench --bin perf_regress \
//!         [-- --out PATH] [--cluster-out PATH] [--postings-out PATH] \
//!         [--iopath-out PATH] [--iopath-depth N] [--admission-out PATH] \
//!         [--serving-out PATH] [--offload-out PATH] [--mutation-out PATH]
//!
//! Exit status is non-zero if any arm's simulated figures diverge, or if
//! the admission arm's efficiency claim or the serving arm's
//! latency-vs-load claim fails to hold.

use std::time::Instant;

use bench::{cache_config, run_cached};
use engine::{
    detect_knee, ClusterExecution, ClusterReport, CompactionMode, EngineConfig, IndexMutability,
    IndexPlacement, LiveConfig, LoadPoint, OffloadMode, OpenLoopConfig, Outcome, PostingsBackend,
    RunReport, SearchCluster, SearchEngine, ServingMode, ServingOutcome, ServingReport, ServingSim,
};
use flashsim::{ComputeParams, FlashParams, PageMapFtl, SsdDisk};
use hybridcache::{AdmissionConfig, AdmissionPolicy, AdmissionStats, PolicyKind};
use searchidx::{
    flash_scan, host_gallop, BlockSortedList, DecodeArena, GrowthPolicy, MutationStats,
    OffloadPredicate, Posting, PostingList, SegmentPolicy,
};
use simclock::SimDuration;
use storagecore::{
    BlockDevice, Extent, IoRequest, QueueDepthStats, SchedulerPolicy, OFFLOAD_DESCRIPTOR_BYTES,
    SECTOR_SIZE,
};
use workload::{
    Arrival, ArrivalKind, ArrivalProcess, DriftingZipfLog, IngestSpec, IngestStream, MutationOp,
    Query, QueryLog, ScanHeavyLog, TopicChurnLog,
};

// The pinned workload: large enough that victim selection and top-K
// accumulation dominate, small enough for a CI-friendly run.
const DOCS: u64 = 400_000;
const QUERIES: usize = 30_000;
const SEED: u64 = 42;
const MEM_BYTES: u64 = 16 << 20;
const SSD_BYTES: u64 = 160 << 20;

// The pinned cluster workload: 4 document-partitioned shards (100 k docs
// each), per-shard CBLRU caches, one shared broadcast stream.
const CLUSTER_SHARDS: usize = 4;
const CLUSTER_DOCS: u64 = 400_000;
const CLUSTER_QUERIES: usize = 8_000;
const CLUSTER_MEM_BYTES: u64 = 4 << 20;
const CLUSTER_SSD_BYTES: u64 = 40 << 20;

// The pinned serving workload: a 2-replica tier of 2-shard clusters,
// swept over offered loads expressed as multiples of the naive
// (batch-1) aggregate capacity measured in-run.
const SERVING_SHARDS: usize = 2;
const SERVING_REPLICAS: usize = 2;
const SERVING_DOCS: u64 = 80_000;
const SERVING_QUERIES: usize = 2_000;
const SERVING_MEM_BYTES: u64 = 2 << 20;
const SERVING_SSD_BYTES: u64 = 20 << 20;
const SERVING_OVERHEAD: SimDuration = SimDuration::from_micros(500);
const SERVING_BATCH_MAX: usize = 16;
const SERVING_LOAD_FACTORS: [f64; 6] = [0.4, 0.7, 0.9, 1.0, 1.2, 1.5];
const SERVING_SCENARIOS: [&str; 3] = ["poisson", "bursty", "flash_crowd"];

/// Single home for the "this host timeshares" caveat (the engine,
/// cluster, and serving arms all need it): warns when the pool cannot
/// get one core per worker and returns whether that is the case, so
/// reports can record the flag instead of readers inferring it.
fn warn_if_timeshared(cores: usize, needed: usize, context: &str) -> bool {
    let timeshared = cores < needed;
    if timeshared {
        eprintln!(
            "WARNING: only {cores} core(s) for {needed} concurrent workers in the \
             {context} — wall-clock figures timeshare (speedups degrade toward 1x and \
             busy-spans absorb preemption); simulated figures are unaffected. Rerun on \
             a host with >= {needed} cores for meaningful wall-clock ratios"
        );
    }
    timeshared
}

/// One measured arm.
struct Arm {
    label: &'static str,
    report: RunReport,
    /// Evictions at the SSD stores (list evictions + RB collateral).
    evictions: u64,
    wall_secs: f64,
}

fn run_arm(label: &'static str, reference: bool) -> Arm {
    let cfg = cache_config(
        MEM_BYTES,
        SSD_BYTES,
        PolicyKind::Cbslru {
            static_fraction: 0.3,
        },
    );
    let policy = cfg.policy;
    let t0 = Instant::now();
    let mut e = SearchEngine::new(EngineConfig::cached(DOCS, cfg, SEED));
    e.set_reference_mode(reference);
    if matches!(policy, PolicyKind::Cbslru { .. }) {
        e.seed_static_from_log(QUERIES);
    }
    let report = e.run(QUERIES);
    let wall_secs = t0.elapsed().as_secs_f64();
    let (rc, ic) = e.cache().expect("cached config").store_stats();
    Arm {
        label,
        report,
        evictions: ic.evictions + rc.collateral_evictions,
        wall_secs,
    }
}

/// One measured postings arm.
struct PostingsArm {
    label: &'static str,
    report: RunReport,
    evictions: u64,
    wall_secs: f64,
    /// Block-max accounting (zeros on the reference backend).
    skips: searchidx::SkipStats,
    /// Block-store footprint (zeros on the reference backend).
    store: searchidx::BlockStoreStats,
}

fn run_postings_arm(label: &'static str, backend: PostingsBackend) -> PostingsArm {
    // Identical to the engine arm's workload; reference mode stays OFF on
    // both arms so the postings backend is the only difference.
    let cfg = cache_config(
        MEM_BYTES,
        SSD_BYTES,
        PolicyKind::Cbslru {
            static_fraction: 0.3,
        },
    );
    let t0 = Instant::now();
    let mut e = SearchEngine::new(EngineConfig {
        postings: backend,
        ..EngineConfig::cached(DOCS, cfg, SEED)
    });
    e.seed_static_from_log(QUERIES);
    let report = e.run(QUERIES);
    let wall_secs = t0.elapsed().as_secs_f64();
    let (rc, ic) = e.cache().expect("cached config").store_stats();
    PostingsArm {
        label,
        report,
        evictions: ic.evictions + rc.collateral_evictions,
        wall_secs,
        skips: e.postings_skip_stats(),
        store: e.postings_store_stats(),
    }
}

fn postings_arm_json(a: &PostingsArm) -> String {
    let r = &a.report;
    let cache = cache_of(r);
    format!(
        concat!(
            "    {{\n",
            "      \"label\": \"{}\",\n",
            "      \"wall_clock_secs\": {:.6},\n",
            "      \"wall_queries_per_sec\": {:.3},\n",
            "      \"sim_hit_ratio\": {:.17},\n",
            "      \"sim_mean_response_ns\": {},\n",
            "      \"sim_p99_response_ns\": {},\n",
            "      \"sim_elapsed_ns\": {},\n",
            "      \"postings_scanned\": {},\n",
            "      \"evictions\": {},\n",
            "      \"ssd_bytes_written\": {},\n",
            "      \"blockmax_bounds_probed\": {},\n",
            "      \"blockmax_postings_pruned\": {},\n",
            "      \"block_store_terms\": {},\n",
            "      \"block_store_built_postings\": {},\n",
            "      \"block_store_encoded_bytes\": {},\n",
            "      \"block_store_hot_postings\": {}\n",
            "    }}"
        ),
        a.label,
        a.wall_secs,
        r.queries as f64 / a.wall_secs,
        r.hit_ratio(),
        r.mean_response.as_nanos(),
        r.p99_response.as_nanos(),
        r.elapsed.as_nanos(),
        r.postings_scanned,
        a.evictions,
        cache.ssd_bytes_written,
        a.skips.skip_probes,
        a.skips.skipped,
        a.store.terms,
        a.store.built_postings,
        a.store.encoded_bytes,
        a.store.hot_postings,
    )
}

/// Run both postings arms, emit `BENCH_3.json`, and return whether the
/// simulated figures were bit-identical.
fn postings_regress(out: &str) -> bool {
    let reference = run_postings_arm("reference_postings", PostingsBackend::Reference);
    eprintln!(
        "postings reference: {} ({:.2}s wall)",
        reference.report.summary(),
        reference.wall_secs
    );
    let blocked = run_postings_arm("blocked_postings", PostingsBackend::Blocked);
    eprintln!(
        "postings blocked:   {} ({:.2}s wall)",
        blocked.report.summary(),
        blocked.wall_secs
    );

    // The contract: the entire RunReport (and the store-level eviction
    // counters) is bit-identical — block-max skipping only removes work
    // the quit rules were about to remove posting-by-posting.
    let identical = reference.report == blocked.report && reference.evictions == blocked.evictions;
    let speedup = reference.wall_secs / blocked.wall_secs;

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"perf_regress_postings\",\n",
            "  \"workload\": {{\n",
            "    \"docs\": {},\n",
            "    \"queries\": {},\n",
            "    \"seed\": {},\n",
            "    \"mem_bytes\": {},\n",
            "    \"ssd_bytes\": {},\n",
            "    \"policy\": \"CBSLRU(0.3)\"\n",
            "  }},\n",
            "  \"arms\": [\n{},\n{}\n  ],\n",
            "  \"sim_figures_bit_identical\": {},\n",
            "  \"wall_clock_speedup\": {:.3}\n",
            "}}\n"
        ),
        DOCS,
        QUERIES,
        SEED,
        MEM_BYTES,
        SSD_BYTES,
        postings_arm_json(&reference),
        postings_arm_json(&blocked),
        identical,
        speedup,
    );
    std::fs::write(out, &json)
        .unwrap_or_else(|e| panic!("cannot write postings report to {out}: {e}"));
    println!("{json}");
    println!("wrote {out}; postings speedup {speedup:.2}x, sim figures identical: {identical}");
    identical
}

fn cache_of(r: &RunReport) -> &hybridcache::CacheStats {
    r.cache.as_ref().expect("cached run")
}

fn arm_json(a: &Arm) -> String {
    let r = &a.report;
    let cache = cache_of(r);
    format!(
        concat!(
            "    {{\n",
            "      \"label\": \"{}\",\n",
            "      \"wall_clock_secs\": {:.6},\n",
            "      \"wall_queries_per_sec\": {:.3},\n",
            "      \"evictions\": {},\n",
            "      \"evictions_per_wall_sec\": {:.3},\n",
            "      \"sim_hit_ratio\": {:.17},\n",
            "      \"sim_mean_response_ns\": {},\n",
            "      \"sim_p99_response_ns\": {},\n",
            "      \"sim_throughput_qps\": {:.17},\n",
            "      \"sim_elapsed_ns\": {},\n",
            "      \"postings_scanned\": {},\n",
            "      \"ssd_bytes_written\": {},\n",
            "      \"ssd_admissions\": {}\n",
            "    }}"
        ),
        a.label,
        a.wall_secs,
        r.queries as f64 / a.wall_secs,
        a.evictions,
        a.evictions as f64 / a.wall_secs,
        r.hit_ratio(),
        r.mean_response.as_nanos(),
        r.p99_response.as_nanos(),
        r.throughput_qps,
        r.elapsed.as_nanos(),
        r.postings_scanned,
        cache.ssd_bytes_written,
        cache.results.ssd_admissions + cache.lists.ssd_admissions,
    )
}

/// One measured cluster arm.
struct ClusterArm {
    label: &'static str,
    report: ClusterReport,
    wall_secs: f64,
    /// Pool workers (1 on the sequential arm's calling thread).
    workers: usize,
    /// Critical path: cumulative busy time of the busiest pool worker
    /// (equals `wall_secs` on the sequential arm).
    max_busy_secs: f64,
}

fn run_cluster_arm(label: &'static str, exec: ClusterExecution) -> ClusterArm {
    let cfg = EngineConfig::cached(
        CLUSTER_DOCS,
        cache_config(CLUSTER_MEM_BYTES, CLUSTER_SSD_BYTES, PolicyKind::Cblru),
        SEED,
    );
    let mut c = SearchCluster::new(cfg, CLUSTER_SHARDS);
    c.set_execution(exec);
    let workers = match c.execution() {
        ClusterExecution::Sequential => 1,
        ClusterExecution::Parallel { workers } => workers,
    };
    let t0 = Instant::now();
    let report = c.run(CLUSTER_QUERIES);
    let wall_secs = t0.elapsed().as_secs_f64();
    let max_busy_secs = c.max_worker_busy().map_or(wall_secs, |d| d.as_secs_f64());
    ClusterArm {
        label,
        report,
        wall_secs,
        workers,
        max_busy_secs,
    }
}

fn cluster_arm_json(a: &ClusterArm) -> String {
    let r = &a.report;
    format!(
        concat!(
            "    {{\n",
            "      \"label\": \"{}\",\n",
            "      \"workers\": {},\n",
            "      \"wall_clock_secs\": {:.6},\n",
            "      \"wall_queries_per_sec\": {:.3},\n",
            "      \"max_worker_busy_secs\": {:.6},\n",
            "      \"sim_mean_response_ns\": {},\n",
            "      \"sim_mean_fastest_shard_ns\": {},\n",
            "      \"sim_throughput_qps\": {:.17},\n",
            "      \"sim_mean_hit_ratio\": {:.17},\n",
            "      \"sim_shard0_postings_scanned\": {}\n",
            "    }}"
        ),
        a.label,
        a.workers,
        a.wall_secs,
        r.queries as f64 / a.wall_secs,
        a.max_busy_secs,
        r.mean_response.as_nanos(),
        r.mean_fastest_shard.as_nanos(),
        r.throughput_qps,
        r.mean_hit_ratio(),
        r.shards[0].postings_scanned,
    )
}

/// Run both cluster arms, emit `BENCH_2.json`, and return whether the
/// simulated figures were bit-identical.
fn cluster_regress(out: &str) -> bool {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let seq = run_cluster_arm("sequential", ClusterExecution::Sequential);
    eprintln!(
        "cluster sequential: mean {} | {:.2} q/s sim | {:.2}s wall",
        seq.report.mean_response, seq.report.throughput_qps, seq.wall_secs
    );
    let par = run_cluster_arm(
        "parallel",
        ClusterExecution::Parallel {
            workers: CLUSTER_SHARDS,
        },
    );
    eprintln!(
        "cluster parallel:   mean {} | {:.2} q/s sim | {:.2}s wall ({:.2}s critical path)",
        par.report.mean_response, par.report.throughput_qps, par.wall_secs, par.max_busy_secs
    );

    // The contract: the full ClusterReport — per-query statistics,
    // virtual clock, every per-shard cache/flash counter — is identical.
    let identical = seq.report == par.report;
    let speedup = seq.wall_secs / par.wall_secs;
    let critical_path_speedup = seq.wall_secs / par.max_busy_secs;

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"perf_regress_cluster\",\n",
            "  \"workload\": {{\n",
            "    \"docs\": {},\n",
            "    \"shards\": {},\n",
            "    \"queries\": {},\n",
            "    \"seed\": {},\n",
            "    \"mem_bytes_per_shard\": {},\n",
            "    \"ssd_bytes_per_shard\": {},\n",
            "    \"policy\": \"CBLRU\"\n",
            "  }},\n",
            "  \"available_parallelism\": {},\n",
            "  \"arms\": [\n{},\n{}\n  ],\n",
            "  \"sim_figures_bit_identical\": {},\n",
            "  \"wall_clock_speedup\": {:.3},\n",
            "  \"critical_path_speedup\": {:.3}\n",
            "}}\n"
        ),
        CLUSTER_DOCS,
        CLUSTER_SHARDS,
        CLUSTER_QUERIES,
        SEED,
        CLUSTER_MEM_BYTES,
        CLUSTER_SSD_BYTES,
        cores,
        cluster_arm_json(&seq),
        cluster_arm_json(&par),
        identical,
        speedup,
        critical_path_speedup,
    );
    std::fs::write(out, &json)
        .unwrap_or_else(|e| panic!("cannot write cluster report to {out}: {e}"));
    println!("{json}");
    println!(
        "wrote {out}; cluster speedup {speedup:.2}x wall ({critical_path_speedup:.2}x \
         critical-path, {cores} core(s) available), sim figures identical: {identical}"
    );
    warn_if_timeshared(cores, CLUSTER_SHARDS, "cluster arm");
    identical
}

/// One measured I/O-path arm.
struct DepthArm {
    label: String,
    depth: usize,
    scheduler: &'static str,
    report: RunReport,
    wall_secs: f64,
    /// Submission-queue accounting at the index device.
    index_queue: QueueDepthStats,
    /// Submission-queue accounting at the cache SSD.
    cache_queue: QueueDepthStats,
}

fn run_iopath_arm(
    label: String,
    sched_name: &'static str,
    depth: usize,
    policy: SchedulerPolicy,
) -> DepthArm {
    let cfg = cache_config(
        MEM_BYTES,
        SSD_BYTES,
        PolicyKind::Cbslru {
            static_fraction: 0.3,
        },
    );
    let t0 = Instant::now();
    let mut e = SearchEngine::new(EngineConfig::cached(DOCS, cfg, SEED));
    e.seed_static_from_log(QUERIES);
    e.set_queue_depth(depth);
    e.set_io_scheduler(policy);
    let report = e.run(QUERIES);
    let wall_secs = t0.elapsed().as_secs_f64();
    DepthArm {
        label,
        depth,
        scheduler: sched_name,
        report,
        wall_secs,
        index_queue: e.index_queue_stats(),
        cache_queue: e.cache_queue_stats(),
    }
}

/// One measured NCQ arm: the uncached seek-bound workload, where the
/// index HDD's queue is the bottleneck and elevator reordering is the
/// whole effect.
struct NcqArm {
    label: String,
    depth: usize,
    scheduler: &'static str,
    report: RunReport,
    wall_secs: f64,
    index_queue: QueueDepthStats,
}

/// Every query misses (no cache), so each one batches its index reads —
/// this is the workload where the device queue actually fills and the
/// elevator's seek-shortening shows up as a response-time win.
const NCQ_QUERIES: usize = 10_000;

fn run_ncq_arm(
    label: String,
    sched_name: &'static str,
    depth: usize,
    policy: SchedulerPolicy,
) -> NcqArm {
    let t0 = Instant::now();
    let mut e = SearchEngine::new(EngineConfig::no_cache(DOCS, IndexPlacement::Hdd, SEED));
    e.set_queue_depth(depth);
    e.set_io_scheduler(policy);
    let report = e.run(NCQ_QUERIES);
    let wall_secs = t0.elapsed().as_secs_f64();
    NcqArm {
        label,
        depth,
        scheduler: sched_name,
        report,
        wall_secs,
        index_queue: e.index_queue_stats(),
    }
}

fn ncq_arm_json(a: &NcqArm) -> String {
    let r = &a.report;
    format!(
        concat!(
            "    {{\n",
            "      \"label\": \"{}\",\n",
            "      \"queue_depth\": {},\n",
            "      \"scheduler\": \"{}\",\n",
            "      \"wall_clock_secs\": {:.6},\n",
            "      \"sim_mean_response_ns\": {},\n",
            "      \"sim_p99_response_ns\": {},\n",
            "      \"sim_elapsed_ns\": {},\n",
            "      \"index_queue_dispatches\": {},\n",
            "      \"index_queue_mean_occupancy\": {:.6},\n",
            "      \"index_queue_max_occupancy\": {},\n",
            "      \"index_queue_mean_wait_ns\": {},\n",
            "      \"index_queue_max_wait_ns\": {}\n",
            "    }}"
        ),
        a.label,
        a.depth,
        a.scheduler,
        a.wall_secs,
        r.mean_response.as_nanos(),
        r.p99_response.as_nanos(),
        r.elapsed.as_nanos(),
        a.index_queue.dispatches(),
        a.index_queue.mean_occupancy(),
        a.index_queue.max_occupancy(),
        a.index_queue.mean_wait().as_nanos(),
        a.index_queue.max_wait().as_nanos(),
    )
}

fn iopath_arm_json(a: &DepthArm) -> String {
    let r = &a.report;
    format!(
        concat!(
            "    {{\n",
            "      \"label\": \"{}\",\n",
            "      \"queue_depth\": {},\n",
            "      \"scheduler\": \"{}\",\n",
            "      \"wall_clock_secs\": {:.6},\n",
            "      \"sim_hit_ratio\": {:.17},\n",
            "      \"sim_mean_response_ns\": {},\n",
            "      \"sim_p99_response_ns\": {},\n",
            "      \"sim_elapsed_ns\": {},\n",
            "      \"index_queue_dispatches\": {},\n",
            "      \"index_queue_mean_occupancy\": {:.6},\n",
            "      \"index_queue_max_occupancy\": {},\n",
            "      \"index_queue_mean_wait_ns\": {},\n",
            "      \"index_queue_max_wait_ns\": {},\n",
            "      \"cache_queue_dispatches\": {},\n",
            "      \"cache_queue_mean_occupancy\": {:.6},\n",
            "      \"cache_queue_max_occupancy\": {}\n",
            "    }}"
        ),
        a.label,
        a.depth,
        a.scheduler,
        a.wall_secs,
        r.hit_ratio(),
        r.mean_response.as_nanos(),
        r.p99_response.as_nanos(),
        r.elapsed.as_nanos(),
        a.index_queue.dispatches(),
        a.index_queue.mean_occupancy(),
        a.index_queue.max_occupancy(),
        a.index_queue.mean_wait().as_nanos(),
        a.index_queue.max_wait().as_nanos(),
        a.cache_queue.dispatches(),
        a.cache_queue.mean_occupancy(),
        a.cache_queue.max_occupancy(),
    )
}

/// Run the I/O-path arms and emit `BENCH_4.json`. `depth` sets the deep
/// arms' queue depth (4 in the committed report; `--iopath-depth` sweeps
/// it).
fn iopath_regress(out: &str, depth: usize) {
    let shallow = run_iopath_arm("depth1_fifo".into(), "fifo", 1, SchedulerPolicy::Fifo);
    eprintln!(
        "iopath depth-1: {} ({:.2}s wall)",
        shallow.report.summary(),
        shallow.wall_secs
    );
    let deep = run_iopath_arm(
        format!("depth{depth}_elevator"),
        "elevator",
        depth,
        SchedulerPolicy::Elevator,
    );
    eprintln!(
        "iopath depth-{depth}: {} ({:.2}s wall)",
        deep.report.summary(),
        deep.wall_secs
    );

    // The NCQ pair: the uncached seek-bound workload, where every query
    // batches index reads and elevator reordering shortens the seek path.
    let ncq_shallow = run_ncq_arm("ncq_depth1_fifo".into(), "fifo", 1, SchedulerPolicy::Fifo);
    eprintln!(
        "ncq depth-1:    {} ({:.2}s wall)",
        ncq_shallow.report.summary(),
        ncq_shallow.wall_secs
    );
    let ncq_deep = run_ncq_arm(
        format!("ncq_depth{depth}_elevator"),
        "elevator",
        depth,
        SchedulerPolicy::Elevator,
    );
    eprintln!(
        "ncq depth-{depth}:    {} ({:.2}s wall)",
        ncq_deep.report.summary(),
        ncq_deep.wall_secs
    );

    // The headline: NCQ reordering is *supposed* to move response times
    // downward on the seek-bound workload (elevator shortens each
    // batch's seek path). On the hybrid config the same deep queue is
    // reported too, but there the cache SSD absorbs most reads and the
    // dominant queueing effect is RB-flush lane contention — that ratio
    // dips slightly below 1 and is recorded honestly alongside.
    let response_ratio = ncq_shallow.report.mean_response.as_nanos() as f64
        / ncq_deep.report.mean_response.as_nanos() as f64;
    let hybrid_ratio = shallow.report.mean_response.as_nanos() as f64
        / deep.report.mean_response.as_nanos() as f64;

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"perf_regress_iopath\",\n",
            "  \"workload\": {{\n",
            "    \"docs\": {},\n",
            "    \"queries\": {},\n",
            "    \"seed\": {},\n",
            "    \"mem_bytes\": {},\n",
            "    \"ssd_bytes\": {},\n",
            "    \"policy\": \"CBSLRU(0.3)\"\n",
            "  }},\n",
            "  \"queue_depth\": {},\n",
            "  \"arms\": [\n{},\n{}\n  ],\n",
            "  \"ncq_workload\": {{ \"docs\": {}, \"queries\": {}, \"placement\": \"hdd_no_cache\" }},\n",
            "  \"ncq_arms\": [\n{},\n{}\n  ],\n",
            "  \"deep_max_device_queue_occupancy\": {},\n",
            "  \"deep_mean_device_queue_occupancy\": {:.6},\n",
            "  \"response_time_ratio_vs_depth1\": {:.6},\n",
            "  \"hybrid_deep_max_device_queue_occupancy\": {},\n",
            "  \"hybrid_response_time_ratio_vs_depth1\": {:.6}\n",
            "}}\n"
        ),
        DOCS,
        QUERIES,
        SEED,
        MEM_BYTES,
        SSD_BYTES,
        depth,
        iopath_arm_json(&shallow),
        iopath_arm_json(&deep),
        DOCS,
        NCQ_QUERIES,
        ncq_arm_json(&ncq_shallow),
        ncq_arm_json(&ncq_deep),
        ncq_deep.index_queue.max_occupancy(),
        ncq_deep.index_queue.mean_occupancy(),
        response_ratio,
        deep.index_queue.max_occupancy(),
        hybrid_ratio,
    );
    std::fs::write(out, &json)
        .unwrap_or_else(|e| panic!("cannot write iopath report to {out}: {e}"));
    println!("{json}");
    println!(
        "wrote {out}; depth-{depth} NCQ response ratio {response_ratio:.3}x \
         (max queue occupancy {}), hybrid deep ratio {hybrid_ratio:.3}x",
        ncq_deep.index_queue.max_occupancy()
    );
}

// The pinned admission workload: same corpus and budgets as the engine
// arm, driven by each scenario's 30 k-query stream.
const ADM_QUERIES: usize = 30_000;

/// The admission scenario × policy matrix.
const ADM_SCENARIOS: [&str; 4] = ["stationary", "drifting_zipf", "topic_churn", "scan_heavy"];

/// Generate one scenario's query stream off the engine's own log.
fn admission_stream(log: &QueryLog, scenario: &str, n: usize) -> Vec<Query> {
    match scenario {
        "stationary" => log.stream(n),
        // Six phases: the Zipf head flattens to α=0.4 on odd phases while
        // the rank→identity mapping rotates by a prime each phase.
        "drifting_zipf" => DriftingZipfLog::new(log.clone(), n as u64 / 6, 0.4, 7_919)
            .stream_iter(n)
            .collect(),
        // Ten abrupt topic changeovers, zero cross-phase reuse.
        "topic_churn" => TopicChurnLog::new(log.clone(), n as u64 / 10)
            .stream_iter(n)
            .collect(),
        // A third of the stream is never-repeating scan queries.
        "scan_heavy" => ScanHeavyLog::new(log.clone(), 4, 2)
            .stream_iter(n)
            .collect(),
        other => unreachable!("unknown scenario {other}"),
    }
}

/// One measured admission arm.
struct AdmissionArm {
    label: &'static str,
    report: RunReport,
    wall_secs: f64,
    admission: AdmissionStats,
    /// The controller's final TEV (the configured base under `Static`).
    final_tev: f64,
}

fn run_admission_arm(
    label: &'static str,
    policy: PolicyKind,
    admission: AdmissionConfig,
    seed_static: bool,
    queries: &[Query],
) -> AdmissionArm {
    let mut cache = cache_config(MEM_BYTES, SSD_BYTES, policy);
    cache.admission = admission;
    let t0 = Instant::now();
    let mut e = SearchEngine::new(EngineConfig::cached(DOCS, cache, SEED));
    if seed_static {
        e.seed_static_from_log(queries.len());
    }
    let report = e.run_queries(queries);
    let wall_secs = t0.elapsed().as_secs_f64();
    let m = e.cache().expect("cached config");
    AdmissionArm {
        label,
        report,
        wall_secs,
        admission: m.admission_stats(),
        final_tev: m.admission().tev(),
    }
}

fn admission_arm_json(a: &AdmissionArm) -> String {
    let r = &a.report;
    let cache = cache_of(r);
    let s = &a.admission;
    format!(
        concat!(
            "        {{\n",
            "          \"label\": \"{}\",\n",
            "          \"wall_clock_secs\": {:.6},\n",
            "          \"sim_hit_ratio\": {:.17},\n",
            "          \"sim_mean_response_ns\": {},\n",
            "          \"ssd_bytes_written\": {},\n",
            "          \"block_erases\": {},\n",
            "          \"ssd_admissions\": {},\n",
            "          \"ssd_rejections\": {},\n",
            "          \"sketch_list_filtered\": {},\n",
            "          \"sketch_result_filtered\": {},\n",
            "          \"ghost_fast_tracks\": {},\n",
            "          \"controller_epochs\": {},\n",
            "          \"controller_tev_raises\": {},\n",
            "          \"controller_tev_cuts\": {},\n",
            "          \"controller_window_shrinks\": {},\n",
            "          \"controller_window_grows\": {},\n",
            "          \"final_tev\": {:.6}\n",
            "        }}"
        ),
        a.label,
        a.wall_secs,
        r.hit_ratio(),
        r.mean_response.as_nanos(),
        cache.ssd_bytes_written,
        r.flash.map_or(0, |f| f.block_erases),
        cache.results.ssd_admissions + cache.lists.ssd_admissions,
        cache.results.ssd_rejections + cache.lists.ssd_rejections,
        s.list_filtered,
        s.result_filtered,
        s.list_fast_tracks + s.result_fast_tracks,
        s.epochs,
        s.tev_raises,
        s.tev_cuts,
        s.window_shrinks,
        s.window_grows,
        a.final_tev,
    )
}

/// Re-verify the inertness contract end-to-end: an engine whose config
/// carries the full sketch parameter block pinned to `Static` must
/// produce the same `RunReport` (and store counters) as one with the
/// bare static default, on the most stateful config (seeded CBSLRU).
fn admission_static_identity(queries: &[Query]) -> bool {
    let policy = PolicyKind::Cbslru {
        static_fraction: 0.3,
    };
    let run = |admission: AdmissionConfig| {
        let mut cache = cache_config(MEM_BYTES, SSD_BYTES, policy);
        cache.admission = admission;
        let mut e = SearchEngine::new(EngineConfig::cached(DOCS, cache, SEED));
        e.seed_static_from_log(queries.len());
        let report = e.run_queries(queries);
        let stores = e.cache().expect("cached config").store_stats();
        (report, stores)
    };
    let bare = run(AdmissionConfig::static_default());
    let mut pinned = AdmissionConfig::sketch_default();
    pinned.policy = AdmissionPolicy::Static;
    let inert = run(pinned);
    bare == inert
}

/// Time `ops` insert+probe rounds on both map flavors: the std SipHash
/// default that the hot paths used before the swap, and the `fxmap`
/// maps they use now. Returns (siphash_secs, fxhash_secs).
fn hasher_microbench() -> (f64, f64) {
    const KEYS: u64 = 400_000;
    const ROUNDS: usize = 4;
    fn drive<M>(
        mut insert: impl FnMut(&mut M, u64),
        mut probe: impl FnMut(&M, u64) -> u64,
        mut fresh: impl FnMut() -> M,
    ) -> (f64, u64) {
        let t0 = Instant::now();
        let mut sink = 0u64;
        for _ in 0..ROUNDS {
            let mut m = fresh();
            for k in 0..KEYS {
                insert(&mut m, k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            }
            for k in 0..KEYS {
                sink ^= probe(&m, k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            }
        }
        (t0.elapsed().as_secs_f64(), sink)
    }
    let (sip, sink_a) = drive(
        |m: &mut std::collections::HashMap<u64, u64>, k| {
            m.insert(k, k >> 7);
        },
        |m, k| m.get(&k).copied().unwrap_or(0),
        std::collections::HashMap::new,
    );
    let (fx, sink_b) = drive(
        |m: &mut fxmap::FxHashMap<u64, u64>, k| {
            m.insert(k, k >> 7);
        },
        |m, k| m.get(&k).copied().unwrap_or(0),
        fxmap::FxHashMap::default,
    );
    assert_eq!(sink_a, sink_b, "map flavors disagreed on contents");
    (sip, fx)
}

/// Run the admission scenario × policy matrix, emit `BENCH_5.json`, and
/// return whether (a) the static arm stayed bit-identical with sketch
/// params present, and (b) the sketch arm's efficiency claim held on the
/// churn and scan scenarios.
fn admission_regress(out: &str) -> bool {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    warn_if_timeshared(cores, 4, "admission arm");

    // One throwaway engine donates the log all scenario streams share.
    let log = SearchEngine::new(EngineConfig::cached(
        DOCS,
        cache_config(MEM_BYTES, SSD_BYTES, PolicyKind::Cblru),
        SEED,
    ))
    .log()
    .clone();

    let policies: [(&str, PolicyKind, AdmissionConfig, bool); 3] = [
        (
            "static_cblru",
            PolicyKind::Cblru,
            AdmissionConfig::static_default(),
            false,
        ),
        (
            "static_cbslru",
            PolicyKind::Cbslru {
                static_fraction: 0.3,
            },
            AdmissionConfig::static_default(),
            true,
        ),
        (
            "sketch_cblru",
            PolicyKind::Cblru,
            AdmissionConfig::sketch_default(),
            false,
        ),
    ];

    let mut scenario_blocks = Vec::new();
    let mut claim_lines = Vec::new();
    let mut claims_hold = true;
    for scenario in ADM_SCENARIOS {
        let stream = admission_stream(&log, scenario, ADM_QUERIES);
        let arms: Vec<AdmissionArm> = policies
            .iter()
            .map(|&(label, policy, admission, seeded)| {
                let a = run_admission_arm(label, policy, admission, seeded, &stream);
                eprintln!(
                    "admission {scenario:>13} {label:>14}: hit {:.2}% | {} B written | {} erases \
                     ({:.2}s wall)",
                    a.report.hit_ratio() * 100.0,
                    cache_of(&a.report).ssd_bytes_written,
                    a.report.flash.map_or(0, |f| f.block_erases),
                    a.wall_secs
                );
                a
            })
            .collect();

        // The headline claim, checked on the adversarial scenarios: the
        // sketch gate spends strictly fewer SSD bytes (and no more
        // erasures) than the static gate on the same base policy, without
        // giving up hit ratio.
        if matches!(scenario, "topic_churn" | "scan_heavy") {
            let stat = &arms[0];
            let sketch = &arms[2];
            let bytes_reduced = cache_of(&sketch.report).ssd_bytes_written
                < cache_of(&stat.report).ssd_bytes_written;
            let erases_not_worse = sketch.report.flash.map_or(0, |f| f.block_erases)
                <= stat.report.flash.map_or(0, |f| f.block_erases);
            let hit_not_worse = sketch.report.hit_ratio() >= stat.report.hit_ratio();
            claims_hold &= bytes_reduced && erases_not_worse && hit_not_worse;
            claim_lines.push(format!(
                concat!(
                    "    {{ \"scenario\": \"{}\", \"bytes_reduced\": {}, ",
                    "\"erases_not_worse\": {}, \"hit_ratio_not_worse\": {} }}"
                ),
                scenario, bytes_reduced, erases_not_worse, hit_not_worse
            ));
        }

        let arm_json: Vec<String> = arms.iter().map(admission_arm_json).collect();
        scenario_blocks.push(format!(
            "    {{\n      \"scenario\": \"{}\",\n      \"arms\": [\n{}\n      ]\n    }}",
            scenario,
            arm_json.join(",\n")
        ));
    }

    let static_identical =
        admission_static_identity(&admission_stream(&log, "stationary", ADM_QUERIES));
    eprintln!("admission static bit-identity (sketch params pinned to Static): {static_identical}");

    let (sip_secs, fx_secs) = hasher_microbench();

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"perf_regress_admission\",\n",
            "  \"workload\": {{\n",
            "    \"docs\": {},\n",
            "    \"queries_per_scenario\": {},\n",
            "    \"seed\": {},\n",
            "    \"mem_bytes\": {},\n",
            "    \"ssd_bytes\": {}\n",
            "  }},\n",
            "  \"cores\": {},\n",
            "  \"hasher_swap\": {{\n",
            "    \"note\": \"hot-path maps moved from std SipHash to fxmap; 400k u64 insert+probe rounds\",\n",
            "    \"siphash_map_secs\": {:.6},\n",
            "    \"fxhash_map_secs\": {:.6},\n",
            "    \"speedup\": {:.3}\n",
            "  }},\n",
            "  \"static_bit_identical\": {},\n",
            "  \"scenarios\": [\n{}\n  ],\n",
            "  \"claims\": [\n{}\n  ],\n",
            "  \"admission_claims_hold\": {}\n",
            "}}\n"
        ),
        DOCS,
        ADM_QUERIES,
        SEED,
        MEM_BYTES,
        SSD_BYTES,
        cores,
        sip_secs,
        fx_secs,
        sip_secs / fx_secs,
        static_identical,
        scenario_blocks.join(",\n"),
        claim_lines.join(",\n"),
        claims_hold,
    );
    std::fs::write(out, &json)
        .unwrap_or_else(|e| panic!("cannot write admission report to {out}: {e}"));
    println!("{json}");
    println!(
        "wrote {out}; admission claims hold: {claims_hold}, static identical: {static_identical}"
    );
    static_identical && claims_hold
}

fn serving_cfg() -> EngineConfig {
    EngineConfig::cached(
        SERVING_DOCS,
        cache_config(SERVING_MEM_BYTES, SERVING_SSD_BYTES, PolicyKind::Cblru),
        SEED,
    )
}

/// Arrival stream for one (scenario, rate) cell. Every scenario is
/// parameterized so its *mean* rate is `rate_qps`; the shapes differ
/// (steady Poisson, 2-state MMPP bursts, a flash crowd a third of the
/// way into the horizon).
fn serving_arrivals(scenario: &str, rate_qps: f64, log: &QueryLog) -> Vec<Arrival> {
    let horizon_secs = SERVING_QUERIES as f64 / rate_qps;
    let kind = match scenario {
        "poisson" => ArrivalKind::Poisson { rate_qps },
        "bursty" => ArrivalKind::Bursty {
            base_qps: 0.5 * rate_qps,
            burst_qps: 1.5 * rate_qps,
            mean_dwell_secs: (horizon_secs / 20.0).max(0.05),
        },
        "flash_crowd" => ArrivalKind::FlashCrowd {
            base_qps: 0.8 * rate_qps,
            spike_factor: 4.0,
            spike_start_secs: horizon_secs / 3.0,
            spike_secs: horizon_secs / 6.0,
        },
        other => panic!("unknown serving scenario {other}"),
    };
    ArrivalProcess::new(log.clone(), kind).generate(SERVING_QUERIES)
}

/// One measured load point of one serving arm.
struct ServingPoint {
    factor: f64,
    report: ServingReport,
}

/// Run one (config, arrival stream) cell on a fresh replicated tier and
/// return the report plus per-replica per-worker busy time.
fn run_serving_point(oc: OpenLoopConfig, arr: &[Arrival]) -> (ServingReport, Vec<Vec<f64>>) {
    let mut sim = ServingSim::new(
        serving_cfg(),
        SERVING_SHARDS,
        SERVING_REPLICAS,
        ServingMode::OpenLoop(oc),
    );
    sim.set_execution(ClusterExecution::Parallel {
        workers: SERVING_SHARDS,
    });
    let report = match sim.run(arr) {
        ServingOutcome::Open(r) => r,
        ServingOutcome::Closed(_) => unreachable!("mode is OpenLoop"),
    };
    let busy: Vec<Vec<f64>> = (0..SERVING_REPLICAS)
        .map(|i| {
            sim.replica(i)
                .worker_busy()
                .map(|b| b.iter().map(|d| d.as_secs_f64()).collect())
                .unwrap_or_default()
        })
        .collect();
    (report, busy)
}

/// The serving arm's equivalence gate, part 1: `ServingMode::ClosedLoop`
/// must be the seed's closed-loop harness verbatim.
fn serving_closed_loop_identity(log: &QueryLog) -> bool {
    let arr = serving_arrivals("poisson", 100.0, log);
    let mut via = ServingSim::new(serving_cfg(), SERVING_SHARDS, 1, ServingMode::ClosedLoop);
    let through_serving = match via.run(&arr) {
        ServingOutcome::Closed(r) => r,
        ServingOutcome::Open(_) => unreachable!("mode is ClosedLoop"),
    };
    let queries: Vec<Query> = arr.iter().map(|a| a.query.clone()).collect();
    let mut bare = SearchCluster::new(serving_cfg(), SERVING_SHARDS);
    through_serving == bare.run_queries(&queries)
}

/// The serving arm's equivalence gate, part 2: the open loop at the
/// reference configuration must produce per-query service times and
/// cumulative shard reports bit-identical to the closed loop.
fn serving_reference_identity(log: &QueryLog) -> bool {
    let arr = serving_arrivals("poisson", 100.0, log);
    let mut open = ServingSim::new(
        serving_cfg(),
        SERVING_SHARDS,
        1,
        ServingMode::OpenLoop(OpenLoopConfig::reference()),
    );
    match open.run(&arr) {
        ServingOutcome::Open(_) => {}
        ServingOutcome::Closed(_) => unreachable!("mode is OpenLoop"),
    }
    let mut closed = SearchCluster::new(serving_cfg(), SERVING_SHARDS);
    for (rec, a) in open.records().iter().zip(&arr) {
        let response = closed.execute(&a.query);
        match rec.outcome {
            Outcome::Answered { service, .. } if service == response => {}
            _ => return false,
        }
    }
    open.replica_mut(0).run_queries(&[]) == closed.run_queries(&[])
}

fn serving_point_json(p: &ServingPoint) -> String {
    let r = &p.report;
    format!(
        concat!(
            "        {{ \"load_factor\": {:.2}, \"offered_qps\": {:.2}, ",
            "\"goodput_qps\": {:.2}, \"arrivals\": {}, \"answered\": {}, ",
            "\"shed\": {}, \"shed_rate\": {:.4}, \"deadline_misses\": {}, ",
            "\"miss_rate\": {:.4}, \"degraded\": {}, \"mean_ms\": {:.3}, ",
            "\"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"p999_ms\": {:.3}, ",
            "\"max_ms\": {:.3}, \"mean_queue_wait_ms\": {:.3}, ",
            "\"mean_batch\": {:.2}, \"batches\": {}, \"hedges_issued\": {}, ",
            "\"hedges_won\": {}, \"hedge_wasted_ms\": {:.3} }}"
        ),
        p.factor,
        r.offered_qps,
        r.goodput_qps,
        r.arrivals,
        r.answered,
        r.shed,
        r.shed as f64 / r.arrivals.max(1) as f64,
        r.deadline_misses,
        r.deadline_misses as f64 / r.answered.max(1) as f64,
        r.degraded,
        r.mean_response.as_millis_f64(),
        r.p50_response.as_millis_f64(),
        r.p99_response.as_millis_f64(),
        r.p999_response.as_millis_f64(),
        r.max_response.as_millis_f64(),
        r.mean_queue_wait.as_millis_f64(),
        r.mean_batch,
        r.batches,
        r.hedges_issued,
        r.hedges_won,
        r.hedge_wasted.as_millis_f64(),
    )
}

/// Sweep offered load over every scenario on both serving arms, emit
/// `BENCH_6.json`, and return whether the equivalence gates and the
/// latency-vs-load claim (batching + admission + hedging reaches a
/// later knee, or a lower p99 at the top load, than naive FIFO) held.
fn serving_regress(out: &str) -> bool {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    // Each replica runs a SERVING_SHARDS-worker pool concurrently.
    let timeshared = warn_if_timeshared(cores, SERVING_SHARDS * SERVING_REPLICAS, "serving arm");

    let log = SearchCluster::new(serving_cfg(), SERVING_SHARDS)
        .log()
        .clone();

    // Calibrate: the closed loop's mean response is the per-query
    // service cost s, so one replica at batch 1 absorbs 1/(s + o) qps
    // and the tier absorbs REPLICAS times that.
    let mean_service = SearchCluster::new(serving_cfg(), SERVING_SHARDS)
        .run(500)
        .mean_response;
    let naive_capacity = SERVING_REPLICAS as f64 / (mean_service + SERVING_OVERHEAD).as_secs_f64();
    let deadline = (mean_service + SERVING_OVERHEAD) * 6;
    eprintln!(
        "serving calibration: mean service {mean_service}, naive tier capacity \
         {naive_capacity:.1} qps, deadline {deadline}"
    );

    let closed_identical = serving_closed_loop_identity(&log);
    let reference_identical = serving_reference_identity(&log);
    eprintln!(
        "serving equivalence: closed-loop verbatim {closed_identical}, \
         open-loop reference bit-identical {reference_identical}"
    );

    let naive_cfg = OpenLoopConfig::naive_fifo(deadline, SERVING_OVERHEAD);
    let mut batched_cfg = OpenLoopConfig::batched(deadline, SERVING_OVERHEAD, SERVING_BATCH_MAX);
    // Deliberately conservative: on a deterministic tier a slow query is
    // intrinsically expensive, not noisy, so duplicating it can only win
    // via the other replica's cache. Measured at 1.5x the mean the
    // trigger fires on ~70% of answered queries with zero wins and drags
    // the poisson knee from 106.6 to 60.9 qps; at 3x it stays dormant on
    // this workload and acts as a straggler guardrail.
    batched_cfg.hedge_after = Some(mean_service * 3);
    let arms: [(&str, OpenLoopConfig); 2] = [
        ("naive_fifo", naive_cfg),
        ("batched_shed_hedge", batched_cfg),
    ];

    let mut scenario_blocks = Vec::new();
    let mut claim_lines = Vec::new();
    let mut claims_hold = true;
    let mut last_busy: Vec<Vec<f64>> = Vec::new();
    for scenario in SERVING_SCENARIOS {
        let mut arm_blocks = Vec::new();
        let mut knees = Vec::new();
        let mut top_p99s = Vec::new();
        for (label, oc) in &arms {
            let mut points = Vec::new();
            for &factor in &SERVING_LOAD_FACTORS {
                let arr = serving_arrivals(scenario, factor * naive_capacity, &log);
                let (report, busy) = run_serving_point(*oc, &arr);
                eprintln!(
                    "serving {scenario:>11} {label:>18} x{factor:.1}: offered {:>7.1} qps, \
                     goodput {:>7.1} qps, p99 {}, shed {}",
                    report.offered_qps, report.goodput_qps, report.p99_response, report.shed
                );
                last_busy = busy;
                points.push(ServingPoint { factor, report });
            }
            let curve: Vec<LoadPoint> = points
                .iter()
                .map(|p| LoadPoint {
                    offered_qps: p.report.offered_qps,
                    goodput_qps: p.report.goodput_qps,
                })
                .collect();
            let knee = detect_knee(&curve);
            let top_p99 = points
                .last()
                .map_or(SimDuration::ZERO, |p| p.report.p99_response);
            knees.push(knee);
            top_p99s.push(top_p99);
            let point_json: Vec<String> = points.iter().map(serving_point_json).collect();
            arm_blocks.push(format!(
                concat!(
                    "      {{\n",
                    "        \"label\": \"{}\",\n",
                    "        \"knee_qps\": {:.2},\n",
                    "        \"points\": [\n{}\n        ]\n",
                    "      }}"
                ),
                label,
                knee,
                point_json.join(",\n"),
            ));
        }
        // The claim, per scenario: the optimized front-end either pushes
        // the saturation knee measurably later (>5%) or answers with a
        // measurably lower p99 at the top offered load.
        let knee_later = knees[1] > knees[0] * 1.05;
        let p99_lower = top_p99s[1] < top_p99s[0];
        let holds = knee_later || p99_lower;
        claims_hold &= holds;
        claim_lines.push(format!(
            "    {{ \"scenario\": \"{}\", \"naive_knee_qps\": {:.2}, \
             \"batched_knee_qps\": {:.2}, \"naive_top_p99_ms\": {:.3}, \
             \"batched_top_p99_ms\": {:.3}, \"holds\": {} }}",
            scenario,
            knees[0],
            knees[1],
            top_p99s[0].as_millis_f64(),
            top_p99s[1].as_millis_f64(),
            holds,
        ));
        scenario_blocks.push(format!(
            "    {{\n      \"name\": \"{}\",\n      \"arms\": [\n{}\n      ]\n    }}",
            scenario,
            arm_blocks.join(",\n"),
        ));
    }

    let busy_json: Vec<String> = last_busy
        .iter()
        .map(|replica| {
            let workers: Vec<String> = replica.iter().map(|b| format!("{b:.4}")).collect();
            format!("[{}]", workers.join(", "))
        })
        .collect();
    let ok = closed_identical && reference_identical && claims_hold;
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"perf_regress_serving\",\n",
            "  \"workload\": {{\n",
            "    \"docs\": {},\n",
            "    \"shards\": {},\n",
            "    \"replicas\": {},\n",
            "    \"queries_per_point\": {},\n",
            "    \"seed\": {},\n",
            "    \"mem_bytes_per_shard\": {},\n",
            "    \"ssd_bytes_per_shard\": {},\n",
            "    \"policy\": \"CBLRU\",\n",
            "    \"deadline_ms\": {:.3},\n",
            "    \"dispatch_overhead_us\": {},\n",
            "    \"batch_max\": {},\n",
            "    \"load_factors\": [{}]\n",
            "  }},\n",
            "  \"host\": {{\n",
            "    \"available_parallelism\": {},\n",
            "    \"workers_needed\": {},\n",
            "    \"timeshared\": {},\n",
            "    \"per_worker_busy_secs\": [{}]\n",
            "  }},\n",
            "  \"calibration\": {{\n",
            "    \"mean_service_ms\": {:.3},\n",
            "    \"naive_capacity_qps\": {:.2}\n",
            "  }},\n",
            "  \"closed_loop_bit_identical\": {},\n",
            "  \"open_loop_reference_bit_identical\": {},\n",
            "  \"scenarios\": [\n{}\n  ],\n",
            "  \"claims\": [\n{}\n  ],\n",
            "  \"serving_claims_hold\": {}\n",
            "}}\n"
        ),
        SERVING_DOCS,
        SERVING_SHARDS,
        SERVING_REPLICAS,
        SERVING_QUERIES,
        SEED,
        SERVING_MEM_BYTES,
        SERVING_SSD_BYTES,
        deadline.as_millis_f64(),
        SERVING_OVERHEAD.as_nanos() / 1_000,
        SERVING_BATCH_MAX,
        SERVING_LOAD_FACTORS
            .iter()
            .map(|f| format!("{f:.2}"))
            .collect::<Vec<_>>()
            .join(", "),
        cores,
        SERVING_SHARDS * SERVING_REPLICAS,
        timeshared,
        busy_json.join(", "),
        mean_service.as_millis_f64(),
        naive_capacity,
        closed_identical,
        reference_identical,
        scenario_blocks.join(",\n"),
        claim_lines.join(",\n"),
        ok,
    );
    std::fs::write(out, &json)
        .unwrap_or_else(|e| panic!("cannot write serving report to {out}: {e}"));
    println!("{json}");
    println!(
        "wrote {out}; closed-loop identical: {closed_identical}, reference identical: \
         {reference_identical}, load-curve claims hold: {claims_hold}"
    );
    ok
}

// The pinned offload gate grid: a small corpus with a deliberately tight
// memory tier, so postings lists spill to the SSD list store — the reads
// the offload toggle routes — within the first few hundred queries of
// every cell.
const OFFL_DOCS: u64 = 40_000;
const OFFL_QUERIES: usize = 2_000;
const OFFL_MEM_BYTES: u64 = 256 << 10;
const OFFL_SSD_BYTES: u64 = 2 << 20;
const OFFL_DEPTHS: [usize; 3] = [1, 4, 8];
const OFFL_CHANNELS: [u32; 3] = [1, 4, 8];

/// One gate cell: a Host/`InFlash` engine pair on identical configs.
struct OffloadCell {
    depth: usize,
    channels: u32,
    /// Whether every simulated figure outside the bus ledger agreed.
    identical: bool,
    offload_ops: u64,
    saved_bytes: i64,
    host_bus_bytes: u64,
    flash_bus_bytes: u64,
    wall_secs: f64,
}

/// Run one Host/`InFlash` pair at queue depth `depth`.
fn run_offload_pair(
    docs: u64,
    queries: usize,
    mem: u64,
    ssd: u64,
    depth: usize,
    channels: u32,
) -> OffloadCell {
    let t0 = Instant::now();
    let mk = |mode| {
        let mut cfg = EngineConfig::cached(docs, cache_config(mem, ssd, PolicyKind::Cblru), SEED);
        cfg.ssd_channels = channels;
        cfg.queue_depth = depth;
        let mut e = SearchEngine::new(cfg);
        e.set_offload_mode(mode);
        e
    };
    let mut host = mk(OffloadMode::Host);
    let mut flash = mk(OffloadMode::InFlash);
    let rh = host.run(queries);
    let rf = flash.run(queries);
    // The gate: the reference compute model is timing-neutral, so the
    // full report (responses, match sets, cache counters), both
    // submission-queue sections, and the pipeline wrapper's whole
    // IoStats mirror (bus-free by design) must be bit-identical. Only
    // the inner SSD's bus ledger may move.
    let identical = rh == rf
        && host.index_queue_stats() == flash.index_queue_stats()
        && host.cache_queue_stats() == flash.cache_queue_stats()
        && host.cache().expect("cached config").device().stats()
            == flash.cache().expect("cached config").device().stats();
    let bh = host.cache_bus_stats();
    let bf = flash.cache_bus_stats();
    OffloadCell {
        depth,
        channels,
        identical,
        offload_ops: bf.offload_ops(),
        saved_bytes: bf.saved_bytes(),
        host_bus_bytes: bh.host_crossed_bytes(),
        flash_bus_bytes: bf.host_crossed_bytes(),
        wall_secs: t0.elapsed().as_secs_f64(),
    }
}

fn offload_cell_json(c: &OffloadCell) -> String {
    format!(
        concat!(
            "    {{ \"depth\": {}, \"channels\": {}, \"identical\": {}, ",
            "\"offload_ops\": {}, \"bus_saved_bytes\": {}, \"host_bus_bytes\": {}, ",
            "\"inflash_bus_bytes\": {}, \"wall_clock_secs\": {:.3} }}"
        ),
        c.depth,
        c.channels,
        c.identical,
        c.offload_ops,
        c.saved_bytes,
        c.host_bus_bytes,
        c.flash_bus_bytes,
        c.wall_secs,
    )
}

/// One selectivity regime of the device-level microbench: a pinned
/// block-compressed list and predicate, priced both ways on an SSD
/// running the *active* compute model.
struct OffloadRegime {
    name: &'static str,
    entries: u64,
    matches: u64,
    /// Entries the host gallop actually visited (it skips; the flash
    /// scan cannot and always decodes all `entries`).
    gallop_visited: u64,
    bus_bytes_host: u64,
    bus_bytes_inflash: u64,
    /// `(channels, host-read ns, offloaded-read ns)` per swept width.
    latencies: Vec<(u32, u64, u64)>,
    scan_energy_nj: u64,
    emit_energy_nj: u64,
}

/// Entries per microbench list: 128 KiB of postings — 64 paper pages.
const REGIME_ENTRIES: u32 = 16_384;

fn run_offload_regime(name: &'static str, pred: OffloadPredicate) -> OffloadRegime {
    let postings: Vec<Posting> = (0..REGIME_ENTRIES)
        .map(|i| Posting {
            doc: i * 4,
            tf: i % 7 + 1,
        })
        .collect();
    let list = BlockSortedList::from_postings(&PostingList::new(0, postings));
    let scan = flash_scan(&list, &pred);
    let mut arena = DecodeArena::new();
    let (gallop, gallop_stats) = host_gallop(&list, &pred, &mut arena);
    assert_eq!(
        scan.matches, gallop,
        "{name}: flash scan diverged from the host gallop"
    );

    let entry_bytes = searchidx::types::POSTING_BYTES;
    let bytes = list.len() as u64 * entry_bytes;
    let sectors = bytes.div_ceil(SECTOR_SIZE as u64);
    let page = flashsim::PAPER_PAGE_BYTES as u64;
    let scanned_bytes = (sectors * SECTOR_SIZE as u64).div_ceil(page) * page;
    let scan_entries = (scanned_bytes / entry_bytes) as u32;
    let emit_entries = scan.matches.len() as u32;

    let mut latencies = Vec::new();
    let mut scan_energy = 0;
    let mut emit_energy = 0;
    for channels in OFFL_CHANNELS {
        let mut params = FlashParams::paper(8 << 20);
        params.channels = channels;
        params.compute = ComputeParams::active();
        let mut d = SsdDisk::with_ftl(PageMapFtl::new(params));
        let extent = Extent::new(0, sectors);
        d.write(extent).expect("regime extent fits the device");
        let host_ns = d.read(extent).expect("in-region").as_nanos();
        let desc = pred
            .descriptor(entry_bytes as u32)
            .with_counts(scan_entries, emit_entries);
        let flash_ns = d
            .request(&IoRequest::read(extent).with_offload(desc))
            .expect("in-region")
            .as_nanos();
        latencies.push((channels, host_ns, flash_ns));
        scan_energy = d.compute_stats().scan_energy_nj;
        emit_energy = d.compute_stats().emit_energy_nj;
    }
    OffloadRegime {
        name,
        entries: scan.entries_scanned,
        matches: emit_entries as u64,
        gallop_visited: gallop_stats.visited,
        bus_bytes_host: scanned_bytes,
        bus_bytes_inflash: OFFLOAD_DESCRIPTOR_BYTES + emit_entries as u64 * entry_bytes,
        latencies,
        scan_energy_nj: scan_energy,
        emit_energy_nj: emit_energy,
    }
}

fn offload_regime_json(r: &OffloadRegime) -> String {
    let lat: Vec<String> = r
        .latencies
        .iter()
        .map(|(c, h, f)| {
            format!(
                "        {{ \"channels\": {c}, \"host_read_ns\": {h}, \"inflash_read_ns\": {f} }}"
            )
        })
        .collect();
    format!(
        concat!(
            "    {{\n",
            "      \"regime\": \"{}\",\n",
            "      \"entries\": {},\n",
            "      \"matches\": {},\n",
            "      \"gallop_visited\": {},\n",
            "      \"bus_bytes_host\": {},\n",
            "      \"bus_bytes_inflash\": {},\n",
            "      \"scan_energy_nj\": {},\n",
            "      \"emit_energy_nj\": {},\n",
            "      \"latencies\": [\n{}\n      ]\n",
            "    }}"
        ),
        r.name,
        r.entries,
        r.matches,
        r.gallop_visited,
        r.bus_bytes_host,
        r.bus_bytes_inflash,
        r.scan_energy_nj,
        r.emit_energy_nj,
        lat.join(",\n"),
    )
}

/// Run the offload gate grid, the production-scale headline pair, and
/// the selectivity microbench; emit `BENCH_7.json`; return whether the
/// bit-identity gate, the cost-rule safety property, and the
/// bus-reduction claim all held.
fn offload_regress(out: &str) -> bool {
    let mut cells = Vec::new();
    for &depth in &OFFL_DEPTHS {
        for &channels in &OFFL_CHANNELS {
            let cell = run_offload_pair(
                OFFL_DOCS,
                OFFL_QUERIES,
                OFFL_MEM_BYTES,
                OFFL_SSD_BYTES,
                depth,
                channels,
            );
            eprintln!(
                "offload depth {} channels {}: identical {} ({} offloads, {} bus bytes \
                 saved, {:.2}s wall)",
                cell.depth,
                cell.channels,
                cell.identical,
                cell.offload_ops,
                cell.saved_bytes,
                cell.wall_secs
            );
            cells.push(cell);
        }
    }
    // The headline pair: the standard pinned engine workload at queue
    // depth 1 and 4 channels, for the bus-reduction figure at
    // production scale.
    let headline = run_offload_pair(DOCS, QUERIES, MEM_BYTES, SSD_BYTES, 1, 4);
    eprintln!(
        "offload headline: identical {} ({} offloads, {} bus bytes saved, {:.2}s wall)",
        headline.identical, headline.offload_ops, headline.saved_bytes, headline.wall_secs
    );

    let gate_ok = cells.iter().all(|c| c.identical && c.offload_ops > 0)
        && headline.identical
        && headline.offload_ops > 0;
    // The ListStore cost rule only attaches a descriptor where it pays,
    // so the engine-run ledgers must never go negative.
    let cost_rule_ok = cells.iter().all(|c| c.saved_bytes >= 0) && headline.saved_bytes >= 0;

    // The selectivity microbench. Lists hold docs {0, 4, 8, ...}; the
    // three predicates carve out the regimes the routing rule cares
    // about.
    let doc_span = (REGIME_ENTRIES - 1) * 4;
    let regimes = [
        // ~1/64 of the list matches: the offload's home turf.
        run_offload_regime(
            "selective_intersection",
            OffloadPredicate::new(0, doc_span / 64, 0),
        ),
        // A handful of matches, and the gallop skips almost everything:
        // pushing down buys little and the scan decodes 16 k entries the
        // host path never touches.
        run_offload_regime("sparse_probes", OffloadPredicate::new(40_000, 40_016, 0)),
        // Everything matches: the emitted postings are the whole list,
        // so the offload crosses *more* bytes (the descriptor is pure
        // overhead) and its serial emit cost grows with channel count.
        run_offload_regime("dense_matches", OffloadPredicate::new(0, doc_span, 1)),
    ];
    for r in &regimes {
        eprintln!(
            "offload regime {:>22}: {} / {} entries match (gallop visited {}), bus {} -> {} \
             bytes",
            r.name, r.matches, r.entries, r.gallop_visited, r.bus_bytes_host, r.bus_bytes_inflash
        );
    }

    // The claim: on the selective regime the offload crosses at least 4x
    // fewer bus bytes, and the in-flash latency *overhead* (scan time on
    // top of the plain read) shrinks as channels widen, because the scan
    // parallelizes across the per-channel compute units while the
    // per-match emit stays serial and small.
    let selective = &regimes[0];
    let dense = &regimes[2];
    let overhead_ns = |r: &OffloadRegime, ch: u32| -> u64 {
        let (_, h, f) = *r
            .latencies
            .iter()
            .find(|(c, _, _)| *c == ch)
            .expect("swept channel width");
        f - h
    };
    let bus_reduction = selective.bus_bytes_host as f64 / selective.bus_bytes_inflash as f64;
    let claim_ok = bus_reduction >= 4.0
        && overhead_ns(selective, 8) < overhead_ns(selective, 1)
        && overhead_ns(selective, 4) < overhead_ns(selective, 1);
    // The honest loss, recorded: dense matches cross more bytes in-flash
    // than the plain read does.
    let dense_loses_bus = dense.bus_bytes_inflash > dense.bus_bytes_host;

    let ok = gate_ok && cost_rule_ok && claim_ok;
    let cell_json: Vec<String> = cells.iter().map(offload_cell_json).collect();
    let regime_json: Vec<String> = regimes.iter().map(offload_regime_json).collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"perf_regress_offload\",\n",
            "  \"gate_workload\": {{ \"docs\": {}, \"queries\": {}, \"seed\": {}, ",
            "\"mem_bytes\": {}, \"ssd_bytes\": {}, \"policy\": \"CBLRU\" }},\n",
            "  \"gate_cells\": [\n{}\n  ],\n",
            "  \"headline_workload\": {{ \"docs\": {}, \"queries\": {}, \"seed\": {}, ",
            "\"mem_bytes\": {}, \"ssd_bytes\": {}, \"policy\": \"CBLRU\", ",
            "\"channels\": 4, \"queue_depth\": 1 }},\n",
            "  \"headline\": {},\n",
            "  \"microbench_compute\": \"active (8 us/page scan, 50 ns/entry emit, ",
            "100 nJ/page, 1 nJ/entry)\",\n",
            "  \"regimes\": [\n{}\n  ],\n",
            "  \"sim_figures_bit_identical\": {},\n",
            "  \"cost_rule_never_negative\": {},\n",
            "  \"selective_bus_reduction\": {:.3},\n",
            "  \"selective_overhead_ns_ch1\": {},\n",
            "  \"selective_overhead_ns_ch4\": {},\n",
            "  \"selective_overhead_ns_ch8\": {},\n",
            "  \"dense_loses_bus\": {},\n",
            "  \"offload_claims_hold\": {}\n",
            "}}\n"
        ),
        OFFL_DOCS,
        OFFL_QUERIES,
        SEED,
        OFFL_MEM_BYTES,
        OFFL_SSD_BYTES,
        cell_json.join(",\n"),
        DOCS,
        QUERIES,
        SEED,
        MEM_BYTES,
        SSD_BYTES,
        offload_cell_json(&headline).trim_start(),
        regime_json.join(",\n"),
        gate_ok,
        cost_rule_ok,
        bus_reduction,
        overhead_ns(selective, 1),
        overhead_ns(selective, 4),
        overhead_ns(selective, 8),
        dense_loses_bus,
        ok,
    );
    std::fs::write(out, &json)
        .unwrap_or_else(|e| panic!("cannot write offload report to {out}: {e}"));
    println!("{json}");
    println!(
        "wrote {out}; gate identical: {gate_ok}, selective bus reduction {bus_reduction:.1}x, \
         headline saved {} bytes over {} offloads, claims hold: {claim_ok}",
        headline.saved_bytes, headline.offload_ops
    );
    ok
}

// The pinned mutation workload (PR 9, `BENCH_8.json`): the hybrid cache
// config the mutation-equivalence suite pins, an eager segment lifecycle
// so a few thousand ops drive many seals and compactions, swept over
// ingest mixes expressed as mutation ops per 100 queries (the achieved
// ops-per-virtual-second rate is measured in-run and reported).
const MUT_DOCS: u64 = 40_000;
const MUT_QUERIES: usize = 4_000;
const MUT_MEM_BYTES: u64 = 1 << 20;
const MUT_SSD_BYTES: u64 = 8 << 20;
const MUT_VOCAB: u64 = 4_000;
const MUT_MIXES: [u64; 3] = [5, 25, 100];
/// The mixes the efficiency claim is checked on: the churn-heavy ones
/// where compaction is frequent enough for coherence handling to matter
/// (mix 5 drives only a handful of compactions, so its delta is within
/// cache-perturbation noise; it is recorded but not gated).
const MUT_CLAIM_MIXES: [u64; 2] = [25, 100];

/// The eager lifecycle the mutation arm (and the equivalence suite) use:
/// seal every 16 docs, compact at fan-in 3.
fn mutation_segments() -> SegmentPolicy {
    SegmentPolicy {
        seal_threshold_docs: 16,
        compact_fanin: 3,
        growth: GrowthPolicy::Contiguous,
    }
}

fn mutation_engine(mutability: IndexMutability) -> SearchEngine {
    let mut cfg = EngineConfig::cached(
        MUT_DOCS,
        cache_config(MUT_MEM_BYTES, MUT_SSD_BYTES, PolicyKind::Cblru),
        SEED,
    );
    cfg.mutability = mutability;
    SearchEngine::new(cfg)
}

/// One measured mutation arm.
struct MutationArm {
    label: &'static str,
    /// Mutation ops per 100 queries.
    mix: u64,
    report: RunReport,
    p50: SimDuration,
    digest: u64,
    stats: MutationStats,
    mutation_io: SimDuration,
    /// SSD-level hit ratio of the list family (full + partial prefix
    /// hits over lookups) — the figure compaction coherence moves.
    ssd_hit_ratio: f64,
    /// Mutations actually applied.
    applied: u64,
    /// Applied mutations per second of virtual time.
    achieved_rate: f64,
    wall_secs: f64,
}

/// Run one engine over the shared query stream, interleaving the seeded
/// mutation stream at `mix` ops per 100 queries. The schedule is a pure
/// function of the query index and both coherence modes accept every
/// add, so two arms at the same mix replay identical histories. The
/// frozen oracle runs through this same loop (at mix 0, which never
/// mutates) so its report snapshot is comparable field-for-field.
fn run_mutation_arm(label: &'static str, mutability: IndexMutability, mix: u64) -> MutationArm {
    let t0 = Instant::now();
    let mut e = mutation_engine(mutability);
    let queries: Vec<Query> = e.log().clone().stream(MUT_QUERIES);
    let ops = IngestStream::new(IngestSpec::small(MUT_VOCAB, SEED))
        .generate((MUT_QUERIES as u64 * mix / 100) as usize);
    let mut next = ops.iter();
    let mut alive: Vec<u32> = Vec::new();
    let mut applied = 0u64;
    let sim_start = e.now();
    for (i, q) in queries.iter().enumerate() {
        let target = i as u64 * mix / 100;
        while applied < target {
            let Some(m) = next.next() else { break };
            match &m.op {
                MutationOp::AddDoc { terms } => {
                    alive.push(e.ingest_document(terms).expect("mutating arm is live"));
                }
                MutationOp::DeleteDoc { pick } => {
                    if !alive.is_empty() {
                        let idx = (*pick % alive.len() as u64) as usize;
                        e.delete_document(alive.swap_remove(idx));
                    }
                }
            }
            applied += 1;
        }
        e.execute(q);
    }
    let report = e.report();
    let lists = report.cache.as_ref().expect("cached config").lists;
    let ssd_hit_ratio = if lists.lookups() == 0 {
        0.0
    } else {
        (lists.ssd_hits + lists.partial_hits) as f64 / lists.lookups() as f64
    };
    let elapsed = (e.now() - sim_start).as_secs_f64();
    MutationArm {
        label,
        mix,
        p50: e.response_quantile(0.5),
        digest: e.result_digest(),
        stats: e.mutation_stats(),
        mutation_io: e.mutation_io_time(),
        ssd_hit_ratio,
        applied,
        achieved_rate: if elapsed > 0.0 {
            applied as f64 / elapsed
        } else {
            0.0
        },
        wall_secs: t0.elapsed().as_secs_f64(),
        report,
    }
}

fn mutation_arm_json(a: &MutationArm) -> String {
    let r = &a.report;
    let cache = cache_of(r);
    let s = &a.stats;
    format!(
        concat!(
            "        {{\n",
            "          \"label\": \"{}\",\n",
            "          \"ops_per_100_queries\": {},\n",
            "          \"ops_applied\": {},\n",
            "          \"achieved_ingest_ops_per_sim_sec\": {:.3},\n",
            "          \"sim_p50_response_ns\": {},\n",
            "          \"sim_p99_response_ns\": {},\n",
            "          \"sim_mean_response_ns\": {},\n",
            "          \"sim_hit_ratio\": {:.17},\n",
            "          \"list_ssd_hit_ratio\": {:.17},\n",
            "          \"ssd_bytes_written\": {},\n",
            "          \"block_erases\": {},\n",
            "          \"write_amplification\": {:.6},\n",
            "          \"seals\": {},\n",
            "          \"compactions\": {},\n",
            "          \"wal_bytes\": {},\n",
            "          \"merge_bytes_written\": {},\n",
            "          \"tombstones_cleared\": {},\n",
            "          \"mutation_io_ns\": {},\n",
            "          \"postings_scanned\": {},\n",
            "          \"result_digest\": \"{:#018x}\",\n",
            "          \"wall_clock_secs\": {:.6}\n",
            "        }}"
        ),
        a.label,
        a.mix,
        a.applied,
        a.achieved_rate,
        a.p50.as_nanos(),
        r.p99_response.as_nanos(),
        r.mean_response.as_nanos(),
        r.hit_ratio(),
        a.ssd_hit_ratio,
        cache.ssd_bytes_written,
        r.flash.map_or(0, |f| f.block_erases),
        r.flash.map_or(0.0, |f| f.write_amplification),
        s.seals,
        s.compactions,
        s.wal_bytes,
        s.merge_bytes_written,
        s.tombstones_cleared,
        a.mutation_io.as_nanos(),
        r.postings_scanned,
        a.digest,
        a.wall_secs,
    )
}

/// Run the live-index mutation arm, emit `BENCH_8.json`, and return
/// whether (a) the zero-ingest `Live` engine stayed bit-identical to the
/// `Frozen` seed arm, (b) `Cooperative` and `InvalidateAll` compaction
/// agreed on every result at every ingest mix (equal digests, equal
/// postings scanned, with compactions actually exercised), and (c) the
/// cooperative mode won the efficiency claim on the churn-heavy mixes:
/// never a worse SSD list hit ratio than invalidate-all, and strictly
/// better on at least one gated mix.
fn mutation_regress(out: &str) -> bool {
    // The oracle row: a frozen engine on the same workload, against the
    // zero-ingest live arm, both through the same loop.
    let frozen = run_mutation_arm("frozen", IndexMutability::Frozen, 0);
    let live_default = IndexMutability::Live(LiveConfig {
        segments: mutation_segments(),
        compaction: CompactionMode::Cooperative,
    });
    let zero = run_mutation_arm("zero_ingest_live", live_default, 0);
    let zero_identical = frozen.report == zero.report && frozen.digest == zero.digest;
    eprintln!(
        "mutation zero-ingest gate: identical {} (frozen {:.2}s, live {:.2}s wall)",
        zero_identical, frozen.wall_secs, zero.wall_secs
    );

    let mut rows = vec![mutation_arm_json(&frozen), mutation_arm_json(&zero)];
    let mut claim_lines = Vec::new();
    let mut correctness_ok = true;
    let mut coop_never_worse = true;
    let mut coop_strictly_better = false;
    for mix in MUT_MIXES {
        let arm = |mode| {
            IndexMutability::Live(LiveConfig {
                segments: mutation_segments(),
                compaction: mode,
            })
        };
        let coop = run_mutation_arm("cooperative", arm(CompactionMode::Cooperative), mix);
        let naive = run_mutation_arm("invalidate_all", arm(CompactionMode::InvalidateAll), mix);
        let agree = coop.digest == naive.digest
            && coop.report.postings_scanned == naive.report.postings_scanned;
        let exercised = coop.stats.compactions > 0 && naive.stats.compactions > 0;
        correctness_ok &= agree && exercised;
        if MUT_CLAIM_MIXES.contains(&mix) {
            coop_never_worse &= coop.ssd_hit_ratio >= naive.ssd_hit_ratio;
            coop_strictly_better |= coop.ssd_hit_ratio > naive.ssd_hit_ratio;
        }
        for a in [&coop, &naive] {
            eprintln!(
                "mutation mix {:>3}/100 {:>14}: p50 {} p99 {} | list SSD hit {:.2}% | \
                 {} seals {} compactions | {} B written ({:.2}s wall)",
                mix,
                a.label,
                a.p50,
                a.report.p99_response,
                a.ssd_hit_ratio * 100.0,
                a.stats.seals,
                a.stats.compactions,
                cache_of(&a.report).ssd_bytes_written,
                a.wall_secs
            );
        }
        claim_lines.push(format!(
            concat!(
                "    {{ \"ops_per_100_queries\": {}, \"results_agree\": {}, ",
                "\"compactions_exercised\": {}, \"coop_ssd_hit_ratio\": {:.17}, ",
                "\"naive_ssd_hit_ratio\": {:.17}, \"hit_claim_gated\": {} }}"
            ),
            mix,
            agree,
            exercised,
            coop.ssd_hit_ratio,
            naive.ssd_hit_ratio,
            MUT_CLAIM_MIXES.contains(&mix)
        ));
        rows.push(mutation_arm_json(&coop));
        rows.push(mutation_arm_json(&naive));
    }

    let coop_wins = coop_never_worse && coop_strictly_better;
    let ok = zero_identical && correctness_ok && coop_wins;
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"perf_regress_mutation\",\n",
            "  \"workload\": {{ \"docs\": {}, \"queries\": {}, \"seed\": {}, ",
            "\"mem_bytes\": {}, \"ssd_bytes\": {}, \"policy\": \"CBLRU\", ",
            "\"ingest_vocab\": {}, \"seal_threshold_docs\": {}, \"compact_fanin\": {} }},\n",
            "  \"arms\": [\n{}\n  ],\n",
            "  \"claims\": [\n{}\n  ],\n",
            "  \"zero_ingest_bit_identical\": {},\n",
            "  \"coherence_modes_agree_on_results\": {},\n",
            "  \"cooperative_ssd_hit_never_worse\": {},\n",
            "  \"cooperative_ssd_hit_strictly_better_somewhere\": {},\n",
            "  \"mutation_claims_hold\": {}\n",
            "}}\n"
        ),
        MUT_DOCS,
        MUT_QUERIES,
        SEED,
        MUT_MEM_BYTES,
        MUT_SSD_BYTES,
        MUT_VOCAB,
        mutation_segments().seal_threshold_docs,
        mutation_segments().compact_fanin,
        rows.join(",\n"),
        claim_lines.join(",\n"),
        zero_identical,
        correctness_ok,
        coop_never_worse,
        coop_strictly_better,
        ok,
    );
    std::fs::write(out, &json)
        .unwrap_or_else(|e| panic!("cannot write mutation report to {out}: {e}"));
    println!("{json}");
    println!(
        "wrote {out}; zero-ingest identical: {zero_identical}, coherence modes agree: \
         {correctness_ok}, cooperative wins SSD hit ratio: {coop_wins}"
    );
    ok
}

fn main() {
    let mut out = String::from("BENCH_1.json");
    let mut cluster_out = String::from("BENCH_2.json");
    let mut postings_out = String::from("BENCH_3.json");
    let mut iopath_out = String::from("BENCH_4.json");
    let mut admission_out = String::from("BENCH_5.json");
    let mut serving_out = String::from("BENCH_6.json");
    let mut offload_out = String::from("BENCH_7.json");
    let mut mutation_out = String::from("BENCH_8.json");
    let mut only_serving = false;
    let mut only_offload = false;
    let mut only_mutation = false;
    let mut iopath_depth = 4usize;
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--out" {
            if let Some(v) = args.next() {
                out = v;
            }
        } else if a == "--cluster-out" {
            if let Some(v) = args.next() {
                cluster_out = v;
            }
        } else if a == "--postings-out" {
            if let Some(v) = args.next() {
                postings_out = v;
            }
        } else if a == "--iopath-out" {
            if let Some(v) = args.next() {
                iopath_out = v;
            }
        } else if a == "--iopath-depth" {
            if let Some(v) = args.next() {
                iopath_depth = v.parse().expect("--iopath-depth takes an integer");
            }
        } else if a == "--admission-out" {
            if let Some(v) = args.next() {
                admission_out = v;
            }
        } else if a == "--serving-out" {
            if let Some(v) = args.next() {
                serving_out = v;
            }
        } else if a == "--offload-out" {
            if let Some(v) = args.next() {
                offload_out = v;
            }
        } else if a == "--mutation-out" {
            if let Some(v) = args.next() {
                mutation_out = v;
            }
        } else if a == "--only-serving" {
            only_serving = true;
        } else if a == "--only-offload" {
            only_offload = true;
        } else if a == "--only-mutation" {
            only_mutation = true;
        }
    }

    // Fast path for iterating on the mutation arm (CI runs everything).
    if only_mutation {
        if !mutation_regress(&mutation_out) {
            eprintln!(
                "FAIL: mutation arm — bisect with \
                 `cargo run --release -p bench --bin divergence_probe -- --mutation`"
            );
            std::process::exit(1);
        }
        return;
    }

    // Fast path for iterating on the offload arm (CI runs everything).
    if only_offload {
        if !offload_regress(&offload_out) {
            eprintln!(
                "FAIL: offload arm — bisect with \
                 `cargo run --release -p bench --bin divergence_probe -- --offload`"
            );
            std::process::exit(1);
        }
        return;
    }

    // Fast path for iterating on the serving arm (CI runs everything).
    if only_serving {
        if !serving_regress(&serving_out) {
            eprintln!(
                "FAIL: serving arm — bisect with \
                 `cargo run --release -p bench --bin divergence_probe -- --serving`"
            );
            std::process::exit(1);
        }
        return;
    }

    // Smoke-check the shared harness path once so the binary exercises
    // the exact entry points the figure binaries use.
    let warm = run_cached(
        50_000,
        cache_config(4 << 20, 40 << 20, PolicyKind::Cblru),
        2_000,
        SEED,
    );
    eprintln!("warm-up: {}", warm.summary());

    let naive = run_arm("reference", true);
    eprintln!(
        "reference: {} ({:.2}s wall)",
        naive.report.summary(),
        naive.wall_secs
    );
    let fast = run_arm("optimized", false);
    eprintln!(
        "optimized: {} ({:.2}s wall)",
        fast.report.summary(),
        fast.wall_secs
    );

    // The contract: every simulated figure is bit-identical across arms.
    let identical = naive.report.hit_ratio() == fast.report.hit_ratio()
        && naive.report.mean_response == fast.report.mean_response
        && naive.report.p99_response == fast.report.p99_response
        && naive.report.elapsed == fast.report.elapsed
        && naive.report.postings_scanned == fast.report.postings_scanned
        && cache_of(&naive.report) == cache_of(&fast.report)
        && naive.evictions == fast.evictions;
    let speedup = naive.wall_secs / fast.wall_secs;

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"perf_regress\",\n",
            "  \"workload\": {{\n",
            "    \"docs\": {},\n",
            "    \"queries\": {},\n",
            "    \"seed\": {},\n",
            "    \"mem_bytes\": {},\n",
            "    \"ssd_bytes\": {},\n",
            "    \"policy\": \"CBSLRU(0.3)\"\n",
            "  }},\n",
            "  \"arms\": [\n{},\n{}\n  ],\n",
            "  \"sim_figures_bit_identical\": {},\n",
            "  \"wall_clock_speedup\": {:.3}\n",
            "}}\n"
        ),
        DOCS,
        QUERIES,
        SEED,
        MEM_BYTES,
        SSD_BYTES,
        arm_json(&naive),
        arm_json(&fast),
        identical,
        speedup,
    );
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write report to {out}: {e}"));
    println!("{json}");
    println!("wrote {out}; speedup {speedup:.2}x, sim figures identical: {identical}");

    let postings_identical = postings_regress(&postings_out);
    let cluster_identical = cluster_regress(&cluster_out);
    iopath_regress(&iopath_out, iopath_depth);
    let admission_ok = admission_regress(&admission_out);
    let serving_ok = serving_regress(&serving_out);
    let offload_ok = offload_regress(&offload_out);
    let mutation_ok = mutation_regress(&mutation_out);

    if !identical {
        eprintln!("FAIL: simulated figures diverged between the engine arms");
    }
    if !postings_identical {
        eprintln!(
            "FAIL: postings backends diverged — bisect with \
             `cargo run --release -p bench --bin divergence_probe -- --postings`"
        );
    }
    if !cluster_identical {
        eprintln!(
            "FAIL: cluster arms diverged — bisect with \
             `cargo run --release -p bench --bin divergence_probe -- --cluster`"
        );
    }
    if !admission_ok {
        eprintln!(
            "FAIL: admission arm — either the Static arm stopped being \
             bit-identical with sketch params present (bisect with \
             `cargo run --release -p bench --bin divergence_probe -- --admission`) \
             or the sketch gate failed its efficiency claim on the \
             churn/scan scenarios"
        );
    }
    if !serving_ok {
        eprintln!(
            "FAIL: serving arm — either a serving mode stopped being bit-identical \
             to the closed loop (bisect with \
             `cargo run --release -p bench --bin divergence_probe -- --serving`) \
             or the batched/shedding front-end failed its latency-vs-load claim \
             against naive FIFO"
        );
    }
    if !offload_ok {
        eprintln!(
            "FAIL: offload arm — either an in-flash arm stopped being bit-identical \
             to host galloping (bisect with \
             `cargo run --release -p bench --bin divergence_probe -- --offload`), \
             the cost rule attached a losing descriptor, or the selective-intersection \
             bus-reduction claim failed"
        );
    }
    if !mutation_ok {
        eprintln!(
            "FAIL: mutation arm — either the zero-ingest live engine stopped being \
             bit-identical to the frozen seed arm (bisect with \
             `cargo run --release -p bench --bin divergence_probe -- --mutation`), \
             the compaction coherence modes disagreed on a result, or cooperative \
             reconciliation failed to beat invalidate-all on SSD hit ratio"
        );
    }
    if !identical
        || !postings_identical
        || !cluster_identical
        || !admission_ok
        || !serving_ok
        || !offload_ok
        || !mutation_ok
    {
        std::process::exit(1);
    }
}
