//! Diagnosis companion to `perf_regress`: when the reference and
//! optimized arms stop being bit-identical, this finds the first query
//! where they diverge by running both engines in lockstep and comparing
//! cache counters after every query.
//!
//! With `--cluster` it bisects the *cluster* arms instead: a sequential
//! and a pool-backed `SearchCluster` march through one shared query
//! stream, comparing every scatter-gather response, and the full
//! `ClusterReport`s at the end.
//!
//! With `--postings` it bisects the *postings backends*: two engines
//! differing only in `PostingsBackend` (reference vs blocked) run in
//! lockstep until the first query whose response or cache counters
//! diverge.
//!
//! With `--admission` it bisects the *admission-tier arms*: a plain
//! engine and one carrying a fully-populated sketch-admission config
//! pinned to `AdmissionPolicy::Static` (which must leave the tier
//! completely inert) run in lockstep, comparing every response, the
//! cache counters, and the store counters.
//!
//! With `--serving` it bisects the *serving arms*: an open-loop
//! `ServingSim` at the reference configuration (infinite deadline,
//! batch 1, no shed/hedge, zero overhead) and a bare closed-loop
//! `SearchCluster` march through one arrival stream, comparing every
//! per-query service time, then the cumulative cluster reports.
//!
//! With `--offload` it bisects the *offload arms*: a `Host` engine and
//! an `InFlash` engine under the reference compute model (which must be
//! bit-identical on every simulated figure — only the bus-byte ledger
//! may move) run in lockstep, comparing every response, the cache
//! counters, both submission-queue sections, and the cache pipeline's
//! stats mirror. `--depth N` and `--channels N` pick the queue depth and
//! channel count to bisect under.
//!
//! With `--mutation` it bisects the *mutability arms*: a `Frozen` engine
//! and a zero-ingest `Live` one (whose pristine segmented index must
//! delegate every read to the frozen base) run in lockstep, comparing
//! every response, the cache counters, the index device's I/O ledger,
//! and the running result digest.
//!
//!     cargo run --release -p bench --bin divergence_probe \
//!         [-- --policy lru|cblru|cbslru] [--no-seed] \
//!         [--cluster] [--workers N] [--postings] [--admission] \
//!         [--serving] [--offload] [--depth N] [--channels N] [--mutation]

use engine::{
    ClusterExecution, EngineConfig, IndexMutability, LiveConfig, OffloadMode, OpenLoopConfig,
    Outcome, PostingsBackend, SearchCluster, SearchEngine, ServingMode, ServingOutcome, ServingSim,
};
use hybridcache::{AdmissionConfig, AdmissionPolicy, PolicyKind};
use storagecore::BlockDevice;
use workload::{Arrival, ArrivalKind, ArrivalProcess, Query};

/// One engine-pair lockstep bisection — the loop every per-arm probe
/// shares. Optionally seeds both arms' static partitions first (CBSLRU),
/// then marches the shared query stream, comparing each response, the
/// cache counters, and whatever per-arm figures `snapshot` captures.
/// Prints the first divergence and returns `false`; `true` means the
/// arms stayed bit-identical for all `queries`.
fn lockstep_engines<S: PartialEq + std::fmt::Debug>(
    label_a: &str,
    label_b: &str,
    a: &mut SearchEngine,
    b: &mut SearchEngine,
    queries: usize,
    seed_static: bool,
    snapshot: impl Fn(&SearchEngine) -> S,
) -> bool {
    if seed_static {
        a.seed_static_from_log(queries);
        b.seed_static_from_log(queries);
        let (ra, rb) = (a.cache().unwrap().stats(), b.cache().unwrap().stats());
        if ra != rb {
            println!("diverged during seeding: {ra:?} vs {rb:?}");
            return false;
        }
        let (sa, sb) = (snapshot(a), snapshot(b));
        if sa != sb {
            println!(
                "snapshots diverged during seeding:\n  {label_a}: {sa:?}\n  {label_b}: {sb:?}"
            );
            return false;
        }
        println!("seeding identical");
    }
    let stream: Vec<Query> = a.log().stream(queries);
    for (i, q) in stream.iter().enumerate() {
        let ta = a.execute(q);
        let tb = b.execute(q);
        let ca = a.cache().map(|c| *c.stats());
        let cb = b.cache().map(|c| *c.stats());
        let (sa, sb) = (snapshot(a), snapshot(b));
        if ta != tb || ca != cb || sa != sb {
            println!(
                "first divergence at query {i} (id {}, {} terms)",
                q.id,
                q.terms.len()
            );
            println!("  response: {ta} vs {tb}");
            println!("  cache stats {label_a}: {ca:?}");
            println!("  cache stats {label_b}: {cb:?}");
            println!("  snapshot {label_a}: {sa:?}");
            println!("  snapshot {label_b}: {sb:?}");
            return false;
        }
    }
    true
}

/// Lockstep bisection of the cluster execution arms.
fn probe_cluster(policy: PolicyKind, workers: usize) {
    let shards = 4;
    let docs = 200_000;
    let queries = 4_000usize;
    let seed = 42;
    let cfg = || {
        EngineConfig::cached(
            docs,
            hybridcache::HybridConfig::paper(4 << 20, 40 << 20, policy),
            seed,
        )
    };

    let mut seq = SearchCluster::new(cfg(), shards);
    let mut par = SearchCluster::new(cfg(), shards);
    par.set_execution(ClusterExecution::Parallel { workers });
    println!(
        "cluster probe: {shards} shards, {docs} docs, arm B = {:?}",
        par.execution()
    );

    let stream: Vec<Query> = seq.stream(queries);
    for (i, q) in stream.iter().enumerate() {
        let ts = seq.execute(q);
        let tp = par.execute(q);
        if ts != tp {
            println!(
                "first divergence at query {i} (id {}, {} terms)",
                q.id,
                q.terms.len()
            );
            println!("  sequential response: {ts}");
            println!("  parallel   response: {tp}");
            return;
        }
    }
    // Responses agreed; the shard-level counters still might not.
    let (rs, rp) = (seq.run_queries(&[]), par.run_queries(&[]));
    if rs != rp {
        println!("responses identical but reports diverged:");
        for (i, (a, b)) in rs.shards.iter().zip(&rp.shards).enumerate() {
            if a != b {
                println!("  shard {i}:\n    seq {a:?}\n    par {b:?}");
            }
        }
        return;
    }
    println!("no divergence over {queries} cluster queries ({workers} workers)");
}

/// Lockstep bisection of the serving arms: open-loop at the reference
/// configuration vs the closed loop. The service time the front-end
/// records for arrival `i` must be the closed loop's response for query
/// `i`, bit for bit, and the cumulative shard reports must agree at the
/// end.
fn probe_serving(policy: PolicyKind, workers: usize) {
    let shards = 4;
    let docs = 200_000;
    let queries = 4_000usize;
    let seed = 42;
    let cfg = || {
        EngineConfig::cached(
            docs,
            hybridcache::HybridConfig::paper(4 << 20, 40 << 20, policy),
            seed,
        )
    };

    let mut closed = SearchCluster::new(cfg(), shards);
    let mut open = ServingSim::new(
        cfg(),
        shards,
        1,
        ServingMode::OpenLoop(OpenLoopConfig::reference()),
    );
    if workers > 0 {
        open.set_execution(ClusterExecution::Parallel { workers });
    }
    println!("serving probe: {shards} shards, {docs} docs, open-loop reference vs closed loop");

    let arrivals: Vec<Arrival> = ArrivalProcess::new(
        closed.log().clone(),
        ArrivalKind::Poisson { rate_qps: 100.0 },
    )
    .generate(queries);
    match open.run(&arrivals) {
        ServingOutcome::Open(_) => {}
        ServingOutcome::Closed(_) => unreachable!("mode is OpenLoop"),
    }
    for (i, (rec, a)) in open.records().iter().zip(&arrivals).enumerate() {
        let closed_response = closed.execute(&a.query);
        let open_service = match rec.outcome {
            Outcome::Answered { service, .. } => service,
            Outcome::Shed => {
                println!("first divergence at arrival {i}: reference config shed a query");
                return;
            }
        };
        if open_service != closed_response {
            println!(
                "first divergence at arrival {i} (id {}, {} terms)",
                a.query.id,
                a.query.terms.len()
            );
            println!("  closed-loop response:  {closed_response}");
            println!("  open-loop   service:   {open_service}");
            return;
        }
    }
    // Services agreed; the shard-level counters still might not.
    let (ro, rc) = (
        open.replica_mut(0).run_queries(&[]),
        closed.run_queries(&[]),
    );
    if ro != rc {
        println!("services identical but reports diverged:");
        for (i, (a, b)) in ro.shards.iter().zip(&rc.shards).enumerate() {
            if a != b {
                println!("  shard {i}:\n    open   {a:?}\n    closed {b:?}");
            }
        }
        return;
    }
    println!("no divergence over {queries} served arrivals");
}

/// Lockstep bisection of the postings backends. Reference mode stays off
/// on both engines, so the backend is the only thing that differs.
fn probe_postings(policy: PolicyKind, seed_flag: bool) {
    let docs = 400_000;
    let queries = 30_000usize;
    let seed = 42;
    let cfg = |backend| EngineConfig {
        postings: backend,
        ..EngineConfig::cached(
            docs,
            hybridcache::HybridConfig::paper(16 << 20, 160 << 20, policy),
            seed,
        )
    };
    let mut a = SearchEngine::new(cfg(PostingsBackend::Reference));
    let mut b = SearchEngine::new(cfg(PostingsBackend::Blocked));
    println!(
        "postings probe: {docs} docs, arm A = {:?}, arm B = {:?}",
        a.postings_backend(),
        b.postings_backend()
    );
    let seed_static = seed_flag && matches!(policy, PolicyKind::Cbslru { .. });
    if lockstep_engines(
        "reference",
        "blocked",
        &mut a,
        &mut b,
        queries,
        seed_static,
        |e| e.cache().map(|c| c.store_stats()),
    ) {
        let skips = b.postings_skip_stats();
        let store = b.postings_store_stats();
        println!("no divergence over {queries} queries between postings backends");
        println!(
            "  blocked arm: {} block-max probes, {} postings pruned unread, \
             {} terms pinned ({} B)",
            skips.skip_probes, skips.skipped, store.terms, store.encoded_bytes
        );
    }
}

/// Lockstep bisection of the admission-tier arms: arm A carries the
/// default (empty) static admission config, arm B a fully-populated
/// sketch config forced back to `Static` policy. The sketch machinery
/// being present but disabled must change nothing.
fn probe_admission(policy: PolicyKind, seed_flag: bool) {
    let docs = 400_000;
    let queries = 30_000usize;
    let seed = 42;
    let cfg = |admission: AdmissionConfig| {
        let mut cache = hybridcache::HybridConfig::paper(16 << 20, 160 << 20, policy);
        cache.admission = admission;
        EngineConfig::cached(docs, cache, seed)
    };
    let mut a = SearchEngine::new(cfg(AdmissionConfig::static_default()));
    let mut inert = AdmissionConfig::sketch_default();
    inert.policy = AdmissionPolicy::Static;
    let mut b = SearchEngine::new(cfg(inert));
    println!(
        "admission probe: {docs} docs, arm A = bare static, \
         arm B = sketch params pinned to {:?}",
        b.admission_policy()
    );
    let seed_static = seed_flag && matches!(policy, PolicyKind::Cbslru { .. });
    if lockstep_engines("bare", "inert", &mut a, &mut b, queries, seed_static, |e| {
        e.cache().map(|c| c.store_stats())
    }) {
        println!(
            "no divergence over {queries} queries between admission arms \
             (policy {policy:?}, seeded {seed_flag})"
        );
    }
}

/// Lockstep bisection of the offload arms: `Host` galloping vs the
/// in-flash predicate push-down under the reference compute model. The
/// two arms must agree on every response, cache counter, both
/// submission-queue sections, and the cache pipeline's whole stats
/// mirror; the inner SSD's bus ledger is the one figure the offload is
/// allowed to move, so it stays out of the comparison and is reported
/// at the end instead.
fn probe_offload(policy: PolicyKind, seed_flag: bool, depth: usize, channels: u32) {
    let docs = 400_000;
    let queries = 30_000usize;
    let seed = 42;
    let cfg = || {
        let mut c = EngineConfig::cached(
            docs,
            hybridcache::HybridConfig::paper(16 << 20, 160 << 20, policy),
            seed,
        );
        c.ssd_channels = channels;
        c.queue_depth = depth;
        c
    };
    let mut a = SearchEngine::new(cfg());
    let mut b = SearchEngine::new(cfg());
    b.set_offload_mode(OffloadMode::InFlash);
    println!(
        "offload probe: {docs} docs, {channels} channels, queue depth {depth}, arm A = {:?}, arm B = {:?}",
        a.offload_mode(),
        b.offload_mode()
    );
    let seed_static = seed_flag && matches!(policy, PolicyKind::Cbslru { .. });
    if lockstep_engines(
        "host",
        "in-flash",
        &mut a,
        &mut b,
        queries,
        seed_static,
        |e| {
            (
                e.index_queue_stats(),
                e.cache_queue_stats(),
                e.cache().map(|c| c.device().stats().clone()),
            )
        },
    ) {
        let bus = b.cache_bus_stats();
        println!(
            "no divergence over {queries} queries between offload arms \
             ({} predicates pushed down, {} bus bytes saved)",
            bus.offload_ops(),
            bus.saved_bytes()
        );
    }
}

/// Lockstep bisection of the mutability toggle: a `Frozen` engine and a
/// zero-ingest `Live` one (pristine — every read delegates to the same
/// frozen base) must stay bit-identical on every response, every cache
/// counter, the index device's whole I/O ledger, and the running result
/// digest. The first query where they differ is where the live read
/// path stopped being the seed path.
fn probe_mutation(policy: PolicyKind, seed_flag: bool) {
    let docs = 400_000;
    let queries = 30_000usize;
    let seed = 42;
    let cfg = || {
        EngineConfig::cached(
            docs,
            hybridcache::HybridConfig::paper(16 << 20, 160 << 20, policy),
            seed,
        )
    };
    let mut a = SearchEngine::new(cfg());
    let mut live_cfg = cfg();
    live_cfg.mutability = IndexMutability::Live(LiveConfig::default());
    let mut b = SearchEngine::new(live_cfg);
    println!("mutation probe: {docs} docs, arm A = frozen, arm B = live (zero ingest)");
    let seed_static = seed_flag && matches!(policy, PolicyKind::Cbslru { .. });
    if lockstep_engines(
        "frozen",
        "live",
        &mut a,
        &mut b,
        queries,
        seed_static,
        |e| (e.index_io_stats().clone(), e.result_digest()),
    ) {
        assert!(
            b.live_index().is_some_and(|l| l.is_pristine()),
            "zero-ingest arm stopped being pristine"
        );
        println!(
            "no divergence over {queries} queries between mutability arms \
             (live arm still pristine)"
        );
    }
}

fn main() {
    let mut policy_arg = String::from("cbslru");
    let mut seed_flag = true;
    let mut cluster = false;
    let mut postings = false;
    let mut admission = false;
    let mut serving = false;
    let mut offload = false;
    let mut mutation = false;
    let mut workers = 0usize;
    let mut depth = 1usize;
    let mut channels = 4u32;
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--policy" => policy_arg = args.next().unwrap_or_default(),
            "--no-seed" => seed_flag = false,
            "--cluster" => cluster = true,
            "--postings" => postings = true,
            "--admission" => admission = true,
            "--serving" => serving = true,
            "--offload" => offload = true,
            "--mutation" => mutation = true,
            "--workers" => workers = args.next().and_then(|v| v.parse().ok()).unwrap_or(workers),
            "--depth" => depth = args.next().and_then(|v| v.parse().ok()).unwrap_or(depth),
            "--channels" => channels = args.next().and_then(|v| v.parse().ok()).unwrap_or(channels),
            _ => {}
        }
    }
    let policy = match policy_arg.as_str() {
        "lru" => PolicyKind::Lru,
        "cblru" => PolicyKind::Cblru,
        _ => PolicyKind::Cbslru {
            static_fraction: 0.3,
        },
    };
    if cluster {
        probe_cluster(policy, workers);
        return;
    }
    if serving {
        probe_serving(policy, workers);
        return;
    }
    if postings {
        probe_postings(policy, seed_flag);
        return;
    }
    if admission {
        probe_admission(policy, seed_flag);
        return;
    }
    if offload {
        probe_offload(policy, seed_flag, depth, channels);
        return;
    }
    if mutation {
        probe_mutation(policy, seed_flag);
        return;
    }
    let cfg = || hybridcache::HybridConfig::paper(16 << 20, 160 << 20, policy);
    let docs = 400_000;
    let queries = 30_000usize;
    let seed = 42;

    let mut a = SearchEngine::new(EngineConfig::cached(docs, cfg(), seed));
    a.set_reference_mode(true);
    let mut b = SearchEngine::new(EngineConfig::cached(docs, cfg(), seed));
    b.set_reference_mode(false);
    let seed_static = seed_flag && matches!(policy, PolicyKind::Cbslru { .. });
    if lockstep_engines(
        "reference",
        "optimized",
        &mut a,
        &mut b,
        queries,
        seed_static,
        |e| e.cache().map(|c| c.store_stats()),
    ) {
        println!("no divergence over {queries} queries (policy {policy_arg}, seeded {seed_flag})");
    }
}
