//! From what the passes recorded to the named metrics of
//! `BENCHMARK.json`. End-to-end metrics come from the untraced reps only;
//! per-layer metrics come from the traced pass.

use engine::{CpuCostModel, SearchEngine};

use crate::counters::{situation_names, Counters};
use crate::pass::{Measured, SetupTimes, Tracer};
use crate::spans::{self_time_ns, QueryClass};
use crate::stats::{median, quantile_sorted, Fingerprint};

const MIB: f64 = (1u64 << 20) as f64;

/// A metric name and its value.
pub type Metrics = Vec<(String, f64)>;

/// `a / b`, 0 when there is nothing to divide by.
fn per(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One untraced rep: a fresh engine, its set-up, its timed pass.
pub struct Rep {
    pub setup: SetupTimes,
    pub measured: Measured,
}

/// Hash over every simulated response time and every simulated-side
/// counter of a window (the result digest is one of them). Two runs of
/// one seed that agree on it agree on every simulated statistic.
pub fn sim_fingerprint(m: &Measured) -> u64 {
    let mut h = Fingerprint::default();
    for (value, count) in m.sim.iter() {
        h.word(value);
        h.word(count);
    }
    m.window.fingerprint(&mut h);
    h.finish()
}

/// Wall time of the fixed work: every rep times the same slices of the
/// same stream, so each slice counts at its median over the reps (of its
/// time scaled to the nominal host) and the slices are summed. A
/// disturbance shorter than a rep then costs nothing unless it hits the
/// same slice in half the reps.
pub fn median_wall_s(reps: &[Rep]) -> f64 {
    let slices = reps[0].measured.slices.len();
    (0..slices)
        .map(|i| {
            let column: Vec<f64> = reps
                .iter()
                .map(|r| r.measured.slices[i].nominal_ns)
                .collect();
            median(&column)
        })
        .sum::<f64>()
        / 1e9
}

/// The end-to-end metrics of a run, from its untraced reps.
pub fn end_to_end(reps: &[Rep], peak_rss_mb: f64) -> Metrics {
    let first = &reps[0].measured;
    let setups: Vec<f64> = reps
        .iter()
        .map(|r| r.setup.total().nominal_ns / 1e9)
        .collect();
    vec![
        ("setup_s".into(), median(&setups)),
        (
            "wall_queries_per_s".into(),
            per(first.queries as f64, median_wall_s(reps)),
        ),
        ("peak_rss_mb".into(), peak_rss_mb),
        ("sim_mean_response_ms".into(), first.sim.mean() / 1e6),
    ]
}

/// Combined hit ratio of the result and list families over a window.
fn hit_ratio(c: &Counters) -> f64 {
    let family = |f: &str| {
        let get = |k: &str| c.get_f(&format!("cache.{f}.{k}"));
        let hits = get("mem_hits") + get("ssd_hits") + get("partial_hits");
        (hits, hits + get("misses"))
    };
    let (rh, rl) = family("results");
    let (lh, ll) = family("lists");
    per(rh + lh, rl + ll)
}

/// The paper's "SSD average access time": cache-SSD busy time per host
/// page moved.
fn ssd_access_us(c: &Counters, page_bytes: f64) -> f64 {
    per(
        c.get_f("cachedev.busy_ns") / 1e3,
        c.get_f("cachedev.bytes") / page_bytes,
    )
}

/// Everything the per-layer metrics are computed from.
pub struct TracedPass<'a> {
    pub setup: SetupTimes,
    pub measured: &'a Measured,
    pub tracer: &'a Tracer,
    /// The measured engine, after the pass.
    pub engine: &'a SearchEngine,
    pub cost: CpuCostModel,
    /// Wall time of the untraced rep run before the traced pass.
    pub untraced_wall_s: f64,
    /// `(events, wall ns)` of replaying the captured index-device trace.
    pub replay: (u64, u64),
    /// The same stream under the plain-LRU cache, where the workload has
    /// that baseline.
    pub lru_baseline: Option<&'a Measured>,
    pub attempted: u64,
    pub failed: u64,
}

/// The per-layer metrics of a traced pass.
pub fn per_layer(p: &TracedPass<'_>) -> Metrics {
    let m = p.measured;
    let c = &m.window;
    let n = m.queries as f64;
    let kq = n / 1e3;
    let queries = &p.tracer.log.queries;
    let mut out: Metrics = Vec::new();
    let mut put = |name: &str, value: f64| out.push((name.to_string(), value));

    // Wall clock, from the spans.
    let mut execute: Vec<u64> = queries.iter().map(|q| q.execute_ns as u64).collect();
    execute.sort_unstable();
    let computed: Vec<_> = queries
        .iter()
        .filter(|q| q.class == QueryClass::Computed)
        .collect();
    let mut topk: Vec<u64> = computed.iter().map(|q| q.topk_ns as u64).collect();
    topk.sort_unstable();
    let execute_ns: f64 = execute.iter().sum::<u64>() as f64;
    let topk_ns: f64 = topk.iter().sum::<u64>() as f64;
    let computed_ns: f64 = computed.iter().map(|q| q.execute_ns as f64).sum();
    let hits = queries.len() - computed.len();
    // What `execute` spent outside top-K on computed queries: the self
    // time of each `engine.execute` span against its shadow child.
    let nontopk_ns: f64 = (0..queries.len())
        .filter_map(|i| match p.tracer.log.query_spans(i) {
            (execute, Some(shadow)) => Some(self_time_ns(&execute, &[&shadow]) as f64),
            _ => None,
        })
        .sum();
    let computed_us_mean = per(computed_ns / 1e3, computed.len() as f64);
    let topk_us_mean = per(topk_ns / 1e3, computed.len() as f64);
    let ops = m.ops_attempted as f64;

    put("workload.gen_ns_per_query", per(m.stream_s * 1e9, n));
    put("engine.new_s", p.setup.new.raw_ns / 1e9);
    put("engine.seed_static_s", p.setup.seed_static.raw_ns / 1e9);
    put("engine.warmup_s", p.setup.warmup.raw_ns / 1e9);
    put(
        "engine.execute_us_p50",
        quantile_sorted(&execute, 0.5) as f64 / 1e3,
    );
    put(
        "engine.execute_us_p99",
        quantile_sorted(&execute, 0.99) as f64 / 1e3,
    );
    put(
        "engine.hit_path_us_mean",
        per((execute_ns - computed_ns) / 1e3, hits as f64),
    );
    put("engine.computed_us_mean", computed_us_mean);
    put(
        "engine.nontopk_us_per_computed",
        per(nontopk_ns / 1e3, computed.len() as f64),
    );
    put(
        "engine.ingest_us_per_op",
        per(p.tracer.op_wall_ns as f64 / 1e3, ops),
    );
    put("engine.computed_share", per(computed.len() as f64, n));

    // Simulated clock: the exact order statistics, and the ledger that
    // can be kept from outside.
    let mean_ms = m.sim.mean() / 1e6;
    put(
        "engine.sim_p50_response_ms",
        m.sim.quantile(0.5) as f64 / 1e6,
    );
    put(
        "engine.sim_p99_response_ms",
        m.sim.quantile(0.99) as f64 / 1e6,
    );
    put("engine.sim_samples", m.sim.len() as f64);
    put(
        "engine.ops_failed_share",
        per(p.failed as f64, p.attempted as f64),
    );
    let cpu_ms = per(
        (p.cost.per_query.as_nanos() as f64 * n
            + p.cost.per_posting.as_nanos() as f64 * c.get_f("engine.postings_scanned")
            + p.cost.per_result_doc.as_nanos() as f64 * p.tracer.shadow_result_docs as f64)
            / 1e6,
        n,
    );
    let ssd_ms = per(c.get_f("cache.ssd_time_ns") / 1e6, n);
    let hdd_ms = per(c.get_f("indexdev.busy_ns") / 1e6, n);
    put("engine.sim_cpu_ms_per_query", cpu_ms);
    put(
        "engine.sim_unattributed_ms_per_query",
        mean_ms - cpu_ms - ssd_ms - hdd_ms,
    );
    let situations: Vec<(f64, f64)> = (0..9)
        .map(|i| {
            let (count, sum_ns) = situation_names(i);
            (c.get_f(count), c.get_f(sum_ns))
        })
        .collect();
    let events: f64 = situations.iter().map(|s| s.0).sum();
    for (i, (count, _)) in situations.iter().enumerate() {
        put(
            &format!("engine.situation_share.S{}", i + 1),
            per(*count, events),
        );
    }
    for (i, (count, sum_ns)) in situations.iter().enumerate() {
        put(
            &format!("engine.situation_sim_ms.S{}", i + 1),
            per(sum_ns / 1e6, *count),
        );
    }

    put("searchidx.topk_us_mean", topk_us_mean);
    put(
        "searchidx.topk_us_p99",
        quantile_sorted(&topk, 0.99) as f64 / 1e3,
    );
    put("searchidx.topk_wall_share", per(topk_ns, execute_ns));
    put(
        "searchidx.topk_ns_per_posting",
        per(topk_ns, p.tracer.shadow_postings as f64),
    );
    put(
        "searchidx.postings_per_query",
        per(c.get_f("engine.postings_scanned"), n),
    );
    put(
        "searchidx.blockmax_pruned_per_query",
        per(c.get_f("searchidx.skipped"), n),
    );
    put(
        "searchidx.block_store_mb",
        p.engine.postings_store_stats().encoded_bytes as f64 / MIB,
    );
    put("searchidx.seals", c.get_f("mutation.seals"));
    put("searchidx.compactions", c.get_f("mutation.compactions"));
    put(
        "searchidx.wal_bytes_per_op",
        per(c.get_f("mutation.wal_bytes"), ops),
    );
    put(
        "searchidx.merge_mb_written",
        c.get_f("mutation.merge_bytes_written") / MIB,
    );
    put(
        "searchidx.tombstones_cleared",
        c.get_f("mutation.tombstones_cleared"),
    );
    put(
        "engine.mutation_io_ms_per_op",
        per(c.get_f("mutation.io_ns") / 1e6, ops),
    );

    put("hybridcache.hit_ratio", hit_ratio(c));
    for family in ["results", "lists"] {
        let get = |k: &str| c.get_f(&format!("cache.{family}.{k}"));
        let lookups = get("mem_hits") + get("ssd_hits") + get("partial_hits") + get("misses");
        let prefix = &family[..family.len() - 1];
        put(
            &format!("hybridcache.{prefix}_mem_hit_share"),
            per(get("mem_hits"), lookups),
        );
        put(
            &format!("hybridcache.{prefix}_ssd_hit_share"),
            per(get("ssd_hits"), lookups),
        );
        if family == "lists" {
            put(
                "hybridcache.list_partial_hit_share",
                per(get("partial_hits"), lookups),
            );
        }
    }
    let both =
        |k: &str| c.get_f(&format!("cache.results.{k}")) + c.get_f(&format!("cache.lists.{k}"));
    put(
        "hybridcache.ssd_admissions_per_kquery",
        per(both("ssd_admissions"), kq),
    );
    put(
        "hybridcache.ssd_rejections_per_kquery",
        per(both("ssd_rejections"), kq),
    );
    put(
        "hybridcache.rewrites_avoided_per_kquery",
        per(both("rewrites_avoided"), kq),
    );
    put(
        "hybridcache.evictions_per_kquery",
        per(c.get_f("cache.evictions"), kq),
    );
    put(
        "hybridcache.trims_per_kquery",
        per(c.get_f("cache.trims"), kq),
    );
    put(
        "hybridcache.ssd_mb_written_per_kquery",
        per(c.get_f("cache.ssd_bytes_written") / MIB, kq),
    );
    put(
        "hybridcache.ssd_mb_read_per_kquery",
        per(c.get_f("cache.ssd_bytes_read") / MIB, kq),
    );
    put("hybridcache.sim_ssd_ms_per_query", ssd_ms);

    let page_bytes = p.engine.cache().map_or(1.0, |m| {
        use flashsim::Ftl as _;
        m.device().inner().ftl().params().page_bytes as f64
    });
    put("flashsim.block_erases", c.get_f("flash.block_erases"));
    put(
        "flashsim.erases_per_kquery",
        per(c.get_f("flash.block_erases"), kq),
    );
    put("flashsim.gc_runs", c.get_f("flash.gc_runs"));
    put("flashsim.pages_moved", c.get_f("flash.pages_moved"));
    put(
        "flashsim.write_amplification",
        per(c.get_f("flash.page_programs"), c.get_f("flash.host_writes")),
    );
    put(
        "flashsim.page_programs_per_kquery",
        per(c.get_f("flash.page_programs"), kq),
    );
    put(
        "flashsim.page_reads_per_kquery",
        per(c.get_f("flash.page_reads"), kq),
    );
    put("flashsim.mean_access_us", ssd_access_us(c, page_bytes));
    put(
        "flashsim.sim_busy_ms_per_query",
        per(c.get_f("cachedev.busy_ns") / 1e6, n),
    );

    for dev in ["index", "cache"] {
        put(
            &format!("storagecore.{dev}_queue_wait_ms_per_query"),
            per(c.get_f(&format!("{dev}dev.queue_wait_ns")) / 1e6, n),
        );
    }
    for dev in ["index", "cache"] {
        put(
            &format!("storagecore.{dev}_queue_mean_occupancy"),
            per(
                c.get_f(&format!("{dev}dev.queue_occupancy")),
                c.get_f(&format!("{dev}dev.queue_dispatches")),
            ),
        );
    }

    let index_ops = c.get_f("indexdev.ops");
    put("hddsim.ops_per_query", per(index_ops, n));
    put(
        "hddsim.kb_per_op",
        per(c.get_f("indexdev.bytes") / 1024.0, index_ops),
    );
    put(
        "hddsim.sim_mean_latency_ms",
        per(c.get_f("indexdev.busy_ns") / 1e6, index_ops),
    );
    put("hddsim.sim_busy_ms_per_query", hdd_ms);
    put(
        "hddsim.replay_ns_per_op",
        per(p.replay.1 as f64, p.replay.0 as f64),
    );

    // Fidelity: the paper reports CBSLRU against plain LRU.
    let (mut response, mut hit_gain, mut access, mut erases) = (0.0, 0.0, 0.0, 0.0);
    if let Some(lru) = p.lru_baseline {
        let reduction = |ours: f64, base: f64| 100.0 * (1.0 - per(ours, base));
        response = reduction(m.sim.mean(), lru.sim.mean());
        hit_gain = 100.0 * (hit_ratio(c) - hit_ratio(&lru.window));
        access = reduction(
            ssd_access_us(c, page_bytes),
            ssd_access_us(&lru.window, page_bytes),
        );
        erases = reduction(
            c.get_f("flash.block_erases"),
            lru.window.get_f("flash.block_erases"),
        );
    }
    put("paper.response_reduction_pct", response);
    put("paper.hit_ratio_gain_pct", hit_gain);
    put("paper.ssd_access_reduction_pct", access);
    put("paper.erase_reduction_pct", erases);

    let traced_wall_s = (execute_ns + p.tracer.op_wall_ns as f64) / 1e9;
    put(
        "trace.overhead_share",
        per(traced_wall_s, p.untraced_wall_s) - 1.0,
    );
    put("trace.spans", p.tracer.log.span_count() as f64);
    put(
        "trace.shadow_postings_mismatch",
        (p.tracer.shadow_postings as f64 - c.get_f("engine.postings_scanned")).abs(),
    );
    out
}
