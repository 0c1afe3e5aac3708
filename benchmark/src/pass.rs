//! One pass over a workload: set-up, then the measured window. The timed
//! and the traced pass are the same loop; they differ only in the
//! [`Probe`] that watches it, so both replay exactly the same queries and
//! mutation ops in the same order.

use std::time::Instant;

use engine::{EngineConfig, SearchEngine};
use searchidx::TopKProcessor;
use simclock::{Rng, SimDuration};
use workload::{MutationOp, Query, QueryLog};

use crate::counters::Counters;
use crate::hostspeed::{HostSpeed, Timed};
use crate::spans::{QueryClass, QuerySpans, SpanLog, RUN_TRACE};
use crate::stats::ExactQuantiles;
use crate::workloads::{Workload, CHUNK};

/// Watches a pass from outside the engine. [`Untraced`] compiles to
/// nothing; [`Tracer`] records spans, runs the shadow top-K and feeds the
/// oracle.
pub trait Probe {
    /// What `before_query` hands to `after_query`.
    type Pre;

    /// A set-up stage, or a chunk of stream generation, began at `started`
    /// and took `wall_ns`.
    fn stage(&mut self, _name: &'static str, _started: Instant, _wall_ns: f64) {}

    fn before_query(&mut self, e: &SearchEngine) -> Self::Pre;

    /// `execute` returned `sim` for `query`; `measured` is false during
    /// warm-up.
    fn after_query(
        &mut self,
        e: &SearchEngine,
        query: &Query,
        pre: Self::Pre,
        sim: SimDuration,
        measured: bool,
    );

    /// A mutation op that began at `started` was applied to the engine.
    fn after_op(&mut self, _e: &SearchEngine, _applied: &Applied<'_>, _started: Instant) {}
}

/// The probe of the timed passes.
pub struct Untraced;

impl Probe for Untraced {
    type Pre = ();

    fn before_query(&mut self, _e: &SearchEngine) {}

    fn after_query(
        &mut self,
        _e: &SearchEngine,
        _q: &Query,
        _pre: (),
        _sim: SimDuration,
        _m: bool,
    ) {
    }
}

/// What a mutation op did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Applied<'a> {
    Added { terms: &'a [(u32, u32)], doc: u32 },
    Deleted { doc: u32 },
}

/// Wall time of the set-up stages of one rep, as the clock read them and
/// scaled to the nominal host.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub new: Timed,
    pub stream: Timed,
    pub seed_static: Timed,
    /// The warm-up queries and the `reset_measurements` after them.
    pub warmup: Timed,
}

impl SetupTimes {
    /// Everything from before `SearchEngine::new` to after the
    /// post-warm-up reset; scaled, it is the `setup_s` of the rep.
    pub fn total(&self) -> Timed {
        let mut total = self.new;
        total += self.stream;
        total += self.seed_static;
        total += self.warmup;
        total
    }
}

/// A warmed engine with its measurement window open.
pub struct Rig {
    pub engine: SearchEngine,
    log: QueryLog,
    rng: Rng,
    pub setup: SetupTimes,
    /// Counter snapshot taken after warm-up: the window's start.
    start: Counters,
}

/// Warm-up is timed in this many sections, so that the host's speed is
/// sampled along it rather than only at its ends.
const WARMUP_SECTIONS: usize = 32;

/// Build the engine, seed its static partition, run the warm-up prefix
/// and open the measurement window.
pub fn setup(
    w: &Workload,
    cfg: EngineConfig,
    seed: u64,
    probe: &mut impl Probe,
    speed: &mut HostSpeed,
) -> Rig {
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let (mut engine, timed) = speed.time(|| SearchEngine::new(cfg));
    times.new = timed;
    probe.stage("engine.new", t, timed.raw_ns);

    let t = Instant::now();
    let ((log, rng, prefix), timed) = speed.time(|| {
        let log = w.query_log(engine.log());
        let mut rng = w.stream_rng(seed);
        let prefix: Vec<Query> = (0..w.warmup).map(|_| log.sample(&mut rng)).collect();
        (log, rng, prefix)
    });
    times.stream = timed;
    probe.stage("workload.stream", t, timed.raw_ns);

    let t = Instant::now();
    let ((), timed) = speed.time(|| {
        if let Some(len) = w.static_analysis_len() {
            engine.seed_static_from_log(len);
        }
    });
    times.seed_static = timed;
    probe.stage("engine.seed_static", t, timed.raw_ns);

    let t = Instant::now();
    for queries in prefix.chunks(w.warmup.div_ceil(WARMUP_SECTIONS).max(1)) {
        let ((), timed) = speed.time(|| {
            for q in queries {
                let pre = probe.before_query(&engine);
                let sim = engine.execute(q);
                probe.after_query(&engine, q, pre, sim, false);
            }
        });
        times.warmup += timed;
    }
    let (start, timed) = speed.time(|| {
        engine.reset_measurements();
        Counters::snapshot(&engine)
    });
    times.warmup += timed;
    // The span covers the warm-up's own time, not the kernel runs between
    // its sections.
    probe.stage("engine.warmup", t, times.warmup.raw_ns);

    Rig {
        engine,
        log,
        rng,
        setup: times,
        start,
    }
}

/// What one measured window produced.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Wall time of each timed slice, raw and scaled to the nominal host;
    /// their sum is the rep's wall time.
    pub slices: Vec<Timed>,
    /// Wall time spent generating the measured stream (never timed).
    pub stream_s: f64,
    /// Every simulated response time `execute` returned.
    pub sim: ExactQuantiles,
    /// Counter deltas over the window.
    pub window: Counters,
    pub queries: u64,
    pub ops_attempted: u64,
    /// Mutation ops the engine refused.
    pub ops_refused: u64,
}

impl Measured {
    /// Wall time of the timed sections as the clock read it.
    pub fn raw_wall_s(&self) -> f64 {
        self.slices.iter().map(|s| s.raw_ns).sum::<f64>() / 1e9
    }

    /// The same, scaled to the nominal host.
    pub fn nominal_wall_s(&self) -> f64 {
        self.slices.iter().map(|s| s.nominal_ns).sum::<f64>() / 1e9
    }
}

/// Run the measured window: `w.measured` queries, with the workload's
/// mutation ops interleaved on a schedule that is a pure function of the
/// query index (op `k` is applied before the first query `i` with
/// `i * ops_per_100 / 100 > k`).
pub fn measure(
    w: &Workload,
    rig: &mut Rig,
    ops: &[MutationOp],
    probe: &mut impl Probe,
    speed: &mut HostSpeed,
) -> Measured {
    let mut out = Measured {
        slices: Vec::with_capacity(w.measured / w.slice() + w.measured / CHUNK + 2),
        stream_s: 0.0,
        sim: ExactQuantiles::default(),
        window: Counters::default(),
        queries: 0,
        ops_attempted: 0,
        ops_refused: 0,
    };
    let mut chunk: Vec<Query> = Vec::with_capacity(CHUNK.min(w.measured));
    let mut sim_ns: Vec<u64> = Vec::with_capacity(CHUNK.min(w.measured));
    let mut next_op = ops.iter();
    let mut applied: u64 = 0;
    let mut alive: Vec<u32> = Vec::new();
    let mut index: u64 = 0;
    while (index as usize) < w.measured {
        let t = Instant::now();
        let n = CHUNK.min(w.measured - index as usize);
        chunk.clear();
        chunk.extend((0..n).map(|_| rig.log.sample(&mut rig.rng)));
        let wall_ns = t.elapsed().as_nanos() as f64;
        out.stream_s += wall_ns / 1e9;
        probe.stage("workload.stream", t, wall_ns);

        sim_ns.clear();
        for slice in chunk.chunks(w.slice()) {
            let ((), timed) = speed.time(|| {
                for q in slice {
                    while applied < index * w.ops_per_100 / 100 {
                        let Some(op) = next_op.next() else { break };
                        applied += 1;
                        let started = Instant::now();
                        let Some(done) = apply(&mut rig.engine, op, &mut alive) else {
                            continue; // a delete with nothing alive: not attempted
                        };
                        out.ops_attempted += 1;
                        match done {
                            Ok(done) => probe.after_op(&rig.engine, &done, started),
                            Err(()) => out.ops_refused += 1,
                        }
                    }
                    let pre = probe.before_query(&rig.engine);
                    let sim = rig.engine.execute(q);
                    probe.after_query(&rig.engine, q, pre, sim, true);
                    sim_ns.push(sim.as_nanos());
                    index += 1;
                }
            });
            out.slices.push(timed);
        }
        out.sim.extend(&mut sim_ns);
    }
    out.queries = index;
    out.window = Counters::snapshot(&rig.engine).since(&rig.start);
    out
}

/// Apply one op. `None`: nothing to do (a delete while nothing ingested
/// is alive). `Err`: the engine refused the op.
fn apply<'a>(
    e: &mut SearchEngine,
    op: &'a MutationOp,
    alive: &mut Vec<u32>,
) -> Option<Result<Applied<'a>, ()>> {
    match op {
        MutationOp::AddDoc { terms } => Some(match e.ingest_document(terms) {
            Some(doc) => {
                alive.push(doc);
                Ok(Applied::Added { terms, doc })
            }
            None => Err(()),
        }),
        MutationOp::DeleteDoc { pick } => {
            if alive.is_empty() {
                return None;
            }
            let doc = alive.swap_remove((*pick % alive.len() as u64) as usize);
            Some(if e.delete_document(doc) {
                Ok(Applied::Deleted { doc })
            } else {
                Err(())
            })
        }
    }
}

/// The probe of the traced pass.
pub struct Tracer {
    pub log: SpanLog,
    /// A benchmark-owned processor with the engine's configuration: it
    /// repeats, right after each `execute` that computed its result, the
    /// top-K call `execute` made inside, so that call's wall time can be
    /// measured from outside.
    shadow: TopKProcessor,
    /// A cache-less engine in reference mode, fed the same ops.
    oracle: SearchEngine,
    oracle_stride: u64,
    pub oracle_checked: u64,
    pub oracle_mismatches: u64,
    /// Postings and result documents the shadow produced in the window.
    pub shadow_postings: u64,
    pub shadow_result_docs: u64,
    pub op_wall_ns: u64,
    /// Whether any mutation op has been applied yet.
    mutated: bool,
    tombstones_cleared: u64,
}

/// Result-cache counters and the clock, read just before `execute`.
pub struct BeforeQuery {
    misses: u64,
    mem_hits: u64,
    digest: u64,
    at_ns: u64,
}

impl Tracer {
    pub fn new(w: &Workload, cfg: &EngineConfig, seed: u64) -> Self {
        let mut shadow = TopKProcessor::new(cfg.topk);
        shadow.set_backend(cfg.postings);
        let mut oracle = SearchEngine::new(w.oracle_config(seed));
        oracle.set_reference_mode(true);
        Tracer {
            log: SpanLog::default(),
            shadow,
            oracle,
            oracle_stride: w.oracle_stride() as u64,
            oracle_checked: 0,
            oracle_mismatches: 0,
            shadow_postings: 0,
            shadow_result_docs: 0,
            op_wall_ns: 0,
            mutated: false,
            tombstones_cleared: 0,
        }
    }
}

fn result_counters(e: &SearchEngine) -> (u64, u64) {
    e.cache().map_or((0, 0), |c| {
        (c.stats().results.misses, c.stats().results.mem_hits)
    })
}

impl Probe for Tracer {
    type Pre = BeforeQuery;

    fn stage(&mut self, name: &'static str, started: Instant, wall_ns: f64) {
        self.log
            .record(RUN_TRACE, name, "run", started, wall_ns as u64);
    }

    fn before_query(&mut self, e: &SearchEngine) -> BeforeQuery {
        let (misses, mem_hits) = result_counters(e);
        BeforeQuery {
            misses,
            mem_hits,
            digest: e.result_digest(),
            at_ns: self.log.now_ns(),
        }
    }

    fn after_query(
        &mut self,
        e: &SearchEngine,
        query: &Query,
        pre: BeforeQuery,
        sim: SimDuration,
        measured: bool,
    ) {
        let execute_ns = self.log.now_ns() - pre.at_ns;
        let (misses, mem_hits) = result_counters(e);
        let class = if e.cache().is_none() || misses > pre.misses {
            QueryClass::Computed
        } else if mem_hits > pre.mem_hits {
            QueryClass::ResultMemHit
        } else {
            QueryClass::ResultSsdHit
        };
        let mut topk_ns = 0;
        if class == QueryClass::Computed {
            let t = Instant::now();
            let outcome = match e.live_index() {
                Some(live) => self.shadow.process(live, &query.terms),
                None => self.shadow.process(e.index(), &query.terms),
            };
            topk_ns = t.elapsed().as_nanos() as u64;
            if measured {
                self.shadow_postings += outcome.postings_scanned();
                self.shadow_result_docs += outcome.result.docs.len() as u64;
            }
        }
        if !measured {
            return;
        }
        let index = self.log.queries.len() as u64;
        self.log.queries.push(QuerySpans {
            start_ns: pre.at_ns,
            execute_ns: execute_ns.min(u32::MAX as u64) as u32,
            topk_ns: topk_ns.min(u32::MAX as u64) as u32,
            sim_ns: sim.as_nanos(),
            class,
        });
        // The engine never invalidates a cached result when the index
        // mutates (the cache's TTL is off), so once an op has been applied
        // a result-cache hit may rightly predate it: only results computed
        // now are held to the oracle then.
        let comparable = class == QueryClass::Computed || !self.mutated;
        if index.is_multiple_of(self.oracle_stride) && comparable {
            let before = self.oracle.result_digest();
            self.oracle.execute(query);
            let expected = self.oracle.result_digest().wrapping_sub(before);
            self.oracle_checked += 1;
            if e.result_digest().wrapping_sub(pre.digest) != expected {
                self.oracle_mismatches += 1;
            }
        }
    }

    fn after_op(&mut self, e: &SearchEngine, applied: &Applied<'_>, started: Instant) {
        let wall_ns = started.elapsed().as_nanos() as u64;
        let (name, class) = match applied {
            Applied::Added { .. } => ("engine.ingest", "add"),
            Applied::Deleted { .. } => ("engine.delete", "delete"),
        };
        // An op belongs to the trace of the query it was applied before.
        let trace = self.log.queries.len() as u64;
        self.log.record(trace, name, class, started, wall_ns);
        self.op_wall_ns += wall_ns;
        self.mutated = true;

        // Keep the shadow's per-term caches coherent the way the engine
        // keeps its own processor's: an add dirties the document's terms,
        // a delete and a merge that dropped tombstoned postings dirty
        // everything.
        let cleared = e.mutation_stats().tombstones_cleared;
        match applied {
            Applied::Added { terms, doc } => {
                for &(term, _) in *terms {
                    self.shadow.invalidate_term(term);
                }
                if self.oracle.ingest_document(terms) != Some(*doc) {
                    self.oracle_mismatches += 1;
                }
            }
            Applied::Deleted { doc } => {
                self.shadow.invalidate_all_terms();
                if !self.oracle.delete_document(*doc) {
                    self.oracle_mismatches += 1;
                }
            }
        }
        if cleared != self.tombstones_cleared {
            self.tombstones_cleared = cleared;
            self.shadow.invalidate_all_terms();
        }
    }
}
