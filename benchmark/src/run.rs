//! One run of one workload in this process: either the timed reps
//! (tracing off, end-to-end metrics) or the traced pass (per-layer
//! metrics and the correctness gate's oracle). A fresh process per run is
//! what makes `peak_rss_mb` belong to the timed reps alone.

use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use hddsim::HddDisk;
use workload::MutationOp;

use crate::host;
use crate::hostspeed::HostSpeed;
use crate::json::Value;
use crate::metrics::{self, Metrics, Rep, TracedPass};
use crate::pass::{self, Tracer, Untraced};
use crate::spans::RUN_TRACE;
use crate::stats::spread;
use crate::workloads::Workload;

/// Set-up is measured at least this many times per run, so `setup_s` is a
/// median and `wall_queries_per_s` has reps to take slice medians over.
pub const MIN_REPS: usize = 3;

/// No rep beyond [`MIN_REPS`] starts after this much of the run, so a slow
/// host still finishes well inside the driver's 180 s.
const REP_DEADLINE: Duration = Duration::from_secs(75);

/// What a run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// What a result file records beyond the metrics: per-rep values,
    /// spreads, fingerprints, the reasons a run is not correct.
    pub detail: Value,
}

fn hex(v: u64) -> Value {
    Value::Str(format!("{v:016x}"))
}

fn nums(values: &[f64]) -> Value {
    Value::Arr(values.iter().map(|&v| Value::Num(v)).collect())
}

/// One untraced rep: fresh engine, set-up, timed pass.
fn rep(w: &Workload, seed: u64, ops: &[MutationOp], speed: &mut HostSpeed) -> Rep {
    let mut rig = pass::setup(w, w.config(seed), seed, &mut Untraced, speed);
    let measured = pass::measure(w, &mut rig, ops, &mut Untraced, speed);
    Rep {
        setup: rig.setup,
        measured,
    }
}

/// The timed reps: repeat (fresh engine, set-up, the workload's fixed
/// counts) until the timed sections add up to `seconds`, at least
/// `min_reps` times.
pub fn timed(w: &Workload, seed: u64, seconds: f64, min_reps: usize) -> Outcome {
    let ops = w.mutation_ops(seed);
    let started = Instant::now();
    let mut speed = HostSpeed::default();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        reps.push(rep(w, seed, &ops, &mut speed));
        let timed_s: f64 = reps.iter().map(|r| r.measured.raw_wall_s()).sum();
        if reps.len() >= min_reps && (timed_s >= seconds || started.elapsed() > REP_DEADLINE) {
            break;
        }
    }

    let fingerprints: Vec<u64> = reps
        .iter()
        .map(|r| metrics::sim_fingerprint(&r.measured))
        .collect();
    let repeatable = fingerprints.iter().all(|&f| f == fingerprints[0]);
    let attempted: u64 = reps
        .iter()
        .map(|r| r.measured.queries + r.measured.ops_attempted)
        .sum();
    let failed: u64 = reps.iter().map(|r| r.measured.ops_refused).sum();
    let mut problems = Vec::new();
    if !repeatable {
        problems.push(Value::Str(
            "simulated statistics differ between reps of one seed".into(),
        ));
    }
    if failed > 0 {
        problems.push(Value::Str(format!("{failed} mutation op(s) refused")));
    }

    let per_rep = |value: fn(&Rep) -> f64| reps.iter().map(value).collect::<Vec<f64>>();
    let qps = per_rep(|r| r.measured.queries as f64 / r.measured.nominal_wall_s());
    let setups = per_rep(|r| r.setup.total().nominal_ns / 1e9);
    let first = &reps[0].measured;
    let correct = problems.is_empty();
    let detail = Value::obj([
        ("reps", Value::Num(reps.len() as f64)),
        ("measured_queries_per_rep", Value::Num(first.queries as f64)),
        (
            "mutation_ops_per_rep",
            Value::Num(first.ops_attempted as f64),
        ),
        ("host_relative_speed", Value::Num(speed.relative_speed())),
        ("wall_queries_per_s_reps", nums(&qps)),
        ("wall_queries_per_s_spread", Value::Num(spread(&qps))),
        (
            "wall_queries_per_s_reps_unscaled",
            nums(&per_rep(|r| {
                r.measured.queries as f64 / r.measured.raw_wall_s()
            })),
        ),
        ("setup_s_reps", nums(&setups)),
        ("setup_s_spread", Value::Num(spread(&setups))),
        (
            "setup_s_reps_unscaled",
            nums(&per_rep(|r| r.setup.total().raw_ns / 1e9)),
        ),
        ("sim_fingerprint", hex(fingerprints[0])),
        (
            "result_digest",
            hex(first.window.get("engine.result_digest")),
        ),
        ("problems", Value::Arr(problems)),
    ]);
    Outcome {
        correct,
        attempted,
        failed,
        metrics: metrics::end_to_end(&reps, host::peak_rss_mb()),
        detail,
    }
}

/// The traced pass, after one untraced rep to compare it with. Writes
/// the spans to `trace_dir/trace-<workload>.jsonl`.
pub fn traced(w: &Workload, seed: u64, trace_dir: &Path) -> Outcome {
    let ops = w.mutation_ops(seed);
    let mut speed = HostSpeed::default();
    let untraced = rep(w, seed, &ops, &mut speed);

    let mut cfg = w.config(seed);
    cfg.capture_trace = true;
    let cost = cfg.cost;
    let mut tracer = Tracer::new(w, &cfg, seed);
    let mut rig = pass::setup(w, cfg, seed, &mut tracer, &mut speed);
    // Index-device events of the warm-up are not part of the window.
    rig.engine.take_trace();
    let measured = pass::measure(w, &mut rig, &ops, &mut tracer, &mut speed);

    let events = rig.engine.take_trace();
    let t = Instant::now();
    let replayed = tracetools::replay(&mut HddDisk::wd3200aajs(), &events);
    let replay_ns = t.elapsed().as_nanos() as u64;
    tracer
        .log
        .record(RUN_TRACE, "hddsim.replay", "run", t, replay_ns);

    let lru_baseline = w.lru_baseline_config(seed).map(|cfg| {
        let mut rig = pass::setup(w, cfg, seed, &mut Untraced, &mut speed);
        pass::measure(w, &mut rig, &ops, &mut Untraced, &mut speed)
    });

    // The correctness gate.
    let mut problems = Vec::new();
    let (a, b) = (
        metrics::sim_fingerprint(&untraced.measured),
        metrics::sim_fingerprint(&measured),
    );
    if a != b {
        problems.push(Value::Str(format!(
            "sim_fingerprint differs between the untraced rep ({a:016x}) and the traced pass ({b:016x})"
        )));
    }
    if tracer.oracle_mismatches > 0 {
        problems.push(Value::Str(format!(
            "{} of {} oracle checks disagree with the measured engine",
            tracer.oracle_mismatches, tracer.oracle_checked
        )));
    }
    let validation = rig.engine.validation_report();
    if !validation.is_clean() {
        problems.push(Value::Str(format!(
            "validation_report: {}",
            validation.summary()
        )));
    }
    let refused = untraced.measured.ops_refused + measured.ops_refused;
    if refused > 0 {
        problems.push(Value::Str(format!("{refused} mutation op(s) refused")));
    }
    let attempted = untraced.measured.queries
        + untraced.measured.ops_attempted
        + measured.queries
        + measured.ops_attempted;
    let failed = refused + tracer.oracle_mismatches;

    let trace_path = trace_dir.join(format!("trace-{}.jsonl", w.name));
    let written = fs::create_dir_all(trace_dir)
        .and_then(|()| File::create(&trace_path))
        .and_then(|f| {
            let mut out = BufWriter::new(f);
            tracer.log.write_jsonl(&mut out)?;
            out.flush()
        });
    if let Err(e) = written {
        problems.push(Value::Str(format!("{}: {e}", trace_path.display())));
    }

    let metrics = metrics::per_layer(&TracedPass {
        // The traced set-up also warms the shadow processor; the untraced
        // rep's set-up is the one `setup_s` is made of.
        setup: untraced.setup,
        measured: &measured,
        tracer: &tracer,
        engine: &rig.engine,
        cost,
        untraced_wall_s: untraced.measured.raw_wall_s(),
        replay: (replayed.served, replay_ns),
        lru_baseline: lru_baseline.as_ref(),
        attempted,
        failed,
    });
    let correct = problems.is_empty();
    let detail = Value::obj([
        ("sim_fingerprint", hex(b)),
        (
            "result_digest",
            hex(measured.window.get("engine.result_digest")),
        ),
        ("oracle_checks", Value::Num(tracer.oracle_checked as f64)),
        ("trace_file", Value::Str(trace_path.display().to_string())),
        ("problems", Value::Arr(problems)),
    ]);
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
        detail,
    }
}
