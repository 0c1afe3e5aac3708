//! `benchmark run …` and `benchmark compare A.json B.json`; see the
//! README for the one command, `benchmark/run.sh`, that wraps this.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use benchmark::json::{self, Value};
use benchmark::metrics::Metrics;
use benchmark::run::{self, Outcome};
use benchmark::spec::{self, MetricSpec, Spec};
use benchmark::{compare, host, workloads};

const USAGE: &str = "\
usage: benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                     [--smoke] [--out FILE]
       benchmark compare A.json B.json

run, with --workload and --trace: one run in this process. --trace 0 repeats
  (set-up, timed pass) until the timed sections add up to --seconds and prints
  the end-to-end metrics; --trace 1 makes the traced pass and prints the
  per-layer metrics. The last line of standard output is one JSON object.
run, without --trace: the suite. Every workload (or the one named), the timed
  run and then the traced run of each in a fresh child process, one after
  another; writes --out (default benchmark/out/result.json) and the trace
  files beside it. Exits non-zero if any correctness check fails.
--smoke divides every workload's counts by 50.";

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    out: PathBuf,
}

fn parse_run_args(args: &[String], spec: &Spec) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 42,
        seconds: spec.run_seconds,
        trace: None,
        smoke: false,
        out: PathBuf::from("benchmark/out/result.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if parsed.seconds.is_nan() || parsed.seconds < 0.0 {
                    return Err("--seconds must not be negative".into());
                }
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &parsed.workload {
        if workloads::find(name).is_none() {
            return Err(format!(
                "unknown workload {name}; BENCHMARK.json lists {}",
                spec.workloads.join(", ")
            ));
        }
    }
    if parsed.trace.is_some() && parsed.workload.is_none() {
        return Err("--trace needs --workload".into());
    }
    Ok(parsed)
}

/// Order the computed metrics as the spec lists them, insisting that the
/// two name sets are equal: none missing, none extra.
fn in_spec_order<'a>(listed: &'a [MetricSpec], computed: &Metrics) -> Vec<(&'a MetricSpec, f64)> {
    for (name, _) in computed {
        assert!(
            listed.iter().any(|m| &m.name == name),
            "metric {name} is computed but BENCHMARK.json does not list it"
        );
    }
    listed
        .iter()
        .map(|m| {
            let value = computed
                .iter()
                .find(|(name, _)| name == &m.name)
                .unwrap_or_else(|| {
                    panic!("BENCHMARK.json lists {} but nothing computes it", m.name)
                })
                .1;
            (m, value)
        })
        .collect()
}

fn metrics_object(rows: &[(&MetricSpec, f64)]) -> Value {
    Value::obj(rows.iter().map(|(m, value)| {
        (
            m.name.clone(),
            Value::obj([
                ("value", Value::Num(*value)),
                ("unit", Value::Str(m.unit.clone())),
            ]),
        )
    }))
}

/// Prefix of the line a run prints, before its last, for the suite.
const DETAIL_PREFIX: &str = "#detail ";

/// One run in this process; prints its lines and the final JSON object.
fn run_single(spec: &Spec, args: &RunArgs, traced: bool) -> ExitCode {
    let name = args.workload.as_deref().expect("checked by the parser");
    let mut w = workloads::find(name).expect("checked by the parser");
    if args.smoke {
        w = w.smoke();
    }
    let Outcome {
        correct,
        attempted,
        failed,
        metrics,
        detail,
    } = if traced {
        let dir = args.out.parent().unwrap_or(Path::new("."));
        run::traced(&w, args.seed, dir)
    } else {
        // One rep is enough to smoke-test; medians need several.
        let min_reps = if args.smoke { 1 } else { run::MIN_REPS };
        run::timed(&w, args.seed, args.seconds, min_reps)
    };
    let listed = if traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let rows = in_spec_order(listed, &metrics);
    for (m, value) in &rows {
        println!("{name} {} {value} {}", m.name, m.unit);
    }
    println!("{DETAIL_PREFIX}{}", detail.render());
    let summary = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", metrics_object(&rows)),
    ]);
    println!("{}", summary.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        for problem in detail
            .get("problems")
            .map(Value::as_arr)
            .unwrap_or_default()
        {
            eprintln!("{name}: {}", problem.as_str().unwrap_or("?"));
        }
        ExitCode::FAILURE
    }
}

/// Run one child (`--trace 0` or `1`), pass its `workload metric value
/// unit` lines through, and return its `(summary, detail)`.
fn child(args: &RunArgs, workload: &str, trace: u8) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload, "--trace", &trace.to_string()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .arg("--out")
        .arg(&args.out)
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end before returning.
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let summary = lines
        .pop()
        .ok_or_else(|| format!("no output ({})", output.status))
        .and_then(json::parse)?;
    let mut detail = Value::Null;
    for line in lines {
        match line.strip_prefix(DETAIL_PREFIX) {
            Some(json) => detail = json::parse(json)?,
            None => println!("{line}"),
        }
    }
    Ok((summary, detail))
}

/// The suite: every selected workload, timed run then traced run, each in
/// its own child, strictly one after another.
fn run_suite(spec: &Spec, args: &RunArgs) -> ExitCode {
    let selected: Vec<&String> = spec
        .workloads
        .iter()
        .filter(|w| args.workload.as_ref().is_none_or(|only| only == *w))
        .collect();
    host::warn_if_loaded();
    let host_block = host::block(args.seed, args.seconds, args.smoke);
    let mut all_correct = true;
    let mut results = Vec::new();
    for name in selected {
        let mut entry: Vec<(String, Value)> = Vec::new();
        let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
        for (trace, section, detail_key) in [(0, "end_to_end", "timed"), (1, "per_layer", "traced")]
        {
            match child(args, name, trace) {
                Ok((summary, detail)) => {
                    correct &= summary.get("correct").and_then(Value::as_bool) == Some(true);
                    attempted += summary
                        .get("attempted")
                        .and_then(Value::as_f64)
                        .unwrap_or(0.0);
                    failed += summary.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
                    let metrics = summary.get("metrics").cloned().unwrap_or(Value::Null);
                    for problem in detail
                        .get("problems")
                        .map(Value::as_arr)
                        .unwrap_or_default()
                    {
                        println!("{name} PROBLEM {}", problem.as_str().unwrap_or("?"));
                    }
                    if trace == 0 {
                        for key in ["wall_queries_per_s", "setup_s"] {
                            let reps = detail.get(&format!("{key}_reps")).map(Value::render);
                            let spread =
                                detail.get(&format!("{key}_spread")).and_then(Value::as_f64);
                            println!(
                                "{name} {key} reps {} spread {:.4}",
                                reps.unwrap_or_default(),
                                spread.unwrap_or(f64::NAN)
                            );
                        }
                    }
                    if let Some(speed) = detail.get("host_relative_speed").and_then(Value::as_f64) {
                        println!("{name} host_relative_speed {speed} ratio");
                    }
                    if let Some(fp) = detail.get("sim_fingerprint").and_then(Value::as_str) {
                        println!("{name} sim_fingerprint {fp} ({detail_key})");
                    }
                    entry.push((section.to_string(), metrics));
                    entry.push((detail_key.to_string(), detail));
                }
                Err(e) => {
                    println!("{name} PROBLEM --trace {trace}: {e}");
                    correct = false;
                }
            }
        }
        // The gate's bit-identity check spans both children.
        let fingerprint = |key: &str| {
            entry
                .iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, d)| d.get("sim_fingerprint"))
                .and_then(Value::as_str)
        };
        if fingerprint("timed").is_none() || fingerprint("timed") != fingerprint("traced") {
            println!(
                "{name} PROBLEM sim_fingerprint differs between the timed run and the traced run"
            );
            correct = false;
        }
        println!(
            "{name} ops_failed_share {} share",
            failed / attempted.max(1.0)
        );
        all_correct &= correct;
        let mut members = vec![
            ("correct".to_string(), Value::Bool(correct)),
            ("attempted".to_string(), Value::Num(attempted)),
            ("failed".to_string(), Value::Num(failed)),
        ];
        members.append(&mut entry);
        results.push((name.clone(), Value::Obj(members)));
    }
    let file = Value::obj([
        ("host", host_block),
        ("correct", Value::Bool(all_correct)),
        ("workloads", Value::Obj(results)),
    ]);
    let written = args
        .out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&args.out, file.render_pretty()));
    if let Err(e) = written {
        eprintln!("{}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "{}",
        Value::obj([
            ("correct", Value::Bool(all_correct)),
            ("result_file", Value::Str(args.out.display().to_string())),
        ])
        .render()
    );
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = spec::load();
    let result = match args.first().map(String::as_str) {
        Some("run") => host::check_threads()
            .and_then(|()| parse_run_args(&args[1..], &spec))
            .map(|run_args| match run_args.trace {
                Some(traced) => run_single(&spec, &run_args, traced),
                None => run_suite(&spec, &run_args),
            }),
        Some("compare") if args.len() == 3 => load(&args[1]).and_then(|a| {
            let b = load(&args[2])?;
            Ok(if compare::compare(&spec, &a, &b) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}
