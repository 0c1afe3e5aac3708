//! The host a result was measured on, and the process's peak memory.

use std::process::Command;

use crate::json::Value;

/// Threads the load generator uses. The paper's testbed replays a log
/// sequentially: one closed-loop client, nothing else running.
pub const GENERATOR_THREADS: usize = 1;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The 1-minute load average.
pub fn load_average() -> f64 {
    read("/proc/loadavg")
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Refuse a host that cannot give the generator its threads.
pub fn check_threads() -> Result<(), String> {
    let cores = nproc();
    if GENERATOR_THREADS > cores {
        return Err(format!(
            "the generator needs {GENERATOR_THREADS} thread(s) but the host has {cores}"
        ));
    }
    Ok(())
}

/// Warn when something else is already using the machine. Only worth
/// asking before a suite starts: a running suite is itself a load of 1.
pub fn warn_if_loaded() {
    let (cores, load) = (nproc(), load_average());
    if load > 0.5 * cores as f64 {
        eprintln!(
            "WARNING: 1-minute load average {load:.2} exceeds half of {cores} core(s); \
             wall-clock metrics will be noisy"
        );
    }
}

/// First line of a command's output, or "unknown" (a checkout need not be
/// a git repository, and a host need not have git).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host block every result file carries.
pub fn block(seed: u64, seconds: f64, smoke: bool) -> Value {
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown".to_string(), |m| m.trim().to_string());
    let dirty = Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or(Value::Null, |o| Value::Bool(!o.stdout.is_empty()));
    Value::obj([
        ("nproc", Value::Num(nproc() as f64)),
        ("generator_threads", Value::Num(GENERATOR_THREADS as f64)),
        ("cpu_model", Value::Str(cpu)),
        ("load_average_1m_at_start", Value::Num(load_average())),
        ("rustc", Value::Str(first_line("rustc", &["-V"]))),
        (
            "git_commit",
            Value::Str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("git_dirty", dirty),
        (
            "profile",
            Value::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release (debug = true, lto = thin)"
                }
                .to_string(),
            ),
        ),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("smoke", Value::Bool(smoke)),
    ])
}
