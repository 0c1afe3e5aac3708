//! `benchmark compare A.json B.json`: one row per workload × end-to-end
//! metric, judged with the bounds of `BENCHMARK.json`.

use crate::json::Value;
use crate::spec::{Better, MetricSpec, Spec};

/// What happened to one metric on one workload between two result files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The per-rep spread of either side exceeds the bound, so the
    /// difference cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `new` against `base`. `spread` is the larger per-rep spread of
/// the two sides (0 for a metric on the simulated clock, which repeats
/// exactly).
pub fn judge(metric: &MetricSpec, base: f64, new: f64, spread: f64) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    if spread > bound {
        return Verdict::Unresolved;
    }
    // Positive = worse, as a share of the base.
    let worse = match metric.better {
        Better::Lower => new / base - 1.0,
        Better::Higher => 1.0 - new / base,
    };
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn metric_value(file: &Value, workload: &str, metric: &str) -> Option<f64> {
    file.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn timed_detail<'a>(file: &'a Value, workload: &str, key: &str) -> Option<&'a Value> {
    file.get("workloads")?.get(workload)?.get("timed")?.get(key)
}

/// Print the comparison table; returns whether every row is `unchanged`
/// and every `sim_fingerprint` equal.
pub fn compare(spec: &Spec, a: &Value, b: &Value) -> bool {
    let mut all_unchanged = true;
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "base", "new", "ratio"
    );
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let (Some(base), Some(new)) = (
                metric_value(a, workload, &metric.name),
                metric_value(b, workload, &metric.name),
            ) else {
                println!(
                    "{workload:<14} {:<22} missing from a result file",
                    metric.name
                );
                all_unchanged = false;
                continue;
            };
            let spread_key = format!("{}_spread", metric.name);
            let spread = [a, b]
                .iter()
                .filter_map(|f| timed_detail(f, workload, &spread_key)?.as_f64())
                .fold(0.0, f64::max);
            let verdict = judge(metric, base, new, spread);
            all_unchanged &= verdict == Verdict::Unchanged;
            println!(
                "{workload:<14} {:<22} {base:>14.6} {new:>14.6} {:>8.4}  {} (bound {}, spread {:.3})",
                metric.name,
                new / base,
                verdict.label(),
                metric.bound.unwrap_or(0.0),
                spread,
            );
        }
        let fp = |f: &Value| {
            timed_detail(f, workload, "sim_fingerprint")
                .and_then(Value::as_str)
                .map(str::to_string)
        };
        let equal = fp(a).is_some() && fp(a) == fp(b);
        all_unchanged &= equal;
        println!(
            "{workload:<14} {:<22} {}",
            "sim_fingerprint",
            if equal { "equal" } else { "different" }
        );
    }
    all_unchanged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "x".into(),
            better,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let lower = metric(Better::Lower, 0.1);
        assert_eq!(judge(&lower, 100.0, 105.0, 0.0), Verdict::Unchanged);
        assert_eq!(judge(&lower, 100.0, 111.0, 0.0), Verdict::Regressed);
        assert_eq!(judge(&lower, 100.0, 89.0, 0.0), Verdict::Improved);
        let higher = metric(Better::Higher, 0.1);
        assert_eq!(judge(&higher, 100.0, 89.0, 0.0), Verdict::Regressed);
        assert_eq!(judge(&higher, 100.0, 111.0, 0.0), Verdict::Improved);
        assert_eq!(judge(&higher, 100.0, 95.0, 0.0), Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_whatever_the_medians() {
        let m = metric(Better::Higher, 0.1);
        assert_eq!(judge(&m, 100.0, 50.0, 0.11), Verdict::Unresolved);
        assert_eq!(judge(&m, 100.0, 100.0, 0.11), Verdict::Unresolved);
        assert_eq!(judge(&m, 100.0, 100.0, 0.1), Verdict::Unchanged);
    }
}
