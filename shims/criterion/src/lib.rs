//! Offline stand-in for the `criterion` benchmark harness.
//!
//! The build environment has no registry access, so this crate implements
//! the subset of criterion's API the workspace's benches use —
//! `criterion_group!` / `criterion_main!`, benchmark groups,
//! `bench_function`, `Bencher::iter` / `iter_batched`, `sample_size` —
//! backed by a simple but honest wall-clock harness: each benchmark is
//! warmed up, the per-iteration cost is estimated, and `sample_size`
//! samples are timed so the reported median is stable enough to compare
//! two code paths in the same process.
//!
//! Output is one line per benchmark:
//! `bench <group>/<name>  median <t>/iter  (mean <t>, <n> samples)`.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "a micro-benchmark harness times host code; no simulated figure reads it"
)]

use std::time::{Duration, Instant};

/// Per-sample batching hint. The shim sizes batches the same way for all
/// variants, so this is accepted for source compatibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration state.
    SmallInput,
    /// Large per-iteration state.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// Harness entry point, one per bench binary.
pub struct Criterion {
    filter: Option<String>,
    /// Target measuring time per benchmark (split across samples).
    measure: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            filter: None,
            measure: Duration::from_millis(300),
        }
    }
}

impl Criterion {
    /// Build from the process arguments: a positional argument filters
    /// benchmarks by substring; harness flags cargo passes (`--bench`,
    /// `--test`, ...) are ignored.
    pub fn from_args() -> Self {
        let mut c = Criterion::default();
        for arg in std::env::args().skip(1) {
            if !arg.starts_with('-') {
                c.filter = Some(arg);
            }
        }
        c
    }

    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 20,
        }
    }

    /// Print a trailing summary (no-op in the shim).
    pub fn final_summary(&self) {}
}

/// A named set of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Define and run one benchmark.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = format!("{}/{}", self.name, name.into());
        if let Some(filter) = &self.criterion.filter {
            if !id.contains(filter.as_str()) {
                return self;
            }
        }
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
            measure: self.criterion.measure,
        };
        f(&mut b);
        b.report(&id);
        self
    }

    /// Close the group (no-op in the shim).
    pub fn finish(&mut self) {}
}

/// Times the benchmark routine.
pub struct Bencher {
    /// Nanoseconds per iteration, one entry per sample.
    samples: Vec<f64>,
    sample_size: usize,
    measure: Duration,
}

impl Bencher {
    /// Benchmark `routine` by calling it repeatedly.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm up and estimate the per-iteration cost.
        let per_iter = estimate(|| {
            std::hint::black_box(routine());
        });
        let iters = iters_per_sample(per_iter, self.measure, self.sample_size);
        self.samples = (0..self.sample_size)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(routine());
                }
                start.elapsed().as_secs_f64() * 1e9 / iters as f64
            })
            .collect();
    }

    /// Benchmark `routine` on fresh input from `setup`; setup time is not
    /// measured.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let per_iter = estimate(|| {
            let input = setup();
            std::hint::black_box(routine(input));
        });
        let iters = iters_per_sample(per_iter, self.measure, self.sample_size).min(1024);
        self.samples = (0..self.sample_size)
            .map(|_| {
                let inputs: Vec<I> = (0..iters).map(|_| setup()).collect();
                let start = Instant::now();
                for input in inputs {
                    std::hint::black_box(routine(input));
                }
                start.elapsed().as_secs_f64() * 1e9 / iters as f64
            })
            .collect();
    }

    fn report(&self, id: &str) {
        if self.samples.is_empty() {
            println!("bench {id:<40}  (no samples)");
            return;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let median = sorted[sorted.len() / 2];
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        println!(
            "bench {id:<40}  median {}/iter  (mean {}, {} samples)",
            fmt_ns(median),
            fmt_ns(mean),
            sorted.len()
        );
    }
}

/// Run `f` until ~20 ms of wall clock has elapsed; return ns/iteration.
fn estimate(mut f: impl FnMut()) -> f64 {
    let budget = Duration::from_millis(20);
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < budget || iters == 0 {
        f();
        iters += 1;
        if iters >= 1_000_000 {
            break;
        }
    }
    start.elapsed().as_secs_f64() * 1e9 / iters as f64
}

fn iters_per_sample(per_iter_ns: f64, measure: Duration, samples: usize) -> u64 {
    let per_sample_ns = measure.as_secs_f64() * 1e9 / samples.max(1) as f64;
    (per_sample_ns / per_iter_ns.max(1.0)).ceil().max(1.0) as u64
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Collect benchmark functions into a group runner, mirroring criterion's
/// macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        #[doc = concat!("Runs the `", stringify!($name), "` benchmark group.")]
        pub fn $name(c: &mut $crate::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Produce a `main` that runs the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::from_args();
            $( $group(&mut c); )+
            c.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_produces_samples() {
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: 3,
            measure: Duration::from_millis(5),
        };
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(1);
            x
        });
        assert_eq!(b.samples.len(), 3);
        assert!(b.samples.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn batched_runs_setup_per_input() {
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: 2,
            measure: Duration::from_millis(4),
        };
        b.iter_batched(|| vec![1u8, 2, 3], |v| v.len(), BatchSize::SmallInput);
        assert_eq!(b.samples.len(), 2);
    }

    #[test]
    fn formats_scale() {
        assert!(fmt_ns(12.0).contains("ns"));
        assert!(fmt_ns(12_000.0).contains("µs"));
        assert!(fmt_ns(12_000_000.0).contains("ms"));
    }
}
