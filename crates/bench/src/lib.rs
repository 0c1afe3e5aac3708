//! Shared harness code for the figure/table binaries.
//!
//! Every binary regenerates one table or figure of the paper at a
//! **scaled-down but shape-preserving** operating point: document counts
//! are 1/10 of the paper's (100 k–500 k for its 1 M–5 M), query counts and
//! cache capacities scale with them. Pass `--full` to run closer to paper
//! scale (slow), or `--scale <f64>` for anything in between; all series
//! print as aligned text tables plus a `csv:`-prefixed machine-readable
//! block.

use engine::{EngineConfig, IndexPlacement, SearchEngine};
use hybridcache::{HybridConfig, PolicyKind};

/// Scale factor applied to the paper's document/query counts.
#[derive(Debug, Clone, Copy)]
pub struct Scale(pub f64);

impl Scale {
    /// Parse the arguments after the program name: `--full` (0.5),
    /// `--scale F` with `F` finite and > 0, default 0.1. Anything else —
    /// an unknown flag, a missing or unparsable value, a scale the corpus
    /// builder would reject — is an error, not the default.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Scale, String> {
        let mut args = args.into_iter();
        let mut scale = 0.1;
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => scale = 0.5,
                "--scale" => {
                    let v = args.next().ok_or("--scale needs a value")?;
                    scale = v
                        .parse()
                        .ok()
                        .filter(|f: &f64| f.is_finite() && *f > 0.0)
                        .ok_or_else(|| format!("--scale {v}: not a finite number > 0"))?;
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(Scale(scale))
    }

    /// [`Scale::parse`] over argv; a bad command line prints the reason
    /// and the usage to stderr and exits 2.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|msg| {
            eprintln!("{msg}\nusage: [--full | --scale F]  (F finite and > 0; default 0.1)");
            std::process::exit(2)
        })
    }

    /// The paper's 1–5 M document sweep, scaled.
    pub fn doc_points(&self) -> Vec<u64> {
        (1..=5).map(|m| (m as f64 * 1e6 * self.0) as u64).collect()
    }

    /// A single "large collection" point (the paper's 5 M documents).
    pub fn docs_5m(&self) -> u64 {
        (5e6 * self.0) as u64
    }

    /// The paper's 10 k–100 k query sweep (Fig. 19), scaled.
    pub fn query_points(&self) -> Vec<usize> {
        (1..=10)
            .map(|i| ((i as f64) * 1e4 * self.0) as usize)
            .collect()
    }

    /// A standard measurement run length.
    pub fn queries(&self) -> usize {
        (4e4 * self.0) as usize
    }

    /// Scale a byte capacity quoted at paper scale — capacities shrink
    /// with the document count so cache pressure (capacity : working set)
    /// is preserved.
    pub fn bytes(&self, paper_bytes: u64) -> u64 {
        ((paper_bytes as f64 * self.0) as u64).max(1 << 20)
    }
}

/// The standard cache configuration used across figures: memory cache
/// `mem_bytes`, SSD cache `ssd_bytes`, 20/80 RC/IC split.
pub fn cache_config(mem_bytes: u64, ssd_bytes: u64, policy: PolicyKind) -> HybridConfig {
    HybridConfig::paper(mem_bytes, ssd_bytes, policy)
}

/// Build and run one cached engine; CBSLRU configurations are seeded from
/// log analysis first (the paper's workflow).
pub fn run_cached(docs: u64, cache: HybridConfig, queries: usize, seed: u64) -> engine::RunReport {
    let policy = cache.policy;
    let mut e = SearchEngine::new(EngineConfig::cached(docs, cache, seed));
    if matches!(policy, PolicyKind::Cbslru { .. }) {
        e.seed_static_from_log(queries);
    }
    e.run(queries)
}

/// Build and run one uncached engine.
pub fn run_uncached(
    docs: u64,
    placement: IndexPlacement,
    queries: usize,
    seed: u64,
) -> engine::RunReport {
    let mut e = SearchEngine::new(EngineConfig::no_cache(docs, placement, seed));
    e.run(queries)
}

/// Print a text table: header + rows of equal arity.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    for row in rows {
        println!("{}", fmt_row(row));
    }
    // Machine-readable block.
    println!("csv:{}", header.join(","));
    for row in rows {
        println!("csv:{}", row.join(","));
    }
    println!();
}

/// Format a ratio as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.2}", x * 100.0)
}

/// Format milliseconds.
pub fn ms(d: simclock::SimDuration) -> String {
    format!("{:.2}", d.as_millis_f64())
}

/// The three policies every comparison figure sweeps.
pub fn policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Lru,
        PolicyKind::Cblru,
        PolicyKind::Cbslru {
            static_fraction: 0.3,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_points() {
        let s = Scale(0.1);
        assert_eq!(
            s.doc_points(),
            vec![100_000, 200_000, 300_000, 400_000, 500_000]
        );
        assert_eq!(s.docs_5m(), 500_000);
        assert_eq!(s.query_points().len(), 10);
        assert_eq!(s.queries(), 4_000);
        // Capacities shrink with the docs; 1 MB floor.
        assert_eq!(s.bytes(200 << 20), 20 << 20);
        assert_eq!(s.bytes(1 << 20), 1 << 20);
    }

    fn parse(args: &[&str]) -> Result<f64, String> {
        Scale::parse(args.iter().map(|a| a.to_string())).map(|s| s.0)
    }

    #[test]
    fn parse_defaults_to_a_tenth() {
        assert_eq!(parse(&[]), Ok(0.1));
    }

    #[test]
    fn parse_accepts_full_and_scale() {
        assert_eq!(parse(&["--full"]), Ok(0.5));
        assert_eq!(parse(&["--scale", "0.01"]), Ok(0.01));
    }

    #[test]
    fn parse_rejects_an_unparsable_scale() {
        assert!(parse(&["--scale", "abc"]).unwrap_err().contains("abc"));
    }

    #[test]
    fn parse_rejects_a_missing_scale_value() {
        assert!(parse(&["--scale"]).unwrap_err().contains("needs a value"));
    }

    #[test]
    fn parse_rejects_a_misspelt_flag() {
        let err = parse(&["--sclae", "0.01"]).unwrap_err();
        assert!(err.contains("--sclae"), "{err}");
    }

    #[test]
    fn parse_rejects_scales_the_corpus_cannot_build() {
        for bad in ["0", "-0.5", "nan", "inf"] {
            assert!(parse(&["--scale", bad]).is_err(), "--scale {bad} accepted");
        }
    }

    #[test]
    fn formatting() {
        assert_eq!(pct(0.1234), "12.34");
        assert_eq!(ms(simclock::SimDuration::from_micros(1500)), "1.50");
    }

    #[test]
    fn policy_list_is_ordered() {
        let p = policies();
        assert_eq!(p[0].label(), "LRU");
        assert_eq!(p[1].label(), "CBLRU");
        assert_eq!(p[2].label(), "CBSLRU");
    }
}
