//! EXPERIMENTS.md's headline table against the committed figures.
//!
//! Every row of the "Headline results" table names a metric and a policy.
//! Its Measured cell must be the delta `results/scale-0.1/all_figures.txt`
//! prints for that policy on the metric's summary line, and its Paper cell
//! the figure the `paper:` text on that line (or the next) gives for it.
//! `ci.sh` already diffs `all_figures.txt` against a fresh run, so the
//! table cannot drift from the code either.

use std::path::Path;

/// Table metric → the start of its summary line in `all_figures.txt`.
const SUMMARY_LINES: &[(&str, &str)] = &[
    ("Hit ratio", "average hit ratio:"),
    ("Response time", "response time vs LRU:"),
    ("Throughput", "throughput vs LRU:"),
    ("Block erasures", "erases vs LRU"),
    ("Flash avg access time", "access time vs LRU:"),
];

/// The policies, in the order a positional `paper: a / b` lists them.
const POLICIES: [&str; 2] = ["CBLRU", "CBSLRU"];

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The signed decimals in `text`, in order (`−` read as `-`).
fn signed_numbers(text: &str) -> Vec<f64> {
    let text = text.replace('−', "-");
    let mut out = Vec::new();
    let mut rest = text.as_str();
    while let Some(at) = rest.find(['+', '-']) {
        let tail = &rest[at + 1..];
        let len = tail
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .unwrap_or(tail.len());
        if let Ok(v) = tail[..len].parse::<f64>() {
            out.push(if rest[at..].starts_with('-') { -v } else { v });
        }
        rest = &tail[len..];
    }
    out
}

/// The first signed decimal after the word `policy` in `text`.
fn after_policy(text: &str, policy: &str) -> Option<f64> {
    let at = text.find(policy)?;
    signed_numbers(&text[at + policy.len()..]).first().copied()
}

/// (paper, measured) for `metric` and `policy` as `all_figures.txt` prints
/// them.
fn committed(figures: &[&str], metric: &str, policy: &str) -> (f64, f64) {
    let prefix = SUMMARY_LINES
        .iter()
        .find(|(m, _)| *m == metric)
        .unwrap_or_else(|| panic!("no summary line known for {metric:?}"))
        .1;
    let at = figures
        .iter()
        .position(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("all_figures.txt prints no {prefix:?} line"));
    let line = figures[at];
    let (measured_text, paper_text) = match line.split_once("paper:") {
        Some((m, p)) => (m, p),
        None => (
            line,
            figures[at + 1]
                .strip_prefix("paper:")
                .unwrap_or_else(|| panic!("no paper: text on or after {line:?}")),
        ),
    };
    let measured = after_policy(measured_text, policy)
        .unwrap_or_else(|| panic!("{line:?} gives no figure for {policy}"));
    let paper = after_policy(paper_text, policy).unwrap_or_else(|| {
        let index = POLICIES.iter().position(|p| *p == policy).unwrap();
        signed_numbers(paper_text)[index]
    });
    (paper, measured)
}

#[test]
fn headline_table_matches_the_committed_figures() {
    let experiments = read("EXPERIMENTS.md");
    let figures = read("results/scale-0.1/all_figures.txt");
    let figures: Vec<&str> = figures.lines().collect();
    let table = experiments
        .split("## Headline results")
        .nth(1)
        .expect("EXPERIMENTS.md has a Headline results section");
    let rows: Vec<Vec<&str>> = table
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2) // header and separator
        .map(|l| l.trim_matches('|').split('|').map(str::trim).collect())
        .collect();
    assert_eq!(rows.len(), 10, "the headline table has ten rows");
    for row in &rows {
        let (label, paper_cell, measured_cell) = (row[0], row[1], row[2]);
        let (metric, rest) = label.split_once(", ").expect("\"metric, policy\" label");
        let policy = rest.split_whitespace().next().unwrap();
        let (paper, measured) = committed(&figures, metric, policy);
        let cell = |text: &str| signed_numbers(text).first().copied();
        assert_eq!(
            cell(measured_cell),
            Some(measured),
            "{label}: Measured cell {measured_cell:?}, all_figures.txt prints {measured:+.2}"
        );
        assert_eq!(
            cell(paper_cell),
            Some(paper),
            "{label}: Paper cell {paper_cell:?}, all_figures.txt quotes {paper:+.2}"
        );
    }
}
