//! EXPERIMENTS.md's extension tables against the committed sweeps.
//!
//! The admission, serving and ingest tables each quote the `csv:` rows of
//! `results/scale-0.1/ext_{admission,serving,ingest}.txt`, the admission
//! prose its drifting-Zipf cuts and its "roughly halves" claim, the
//! serving prose its calibration, knee, batch and tail figures, the ingest
//! prose its hit-ratio and response figures, the queue-depth prose
//! the depth-4 rows of `ext_queue_depth.txt`, and the ablation table and
//! TTL bullet the `ablation_*.txt` and `ext_dynamic.txt` rows.
//! Every number in a cell must be the csv value printed at the precision
//! the cell uses.
//! `ci.sh` already diffs those files against fresh runs, so the tables
//! cannot drift from the code either.

use std::path::Path;

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The EXPERIMENTS.md section whose heading names `bin`.
fn section<'a>(experiments: &'a str, bin: &str) -> &'a str {
    let heading = format!("(`--bin {bin}`");
    experiments
        .split("\n### ")
        .find(|s| s.lines().next().is_some_and(|h| h.contains(&heading)))
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no section for {bin}"))
}

/// The body rows (cells trimmed, `**` dropped) of the first table under
/// the EXPERIMENTS.md heading that names `bin`.
fn table_rows(experiments: &str, bin: &str) -> Vec<Vec<String>> {
    section(experiments, bin)
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2) // header and separator
        .map(|l| {
            let cells = l.trim_matches('|').split('|');
            cells
                .map(|c| c.replace("**", "").trim().to_owned())
                .collect()
        })
        .collect()
}

/// The numbers in `text`, as printed: digit groups joined by single
/// spaces (`17 189`) are one number, `×`, `%` and units are dropped.
fn numbers(text: &str) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    let mut at = 0;
    while at < chars.len() {
        if !chars[at].is_ascii_digit() {
            at += 1;
            continue;
        }
        let mut number = String::new();
        loop {
            while at < chars.len() && (chars[at].is_ascii_digit() || chars[at] == '.') {
                number.push(chars[at]);
                at += 1;
            }
            // A thousands group: a space, then exactly three digits.
            let group = chars.get(at + 1..at + 4);
            let next = chars.get(at + 4);
            if chars.get(at) == Some(&' ')
                && group.is_some_and(|g| g.iter().all(char::is_ascii_digit))
                && !next.is_some_and(char::is_ascii_digit)
            {
                at += 1;
                continue;
            }
            break;
        }
        out.push(number);
    }
    out
}

/// Whether `printed` is `value` at `printed`'s number of decimals.
fn prints_as(printed: &str, value: f64) -> bool {
    let decimals = printed.split_once('.').map_or(0, |(_, f)| f.len());
    format!("{value:.decimals$}") == printed
}

/// Assert the numbers of `cell` are `want`, each at the cell's precision.
fn check_cell(context: &str, cell: &str, want: &[f64]) {
    let got = numbers(cell);
    assert_eq!(got.len(), want.len(), "{context}: {cell:?} holds {got:?}");
    for (printed, &value) in got.iter().zip(want) {
        assert!(
            prints_as(printed, value),
            "{context}: the cell {cell:?} prints {printed}, the csv gives {value}"
        );
    }
}

/// `csv`, a decimal as a sweep prints it, rounded half-up to `decimals`
/// places. Formatting the parsed `f64` would round `106.55` (stored as
/// 106.549…) down to `106.5`.
fn half_up(csv: &str, decimals: usize) -> String {
    let (int, frac) = csv.split_once('.').unwrap_or((csv, ""));
    let digits: u64 = format!("{int}{frac}")
        .parse()
        .unwrap_or_else(|e| panic!("csv {csv:?}: {e}"));
    let kept = match frac.len().checked_sub(decimals) {
        Some(cut) => {
            let unit = 10u64.pow(cut as u32);
            (digits + unit / 2) / unit
        }
        None => digits * 10u64.pow((decimals - frac.len()) as u32),
    };
    if decimals == 0 {
        return kept.to_string();
    }
    let scale = 10u64.pow(decimals as u32);
    format!("{}.{:0decimals$}", kept / scale, kept % scale)
}

/// Assert `printed` is the csv decimal `csv` at `printed`'s precision.
fn check_printed(context: &str, printed: &str, csv: &str) {
    let decimals = printed.split_once('.').map_or(0, |(_, f)| f.len());
    assert_eq!(
        printed,
        half_up(csv, decimals),
        "{context}: the prose prints {printed}, the csv gives {csv}"
    );
}

/// One `csv:` block of a sweep's output: a header line and its rows.
struct Csv {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Csv {
    /// The block of `results/scale-0.1/<bin>.txt` whose header starts
    /// with `first_columns`.
    fn load(bin: &str, first_columns: &str) -> Csv {
        let text = read(&format!("results/scale-0.1/{bin}.txt"));
        let lines: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("csv:"))
            .collect();
        let at = lines
            .iter()
            .position(|l| l.starts_with(first_columns))
            .unwrap_or_else(|| panic!("{bin}.txt has no csv header {first_columns:?}"));
        let split = |l: &str| l.split(',').map(str::to_owned).collect::<Vec<_>>();
        let header = split(lines[at]);
        // The block ends where the next header (same first column) starts.
        let next_header = format!("{},", header[0]);
        let rows = lines[at + 1..]
            .iter()
            .take_while(|l| !l.starts_with(&next_header))
            .map(|l| split(l))
            .collect();
        Csv { header, rows }
    }

    /// The one row whose `key` columns hold these values.
    fn row(&self, key: &[(&str, &str)]) -> Row<'_> {
        let col = |name: &str| self.column(name);
        let mut hits = self
            .rows
            .iter()
            .filter(|r| key.iter().all(|&(name, v)| r[col(name)] == v));
        let row = hits.next().unwrap_or_else(|| panic!("no csv row {key:?}"));
        assert!(hits.next().is_none(), "more than one csv row {key:?}");
        Row { csv: self, row }
    }

    fn column(&self, name: &str) -> usize {
        let at = self.header.iter().position(|h| h == name);
        at.unwrap_or_else(|| panic!("no csv column {name:?}"))
    }
}

struct Row<'a> {
    csv: &'a Csv,
    row: &'a [String],
}

impl<'a> Row<'a> {
    fn get(&self, name: &str) -> f64 {
        let text = self.text(name);
        text.parse()
            .unwrap_or_else(|e| panic!("csv {name} = {text:?}: {e}"))
    }

    fn text(&self, name: &str) -> &'a str {
        &self.row[self.csv.column(name)]
    }
}

/// A table label (`drifting-Zipf`, `flash-crowd`) as its csv key.
fn csv_key(label: &str) -> String {
    label.to_lowercase().replace('-', "_")
}

#[test]
fn admission_table_matches_ext_admission() {
    let csv = Csv::load("ext_admission", "scenario,gate,");
    let rows = table_rows(&read("EXPERIMENTS.md"), "ext_admission");
    assert_eq!(rows.len(), 8, "four scenarios under two gates");
    for cells in &rows {
        let [scenario, gate, hit, written, erases] = &cells[..] else {
            panic!("admission row {cells:?} does not have five cells");
        };
        let (scenario, gate) = (csv_key(scenario), csv_key(&gate.replace(' ', "_")));
        let row = csv.row(&[("scenario", &scenario), ("gate", &gate)]);
        let context = format!("admission {scenario} / {gate}");
        check_cell(&context, hit, &[100.0 * row.get("hit_ratio")]);
        check_cell(&context, written, &[row.get("ssd_bytes_written") / 1e9]);
        check_cell(&context, erases, &[row.get("block_erases")]);
    }
}

#[test]
fn serving_table_matches_ext_serving() {
    let csv = Csv::load("ext_serving", "scenario,arm,load_factor,");
    let rows = table_rows(&read("EXPERIMENTS.md"), "ext_serving");
    assert_eq!(rows.len(), 6, "three load points under two arms");
    for cells in &rows {
        let [point, arm, goodput, p99, shed, miss] = &cells[..] else {
            panic!("serving row {cells:?} does not have six cells");
        };
        let (scenario, load) = point.split_once(' ').expect("\"scenario load×\"");
        let load = numbers(load).pop().expect("a load factor");
        let load = format!("{:.2}", load.parse::<f64>().unwrap());
        let arm = match arm.as_str() {
            "naive" => "naive_fifo",
            "batched" => "batched_shed",
            other => panic!("unknown serving arm {other:?}"),
        };
        let scenario = csv_key(scenario);
        let row = csv.row(&[
            ("scenario", &scenario),
            ("arm", arm),
            ("load_factor", &load),
        ]);
        let context = format!("serving {scenario} {load} / {arm}");
        check_cell(&context, goodput, &[row.get("goodput_qps")]);
        check_cell(&context, p99, &[row.get("p99_ms")]);
        let arrivals = row.get("answered") + row.get("shed");
        check_cell(&context, shed, &[row.get("shed") * 100.0 / arrivals]);
        let misses = row.get("deadline_misses") * 100.0 / row.get("answered");
        check_cell(&context, miss, &[misses]);
    }
}

#[test]
fn serving_prose_matches_ext_serving() {
    let sweep = Csv::load("ext_serving", "scenario,arm,load_factor,");
    let knees = Csv::load("ext_serving", "scenario,arm,knee_qps");
    let experiments = read("EXPERIMENTS.md");
    let prose = section(&experiments, "ext_serving");
    let words = prose.split_whitespace().collect::<Vec<_>>().join(" ");
    let words = words.replace("**", "");
    // The numbers of the clause from `marker` to the next `)`.
    let clause = |marker: &str| {
        let at = words
            .find(marker)
            .unwrap_or_else(|| panic!("no {marker:?}"));
        let rest = &words[at + marker.len()..];
        numbers(&rest[..rest.find(')').expect("a closing parenthesis")])
    };
    let column = |name: &str| sweep.column(name);
    let value = |text: &str| -> f64 { text.parse().unwrap() };
    let batched: Vec<&Vec<String>> = sweep
        .rows
        .iter()
        .filter(|r| r[column("arm")] == "batched_shed")
        .collect();

    // The load grid and the arrivals behind every point.
    let mut factors: Vec<&str> = sweep
        .rows
        .iter()
        .map(|r| r[column("load_factor")].as_str())
        .collect();
    factors.sort_by(|a, b| value(a).total_cmp(&value(b)));
    factors.dedup();
    assert_eq!(factors.len(), 6, "{factors:?}");
    let grid = clause("at six offered loads (");
    check_printed("load grid", &grid[0], factors[0]);
    check_printed("load grid", &grid[1], factors[5]);
    let per_point = clause("CBLRU, ");
    for r in &sweep.rows {
        let arrivals = value(&r[column("answered")]) + value(&r[column("shed")]);
        check_cell("arrivals per point", &per_point[0], &[arrivals]);
    }

    // The calibration line: service, tier capacity, and the deadline as
    // a multiple of one replica's per-query cost (2 replicas / capacity).
    let text = read("results/scale-0.1/ext_serving.txt");
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix("calibration: "))
        .expect("a calibration line");
    let fields: Vec<&str> = line.split(' ').collect();
    let calibration = |name: &str| {
        let at = fields.iter().position(|f| *f == name);
        fields[at.unwrap_or_else(|| panic!("no calibration {name}")) + 1]
    };
    let service = calibration("mean_service_ms");
    let capacity = calibration("naive_capacity_qps");
    let deadline = calibration("deadline_ms");
    let quoted = clause("What its committed output shows (calibrated mean service ");
    assert_eq!(quoted.len(), 4, "{quoted:?}");
    check_printed("calibrated service", &quoted[0], service);
    check_printed("naive capacity", &quoted[1], capacity);
    let multiple = value(deadline) * value(capacity) / 2e3;
    check_cell("deadline multiple", &quoted[2], &[multiple]);
    check_printed("deadline", &quoted[3], deadline);

    // The poisson knee, shared by both arms.
    let knee = |arm| knees.row(&[("scenario", "poisson"), ("arm", arm)]);
    let knee_text = knee("naive_fifo").text("knee_qps");
    assert_eq!(knee_text, knee("batched_shed").text("knee_qps"));
    let quoted = clause("Both arms share the knee up to the 0.97-efficiency definition (");
    check_printed("poisson knee", &quoted[0], knee_text);

    // The batched arm's batch size from its lightest to its heaviest point.
    let mut batches: Vec<&str> = batched
        .iter()
        .map(|r| r[column("mean_batch")].as_str())
        .collect();
    batches.sort_by(|a, b| value(a).total_cmp(&value(b)));
    let quoted = clause("(mean batch ");
    assert_eq!(quoted.len(), 2, "{quoted:?}");
    check_printed("smallest mean batch", &quoted[0], batches[0]);
    check_printed("largest mean batch", &quoted[1], batches[batches.len() - 1]);

    // The batched arm's worst p99, in ms and as a multiple of the deadline.
    let worst = batched
        .iter()
        .map(|r| r[column("p99_ms")].as_str())
        .max_by(|a, b| value(a).total_cmp(&value(b)))
        .expect("batched rows");
    let quoted = clause("its p99 stays under ");
    assert_eq!(quoted.len(), 2, "{quoted:?}");
    assert!(value(worst) < value(&quoted[0]), "p99 {worst} ms");
    check_printed("worst p99", &quoted[0], worst);
    let ratio = value(worst) / value(deadline);
    check_cell("worst p99 / deadline", &quoted[1], &[ratio]);

    // From 1.0x on, the batched arm out-serves the naive one everywhere.
    let claim = "and from 1.0× on its goodput beats the naive arm's at every point";
    assert!(words.contains(claim), "no {claim:?}");
    for r in &batched {
        let load = &r[column("load_factor")];
        if value(load) < 1.0 {
            continue;
        }
        let scenario = &r[column("scenario")];
        let naive = sweep.row(&[
            ("scenario", scenario),
            ("arm", "naive_fifo"),
            ("load_factor", load),
        ]);
        let goodput = value(&r[column("goodput_qps")]);
        assert!(
            goodput > naive.get("goodput_qps"),
            "{scenario} {load}: batched {goodput} qps"
        );
    }
}

#[test]
fn ingest_table_matches_ext_ingest() {
    let csv = Csv::load("ext_ingest", "arm,ops_per_100_queries,");
    let rows = table_rows(&read("EXPERIMENTS.md"), "ext_ingest");
    assert_eq!(rows.len(), 3, "three mutation mixes");
    for cells in &rows {
        let [mix, compactions, list_hit, hit, written] = &cells[..] else {
            panic!("ingest row {cells:?} does not have five cells");
        };
        let coop = csv.row(&[("arm", "cooperative"), ("ops_per_100_queries", mix)]);
        let naive = csv.row(&[("arm", "invalidate_all"), ("ops_per_100_queries", mix)]);
        let context = format!("ingest mix {mix}");
        assert_eq!(coop.get("compactions"), naive.get("compactions"));
        check_cell(&context, compactions, &[coop.get("compactions")]);
        let lists = |r: &Row| 100.0 * r.get("list_ssd_hit_ratio");
        let mut want = vec![lists(&coop), lists(&naive)];
        // A gated row also prints the relative gain in parentheses.
        if list_hit.contains("(+") {
            want.push(100.0 * (lists(&coop) / lists(&naive) - 1.0));
        }
        check_cell(&context, list_hit, &want);
        let overall = |r: &Row| 100.0 * r.get("hit_ratio");
        check_cell(&context, hit, &[overall(&coop), overall(&naive)]);
        let mb = |r: &Row| r.get("ssd_bytes_written") / 1e6;
        check_cell(&context, written, &[mb(&coop), mb(&naive)]);
    }
}

#[test]
fn ingest_prose_matches_ext_ingest() {
    let csv = Csv::load("ext_ingest", "arm,ops_per_100_queries,");
    let experiments = read("EXPERIMENTS.md");
    let prose = section(&experiments, "ext_ingest");
    let words = prose.split_whitespace().collect::<Vec<_>>().join(" ");
    // `marker` up to the parenthesis that closes the figures it quotes.
    let clause = |marker: &str| {
        let at = words
            .find(marker)
            .unwrap_or_else(|| panic!("no {marker:?}"));
        let rest = &words[at..];
        rest[..rest.find(')').expect("a closing parenthesis")].to_owned()
    };
    let row = |arm, mix| csv.row(&[("arm", arm), ("ops_per_100_queries", mix)]);
    let hit = |arm, mix| 100.0 * row(arm, mix).get("hit_ratio");
    let ms = |arm, mix| row(arm, mix).get("mean_response_ns") / 1e6;
    let (coop, naive) = ("cooperative", "invalidate_all");
    // The sweep starts at the zero-ingest row, which both arms share.
    let start = hit("zero_ingest_live", "0");
    let want = [start, hit(naive, "100"), start, hit(coop, "100")];
    check_cell("ingest hit ratio", &clause("overall hit ratio"), &want);
    // Ends with the two mixes the figures are read at.
    let want = [
        ms(coop, "5"),
        ms(coop, "100"),
        ms(naive, "5"),
        ms(naive, "100"),
        5.0,
        100.0,
    ];
    check_cell("ingest response", &clause("Mean response grows"), &want);
}

#[test]
fn admission_prose_matches_ext_admission() {
    let csv = Csv::load("ext_admission", "scenario,gate,");
    let experiments = read("EXPERIMENTS.md");
    let prose = section(&experiments, "ext_admission");
    let words = prose.split_whitespace().collect::<Vec<_>>().join(" ");
    let words = words.replace("**", "");
    let row = |scenario, gate| csv.row(&[("scenario", scenario), ("gate", gate)]);
    // The sketch gate's cut in `column` against static CBLRU, in percent,
    // and its hit-ratio gain in points.
    let cut = |scenario, column| {
        let sketch = row(scenario, "sketch_cblru").get(column);
        100.0 * (1.0 - sketch / row(scenario, "static_cblru").get(column))
    };
    let gain = |scenario| {
        let hit = |gate| row(scenario, gate).get("hit_ratio");
        100.0 * (hit("sketch_cblru") - hit("static_cblru"))
    };

    let marker = "largest on drifting-Zipf (";
    let at = words
        .find(marker)
        .unwrap_or_else(|| panic!("no {marker:?}"));
    let clause = &words[at + marker.len()..];
    let clause = &clause[..clause.find(')').expect("a closing parenthesis")];
    let shape = clause.replace(|c: char| c.is_ascii_digit() || c == '.', "");
    assert_eq!(shape, "− % bytes, − % erases, + pt hit ratio", "{clause:?}");
    let d = "drifting_zipf";
    let want = [cut(d, "ssd_bytes_written"), cut(d, "block_erases"), gain(d)];
    check_cell("admission drifting-Zipf", clause, &want);

    let claim = "roughly halves SSD bytes written and block erasures on every \
                 scenario at an equal-or-better hit ratio";
    assert!(words.contains(claim), "no {claim:?}");
    let scenario_column = csv.column("scenario");
    let gate_column = csv.column("gate");
    let sketched: Vec<&str> = csv
        .rows
        .iter()
        .filter(|r| r[gate_column] == "sketch_cblru")
        .map(|r| r[scenario_column].as_str())
        .collect();
    assert_eq!(sketched.len(), 4, "four scenarios");
    for scenario in sketched {
        for column in ["ssd_bytes_written", "block_erases"] {
            let cut = cut(scenario, column);
            let halved = (40.0..=70.0).contains(&cut);
            assert!(
                halved,
                "{scenario}: the sketch gate cuts {column} by {cut:.1} %"
            );
        }
        let gain = gain(scenario);
        assert!(
            gain >= 0.0,
            "{scenario}: the sketch gate's hit ratio moves {gain:.2} pt"
        );
    }
}

/// The first number printed after `marker` in `text`.
fn figure_after(text: &str, marker: &str) -> String {
    let (_, rest) = text
        .split_once(marker)
        .unwrap_or_else(|| panic!("no {marker:?} in {text:?}"));
    numbers(rest).swap_remove(0)
}

#[test]
fn queue_depth_prose_matches_ext_queue_depth() {
    let csv = Csv::load("ext_queue_depth", "workload,depth,");
    let experiments = read("EXPERIMENTS.md");
    let prose = section(&experiments, "ext_queue_depth");
    let words = prose.split_whitespace().collect::<Vec<_>>().join(" ");
    assert!(words.contains("depths 8 and 16 repeat the depth-4 row exactly"));
    let depth_column = csv.column("depth");
    for workload in ["uncached_hdd", "hybrid_cbslru"] {
        let at = |depth: &str| {
            let mut row = csv
                .row(&[("workload", workload), ("depth", depth)])
                .row
                .to_vec();
            row.remove(depth_column);
            row
        };
        for deeper in ["8", "16"] {
            assert_eq!(
                at(deeper),
                at("4"),
                "{workload}: depth {deeper} differs from 4"
            );
        }
    }
    let bullet = |name: &str| {
        let start = prose
            .find(&format!("* **{name}"))
            .unwrap_or_else(|| panic!("no {name:?} bullet"));
        let text = &prose[start + 1..];
        &text[..text.find("\n* ").unwrap_or(text.len())]
    };
    let uncached = csv.row(&[("workload", "uncached_hdd"), ("depth", "4")]);
    let text = bullet("Seek-bound workload");
    let ratio = uncached.get("response_ratio_vs_depth1");
    check_cell("uncached ratio", &figure_after(text, "≈ "), &[ratio]);
    let gain = figure_after(text, "improves ~");
    check_cell("uncached gain", &gain, &[100.0 * (ratio - 1.0)]);
    let hybrid = csv.row(&[("workload", "hybrid_cbslru"), ("depth", "4")]);
    let text = bullet("Hybrid cached workload");
    let ratio = hybrid.get("response_ratio_vs_depth1");
    check_cell("hybrid ratio", &figure_after(text, "≈ "), &[ratio]);
    let cost = figure_after(text, "costs ~");
    check_cell("hybrid cost", &cost, &[100.0 * (1.0 - ratio)]);
    let occupancy = figure_after(text, "mean occupancy ~");
    check_cell(
        "hybrid occupancy",
        &occupancy,
        &[hybrid.get("index_mean_occupancy")],
    );
}

/// The finding cell of EXPERIMENTS.md's ablation-table row for `bin`.
fn ablation_finding<'a>(experiments: &'a str, bin: &str) -> &'a str {
    let marker = format!("| `{bin}` | ");
    let row = experiments
        .lines()
        .find_map(|l| l.strip_prefix(&marker))
        .unwrap_or_else(|| panic!("no ablation row for {bin}"));
    row.trim_end_matches('|').trim()
}

/// The column `name` of every row of `csv`, in the order the sweep prints.
fn column_values(csv: &Csv, name: &str) -> Vec<f64> {
    let at = csv.column(name);
    csv.rows.iter().map(|r| r[at].parse().unwrap()).collect()
}

#[test]
fn ablations_table_matches_ablation_bins() {
    let experiments = read("EXPERIMENTS.md");
    let finding = |bin| ablation_finding(&experiments, bin);
    let rises = |xs: &[f64]| xs.windows(2).all(|w| w[0] < w[1]);
    let falls = |xs: &[f64]| xs.windows(2).all(|w| w[0] > w[1]);

    // RB assembly against per-entry writes: the two ratios and both WAs.
    let csv = Csv::load("ablation_writebuf", "placement,");
    let entry = csv.row(&[("placement", "per-entry (LRU)")]);
    let rb = csv.row(&[("placement", "RB-assembled (CBLRU)")]);
    let text = finding("ablation_writebuf");
    let (figures, _) = text.split_once(" — ").expect("a finding before the dash");
    let ratio = |column| entry.get(column) / rb.get(column);
    let want = [
        ratio("host_page_writes"),
        ratio("erases"),
        entry.get("WA"),
        rb.get("WA"),
    ];
    check_cell("ablation_writebuf", figures, &want);

    // The window: hit ratio climbs over the whole sweep, erases bottom out
    // at one W and rise again at the last.
    let csv = Csv::load("ablation_window", "W,");
    let hits = column_values(&csv, "hit_%");
    let erases = column_values(&csv, "erases");
    let windows = column_values(&csv, "W");
    assert!(rises(&hits), "hit ratio by W: {hits:?}");
    let lowest = (0..erases.len())
        .min_by(|&a, &b| erases[a].total_cmp(&erases[b]))
        .expect("window rows");
    let last = erases.len() - 1;
    assert!(falls(&erases[..=lowest]), "erases by W: {erases:?}");
    assert!(erases[last] > erases[lowest], "erases by W: {erases:?}");
    let want = [
        hits[0],
        hits[last],
        windows[lowest],
        erases[0],
        erases[lowest],
        windows[last],
        erases[last],
    ];
    check_cell("ablation_window", finding("ablation_window"), &want);

    // TEV 2 against admitting everything, and the thresholds past it.
    let csv = Csv::load("ablation_tev", "TEV,");
    let all = csv.row(&[("TEV", "0.00")]);
    let two = csv.row(&[("TEV", "2.00")]);
    let cut = 100.0 * (1.0 - two.get("ssd_writes") / all.get("ssd_writes"));
    let want = [
        two.get("TEV"),
        cut,
        all.get("ssd_writes"),
        two.get("ssd_writes"),
        all.get("erases"),
        two.get("erases"),
        all.get("hit_%"),
        two.get("hit_%"),
    ];
    let text = finding("ablation_tev");
    let (figures, _) = text
        .split_once("; overshooting")
        .expect("an overshoot clause");
    check_cell("ablation_tev", figures, &want);
    let (tevs, hits) = (column_values(&csv, "TEV"), column_values(&csv, "hit_%"));
    assert!(
        two.get("hit_%") > all.get("hit_%"),
        "TEV 2 does not raise hit ratio"
    );
    for (tev, hit) in tevs.iter().zip(&hits) {
        if *tev > 2.0 {
            assert!(*hit < all.get("hit_%"), "TEV {tev} does not starve L2");
        }
    }

    // The static share: monotone in all three columns up to the last row.
    let csv = Csv::load("ablation_static", "static,");
    assert!(rises(&column_values(&csv, "hit_%")), "static hit ratio");
    assert!(falls(&column_values(&csv, "ssd_writes")), "static writes");
    assert!(falls(&column_values(&csv, "erases")), "static erases");
    let top = &csv.rows.last().expect("static rows")[csv.column("static")];
    let top: f64 = top.trim_end_matches('%').parse().unwrap();
    let text = finding("ablation_static");
    let claim = "monotonically cuts writes/erases and raises hit ratio up to ";
    check_cell("ablation_static", &figure_after(text, claim), &[top]);

    // Inclusive against hybrid: twice the writes and twice the erases, to
    // a tenth.
    let csv = Csv::load("ablation_scheme", "scheme,");
    let inclusive = csv.row(&[("scheme", "Inclusive")]);
    let hybrid = csv.row(&[("scheme", "Hybrid")]);
    let text = finding("ablation_scheme");
    assert!(text.starts_with("Inclusive doubles SSD writes and erases;"));
    for column in ["ssd_writes", "erases"] {
        let times = inclusive.get(column) / hybrid.get(column);
        check_cell("ablation_scheme", "2.0", &[times]);
    }

    // The TTL bullet: the hit ratio without expiry and at a 1 s TTL.
    let csv = Csv::load("ext_dynamic", "TTL,");
    let words = experiments.split_whitespace().collect::<Vec<_>>().join(" ");
    let marker = "at 1 s the hit ratio collapses ";
    let (_, rest) = words.split_once(marker).expect("the TTL bullet");
    let want = [
        csv.row(&[("TTL", "static")]).get("hit_%"),
        csv.row(&[("TTL", "1s")]).get("hit_%"),
    ];
    check_cell("ext_dynamic", &rest[..rest.find('%').unwrap()], &want);
}

#[test]
fn numbers_reads_printed_figures() {
    assert_eq!(numbers("17 189"), ["17189"]);
    assert_eq!(numbers("5.24 % → 5.32 % (noise)"), ["5.24", "5.32"]);
    assert_eq!(
        numbers("**5.08 % → 4.09 % (+24 %)**"),
        ["5.08", "4.09", "24"]
    );
    assert_eq!(numbers("flash-crowd 1.2×"), ["1.2"]);
    assert_eq!(numbers("3 568"), ["3568"]);
    assert!(prints_as("36.1", 0.361_458_364_863_637_75 * 100.0));
    assert!(!prints_as("36.2", 0.361_458_364_863_637_75 * 100.0));
    assert_eq!(half_up("106.55", 1), "106.6");
    assert_eq!(half_up("6.48", 1), "6.5");
    assert_eq!(half_up("1.04", 1), "1.0");
    assert_eq!(half_up("167.829", 0), "168");
    assert_eq!(half_up("2000", 0), "2000");
    assert_eq!(half_up("0.4", 2), "0.40");
}
