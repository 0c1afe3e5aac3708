//! Extension — admission sweep (DESIGN.md §12; its stdout is committed as
//! `results/scale-0.1/ext_admission.txt`): a scenario × gate matrix — the
//! stationary log plus the three adversarial streams (drifting-Zipf,
//! topic-churn, scan-heavy) against the static paper gate (CBLRU and seeded
//! CBSLRU) and the sketch-based admission tier (CBLRU + TinyLFU filter,
//! ghost cache, online TEV/window controller). Here the figures are
//! *supposed* to move: the sketch gate writes fewer SSD bytes and erases
//! fewer flash blocks at an equal-or-better hit ratio
//! (`admission_equivalence` pins small-scale witnesses of the same
//! inequalities and the `Static` arm's inertness).

use bench::{cache_config, print_table};
use engine::{EngineConfig, SearchEngine};
use hybridcache::{AdmissionConfig, PolicyKind};
use workload::{DriftingZipfLog, Query, QueryLog, ScanHeavyLog, TopicChurnLog};

// The pinned workload: the corpus and budgets of the queue-depth sweep,
// driven by each scenario's 30 k-query stream.
const DOCS: u64 = 400_000;
const QUERIES: usize = 30_000;
const SEED: u64 = 42;
const MEM_BYTES: u64 = 16 << 20;
const SSD_BYTES: u64 = 160 << 20;

const SCENARIOS: [&str; 4] = ["stationary", "drifting_zipf", "topic_churn", "scan_heavy"];

/// Generate one scenario's query stream off the engine's own log.
fn stream(log: &QueryLog, scenario: &str, n: usize) -> Vec<Query> {
    match scenario {
        "stationary" => log.stream(n),
        // Six phases: the Zipf head flattens to α=0.4 on odd phases while
        // the rank→identity mapping rotates by a prime each phase.
        "drifting_zipf" => DriftingZipfLog::new(log.clone(), n as u64 / 6, 0.4, 7_919)
            .stream_iter(n)
            .collect(),
        // Ten abrupt topic changeovers, zero cross-phase reuse.
        "topic_churn" => TopicChurnLog::new(log.clone(), n as u64 / 10)
            .stream_iter(n)
            .collect(),
        // A third of the stream is never-repeating scan queries.
        "scan_heavy" => ScanHeavyLog::new(log.clone(), 4, 2)
            .stream_iter(n)
            .collect(),
        other => unreachable!("unknown scenario {other}"),
    }
}

fn main() {
    let cbslru = PolicyKind::Cbslru {
        static_fraction: 0.3,
    };
    let (fixed, sketch) = (
        AdmissionConfig::static_default(),
        AdmissionConfig::sketch_default(),
    );
    let gates = [
        ("static_cblru", PolicyKind::Cblru, fixed),
        ("static_cbslru", cbslru, fixed),
        ("sketch_cblru", PolicyKind::Cblru, sketch),
    ];
    let engine = |policy, admission| {
        let mut cache = cache_config(MEM_BYTES, SSD_BYTES, policy);
        cache.admission = admission;
        SearchEngine::new(EngineConfig::cached(DOCS, cache, SEED))
    };
    // One throwaway engine donates the log all scenario streams share.
    let log = engine(PolicyKind::Cblru, fixed).log().clone();

    let mut rows = Vec::new();
    for scenario in SCENARIOS {
        let queries = stream(&log, scenario, QUERIES);
        for (gate, policy, admission) in gates {
            let mut e = engine(policy, admission);
            e.seed_static_from_log(queries.len()); // a no-op without a static partition
            let r = e.run_queries(&queries);
            let cache = r.cache.as_ref().expect("cached run");
            let m = e.cache().expect("cached config");
            let s = m.admission().stats();
            rows.push(vec![
                scenario.to_string(),
                gate.to_string(),
                format!("{:.17}", r.hit_ratio()),
                r.mean_response.as_nanos().to_string(),
                cache.ssd_bytes_written.to_string(),
                r.flash.map_or(0, |f| f.block_erases).to_string(),
                (cache.results.ssd_admissions + cache.lists.ssd_admissions).to_string(),
                (cache.results.ssd_rejections + cache.lists.ssd_rejections).to_string(),
                s.list_filtered.to_string(),
                s.result_filtered.to_string(),
                (s.list_fast_tracks + s.result_fast_tracks).to_string(),
                s.epochs.to_string(),
                s.tev_raises.to_string(),
                s.tev_cuts.to_string(),
                s.window_shrinks.to_string(),
                s.window_grows.to_string(),
                format!("{:.6}", m.admission().tev()),
            ]);
        }
    }
    print_table(
        "Extension: SSD admission gates (16 MiB + 160 MiB, 400k docs, 30k queries per scenario)",
        &[
            "scenario",
            "gate",
            "hit_ratio",
            "mean_response_ns",
            "ssd_bytes_written",
            "block_erases",
            "ssd_admissions",
            "ssd_rejections",
            "sketch_list_filtered",
            "sketch_result_filtered",
            "ghost_fast_tracks",
            "controller_epochs",
            "tev_raises",
            "tev_cuts",
            "window_shrinks",
            "window_grows",
            "final_tev",
        ],
        &rows,
    );
    println!(
        "reading: the sketch gate roughly halves SSD bytes written and block\n\
         erasures on every scenario at an equal-or-better hit ratio than the\n\
         static gate on the same base policy — the doorkeeper keeps one-hit\n\
         wonders off the flash, the ghost list fast-tracks the keys it wrongly\n\
         rejected, and the controller tightens TEV under write pressure."
    );
}
