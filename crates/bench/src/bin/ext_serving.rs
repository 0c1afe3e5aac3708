//! Extension — serving load sweep (DESIGN.md §13; its stdout is committed
//! as `results/scale-0.1/ext_serving.txt`): seeded open-loop arrival
//! streams at six offered loads (0.4–1.5× the naive tier capacity
//! calibrated in-run) across three scenarios, each served by a 2-shard ×
//! 2-replica tier under two front-ends — naive FIFO (one query per
//! dispatch, no shedding) and batching + deadline shedding.
//! Percentiles are exact order statistics on simulated times.
//! `serving_equivalence` pins the closed-loop / open-loop-reference
//! identities and a small-scale witness of the batched arm's win past the
//! naive knee.

use bench::{cache_config, print_table};
use engine::{detect_knee, EngineConfig, LoadPoint, OpenLoopConfig, SearchCluster, ServingSim};
use hybridcache::PolicyKind;
use simclock::SimDuration;
use workload::{Arrival, ArrivalKind, ArrivalProcess, QueryLog};

// The pinned serving workload: a 2-replica tier of 2-shard clusters,
// swept over offered loads expressed as multiples of the naive
// (batch-1) aggregate capacity measured in-run.
const SEED: u64 = 42;
const SHARDS: usize = 2;
const REPLICAS: usize = 2;
const DOCS: u64 = 80_000;
const QUERIES: usize = 2_000;
const MEM_BYTES: u64 = 2 << 20;
const SSD_BYTES: u64 = 20 << 20;
const OVERHEAD: SimDuration = SimDuration::from_micros(500);
const BATCH_MAX: usize = 16;
const LOAD_FACTORS: [f64; 6] = [0.4, 0.7, 0.9, 1.0, 1.2, 1.5];
const SCENARIOS: [&str; 3] = ["poisson", "bursty", "flash_crowd"];

fn cfg() -> EngineConfig {
    EngineConfig::cached(
        DOCS,
        cache_config(MEM_BYTES, SSD_BYTES, PolicyKind::Cblru),
        SEED,
    )
}

/// Arrival stream for one (scenario, rate) cell. Every scenario is
/// parameterized so its *mean* rate is `rate_qps`; the shapes differ
/// (steady Poisson, 2-state MMPP bursts, a flash crowd a third of the
/// way into the horizon).
fn arrivals(scenario: &str, rate_qps: f64, log: &QueryLog) -> Vec<Arrival> {
    let horizon_secs = QUERIES as f64 / rate_qps;
    let kind = match scenario {
        "poisson" => ArrivalKind::Poisson { rate_qps },
        "bursty" => ArrivalKind::Bursty {
            base_qps: 0.5 * rate_qps,
            burst_qps: 1.5 * rate_qps,
            mean_dwell_secs: (horizon_secs / 20.0).max(0.05),
        },
        "flash_crowd" => ArrivalKind::FlashCrowd {
            base_qps: 0.8 * rate_qps,
            spike_factor: 4.0,
            spike_start_secs: horizon_secs / 3.0,
            spike_secs: horizon_secs / 6.0,
        },
        other => unreachable!("unknown serving scenario {other}"),
    };
    ArrivalProcess::new(log.clone(), kind).generate(QUERIES)
}

fn ms(d: SimDuration) -> String {
    format!("{:.3}", d.as_millis_f64())
}

fn main() {
    // Calibrate: the closed loop's mean response is the per-query
    // service cost s, so one replica at batch 1 absorbs 1/(s + o) qps
    // and the tier absorbs REPLICAS times that.
    let mut closed_loop = SearchCluster::new(cfg(), SHARDS);
    let log = closed_loop.log().clone();
    let mean_service = closed_loop.run(500).mean_response;
    let naive_capacity = REPLICAS as f64 / (mean_service + OVERHEAD).as_secs_f64();
    let deadline = (mean_service + OVERHEAD) * 6;
    println!(
        "calibration: mean_service_ms {} naive_capacity_qps {naive_capacity:.2} deadline_ms {}\n",
        ms(mean_service),
        ms(deadline)
    );

    let arms = [
        ("naive_fifo", OpenLoopConfig::naive_fifo(deadline, OVERHEAD)),
        (
            "batched_shed",
            OpenLoopConfig::batched(deadline, OVERHEAD, BATCH_MAX),
        ),
    ];

    let mut rows = Vec::new();
    let mut knees = Vec::new();
    for scenario in SCENARIOS {
        for (arm, oc) in arms {
            let mut curve = Vec::new();
            for factor in LOAD_FACTORS {
                let arr = arrivals(scenario, factor * naive_capacity, &log);
                let r = ServingSim::new(cfg(), SHARDS, REPLICAS, oc).run(&arr);
                curve.push(LoadPoint {
                    offered_qps: r.offered_qps,
                    goodput_qps: r.goodput_qps,
                });
                rows.push(vec![
                    scenario.to_string(),
                    arm.to_string(),
                    format!("{factor:.2}"),
                    format!("{:.2}", r.offered_qps),
                    format!("{:.2}", r.goodput_qps),
                    r.answered.to_string(),
                    r.shed.to_string(),
                    r.deadline_misses.to_string(),
                    ms(r.mean_response),
                    ms(r.p50_response),
                    ms(r.p99_response),
                    ms(r.p999_response),
                    ms(r.max_response),
                    ms(r.mean_queue_wait),
                    format!("{:.2}", r.mean_batch),
                    r.batches.to_string(),
                ]);
            }
            knees.push(vec![
                scenario.to_string(),
                arm.to_string(),
                format!("{:.2}", detect_knee(&curve)),
            ]);
        }
    }
    print_table(
        "Extension: serving load sweep (2 shards x 2 replicas, 80k docs, 2000 arrivals per point)",
        &[
            "scenario",
            "arm",
            "load_factor",
            "offered_qps",
            "goodput_qps",
            "answered",
            "shed",
            "deadline_misses",
            "mean_ms",
            "p50_ms",
            "p99_ms",
            "p999_ms",
            "max_ms",
            "mean_queue_wait_ms",
            "mean_batch",
            "batches",
        ],
        &rows,
    );
    print_table(
        "Extension: serving saturation knees (highest offered load served at >= 0.97 efficiency)",
        &["scenario", "arm", "knee_qps"],
        &knees,
    );
    println!(
        "reading: both arms share the knee — it is a property of tier capacity,\n\
         not the front-end — but past it the naive queue grows without bound\n\
         (p99 climbs into seconds, goodput collapses as every answer arrives\n\
         dead) while batching amortizes dispatch overhead exactly when the\n\
         queue pressures it and shedding keeps p99 bounded near the deadline."
    );
}
