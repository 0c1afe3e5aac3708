//! Contracts of the open-loop serving front-end.
//!
//! Two things must hold or the latency-vs-load curves are fiction:
//! the whole serving schedule is a deterministic function of the seed
//! (bit-reproducible across runs), and the open loop at its reference
//! configuration (infinite deadline, batch 1, no shed, zero overhead)
//! produces per-query service times bit-identical to the closed loop,
//! [`SearchCluster::run_queries`]. On top of those,
//! conservation properties: offered load bounds goodput, every arrival
//! gets exactly one outcome, and below the saturation knee a generous
//! deadline sheds nothing.

use engine::{
    EngineConfig, OpenLoopConfig, Outcome, SearchCluster, ServingReport, ServingSim, ShedPolicy,
};
use hybridcache::{HybridConfig, PolicyKind};
use proptest::prelude::*;
use simclock::SimDuration;
use workload::{Arrival, ArrivalKind, ArrivalProcess};

const DOCS: u64 = 20_000;
const SHARDS: usize = 2;

fn cfg(seed: u64) -> EngineConfig {
    EngineConfig::cached(
        DOCS,
        HybridConfig::paper(1 << 20, 8 << 20, PolicyKind::Cblru),
        seed,
    )
}

/// Mean closed-loop response of this configuration — the capacity
/// anchor the load factors below are expressed against.
fn mean_service(seed: u64) -> SimDuration {
    let mut c = SearchCluster::new(cfg(seed), SHARDS);
    c.run(300).mean_response
}

fn arrivals(seed: u64, rate_qps: f64, n: usize) -> Vec<Arrival> {
    let c = SearchCluster::new(cfg(seed), SHARDS);
    ArrivalProcess::new(c.log().clone(), ArrivalKind::Poisson { rate_qps }).generate(n)
}

fn run_open(
    seed: u64,
    replicas: usize,
    oc: OpenLoopConfig,
    arr: &[Arrival],
) -> (ServingReport, Vec<engine::QueryRecord>) {
    let mut sim = ServingSim::new(cfg(seed), SHARDS, replicas, oc);
    let report = sim.run(arr);
    assert!(
        sim.validation_report().is_clean(),
        "serving run left structural violations:\n{}",
        sim.validation_report().summary()
    );
    (report, sim.records().to_vec())
}

/// A loaded configuration exercising every front-end feature at once:
/// tight deadlines, batching and shedding.
fn full_featured(mean: SimDuration) -> OpenLoopConfig {
    OpenLoopConfig {
        deadline: Some(mean * 6),
        batch_max: 8,
        shed: ShedPolicy::Drop,
        dispatch_overhead: SimDuration::from_micros(200),
    }
}

#[test]
fn seeded_serving_runs_are_bit_reproducible() {
    invariant::force_enable();
    let mean = mean_service(11);
    let rate = 1.2 / mean.as_secs_f64(); // 20% past naive capacity
    let arr = arrivals(11, rate, 600);
    let oc = full_featured(mean);
    let (r1, rec1) = run_open(11, 2, oc, &arr);
    let (r2, rec2) = run_open(11, 2, oc, &arr);
    assert_eq!(r1, r2, "same seed, same stream, same report");
    assert_eq!(rec1, rec2, "same seed, same stream, same records");
}

#[test]
fn reference_open_loop_services_match_closed_loop_responses() {
    let arr = arrivals(19, 60.0, 400);
    let (_, records) = run_open(19, 1, OpenLoopConfig::reference(), &arr);
    let mut closed = SearchCluster::new(cfg(19), SHARDS);
    for (i, (rec, a)) in records.iter().zip(&arr).enumerate() {
        let response = closed.execute(&a.query);
        match rec.outcome {
            Outcome::Answered { service, .. } => {
                assert_eq!(service, response, "service diverged at query {i}");
            }
            Outcome::Shed => panic!("reference config never sheds (query {i})"),
        }
    }
}

#[test]
fn shedding_is_deterministic_and_only_fires_under_overload() {
    let mean = mean_service(23);
    let oc = OpenLoopConfig::batched(mean * 4, SimDuration::from_micros(200), 8);

    // Well under capacity: nothing sheds, nothing misses.
    let calm = arrivals(23, 0.3 / mean.as_secs_f64(), 400);
    let (calm_report, _) = run_open(23, 2, oc, &calm);
    assert_eq!(calm_report.shed, 0, "no shedding below the knee");
    assert_eq!(calm_report.answered, 400);

    // Far past capacity: the gate sheds, and identically on every run.
    let hot = arrivals(23, 3.0 / mean.as_secs_f64(), 600);
    let (hot1, recs1) = run_open(23, 2, oc, &hot);
    let (hot2, recs2) = run_open(23, 2, oc, &hot);
    assert!(hot1.shed > 0, "overload must shed (got {:?})", hot1.shed);
    assert_eq!(hot1, hot2);
    assert_eq!(recs1, recs2);
    assert_eq!(
        hot1.answered + hot1.shed,
        hot1.arrivals,
        "every arrival gets one outcome"
    );
}

#[test]
fn batching_beats_naive_fifo_past_the_naive_knee() {
    // Deterministic head-to-head at a load the naive arm cannot absorb
    // (per-dispatch overhead is the dominant cost at batch size 1).
    let mean = mean_service(37);
    let overhead = SimDuration::from_micros(500);
    let deadline = (mean + overhead) * 6;
    // Aggregate capacity of the 2-replica tier at batch size 1.
    let naive_capacity = 2.0 / (mean + overhead).as_secs_f64();
    let arr = arrivals(37, 1.3 * naive_capacity, 600);
    let naive = OpenLoopConfig::naive_fifo(deadline, overhead);
    let batched = OpenLoopConfig::batched(deadline, overhead, 16);
    let (naive_r, _) = run_open(37, 2, naive, &arr);
    let (batched_r, _) = run_open(37, 2, batched, &arr);
    assert!(
        batched_r.p99_response < naive_r.p99_response,
        "batched p99 {} !< naive p99 {}",
        batched_r.p99_response,
        naive_r.p99_response
    );
    assert!(
        batched_r.goodput_qps > naive_r.goodput_qps,
        "batched goodput {:.1} !> naive {:.1}",
        batched_r.goodput_qps,
        naive_r.goodput_qps
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Conservation: goodput never exceeds offered load, outcomes
    /// partition the arrivals, and a lightly-loaded tier with a
    /// generous deadline sheds nothing.
    #[test]
    fn goodput_is_bounded_by_offered_load(seed in 1u64..1_000, load in 0.1f64..0.5) {
        let mean = mean_service(seed);
        let oc = OpenLoopConfig::batched(mean * 20, SimDuration::from_micros(200), 8);
        let arr = arrivals(seed, load / mean.as_secs_f64(), 250);
        let (report, _) = run_open(seed, 2, oc, &arr);
        prop_assert!(report.goodput_qps <= report.offered_qps * 1.000_001,
            "goodput {} > offered {}", report.goodput_qps, report.offered_qps);
        prop_assert_eq!(report.shed, 0);
        prop_assert_eq!(report.answered + report.shed, report.arrivals);
        prop_assert_eq!(report.deadline_misses, 0);
    }
}
