//! The serving front-end's audit coverage, in its own process: these
//! tests flip the process-global audit switch
//! ([`invariant::force_enable`]), which must not leak per-mutation
//! validation cost into the equivalence suite's seeded lockstep runs.
//!
//! Three layers are proven: a fully-featured open-loop run under forced
//! auditing (`audit!` fires on every enqueue and dispatch) comes back
//! clean; planted corruption through the `#[doc(hidden)]` hooks trips
//! the owning validator on *real run state*; and a corrupted structure
//! reaching an `audit!` site panics the process the way the in-run
//! audits would. (Corruption cases that need queued entries — FIFO
//! swaps, double outcomes on populated ledgers — live in the `serving`
//! module's unit tests, which can reach the private mutators.)

use engine::{EngineConfig, OpenLoopConfig, SearchCluster, ServingSim, ShedPolicy};
use hybridcache::{HybridConfig, PolicyKind};
use simclock::SimDuration;
use workload::{ArrivalKind, ArrivalProcess};

fn cfg() -> EngineConfig {
    EngineConfig::cached(
        20_000,
        HybridConfig::paper(1 << 20, 8 << 20, PolicyKind::Cblru),
        43,
    )
}

fn run_featured() -> ServingSim {
    let mean = {
        let mut c = SearchCluster::new(cfg(), 2);
        c.run(200).mean_response
    };
    let oc = OpenLoopConfig {
        deadline: Some(mean * 5),
        batch_max: 8,
        shed: ShedPolicy::Drop,
        dispatch_overhead: SimDuration::from_micros(300),
    };
    let mut sim = ServingSim::new(cfg(), 2, 2, oc);
    let arr = ArrivalProcess::new(
        sim.replica(0).log().clone(),
        ArrivalKind::Bursty {
            base_qps: 0.6 / mean.as_secs_f64(),
            burst_qps: 2.5 / mean.as_secs_f64(),
            mean_dwell_secs: 0.5,
        },
    )
    .generate(500);
    let report = sim.run(&arr);
    assert_eq!(report.answered + report.shed, report.arrivals);
    sim
}

#[test]
fn a_fully_featured_run_audits_clean_under_forced_validation() {
    invariant::force_enable();
    let sim = run_featured();
    assert!(
        sim.validation_report().is_clean(),
        "audited run left violations:\n{}",
        sim.validation_report().summary()
    );
}

#[test]
fn corrupting_a_real_runs_ledger_trips_the_outcome_validator() {
    invariant::force_enable();
    let mut sim = run_featured();
    assert!(sim.validation_report().is_clean());
    sim.ledger_mut().corrupt_double_outcome();
    let report = sim.validation_report();
    assert!(
        report
            .violations()
            .iter()
            .any(|v| v.invariant == "exactly-one-outcome"),
        "double outcome went undetected:\n{}",
        report.summary()
    );
}

/// `audit!` sites compile away without `debug_assertions`, so there is
/// nothing to panic in a release build (tier-1 runs debug).
#[cfg(debug_assertions)]
#[test]
fn a_corrupted_structure_panics_at_the_audit_site() {
    use engine::{FrontQueue, OutcomeLedger};
    use invariant::Validate;
    invariant::force_enable();

    let queue_hit = std::panic::catch_unwind(|| {
        let mut q = FrontQueue::default();
        q.corrupt_len();
        invariant::audit!(&q, "serving_audit::queue");
    });
    assert!(queue_hit.is_err(), "audit! let a corrupted queue pass");

    let ledger_hit = std::panic::catch_unwind(|| {
        let mut l = OutcomeLedger::default();
        l.corrupt_counter();
        invariant::audit!(&l, "serving_audit::ledger");
    });
    assert!(ledger_hit.is_err(), "audit! let a corrupted ledger pass");

    // Clean structures sail through the same sites.
    invariant::audit!(&FrontQueue::default(), "serving_audit::clean-queue");
    invariant::audit!(&OutcomeLedger::default(), "serving_audit::clean-ledger");
    let _ = OutcomeLedger::default().validation_report();
}
