//! The offload toggle's two arms must be indistinguishable on every
//! simulated figure: under the reference compute model, `InFlash`
//! evaluates each pushed-down predicate in timing-neutral per-channel
//! compute units, so the full [`engine::RunReport`] (responses, match
//! sets via `postings_scanned`, cache hit/eviction counters), both
//! submission-queue sections, the pipeline wrapper's whole `IoStats`
//! mirror, NAND wear, and the inner SSD's per-kind I/O figures must
//! agree bit-for-bit with the `Host` arm. The only thing
//! allowed to move is the bus-byte ledger — which is the entire point
//! of the offload.

use engine::{EngineConfig, OffloadMode, SearchEngine};
use hybridcache::{HybridConfig, PolicyKind};
use proptest::prelude::*;
use storagecore::{BlockDevice, IoKind, SchedulerPolicy};

const DOCS: u64 = 40_000;
const QUERIES: usize = 400;

fn cached_cfg(seed: u64, channels: u32) -> EngineConfig {
    // A small memory tier flushes lists to the SSD early, so runs of a
    // few hundred queries actually serve SSD-tier list hits — the reads
    // the offload toggle routes. The SSD stays small too: these runs
    // execute under forced invariant audits (every FTL mutation
    // re-validates the whole page map), so FTL size is the suite's
    // debug-build wall-clock.
    let mut cfg = EngineConfig::cached(
        DOCS,
        HybridConfig::paper(256 << 10, 2 << 20, PolicyKind::Cblru),
        seed,
    );
    cfg.ssd_channels = channels;
    cfg
}

fn engine_with(cfg: EngineConfig, depth: usize, mode: OffloadMode) -> SearchEngine {
    let mut e = SearchEngine::new(cfg);
    e.set_queue_depth(depth);
    e.set_offload_mode(mode);
    e
}

/// Everything the two arms must agree on, beyond the `RunReport`.
fn assert_arms_identical(host: &mut SearchEngine, flash: &mut SearchEngine) {
    // A full run must leave every audited structure coherent on both
    // arms — including the offload validators (emitted ⊆ scanned, bus
    // conservation, compute/bus agreement, compute-lane horizons).
    for (arm, e) in [("host", &*host), ("in-flash", &*flash)] {
        let report = e.validation_report();
        assert!(report.is_clean(), "{arm} arm: {}", report.summary());
    }
    assert_eq!(host.index_queue_stats(), flash.index_queue_stats());
    assert_eq!(host.cache_queue_stats(), flash.cache_queue_stats());
    let (ch, cf) = (
        host.cache().expect("cached config"),
        flash.cache().expect("cached config"),
    );
    // The pipeline wrapper's stats mirror is bus-free by design, so the
    // whole struct must agree.
    assert_eq!(ch.device().stats(), cf.device().stats());
    // The inner SSD agrees on wear and every per-kind I/O figure; only
    // its bus ledger may differ.
    use flashsim::Ftl as _;
    assert_eq!(
        ch.device().inner().ftl().nand().stats(),
        cf.device().inner().ftl().nand().stats()
    );
    for kind in [IoKind::Read, IoKind::Write, IoKind::Trim] {
        assert_eq!(
            ch.device().inner().stats().kind(kind),
            cf.device().inner().stats().kind(kind),
            "inner SSD {kind:?} section diverged"
        );
    }
}

#[test]
fn in_flash_matches_host_bit_for_bit_and_saves_bus_bytes() {
    // Audit every cache/queue/FTL mutation during the runs (debug builds).
    invariant::force_enable();
    let mut host = engine_with(cached_cfg(3, 4), 1, OffloadMode::Host);
    let mut flash = engine_with(cached_cfg(3, 4), 1, OffloadMode::InFlash);
    let rh = host.run(QUERIES);
    let rf = flash.run(QUERIES);
    assert_eq!(rh, rf, "reference compute must be timing-neutral");
    assert_arms_identical(&mut host, &mut flash);

    // The offload path actually engaged, and its cost rule only fires
    // where it pays: the in-flash arm never crosses more bus bytes than
    // the host arm, and the gap is exactly the ledger's saved_bytes.
    let bh = host.cache_bus_stats();
    let bf = flash.cache_bus_stats();
    assert_eq!(bh.offload_ops(), 0, "host arm must stay descriptor-free");
    assert!(
        bf.offload_ops() > 0,
        "in-flash arm never pushed a predicate"
    );
    assert!(
        bf.saved_bytes() >= 0,
        "cost rule attached a losing descriptor"
    );
    assert_eq!(
        bh.host_crossed_bytes() as i64 - bf.host_crossed_bytes() as i64,
        bf.saved_bytes(),
        "bus ledger does not reconcile against the host arm"
    );
    // Compute accounting mirrors the bus ledger.
    let comp = flash.cache_compute_stats();
    assert_eq!(comp.offload_ops, bf.offload_ops());
    assert_eq!(comp.entries_emitted, bf.offload_emitted_entries());
}

#[test]
fn arms_match_across_depths_channels_and_schedulers() {
    for channels in [1u32, 8] {
        for depth in [1usize, 8] {
            let mk = |mode| {
                let mut e = engine_with(cached_cfg(11, channels), depth, mode);
                e.set_io_scheduler(SchedulerPolicy::Elevator);
                e
            };
            let mut host = mk(OffloadMode::Host);
            let mut flash = mk(OffloadMode::InFlash);
            let rh = host.run(120);
            let rf = flash.run(120);
            assert_eq!(rh, rf, "diverged at depth {depth}, channels {channels}");
            assert_arms_identical(&mut host, &mut flash);
        }
    }
}

#[test]
fn mid_run_toggle_changes_nothing() {
    // Flip to in-flash halfway through: the second-half window must
    // equal an all-host run's, because the offload carries the
    // cumulative cache/device state forward unchanged.
    let mut toggled = engine_with(cached_cfg(9, 4), 1, OffloadMode::Host);
    toggled.run(QUERIES / 2);
    toggled.set_offload_mode(OffloadMode::InFlash);
    let toggled_report = toggled.run(QUERIES / 2);

    let mut straight = engine_with(cached_cfg(9, 4), 1, OffloadMode::Host);
    straight.run(QUERIES / 2);
    let straight_report = straight.run(QUERIES / 2);
    assert_eq!(toggled_report, straight_report);

    // And back again: in-flash → host mid-run is equally invisible.
    let mut back = engine_with(cached_cfg(9, 4), 1, OffloadMode::InFlash);
    back.run(QUERIES / 2);
    back.set_offload_mode(OffloadMode::Host);
    assert_eq!(back.run(QUERIES / 2), straight_report);
}

#[test]
fn lockstep_responses_match_per_query() {
    // Every individual response time must agree, not just the
    // aggregates.
    let mut host = engine_with(cached_cfg(7, 4), 1, OffloadMode::Host);
    let mut flash = engine_with(cached_cfg(7, 4), 1, OffloadMode::InFlash);
    let stream = host.log().clone().stream(120);
    for (i, q) in stream.iter().enumerate() {
        let th = host.execute(q);
        let tf = flash.execute(q);
        assert_eq!(th, tf, "response diverged at query {i}");
    }
}

#[test]
fn no_predicate_is_pushed_down_once_the_live_index_has_mutated() {
    // A layer's share of a merged list is not the frequency-sorted
    // prefix a descriptor describes.
    let mut cfg = cached_cfg(5, 4);
    cfg.mutability = engine::IndexMutability::Live(engine::LiveConfig::default());
    let mut e = engine_with(cfg, 1, OffloadMode::InFlash);
    e.ingest_document(&[(3, 2), (9, 1)])
        .expect("live arm ingests");
    e.run(QUERIES);
    assert_eq!(e.cache_bus_stats().offload_ops(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Host/in-flash equivalence across seeds, queue depths and channel
    /// counts: match sets (`postings_scanned`), cache hit and eviction
    /// counters, and every device figure ride in the compared reports
    /// and stats.
    #[test]
    fn arms_match_for_every_seed(seed in 0u64..1_000, depth in 1usize..8, wide: bool) {
        let channels = if wide { 4 } else { 1 };
        let mut host = engine_with(cached_cfg(seed, channels), depth, OffloadMode::Host);
        let mut flash = engine_with(cached_cfg(seed, channels), depth, OffloadMode::InFlash);
        let rh = host.run(100);
        let rf = flash.run(100);
        prop_assert_eq!(rh, rf);
        assert_arms_identical(&mut host, &mut flash);
    }
}
