//! Seeded-corruption tests: each validator must actually *fire*.
//!
//! The equivalence suites prove the validators stay silent on healthy
//! runs; these tests prove the silence means something. Every scenario
//! re-creates one of the paper's consistency hazards through a
//! `#[doc(hidden)]` corruption hook — an out-of-order entry-state
//! transition (free → normal → replaceable cycle, Sec. VI-B), a
//! static-partition counter out of step with the RBs it pins (Sec.
//! VI-C2) — and asserts the matching machine-greppable invariant shows up
//! in the report. IREN is counted off the RB validity bitmap and the RB
//! geometry is a compile-time check, so neither has a copy to corrupt.

#![expect(
    clippy::disallowed_methods,
    reason = "these tests fill the stores below the admission gate to corrupt them"
)]

use hybridcache::ssd::{EntryState, ListStore, ResultStore, SlotRegion};
use invariant::Validate;
use simclock::SimDuration;
use storagecore::RamDisk;

const BLOCK: u64 = hybridcache::BLOCK_BYTES;

fn device() -> RamDisk {
    RamDisk::with_capacity_bytes(64 << 20, SimDuration::from_micros(10))
}

/// The invariant names a structure currently violates (empty = clean).
fn fired<T: Validate>(x: &T) -> Vec<&'static str> {
    let mut report = invariant::Report::new();
    x.validate(&mut report);
    report.violations().iter().map(|v| v.invariant).collect()
}

fn result_store(static_frac: f64) -> ResultStore<u32> {
    ResultStore::new(SlotRegion::new(0, 4), true, 2, static_frac)
}

#[test]
fn forced_state_transition_trips_the_state_machine() {
    let mut s = result_store(0.5); // 2 of 4 slots static
    let mut dev = device();
    let seeds: Vec<(u64, u32, u64)> = (100..112).map(|q| (q, q as u32, 9)).collect();
    s.seed_static(seeds, &mut dev);
    assert!(fired(&s).is_empty(), "healthy store must validate clean");
    // Pinned static entries may never leave Normal; forcing one
    // replaceable reproduces the out-of-order state transition.
    s.debug_force_state(100, EntryState::Replaceable);
    let hit = fired(&s);
    assert!(
        hit.contains(&"state-machine"),
        "expected state-machine, got {hit:?}"
    );
}

#[test]
fn static_rb_counter_drift_trips_the_static_budget() {
    let mut s = result_store(0.5); // 2 of 4 slots static
    let mut dev = device();
    let seeds: Vec<(u64, u32, u64)> = (100..112).map(|q| (q, q as u32, 9)).collect();
    s.seed_static(seeds, &mut dev);
    assert!(fired(&s).is_empty(), "healthy store must validate clean");
    // One pinned RB forgotten: `dynamic_reserved` would hold back a slot
    // the static partition has already consumed.
    s.debug_corrupt_static_used(-1);
    let hit = fired(&s);
    assert!(
        hit.contains(&"static-budget"),
        "expected static-budget, got {hit:?}"
    );
}

#[test]
fn list_store_pinned_entry_transition_fires_too() {
    let mut s = ListStore::new(SlotRegion::new(0, 8), true, 2, 0.5);
    let mut dev = device();
    s.seed_static(vec![(7u64, 2, 2 * BLOCK - 64, 11)], &mut dev);
    assert!(fired(&s).is_empty(), "healthy store must validate clean");
    s.debug_force_state(7, EntryState::Replaceable);
    let hit = fired(&s);
    assert!(
        hit.contains(&"state-machine"),
        "expected state-machine, got {hit:?}"
    );
}
