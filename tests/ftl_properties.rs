//! Property-based tests of the FTL schemes: every scheme must behave like
//! a simple logical page store under arbitrary op sequences, while
//! respecting the NAND invariants the medium enforces by panicking.

#![expect(
    clippy::disallowed_types,
    reason = "the model sets are compared by membership and length; never iterated"
)]

use flashsim::{BlockMapFtl, Dftl, FastFtl, FlashParams, Ftl, PageMapFtl};
use proptest::prelude::*;
use std::collections::HashSet;

/// A logical operation against the device.
#[derive(Debug, Clone, Copy)]
enum Op {
    Write(u64),
    Trim(u64),
    Read(u64),
}

fn ops(max_lpn: u64) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0..max_lpn).prop_map(Op::Write),
            (0..max_lpn).prop_map(Op::Trim),
            (0..max_lpn).prop_map(Op::Read),
        ],
        1..600,
    )
}

/// Drive an FTL against a HashSet model of "which pages hold data".
fn check_model<F: Ftl>(mut ftl: F, ops: &[Op]) -> Result<(), TestCaseError> {
    let logical = ftl.logical_pages();
    let mut model: HashSet<u64> = HashSet::new();
    for &op in ops {
        match op {
            Op::Write(lpn) => {
                let lpn = lpn % logical;
                ftl.write(lpn).expect("within logical capacity");
                model.insert(lpn);
            }
            Op::Trim(lpn) => {
                let lpn = lpn % logical;
                ftl.trim(lpn).expect("within logical capacity");
                model.remove(&lpn);
            }
            Op::Read(lpn) => {
                let lpn = lpn % logical;
                let t = ftl.read(lpn).expect("within logical capacity");
                let mapped = t >= ftl.params().page_read;
                prop_assert_eq!(
                    mapped,
                    model.contains(&lpn),
                    "mapping mismatch at lpn {}",
                    lpn
                );
            }
        }
    }
    // Global invariant: live pages on the medium == model size.
    prop_assert_eq!(ftl.nand().valid_pages(), model.len() as u64);
    // Every modelled page readable at media cost.
    for &lpn in &model {
        let t = ftl.read(lpn).expect("within logical capacity");
        prop_assert!(t >= ftl.params().page_read);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn page_map_matches_model(ops in ops(1 << 10)) {
        check_model(PageMapFtl::new(FlashParams::tiny(10)), &ops)?;
    }

    #[test]
    fn block_map_matches_model(ops in ops(1 << 10)) {
        check_model(BlockMapFtl::new(FlashParams::tiny(10)), &ops)?;
    }

    #[test]
    fn fast_matches_model(ops in ops(1 << 10)) {
        check_model(FastFtl::new(FlashParams::tiny(12)), &ops)?;
    }

    #[test]
    fn dftl_matches_model(ops in ops(1 << 10)) {
        // DFTL's translation traffic writes extra pages, so the global
        // valid-page equality doesn't hold; check only the host-visible
        // mapping behaviour.
        let mut ftl = Dftl::new(FlashParams::tiny(16), 8);
        let logical = ftl.logical_pages();
        let mut model: HashSet<u64> = HashSet::new();
        for &op in &ops {
            match op {
                Op::Write(lpn) => {
                    let lpn = lpn % logical;
                    ftl.write(lpn).expect("in range");
                    model.insert(lpn);
                }
                Op::Trim(lpn) => {
                    let lpn = lpn % logical;
                    ftl.trim(lpn).expect("in range");
                    model.remove(&lpn);
                }
                Op::Read(lpn) => {
                    let lpn = lpn % logical;
                    // CMT traffic may add latency; presence is still
                    // observable through the data-page read floor.
                    let t = ftl.read(lpn).expect("in range");
                    if model.contains(&lpn) {
                        prop_assert!(t >= ftl.params().page_read);
                    }
                }
            }
        }
    }

    #[test]
    fn wear_spread_stays_bounded_under_uniform_writes(seed in 0u64..1000) {
        // Greedy GC + FIFO pool must not concentrate erases: after heavy
        // uniform overwrites, max wear <= mean * 6 (loose but meaningful).
        let mut ftl = PageMapFtl::new(FlashParams::tiny(12));
        let logical = ftl.logical_pages();
        let mut rng = simclock::Rng::new(seed);
        for _ in 0..logical * 20 {
            ftl.write(rng.next_below(logical)).expect("in range");
        }
        let (_, max, mean) = ftl.nand().wear();
        prop_assert!(mean > 0.0);
        prop_assert!(
            (max as f64) <= mean * 6.0 + 2.0,
            "wear concentration: max {} vs mean {:.2}",
            max,
            mean
        );
    }
}
