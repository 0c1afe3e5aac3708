//! Property-based tests of the page-mapped FTL: it must behave like a
//! simple logical page store under arbitrary op sequences, while
//! respecting the NAND invariants the medium enforces by panicking.

#![expect(
    clippy::disallowed_types,
    reason = "the model sets are compared by membership and length; never iterated"
)]

use flashsim::{FlashParams, Ftl, PageMapFtl};
use proptest::prelude::*;
use std::collections::HashSet;

/// A logical operation against the device.
#[derive(Debug, Clone, Copy)]
enum Op {
    Write(u64),
    Trim(u64),
    Read(u64),
}

/// Requested capacity of the paper-geometry device in the model check. At
/// this size the reserve floors at watermark + 1 blocks, so the die has
/// four 64-page blocks and exports one: GC starts after 128 page writes,
/// inside the longer op sequences.
const PAPER_MODEL_BYTES: u64 = 256 << 10;

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

/// Drive the FTL against a HashSet model of "which pages hold data".
fn check_model(mut ftl: PageMapFtl, ops: &[Op]) -> Result<(), TestCaseError> {
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
        // The tiny geometry: 4-page blocks, 25 % over-provisioning, GC
        // watermark 1.
        check_model(PageMapFtl::new(FlashParams::tiny(10)), &ops)?;
        // The paper's, which every engine runs: 64-page blocks, 7 %
        // over-provisioning, watermark 2.
        check_model(PageMapFtl::new(FlashParams::paper(PAPER_MODEL_BYTES)), &ops)?;
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
