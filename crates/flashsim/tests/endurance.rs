//! Long-horizon endurance tests of the page-mapped FTL: sustained
//! workloads far past device turnover must preserve correctness and
//! reasonable wear behaviour.

use flashsim::{FlashParams, Ftl, PageMapFtl};
use simclock::{Rng, Zipf};

fn turnover_writes(ftl: &PageMapFtl) -> u64 {
    // Enough host writes to rewrite the logical space ~25 times.
    ftl.logical_pages() * 25
}

fn drive_zipf(mut ftl: PageMapFtl, seed: u64) -> PageMapFtl {
    let logical = ftl.logical_pages();
    let zipf = Zipf::new(logical, 1.0);
    let mut rng = Rng::new(seed);
    let n = turnover_writes(&ftl);
    for _ in 0..n {
        let lpn = zipf.sample(&mut rng) - 1;
        ftl.write(lpn).expect("within logical capacity");
    }
    ftl
}

fn check_all_readable(ftl: &mut PageMapFtl, written: impl Iterator<Item = u64>) {
    let floor = ftl.params().page_read;
    for lpn in written {
        let t = ftl.read(lpn).expect("in range");
        assert!(t >= floor, "lpn {lpn} unreadable after endurance run");
    }
}

#[test]
fn page_map_survives_25x_turnover() {
    let mut ftl = drive_zipf(PageMapFtl::new(FlashParams::tiny(16)), 1);
    // Hot head pages were certainly written.
    check_all_readable(&mut ftl, 0..8);
    let s = ftl.stats();
    let wa = s.write_amplification(ftl.nand().stats().page_programs);
    assert!((1.0..3.0).contains(&wa), "WA = {wa}");
    let (min, max, mean) = ftl.nand().wear();
    assert!(max > 0);
    assert!(
        (max - min) as f64 <= mean * 4.0 + 4.0,
        "wear spread too wide: {min}..{max} (mean {mean:.1})"
    );
}

#[test]
fn interleaved_trim_write_storm() {
    // Alternate trims and writes over a shrinking/growing live set; the
    // device must neither leak space nor lose data.
    let mut ftl = PageMapFtl::new(FlashParams::tiny(12));
    let logical = ftl.logical_pages();
    let mut rng = Rng::new(9);
    let mut live = vec![false; logical as usize];
    for round in 0..40 {
        for _ in 0..logical {
            let lpn = rng.next_below(logical);
            if rng.next_bool(0.4) {
                ftl.trim(lpn).expect("in range");
                live[lpn as usize] = false;
            } else {
                ftl.write(lpn).expect("in range");
                live[lpn as usize] = true;
            }
        }
        let expected: u64 = live.iter().filter(|&&l| l).count() as u64;
        assert_eq!(
            ftl.nand().valid_pages(),
            expected,
            "round {round}: live-page accounting drifted"
        );
    }
    for (lpn, &l) in live.iter().enumerate() {
        let t = ftl.read(lpn as u64).expect("in range");
        assert_eq!(t >= ftl.params().page_read, l, "lpn {lpn} mapping wrong");
    }
}

#[test]
fn erase_counts_scale_linearly_with_overwrite_volume() {
    let erases_for = |rounds: u64| {
        let mut ftl = PageMapFtl::new(FlashParams::tiny(16));
        let logical = ftl.logical_pages();
        for _ in 0..rounds {
            for lpn in 0..logical {
                ftl.write(lpn).expect("in range");
            }
        }
        ftl.nand().stats().block_erases
    };
    let e10 = erases_for(10);
    let e20 = erases_for(20);
    let ratio = e20 as f64 / e10.max(1) as f64;
    assert!(
        (1.6..=2.4).contains(&ratio),
        "erases should scale ~linearly: {e10} -> {e20} (ratio {ratio:.2})"
    );
}
