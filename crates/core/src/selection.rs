//! Data selection: the paper's Formulas 1 and 2.

use crate::config::BLOCK_BYTES;

/// Formula 1 — the number of SSD blocks a flushed inverted list occupies:
/// `SC = ceil(SI · PU / SB)` where `SI` is the used in-memory size, `PU`
/// the utilization rate, `SB` the SSD block size ([`BLOCK_BYTES`]).
///
/// The paper's worked example: `SI = 1000 KB, PU = 50 % → SC = 4`
/// (512 KB with `SB = 128 KB`).
pub fn sc_blocks(si_bytes: u64, pu: f64) -> u64 {
    assert!((0.0..=1.0).contains(&pu), "PU must be a rate, got {pu}");
    let useful = (si_bytes as f64 * pu).ceil() as u64;
    useful
        .div_ceil(BLOCK_BYTES)
        .max(if si_bytes > 0 { 1 } else { 0 })
}

/// Formula 1, in bytes: the cached size is an integral number of blocks
/// ("all the cached data are of integral blocks (128·N KB)").
pub fn sc_bytes(si_bytes: u64, pu: f64) -> u64 {
    sc_blocks(si_bytes, pu) * BLOCK_BYTES
}

/// Formula 2 — the efficiency value of a cached inverted list:
/// `EV = Freq / SC`, directly proportional to access frequency and
/// inversely proportional to cached size (in blocks).
pub fn efficiency_value(freq: u64, sc_blocks: u64) -> f64 {
    if sc_blocks == 0 {
        return 0.0;
    }
    freq as f64 / sc_blocks as f64
}

/// The admission decision for an evicted inverted list: flush to SSD only
/// when its efficiency value clears `TEV` ("if the efficiency value of an
/// inverted list is less than a specified threshold, it will be discarded
/// directly, rather than flushed to SSD").
pub fn admit_list(freq: u64, sc: u64, tev: f64) -> bool {
    efficiency_value(freq, sc) >= tev
}

#[cfg(test)]
mod tests {
    use super::*;

    const SB: u64 = BLOCK_BYTES;

    #[test]
    fn paper_worked_example() {
        // SI = 1000 KB, PU = 50% -> SC = 4 blocks = 512 KB.
        assert_eq!(sc_blocks(1000 * 1024, 0.5), 4);
        assert_eq!(sc_bytes(1000 * 1024, 0.5), 512 * 1024);
    }

    #[test]
    fn sc_rounds_up() {
        assert_eq!(sc_blocks(SB + 1, 1.0), 2);
        assert_eq!(sc_blocks(SB, 1.0), 1);
        assert_eq!(sc_blocks(1, 1.0), 1, "any used data takes a block");
        assert_eq!(sc_blocks(1, 0.001), 1);
    }

    #[test]
    fn sc_of_empty_list_is_zero() {
        assert_eq!(sc_blocks(0, 1.0), 0);
        assert_eq!(sc_bytes(0, 0.5), 0);
    }

    #[test]
    fn sc_scales_with_utilization() {
        let si = 10 * SB;
        assert_eq!(sc_blocks(si, 1.0), 10);
        assert_eq!(sc_blocks(si, 0.5), 5);
        assert_eq!(sc_blocks(si, 0.05), 1);
    }

    #[test]
    fn ev_is_freq_over_blocks() {
        assert!((efficiency_value(100, 4) - 25.0).abs() < 1e-12);
        assert!((efficiency_value(7, 1) - 7.0).abs() < 1e-12);
        assert_eq!(efficiency_value(7, 0), 0.0);
    }

    #[test]
    fn admission_threshold() {
        // EV = 10/4 = 2.5
        assert!(admit_list(10, 4, 2.5));
        assert!(admit_list(10, 4, 2.0));
        assert!(!admit_list(10, 4, 2.6));
        // TEV = 0 admits everything with any frequency.
        assert!(admit_list(0, 4, 0.0));
    }

    #[test]
    fn ev_prefers_small_hot_lists() {
        // Same frequency: the smaller list is more efficient.
        assert!(efficiency_value(50, 1) > efficiency_value(50, 8));
        // Same size: the hotter list is more efficient.
        assert!(efficiency_value(50, 4) > efficiency_value(10, 4));
    }

    #[test]
    #[should_panic(expected = "PU must be a rate")]
    fn pu_out_of_range_panics() {
        sc_blocks(100, 1.5);
    }
}
