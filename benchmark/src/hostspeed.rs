//! Wall time scaled to a nominal host.
//!
//! The reference host is a small VM on shared hardware: for seconds or
//! minutes at a time everything on it runs 1.2–1.6× slower (its cores'
//! sibling threads and clocks belong to other tenants too), and between two
//! half-hours the whole machine was seen to differ by 18 %. No amount of
//! repetition inside a run removes that. What does is measuring the host
//! beside the work: a fixed calibration kernel is timed between the timed
//! sections, and each section's wall time is scaled by `nominal kernel time
//! ÷ kernel time measured around it`. Over seven minutes of alternating the
//! kernel with a fixed engine slice, the engine's time varied by 9 %
//! (coefficient of variation of 10 s means, range 40 %) and its ratio to
//! the kernel's by 1.6 % (range 9 %). A change to the measured code does
//! not change the kernel, so comparisons between commits keep their
//! meaning; only the host's share of the variation is divided out.

use std::time::Instant;

/// Kernel time that counts as speed 1: about the fastest the reference
/// host (Xeon "Sapphire Rapids" @ 2.1 GHz, 2 vCPUs) runs it. Wall metrics
/// read as "on a host that runs the kernel in this time".
pub const NOMINAL_KERNEL_NS: f64 = 520_000.0;

const KERNEL_LEN: usize = 32_768;

/// A timed section: what the clock said, and the same scaled to the
/// nominal host.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timed {
    pub raw_ns: f64,
    pub nominal_ns: f64,
}

impl std::ops::AddAssign for Timed {
    fn add_assign(&mut self, other: Timed) {
        self.raw_ns += other.raw_ns;
        self.nominal_ns += other.nominal_ns;
    }
}

/// Times sections of work with the calibration kernel run between them.
#[derive(Debug)]
pub struct HostSpeed {
    buf: Vec<u64>,
    /// Kernel time measured after the previous section.
    last_kernel_ns: f64,
    /// Every kernel time measured, for the host-speed summary.
    kernel_ns: Vec<f64>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        let mut speed = HostSpeed {
            buf: Vec::with_capacity(KERNEL_LEN),
            last_kernel_ns: 0.0,
            kernel_ns: Vec::new(),
        };
        // The first run pays for the buffer's pages; time the second.
        speed.kernel();
        speed.last_kernel_ns = speed.kernel();
        speed
    }
}

/// Scale `raw_ns` by the kernel times measured before and after it.
fn scale(raw_ns: f64, kernel_before_ns: f64, kernel_after_ns: f64) -> f64 {
    raw_ns * NOMINAL_KERNEL_NS / ((kernel_before_ns + kernel_after_ns) / 2.0)
}

impl HostSpeed {
    /// Fill a buffer with a fixed pseudo-random sequence and sort it: a few
    /// hundred microseconds of branches, arithmetic and cache traffic that
    /// slow down with the host the way the engine's own code was measured
    /// to. (A pointer chase over a cache-resident table did not.)
    fn kernel(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        self.buf.clear();
        for _ in 0..KERNEL_LEN {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.buf.push(x);
        }
        self.buf.sort_unstable();
        std::hint::black_box(&self.buf);
        let ns = t.elapsed().as_nanos() as f64;
        self.kernel_ns.push(ns);
        ns
    }

    /// Run `work` as one timed section: its wall time, raw and scaled by
    /// the kernel times on either side of it.
    pub fn time<R>(&mut self, work: impl FnOnce() -> R) -> (R, Timed) {
        let t = Instant::now();
        let result = work();
        let raw_ns = t.elapsed().as_nanos() as f64;
        let before = self.last_kernel_ns;
        self.last_kernel_ns = self.kernel();
        let nominal_ns = scale(raw_ns, before, self.last_kernel_ns);
        (result, Timed { raw_ns, nominal_ns })
    }

    /// Median speed of the host over the sections timed so far, relative
    /// to nominal: 0.8 means it ran 20 % slow.
    pub fn relative_speed(&self) -> f64 {
        NOMINAL_KERNEL_NS / crate::stats::median(&self.kernel_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_section_on_a_slow_host_is_scaled_down_to_nominal() {
        // Kernel twice as slow as nominal on both sides: the host is at
        // half speed, so the work would have taken half as long.
        let slow = 2.0 * NOMINAL_KERNEL_NS;
        assert_eq!(scale(1_000.0, slow, slow), 500.0);
        assert_eq!(
            scale(1_000.0, NOMINAL_KERNEL_NS, NOMINAL_KERNEL_NS),
            1_000.0
        );
        // A speed change inside the section counts at the mean of its ends.
        assert_eq!(scale(1_500.0, NOMINAL_KERNEL_NS, slow), 1_000.0);
    }

    #[test]
    fn timing_returns_the_work_s_result_and_positive_times() {
        let mut speed = HostSpeed::default();
        let (value, timed) = speed.time(|| (0..1_000u64).sum::<u64>());
        assert_eq!(value, 499_500);
        assert!(timed.raw_ns > 0.0 && timed.nominal_ns > 0.0);
        assert!(speed.relative_speed() > 0.0);
    }

    #[test]
    fn the_kernel_sorts_the_same_sequence_every_time() {
        let mut speed = HostSpeed::default();
        speed.kernel();
        let first = speed.buf.clone();
        speed.kernel();
        assert_eq!(first, speed.buf);
        assert!(first.windows(2).all(|w| w[0] <= w[1]));
    }
}
