//! Run reports: the measured quantities every figure plots.

use hybridcache::CacheStats;
use simclock::SimDuration;

use crate::situations::SituationTable;

/// Flash-internal measurements (Fig. 19's quantities).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FlashReport {
    /// Block erasures performed by the cache SSD's FTL.
    pub block_erases: u64,
    /// NAND page reads (host + GC).
    pub page_reads: u64,
    /// NAND page programs (host + GC).
    pub page_programs: u64,
    /// Host page writes.
    pub host_writes: u64,
    /// GC invocations.
    pub gc_runs: u64,
    /// Pages migrated by GC.
    pub pages_moved: u64,
    /// Write amplification (programs / host writes).
    pub write_amplification: f64,
    /// Mean *per-page* service time at the SSD: device busy time divided
    /// by host pages transferred ("flash average access time",
    /// Fig. 19(b)). Per-page rather than per-request, so policies with
    /// different request sizes (one 128 KB RB vs six 20 KB entries)
    /// compare on the work actually delivered; GC stalls folded into the
    /// triggering write raise it, which is the Fig. 19(b) effect.
    pub mean_access: SimDuration,
}

/// Summary of one engine run. `PartialEq` compares every simulated
/// figure bit-for-bit — the equality the `*_equivalence` suites assert.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Queries executed.
    pub queries: u64,
    /// Virtual time elapsed.
    pub elapsed: SimDuration,
    /// Mean per-query response time.
    pub mean_response: SimDuration,
    /// 99th-percentile response time (log₂-bucket upper bound).
    pub p99_response: SimDuration,
    /// Sustained throughput, queries per second of virtual time.
    pub throughput_qps: f64,
    /// Postings scored (CPU work proxy).
    pub postings_scanned: u64,
    /// Cache statistics, when a cache was configured.
    pub cache: Option<CacheStats>,
    /// Flash-internal statistics of the cache SSD, when one existed.
    pub flash: Option<FlashReport>,
    /// Index-device requests and mean latency.
    pub index_ops: u64,
    /// Mean index-device request latency.
    pub index_mean_latency: SimDuration,
    /// Measured Table-I situation breakdown.
    pub situations: SituationTable,
}

impl RunReport {
    /// Overall hit ratio (0 when uncached).
    pub fn hit_ratio(&self) -> f64 {
        self.cache
            .as_ref()
            .map_or(0.0, CacheStats::overall_hit_ratio)
    }

    /// One-line summary for harness output.
    pub fn summary(&self) -> String {
        format!(
            "{} queries in {} | mean {} | {:.2} q/s | hit {:.2}% | erases {}",
            self.queries,
            self.elapsed,
            self.mean_response,
            self.throughput_qps,
            self.hit_ratio() * 100.0,
            self.flash.map_or(0, |f| f.block_erases),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_renders() {
        let r = RunReport {
            queries: 10,
            elapsed: SimDuration::from_secs(1),
            mean_response: SimDuration::from_millis(100),
            p99_response: SimDuration::from_millis(200),
            throughput_qps: 10.0,
            postings_scanned: 1234,
            cache: None,
            flash: None,
            index_ops: 42,
            index_mean_latency: SimDuration::from_millis(9),
            situations: SituationTable::new(),
        };
        let s = r.summary();
        assert!(s.contains("10 queries"));
        assert!(s.contains("10.00 q/s"));
        assert_eq!(r.hit_ratio(), 0.0);
    }
}
