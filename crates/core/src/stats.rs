//! Cache-level statistics — the measured side of the paper's Table I.

use simclock::SimDuration;

/// Counters for one entry family (results or inverted lists).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FamilyStats {
    /// Served from memory (Table I situations S1/S2).
    pub mem_hits: u64,
    /// Served from SSD (S3/S4) — for lists, fully covered by the cached
    /// prefix.
    pub ssd_hits: u64,
    /// Lists only: partially served from SSD, remainder from HDD.
    pub partial_hits: u64,
    /// Not cached anywhere — computed/read from HDD (S8/S9).
    pub misses: u64,
    /// Entries admitted and written to SSD.
    pub ssd_admissions: u64,
    /// Entries the selection policy discarded instead of flushing.
    pub ssd_rejections: u64,
    /// Flushes avoided because a replaceable SSD copy was still valid
    /// (the paper's write-buffer dedup).
    pub rewrites_avoided: u64,
}

impl FamilyStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.mem_hits + self.ssd_hits + self.partial_hits + self.misses
    }

    /// Overall hit ratio: any level, full or partial.
    pub fn hit_ratio(&self) -> f64 {
        let n = self.lookups();
        if n == 0 {
            0.0
        } else {
            (self.mem_hits + self.ssd_hits + self.partial_hits) as f64 / n as f64
        }
    }
}

/// Statistics for the whole hybrid cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Result-entry family.
    pub results: FamilyStats,
    /// Inverted-list family.
    pub lists: FamilyStats,
    /// Simulated time spent in SSD I/O issued by the cache.
    pub ssd_time: SimDuration,
    /// Bytes written to the SSD cache file.
    pub ssd_bytes_written: u64,
    /// Bytes read from the SSD cache file.
    pub ssd_bytes_read: u64,
    /// Never incremented: reads 0 in every run. The trims the stores
    /// issue are counted in `ResultStoreStats::trims` and
    /// `ListStoreStats::trims`. Kept because the golden ledger and the
    /// benchmark fingerprint hash this field.
    pub trims: u64,
}

impl CacheStats {
    /// Fresh counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Combined hit ratio over both families.
    pub fn overall_hit_ratio(&self) -> f64 {
        let hits = self.results.mem_hits
            + self.results.ssd_hits
            + self.results.partial_hits
            + self.lists.mem_hits
            + self.lists.ssd_hits
            + self.lists.partial_hits;
        let n = self.results.lookups() + self.lists.lookups();
        if n == 0 {
            0.0
        } else {
            hits as f64 / n as f64
        }
    }

    /// Zero everything.
    pub fn reset(&mut self) {
        *self = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_ratios() {
        let f = FamilyStats {
            mem_hits: 50,
            ssd_hits: 25,
            partial_hits: 5,
            misses: 20,
            ..Default::default()
        };
        assert_eq!(f.lookups(), 100);
        assert!((f.hit_ratio() - 0.80).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = CacheStats::new();
        assert_eq!(s.overall_hit_ratio(), 0.0);
        assert_eq!(s.results.hit_ratio(), 0.0);
    }

    #[test]
    fn overall_combines_families() {
        let mut s = CacheStats::new();
        s.results.mem_hits = 10;
        s.results.misses = 10;
        s.lists.ssd_hits = 20;
        s.lists.misses = 0;
        assert!((s.overall_hit_ratio() - 0.75).abs() < 1e-12);
        s.reset();
        assert_eq!(s.overall_hit_ratio(), 0.0);
    }
}
