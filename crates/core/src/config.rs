//! Configuration of the hybrid cache.

/// Which replacement policy drives both cache levels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// The traditional baseline: plain LRU victims, full inverted lists
    /// cached, per-entry (small, random) SSD writes, no admission
    /// threshold, no replaceable-state reuse.
    Lru,
    /// Cost-Based LRU (the paper's Sec. VI-C): working/replace-first
    /// regions, IREN-based result-block victims, size-matched list
    /// victims, block-granular placement with write-buffer assembly,
    /// EV/TEV admission.
    Cblru,
    /// CBLRU plus a static partition holding the most efficient entries,
    /// seeded from query-log analysis and never evicted.
    Cbslru {
        /// Fraction of each SSD region reserved for the static partition.
        static_fraction: f64,
    },
}

impl PolicyKind {
    /// Whether this policy uses the cost-based machinery.
    pub fn is_cost_based(&self) -> bool {
        !matches!(self, PolicyKind::Lru)
    }

    /// The static fraction (0 for non-CBSLRU policies).
    pub fn static_fraction(&self) -> f64 {
        match self {
            PolicyKind::Cbslru { static_fraction } => *static_fraction,
            _ => 0.0,
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::Cblru => "CBLRU",
            PolicyKind::Cbslru { .. } => "CBSLRU",
        }
    }
}

/// How SSD admission is decided (the gate in front of every SSD cache
/// write).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// The paper's behavior, verbatim: lists pass `EV = Freq/SC >= TEV`
    /// with the static threshold, results pass the static frequency
    /// floor. This is the reference arm — bit-identical to the seed on
    /// every simulated figure.
    Static,
    /// The sketch-based admission tier: a TinyLFU-style 4-bit frequency
    /// sketch estimates reuse across the whole stream before a write is
    /// spent, a ghost cache fast-tracks keys that were just dismissed,
    /// and an online controller retunes TEV and the sketch's reset
    /// window to the observed workload phase.
    Sketch,
}

/// Parameters of the sketch-based admission tier. Carried even when the
/// policy is [`AdmissionPolicy::Static`] so the tier can be toggled on at
/// runtime without reconstructing the manager.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Which gate is active.
    pub policy: AdmissionPolicy,
    /// Counters per sketch row (rounded up to a power of two, floor 64).
    pub sketch_width: usize,
    /// Initial reset window `W`: sketch increments between halvings.
    pub reset_window: u64,
    /// Doorkeeper: minimum sketch estimate for a key to be considered at
    /// all (filters one-hit wonders before the EV math).
    pub min_freq: u8,
    /// Ghost-list capacity in keys, per entry family.
    pub ghost_capacity: usize,
    /// Controller epoch in recorded accesses; 0 disables online tuning.
    pub epoch: u64,
    /// Per-epoch SSD write budget in blocks: the controller raises TEV
    /// while admissions exceed it and relaxes TEV when writes run cold.
    pub write_budget_blocks: u64,
}

impl AdmissionConfig {
    /// The reference arm: static gate active, sketch parameters at their
    /// defaults so a runtime toggle to `Sketch` behaves sensibly.
    pub fn static_default() -> Self {
        AdmissionConfig {
            policy: AdmissionPolicy::Static,
            ..Self::sketch_default()
        }
    }

    /// The sketch arm with default geometry: 16 Ki counters/row (32 KB
    /// table), a 64 Ki-access reset window, a doorkeeper of 2 and a
    /// 4 Ki-key ghost list.
    pub fn sketch_default() -> Self {
        AdmissionConfig {
            policy: AdmissionPolicy::Sketch,
            sketch_width: 16 * 1024,
            reset_window: 64 * 1024,
            min_freq: 2,
            ghost_capacity: 4 * 1024,
            epoch: 2_048,
            write_budget_blocks: 1_024,
        }
    }

    /// Validate invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.sketch_width == 0 {
            return Err("admission sketch width must be positive".into());
        }
        if self.reset_window == 0 {
            return Err("admission reset window must be positive".into());
        }
        Ok(())
    }
}

/// How the two levels share data (the paper's Sec. IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachingScheme {
    /// Every page in memory is also on SSD (write-through on admit).
    Inclusive,
    /// No page on both levels: an SSD hit deletes the SSD copy.
    Exclusive,
    /// The paper's choice: SSD holds data evicted from memory; SSD hits
    /// are copied up *without* deleting — the SSD copy merely turns
    /// replaceable.
    Hybrid,
}

/// SSD block size `SB`: 128 KB in the paper, the unit of every cache
/// write and the size of a result block (RB).
pub const BLOCK_BYTES: u64 = 128 * 1024;

/// Result-entry size: a top-50 result page is about 20 KB.
pub const RESULT_ENTRY_BYTES: u64 = 20_000;

// The paper's geometry, checked once by the compiler: blocks are whole
// sectors, and an RB packs whole entries into one aligned block — the
// rule that keeps every RB write one 128 KB request (Sec. VI-A). Entry
// positions are stored as `u8`.
const _: () = {
    assert!(BLOCK_BYTES % storagecore::SECTOR_SIZE as u64 == 0);
    assert!(HybridConfig::entries_per_rb() > 0);
    assert!(HybridConfig::entries_per_rb() as u64 * RESULT_ENTRY_BYTES <= BLOCK_BYTES);
    assert!(HybridConfig::entries_per_rb() <= u8::MAX as usize);
};

/// Full configuration. The cache file starts at LBA 0: the result region
/// first, then the list region.
#[derive(Debug, Clone)]
pub struct HybridConfig {
    /// Time-to-live of cached data (the dynamic scenario of Sec. IV-B).
    /// `None` is the paper's static scenario: cached data never expires.
    pub ttl: Option<simclock::SimDuration>,
    /// L1 result-cache capacity in bytes.
    pub mem_result_bytes: u64,
    /// L1 inverted-list-cache capacity in bytes.
    pub mem_list_bytes: u64,
    /// L2 (SSD) result-cache capacity in bytes.
    pub ssd_result_bytes: u64,
    /// L2 (SSD) inverted-list-cache capacity in bytes.
    pub ssd_list_bytes: u64,
    /// Replace-first window `W` (entries).
    pub window: usize,
    /// Efficiency-value admission threshold `TEV` (lists). 0 admits all.
    pub tev: f64,
    /// Minimum access frequency for a result entry to be flushed to SSD.
    pub result_freq_threshold: u64,
    /// Replacement policy.
    pub policy: PolicyKind,
    /// Level-sharing scheme.
    pub scheme: CachingScheme,
    /// The SSD admission gate. [`AdmissionConfig::static_default`] is the
    /// paper's behavior; the sketch tier is the opt-in modernization.
    pub admission: AdmissionConfig,
}

impl HybridConfig {
    /// The paper's defaults at a given total memory/SSD cache size, with
    /// the RC:IC split of Sec. VII-A ("RC takes up 20% of the cache
    /// capacity, while IC takes up 80%").
    pub fn paper(mem_bytes: u64, ssd_bytes: u64, policy: PolicyKind) -> Self {
        HybridConfig {
            ttl: None,
            mem_result_bytes: mem_bytes / 5,
            mem_list_bytes: mem_bytes - mem_bytes / 5,
            ssd_result_bytes: ssd_bytes / 5,
            ssd_list_bytes: ssd_bytes - ssd_bytes / 5,
            window: 8,
            tev: if policy.is_cost_based() { 0.5 } else { 0.0 },
            result_freq_threshold: if policy.is_cost_based() { 2 } else { 0 },
            policy,
            scheme: CachingScheme::Hybrid,
            admission: AdmissionConfig::static_default(),
        }
    }

    /// Result entries per result block (`RB`).
    pub const fn entries_per_rb() -> usize {
        (BLOCK_BYTES / RESULT_ENTRY_BYTES) as usize
    }

    /// Result-block slots in the SSD result region.
    pub fn result_slots(&self) -> usize {
        (self.ssd_result_bytes / BLOCK_BYTES) as usize
    }

    /// Blocks in the SSD list region.
    pub fn list_blocks(&self) -> usize {
        (self.ssd_list_bytes / BLOCK_BYTES) as usize
    }

    /// Sectors per SSD block.
    pub const fn sectors_per_block() -> u64 {
        BLOCK_BYTES / storagecore::SECTOR_SIZE as u64
    }

    /// Total SSD footprint in sectors (result + list regions).
    pub fn ssd_sectors(&self) -> u64 {
        (self.result_slots() as u64 + self.list_blocks() as u64) * Self::sectors_per_block()
    }

    /// Validate invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.ssd_result_bytes > 0 && self.result_slots() == 0 {
            return Err("SSD result region smaller than one block".into());
        }
        if self.ssd_list_bytes > 0 && self.list_blocks() == 0 {
            return Err("SSD list region smaller than one block".into());
        }
        let sf = self.policy.static_fraction();
        if !(0.0..1.0).contains(&sf) {
            return Err("static fraction must be in [0, 1)".into());
        }
        if self.tev < 0.0 {
            return Err("TEV must be non-negative".into());
        }
        self.admission.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_are_valid_and_split_20_80() {
        let c = HybridConfig::paper(100 << 20, 1 << 30, PolicyKind::Cblru);
        c.validate().unwrap();
        assert_eq!(c.mem_result_bytes * 4, c.mem_list_bytes);
        assert_eq!(BLOCK_BYTES, 128 * 1024);
        assert_eq!(RESULT_ENTRY_BYTES, 20_000);
        assert_eq!(
            HybridConfig::entries_per_rb(),
            6,
            "six 20 KB entries fit a 128 KB RB"
        );
        assert_eq!(HybridConfig::sectors_per_block(), 256);
        assert_eq!(
            c.ssd_sectors(),
            (c.result_slots() + c.list_blocks()) as u64 * 256,
            "the cache file is the result region then the list region"
        );
    }

    #[test]
    fn lru_variant_disables_admission() {
        let c = HybridConfig::paper(1 << 20, 1 << 24, PolicyKind::Lru);
        assert_eq!(c.tev, 0.0);
        assert_eq!(c.result_freq_threshold, 0);
        assert!(!c.policy.is_cost_based());
    }

    #[test]
    fn policy_labels() {
        assert_eq!(PolicyKind::Lru.label(), "LRU");
        assert_eq!(PolicyKind::Cblru.label(), "CBLRU");
        let s = PolicyKind::Cbslru {
            static_fraction: 0.3,
        };
        assert_eq!(s.label(), "CBSLRU");
        assert!((s.static_fraction() - 0.3).abs() < 1e-12);
        assert_eq!(PolicyKind::Cblru.static_fraction(), 0.0);
    }

    #[test]
    fn validation_catches_errors() {
        let mut c = HybridConfig::paper(1 << 20, 1 << 24, PolicyKind::Cblru);
        c.policy = PolicyKind::Cbslru {
            static_fraction: 1.5,
        };
        assert!(c.validate().is_err());

        let mut c = HybridConfig::paper(1 << 20, 1 << 24, PolicyKind::Cblru);
        c.ssd_result_bytes = 1; // smaller than a block but non-zero
        assert!(c.validate().is_err());
    }

    #[test]
    fn admission_defaults_and_validation() {
        let c = HybridConfig::paper(1 << 20, 1 << 24, PolicyKind::Cblru);
        assert_eq!(c.admission.policy, AdmissionPolicy::Static);
        c.admission.validate().unwrap();
        let s = AdmissionConfig::sketch_default();
        assert_eq!(s.policy, AdmissionPolicy::Sketch);

        let mut c = HybridConfig::paper(1 << 20, 1 << 24, PolicyKind::Cblru);
        c.admission.reset_window = 0;
        assert!(c.validate().is_err());
        let mut c = HybridConfig::paper(1 << 20, 1 << 24, PolicyKind::Cblru);
        c.admission.sketch_width = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn ssd_footprint() {
        let c = HybridConfig::paper(1 << 20, 10 << 20, PolicyKind::Cblru);
        // 2 MB RC -> 16 slots, 8 MB IC -> 64 blocks.
        assert_eq!(c.result_slots(), 16);
        assert_eq!(c.list_blocks(), 64);
        assert_eq!(c.ssd_sectors(), 80 * 256);
    }
}
