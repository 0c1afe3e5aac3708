//! Engine configuration and the CPU cost model.

use hybridcache::HybridConfig;
use searchidx::{PostingsBackend, TopKConfig};
use simclock::SimDuration;

/// Where the index files live (the paper's "HDD" vs "SSD" index storage
/// variants of Figs. 15, 16(a) and 18(a)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexPlacement {
    /// Index files on the mechanical disk (the usual configuration).
    Hdd,
    /// Index files directly on an SSD (the "replace HDD with SSD"
    /// comparison point).
    Ssd,
}

/// CPU-side costs of query processing. These make "response time" and
/// "throughput" well-defined on the virtual clock; the values are
/// calibrated to a mid-2000s Pentium Dual-Core like the paper's testbed.
#[derive(Debug, Clone, Copy)]
pub struct CpuCostModel {
    /// Fixed per-query cost (parse, dispatch, rank finalization).
    pub per_query: SimDuration,
    /// Cost per posting scored.
    pub per_posting: SimDuration,
    /// Cost per document assembled into the result page (snippets etc.).
    pub per_result_doc: SimDuration,
    /// Cost per byte served from the in-memory cache (bandwidth model).
    pub mem_per_kb: SimDuration,
}

impl Default for CpuCostModel {
    fn default() -> Self {
        CpuCostModel {
            per_query: SimDuration::from_micros(500),
            // Calibrated to the paper's testbed: Java Lucene 3.0 scoring
            // on a Pentium E2180 spends microseconds per posting, which
            // is what puts its uncached 5M-doc responses in the 100+ ms
            // band and makes raw SSD index storage "not obvious as
            // expected" (Fig. 15) — the CPU, not the seek, is the floor.
            per_posting: SimDuration::from_micros(8),
            per_result_doc: SimDuration::from_micros(10),
            mem_per_kb: SimDuration::from_nanos(100), // ~10 GB/s
        }
    }
}

impl CpuCostModel {
    /// Memory-service cost for `bytes`.
    pub fn mem_read(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(self.mem_per_kb.as_nanos() * bytes / 1024)
    }
}

/// How the engine keeps the cache coherent with a compaction merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompactionMode {
    /// Targeted: invalidate only the `(segment, term)` keys of the
    /// retired input segments, then re-offer the merged survivors under
    /// the output segment's key through the normal admission gate (the
    /// carried frequency is what earns them their slot back).
    #[default]
    Cooperative,
    /// Naive: drop every cached list on every merge. The trivially
    /// correct baseline the `ext_ingest` sweep compares against.
    InvalidateAll,
}

/// Knobs of a mutable index.
#[derive(Debug, Clone, Default)]
pub struct LiveConfig {
    /// Segment lifecycle policy (seal threshold, compaction fan-in,
    /// write-segment growth strategy).
    pub segments: searchidx::SegmentPolicy,
    /// Cache-coherence strategy for compaction merges.
    pub compaction: CompactionMode,
}

/// Whether the index accepts mutations at run time.
///
/// Either way the engine holds one [`searchidx::LiveIndex`] over the base
/// corpus, and until its first mutation that index delegates every read
/// to the base. `Frozen` means only that mutations are refused: it can
/// never leave that state, and the segment policy is never consulted.
/// A zero-ingest `Live` run is bit-identical to a `Frozen` one (the
/// `mutation_equivalence` suite asserts it on every simulated figure).
#[derive(Debug, Clone, Default)]
pub enum IndexMutability {
    /// Mutations are refused.
    #[default]
    Frozen,
    /// Mutations are accepted: WAL + write segment + sealed segments +
    /// tombstones + background compaction.
    Live(LiveConfig),
}

impl IndexMutability {
    /// Whether mutations are accepted.
    pub fn is_live(&self) -> bool {
        matches!(self, IndexMutability::Live(_))
    }
}

/// Full experiment configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Documents in the synthetic collection (the paper sweeps 1–5 M).
    pub docs: u64,
    /// Master seed for corpus, log and devices.
    pub seed: u64,
    /// The cache hierarchy; `None` runs the no-cache baseline (Fig. 15).
    pub cache: Option<HybridConfig>,
    /// Where the index files live.
    pub index_placement: IndexPlacement,
    /// Query-processing knobs.
    pub topk: TopKConfig,
    /// Which posting-list representation the processor scans. Both
    /// backends produce bit-identical simulated figures (the
    /// `postings_lockstep` test asserts it); `Blocked` is the fast default.
    pub postings: PostingsBackend,
    /// CPU cost model.
    pub cost: CpuCostModel,
    /// Capture the index-device I/O trace (Fig. 1(b)).
    pub capture_trace: bool,
    /// Outstanding foreground requests each device's submission queue
    /// admits. 1 (the default; 0 is taken as 1) is the synchronous model
    /// every figure is calibrated on: one request in flight, its
    /// completion awaited. Larger depths queue requests and dispatch the
    /// one nearest the device head first.
    pub queue_depth: usize,
    /// Whether the index accepts run-time mutations. `Frozen` (the
    /// default) = mutations refused.
    pub mutability: IndexMutability,
}

impl EngineConfig {
    /// The default query-processing configuration for a collection of
    /// `docs` documents. The accumulator budget scales with the
    /// collection (Lucene 3.0 scored every matching document; the quit
    /// strategy's budget is what bounds work in our processor), so
    /// response time grows with the collection size the way the paper's
    /// Fig. 15 curves do.
    pub fn default_topk(docs: u64) -> TopKConfig {
        TopKConfig {
            accumulator_limit: (docs / 100).clamp(400, 8_000) as usize,
            ..TopKConfig::default()
        }
    }

    /// A no-cache configuration over `docs` documents.
    pub fn no_cache(docs: u64, placement: IndexPlacement, seed: u64) -> Self {
        EngineConfig {
            docs,
            seed,
            cache: None,
            index_placement: placement,
            topk: Self::default_topk(docs),
            postings: PostingsBackend::default(),
            cost: CpuCostModel::default(),
            capture_trace: false,
            queue_depth: 1,
            mutability: IndexMutability::default(),
        }
    }

    /// A cached configuration with index files on HDD.
    pub fn cached(docs: u64, cache: HybridConfig, seed: u64) -> Self {
        EngineConfig {
            cache: Some(cache),
            ..Self::no_cache(docs, IndexPlacement::Hdd, seed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_read_scales() {
        let c = CpuCostModel::default();
        assert_eq!(c.mem_read(0), SimDuration::ZERO);
        assert_eq!(c.mem_read(1024), SimDuration::from_nanos(100));
        assert_eq!(c.mem_read(10 * 1024), SimDuration::from_nanos(1000));
    }

    #[test]
    fn constructors() {
        let c = EngineConfig::no_cache(100_000, IndexPlacement::Hdd, 1);
        assert!(c.cache.is_none());
        let cached = EngineConfig::cached(
            100_000,
            HybridConfig::paper(1 << 20, 16 << 20, hybridcache::PolicyKind::Cblru),
            1,
        );
        assert!(cached.cache.is_some());
        assert_eq!(cached.index_placement, IndexPlacement::Hdd);
    }
}
