//! The four workloads: engine configuration, query stream and work
//! counts of each. Work is fixed here as query and operation *counts*;
//! `--seconds` only decides how many times a run repeats them. The
//! engine only ever sees generated `Query` and `MutationOp` values.

use engine::{CompactionMode, EngineConfig, IndexMutability, IndexPlacement, LiveConfig};
use hybridcache::{HybridConfig, PolicyKind};
use searchidx::{GrowthPolicy, SegmentPolicy};
use simclock::Rng;
use workload::{IngestSpec, IngestStream, MutationOp, QueryLog, QueryLogSpec};

const MIB: u64 = 1 << 20;

/// The query stream is generated in chunks of this many queries, outside
/// the timed sections.
pub const CHUNK: usize = 65_536;

/// `--smoke` divides every count by this.
const SMOKE_DIVISOR: usize = 50;

/// Which layers a workload leans on; decides its configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    SteadyHybrid,
    HotResident,
    UncachedHdd,
    IngestMix,
}

/// One workload: its name, corpus and work counts.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    kind: Kind,
    pub docs: u64,
    /// Queries run before the measured window opens.
    pub warmup: usize,
    /// Queries in the measured window of one rep.
    pub measured: usize,
    /// Mutation ops applied per 100 measured queries.
    pub ops_per_100: u64,
}

/// Sizes are chosen so one timed rep takes 2–3.5 s on the 2-vCPU
/// reference host and a whole run (several reps, each with its own
/// set-up) stays near 15 s; see the README for the probe figures.
pub const ALL: [Workload; 4] = [
    Workload {
        name: "steady_hybrid",
        kind: Kind::SteadyHybrid,
        docs: 400_000,
        warmup: 20_000,
        measured: 30_000,
        ops_per_100: 0,
    },
    Workload {
        name: "hot_resident",
        kind: Kind::HotResident,
        docs: 400_000,
        warmup: 200_000,
        measured: 5_000_000,
        ops_per_100: 0,
    },
    Workload {
        name: "uncached_hdd",
        kind: Kind::UncachedHdd,
        docs: 400_000,
        warmup: 5_000,
        measured: 15_000,
        ops_per_100: 0,
    },
    Workload {
        name: "ingest_mix",
        kind: Kind::IngestMix,
        docs: 40_000,
        warmup: 20_000,
        measured: 4_000,
        ops_per_100: 25,
    },
];

/// Queries the CBSLRU log analysis reads before the run.
const STATIC_ANALYSIS_LEN: usize = 50_000;

/// Vocabulary ingested documents draw their terms from.
const INGEST_VOCAB: u64 = 4_000;

pub fn find(name: &str) -> Option<Workload> {
    ALL.into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The workload at `--smoke` scale.
    pub fn smoke(self) -> Workload {
        Workload {
            warmup: (self.warmup / SMOKE_DIVISOR).max(1),
            measured: (self.measured / SMOKE_DIVISOR).max(1),
            ..self
        }
    }

    /// Queries per timed slice: a rep is timed in ~256 slices of about
    /// 10 ms, with the host-speed kernel (half a millisecond) run between
    /// them, so that a burst of host contention shorter than a rep spoils
    /// only the slices it overlaps.
    pub fn slice(&self) -> usize {
        (self.measured / 256).max(1)
    }

    /// Total mutation ops of one rep.
    pub fn ops(&self) -> usize {
        (self.measured as u64 * self.ops_per_100 / 100) as usize
    }

    /// One query in this many is also run by the oracle engine in the
    /// traced pass (about a thousand checks per pass whatever its length).
    pub fn oracle_stride(&self) -> usize {
        (self.measured / 1_024).max(1)
    }

    /// The measured engine's configuration; the seed is the run's seed.
    pub fn config(&self, seed: u64) -> EngineConfig {
        match self.kind {
            Kind::SteadyHybrid => EngineConfig::cached(
                self.docs,
                HybridConfig::paper(
                    16 * MIB,
                    160 * MIB,
                    PolicyKind::Cbslru {
                        static_fraction: 0.3,
                    },
                ),
                seed,
            ),
            Kind::HotResident => EngineConfig::cached(
                self.docs,
                HybridConfig::paper(64 * MIB, 640 * MIB, PolicyKind::Cblru),
                seed,
            ),
            Kind::UncachedHdd => EngineConfig::no_cache(self.docs, IndexPlacement::Hdd, seed),
            Kind::IngestMix => EngineConfig {
                mutability: live(),
                ..EngineConfig::cached(
                    self.docs,
                    HybridConfig::paper(4 * MIB, 40 * MIB, PolicyKind::Cblru),
                    seed,
                )
            },
        }
    }

    /// The oracle of the traced pass: the same corpus with no cache at
    /// all (a live one where the workload mutates), run in reference mode.
    pub fn oracle_config(&self, seed: u64) -> EngineConfig {
        let mut cfg = EngineConfig::no_cache(self.docs, IndexPlacement::Hdd, seed);
        if self.kind == Kind::IngestMix {
            cfg.mutability = live();
        }
        cfg
    }

    /// The paper's baseline for the fidelity metrics: the same cache
    /// under plain LRU. Only `steady_hybrid` has one.
    pub fn lru_baseline_config(&self, seed: u64) -> Option<EngineConfig> {
        (self.kind == Kind::SteadyHybrid).then(|| {
            EngineConfig::cached(
                self.docs,
                HybridConfig::paper(16 * MIB, 160 * MIB, PolicyKind::Lru),
                seed,
            )
        })
    }

    /// Log entries the static-partition analysis reads, where the policy
    /// has a static partition.
    pub fn static_analysis_len(&self) -> Option<usize> {
        (self.kind == Kind::SteadyHybrid).then_some(STATIC_ANALYSIS_LEN)
    }

    /// The query generator. `engine_log` is the measured engine's own
    /// log (AOL-like over its vocabulary, seeded from the run's seed).
    pub fn query_log(&self, engine_log: &QueryLog) -> QueryLog {
        let base = engine_log.spec().clone();
        match self.kind {
            Kind::SteadyHybrid | Kind::IngestMix => engine_log.clone(),
            // 2 000 distinct queries are ~40 MB of results: they fit.
            Kind::HotResident => QueryLog::new(QueryLogSpec {
                distinct_queries: 2_000,
                ..base
            }),
            // With no cache, popularity skew changes nothing the engine
            // does; it only lets a handful of hot queries decide the
            // mean, which differs seed to seed. Near-uniform popularity
            // makes the sample mean converge.
            Kind::UncachedHdd => QueryLog::new(QueryLogSpec {
                query_alpha: 0.05,
                ..base
            }),
        }
    }

    /// The stream's generator state: salted so the measured stream is not
    /// the sample path `seed_static_from_log` analyses.
    pub fn stream_rng(&self, seed: u64) -> Rng {
        Rng::new(seed ^ 0x0BE7_C4A1_57EA_D1E5)
    }

    /// The rep's mutation ops, in application order.
    pub fn mutation_ops(&self, seed: u64) -> Vec<MutationOp> {
        if self.ops() == 0 {
            return Vec::new();
        }
        IngestStream::new(IngestSpec::small(INGEST_VOCAB, seed))
            .generate(self.ops())
            .into_iter()
            .map(|m| m.op)
            .collect()
    }
}

/// The eager lifecycle `perf_regress`'s mutation arm pins: seal every 16
/// documents, compact at fan-in 3, cooperative cache coherence.
fn live() -> IndexMutability {
    IndexMutability::Live(LiveConfig {
        segments: SegmentPolicy {
            seal_threshold_docs: 16,
            compact_fanin: 3,
            growth: GrowthPolicy::Contiguous,
        },
        compaction: CompactionMode::Cooperative,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_benchmark_json() {
        let spec = crate::spec::load();
        let names: Vec<&str> = ALL.iter().map(|w| w.name).collect();
        assert_eq!(names, spec.workloads);
    }

    #[test]
    fn smoke_scale_keeps_every_count_positive() {
        for w in ALL {
            let s = w.smoke();
            assert!(s.warmup >= 1 && s.measured >= 1 && s.slice() >= 1);
            assert!(s.measured <= w.measured / 50 + 1);
        }
    }

    #[test]
    fn op_schedule_is_a_pure_function_of_the_seed() {
        let w = find("ingest_mix").unwrap().smoke();
        assert_eq!(w.mutation_ops(7), w.mutation_ops(7));
        assert_ne!(w.mutation_ops(7), w.mutation_ops(8));
        assert_eq!(w.mutation_ops(7).len(), w.ops());
        assert!(find("uncached_hdd").unwrap().mutation_ops(7).is_empty());
    }
}
