//! The end-to-end simulated search engine.
//!
//! Wires every substrate together the way the paper's testbed does:
//! a [`searchidx::SyntheticIndex`] laid out on a simulated disk
//! ([`hddsim::HddDisk`] or a [`flashsim::SsdDisk`]), a
//! [`workload::QueryLog`] for the request stream, and — in the cached
//! configurations — a [`hybridcache::CacheManager`] whose second level
//! lives on a flash-simulated SSD, so erase counts and flash access times
//! are *measured* outputs, not inputs.
//!
//! [`SearchEngine::run`] executes a query stream on the virtual clock and
//! produces a [`RunReport`] with the exact quantities the paper's figures
//! plot: average response time, throughput, hit ratios, SSD block-erase
//! counts and flash average access time, plus the measured Table-I
//! situation breakdown.

pub mod cluster;
pub mod config;
pub mod engine;
pub mod mutation;
pub mod payload;
pub mod report;
pub mod serving;
pub mod situations;

pub use cluster::{ClusterReport, SearchCluster};
pub use config::{
    CompactionMode, CpuCostModel, EngineConfig, IndexMutability, IndexPlacement, LiveConfig,
};
pub use engine::SearchEngine;
pub use payload::CachedResult;
pub use report::{FlashReport, RunReport};
pub use searchidx::PostingsBackend;
pub use serving::{
    detect_knee, FrontQueue, LoadPoint, OpenLoopConfig, Outcome, OutcomeLedger, QueryRecord,
    ServingReport, ServingSim, ShedPolicy,
};
pub use situations::{Situation, SituationTable};
