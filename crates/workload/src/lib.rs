//! Workload generation.
//!
//! The paper drives its evaluation with the AOL query log over a 5 M-doc
//! enwiki index. Two of its observations pin down what a faithful
//! synthetic log must reproduce (Sec. III): *the access frequency of terms
//! follows a Zipf-like distribution*, and *repetitions in the query stream
//! make result caching effective*. [`QueryLog`] generates exactly that: a
//! stream whose **query popularity** is Zipf over a distinct-query
//! universe, where each distinct query is a deterministic 1–4-term bag
//! drawn from a Zipf **term popularity** distribution.
//!
//! [`sweep`] holds the embarrassingly-parallel parameter-sweep helper the
//! figure harnesses use (one independent simulation per thread, following
//! the data-parallel idiom of the hpc-parallel guides).

pub mod arrival;
pub mod ingest;
pub mod querylog;
pub mod scenario;
pub mod sweep;

pub use arrival::{offered_qps, Arrival, ArrivalKind, ArrivalProcess};
pub use ingest::{IngestSpec, IngestStream, MutationOp, TimedMutation};
pub use querylog::{Query, QueryLog, QueryLogSpec};
pub use scenario::{DriftingZipfLog, ScanHeavyLog, TopicChurnLog};
pub use sweep::parallel_map;
