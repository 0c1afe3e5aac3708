//! The benchmark of record for this repository. It drives the simulated
//! search engine only through its public functions, measures it on both
//! clocks — the simulated one the paper's figures live on and the wall
//! clock the simulator itself costs — and attributes both to layers from
//! outside. See `README.md` beside this crate.

pub mod compare;
pub mod counters;
pub mod host;
pub mod hostspeed;
pub mod json;
pub mod metrics;
pub mod pass;
pub mod run;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod workloads;
