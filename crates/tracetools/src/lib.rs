//! I/O trace tooling.
//!
//! The paper's Sec. III characterizes search-engine storage traffic from
//! two traces — the UMass WebSearch block trace and a DiskMon capture of
//! their Lucene testbed — and reads four properties off them:
//! *read-dominance*, *locality*, *random reads* and *skipped reads*.
//!
//! This crate provides the same toolchain for our simulators:
//!
//! * [`analyze::TraceProfile`] computes those four properties (plus
//!   sequentiality runs and reuse distances) from any event stream
//!   captured via [`storagecore::TraceSink`];
//! * [`synth`] generates a UMass-*shaped* synthetic trace for Fig. 1(a)
//!   (we have no rights to redistribute the original; the scatter's
//!   qualitative banding is what the figure conveys);
//! * [`replay()`](fn@replay) pushes a trace back through any [`storagecore::BlockDevice`]
//!   to measure how a device model serves a recorded workload.

pub mod analyze;
pub mod replay;
pub mod stackdist;
pub mod synth;

pub use analyze::TraceProfile;
pub use replay::replay;
pub use stackdist::StackDistance;
pub use synth::{umass_like, UmassSpec};
