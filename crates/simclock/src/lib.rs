//! Simulated-time primitives and deterministic randomness.
//!
//! Every simulator in this workspace runs on *virtual* time: devices return
//! a [`SimDuration`] per request and the experiment driver advances a
//! [`Clock`]. Nothing reads the wall clock, so every experiment is
//! reproducible bit-for-bit from its seed.
//!
//! The crate also carries the deterministic RNG ([`rng::Rng`], a
//! xoshiro256** generator seeded through SplitMix64) and the distribution
//! samplers the workload generators need ([`dist::Zipf`] for popularity,
//! [`dist::Exponential`] for arrival gaps). We implement these ourselves
//! rather than pulling in `rand_distr`, keeping the dependency set to the
//! sanctioned crates.

pub mod dist;
pub mod rng;
pub mod stats;
pub mod time;

pub use dist::Zipf;
pub use rng::Rng;
pub use stats::{quantile_exact, Histogram, RunningStats};
pub use time::{Clock, SimDuration, SimTime};
