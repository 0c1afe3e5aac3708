//! Mechanical hard-disk drive timing model.
//!
//! The paper's backing store is a WDC WD3200AAJS (7200 RPM, 320 GB). Its
//! role in every experiment is to be *slow at random reads and decent at
//! sequential ones* — so the model concentrates on exactly the three
//! components that produce that behaviour:
//!
//! * a **seek curve**: track-to-track minimum, square-root ramp over short
//!   distances, linear tail to the full-stroke maximum (the classic
//!   Ruemmler–Wilkes shape);
//! * **rotational latency**: half a revolution on average after any seek;
//! * **media transfer** proportional to the request size, plus a fixed
//!   controller overhead per command.
//!
//! A small **read-ahead cache** models the drive's track buffer: after any
//! read the drive is assumed to have buffered the following
//! [`HddParams::readahead_sectors`] sectors, so a short forward sequential
//! read is served at buffer speed with no mechanical cost. Sequential
//! *appends* at the head position likewise skip the seek.

pub mod model;
pub mod params;

pub use model::HddDisk;
pub use params::HddParams;
