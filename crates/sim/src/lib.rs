//! Deterministic discrete-event simulation engine.
//!
//! This crate is the lowest substrate of the MIND reproduction: a nanosecond
//! virtual clock ([`time::SimTime`]), a stable-ordered event queue
//! ([`event::EventQueue`]), a seedable deterministic random number generator
//! ([`rng::SimRng`]), and the statistics toolkit ([`stats`]) used by the
//! evaluation harness (histograms, counters, time series, and Jain's fairness
//! index from the paper's Figure 8).
//!
//! Everything in the workspace that "takes time" is expressed in terms of
//! [`time::SimTime`], so simulation runs are bit-for-bit reproducible from a
//! seed.

#![forbid(unsafe_code)]

pub mod env;
pub mod event;
pub mod hash;
pub mod intern;
pub mod rng;
pub mod stats;
pub mod threads;
pub mod time;

pub use event::EventQueue;
pub use rng::SimRng;
pub use threads::{ThreadBudget, ThreadReservation};
pub use time::SimTime;
