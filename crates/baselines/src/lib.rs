//! Baseline systems MIND is compared against (paper §7, "Compared
//! systems").
//!
//! - [`gam`]: GAM adapted to the disaggregated setting — a *software* DSM
//!   whose cache directory lives at compute blades (home-node partitioned),
//!   with the weaker PSO consistency model and per-access user-level
//!   library overhead. Its local accesses are ~10× slower than MIND's
//!   hardware-MMU path, but its weaker consistency lets writes overlap.
//! - [`fastswap`]: FastSwap, a state-of-the-art swap-based disaggregated
//!   memory system. Page-fault driven like MIND, but with **no sharing
//!   across compute blades** — it cannot transparently scale a process
//!   beyond one blade (the non-transparent end of the design space, §2.2).
//!
//! Both implement [`mind_core::system::MemorySystem`] so the trace runner
//! replays identical workloads against all three systems.

#![forbid(unsafe_code)]

pub mod fastswap;
pub mod gam;

pub use fastswap::{FastSwapConfig, FastSwapSystem};
pub use gam::{GamConfig, GamSystem};
