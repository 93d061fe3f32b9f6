//! Programmable switch ASIC model.
//!
//! Models the resource-constrained substrate that MIND's in-network memory
//! management must fit into (paper §2.1, §6.3): a TCAM supporting
//! longest-prefix-match over power-of-two ranges with a hard entry capacity
//! ([`tcam`]) and SRAM partitioned into fixed-size directory slots with a
//! free list ([`sram`]). The control program on the switch CPU, which
//! installs rules and keeps the state a backup switch is built from, is
//! `mind-core`'s controller. The match-action pipeline is not modelled
//! here: its one effect, the fixed delay and count of a directory
//! transition's recirculation (Figure 4), is charged by `mind-core`'s
//! coherence engine.
//!
//! The crate deliberately contains *mechanism only*; MIND's policies
//! (translation layout, protection classes, the MSI protocol, bounded
//! splitting) live in `mind-core` and are expressed against these containers
//! so that every entry they consume is counted against realistic capacities
//! (30 k directory slots, 45 k match-action rules — Figure 8).

#![forbid(unsafe_code)]

pub mod sram;
pub mod tcam;

pub use sram::SlotStore;
pub use tcam::{pow2_cover, Tcam, TcamEntry};
