//! Programmable switch ASIC model.
//!
//! Models the resource-constrained substrate that MIND's in-network memory
//! management must fit into (paper §2.1, §6.3): a TCAM supporting
//! longest-prefix-match over power-of-two ranges with a hard entry capacity
//! ([`tcam`]), SRAM partitioned into fixed-size directory slots with a free
//! list ([`sram`]), match-action stages with limited per-packet compute that
//! force directory transitions to be split across two MAUs plus a
//! recirculation ([`mau`], [`pipeline`]), and a control-plane CPU that
//! installs rules and can replicate its state to a backup switch
//! ([`control`]).
//!
//! The crate deliberately contains *mechanism only*; MIND's policies
//! (translation layout, protection classes, the MSI protocol, bounded
//! splitting) live in `mind-core` and are expressed against these containers
//! so that every entry they consume is counted against realistic capacities
//! (30 k directory slots, 45 k match-action rules — Figure 8).

#![forbid(unsafe_code)]

pub mod control;
pub mod mau;
pub mod pipeline;
pub mod sram;
pub mod tcam;

pub use control::ControlPlane;
pub use mau::{ExactTable, MauStage};
pub use pipeline::Pipeline;
pub use sram::SlotStore;
pub use tcam::{pow2_cover, Tcam, TcamEntry};
