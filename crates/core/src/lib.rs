//! # diag-core — the DiAG processor model (the paper's primary contribution)
//!
//! A cycle-level model of DiAG, the dataflow-inspired general-purpose
//! architecture of Wang & Kim (ASPLOS 2021): register lanes in place of a
//! register file ([`LaneFile`]), processing clusters holding one I-line
//! each ([`Cluster`]), dataflow rings executing instructions as soon as
//! their lanes are valid while the PC lane retires in order ([`RingSim`]),
//! datapath reuse on backward branches, and SIMT thread pipelining.
//!
//! The entry point is [`Diag`], configured by [`DiagConfig`] (the paper's
//! Table 2 presets are constructors), implementing the workspace-wide
//! [`diag_sim::Machine`] trait.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cluster;
mod config;
mod lane;
mod machine;
mod ring;
mod shared;
mod simt;
mod spec;

pub use cluster::Cluster;
pub use config::{ConfigError, DiagConfig};
pub use lane::{CommitTracker, LaneFile, LaneGeometry};
pub use machine::Diag;
pub use ring::RingSim;
pub use shared::SharedParts;
pub use spec::{apply_override, MachineSpec, DEFAULT_OOO_CORES};
