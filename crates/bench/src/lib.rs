//! # diag-bench — experiment harness for the DiAG reproduction
//!
//! Regenerates every table and figure of the paper's evaluation (§6–§7):
//! one function per artifact in [`experiments`], shared machine/workload
//! plumbing in [`runner`], the parallel work-queue runner in [`sweep`],
//! the shared subcommand flag parser in [`cli`], and a CLI binary
//! (`harness`) that prints the same rows/series the paper reports with
//! the paper's published values alongside. Host-time measurement of the
//! simulator itself lives in the repository's `benchmark/` package.
//!
//! Experiments enqueue every `(machine, workload, params)` simulation
//! into a [`sweep::Sweep`] and assemble their tables from the results in
//! submission order, so `harness --jobs N` output is byte-identical to a
//! serial run. All preparation — workload assembly, station-table
//! lowering, static analysis — flows through a `diag_pipeline::Session`,
//! a content-addressed artifact store shared across a whole invocation
//! (and, via its disk layer, across processes).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod experiments;
pub mod hostmeta;
pub mod metricsfmt;
pub mod runner;
pub mod sweep;
pub mod tune;
