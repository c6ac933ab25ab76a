//! # diag-baseline — the out-of-order CPU baseline (and in-order reference)
//!
//! Models the comparison hardware of the paper's evaluation (§7.1): an
//! aggressive 8-issue out-of-order core with 2-cycle front-end stages
//! ([`O3Config::aggressive_8wide`]), replicated into a 12-core multicore
//! with private L1s and a shared L2 ([`OooCpu::paper_baseline`]), plus a
//! single-issue in-order reference machine ([`InOrder`]) used as the
//! golden model in differential tests.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bpred;
mod config;
mod core;
mod fu;
mod inorder;
mod machine;
mod util;

pub use bpred::{BranchPredictor, Prediction};
pub use config::O3Config;
pub use core::{CoreStorage, O3Core};
pub use fu::{FuPool, FuSet};
pub use inorder::InOrder;
pub use machine::OooCpu;
pub use util::{Bandwidth, IssueMeter};
