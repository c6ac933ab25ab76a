//! # diag-sim — shared simulation API for the DiAG reproduction
//!
//! Defines what every processor model in the workspace has in common: the
//! steppable [`Machine`] trait ([`Machine::load`] a bare-metal program with
//! N hardware threads, advance it with [`Machine::step`], read
//! [`Machine::stats`]), the [`RunStats`] structure with the paper's stall
//! taxonomy (§7.3.2) and component-activity counters (Table 3 / Figure 11
//! granularity), the [`SimError`] failure modes, the [`Waves`] run loop of
//! the machines that give each hardware thread its own [`Unit`], and the
//! [`lockstep`] differential driver that diffs two machines' commit
//! streams.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod interp;
pub mod lockstep;
mod machine;
pub mod observe;
mod probes;
mod stats;
mod waves;

pub use lockstep::{run_lockstep, run_lockstep_prepared, Divergence, LockstepOutcome};
pub use machine::{machine_steps, Commit, Machine, SimError, StepOutcome};
pub use observe::{ObservationLog, ObservedRange, Observer, PcObserved, SharedObservations};
pub use probes::{Probes, Retirement};
pub use stats::{Activity, Counters, RunStats, StallBreakdown, StallCause};
pub use waves::{Unit, Waves};
// Convenience re-exports so machine implementors and harnesses don't need
// a direct `diag-trace` dependency for the common plumbing types.
pub use diag_profile::{
    Bucket, Profile, ProfileCollector, ProfileMeta, Profiler, RegionSample, RegionStation,
    RetireSample, SharedCollector,
};
pub use diag_trace::Tracer;

/// Default cycle limit for simulation runs, generous enough for every
/// workload in the workspace while still catching runaway programs.
pub const DEFAULT_CYCLE_LIMIT: u64 = 500_000_000;
