//! Shared experiment plumbing: machine construction, the per-worker
//! machine slot, and verified workload runs.

use std::fmt;

use diag_baseline::{InOrder, O3Config, OooCpu};
use diag_core::Diag;
use diag_pipeline::{run_key, Session};
use diag_sim::{Machine, RunStats, SimError};
use diag_workloads::{Params, WorkloadSpec};

pub use diag_core::MachineSpec;

/// Constructs the machine a [`MachineSpec`] names. Specs are plain data
/// (defined in `diag-core`, hashed by the pipeline, echoed over the
/// wire); this and [`MachineSlot`] are where they become simulators —
/// the baselines live in `diag-baseline`, which the spec type itself
/// cannot see.
pub fn build_machine(spec: &MachineSpec) -> Box<dyn Machine> {
    match Held::build(spec) {
        Held::Diag(m) => m,
        Held::Ooo(m) => m,
        Held::InOrder(m) => m,
    }
}

/// One worker's machine, kept from run to run.
///
/// A sweep or serve worker asks its slot for each run's machine. The
/// slot hands back the machine it holds, re-shaped to the new spec, when
/// that is of the same family with the same cache geometry; the run's
/// [`Machine::load`] then resets it in place. Otherwise it drops the
/// held machine and builds the new one, so a worker holds at most one
/// machine. A reused machine is indistinguishable from a fresh one (see
/// DESIGN.md), so results do not depend on what ran before.
#[derive(Debug, Default)]
pub struct MachineSlot {
    held: Option<Held>,
    builds: u64,
}

/// The machine a [`MachineSlot`] holds.
#[derive(Debug)]
enum Held {
    Diag(Box<Diag>),
    Ooo(Box<OooCpu>),
    InOrder(Box<InOrder>),
}

impl Held {
    fn build(spec: &MachineSpec) -> Held {
        match spec {
            MachineSpec::Diag(cfg) => Held::Diag(Box::new(Diag::new(cfg.clone()))),
            MachineSpec::Ooo(cores) => {
                Held::Ooo(Box::new(OooCpu::new(O3Config::aggressive_8wide(), *cores)))
            }
            MachineSpec::InOrder => Held::InOrder(Box::default()),
        }
    }

    /// Re-shapes this machine into `spec`'s if it is of the same family
    /// with the same caches; returns whether it did. (Every `ooo` spec
    /// has the same core configuration, so only its core count varies.)
    fn reshape(&mut self, spec: &MachineSpec) -> bool {
        match (self, spec) {
            (Held::Diag(m), MachineSpec::Diag(cfg)) if m.same_caches(cfg) => m.reshape(cfg),
            (Held::Ooo(m), MachineSpec::Ooo(cores)) => m.set_max_cores(*cores),
            (Held::InOrder(_), MachineSpec::InOrder) => {}
            _ => return false,
        }
        true
    }
}

impl MachineSlot {
    /// An empty slot.
    pub fn new() -> MachineSlot {
        MachineSlot::default()
    }

    /// The machine `spec` names, ready for a [`Machine::load`]: the held
    /// one re-shaped in place, or a fresh build.
    pub fn machine(&mut self, spec: &MachineSpec) -> &mut dyn Machine {
        if !self.held.as_mut().is_some_and(|held| held.reshape(spec)) {
            // Drop the old machine before building: never hold two.
            self.held = None;
            self.builds += 1;
        }
        match self.held.get_or_insert_with(|| Held::build(spec)) {
            Held::Diag(m) => m.as_mut(),
            Held::Ooo(m) => m.as_mut(),
            Held::InOrder(m) => m.as_mut(),
        }
    }

    /// Machines this slot has built.
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// Drops the held machine, if any: after a panic its state is
    /// unknown.
    pub fn clear(&mut self) {
        self.held = None;
    }
}

/// Why one workload run failed. Carries enough context to be printed in
/// an experiment report without the surrounding run table.
#[derive(Debug, Clone)]
pub enum RunError {
    /// The workload's program failed to assemble.
    Build {
        /// Workload name.
        workload: String,
        /// Assembler error text.
        message: String,
    },
    /// The simulation itself errored (cycle limit, illegal instruction…).
    Sim {
        /// Workload name.
        workload: String,
        /// Machine label.
        machine: String,
        /// The underlying simulator error.
        error: SimError,
    },
    /// The run completed but produced wrong architectural results.
    Verify {
        /// Workload name.
        workload: String,
        /// Machine label.
        machine: String,
        /// Verifier error text.
        message: String,
    },
    /// The run panicked (a simulator bug; caught so a sweep can finish).
    Panicked {
        /// Workload name.
        workload: String,
        /// Machine label.
        machine: String,
        /// Panic payload, if it was a string.
        message: String,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Build { workload, message } => {
                write!(f, "{workload}: build failed: {message}")
            }
            RunError::Sim {
                workload,
                machine,
                error,
            } => {
                write!(f, "{workload} on {machine}: {error}")
            }
            RunError::Verify {
                workload,
                machine,
                message,
            } => {
                write!(f, "{workload} on {machine}: verification failed: {message}")
            }
            RunError::Panicked {
                workload,
                machine,
                message,
            } => {
                write!(f, "{workload} on {machine}: panicked: {message}")
            }
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Sim { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// Runs `spec` on an already-constructed `machine`, preparing the
/// program (and, for the baselines, the shared [`StationTable`]
/// lowering) through `session` — callers that attach a tracer or
/// profiler before running use this directly.
///
/// DiAG populates its per-cluster station arenas at line-load time
/// (§4.2), so it mounts the bare program; the baselines adopt the
/// session's whole-text table instead of lowering their own.
///
/// [`StationTable`]: diag_isa::StationTable
///
/// # Errors
///
/// Returns a [`RunError`] describing the failing stage — build, simulate,
/// or verify.
pub fn run_built(
    session: &Session,
    machine_spec: &MachineSpec,
    spec: &WorkloadSpec,
    params: &Params,
    machine: &mut dyn Machine,
) -> Result<RunStats, RunError> {
    let build_err = |message: String| RunError::Build {
        workload: spec.name.to_string(),
        message,
    };
    let built = session.workload(spec, params).map_err(build_err)?;
    let stats = match machine_spec {
        MachineSpec::Diag(_) => machine.run(&built.program, params.threads),
        MachineSpec::Ooo(_) | MachineSpec::InOrder => {
            let stations = session.stations(spec, params, None).map_err(build_err)?;
            machine.run_prepared(&built.program, &stations, params.threads)
        }
    }
    .map_err(|e| RunError::Sim {
        workload: spec.name.to_string(),
        machine: machine_spec.label(),
        error: e,
    })?;
    (built.verify)(&*machine).map_err(|e| RunError::Verify {
        workload: spec.name.to_string(),
        machine: machine_spec.label(),
        message: e,
    })?;
    Ok(stats)
}

/// One workload run through a shared artifact `session`: prepares,
/// executes, verifies, returns statistics. Repeated runs of the same
/// `(spec, params)` reuse one assembly and one station-table lowering —
/// and a repeat of the same `(workload, params, machine_spec)` triple is
/// served from the session's run-stage memo without constructing a
/// machine or stepping it at all (memory first, then the disk blob
/// layer). Only successful, verified runs are memoized; failures take
/// the full path every time so their typed [`RunError`] is preserved.
///
/// Callers that attach instrumentation (tracer, profiler, commit log)
/// use [`run_built`] directly with their own machine, which never
/// consults the memo — an instrumented run must actually execute.
///
/// # Errors
///
/// Returns a [`RunError`] describing the failing stage — build, simulate,
/// or verify — so sweeps can aggregate failures instead of aborting.
pub fn run_verified_with(
    session: &Session,
    machine_spec: &MachineSpec,
    spec: &WorkloadSpec,
    params: &Params,
) -> Result<RunStats, RunError> {
    run_verified_in(&mut MachineSlot::new(), session, machine_spec, spec, params)
}

/// [`run_verified_with`] on the machine `slot` holds (see
/// [`MachineSlot::machine`]): a memo miss builds a machine only when the
/// slot cannot re-shape the one it holds.
///
/// # Errors
///
/// As [`run_verified_with`].
pub fn run_verified_in(
    slot: &mut MachineSlot,
    session: &Session,
    machine_spec: &MachineSpec,
    spec: &WorkloadSpec,
    params: &Params,
) -> Result<RunStats, RunError> {
    let key = run_key(spec.name, params, machine_spec);
    if let Some(stats) = session.cached_run(key) {
        return Ok(stats);
    }
    let machine = slot.machine(machine_spec);
    let stats = run_built(session, machine_spec, spec, params, machine)?;
    session.record_run(key, stats);
    Ok(stats)
}

/// The paper's multi-threaded configuration: 12 threads (one per baseline
/// core, §7.1).
pub const MT_THREADS: usize = 12;

#[cfg(test)]
mod tests {
    use super::*;
    use diag_core::DiagConfig;
    use diag_workloads::find;

    #[test]
    fn run_verified_produces_stats() {
        let spec = find("x264").unwrap();
        let stats = run_verified_with(
            &Session::in_memory(),
            &MachineSpec::InOrder,
            &spec,
            &Params::tiny(),
        )
        .unwrap();
        assert!(stats.cycles > 0);
        assert!(stats.committed > 0);
    }

    #[test]
    fn labels_are_informative() {
        assert!(MachineSpec::Diag(DiagConfig::f4c32())
            .label()
            .contains("512"));
        assert!(MachineSpec::Ooo(12).label().contains("x12"));
    }

    #[test]
    fn warm_resubmission_executes_zero_machine_steps() {
        // The acceptance test for run memoization: a second run of the
        // same (workload, params, machine_spec) through the same session
        // must not step a machine at all — `diag_sim::machine_steps` is
        // the counting hook bumped by every default run loop, per thread,
        // and `run_verified_with` runs its machine on this thread.
        let session = Session::in_memory();
        let spec = find("hotspot").unwrap();
        let machine = MachineSpec::Diag(DiagConfig::f4c2());
        let params = Params::tiny();

        let cold = run_verified_with(&session, &machine, &spec, &params).unwrap();
        let runs = session.counters().runs;
        assert_eq!((runs.hits, runs.builds), (0, 1));

        let steps_before = diag_sim::machine_steps();
        let warm = run_verified_with(&session, &machine, &spec, &params).unwrap();
        assert_eq!(
            diag_sim::machine_steps(),
            steps_before,
            "memoized resubmission stepped a machine"
        );
        assert_eq!(warm, cold);
        let runs = session.counters().runs;
        assert_eq!((runs.hits, runs.builds), (1, 1));

        // A different machine spec is a different run key: it simulates.
        let other = MachineSpec::InOrder;
        run_verified_with(&session, &other, &spec, &params).unwrap();
        assert_eq!(session.counters().runs.builds, 2);
    }

    #[test]
    fn slot_reshapes_within_a_family_and_rebuilds_across() {
        let mut slot = MachineSlot::new();
        let f4c32 = DiagConfig::f4c32();
        let mut narrow = f4c32.clone();
        narrow.clusters = 8;
        narrow.lsu_depth = 4;
        let mut small_l2 = f4c32.clone();
        small_l2.l2 = Some(diag_mem::CacheConfig::l2(1));
        let specs = [
            (MachineSpec::Diag(f4c32.clone()), 1),
            (MachineSpec::Diag(narrow), 1),
            (MachineSpec::Diag(small_l2), 2),
            (MachineSpec::Ooo(12), 3),
            (MachineSpec::Ooo(2), 3),
            (MachineSpec::InOrder, 4),
            (MachineSpec::InOrder, 4),
            (MachineSpec::Diag(f4c32), 5),
        ];
        for (spec, builds) in specs {
            let name = slot.machine(&spec).name();
            assert_eq!(name, build_machine(&spec).name());
            assert_eq!(slot.builds(), builds, "{}", spec.render());
        }
        slot.clear();
        slot.machine(&MachineSpec::InOrder);
        assert_eq!(slot.builds(), 6);
    }

    #[test]
    fn failed_runs_are_not_memoized() {
        let session = Session::in_memory();
        let spec = find("hotspot").unwrap();
        let mut cfg = DiagConfig::f4c2();
        cfg.max_cycles = 10;
        let machine = MachineSpec::Diag(cfg);
        let err = run_verified_with(&session, &machine, &spec, &Params::tiny()).unwrap_err();
        assert!(matches!(err, RunError::Sim { .. }), "{err}");
        let runs = session.counters().runs;
        assert_eq!(
            (runs.hits, runs.builds),
            (0, 0),
            "failures must not occupy the run memo"
        );
        // The retry keeps its typed error (and still does not memoize).
        let err = run_verified_with(&session, &machine, &spec, &Params::tiny()).unwrap_err();
        assert!(matches!(err, RunError::Sim { .. }), "{err}");
    }

    #[test]
    fn run_errors_display_the_failing_stage() {
        let e = RunError::Verify {
            workload: "hotspot".to_string(),
            machine: "in-order".to_string(),
            message: "word 0 mismatch".to_string(),
        };
        let text = e.to_string();
        assert!(text.contains("hotspot"));
        assert!(text.contains("verification failed"));
    }
}
