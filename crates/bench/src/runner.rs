//! Shared experiment plumbing: machine construction and verified
//! workload runs.

use std::fmt;

use diag_baseline::{InOrder, O3Config, OooCpu};
use diag_core::Diag;
use diag_pipeline::{run_key, Session};
use diag_sim::{Machine, RunStats, SimError};
use diag_workloads::{Params, WorkloadSpec};

pub use diag_core::MachineSpec;

/// Constructs the machine a [`MachineSpec`] names. Specs are plain data
/// (defined in `diag-core`, hashed by the pipeline, echoed over the
/// wire); this is the one place they become simulators — the baselines
/// live in `diag-baseline`, which the spec type itself cannot see.
pub fn build_machine(spec: &MachineSpec) -> Box<dyn Machine> {
    match spec {
        MachineSpec::Diag(cfg) => Box::new(Diag::new(cfg.clone())),
        MachineSpec::Ooo(cores) => Box::new(OooCpu::new(O3Config::aggressive_8wide(), *cores)),
        MachineSpec::InOrder => Box::new(InOrder::new()),
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
    let key = run_key(spec.name, params, machine_spec);
    if let Some(stats) = session.cached_run(key) {
        return Ok(stats);
    }
    let mut machine = build_machine(machine_spec);
    let stats = run_built(session, machine_spec, spec, params, machine.as_mut())?;
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
