//! A parallel experiment runner.
//!
//! Experiments are two-phase: *enqueue* every `(machine, workload,
//! params)` run into a [`Sweep`], then [`Sweep::execute`] shards the queue
//! across `jobs` OS threads and returns results **in submission order**,
//! regardless of which worker ran what — so experiment output is
//! byte-identical at any job count. Failed runs (including panics inside
//! a simulator) are captured as [`RunError`]s in their slot instead of
//! aborting the whole sweep.
//!
//! The unit of parallelism is one whole simulation run: machines are
//! single-threaded internally (`Rc`-based cache hierarchies), so each
//! worker keeps its machine privately in a [`MachineSlot`], reusing it
//! from run to run, and only the submission queue, the result slots, and
//! the artifact [`Session`] are shared — workloads and station tables are
//! prepared once per key no matter how many queued runs (or workers) want
//! them.
//!
//! # Examples
//!
//! ```
//! use diag_bench::runner::MachineSpec;
//! use diag_bench::sweep::Sweep;
//! use diag_workloads::{find, Params};
//!
//! let spec = find("hotspot").expect("registered");
//! let mut sweep = Sweep::new();
//! let a = sweep.add(MachineSpec::InOrder, spec, Params::tiny());
//! let b = sweep.add(MachineSpec::Ooo(1), spec, Params::tiny());
//! let results = sweep.execute(2);
//! let (slow, fast) = (results.stats(a).unwrap(), results.stats(b).unwrap());
//! assert!(fast.cycles < slow.cycles);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use diag_pipeline::Session;
use diag_sim::RunStats;
use diag_telemetry::{Counter, Histogram, Registry};
use diag_workloads::{Params, WorkloadSpec};

use crate::runner::{run_verified_in, MachineSlot, MachineSpec, RunError};

/// Host-side worker accounting for one sweep, registered under
/// `diag_sweep_*` in a caller-provided [`Registry`]: total busy vs idle
/// worker nanoseconds, per-run wall time, per-run host nanoseconds per
/// committed guest instruction, an ok/error outcome tally, and the
/// machines the workers built. Metrics accumulate across sweeps that
/// share a registry.
#[derive(Debug)]
pub struct SweepMetrics {
    busy_ns: Counter,
    idle_ns: Counter,
    run_ns: Histogram,
    ns_per_instr: Histogram,
    ok: Counter,
    err: Counter,
    machine_builds: Counter,
}

impl SweepMetrics {
    /// Registers (or re-attaches to) the sweep metric family.
    pub fn new(registry: &Registry) -> SweepMetrics {
        SweepMetrics {
            busy_ns: registry.counter("diag_sweep_worker_busy_ns", &[]),
            idle_ns: registry.counter("diag_sweep_worker_idle_ns", &[]),
            run_ns: registry.histogram("diag_sweep_run_ns", &[]),
            ns_per_instr: registry.histogram("diag_sweep_run_ns_per_instr", &[]),
            ok: registry.counter("diag_sweep_runs_total", &[("outcome", "ok")]),
            err: registry.counter("diag_sweep_runs_total", &[("outcome", "error")]),
            machine_builds: registry.counter("diag_sweep_machine_builds_total", &[]),
        }
    }

    /// Accounts one finished run.
    fn observe(&self, host_ns: u64, result: &Result<RunStats, RunError>) {
        self.busy_ns.add(host_ns);
        self.run_ns.record(host_ns);
        match result {
            Ok(stats) => {
                self.ok.inc();
                self.ns_per_instr.record(host_ns / stats.committed.max(1));
            }
            Err(_) => self.err.inc(),
        }
    }

    /// Accounts one worker's full lifetime: whatever was not spent in
    /// runs was spent waiting on the queue (or on shared preparation);
    /// `slot` counted the machines it built.
    fn observe_worker(&self, lifetime_ns: u64, busy_ns: u64, slot: &MachineSlot) {
        self.idle_ns.add(lifetime_ns.saturating_sub(busy_ns));
        self.machine_builds.add(slot.builds());
    }
}

/// Nanoseconds since `t`, saturating at `u64::MAX`.
fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX) // lint: allow(unwrap)
}

/// One queued run: which machine, which workload, which parameters.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// Machine to construct.
    pub machine: MachineSpec,
    /// Workload to build and verify.
    pub spec: WorkloadSpec,
    /// Build/run parameters (scale, threads, SIMT, seed).
    pub params: Params,
}

/// Handle to one queued run, redeemable against [`SweepResults`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunId(usize);

/// A queue of simulation runs executed together.
#[derive(Debug, Default)]
pub struct Sweep {
    runs: Vec<SweepRun>,
}

impl Sweep {
    /// Creates an empty sweep.
    pub fn new() -> Sweep {
        Sweep::default()
    }

    /// Enqueues one run and returns its handle.
    pub fn add(&mut self, machine: MachineSpec, spec: WorkloadSpec, params: Params) -> RunId {
        self.runs.push(SweepRun {
            machine,
            spec,
            params,
        });
        RunId(self.runs.len() - 1)
    }

    /// Number of queued runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Executes every queued run on up to `jobs` worker threads and
    /// returns the results in submission order. One in-memory artifact
    /// store is shared across the whole queue, so a workload enqueued
    /// against three machines assembles once.
    pub fn execute(self, jobs: usize) -> SweepResults {
        self.execute_with(&Session::in_memory(), jobs)
    }

    /// [`Sweep::execute`] against a caller-provided artifact `session`
    /// — harness subcommands pass their (possibly disk-backed) session
    /// so artifacts carry across sweeps and processes.
    pub fn execute_with(self, session: &Session, jobs: usize) -> SweepResults {
        SweepResults {
            results: run_sweep_with(session, &self.runs, jobs),
        }
    }

    /// [`Sweep::execute_with`] with worker telemetry: per-run wall time
    /// and busy/idle accounting recorded into `metrics`.
    pub fn execute_metered(
        self,
        session: &Session,
        jobs: usize,
        metrics: &SweepMetrics,
    ) -> SweepResults {
        SweepResults {
            results: run_sweep_metered(session, &self.runs, jobs, Some(metrics)),
        }
    }
}

/// Results of a [`Sweep`], indexed by [`RunId`] in submission order.
#[derive(Debug)]
pub struct SweepResults {
    results: Vec<Result<RunStats, RunError>>,
}

impl SweepResults {
    /// The result of one run.
    pub fn get(&self, id: RunId) -> &Result<RunStats, RunError> {
        &self.results[id.0]
    }

    /// The statistics of one run, or `None` if it failed.
    pub fn stats(&self, id: RunId) -> Option<&RunStats> {
        self.results[id.0].as_ref().ok()
    }

    /// Baseline-over-ours cycle ratio (the paper's relative-performance
    /// convention), or `None` if either run failed.
    pub fn rel(&self, baseline: RunId, ours: RunId) -> Option<f64> {
        Some(self.stats(baseline)?.cycles as f64 / self.stats(ours)?.cycles as f64)
    }

    /// Every failure, in submission order.
    pub fn failures(&self) -> Vec<&RunError> {
        self.results
            .iter()
            .filter_map(|r| r.as_ref().err())
            .collect()
    }

    /// All results, in submission order.
    pub fn all(&self) -> &[Result<RunStats, RunError>] {
        &self.results
    }
}

/// Appends a "failed runs" section to an experiment report if any run in
/// the sweep failed. Experiments stay useful under partial failure: good
/// rows render, broken ones are listed here.
pub fn append_failures(out: &mut String, results: &SweepResults) {
    let failures = results.failures();
    if failures.is_empty() {
        return;
    }
    out.push_str(&format!("failed runs ({}):\n", failures.len()));
    for f in failures {
        out.push_str(&format!("  {f}\n"));
    }
}

/// Default worker count: the host's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Executes `runs` on up to `jobs` worker threads, returning one result
/// per run **in submission order**. Workers pull indices from a shared
/// atomic counter, so scheduling is dynamic but the output ordering (and
/// every simulation itself — machines are deterministic, and a reused
/// machine runs exactly like a fresh one) is not affected by the job
/// count. Each worker keeps one [`MachineSlot`] for all its runs. All
/// workers prepare through the shared `session`,
/// so concurrent runs of the same workload block on one assembly instead
/// of duplicating it. A panicking run is caught and reported as
/// [`RunError::Panicked`] without poisoning the rest of the sweep.
pub fn run_sweep_with(
    session: &Session,
    runs: &[SweepRun],
    jobs: usize,
) -> Vec<Result<RunStats, RunError>> {
    run_sweep_metered(session, runs, jobs, None)
}

/// [`run_sweep_with`] with optional worker telemetry. With `metrics:
/// None` no clock is read and no atomic is touched — the uninstrumented
/// path is exactly the old one. With a [`SweepMetrics`], each worker
/// accounts every run's wall time plus its own busy/idle split.
pub fn run_sweep_metered(
    session: &Session,
    runs: &[SweepRun],
    jobs: usize,
    metrics: Option<&SweepMetrics>,
) -> Vec<Result<RunStats, RunError>> {
    let jobs = jobs.clamp(1, runs.len().max(1));
    if jobs == 1 {
        let born = metrics.map(|_| Instant::now());
        let (mut busy, mut slot) = (0u64, MachineSlot::new());
        let results = runs
            .iter()
            .map(|run| run_one_metered(&mut slot, session, run, metrics, &mut busy))
            .collect();
        if let (Some(m), Some(born)) = (metrics, born) {
            m.observe_worker(ns_since(born), busy, &slot);
        }
        return results;
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<RunStats, RunError>>>> =
        runs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                let born = metrics.map(|_| Instant::now());
                let (mut busy, mut slot) = (0u64, MachineSlot::new());
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(run) = runs.get(i) else { break };
                    let result = run_one_metered(&mut slot, session, run, metrics, &mut busy);
                    // A sweep worker never panics while holding the lock
                    // (`run_one_in` catches panics), but recover anyway:
                    // the slot is write-only here.
                    *slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(result);
                }
                if let (Some(m), Some(born)) = (metrics, born) {
                    m.observe_worker(ns_since(born), busy, &slot);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                // lint: allow(unwrap) — the worker loop claims every index before exiting
                .expect("worker filled slot")
        })
        .collect()
}

/// One run on the worker's `slot` with optional accounting; adds the
/// run's wall time to the calling worker's `busy` tally.
fn run_one_metered(
    slot: &mut MachineSlot,
    session: &Session,
    run: &SweepRun,
    metrics: Option<&SweepMetrics>,
    busy: &mut u64,
) -> Result<RunStats, RunError> {
    let Some(m) = metrics else {
        return run_one_in(slot, session, run);
    };
    let t0 = Instant::now();
    let result = run_one_in(slot, session, run);
    let host_ns = ns_since(t0);
    *busy = busy.saturating_add(host_ns);
    m.observe(host_ns, &result);
    result
}

/// Executes one [`SweepRun`] against `session` on the machine `slot`
/// holds, catching panics as [`RunError::Panicked`] and dropping the
/// slot's machine after one — the same per-run behaviour a sweep worker
/// has, exposed for callers (like `diag-serve`) that schedule runs
/// themselves but want identical failure semantics.
pub fn run_one_in(
    slot: &mut MachineSlot,
    session: &Session,
    run: &SweepRun,
) -> Result<RunStats, RunError> {
    catch_unwind(AssertUnwindSafe(|| {
        run_verified_in(slot, session, &run.machine, &run.spec, &run.params)
    }))
    .unwrap_or_else(|payload| {
        slot.clear();
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(RunError::Panicked {
            workload: run.spec.name.to_string(),
            machine: run.machine.label(),
            message,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use diag_workloads::find;

    fn queue_of(n: usize) -> Sweep {
        let spec = find("bfs").unwrap();
        let mut sweep = Sweep::new();
        for _ in 0..n {
            sweep.add(MachineSpec::InOrder, spec, Params::tiny());
        }
        sweep
    }

    #[test]
    fn results_are_in_submission_order_at_any_job_count() {
        let mut sweep = Sweep::new();
        let mut ids = Vec::new();
        for name in ["bfs", "hotspot", "nw", "x264", "mcf"] {
            ids.push((
                name,
                sweep.add(MachineSpec::InOrder, find(name).unwrap(), Params::tiny()),
            ));
        }
        let serial = sweep.execute(1);
        let mut sweep = Sweep::new();
        for (name, _) in &ids {
            sweep.add(MachineSpec::InOrder, find(name).unwrap(), Params::tiny());
        }
        let parallel = sweep.execute(4);
        for (i, (name, id)) in ids.iter().enumerate() {
            let a = serial
                .stats(*id)
                .unwrap_or_else(|| panic!("{name} failed serially"));
            let b = parallel
                .stats(RunId(i))
                .unwrap_or_else(|| panic!("{name} failed in parallel"));
            assert_eq!(
                a.cycles, b.cycles,
                "{name} nondeterministic across job counts"
            );
            assert_eq!(a.committed, b.committed, "{name}");
        }
    }

    #[test]
    fn more_jobs_than_runs_is_fine() {
        let results = queue_of(2).execute(64);
        assert_eq!(results.all().len(), 2);
        assert!(results.failures().is_empty());
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        let results = queue_of(1).execute(0);
        assert!(results.stats(RunId(0)).is_some());
    }

    #[test]
    fn metered_sweep_accounts_every_run() {
        let registry = Registry::new();
        let metrics = SweepMetrics::new(&registry);
        let results = queue_of(4).execute_metered(&Session::in_memory(), 2, &metrics);
        assert!(results.failures().is_empty());
        let snap = registry.snapshot();
        let counter = |key: &str| -> u64 {
            snap.counters
                .iter()
                .find(|(k, _)| k.to_string() == key)
                .unwrap_or_else(|| panic!("missing counter {key}"))
                .1
        };
        assert_eq!(counter("diag_sweep_runs_total{outcome=\"ok\"}"), 4);
        assert_eq!(counter("diag_sweep_runs_total{outcome=\"error\"}"), 0);
        assert!(counter("diag_sweep_worker_busy_ns") > 0);
        let (_, run_ns) = snap
            .histograms
            .iter()
            .find(|(k, _)| k.name() == "diag_sweep_run_ns")
            .expect("run histogram");
        assert_eq!(run_ns.count, 4);
        let (_, per_instr) = snap
            .histograms
            .iter()
            .find(|(k, _)| k.name() == "diag_sweep_run_ns_per_instr")
            .expect("per-instr histogram");
        assert_eq!(per_instr.count, 4);
    }

    #[test]
    fn a_tune_grid_sweep_on_one_worker_builds_one_machine() {
        // The default grid varies clusters, ring segmentation, lane
        // buffering and LSU depth, never the caches: one worker re-shapes
        // its one machine for all 36 points.
        let registry = Registry::new();
        let metrics = SweepMetrics::new(&registry);
        let spec = find("nn").unwrap();
        let mut sweep = Sweep::new();
        for machine in crate::tune::default_grid() {
            sweep.add(machine, spec, Params::tiny());
        }
        let results = sweep.execute_metered(&Session::in_memory(), 1, &metrics);
        assert!(results.failures().is_empty());
        let snap = registry.snapshot();
        let (_, builds) = snap
            .counters
            .iter()
            .find(|(k, _)| k.name() == "diag_sweep_machine_builds_total")
            .expect("machine build counter");
        assert_eq!(*builds, 1);
    }

    #[test]
    fn failures_are_reported_not_fatal() {
        // A DiAG config with a far-too-small cycle limit: the run fails
        // with a cycle-limit SimError but the sweep still completes, and
        // the healthy neighbouring run is unaffected.
        let spec = find("hotspot").unwrap();
        let mut tiny_limit = diag_core::DiagConfig::f4c2();
        tiny_limit.max_cycles = 10;
        let mut sweep = Sweep::new();
        let bad = sweep.add(MachineSpec::Diag(tiny_limit), spec, Params::tiny());
        let good = sweep.add(MachineSpec::InOrder, spec, Params::tiny());
        let results = sweep.execute(2);
        assert!(results.stats(bad).is_none());
        assert!(results.stats(good).is_some());
        assert_eq!(results.failures().len(), 1);
        let mut report = String::new();
        append_failures(&mut report, &results);
        assert!(report.contains("failed runs (1)"), "{report}");
        assert!(report.contains("hotspot"), "{report}");
    }
}
