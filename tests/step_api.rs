//! Integration tests of the steppable-machine interface: explicit
//! `load`/`step` loops on every machine over a real Rodinia kernel,
//! lockstep differential execution (including a deliberately corrupted
//! machine), and determinism of the parallel experiment runner across
//! job counts.

use diag::baseline::{InOrder, O3Config, OooCpu};
use diag::bench::runner::{build_machine, MachineSpec};
use diag::bench::sweep::Sweep;
use diag::core::{Diag, DiagConfig};
use diag::sim::{
    run_lockstep, Commit, LockstepOutcome, Machine, Probes, RunStats, SimError, StepOutcome,
};
use diag::workloads::{find, Params};

fn machines() -> Vec<Box<dyn Machine>> {
    vec![
        Box::new(InOrder::new()),
        Box::new(OooCpu::new(O3Config::aggressive_8wide(), 2)),
        Box::new(Diag::new(DiagConfig::f4c32())),
    ]
}

/// A Rodinia kernel driven through the explicit load/step loop on all
/// three machine models: each step must make observable progress, the
/// final stats must match `run()`, and the kernel's own verifier must
/// pass on the stepped machine.
#[test]
fn rodinia_kernel_via_explicit_stepping() {
    let spec = find("hotspot").expect("registered workload");
    let built = spec.build(&Params::tiny()).expect("build");
    for mut m in machines() {
        let name = m.name();
        m.load(&built.program, 1);
        let mut steps = 0u64;
        let mut last_committed = 0u64;
        while let StepOutcome::Running = m
            .step()
            .unwrap_or_else(|e| panic!("{name}: step failed: {e}"))
        {
            steps += 1;
            let committed = m.stats().committed;
            assert!(
                committed >= last_committed,
                "{name}: committed count went backwards"
            );
            last_committed = committed;
        }
        let stats = m.stats();
        assert!(steps > 0, "{name}: halted without stepping");
        assert!(stats.committed > 0, "{name}: nothing committed");
        assert!(stats.cycles > 0, "{name}: no cycles");
        (built.verify)(m.as_ref())
            .unwrap_or_else(|e| panic!("{name}: kernel verification failed: {e}"));

        // Stepping a halted machine is an error, not a silent no-op.
        assert!(matches!(m.step(), Err(SimError::NotLoaded)), "{name}");

        // A fresh load fully resets the machine: same program, same stats.
        m.load(&built.program, 1);
        let mut rerun_steps = 0u64;
        while !m.step().expect("rerun step").is_halted() {
            rerun_steps += 1;
        }
        let rerun = m.stats();
        assert_eq!(rerun.cycles, stats.cycles, "{name}: reload changed timing");
        assert_eq!(rerun.committed, stats.committed, "{name}");
        assert_eq!(rerun_steps, steps, "{name}: reload changed step count");
    }
}

/// Stepping before any `load` is an error on every machine.
#[test]
fn step_before_load_errors() {
    for mut m in machines() {
        assert!(matches!(m.step(), Err(SimError::NotLoaded)), "{}", m.name());
    }
}

/// Every machine agrees with the in-order reference retirement for
/// retirement across the workload matrix: all 18 kernels at tiny scale,
/// at one and four threads, plain and SIMT binaries, on two DiAG shapes
/// and a one-core out-of-order baseline, plus the figures' eight-thread
/// SIMT shape. DiAG keeps pipelining SIMT regions under the commit log,
/// so the matrix also counts the DiAG SIMT runs that really pipelined
/// (their `committed` differs from the same run with `simt=0`) and holds
/// that count to a floor: a change that makes regions fall back to the
/// sequential marker path cannot pass silently.
#[test]
fn lockstep_agrees_on_rodinia_kernel() {
    let shapes: [(usize, bool, &[&str]); 5] = [
        (1, false, &["diag:f4c32", "diag:f4c2", "ooo:1"]),
        (4, false, &["diag:f4c32", "diag:f4c2", "ooo:1"]),
        (1, true, &["diag:f4c32", "diag:f4c2", "ooo:1"]),
        (4, true, &["diag:f4c32", "diag:f4c2", "ooo:1"]),
        (8, true, &["diag:f4c32+ring_clusters=4"]),
    ];
    let mut pipelined = 0;
    for spec in diag::workloads::all() {
        for (threads, simt, machines) in shapes {
            let params = Params::tiny().with_threads(threads).with_simt(simt);
            let built = spec.build(&params).expect("build");
            for text in machines {
                let label = format!("{} on {text}, {threads} threads, simt {simt}", spec.name);
                let machine_spec = MachineSpec::parse(text).expect("valid spec");
                let mut left = build_machine(&machine_spec);
                let mut reference = InOrder::new();
                let outcome = run_lockstep(
                    left.as_mut(),
                    &mut reference,
                    &built.program,
                    threads,
                    u64::MAX,
                )
                .unwrap_or_else(|e| panic!("{label}: lockstep run failed: {e}"));
                match outcome {
                    LockstepOutcome::Agree { commits } => {
                        assert!(
                            commits > 100,
                            "{label}: suspiciously short stream ({commits})"
                        );
                    }
                    LockstepOutcome::Diverged(d) => panic!("{label}: {d}"),
                }
                if let (true, MachineSpec::Diag(cfg)) = (simt, &machine_spec) {
                    let mut sequential = Diag::new(DiagConfig {
                        enable_simt: false,
                        ..cfg.clone()
                    });
                    let sequential = sequential
                        .run(&built.program, threads)
                        .unwrap_or_else(|e| panic!("{label} with simt=0: {e}"));
                    if left.stats().committed != sequential.committed {
                        pipelined += 1;
                    }
                }
            }
        }
    }
    assert!(
        pipelined >= 30,
        "only {pipelined} DiAG SIMT runs pipelined; regions are falling back"
    );
}

/// A machine that delegates to the in-order reference but corrupts the
/// destination value of one retirement — the kind of single-instruction
/// timing-model bug lockstep exists to catch.
struct CorruptedMachine {
    inner: InOrder,
    /// Hardware thread whose retirement gets corrupted.
    thread: u32,
    /// 1-based index, within `thread`'s stream, of the retirement whose
    /// dest value gets flipped.
    corrupt_at: u64,
    /// Retirements of `thread` seen so far.
    seen: u64,
}

impl CorruptedMachine {
    fn new(thread: u32, corrupt_at: u64) -> CorruptedMachine {
        CorruptedMachine {
            inner: InOrder::new(),
            thread,
            corrupt_at,
            seen: 0,
        }
    }
}

impl Machine for CorruptedMachine {
    fn name(&self) -> String {
        "corrupted-inorder".to_string()
    }

    fn load(&mut self, program: &diag::asm::Program, threads: usize) {
        self.seen = 0;
        self.inner.load(program, threads);
    }

    fn step(&mut self) -> Result<StepOutcome, SimError> {
        self.inner.step()
    }

    fn stats(&self) -> RunStats {
        self.inner.stats()
    }

    fn probes_mut(&mut self) -> Option<&mut Probes> {
        self.inner.probes_mut()
    }

    fn take_commits(&mut self) -> Vec<Commit> {
        let mut commits = self.inner.take_commits();
        for c in commits.iter_mut().filter(|c| c.thread == self.thread) {
            self.seen += 1;
            if self.seen == self.corrupt_at {
                if let Some((reg, value)) = c.dest {
                    c.dest = Some((reg, value ^ 1));
                }
            }
        }
        commits
    }

    fn read_word(&self, addr: u32) -> u32 {
        self.inner.read_word(addr)
    }
}

/// The 1-based index, within `thread`'s retirement stream of `program`
/// run with `threads` threads, of the first retirement past `past` that
/// writes a register (stores and branches carry no dest).
fn register_write_after(
    program: &diag::asm::Program,
    threads: usize,
    thread: u32,
    past: u64,
) -> u64 {
    let mut probe = InOrder::new();
    probe.set_commit_log(true);
    probe.load(program, threads);
    let mut seen = 0u64;
    while !probe.step().expect("probe").is_halted() {
        for c in probe.take_commits() {
            if c.thread != thread {
                continue;
            }
            seen += 1;
            if seen > past && c.dest.is_some() {
                return seen;
            }
        }
    }
    panic!("thread {thread} retires no register write past #{past}");
}

/// Lockstep pinpoints the first corrupted retirement of `thread` in an
/// nw run with `threads` threads: right thread, right per-thread index,
/// both values in the report.
fn lockstep_catches_corruption(threads: usize, thread: u32) {
    let spec = find("nw").expect("registered workload");
    let built = spec.build(&Params::tiny()).expect("build");
    let corrupt_at = register_write_after(&built.program, threads, thread, 50);

    let mut left = CorruptedMachine::new(thread, corrupt_at);
    let mut reference = InOrder::new();
    let outcome = run_lockstep(&mut left, &mut reference, &built.program, threads, u64::MAX)
        .expect("lockstep run");
    let LockstepOutcome::Diverged(d) = outcome else {
        panic!("corruption at thread {thread} retirement {corrupt_at} went undetected");
    };
    assert_eq!(d.thread, thread);
    assert_eq!(
        d.index,
        corrupt_at - 1,
        "divergence index is zero-based within the thread's stream"
    );
    let (l, r) = (
        d.left.expect("left retired"),
        d.right.expect("reference retired"),
    );
    assert_eq!(l.pc, r.pc, "same instruction, different value");
    assert_eq!(
        l.dest.expect("dest").1 ^ 1,
        r.dest.expect("dest").1,
        "report carries both values"
    );
    // And the report is human-readable.
    let text = d.to_string();
    assert!(text.contains("first divergence"), "{text}");
}

#[test]
fn lockstep_reports_first_divergence() {
    lockstep_catches_corruption(1, 0);
}

/// With two threads the divergence index still counts only the
/// diverging thread's retirements, not every thread's.
#[test]
fn lockstep_indexes_divergence_within_its_thread() {
    lockstep_catches_corruption(2, 1);
}

/// The parallel sweep runner returns bit-identical statistics in
/// submission order no matter how many worker threads execute it.
#[test]
fn sweep_results_identical_across_job_counts() {
    let kernels = ["hotspot", "bfs", "srad", "x264"];
    let run_all = |jobs: usize| -> Vec<(u64, u64)> {
        let mut sweep = Sweep::new();
        let mut ids = Vec::new();
        for name in kernels {
            let spec = find(name).expect("registered");
            ids.push(sweep.add(MachineSpec::Diag(DiagConfig::f4c2()), spec, Params::tiny()));
            ids.push(sweep.add(MachineSpec::Ooo(2), spec, Params::tiny().with_threads(2)));
        }
        let results = sweep.execute(jobs);
        ids.iter()
            .map(|id| {
                let s = results.stats(*id).expect("run succeeded");
                (s.cycles, s.committed)
            })
            .collect()
    };
    let serial = run_all(1);
    for jobs in [2, 8] {
        assert_eq!(
            serial,
            run_all(jobs),
            "sweep nondeterministic at {jobs} jobs"
        );
    }
}
