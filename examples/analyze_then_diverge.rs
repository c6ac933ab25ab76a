//! Static analysis and dynamic differential testing catching the *same*
//! bug, two different ways.
//!
//! The kernel below reads `t1` and `s0` before anything writes them. The
//! workspace convention zero-initializes every non-ABI lane, so the bug is
//! invisible to result checking — all machines agree on the (accidentally
//! correct) answer. This example shows the two tools that still catch it:
//!
//! 1. **Statically**: `diag-analyze`'s use-before-def lint flags the exact
//!    reading instruction without executing a cycle.
//! 2. **Dynamically**: running DiAG in lockstep against a *poisoned*
//!    reference interpreter — identical semantics, but uninitialized lanes
//!    start at `0xDEADBEEF` instead of zero — diverges at the very same
//!    address, because only an uninitialized read can observe the poison.
//!
//! ```text
//! cargo run --example analyze_then_diverge
//! ```

use diag::analyze::{analyze, AnalyzeOptions, Lint, Severity};
use diag::asm::Program;
use diag::core::{Diag, DiagConfig};
use diag::isa::{ArchReg, Reg};
use diag::mem::MainMemory;
use diag::sim::interp::{arch_step, ArchState};
use diag::sim::{run_lockstep, Commit, LockstepOutcome, Machine, RunStats, SimError, StepOutcome};

const KERNEL: &str = "
    addi t0, zero, 10
loop:
    add  s0, s0, t1
    addi t0, t0, -1
    bnez t0, loop
    sw   s0, 0(zero)
    ecall
";

/// The value poisoned lanes start with — outside anything the kernel
/// computes, so any read of an uninitialized lane changes the commit
/// stream.
const POISON: u32 = 0xDEAD_BEEF;

/// A reference interpreter whose uninitialized lanes hold [`POISON`]
/// instead of zero. Architecturally identical to the in-order reference
/// for any program that initializes before reading.
struct PoisonedInterp {
    run: Option<(ArchState, Program, MainMemory)>,
    stats: RunStats,
    log: bool,
    commits: Vec<Commit>,
}

impl PoisonedInterp {
    fn new() -> PoisonedInterp {
        PoisonedInterp {
            run: None,
            stats: RunStats::default(),
            log: false,
            commits: Vec::new(),
        }
    }
}

impl Machine for PoisonedInterp {
    fn name(&self) -> String {
        "poisoned-interp".to_string()
    }

    fn load(&mut self, program: &Program, threads: usize) {
        let mut state = ArchState::new_thread(program.entry(), 0, threads.max(1));
        let keep: Vec<usize> = [Reg::A0, Reg::A1, Reg::SP]
            .iter()
            .map(|&r| ArchReg::from(r).index())
            .collect();
        for (i, lane) in state.regs.iter_mut().enumerate() {
            if i != 0 && !keep.contains(&i) {
                *lane = POISON;
            }
        }
        let mem = MainMemory::with_program(program);
        self.stats = RunStats {
            threads: 1,
            ..RunStats::default()
        };
        self.commits.clear();
        self.run = Some((state, program.clone(), mem));
    }

    fn step(&mut self) -> Result<StepOutcome, SimError> {
        let (state, program, mem) = self.run.as_mut().ok_or(SimError::NotLoaded)?;
        if state.halted {
            return Err(SimError::NotLoaded);
        }
        let info = arch_step(state, program, mem, None)?;
        self.stats.committed += 1;
        self.stats.cycles += 1;
        if self.log {
            let dest = info.dest.filter(|(lane, _)| !lane.is_zero());
            self.commits.push(Commit {
                thread: 0,
                pc: info.pc,
                dest,
            });
        }
        Ok(if state.halted {
            StepOutcome::Halted
        } else {
            StepOutcome::Running
        })
    }

    fn stats(&self) -> RunStats {
        self.stats
    }

    fn set_commit_log(&mut self, enabled: bool) {
        self.log = enabled;
    }

    fn take_commits(&mut self) -> Vec<Commit> {
        std::mem::take(&mut self.commits)
    }

    fn read_word(&self, addr: u32) -> u32 {
        self.run
            .as_ref()
            .map_or(0, |(_, _, mem)| mem.read_u32(addr))
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = diag::asm::assemble(KERNEL)?;

    // Step 1: the analyzer flags the uninitialized reads statically.
    let analysis = analyze(&program, &AnalyzeOptions::default());
    println!("== static analysis ==");
    let mut flagged_pcs = Vec::new();
    for d in &analysis.diagnostics {
        println!("{d}");
        for line in &d.context {
            println!("  {line}");
        }
        if d.lint == Lint::UseBeforeDef {
            flagged_pcs.push(d.pc_range.0);
        }
    }
    assert_eq!(
        analysis.max_severity(),
        Some(Severity::Warning),
        "expected use-before-def warnings"
    );
    assert!(
        !flagged_pcs.is_empty(),
        "expected at least one use-before-def finding"
    );

    // Step 2: the same bug caught dynamically — DiAG (zero-initialized)
    // against the poisoned reference diverges at a flagged address.
    println!("\n== lockstep vs poisoned reference ==");
    let mut dut = Diag::new(DiagConfig::f4c32());
    let mut reference = PoisonedInterp::new();
    match run_lockstep(&mut dut, &mut reference, &program, 1, 10_000)? {
        LockstepOutcome::Agree { commits } => {
            panic!("machines agreed over {commits} commits — poisoning found nothing")
        }
        LockstepOutcome::Diverged(d) => {
            println!("{d}");
            let diverged_pc = d.left.or(d.right).map(|c| c.pc).expect("commit present");
            assert!(
                flagged_pcs.contains(&diverged_pc),
                "divergence at {diverged_pc:#x} but the analyzer flagged {flagged_pcs:#x?}"
            );
            println!(
                "\ndivergence at {diverged_pc:#x} matches the statically-flagged \
                 use-before-def — both tools point at the same instruction"
            );
        }
    }
    Ok(())
}

#[test]
fn main_succeeds() -> Result<(), Box<dyn std::error::Error>> {
    main()
}
