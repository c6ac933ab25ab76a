//! Lockstep differential execution: step a DiAG machine and the in-order
//! reference together over a workload and diff their commit streams
//! retirement-for-retirement. On agreement it reports the stream length;
//! on divergence it prints the first mismatching retirement with its
//! disassembly — the debugging workflow for timing-model changes.
//!
//! ```text
//! cargo run --release --example lockstep_diff [workload] [threads]
//! ```
//!
//! `workload` is any registered kernel name (default `bfs`); pass
//! `--corrupt N` to flip one bit in the DiAG side's N-th register write
//! and watch the diff catch it.

use diag::baseline::InOrder;
use diag::core::{Diag, DiagConfig};
use diag::pipeline::Session;
use diag::sim::{
    run_lockstep_prepared, Commit, LockstepOutcome, Machine, Probes, RunStats, SimError,
    StepOutcome,
};
use diag::workloads::{find, Params, Scale};

/// Wraps a machine and corrupts the value of one register-writing
/// retirement — a synthetic one-instruction simulator bug.
struct Corrupt<M: Machine> {
    inner: M,
    at: u64,
    writes: u64,
}

impl<M: Machine> Machine for Corrupt<M> {
    fn name(&self) -> String {
        format!("{} (corrupted)", self.inner.name())
    }
    fn load(&mut self, program: &diag::asm::Program, threads: usize) {
        self.writes = 0;
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
        for c in &mut commits {
            if let Some((reg, value)) = c.dest {
                self.writes += 1;
                if self.writes == self.at {
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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args)
}

/// Runs the lockstep check for the command-line `args`.
fn run(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let corrupt: Option<u64> = match args.iter().position(|a| a == "--corrupt") {
        Some(i) => match args.get(i + 1).and_then(|v| v.parse().ok()) {
            Some(n) => Some(n),
            None => return Err("--corrupt needs a positive retirement index".into()),
        },
        None => None,
    };
    let mut positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if let Some(at) = corrupt {
        // Drop the value that followed --corrupt.
        let at = at.to_string();
        positional.retain(|a| **a != at);
    }
    let name = positional.first().map(|s| s.as_str()).unwrap_or("bfs");
    let threads: usize = positional.get(1).and_then(|t| t.parse().ok()).unwrap_or(1);
    let spec = find(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let params = Params {
        scale: Scale::Tiny,
        threads,
        simt: false,
        seed: 0xD1A6,
    };
    // Prepare the program and its station-table lowering once through
    // the artifact store; both lockstep sides mount the shared table.
    let session = Session::in_memory();
    let built = session.workload(&spec, &params)?;
    let stations = session.stations(&spec, &params, None)?;

    let mut reference = InOrder::new();
    let outcome = if let Some(at) = corrupt {
        let mut left = Corrupt {
            inner: Diag::new(DiagConfig::f4c32()),
            at,
            writes: 0,
        };
        println!("running {name} with register write #{at} corrupted on the DiAG side…");
        run_lockstep_prepared(
            &mut left,
            &mut reference,
            &built.program,
            &stations,
            threads,
            u64::MAX,
        )?
    } else {
        let mut left = Diag::new(DiagConfig::f4c32());
        println!("running {name} on DiAG F4C32 vs the in-order reference…");
        run_lockstep_prepared(
            &mut left,
            &mut reference,
            &built.program,
            &stations,
            threads,
            u64::MAX,
        )?
    };

    match outcome {
        LockstepOutcome::Agree { commits } => {
            println!("AGREE: {commits} retirements matched across {threads} thread(s)");
        }
        LockstepOutcome::Diverged(d) => {
            println!("DIVERGED: {d}");
            std::process::exit(1);
        }
    }
    Ok(())
}

/// `main` without arguments; the test binary's own arguments are
/// libtest's, not the example's.
#[test]
fn main_succeeds() -> Result<(), Box<dyn std::error::Error>> {
    run(&[])
}
