//! The [`Machine`] abstraction implemented by every processor model.
//!
//! Machines are *externally steppable*: a program is mounted with
//! [`Machine::load`] and advanced one schedulable quantum at a time with
//! [`Machine::step`], which makes single-stepping debuggers, lockstep
//! differential testing (see [`crate::lockstep`]), and schedulers that
//! interleave many machines possible. [`Machine::run`] is a convenience
//! default that drives `load` + `step` to completion, so callers that only
//! want final results keep the one-call API.

use std::cell::Cell;
use std::fmt;
use std::sync::Arc;

use diag_asm::Program;
use diag_isa::{ArchReg, StationTable};
use diag_profile::Profiler;
use diag_trace::Tracer;

use crate::observe::Observer;
use crate::probes::Probes;
use crate::stats::RunStats;

/// Errors a simulation run can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The run exceeded the configured cycle limit without halting.
    CycleLimit {
        /// The limit that was hit.
        limit: u64,
    },
    /// An undecodable instruction reached execution.
    IllegalInstruction {
        /// Address of the instruction.
        addr: u32,
        /// The raw word.
        word: u32,
    },
    /// The program counter left the text segment.
    PcOutOfRange {
        /// The wild program counter.
        pc: u32,
    },
    /// A memory access was misaligned for its size.
    Misaligned {
        /// The faulting address.
        addr: u32,
        /// Access size in bytes.
        size: u32,
    },
    /// A SIMT region was malformed (e.g. backward branch inside the region,
    /// region does not fit in the processor — paper §4.4.3).
    InvalidSimtRegion {
        /// Description of the violation.
        reason: String,
    },
    /// The machine cannot make progress (e.g. circular lane dependency,
    /// which indicates a simulator bug rather than a program bug).
    Deadlock {
        /// Cycle at which progress stopped.
        cycle: u64,
    },
    /// [`Machine::step`] was called with no program loaded.
    NotLoaded,
    /// A hardware thread that already executed its halting `ecall` was
    /// stepped again (a scheduler bug — halted threads must be skipped).
    Halted,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::CycleLimit { limit } => write!(f, "cycle limit of {limit} exceeded"),
            SimError::IllegalInstruction { addr, word } => {
                write!(f, "illegal instruction {word:#010x} at {addr:#x}")
            }
            SimError::PcOutOfRange { pc } => write!(f, "program counter {pc:#x} left text"),
            SimError::Misaligned { addr, size } => {
                write!(f, "misaligned {size}-byte access at {addr:#x}")
            }
            SimError::InvalidSimtRegion { reason } => write!(f, "invalid SIMT region: {reason}"),
            SimError::Deadlock { cycle } => write!(f, "no progress at cycle {cycle}"),
            SimError::NotLoaded => write!(f, "step called with no program loaded"),
            SimError::Halted => write!(f, "step called on a halted thread"),
        }
    }
}

impl std::error::Error for SimError {}

thread_local! {
    /// This thread's count of [`Machine::step`] quanta driven by the
    /// default [`Machine::run`]/[`Machine::run_prepared`] loops, counted
    /// once per completed run to keep the hot loop free of per-step
    /// bookkeeping.
    static MACHINE_STEPS: Cell<u64> = const { Cell::new(0) };
}

/// Number of [`Machine::step`] calls the default run loops have issued on
/// the calling thread so far. A counting hook for cache tests: a memoized
/// resubmission must leave this unchanged — zero simulation steps. The
/// count is per thread, so runs on other threads (sibling tests, sweep
/// workers) never move it.
pub fn machine_steps() -> u64 {
    MACHINE_STEPS.with(Cell::get)
}

/// What one [`Machine::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The machine made progress and has more work pending.
    Running,
    /// Every hardware thread has halted; [`Machine::stats`] is final.
    Halted,
}

impl StepOutcome {
    /// Whether this outcome ends the run.
    pub fn is_halted(self) -> bool {
        matches!(self, StepOutcome::Halted)
    }
}

/// One retired instruction, as observed at the machine's commit point.
///
/// Machines append these to their commit log when
/// [`Machine::set_commit_log`] is enabled; [`crate::lockstep`] compares the
/// per-thread streams of two machines to pinpoint the first divergent
/// retirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Commit {
    /// Hardware thread that retired the instruction.
    pub thread: u32,
    /// Instruction address.
    pub pc: u32,
    /// Destination register lane written, with the value (architectural
    /// writes only — `x0` writes and stores record `None`).
    pub dest: Option<(ArchReg, u32)>,
}

impl fmt::Display for Commit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{} pc={:#x}", self.thread, self.pc)?;
        match self.dest {
            Some((lane, value)) => write!(f, " {lane}={value:#x}"),
            None => write!(f, " (no reg write)"),
        }
    }
}

/// A processor model that can run a bare-metal [`Program`].
///
/// Threads follow the workspace convention: every hardware thread starts at
/// the program entry with `a0` = thread id, `a1` = thread count, and a
/// private stack pointer; a thread halts by executing `ecall`. The run ends
/// when all threads have halted.
///
/// # Stepping
///
/// The workspace machines are dependence-timed rather than
/// cycle-by-cycle, so the stepping quantum is one *retired unit of work* —
/// one dynamic instruction on most machines, one pipelined region
/// iteration batch in DiAG's SIMT mode, or internal scheduling work (wave
/// rotation) that retires nothing. Timing state (the machine clock)
/// advances by whatever the quantum cost; callers must not assume one step
/// equals one cycle.
pub trait Machine {
    /// Short human-readable machine name (e.g. `"diag-f4c32"`).
    fn name(&self) -> String;

    /// Mounts `program` for execution with `threads` hardware threads,
    /// resetting all architectural and timing state from any prior run.
    fn load(&mut self, program: &Program, threads: usize);

    /// [`Machine::load`], but with the program's predecoded
    /// [`StationTable`] supplied by the caller — the artifact-pipeline
    /// path, where one lowering is shared across every run of the same
    /// program instead of being rebuilt per [`Machine::load`].
    ///
    /// Machines that consume a whole-text station table (the baselines)
    /// override this to adopt `stations` instead of lowering their own;
    /// machines with per-cluster residency arenas (DiAG populates
    /// stations at line-load time, §4.2) ignore it and defer to `load`.
    /// `stations` must have been built from `program`'s text segment.
    fn load_prepared(&mut self, program: &Program, stations: &Arc<StationTable>, threads: usize) {
        let _ = stations;
        self.load(program, threads);
    }

    /// Advances the machine by one schedulable quantum.
    ///
    /// # Errors
    ///
    /// See [`SimError`] for the failure modes; [`SimError::NotLoaded`] if
    /// no program is mounted or the machine already halted.
    fn step(&mut self) -> Result<StepOutcome, SimError>;

    /// Statistics of the current (or just-finished) run. Totals are
    /// final once [`Machine::step`] has returned [`StepOutcome::Halted`];
    /// before that they cover the work retired so far.
    fn stats(&self) -> RunStats;

    /// The machine's [`Probes`], which the hook methods below install
    /// into. Instrumented machines return their one `probes` value; the
    /// default `None` makes every hook a no-op.
    fn probes_mut(&mut self) -> Option<&mut Probes> {
        None
    }

    /// Installs a [`Tracer`] delivering this machine's cycle-level trace
    /// events (`diag-trace` vocabulary) to a sink. Like every probe, it
    /// takes effect from the next [`Machine::load`]; installing
    /// [`Tracer::off`] (the default) makes every emission site a
    /// non-evaluating branch.
    fn set_tracer(&mut self, tracer: Tracer) {
        if let Some(probes) = self.probes_mut() {
            probes.set_tracer(tracer);
        }
    }

    /// Installs a [`Profiler`] collecting this machine's per-PC
    /// cycle-accounting samples (`diag-profile` vocabulary), from the
    /// next [`Machine::load`].
    fn set_profiler(&mut self, profiler: Profiler) {
        if let Some(probes) = self.probes_mut() {
            probes.set_profiler(profiler);
        }
    }

    /// Installs an [`Observer`] recording this machine's per-PC
    /// value/address ranges for the static verifier's soundness check
    /// (`diag-verify` vocabulary), from the next [`Machine::load`].
    fn set_observer(&mut self, observer: Observer) {
        if let Some(probes) = self.probes_mut() {
            probes.set_observer(observer);
        }
    }

    /// Enables or disables commit logging from the next
    /// [`Machine::load`] (disabled by default; logging every retirement
    /// costs memory proportional to the dynamic instruction count, so
    /// leave it off for performance runs).
    fn set_commit_log(&mut self, enabled: bool) {
        if let Some(probes) = self.probes_mut() {
            probes.set_commit_log(enabled);
        }
    }

    /// Drains the retirements logged since the last call (in per-thread
    /// program order).
    fn take_commits(&mut self) -> Vec<Commit> {
        self.probes_mut()
            .map_or_else(Vec::new, |p| p.take_commits())
    }

    /// Runs `program` with `threads` hardware threads to completion.
    ///
    /// This is a convenience wrapper over [`Machine::load`] and
    /// [`Machine::step`]; override only to add behaviour, not to bypass
    /// the stepping interface.
    ///
    /// # Errors
    ///
    /// See [`SimError`] for the failure modes.
    fn run(&mut self, program: &Program, threads: usize) -> Result<RunStats, SimError> {
        self.load(program, threads);
        run_to_halt(self)
    }

    /// [`Machine::run`], but mounting prepared artifacts via
    /// [`Machine::load_prepared`] so the shared [`StationTable`] is
    /// adopted instead of re-lowered.
    ///
    /// # Errors
    ///
    /// See [`SimError`] for the failure modes.
    fn run_prepared(
        &mut self,
        program: &Program,
        stations: &Arc<StationTable>,
        threads: usize,
    ) -> Result<RunStats, SimError> {
        self.load_prepared(program, stations, threads);
        run_to_halt(self)
    }

    /// Reads a 32-bit word from the machine's memory after a run, for
    /// result verification.
    fn read_word(&self, addr: u32) -> u32;

    /// Reads an f32 from the machine's memory after a run.
    fn read_f32(&self, addr: u32) -> f32 {
        f32::from_bits(self.read_word(addr))
    }
}

/// Steps a loaded machine until it halts; the loop behind
/// [`Machine::run`] and [`Machine::run_prepared`].
fn run_to_halt<M: Machine + ?Sized>(machine: &mut M) -> Result<RunStats, SimError> {
    let mut steps = 0u64;
    let result = loop {
        steps += 1;
        match machine.step() {
            Ok(outcome) if outcome.is_halted() => break Ok(machine.stats()),
            Ok(_) => {}
            Err(e) => break Err(e),
        }
    };
    MACHINE_STEPS.with(|n| n.set(n.get() + steps));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let cases: Vec<SimError> = vec![
            SimError::CycleLimit { limit: 10 },
            SimError::IllegalInstruction {
                addr: 0x1000,
                word: 0,
            },
            SimError::PcOutOfRange { pc: 4 },
            SimError::Misaligned { addr: 3, size: 4 },
            SimError::InvalidSimtRegion {
                reason: "nested loop".to_string(),
            },
            SimError::Deadlock { cycle: 7 },
            SimError::NotLoaded,
            SimError::Halted,
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn commit_displays() {
        let c = Commit {
            thread: 0,
            pc: 0x1000,
            dest: Some((diag_isa::Reg::T0.into(), 42)),
        };
        assert!(c.to_string().contains("pc=0x1000"));
        let s = Commit {
            thread: 1,
            pc: 0x1004,
            dest: None,
        };
        assert!(s.to_string().contains("no reg write"));
    }
}
