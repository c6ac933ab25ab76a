//! A single-issue in-order reference machine.
//!
//! This is the golden model for differential testing: the simplest
//! possible timing (one instruction per cycle, stall on RAW, flat memory
//! latency, taken-branch bubble) over the shared architectural
//! interpreter. The paper notes that "a DiAG processor with only one
//! functional unit is nearly identical to the back-end of an in-order
//! single-issue CPU" (§2) — this machine is that degenerate case.

use std::sync::Arc;

use diag_asm::Program;
use diag_isa::{StationSlot, StationTable};
use diag_mem::MainMemory;
use diag_sim::interp::{station_step, ArchState, MemEffect};
use diag_sim::{Bucket, Machine, Probes, Retirement, RunStats, SimError, StepOutcome};
use diag_trace::{Event, EventKind, Track};

/// Flat memory access latency for the reference machine.
const MEM_LATENCY: u64 = 4;
/// Bubble cycles after a taken control transfer.
const BRANCH_BUBBLE: u64 = 2;

/// In-flight execution state of one reference run. Threads run
/// sequentially on the single core (time-sliced would give the same
/// total), so the state is one thread's registers plus the id of the
/// thread currently running.
#[derive(Debug)]
struct InOrderRun {
    program: Arc<Program>,
    /// Text segment predecoded once at load (or adopted already-lowered
    /// from the artifact pipeline); the step loop never touches the
    /// decoder (the *modeled* pipeline still decodes every dynamic
    /// instruction — see the `decodes` counter).
    stations: Arc<StationTable>,
    threads: usize,
    mem: MainMemory,
    /// The machine's probes as of [`Machine::load`].
    probes: Probes,
    state: ArchState,
    reg_ready: [u64; diag_isa::NUM_LANES],
    clock: u64,
    /// Thread currently executing.
    tid: usize,
    /// Cycles of threads that already finished.
    total_cycles: u64,
    stats: RunStats,
    halted: bool,
}

/// The single-issue in-order reference machine.
///
/// # Examples
///
/// ```
/// use diag_asm::assemble;
/// use diag_baseline::InOrder;
/// use diag_sim::Machine;
///
/// let program = assemble("li a0, 3\nsw a0, 0(zero)\necall\n")?;
/// let mut cpu = InOrder::new();
/// let stats = cpu.run(&program, 1)?;
/// assert_eq!(cpu.read_word(0), 3);
/// assert_eq!(stats.committed, 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct InOrder {
    max_cycles: u64,
    run: Option<InOrderRun>,
    last_stats: Option<RunStats>,
    probes: Probes,
}

impl Default for InOrder {
    fn default() -> InOrder {
        InOrder::new()
    }
}

impl InOrder {
    /// Creates the reference machine.
    pub fn new() -> InOrder {
        InOrder {
            max_cycles: diag_sim::DEFAULT_CYCLE_LIMIT,
            run: None,
            last_stats: None,
            probes: Probes::default(),
        }
    }

    /// Sets the cycle limit.
    pub fn with_cycle_limit(mut self, limit: u64) -> InOrder {
        self.max_cycles = limit;
        self
    }
}

impl Machine for InOrder {
    fn name(&self) -> String {
        "inorder".to_string()
    }

    fn load(&mut self, program: &Program, threads: usize) {
        let stations = Arc::new(StationTable::build(program.text_base(), program.text()));
        self.load_prepared(program, &stations, threads);
    }

    fn load_prepared(&mut self, program: &Program, stations: &Arc<StationTable>, threads: usize) {
        let threads = threads.max(1);
        // A machine that has run before keeps its memory pages and, for
        // the same program, its copy of it.
        let (program, mut mem) = match self.run.take() {
            Some(run) if *run.program == *program => (run.program, run.mem),
            Some(run) => (Arc::new(program.clone()), run.mem),
            None => (Arc::new(program.clone()), MainMemory::new()),
        };
        mem.renew();
        mem.load_program(&program);
        self.last_stats = None;
        self.probes.clear_commits();
        self.run = Some(InOrderRun {
            state: ArchState::new_thread(program.entry(), 0, threads),
            stations: Arc::clone(stations),
            program,
            threads,
            mem,
            probes: self.probes.clone(),
            reg_ready: [0u64; diag_isa::NUM_LANES],
            clock: 0,
            tid: 0,
            total_cycles: 0,
            stats: RunStats {
                threads: threads as u64,
                freq_ghz: 2.0,
                ..RunStats::default()
            },
            halted: false,
        });
        self.probes.emit(|| Event {
            cycle: 0,
            thread: 0,
            track: Track::Core(0),
            kind: EventKind::ThreadStart,
        });
    }

    fn step(&mut self) -> Result<StepOutcome, SimError> {
        let run = self.run.as_mut().ok_or(SimError::NotLoaded)?;
        if run.halted {
            return Err(SimError::NotLoaded);
        }
        let st = match *run.stations.get(run.state.pc) {
            StationSlot::Ready(st) => st,
            StationSlot::Illegal { word } => {
                let pc = run.state.pc;
                return Err(SimError::IllegalInstruction { addr: pc, word });
            }
            StationSlot::Empty => {
                let pc = run.state.pc;
                return Err(SimError::PcOutOfRange { pc });
            }
        };
        let info = station_step(&mut run.state, &run.stations, &mut run.mem, None)?;
        // A local copy: moving `info.dest` into the retirement record
        // straight from `info` costs an unaligned copy on every step.
        let dest = info.dest;
        let prev_clock = run.clock;
        let mut start = run.clock;
        for src in st.srcs.iter() {
            start = start.max(run.reg_ready[src.index()]);
        }
        let latency = match info.mem {
            MemEffect::None => st.latency as u64,
            _ => MEM_LATENCY,
        };
        let finish = start + latency;
        if let Some((lane, _)) = dest {
            if !lane.is_zero() {
                run.reg_ready[lane.index()] = finish;
                run.stats.activity.reg_writes += 1;
            }
        }
        run.clock = start + 1 + if info.redirected { BRANCH_BUBBLE } else { 0 };
        let new_clock = run.clock;
        let tid = run.tid as u32;
        if run.probes.retiring() {
            // [prev, start) waits on sources, the single-issue cycle is
            // retiring (memory-bound for loads/stores), and a taken
            // branch's bubble is transit — summing to the clock delta.
            let mut parts = [0u64; 5];
            parts[Bucket::LaneWait.index()] += start - prev_clock;
            let exec_bucket = if matches!(info.mem, MemEffect::None) {
                Bucket::Retiring
            } else {
                Bucket::MemoryBound
            };
            parts[exec_bucket.index()] += 1;
            parts[Bucket::RingTransit.index()] += new_clock - start - 1;
            run.probes.retire(&Retirement {
                thread: tid,
                pc: info.pc,
                dest,
                addr: info.mem.addr(),
                pe: None,
                reused: false,
                start,
                finish,
                commit: new_clock,
                parts,
            });
        }
        run.stats.committed += 1;
        run.stats.activity.decodes += 1;
        match info.mem {
            MemEffect::Load { .. } => run.stats.activity.loads += 1,
            MemEffect::Store { .. } => run.stats.activity.stores += 1,
            MemEffect::None => {
                if st.uses_fpu {
                    run.stats.activity.fp_ops += 1;
                } else {
                    run.stats.activity.int_ops += 1;
                }
            }
        }
        if run.clock > self.max_cycles {
            return Err(SimError::CycleLimit {
                limit: self.max_cycles,
            });
        }
        if run.state.halted {
            let at = run.clock;
            run.probes.emit(|| Event {
                cycle: at,
                thread: tid,
                track: Track::Core(tid),
                kind: EventKind::ThreadHalt,
            });
            run.probes.profiler().thread_span(tid, 0, run.clock);
            run.total_cycles += run.clock;
            run.tid += 1;
            if run.tid < run.threads {
                // Next thread takes over the (single) core with fresh
                // architectural and timing state.
                run.state = ArchState::new_thread(run.program.entry(), run.tid, run.threads);
                run.reg_ready = [0u64; diag_isa::NUM_LANES];
                run.clock = 0;
                let next = run.tid as u32;
                run.probes.emit(|| Event {
                    cycle: 0,
                    thread: next,
                    track: Track::Core(next),
                    kind: EventKind::ThreadStart,
                });
            } else {
                run.stats.cycles = run.total_cycles;
                run.halted = true;
                self.last_stats = Some(run.stats);
                return Ok(StepOutcome::Halted);
            }
        }
        Ok(StepOutcome::Running)
    }

    fn stats(&self) -> RunStats {
        if let Some(stats) = self.last_stats {
            return stats;
        }
        let Some(run) = &self.run else {
            return RunStats::default();
        };
        let mut stats = run.stats;
        stats.cycles = run.total_cycles + run.clock;
        stats
    }

    fn probes_mut(&mut self) -> Option<&mut Probes> {
        Some(&mut self.probes)
    }

    fn read_word(&self, addr: u32) -> u32 {
        self.run.as_ref().map_or(0, |r| r.mem.read_u32(addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diag_asm::assemble;

    #[test]
    fn runs_a_loop() {
        let program = assemble(
            r#"
                li t0, 10
                li t1, 0
            loop:
                add t1, t1, t0
                addi t0, t0, -1
                bnez t0, loop
                sw t1, 0(zero)
                ecall
            "#,
        )
        .unwrap();
        let mut cpu = InOrder::new();
        let stats = cpu.run(&program, 1).unwrap();
        assert_eq!(cpu.read_word(0), 55);
        assert_eq!(stats.committed, 2 + 30 + 2);
        assert!(stats.cycles >= stats.committed);
    }

    #[test]
    fn threads_run_sequentially() {
        let program = assemble("slli t0, a0, 2\nsw a1, 0(t0)\necall\n").unwrap();
        let mut cpu = InOrder::new();
        let stats = cpu.run(&program, 4).unwrap();
        for t in 0..4u32 {
            assert_eq!(cpu.read_word(4 * t), 4);
        }
        assert_eq!(stats.committed, 12);
    }

    #[test]
    fn cycle_limit() {
        let program = assemble("loop: j loop\n").unwrap();
        let mut cpu = InOrder::new().with_cycle_limit(1000);
        assert!(matches!(
            cpu.run(&program, 1),
            Err(SimError::CycleLimit { .. })
        ));
    }
}
