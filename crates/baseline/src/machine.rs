//! The multicore out-of-order baseline machine.
//!
//! [`OooCpu`] instantiates one [`O3Core`](crate::core::O3Core) per hardware
//! thread (up to `max_cores`, beyond which threads run in waves), each with
//! a private L1 data cache, all backed by one shared L2 — the paper's
//! 12-core baseline topology (§7.1).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use diag_asm::Program;
use diag_isa::StationTable;
use diag_mem::{MainMemory, PrivateCache, SharedLevel};
use diag_sim::{Machine, Probes, RunStats, SimError, StepOutcome};
use diag_trace::{Event, EventKind, Track};

use crate::config::O3Config;
use crate::core::O3Core;

/// In-flight execution state of one baseline run.
#[derive(Debug)]
struct OooRun {
    program: Arc<Program>,
    /// Text segment predecoded once at load; shared by every core of
    /// every wave, so no wave launch or step touches the decoder.
    stations: Arc<StationTable>,
    threads: usize,
    mem: MainMemory,
    l2: Rc<RefCell<SharedLevel>>,
    /// The machine's probes as of [`Machine::load`], cloned into each
    /// wave's cores.
    probes: Probes,
    /// Cores of the current wave.
    cores: Vec<O3Core>,
    /// Aggregate statistics of completed waves.
    stats: RunStats,
    committed: u64,
    /// First thread id not yet launched.
    next_tid: usize,
    wave_start: u64,
    finish_time: u64,
    halted: bool,
}

impl OooRun {
    /// Launches the next wave of threads onto fresh cores.
    fn launch_wave(&mut self, config: &Arc<O3Config>, max_cores: usize) {
        let batch = max_cores.min(self.threads - self.next_tid);
        let at = self.wave_start;
        self.cores = (0..batch)
            .map(|k| {
                let l1d = PrivateCache::new(config.l1d, Rc::clone(&self.l2));
                let mut core = O3Core::new(
                    self.program.entry(),
                    Arc::clone(&self.stations),
                    Arc::clone(config),
                    l1d,
                    self.next_tid + k,
                    self.threads,
                    self.wave_start,
                );
                core.probes = self.probes.clone();
                let thread = core.thread_id() as u32;
                self.probes.emit(|| Event {
                    cycle: at,
                    thread,
                    track: Track::Core(thread),
                    kind: EventKind::ThreadStart,
                });
                core
            })
            .collect();
        self.next_tid += batch;
    }

    /// Folds a finished wave's cores into the aggregate statistics.
    fn finish_wave(&mut self) {
        // The wave's launch time (`wave_start` is pushed forward inside
        // the loop, so read the floor before the first core).
        let floor = self.wave_start;
        for core in &self.cores {
            self.probes
                .profiler()
                .thread_span(core.thread_id() as u32, floor, core.clock());
            self.committed += core.committed();
            self.stats.activity += core.stats.activity;
            self.stats.stalls += core.stats.stalls;
            self.wave_start = self.wave_start.max(core.clock());
        }
        self.finish_time = self.finish_time.max(self.wave_start);
        self.cores.clear();
    }
}

/// The out-of-order multicore baseline.
///
/// # Examples
///
/// ```
/// use diag_asm::assemble;
/// use diag_baseline::{O3Config, OooCpu};
/// use diag_sim::Machine;
///
/// let program = assemble("li a0, 9\nsw a0, 0(zero)\necall\n")?;
/// let mut cpu = OooCpu::new(O3Config::aggressive_8wide(), 12);
/// let stats = cpu.run(&program, 1)?;
/// assert_eq!(cpu.read_word(0), 9);
/// assert!(stats.cycles > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct OooCpu {
    config: Arc<O3Config>,
    max_cores: usize,
    run: Option<OooRun>,
    last_stats: Option<RunStats>,
    probes: Probes,
}

impl OooCpu {
    /// Creates a multicore baseline with up to `max_cores` cores (the
    /// paper uses 12).
    ///
    /// # Panics
    ///
    /// Panics if `max_cores` is zero.
    pub fn new(config: O3Config, max_cores: usize) -> OooCpu {
        assert!(max_cores > 0, "need at least one core");
        OooCpu {
            config: Arc::new(config),
            max_cores,
            run: None,
            last_stats: None,
            probes: Probes::default(),
        }
    }

    /// The paper's baseline: 12 cores of the aggressive 8-wide
    /// configuration.
    pub fn paper_baseline() -> OooCpu {
        OooCpu::new(O3Config::aggressive_8wide(), 12)
    }

    /// The core configuration.
    pub fn config(&self) -> &O3Config {
        &self.config
    }

    /// Statistics of the most recent run, if any.
    pub fn last_stats(&self) -> Option<&RunStats> {
        self.last_stats.as_ref()
    }

    /// Shared body of [`Machine::load`] / [`Machine::load_prepared`]:
    /// mounts the program, adopting a caller-prepared [`StationTable`]
    /// when one is supplied and lowering the text once otherwise.
    fn load_with(
        &mut self,
        program: &Program,
        stations: Option<&Arc<StationTable>>,
        threads: usize,
    ) {
        let threads = threads.max(1);
        let program = Arc::new(program.clone());
        let mem = MainMemory::with_program(&program);
        let l2 = SharedLevel::new(self.config.l2).into_shared();
        self.last_stats = None;
        self.probes.clear_commits();
        let mut run = OooRun {
            stations: match stations {
                Some(table) => Arc::clone(table),
                None => Arc::new(StationTable::build(program.text_base(), program.text())),
            },
            program,
            threads,
            mem,
            l2,
            probes: self.probes.clone(),
            cores: Vec::new(),
            stats: RunStats {
                threads: threads as u64,
                freq_ghz: self.config.freq_ghz,
                ..RunStats::default()
            },
            committed: 0,
            next_tid: 0,
            wave_start: 0,
            finish_time: 0,
            halted: false,
        };
        run.launch_wave(&self.config, self.max_cores);
        self.run = Some(run);
    }
}

impl Machine for OooCpu {
    fn name(&self) -> String {
        format!("{}x{}", self.config.name, self.max_cores)
    }

    fn load(&mut self, program: &Program, threads: usize) {
        self.load_with(program, None, threads);
    }

    fn load_prepared(&mut self, program: &Program, stations: &Arc<StationTable>, threads: usize) {
        self.load_with(program, Some(stations), threads);
    }

    fn step(&mut self) -> Result<StepOutcome, SimError> {
        let run = self.run.as_mut().ok_or(SimError::NotLoaded)?;
        if run.halted {
            return Err(SimError::NotLoaded);
        }
        let next = run
            .cores
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.halted)
            .min_by_key(|(_, c)| c.clock())
            .map(|(i, _)| i);
        if let Some(idx) = next {
            run.cores[idx].step(&mut run.mem)?;
            if run.cores[idx].clock() > self.config.max_cycles {
                return Err(SimError::CycleLimit {
                    limit: self.config.max_cycles,
                });
            }
            return Ok(StepOutcome::Running);
        }
        run.finish_wave();
        if run.next_tid < run.threads {
            run.launch_wave(&self.config, self.max_cores);
            Ok(StepOutcome::Running)
        } else {
            run.stats.cycles = run.finish_time;
            run.stats.committed = run.committed;
            run.stats.activity.busy_cycles = run.finish_time;
            run.halted = true;
            self.last_stats = Some(run.stats);
            let _ = run.probes.tracer().flush();
            Ok(StepOutcome::Halted)
        }
    }

    fn stats(&self) -> RunStats {
        if let Some(stats) = self.last_stats {
            return stats;
        }
        let Some(run) = &self.run else {
            return RunStats::default();
        };
        let mut stats = run.stats;
        stats.committed = run.committed;
        let mut clock = run.finish_time;
        for core in &run.cores {
            stats.activity += core.stats.activity;
            stats.stalls += core.stats.stalls;
            stats.committed += core.committed();
            clock = clock.max(core.clock());
        }
        stats.cycles = clock;
        stats.activity.busy_cycles = clock;
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
    fn single_thread_loop() {
        let program = assemble(
            r#"
                li t0, 100
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
        let mut cpu = OooCpu::paper_baseline();
        let stats = cpu.run(&program, 1).unwrap();
        assert_eq!(cpu.read_word(0), 5050);
        assert_eq!(stats.committed, 304);
        // An 8-wide OoO on a 3-instruction loop body with a serial
        // dependence chain should sustain close to one iteration per cycle.
        assert!(stats.ipc() > 1.0, "IPC = {:.2}", stats.ipc());
    }

    #[test]
    fn wide_ilp_beats_serial_chain() {
        let par = r#"
            li t0, 1
            li t1, 1
            li t2, 1
            li t3, 1
            add t0, t0, t0
            add t1, t1, t1
            add t2, t2, t2
            add t3, t3, t3
            ecall
        "#;
        let ser = r#"
            li t0, 1
            add t0, t0, t0
            add t0, t0, t0
            add t0, t0, t0
            add t0, t0, t0
            add t0, t0, t0
            add t0, t0, t0
            add t0, t0, t0
            ecall
        "#;
        let mut cpu = OooCpu::paper_baseline();
        let p = cpu.run(&assemble(par).unwrap(), 1).unwrap();
        let s = cpu.run(&assemble(ser).unwrap(), 1).unwrap();
        assert!(
            p.cycles < s.cycles,
            "parallel {} vs serial {}",
            p.cycles,
            s.cycles
        );
    }

    #[test]
    fn multithread_scales() {
        // Each thread sums a private array slice; more threads, same total
        // work, shorter wall-clock.
        let src = r#"
                li   t1, 4096
                div  t2, t1, a1
                mul  t0, t2, a0
                add  t2, t0, t2
                slli t3, t0, 2
                li   t4, 0
            loop:
                lw   t5, 0(t3)
                add  t4, t4, t5
                addi t3, t3, 4
                addi t0, t0, 1
                blt  t0, t2, loop
                slli t6, a0, 2
                li   s0, 0x80000
                add  t6, t6, s0
                sw   t4, 0(t6)
                ecall
            "#;
        let program = assemble(src).unwrap();
        let mut cpu = OooCpu::paper_baseline();
        let one = cpu.run(&program, 1).unwrap();
        let twelve = cpu.run(&program, 12).unwrap();
        assert!(
            twelve.cycles * 4 < one.cycles,
            "12 threads ({}) should be much faster than 1 ({})",
            twelve.cycles,
            one.cycles
        );
    }

    #[test]
    fn waves_beyond_core_count() {
        let program = assemble("slli t0, a0, 2\nsw a1, 0(t0)\necall\n").unwrap();
        let mut cpu = OooCpu::new(O3Config::aggressive_8wide(), 2);
        cpu.run(&program, 5).unwrap();
        for t in 0..5u32 {
            assert_eq!(cpu.read_word(4 * t), 5);
        }
    }

    #[test]
    fn branch_predictor_pays_off() {
        // A regular loop should mispredict rarely after warm-up.
        let program = assemble(
            r#"
                li t0, 1000
            loop:
                addi t0, t0, -1
                bnez t0, loop
                ecall
            "#,
        )
        .unwrap();
        let mut cpu = OooCpu::paper_baseline();
        let stats = cpu.run(&program, 1).unwrap();
        assert!(
            stats.activity.mispredicts < 20,
            "mispredicts = {}",
            stats.activity.mispredicts
        );
    }
}
