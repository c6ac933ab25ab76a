//! The multicore out-of-order baseline machine.
//!
//! [`OooCpu`] runs one [`O3Core`](crate::core::O3Core) per hardware
//! thread on [`diag_sim::Waves`] (up to `max_cores`, beyond which threads
//! run in waves), each with a private L1 data cache, all backed by one
//! shared L2 — the paper's 12-core baseline topology (§7.1).

use std::sync::Arc;

use diag_asm::Program;
use diag_isa::StationTable;
use diag_sim::{Machine, Probes, RunStats, SimError, StepOutcome, Waves};

use crate::config::O3Config;
use crate::core::{CoreShared, O3Core};

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
    probes: Probes,
    run: Option<Waves<O3Core>>,
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
            probes: Probes::default(),
            run: None,
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

    /// Sets how many cores run at once from the next [`Machine::load`]
    /// on, so this machine runs like `OooCpu::new(config, max_cores)` of
    /// its own configuration while keeping its memory side and core
    /// storage.
    ///
    /// # Panics
    ///
    /// Panics if `max_cores` is zero.
    pub fn set_max_cores(&mut self, max_cores: usize) {
        assert!(max_cores > 0, "need at least one core");
        self.max_cores = max_cores;
    }
}

impl Machine for OooCpu {
    fn name(&self) -> String {
        format!("{}x{}", self.config.name, self.max_cores)
    }

    fn load(&mut self, program: &Program, threads: usize) {
        let stations = Arc::new(StationTable::build(program.text_base(), program.text()));
        self.load_prepared(program, &stations, threads);
    }

    /// Mounts `program`; a machine that has run before reloads in place
    /// (see [`Machine::load`] on `Diag`).
    fn load_prepared(&mut self, program: &Program, stations: &Arc<StationTable>, threads: usize) {
        self.probes.clear_commits();
        // The text is predecoded once and shared by every core of every
        // wave, so no wave launch or step touches the decoder.
        let (probes, width) = (self.probes.clone(), self.max_cores);
        let (limit, freq) = (self.config.max_cycles, self.config.freq_ghz);
        match &mut self.run {
            Some(run) => {
                run.shared_mut().reload(program, stations);
                run.restart(probes, threads, width, limit, freq);
            }
            None => {
                let shared = CoreShared::new(&self.config, program, stations);
                self.run = Some(Waves::start(shared, probes, threads, width, limit, freq));
            }
        }
    }

    fn step(&mut self) -> Result<StepOutcome, SimError> {
        self.run.as_mut().ok_or(SimError::NotLoaded)?.step()
    }

    fn stats(&self) -> RunStats {
        self.run
            .as_ref()
            .map_or_else(RunStats::default, Waves::stats)
    }

    fn probes_mut(&mut self) -> Option<&mut Probes> {
        Some(&mut self.probes)
    }

    fn read_word(&self, addr: u32) -> u32 {
        self.run
            .as_ref()
            .map_or(0, |run| run.shared().mem.read_u32(addr))
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
