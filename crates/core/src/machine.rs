//! The complete DiAG processor model.
//!
//! [`Diag`] assembles the shared memory system, partitions clusters into
//! dataflow rings according to the thread count (paper §7.2.1: one ring of
//! all clusters for a single thread, "16-by-2" rings for multi-threaded
//! runs), and runs one thread per ring on [`diag_sim::Waves`], which
//! interleaves ring execution in time order so shared-resource contention
//! (L1D banks, L2, DRAM channel, 512-bit bus) is modelled, and aggregates
//! statistics.

use std::sync::Arc;

use diag_asm::Program;
use diag_sim::{Machine, Probes, RunStats, SimError, StepOutcome, Waves};

use crate::config::DiagConfig;
use crate::ring::RingSim;
use crate::shared::SharedParts;

/// A DiAG processor instance.
///
/// # Examples
///
/// ```
/// use diag_asm::assemble;
/// use diag_core::{Diag, DiagConfig};
/// use diag_sim::Machine;
///
/// let program = assemble("li a0, 7\nsw a0, 0(zero)\necall\n")?;
/// let mut diag = Diag::new(DiagConfig::f4c2());
/// let stats = diag.run(&program, 1)?;
/// assert_eq!(diag.read_word(0), 7);
/// assert!(stats.cycles > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// Or stepped externally:
///
/// ```
/// use diag_asm::assemble;
/// use diag_core::{Diag, DiagConfig};
/// use diag_sim::Machine;
///
/// let program = assemble("li a0, 7\nsw a0, 0(zero)\necall\n")?;
/// let mut diag = Diag::new(DiagConfig::f4c2());
/// diag.load(&program, 1);
/// while !diag.step()?.is_halted() {}
/// assert_eq!(diag.read_word(0), 7);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Diag {
    config: Arc<DiagConfig>,
    probes: Probes,
    run: Option<Waves<RingSim>>,
}

impl Diag {
    /// Creates a DiAG processor with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent
    /// (see [`DiagConfig::validate`]).
    pub fn new(config: DiagConfig) -> Diag {
        if let Err(e) = config.validate() {
            panic!("invalid DiagConfig {:?}: {e}", config.name);
        }
        Diag {
            config: Arc::new(config),
            probes: Probes::default(),
            run: None,
        }
    }

    /// The processor's configuration.
    pub fn config(&self) -> &DiagConfig {
        &self.config
    }
}

impl Machine for Diag {
    fn name(&self) -> String {
        format!("diag-{}", self.config.name.to_lowercase())
    }

    fn load(&mut self, program: &Program, threads: usize) {
        self.probes.clear_commits();
        let shared = SharedParts::new(&self.config, Arc::new(program.clone()));
        // Threads beyond the ring capacity run in waves (the scheduling
        // table frees rings as threads halt; waves are a conservative
        // approximation).
        self.run = Some(Waves::start(
            shared,
            self.probes.clone(),
            threads,
            self.config.rings_for(threads),
            self.config.max_cycles,
            self.config.freq_ghz,
        ));
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

    fn run(src: &str) -> (Diag, RunStats) {
        let program = assemble(src).unwrap();
        let mut diag = Diag::new(DiagConfig::f4c2());
        let stats = diag.run(&program, 1).unwrap();
        (diag, stats)
    }

    #[test]
    fn straight_line_arithmetic() {
        let (diag, stats) = run(r#"
            li   t0, 6
            li   t1, 7
            mul  t2, t0, t1
            sw   t2, 0(zero)
            ecall
            "#);
        assert_eq!(diag.read_word(0), 42);
        assert_eq!(stats.committed, 5);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn loop_sums_and_reuses_datapath() {
        let (diag, stats) = run(r#"
                li   t0, 100
                li   t1, 0
            loop:
                add  t1, t1, t0
                addi t0, t0, -1
                bnez t0, loop
                sw   t1, 64(zero)
                ecall
            "#);
        assert_eq!(diag.read_word(64), 5050);
        // 2 + 100*3 + 2 = 304 committed instructions.
        assert_eq!(stats.committed, 304);
        // The loop body re-executes from the resident datapath.
        assert!(
            stats.activity.reuse_commits > 250,
            "reuse = {}",
            stats.activity.reuse_commits
        );
        assert!(stats.activity.decodes < 20);
    }

    #[test]
    fn ilp_executes_in_parallel() {
        // Eight independent chains should overlap; a strictly serial
        // machine would need ~8x the cycles of one chain.
        let (_, par) = run(r#"
            li t0, 1
            li t1, 1
            li t2, 1
            li t3, 1
            add t0, t0, t0
            add t1, t1, t1
            add t2, t2, t2
            add t3, t3, t3
            ecall
            "#);
        let (_, ser) = run(r#"
            li t0, 1
            add t0, t0, t0
            add t0, t0, t0
            add t0, t0, t0
            add t0, t0, t0
            add t0, t0, t0
            add t0, t0, t0
            add t0, t0, t0
            ecall
            "#);
        assert!(
            par.cycles < ser.cycles,
            "independent chains ({}) should beat a serial chain ({})",
            par.cycles,
            ser.cycles
        );
    }

    #[test]
    fn memory_round_trip() {
        let (diag, _) = run(r#"
            li   t0, 0x1234
            sw   t0, 0(zero)
            lw   t1, 0(zero)
            addi t1, t1, 1
            sw   t1, 4(zero)
            sb   t1, 8(zero)
            lbu  t2, 8(zero)
            sw   t2, 12(zero)
            ecall
            "#);
        assert_eq!(diag.read_word(0), 0x1234);
        assert_eq!(diag.read_word(4), 0x1235);
        assert_eq!(diag.read_word(12), 0x35);
    }

    #[test]
    fn fp_kernel() {
        let (diag, _) = run(r#"
            .data
            vals:
                .float 3.0, 4.0
            .text
                la    a2, vals
                flw   ft0, 0(a2)
                flw   ft1, 4(a2)
                fmul.s ft2, ft0, ft0
                fmadd.s ft2, ft1, ft1, ft2
                fsqrt.s ft3, ft2
                fsw   ft3, 8(a2)
                ecall
            "#);
        let addr = 8;
        let p = assemble("nop").unwrap();
        let _ = p;
        let v = f32::from_bits(diag.read_word(diag_asm::DATA_BASE + addr));
        assert_eq!(v, 5.0);
    }

    #[test]
    fn forward_branch_skips() {
        let (diag, _) = run(r#"
                li t0, 1
                beqz t0, skip
                li t1, 111
                j out
            skip:
                li t1, 222
            out:
                sw t1, 0(zero)
                ecall
            "#);
        assert_eq!(diag.read_word(0), 111);
    }

    #[test]
    fn multithreaded_disjoint_sums() {
        // Each thread t writes t+1 to word 4*t.
        let program = assemble(
            r#"
                slli t0, a0, 2
                addi t1, a0, 1
                sw   t1, 0(t0)
                ecall
            "#,
        )
        .unwrap();
        let mut diag = Diag::new(DiagConfig::f4c32());
        let stats = diag.run(&program, 12).unwrap();
        for t in 0..12u32 {
            assert_eq!(diag.read_word(4 * t), t + 1, "thread {t}");
        }
        assert_eq!(stats.threads, 12);
        assert_eq!(stats.committed, 4 * 12);
    }

    #[test]
    fn thread_waves_beyond_ring_capacity() {
        // F4C2 in multi-thread mode has 1 ring of 2 clusters; 3 threads
        // need two waves.
        let program = assemble(
            r#"
                slli t0, a0, 2
                sw   a1, 0(t0)
                ecall
            "#,
        )
        .unwrap();
        let mut diag = Diag::new(DiagConfig::f4c2());
        diag.run(&program, 3).unwrap();
        for t in 0..3u32 {
            assert_eq!(diag.read_word(4 * t), 3);
        }
    }

    #[test]
    fn simt_region_pipelines() {
        // for (i = 0; i < 64; i++) out[i] = i * 3;
        let src = r#"
            .data
            out:
                .zero 256
            .text
                la   a2, out
                li   t0, 0
                li   t1, 1
                li   t2, 64
            head:
                simt_s t0, t1, t2, 1
                li   t3, 3
                mul  t4, t0, t3
                slli t5, t0, 2
                add  t5, t5, a2
                sw   t4, 0(t5)
                simt_e t0, t2, head
                ecall
        "#;
        let program = assemble(src).unwrap();
        let mut with = Diag::new(DiagConfig::f4c32());
        let s_with = with.run(&program, 1).unwrap();
        let out = program.symbol("out").unwrap();
        for i in 0..64u32 {
            assert_eq!(with.read_word(out + 4 * i), i * 3, "i={i}");
        }
        // Sequential-fallback semantics must agree.
        let mut cfg = DiagConfig::f4c32();
        cfg.enable_simt = false;
        let mut without = Diag::new(cfg);
        let s_without = without.run(&program, 1).unwrap();
        for i in 0..64u32 {
            assert_eq!(without.read_word(out + 4 * i), i * 3, "seq i={i}");
        }
        assert!(
            s_with.cycles < s_without.cycles,
            "pipelined ({}) should beat sequential ({})",
            s_with.cycles,
            s_without.cycles
        );
    }

    #[test]
    fn reuse_ablation_slows_loops() {
        let src = r#"
                li   t0, 200
                li   t1, 0
            loop:
                add  t1, t1, t0
                addi t0, t0, -1
                bnez t0, loop
                ecall
            "#;
        let program = assemble(src).unwrap();
        let mut on = Diag::new(DiagConfig::f4c2());
        let s_on = on.run(&program, 1).unwrap();
        let mut cfg = DiagConfig::f4c2();
        cfg.enable_reuse = false;
        let mut off = Diag::new(cfg);
        let s_off = off.run(&program, 1).unwrap();
        assert!(
            s_on.cycles < s_off.cycles,
            "reuse on ({}) should beat reuse off ({})",
            s_on.cycles,
            s_off.cycles
        );
        assert!(s_on.activity.line_fetches < s_off.activity.line_fetches);
    }

    #[test]
    fn ebreak_traps_to_vector() {
        // Trap vector at the `handler` label: writes a marker then halts.
        let src = r#"
                li  t0, 5
                ebreak
                ecall
            handler:
                li  t1, 0xAB
                sw  t1, 0(zero)
                ecall
            "#;
        let program = assemble(src).unwrap();
        let mut cfg = DiagConfig::f4c2();
        // handler is at instruction index 3 (li t0 = 1, ebreak, ecall).
        cfg.trap_vector = Some(program.text_base() + 3 * 4);
        let mut diag = Diag::new(cfg);
        diag.run(&program, 1).unwrap();
        assert_eq!(diag.read_word(0), 0xAB);
    }

    #[test]
    fn cycle_limit_detects_runaway() {
        let program = assemble("loop: j loop\n").unwrap();
        let mut cfg = DiagConfig::f4c2();
        cfg.max_cycles = 10_000;
        let mut diag = Diag::new(cfg);
        match diag.run(&program, 1) {
            Err(SimError::CycleLimit { limit }) => assert_eq!(limit, 10_000),
            other => panic!("expected CycleLimit, got {other:?}"),
        }
    }

    #[test]
    fn illegal_instruction_reported() {
        use diag_isa::Inst;
        use std::collections::BTreeMap;
        // Craft a program with a raw illegal word.
        let text = vec![diag_isa::encode(&Inst::NOP), 0xFFFF_FFFF];
        let program = diag_asm::Program::from_parts(
            text,
            diag_asm::TEXT_BASE,
            vec![],
            diag_asm::DATA_BASE,
            diag_asm::TEXT_BASE,
            BTreeMap::new(),
        );
        let mut diag = Diag::new(DiagConfig::f4c2());
        match diag.run(&program, 1) {
            Err(SimError::IllegalInstruction { word, .. }) => assert_eq!(word, 0xFFFF_FFFF),
            other => panic!("expected IllegalInstruction, got {other:?}"),
        }
    }

    #[test]
    fn stall_taxonomy_populated_for_memory_bound() {
        // A pointer-chasing loop over a large ring of addresses misses
        // caches; memory stalls should dominate.
        let mut b = diag_asm::ProgramBuilder::new();
        use diag_isa::regs::*;
        // Build a 64K-entry linked ring with stride 1024 bytes.
        let n = 4096u32;
        let stride = 1024u32;
        let mut next = vec![0u32; (n as usize) * (stride as usize) / 4];
        for i in 0..n {
            let idx = (i * stride / 4) as usize;
            next[idx] = diag_asm::DATA_BASE + ((i + 1) % n) * stride;
        }
        b.data_words("ring", &next);
        b.la(A2, "ring");
        b.li(T0, 8192);
        let top = b.bind_new_label();
        b.lw(A2, A2, 0);
        b.addi(T0, T0, -1);
        b.bnez(T0, top);
        b.ecall();
        let program = b.build().unwrap();
        let mut diag = Diag::new(DiagConfig::f4c2());
        let stats = diag.run(&program, 1).unwrap();
        let (mem, _, _) = stats.stalls.shares();
        assert!(mem > 50.0, "memory share = {mem:.1}%");
    }
}
