//! Tests for the retirement trace, the speculative-datapath
//! extension (paper §7.3.2 future work), SIMT initiation intervals, and
//! the I4C2 FPGA proof-of-concept configuration (paper §6.2).

use diag::asm::{assemble, ProgramBuilder};
use diag::baseline::{InOrder, OooCpu};
use diag::core::{Diag, DiagConfig};
use diag::isa::regs::*;
use diag::sim::{Machine, Tracer};
use diag::trace::{Event, EventKind, VecSink};

/// One retirement as the tracer reports it: the `PeRetire` event joined
/// with the reuse flag of its `PeIssue`.
#[derive(Debug)]
struct Retired {
    pc: u32,
    start: u64,
    finish: u64,
    commit: u64,
    reused: bool,
}

fn retirements(events: &[Event]) -> Vec<Retired> {
    let mut reused = false;
    let mut out = Vec::new();
    for e in events {
        match e.kind {
            EventKind::PeIssue { reused: r, .. } => reused = r,
            EventKind::PeRetire { pc, start, finish } => out.push(Retired {
                pc,
                start,
                finish,
                commit: e.cycle,
                reused,
            }),
            _ => {}
        }
    }
    out
}

#[test]
fn trace_records_every_committed_instruction() {
    let program = assemble(
        r#"
            li t0, 5
        loop:
            addi t0, t0, -1
            bnez t0, loop
            ecall
        "#,
    )
    .unwrap();
    let mut cpu = Diag::new(DiagConfig::f4c2());
    let sink = VecSink::shared();
    cpu.set_tracer(Tracer::to_shared(sink.clone()));
    let stats = cpu.run(&program, 1).unwrap();
    let trace = retirements(sink.borrow().events());
    assert_eq!(trace.len() as u64, stats.committed);
    // Commit order is monotone, and finish ≤ commit for every event.
    let mut last_commit = 0;
    for e in &trace {
        assert!(e.start <= e.finish, "{e:?}");
        assert!(e.finish <= e.commit, "{e:?}");
        assert!(e.commit >= last_commit, "commit order violated: {e:?}");
        last_commit = e.commit;
        assert!(e.pc >= program.text_base() && e.pc < program.text_end());
    }
    // The loop body (addi at index 1) re-executes reused after iteration 1.
    let body_pc = program.text_base() + 4;
    let body_events: Vec<_> = trace.iter().filter(|e| e.pc == body_pc).collect();
    assert_eq!(body_events.len(), 5);
    assert!(!body_events[0].reused, "first execution decodes");
    assert!(
        body_events[1..].iter().all(|e| e.reused),
        "subsequent iterations reuse"
    );
}

#[test]
fn trace_is_empty_unless_enabled() {
    let program = assemble("li t0, 1\necall\n").unwrap();
    let machines: [Box<dyn Machine>; 3] = [
        Box::new(Diag::new(DiagConfig::f4c2())),
        Box::new(OooCpu::paper_baseline()),
        Box::new(InOrder::new()),
    ];
    for mut cpu in machines {
        let name = cpu.name();
        let sink = VecSink::shared();
        // A tracer takes effect from the next load: installed mid-run,
        // it records nothing of that run.
        cpu.load(&program, 2);
        cpu.set_tracer(Tracer::to_shared(sink.clone()));
        while !cpu.step().unwrap().is_halted() {}
        assert!(sink.borrow().events().is_empty(), "{name}");
        cpu.run(&program, 2).unwrap();
        assert_eq!(retirements(sink.borrow().events()).len(), 4, "{name}");
    }
}

#[test]
fn speculative_datapaths_help_taken_forward_branches() {
    // A branchy kernel whose taken forward branches jump across I-lines,
    // so the taken path needs a fresh line every time.
    let mut b = ProgramBuilder::new();
    b.li(T0, 400);
    b.li(T2, 0);
    let top = b.bind_new_label();
    let far = b.new_label();
    b.andi(T1, T0, 1);
    b.bnez(T1, far); // taken every other iteration
    for _ in 0..3 {
        b.addi(T2, T2, 1);
    }
    for _ in 0..20 {
        b.nop(); // push `far` into another I-line
    }
    b.bind(far);
    b.addi(T0, T0, -1);
    b.bnez(T0, top);
    b.sw(T2, ZERO, 0);
    b.ecall();
    let program = b.build().unwrap();

    let mut plain = Diag::new(DiagConfig::f4c16());
    let s_plain = plain.run(&program, 1).unwrap();
    let mut cfg = DiagConfig::f4c16();
    cfg.speculative_datapaths = true;
    let mut spec = Diag::new(cfg);
    let s_spec = spec.run(&program, 1).unwrap();

    assert_eq!(
        plain.read_word(0),
        spec.read_word(0),
        "architecture unchanged"
    );
    assert!(
        s_spec.cycles <= s_plain.cycles,
        "speculative datapaths must not slow things down ({} vs {})",
        s_spec.cycles,
        s_plain.cycles
    );
}

#[test]
fn simt_interval_throttles_initiation() {
    // Identical region, intervals 1 vs 8: larger interval = fewer
    // instances in flight = more cycles.
    fn saxpyish(interval: u8) -> diag::asm::Program {
        let mut b = ProgramBuilder::new();
        let data = b.data_zeroed("data", 4 * 512);
        b.li(S5, data as i32);
        b.li(T0, 0);
        b.li(T1, 1);
        b.li(T2, 512);
        let head = b.bind_new_label();
        b.simt_s(T0, T1, T2, interval);
        b.slli(T3, T0, 2);
        b.add(T4, S5, T3);
        b.sw(T0, T4, 0);
        b.simt_e(T0, T2, head);
        b.ecall();
        b.build().unwrap()
    }
    let mut cfg = DiagConfig::f4c32();
    cfg.ring_clusters = cfg.clusters;
    let mut fast = Diag::new(cfg.clone());
    let s1 = fast.run(&saxpyish(1), 1).unwrap();
    let mut slow = Diag::new(cfg);
    let s8 = slow.run(&saxpyish(8), 1).unwrap();
    for i in 0..512u32 {
        let addr = fast.read_word(0); // data base unknown here; check via programs
        let _ = addr;
        let a = saxpyish(1).symbol("data").unwrap() + 4 * i;
        assert_eq!(fast.read_word(a), i);
        assert_eq!(slow.read_word(a), i);
    }
    assert!(
        s8.cycles > s1.cycles + 512 * 5,
        "interval 8 ({}) should be far slower than interval 1 ({})",
        s8.cycles,
        s1.cycles
    );
}

/// The paper's §6.2 FPGA proof of concept: "preloaded bare metal RISC-V
/// programs in memory to verify basic functionality" on the integer-only
/// I4C2 model. These are exactly such programs.
#[test]
fn i4c2_fpga_proof_of_concept_suite() {
    let suite: &[(&str, &str, u32, u32)] = &[
        (
            "memset",
            r#"
                li t0, 64
                li t1, 0x100
            loop:
                sw t0, 0(t1)
                addi t1, t1, 4
                addi t0, t0, -1
                bnez t0, loop
                lw t2, 0x100(zero)
                sw t2, 0(zero)
                ecall
            "#,
            0,
            64,
        ),
        (
            "gcd",
            r#"
                li a2, 1071
                li a3, 462
            loop:
                beqz a3, done
                rem  t0, a2, a3
                mv   a2, a3
                mv   a3, t0
                j    loop
            done:
                sw   a2, 0(zero)
                ecall
            "#,
            0,
            21,
        ),
        (
            "popcount",
            r#"
                li t0, 0xDEADBEEF
                li t1, 0
            loop:
                andi t2, t0, 1
                add  t1, t1, t2
                srli t0, t0, 1
                bnez t0, loop
                sw   t1, 0(zero)
                ecall
            "#,
            0,
            0xDEAD_BEEFu32.count_ones(),
        ),
        (
            "bubble_sort_check",
            r#"
            .data
            arr:
                .word 5, 2, 9, 1, 7, 3
            .text
                la   s0, arr
                li   s1, 6
                li   t0, 0
            outer:
                li   t1, 0
            inner:
                addi t2, s1, -1
                bge  t1, t2, next
                slli t3, t1, 2
                add  t3, t3, s0
                lw   t4, 0(t3)
                lw   t5, 4(t3)
                ble  t4, t5, noswap
                sw   t5, 0(t3)
                sw   t4, 4(t3)
            noswap:
                addi t1, t1, 1
                j    inner
            next:
                addi t0, t0, 1
                blt  t0, s1, outer
                lw   t6, 0(s0)
                sw   t6, 0(zero)
                ecall
            "#,
            0,
            1,
        ),
    ];
    for &(name, src, addr, expected) in suite {
        let program = assemble(src).unwrap();
        let mut cpu = Diag::new(DiagConfig::i4c2());
        let stats = cpu
            .run(&program, 1)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(cpu.read_word(addr), expected, "{name}");
        assert!(stats.cycles > 0 && stats.committed > 0, "{name}");
    }
}
