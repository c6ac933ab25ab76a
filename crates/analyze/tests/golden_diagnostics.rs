//! Diagnostics are byte-deterministic: the pipeline caches rendered
//! reports on disk and serves them on warm runs, so a fresh analysis
//! must reproduce the cached bytes exactly — ordering included. The
//! emission order of lints is pinned by the `(pc, lint id)` sort; this
//! golden locks the whole rendered artifact so any accidental ordering
//! or formatting drift fails loudly instead of invalidating caches
//! silently.

use diag_analyze::{analyze, json_report, AnalyzeOptions};
use diag_core::DiagConfig;
use diag_workloads::{all, Params};

/// A kernel picked to trigger several diagnostics, including two
/// different findings at the *same* pc — the case the deterministic
/// sort exists for.
const KERNEL: &str = "
    add  s0, s0, t1
    addi t0, zero, 5
    addi t0, t0, 1
loop:
    addi t0, t0, -1
    bnez t0, loop
    sw   s0, 0(gp)
    ecall
    addi t5, zero, 9
";

/// Recorded once from a known-good run. A mismatch means the rendered
/// diagnostics changed — if intentional, re-record and call out the
/// cache invalidation in review.
const GOLDEN: &str = r#"{"name":"golden","text_insts":8,"blocks":4,"reachable_blocks":3,"has_indirect_jumps":false,"lanes":{"max_live":3,"entry_live":3,"peak_segment_slots":6},"loops":[{"head":4108,"body_insts":2,"guaranteed_insts":2,"lines":1,"reuse_eligible":true,"critical_path":2,"recurrence_ii":1,"ipc_bound":2.00}],"ipc_bound":32.00,"steady_state_ipc_bound":4.00,"diagnostics":[{"severity":"warning","lint":"use-before-def","pc_start":4096,"pc_end":4100,"message":"0x1000 reads `t1` which no instruction on some path from the entry has written (machines zero-initialize it, but the value is meaningless)","context":["> 0x01000: add s0, s0, t1","  0x01004: addi t0, zero, 5","  0x01008: addi t0, t0, 1"]},{"severity":"warning","lint":"use-before-def","pc_start":4096,"pc_end":4100,"message":"0x1000 reads `s0` which no instruction on some path from the entry has written (machines zero-initialize it, but the value is meaningless)","context":["> 0x01000: add s0, s0, t1","  0x01004: addi t0, zero, 5","  0x01008: addi t0, t0, 1"]},{"severity":"warning","lint":"use-before-def","pc_start":4116,"pc_end":4120,"message":"0x1014 <loop+0x8> reads `gp` which no instruction on some path from the entry has written (machines zero-initialize it, but the value is meaningless)","context":["  0x0100c: addi t0, t0, -1","  0x01010: bne t0, zero, -4","> 0x01014: sw s0, 0(gp)","  0x01018: ecall","  0x0101c: addi t5, zero, 9"]},{"severity":"info","lint":"unreachable-block","pc_start":4124,"pc_end":4128,"message":"block 0x101c <loop+0x10> (1 instructions) is unreachable from the entry","context":[]}]}"#;

fn opts(threads: usize) -> AnalyzeOptions {
    AnalyzeOptions {
        config: DiagConfig::f4c32(),
        threads,
    }
}

#[test]
fn diagnostics_render_matches_the_golden_bytes() {
    let program = diag_asm::assemble(KERNEL).expect("kernel assembles");
    let analysis = analyze(&program, &opts(2));
    let report = json_report("golden", &analysis);
    assert_eq!(
        report, GOLDEN,
        "rendered diagnostics drifted from the recorded golden"
    );
    // Two diagnostics share pc 0x1000: the (pc, lint id) sort must hold
    // across the whole list.
    let mut keys: Vec<(u32, &str)> = analysis
        .diagnostics
        .iter()
        .map(|d| (d.pc_range.0, d.lint.id()))
        .collect();
    let sorted = {
        let mut s = keys.clone();
        s.sort();
        s
    };
    assert_eq!(keys, sorted, "diagnostics are not (pc, lint id)-sorted");
    assert!(keys.len() >= 4, "golden kernel lost diagnostics");
    keys.dedup();
    assert!(keys.len() < sorted.len(), "expected a shared sort key");
}

#[test]
fn corpus_reports_are_byte_deterministic() {
    for spec in all() {
        let params = Params::tiny().with_threads(2);
        let built = spec.build(&params).expect("workloads assemble");
        let a = json_report(spec.name, &analyze(&built.program, &opts(2)));
        let b = json_report(spec.name, &analyze(&built.program, &opts(2)));
        assert_eq!(
            a, b,
            "{}: independent analyses rendered differently",
            spec.name
        );
        for line in a.lines() {
            diag_trace::json::parse(line)
                .unwrap_or_else(|e| panic!("{}: report is not JSON: {e}", spec.name));
        }
    }
}
