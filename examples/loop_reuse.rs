//! Datapath reuse (paper §4.3.2): the architectural feature that lets a
//! loop execute "at an efficiency close to accelerators".
//!
//! Runs the same loop kernel on DiAG with reuse enabled and disabled
//! (ablation switch), and on the out-of-order baseline, printing how many
//! I-lines were fetched and instructions decoded per committed
//! instruction — the Table 1 comparison, live.
//!
//! ```text
//! cargo run --example loop_reuse
//! ```

use diag::asm::assemble;
use diag::baseline::OooCpu;
use diag::core::{Diag, DiagConfig};
use diag::sim::{Machine, RunStats};

fn report(name: &str, stats: &RunStats) {
    println!(
        "{name:<24} cycles {:>8}  IPC {:>5.2}  lines/instr {:>6.4}  decodes/instr {:>6.4}",
        stats.cycles,
        stats.ipc(),
        stats.activity.line_fetches as f64 / stats.committed as f64,
        stats.activity.decodes as f64 / stats.committed as f64,
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A dot-product loop: enough body to span two I-lines, iterated enough
    // for steady-state behaviour to dominate.
    let program = assemble(
        r#"
        .data
        vec_a:
            .zero 8192
        vec_b:
            .zero 8192
        .text
            la   a2, vec_a
            la   a3, vec_b
            li   t0, 0
            li   t1, 2048
            li   t2, 0
        loop:
            slli t3, t0, 2
            add  t4, a2, t3
            lw   t5, 0(t4)
            add  t4, a3, t3
            lw   t6, 0(t4)
            mul  t5, t5, t6
            add  t2, t2, t5
            addi t0, t0, 1
            blt  t0, t1, loop
            sw   t2, 0(zero)
            ecall
        "#,
    )?;

    let mut with_reuse = Diag::new(DiagConfig::f4c32());
    let s_reuse = with_reuse.run(&program, 1)?;

    let mut cfg = DiagConfig::f4c32();
    cfg.enable_reuse = false;
    let mut without = Diag::new(cfg);
    let s_noreuse = without.run(&program, 1)?;

    let mut ooo = OooCpu::paper_baseline();
    let s_ooo = ooo.run(&program, 1)?;

    println!(
        "dot product over 2048 elements (all results identical: {})",
        with_reuse.read_word(0)
    );
    assert_eq!(with_reuse.read_word(0), without.read_word(0));
    assert_eq!(with_reuse.read_word(0), ooo.read_word(0));
    println!();
    report("DiAG (reuse)", &s_reuse);
    report("DiAG (reuse disabled)", &s_noreuse);
    report("OoO 8-wide", &s_ooo);
    println!();
    println!(
        "With reuse, {:.1}% of DiAG's instructions executed from the resident \
         datapath — no fetch, no decode — the paper's Table 1 'DiAG (Reuse)' column.",
        s_reuse.reuse_fraction() * 100.0
    );
    assert!(s_reuse.cycles <= s_noreuse.cycles);
    Ok(())
}

#[test]
fn main_succeeds() -> Result<(), Box<dyn std::error::Error>> {
    main()
}
