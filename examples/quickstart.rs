//! Quickstart: assemble a small program, run it on DiAG, and inspect the
//! statistics that make the architecture interesting — datapath reuse and
//! the stall breakdown.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use diag::asm::assemble;
use diag::core::{Diag, DiagConfig};
use diag::sim::Machine;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A bare-metal RV32 program: sum of squares 1..=100 via repeated
    // addition, stored to address 0.
    let program = assemble(
        r#"
            li   t0, 100        # i
            li   t1, 0          # acc
        outer:
            mul  t2, t0, t0     # i^2
            add  t1, t1, t2
            addi t0, t0, -1
            bnez t0, outer
            sw   t1, 0(zero)
            ecall
        "#,
    )?;

    println!(
        "program: {} instructions\n{}",
        program.text_len(),
        program.listing()
    );

    let mut cpu = Diag::new(DiagConfig::f4c32());
    let stats = cpu.run(&program, 1)?;

    let expected: u32 = (1..=100u32).map(|i| i * i).sum();
    assert_eq!(cpu.read_word(0), expected);

    println!("result:        {}", cpu.read_word(0));
    println!("cycles:        {}", stats.cycles);
    println!("instructions:  {}", stats.committed);
    println!("IPC:           {:.2}", stats.ipc());
    println!(
        "datapath reuse: {:.1}% of instructions executed without fetch or decode",
        stats.reuse_fraction() * 100.0
    );
    let (m, c, o) = stats.stalls.shares();
    println!("stall sources: memory {m:.0}%, control {c:.0}%, structural {o:.0}%");
    Ok(())
}

#[test]
fn main_succeeds() -> Result<(), Box<dyn std::error::Error>> {
    main()
}
