//! The static verifier and the simulator catching the *same* bad store,
//! at the *same* station, two different ways.
//!
//! The kernel below computes a pointer of `3` and stores a word through
//! it. That address is wrong twice over: it is below the data window
//! (`DATA_BASE = 0x0010_0000`), and it is not 4-byte aligned.
//!
//! 1. **Statically**: `diag-verify`'s interval fixpoint proves the
//!    address is the singleton `{3}` and *refutes* both the mem-bounds
//!    and the mem-align obligation at the store's pc — no execution.
//! 2. **Dynamically**: the architectural interpreter traps the same
//!    store with [`SimError::Misaligned`] when it actually retires.
//!
//! The example asserts both tools blame the identical program counter —
//! the refutation is not a false positive, and the trap is not a
//! coincidence.
//!
//! ```text
//! cargo run --example verify_oob
//! ```

use diag::asm::assemble;
use diag::mem::MainMemory;
use diag::sim::interp::{arch_step, ArchState};
use diag::sim::SimError;
use diag::verify::{verify, FactKind, Verdict, VerifyOptions};

const KERNEL: &str = "
    addi t0, zero, 3
    addi t1, zero, 77
    sw   t1, 0(t0)
    ecall
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = assemble(KERNEL)?;

    // --- Static: the verifier refutes the store without running it. ---
    let verification = verify(&program, &VerifyOptions::default());
    let refuted: Vec<_> = verification
        .facts
        .iter()
        .filter(|f| f.verdict == Verdict::Refuted)
        .collect();
    for fact in &refuted {
        println!(
            "static : {:#06x} {} refuted — {}",
            fact.pc,
            fact.kind.name(),
            fact.detail
        );
    }
    assert!(
        refuted
            .iter()
            .any(|f| f.kind == FactKind::MemBounds && f.verdict == Verdict::Refuted),
        "expected a refuted mem-bounds fact"
    );
    assert!(
        refuted
            .iter()
            .any(|f| f.kind == FactKind::MemAlign && f.verdict == Verdict::Refuted),
        "expected a refuted mem-align fact"
    );
    let static_pc = refuted[0].pc;
    assert!(refuted.iter().all(|f| f.pc == static_pc));

    // --- Dynamic: the interpreter traps the same store when it runs. ---
    let mut state = ArchState::new_thread(program.entry(), 0, 1);
    let mut mem = MainMemory::with_program(&program);
    let trap = loop {
        let pc = state.pc;
        match arch_step(&mut state, &program, &mut mem, None) {
            Ok(_) if state.halted => panic!("program halted without trapping"),
            Ok(_) => continue,
            Err(e) => break (pc, e),
        }
    };
    let (trap_pc, err) = trap;
    println!("dynamic: {trap_pc:#06x} trapped — {err}");
    assert!(
        matches!(err, SimError::Misaligned { addr: 3, size: 4 }),
        "expected a misaligned 4-byte store to address 3, got {err}"
    );

    // --- Same station. ---
    assert_eq!(
        static_pc, trap_pc,
        "verifier and simulator must blame the same pc"
    );
    println!("agree  : station {static_pc:#06x} refuted statically and trapped dynamically");
    Ok(())
}

#[test]
fn main_succeeds() -> Result<(), Box<dyn std::error::Error>> {
    main()
}
