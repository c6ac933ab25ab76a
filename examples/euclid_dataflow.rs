//! The paper's Figure 3 walkthrough: Euclidean distance computed in
//! dataflow fashion.
//!
//! Figure 3 shows a five-instruction program whose dataflow graph has
//! depth 3; laid out in program order on DiAG's register lanes, the two
//! independent subtractions begin in the same cycle, the two squarings
//! overlap, and execution finishes in the depth of the graph rather than
//! its size. This example builds that exact program (extended with a real
//! square root) and contrasts DiAG against the single-issue in-order
//! reference, which needs one cycle per instruction plus RAW stalls.
//!
//! ```text
//! cargo run --example euclid_dataflow
//! ```

use diag::asm::ProgramBuilder;
use diag::baseline::{InOrder, OooCpu};
use diag::core::{Diag, DiagConfig};
use diag::isa::regs::*;
use diag::sim::Machine;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (x1, y1) = (3.0f32, 7.0f32);
    let (x2, y2) = (6.0f32, 11.0f32);

    let mut b = ProgramBuilder::new();
    let points = b.data_floats("points", &[x1, y1, x2, y2]);
    let out = b.data_zeroed("out", 4);
    b.li(A0, points as i32);
    b.flw(FT0, A0, 0); // x1
    b.flw(FT1, A0, 4); // y1
    b.flw(FT2, A0, 8); // x2
    b.flw(FT3, A0, 12); // y2
                        // The Figure 3 dataflow graph:
                        //   i0: dx = x1 - x2        i2: dy = y1 - y2      (independent)
                        //   i1: dx2 = dx * dx       i3: dy2 = dy * dy     (independent)
                        //   i4: d2 = dx2 + dy2
    b.fsub_s(FT4, FT0, FT2);
    b.fmul_s(FT5, FT4, FT4);
    b.fsub_s(FT6, FT1, FT3);
    b.fmul_s(FT7, FT6, FT6);
    b.fadd_s(FT8, FT5, FT7);
    b.fsqrt_s(FT9, FT8);
    b.li(A1, out as i32);
    b.fsw(FT9, A1, 0);
    b.ecall();
    let program = b.build()?;

    let mut diag = Diag::new(DiagConfig::f4c2());
    let diag_stats = diag.run(&program, 1)?;
    let mut inorder = InOrder::new();
    let inorder_stats = inorder.run(&program, 1)?;
    let mut ooo = OooCpu::new(diag::baseline::O3Config::aggressive_8wide(), 1);
    let ooo_stats = ooo.run(&program, 1)?;

    let expected = ((x1 - x2) * (x1 - x2) + (y1 - y2) * (y1 - y2)).sqrt();
    assert_eq!(diag.read_f32(out), expected);
    assert_eq!(inorder.read_f32(out), expected);

    println!(
        "distance between ({x1},{y1}) and ({x2},{y2}) = {}",
        diag.read_f32(out)
    );
    println!();
    println!("DiAG (dataflow, Figure 3):  {} cycles", diag_stats.cycles);
    println!("OoO 8-wide:                 {} cycles", ooo_stats.cycles);
    println!(
        "in-order (flat 4-cy mem):   {} cycles",
        inorder_stats.cycles
    );
    println!();
    println!(
        "The independent dx/dy chains overlap on DiAG's register lanes exactly \
         as in the paper's Figure 3: i0/i2 start together, i1/i3 overlap, and \
         the additions chain — the graph's depth, not its size, sets the time. \
         (DiAG and the OoO both pay real cold-cache DRAM latency here; the \
         in-order reference uses an idealized flat 4-cycle memory.)"
    );
    assert!(diag_stats.cycles <= ooo_stats.cycles);
    Ok(())
}

#[test]
fn main_succeeds() -> Result<(), Box<dyn std::error::Error>> {
    main()
}
