//! Thread pipelining with the paper's `simt_s` / `simt_e` ISA extension
//! (§4.4, §5.4).
//!
//! Builds a SAXPY loop wrapped in a SIMT region and runs it three ways:
//! pipelined on DiAG, with pipelining disabled (the markers fall back to
//! their sequential-loop semantics), and on the out-of-order baseline
//! (which always executes the markers sequentially). All three produce
//! identical memory results; the pipelined run retires loop instances at
//! close to one per cycle once the pipeline fills.
//!
//! ```text
//! cargo run --example simt_pipeline
//! ```

use diag::asm::ProgramBuilder;
use diag::baseline::OooCpu;
use diag::core::{Diag, DiagConfig};
use diag::isa::regs::*;
use diag::sim::Machine;

const N: usize = 4096;
const A: f32 = 2.5;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let xs: Vec<f32> = (0..N).map(|i| i as f32 * 0.25).collect();
    let ys: Vec<f32> = (0..N).map(|i| 100.0 - i as f32 * 0.125).collect();

    let mut b = ProgramBuilder::new();
    let x_base = b.data_floats("x", &xs);
    let y_base = b.data_floats("y", &ys);
    let out_base = b.data_zeroed("out", 4 * N);
    b.fli_s(FS0, T0, A);
    b.li(S5, x_base as i32);
    b.li(S6, (y_base as i64 - x_base as i64) as i32);
    b.li(S7, (out_base as i64 - x_base as i64) as i32);
    b.li(T0, 0); // rc: element index
    b.li(T1, 1); // step
    b.li(T2, N as i32); // bound
    let head = b.bind_new_label();
    b.simt_s(T0, T1, T2, 1);
    {
        // out[i] = A * x[i] + y[i]
        b.slli(T3, T0, 2);
        b.add(T4, S5, T3);
        b.flw(FT0, T4, 0);
        b.add(T5, T4, S6);
        b.flw(FT1, T5, 0);
        b.fmadd_s(FT2, FS0, FT0, FT1);
        b.add(T5, T4, S7);
        b.fsw(FT2, T5, 0);
    }
    b.simt_e(T0, T2, head);
    b.ecall();
    let program = b.build()?;

    let mut cfg = DiagConfig::f4c32();
    cfg.ring_clusters = cfg.clusters;
    let mut pipelined = Diag::new(cfg.clone());
    let s_pipe = pipelined.run(&program, 1)?;

    let mut seq_cfg = cfg;
    seq_cfg.enable_simt = false;
    let mut sequential = Diag::new(seq_cfg);
    let s_seq = sequential.run(&program, 1)?;

    let mut ooo = OooCpu::paper_baseline();
    let s_ooo = ooo.run(&program, 1)?;

    for (i, (&x, &y)) in xs.iter().zip(&ys).enumerate() {
        let expected = A.mul_add(x, y);
        let addr = out_base + 4 * i as u32;
        assert_eq!(pipelined.read_f32(addr), expected, "pipelined, element {i}");
        assert_eq!(
            sequential.read_f32(addr),
            expected,
            "sequential, element {i}"
        );
        assert_eq!(ooo.read_f32(addr), expected, "baseline, element {i}");
    }

    println!("SAXPY over {N} elements (all three machines agree)");
    println!();
    println!(
        "DiAG, SIMT pipelined:      {:>8} cycles  IPC {:>5.2}",
        s_pipe.cycles,
        s_pipe.ipc()
    );
    println!(
        "DiAG, sequential markers:  {:>8} cycles  IPC {:>5.2}",
        s_seq.cycles,
        s_seq.ipc()
    );
    println!(
        "OoO 8-wide baseline:       {:>8} cycles  IPC {:>5.2}",
        s_ooo.cycles,
        s_ooo.ipc()
    );
    println!();
    println!(
        "pipelined speedup over sequential markers: {:.2}x (one loop instance \
         enters the region per cycle; §4.4.1's temporal parallelism)",
        s_seq.cycles as f64 / s_pipe.cycles as f64
    );
    assert!(s_pipe.cycles < s_seq.cycles);
    Ok(())
}

#[test]
fn main_succeeds() -> Result<(), Box<dyn std::error::Error>> {
    main()
}
