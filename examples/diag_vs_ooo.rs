//! Head-to-head: run a published workload on DiAG and the paper's
//! out-of-order baseline, with energy estimates — a single-benchmark
//! slice of Figures 9 and 12.
//!
//! ```text
//! cargo run --release --example diag_vs_ooo [workload] [threads]
//! ```
//!
//! `workload` is any registered kernel name (default `hotspot`); run
//! `cargo run --example diag_vs_ooo -- list` to see them all.

use diag::baseline::OooCpu;
use diag::core::{Diag, DiagConfig};
use diag::pipeline::Session;
use diag::power::{BaselineEnergyModel, DiagEnergyModel};
use diag::sim::Machine;
use diag::workloads::{all, find, Params, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args)
}

/// Runs the comparison for the command-line `args`.
fn run(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    if args.first().map(String::as_str) == Some("list") {
        for w in all() {
            println!("{:<14} {:?}: {}", w.name, w.suite, w.description);
        }
        return Ok(());
    }
    let name = args.first().map(String::as_str).unwrap_or("hotspot");
    let threads: usize = args.get(1).and_then(|t| t.parse().ok()).unwrap_or(1);
    let spec = find(name).ok_or_else(|| format!("unknown workload `{name}` (try `list`)"))?;

    let params = Params {
        scale: Scale::Small,
        threads,
        simt: false,
        seed: 0xD1A6,
    };
    // One artifact store for the whole comparison: the workload is
    // assembled once and both machines run the same cached program.
    let session = Session::in_memory();
    let built = session.workload(&spec, &params)?;
    println!(
        "{}: {} ({} threads, ~{} dynamic instructions)",
        spec.name, spec.description, threads, built.approx_work
    );

    let mut diag = Diag::new(DiagConfig::f4c32());
    let s_diag = diag.run(&built.program, threads)?;
    (built.verify)(&diag).map_err(|e| format!("DiAG verification: {e}"))?;

    // The baseline adopts the session's cached station-table lowering
    // instead of re-lowering the text itself.
    let stations = session.stations(&spec, &params, None)?;
    let mut ooo = OooCpu::paper_baseline();
    let s_ooo = ooo.run_prepared(&built.program, &stations, threads)?;
    (built.verify)(&ooo).map_err(|e| format!("baseline verification: {e}"))?;

    let e_diag = DiagEnergyModel::default().energy(&s_diag);
    let e_ooo = BaselineEnergyModel::default().energy(&s_ooo);

    println!();
    println!("                      DiAG F4C32     OoO 8-wide x12");
    println!(
        "cycles             {:>12}   {:>12}",
        s_diag.cycles, s_ooo.cycles
    );
    println!(
        "IPC                {:>12.2}   {:>12.2}",
        s_diag.ipc(),
        s_ooo.ipc()
    );
    println!(
        "energy (nJ)        {:>12.1}   {:>12.1}",
        e_diag.total_nj(),
        e_ooo.total_nj()
    );
    println!();
    println!(
        "relative performance: {:.2}x   energy-efficiency improvement: {:.2}x",
        s_ooo.cycles as f64 / s_diag.cycles as f64,
        e_ooo.total_nj() / e_diag.total_nj()
    );
    Ok(())
}

/// `main` without arguments; the test binary's own arguments are
/// libtest's, not the example's.
#[test]
fn main_succeeds() -> Result<(), Box<dyn std::error::Error>> {
    run(&[])
}
