//! `diag-run`: assemble and execute a bare-metal RV32IMF assembly file on
//! any machine model in the workspace.
//!
//! ```text
//! diag-run <file.s> [--machine SPEC] [--threads N] [--trace] [--dump ADDR LEN]
//! ```
//!
//! `--machine` takes a spec in the canonical grammar shared with the
//! harness and the server — `diag[:preset][+key=value,...]`,
//! `ooo[:cores]`, or `inorder` (presets `i4c2`/`f4c2`/`f4c16`/`f4c32`).
//! So `diag:f4c2+lsu_depth=4` runs a two-cluster DiAG with a shallower
//! load-store unit, and `diag+simt=0,reuse=0` runs SIMT regions
//! sequentially and without datapath reuse.
//!
//! The program halts when every hardware thread executes `ecall`. Run
//! statistics (cycles, IPC, reuse fraction, stall breakdown) print on
//! completion; `--dump` prints a region of final memory and `--trace`
//! prints the first retired instructions with their dataflow timing.

use diag::asm::assemble;
use diag::bench::runner::{build_machine, MachineSpec};
use diag::sim::Tracer;
use diag::trace::{Event, EventKind, Track, VecSink};

struct Options {
    path: String,
    machine: String,
    threads: usize,
    trace: bool,
    dump: Option<(u32, u32)>,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        path: String::new(),
        machine: "diag".to_string(),
        threads: 1,
        trace: false,
        dump: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--machine" => opts.machine = args.next().ok_or("--machine needs a value")?,
            "--threads" => {
                opts.threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--threads needs a number")?
            }
            "--trace" => opts.trace = true,
            "--dump" => {
                let addr = args
                    .next()
                    .and_then(|v| parse_u32(&v))
                    .ok_or("--dump needs ADDR LEN")?;
                let len = args
                    .next()
                    .and_then(|v| parse_u32(&v))
                    .ok_or("--dump needs ADDR LEN")?;
                opts.dump = Some((addr, len));
            }
            other if !other.starts_with("--") && opts.path.is_empty() => {
                opts.path = other.to_string()
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.path.is_empty() {
        return Err("no input file".to_string());
    }
    Ok(opts)
}

fn parse_u32(text: &str) -> Option<u32> {
    if let Some(hex) = text.strip_prefix("0x") {
        u32::from_str_radix(hex, 16).ok()
    } else {
        text.parse().ok()
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: diag-run <file.s> [--machine SPEC] [--threads N] \
                 [--trace] [--dump ADDR LEN]\n\
                 machine specs: diag[:preset][+key=value,...] | ooo[:cores] | inorder"
            );
            std::process::exit(2);
        }
    };
    let source = match std::fs::read_to_string(&opts.path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", opts.path);
            std::process::exit(1);
        }
    };
    let program = match assemble(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("assembly error: {e}");
            std::process::exit(1);
        }
    };

    let spec = match MachineSpec::parse(&opts.machine) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("error: --machine {}: {e}", opts.machine);
            std::process::exit(2);
        }
    };
    let pes_per_cluster = match &spec {
        MachineSpec::Diag(cfg) => cfg.pes_per_cluster as u32,
        _ => 0,
    };
    let mut machine = build_machine(&spec);
    let sink = VecSink::shared();
    if opts.trace {
        machine.set_tracer(Tracer::to_shared(sink.clone()));
    }

    let stats = match machine.run(&program, opts.threads) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("runtime error on {}: {e}", machine.name());
            std::process::exit(1);
        }
    };

    println!("machine:  {}", machine.name());
    println!(
        "program:  {} instructions, {} threads",
        program.text_len(),
        opts.threads
    );
    println!("cycles:   {}", stats.cycles);
    println!("retired:  {} (IPC {:.2})", stats.committed, stats.ipc());
    if stats.activity.reuse_commits > 0 {
        println!(
            "reuse:    {:.1}% of instructions",
            stats.reuse_fraction() * 100.0
        );
    }
    let (m, c, o) = stats.stalls.shares();
    println!("stalls:   memory {m:.0}%, control {c:.0}%, structural {o:.0}%");

    if opts.trace {
        print_retirements(sink.borrow().events(), pes_per_cluster);
    }

    if let Some((addr, len)) = opts.dump {
        println!("\nmemory dump at {addr:#x}:");
        for i in 0..len {
            let a = addr + 4 * i;
            println!("  {a:#010x}: {:#010x}", machine.read_word(a));
        }
    }
}

/// Prints the first 32 retirements of a traced run, thread by thread:
/// each `PeRetire` event with the reuse flag of its `PeIssue`. DiAG PEs
/// print their global slot; cores emit no issue event and decode every
/// instruction.
fn print_retirements(events: &[Event], pes_per_cluster: u32) {
    println!("\nfirst retired instructions (pc / slot / start / finish / commit / reused):");
    let mut issued = None;
    let mut rows = Vec::new();
    for e in events {
        match e.kind {
            EventKind::PeIssue { pc, reused } => issued = Some((e.thread, pc, reused)),
            EventKind::PeRetire { pc, start, finish } => {
                let reused = matches!(issued, Some((t, p, true)) if (t, p) == (e.thread, pc));
                let place = match e.track {
                    Track::Pe { cluster, slot } => {
                        format!("slot {:>3}", cluster * pes_per_cluster + slot)
                    }
                    _ => format!("core {:>3}", e.thread),
                };
                rows.push((e.thread, pc, place, start, finish, e.cycle, reused));
            }
            _ => {}
        }
    }
    // Stable: each thread's rows stay in retirement order.
    rows.sort_by_key(|r| r.0);
    for (_, pc, place, start, finish, commit, reused) in rows.into_iter().take(32) {
        println!(
            "  {pc:#07x}  {place}  {start:>6} {finish:>6} {commit:>6}  {}",
            if reused { "reuse" } else { "decode" }
        );
    }
}
