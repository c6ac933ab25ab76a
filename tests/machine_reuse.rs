//! Machine reuse must be invisible. A sweep or serve worker keeps one
//! machine in a `MachineSlot`: each run re-shapes it to the next spec
//! and reloads it in place. Every such run must produce the `RunStats`
//! (bit for bit), the commit stream and the final memory image that a
//! freshly built machine produces.
//!
//! Seeded random sequences of runs mix every workload, 1–4 threads,
//! SIMT on and off, the tune grid, the DiAG presets, the out-of-order
//! baseline at several core counts and the in-order reference, so each
//! run inherits whatever the previous one left behind: warm caches and
//! meters, dirty memory pages, a larger or smaller ring, a run that
//! failed part-way (FP kernels on the integer-only preset).

use diag::asm::{Program, STACK_STRIDE, STACK_TOP};
use diag::bench::runner::{build_machine, run_built, MachineSlot, MachineSpec};
use diag::bench::tune::default_grid;
use diag::isa::prng::SplitMix64;
use diag::pipeline::Session;
use diag::sim::{Commit, Machine, RunStats};
use diag::workloads::{self, Params, WorkloadSpec};

#[cfg(not(feature = "heavy"))]
const SEEDS: [u64; 3] = [0x5107, 0xD1A6, 7];
#[cfg(feature = "heavy")]
const SEEDS: [u64; 12] = [0x5107, 0xD1A6, 7, 1, 2, 3, 4, 5, 6, 8, 9, 10];

/// Runs per seeded sequence.
const RUNS: usize = 32;

const PAGE: u32 = 4096;

/// Every machine a run may draw: the tune grid, the presets, the
/// out-of-order baseline at several core counts, and the reference.
fn specs() -> Vec<MachineSpec> {
    let mut specs = default_grid();
    for text in [
        "diag:i4c2",
        "diag:f4c2",
        "diag:f4c16",
        "diag:f4c32",
        "diag:f4c32+ring_clusters=4,memlane_capacity=4",
        "ooo:1",
        "ooo:2",
        "ooo:4",
        "ooo:12",
        "inorder",
    ] {
        specs.push(MachineSpec::parse(text).unwrap());
    }
    specs
}

/// What one run leaves: its statistics (or error), its commit stream,
/// and the words of every page the run can touch.
#[derive(Debug, PartialEq)]
struct Outcome {
    stats: Result<RunStats, String>,
    commits: Vec<Commit>,
    memory: Vec<u32>,
}

/// The pages of `program`'s text and data (plus the page after each),
/// and the top stack page of each thread.
fn footprint(program: &Program, threads: usize) -> Vec<(u32, u32)> {
    let pages = |base: u32, bytes: usize| {
        let start = base & !(PAGE - 1);
        let end = (base + bytes as u32).next_multiple_of(PAGE) + PAGE;
        (start, end)
    };
    let mut ranges = vec![
        pages(program.text_base(), program.text().len() * 4),
        pages(program.data_base(), program.data().len()),
    ];
    for t in 0..threads as u32 {
        let top = STACK_TOP - t * STACK_STRIDE;
        ranges.push((top - PAGE, top));
    }
    ranges
}

fn run(
    session: &Session,
    machine: &mut dyn Machine,
    spec: &MachineSpec,
    workload: &WorkloadSpec,
    params: &Params,
) -> Outcome {
    machine.set_commit_log(true);
    let stats = run_built(session, spec, workload, params, machine).map_err(|e| e.to_string());
    let commits = machine.take_commits();
    let program = &session.workload(workload, params).unwrap().program;
    let memory = footprint(program, params.threads)
        .into_iter()
        .flat_map(|(start, end)| (start..end).step_by(4))
        .map(|addr| machine.read_word(addr))
        .collect();
    Outcome {
        stats,
        commits,
        memory,
    }
}

/// Where two outcomes first differ, for the failure message.
fn first_difference(reused: &Outcome, fresh: &Outcome) -> String {
    if reused.stats != fresh.stats {
        return format!("stats {:?} vs fresh {:?}", reused.stats, fresh.stats);
    }
    if let Some(i) = (0..reused.commits.len().min(fresh.commits.len()))
        .find(|&i| reused.commits[i] != fresh.commits[i])
    {
        return format!(
            "commit #{i}: {} vs fresh {}",
            reused.commits[i], fresh.commits[i]
        );
    }
    if reused.commits.len() != fresh.commits.len() {
        return format!(
            "{} commits vs fresh {}",
            reused.commits.len(),
            fresh.commits.len()
        );
    }
    let word = (0..reused.memory.len()).find(|&i| reused.memory[i] != fresh.memory[i]);
    format!("memory differs at footprint word {word:?}")
}

#[test]
fn reused_machines_run_exactly_like_fresh_ones() {
    let session = Session::in_memory();
    let workloads = workloads::all();
    let specs = specs();
    let mut builds = 0;
    for seed in SEEDS {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut slot = MachineSlot::new();
        for i in 0..RUNS {
            let workload = workloads[rng.gen_range(0..workloads.len())];
            let spec = &specs[rng.gen_range(0..specs.len())];
            let params = Params::tiny()
                .with_threads(rng.gen_range(1usize..5))
                .with_simt(rng.gen_range(0u32..2) == 1);
            let reused = run(&session, slot.machine(spec), spec, &workload, &params);
            let fresh = run(
                &session,
                build_machine(spec).as_mut(),
                spec,
                &workload,
                &params,
            );
            assert!(
                reused == fresh,
                "seed {seed:#x}, run {i}: {} on {}, {} threads, simt {}: {}",
                workload.name,
                spec.render(),
                params.threads,
                params.simt,
                first_difference(&reused, &fresh)
            );
        }
        builds += slot.builds();
    }
    // Most runs must really have reused a machine.
    let runs = (SEEDS.len() * RUNS) as u64;
    assert!(builds * 2 < runs, "{builds} builds in {runs} runs");
}
