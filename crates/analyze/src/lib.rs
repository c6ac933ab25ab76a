//! # diag-analyze — static dataflow-graph analysis for DiAG programs
//!
//! DiAG's central claim is that the program-order instruction stream
//! *statically* determines the hardware dataflow graph: PE assignment,
//! register-lane routing, segment-buffer occupancy, and loop datapath-reuse
//! eligibility are all decidable from the binary before a single cycle is
//! simulated (paper §3–§4). This crate performs that decision procedure on
//! an assembled [`diag_asm::Program`]:
//!
//! - **CFG recovery** ([`mod@cfg`]): basic blocks, static branch/jump edges,
//!   reachability, dominators, and natural loops — with indirect jumps
//!   (`jalr`) treated conservatively.
//! - **Lane dataflow** ([`dataflow`]): per-lane def-use, liveness, and the
//!   occupancy estimates DiAG's cluster geometry cares about.
//! - **Lints** ([`lints`], [`diagnostics`]): structured findings for
//!   use-before-def, dead lane writes, unreachable blocks, wild branch
//!   targets, misaligned memory operands, loops exceeding the resident-line
//!   capacity, and SIMT regions that cannot be instance-pipelined.
//! - **Performance bounds** ([`perf`]): per-loop recurrence/critical-path
//!   analysis giving an IPC upper bound that provably dominates the cycle
//!   simulator's measured IPC (enforced by an integration test over every
//!   bundled workload).
//!
//! # Examples
//!
//! ```
//! use diag_analyze::{analyze, AnalyzeOptions};
//! use diag_asm::assemble;
//!
//! let program = assemble(
//!     "    addi t0, zero, 0\n\
//!      loop:\n\
//!      addi t0, t0, 1\n\
//!      blt  t0, a1, loop\n\
//!      ecall\n",
//! )
//! .unwrap();
//! let analysis = analyze(&program, &AnalyzeOptions::default());
//! assert_eq!(analysis.perf.loops.len(), 1);
//! // The add→branch self-circuit on t0 limits each iteration to ≥ 1 cycle.
//! assert!(analysis.perf.loops[0].recurrence_ii >= 1);
//! assert!(analysis.diagnostics.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cfg;
pub mod dataflow;
pub mod diagnostics;
pub mod flame;
pub mod lints;
pub mod perf;
pub mod report;

use diag_asm::Program;
use diag_core::DiagConfig;

pub use cfg::{Block, Cfg, NaturalLoop};
pub use dataflow::{LaneSet, Liveness, UseBeforeDef};
pub use diagnostics::{Diagnostic, Lint, Severity};
pub use perf::{LoopBound, PerfBounds};
pub use report::{json_report, text_report};

/// What to analyze against: the processor geometry and thread count
/// determine line capacity, ring partitioning, and commit bandwidth.
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// Processor configuration (geometry, commit width, trap vector).
    pub config: DiagConfig,
    /// Hardware threads the program will run with.
    pub threads: usize,
}

impl Default for AnalyzeOptions {
    fn default() -> AnalyzeOptions {
        AnalyzeOptions {
            config: DiagConfig::f4c32(),
            threads: 1,
        }
    }
}

/// Everything the analyzer derives from a program.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Number of instructions in the text segment.
    pub text_insts: usize,
    /// The recovered control-flow graph.
    pub cfg: Cfg,
    /// Observable lane liveness over the CFG (halts expose all lanes);
    /// this is the view the dead-write lint is computed from.
    pub liveness: Liveness,
    /// Maximum simultaneously-live lanes at any reachable program point,
    /// under *traffic* liveness (a halt reads nothing) — the lanes that
    /// must physically flow through the PE array.
    pub max_live_lanes: usize,
    /// Lanes live at the entry under traffic liveness (reads the program
    /// expects from the environment; the ABI provides `a0`, `a1`, `sp`).
    pub entry_live_lanes: usize,
    /// Peak segment-buffer occupancy estimate per cluster: every live lane
    /// is buffered `pes_per_cluster / lane_buffer_interval` times per
    /// cluster it crosses (§6.1.2).
    pub peak_segment_slots: usize,
    /// Per-loop and program-level performance bounds.
    pub perf: PerfBounds,
    /// Lint findings, sorted by address.
    pub diagnostics: Vec<Diagnostic>,
}

impl Analysis {
    /// The highest severity present, if any finding was emitted.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }
}

/// Statically analyzes `program` for the processor described by `opts`.
pub fn analyze(program: &Program, opts: &AnalyzeOptions) -> Analysis {
    let cfg = Cfg::build(program, opts.config.trap_vector);
    let liveness = dataflow::liveness(&cfg);
    let traffic = dataflow::traffic_liveness(&cfg);
    let max_live_lanes = traffic.max_live(&cfg);
    let entry_live_lanes = traffic.live_in[cfg.entry].len();
    let peak_segment_slots = max_live_lanes * opts.config.lane_segments_per_cluster();
    let perf = perf::perf_bounds(&cfg, &opts.config, opts.threads);
    let diagnostics = lints::run_lints(program, &cfg, &liveness, &perf, &opts.config, opts.threads);
    Analysis {
        text_insts: program.text_len(),
        cfg,
        liveness,
        max_live_lanes,
        entry_live_lanes,
        peak_segment_slots,
        perf,
        diagnostics,
    }
}
