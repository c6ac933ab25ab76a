//! Workload parameterization and the suite registry.
//!
//! Every benchmark kernel builds a bare-metal RV32IMF [`Program`] from a
//! seeded synthetic input, and carries a verification closure that checks
//! the machine's final memory against an expected result computed in Rust
//! (mirroring the kernel's exact operation order, so f32 results match
//! bit-for-bit).
//!
//! Threading follows the paper's evaluation style (§7.2): kernels are
//! either *partitioned* (threads split one problem's independent elements)
//! or *replicated* (each thread solves a private instance) — both shapes
//! avoid the synchronization primitives the paper's prototype lacks
//! ("we do not have complete hardware support for … atomic instructions",
//! §6). SIMT-capable kernels carry `simt_s`/`simt_e` regions around their
//! innermost independent loop when built with [`Params::simt`].

use diag_asm::{AsmError, Program};
use diag_sim::Machine;

/// Problem-size scale. The paper projected some results from reduced
/// inputs due to RTL-simulation speed (§7.1); the same idea applies here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Seconds-fast inputs for unit tests.
    Tiny,
    /// Default benchmarking inputs.
    Small,
    /// Larger inputs for the full harness runs.
    Full,
}

impl Scale {
    /// Parses a scale name as written on command lines and in
    /// `diag-serve` submits: `tiny`, `small` or `full`.
    ///
    /// # Errors
    ///
    /// Returns ``unknown scale `x` (tiny|small|full)`` for any other text.
    pub fn parse(text: &str) -> Result<Scale, String> {
        match text {
            "tiny" => Ok(Scale::Tiny),
            "small" => Ok(Scale::Small),
            "full" => Ok(Scale::Full),
            other => Err(format!("unknown scale `{other}` (tiny|small|full)")),
        }
    }

    /// The lowercase name [`Scale::parse`] accepts, also used as the
    /// `scale` telemetry label.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Full => "full",
        }
    }
}

/// Build parameters for a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Problem size.
    pub scale: Scale,
    /// Hardware threads the binary will run with (affects partitioning
    /// constants baked into the data segment, not the code).
    pub threads: usize,
    /// Insert `simt_s`/`simt_e` around the pipelineable inner loop.
    pub simt: bool,
    /// RNG seed for input generation.
    pub seed: u64,
}

impl Params {
    /// Single-threaded, small scale, no SIMT — the default experiment
    /// point.
    pub fn small() -> Params {
        Params {
            scale: Scale::Small,
            threads: 1,
            simt: false,
            seed: 0xD1A6,
        }
    }

    /// Tiny scale for unit tests.
    pub fn tiny() -> Params {
        Params {
            scale: Scale::Tiny,
            ..Params::small()
        }
    }

    /// Returns a copy with the given thread count.
    pub fn with_threads(mut self, threads: usize) -> Params {
        self.threads = threads;
        self
    }

    /// Returns a copy with SIMT regions enabled.
    pub fn with_simt(mut self, simt: bool) -> Params {
        self.simt = simt;
        self
    }

    /// Returns a copy at the given problem scale.
    pub fn with_scale(mut self, scale: Scale) -> Params {
        self.scale = scale;
        self
    }
}

/// Verification closure type: checks a machine's post-run memory.
///
/// `Send + Sync` so built workloads can be shared across the parallel
/// sweep runner's workers through the artifact store (the closures only
/// capture expected-result vectors and addresses).
pub type VerifyFn = Box<dyn Fn(&dyn Machine) -> Result<(), String> + Send + Sync>;

/// A built, runnable workload instance.
pub struct BuiltWorkload {
    /// The program image.
    pub program: Program,
    /// Result checker.
    pub verify: VerifyFn,
    /// Dynamic-instruction estimate (for reporting).
    pub approx_work: u64,
}

impl std::fmt::Debug for BuiltWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuiltWorkload")
            .field("program", &self.program)
            .field("approx_work", &self.approx_work)
            .finish_non_exhaustive()
    }
}

/// Benchmark suite a workload belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// Rodinia-style kernels (Figure 9 / 12).
    Rodinia,
    /// SPEC CPU2017-style kernels (Figure 10).
    Spec,
}

/// How the workload uses multiple hardware threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadModel {
    /// Threads split one problem's independent elements.
    Partitioned,
    /// Each thread solves a private instance.
    Replicated,
}

/// A registered workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Kernel name (lowercase, as the paper's figures label them).
    pub name: &'static str,
    /// Owning suite.
    pub suite: Suite,
    /// One-line description of the modelled computation.
    pub description: &'static str,
    /// Whether a SIMT-annotated variant exists (paper: regions were
    /// identified manually, §5.4).
    pub simt_capable: bool,
    /// Threading shape.
    pub thread_model: ThreadModel,
    /// Whether the kernel is dominated by floating-point work.
    pub fp_heavy: bool,
    /// Builder function.
    pub build: fn(&Params) -> Result<BuiltWorkload, AsmError>,
}

/// Process-wide count of [`WorkloadSpec::build`] calls.
static BUILD_CALLS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// How many workload assemblies this process has performed.
///
/// The artifact-pipeline tests assert that warm-cache runs perform *zero*
/// assemblies for already-keyed `(workload, params)` inputs.
pub fn build_calls() -> u64 {
    BUILD_CALLS.load(std::sync::atomic::Ordering::Relaxed)
}

impl WorkloadSpec {
    /// Builds the workload with the given parameters.
    pub fn build(&self, params: &Params) -> Result<BuiltWorkload, AsmError> {
        BUILD_CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        (self.build)(params)
    }
}

/// All Rodinia-style workloads, in figure order.
pub fn rodinia() -> Vec<WorkloadSpec> {
    crate::rodinia::all()
}

/// All SPEC-style workloads, in figure order.
pub fn spec() -> Vec<WorkloadSpec> {
    crate::spec::all()
}

/// Every workload in both suites.
pub fn all() -> Vec<WorkloadSpec> {
    let mut v = rodinia();
    v.extend(spec());
    v
}

/// Looks up a workload by name across both suites.
pub fn find(name: &str) -> Option<WorkloadSpec> {
    all().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete() {
        let r = rodinia();
        let s = spec();
        assert!(
            r.len() >= 10,
            "need at least 10 Rodinia kernels, have {}",
            r.len()
        );
        assert!(
            s.len() >= 8,
            "need at least 8 SPEC kernels, have {}",
            s.len()
        );
        // Names are unique.
        let mut names: Vec<&str> = all().iter().map(|w| w.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate workload names");
    }

    #[test]
    fn find_works() {
        assert!(find("hotspot").is_some());
        assert!(find("nonexistent").is_none());
    }

    #[test]
    fn scales_round_trip_through_their_names() {
        for scale in [Scale::Tiny, Scale::Small, Scale::Full] {
            assert_eq!(Scale::parse(scale.name()), Ok(scale));
        }
        assert_eq!(
            Scale::parse("huge"),
            Err("unknown scale `huge` (tiny|small|full)".to_string())
        );
    }

    #[test]
    fn some_kernels_are_simt_capable() {
        assert!(all().iter().filter(|w| w.simt_capable).count() >= 6);
    }
}
