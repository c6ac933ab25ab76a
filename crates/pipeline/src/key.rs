//! Stable structural hashing and artifact keys.
//!
//! Artifact identity must survive process boundaries, so keys are computed
//! with a fixed algorithm (64-bit FNV-1a) over a *structural* encoding of
//! the stage inputs — never with [`std::hash::DefaultHasher`], whose output
//! is randomized per process. Every [`StableKey`] implementation destructures
//! its type exhaustively (no `..` patterns), so adding a field to any keyed
//! input is a compile error here until the hash is taught about it — the
//! mechanism that keeps stale cache hits impossible as the workspace grows.

use diag_analyze::AnalyzeOptions;
use diag_core::{DiagConfig, MachineSpec};
use diag_mem::CacheConfig;
use diag_workloads::{Params, Scale};

use std::fmt;

/// Version of the key schema and blob payload encodings. Bump whenever a
/// [`StableKey`] encoding or a blob format changes shape *without* a field
/// change forcing it (e.g. reordering writes): old on-disk artifacts then
/// miss instead of decoding garbage.
pub const SCHEMA_VERSION: u32 = 1;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a structural byte encoding.
///
/// Deterministic across processes, platforms, and compiler versions —
/// the property the on-disk artifact cache depends on.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl StableHasher {
    /// A hasher at the FNV offset basis.
    pub fn new() -> StableHasher {
        StableHasher { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Absorbs a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a `usize`, widened to 64 bits so 32- and 64-bit hosts agree.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs a boolean.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    /// Absorbs an `f64` by bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorbs a string, length-prefixed so `("ab","c")` and `("a","bc")`
    /// hash differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for StableHasher {
    fn default() -> StableHasher {
        StableHasher::new()
    }
}

/// A type whose value can be folded into an artifact key.
///
/// Implementations must destructure `self` exhaustively (compile-time
/// completeness) and write every field in a fixed order.
pub trait StableKey {
    /// Folds this value into `h`.
    fn stable_hash(&self, h: &mut StableHasher);
}

impl StableKey for bool {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_bool(*self);
    }
}

impl StableKey for u32 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u32(*self);
    }
}

impl StableKey for u64 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(*self);
    }
}

impl StableKey for usize {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_usize(*self);
    }
}

impl StableKey for f64 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_f64(*self);
    }
}

impl StableKey for str {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_str(self);
    }
}

impl StableKey for String {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_str(self);
    }
}

impl<T: StableKey> StableKey for Option<T> {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            None => h.write_u8(0),
            Some(v) => {
                h.write_u8(1);
                v.stable_hash(h);
            }
        }
    }
}

impl<A: StableKey, B: StableKey> StableKey for (A, B) {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.0.stable_hash(h);
        self.1.stable_hash(h);
    }
}

impl StableKey for Scale {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u8(match self {
            Scale::Tiny => 0,
            Scale::Small => 1,
            Scale::Full => 2,
        });
    }
}

impl StableKey for Params {
    fn stable_hash(&self, h: &mut StableHasher) {
        // Exhaustive: a new Params field fails to compile here until the
        // key learns about it.
        let Params {
            scale,
            threads,
            simt,
            seed,
        } = self;
        scale.stable_hash(h);
        threads.stable_hash(h);
        simt.stable_hash(h);
        seed.stable_hash(h);
    }
}

impl StableKey for CacheConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        let CacheConfig {
            size_bytes,
            line_bytes,
            ways,
            hit_latency,
            banks,
        } = self;
        size_bytes.stable_hash(h);
        line_bytes.stable_hash(h);
        ways.stable_hash(h);
        hit_latency.stable_hash(h);
        banks.stable_hash(h);
    }
}

impl StableKey for DiagConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        let DiagConfig {
            name,
            pes_per_cluster,
            clusters,
            ring_clusters,
            lane_buffer_interval,
            fp_enabled,
            freq_ghz,
            l1i,
            l1d,
            l2,
            lsu_depth,
            memlane_capacity,
            line_load_cycles,
            max_cycles,
            enable_reuse,
            enable_simt,
            trap_vector,
            interrupt_at,
            commit_width,
            speculative_datapaths,
        } = self;
        name.stable_hash(h);
        pes_per_cluster.stable_hash(h);
        clusters.stable_hash(h);
        ring_clusters.stable_hash(h);
        lane_buffer_interval.stable_hash(h);
        fp_enabled.stable_hash(h);
        freq_ghz.stable_hash(h);
        l1i.stable_hash(h);
        l1d.stable_hash(h);
        l2.stable_hash(h);
        lsu_depth.stable_hash(h);
        memlane_capacity.stable_hash(h);
        line_load_cycles.stable_hash(h);
        max_cycles.stable_hash(h);
        enable_reuse.stable_hash(h);
        enable_simt.stable_hash(h);
        trap_vector.stable_hash(h);
        interrupt_at.stable_hash(h);
        commit_width.stable_hash(h);
        speculative_datapaths.stable_hash(h);
        // The removed `collect_trace` flag hashed here; a constant `false`
        // keeps every key, and so every cached blob, valid across its
        // removal.
        false.stable_hash(h);
    }
}

impl StableKey for MachineSpec {
    fn stable_hash(&self, h: &mut StableHasher) {
        // Exhaustive match: a new machine kind fails to compile here
        // until the key learns about it. The kind discriminant is folded
        // first so `Diag` and a hypothetical baseline with colliding
        // field encodings can never share a hash.
        match self {
            MachineSpec::Diag(cfg) => {
                h.write_u8(1);
                cfg.stable_hash(h);
            }
            MachineSpec::Ooo(cores) => {
                h.write_u8(2);
                cores.stable_hash(h);
            }
            MachineSpec::InOrder => h.write_u8(3),
        }
    }
}

impl StableKey for AnalyzeOptions {
    fn stable_hash(&self, h: &mut StableHasher) {
        let AnalyzeOptions { config, threads } = self;
        config.stable_hash(h);
        threads.stable_hash(h);
    }
}

/// Preparation stage an artifact belongs to. Part of the key, so a
/// program and an analysis of the same inputs can never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// `WorkloadSpec + Params → Program` (workload assembly).
    Program,
    /// `Program + DiagConfig → StationTable` (text lowering).
    Stations,
    /// `Program + AnalyzeOptions → Analysis` (static analysis).
    Analysis,
    /// A rendered analysis or verification report (text or JSON).
    Report,
    /// `Program + VerifyOptions → Verification` (abstract interpretation).
    Verification,
    /// `Workload + Params + MachineSpec → RunStats` (a completed,
    /// verified simulation run — the terminal artifact of the chain).
    Run,
}

impl Stage {
    /// Short tag used in key hashes, file names, and stat lines.
    pub fn tag(self) -> &'static str {
        match self {
            Stage::Program => "program",
            Stage::Stations => "stations",
            Stage::Analysis => "analysis",
            Stage::Report => "report",
            Stage::Verification => "verification",
            Stage::Run => "run",
        }
    }

    /// One-byte stage code for blob framing.
    pub fn code(self) -> u8 {
        match self {
            Stage::Program => 1,
            Stage::Stations => 2,
            Stage::Analysis => 3,
            Stage::Report => 4,
            Stage::Verification => 5,
            Stage::Run => 6,
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// Content-addressed identity of one prepared artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    /// The preparation stage.
    pub stage: Stage,
    /// Stable structural hash of the stage inputs (schema version,
    /// upstream keys, and every field of the typed parameters).
    pub hash: u64,
}

impl fmt::Display for ArtifactKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{:016x}", self.stage, self.hash)
    }
}

fn stage_hasher(stage: Stage) -> StableHasher {
    let mut h = StableHasher::new();
    h.write_u32(SCHEMA_VERSION);
    h.write_str(stage.tag());
    h
}

/// Key of the program stage: `WorkloadSpec + Params → Program`.
pub fn program_key(workload: &str, params: &Params) -> ArtifactKey {
    let mut h = stage_hasher(Stage::Program);
    h.write_str(workload);
    params.stable_hash(&mut h);
    ArtifactKey {
        stage: Stage::Program,
        hash: h.finish(),
    }
}

/// Key of the stations stage: `Program + DiagConfig → StationTable`.
///
/// `config` is the DiAG geometry the table will serve, or `None` for the
/// baseline machines' whole-text lowering (today the lowering itself is
/// geometry-independent, but the key reserves the distinction so a future
/// geometry-aware lowering invalidates cleanly).
pub fn stations_key(program: ArtifactKey, config: Option<&DiagConfig>) -> ArtifactKey {
    let mut h = stage_hasher(Stage::Stations);
    h.write_u64(program.hash);
    match config {
        None => h.write_u8(0),
        Some(c) => {
            h.write_u8(1);
            c.stable_hash(&mut h);
        }
    }
    ArtifactKey {
        stage: Stage::Stations,
        hash: h.finish(),
    }
}

/// Key of the analysis stage: `Program + AnalyzeOptions → Analysis`.
pub fn analysis_key(program: ArtifactKey, opts: &AnalyzeOptions) -> ArtifactKey {
    let mut h = stage_hasher(Stage::Analysis);
    h.write_u64(program.hash);
    opts.stable_hash(&mut h);
    ArtifactKey {
        stage: Stage::Analysis,
        hash: h.finish(),
    }
}

impl StableKey for diag_verify::VerifyOptions {
    fn stable_hash(&self, h: &mut StableHasher) {
        let diag_verify::VerifyOptions {
            threads,
            trap_vector,
        } = self;
        threads.stable_hash(h);
        trap_vector.stable_hash(h);
    }
}

/// Key of the verification stage: `Program + VerifyOptions → Verification`.
pub fn verification_key(program: ArtifactKey, opts: &diag_verify::VerifyOptions) -> ArtifactKey {
    let mut h = stage_hasher(Stage::Verification);
    h.write_u64(program.hash);
    opts.stable_hash(&mut h);
    ArtifactKey {
        stage: Stage::Verification,
        hash: h.finish(),
    }
}

/// Key of the run stage: `Workload + Params + MachineSpec → RunStats`.
///
/// Keyed on the *inputs* (workload name, build/run parameters, and the
/// full machine identity) rather than the program artifact, so a warm
/// resubmission needs no assembly before it can hit. The thread count and
/// SIMT switch ride inside `params`; every `DiagConfig` field rides
/// inside `machine` — flipping any single one changes the key.
pub fn run_key(workload: &str, params: &Params, machine: &MachineSpec) -> ArtifactKey {
    let mut h = stage_hasher(Stage::Run);
    h.write_str(workload);
    params.stable_hash(&mut h);
    machine.stable_hash(&mut h);
    ArtifactKey {
        stage: Stage::Run,
        hash: h.finish(),
    }
}

/// Rendered-report flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReportFormat {
    /// Human-readable text report.
    Text,
    /// Machine-readable JSON report.
    Json,
}

impl ReportFormat {
    /// Short tag folded into the report key.
    pub fn tag(self) -> &'static str {
        match self {
            ReportFormat::Text => "text",
            ReportFormat::Json => "json",
        }
    }
}

/// Key of a rendered analysis report.
pub fn report_key(analysis: ArtifactKey, format: ReportFormat) -> ArtifactKey {
    let mut h = stage_hasher(Stage::Report);
    h.write_u64(analysis.hash);
    h.write_str(format.tag());
    ArtifactKey {
        stage: Stage::Report,
        hash: h.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vector() {
        // Standard FNV-1a test vectors.
        let mut h = StableHasher::new();
        h.write_bytes(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = StableHasher::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn keys_are_stage_disjoint() {
        let params = Params::tiny();
        let p = program_key("hotspot", &params);
        let s = stations_key(p, None);
        let a = analysis_key(p, &AnalyzeOptions::default());
        assert_ne!(p.hash, s.hash);
        assert_ne!(p.hash, a.hash);
        assert_ne!(s.hash, a.hash);
    }

    #[test]
    fn display_embeds_stage() {
        let k = program_key("nn", &Params::tiny());
        let text = k.to_string();
        assert!(text.starts_with("program-"));
        assert_eq!(text.len(), "program-".len() + 16);
    }
}
