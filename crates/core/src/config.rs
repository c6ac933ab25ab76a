//! DiAG processor configuration and the paper's evaluation presets.
//!
//! Table 2 of the paper defines four configurations; the presets here
//! reproduce them. Everything the paper calls "parametrizable" (§5) is a
//! field: PEs per cluster, cluster count, ring partitioning, register-lane
//! buffer interval, cache geometry, LSU depth, and the SIMT/reuse feature
//! switches used by the ablation benches.

use diag_mem::CacheConfig;
use std::fmt;

/// A structural constraint violated by a [`DiagConfig`].
///
/// One variant per invariant checked by [`DiagConfig::validate`], so
/// callers that receive configurations from the CLI or the wire can map
/// each violation to a precise diagnostic instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `pes_per_cluster` is zero.
    NoPes,
    /// Fewer than two clusters (§4.3 needs two to alternate).
    TooFewClusters(usize),
    /// Fewer than two clusters per ring.
    TooFewRingClusters(usize),
    /// `lane_buffer_interval` does not divide `pes_per_cluster`.
    IntervalMismatch {
        /// PEs per processing cluster.
        pes_per_cluster: usize,
        /// The offending buffer interval.
        lane_buffer_interval: usize,
    },
    /// `commit_width` is zero.
    ZeroCommitWidth,
    /// `lsu_depth` is zero.
    ZeroLsuDepth,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoPes => write!(f, "need at least one PE per cluster"),
            ConfigError::TooFewClusters(n) => {
                write!(f, "need at least two clusters to alternate (§4.3), got {n}")
            }
            ConfigError::TooFewRingClusters(n) => {
                write!(f, "a ring needs at least two clusters, got {n}")
            }
            ConfigError::IntervalMismatch {
                pes_per_cluster,
                lane_buffer_interval,
            } => write!(
                f,
                "lane buffer interval must divide PEs per cluster \
                 ({lane_buffer_interval} does not divide {pes_per_cluster})"
            ),
            ConfigError::ZeroCommitWidth => write!(f, "commit width must be positive"),
            ConfigError::ZeroLsuDepth => write!(f, "LSU depth must be positive"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Complete parameter set for one DiAG processor instance.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagConfig {
    /// Configuration name (e.g. `"F4C32"`).
    pub name: String,
    /// PEs per processing cluster (paper: 16, one I-cache line's worth).
    pub pes_per_cluster: usize,
    /// Total processing clusters.
    pub clusters: usize,
    /// Clusters allocated per dataflow ring when running multiple threads
    /// (paper §7.2.1 runs multi-threaded DiAG in "16-by-2 format": two
    /// clusters per ring).
    pub ring_clusters: usize,
    /// Register lanes are buffered every this many PEs (paper §6.1.2:
    /// "register lanes buffered every 8 PEs").
    pub lane_buffer_interval: usize,
    /// Whether the F extension hardware is present (I4C2 is integer-only).
    pub fp_enabled: bool,
    /// Modelled clock frequency in GHz (paper Table 2 "Freq. (Sim.)").
    pub freq_ghz: f64,
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry (banked, shared by all rings — §5.2).
    pub l1d: CacheConfig,
    /// Unified L2 geometry, if present.
    pub l2: Option<CacheConfig>,
    /// Outstanding-request window of each cluster's load/store unit.
    pub lsu_depth: usize,
    /// Fast-forwarding window of the per-ring memory lanes (§5.2).
    pub memlane_capacity: usize,
    /// Cycles to transport a fetched I-line to a cluster and latch it
    /// (excludes the I-cache hit latency and bus arbitration).
    pub line_load_cycles: u64,
    /// Maximum simulated cycles before aborting.
    pub max_cycles: u64,
    /// Datapath reuse on backward branches (paper §4.3.2); disabling it
    /// forces a reload of resident lines (ablation).
    pub enable_reuse: bool,
    /// Honour `simt_s`/`simt_e` thread pipelining (§4.4, §5.4); when
    /// disabled the markers execute with their sequential-loop semantics.
    pub enable_simt: bool,
    /// Trap vector for `ebreak` (precise-interrupt support, §5.1.4);
    /// `None` halts the thread instead.
    pub trap_vector: Option<u32>,
    /// Inject an asynchronous interrupt: at the first instruction boundary
    /// after this cycle, thread 0 redirects to the vector (§5.1.4: "when
    /// an interrupt is encountered at instruction i, all instructions from
    /// i+1 … are automatically disabled" and earlier ones retire — precise
    /// by construction).
    pub interrupt_at: Option<(u64, u32)>,
    /// Maximum instructions retiring per cycle per ring (PC-lane
    /// bandwidth through one cluster).
    pub commit_width: usize,
    /// Speculatively construct the datapath on both sides of forward
    /// branches (paper §7.3.2: control penalties "can potentially be
    /// ameliorated by simultaneously constructing multiple speculative
    /// datapaths since DiAG's hardware resources are abundant but usually
    /// sparsely enabled"). Off by default — the paper leaves it as future
    /// work; the `ablation-spec` bench quantifies it.
    pub speculative_datapaths: bool,
}

impl DiagConfig {
    fn base(
        name: &str,
        clusters: usize,
        fp: bool,
        l1d_kib: u32,
        l2_mib: Option<u32>,
    ) -> DiagConfig {
        DiagConfig {
            name: name.to_string(),
            pes_per_cluster: 16,
            clusters,
            ring_clusters: 2,
            lane_buffer_interval: 8,
            fp_enabled: fp,
            freq_ghz: if fp { 2.0 } else { 0.1 },
            l1i: CacheConfig::l1i_32k(),
            l1d: CacheConfig::l1d(l1d_kib),
            l2: l2_mib.map(CacheConfig::l2),
            lsu_depth: 16,
            memlane_capacity: 16,
            line_load_cycles: 1,
            max_cycles: diag_sim::DEFAULT_CYCLE_LIMIT,
            enable_reuse: true,
            enable_simt: true,
            trap_vector: None,
            interrupt_at: None,
            commit_width: 16,
            speculative_datapaths: false,
        }
    }

    /// `I4C2`: RV32I, 2 clusters / 32 PEs, no FPU, 100 MHz FPGA proof of
    /// concept (paper Table 2 and §6.2).
    pub fn i4c2() -> DiagConfig {
        let mut c = DiagConfig::base("I4C2", 2, false, 32, None);
        c.l1d = CacheConfig::l1d(32);
        c
    }

    /// `F4C2`: RV32IMF, 2 clusters / 32 PEs, 64 KiB L1D, 4 MiB L2, 2 GHz.
    pub fn f4c2() -> DiagConfig {
        DiagConfig::base("F4C2", 2, true, 64, Some(4))
    }

    /// `F4C16`: RV32IMF, 16 clusters / 256 PEs, 128 KiB L1D, 4 MiB L2.
    pub fn f4c16() -> DiagConfig {
        DiagConfig::base("F4C16", 16, true, 128, Some(4))
    }

    /// `F4C32`: RV32IMF, 32 clusters / 512 PEs, 128 KiB L1D, 4 MiB L2 —
    /// the paper's headline configuration.
    pub fn f4c32() -> DiagConfig {
        DiagConfig::base("F4C32", 32, true, 128, Some(4))
    }

    /// Total PEs in the processor.
    pub fn total_pes(&self) -> usize {
        self.pes_per_cluster * self.clusters
    }

    /// Instruction bytes per cluster (one I-cache line, §5.1.1).
    pub fn line_bytes(&self) -> u32 {
        (self.pes_per_cluster as u32) * 4
    }

    /// Number of dataflow rings available when running `threads` hardware
    /// threads: each thread needs `ring_clusters` clusters (§7.2.1).
    pub fn rings_for(&self, threads: usize) -> usize {
        if threads <= 1 {
            1
        } else {
            (self.clusters / self.ring_clusters).min(threads).max(1)
        }
    }

    /// Clusters allocated to each ring when running `threads` threads
    /// (single-threaded runs use the whole processor as one ring).
    pub fn clusters_per_ring(&self, threads: usize) -> usize {
        if threads <= 1 {
            self.clusters
        } else {
            self.ring_clusters
        }
    }

    /// Distinct I-lines one ring can hold resident simultaneously — the
    /// datapath-reuse capacity of §4.3.2. A loop whose body spans more
    /// distinct I-lines than this cannot keep its whole datapath resident,
    /// so backward branches reload lines instead of reusing them.
    pub fn reuse_line_capacity(&self, threads: usize) -> usize {
        self.clusters_per_ring(threads)
    }

    /// Instructions a ring can keep resident at once (`reuse_line_capacity`
    /// lines of `pes_per_cluster` PEs) — the loop-body size limit for
    /// datapath reuse used by the static analyzer's capacity lint.
    pub fn reuse_inst_capacity(&self, threads: usize) -> usize {
        self.reuse_line_capacity(threads) * self.pes_per_cluster
    }

    /// Buffered segments per register lane within one cluster (§6.1.2:
    /// lanes are re-driven every `lane_buffer_interval` PEs).
    pub fn lane_segments_per_cluster(&self) -> usize {
        self.pes_per_cluster / self.lane_buffer_interval
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint: PEs per cluster must be a
    /// multiple of the lane-buffer interval, and no structural parameter
    /// may be zero. Configurations now arrive from the CLI and the wire,
    /// so violations are typed errors rather than panics.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.pes_per_cluster == 0 {
            return Err(ConfigError::NoPes);
        }
        if self.clusters < 2 {
            return Err(ConfigError::TooFewClusters(self.clusters));
        }
        if self.ring_clusters < 2 {
            return Err(ConfigError::TooFewRingClusters(self.ring_clusters));
        }
        if !self
            .pes_per_cluster
            .is_multiple_of(self.lane_buffer_interval)
        {
            return Err(ConfigError::IntervalMismatch {
                pes_per_cluster: self.pes_per_cluster,
                lane_buffer_interval: self.lane_buffer_interval,
            });
        }
        if self.commit_width == 0 {
            return Err(ConfigError::ZeroCommitWidth);
        }
        if self.lsu_depth == 0 {
            return Err(ConfigError::ZeroLsuDepth);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_presets() {
        let i4c2 = DiagConfig::i4c2();
        assert_eq!(i4c2.total_pes(), 32);
        assert!(!i4c2.fp_enabled);
        assert!(i4c2.l2.is_none());

        let f4c2 = DiagConfig::f4c2();
        assert_eq!(f4c2.total_pes(), 32);
        assert_eq!(f4c2.l1d.size_bytes, 64 << 10);

        let f4c16 = DiagConfig::f4c16();
        assert_eq!(f4c16.total_pes(), 256);

        let f4c32 = DiagConfig::f4c32();
        assert_eq!(f4c32.total_pes(), 512);
        assert_eq!(f4c32.l1d.size_bytes, 128 << 10);
        assert_eq!(f4c32.l2.unwrap().size_bytes, 4 << 20);
        assert_eq!(f4c32.freq_ghz, 2.0);
        assert_eq!(f4c32.validate(), Ok(()));
    }

    #[test]
    fn ring_partitioning() {
        let c = DiagConfig::f4c32();
        // Single thread: whole processor is one ring.
        assert_eq!(c.rings_for(1), 1);
        assert_eq!(c.clusters_per_ring(1), 32);
        // Multi-thread: 16-by-2 format.
        assert_eq!(c.rings_for(12), 12);
        assert_eq!(c.rings_for(16), 16);
        assert_eq!(c.rings_for(64), 16);
        assert_eq!(c.clusters_per_ring(12), 2);
    }

    #[test]
    fn analyzer_geometry() {
        let c = DiagConfig::f4c32();
        // Single-threaded: the whole processor is one ring, 32 lines / 512
        // instructions of resident loop capacity.
        assert_eq!(c.reuse_line_capacity(1), 32);
        assert_eq!(c.reuse_inst_capacity(1), 512);
        // Multi-threaded 16-by-2: two lines per ring.
        assert_eq!(c.reuse_line_capacity(8), 2);
        assert_eq!(c.reuse_inst_capacity(8), 32);
        // 16 PEs buffered every 8 → 2 segments per lane per cluster.
        assert_eq!(c.lane_segments_per_cluster(), 2);
    }

    #[test]
    fn line_bytes_matches_cache_line() {
        let c = DiagConfig::f4c32();
        assert_eq!(c.line_bytes(), 64);
    }

    #[test]
    fn validate_rejects_bad_interval() {
        let mut c = DiagConfig::f4c32();
        c.lane_buffer_interval = 5;
        assert_eq!(
            c.validate(),
            Err(ConfigError::IntervalMismatch {
                pes_per_cluster: 16,
                lane_buffer_interval: 5,
            })
        );
        assert!(c
            .validate()
            .unwrap_err()
            .to_string()
            .contains("lane buffer interval"));
    }

    #[test]
    fn validate_reports_each_constraint() {
        let mut c = DiagConfig::f4c32();
        c.pes_per_cluster = 0;
        assert_eq!(c.validate(), Err(ConfigError::NoPes));

        let mut c = DiagConfig::f4c32();
        c.clusters = 1;
        assert_eq!(c.validate(), Err(ConfigError::TooFewClusters(1)));

        let mut c = DiagConfig::f4c32();
        c.ring_clusters = 1;
        assert_eq!(c.validate(), Err(ConfigError::TooFewRingClusters(1)));

        let mut c = DiagConfig::f4c32();
        c.commit_width = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroCommitWidth));

        let mut c = DiagConfig::f4c32();
        c.lsu_depth = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroLsuDepth));
    }
}
