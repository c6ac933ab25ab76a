//! Stable digests of simulation results.
//!
//! The correctness gate compares a 64-bit FNV-1a digest over every
//! field of every `RunStats` a pass produced (in submission order)
//! across passes and against the pinned values in `expected/`. The
//! field list is written out by hand: a new `RunStats` or `Activity`
//! field leaves the digest unchanged until it is added here, and a
//! changed value anywhere changes it.

use diag_sim::RunStats;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a 64 accumulator.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(OFFSET)
    }
}

impl Digest {
    /// Folds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Folds one integer (little-endian bytes).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a string with its length, so `("ab","c")` ≠ `("a","bc")`.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Folds every field of one run's statistics.
    pub fn run_stats(&mut self, s: &RunStats) {
        let a = &s.activity;
        for v in [
            s.cycles,
            s.committed,
            s.threads,
            s.stalls.memory,
            s.stalls.control,
            s.stalls.structural,
            a.busy_cycles,
            a.pe_active_cycles,
            a.pe_resident_cycles,
            a.fpu_active_cycles,
            a.int_ops,
            a.fp_ops,
            a.loads,
            a.stores,
            a.reg_writes,
            a.lane_transports,
            a.memlane_hits,
            a.bus_beats,
            a.line_fetches,
            a.decodes,
            a.reuse_commits,
            a.renames,
            a.dispatches,
            a.issues,
            a.rob_writes,
            a.bpred_lookups,
            a.mispredicts,
            a.l1d_accesses,
            a.l1d_misses,
            a.l2_accesses,
            a.l2_misses,
            s.freq_ghz.to_bits(),
        ] {
            self.u64(v);
        }
    }

    /// The digest as 16 lowercase hex digits (the `expected/` format).
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunStats {
        let mut s = RunStats {
            cycles: 1234,
            committed: 987,
            threads: 2,
            freq_ghz: 2.0,
            ..RunStats::default()
        };
        s.stalls.memory = 11;
        s.activity.l1d_misses = 5;
        s
    }

    #[test]
    fn digest_is_stable_across_processes() {
        // Pinned: a change here means every expected/ file is stale.
        let mut d = Digest::default();
        d.run_stats(&sample());
        assert_eq!(d.hex(), "b701a601ffbd12ed");
        let mut empty = Digest::default();
        empty.bytes(b"");
        assert_eq!(empty.hex(), format!("{OFFSET:016x}"));
    }

    #[test]
    fn digest_sees_every_field_and_order() {
        let base = {
            let mut d = Digest::default();
            d.run_stats(&sample());
            d.hex()
        };
        let mut changed = sample();
        changed.activity.l2_misses += 1;
        let mut d = Digest::default();
        d.run_stats(&changed);
        assert_ne!(d.hex(), base, "activity field ignored");
        let mut freq = sample();
        freq.freq_ghz = 2.5;
        let mut d = Digest::default();
        d.run_stats(&freq);
        assert_ne!(d.hex(), base, "frequency ignored");

        let (mut ab, mut ba) = (Digest::default(), Digest::default());
        ab.str("ab");
        ab.str("c");
        ba.str("a");
        ba.str("bc");
        assert_ne!(ab.hex(), ba.hex());
    }
}
