//! Order statistics over host-time samples.
//!
//! Every timing the benchmark reports is a median or a nearest-rank
//! percentile of raw samples (never a bucketed histogram), and a tail
//! percentile is only trusted when at least [`MIN_TAIL`] samples lie
//! beyond it.

/// Samples that must lie beyond a percentile before it is reported as
/// a measurement rather than a guess.
pub const MIN_TAIL: usize = 10;

/// Whether `n` samples support percentile `pct` (0–100): at least
/// [`MIN_TAIL`] of them must lie above it.
pub fn tail_supported(n: usize, pct: f64) -> bool {
    let beyond = n as f64 * (1.0 - pct / 100.0);
    beyond + 1e-9 >= MIN_TAIL as f64
}

/// Nearest-rank percentile (`pct` in 0–100) of `sorted`, which must be
/// sorted ascending; 0 for no samples.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` ascending (NaN-free input assumed).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A latency sample set with its percentiles.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    sorted: Vec<f64>,
}

impl Latencies {
    /// Takes ownership of raw samples (any unit).
    pub fn new(mut samples: Vec<f64>) -> Latencies {
        sort(&mut samples);
        Latencies { sorted: samples }
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile.
    pub fn pct(&self, pct: f64) -> f64 {
        percentile_sorted(&self.sorted, pct)
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        median(&self.sorted)
    }

    /// One human-readable line: the median, every percentile the sample
    /// count supports among p99/p99.9, and the count itself.
    pub fn describe(&self, unit: &str) -> String {
        let mut out = format!("p50 {:.4}{unit}", self.p50());
        for pct in [90.0, 99.0, 99.9] {
            if tail_supported(self.len(), pct) {
                out.push_str(&format!(" p{pct} {:.4}{unit}", self.pct(pct)));
            } else {
                out.push_str(&format!(" p{pct} n/a"));
            }
        }
        out.push_str(&format!(" (n={})", self.len()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert!(!tail_supported(999, 99.0));
        assert!(tail_supported(1000, 99.0));
        assert!(!tail_supported(9_999, 99.9));
        assert!(tail_supported(10_000, 99.9));
        assert!(tail_supported(20, 50.0));
        assert!(!tail_supported(19, 50.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 99.0), 990.0);
        assert_eq!(percentile_sorted(&v, 100.0), 1000.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn describe_hides_unsupported_tails() {
        let l = Latencies::new((0..500).map(f64::from).collect());
        let text = l.describe("ms");
        assert!(text.contains("p99 n/a"), "{text}");
        assert!(text.contains("n=500"), "{text}");
    }
}
