//! Open-loop arrival schedules and the goodput rate ladder.
//!
//! Both are pure functions of their inputs so they can be unit-tested
//! without a server: a seeded Poisson schedule is the same on every run,
//! and a ladder step's pass/fail verdict depends only on what the step
//! measured.

use diag_isa::prng::SplitMix64;

/// Due times (seconds after the pass starts) of `n` requests arriving
/// as a Poisson process at `rate` per second, drawn from `seed`.
pub fn poisson(seed: u64, rate: f64, n: usize) -> Vec<f64> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            // 53 uniform bits in (0, 1]: never ln(0).
            let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
            t += -u.ln() / rate;
            t
        })
        .collect()
}

/// Fisher–Yates shuffle of `items` driven by `seed`.
pub fn shuffle<T>(seed: u64, items: &mut [T]) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Derives an independent stream seed for one pass or phase.
pub fn substream(seed: u64, tag: u64) -> u64 {
    SplitMix64::seed_from_u64(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// Ratio between consecutive ladder rates.
pub const LADDER_STEP: f64 = 1.1;

/// A step is invalid when the generator itself sent this late (µs,
/// p99 over the step): the rate was not actually offered.
pub const MAX_SEND_LAG_US: f64 = 1000.0;

/// Completions may trail the last send by at most this much (ms)
/// before the step counts as having built a backlog.
pub const MAX_DRAIN_MS: f64 = 100.0;

/// What one fixed-rate step measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// p99 latency from due time to result, ms.
    pub p99_ms: f64,
    /// Requests that failed, were rejected, or got no answer.
    pub failed: u64,
    /// Time from the last send to the last result, ms.
    pub drain_ms: f64,
    /// p99 of how late the generator sent, µs.
    pub send_lag_p99_us: f64,
}

impl Step {
    /// Whether the step could be offered and drained: no failures, no
    /// growing backlog, and the generator kept its schedule.
    pub fn sustained(&self) -> bool {
        self.failed == 0 && self.drain_ms < MAX_DRAIN_MS && self.send_lag_p99_us <= MAX_SEND_LAG_US
    }

    /// Whether the step meets the latency limit as well.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.sustained() && self.p99_ms <= limit_ms
    }
}

/// Of two attempts at the same rate, the one that counts: a pass if
/// either passed (a failing step is retried once, so a single host
/// stall cannot end the ladder early), else the lower p99.
pub fn better(a: Step, b: Step, limit_ms: f64) -> Step {
    match (a.passes(limit_ms), b.passes(limit_ms)) {
        (true, _) => a,
        (false, true) => b,
        _ if b.sustained() && (!a.sustained() || b.p99_ms < a.p99_ms) => b,
        _ => a,
    }
}

/// The ladder's next rate after `steps`, or `None` when the goodput is
/// bracketed (a passing step next to a failing one) or `max_steps` are
/// spent. The ladder starts at `start`, climbs by [`LADDER_STEP`] while
/// steps pass and descends while they fail.
pub fn next_rate(start: f64, steps: &[Step], limit_ms: f64, max_steps: usize) -> Option<f64> {
    if steps.len() >= max_steps {
        return None;
    }
    let Some(first) = steps.first() else {
        return Some(start);
    };
    let up = first.passes(limit_ms);
    let last = steps.last().unwrap_or(first);
    if last.passes(limit_ms) != up {
        return None;
    }
    Some(if up {
        last.rate * LADDER_STEP
    } else {
        last.rate / LADDER_STEP
    })
}

/// Goodput of a finished ladder: the highest passing rate, moved toward
/// the adjacent failing rate by where the p99 limit falls between the
/// two steps' p99 (log scale). A failing step that broke for any reason
/// other than latency gives no such interpolation. 0 if nothing passed.
pub fn goodput(steps: &[Step], limit_ms: f64) -> f64 {
    let Some(pass) = steps
        .iter()
        .filter(|s| s.passes(limit_ms))
        .max_by(|a, b| a.rate.total_cmp(&b.rate))
    else {
        return 0.0;
    };
    let fail = steps
        .iter()
        .filter(|s| !s.passes(limit_ms) && s.rate > pass.rate)
        .min_by(|a, b| a.rate.total_cmp(&b.rate));
    match fail {
        Some(f) if f.sustained() && f.p99_ms > pass.p99_ms && pass.p99_ms > 0.0 => {
            let frac = ((limit_ms.ln() - pass.p99_ms.ln()) / (f.p99_ms.ln() - pass.p99_ms.ln()))
                .clamp(0.0, 1.0);
            pass.rate * (f.rate / pass.rate).powf(frac)
        }
        _ => pass.rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(rate: f64, p99_ms: f64) -> Step {
        Step {
            rate,
            p99_ms,
            failed: 0,
            drain_ms: 1.0,
            send_lag_p99_us: 50.0,
        }
    }

    #[test]
    fn poisson_schedule_is_seeded_and_deterministic() {
        let a = poisson(7, 1000.0, 5000);
        assert_eq!(a, poisson(7, 1000.0, 5000));
        assert_ne!(a, poisson(8, 1000.0, 5000));
        assert!(a.windows(2).all(|w| w[1] > w[0]), "arrivals increase");
        // Mean inter-arrival ≈ 1/rate.
        let mean = a[a.len() - 1] / a.len() as f64;
        assert!((mean - 1e-3).abs() < 1e-4, "mean gap {mean}");
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b = a.clone();
        shuffle(3, &mut a);
        shuffle(3, &mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(a, sorted);
        assert_ne!(substream(1, 1), substream(1, 2));
    }

    #[test]
    fn ladder_step_fails_on_latency_limit() {
        assert!(step(100.0, 4.9).passes(5.0));
        assert!(!step(100.0, 5.1).passes(5.0));
        assert!(step(100.0, 5.1).sustained());
    }

    #[test]
    fn ladder_step_fails_on_backlog_errors_and_send_lag() {
        let backlog = Step {
            drain_ms: 150.0,
            ..step(100.0, 1.0)
        };
        assert!(!backlog.passes(5.0));
        let failed = Step {
            failed: 1,
            ..step(100.0, 1.0)
        };
        assert!(!failed.passes(5.0));
        let late = Step {
            send_lag_p99_us: 1500.0,
            ..step(100.0, 1.0)
        };
        assert!(!late.passes(5.0));
    }

    #[test]
    fn ladder_climbs_then_stops_at_the_bracket() {
        let limit = 5.0;
        assert_eq!(next_rate(100.0, &[], limit, 10), Some(100.0));
        let up = [step(100.0, 1.0)];
        let r = next_rate(100.0, &up, limit, 10).unwrap();
        assert!((r - 110.0).abs() < 1e-9);
        assert_eq!(
            next_rate(100.0, &[step(100.0, 1.0), step(110.0, 9.0)], limit, 10),
            None
        );
        let down = [step(100.0, 9.0)];
        let r = next_rate(100.0, &down, limit, 10).unwrap();
        assert!((r - 100.0 / 1.1).abs() < 1e-9);
        assert_eq!(next_rate(100.0, &up, limit, 1), None, "step budget");
    }

    #[test]
    fn a_retry_that_passes_wins() {
        let limit = 5.0;
        let (fail, pass) = (step(100.0, 9.0), step(100.0, 2.0));
        assert_eq!(better(fail, pass, limit), pass);
        assert_eq!(better(pass, fail, limit), pass);
        let worse = step(100.0, 20.0);
        assert_eq!(
            better(worse, fail, limit),
            fail,
            "lower p99 of two failures"
        );
        let backlog = Step {
            drain_ms: 500.0,
            ..step(100.0, 3.0)
        };
        assert_eq!(
            better(backlog, fail, limit),
            fail,
            "a sustained failure beats a backlog"
        );
    }

    #[test]
    fn goodput_interpolates_between_bracketing_steps() {
        let limit = 5.0;
        let steps = [step(100.0, 1.0), step(110.0, 2.5), step(121.0, 10.0)];
        let g = goodput(&steps, limit);
        // The limit sits halfway between 2.5 and 10 on a log scale.
        assert!((g - 110.0 * 1.1f64.sqrt()).abs() < 1e-6, "{g}");
        // A backlog failure is not a latency crossing: no interpolation.
        let mut broken = steps;
        broken[2].drain_ms = 500.0;
        assert_eq!(goodput(&broken, limit), 110.0);
        // No failing step: the highest passing rate.
        assert_eq!(goodput(&steps[..2], limit), 110.0);
        assert_eq!(goodput(&[step(100.0, 9.0)], limit), 0.0);
    }
}
