//! The one summary every timing in the benchmark goes through.

use optinter_tensor::stats::percentile_sorted;

/// Tail percentiles tried from the highest down; the first one with at
/// least [`MIN_BEYOND`] samples above it is reported.
const TAIL_LEVELS: [f64; 4] = [0.9999, 0.999, 0.99, 0.9];

/// Samples a tail percentile needs beyond it before it is reported.
const MIN_BEYOND: usize = 10;

/// Median, tail, fast end and sample count of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// 10th percentile (nearest rank): the fast end of repeated identical
    /// work. Load from other tenants of a shared machine only ever adds
    /// time, so this end moves with the code and little with the machine.
    pub p10: f64,
    /// Median (nearest rank).
    pub p50: f64,
    /// The highest of p90/p99/p99.9/p99.99 that has at least
    /// [`MIN_BEYOND`] samples beyond it; the median when none has.
    pub tail: f64,
    /// Which percentile `tail` is, in percent (50 when it fell back).
    pub tail_pct: f64,
}

impl Summary {
    /// The all-zero summary of an empty sample.
    pub const EMPTY: Summary = Summary {
        n: 0,
        p10: 0.0,
        p50: 0.0,
        tail: 0.0,
        tail_pct: 0.0,
    };
}

/// Summarizes `xs` (sorted in place).
pub fn summarize(xs: &mut [f64]) -> Summary {
    if xs.is_empty() {
        return Summary::EMPTY;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    let p50 = percentile_sorted(xs, 0.5);
    let (tail, tail_pct) = TAIL_LEVELS
        .iter()
        .find(|&&q| n - nearest_rank(q, n) >= MIN_BEYOND)
        .map_or((p50, 50.0), |&q| (percentile_sorted(xs, q), q * 100.0));
    Summary {
        n,
        p10: percentile_sorted(xs, 0.1),
        p50,
        tail,
        tail_pct,
    }
}

/// Median of `xs` (sorted in place); 0 when empty.
pub fn median(xs: &mut [f64]) -> f64 {
    summarize(xs).p50
}

/// The 1-based rank `percentile_sorted` picks for `q` over `n` samples.
fn nearest_rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helper has to sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn thousand_samples_support_p99_but_not_p999() {
        let s = summarize(&mut ramp(1000));
        assert_eq!(s.n, 1000);
        assert_eq!(s.p10, 100.0);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.tail_pct, 99.0);
    }

    #[test]
    fn ten_thousand_samples_support_p999() {
        let s = summarize(&mut ramp(10_000));
        assert_eq!(s.tail, 9990.0);
        assert_eq!(s.tail_pct, 99.9);
    }

    #[test]
    fn hundred_samples_fall_to_p90() {
        let s = summarize(&mut ramp(100));
        assert_eq!((s.p50, s.tail, s.tail_pct), (50.0, 90.0, 90.0));
    }

    #[test]
    fn too_few_samples_fall_back_to_the_median() {
        let s = summarize(&mut [3.0, 1.0, 2.0]);
        assert_eq!(
            (s.n, s.p10, s.p50, s.tail, s.tail_pct),
            (3, 1.0, 2.0, 2.0, 50.0)
        );
        assert_eq!(summarize(&mut []), Summary::EMPTY);
    }

    #[test]
    fn median_matches_percentile_sorted() {
        let mut xs = vec![5.0, 9.0, 1.0, 7.0];
        assert_eq!(
            median(&mut xs),
            percentile_sorted(&[1.0, 5.0, 7.0, 9.0], 0.5)
        );
    }
}
