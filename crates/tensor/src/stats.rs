//! Small statistics helpers shared by metrics and the benchmark harness.

/// Mean of a slice (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (0 for fewer than two samples).
pub fn sample_variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Minimum and maximum of a slice.
///
/// # Panics
/// Panics on empty input.
pub fn min_max(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "min_max of empty slice");
    let mut lo = xs[0];
    let mut hi = xs[0];
    for &x in &xs[1..] {
        if x < lo {
            lo = x;
        }
        if x > hi {
            hi = x;
        }
    }
    (lo, hi)
}

/// Nearest-rank percentile of an ascending-sorted slice, `q` in `[0, 1]`.
/// `q = 0` yields the minimum, `q = 1` the maximum, an empty slice NaN.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&q), "percentile rank out of range");
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    sorted
        .get(rank.clamp(1, n.max(1)) - 1)
        .map_or(f64::NAN, |&x| x)
}

/// Pearson correlation coefficient of two equal-length slices.
///
/// Returns 0 when either side has zero variance.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson: length mismatch");
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&x, &y) in xs.iter().zip(ys.iter()) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx <= 0.0 || vy <= 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// Spearman rank correlation of two equal-length slices.
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "spearman: length mismatch");
    let rx = average_ranks(xs);
    let ry = average_ranks(ys);
    pearson(&rx, &ry)
}

/// Average (fractional) ranks of a slice, 1-based; ties share the mean rank.
pub fn average_ranks(xs: &[f64]) -> Vec<f64> {
    let n = xs.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| {
        xs[a]
            .partial_cmp(&xs[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        // Ranks i+1 ..= j+1 share the average.
        let avg = (i + 1 + j + 1) as f64 / 2.0;
        for k in i..=j {
            ranks[idx[k]] = avg;
        }
        i = j + 1;
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((sample_variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(sample_variance(&[1.0]), 0.0);
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
        assert!(percentile_sorted(&[], 0.5).is_nan());
    }

    #[test]
    fn min_max_works() {
        assert_eq!(min_max(&[3.0, -1.0, 2.0]), (-1.0, 3.0));
    }

    #[test]
    fn pearson_perfect_correlation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_zero_variance_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn ranks_with_ties() {
        let r = average_ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn spearman_monotone_is_one() {
        let xs = [1.0, 5.0, 9.0, 20.0];
        let ys = [0.1, 0.2, 7.0, 7.5];
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-12);
    }
}
