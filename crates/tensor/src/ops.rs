//! Row-wise tensor operations: softmax, log-softmax, and reductions used by
//! the Gumbel-softmax combination block and by layer normalisation.
//!
//! Layer normalisation's row statistics run eight rows at a time, one row
//! per vector lane ([`block_mean_var`], [`block_norm_grad_sums`]). The loop
//! order is free but each row's chain is not: a lane runs exactly the
//! chain of its row (seed, column order, division), so the results equal
//! the one-row oracle [`row_mean_var`] bit for bit.

/// Softmax over a plain slice, written into a caller-provided buffer —
/// the allocation-free form of [`softmax_slice`] for hot paths.
pub fn softmax_into(x: &[f32], tau: f32, out: &mut [f32]) {
    assert!(tau > 0.0, "softmax temperature must be positive, got {tau}");
    assert_eq!(x.len(), out.len(), "softmax_into: length mismatch");
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for (o, &v) in out.iter_mut().zip(x.iter()) {
        *o = ((v - max) / tau).exp();
        sum += *o;
    }
    let inv = 1.0 / sum;
    for v in out.iter_mut() {
        *v *= inv;
    }
}

/// Row-wise softmax over a plain slice, returning probabilities.
pub fn softmax_slice(x: &[f32], tau: f32) -> Vec<f32> {
    let mut out = vec![0.0; x.len()];
    softmax_into(x, tau, &mut out);
    out
}

/// Backward pass of softmax for a single row.
///
/// Given probabilities `p = softmax(x / tau)` and upstream gradient `dp`,
/// writes `dx` where `dx_i = (p_i / tau) * (dp_i - sum_j dp_j p_j)`.
pub fn softmax_backward_slice(p: &[f32], dp: &[f32], tau: f32, dx: &mut [f32]) {
    debug_assert_eq!(p.len(), dp.len());
    debug_assert_eq!(p.len(), dx.len());
    let inner: f32 = p.iter().zip(dp.iter()).map(|(&pi, &di)| pi * di).sum();
    let inv_tau = 1.0 / tau;
    for ((d, &pi), &di) in dx.iter_mut().zip(p.iter()).zip(dp.iter()) {
        *d = pi * inv_tau * (di - inner);
    }
}

/// Index of the maximum element of a slice (first on ties).
///
/// # Panics
/// Panics on an empty slice.
pub fn argmax(x: &[f32]) -> usize {
    assert!(!x.is_empty(), "argmax of empty slice");
    let mut best = 0;
    let mut best_v = x[0];
    for (i, &v) in x.iter().enumerate().skip(1) {
        if v > best_v {
            best = i;
            best_v = v;
        }
    }
    best
}

/// Mean and (biased) variance of one row: the one-row oracle of
/// [`block_mean_var`]. Each statistic is one add chain over ascending
/// columns seeded with `Sum for f32`'s −0.0, divided by the width; an empty
/// row gives `(0, 0)`.
pub fn row_mean_var(row: &[f32]) -> (f32, f32) {
    let n = row.len() as f32;
    if row.is_empty() {
        return (0.0, 0.0);
    }
    let mean = row.iter().sum::<f32>() / n;
    let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n;
    (mean, var)
}

/// Rows the block reductions run side by side, one row per lane: one
/// 256-bit vector of `f32` under the workspace's `x86-64-v3` target.
pub const LANES: usize = 8;

/// One `f32` per lane: a statistic of each row of a block, or one column
/// of a block copied column-major.
pub type Lanes = [f32; LANES];

/// [`row_mean_var`] of every row of `block`, up to [`LANES`] rows of width
/// `n` stored row-major, eight chains at a time: lane `l` of each result
/// is row `l`'s statistic with the oracle's bits, because the lane runs
/// exactly the row's chain (seed, order, division). Lanes past the block's
/// rows hold leftovers for the caller to ignore, so a partial block runs
/// the same code as a full one.
///
/// `lanes` is scratch of at least `n` entries: the block is copied into it
/// column-major (`lanes[c][l]` is row `l`, column `c`), so each step of
/// the eight chains is one vector add over contiguous memory.
pub fn block_mean_var(block: &[f32], n: usize, lanes: &mut [Lanes]) -> (Lanes, Lanes) {
    if n == 0 {
        return ([0.0; LANES], [0.0; LANES]);
    }
    let lanes = to_lanes(block, &mut lanes[..n]);
    let n_f = n as f32;
    let mut sum = [-0.0f32; LANES];
    for col in lanes.iter() {
        for (s, &v) in sum.iter_mut().zip(col) {
            *s += v;
        }
    }
    let mean = sum.map(|s| s / n_f);
    let mut sq = [-0.0f32; LANES];
    for col in lanes.iter() {
        for ((s, &v), &m) in sq.iter_mut().zip(col).zip(&mean) {
            *s += (v - m) * (v - m);
        }
    }
    (mean, sq.map(|s| s / n_f))
}

/// The two row sums of the layer-norm input gradient, for every row of a
/// block laid out as in [`block_mean_var`] with width `gamma.len()`: lane
/// `l` holds `Σ_c g·γ` and `Σ_c (g·γ)·x̂` over row `l`, each one add chain
/// from +0.0 over ascending columns. `lanes` is scratch of at least twice
/// the width (`g` and `x̂` column-major, side by side).
pub fn block_norm_grad_sums(
    g: &[f32],
    xhat: &[f32],
    gamma: &[f32],
    lanes: &mut [Lanes],
) -> (Lanes, Lanes) {
    let n = gamma.len();
    let mut sum_dxhat = [0.0f32; LANES];
    let mut sum_dxhat_xhat = [0.0f32; LANES];
    if n == 0 {
        return (sum_dxhat, sum_dxhat_xhat);
    }
    let (g_lanes, xh_lanes) = lanes[..2 * n].split_at_mut(n);
    let g_lanes = to_lanes(g, g_lanes);
    let xh_lanes = to_lanes(xhat, xh_lanes);
    for ((g_col, xh_col), &gm) in g_lanes.iter().zip(xh_lanes.iter()).zip(gamma) {
        for (((s1, s2), &gv), &xh) in sum_dxhat
            .iter_mut()
            .zip(sum_dxhat_xhat.iter_mut())
            .zip(g_col)
            .zip(xh_col)
        {
            let dxh = gv * gm;
            *s1 += dxh;
            *s2 += dxh * xh;
        }
    }
    (sum_dxhat, sum_dxhat_xhat)
}

/// Copies the rows of `block` (width `lanes.len()`, at most [`LANES`] of
/// them) into `lanes` column-major and returns it; lanes past the block's
/// rows keep their old values. The width must be non-zero.
fn to_lanes<'a>(block: &[f32], lanes: &'a mut [Lanes]) -> &'a [Lanes] {
    for (row, l) in block.chunks_exact(lanes.len()).zip(0..LANES) {
        for (col, &v) in lanes.iter_mut().zip(row) {
            col[l] = v;
        }
    }
    lanes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f32, b: f32, tol: f32) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax_slice(&[1.0, 2.0, 3.0], 1.0);
        let b = softmax_slice(&[101.0, 102.0, 103.0], 1.0);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_close(*x, *y, 1e-6);
        }
    }

    #[test]
    fn low_temperature_approaches_onehot() {
        let p = softmax_slice(&[1.0, 2.0, 3.0], 0.01);
        assert!(p[2] > 0.999);
    }

    #[test]
    fn high_temperature_approaches_uniform() {
        let p = softmax_slice(&[1.0, 2.0, 3.0], 1e4);
        for &v in &p {
            assert_close(v, 1.0 / 3.0, 1e-3);
        }
    }

    #[test]
    fn softmax_handles_large_inputs() {
        let p = softmax_slice(&[1e4, 1e4 + 1.0], 1.0);
        assert!(p.iter().all(|v| v.is_finite()));
        assert_close(p[0] + p[1], 1.0, 1e-6);
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn softmax_rejects_nonpositive_tau() {
        softmax_slice(&[1.0], 0.0);
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        let x = [0.5f32, -1.0, 2.0];
        let tau = 0.7;
        let dp = [0.3f32, -0.2, 0.9];
        let p = softmax_slice(&x, tau);
        let mut dx = [0.0f32; 3];
        softmax_backward_slice(&p, &dp, tau, &mut dx);
        let eps = 1e-3;
        for i in 0..3 {
            let mut xp = x;
            xp[i] += eps;
            let mut xm = x;
            xm[i] -= eps;
            let pp = softmax_slice(&xp, tau);
            let pm = softmax_slice(&xm, tau);
            let mut num = 0.0;
            for j in 0..3 {
                num += dp[j] * (pp[j] - pm[j]) / (2.0 * eps);
            }
            assert_close(dx[i], num, 2e-3);
        }
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }

    #[test]
    fn row_mean_var_known() {
        let (m, v) = row_mean_var(&[1.0, 2.0, 3.0, 4.0]);
        assert_close(m, 2.5, 1e-6);
        assert_close(v, 1.25, 1e-6);
    }
}
