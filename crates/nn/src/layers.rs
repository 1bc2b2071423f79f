//! Basic differentiable layers: fully-connected, ReLU, and layer
//! normalisation (paper Eqs. 9–11).

use crate::param::Parameter;
use optinter_tensor::ops::{Lanes, LANES};
use optinter_tensor::{init, Matrix, Pool};
use rand::Rng;

/// Fully-connected layer `y = x W + b` with `W: [in, out]`, `b: [1, out]`.
///
/// The three matmuls (forward product, weight gradient, input gradient) run
/// through the layer's [`Pool`] via the owner-computes `*_pooled` kernels,
/// so results are bit-identical to serial execution for any thread count.
/// The bias-gradient column sums are a cross-row reduction and stay serial.
pub struct Dense {
    /// Weight matrix, shape `[in_dim, out_dim]`.
    pub w: Parameter,
    /// Bias row vector, shape `[1, out_dim]`.
    pub b: Parameter,
    pool: Pool,
}

impl Dense {
    /// Creates a Xavier-initialised dense layer (serial pool).
    pub fn new(rng: &mut impl Rng, in_dim: usize, out_dim: usize) -> Self {
        Self {
            w: Parameter::new(init::xavier_uniform(rng, in_dim, out_dim)),
            b: Parameter::zeros(1, out_dim),
            pool: Pool::serial(),
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.value.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.value.cols()
    }

    /// Runs this layer's matmuls on `pool` from now on.
    pub fn set_pool(&mut self, pool: Pool) {
        self.pool = pool;
    }

    /// Visits `W` then `b` (for optimizer steps / zeroing).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        f(&mut self.w);
        f(&mut self.b);
    }

    /// Writes `x W + b` into `y` (reshaped as needed) — the allocation-free
    /// path [`crate::Mlp`] uses with workspace buffers.
    pub fn forward_into(&self, x: &Matrix, y: &mut Matrix) {
        // lint: allow(panic-free, reason="input width is pinned at FrozenScorer construction: weights and workspace are sized from the same artifact dims")
        assert_eq!(x.cols(), self.in_dim(), "Dense: input dim mismatch");
        y.reset(x.rows(), self.out_dim());
        x.matmul_accumulate_pooled(&self.w.value, y, 1.0, &self.pool);
        let b = self.b.value.row(0);
        for r in 0..y.rows() {
            for (v, &bi) in y.row_mut(r).iter_mut().zip(b.iter()) {
                *v += bi;
            }
        }
    }

    /// Accumulates `dW`/`db` and writes `dx = g W^T` into `dx` (reshaped as
    /// needed). `x` must be the input the matching forward pass saw; the
    /// caller owns the activation chain, so nothing is cloned here.
    pub fn backward_into(&mut self, x: &Matrix, grad_out: &Matrix, dx: &mut Matrix) {
        assert_eq!(grad_out.rows(), x.rows(), "Dense: grad batch mismatch");
        assert_eq!(grad_out.cols(), self.out_dim(), "Dense: grad dim mismatch");
        assert_eq!(x.cols(), self.in_dim(), "Dense: input dim mismatch");
        // dW += x^T g
        x.matmul_at_b_accumulate_pooled(grad_out, &mut self.w.grad, 1.0, &self.pool);
        // db += column sums of g
        let db = self.b.grad.row_mut(0);
        for r in 0..grad_out.rows() {
            for (d, &g) in db.iter_mut().zip(grad_out.row(r).iter()) {
                *d += g;
            }
        }
        // dx = g W^T, which overwrites every element
        dx.reshape_for_overwrite(grad_out.rows(), self.in_dim());
        grad_out.matmul_a_bt_into_pooled(&self.w.value, dx, &self.pool);
    }
}

/// Rectified linear unit, `relu(z) = max(0, z)` (paper Eq. 10).
#[derive(Default)]
pub struct Relu {
    mask: Vec<bool>,
    shape: (usize, usize),
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rectifies `a` in place, recording the activation mask for
    /// [`backward_inplace`](Self::backward_inplace) — no output buffer.
    pub fn forward_inplace(&mut self, a: &mut Matrix) {
        self.shape = a.shape();
        // One resize and a branch-free zipped loop, so the pass vectorizes.
        self.mask.resize(a.len(), false);
        for (v, active) in a.as_mut_slice().iter_mut().zip(self.mask.iter_mut()) {
            *active = *v > 0.0;
            *v = if *active { *v } else { 0.0 };
        }
    }

    /// Zeroes the gradient entries of inactive units in place.
    pub fn backward_inplace(&self, g: &mut Matrix) {
        assert_eq!(g.shape(), self.shape, "Relu: grad shape mismatch");
        for (d, &active) in g.as_mut_slice().iter_mut().zip(self.mask.iter()) {
            if !active {
                *d = 0.0;
            }
        }
    }
}

/// Layer normalisation over the feature dimension (paper Eq. 11):
/// `LN(z) = gamma * (z - E[z]) / sqrt(Var[z] + eps) + beta`, per row.
///
/// Rows run in blocks of [`LANES`]: each block's row statistics are eight
/// chains side by side in [`optinter_tensor::ops`], one row per lane, each with its row's
/// seed and column order, and the element passes are zipped slice loops.
/// A partial last block runs the same code with its spare lanes ignored.
pub struct LayerNorm {
    /// Scale vector gamma, shape `[1, dim]`, initialised to 1.
    pub gamma: Parameter,
    /// Shift vector beta, shape `[1, dim]`, initialised to 0.
    pub beta: Parameter,
    eps: f32,
    cached_xhat: Option<Matrix>,
    cached_inv_std: Vec<f32>,
    /// Column-major copy of one block for the lane reductions: `dim`
    /// entries forward and `2 * dim` backward, grown once by the first
    /// forward.
    lanes: Vec<Lanes>,
}

impl LayerNorm {
    /// Creates a layer-norm over `dim` features with the given epsilon.
    pub fn new(dim: usize, eps: f32) -> Self {
        Self {
            gamma: Parameter::new(Matrix::filled(1, dim, 1.0)),
            beta: Parameter::zeros(1, dim),
            eps,
            cached_xhat: None,
            cached_inv_std: Vec::new(),
            lanes: Vec::new(),
        }
    }

    /// Normalised feature dimension.
    pub fn dim(&self) -> usize {
        self.gamma.value.cols()
    }

    /// Visits `gamma` then `beta` (for optimizer steps / zeroing).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    /// Writes `LN(x)` into `y` (reshaped as needed). The normalised
    /// activations are cached in a persistent buffer that is reused across
    /// steps, so the steady state allocates nothing.
    pub fn forward_into(&mut self, x: &Matrix, y: &mut Matrix) {
        // lint: allow(panic-free, reason="input width is pinned at FrozenScorer construction: weights and workspace are sized from the same artifact dims")
        assert_eq!(x.cols(), self.dim(), "LayerNorm: dim mismatch");
        let (rows, n) = x.shape();
        let xhat = self.cached_xhat.get_or_insert_with(|| Matrix::zeros(0, 0));
        xhat.reshape_for_overwrite(rows, n);
        y.reshape_for_overwrite(rows, n);
        self.cached_inv_std.resize(rows, 0.0);
        if n == 0 {
            return;
        }
        self.lanes.resize(2 * n, [0.0; LANES]);
        let gamma = self.gamma.value.row(0);
        let beta = self.beta.value.row(0);
        let block = LANES * n;
        for (((x_b, xh_b), y_b), inv_b) in x
            .as_slice()
            .chunks(block)
            .zip(xhat.as_mut_slice().chunks_mut(block))
            .zip(y.as_mut_slice().chunks_mut(block))
            .zip(self.cached_inv_std.chunks_mut(LANES))
        {
            let (means, vars) = optinter_tensor::ops::block_mean_var(x_b, n, &mut self.lanes);
            let inv_stds = vars.map(|v| 1.0 / (v + self.eps).sqrt());
            for ((((x_row, xh_row), y_row), inv_out), (&mean, &inv_std)) in x_b
                .chunks_exact(n)
                .zip(xh_b.chunks_exact_mut(n))
                .zip(y_b.chunks_exact_mut(n))
                .zip(inv_b.iter_mut())
                .zip(means.iter().zip(&inv_stds))
            {
                *inv_out = inv_std;
                for (((xh, y), &v), (&g, &b)) in xh_row
                    .iter_mut()
                    .zip(y_row.iter_mut())
                    .zip(x_row)
                    .zip(gamma.iter().zip(beta))
                {
                    *xh = (v - mean) * inv_std;
                    *y = g * *xh + b;
                }
            }
        }
    }

    /// Accumulates `dgamma`/`dbeta` and writes the input gradient into `dx`
    /// (reshaped as needed).
    pub fn backward_into(&mut self, grad_out: &Matrix, dx: &mut Matrix) {
        let xhat = match self.cached_xhat.as_ref() {
            Some(xhat) => xhat,
            None => panic!("LayerNorm::backward called before forward"),
        };
        assert_eq!(
            grad_out.shape(),
            xhat.shape(),
            "LayerNorm: grad shape mismatch"
        );
        let (rows, n) = xhat.shape();
        dx.reshape_for_overwrite(rows, n);
        if n == 0 {
            return;
        }
        let n_f = n as f32;
        let gamma = self.gamma.value.row(0);
        let dgamma = self.gamma.grad.row_mut(0);
        let dbeta = self.beta.grad.row_mut(0);
        let block = LANES * n;
        for (((g_b, xh_b), dx_b), inv_b) in grad_out
            .as_slice()
            .chunks(block)
            .zip(xhat.as_slice().chunks(block))
            .zip(dx.as_mut_slice().chunks_mut(block))
            .zip(self.cached_inv_std.chunks(LANES))
        {
            let (sums_dxhat, sums_dxhat_xhat) =
                optinter_tensor::ops::block_norm_grad_sums(g_b, xh_b, gamma, &mut self.lanes);
            for ((((g, xh), dx_row), &inv_std), (&s1, &s2)) in g_b
                .chunks_exact(n)
                .zip(xh_b.chunks_exact(n))
                .zip(dx_b.chunks_exact_mut(n))
                .zip(inv_b)
                .zip(sums_dxhat.iter().zip(&sums_dxhat_xhat))
            {
                // Parameter grads, accumulated in row order per column.
                for ((dg, db), (&gv, &xv)) in dgamma
                    .iter_mut()
                    .zip(dbeta.iter_mut())
                    .zip(g.iter().zip(xh))
                {
                    *dg += gv * xv;
                    *db += gv;
                }
                // dxhat = g * gamma; dx via the standard LN backward:
                // dx = (inv_std / n) * (n*dxhat - sum(dxhat) - xhat * sum(dxhat*xhat))
                for ((d, &gv), (&xv, &gm)) in dx_row.iter_mut().zip(g).zip(xh.iter().zip(gamma)) {
                    let dxh = gv * gm;
                    *d = inv_std / n_f * (n_f * dxh - s1 - xv * s2);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dense_forward_known_values() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut d = Dense::new(&mut rng, 2, 2);
        d.w.value = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
        d.b.value = Matrix::from_rows(&[&[0.5, -0.5]]);
        let x = Matrix::from_rows(&[&[3.0, 4.0]]);
        let mut y = Matrix::zeros(0, 0);
        d.forward_into(&x, &mut y);
        assert_eq!(y.as_slice(), &[3.5, 7.5]);
    }

    #[test]
    fn dense_param_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut d = Dense::new(&mut rng, 5, 7);
        let mut n = 0;
        d.visit_params(&mut |p| n += p.value.len());
        assert_eq!(n, 5 * 7 + 7);
    }

    #[test]
    fn dense_backward_bias_grad_is_column_sum() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = Dense::new(&mut rng, 3, 2);
        let x = Matrix::from_fn(4, 3, |r, c| (r + c) as f32 * 0.1);
        let (mut y, mut dx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        d.forward_into(&x, &mut y);
        let g = Matrix::filled(4, 2, 1.0);
        d.backward_into(&x, &g, &mut dx);
        assert_eq!(d.b.grad.as_slice(), &[4.0, 4.0]);
    }

    #[test]
    fn relu_masks_negatives() {
        let mut relu = Relu::new();
        let mut y = Matrix::from_rows(&[&[-1.0, 2.0], &[0.0, -3.0]]);
        relu.forward_inplace(&mut y);
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 0.0]);
        let mut dx = Matrix::filled(2, 2, 5.0);
        relu.backward_inplace(&mut dx);
        assert_eq!(dx.as_slice(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn layernorm_output_is_normalised() {
        let mut ln = LayerNorm::new(4, 1e-5);
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0], &[10.0, 10.0, 10.0, 10.1]]);
        let mut y = Matrix::zeros(0, 0);
        ln.forward_into(&x, &mut y);
        for r in 0..y.rows() {
            let (mean, var) = optinter_tensor::ops::row_mean_var(y.row(r));
            assert!(mean.abs() < 1e-3, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 0.05, "row {r} var {var}");
        }
    }

    #[test]
    fn layernorm_gamma_beta_affect_output() {
        let mut ln = LayerNorm::new(2, 1e-5);
        ln.gamma.value = Matrix::from_rows(&[&[2.0, 2.0]]);
        ln.beta.value = Matrix::from_rows(&[&[1.0, 1.0]]);
        let x = Matrix::from_rows(&[&[0.0, 2.0]]);
        let mut y = Matrix::zeros(0, 0);
        ln.forward_into(&x, &mut y);
        // xhat = [-1, 1] -> y = [-1, 3]
        assert!((y.get(0, 0) + 1.0).abs() < 1e-4);
        assert!((y.get(0, 1) - 3.0).abs() < 1e-4);
    }

    /// The per-row LayerNorm forward the block path replaced, kept as its
    /// bit oracle: one row at a time through `row_mean_var`. Returns `y`,
    /// `x̂` and the per-row `1 / sqrt(var + eps)`.
    fn reference_forward(
        x: &Matrix,
        gamma: &[f32],
        beta: &[f32],
        eps: f32,
    ) -> (Matrix, Matrix, Vec<f32>) {
        let n = x.cols();
        let mut y = Matrix::zeros(x.rows(), n);
        let mut xhat = Matrix::zeros(x.rows(), n);
        let mut inv_stds = Vec::new();
        for r in 0..x.rows() {
            let (mean, var) = optinter_tensor::ops::row_mean_var(x.row(r));
            let inv_std = 1.0 / (var + eps).sqrt();
            inv_stds.push(inv_std);
            let xh_row = xhat.row_mut(r);
            for (c, &v) in x.row(r).iter().enumerate() {
                xh_row[c] = (v - mean) * inv_std;
            }
            let y_row = y.row_mut(r);
            for c in 0..n {
                y_row[c] = gamma[c] * xh_row[c] + beta[c];
            }
        }
        (y, xhat, inv_stds)
    }

    /// The per-row LayerNorm backward the block path replaced: accumulates
    /// into `dgamma`/`dbeta` and returns `dx`.
    fn reference_backward(
        g: &Matrix,
        xhat: &Matrix,
        inv_stds: &[f32],
        gamma: &[f32],
        dgamma: &mut [f32],
        dbeta: &mut [f32],
    ) -> Matrix {
        let n = xhat.cols();
        let n_f = n as f32;
        let mut dx = Matrix::zeros(xhat.rows(), n);
        for (r, &inv_std) in inv_stds.iter().enumerate() {
            let (g, xh) = (g.row(r), xhat.row(r));
            for c in 0..n {
                dgamma[c] += g[c] * xh[c];
                dbeta[c] += g[c];
            }
            let mut sum_dxhat = 0.0f32;
            let mut sum_dxhat_xhat = 0.0f32;
            for c in 0..n {
                let dxh = g[c] * gamma[c];
                sum_dxhat += dxh;
                sum_dxhat_xhat += dxh * xh[c];
            }
            let dx_row = dx.row_mut(r);
            for c in 0..n {
                let dxh = g[c] * gamma[c];
                dx_row[c] = inv_std / n_f * (n_f * dxh - sum_dxhat - xh[c] * sum_dxhat_xhat);
            }
        }
        dx
    }

    fn assert_bits(what: &str, got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what} at {i}: {a} vs {b}");
        }
    }

    /// Runs `ln` forward then backward and holds `y`, `dx`, `dgamma` and
    /// `dbeta` to the per-row reference bit for bit. The outputs start as
    /// NaN, so an element the layer fails to write shows.
    fn assert_matches_reference(ln: &mut LayerNorm, x: &Matrix, g: &Matrix, what: &str) {
        let gamma = ln.gamma.value.row(0).to_vec();
        let beta = ln.beta.value.row(0).to_vec();
        let (want_y, want_xhat, inv_stds) = reference_forward(x, &gamma, &beta, ln.eps);
        let mut want_dgamma = ln.gamma.grad.row(0).to_vec();
        let mut want_dbeta = ln.beta.grad.row(0).to_vec();
        let want_dx = reference_backward(
            g,
            &want_xhat,
            &inv_stds,
            &gamma,
            &mut want_dgamma,
            &mut want_dbeta,
        );
        let mut y = Matrix::filled(x.rows(), x.cols(), f32::NAN);
        let mut dx = Matrix::filled(x.rows(), x.cols(), f32::NAN);
        ln.forward_into(x, &mut y);
        ln.backward_into(g, &mut dx);
        assert_bits(&format!("{what}: y"), y.as_slice(), want_y.as_slice());
        assert_bits(&format!("{what}: dx"), dx.as_slice(), want_dx.as_slice());
        assert_bits(
            &format!("{what}: dgamma"),
            ln.gamma.grad.as_slice(),
            &want_dgamma,
        );
        assert_bits(
            &format!("{what}: dbeta"),
            ln.beta.grad.as_slice(),
            &want_dbeta,
        );
    }

    #[test]
    fn layernorm_bits_match_per_row_reference_on_grid() {
        let mut rng = StdRng::seed_from_u64(20);
        for n in [1, 2, 7, 8, 32, 64, 65] {
            let mut ln = LayerNorm::new(n, 1e-5);
            ln.gamma.value = init::uniform(&mut rng, 1, n, 0.5, 1.5);
            ln.beta.value = init::uniform(&mut rng, 1, n, -0.5, 0.5);
            ln.gamma.grad = init::uniform(&mut rng, 1, n, -1.0, 1.0);
            ln.beta.grad = init::uniform(&mut rng, 1, n, -1.0, 1.0);
            // One layer for every batch size, largest first, so partial
            // blocks run over lanes and buffers left by earlier batches.
            for rows in [129, 1, 7, 8, 9, 15, 16, 17, 128] {
                let x = init::uniform(&mut rng, rows, n, -3.0, 3.0);
                let g = init::uniform(&mut rng, rows, n, -1.0, 1.0);
                assert_matches_reference(&mut ln, &x, &g, &format!("{rows} x {n}"));
            }
        }
    }

    #[test]
    fn layernorm_bits_match_per_row_reference_on_edge_rows() {
        for n in [1, 2, 8, 9] {
            let mut ln = LayerNorm::new(n, 1e-5);
            // With beta = -0.0, an all -0.0 row gives y = +0.0 only when the
            // mean's fold starts from -0.0, as `Sum for f32` does.
            ln.beta.value = Matrix::filled(1, n, -0.0);
            let edge = |r: usize, c: usize| match r {
                0 => -0.0,
                1 => 3.5,
                2 if c == 0 => f32::INFINITY,
                3 if c == n - 1 => f32::NEG_INFINITY,
                4 if c == n / 2 => f32::NAN,
                _ => (r * 7 + c * 3) as f32 * 0.25 - 2.0,
            };
            // Eleven rows: one full block with every edge row, then three
            // ordinary rows in a partial one.
            let x = Matrix::from_fn(11, n, edge);
            let g = Matrix::from_fn(11, n, |r, c| ((r + 2 * c) % 5) as f32 - 2.0);
            assert_matches_reference(&mut ln, &x, &g, &format!("edge rows x {n}"));
        }
    }

    #[test]
    fn layernorm_bits_width_zero_is_empty_not_a_panic() {
        let mut ln = LayerNorm::new(0, 1e-5);
        let (mut y, mut dx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        ln.forward_into(&Matrix::zeros(5, 0), &mut y);
        ln.backward_into(&Matrix::zeros(5, 0), &mut dx);
        assert_eq!((y.shape(), dx.shape()), ((5, 0), (5, 0)));
    }

    #[test]
    fn dense_zero_grads_through_visit_params() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut d = Dense::new(&mut rng, 2, 2);
        let x = Matrix::filled(1, 2, 1.0);
        let (mut y, mut dx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        d.forward_into(&x, &mut y);
        d.backward_into(&x, &Matrix::filled(1, 2, 1.0), &mut dx);
        assert!(d.w.grad.max_abs() > 0.0);
        d.visit_params(&mut |p| p.grad.fill_zero());
        assert_eq!(d.w.grad.max_abs(), 0.0);
        assert_eq!(d.b.grad.max_abs(), 0.0);
    }
}
