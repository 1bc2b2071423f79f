//! Basic differentiable layers: fully-connected, ReLU, and layer
//! normalisation (paper Eqs. 9–11).

use crate::param::Parameter;
use crate::Layer;
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
    cached_input: Option<Matrix>,
    pool: Pool,
}

impl Dense {
    /// Creates a Xavier-initialised dense layer (serial pool).
    pub fn new(rng: &mut impl Rng, in_dim: usize, out_dim: usize) -> Self {
        Self {
            w: Parameter::new(init::xavier_uniform(rng, in_dim, out_dim)),
            b: Parameter::zeros(1, out_dim),
            cached_input: None,
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

    /// Writes `x W + b` into `y` (reshaped as needed) without touching the
    /// layer's cached state — the allocation-free path [`crate::Mlp`] uses
    /// with workspace buffers.
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
        // dx = g W^T
        dx.reset(grad_out.rows(), self.in_dim());
        grad_out.matmul_a_bt_into_pooled(&self.w.value, dx, &self.pool);
    }
}

impl Layer for Dense {
    fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut y = Matrix::zeros(0, 0);
        self.forward_into(x, &mut y);
        self.cached_input = Some(x.clone());
        y
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let x = match self.cached_input.take() {
            Some(x) => x,
            None => panic!("Dense::backward called before forward"),
        };
        let mut dx = Matrix::zeros(0, 0);
        self.backward_into(&x, grad_out, &mut dx);
        self.cached_input = Some(x);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        f(&mut self.w);
        f(&mut self.b);
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

impl Layer for Relu {
    fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut y = x.clone();
        self.forward_inplace(&mut y);
        y
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        // lint: allow(hot-path-alloc, reason="allocating convenience Layer API; the training loop calls backward_inplace")
        let mut dx = grad_out.clone();
        self.backward_inplace(&mut dx);
        dx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Parameter)) {}
}

/// Layer normalisation over the feature dimension (paper Eq. 11):
/// `LN(z) = gamma * (z - E[z]) / sqrt(Var[z] + eps) + beta`, per row.
pub struct LayerNorm {
    /// Scale vector gamma, shape `[1, dim]`, initialised to 1.
    pub gamma: Parameter,
    /// Shift vector beta, shape `[1, dim]`, initialised to 0.
    pub beta: Parameter,
    eps: f32,
    cached_xhat: Option<Matrix>,
    cached_inv_std: Vec<f32>,
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
        }
    }

    /// Normalised feature dimension.
    pub fn dim(&self) -> usize {
        self.gamma.value.cols()
    }

    /// Writes `LN(x)` into `y` (reshaped as needed). The normalised
    /// activations are cached in a persistent buffer that is reused across
    /// steps, so the steady state allocates nothing.
    pub fn forward_into(&mut self, x: &Matrix, y: &mut Matrix) {
        // lint: allow(panic-free, reason="input width is pinned at FrozenScorer construction: weights and workspace are sized from the same artifact dims")
        assert_eq!(x.cols(), self.dim(), "LayerNorm: dim mismatch");
        let n = x.cols();
        let xhat = self.cached_xhat.get_or_insert_with(|| Matrix::zeros(0, 0));
        xhat.reset(x.rows(), n);
        self.cached_inv_std.clear();
        self.cached_inv_std.reserve(x.rows());
        y.reset(x.rows(), n);
        let gamma = self.gamma.value.row(0);
        let beta = self.beta.value.row(0);
        for r in 0..x.rows() {
            let (mean, var) = optinter_tensor::ops::row_mean_var(x.row(r));
            let inv_std = 1.0 / (var + self.eps).sqrt();
            self.cached_inv_std.push(inv_std);
            let xh_row = xhat.row_mut(r);
            for (c, &v) in x.row(r).iter().enumerate() {
                xh_row[c] = (v - mean) * inv_std;
            }
            let y_row = y.row_mut(r);
            for c in 0..n {
                y_row[c] = gamma[c] * xh_row[c] + beta[c];
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
        let n = xhat.cols();
        let n_f = n as f32;
        let gamma = self.gamma.value.row(0);
        let dgamma = self.gamma.grad.row_mut(0);
        let dbeta = self.beta.grad.row_mut(0);
        dx.reset(xhat.rows(), n);
        for r in 0..xhat.rows() {
            let g = grad_out.row(r);
            let xh = xhat.row(r);
            let inv_std = self.cached_inv_std[r];
            // Parameter grads.
            for c in 0..n {
                dgamma[c] += g[c] * xh[c];
                dbeta[c] += g[c];
            }
            // dxhat = g * gamma; dx via the standard LN backward:
            // dx = (inv_std / n) * (n*dxhat - sum(dxhat) - xhat * sum(dxhat*xhat))
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
    }
}

impl Layer for LayerNorm {
    fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut y = Matrix::zeros(0, 0);
        self.forward_into(x, &mut y);
        y
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut dx = Matrix::zeros(0, 0);
        self.backward_into(grad_out, &mut dx);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        f(&mut self.gamma);
        f(&mut self.beta);
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
        let y = d.forward(&x);
        assert_eq!(y.as_slice(), &[3.5, 7.5]);
    }

    #[test]
    fn dense_param_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut d = Dense::new(&mut rng, 5, 7);
        assert_eq!(d.num_params(), 5 * 7 + 7);
    }

    #[test]
    fn dense_backward_bias_grad_is_column_sum() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = Dense::new(&mut rng, 3, 2);
        let x = Matrix::from_fn(4, 3, |r, c| (r + c) as f32 * 0.1);
        let _ = d.forward(&x);
        let g = Matrix::filled(4, 2, 1.0);
        let _ = d.backward(&g);
        assert_eq!(d.b.grad.as_slice(), &[4.0, 4.0]);
    }

    #[test]
    fn relu_masks_negatives() {
        let mut relu = Relu::new();
        let x = Matrix::from_rows(&[&[-1.0, 2.0], &[0.0, -3.0]]);
        let y = relu.forward(&x);
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 0.0]);
        let g = Matrix::filled(2, 2, 5.0);
        let dx = relu.backward(&g);
        assert_eq!(dx.as_slice(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn layernorm_output_is_normalised() {
        let mut ln = LayerNorm::new(4, 1e-5);
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0], &[10.0, 10.0, 10.0, 10.1]]);
        let y = ln.forward(&x);
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
        let y = ln.forward(&x);
        // xhat = [-1, 1] -> y = [-1, 3]
        assert!((y.get(0, 0) + 1.0).abs() < 1e-4);
        assert!((y.get(0, 1) - 3.0).abs() < 1e-4);
    }

    #[test]
    fn layer_trait_zero_grads() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut d = Dense::new(&mut rng, 2, 2);
        let x = Matrix::filled(1, 2, 1.0);
        let _ = d.forward(&x);
        let _ = d.backward(&Matrix::filled(1, 2, 1.0));
        assert!(d.w.grad.max_abs() > 0.0);
        d.zero_grads();
        assert_eq!(d.w.grad.max_abs(), 0.0);
        assert_eq!(d.b.grad.max_abs(), 0.0);
    }
}
