//! The paper's classifier: a stack of `LN(relu(W a + b))` hidden layers
//! followed by a linear output to a single logit (Eqs. 9–12).

use crate::layers::{Dense, LayerNorm, Relu};
use crate::param::Parameter;
use crate::workspace::Workspace;
use optinter_tensor::Matrix;
use rand::Rng;

/// Configuration for an [`Mlp`].
#[derive(Debug, Clone)]
pub struct MlpConfig {
    /// Input feature dimension.
    pub input_dim: usize,
    /// Hidden layer widths, e.g. `[128, 128, 64]` (paper's `net`).
    pub hidden: Vec<usize>,
    /// Output dimension (1 for a CTR logit).
    pub output_dim: usize,
    /// Whether to apply layer normalisation after each ReLU (paper: `LN=true`).
    pub layer_norm: bool,
    /// LayerNorm epsilon.
    pub ln_eps: f32,
}

impl MlpConfig {
    /// The paper's default classifier shape for a given input size.
    pub fn classifier(input_dim: usize, hidden: Vec<usize>) -> Self {
        Self {
            input_dim,
            hidden,
            output_dim: 1,
            layer_norm: true,
            ln_eps: 1e-5,
        }
    }
}

struct HiddenBlock {
    dense: Dense,
    relu: Relu,
    norm: Option<LayerNorm>,
}

/// Multi-layer perceptron with ReLU activations and optional LayerNorm.
///
/// The entry points are [`forward_into`](Self::forward_into) and
/// [`backward_into`](Self::backward_into): the MLP owns its activation chain
/// in [`Workspace`]-recycled buffers and the caller owns the input, so a
/// steady-state forward/backward cycle touches the heap zero times.
pub struct Mlp {
    blocks: Vec<HiddenBlock>,
    output: Dense,
    input_dim: usize,
    ws: Workspace,
    /// Output of each hidden block from the last `forward_into`, held until
    /// `backward_into` consumes them as the dense layers' inputs.
    acts: Vec<Matrix>,
}

impl Mlp {
    /// Builds an MLP from a config with Xavier-initialised weights.
    pub fn new(rng: &mut impl Rng, config: &MlpConfig) -> Self {
        let mut blocks = Vec::with_capacity(config.hidden.len());
        let mut prev = config.input_dim;
        for &width in &config.hidden {
            blocks.push(HiddenBlock {
                dense: Dense::new(rng, prev, width),
                relu: Relu::new(),
                norm: config
                    .layer_norm
                    .then(|| LayerNorm::new(width, config.ln_eps)),
            });
            prev = width;
        }
        let output = Dense::new(rng, prev, config.output_dim);
        Self {
            blocks,
            output,
            input_dim: config.input_dim,
            ws: Workspace::new(),
            acts: Vec::new(),
        }
    }

    /// Input dimension the MLP expects.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Number of hidden blocks.
    pub fn depth(&self) -> usize {
        self.blocks.len()
    }

    /// Visits every trainable parameter, input layer first (for optimizer
    /// steps / zeroing).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        for block in self.blocks.iter_mut() {
            block.dense.visit_params(f);
            if let Some(norm) = block.norm.as_mut() {
                norm.visit_params(f);
            }
        }
        self.output.visit_params(f);
    }

    /// Total number of trainable scalar parameters.
    pub fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.value.len());
        n
    }

    /// Zeroes all accumulated parameter gradients.
    pub fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.grad.fill_zero());
    }

    /// Runs every dense layer's matmuls on `pool` from now on. Results stay
    /// bit-identical to serial execution for any thread count (see
    /// [`optinter_tensor::pool`]).
    pub fn set_pool(&mut self, pool: &optinter_tensor::Pool) {
        for block in self.blocks.iter_mut() {
            block.dense.set_pool(pool.clone());
        }
        self.output.set_pool(pool.clone());
    }

    /// Forward pass into `out` (reshaped to `[B, output_dim]`), holding the
    /// activation chain in recycled workspace buffers for the matching
    /// [`backward_into`](Self::backward_into). Allocation-free once the
    /// workspace has warmed up.
    pub fn forward_into(&mut self, x: &Matrix, out: &mut Matrix) {
        // lint: allow(panic-free, reason="input width is pinned at FrozenScorer construction: weights and workspace are sized from the same artifact dims")
        assert_eq!(x.cols(), self.input_dim, "Mlp: input dim mismatch");
        for a in self.acts.drain(..) {
            self.ws.recycle(a);
        }
        for i in 0..self.blocks.len() {
            let mut z = self
                .ws
                .take_for_overwrite(x.rows(), self.blocks[i].dense.out_dim());
            {
                let input: &Matrix = if i == 0 { x } else { &self.acts[i - 1] };
                self.blocks[i].dense.forward_into(input, &mut z);
            }
            self.blocks[i].relu.forward_inplace(&mut z);
            let z = if let Some(norm) = self.blocks[i].norm.as_mut() {
                let mut y = self.ws.take_for_overwrite(z.rows(), z.cols());
                norm.forward_into(&z, &mut y);
                self.ws.recycle(z);
                y
            } else {
                z
            };
            self.acts.push(z);
        }
        let last: &Matrix = if self.blocks.is_empty() {
            x
        } else {
            &self.acts[self.blocks.len() - 1]
        };
        self.output.forward_into(last, out);
    }

    /// Backward pass from `grad_out` into `dx` (reshaped to `[B,
    /// input_dim]`), accumulating parameter gradients. `x` must be the same
    /// input the matching [`forward_into`](Self::forward_into) saw; the
    /// held activation chain is recycled on the way down.
    pub fn backward_into(&mut self, x: &Matrix, grad_out: &Matrix, dx: &mut Matrix) {
        assert_eq!(
            self.acts.len(),
            self.blocks.len(),
            "Mlp::backward_into called before forward_into"
        );
        if self.blocks.is_empty() {
            self.output.backward_into(x, grad_out, dx);
            return;
        }
        let rows = grad_out.rows();
        let nb = self.blocks.len();
        let mut g = self.ws.take_for_overwrite(rows, self.output.in_dim());
        self.output
            .backward_into(&self.acts[nb - 1], grad_out, &mut g);
        for i in (0..nb).rev() {
            if let Some(norm) = self.blocks[i].norm.as_mut() {
                let mut t = self.ws.take_for_overwrite(rows, g.cols());
                norm.backward_into(&g, &mut t);
                self.ws.recycle(std::mem::replace(&mut g, t));
            }
            self.blocks[i].relu.backward_inplace(&mut g);
            if i == 0 {
                self.blocks[i].dense.backward_into(x, &g, dx);
            } else {
                let mut t = self
                    .ws
                    .take_for_overwrite(rows, self.blocks[i].dense.in_dim());
                self.blocks[i]
                    .dense
                    .backward_into(&self.acts[i - 1], &g, &mut t);
                self.ws.recycle(std::mem::replace(&mut g, t));
            }
        }
        self.ws.recycle(g);
        for a in self.acts.drain(..) {
            self.ws.recycle(a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::bce_with_logits;
    use crate::optim::{Adam, DenseOptimizer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_shape_is_batch_by_out() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut mlp = Mlp::new(&mut rng, &MlpConfig::classifier(6, vec![8, 4]));
        let x = Matrix::zeros(5, 6);
        let mut y = Matrix::zeros(0, 0);
        mlp.forward_into(&x, &mut y);
        assert_eq!(y.shape(), (5, 1));
    }

    #[test]
    fn param_count_matches_architecture() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = MlpConfig::classifier(6, vec![8, 4]);
        let mut mlp = Mlp::new(&mut rng, &cfg);
        // dense: 6*8+8, ln: 8+8, dense: 8*4+4, ln: 4+4, out: 4*1+1
        let expected = (6 * 8 + 8) + 16 + (8 * 4 + 4) + 8 + 5;
        assert_eq!(mlp.num_params(), expected);
    }

    #[test]
    fn learns_xor_like_function() {
        // A small MLP must fit a nonlinear function of two inputs; a linear
        // model cannot, so convergence validates the full backward chain.
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = MlpConfig {
            input_dim: 2,
            hidden: vec![16, 16],
            output_dim: 1,
            layer_norm: true,
            ln_eps: 1e-5,
        };
        let mut mlp = Mlp::new(&mut rng, &cfg);
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let labels = [0.0, 1.0, 1.0, 0.0];
        let mut opt = Adam::with_lr_eps(0.02, 1e-8);
        let mut final_loss = f32::MAX;
        let (mut logits, mut dx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        for _ in 0..800 {
            mlp.forward_into(&x, &mut logits);
            let (loss, grad) = bce_with_logits(&logits, &labels);
            final_loss = loss;
            mlp.backward_into(&x, &grad, &mut dx);
            opt.begin_step();
            mlp.visit_params(&mut |p| opt.step(p, 0.0));
        }
        assert!(final_loss < 0.05, "XOR loss did not converge: {final_loss}");
    }

    #[test]
    fn gradcheck_full_mlp_input_gradient() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = MlpConfig {
            input_dim: 3,
            hidden: vec![5],
            output_dim: 1,
            layer_norm: true,
            ln_eps: 1e-3,
        };
        let mut mlp = Mlp::new(&mut rng, &cfg);
        let x = Matrix::from_rows(&[&[0.3, -0.5, 0.9], &[1.1, 0.2, -0.7]]);
        let labels = [1.0, 0.0];
        let (mut logits, mut dx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        mlp.forward_into(&x, &mut logits);
        let (_, grad) = bce_with_logits(&logits, &labels);
        mlp.backward_into(&x, &grad, &mut dx);
        crate::gradcheck::assert_grad_matches(&x, &dx, 5e-3, 3e-2, |xp| {
            mlp.forward_into(xp, &mut logits);
            let mut loss = 0.0;
            for (i, &y) in labels.iter().enumerate() {
                loss += optinter_tensor::numerics::stable_bce(logits.get(i, 0), y);
            }
            loss / labels.len() as f32
        });
    }

    #[test]
    fn no_layernorm_variant_works() {
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = MlpConfig {
            input_dim: 4,
            hidden: vec![6],
            output_dim: 1,
            layer_norm: false,
            ln_eps: 1e-5,
        };
        let mut mlp = Mlp::new(&mut rng, &cfg);
        let x = Matrix::filled(2, 4, 0.5);
        let (mut y, mut dx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        mlp.forward_into(&x, &mut y);
        assert_eq!(y.shape(), (2, 1));
        let g = Matrix::filled(2, 1, 1.0);
        mlp.backward_into(&x, &g, &mut dx);
        assert_eq!(dx.shape(), (2, 4));
    }
}
