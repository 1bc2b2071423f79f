//! Optimizers: Adam (paper Sec. III-A4) and GRDA (the directional
//! pruning optimizer AutoFIS uses for its gate parameters).
//!
//! Adam keeps its first/second-moment state inside each
//! [`Parameter`]'s optimizer slots, so one `Adam` instance
//! can drive any number of parameters while owning only the shared timestep.
//! Weight decay is the classic L2-in-gradient form (`g += wd * w`), matching
//! the paper's `l2_o` / `l2_c` hyper-parameters.

use crate::param::Parameter;

/// A dense-parameter optimizer. `begin_step` is called once per mini-batch,
/// then `step` once per parameter. `step` consumes (and zeroes) the
/// parameter's accumulated gradient.
pub trait DenseOptimizer {
    /// Advances the shared timestep.
    fn begin_step(&mut self);
    /// Applies one update to `p` with the given L2 weight decay.
    fn step(&mut self, p: &mut Parameter, weight_decay: f32);
}

/// Adam hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Denominator epsilon (the paper tunes this per dataset, Table IV).
    pub eps: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

/// Adam optimizer with per-parameter moment state and a shared timestep.
/// `Copy` so hot-path callers that need a disjoint borrow can copy the
/// optimizer (config + timestep) instead of heap-cloning it.
#[derive(Debug, Clone, Copy)]
pub struct Adam {
    /// Hyper-parameters.
    pub config: AdamConfig,
    t: u64,
}

impl Adam {
    /// Creates an Adam optimizer from a config.
    pub fn new(config: AdamConfig) -> Self {
        Self { config, t: 0 }
    }

    /// Creates Adam with the default betas and the given lr / eps.
    pub fn with_lr_eps(lr: f32, eps: f32) -> Self {
        Self::new(AdamConfig {
            lr,
            eps,
            ..AdamConfig::default()
        })
    }

    /// Current timestep (number of `begin_step` calls).
    pub fn timestep(&self) -> u64 {
        self.t
    }

    /// Bias-correction factors `(1 - beta1^t, 1 - beta2^t)` at the current
    /// timestep, shared by dense and sparse updates.
    pub fn bias_corrections(&self) -> (f32, f32) {
        self.bias_corrections_at(self.t)
    }

    /// Bias-correction factors at an arbitrary timestep `t`. The lazy
    /// catch-up path replays skipped steps one at a time and needs the
    /// corrections *those* steps would have used — computed here with the
    /// exact float expression of [`bias_corrections`](Self::bias_corrections)
    /// so a replayed step is bitwise identical to the live step it stands for.
    pub fn bias_corrections_at(&self, t: u64) -> (f32, f32) {
        let t = t.max(1) as i32;
        (
            1.0 - self.config.beta1.powi(t),
            1.0 - self.config.beta2.powi(t),
        )
    }

    /// One update at bias corrections `(bc1, bc2)`.
    fn update(&self, weight_decay: f32, bc1: f32, bc2: f32) -> AdamUpdate {
        AdamUpdate {
            config: self.config,
            weight_decay,
            bc1,
            bc2,
        }
    }

    /// Applies a lazy Adam update to a single row (used by embedding tables:
    /// only rows touched in the batch are updated).
    #[allow(clippy::too_many_arguments)]
    pub fn step_row(
        &self,
        value: &mut [f32],
        grad: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        weight_decay: f32,
        bc1: f32,
        bc2: f32,
    ) {
        assert_eq!(grad.len(), value.len(), "step_row: grad width");
        self.update(weight_decay, bc1, bc2)
            .apply(value, m, v, grad.iter().copied());
    }

    /// One Adam row step with an all-zero gradient — the catch-up step the
    /// lazy embedding optimizer replays for rows skipped while untouched.
    /// It runs the kernel of [`step_row`](Self::step_row) with every
    /// gradient `0.0`, so replaying `k` zero-grad steps is bitwise identical
    /// to `k` live steps on a row whose batches never touched it.
    pub fn step_row_zero_grad(
        &self,
        value: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        weight_decay: f32,
        bc1: f32,
        bc2: f32,
    ) {
        self.update(weight_decay, bc1, bc2)
            .apply(value, m, v, std::iter::repeat(0.0));
    }
}

/// One Adam update: hyper-parameters, L2 weight decay and the step's bias
/// corrections.
#[derive(Debug, Clone, Copy)]
struct AdamUpdate {
    config: AdamConfig,
    weight_decay: f32,
    bc1: f32,
    bc2: f32,
}

impl AdamUpdate {
    /// The Adam update — its only copy — over zipped slices, which the
    /// compiler vectorizes. `grads` yields one gradient per element. Every
    /// element runs the same IEEE operation sequence whatever the lane
    /// width (no reciprocal multiply, no fused multiply-add, no
    /// reordering), and vector division and square root round exactly like
    /// their scalar forms, so the dense step, a row step and a zero-grad
    /// replay agree bitwise.
    #[inline(always)]
    fn apply(
        &self,
        value: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        grads: impl Iterator<Item = f32>,
    ) {
        assert!(
            m.len() == value.len() && v.len() == value.len(),
            "Adam: moment width differs from the parameter's"
        );
        let c = self.config;
        for (((w, m), v), g) in value.iter_mut().zip(m).zip(v).zip(grads) {
            let g = if self.weight_decay > 0.0 {
                g + self.weight_decay * *w
            } else {
                g
            };
            *m = c.beta1 * *m + (1.0 - c.beta1) * g;
            *v = c.beta2 * *v + (1.0 - c.beta2) * g * g;
            let m_hat = *m / self.bc1;
            let v_hat = *v / self.bc2;
            *w -= c.lr * m_hat / (v_hat.sqrt() + c.eps);
        }
    }
}

impl DenseOptimizer for Adam {
    fn begin_step(&mut self) {
        self.t += 1;
    }

    /// Reads each gradient element and zeroes it in the same pass.
    fn step(&mut self, p: &mut Parameter, weight_decay: f32) {
        p.ensure_slots();
        let (bc1, bc2) = self.bias_corrections();
        let (Some(m), Some(v)) = (p.slot_a.as_mut(), p.slot_b.as_mut()) else {
            unreachable!("ensure_slots allocated both moment slots");
        };
        let grad = p.grad.as_mut_slice();
        assert_eq!(grad.len(), p.value.len(), "Adam: grad shape");
        self.update(weight_decay, bc1, bc2).apply(
            p.value.as_mut_slice(),
            m.as_mut_slice(),
            v.as_mut_slice(),
            grad.iter_mut().map(std::mem::take),
        );
    }
}

/// GRDA (generalized regularized dual averaging) hyper-parameters.
///
/// GRDA performs *directional pruning*: parameters whose accumulated
/// gradient path stays small are driven exactly to zero. AutoFIS uses it on
/// the interaction gates so unimportant interactions are removed. The
/// update follows Chao et al. (NeurIPS 2020):
///
/// `v_{t+1} = v_t - lr * g_t`, then
/// `w_{t+1} = sign(v_{t+1}) * max(|v_{t+1}| - g(t), 0)` with
/// `g(t) = c * lr^{1/2} * (t * lr)^{mu}`.
#[derive(Debug, Clone, Copy)]
pub struct GrdaConfig {
    /// Learning rate.
    pub lr: f32,
    /// Soft-threshold scale `c` (Table IV: `c`).
    pub c: f32,
    /// Soft-threshold growth exponent `mu` (Table IV: `mu`).
    pub mu: f32,
}

impl Default for GrdaConfig {
    fn default() -> Self {
        Self {
            lr: 1e-3,
            c: 5e-4,
            mu: 0.8,
        }
    }
}

/// GRDA optimizer. Keeps the dual accumulator in the parameter's slot A.
#[derive(Debug, Clone, Copy)]
pub struct Grda {
    /// Hyper-parameters.
    pub config: GrdaConfig,
    t: u64,
}

impl Grda {
    /// Creates a GRDA optimizer.
    pub fn new(config: GrdaConfig) -> Self {
        Self { config, t: 0 }
    }

    /// Current soft-threshold `g(t)`.
    pub fn threshold(&self) -> f32 {
        let c = self.config;
        c.c * c.lr.sqrt() * (self.t as f32 * c.lr).powf(c.mu)
    }
}

impl DenseOptimizer for Grda {
    fn begin_step(&mut self) {
        self.t += 1;
    }

    fn step(&mut self, p: &mut Parameter, _weight_decay: f32) {
        // The accumulator starts at the initial parameter value so that the
        // first shrinkage is relative to the initialisation.
        if p.slot_a.is_none() {
            // lint: allow(hot-path-alloc, reason="one-time lazy accumulator init on the first step, not steady-state")
            p.slot_a = Some(p.value.clone());
        }
        let lr = self.config.lr;
        let thr = self.threshold();
        let Some(acc) = p.slot_a.as_mut() else {
            unreachable!("accumulator initialised above");
        };
        for i in 0..p.value.len() {
            let a = acc.as_mut_slice();
            a[i] -= lr * p.grad.as_slice()[i];
            let v = a[i];
            p.value.as_mut_slice()[i] = v.signum() * (v.abs() - thr).max(0.0);
        }
        p.grad.fill_zero();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinter_tensor::Matrix;

    fn quad_grad(p: &Parameter) -> Matrix {
        // f(w) = 0.5 * ||w - 3||^2, grad = w - 3
        p.value.map(|w| w - 3.0)
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut p = Parameter::new(Matrix::filled(1, 4, 10.0));
        let mut opt = Adam::with_lr_eps(0.1, 1e-8);
        for _ in 0..600 {
            p.grad = quad_grad(&p);
            opt.begin_step();
            opt.step(&mut p, 0.0);
        }
        assert!(
            p.value.as_slice().iter().all(|&w| (w - 3.0).abs() < 1e-2),
            "{:?}",
            p.value
        );
    }

    #[test]
    fn adam_zeroes_grad_after_step() {
        let mut p = Parameter::new(Matrix::filled(1, 2, 1.0));
        p.grad = Matrix::filled(1, 2, 1.0);
        let mut opt = Adam::with_lr_eps(0.01, 1e-8);
        opt.begin_step();
        opt.step(&mut p, 0.0);
        assert_eq!(p.grad.max_abs(), 0.0);
    }

    #[test]
    fn adam_first_step_magnitude_is_lr() {
        // With bias correction, the first Adam step has magnitude ~lr.
        let mut p = Parameter::new(Matrix::filled(1, 1, 0.0));
        p.grad = Matrix::filled(1, 1, 0.5);
        let mut opt = Adam::with_lr_eps(0.1, 1e-8);
        opt.begin_step();
        opt.step(&mut p, 0.0);
        assert!(
            (p.value.get(0, 0) + 0.1).abs() < 1e-4,
            "{}",
            p.value.get(0, 0)
        );
    }

    #[test]
    fn weight_decay_pulls_towards_zero() {
        let mut with_wd = Parameter::new(Matrix::filled(1, 1, 5.0));
        let mut without = Parameter::new(Matrix::filled(1, 1, 5.0));
        let mut opt = Adam::with_lr_eps(0.1, 1e-8);
        opt.begin_step();
        // Zero task gradient: only decay acts.
        opt.step(&mut with_wd, 0.5);
        opt.step(&mut without, 0.0);
        assert!(with_wd.value.get(0, 0) < without.value.get(0, 0));
    }

    #[test]
    fn grda_prunes_small_unimportant_weights() {
        // One coordinate receives consistent gradient pressure, the other
        // receives none; GRDA should keep the first alive and shrink the
        // second to exactly zero.
        let mut p = Parameter::new(Matrix::from_rows(&[&[0.01, 0.01]]));
        let mut opt = Grda::new(GrdaConfig {
            lr: 0.05,
            c: 0.3,
            mu: 0.6,
        });
        for _ in 0..200 {
            // Gradient pushes coordinate 0 strongly negative (grow w), none on 1.
            p.grad = Matrix::from_rows(&[&[-1.0, 0.0]]);
            opt.begin_step();
            opt.step(&mut p, 0.0);
        }
        assert!(
            p.value.get(0, 0) > 0.5,
            "driven weight {}",
            p.value.get(0, 0)
        );
        assert_eq!(p.value.get(0, 1), 0.0, "idle weight must be pruned to zero");
    }

    #[test]
    fn grda_threshold_grows_with_time() {
        let mut opt = Grda::new(GrdaConfig::default());
        opt.begin_step();
        let t1 = opt.threshold();
        for _ in 0..99 {
            opt.begin_step();
        }
        let t100 = opt.threshold();
        assert!(t100 > t1);
    }

    #[test]
    fn step_row_matches_dense_adam() {
        // The dense step, the row step and the zero-grad replay share one
        // kernel, so they must agree bit for bit: at widths below one vector
        // lane, of one and of two lanes, and at the search workload's first
        // dense layer (1,248 x 64), with and without weight decay.
        fn bits(x: &[f32]) -> Vec<u32> {
            x.iter().map(|w| w.to_bits()).collect()
        }
        for &(rows, cols) in &[(1, 3), (1, 8), (1, 16), (1248, 64)] {
            for &wd in &[0.0f32, 1e-2] {
                let init = Matrix::from_fn(rows, cols, |r, c| ((r * cols + c) as f32 * 0.37).sin());
                let mut dense = Parameter::new(init.clone());
                let mut value = init.as_slice().to_vec();
                let mut m = vec![0.0f32; rows * cols];
                let mut v = vec![0.0f32; rows * cols];
                let mut opt = Adam::with_lr_eps(0.01, 1e-8);
                for step in 0..3 {
                    let grad = Matrix::from_fn(rows, cols, |r, c| {
                        0.1 * ((r * cols + c + 7 * step) as f32 * 0.13).cos()
                    });
                    dense.grad = grad.clone();
                    opt.begin_step();
                    let (bc1, bc2) = opt.bias_corrections();
                    opt.step_row(&mut value, grad.as_slice(), &mut m, &mut v, wd, bc1, bc2);
                    opt.step(&mut dense, wd);
                    let ctx = format!("{rows}x{cols} wd={wd} step {step}");
                    assert_eq!(bits(&value), bits(dense.value.as_slice()), "{ctx}: weights");
                    let (Some(dm), Some(dv)) = (dense.slot_a.as_ref(), dense.slot_b.as_ref())
                    else {
                        panic!("{ctx}: dense step allocated no moments");
                    };
                    assert_eq!(bits(&m), bits(dm.as_slice()), "{ctx}: first moment");
                    assert_eq!(bits(&v), bits(dv.as_slice()), "{ctx}: second moment");
                    assert_eq!(dense.grad.max_abs(), 0.0, "{ctx}: gradient not consumed");
                }
                // A zero-grad replay is a row step with an all-zero gradient.
                let (mut zw, mut zm, mut zv) = (value.clone(), m.clone(), v.clone());
                opt.begin_step();
                let (bc1, bc2) = opt.bias_corrections();
                let zeros = vec![0.0f32; rows * cols];
                opt.step_row(&mut value, &zeros, &mut m, &mut v, wd, bc1, bc2);
                opt.step_row_zero_grad(&mut zw, &mut zm, &mut zv, wd, bc1, bc2);
                let ctx = format!("{rows}x{cols} wd={wd} zero grad");
                assert_eq!(bits(&value), bits(&zw), "{ctx}: weights");
                assert_eq!(bits(&m), bits(&zm), "{ctx}: first moment");
                assert_eq!(bits(&v), bits(&zv), "{ctx}: second moment");
            }
        }
    }
}
