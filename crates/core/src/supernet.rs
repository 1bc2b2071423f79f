//! The search-stage model (paper Sec. II-C2, Algorithm 1).
//!
//! For every feature pair the supernet computes all three candidate
//! embeddings — memorized `e^m_(i,j)`, factorized `e^f_(i,j) = e^o_i ⊗
//! e^o_j`, naïve `e^n = 0` — zero-pads them to a common width, and mixes
//! them with Gumbel-softmax-relaxed architecture weights (Eq. 18):
//!
//! `e^b_(i,j) = p^m e^m + p^f e^f + p^n e^n`.
//!
//! The mixed pair embeddings are concatenated with the original embeddings
//! and fed to the MLP classifier. One backward pass produces gradients for
//! network weights Θ *and* architecture logits α, which are updated
//! simultaneously by separate Adam instances (the paper's joint scheme).
//!
//! The combination block itself lives in [`crate::combine`]; this module
//! owns the parameters, the Gumbel draws and the optimizer steps. The
//! block's mix and both backward passes pick their widths once per call:
//! constants for `(orig_dim, cross_dim)` = (16, 8) and (16, 4), where each
//! pair's operands sit in local arrays and its slot is stored once, and
//! the runtime widths for any other pair, through the same source.
//!
//! # Parallelism
//!
//! When `cfg.num_threads > 1` the per-batch work shards across a
//! [`Pool`] under the owner-computes discipline (see
//! `optinter_tensor::pool`): the forward pass row-shards input assembly,
//! the MLP's matmuls row-block, and the backward pass runs as two passes.
//! The `α`-gradient pass gives each job a contiguous range of *pairs*,
//! which owns those pairs' `dp_m`/`dp_f` accumulators (persistent
//! scratch), generalized-weight rows and architecture-gradient rows; the
//! job walks the batch rows-outer, so its pairs' reduction chains
//! interleave, and then each pair's generalized-weight row over the
//! batch, pairs-outer, so the row stays in registers. The field-gradient
//! pass is parallel over *batch rows*, each owning its slices of `d e^o`
//! and `d e^m`, and walks the pairs in their nested `(i, j)` order. Every
//! floating-point accumulator still adds the same terms in the same order
//! as the original serial loop — `dp_m` and `dp_f` in ascending `(r, c)`,
//! each generalized-weight element in ascending `r`, each `d e^o` element
//! in ascending pair order — so training is bit-identical to the
//! single-threaded path for any thread count, and to the loops this pass
//! order replaced.

use crate::arch::{Architecture, Method};
use crate::combine::{Factorizer, Mixed};
use crate::config::OptInterConfig;
use crate::gumbel::GumbelSample;
use crate::net::{mlp_config, DataDims};
use optinter_data::Batch;
use optinter_nn::{
    bce_with_logits_into, loss, Adam, DenseOptimizer, EmbedStore, Mlp, Parameter, Workspace,
};
use optinter_tensor::{ops, Matrix, Pool};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The OptInter supernet: network weights plus relaxed architecture.
pub struct Supernet {
    cfg: OptInterConfig,
    dims: DataDims,
    e_orig: EmbedStore,
    e_cross: EmbedStore,
    mlp: Mlp,
    /// Architecture logits, one row per pair, columns `[mem, fac, naive]`.
    arch: Parameter,
    /// The factorization function, with the generalized product's
    /// per-pair weights.
    fact: Factorizer,
    adam_net: Adam,
    adam_cross: Adam,
    adam_arch: Adam,
    noise_rng: StdRng,
    pool: Pool,
    /// `(i, j)` field indices of every pair, precomputed once.
    pairs: Vec<(usize, usize)>,
    scr: SupScratch,
    ws: Workspace,
}

/// Persistent per-step buffers. Each forward overwrites them in full, so a
/// steady-state train step reuses their capacity instead of reallocating;
/// `backward` reads the activations the matching forward left behind.
struct SupScratch {
    eo: Matrix,
    em: Matrix,
    input: Matrix,
    logits: Matrix,
    grad_logits: Matrix,
    samples: Vec<GumbelSample>,
    /// Each pair's `(dp_m, dp_f)` accumulators for the α gradient.
    dp: Matrix,
    d_eo: Matrix,
    d_em: Matrix,
}

impl SupScratch {
    fn new() -> Self {
        Self {
            eo: Matrix::zeros(0, 0),
            em: Matrix::zeros(0, 0),
            input: Matrix::zeros(0, 0),
            logits: Matrix::zeros(0, 0),
            grad_logits: Matrix::zeros(0, 0),
            samples: Vec::new(),
            dp: Matrix::zeros(0, 0),
            d_eo: Matrix::zeros(0, 0),
            d_em: Matrix::zeros(0, 0),
        }
    }
}

impl Supernet {
    /// Builds a supernet for a dataset's dimensions.
    pub fn new(cfg: OptInterConfig, dims: DataDims) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let s1 = cfg.orig_dim;
        let s2 = cfg.cross_dim;
        let d = cfg.mixed_dim();
        let input_dim = dims.num_fields * s1 + dims.num_pairs * d;
        let pool = Pool::new(cfg.num_threads);
        let mut mlp = Mlp::new(&mut rng, &mlp_config(&cfg, input_dim));
        mlp.set_pool(&pool);
        // Dense stores draw exactly what `EmbeddingTable::new` always drew
        // here, so `StoreKind::Dense` configs keep historical trajectories.
        let mut e_orig = EmbedStore::new(
            cfg.orig_store,
            &mut rng,
            dims.orig_vocab as usize,
            s1,
            cfg.seed ^ 0x5000_0E0A,
        );
        let mut e_cross = EmbedStore::new(
            cfg.cross_store,
            &mut rng,
            dims.cross_vocab as usize,
            s2,
            cfg.seed ^ 0x5000_0ECA,
        );
        e_orig.set_optimizer_mode(cfg.embed_opt);
        e_cross.set_optimizer_mode(cfg.embed_opt);
        // Architecture logits start at zero: uniform prior over methods.
        let arch = Parameter::zeros(dims.num_pairs, 3);
        let fact = Factorizer::new(cfg.fact_fn, dims.num_pairs, s1);
        let adam_net = Adam::with_lr_eps(cfg.lr, cfg.adam_eps);
        let adam_cross = Adam::with_lr_eps(cfg.lr_cross, cfg.adam_eps);
        let adam_arch = Adam::with_lr_eps(cfg.lr_arch, cfg.adam_eps);
        let noise_rng = StdRng::seed_from_u64(cfg.seed ^ 0x6A3B);
        let pairs: Vec<(usize, usize)> = dims.pairs().iter().collect();
        Self {
            cfg,
            dims,
            e_orig,
            e_cross,
            mlp,
            arch,
            fact,
            adam_net,
            adam_cross,
            adam_arch,
            noise_rng,
            pool,
            pairs,
            scr: SupScratch::new(),
            ws: Workspace::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &OptInterConfig {
        &self.cfg
    }

    /// Dataset dimensions.
    pub fn dims(&self) -> &DataDims {
        &self.dims
    }

    /// Total trainable parameters (embeddings + MLP + architecture).
    pub fn num_params(&mut self) -> usize {
        let fact = match &self.fact {
            Factorizer::Generalized(fw) => fw.len(),
            Factorizer::Hadamard | Factorizer::PointwiseAdd => 0,
        };
        self.e_orig.num_params()
            + self.e_cross.num_params()
            + self.mlp.num_params()
            + self.arch.len()
            + fact
    }

    /// Current architecture logits (rows = pairs).
    pub fn arch_logits(&self) -> &Matrix {
        &self.arch.value
    }

    /// Mutable architecture logits (bi-level search updates these
    /// through a separate pass; tests use this to force selections).
    pub fn arch_logits_mut(&mut self) -> &mut Matrix {
        &mut self.arch.value
    }

    /// Accumulated architecture gradient (diagnostics / gradient checks).
    pub fn arch_grad(&self) -> &Matrix {
        &self.arch.grad
    }

    /// Softmax probabilities of each pair's method (temperature 1, no noise).
    pub fn arch_probs(&self) -> Vec<[f32; 3]> {
        (0..self.dims.num_pairs)
            .map(|p| {
                let probs = ops::softmax_slice(self.arch.value.row(p), 1.0);
                [probs[0], probs[1], probs[2]]
            })
            .collect()
    }

    /// Extracts the discrete architecture by per-pair argmax (Eq. 19).
    pub fn extract_architecture(&self) -> Architecture {
        let methods = (0..self.dims.num_pairs)
            .map(|p| Method::from_index(ops::argmax(self.arch.value.row(p))))
            .collect();
        Architecture::new(methods)
    }

    /// Forward pass producing `[B, 1]` logits.
    ///
    /// With `train = true`, architecture weights are sampled with fresh
    /// Gumbel noise at temperature `tau`; otherwise the noiseless softmax at
    /// the same temperature is used.
    pub fn forward(&mut self, batch: &Batch, tau: f32, train: bool) -> Matrix {
        self.forward_step(batch, tau, train);
        self.scr.logits.clone()
    }

    /// Forward pass into the persistent scratch buffers; `self.scr.logits`
    /// holds the `[B, 1]` logits afterwards. Allocation-free at steady state.
    fn forward_step(&mut self, batch: &Batch, tau: f32, train: bool) {
        let m = self.dims.num_fields;
        let p_count = self.dims.num_pairs;
        assert_eq!(batch.num_fields, m, "supernet: field count mismatch");
        assert!(
            !batch.cross.is_empty(),
            "supernet needs cross features in the batch"
        );

        self.e_orig
            .lookup_fields_pooled_into(&batch.fields, m, &self.pool, &mut self.scr.eo);
        self.e_cross
            .lookup_fields_pooled_into(&batch.cross, p_count, &self.pool, &mut self.scr.em);

        // Relaxed method weights per pair. Gumbel noise must come off the
        // shared stream in pair order, so this stays serial.
        let mut samples = std::mem::take(&mut self.scr.samples);
        samples.clear();
        samples.reserve(p_count);
        for p in 0..p_count {
            let logits = self.arch.value.row(p);
            samples.push(if train {
                GumbelSample::draw(logits, tau, &mut self.noise_rng)
            } else {
                GumbelSample::deterministic(logits, tau)
            });
        }
        self.scr.samples = samples;

        // The MLP input [e^o | mixed pair embeddings], sharded over batch
        // rows.
        Mixed {
            pairs: &self.pairs,
            samples: &self.scr.samples,
            fact: self.fact.fact(),
            s1: self.cfg.orig_dim,
            s2: self.cfg.cross_dim,
            num_fields: m,
        }
        .mix_into(&self.pool, &self.scr.eo, &self.scr.em, &mut self.scr.input);

        let (input, logits) = (&self.scr.input, &mut self.scr.logits);
        self.mlp.forward_into(input, logits);
    }

    /// Backward pass from logit gradients; accumulates gradients on network
    /// weights, both embedding tables and the architecture logits. `batch`
    /// must be the one the matching [`forward`](Self::forward) saw — the
    /// persistent scratch holds that forward's activations but not the batch
    /// itself.
    pub fn backward(&mut self, batch: &Batch, grad_logits: &Matrix) {
        let m = self.dims.num_fields;
        let p_count = self.dims.num_pairs;
        let b = grad_logits.rows();
        assert_eq!(
            self.scr.input.rows(),
            b,
            "Supernet::backward before forward"
        );

        let mut dinput = self.ws.take_for_overwrite(b, self.scr.input.cols());
        {
            let input = &self.scr.input;
            self.mlp.backward_into(input, grad_logits, &mut dinput);
        }

        // Two owner-computes passes: one over contiguous ranges of pairs
        // (each owns its dp_m/dp_f, α-gradient and generalized-weight
        // rows), one over batch rows (each owns its d e^o and d e^m rows).
        let (fact, fw_grad) = self.fact.with_grad();
        let block = Mixed {
            pairs: &self.pairs,
            samples: &self.scr.samples,
            fact,
            s1: self.cfg.orig_dim,
            s2: self.cfg.cross_dim,
            num_fields: m,
        };
        block.backward_arch(
            &self.pool,
            &dinput,
            &self.scr.eo,
            &self.scr.em,
            &mut self.scr.dp,
            &mut self.arch.grad,
            fw_grad,
        );
        let (d_eo, d_em) = (&mut self.scr.d_eo, &mut self.scr.d_em);
        block.backward_fields(&self.pool, &dinput, &self.scr.eo, d_eo, d_em);

        self.e_orig
            .accumulate_grad_fields_pooled(&batch.fields, m, &self.scr.d_eo, &self.pool);
        self.e_cross.accumulate_grad_fields_pooled(
            &batch.cross,
            p_count,
            &self.scr.d_em,
            &self.pool,
        );
        self.ws.recycle(dinput);
    }

    /// Applies one simultaneous optimizer step to Θ and α (Algorithm 1).
    pub fn step(&mut self) {
        self.step_weights();
        self.step_arch();
    }

    /// Updates only the network weights Θ (bi-level search uses this on
    /// training batches).
    pub fn step_weights(&mut self) {
        self.adam_net.begin_step();
        let l2 = self.cfg.l2_orig;
        let mut adam = self.adam_net;
        self.mlp.visit_params(&mut |p| adam.step(p, 0.0));
        if let Some(fw) = self.fact.weights_mut() {
            adam.step(fw, 0.0);
        }
        self.adam_net = adam;
        self.e_orig.apply_adam(&self.adam_net, l2);
        self.adam_cross.begin_step();
        self.e_cross.apply_adam(&self.adam_cross, self.cfg.l2_cross);
    }

    /// Replays any optimizer updates the `LazyCatchUp` embedding mode
    /// deferred, bringing every row up to the current timestep. Call before
    /// reading out weights; a no-op for the other modes.
    pub fn catch_up_embeddings(&mut self) {
        self.e_orig.catch_up_all(&self.adam_net, self.cfg.l2_orig);
        self.e_cross
            .catch_up_all(&self.adam_cross, self.cfg.l2_cross);
    }

    /// Updates only the architecture parameters α (bi-level search uses
    /// this on validation batches). Pending network-weight and embedding
    /// gradients stay where they are; bi-level search drops them with
    /// [`zero_weight_grads`](Self::zero_weight_grads) after this call.
    pub fn step_arch(&mut self) {
        self.adam_arch.begin_step();
        let mut adam = self.adam_arch;
        adam.step(&mut self.arch, 0.0);
        self.adam_arch = adam;
    }

    /// Zeroes only the architecture gradient (bi-level: after a Θ step the
    /// training batch's α gradient must not leak into the next α step).
    pub fn zero_arch_grad(&mut self) {
        self.arch.grad.fill_zero();
    }

    /// Zeroes network-weight and embedding gradients (bi-level: after an α
    /// step the validation batch's Θ gradients must be dropped).
    pub fn zero_weight_grads(&mut self) {
        self.mlp.zero_grads();
        if let Some(fw) = self.fact.weights_mut() {
            fw.grad.fill_zero();
        }
        self.e_orig.clear_grads();
        self.e_cross.clear_grads();
    }

    /// Discards all pending gradients without applying them.
    pub fn discard_grads(&mut self) {
        self.mlp.zero_grads();
        self.arch.grad.fill_zero();
        if let Some(fw) = self.fact.weights_mut() {
            fw.grad.fill_zero();
        }
        self.e_orig.clear_grads();
        self.e_cross.clear_grads();
    }

    /// One full training step (forward, loss, backward, joint update).
    /// Returns the mean batch loss.
    pub fn train_batch(&mut self, batch: &Batch, tau: f32) -> f32 {
        self.forward_step(batch, tau, true);
        let mut grad = std::mem::replace(&mut self.scr.grad_logits, Matrix::zeros(0, 0));
        let loss_value = bce_with_logits_into(&self.scr.logits, &batch.labels, &mut grad);
        self.backward(batch, &grad);
        self.scr.grad_logits = grad;
        self.step();
        loss_value
    }

    /// Predicted probabilities with the current (soft) architecture.
    pub fn predict(&mut self, batch: &Batch, tau: f32) -> Vec<f32> {
        self.forward_step(batch, tau, false);
        loss::probabilities(&self.scr.logits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FactFn;
    use optinter_data::{BatchIter, Profile};
    use optinter_nn::bce_with_logits;

    fn tiny_setup() -> (Supernet, optinter_data::DatasetBundle) {
        let bundle = Profile::Tiny.bundle_with_rows(1200, 7);
        let dims = DataDims::of(&bundle.data);
        let cfg = OptInterConfig {
            seed: 3,
            ..OptInterConfig::test_small()
        };
        (Supernet::new(cfg, dims), bundle)
    }

    #[test]
    fn forward_shapes() {
        let (mut net, bundle) = tiny_setup();
        let batch = BatchIter::new(&bundle.data, 0..64, 64, None)
            .next()
            .unwrap();
        let logits = net.forward(&batch, 1.0, true);
        assert_eq!(logits.shape(), (64, 1));
    }

    #[test]
    fn initial_architecture_is_uniformish() {
        let (net, _) = tiny_setup();
        for probs in net.arch_probs() {
            for p in probs {
                assert!((p - 1.0 / 3.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn train_reduces_loss() {
        let (mut net, bundle) = tiny_setup();
        let mut first = None;
        let mut last = 0.0;
        for epoch in 0..3 {
            for batch in BatchIter::new(&bundle.data, 0..800, 128, Some(epoch)) {
                last = net.train_batch(&batch, 1.0);
                first.get_or_insert(last);
            }
        }
        assert!(
            last < first.unwrap(),
            "loss did not decrease: {first:?} -> {last}"
        );
    }

    #[test]
    fn architecture_moves_from_uniform_during_training() {
        let (mut net, bundle) = tiny_setup();
        for epoch in 0..4 {
            for batch in BatchIter::new(&bundle.data, 0..800, 128, Some(epoch)) {
                net.train_batch(&batch, 0.5);
            }
        }
        let probs = net.arch_probs();
        let moved = probs
            .iter()
            .any(|row| row.iter().any(|&p| (p - 1.0 / 3.0).abs() > 0.05));
        assert!(moved, "architecture logits never moved: {probs:?}");
    }

    #[test]
    fn extract_architecture_matches_argmax() {
        let (mut net, _) = tiny_setup();
        // Force a known pattern.
        for p in 0..net.dims.num_pairs {
            let target = p % 3;
            for c in 0..3 {
                net.arch
                    .value
                    .set(p, c, if c == target { 5.0 } else { -5.0 });
            }
        }
        let arch = net.extract_architecture();
        for p in 0..arch.num_pairs() {
            assert_eq!(arch.method(p).index(), p % 3);
        }
    }

    #[test]
    fn arch_gradient_matches_finite_differences() {
        arch_gradcheck_for(FactFn::Hadamard, 1);
    }

    #[test]
    fn arch_gradient_matches_finite_differences_pointwise_add() {
        arch_gradcheck_for(FactFn::PointwiseAdd, 1);
    }

    #[test]
    fn arch_gradient_matches_finite_differences_generalized() {
        arch_gradcheck_for(FactFn::Generalized, 1);
    }

    #[test]
    fn arch_gradient_matches_finite_differences_pooled() {
        // The same check through the 2-thread data-parallel path: the
        // pooled forward/backward must produce the same (correct) α
        // gradients as the serial one.
        arch_gradcheck_for(FactFn::Generalized, 2);
    }

    /// End-to-end validation of the Gumbel-softmax backward: with the
    /// noiseless (deterministic) relaxation, the analytic d loss / d α must
    /// match central finite differences through the whole network.
    fn arch_gradcheck_for(fact_fn: FactFn, num_threads: usize) {
        let bundle = Profile::Tiny.bundle_with_rows(1200, 7);
        let dims = DataDims::of(&bundle.data);
        let cfg = OptInterConfig {
            seed: 3,
            fact_fn,
            num_threads,
            ..OptInterConfig::test_small()
        };
        let mut net = Supernet::new(cfg, dims);
        let batch = BatchIter::new(&bundle.data, 0..32, 32, None)
            .next()
            .unwrap();
        let tau = 0.7;
        // Move logits off the uniform point so gradients are non-trivial.
        for p in 0..net.dims.num_pairs {
            for c in 0..3 {
                net.arch
                    .value
                    .set(p, c, ((p * 3 + c) as f32 * 0.37).sin() * 0.5);
            }
        }
        let logits = net.forward(&batch, tau, false);
        let (_, grad) = bce_with_logits(&logits, &batch.labels);
        net.backward(&batch, &grad);
        let analytic = net.arch.grad.clone();
        net.discard_grads();
        let entries: Vec<(usize, usize)> = (0..net.dims.num_pairs.min(4))
            .flat_map(|p| (0..3).map(move |c| (p, c)))
            .collect();
        let cell = std::cell::RefCell::new(&mut net);
        let report = optinter_nn::gradcheck::check_grad_entries(
            &entries,
            1e-2,
            |p, c| analytic.get(p, c),
            |p, c| cell.borrow().arch.value.get(p, c),
            |p, c, v| cell.borrow_mut().arch.value.set(p, c, v),
            || {
                let mut n = cell.borrow_mut();
                let logits = n.forward(&batch, tau, false);
                bce_with_logits(&logits, &batch.labels).0
            },
        );
        assert!(
            report.max_abs_err < 5e-3,
            "{} arch gradient check failed: {report:?}",
            fact_fn.tag()
        );
    }

    #[test]
    fn predict_returns_probabilities() {
        let (mut net, bundle) = tiny_setup();
        let batch = BatchIter::new(&bundle.data, 0..32, 32, None)
            .next()
            .unwrap();
        let probs = net.predict(&batch, 0.5);
        assert_eq!(probs.len(), 32);
        assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn discard_grads_prevents_update_effect() {
        let (mut net, bundle) = tiny_setup();
        let batch = BatchIter::new(&bundle.data, 0..64, 64, None)
            .next()
            .unwrap();
        let logits = net.forward(&batch, 1.0, true);
        let (_, grad) = bce_with_logits(&logits, &batch.labels);
        net.backward(&batch, &grad);
        net.discard_grads();
        let before = net.arch.value.clone();
        net.step_arch();
        // With zero gradients Adam still divides 0/sqrt(0)+eps = 0: no move.
        assert_eq!(net.arch.value, before);
    }
}
