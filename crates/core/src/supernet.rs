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
//! [`SearchBlock`] is the supernet's combination block: it owns `α`, the
//! Gumbel draws, the full cross table `E^m` and the Adams of `α` and
//! `E^m`, and runs the mix and its two backward passes of
//! [`crate::combine`]. The supernet is a [`Body`] over it.
//!
//! # Parallelism
//!
//! When `cfg.num_threads > 1` the per-batch work shards across a
//! [`Pool`] under the owner-computes discipline (see
//! `optinter_tensor::pool`): the forward pass row-shards input assembly,
//! the MLP's matmuls row-block, and the backward pass runs as two passes,
//! one over contiguous ranges of *pairs* (the `α`- and generalized-weight
//! gradients) and one over *batch rows* (the field gradients).
//! `crate::combine` keeps every floating-point accumulator's terms in the
//! order of the original serial loop, so training is bit-identical to the
//! single-threaded path for any thread count.

use crate::arch::{Architecture, Method};
use crate::body::{Block, Body, Inputs};
use crate::combine::{Factorizer, Mixed};
use crate::config::OptInterConfig;
use crate::gumbel::GumbelSample;
use crate::net::{mlp_config, DataDims};
use optinter_data::Batch;
use optinter_nn::{Adam, DenseOptimizer, EmbedStore, Mlp, Parameter};
use optinter_tensor::{ops, Matrix, Pool};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The supernet's combination block: the relaxed architecture `α` with its
/// Gumbel draws, the full cross table `E^m`, the factorization function,
/// and the Adams of `α` and `E^m`.
pub struct SearchBlock {
    /// Architecture logits, one row per pair, columns `[mem, fac, naive]`.
    arch: Parameter,
    /// The factorization function, with the generalized product's
    /// per-pair weights.
    fact: Factorizer,
    e_cross: EmbedStore,
    adam_cross: Adam,
    adam_arch: Adam,
    /// Weight decay on `E^m`.
    l2_cross: f32,
    noise_rng: StdRng,
    /// `(i, j)` field indices of every pair, precomputed once.
    pairs: Vec<(usize, usize)>,
    s1: usize,
    s2: usize,
    num_fields: usize,
    // Persistent per-step buffers. Each forward overwrites them in full, so
    // a steady-state train step reuses their capacity instead of
    // reallocating; `backward` reads what the matching forward left.
    samples: Vec<GumbelSample>,
    em: Matrix,
    /// Each pair's `(dp_m, dp_f)` accumulators for the α gradient.
    dp: Matrix,
    d_em: Matrix,
}

impl SearchBlock {
    /// Draws every pair's relaxed method weights for the next forward:
    /// with fresh Gumbel noise at temperature `tau` when `train`, the
    /// noiseless softmax otherwise. The noise comes off one stream in pair
    /// order, so this stays serial.
    fn draw(&mut self, tau: f32, train: bool) {
        self.samples.clear();
        for p in 0..self.pairs.len() {
            let logits = self.arch.value.row(p);
            self.samples.push(if train {
                GumbelSample::draw(logits, tau, &mut self.noise_rng)
            } else {
                GumbelSample::deterministic(logits, tau)
            });
        }
    }

    /// Steps `E^m` with its own Adam (learning rate `lr_cross`).
    fn step_cross(&mut self) {
        self.adam_cross.begin_step();
        self.e_cross.apply_adam(&self.adam_cross, self.l2_cross);
    }

    /// Steps `α` with its own Adam (learning rate `lr_arch`).
    fn step_arch(&mut self) {
        self.adam_arch.begin_step();
        self.adam_arch.step(&mut self.arch, 0.0);
    }
}

impl Block for SearchBlock {
    /// Looks up every pair's cross row and writes the MLP input `[e^o |
    /// mixed pair embeddings]`, sharded over batch rows.
    fn forward(&mut self, x: &Inputs<'_>, input: &mut Matrix) {
        let p_count = self.pairs.len();
        self.e_cross
            .lookup_fields_pooled_into(x.cross, p_count, x.pool, &mut self.em);
        Mixed {
            pairs: &self.pairs,
            samples: &self.samples,
            fact: self.fact.fact(),
            s1: self.s1,
            s2: self.s2,
            num_fields: self.num_fields,
        }
        .mix_into(x.pool, x.eo, &self.em, input);
    }

    /// Two owner-computes passes: one over contiguous ranges of pairs
    /// (each owns its dp_m/dp_f, α-gradient and generalized-weight rows),
    /// one over batch rows (each owns its d e^o and d e^m rows).
    fn backward(&mut self, x: &Inputs<'_>, dinput: &Matrix, _: &Matrix, d_eo: &mut Matrix) {
        let (fact, fw_grad) = self.fact.with_grad();
        let block = Mixed {
            pairs: &self.pairs,
            samples: &self.samples,
            fact,
            s1: self.s1,
            s2: self.s2,
            num_fields: self.num_fields,
        };
        let (em, dp, arch_grad) = (&self.em, &mut self.dp, &mut self.arch.grad);
        block.backward_arch(x.pool, dinput, x.eo, em, dp, arch_grad, fw_grad);
        block.backward_fields(x.pool, dinput, x.eo, d_eo, &mut self.d_em);
        let p_count = self.pairs.len();
        self.e_cross
            .accumulate_grad_fields_pooled(x.cross, p_count, &self.d_em, x.pool);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        if let Some(w) = self.fact.weights_mut() {
            f(w);
        }
    }

    /// Steps `E^m`, then `α` (the joint update of Algorithm 1).
    fn step(&mut self, _: &Adam) {
        self.step_cross();
        self.step_arch();
    }

    fn catch_up(&mut self) {
        self.e_cross.catch_up_all(&self.adam_cross, self.l2_cross);
    }

    fn num_params(&mut self) -> usize {
        let fact = match &self.fact {
            Factorizer::Generalized(fw) => fw.len(),
            Factorizer::Hadamard | Factorizer::PointwiseAdd => 0,
        };
        self.e_cross.num_params() + self.arch.len() + fact
    }
}

/// The OptInter supernet: a [`Body`] over a [`SearchBlock`], the network
/// weights plus the relaxed architecture.
pub struct Supernet {
    cfg: OptInterConfig,
    dims: DataDims,
    body: Body<SearchBlock>,
}

impl Supernet {
    /// Builds a supernet for a dataset's dimensions.
    pub fn new(cfg: OptInterConfig, dims: DataDims) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let (s1, s2) = (cfg.orig_dim, cfg.cross_dim);
        let input_dim = dims.num_fields * s1 + dims.num_pairs * cfg.mixed_dim();
        let mlp = Mlp::new(&mut rng, &mlp_config(&cfg, input_dim));
        // Dense stores draw exactly what `EmbeddingTable::new` always drew
        // here, so `StoreKind::Dense` configs keep historical trajectories.
        let [orig_seed, cross_seed] = [cfg.seed ^ 0x5000_0E0A, cfg.seed ^ 0x5000_0ECA];
        let (orig_rows, cross_rows) = (dims.orig_vocab as usize, dims.cross_vocab as usize);
        let mut e_orig = EmbedStore::new(cfg.orig_store, &mut rng, orig_rows, s1, orig_seed);
        let mut e_cross = EmbedStore::new(cfg.cross_store, &mut rng, cross_rows, s2, cross_seed);
        e_orig.set_optimizer_mode(cfg.embed_opt);
        e_cross.set_optimizer_mode(cfg.embed_opt);
        let block = SearchBlock {
            // Architecture logits start at zero: uniform prior over methods.
            arch: Parameter::zeros(dims.num_pairs, 3),
            fact: Factorizer::new(cfg.fact_fn, dims.num_pairs, s1),
            e_cross,
            adam_cross: Adam::with_lr_eps(cfg.lr_cross, cfg.adam_eps),
            adam_arch: Adam::with_lr_eps(cfg.lr_arch, cfg.adam_eps),
            l2_cross: cfg.l2_cross,
            noise_rng: StdRng::seed_from_u64(cfg.seed ^ 0x6A3B),
            pairs: dims.pairs().iter().collect(),
            s1,
            s2,
            num_fields: dims.num_fields,
            samples: Vec::with_capacity(dims.num_pairs),
            em: Matrix::zeros(0, 0),
            dp: Matrix::zeros(0, 0),
            d_em: Matrix::zeros(0, 0),
        };
        let adam = Adam::with_lr_eps(cfg.lr, cfg.adam_eps);
        let pool = Pool::new(cfg.num_threads);
        let body = Body::new(block, e_orig, mlp, adam, cfg.l2_orig, pool, dims.num_fields);
        Self { cfg, dims, body }
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
        self.body.num_params()
    }

    fn arch(&self) -> &Parameter {
        &self.body.block().arch
    }

    /// Current architecture logits (rows = pairs).
    pub fn arch_logits(&self) -> &Matrix {
        &self.arch().value
    }

    /// Mutable architecture logits (bi-level search updates these
    /// through a separate pass; tests use this to force selections).
    pub fn arch_logits_mut(&mut self) -> &mut Matrix {
        &mut self.body.block_mut().arch.value
    }

    /// Accumulated architecture gradient (diagnostics / gradient checks).
    pub fn arch_grad(&self) -> &Matrix {
        &self.arch().grad
    }

    /// Softmax probabilities of each pair's method (temperature 1, no noise).
    pub fn arch_probs(&self) -> Vec<[f32; 3]> {
        (0..self.dims.num_pairs)
            .map(|p| {
                let probs = ops::softmax_slice(self.arch_logits().row(p), 1.0);
                [probs[0], probs[1], probs[2]]
            })
            .collect()
    }

    /// Extracts the discrete architecture by per-pair argmax (Eq. 19).
    pub fn extract_architecture(&self) -> Architecture {
        let methods = (0..self.dims.num_pairs)
            .map(|p| Method::from_index(ops::argmax(self.arch_logits().row(p))))
            .collect();
        Architecture::new(methods)
    }

    /// Forward pass producing `[B, 1]` logits.
    ///
    /// With `train = true`, architecture weights are sampled with fresh
    /// Gumbel noise at temperature `tau`; otherwise the noiseless softmax at
    /// the same temperature is used.
    pub fn forward(&mut self, batch: &Batch, tau: f32, train: bool) -> Matrix {
        self.prepare(batch, tau, train);
        self.body.forward(&batch.fields, &batch.cross).clone()
    }

    /// Checks `batch` against the supernet's dimensions and draws the
    /// relaxed method weights its forward mixes with.
    fn prepare(&mut self, batch: &Batch, tau: f32, train: bool) {
        assert_eq!(
            batch.num_fields, self.dims.num_fields,
            "supernet: field count mismatch"
        );
        assert!(
            !batch.cross.is_empty(),
            "supernet needs cross features in the batch"
        );
        SearchBlock::draw(self.body.block_mut(), tau, train);
    }

    /// Backward pass from logit gradients; accumulates gradients on network
    /// weights, both embedding tables and the architecture logits. `batch`
    /// must be the one the matching [`forward`](Self::forward) saw — the
    /// persistent scratch holds that forward's activations but not the batch
    /// itself.
    pub fn backward(&mut self, batch: &Batch, grad_logits: &Matrix) {
        self.body.backward(&batch.fields, &batch.cross, grad_logits);
    }

    /// Applies one simultaneous optimizer step to Θ and α (Algorithm 1).
    pub fn step(&mut self) {
        self.body.step();
    }

    /// Updates only the network weights Θ (bi-level search uses this on
    /// training batches).
    pub fn step_weights(&mut self) {
        self.body.step_shared();
        self.body.block_mut().step_cross();
    }

    /// Replays any optimizer updates the `LazyCatchUp` embedding mode
    /// deferred, bringing every row up to the current timestep. Call before
    /// reading out weights; a no-op for the other modes.
    pub fn catch_up_embeddings(&mut self) {
        self.body.catch_up();
    }

    /// Updates only the architecture parameters α (bi-level search uses
    /// this on validation batches). Pending network-weight and embedding
    /// gradients stay where they are; bi-level search drops them with
    /// [`zero_weight_grads`](Self::zero_weight_grads) after this call.
    pub fn step_arch(&mut self) {
        self.body.block_mut().step_arch();
    }

    /// Zeroes only the architecture gradient (bi-level: after a Θ step the
    /// training batch's α gradient must not leak into the next α step).
    pub fn zero_arch_grad(&mut self) {
        self.body.block_mut().arch.grad.fill_zero();
    }

    /// Zeroes network-weight and embedding gradients (bi-level: after an α
    /// step the validation batch's Θ gradients must be dropped).
    pub fn zero_weight_grads(&mut self) {
        self.body.zero_grads();
        self.body.block_mut().e_cross.clear_grads();
    }

    /// Discards all pending gradients without applying them.
    pub fn discard_grads(&mut self) {
        self.zero_weight_grads();
        self.zero_arch_grad();
    }

    /// One full training step (forward, loss, backward, joint update).
    /// Returns the mean batch loss.
    pub fn train_batch(&mut self, batch: &Batch, tau: f32) -> f32 {
        self.prepare(batch, tau, true);
        self.body.train_batch(batch)
    }

    /// Predicted probabilities with the current (soft) architecture.
    pub fn predict(&mut self, batch: &Batch, tau: f32) -> Vec<f32> {
        self.prepare(batch, tau, false);
        self.body.predict(batch)
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
                net.arch_logits_mut()
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
                net.arch_logits_mut()
                    .set(p, c, ((p * 3 + c) as f32 * 0.37).sin() * 0.5);
            }
        }
        let logits = net.forward(&batch, tau, false);
        let (_, grad) = bce_with_logits(&logits, &batch.labels);
        net.backward(&batch, &grad);
        let analytic = net.arch_grad().clone();
        net.discard_grads();
        let entries: Vec<(usize, usize)> = (0..net.dims.num_pairs.min(4))
            .flat_map(|p| (0..3).map(move |c| (p, c)))
            .collect();
        let cell = std::cell::RefCell::new(&mut net);
        let report = optinter_nn::gradcheck::check_grad_entries(
            &entries,
            1e-2,
            |p, c| analytic.get(p, c),
            |p, c| cell.borrow().arch_logits().get(p, c),
            |p, c, v| cell.borrow_mut().arch_logits_mut().set(p, c, v),
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
        let before = net.arch_logits().clone();
        net.step_arch();
        // With zero gradients Adam still divides 0/sqrt(0)+eps = 0: no move.
        assert_eq!(net.arch_logits(), &before);
    }
}
