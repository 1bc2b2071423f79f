//! The fixed-architecture OptInter network (re-train stage, Algorithm 2).
//!
//! Given a discrete [`Architecture`], each pair contributes exactly one
//! embedding to the MLP input: its cross-product embedding (memorize), its
//! Hadamard product (factorize), or nothing (naïve). Only memorized pairs
//! get rows in the cross-product table, so the parameter count reflects the
//! selection — this is the source of OptInter's 18%–91% parameter savings
//! over OptInter-M (paper Table V).
//!
//! `OptInterNet` with a uniform architecture realises the fixed baselines:
//! all-memorize = **OptInter-M**, all-factorize = **OptInter-F**, and
//! all-naïve is an FNN-style model.

use crate::arch::{Architecture, Method};
use crate::combine::{Fact, PairLayout};
use crate::config::{FactFn, OptInterConfig};
use optinter_data::{Batch, EncodedDataset, PairIndexer};
use optinter_nn::{
    bce_with_logits_into, loss, Adam, DenseOptimizer, EmbedStore, Layer, Mlp, MlpConfig, Parameter,
    Workspace,
};
use optinter_tensor::{Matrix, Pool};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The dataset dimensions a model needs to size its tables.
#[derive(Debug, Clone)]
pub struct DataDims {
    /// Number of original fields `M`.
    pub num_fields: usize,
    /// Number of pairs `M(M-1)/2`.
    pub num_pairs: usize,
    /// Global original vocabulary size.
    pub orig_vocab: u32,
    /// Global cross vocabulary size.
    pub cross_vocab: u32,
    /// Global offset of each pair in the cross id space.
    pub pair_offsets: Vec<u32>,
    /// Per-pair cross vocabulary sizes (OOV included).
    pub pair_vocab_sizes: Vec<u32>,
}

impl DataDims {
    /// Extracts dimensions from an encoded dataset.
    pub fn of(data: &EncodedDataset) -> Self {
        Self {
            num_fields: data.num_fields,
            num_pairs: data.num_pairs,
            orig_vocab: data.orig_vocab,
            cross_vocab: data.cross_vocab,
            pair_offsets: data.pair_offsets.clone(),
            pair_vocab_sizes: data.pair_vocab_sizes.clone(),
        }
    }

    /// Pair indexer for these dimensions.
    pub fn pairs(&self) -> PairIndexer {
        PairIndexer::new(self.num_fields)
    }
}

/// Fixed-architecture OptInter model.
pub struct OptInterNet {
    cfg: OptInterConfig,
    dims: DataDims,
    architecture: Architecture,
    layout: PairLayout,
    e_orig: EmbedStore,
    /// Compact cross table: rows only for memorized pairs.
    e_cross: EmbedStore,
    /// Per-pair weights for the generalized product (one row per pair,
    /// only rows of factorized pairs are used). `None` for the other
    /// factorization functions.
    fact_weights: Option<Parameter>,
    mlp: Mlp,
    adam_net: Adam,
    adam_cross: Adam,
    pool: Pool,
    scr: NetScratch,
    ws: Workspace,
}

/// Persistent per-step buffers. Each forward overwrites them in full, so a
/// steady-state train step reuses their capacity instead of reallocating;
/// `backward` reads the activations the matching forward left behind.
struct NetScratch {
    mem_ids: Vec<u32>,
    eo: Matrix,
    em: Matrix,
    input: Matrix,
    logits: Matrix,
    grad_logits: Matrix,
    d_eo: Matrix,
    d_em: Matrix,
}

impl NetScratch {
    fn new() -> Self {
        Self {
            mem_ids: Vec::new(),
            eo: Matrix::zeros(0, 0),
            em: Matrix::zeros(0, 0),
            input: Matrix::zeros(0, 0),
            logits: Matrix::zeros(0, 0),
            grad_logits: Matrix::zeros(0, 0),
            d_eo: Matrix::zeros(0, 0),
            d_em: Matrix::zeros(0, 0),
        }
    }
}

impl OptInterNet {
    /// Builds a freshly-initialised network for the given architecture.
    pub fn new(cfg: OptInterConfig, dims: DataDims, architecture: Architecture) -> Self {
        assert_eq!(
            architecture.num_pairs(),
            dims.num_pairs,
            "architecture does not match dataset pair count"
        );
        let s1 = cfg.orig_dim;
        let s2 = cfg.cross_dim;
        let layout = PairLayout::new(&architecture, &dims, s1, s2);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF17ED);
        // Dense stores draw exactly what `EmbeddingTable::new` always drew
        // here, so `StoreKind::Dense` configs keep historical trajectories.
        let mut e_orig = EmbedStore::new(
            cfg.orig_store,
            &mut rng,
            dims.orig_vocab as usize,
            s1,
            cfg.seed ^ 0x0517_0E0A,
        );
        let mut e_cross = EmbedStore::new(
            cfg.cross_store,
            &mut rng,
            layout.compact_rows(),
            s2,
            cfg.seed ^ 0x0517_0ECA,
        );
        e_orig.set_optimizer_mode(cfg.embed_opt);
        e_cross.set_optimizer_mode(cfg.embed_opt);
        let mut mlp = Mlp::new(
            &mut rng,
            &MlpConfig {
                input_dim: layout.input_dim(),
                hidden: cfg.hidden.clone(),
                output_dim: 1,
                layer_norm: cfg.layer_norm,
                ln_eps: 1e-5,
            },
        );
        let pool = Pool::new(cfg.num_threads);
        mlp.set_pool(&pool);
        let adam_net = Adam::with_lr_eps(cfg.lr, cfg.adam_eps);
        let adam_cross = Adam::with_lr_eps(cfg.lr_cross, cfg.adam_eps);
        // Generalized-product weights start at 1: it reduces to Hadamard.
        let fact_weights = (cfg.fact_fn == FactFn::Generalized)
            .then(|| Parameter::new(Matrix::filled(dims.num_pairs, s1, 1.0)));
        Self {
            cfg,
            dims,
            architecture,
            layout,
            e_orig,
            e_cross,
            fact_weights,
            mlp,
            adam_net,
            adam_cross,
            pool,
            scr: NetScratch::new(),
            ws: Workspace::new(),
        }
    }

    /// The fixed architecture.
    pub fn architecture(&self) -> &Architecture {
        &self.architecture
    }

    /// The configuration the network was built with.
    pub fn config(&self) -> &OptInterConfig {
        &self.cfg
    }

    /// The original-feature and cross-product embedding stores (the
    /// serving freezer reads their storage kind and hash seed to record
    /// matching store descriptors in the artifact).
    pub fn embedding_stores(&self) -> (&EmbedStore, &EmbedStore) {
        (&self.e_orig, &self.e_cross)
    }

    /// MLP input dimension.
    pub fn input_dim(&self) -> usize {
        self.layout.input_dim()
    }

    /// Number of memorized pairs.
    pub fn num_memorized(&self) -> usize {
        self.layout.num_memorized()
    }

    /// Total trainable parameters. The compact cross table only holds rows
    /// for memorized pairs, so parameter counts track the architecture.
    pub fn num_params(&mut self) -> usize {
        let cross = if self.num_memorized() == 0 {
            0
        } else {
            self.e_cross.num_params()
        };
        // Generalized-product weights: only factorized pairs' rows are live.
        let fact = if self.fact_weights.is_some() {
            let factorized = self.architecture.counts()[Method::Factorize.index()];
            factorized * self.cfg.orig_dim
        } else {
            0
        };
        self.e_orig.num_params() + cross + fact + self.mlp.num_params()
    }

    /// Forward pass producing `[B, 1]` logits.
    pub fn forward(&mut self, batch: &Batch) -> Matrix {
        self.forward_step(batch);
        self.scr.logits.clone()
    }

    /// Forward pass into the persistent scratch buffers; `self.scr.logits`
    /// holds the `[B, 1]` logits afterwards. Allocation-free at steady state.
    fn forward_step(&mut self, batch: &Batch) {
        let m = self.dims.num_fields;
        assert_eq!(batch.num_fields, m, "OptInterNet: field count mismatch");
        self.e_orig
            .lookup_fields_pooled_into(&batch.fields, m, &self.pool, &mut self.scr.eo);
        let num_memorized = self.num_memorized();
        assert!(
            num_memorized == 0 || !batch.cross.is_empty(),
            "architecture memorizes pairs but the batch has no cross features"
        );
        self.layout.gather_mem_ids_into(
            &batch.cross,
            &self.dims.pair_offsets,
            &mut self.scr.mem_ids,
        );
        if num_memorized > 0 {
            self.e_cross.lookup_fields_pooled_into(
                &self.scr.mem_ids,
                num_memorized,
                &self.pool,
                &mut self.scr.em,
            );
        } else {
            self.scr.em.reset(batch.len(), 0);
        }
        // Assemble the MLP input, sharded over batch rows.
        let fw = self.fact_weights.as_ref().map(|fw| &fw.value);
        self.layout.assemble_into(
            &self.pool,
            Fact::new(self.cfg.fact_fn, fw),
            &self.scr.eo,
            &self.scr.em,
            &mut self.scr.input,
        );
        let (input, logits) = (&self.scr.input, &mut self.scr.logits);
        self.mlp.forward_into(input, logits);
    }

    /// Backward pass from logit gradients. `batch` must be the one the
    /// matching [`forward`](Self::forward) saw — the persistent scratch
    /// holds that forward's activations but not the batch itself.
    pub fn backward(&mut self, batch: &Batch, grad_logits: &Matrix) {
        let m = self.dims.num_fields;
        let b = grad_logits.rows();
        assert_eq!(
            self.scr.input.rows(),
            b,
            "OptInterNet::backward before forward"
        );
        let mut dinput = self.ws.take(b, self.input_dim());
        {
            let input = &self.scr.input;
            self.mlp.backward_into(input, grad_logits, &mut dinput);
        }
        // Generalized-weight rows shard over contiguous pair ranges, the
        // field gradients over batch rows.
        let (fw, fw_grad) = match self.fact_weights.as_mut() {
            Some(fw) => (Some(&fw.value), Some(&mut fw.grad)),
            None => (None, None),
        };
        self.layout.assemble_backward_into(
            &self.pool,
            Fact::new(self.cfg.fact_fn, fw),
            &dinput,
            &self.scr.eo,
            &mut self.scr.d_eo,
            &mut self.scr.d_em,
            fw_grad,
        );
        self.e_orig
            .accumulate_grad_fields_pooled(&batch.fields, m, &self.scr.d_eo, &self.pool);
        let num_memorized = self.num_memorized();
        if num_memorized > 0 {
            self.e_cross.accumulate_grad_fields_pooled(
                &self.scr.mem_ids,
                num_memorized,
                &self.scr.d_em,
                &self.pool,
            );
        }
        self.ws.recycle(dinput);
    }

    /// Applies one Adam step to all weights.
    pub fn step(&mut self) {
        self.adam_net.begin_step();
        let mut adam = self.adam_net;
        self.mlp.visit_params(&mut |p| adam.step(p, 0.0));
        if let Some(fw) = self.fact_weights.as_mut() {
            adam.step(fw, 0.0);
        }
        self.adam_net = adam;
        self.e_orig.apply_adam(&self.adam_net, self.cfg.l2_orig);
        if self.num_memorized() > 0 {
            self.adam_cross.begin_step();
            self.e_cross.apply_adam(&self.adam_cross, self.cfg.l2_cross);
        }
    }

    /// Replays any optimizer updates the `LazyCatchUp` embedding mode
    /// deferred, bringing every row up to the current timestep. Call before
    /// exporting or freezing weights; a no-op for the other modes.
    pub fn catch_up_embeddings(&mut self) {
        self.e_orig.catch_up_all(&self.adam_net, self.cfg.l2_orig);
        if self.num_memorized() > 0 {
            self.e_cross
                .catch_up_all(&self.adam_cross, self.cfg.l2_cross);
        }
    }

    /// Exports every trainable weight as `(name, matrix)` pairs in a
    /// stable order (used by [`crate::persist`]). Dense stores export one
    /// tensor (`e_orig` / `e_cross`); hashed stores export their two
    /// sub-tables (`e_orig.t1` / `e_orig.t2`, etc.). Lazy optimizer tails
    /// are flushed first so the export reflects the full trajectory.
    pub fn export_weights(&mut self) -> Vec<(String, Matrix)> {
        self.catch_up_embeddings();
        let mut out = Vec::new();
        self.e_orig.push_weights("e_orig", &mut out);
        self.e_cross.push_weights("e_cross", &mut out);
        if let Some(fw) = self.fact_weights.as_ref() {
            out.push(("fact_weights".to_string(), fw.value.clone()));
        }
        let mut idx = 0usize;
        self.mlp.visit_params(&mut |p| {
            out.push((format!("mlp.{idx}"), p.value.clone()));
            idx += 1;
        });
        out
    }

    /// Imports weights previously produced by
    /// [`export_weights`](Self::export_weights). Optimizer state is reset.
    ///
    /// # Errors
    /// Returns an error when a name is missing or a shape mismatches.
    pub fn import_weights(&mut self, weights: &[(String, Matrix)]) -> Result<(), String> {
        use std::collections::HashMap;
        let map: HashMap<&str, &Matrix> = weights.iter().map(|(n, m)| (n.as_str(), m)).collect();
        let fetch = |name: &str, expect: (usize, usize)| -> Result<Matrix, String> {
            let m = map
                .get(name)
                .ok_or_else(|| format!("missing weight `{name}`"))?;
            if m.shape() != expect {
                return Err(format!(
                    "weight `{name}` shape {:?} does not match expected {:?}",
                    m.shape(),
                    expect
                ));
            }
            Ok((*m).clone())
        };
        self.e_orig
            .import_weights("e_orig", &mut |name, shape| fetch(name, shape))?;
        self.e_cross
            .import_weights("e_cross", &mut |name, shape| fetch(name, shape))?;
        if let Some(fw) = self.fact_weights.as_mut() {
            fw.value = fetch("fact_weights", fw.value.shape())?;
            fw.reset_opt_state();
        }
        let mut idx = 0usize;
        let mut err: Option<String> = None;
        self.mlp.visit_params(&mut |p| {
            if err.is_some() {
                return;
            }
            match fetch(&format!("mlp.{idx}"), p.value.shape()) {
                Ok(m) => {
                    p.value = m;
                    p.grad.fill_zero();
                    p.reset_opt_state();
                }
                Err(e) => err = Some(e),
            }
            idx += 1;
        });
        if let Some(e) = err {
            return Err(e);
        }
        // Poison the scratch so a stale backward cannot pair old activations
        // with the imported weights.
        self.scr.input.reset(0, 0);
        Ok(())
    }

    /// One training step; returns the mean batch loss.
    pub fn train_batch(&mut self, batch: &Batch) -> f32 {
        self.forward_step(batch);
        let mut grad = std::mem::replace(&mut self.scr.grad_logits, Matrix::zeros(0, 0));
        let loss_value = bce_with_logits_into(&self.scr.logits, &batch.labels, &mut grad);
        self.backward(batch, &grad);
        self.scr.grad_logits = grad;
        self.step();
        loss_value
    }

    /// Predicted probabilities.
    pub fn predict(&mut self, batch: &Batch) -> Vec<f32> {
        self.forward_step(batch);
        loss::probabilities(&self.scr.logits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinter_data::{BatchIter, Profile};

    fn setup(
        arch_fn: impl Fn(usize) -> Architecture,
    ) -> (OptInterNet, optinter_data::DatasetBundle) {
        let bundle = Profile::Tiny.bundle_with_rows(1500, 11);
        let dims = DataDims::of(&bundle.data);
        let arch = arch_fn(dims.num_pairs);
        let cfg = OptInterConfig {
            seed: 5,
            ..OptInterConfig::test_small()
        };
        (OptInterNet::new(cfg, dims, arch), bundle)
    }

    #[test]
    fn all_naive_has_smallest_input() {
        let (naive, _) = setup(|p| Architecture::uniform(Method::Naive, p));
        let (fac, _) = setup(|p| Architecture::uniform(Method::Factorize, p));
        let (mem, _) = setup(|p| Architecture::uniform(Method::Memorize, p));
        assert!(naive.input_dim() < fac.input_dim());
        assert!(naive.input_dim() < mem.input_dim());
    }

    #[test]
    fn param_count_tracks_architecture() {
        let (mut naive, _) = setup(|p| Architecture::uniform(Method::Naive, p));
        let (mut fac, _) = setup(|p| Architecture::uniform(Method::Factorize, p));
        let (mut mem, _) = setup(|p| Architecture::uniform(Method::Memorize, p));
        let n_naive = naive.num_params();
        let n_fac = fac.num_params();
        let n_mem = mem.num_params();
        assert!(
            n_mem > n_fac,
            "memorize {n_mem} must exceed factorize {n_fac}"
        );
        assert!(
            n_fac > n_naive,
            "factorize {n_fac} must exceed naive {n_naive}"
        );
    }

    #[test]
    fn mixed_architecture_trains() {
        let (mut net, bundle) = setup(|p| {
            let mut methods = Vec::with_capacity(p);
            for i in 0..p {
                methods.push(Method::from_index(i % 3));
            }
            Architecture::new(methods)
        });
        let mut first = None;
        let mut last = 0.0;
        for epoch in 0..3 {
            for batch in BatchIter::new(&bundle.data, 0..1000, 128, Some(epoch)) {
                last = net.train_batch(&batch);
                first.get_or_insert(last);
            }
        }
        assert!(last < first.unwrap(), "loss did not decrease");
    }

    #[test]
    fn all_naive_ignores_cross_features() {
        let (mut net, bundle) = setup(|p| Architecture::uniform(Method::Naive, p));
        let batch = BatchIter::new(&bundle.data, 0..16, 16, None)
            .next()
            .unwrap();
        let with_cross = net.predict(&batch);
        let mut no_cross = batch.clone();
        no_cross.cross.clear();
        let without = net.predict(&no_cross);
        assert_eq!(with_cross, without);
    }

    #[test]
    fn memorized_ids_stay_in_compact_range() {
        let (net, bundle) = setup(|p| Architecture::uniform(Method::Memorize, p));
        let batch = BatchIter::new(&bundle.data, 0..64, 64, None)
            .next()
            .unwrap();
        let mut ids = Vec::new();
        net.layout
            .gather_mem_ids_into(&batch.cross, &net.dims.pair_offsets, &mut ids);
        assert_eq!(ids.len(), 64 * net.num_memorized());
        let max = net.e_cross.key_space() as u32;
        assert!(ids.iter().all(|&id| id < max));
    }

    #[test]
    fn all_fact_fns_train_and_predict() {
        use crate::config::FactFn;
        let bundle = Profile::Tiny.bundle_with_rows(1500, 11);
        let dims = DataDims::of(&bundle.data);
        let mut aucs = Vec::new();
        for fact_fn in [FactFn::Hadamard, FactFn::PointwiseAdd, FactFn::Generalized] {
            let cfg = OptInterConfig {
                seed: 5,
                fact_fn,
                ..OptInterConfig::test_small()
            };
            let arch = Architecture::uniform(Method::Factorize, dims.num_pairs);
            let mut net = OptInterNet::new(cfg, dims.clone(), arch);
            for batch in BatchIter::new(&bundle.data, 0..1000, 128, Some(1)) {
                let loss = net.train_batch(&batch);
                assert!(loss.is_finite(), "{}: loss {loss}", fact_fn.tag());
            }
            let batch = BatchIter::new(&bundle.data, 1000..1400, 400, None)
                .next()
                .unwrap();
            let probs = net.predict(&batch);
            assert!(probs.iter().all(|p| p.is_finite()), "{}", fact_fn.tag());
            aucs.push(optinter_metrics::auc(&probs, &batch.labels));
        }
        for (i, auc) in aucs.iter().enumerate() {
            assert!(*auc > 0.52, "fact fn {i} AUC {auc} at chance");
        }
    }

    #[test]
    fn generalized_product_initialises_to_hadamard() {
        use crate::config::FactFn;
        let bundle = Profile::Tiny.bundle_with_rows(300, 12);
        let dims = DataDims::of(&bundle.data);
        let arch = Architecture::uniform(Method::Factorize, dims.num_pairs);
        let cfg_h = OptInterConfig {
            seed: 9,
            fact_fn: FactFn::Hadamard,
            ..OptInterConfig::test_small()
        };
        let cfg_g = OptInterConfig {
            seed: 9,
            fact_fn: FactFn::Generalized,
            ..OptInterConfig::test_small()
        };
        let mut h = OptInterNet::new(cfg_h, dims.clone(), arch.clone());
        let mut g = OptInterNet::new(cfg_g, dims, arch);
        let batch = BatchIter::new(&bundle.data, 0..32, 32, None)
            .next()
            .unwrap();
        // With weights at 1 the generalized product equals the Hadamard one.
        assert_eq!(h.predict(&batch), g.predict(&batch));
        // But the generalized variant has more trainable parameters.
        assert!(g.num_params() > h.num_params());
    }

    #[test]
    fn predictions_are_probabilities() {
        let (mut net, bundle) = setup(|p| Architecture::uniform(Method::Factorize, p));
        let batch = BatchIter::new(&bundle.data, 0..32, 32, None)
            .next()
            .unwrap();
        let probs = net.predict(&batch);
        assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }
}
