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
//!
//! [`FixedBlock`] is the architecture's combination block, and
//! `Body<FixedBlock>` holds the model's weights and runs its forward pass.
//! `OptInterNet` trains one; the frozen scorer in `optinter-serve` loads
//! one from an artifact ([`Body::from_weights`]), so serving computes what
//! training did.

use crate::arch::{Architecture, Method};
use crate::body::{Block, Body, Inputs};
use crate::combine::{Factorizer, PairLayout};
use crate::config::OptInterConfig;
use optinter_data::{Batch, EncodedDataset, PairIndexer};
use optinter_nn::{Adam, DenseOptimizer, EmbedStore, Mlp, MlpConfig, Parameter, WeightFetch};
use optinter_tensor::{Matrix, Pool};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The dataset dimensions a model needs to size its tables.
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// Hash seeds of a network's `E^o` and `E^m` stores.
fn store_seeds(seed: u64) -> [u64; 2] {
    [seed ^ 0x0517_0E0A, seed ^ 0x0517_0ECA]
}

/// A fixed architecture's combination block (Eq. 19): the memorized
/// pairs' compact cross table `E^m` with its own Adam, the factorization
/// function and the [`PairLayout`] that places each pair's one embedding
/// in the MLP input.
pub struct FixedBlock {
    dims: DataDims,
    layout: PairLayout,
    /// Compact cross table: rows only for memorized pairs.
    e_cross: EmbedStore,
    fact: Factorizer,
    adam: Adam,
    /// Weight decay on `E^m`.
    l2: f32,
    // The last forward's compact ids and cross rows, and the backward's
    // cross gradient.
    mem_ids: Vec<u32>,
    em: Matrix,
    d_em: Matrix,
}

impl FixedBlock {
    /// Dataset dimensions the model was built for.
    pub fn dims(&self) -> &DataDims {
        &self.dims
    }

    /// Where each pair's embedding lands in the MLP input.
    pub fn layout(&self) -> &PairLayout {
        &self.layout
    }

    /// The compact cross table.
    pub fn e_cross(&self) -> &EmbedStore {
        &self.e_cross
    }
}

impl Block for FixedBlock {
    /// Looks up the memorized pairs' compact rows and assembles the MLP
    /// input, sharded over batch rows, owner-computes, so any thread count
    /// writes the same bytes.
    fn forward(&mut self, x: &Inputs<'_>, input: &mut Matrix) {
        let offsets = &self.dims.pair_offsets;
        self.layout
            .gather_mem_ids_into(x.cross, offsets, &mut self.mem_ids);
        let num_memorized = self.layout.num_memorized();
        if num_memorized > 0 {
            let (ids, em) = (&self.mem_ids, &mut self.em);
            self.e_cross
                .lookup_fields_pooled_into(ids, num_memorized, x.pool, em);
        } else {
            self.em.reset(x.eo.rows(), 0);
        }
        let fact = self.fact.fact();
        self.layout
            .assemble_into(x.pool, fact, x.eo, &self.em, input);
    }

    /// Generalized-weight rows shard over contiguous pair ranges, the
    /// field gradients over batch rows.
    fn backward(&mut self, x: &Inputs<'_>, dinput: &Matrix, _: &Matrix, d_eo: &mut Matrix) {
        let (fact, fw_grad) = self.fact.with_grad();
        let d_em = &mut self.d_em;
        self.layout
            .assemble_backward_into(x.pool, fact, dinput, x.eo, d_eo, d_em, fw_grad);
        let num_memorized = self.layout.num_memorized();
        if num_memorized > 0 {
            let (ids, d_em) = (&self.mem_ids, &self.d_em);
            self.e_cross
                .accumulate_grad_fields_pooled(ids, num_memorized, d_em, x.pool);
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        if let Some(w) = self.fact.weights_mut() {
            f(w);
        }
    }

    /// Steps `E^m` with its own Adam (learning rate `lr_cross`).
    fn step(&mut self, _: &Adam) {
        if self.layout.num_memorized() > 0 {
            self.adam.begin_step();
            self.e_cross.apply_adam(&self.adam, self.l2);
        }
    }

    fn catch_up(&mut self) {
        if self.layout.num_memorized() > 0 {
            self.e_cross.catch_up_all(&self.adam, self.l2);
        }
    }

    /// The compact table counts only when a pair is memorized, and the
    /// generalized product only its factorized pairs' weight rows.
    fn num_params(&mut self) -> usize {
        let cross = if self.layout.num_memorized() == 0 {
            0
        } else {
            self.e_cross.num_params()
        };
        let fact = match &self.fact {
            Factorizer::Generalized(w) => {
                let slots = self.layout.slots().iter();
                let factorized = slots.filter(|s| s.method == Method::Factorize).count();
                factorized * w.value.cols()
            }
            Factorizer::Hadamard | Factorizer::PointwiseAdd => 0,
        };
        cross + fact
    }
}

impl Body<FixedBlock> {
    /// Freshly initialised weights for `arch`, drawn from `cfg.seed`.
    fn fixed(cfg: &OptInterConfig, dims: DataDims, arch: &Architecture) -> Self {
        let (s1, s2) = (cfg.orig_dim, cfg.cross_dim);
        let layout = PairLayout::new(arch, &dims, s1, s2);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF17ED);
        let [orig_seed, cross_seed] = store_seeds(cfg.seed);
        // Dense stores draw exactly what `EmbeddingTable::new` always drew
        // here, so `StoreKind::Dense` configs keep historical trajectories.
        let orig_rows = dims.orig_vocab as usize;
        let e_orig = EmbedStore::new(cfg.orig_store, &mut rng, orig_rows, s1, orig_seed);
        let cross_rows = layout.compact_rows();
        let e_cross = EmbedStore::new(cfg.cross_store, &mut rng, cross_rows, s2, cross_seed);
        let mlp = Mlp::new(&mut rng, &mlp_config(cfg, layout.input_dim()));
        let fact = Factorizer::new(cfg.fact_fn, dims.num_pairs, s1);
        let pool = Pool::new(cfg.num_threads);
        Self::fixed_from_parts(cfg, dims, layout, [e_orig, e_cross], fact, mlp, pool)
    }

    /// Loads the weights [`OptInterNet::export_weights`] names (`e_orig*`,
    /// `e_cross*`, `fact_weights`, `mlp.{i}`) through `fetch` into the
    /// model `cfg`'s widths, stores, factorization and classifier
    /// describe, with the stores hashed by `hash_seeds`, running on `pool`.
    /// The tables are built from the fetched matrices, never drawn first.
    ///
    /// # Errors
    /// Whatever `fetch` returns for a missing or misshapen weight, or why a
    /// store kind in `cfg` describes no table.
    pub fn from_weights(
        cfg: &OptInterConfig,
        dims: DataDims,
        arch: &Architecture,
        hash_seeds: [u64; 2],
        pool: Pool,
        fetch: &mut WeightFetch<'_>,
    ) -> Result<Self, String> {
        let (s1, s2) = (cfg.orig_dim, cfg.cross_dim);
        let layout = PairLayout::new(arch, &dims, s1, s2);
        let [orig_seed, cross_seed] = hash_seeds;
        let (orig_rows, cross_rows) = (dims.orig_vocab as usize, layout.compact_rows());
        let e_orig =
            EmbedStore::from_weights(cfg.orig_store, orig_rows, s1, orig_seed, "e_orig", fetch)?;
        let e_cross = EmbedStore::from_weights(
            cfg.cross_store,
            cross_rows,
            s2,
            cross_seed,
            "e_cross",
            fetch,
        )?;
        // The factorization weights and the classifier are small next to
        // the tables, so they are initialised and then overwritten.
        let mut fact = Factorizer::new(cfg.fact_fn, dims.num_pairs, s1);
        if let Some(w) = fact.weights_mut() {
            w.value = fetch("fact_weights", w.value.shape())?;
        }
        let mut mlp = Mlp::new(
            &mut StdRng::seed_from_u64(0),
            &mlp_config(cfg, layout.input_dim()),
        );
        let (mut idx, mut fetched) = (0usize, Ok(()));
        mlp.visit_params(&mut |p| {
            if fetched.is_ok() {
                fetched = fetch(&format!("mlp.{idx}"), p.value.shape()).map(|m| p.value = m);
            }
            idx += 1;
        });
        fetched?;
        let stores = [e_orig, e_cross];
        Ok(Self::fixed_from_parts(
            cfg, dims, layout, stores, fact, mlp, pool,
        ))
    }

    fn fixed_from_parts(
        cfg: &OptInterConfig,
        dims: DataDims,
        layout: PairLayout,
        [mut e_orig, mut e_cross]: [EmbedStore; 2],
        fact: Factorizer,
        mlp: Mlp,
        pool: Pool,
    ) -> Self {
        e_orig.set_optimizer_mode(cfg.embed_opt);
        e_cross.set_optimizer_mode(cfg.embed_opt);
        let num_fields = dims.num_fields;
        let block = FixedBlock {
            dims,
            layout,
            e_cross,
            fact,
            adam: Adam::with_lr_eps(cfg.lr_cross, cfg.adam_eps),
            l2: cfg.l2_cross,
            mem_ids: Vec::new(),
            em: Matrix::zeros(0, 0),
            d_em: Matrix::zeros(0, 0),
        };
        let adam = Adam::with_lr_eps(cfg.lr, cfg.adam_eps);
        Body::new(block, e_orig, mlp, adam, cfg.l2_orig, pool, num_fields)
    }
}

/// The classifier `cfg` names over an `input_dim`-wide input: every
/// network body's MLP, OptInter's and the deep zoo's.
pub fn mlp_config(cfg: &OptInterConfig, input_dim: usize) -> MlpConfig {
    MlpConfig {
        layer_norm: cfg.layer_norm,
        ..MlpConfig::classifier(input_dim, cfg.hidden.clone())
    }
}

/// Fixed-architecture OptInter model: a [`Body`] over a [`FixedBlock`].
pub struct OptInterNet {
    cfg: OptInterConfig,
    architecture: Architecture,
    body: Body<FixedBlock>,
}

impl OptInterNet {
    /// Builds a freshly-initialised network for the given architecture.
    pub fn new(cfg: OptInterConfig, dims: DataDims, architecture: Architecture) -> Self {
        assert_eq!(
            architecture.num_pairs(),
            dims.num_pairs,
            "architecture does not match dataset pair count"
        );
        let body = Body::fixed(&cfg, dims, &architecture);
        Self {
            cfg,
            architecture,
            body,
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
        (self.body.e_orig(), self.body.block().e_cross())
    }

    /// MLP input dimension.
    pub fn input_dim(&self) -> usize {
        self.body.block().layout().input_dim()
    }

    /// Number of memorized pairs.
    pub fn num_memorized(&self) -> usize {
        self.body.block().layout().num_memorized()
    }

    /// Total trainable parameters. The compact cross table only holds rows
    /// for memorized pairs, so parameter counts track the architecture.
    pub fn num_params(&mut self) -> usize {
        self.body.num_params()
    }

    /// Forward pass producing `[B, 1]` logits.
    pub fn forward(&mut self, batch: &Batch) -> Matrix {
        self.check(batch);
        self.body.forward(&batch.fields, &batch.cross).clone()
    }

    /// Checks that `batch` has the network's fields, and cross features
    /// when a pair is memorized.
    fn check(&self, batch: &Batch) {
        assert_eq!(
            batch.num_fields,
            self.body.block().dims().num_fields,
            "OptInterNet: field count mismatch"
        );
        assert!(
            self.num_memorized() == 0 || !batch.cross.is_empty(),
            "architecture memorizes pairs but the batch has no cross features"
        );
    }

    /// Backward pass from logit gradients. `batch` must be the one the
    /// matching [`forward`](Self::forward) saw — the persistent scratch
    /// holds that forward's activations but not the batch itself.
    pub fn backward(&mut self, batch: &Batch, grad_logits: &Matrix) {
        self.body.backward(&batch.fields, &batch.cross, grad_logits);
    }

    /// Applies one Adam step to all weights.
    pub fn step(&mut self) {
        self.body.step();
    }

    /// Replays any optimizer updates the `LazyCatchUp` embedding mode
    /// deferred, bringing every row up to the current timestep. Call before
    /// exporting or freezing weights; a no-op for the other modes.
    pub fn catch_up_embeddings(&mut self) {
        self.body.catch_up();
    }

    /// Exports every trainable weight as `(name, matrix)` pairs in a
    /// stable order (the serving freezer's input). Dense stores export one
    /// tensor (`e_orig` / `e_cross`); hashed stores export their two
    /// sub-tables (`e_orig.t1` / `e_orig.t2`, etc.). Lazy optimizer tails
    /// are flushed first so the export reflects the full trajectory.
    pub fn export_weights(&mut self) -> Vec<(String, Matrix)> {
        self.catch_up_embeddings();
        let mut out = Vec::new();
        self.body.e_orig().push_weights("e_orig", &mut out);
        let block = self.body.block();
        block.e_cross.push_weights("e_cross", &mut out);
        if let Factorizer::Generalized(fw) = &block.fact {
            out.push(("fact_weights".to_string(), fw.value.clone()));
        }
        let mut idx = 0usize;
        self.body.mlp_mut().visit_params(&mut |p| {
            out.push((format!("mlp.{idx}"), p.value.clone()));
            idx += 1;
        });
        out
    }

    /// One training step; returns the mean batch loss.
    pub fn train_batch(&mut self, batch: &Batch) -> f32 {
        self.check(batch);
        self.body.train_batch(batch)
    }

    /// Predicted probabilities.
    pub fn predict(&mut self, batch: &Batch) -> Vec<f32> {
        self.check(batch);
        self.body.predict(batch)
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
        let block = net.body.block();
        block
            .layout
            .gather_mem_ids_into(&batch.cross, &block.dims.pair_offsets, &mut ids);
        assert_eq!(ids.len(), 64 * net.num_memorized());
        let max = block.e_cross.key_space() as u32;
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
