//! Product-based neural networks (Qu et al. 2016): IPNN and OPNN.
//!
//! Both concatenate the original embeddings with product features and feed
//! the result to an MLP:
//!
//! - **IPNN** — one inner product `<e_i, e_j>` per pair (`P` scalars);
//! - **OPNN** — outer-product features. Following the PNN paper's
//!   sum-pooling approximation, the outer product is taken on the pooled
//!   embedding `f_Σ = Σ_i e_i`, giving `vec(f_Σ f_Σ^T)` (`k²` features).

use crate::traits::{BaselineConfig, Category, CtrModel, Taxonomy};
use optinter_data::{Batch, PairIndexer};
use optinter_nn::{
    bce_with_logits_into, loss, Adam, DenseOptimizer, EmbeddingTable, Mlp, MlpConfig,
};
use optinter_tensor::{Matrix, Pool};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which product features a PNN feeds its MLP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProductKind {
    /// IPNN: one inner product per pair.
    Inner,
    /// OPNN: the outer product of the pooled embedding.
    Outer,
}

/// A product-based neural network: IPNN or OPNN by [`ProductKind`].
pub struct Pnn {
    kind: ProductKind,
    emb: EmbeddingTable,
    mlp: Mlp,
    adam: Adam,
    l2: f32,
    num_fields: usize,
    dim: usize,
    pairs: PairIndexer,
    // Persistent step buffers: overwritten in full every batch so the
    // steady-state train step reuses their capacity.
    emb_buf: Matrix,
    /// OPNN: pooled embedding per row.
    pooled: Matrix,
    input: Matrix,
    logits: Matrix,
    grad: Matrix,
    dinput: Matrix,
    d_emb: Matrix,
    d_pool: Vec<f32>,
}

impl Pnn {
    /// Creates the given PNN for the dataset's vocabulary.
    pub fn new(
        kind: ProductKind,
        cfg: &BaselineConfig,
        orig_vocab: u32,
        num_fields: usize,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x944);
        let k = cfg.embed_dim;
        let pairs = PairIndexer::new(num_fields);
        let product_dim = match kind {
            ProductKind::Inner => pairs.num_pairs(),
            ProductKind::Outer => k * k,
        };
        let emb = EmbeddingTable::new(&mut rng, orig_vocab as usize, k);
        let mut mlp = Mlp::new(
            &mut rng,
            &MlpConfig {
                input_dim: num_fields * k + product_dim,
                hidden: cfg.hidden.clone(),
                output_dim: 1,
                layer_norm: cfg.layer_norm,
                ln_eps: 1e-5,
            },
        );
        mlp.set_pool(&Pool::new(cfg.num_threads));
        Self {
            kind,
            emb,
            mlp,
            adam: Adam::with_lr_eps(cfg.lr, cfg.adam_eps),
            l2: cfg.l2,
            num_fields,
            dim: k,
            pairs,
            emb_buf: Matrix::zeros(0, 0),
            pooled: Matrix::zeros(0, 0),
            input: Matrix::zeros(0, 0),
            logits: Matrix::zeros(0, 0),
            grad: Matrix::zeros(0, 0),
            dinput: Matrix::zeros(0, 0),
            d_emb: Matrix::zeros(0, 0),
            d_pool: Vec::new(),
        }
    }

    /// Fills `self.input` (and the `emb_buf`/`pooled` activations the
    /// backward pass reads) from the batch.
    fn build_input(&mut self, batch: &Batch) {
        let m = self.num_fields;
        let k = self.dim;
        let b = batch.len();
        self.emb
            .lookup_fields_pooled_into(&batch.fields, m, &Pool::serial(), &mut self.emb_buf);
        let product_dim = match self.kind {
            ProductKind::Inner => {
                self.pooled.reset(0, 0);
                self.pairs.num_pairs()
            }
            ProductKind::Outer => {
                self.pooled.reset(b, k);
                k * k
            }
        };
        self.input.reset(b, m * k + product_dim);
        self.input.copy_block_from(&self.emb_buf, 0);
        for r in 0..b {
            let row = self.emb_buf.row(r);
            match self.kind {
                ProductKind::Inner => {
                    let dst = self.input.row_mut(r);
                    for (p, (i, j)) in self.pairs.iter().enumerate() {
                        let mut dot = 0.0f32;
                        for c in 0..k {
                            dot += row[i * k + c] * row[j * k + c];
                        }
                        dst[m * k + p] = dot;
                    }
                }
                ProductKind::Outer => {
                    let pool = self.pooled.row_mut(r);
                    for f in 0..m {
                        for c in 0..k {
                            pool[c] += row[f * k + c];
                        }
                    }
                    let dst = self.input.row_mut(r);
                    let pool = self.pooled.row(r);
                    for a in 0..k {
                        for c in 0..k {
                            dst[m * k + a * k + c] = pool[a] * pool[c];
                        }
                    }
                }
            }
        }
    }

    /// Propagates `self.dinput` through the product features into
    /// `self.d_emb` (the gradient of the raw embedding block).
    fn backward_products(&mut self, batch: &Batch) {
        let m = self.num_fields;
        let k = self.dim;
        let b = batch.len();
        self.dinput.block_into(0, m * k, &mut self.d_emb);
        for r in 0..b {
            let g_row = self.dinput.row(r);
            match self.kind {
                ProductKind::Inner => {
                    let row = self.emb_buf.row(r);
                    let d_row = self.d_emb.row_mut(r);
                    for (p, (i, j)) in self.pairs.iter().enumerate() {
                        let g = g_row[m * k + p];
                        for c in 0..k {
                            d_row[i * k + c] += g * row[j * k + c];
                            d_row[j * k + c] += g * row[i * k + c];
                        }
                    }
                }
                ProductKind::Outer => {
                    let pool = self.pooled.row(r);
                    // d pool[a] = sum_c g[a,c] * pool[c] + g[c,a] * pool[c]
                    self.d_pool.clear();
                    self.d_pool.resize(k, 0.0);
                    for a in 0..k {
                        for c in 0..k {
                            let g = g_row[m * k + a * k + c];
                            self.d_pool[a] += g * pool[c];
                            self.d_pool[c] += g * pool[a];
                        }
                    }
                    // pool = sum of all field embeddings: broadcast back.
                    let d_row = self.d_emb.row_mut(r);
                    for f in 0..m {
                        for c in 0..k {
                            d_row[f * k + c] += self.d_pool[c];
                        }
                    }
                }
            }
        }
    }
}

impl CtrModel for Pnn {
    fn name(&self) -> &'static str {
        match self.kind {
            ProductKind::Inner => "IPNN",
            ProductKind::Outer => "OPNN",
        }
    }

    fn taxonomy(&self) -> Taxonomy {
        Taxonomy {
            category: Category::Factorized,
            methods: "{f}",
            factorization_fn: match self.kind {
                ProductKind::Inner => "<e_i, e_j>",
                ProductKind::Outer => "<e_i, e_j>_phi",
            },
            classifier: "Deep",
        }
    }

    fn train_batch(&mut self, batch: &Batch) -> f32 {
        self.build_input(batch);
        self.mlp.forward_into(&self.input, &mut self.logits);
        let loss_value = bce_with_logits_into(&self.logits, &batch.labels, &mut self.grad);
        self.mlp
            .backward_into(&self.input, &self.grad, &mut self.dinput);
        self.backward_products(batch);
        self.emb.accumulate_grad_fields_pooled(
            &batch.fields,
            self.num_fields,
            &self.d_emb,
            &Pool::serial(),
        );
        self.adam.begin_step();
        let mut adam = self.adam;
        self.mlp.visit_params(&mut |p| adam.step(p, 0.0));
        self.adam = adam;
        self.emb.apply_adam(&self.adam, self.l2);
        loss_value
    }

    fn predict(&mut self, batch: &Batch) -> Vec<f32> {
        self.build_input(batch);
        self.mlp.forward_into(&self.input, &mut self.logits);
        loss::probabilities(&self.logits)
    }

    fn num_params(&mut self) -> usize {
        self.emb.num_params() + self.mlp.num_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnn::Fnn;
    use crate::runner::run_model;
    use optinter_data::{DatasetBundle, Profile};

    fn build(kind: ProductKind, cfg: &BaselineConfig, bundle: &DatasetBundle) -> Pnn {
        Pnn::new(kind, cfg, bundle.data.orig_vocab, bundle.data.num_fields)
    }

    #[test]
    fn ipnn_beats_fnn_on_factorized_structure() {
        let bundle = Profile::Tiny.bundle_with_rows(6000, 17);
        let cfg = BaselineConfig::test_small();
        let mut fnn = Fnn::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
        let fnn_r = run_model(&mut fnn, &bundle, &cfg);
        let mut ipnn = build(ProductKind::Inner, &cfg, &bundle);
        let ipnn_r = run_model(&mut ipnn, &bundle, &cfg);
        // Explicit products should not hurt on interaction-heavy data.
        assert!(
            ipnn_r.auc > fnn_r.auc - 0.01,
            "IPNN ({}) should be competitive with FNN ({})",
            ipnn_r.auc,
            fnn_r.auc
        );
    }

    #[test]
    fn opnn_trains() {
        let bundle = Profile::Tiny.bundle_with_rows(3000, 18);
        let cfg = BaselineConfig::test_small();
        let mut opnn = build(ProductKind::Outer, &cfg, &bundle);
        let r = run_model(&mut opnn, &bundle, &cfg);
        assert!(r.auc > 0.55 && r.auc.is_finite(), "OPNN AUC {}", r.auc);
    }

    #[test]
    fn input_dims_differ_between_variants() {
        let bundle = Profile::Tiny.bundle_with_rows(300, 19);
        let cfg = BaselineConfig::test_small();
        let ipnn = build(ProductKind::Inner, &cfg, &bundle);
        let opnn = build(ProductKind::Outer, &cfg, &bundle);
        assert_eq!(
            ipnn.mlp.input_dim(),
            bundle.data.num_fields * cfg.embed_dim + bundle.data.num_pairs
        );
        assert_eq!(
            opnn.mlp.input_dim(),
            bundle.data.num_fields * cfg.embed_dim + cfg.embed_dim * cfg.embed_dim
        );
    }
}
