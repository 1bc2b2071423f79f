//! Product-based neural networks (Qu et al. 2016): IPNN and OPNN.
//!
//! Both concatenate the original embeddings with product features and feed
//! the result to an MLP:
//!
//! - **IPNN** — one inner product `<e_i, e_j>` per pair (`P` scalars);
//! - **OPNN** — outer-product features. Following the PNN paper's
//!   sum-pooling approximation, the outer product is taken on the pooled
//!   embedding `f_Σ = Σ_i e_i`, giving `vec(f_Σ f_Σ^T)` (`k²` features).

use crate::deep::{Deep, DeepBlock};
use crate::traits::{Category, Taxonomy};
use optinter_core::net::mlp_config;
use optinter_core::{Block, Inputs, OptInterConfig};
use optinter_data::PairIndexer;
use optinter_nn::{EmbeddingTable, Mlp};
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
pub type Pnn = Deep<Products>;

/// A PNN's block: the MLP input is `e^o` followed by the product features.
pub struct Products {
    kind: ProductKind,
    num_fields: usize,
    dim: usize,
    pairs: PairIndexer,
    /// OPNN: pooled embedding per row, held from forward to backward.
    pooled: Matrix,
    d_pool: Vec<f32>,
}

impl Pnn {
    /// Creates the given PNN for the dataset's vocabulary.
    pub fn new(
        kind: ProductKind,
        cfg: &OptInterConfig,
        orig_vocab: u32,
        num_fields: usize,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x944);
        let k = cfg.orig_dim;
        let pairs = PairIndexer::new(num_fields);
        let product_dim = match kind {
            ProductKind::Inner => pairs.num_pairs(),
            ProductKind::Outer => k * k,
        };
        let emb = EmbeddingTable::new(&mut rng, orig_vocab as usize, k);
        let mlp = Mlp::new(&mut rng, &mlp_config(cfg, num_fields * k + product_dim));
        let block = Products {
            kind,
            num_fields,
            dim: k,
            pairs,
            pooled: Matrix::zeros(0, 0),
            d_pool: Vec::new(),
        };
        Deep::with_parts(block, emb, mlp, cfg, num_fields, Pool::new(cfg.num_threads))
    }
}

impl Block for Products {
    /// Fills `input` (and the `pooled` activations the backward pass
    /// reads) from the batch's embeddings.
    fn forward(&mut self, x: &Inputs<'_>, input: &mut Matrix) {
        let m = self.num_fields;
        let k = self.dim;
        let b = x.eo.rows();
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
        input.reset(b, m * k + product_dim);
        input.copy_block_from(x.eo, 0);
        for r in 0..b {
            let row = x.eo.row(r);
            match self.kind {
                ProductKind::Inner => {
                    let dst = input.row_mut(r);
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
                    let dst = input.row_mut(r);
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

    /// Propagates `dinput` through the product features into `d_eo`.
    fn backward(&mut self, x: &Inputs<'_>, dinput: &Matrix, _: &Matrix, d_eo: &mut Matrix) {
        let m = self.num_fields;
        let k = self.dim;
        dinput.block_into(0, m * k, d_eo);
        for r in 0..dinput.rows() {
            let g_row = dinput.row(r);
            match self.kind {
                ProductKind::Inner => {
                    let row = x.eo.row(r);
                    let d_row = d_eo.row_mut(r);
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
                    let d_row = d_eo.row_mut(r);
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

impl DeepBlock for Products {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnn::Fnn;
    use crate::runner::{run_model, test_config};
    use optinter_data::{DatasetBundle, Profile};

    fn build(kind: ProductKind, cfg: &OptInterConfig, bundle: &DatasetBundle) -> Pnn {
        Pnn::new(kind, cfg, bundle.data.orig_vocab, bundle.data.num_fields)
    }

    #[test]
    fn ipnn_beats_fnn_on_factorized_structure() {
        let bundle = Profile::Tiny.bundle_with_rows(6000, 17);
        let cfg = test_config();
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
        let cfg = test_config();
        let mut opnn = build(ProductKind::Outer, &cfg, &bundle);
        let r = run_model(&mut opnn, &bundle, &cfg);
        assert!(r.auc > 0.55 && r.auc.is_finite(), "OPNN AUC {}", r.auc);
    }

    #[test]
    fn input_dims_differ_between_variants() {
        let bundle = Profile::Tiny.bundle_with_rows(300, 19);
        let cfg = test_config();
        let mut ipnn = build(ProductKind::Inner, &cfg, &bundle);
        let mut opnn = build(ProductKind::Outer, &cfg, &bundle);
        assert_eq!(
            ipnn.body.mlp_mut().input_dim(),
            bundle.data.num_fields * cfg.orig_dim + bundle.data.num_pairs
        );
        assert_eq!(
            opnn.body.mlp_mut().input_dim(),
            bundle.data.num_fields * cfg.orig_dim + cfg.orig_dim * cfg.orig_dim
        );
    }
}
