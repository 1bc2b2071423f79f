//! DeepFM (Guo et al. 2017): an FM component and a deep MLP sharing one
//! embedding table; the two logits are summed (paper Table III: factorized,
//! `<e_i, e_j>`, deep classifier).

use crate::deep::{copy_into, Deep, DeepBlock};
use crate::fm::{add_fm_term, fm_term_backward};
use crate::linear::Linear;
use crate::traits::{Category, Taxonomy};
use optinter_core::net::mlp_config;
use optinter_core::{Block, Inputs, OptInterConfig};
use optinter_nn::{Adam, EmbeddingTable, Mlp};
use optinter_tensor::{Matrix, Pool};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// DeepFM: shared-embedding FM + MLP.
pub type DeepFm = Deep<FmTerm>;

/// DeepFM's block: the MLP reads `e^o` as it is, and the FM component's
/// logit, first-order term plus Rendle's pair term, is added to the MLP's.
pub struct FmTerm {
    linear: Linear,
    num_fields: usize,
    dim: usize,
    /// The FM component's logits.
    fm_logits: Matrix,
}

impl DeepFm {
    /// Creates a DeepFM for the dataset's vocabulary.
    pub fn new(cfg: &OptInterConfig, orig_vocab: u32, num_fields: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xDEEF);
        let k = cfg.orig_dim;
        let emb = EmbeddingTable::new(&mut rng, orig_vocab as usize, k);
        let mlp = Mlp::new(&mut rng, &mlp_config(cfg, num_fields * k));
        let block = FmTerm {
            linear: Linear::new(orig_vocab, num_fields),
            num_fields,
            dim: k,
            fm_logits: Matrix::zeros(0, 0),
        };
        Deep::with_parts(block, emb, mlp, cfg, num_fields, Pool::new(cfg.num_threads))
    }
}

impl Block for FmTerm {
    fn forward(&mut self, x: &Inputs<'_>, input: &mut Matrix) {
        copy_into(x.eo, input);
    }

    fn add_logits(&mut self, x: &Inputs<'_>, logits: &mut Matrix) {
        self.linear.forward_into(x.fields, &mut self.fm_logits);
        add_fm_term(x.eo, self.num_fields, self.dim, &mut self.fm_logits);
        for (z, &fm) in logits
            .as_mut_slice()
            .iter_mut()
            .zip(self.fm_logits.as_slice())
        {
            *z += fm;
        }
    }

    fn backward(&mut self, x: &Inputs<'_>, dinput: &Matrix, dlogits: &Matrix, d_eo: &mut Matrix) {
        copy_into(dinput, d_eo);
        fm_term_backward(x.eo, self.num_fields, self.dim, dlogits, d_eo);
        self.linear.backward(x.fields, dlogits);
    }

    /// The first-order term, with the body's Adam and no weight decay.
    fn step(&mut self, adam: &Adam) {
        self.linear.step(adam, 0.0);
    }

    fn num_params(&mut self) -> usize {
        self.linear.num_params()
    }
}

impl DeepBlock for FmTerm {
    fn name(&self) -> &'static str {
        "DeepFM"
    }

    fn taxonomy(&self) -> Taxonomy {
        Taxonomy {
            category: Category::Factorized,
            methods: "{f}",
            factorization_fn: "<e_i, e_j>",
            classifier: "Deep",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_model, test_config};
    use crate::traits::CtrModel;
    use optinter_data::Profile;

    #[test]
    fn deepfm_trains_and_beats_chance() {
        let bundle = Profile::Tiny.bundle_with_rows(4000, 21);
        let cfg = test_config();
        let mut model = DeepFm::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
        let r = run_model(&mut model, &bundle, &cfg);
        assert!(r.auc > 0.6, "DeepFM AUC {}", r.auc);
    }

    #[test]
    fn shares_one_embedding_table() {
        let bundle = Profile::Tiny.bundle_with_rows(300, 22);
        let cfg = test_config();
        let mut model = DeepFm::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
        let vocab = bundle.data.orig_vocab as usize;
        // One dense table + one linear table, no duplicate embeddings.
        let expected_emb = vocab * cfg.orig_dim + vocab + 1;
        assert!(model.num_params() > expected_emb);
        assert!(model.num_params() < expected_emb + 2 * vocab * cfg.orig_dim);
    }
}
