//! FNN (Zhang et al. 2016): original-feature embeddings fed directly into
//! an MLP — the deep naïve method (paper Fig. 1a).

use crate::deep::{copy_into, Deep, DeepBlock};
use crate::traits::{Category, Taxonomy};
use optinter_core::net::mlp_config;
use optinter_core::{Block, Inputs, OptInterConfig};
use optinter_nn::{EmbeddingTable, Mlp};
use optinter_tensor::{Matrix, Pool};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deep neural network over concatenated original-feature embeddings.
pub type Fnn = Deep<Concat>;

/// FNN's block: the MLP reads the concatenated embeddings `e^o` as they
/// are.
pub struct Concat;

impl Fnn {
    /// Creates an FNN for the dataset's vocabulary.
    pub fn new(cfg: &OptInterConfig, orig_vocab: u32, num_fields: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF44);
        let emb = EmbeddingTable::new(&mut rng, orig_vocab as usize, cfg.orig_dim);
        let mlp = Mlp::new(&mut rng, &mlp_config(cfg, num_fields * cfg.orig_dim));
        Deep::with_parts(
            Concat,
            emb,
            mlp,
            cfg,
            num_fields,
            Pool::new(cfg.num_threads),
        )
    }
}

impl Block for Concat {
    fn forward(&mut self, x: &Inputs<'_>, input: &mut Matrix) {
        copy_into(x.eo, input);
    }

    fn backward(&mut self, _: &Inputs<'_>, dinput: &Matrix, _: &Matrix, d_eo: &mut Matrix) {
        copy_into(dinput, d_eo);
    }
}

impl DeepBlock for Concat {
    fn name(&self) -> &'static str {
        "FNN"
    }

    fn taxonomy(&self) -> Taxonomy {
        Taxonomy {
            category: Category::Naive,
            methods: "{n}",
            factorization_fn: "-",
            classifier: "Deep",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lr::Lr;
    use crate::runner::{run_model, test_config};
    use crate::traits::CtrModel;
    use optinter_data::Profile;

    #[test]
    fn fnn_beats_lr() {
        let bundle = Profile::Tiny.bundle_with_rows(6000, 13);
        let cfg = test_config();
        let mut lr = Lr::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
        let lr_report = run_model(&mut lr, &bundle, &cfg);
        let mut fnn = Fnn::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
        let fnn_report = run_model(&mut fnn, &bundle, &cfg);
        // On the tiny profile the two are close; FNN must at least be
        // competitive (the full-size comparison lives in the harness).
        assert!(
            fnn_report.auc > lr_report.auc - 0.02,
            "FNN ({}) should be competitive with LR ({})",
            fnn_report.auc,
            lr_report.auc
        );
        assert!(fnn_report.auc > 0.6, "FNN AUC {}", fnn_report.auc);
    }

    #[test]
    fn does_not_need_cross_features() {
        let bundle = Profile::Tiny.bundle_with_rows(300, 14);
        let cfg = test_config();
        let fnn = Fnn::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
        assert!(!fnn.needs_cross());
    }

    #[test]
    fn param_count_embeddings_plus_mlp() {
        let bundle = Profile::Tiny.bundle_with_rows(300, 15);
        let cfg = test_config();
        let mut fnn = Fnn::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
        let emb = bundle.data.orig_vocab as usize * cfg.orig_dim;
        assert!(fnn.num_params() > emb);
    }
}
