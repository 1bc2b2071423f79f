//! FNN (Zhang et al. 2016): original-feature embeddings fed directly into
//! an MLP — the deep naïve method (paper Fig. 1a).

use crate::traits::{BaselineConfig, Category, CtrModel, Taxonomy};
use optinter_data::Batch;
use optinter_nn::{
    bce_with_logits_into, loss, Adam, DenseOptimizer, EmbeddingTable, Mlp, MlpConfig,
};
use optinter_tensor::{Matrix, Pool};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deep neural network over concatenated original-feature embeddings.
pub struct Fnn {
    emb: EmbeddingTable,
    mlp: Mlp,
    adam: Adam,
    l2: f32,
    num_fields: usize,
    // Persistent step buffers: overwritten in full every batch so the
    // steady-state train step reuses their capacity.
    input: Matrix,
    logits: Matrix,
    grad: Matrix,
    dinput: Matrix,
}

impl Fnn {
    /// Creates an FNN for the dataset's vocabulary.
    pub fn new(cfg: &BaselineConfig, orig_vocab: u32, num_fields: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF44);
        let emb = EmbeddingTable::new(&mut rng, orig_vocab as usize, cfg.embed_dim);
        let mut mlp = Mlp::new(
            &mut rng,
            &MlpConfig {
                input_dim: num_fields * cfg.embed_dim,
                hidden: cfg.hidden.clone(),
                output_dim: 1,
                layer_norm: cfg.layer_norm,
                ln_eps: 1e-5,
            },
        );
        mlp.set_pool(&Pool::new(cfg.num_threads));
        Self {
            emb,
            mlp,
            adam: Adam::with_lr_eps(cfg.lr, cfg.adam_eps),
            l2: cfg.l2,
            num_fields,
            input: Matrix::zeros(0, 0),
            logits: Matrix::zeros(0, 0),
            grad: Matrix::zeros(0, 0),
            dinput: Matrix::zeros(0, 0),
        }
    }
}

impl CtrModel for Fnn {
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

    fn train_batch(&mut self, batch: &Batch) -> f32 {
        let m = self.num_fields;
        self.emb
            .lookup_fields_pooled_into(&batch.fields, m, &Pool::serial(), &mut self.input);
        self.mlp.forward_into(&self.input, &mut self.logits);
        let loss_value = bce_with_logits_into(&self.logits, &batch.labels, &mut self.grad);
        self.mlp
            .backward_into(&self.input, &self.grad, &mut self.dinput);
        self.emb
            .accumulate_grad_fields_pooled(&batch.fields, m, &self.dinput, &Pool::serial());
        self.adam.begin_step();
        let mut adam = self.adam;
        self.mlp.visit_params(&mut |p| adam.step(p, 0.0));
        self.adam = adam;
        self.emb.apply_adam(&self.adam, self.l2);
        loss_value
    }

    fn predict(&mut self, batch: &Batch) -> Vec<f32> {
        self.emb.lookup_fields_pooled_into(
            &batch.fields,
            self.num_fields,
            &Pool::serial(),
            &mut self.input,
        );
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
    use crate::lr::Lr;
    use crate::runner::run_model;
    use optinter_data::Profile;

    #[test]
    fn fnn_beats_lr() {
        let bundle = Profile::Tiny.bundle_with_rows(6000, 13);
        let cfg = BaselineConfig::test_small();
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
        let cfg = BaselineConfig::test_small();
        let fnn = Fnn::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
        assert!(!fnn.needs_cross());
    }

    #[test]
    fn param_count_embeddings_plus_mlp() {
        let bundle = Profile::Tiny.bundle_with_rows(300, 15);
        let cfg = BaselineConfig::test_small();
        let mut fnn = Fnn::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
        let emb = bundle.data.orig_vocab as usize * cfg.embed_dim;
        assert!(fnn.num_params() > emb);
    }
}
