//! Logistic regression (paper baseline "LR"): a naïve shallow model —
//! `logit = b + Σ_f w[x_f]` over one-hot original features.

use crate::linear::Linear;
use crate::traits::{BaselineConfig, Category, CtrModel, Taxonomy};
use optinter_data::Batch;
use optinter_nn::{bce_with_logits_into, loss, Adam, DenseOptimizer};
use optinter_tensor::Matrix;

/// Logistic regression over one-hot original features.
pub struct Lr {
    linear: Linear,
    adam: Adam,
    l2: f32,
    // Persistent step buffers, so steady-state training is allocation-free
    // (proven by `tests/alloc_steady_state.rs`).
    logits: Matrix,
    grad: Matrix,
}

impl Lr {
    /// Creates an LR model for a global vocabulary size.
    pub fn new(cfg: &BaselineConfig, orig_vocab: u32, num_fields: usize) -> Self {
        Self {
            linear: Linear::new(orig_vocab, num_fields),
            adam: Adam::with_lr_eps(cfg.lr, cfg.adam_eps),
            l2: cfg.l2,
            logits: Matrix::zeros(0, 0),
            grad: Matrix::zeros(0, 0),
        }
    }
}

impl CtrModel for Lr {
    fn name(&self) -> &'static str {
        "LR"
    }

    fn taxonomy(&self) -> Taxonomy {
        Taxonomy {
            category: Category::Naive,
            methods: "{n}",
            factorization_fn: "-",
            classifier: "Shallow",
        }
    }

    fn train_batch(&mut self, batch: &Batch) -> f32 {
        self.linear.forward_into(&batch.fields, &mut self.logits);
        let loss_value = bce_with_logits_into(&self.logits, &batch.labels, &mut self.grad);
        self.linear.backward(&batch.fields, &self.grad);
        self.adam.begin_step();
        self.linear.step(&self.adam, self.l2);
        loss_value
    }

    fn predict(&mut self, batch: &Batch) -> Vec<f32> {
        self.linear.forward_into(&batch.fields, &mut self.logits);
        loss::probabilities(&self.logits)
    }

    fn num_params(&mut self) -> usize {
        self.linear.num_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{evaluate_model, train_model};
    use optinter_data::Profile;

    #[test]
    fn lr_learns_main_effects() {
        let bundle = Profile::Tiny.bundle_with_rows(3000, 2);
        let cfg = BaselineConfig::test_small();
        let mut model = Lr::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
        train_model(&mut model, &bundle, &cfg);
        let eval = evaluate_model(
            &mut model,
            &bundle,
            bundle.split.test.clone(),
            cfg.batch_size,
        );
        assert!(eval.auc > 0.55, "LR AUC {} should beat chance", eval.auc);
    }

    #[test]
    fn param_count_is_vocab_plus_bias() {
        let bundle = Profile::Tiny.bundle_with_rows(500, 3);
        let cfg = BaselineConfig::test_small();
        let mut model = Lr::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
        assert_eq!(model.num_params(), bundle.data.orig_vocab as usize + 1);
    }

    #[test]
    fn initial_prediction_is_half() {
        let bundle = Profile::Tiny.bundle_with_rows(200, 4);
        let cfg = BaselineConfig::test_small();
        let mut model = Lr::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
        let batch = optinter_data::BatchIter::new(&bundle.data, 0..8, 8, None)
            .next()
            .unwrap();
        for p in model.predict(&batch) {
            assert!((p - 0.5).abs() < 1e-6);
        }
    }
}
