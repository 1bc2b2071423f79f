//! Logistic regression (paper baseline "LR"): a naïve shallow model —
//! `logit = b + Σ_f w[x_f]` over one-hot original features.

use crate::traits::{BaselineConfig, Category, CtrModel, Taxonomy};
use optinter_data::Batch;
use optinter_nn::{Adam, DenseOptimizer, EmbeddingTable, Parameter};
use optinter_tensor::{numerics, Matrix, Pool};

/// Logistic regression over one-hot original features.
pub struct Lr {
    /// Per-feature-value weights, stored as a dim-1 embedding table so the
    /// sparse Adam machinery applies.
    weights: EmbeddingTable,
    bias: Parameter,
    adam: Adam,
    l2: f32,
    num_fields: usize,
    /// Scratch reused across train steps so steady-state training is
    /// allocation-free (proven by `tests/alloc_steady_state.rs`).
    logits_scratch: Vec<f32>,
    grad_rows: Matrix,
    ids_scratch: Vec<u32>,
}

impl Lr {
    /// Creates an LR model for a global vocabulary size.
    pub fn new(cfg: &BaselineConfig, orig_vocab: u32, num_fields: usize) -> Self {
        // Zero init: LR starts at the base rate, standard for linear CTR.
        let weights = EmbeddingTable::zeros(orig_vocab as usize, 1);
        Self {
            weights,
            bias: Parameter::zeros(1, 1),
            adam: Adam::with_lr_eps(cfg.lr, cfg.adam_eps),
            l2: cfg.l2,
            num_fields,
            logits_scratch: Vec::new(),
            grad_rows: Matrix::zeros(0, 1),
            ids_scratch: Vec::new(),
        }
    }

    fn logits_into(&self, batch: &Batch, out: &mut Vec<f32>) {
        let m = self.num_fields;
        let b = batch.len();
        let bias = self.bias.value.get(0, 0);
        out.clear();
        out.reserve(b);
        for r in 0..b {
            let mut z = bias;
            for f in 0..m {
                z += self.weights.row(batch.fields[r * m + f])[0];
            }
            out.push(z);
        }
    }

    fn logits(&self, batch: &Batch) -> Vec<f32> {
        let mut out = Vec::new();
        self.logits_into(batch, &mut out);
        out
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
        let m = self.num_fields;
        let b = batch.len();
        let mut logits = std::mem::take(&mut self.logits_scratch);
        self.logits_into(batch, &mut logits);
        let inv_b = 1.0 / b as f32;
        let mut loss = 0.0f32;
        self.grad_rows.reset(b, 1);
        let mut dbias = 0.0f32;
        for (r, &z) in logits.iter().enumerate().take(b) {
            let y = batch.labels[r];
            loss += numerics::stable_bce(z, y);
            let g = numerics::stable_bce_grad(z, y) * inv_b;
            self.grad_rows.set(r, 0, g);
            dbias += g;
        }
        // Each field contributes gradient g to its weight.
        for f in 0..m {
            self.ids_scratch.clear();
            self.ids_scratch
                .extend((0..b).map(|r| batch.fields[r * m + f]));
            self.weights.accumulate_grad_fields_pooled(
                &self.ids_scratch,
                1,
                &self.grad_rows,
                &Pool::serial(),
            );
        }
        self.bias.grad.set(0, 0, dbias);
        self.adam.begin_step();
        self.weights.apply_adam(&self.adam, self.l2);
        let mut adam = self.adam;
        adam.step(&mut self.bias, 0.0);
        self.logits_scratch = logits;
        loss * inv_b
    }

    fn predict(&mut self, batch: &Batch) -> Vec<f32> {
        self.logits(batch)
            .iter()
            .map(|&z| numerics::sigmoid(z))
            .collect()
    }

    fn num_params(&mut self) -> usize {
        self.weights.num_params() + 1
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
