//! Poly2 (paper baseline): logistic regression with *all* second-order
//! cross-product features memorized as explicit weights — the shallow
//! memorized method (degree-2 polynomial mapping).

use crate::traits::{BaselineConfig, Category, CtrModel, Taxonomy};
use optinter_data::Batch;
use optinter_nn::{Adam, DenseOptimizer, EmbeddingTable, Parameter};
use optinter_tensor::{numerics, Matrix, Pool};

/// Degree-2 polynomial logistic regression.
pub struct Poly2 {
    linear: EmbeddingTable,
    cross: EmbeddingTable,
    bias: Parameter,
    adam: Adam,
    l2: f32,
    num_fields: usize,
    num_pairs: usize,
    /// Scratch reused across train steps (zero-alloc steady state).
    ids_scratch: Vec<u32>,
}

impl Poly2 {
    /// Creates a Poly2 model for the dataset's vocab sizes.
    pub fn new(
        cfg: &BaselineConfig,
        orig_vocab: u32,
        cross_vocab: u32,
        num_fields: usize,
        num_pairs: usize,
    ) -> Self {
        Self {
            linear: EmbeddingTable::zeros(orig_vocab as usize, 1),
            cross: EmbeddingTable::zeros(cross_vocab as usize, 1),
            bias: Parameter::zeros(1, 1),
            adam: Adam::with_lr_eps(cfg.lr, cfg.adam_eps),
            l2: cfg.l2,
            num_fields,
            num_pairs,
            ids_scratch: Vec::new(),
        }
    }

    fn logits(&self, batch: &Batch) -> Vec<f32> {
        let m = self.num_fields;
        let p = self.num_pairs;
        let b = batch.len();
        assert!(!batch.cross.is_empty(), "Poly2 needs cross features");
        let bias = self.bias.value.get(0, 0);
        // lint: allow(hot-path-alloc, reason="offline baseline model: per-batch buffer beside the training loop's allocations; measured by the alloc-counter harness, not the serving path")
        let mut out = Vec::with_capacity(b);
        for r in 0..b {
            let mut z = bias;
            for f in 0..m {
                z += self.linear.row(batch.fields[r * m + f])[0];
            }
            for k in 0..p {
                z += self.cross.row(batch.cross[r * p + k])[0];
            }
            out.push(z);
        }
        out
    }
}

impl CtrModel for Poly2 {
    fn name(&self) -> &'static str {
        "Poly2"
    }

    fn taxonomy(&self) -> Taxonomy {
        Taxonomy {
            category: Category::Memorized,
            methods: "{m}",
            factorization_fn: "-",
            classifier: "Shallow",
        }
    }

    fn train_batch(&mut self, batch: &Batch) -> f32 {
        let m = self.num_fields;
        let p = self.num_pairs;
        let b = batch.len();
        let logits = self.logits(batch);
        let inv_b = 1.0 / b as f32;
        let mut loss = 0.0f32;
        let mut grad_rows = Matrix::zeros(b, 1);
        let mut dbias = 0.0f32;
        for (r, &z) in logits.iter().enumerate().take(b) {
            let y = batch.labels[r];
            loss += numerics::stable_bce(z, y);
            let g = numerics::stable_bce_grad(z, y) * inv_b;
            grad_rows.set(r, 0, g);
            dbias += g;
        }
        for f in 0..m {
            self.ids_scratch.clear();
            self.ids_scratch
                .extend((0..b).map(|r| batch.fields[r * m + f]));
            self.linear.accumulate_grad_fields_pooled(
                &self.ids_scratch,
                1,
                &grad_rows,
                &Pool::serial(),
            );
        }
        for k in 0..p {
            self.ids_scratch.clear();
            self.ids_scratch
                .extend((0..b).map(|r| batch.cross[r * p + k]));
            self.cross.accumulate_grad_fields_pooled(
                &self.ids_scratch,
                1,
                &grad_rows,
                &Pool::serial(),
            );
        }
        self.bias.grad.set(0, 0, dbias);
        self.adam.begin_step();
        self.linear.apply_adam(&self.adam, self.l2);
        self.cross.apply_adam(&self.adam, self.l2);
        let mut adam = self.adam;
        adam.step(&mut self.bias, 0.0);
        loss * inv_b
    }

    fn predict(&mut self, batch: &Batch) -> Vec<f32> {
        self.logits(batch)
            .iter()
            .map(|&z| numerics::sigmoid(z))
            .collect()
    }

    fn num_params(&mut self) -> usize {
        self.linear.num_params() + self.cross.num_params() + 1
    }

    fn needs_cross(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lr::Lr;
    use crate::runner::{evaluate_model, train_model};
    use optinter_data::Profile;

    #[test]
    fn poly2_beats_lr_on_interaction_heavy_data() {
        let bundle = Profile::Tiny.bundle_with_rows(4000, 5);
        let cfg = BaselineConfig::test_small();
        let mut lr = Lr::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
        train_model(&mut lr, &bundle, &cfg);
        let lr_eval = evaluate_model(&mut lr, &bundle, bundle.split.test.clone(), cfg.batch_size);
        let mut poly = Poly2::new(
            &cfg,
            bundle.data.orig_vocab,
            bundle.data.cross_vocab,
            bundle.data.num_fields,
            bundle.data.num_pairs,
        );
        train_model(&mut poly, &bundle, &cfg);
        let poly_eval = evaluate_model(
            &mut poly,
            &bundle,
            bundle.split.test.clone(),
            cfg.batch_size,
        );
        assert!(
            poly_eval.auc > lr_eval.auc,
            "Poly2 ({}) should beat LR ({}) on planted interactions",
            poly_eval.auc,
            lr_eval.auc
        );
    }

    #[test]
    fn param_count_includes_cross_table() {
        let bundle = Profile::Tiny.bundle_with_rows(500, 6);
        let cfg = BaselineConfig::test_small();
        let mut model = Poly2::new(
            &cfg,
            bundle.data.orig_vocab,
            bundle.data.cross_vocab,
            bundle.data.num_fields,
            bundle.data.num_pairs,
        );
        assert_eq!(
            model.num_params(),
            (bundle.data.orig_vocab + bundle.data.cross_vocab) as usize + 1
        );
    }
}
