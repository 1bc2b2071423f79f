//! Poly2 (paper baseline): logistic regression with *all* second-order
//! cross-product features memorized as explicit weights — the shallow
//! memorized method (degree-2 polynomial mapping).

use crate::linear::{add_weights, scatter, Linear};
use crate::traits::{Category, CtrModel, Taxonomy};
use optinter_core::OptInterConfig;
use optinter_data::Batch;
use optinter_nn::{bce_with_logits_into, loss, Adam, DenseOptimizer, EmbeddingTable};
use optinter_tensor::Matrix;

/// Degree-2 polynomial logistic regression.
pub struct Poly2 {
    linear: Linear,
    /// One weight per cross-feature value.
    cross: EmbeddingTable,
    adam: Adam,
    l2: f32,
    num_pairs: usize,
    // Persistent step buffers: overwritten in full every batch so the
    // steady-state train step reuses their capacity.
    logits: Matrix,
    grad: Matrix,
    ids: Vec<u32>,
}

impl Poly2 {
    /// Creates a Poly2 model for the dataset's vocab sizes.
    pub fn new(
        cfg: &OptInterConfig,
        orig_vocab: u32,
        cross_vocab: u32,
        num_fields: usize,
        num_pairs: usize,
    ) -> Self {
        Self {
            linear: Linear::new(orig_vocab, num_fields),
            cross: EmbeddingTable::zeros(cross_vocab as usize, 1),
            adam: Adam::with_lr_eps(cfg.lr, cfg.adam_eps),
            l2: cfg.l2_orig,
            num_pairs,
            logits: Matrix::zeros(0, 0),
            grad: Matrix::zeros(0, 0),
            ids: Vec::new(),
        }
    }

    /// Writes `b + Σ_f w[x_f] + Σ_p u[c_p]` into `self.logits`.
    fn forward(&mut self, batch: &Batch) {
        assert!(!batch.cross.is_empty(), "Poly2 needs cross features");
        self.linear.forward_into(&batch.fields, &mut self.logits);
        add_weights(&self.cross, &batch.cross, self.num_pairs, &mut self.logits);
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
        self.forward(batch);
        let loss_value = bce_with_logits_into(&self.logits, &batch.labels, &mut self.grad);
        self.linear.backward(&batch.fields, &self.grad);
        let p = self.num_pairs;
        scatter(&mut self.cross, &batch.cross, p, &self.grad, &mut self.ids);
        self.adam.begin_step();
        self.linear.step(&self.adam, self.l2);
        self.cross.apply_adam(&self.adam, self.l2);
        loss_value
    }

    fn predict(&mut self, batch: &Batch) -> Vec<f32> {
        self.forward(batch);
        loss::probabilities(&self.logits)
    }

    fn num_params(&mut self) -> usize {
        self.linear.num_params() + self.cross.num_params()
    }

    fn needs_cross(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lr::Lr;
    use crate::runner::{evaluate_model, test_config, train_model};
    use optinter_data::Profile;

    #[test]
    fn poly2_beats_lr_on_interaction_heavy_data() {
        let bundle = Profile::Tiny.bundle_with_rows(4000, 5);
        let cfg = test_config();
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
        let cfg = test_config();
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
