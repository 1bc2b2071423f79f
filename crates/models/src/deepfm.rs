//! DeepFM (Guo et al. 2017): an FM component and a deep MLP sharing one
//! embedding table; the two logits are summed (paper Table III: factorized,
//! `<e_i, e_j>`, deep classifier).

use crate::fm::{add_fm_term, fm_term_backward};
use crate::linear::Linear;
use crate::traits::{BaselineConfig, Category, CtrModel, Taxonomy};
use optinter_data::Batch;
use optinter_nn::{
    bce_with_logits_into, loss, Adam, DenseOptimizer, EmbeddingTable, Mlp, MlpConfig,
};
use optinter_tensor::{Matrix, Pool};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// DeepFM: shared-embedding FM + MLP.
pub struct DeepFm {
    linear: Linear,
    emb: EmbeddingTable,
    mlp: Mlp,
    adam: Adam,
    l2: f32,
    num_fields: usize,
    dim: usize,
    // Persistent step buffers: overwritten in full every batch so the
    // steady-state train step reuses their capacity.
    emb_buf: Matrix,
    /// The summed logits (the MLP's, plus the FM component's).
    logits: Matrix,
    fm_logits: Matrix,
    grad: Matrix,
    d_emb: Matrix,
}

impl DeepFm {
    /// Creates a DeepFM for the dataset's vocabulary.
    pub fn new(cfg: &BaselineConfig, orig_vocab: u32, num_fields: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xDEEF);
        let k = cfg.embed_dim;
        let emb = EmbeddingTable::new(&mut rng, orig_vocab as usize, k);
        let mut mlp = Mlp::new(
            &mut rng,
            &MlpConfig {
                input_dim: num_fields * k,
                hidden: cfg.hidden.clone(),
                output_dim: 1,
                layer_norm: cfg.layer_norm,
                ln_eps: 1e-5,
            },
        );
        mlp.set_pool(&Pool::new(cfg.num_threads));
        Self {
            linear: Linear::new(orig_vocab, num_fields),
            emb,
            mlp,
            adam: Adam::with_lr_eps(cfg.lr, cfg.adam_eps),
            l2: cfg.l2,
            num_fields,
            dim: k,
            emb_buf: Matrix::zeros(0, 0),
            logits: Matrix::zeros(0, 0),
            fm_logits: Matrix::zeros(0, 0),
            grad: Matrix::zeros(0, 0),
            d_emb: Matrix::zeros(0, 0),
        }
    }

    /// Writes the summed logits into `self.logits`, leaving the batch's
    /// embeddings in `self.emb_buf` (shared by the MLP and the FM term).
    fn forward(&mut self, batch: &Batch) {
        let m = self.num_fields;
        self.emb
            .lookup_fields_pooled_into(&batch.fields, m, &Pool::serial(), &mut self.emb_buf);
        self.mlp.forward_into(&self.emb_buf, &mut self.logits);
        self.linear.forward_into(&batch.fields, &mut self.fm_logits);
        add_fm_term(&self.emb_buf, m, self.dim, &mut self.fm_logits);
        for (z, &fm) in self
            .logits
            .as_mut_slice()
            .iter_mut()
            .zip(self.fm_logits.as_slice())
        {
            *z += fm;
        }
    }
}

impl CtrModel for DeepFm {
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

    fn train_batch(&mut self, batch: &Batch) -> f32 {
        let m = self.num_fields;
        self.forward(batch);
        let loss_value = bce_with_logits_into(&self.logits, &batch.labels, &mut self.grad);
        self.mlp
            .backward_into(&self.emb_buf, &self.grad, &mut self.d_emb);
        fm_term_backward(&self.emb_buf, m, self.dim, &self.grad, &mut self.d_emb);
        self.linear.backward(&batch.fields, &self.grad);
        self.emb
            .accumulate_grad_fields_pooled(&batch.fields, m, &self.d_emb, &Pool::serial());
        self.adam.begin_step();
        let mut adam = self.adam;
        self.mlp.visit_params(&mut |p| adam.step(p, 0.0));
        self.linear.step(&self.adam, 0.0);
        self.emb.apply_adam(&self.adam, self.l2);
        loss_value
    }

    fn predict(&mut self, batch: &Batch) -> Vec<f32> {
        self.forward(batch);
        loss::probabilities(&self.logits)
    }

    fn num_params(&mut self) -> usize {
        self.linear.num_params() + self.emb.num_params() + self.mlp.num_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_model;
    use optinter_data::Profile;

    #[test]
    fn deepfm_trains_and_beats_chance() {
        let bundle = Profile::Tiny.bundle_with_rows(4000, 21);
        let cfg = BaselineConfig::test_small();
        let mut model = DeepFm::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
        let r = run_model(&mut model, &bundle, &cfg);
        assert!(r.auc > 0.6, "DeepFM AUC {}", r.auc);
    }

    #[test]
    fn shares_one_embedding_table() {
        let bundle = Profile::Tiny.bundle_with_rows(300, 22);
        let cfg = BaselineConfig::test_small();
        let mut model = DeepFm::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
        let vocab = bundle.data.orig_vocab as usize;
        // One dense table + one linear table, no duplicate embeddings.
        let expected_emb = vocab * cfg.embed_dim + vocab + 1;
        assert!(model.num_params() > expected_emb);
        assert!(model.num_params() < expected_emb + 2 * vocab * cfg.embed_dim);
    }
}
