//! DeepFM (Guo et al. 2017): an FM component and a deep MLP sharing one
//! embedding table; the two logits are summed (paper Table III: factorized,
//! `<e_i, e_j>`, deep classifier).

use crate::traits::{BaselineConfig, Category, CtrModel, Taxonomy};
use optinter_data::Batch;
use optinter_nn::{loss, Adam, DenseOptimizer, EmbeddingTable, Mlp, MlpConfig, Parameter};
use optinter_tensor::{numerics, Matrix, Pool};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// DeepFM: shared-embedding FM + MLP.
pub struct DeepFm {
    linear: EmbeddingTable,
    emb: EmbeddingTable,
    bias: Parameter,
    mlp: Mlp,
    adam: Adam,
    l2: f32,
    num_fields: usize,
    dim: usize,
    // Persistent step buffers: overwritten in full every batch so the
    // steady-state train step reuses their capacity.
    emb_buf: Matrix,
    deep_logits: Matrix,
    grad: Matrix,
    grad_rows: Matrix,
    d_emb: Matrix,
    fm: Vec<f32>,
    ids: Vec<u32>,
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
            linear: EmbeddingTable::zeros(orig_vocab as usize, 1),
            emb,
            bias: Parameter::zeros(1, 1),
            mlp,
            adam: Adam::with_lr_eps(cfg.lr, cfg.adam_eps),
            l2: cfg.l2,
            num_fields,
            dim: k,
            emb_buf: Matrix::zeros(0, 0),
            deep_logits: Matrix::zeros(0, 0),
            grad: Matrix::zeros(0, 0),
            grad_rows: Matrix::zeros(0, 0),
            d_emb: Matrix::zeros(0, 0),
            fm: Vec::new(),
            ids: Vec::new(),
        }
    }

    /// FM-component logits into `out`, reading the embeddings the last
    /// lookup left in `self.emb_buf` (shared with the MLP).
    fn fm_logits_into(&self, batch: &Batch, out: &mut Vec<f32>) {
        let m = self.num_fields;
        let k = self.dim;
        let b = batch.len();
        let bias = self.bias.value.get(0, 0);
        out.clear();
        out.reserve(b);
        for r in 0..b {
            let mut z = bias;
            for f in 0..m {
                z += self.linear.row(batch.fields[r * m + f])[0];
            }
            let row = self.emb_buf.row(r);
            for c in 0..k {
                let mut s = 0.0f32;
                let mut q = 0.0f32;
                for f in 0..m {
                    let v = row[f * k + c];
                    s += v;
                    q += v * v;
                }
                z += 0.5 * (s * s - q);
            }
            out.push(z);
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
        let k = self.dim;
        let b = batch.len();
        self.emb
            .lookup_fields_pooled_into(&batch.fields, m, &Pool::serial(), &mut self.emb_buf);
        self.mlp.forward_into(&self.emb_buf, &mut self.deep_logits);
        let mut fm = std::mem::take(&mut self.fm);
        self.fm_logits_into(batch, &mut fm);
        let inv_b = 1.0 / b as f32;
        let mut loss_value = 0.0f32;
        self.grad.reset(b, 1);
        self.grad_rows.reset(b, 1);
        let mut dbias = 0.0f32;
        for (r, &fm_logit) in fm.iter().enumerate().take(b) {
            let z = self.deep_logits.get(r, 0) + fm_logit;
            let y = batch.labels[r];
            loss_value += numerics::stable_bce(z, y);
            let g = numerics::stable_bce_grad(z, y) * inv_b;
            self.grad.set(r, 0, g);
            self.grad_rows.set(r, 0, g);
            dbias += g;
        }
        self.fm = fm;
        // Deep path.
        {
            let (emb_buf, grad) = (&self.emb_buf, &self.grad);
            self.mlp.backward_into(emb_buf, grad, &mut self.d_emb);
        }
        // FM path: dv_i += g * (S - v_i) per coordinate.
        for r in 0..b {
            let g = self.grad.get(r, 0);
            let row = self.emb_buf.row(r);
            let d_row = self.d_emb.row_mut(r);
            for c in 0..k {
                let mut s = 0.0f32;
                for f in 0..m {
                    s += row[f * k + c];
                }
                for f in 0..m {
                    d_row[f * k + c] += g * (s - row[f * k + c]);
                }
            }
        }
        for f in 0..m {
            self.ids.clear();
            self.ids.extend((0..b).map(|r| batch.fields[r * m + f]));
            self.linear.accumulate_grad_fields_pooled(
                &self.ids,
                1,
                &self.grad_rows,
                &Pool::serial(),
            );
        }
        self.emb
            .accumulate_grad_fields_pooled(&batch.fields, m, &self.d_emb, &Pool::serial());
        self.bias.grad.set(0, 0, dbias);
        self.adam.begin_step();
        let mut adam = self.adam;
        self.mlp.visit_params(&mut |p| adam.step(p, 0.0));
        adam.step(&mut self.bias, 0.0);
        self.adam = adam;
        self.linear.apply_adam(&self.adam, 0.0);
        self.emb.apply_adam(&self.adam, self.l2);
        loss_value * inv_b
    }

    fn predict(&mut self, batch: &Batch) -> Vec<f32> {
        self.emb.lookup_fields_pooled_into(
            &batch.fields,
            self.num_fields,
            &Pool::serial(),
            &mut self.emb_buf,
        );
        self.mlp.forward_into(&self.emb_buf, &mut self.deep_logits);
        let mut fm = std::mem::take(&mut self.fm);
        self.fm_logits_into(batch, &mut fm);
        for (r, &fm_logit) in fm.iter().enumerate() {
            let z = self.deep_logits.get(r, 0) + fm_logit;
            self.deep_logits.set(r, 0, z);
        }
        self.fm = fm;
        loss::probabilities(&self.deep_logits)
    }

    fn num_params(&mut self) -> usize {
        self.linear.num_params() + self.emb.num_params() + 1 + self.mlp.num_params()
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
