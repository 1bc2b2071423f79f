//! PIN — Product-network In Network (Qu et al. 2019): each feature pair is
//! processed by its own micro network over `[e_i, e_j, e_i ⊙ e_j]`, and the
//! micro-network outputs are concatenated with the original embeddings and
//! fed to the top MLP. The micro network is the paper's "net(e_i, e_j)"
//! learnable factorization function (Table III).

use crate::traits::{BaselineConfig, Category, CtrModel, Taxonomy};
use optinter_data::{Batch, PairIndexer};
use optinter_nn::{
    bce_with_logits_into, loss, Adam, DenseOptimizer, EmbeddingTable, Mlp, MlpConfig,
};
use optinter_tensor::{Matrix, Pool};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// PIN: per-pair micro networks + top MLP.
pub struct Pin {
    emb: EmbeddingTable,
    subnets: Vec<Mlp>,
    top: Mlp,
    adam: Adam,
    l2: f32,
    num_fields: usize,
    dim: usize,
    sub_out: usize,
    pairs: PairIndexer,
    /// `(i, j)` field indices of every pair, precomputed once.
    pair_list: Vec<(usize, usize)>,
    // Persistent step buffers: overwritten in full every batch so the
    // steady-state train step reuses their capacity.
    emb_buf: Matrix,
    input: Matrix,
    logits: Matrix,
    grad: Matrix,
    dinput: Matrix,
    d_emb: Matrix,
    /// Per-pair micro-network inputs, held from forward to backward.
    pair_x: Vec<Matrix>,
    sub_out_buf: Matrix,
    d_out: Matrix,
    d_x: Matrix,
}

impl Pin {
    /// Creates a PIN. `cfg.subnet` gives the micro-network shape: all but
    /// the last entry are hidden widths, the last is the output width
    /// (Table IV: `sub-net=[40,5]`).
    pub fn new(cfg: &BaselineConfig, orig_vocab: u32, num_fields: usize) -> Self {
        assert!(
            cfg.subnet.len() >= 2,
            "PIN subnet needs at least [hidden, out]"
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x914);
        let k = cfg.embed_dim;
        let pairs = PairIndexer::new(num_fields);
        let sub_hidden: Vec<usize> = cfg.subnet[..cfg.subnet.len() - 1].to_vec();
        let sub_out = *cfg.subnet.last().expect("subnet non-empty");
        let pool = Pool::new(cfg.num_threads);
        let subnets: Vec<Mlp> = (0..pairs.num_pairs())
            .map(|_| {
                let mut sub = Mlp::new(
                    &mut rng,
                    &MlpConfig {
                        input_dim: 3 * k,
                        hidden: sub_hidden.clone(),
                        output_dim: sub_out,
                        layer_norm: cfg.layer_norm,
                        ln_eps: 1e-5,
                    },
                );
                sub.set_pool(&pool);
                sub
            })
            .collect();
        let mut top = Mlp::new(
            &mut rng,
            &MlpConfig {
                input_dim: num_fields * k + pairs.num_pairs() * sub_out,
                hidden: cfg.hidden.clone(),
                output_dim: 1,
                layer_norm: cfg.layer_norm,
                ln_eps: 1e-5,
            },
        );
        top.set_pool(&pool);
        let emb = EmbeddingTable::new(&mut rng, orig_vocab as usize, k);
        let pair_list: Vec<(usize, usize)> = pairs.iter().collect();
        let pair_x = (0..pairs.num_pairs())
            .map(|_| Matrix::zeros(0, 0))
            .collect();
        Self {
            emb,
            subnets,
            top,
            adam: Adam::with_lr_eps(cfg.lr, cfg.adam_eps),
            l2: cfg.l2,
            num_fields,
            dim: k,
            sub_out,
            pairs,
            pair_list,
            emb_buf: Matrix::zeros(0, 0),
            input: Matrix::zeros(0, 0),
            logits: Matrix::zeros(0, 0),
            grad: Matrix::zeros(0, 0),
            dinput: Matrix::zeros(0, 0),
            d_emb: Matrix::zeros(0, 0),
            pair_x,
            sub_out_buf: Matrix::zeros(0, 0),
            d_out: Matrix::zeros(0, 0),
            d_x: Matrix::zeros(0, 0),
        }
    }

    /// Forward pass into the persistent scratch buffers; `self.logits`
    /// holds the `[B, 1]` logits afterwards. Each pair's micro-network
    /// input `[e_i | e_j | e_i ⊙ e_j]` is kept in `self.pair_x[p]` for the
    /// backward pass.
    fn forward_step(&mut self, batch: &Batch) {
        let m = self.num_fields;
        let k = self.dim;
        let b = batch.len();
        self.emb
            .lookup_fields_pooled_into(&batch.fields, m, &Pool::serial(), &mut self.emb_buf);
        self.input
            .reset(b, m * k + self.pairs.num_pairs() * self.sub_out);
        self.input.copy_block_from(&self.emb_buf, 0);
        for (p, &(i, j)) in self.pair_list.iter().enumerate() {
            let x = &mut self.pair_x[p];
            x.reset(b, 3 * k);
            for r in 0..b {
                let row = self.emb_buf.row(r);
                let dst = x.row_mut(r);
                for c in 0..k {
                    let (vi, vj) = (row[i * k + c], row[j * k + c]);
                    dst[c] = vi;
                    dst[k + c] = vj;
                    dst[2 * k + c] = vi * vj;
                }
            }
            self.subnets[p].forward_into(&self.pair_x[p], &mut self.sub_out_buf);
            self.input
                .copy_block_from(&self.sub_out_buf, m * k + p * self.sub_out);
        }
        let (input, logits) = (&self.input, &mut self.logits);
        self.top.forward_into(input, logits);
    }
}

impl CtrModel for Pin {
    fn name(&self) -> &'static str {
        "PIN"
    }

    fn taxonomy(&self) -> Taxonomy {
        Taxonomy {
            category: Category::Factorized,
            methods: "{f}",
            factorization_fn: "net(e_i, e_j)",
            classifier: "Deep",
        }
    }

    fn train_batch(&mut self, batch: &Batch) -> f32 {
        let m = self.num_fields;
        let k = self.dim;
        self.forward_step(batch);
        let loss_value = bce_with_logits_into(&self.logits, &batch.labels, &mut self.grad);
        {
            let (input, grad) = (&self.input, &self.grad);
            self.top.backward_into(input, grad, &mut self.dinput);
        }
        self.dinput.block_into(0, m * k, &mut self.d_emb);
        for (p, &(i, j)) in self.pair_list.iter().enumerate() {
            self.dinput
                .block_into(m * k + p * self.sub_out, self.sub_out, &mut self.d_out);
            self.subnets[p].backward_into(&self.pair_x[p], &self.d_out, &mut self.d_x);
            // Split the micro-net input gradient back onto the embeddings.
            for r in 0..self.d_x.rows() {
                let row = self.emb_buf.row(r);
                let g = self.d_x.row(r);
                let d_row = self.d_emb.row_mut(r);
                for c in 0..k {
                    let (vi, vj) = (row[i * k + c], row[j * k + c]);
                    d_row[i * k + c] += g[c] + g[2 * k + c] * vj;
                    d_row[j * k + c] += g[k + c] + g[2 * k + c] * vi;
                }
            }
        }
        self.emb
            .accumulate_grad_fields_pooled(&batch.fields, m, &self.d_emb, &Pool::serial());
        self.adam.begin_step();
        let mut adam = self.adam;
        self.top.visit_params(&mut |p| adam.step(p, 0.0));
        for subnet in self.subnets.iter_mut() {
            subnet.visit_params(&mut |p| adam.step(p, 0.0));
        }
        self.adam = adam;
        self.emb.apply_adam(&self.adam, self.l2);
        loss_value
    }

    fn predict(&mut self, batch: &Batch) -> Vec<f32> {
        self.forward_step(batch);
        loss::probabilities(&self.logits)
    }

    fn num_params(&mut self) -> usize {
        let sub: usize = self.subnets.iter_mut().map(|s| s.num_params()).sum();
        self.emb.num_params() + sub + self.top.num_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_model;
    use optinter_data::Profile;

    #[test]
    fn pin_trains_and_beats_chance() {
        let bundle = Profile::Tiny.bundle_with_rows(3000, 25);
        let cfg = BaselineConfig::test_small();
        let mut model = Pin::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
        let r = run_model(&mut model, &bundle, &cfg);
        assert!(r.auc > 0.58, "PIN AUC {}", r.auc);
    }

    #[test]
    fn has_one_subnet_per_pair() {
        let bundle = Profile::Tiny.bundle_with_rows(300, 26);
        let cfg = BaselineConfig::test_small();
        let pin = Pin::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
        assert_eq!(pin.subnets.len(), bundle.data.num_pairs);
    }

    #[test]
    #[should_panic(expected = "subnet needs at least")]
    fn rejects_degenerate_subnet() {
        let cfg = BaselineConfig {
            subnet: vec![5],
            ..BaselineConfig::test_small()
        };
        let _ = Pin::new(&cfg, 100, 4);
    }
}
