//! AutoFIS (Liu et al. 2020): automatic feature-interaction *selection*.
//!
//! An IPNN-style network where every pairwise inner product is multiplied
//! by a gate `α_p`. The gates are trained with the GRDA optimizer, whose
//! directional pruning drives unimportant gates to exactly zero — those
//! pairs are dropped (naïve), the rest stay factorized. AutoFIS therefore
//! searches the `{factorized, naive}` subspace of OptInter (paper Table
//! III: hybrid, `{n, f}`), never considering memorization.
//!
//! [`run_autofis`] performs the full two-phase procedure: gate search with
//! GRDA, then re-training from scratch with the selected pairs only.

use crate::traits::{BaselineConfig, Category, CtrModel, Taxonomy};
use optinter_data::{Batch, DatasetBundle, PairIndexer};
use optinter_nn::{
    bce_with_logits_into, loss, Adam, DenseOptimizer, EmbeddingTable, Grda, GrdaConfig, Mlp,
    MlpConfig, Parameter,
};
use optinter_tensor::{Matrix, Pool};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// AutoFIS model. In search mode the gates are GRDA-trained; in re-train
/// mode they are frozen to the 0/1 selection mask.
pub struct AutoFis {
    emb: EmbeddingTable,
    mlp: Mlp,
    /// Interaction gates `α`, shape `[P, 1]`.
    gates: Parameter,
    /// `None` while searching; `Some(mask)` when re-training with a fixed
    /// selection.
    fixed_mask: Option<Vec<bool>>,
    adam: Adam,
    grda: Grda,
    l2: f32,
    num_fields: usize,
    dim: usize,
    pairs: PairIndexer,
    // Persistent step buffers: overwritten in full every batch so the
    // steady-state train step reuses their capacity.
    emb_buf: Matrix,
    input: Matrix,
    logits: Matrix,
    grad: Matrix,
    dinput: Matrix,
    d_emb: Matrix,
    /// Raw (ungated) inner products, cached for the gate gradient.
    raw_ips: Vec<f32>,
}

impl AutoFis {
    /// Creates an AutoFIS model in search mode.
    pub fn new(cfg: &BaselineConfig, orig_vocab: u32, num_fields: usize) -> Self {
        Self::build(cfg, orig_vocab, num_fields, None)
    }

    /// Creates an AutoFIS model in re-train mode with a fixed selection.
    pub fn retrain(
        cfg: &BaselineConfig,
        orig_vocab: u32,
        num_fields: usize,
        mask: Vec<bool>,
    ) -> Self {
        Self::build(cfg, orig_vocab, num_fields, Some(mask))
    }

    fn build(
        cfg: &BaselineConfig,
        orig_vocab: u32,
        num_fields: usize,
        fixed_mask: Option<Vec<bool>>,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xAF15);
        let k = cfg.embed_dim;
        let pairs = PairIndexer::new(num_fields);
        if let Some(mask) = &fixed_mask {
            assert_eq!(mask.len(), pairs.num_pairs(), "mask must cover every pair");
        }
        let emb = EmbeddingTable::new(&mut rng, orig_vocab as usize, k);
        let mut mlp = Mlp::new(
            &mut rng,
            &MlpConfig {
                input_dim: num_fields * k + pairs.num_pairs(),
                hidden: cfg.hidden.clone(),
                output_dim: 1,
                layer_norm: cfg.layer_norm,
                ln_eps: 1e-5,
            },
        );
        mlp.set_pool(&Pool::new(cfg.num_threads));
        // Search mode: gates start at 0 so GRDA's dual accumulator starts
        // at the pruning threshold — gates that receive consistent signal
        // escape it, idle gates stay exactly zero (directional pruning).
        // Re-train mode never reads the trainable gates.
        let gates = Parameter::new(Matrix::zeros(pairs.num_pairs(), 1));
        Self {
            emb,
            mlp,
            gates,
            fixed_mask,
            adam: Adam::with_lr_eps(cfg.lr, cfg.adam_eps),
            grda: Grda::new(GrdaConfig {
                lr: cfg.lr,
                c: cfg.grda_c,
                mu: cfg.grda_mu,
            }),
            l2: cfg.l2,
            num_fields,
            dim: k,
            pairs,
            emb_buf: Matrix::zeros(0, 0),
            input: Matrix::zeros(0, 0),
            logits: Matrix::zeros(0, 0),
            grad: Matrix::zeros(0, 0),
            dinput: Matrix::zeros(0, 0),
            d_emb: Matrix::zeros(0, 0),
            raw_ips: Vec::new(),
        }
    }

    /// Forward pass into the persistent scratch buffers; `self.logits`
    /// holds the `[B, 1]` logits afterwards.
    fn forward_step(&mut self, batch: &Batch) {
        let m = self.num_fields;
        let k = self.dim;
        let np = self.pairs.num_pairs();
        let b = batch.len();
        self.emb
            .lookup_fields_pooled_into(&batch.fields, m, &Pool::serial(), &mut self.emb_buf);
        self.input.reset(b, m * k + np);
        self.input.copy_block_from(&self.emb_buf, 0);
        self.raw_ips.clear();
        self.raw_ips.resize(b * np, 0.0);
        let fixed_mask = self.fixed_mask.as_deref();
        let gates_val = &self.gates.value;
        for r in 0..b {
            let row = self.emb_buf.row(r);
            let dst = self.input.row_mut(r);
            for (p, (i, j)) in self.pairs.iter().enumerate() {
                let mut dot = 0.0f32;
                for c in 0..k {
                    dot += row[i * k + c] * row[j * k + c];
                }
                self.raw_ips[r * np + p] = dot;
                let gate = match fixed_mask {
                    Some(mask) => {
                        if mask[p] {
                            1.0
                        } else {
                            0.0
                        }
                    }
                    None => gates_val.get(p, 0),
                };
                dst[m * k + p] = gate * dot;
            }
        }
        let (input, logits) = (&self.input, &mut self.logits);
        self.mlp.forward_into(input, logits);
    }

    /// Current selection: `true` where the gate is non-zero.
    pub fn selection(&self) -> Vec<bool> {
        match &self.fixed_mask {
            Some(mask) => mask.clone(),
            None => (0..self.pairs.num_pairs())
                .map(|p| self.gates.value.get(p, 0) != 0.0)
                .collect(),
        }
    }

    /// `[memorize, factorize, naive]` counts in Table VI format — AutoFIS
    /// never memorizes, so the first entry is always 0.
    pub fn selection_counts(&self) -> [usize; 3] {
        let sel = self.selection();
        let kept = sel.iter().filter(|&&s| s).count();
        [0, kept, sel.len() - kept]
    }
}

impl CtrModel for AutoFis {
    fn name(&self) -> &'static str {
        "AutoFIS"
    }

    fn taxonomy(&self) -> Taxonomy {
        Taxonomy {
            category: Category::Hybrid,
            methods: "{n,f}",
            factorization_fn: "flexible",
            classifier: "Deep",
        }
    }

    fn train_batch(&mut self, batch: &Batch) -> f32 {
        let m = self.num_fields;
        let k = self.dim;
        let np = self.pairs.num_pairs();
        self.forward_step(batch);
        let loss_value = bce_with_logits_into(&self.logits, &batch.labels, &mut self.grad);
        {
            let (input, grad) = (&self.input, &self.grad);
            self.mlp.backward_into(input, grad, &mut self.dinput);
        }
        self.dinput.block_into(0, m * k, &mut self.d_emb);
        let fixed_mask = self.fixed_mask.as_deref();
        let gates_val = &self.gates.value;
        let gates_grad = &mut self.gates.grad;
        for r in 0..self.dinput.rows() {
            let row = self.emb_buf.row(r);
            let g_row = self.dinput.row(r);
            let d_row = self.d_emb.row_mut(r);
            for (p, (i, j)) in self.pairs.iter().enumerate() {
                let g_ip = g_row[m * k + p];
                let gate = match fixed_mask {
                    Some(mask) => {
                        if mask[p] {
                            1.0
                        } else {
                            0.0
                        }
                    }
                    None => gates_val.get(p, 0),
                };
                // Gate gradient (search mode only).
                if fixed_mask.is_none() {
                    gates_grad.row_mut(p)[0] += g_ip * self.raw_ips[r * np + p];
                }
                // Embedding gradient through the gated inner product.
                let scaled = g_ip * gate;
                if scaled != 0.0 {
                    for c in 0..k {
                        d_row[i * k + c] += scaled * row[j * k + c];
                        d_row[j * k + c] += scaled * row[i * k + c];
                    }
                }
            }
        }
        self.emb
            .accumulate_grad_fields_pooled(&batch.fields, m, &self.d_emb, &Pool::serial());
        self.adam.begin_step();
        let mut adam = self.adam;
        self.mlp.visit_params(&mut |p| adam.step(p, 0.0));
        self.adam = adam;
        self.emb.apply_adam(&self.adam, self.l2);
        if self.fixed_mask.is_none() {
            self.grda.begin_step();
            let mut grda = self.grda;
            grda.step(&mut self.gates, 0.0);
            self.grda = grda;
        } else {
            self.gates.grad.fill_zero();
        }
        loss_value
    }

    fn predict(&mut self, batch: &Batch) -> Vec<f32> {
        self.forward_step(batch);
        loss::probabilities(&self.logits)
    }

    fn num_params(&mut self) -> usize {
        self.emb.num_params() + self.mlp.num_params() + self.gates.len()
    }
}

/// The full AutoFIS pipeline: gate search with GRDA, then re-train from
/// scratch with the selected interactions. Returns the re-trained report
/// and the Table VI selection counts.
pub fn run_autofis(
    bundle: &DatasetBundle,
    cfg: &BaselineConfig,
) -> (crate::runner::RunReport, [usize; 3]) {
    let mut search = AutoFis::new(cfg, bundle.data.orig_vocab, bundle.data.num_fields);
    crate::runner::train_model(&mut search, bundle, cfg);
    let mask = search.selection();
    let counts = search.selection_counts();
    let mut final_model =
        AutoFis::retrain(cfg, bundle.data.orig_vocab, bundle.data.num_fields, mask);
    let report = crate::runner::run_model(&mut final_model, bundle, cfg);
    (report, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_model, train_model};
    use optinter_data::Profile;

    #[test]
    fn search_trains_and_predicts() {
        let bundle = Profile::Tiny.bundle_with_rows(3000, 27);
        let cfg = BaselineConfig::test_small();
        let mut model = AutoFis::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
        let r = run_model(&mut model, &bundle, &cfg);
        assert!(r.auc > 0.58, "AutoFIS AUC {}", r.auc);
    }

    #[test]
    fn grda_prunes_some_gates_with_strong_threshold() {
        let bundle = Profile::Tiny.bundle_with_rows(2500, 28);
        let cfg = BaselineConfig {
            grda_c: 5e-2, // aggressive threshold to force pruning in 2 epochs
            grda_mu: 0.8,
            ..BaselineConfig::test_small()
        };
        let mut model = AutoFis::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
        train_model(&mut model, &bundle, &cfg);
        let counts = model.selection_counts();
        assert_eq!(counts[0], 0, "AutoFIS never memorizes");
        assert!(counts[2] > 0, "expected some pruned gates: {counts:?}");
    }

    #[test]
    fn retrain_mode_has_frozen_gates() {
        let bundle = Profile::Tiny.bundle_with_rows(1000, 29);
        let cfg = BaselineConfig::test_small();
        let mask: Vec<bool> = (0..bundle.data.num_pairs).map(|p| p % 2 == 0).collect();
        let mut model = AutoFis::retrain(
            &cfg,
            bundle.data.orig_vocab,
            bundle.data.num_fields,
            mask.clone(),
        );
        train_model(&mut model, &bundle, &cfg);
        assert_eq!(model.selection(), mask);
    }

    #[test]
    fn full_pipeline_runs() {
        let bundle = Profile::Tiny.bundle_with_rows(2000, 30);
        let cfg = BaselineConfig::test_small();
        let (report, counts) = run_autofis(&bundle, &cfg);
        assert!(report.auc > 0.55);
        assert_eq!(counts[0], 0);
        assert_eq!(counts[1] + counts[2], bundle.data.num_pairs);
    }
}
