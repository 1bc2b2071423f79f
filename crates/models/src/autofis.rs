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

use crate::deep::{Deep, DeepBlock};
use crate::runner::{run_model, train_model};
use crate::traits::{Category, Taxonomy};
use optinter_core::net::mlp_config;
use optinter_core::{Block, Inputs, OptInterConfig, TrainReport};
use optinter_data::{DatasetBundle, PairIndexer};
use optinter_nn::{Adam, DenseOptimizer, EmbeddingTable, Grda, GrdaConfig, Mlp, Parameter};
use optinter_tensor::{Matrix, Pool};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// AutoFIS model. In search mode the gates are GRDA-trained; in re-train
/// mode they are frozen to the 0/1 selection mask.
pub type AutoFis = Deep<Gates>;

/// AutoFIS's block: `e^o` followed by every pair's gated inner product.
pub struct Gates {
    /// Interaction gates `α`, shape `[P, 1]`.
    gates: Parameter,
    /// `None` while searching; `Some(mask)` when re-training with a fixed
    /// selection.
    fixed_mask: Option<Vec<bool>>,
    grda: Grda,
    num_fields: usize,
    dim: usize,
    pairs: PairIndexer,
    /// Raw (ungated) inner products, cached for the gate gradient.
    raw_ips: Vec<f32>,
}

impl AutoFis {
    /// Creates an AutoFIS model in search mode.
    pub fn new(cfg: &OptInterConfig, orig_vocab: u32, num_fields: usize) -> Self {
        Self::build(cfg, orig_vocab, num_fields, None)
    }

    /// Creates an AutoFIS model in re-train mode with a fixed selection.
    pub fn retrain(
        cfg: &OptInterConfig,
        orig_vocab: u32,
        num_fields: usize,
        mask: Vec<bool>,
    ) -> Self {
        Self::build(cfg, orig_vocab, num_fields, Some(mask))
    }

    fn build(
        cfg: &OptInterConfig,
        orig_vocab: u32,
        num_fields: usize,
        fixed_mask: Option<Vec<bool>>,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xAF15);
        let k = cfg.orig_dim;
        let pairs = PairIndexer::new(num_fields);
        if let Some(mask) = &fixed_mask {
            assert_eq!(mask.len(), pairs.num_pairs(), "mask must cover every pair");
        }
        let emb = EmbeddingTable::new(&mut rng, orig_vocab as usize, k);
        let mlp = Mlp::new(
            &mut rng,
            &mlp_config(cfg, num_fields * k + pairs.num_pairs()),
        );
        // Search mode: gates start at 0 so GRDA's dual accumulator starts
        // at the pruning threshold — gates that receive consistent signal
        // escape it, idle gates stay exactly zero (directional pruning).
        // Re-train mode never reads the trainable gates.
        let block = Gates {
            gates: Parameter::new(Matrix::zeros(pairs.num_pairs(), 1)),
            fixed_mask,
            grda: Grda::new(GrdaConfig {
                lr: cfg.lr,
                c: cfg.grda_c,
                mu: cfg.grda_mu,
            }),
            num_fields,
            dim: k,
            pairs,
            raw_ips: Vec::new(),
        };
        Deep::with_parts(block, emb, mlp, cfg, num_fields, Pool::new(cfg.num_threads))
    }

    /// Current selection: `true` where the gate is non-zero.
    pub fn selection(&self) -> Vec<bool> {
        let gates = self.block();
        match &gates.fixed_mask {
            Some(mask) => mask.clone(),
            None => (0..gates.pairs.num_pairs())
                .map(|p| gates.gates.value.get(p, 0) != 0.0)
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

impl Gates {
    /// Pair `p`'s gate: its 0/1 mask entry when re-training, its trainable
    /// value while searching.
    fn gate(&self, p: usize) -> f32 {
        match self.fixed_mask.as_deref() {
            Some(mask) => {
                if mask[p] {
                    1.0
                } else {
                    0.0
                }
            }
            None => self.gates.value.get(p, 0),
        }
    }
}

impl Block for Gates {
    fn forward(&mut self, x: &Inputs<'_>, input: &mut Matrix) {
        let m = self.num_fields;
        let k = self.dim;
        let np = self.pairs.num_pairs();
        let b = x.eo.rows();
        input.reset(b, m * k + np);
        input.copy_block_from(x.eo, 0);
        self.raw_ips.clear();
        self.raw_ips.resize(b * np, 0.0);
        for r in 0..b {
            let row = x.eo.row(r);
            let dst = input.row_mut(r);
            for (p, (i, j)) in self.pairs.iter().enumerate() {
                let mut dot = 0.0f32;
                for c in 0..k {
                    dot += row[i * k + c] * row[j * k + c];
                }
                self.raw_ips[r * np + p] = dot;
                dst[m * k + p] = self.gate(p) * dot;
            }
        }
    }

    fn backward(&mut self, x: &Inputs<'_>, dinput: &Matrix, _: &Matrix, d_eo: &mut Matrix) {
        let m = self.num_fields;
        let k = self.dim;
        let np = self.pairs.num_pairs();
        dinput.block_into(0, m * k, d_eo);
        let searching = self.fixed_mask.is_none();
        for r in 0..dinput.rows() {
            let row = x.eo.row(r);
            let g_row = dinput.row(r);
            let d_row = d_eo.row_mut(r);
            for (p, (i, j)) in self.pairs.iter().enumerate() {
                let g_ip = g_row[m * k + p];
                let gate = self.gate(p);
                // Gate gradient (search mode only).
                if searching {
                    self.gates.grad.row_mut(p)[0] += g_ip * self.raw_ips[r * np + p];
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
    }

    /// The gates take a GRDA step while searching; re-training drops
    /// their (unused) gradient.
    fn step(&mut self, _: &Adam) {
        if self.fixed_mask.is_none() {
            self.grda.begin_step();
            self.grda.step(&mut self.gates, 0.0);
        } else {
            self.gates.grad.fill_zero();
        }
    }

    fn num_params(&mut self) -> usize {
        self.gates.len()
    }
}

impl DeepBlock for Gates {
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
}

/// The full AutoFIS pipeline: gate search with GRDA for
/// `cfg.retrain_epochs` epochs, then re-train from scratch with the
/// selected interactions under early stopping. Returns the re-trained
/// report and the Table VI selection counts.
pub fn run_autofis(bundle: &DatasetBundle, cfg: &OptInterConfig) -> (TrainReport, [usize; 3]) {
    let mut search = AutoFis::new(cfg, bundle.data.orig_vocab, bundle.data.num_fields);
    train_model(&mut search, bundle, cfg);
    let mask = search.selection();
    let counts = search.selection_counts();
    let mut final_model =
        AutoFis::retrain(cfg, bundle.data.orig_vocab, bundle.data.num_fields, mask);
    let report = run_model(&mut final_model, bundle, cfg);
    (report, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::test_config;
    use optinter_data::Profile;

    #[test]
    fn search_trains_and_predicts() {
        let bundle = Profile::Tiny.bundle_with_rows(3000, 27);
        let cfg = test_config();
        let mut model = AutoFis::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
        let r = run_model(&mut model, &bundle, &cfg);
        assert!(r.auc > 0.58, "AutoFIS AUC {}", r.auc);
    }

    #[test]
    fn grda_prunes_some_gates_with_strong_threshold() {
        let bundle = Profile::Tiny.bundle_with_rows(2500, 28);
        let cfg = OptInterConfig {
            grda_c: 5e-2, // aggressive threshold to force pruning in 2 epochs
            grda_mu: 0.8,
            ..test_config()
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
        let cfg = test_config();
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
        let cfg = test_config();
        let (report, counts) = run_autofis(&bundle, &cfg);
        assert!(report.auc > 0.55);
        assert_eq!(counts[0], 0);
        assert_eq!(counts[1] + counts[2], bundle.data.num_pairs);
    }
}
