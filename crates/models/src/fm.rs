//! The factorization-machine family: FM, FwFM, FmFM (paper Table III).
//!
//! All three are shallow factorized models sharing the structure
//! `logit = b + Σ_f w[x_f] + Σ_(i<j) pair_term(e_i, e_j)` and differing only
//! in the factorization function:
//!
//! - **FM**: `<e_i, e_j>` — computed with Rendle's O(Mk) identity
//!   (`add_fm_term`, which DeepFM shares);
//! - **FwFM**: `<e_i, e_j> · w_(i,j)` with a learnable scalar per pair;
//! - **FmFM**: `e_i W_(i,j) e_j^T` with a learnable matrix per pair.

use crate::linear::Linear;
use crate::traits::{BaselineConfig, Category, CtrModel, Taxonomy};
use optinter_data::{Batch, PairIndexer};
use optinter_nn::{bce_with_logits_into, loss, Adam, DenseOptimizer, EmbeddingTable, Parameter};
use optinter_tensor::{Matrix, Pool};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which member of the FM family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FmVariant {
    /// Plain factorization machine (Rendle 2010).
    Plain,
    /// Field-weighted FM (Pan et al. 2018).
    FieldWeighted,
    /// Field-matrixed FM (Sun et al. 2021).
    FieldMatrixed,
}

/// Adds each row's FM pair term `Σ_(i<j) <v_i, v_j>` to its logit by
/// Rendle's identity, `½ Σ_c [(Σ_f v_fc)² − Σ_f v_fc²]`, one coordinate
/// `c` at a time. `emb` holds `m` embeddings of width `k` per row.
pub(crate) fn add_fm_term(emb: &Matrix, m: usize, k: usize, logits: &mut Matrix) {
    for r in 0..emb.rows() {
        let row = emb.row(r);
        let mut z = logits.get(r, 0);
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
        logits.set(r, 0, z);
    }
}

/// The backward of [`add_fm_term`]: adds `g · (Σ_f' v_f'c − v_fc)` to each
/// `d v_fc`, with `g` the row's logit gradient.
pub(crate) fn fm_term_backward(
    emb: &Matrix,
    m: usize,
    k: usize,
    grad: &Matrix,
    d_emb: &mut Matrix,
) {
    for r in 0..emb.rows() {
        let g = grad.get(r, 0);
        let row = emb.row(r);
        let d_row = d_emb.row_mut(r);
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
}

/// The FM family: FM, FwFM or FmFM by [`FmVariant`].
pub struct FmFamily {
    variant: FmVariant,
    linear: Linear,
    emb: EmbeddingTable,
    /// FwFM: pair weights `[P, 1]`; FmFM: pair matrices `[P, k*k]` (each row
    /// a flattened `k x k` matrix). Unused for plain FM.
    pair_params: Parameter,
    adam: Adam,
    l2: f32,
    num_fields: usize,
    dim: usize,
    pairs: PairIndexer,
    // Persistent step buffers: overwritten in full every batch so the
    // steady-state train step reuses their capacity.
    emb_buf: Matrix,
    logits: Matrix,
    grad: Matrix,
    d_emb: Matrix,
}

impl FmFamily {
    /// Creates the given member of the family for the dataset's vocabulary.
    pub fn new(
        variant: FmVariant,
        cfg: &BaselineConfig,
        orig_vocab: u32,
        num_fields: usize,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF2);
        let k = cfg.embed_dim;
        let pairs = PairIndexer::new(num_fields);
        let pair_params = match variant {
            FmVariant::Plain => Parameter::zeros(1, 1),
            // Pair weights start at 1: FwFM reduces to FM initially.
            FmVariant::FieldWeighted => Parameter::new(Matrix::filled(pairs.num_pairs(), 1, 1.0)),
            // Pair matrices start at identity: FmFM reduces to FM initially.
            FmVariant::FieldMatrixed => {
                let mut m = Matrix::zeros(pairs.num_pairs(), k * k);
                for p in 0..pairs.num_pairs() {
                    for c in 0..k {
                        m.set(p, c * k + c, 1.0);
                    }
                }
                Parameter::new(m)
            }
        };
        Self {
            variant,
            linear: Linear::new(orig_vocab, num_fields),
            emb: EmbeddingTable::new(&mut rng, orig_vocab as usize, k),
            pair_params,
            adam: Adam::with_lr_eps(cfg.lr, cfg.adam_eps),
            l2: cfg.l2,
            num_fields,
            dim: k,
            pairs,
            emb_buf: Matrix::zeros(0, 0),
            logits: Matrix::zeros(0, 0),
            grad: Matrix::zeros(0, 0),
            d_emb: Matrix::zeros(0, 0),
        }
    }

    /// Writes the logits into `self.logits`, leaving the batch's
    /// embeddings in `self.emb_buf` for the backward pass.
    fn forward(&mut self, batch: &Batch) {
        let m = self.num_fields;
        let k = self.dim;
        self.emb
            .lookup_fields_pooled_into(&batch.fields, m, &Pool::serial(), &mut self.emb_buf);
        self.linear.forward_into(&batch.fields, &mut self.logits);
        if self.variant == FmVariant::Plain {
            add_fm_term(&self.emb_buf, m, k, &mut self.logits);
            return;
        }
        for r in 0..batch.len() {
            let row = self.emb_buf.row(r);
            let mut z = self.logits.get(r, 0);
            for (p, (i, j)) in self.pairs.iter().enumerate() {
                let vi = &row[i * k..(i + 1) * k];
                let vj = &row[j * k..(j + 1) * k];
                if self.variant == FmVariant::FieldWeighted {
                    let mut dot = 0.0f32;
                    for c in 0..k {
                        dot += vi[c] * vj[c];
                    }
                    z += self.pair_params.value.get(p, 0) * dot;
                } else {
                    let w = self.pair_params.value.row(p);
                    let mut term = 0.0f32;
                    for a in 0..k {
                        let mut acc = 0.0f32;
                        for c in 0..k {
                            acc += w[a * k + c] * vj[c];
                        }
                        term += vi[a] * acc;
                    }
                    z += term;
                }
            }
            self.logits.set(r, 0, z);
        }
    }

    /// Adds the pair terms' gradients into `self.d_emb` (FwFM, FmFM) and
    /// their own parameters' gradients.
    fn backward_pairs(&mut self) {
        let k = self.dim;
        for r in 0..self.grad.rows() {
            let g = self.grad.get(r, 0);
            let row = self.emb_buf.row(r);
            let d_row = self.d_emb.row_mut(r);
            for (p, (i, j)) in self.pairs.iter().enumerate() {
                if self.variant == FmVariant::FieldWeighted {
                    let w = self.pair_params.value.get(p, 0);
                    let mut dot = 0.0f32;
                    for c in 0..k {
                        let (vi, vj) = (row[i * k + c], row[j * k + c]);
                        dot += vi * vj;
                        d_row[i * k + c] += g * w * vj;
                        d_row[j * k + c] += g * w * vi;
                    }
                    self.pair_params.grad.row_mut(p)[0] += g * dot;
                } else {
                    let w = self.pair_params.value.row(p);
                    let dw = self.pair_params.grad.row_mut(p);
                    let vi = &row[i * k..(i + 1) * k];
                    let vj = &row[j * k..(j + 1) * k];
                    for a in 0..k {
                        let mut wvj = 0.0f32;
                        for c in 0..k {
                            wvj += w[a * k + c] * vj[c];
                            dw[a * k + c] += g * vi[a] * vj[c];
                        }
                        d_row[i * k + a] += g * wvj;
                    }
                    for c in 0..k {
                        let mut wt_vi = 0.0f32;
                        for a in 0..k {
                            wt_vi += w[a * k + c] * vi[a];
                        }
                        d_row[j * k + c] += g * wt_vi;
                    }
                }
            }
        }
    }
}

impl CtrModel for FmFamily {
    fn name(&self) -> &'static str {
        match self.variant {
            FmVariant::Plain => "FM",
            FmVariant::FieldWeighted => "FwFM",
            FmVariant::FieldMatrixed => "FmFM",
        }
    }

    fn taxonomy(&self) -> Taxonomy {
        Taxonomy {
            category: Category::Factorized,
            methods: "{f}",
            factorization_fn: match self.variant {
                FmVariant::Plain => "<e_i, e_j>",
                FmVariant::FieldWeighted => "<e_i, e_j> w_(i,j)",
                FmVariant::FieldMatrixed => "e_i W_(i,j) e_j^T",
            },
            classifier: "Shallow",
        }
    }

    fn train_batch(&mut self, batch: &Batch) -> f32 {
        let m = self.num_fields;
        let k = self.dim;
        self.forward(batch);
        let loss_value = bce_with_logits_into(&self.logits, &batch.labels, &mut self.grad);
        self.d_emb.reset(batch.len(), m * k);
        if self.variant == FmVariant::Plain {
            fm_term_backward(&self.emb_buf, m, k, &self.grad, &mut self.d_emb);
        } else {
            self.backward_pairs();
        }
        self.linear.backward(&batch.fields, &self.grad);
        self.emb
            .accumulate_grad_fields_pooled(&batch.fields, m, &self.d_emb, &Pool::serial());
        self.adam.begin_step();
        self.linear.step(&self.adam, 0.0);
        self.emb.apply_adam(&self.adam, self.l2);
        if self.variant != FmVariant::Plain {
            let mut adam = self.adam;
            adam.step(&mut self.pair_params, 0.0);
        }
        loss_value
    }

    fn predict(&mut self, batch: &Batch) -> Vec<f32> {
        self.forward(batch);
        loss::probabilities(&self.logits)
    }

    fn num_params(&mut self) -> usize {
        let pair = match self.variant {
            FmVariant::Plain => 0,
            _ => self.pair_params.len(),
        };
        self.linear.num_params() + self.emb.num_params() + pair
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{evaluate_model, run_model, train_model};
    use optinter_data::{DatasetBundle, Profile};

    fn build(variant: FmVariant, cfg: &BaselineConfig, bundle: &DatasetBundle) -> FmFamily {
        FmFamily::new(variant, cfg, bundle.data.orig_vocab, bundle.data.num_fields)
    }

    /// The pairwise inner-product sum `Σ_(i<j) <v_i, v_j>` of one row,
    /// pair by pair.
    fn bruteforce_pair_sum(row: &[f32], m: usize, k: usize) -> f32 {
        let mut total = 0.0f32;
        for i in 0..m {
            for j in i + 1..m {
                for c in 0..k {
                    total += row[i * k + c] * row[j * k + c];
                }
            }
        }
        total
    }

    #[test]
    fn rendle_identity_matches_bruteforce() {
        let m = 4;
        let k = 3;
        let row: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.37).sin()).collect();
        let emb = Matrix::from_vec(1, m * k, row.clone());
        let brute = bruteforce_pair_sum(&row, m, k);
        let mut logits = Matrix::zeros(1, 1);
        add_fm_term(&emb, m, k, &mut logits);
        let fast = logits.get(0, 0);
        assert!((brute - fast).abs() < 1e-5, "{brute} vs {fast}");
        // Backward: d v_fc = g · Σ_(f' ≠ f) v_f'c.
        let g = 0.5f32;
        let mut d_emb = Matrix::zeros(1, m * k);
        fm_term_backward(&emb, m, k, &Matrix::filled(1, 1, g), &mut d_emb);
        for f in 0..m {
            for c in 0..k {
                let others: f32 = (0..m).filter(|&o| o != f).map(|o| row[o * k + c]).sum();
                let d = d_emb.get(0, f * k + c);
                assert!((d - g * others).abs() < 1e-5, "d v_{f}{c}: {d}");
            }
        }
    }

    #[test]
    fn fm_learns_factorized_structure() {
        let bundle = Profile::Tiny.bundle_with_rows(4000, 7);
        let cfg = BaselineConfig::test_small();
        let mut fm = build(FmVariant::Plain, &cfg, &bundle);
        let report = run_model(&mut fm, &bundle, &cfg);
        assert!(report.auc > 0.6, "FM AUC {}", report.auc);
    }

    #[test]
    fn fwfm_initialises_to_fm() {
        // With pair weights at 1, FwFM's prediction equals FM's given the
        // same seed (identical embeddings).
        let bundle = Profile::Tiny.bundle_with_rows(300, 8);
        let cfg = BaselineConfig::test_small();
        let mut fm = build(FmVariant::Plain, &cfg, &bundle);
        let mut fwfm = build(FmVariant::FieldWeighted, &cfg, &bundle);
        let batch = optinter_data::BatchIter::new(&bundle.data, 0..16, 16, None)
            .next()
            .unwrap();
        let a = fm.predict(&batch);
        let b = fwfm.predict(&batch);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
    }

    #[test]
    fn fmfm_initialises_to_fm() {
        let bundle = Profile::Tiny.bundle_with_rows(300, 8);
        let cfg = BaselineConfig::test_small();
        let mut fm = build(FmVariant::Plain, &cfg, &bundle);
        let mut fmfm = build(FmVariant::FieldMatrixed, &cfg, &bundle);
        let batch = optinter_data::BatchIter::new(&bundle.data, 0..16, 16, None)
            .next()
            .unwrap();
        let a = fm.predict(&batch);
        let b = fmfm.predict(&batch);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn param_counts_ordered_by_expressiveness() {
        let bundle = Profile::Tiny.bundle_with_rows(300, 9);
        let cfg = BaselineConfig::test_small();
        let mut fm = build(FmVariant::Plain, &cfg, &bundle);
        let mut fwfm = build(FmVariant::FieldWeighted, &cfg, &bundle);
        let mut fmfm = build(FmVariant::FieldMatrixed, &cfg, &bundle);
        assert!(fm.num_params() < fwfm.num_params());
        assert!(fwfm.num_params() < fmfm.num_params());
    }

    #[test]
    fn fwfm_trains_without_nan() {
        let bundle = Profile::Tiny.bundle_with_rows(2000, 10);
        let cfg = BaselineConfig::test_small();
        let mut model = build(FmVariant::FieldWeighted, &cfg, &bundle);
        let report = run_model(&mut model, &bundle, &cfg);
        assert!(report.auc.is_finite() && report.log_loss.is_finite());
        assert!(report.auc > 0.55, "FwFM AUC {}", report.auc);
    }

    #[test]
    fn fmfm_trains_without_nan() {
        let bundle = Profile::Tiny.bundle_with_rows(2000, 10);
        let cfg = BaselineConfig::test_small();
        let mut model = build(FmVariant::FieldMatrixed, &cfg, &bundle);
        train_model(&mut model, &bundle, &cfg);
        let eval = evaluate_model(
            &mut model,
            &bundle,
            bundle.split.test.clone(),
            cfg.batch_size,
        );
        assert!(
            eval.auc.is_finite() && eval.auc > 0.55,
            "FmFM AUC {}",
            eval.auc
        );
    }
}
