//! The factorization-machine family: FM, FwFM, FmFM (paper Table III).
//!
//! All three are shallow factorized models sharing the structure
//! `logit = b + Σ_f w[x_f] + Σ_(i<j) pair_term(e_i, e_j)` and differing only
//! in the factorization function:
//!
//! - **FM**: `<e_i, e_j>` — computed with Rendle's O(Mk) identity;
//! - **FwFM**: `<e_i, e_j> · w_(i,j)` with a learnable scalar per pair;
//! - **FmFM**: `e_i W_(i,j) e_j^T` with a learnable matrix per pair.

use crate::traits::{BaselineConfig, Category, CtrModel, Taxonomy};
use optinter_data::{Batch, PairIndexer};
use optinter_nn::{Adam, DenseOptimizer, EmbeddingTable, Parameter};
use optinter_tensor::{numerics, Matrix, Pool};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which member of the FM family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    Plain,
    FieldWeighted,
    FieldMatrixed,
}

/// Shared implementation of the FM family.
pub struct FmFamily {
    variant: Variant,
    linear: EmbeddingTable,
    emb: EmbeddingTable,
    bias: Parameter,
    /// FwFM: pair weights `[P, 1]`; FmFM: pair matrices `[P, k*k]` (each row
    /// a flattened `k x k` matrix). Unused for plain FM.
    pair_params: Parameter,
    adam: Adam,
    l2: f32,
    num_fields: usize,
    dim: usize,
    pairs: PairIndexer,
    /// Recycled per-field id buffer for the linear-term sparse update.
    ids_scratch: Vec<u32>,
}

impl FmFamily {
    fn new(variant: Variant, cfg: &BaselineConfig, orig_vocab: u32, num_fields: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF2);
        let k = cfg.embed_dim;
        let pairs = PairIndexer::new(num_fields);
        let pair_params = match variant {
            Variant::Plain => Parameter::zeros(1, 1),
            // Pair weights start at 1: FwFM reduces to FM initially.
            Variant::FieldWeighted => Parameter::new(Matrix::filled(pairs.num_pairs(), 1, 1.0)),
            // Pair matrices start at identity: FmFM reduces to FM initially.
            Variant::FieldMatrixed => {
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
            linear: EmbeddingTable::zeros(orig_vocab as usize, 1),
            emb: EmbeddingTable::new(&mut rng, orig_vocab as usize, k),
            bias: Parameter::zeros(1, 1),
            pair_params,
            adam: Adam::with_lr_eps(cfg.lr, cfg.adam_eps),
            l2: cfg.l2,
            num_fields,
            dim: k,
            pairs,
            ids_scratch: Vec::new(),
        }
    }

    /// Forward producing logits plus the cached embedding matrix.
    fn forward(&self, batch: &Batch) -> (Vec<f32>, Matrix) {
        let m = self.num_fields;
        let k = self.dim;
        let b = batch.len();
        let mut emb = Matrix::zeros(0, 0);
        self.emb
            .lookup_fields_pooled_into(&batch.fields, m, &Pool::serial(), &mut emb);
        let bias = self.bias.value.get(0, 0);
        // lint: allow(hot-path-alloc, reason="offline baseline model: per-batch buffer beside train_batch's other allocations; measured by the alloc-counter harness, not the serving path")
        let mut logits = Vec::with_capacity(b);
        for r in 0..b {
            let mut z = bias;
            for f in 0..m {
                z += self.linear.row(batch.fields[r * m + f])[0];
            }
            let row = emb.row(r);
            match self.variant {
                Variant::Plain => {
                    // Rendle's identity: sum of pair inner products =
                    // 0.5 * sum_c [ (sum_i v_ic)^2 - sum_i v_ic^2 ].
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
                }
                Variant::FieldWeighted => {
                    for (p, (i, j)) in self.pairs.iter().enumerate() {
                        let mut dot = 0.0f32;
                        for c in 0..k {
                            dot += row[i * k + c] * row[j * k + c];
                        }
                        z += self.pair_params.value.get(p, 0) * dot;
                    }
                }
                Variant::FieldMatrixed => {
                    for (p, (i, j)) in self.pairs.iter().enumerate() {
                        let w = self.pair_params.value.row(p);
                        let vi = &row[i * k..(i + 1) * k];
                        let vj = &row[j * k..(j + 1) * k];
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
            }
            logits.push(z);
        }
        (logits, emb)
    }
}

impl CtrModel for FmFamily {
    fn name(&self) -> &'static str {
        match self.variant {
            Variant::Plain => "FM",
            Variant::FieldWeighted => "FwFM",
            Variant::FieldMatrixed => "FmFM",
        }
    }

    fn taxonomy(&self) -> Taxonomy {
        Taxonomy {
            category: Category::Factorized,
            methods: "{f}",
            factorization_fn: match self.variant {
                Variant::Plain => "<e_i, e_j>",
                Variant::FieldWeighted => "<e_i, e_j> w_(i,j)",
                Variant::FieldMatrixed => "e_i W_(i,j) e_j^T",
            },
            classifier: "Shallow",
        }
    }

    fn train_batch(&mut self, batch: &Batch) -> f32 {
        let m = self.num_fields;
        let k = self.dim;
        let b = batch.len();
        let (logits, emb) = self.forward(batch);
        let inv_b = 1.0 / b as f32;
        let mut loss = 0.0f32;
        let mut d_emb = Matrix::zeros(b, m * k);
        let mut grad_rows = Matrix::zeros(b, 1);
        let mut dbias = 0.0f32;
        for (r, &z) in logits.iter().enumerate().take(b) {
            let y = batch.labels[r];
            loss += numerics::stable_bce(z, y);
            let g = numerics::stable_bce_grad(z, y) * inv_b;
            grad_rows.set(r, 0, g);
            dbias += g;
            let row = emb.row(r);
            let d_row = d_emb.row_mut(r);
            match self.variant {
                Variant::Plain => {
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
                Variant::FieldWeighted => {
                    for (p, (i, j)) in self.pairs.iter().enumerate() {
                        let w = self.pair_params.value.get(p, 0);
                        let mut dot = 0.0f32;
                        for c in 0..k {
                            let (vi, vj) = (row[i * k + c], row[j * k + c]);
                            dot += vi * vj;
                            d_row[i * k + c] += g * w * vj;
                            d_row[j * k + c] += g * w * vi;
                        }
                        self.pair_params.grad.row_mut(p)[0] += g * dot;
                    }
                }
                Variant::FieldMatrixed => {
                    for (p, (i, j)) in self.pairs.iter().enumerate() {
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
        // Linear part.
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
        self.emb
            .accumulate_grad_fields_pooled(&batch.fields, m, &d_emb, &Pool::serial());
        self.bias.grad.set(0, 0, dbias);
        self.adam.begin_step();
        self.linear.apply_adam(&self.adam, 0.0);
        self.emb.apply_adam(&self.adam, self.l2);
        let mut adam = self.adam;
        adam.step(&mut self.bias, 0.0);
        if self.variant != Variant::Plain {
            adam.step(&mut self.pair_params, 0.0);
        }
        loss * inv_b
    }

    fn predict(&mut self, batch: &Batch) -> Vec<f32> {
        self.forward(batch)
            .0
            .iter()
            .map(|&z| numerics::sigmoid(z))
            .collect()
    }

    fn num_params(&mut self) -> usize {
        let pair = match self.variant {
            Variant::Plain => 0,
            _ => self.pair_params.len(),
        };
        self.linear.num_params() + self.emb.num_params() + 1 + pair
    }
}

/// Plain factorization machine (Rendle 2010).
pub struct Fm(FmFamily);

impl Fm {
    /// Creates an FM.
    pub fn new(cfg: &BaselineConfig, orig_vocab: u32, num_fields: usize) -> Self {
        Self(FmFamily::new(Variant::Plain, cfg, orig_vocab, num_fields))
    }
}

/// Field-weighted FM (Pan et al. 2018).
pub struct FwFm(FmFamily);

impl FwFm {
    /// Creates an FwFM.
    pub fn new(cfg: &BaselineConfig, orig_vocab: u32, num_fields: usize) -> Self {
        Self(FmFamily::new(
            Variant::FieldWeighted,
            cfg,
            orig_vocab,
            num_fields,
        ))
    }
}

/// Field-matrixed FM (Sun et al. 2021).
pub struct FmFm(FmFamily);

impl FmFm {
    /// Creates an FmFM.
    pub fn new(cfg: &BaselineConfig, orig_vocab: u32, num_fields: usize) -> Self {
        Self(FmFamily::new(
            Variant::FieldMatrixed,
            cfg,
            orig_vocab,
            num_fields,
        ))
    }
}

macro_rules! delegate_ctr {
    ($t:ty) => {
        impl CtrModel for $t {
            fn name(&self) -> &'static str {
                self.0.name()
            }
            fn taxonomy(&self) -> Taxonomy {
                self.0.taxonomy()
            }
            fn train_batch(&mut self, batch: &Batch) -> f32 {
                self.0.train_batch(batch)
            }
            fn predict(&mut self, batch: &Batch) -> Vec<f32> {
                self.0.predict(batch)
            }
            fn num_params(&mut self) -> usize {
                self.0.num_params()
            }
        }
    };
}

delegate_ctr!(Fm);
delegate_ctr!(FwFm);
delegate_ctr!(FmFm);

/// Sanity helper used by tests: the brute-force pairwise inner-product sum,
/// to validate Rendle's identity.
#[doc(hidden)]
pub fn bruteforce_pair_sum(row: &[f32], m: usize, k: usize) -> f32 {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{evaluate_model, run_model};
    use optinter_data::Profile;

    #[test]
    fn rendle_identity_matches_bruteforce() {
        let m = 4;
        let k = 3;
        let row: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.37).sin()).collect();
        let brute = bruteforce_pair_sum(&row, m, k);
        let mut fast = 0.0f32;
        for c in 0..k {
            let mut s = 0.0f32;
            let mut q = 0.0f32;
            for f in 0..m {
                let v = row[f * k + c];
                s += v;
                q += v * v;
            }
            fast += 0.5 * (s * s - q);
        }
        assert!((brute - fast).abs() < 1e-5, "{brute} vs {fast}");
    }

    #[test]
    fn fm_learns_factorized_structure() {
        let bundle = Profile::Tiny.bundle_with_rows(4000, 7);
        let cfg = BaselineConfig::test_small();
        let mut fm = Fm::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
        let report = run_model(&mut fm, &bundle, &cfg);
        assert!(report.auc > 0.6, "FM AUC {}", report.auc);
    }

    #[test]
    fn fwfm_initialises_to_fm() {
        // With pair weights at 1, FwFM's prediction equals FM's given the
        // same seed (identical embeddings).
        let bundle = Profile::Tiny.bundle_with_rows(300, 8);
        let cfg = BaselineConfig::test_small();
        let mut fm = Fm::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
        let mut fwfm = FwFm::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
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
        let mut fm = Fm::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
        let mut fmfm = FmFm::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
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
        let mut fm = Fm::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
        let mut fwfm = FwFm::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
        let mut fmfm = FmFm::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
        assert!(fm.num_params() < fwfm.num_params());
        assert!(fwfm.num_params() < fmfm.num_params());
    }

    #[test]
    fn fwfm_trains_without_nan() {
        let bundle = Profile::Tiny.bundle_with_rows(2000, 10);
        let cfg = BaselineConfig::test_small();
        let mut model = FwFm::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
        let report = run_model(&mut model, &bundle, &cfg);
        assert!(report.auc.is_finite() && report.log_loss.is_finite());
        assert!(report.auc > 0.55, "FwFM AUC {}", report.auc);
    }

    #[test]
    fn fmfm_trains_without_nan() {
        let bundle = Profile::Tiny.bundle_with_rows(2000, 10);
        let cfg = BaselineConfig::test_small();
        let mut model = FmFm::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
        crate::runner::train_model(&mut model, &bundle, &cfg);
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
