//! Uniform construction of every model in the zoo.

use crate::autofis::AutoFis;
use crate::deepfm::DeepFm;
use crate::fm::{FmFamily, FmVariant};
use crate::fnn::Fnn;
use crate::lr::Lr;
use crate::pin::Pin;
use crate::pnn::{Pnn, ProductKind};
use crate::poly2::Poly2;
use crate::traits::{BaselineConfig, CtrModel};
use optinter_data::EncodedDataset;

/// Identifier for every baseline the harness can build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Logistic regression.
    Lr,
    /// Deep network over raw embeddings.
    Fnn,
    /// Factorization machine.
    Fm,
    /// Field-weighted FM.
    FwFm,
    /// Field-matrixed FM.
    FmFm,
    /// Inner-product neural network.
    Ipnn,
    /// Outer-product neural network.
    Opnn,
    /// FM + deep network with shared embeddings.
    DeepFm,
    /// Product-network-in-network.
    Pin,
    /// Degree-2 polynomial logistic regression.
    Poly2,
    /// Gated interaction selection (search phase; see
    /// [`run_autofis`](crate::autofis::run_autofis) for the full pipeline).
    AutoFis,
}

impl ModelKind {
    /// The baselines of the paper's Table V, in its row order (the OptInter
    /// variants are built through `optinter-core` instead).
    pub fn table5_baselines() -> [ModelKind; 8] {
        [
            ModelKind::Lr,
            ModelKind::Fnn,
            ModelKind::Fm,
            ModelKind::Ipnn,
            ModelKind::DeepFm,
            ModelKind::Pin,
            ModelKind::Poly2,
            ModelKind::AutoFis,
        ]
    }

    /// Every baseline in the zoo (Table III scope).
    pub fn all() -> [ModelKind; 11] {
        [
            ModelKind::Lr,
            ModelKind::Fnn,
            ModelKind::Fm,
            ModelKind::FwFm,
            ModelKind::FmFm,
            ModelKind::Ipnn,
            ModelKind::Opnn,
            ModelKind::DeepFm,
            ModelKind::Pin,
            ModelKind::Poly2,
            ModelKind::AutoFis,
        ]
    }

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Lr => "LR",
            ModelKind::Fnn => "FNN",
            ModelKind::Fm => "FM",
            ModelKind::FwFm => "FwFM",
            ModelKind::FmFm => "FmFM",
            ModelKind::Ipnn => "IPNN",
            ModelKind::Opnn => "OPNN",
            ModelKind::DeepFm => "DeepFM",
            ModelKind::Pin => "PIN",
            ModelKind::Poly2 => "Poly2",
            ModelKind::AutoFis => "AutoFIS",
        }
    }
}

/// Builds a model of the given kind sized for a dataset.
pub fn build_model(
    kind: ModelKind,
    cfg: &BaselineConfig,
    data: &EncodedDataset,
) -> Box<dyn CtrModel> {
    let vocab = data.orig_vocab;
    let m = data.num_fields;
    match kind {
        ModelKind::Lr => Box::new(Lr::new(cfg, vocab, m)),
        ModelKind::Fnn => Box::new(Fnn::new(cfg, vocab, m)),
        ModelKind::Fm => Box::new(FmFamily::new(FmVariant::Plain, cfg, vocab, m)),
        ModelKind::FwFm => Box::new(FmFamily::new(FmVariant::FieldWeighted, cfg, vocab, m)),
        ModelKind::FmFm => Box::new(FmFamily::new(FmVariant::FieldMatrixed, cfg, vocab, m)),
        ModelKind::Ipnn => Box::new(Pnn::new(ProductKind::Inner, cfg, vocab, m)),
        ModelKind::Opnn => Box::new(Pnn::new(ProductKind::Outer, cfg, vocab, m)),
        ModelKind::DeepFm => Box::new(DeepFm::new(cfg, vocab, m)),
        ModelKind::Pin => Box::new(Pin::new(cfg, vocab, m)),
        ModelKind::Poly2 => Box::new(Poly2::new(cfg, vocab, data.cross_vocab, m, data.num_pairs)),
        ModelKind::AutoFis => Box::new(AutoFis::new(cfg, vocab, m)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinter_data::Profile;

    #[test]
    fn every_model_builds_and_predicts() {
        let bundle = Profile::Tiny.bundle_with_rows(400, 33);
        let cfg = BaselineConfig::test_small();
        let batch = optinter_data::BatchIter::new(&bundle.data, 0..16, 16, None)
            .next()
            .unwrap();
        for kind in ModelKind::all() {
            let mut model = build_model(kind, &cfg, &bundle.data);
            assert_eq!(model.name(), kind.name());
            let probs = model.predict(&batch);
            assert_eq!(probs.len(), 16, "{}", model.name());
            assert!(
                probs
                    .iter()
                    .all(|&p| (0.0..=1.0).contains(&p) && p.is_finite()),
                "{} produced invalid probabilities",
                model.name()
            );
            assert!(model.num_params() > 0);
        }
    }

    #[test]
    fn every_model_takes_a_training_step() {
        let bundle = Profile::Tiny.bundle_with_rows(400, 34);
        let cfg = BaselineConfig::test_small();
        let batch = optinter_data::BatchIter::new(&bundle.data, 0..64, 64, None)
            .next()
            .unwrap();
        for kind in ModelKind::all() {
            let mut model = build_model(kind, &cfg, &bundle.data);
            let loss = model.train_batch(&batch);
            assert!(
                loss.is_finite() && loss > 0.0,
                "{}: loss {loss}",
                model.name()
            );
        }
    }

    #[test]
    fn taxonomy_covers_all_categories() {
        use crate::traits::Category;
        let bundle = Profile::Tiny.bundle_with_rows(300, 35);
        let cfg = BaselineConfig::test_small();
        let mut seen = std::collections::HashSet::new();
        for kind in ModelKind::all() {
            let model = build_model(kind, &cfg, &bundle.data);
            seen.insert(model.taxonomy().category);
        }
        for cat in [
            Category::Naive,
            Category::Memorized,
            Category::Factorized,
            Category::Hybrid,
        ] {
            assert!(seen.contains(&cat), "missing category {cat:?}");
        }
    }
}
