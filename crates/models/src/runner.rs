//! The zoo's training and evaluation entry points, on `core::trainer`'s
//! epoch pass, scoring pass and early-stopping rule.

use crate::traits::CtrModel;
use optinter_core::trainer::{early_stopping, epoch_pass, score_pass};
use optinter_core::{OptInterConfig, TrainReport};
use optinter_data::{BatchStream, DatasetBundle};
use optinter_metrics::{evaluate, EvalResult};
use std::ops::Range;

/// One epoch over the training split, shuffled per epoch; returns the mean
/// batch loss.
fn train_epoch(
    model: &mut dyn CtrModel,
    bundle: &DatasetBundle,
    cfg: &OptInterConfig,
    epoch: usize,
) -> f32 {
    let seed = cfg.seed.wrapping_add(0xE90C + epoch as u64);
    let train = bundle.split.train.clone();
    let stream = BatchStream::new(&bundle.data, train, cfg.batch_size, Some(seed))
        .with_cross(model.needs_cross())
        .prefetch(cfg.prefetch);
    epoch_pass(stream, |batch| model.train_batch(batch))
}

/// Trains a model on the bundle's training split for `cfg.retrain_epochs`
/// epochs (at least one). Returns the mean training loss of the final
/// epoch.
pub fn train_model(model: &mut dyn CtrModel, bundle: &DatasetBundle, cfg: &OptInterConfig) -> f32 {
    let mut final_loss = 0.0f32;
    for epoch in 0..cfg.retrain_epochs.max(1) {
        final_loss = train_epoch(model, bundle, cfg, epoch);
    }
    final_loss
}

/// Evaluates a model over a row range.
pub fn evaluate_model(
    model: &mut dyn CtrModel,
    bundle: &DatasetBundle,
    range: Range<usize>,
    batch_size: usize,
) -> EvalResult {
    // No config reaches this signature, so evaluation stays on the caller
    // thread (the recycled-buffer serial path of the stream).
    let stream = BatchStream::new(&bundle.data, range, batch_size, None)
        .with_cross(model.needs_cross())
        .prefetch(false);
    let (probs, labels) = score_pass(stream, |batch| model.predict(batch));
    evaluate(&probs, &labels)
}

/// Trains under `core::trainer::early_stopping` with `cfg.retrain_epochs`
/// as the epoch budget, reporting the test metrics of the best-validation
/// epoch. A zoo model has no [`Architecture`](optinter_core::Architecture),
/// so the report's is `None`.
pub fn run_model(
    model: &mut dyn CtrModel,
    bundle: &DatasetBundle,
    cfg: &OptInterConfig,
) -> TrainReport {
    let (final_train_loss, eval) = early_stopping(
        model,
        &bundle.split,
        cfg.retrain_epochs,
        |model, epoch| train_epoch(model, bundle, cfg, epoch),
        |model, range| evaluate_model(model, bundle, range, cfg.batch_size),
    );
    TrainReport {
        auc: eval.auc,
        log_loss: eval.log_loss,
        num_params: model.num_params(),
        final_train_loss,
        architecture: None,
    }
}

/// `OptInterConfig::test_small` with the zoo's 2-epoch test budget.
#[cfg(test)]
pub(crate) fn test_config() -> OptInterConfig {
    OptInterConfig {
        retrain_epochs: 2,
        ..OptInterConfig::test_small()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{build_model, ModelKind};
    use optinter_data::Profile;

    #[test]
    fn run_model_without_validation_rows_scores_the_test_split() {
        let mut bundle = Profile::Tiny.bundle_with_rows(2000, 3);
        bundle.split.val = bundle.split.val.start..bundle.split.val.start;
        let cfg = test_config();
        let mut model = build_model(ModelKind::Fnn, &cfg, &bundle.data);
        let report = run_model(model.as_mut(), &bundle, &cfg);
        assert!(report.auc.is_finite() && report.log_loss.is_finite());
    }
}
