//! The zoo's training and evaluation entry points, on `core::trainer`'s
//! epoch pass, scoring pass and early-stopping rule.

use crate::traits::{BaselineConfig, CtrModel};
use optinter_core::trainer::{early_stopping, epoch_pass, score_pass};
use optinter_data::{BatchStream, DatasetBundle};
use optinter_metrics::{evaluate, EvalResult};
use std::ops::Range;

/// Result of a full train-and-evaluate run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Model name.
    pub model: String,
    /// Test AUC.
    pub auc: f64,
    /// Test log-loss.
    pub log_loss: f64,
    /// Trainable parameter count.
    pub num_params: usize,
    /// Mean training loss of the final epoch.
    pub final_train_loss: f32,
}

/// One epoch over the training split, shuffled per epoch; returns the mean
/// batch loss.
fn train_epoch(
    model: &mut dyn CtrModel,
    bundle: &DatasetBundle,
    cfg: &BaselineConfig,
    epoch: usize,
) -> f32 {
    let seed = cfg.seed.wrapping_add(0xE90C + epoch as u64);
    let train = bundle.split.train.clone();
    let stream = BatchStream::new(&bundle.data, train, cfg.batch_size, Some(seed))
        .with_cross(model.needs_cross())
        .prefetch(cfg.prefetch);
    epoch_pass(stream, |batch| model.train_batch(batch))
}

/// Trains a model on the bundle's training split. Returns the mean training
/// loss of the final epoch.
pub fn train_model(model: &mut dyn CtrModel, bundle: &DatasetBundle, cfg: &BaselineConfig) -> f32 {
    let mut final_loss = 0.0f32;
    for epoch in 0..cfg.epochs.max(1) {
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

/// Trains under `core::trainer::early_stopping` with `cfg.epochs` as the
/// epoch budget, reporting the test metrics of the best-validation epoch.
pub fn run_model(
    model: &mut dyn CtrModel,
    bundle: &DatasetBundle,
    cfg: &BaselineConfig,
) -> RunReport {
    let (final_train_loss, eval) = early_stopping(
        model,
        &bundle.split,
        cfg.epochs,
        |model, epoch| train_epoch(model, bundle, cfg, epoch),
        |model, range| evaluate_model(model, bundle, range, cfg.batch_size),
    );
    RunReport {
        model: model.name().to_string(),
        auc: eval.auc,
        log_loss: eval.log_loss,
        num_params: model.num_params(),
        final_train_loss,
    }
}
