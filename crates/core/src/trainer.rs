//! The loops every model trains and scores in, and the two-stage pipeline
//! (search → re-train, paper Algorithms 1–2).
//!
//! Three pieces carry every epoch loop, scoring loop and stopping rule in
//! this crate and the baseline zoo (a frozen model scores through
//! `optinter-serve`'s scorer):
//!
//! - [`epoch_pass`] — one pass of a training closure over a
//!   [`BatchStream`], returning the mean batch loss;
//! - [`score_pass`] — a predict closure's probabilities over a stream,
//!   with the labels in the same order;
//! - [`early_stopping`] — the epoch loop with patience 2 on validation
//!   AUC that DESIGN.md §5 applies to every re-trained model.
//!
//! Each takes the model's calls as closures, so [`OptInterNet`],
//! [`Supernet`] (whose calls take τ) and the zoo's `dyn CtrModel` share
//! them without a common trait.

use crate::arch::Architecture;
use crate::config::OptInterConfig;
use crate::net::{DataDims, OptInterNet};
use crate::search::{search_architecture, SearchStrategy};
use crate::supernet::Supernet;
use optinter_data::{Batch, BatchStream, DatasetBundle, Split};
use optinter_metrics::{evaluate, EvalResult};
use std::ops::Range;

/// Epochs without a validation-AUC improvement after which
/// [`early_stopping`] stops.
const PATIENCE: usize = 2;

/// Outcome of training a model on a bundle.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Test-set AUC.
    pub auc: f64,
    /// Test-set log-loss.
    pub log_loss: f64,
    /// Trainable parameter count of the evaluated model.
    pub num_params: usize,
    /// Mean training loss of the final epoch.
    pub final_train_loss: f32,
    /// The architecture used (when applicable).
    pub architecture: Option<Architecture>,
}

/// Runs `step` on every batch of `stream` and returns the mean of the
/// losses it returns (0 for an empty stream).
pub fn epoch_pass(stream: BatchStream<'_>, mut step: impl FnMut(&Batch) -> f32) -> f32 {
    let mut sum = 0.0f32;
    let mut count = 0usize;
    stream.for_each(|batch| {
        sum += step(batch);
        count += 1;
    });
    sum / count.max(1) as f32
}

/// Runs `predict` on every batch of `stream` and returns the
/// probabilities it gives and the batches' labels, in stream order.
pub fn score_pass(
    stream: BatchStream<'_>,
    mut predict: impl FnMut(&Batch) -> Vec<f32>,
) -> (Vec<f32>, Vec<f32>) {
    let mut probs = Vec::with_capacity(stream.num_rows());
    let mut labels = Vec::with_capacity(stream.num_rows());
    stream.for_each(|batch| {
        probs.extend(predict(batch));
        labels.extend_from_slice(&batch.labels);
    });
    (probs, labels)
}

/// Trains for up to `max_epochs` epochs (at least one) with early stopping
/// on the validation split, and returns the mean training loss of the last
/// epoch run and the test metrics of the best-validation epoch.
///
/// After each `train_epoch(model, epoch)`, `evaluate(model, split.val)`
/// scores the validation rows. An epoch whose AUC beats every earlier one
/// is the new best, and `evaluate(model, split.test)` scores the test rows
/// then. Training stops after two epochs in a row without a new best.
/// When no epoch beats −∞ (a NaN AUC never does), the test rows are
/// scored once, after the last epoch.
pub fn early_stopping<M: ?Sized>(
    model: &mut M,
    split: &Split,
    max_epochs: usize,
    mut train_epoch: impl FnMut(&mut M, usize) -> f32,
    mut evaluate: impl FnMut(&mut M, Range<usize>) -> EvalResult,
) -> (f32, EvalResult) {
    let mut final_loss = 0.0f32;
    let mut best_val = f64::NEG_INFINITY;
    let mut best_test = None;
    let mut since_best = 0usize;
    for epoch in 0..max_epochs.max(1) {
        final_loss = train_epoch(model, epoch);
        let val = evaluate(model, split.val.clone());
        if val.auc > best_val {
            best_val = val.auc;
            best_test = Some(evaluate(model, split.test.clone()));
            since_best = 0;
        } else {
            since_best += 1;
            if since_best >= PATIENCE {
                break;
            }
        }
    }
    let test = best_test.unwrap_or_else(|| evaluate(model, split.test.clone()));
    (final_loss, test)
}

/// Evaluates a fixed-architecture network over a row range.
pub fn evaluate_net(
    net: &mut OptInterNet,
    bundle: &DatasetBundle,
    range: Range<usize>,
    batch_size: usize,
) -> EvalResult {
    let stream =
        BatchStream::new(&bundle.data, range, batch_size, None).prefetch(net.config().prefetch);
    let (probs, labels) = score_pass(stream, |batch| net.predict(batch));
    evaluate(&probs, &labels)
}

/// Evaluates a supernet (soft architecture, no re-train) over a row range —
/// the Table IX "without re-train" condition.
pub fn evaluate_supernet(
    net: &mut Supernet,
    bundle: &DatasetBundle,
    range: Range<usize>,
    batch_size: usize,
    tau: f32,
) -> EvalResult {
    let stream =
        BatchStream::new(&bundle.data, range, batch_size, None).prefetch(net.config().prefetch);
    let (probs, labels) = score_pass(stream, |batch| net.predict(batch, tau));
    evaluate(&probs, &labels)
}

/// Trains a fixed architecture from scratch (Algorithm 2) under
/// [`early_stopping`], with `cfg.retrain_epochs` as the epoch budget, and
/// reports the test metrics of the best-validation epoch. Returns the
/// network as it stands after the last epoch run, which can be up to two
/// epochs past that best one, and the report.
///
/// Deep CTR models at this data scale overfit quickly, so every model —
/// baseline or OptInter — is trained under the same rule.
pub fn train_fixed(
    bundle: &DatasetBundle,
    cfg: &OptInterConfig,
    architecture: Architecture,
) -> (OptInterNet, TrainReport) {
    let mut net = OptInterNet::new(cfg.clone(), DataDims::of(&bundle.data), architecture);
    let (final_train_loss, eval) = early_stopping(
        &mut net,
        &bundle.split,
        cfg.retrain_epochs,
        |net, epoch| {
            let seed = cfg.seed.wrapping_add(0x5EED + epoch as u64);
            let train = bundle.split.train.clone();
            let stream = BatchStream::new(&bundle.data, train, cfg.batch_size, Some(seed));
            epoch_pass(stream.prefetch(cfg.prefetch), |batch| {
                net.train_batch(batch)
            })
        },
        |net, range| evaluate_net(net, bundle, range, cfg.batch_size),
    );
    let report = TrainReport {
        auc: eval.auc,
        log_loss: eval.log_loss,
        num_params: net.num_params(),
        final_train_loss,
        architecture: Some(net.architecture().clone()),
    };
    (net, report)
}

/// The full OptInter pipeline: search stage (Algorithm 1 or an ablation
/// strategy) followed by re-training from scratch (Algorithm 2).
pub fn run_two_stage(
    bundle: &DatasetBundle,
    cfg: &OptInterConfig,
    strategy: SearchStrategy,
) -> TrainReport {
    let outcome = search_architecture(bundle, cfg, strategy);
    let (_, report) = train_fixed(bundle, cfg, outcome.architecture);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Method;
    use optinter_data::Profile;

    /// A model whose epoch `e` (from 1) scores `val_aucs[e - 1]` on the
    /// validation rows, and that records the epochs the test rows are
    /// scored after.
    struct Scripted {
        val_aucs: Vec<f64>,
        epochs: usize,
        tested_after: Vec<usize>,
    }

    /// Runs [`early_stopping`] on a script; returns the model, the final
    /// loss (the epoch index plus 0.5) and the reported test AUC (the epoch
    /// it was scored after).
    fn run_script(val_aucs: &[f64], max_epochs: usize) -> (Scripted, f32, f64) {
        let split = Split {
            train: 0..10,
            val: 10..20,
            test: 20..30,
        };
        let mut model = Scripted {
            val_aucs: val_aucs.to_vec(),
            epochs: 0,
            tested_after: Vec::new(),
        };
        let (loss, test) = early_stopping(
            &mut model,
            &split,
            max_epochs,
            |m, epoch| {
                m.epochs += 1;
                epoch as f32 + 0.5
            },
            |m, range| {
                let auc = if range == split.val {
                    m.val_aucs[m.epochs - 1]
                } else {
                    m.tested_after.push(m.epochs);
                    m.epochs as f64
                };
                EvalResult { auc, log_loss: 0.0 }
            },
        );
        (model, loss, test.auc)
    }

    #[test]
    fn early_stopping_keeps_the_best_validation_epoch() {
        // Two epochs without a new best stop training.
        let (m, loss, auc) = run_script(&[0.6, 0.7, 0.65, 0.68, 0.9], 10);
        assert_eq!(m.epochs, 4);
        assert_eq!(m.tested_after, [1, 2], "scored at each new best only");
        assert_eq!((loss, auc), (3.5, 2.0));
        // A new best resets the count.
        let (m, _, auc) = run_script(&[0.6, 0.5, 0.7, 0.6, 0.5, 0.9], 10);
        assert_eq!(m.epochs, 5);
        assert_eq!(m.tested_after, [1, 3]);
        assert_eq!(auc, 3.0);
        // The budget ends an improving run.
        let (m, loss, auc) = run_script(&[0.1, 0.2, 0.3, 0.4], 3);
        assert_eq!((m.epochs, loss, auc), (3, 2.5, 3.0));
        // A NaN validation AUC never beats -inf: two epochs, then one test
        // evaluation of the final model.
        let (m, loss, auc) = run_script(&[f64::NAN; 5], 10);
        assert_eq!(m.epochs, 2);
        assert_eq!(m.tested_after, [2]);
        assert_eq!((loss, auc), (1.5, 2.0));
        // A budget of 0 still trains one epoch.
        let (m, loss, auc) = run_script(&[0.6], 0);
        assert_eq!((m.epochs, loss, auc), (1, 0.5, 1.0));
        assert_eq!(m.tested_after, [1]);
    }

    #[test]
    fn passes_cover_every_row_in_stream_order() {
        let bundle = Profile::Tiny.bundle_with_rows(300, 5);
        let stream = || BatchStream::new(&bundle.data, 0..257, 10, Some(3));
        // 25 batches of 10 rows and one of 7.
        let mean = epoch_pass(stream(), |batch| batch.len() as f32);
        assert_eq!(mean, 257.0 / 26.0);
        let empty = BatchStream::new(&bundle.data, 0..0, 10, None);
        assert_eq!(epoch_pass(empty, |_| 1.0), 0.0);
        let mut labels = Vec::new();
        stream().for_each(|batch| labels.extend_from_slice(&batch.labels));
        let (probs, scored) = score_pass(stream(), |batch| batch.labels.clone());
        assert_eq!(scored, labels);
        assert_eq!(probs, labels);
    }

    fn setup() -> (DatasetBundle, OptInterConfig) {
        let bundle = Profile::Tiny.bundle_with_rows(2500, 31);
        let cfg = OptInterConfig {
            seed: 2,
            retrain_epochs: 2,
            ..OptInterConfig::test_small()
        };
        (bundle, cfg)
    }

    #[test]
    fn fixed_training_beats_chance() {
        let (bundle, cfg) = setup();
        let arch = Architecture::uniform(Method::Memorize, bundle.data.num_pairs);
        let (_, report) = train_fixed(&bundle, &cfg, arch);
        assert!(report.auc > 0.6, "AUC {} too low", report.auc);
        assert!(report.log_loss < 0.8);
        assert!(report.num_params > 0);
    }

    #[test]
    fn two_stage_pipeline_runs() {
        let (bundle, cfg) = setup();
        let report = run_two_stage(&bundle, &cfg, SearchStrategy::Joint);
        assert!(report.auc > 0.55, "AUC {}", report.auc);
        assert!(report.architecture.is_some());
    }

    #[test]
    fn oracle_architecture_performs_well() {
        let (bundle, cfg) = setup();
        let oracle = Architecture::oracle(&bundle.planted);
        let (_, report) = train_fixed(&bundle, &cfg, oracle);
        assert!(report.auc > 0.65, "oracle AUC {}", report.auc);
    }

    /// [`setup`]'s config, and `Tiny.bundle_with_rows(2000, 3)` with no
    /// validation rows.
    fn setup_without_validation() -> (DatasetBundle, OptInterConfig) {
        let mut bundle = Profile::Tiny.bundle_with_rows(2000, 3);
        bundle.split.val = bundle.split.val.start..bundle.split.val.start;
        (bundle, setup().1)
    }

    #[test]
    fn fixed_training_without_validation_rows_scores_the_test_split() {
        let (bundle, cfg) = setup_without_validation();
        let arch = Architecture::uniform(Method::Memorize, bundle.data.num_pairs);
        let (_, report) = train_fixed(&bundle, &cfg, arch);
        assert!(report.auc.is_finite() && report.log_loss.is_finite());
    }

    #[test]
    fn two_stage_without_validation_rows_scores_the_test_split() {
        let (bundle, cfg) = setup_without_validation();
        let report = run_two_stage(&bundle, &cfg, SearchStrategy::Joint);
        assert!(report.auc.is_finite() && report.log_loss.is_finite());
    }

    #[test]
    fn retraining_is_deterministic() {
        let (bundle, cfg) = setup();
        let arch = Architecture::uniform(Method::Factorize, bundle.data.num_pairs);
        let (_, r1) = train_fixed(&bundle, &cfg, arch.clone());
        let (_, r2) = train_fixed(&bundle, &cfg, arch);
        assert_eq!(r1.auc, r2.auc);
        assert_eq!(r1.log_loss, r2.log_loss);
    }
}
