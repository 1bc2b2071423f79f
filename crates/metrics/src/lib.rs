//! Evaluation metrics for CTR prediction (paper Sec. III-A2, III-A5, III-G).
//!
//! - [`auc()`] — tie-aware Area Under the ROC Curve via average ranks;
//! - [`logloss`] — mean binary cross-entropy of predicted probabilities;
//! - [`mutual_info`] — mutual information between a categorical variable
//!   (e.g. a cross-product feature) and the click label (paper Eq. 21),
//!   used for the interpretability analysis of Figs. 5–6;
//! - [`ttest`] — two-tailed Welch and paired t-tests with an own
//!   implementation of the regularized incomplete beta function, matching
//!   the paper's significance methodology (10 repeats, p < 0.005);
//! - [`calibration`] — expected calibration error and reliability tables
//!   (CTR systems consume the probabilities directly, so calibration
//!   matters beyond ranking).

#![forbid(unsafe_code)]

pub mod auc;
pub mod calibration;
pub mod logloss;
pub mod mutual_info;
pub mod ttest;

pub use auc::auc;
pub use calibration::{calibration_ratio, expected_calibration_error, reliability_table};
pub use logloss::log_loss;
pub use mutual_info::{binary_entropy, mutual_information, mutual_information_corrected};
pub use ttest::{paired_t_test, welch_t_test, TTestResult};

/// AUC and log-loss of a prediction set, computed together.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalResult {
    /// Area under the ROC curve.
    pub auc: f64,
    /// Mean binary cross-entropy.
    pub log_loss: f64,
}

/// Evaluates predicted probabilities against binary labels. With no rows
/// the AUC is [`auc()`]'s 0.5 and the log-loss is NaN, where [`log_loss`]
/// itself would panic, so an empty split scores instead of aborting.
pub fn evaluate(probs: &[f32], labels: &[f32]) -> EvalResult {
    EvalResult {
        auc: auc(probs, labels),
        log_loss: if probs.is_empty() {
            f64::NAN
        } else {
            log_loss(probs, labels)
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_combines_both_metrics() {
        let probs = [0.9, 0.1, 0.8, 0.2];
        let labels = [1.0, 0.0, 1.0, 0.0];
        let r = evaluate(&probs, &labels);
        assert!(r.auc > 0.99);
        assert!(r.log_loss < 0.3);
    }

    #[test]
    fn evaluate_of_no_rows_is_half_auc_and_nan_log_loss() {
        let r = evaluate(&[], &[]);
        assert_eq!(r.auc, 0.5);
        assert!(r.log_loss.is_nan());
    }
}
