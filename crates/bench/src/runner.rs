//! Shared experiment execution: one row of Table V per call.

use crate::configs::optinter_config;
use optinter_core::{
    run_two_stage, train_fixed, Architecture, Method, SearchStrategy, TrainReport,
};
use optinter_data::{DatasetBundle, Profile};
use optinter_models::autofis::run_autofis;
use optinter_models::{build_model, run_model, ModelKind};
use serde::Serialize;

/// One result row (Table V format, plus Table VI counts when available).
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Dataset profile name.
    pub dataset: String,
    /// Model name.
    pub model: String,
    /// Test AUC.
    pub auc: f64,
    /// Test log-loss.
    pub log_loss: f64,
    /// Trainable parameter count.
    pub params: usize,
    /// `[memorize, factorize, naive]` counts (hybrid / OptInter rows only).
    pub arch_counts: Option<[usize; 3]>,
    /// Agreement with the planted ground truth (searched rows only).
    pub planted_agreement: Option<f64>,
}

/// Runs one baseline on a bundle with `threads` data-parallel workers.
pub fn run_baseline_row(
    kind: ModelKind,
    profile: Profile,
    bundle: &DatasetBundle,
    seed: u64,
    threads: usize,
) -> Row {
    let cfg = optinter_config(profile, seed, threads);
    if kind == ModelKind::AutoFis {
        let (report, counts) = run_autofis(bundle, &cfg);
        return Row {
            arch_counts: Some(counts),
            ..report_to_row(profile, kind.name(), &report, bundle)
        };
    }
    let mut model = build_model(kind, &cfg, &bundle.data);
    let report = run_model(model.as_mut(), bundle, &cfg);
    report_to_row(profile, kind.name(), &report, bundle)
}

/// The row of `name`'s report on `profile`, with the architecture's
/// counts and planted agreement when the report has one.
fn report_to_row(
    profile: Profile,
    name: &str,
    report: &TrainReport,
    bundle: &DatasetBundle,
) -> Row {
    let arch = report.architecture.as_ref();
    Row {
        dataset: profile.name().into(),
        model: name.into(),
        auc: report.auc,
        log_loss: report.log_loss,
        params: report.num_params,
        arch_counts: arch.map(Architecture::counts),
        planted_agreement: arch.map(|a| a.agreement_with(&bundle.planted)),
    }
}

/// Runs OptInter-F, OptInter-M and full OptInter (joint search + re-train)
/// on a bundle, returning three rows.
pub fn run_optinter_rows(
    profile: Profile,
    bundle: &DatasetBundle,
    seed: u64,
    threads: usize,
) -> Vec<Row> {
    let cfg = optinter_config(profile, seed, threads);
    let mut rows = Vec::with_capacity(3);
    let (_, rf) = train_fixed(
        bundle,
        &cfg,
        Architecture::uniform(Method::Factorize, bundle.data.num_pairs),
    );
    rows.push(report_to_row(profile, "OptInter-F", &rf, bundle));
    let (_, rm) = train_fixed(
        bundle,
        &cfg,
        Architecture::uniform(Method::Memorize, bundle.data.num_pairs),
    );
    rows.push(report_to_row(profile, "OptInter-M", &rm, bundle));
    let ro = run_two_stage(bundle, &cfg, SearchStrategy::Joint);
    rows.push(report_to_row(profile, "OptInter", &ro, bundle));
    rows
}
