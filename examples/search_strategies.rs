//! Search-strategy comparison (the paper's Table VIII ablation, in miniature):
//! random assignment vs DARTS-style bi-level optimization vs the paper's
//! joint update of network weights and architecture parameters.
//!
//! ```bash
//! cargo run --release --example search_strategies
//! ```

use optinter::core::{search_architecture, train_fixed, OptInterConfig, SearchStrategy};
use optinter::data::Profile;
use std::time::Instant;

fn main() {
    let bundle = Profile::Tiny.bundle_with_rows(10_000, 11);
    let cfg = OptInterConfig {
        orig_dim: 8,
        cross_dim: 6,
        hidden: vec![32, 16],
        search_epochs: 2,
        ..OptInterConfig::default()
    };

    println!(
        "{:<22} {:>7} {:>9} {:>12} {:>14} {:>8}",
        "Strategy", "AUC", "LogLoss", "Arch[m,f,n]", "Truth-agree", "Time"
    );
    for (name, strategy) in [
        ("Random (seed 0)", SearchStrategy::Random { seed: 0 }),
        ("Random (seed 1)", SearchStrategy::Random { seed: 1 }),
        ("Bi-level (DARTS-style)", SearchStrategy::BiLevel),
        ("Joint (OptInter)", SearchStrategy::Joint),
    ] {
        // lint: allow(wall-clock, reason="timing column of the demo table; not part of any reproducible result")
        let t0 = Instant::now();
        let outcome = search_architecture(&bundle, &cfg, strategy);
        let agreement = outcome.architecture.agreement_with(&bundle.planted);
        let (_, report) = train_fixed(&bundle, &cfg, outcome.architecture.clone());
        println!(
            "{:<22} {:>7.4} {:>9.4} {:>12} {:>13.0}% {:>8.1?}",
            name,
            report.auc,
            report.log_loss,
            outcome.architecture.counts_string(),
            100.0 * agreement,
            t0.elapsed()
        );
    }

    // The oracle reference: the architecture an all-knowing search would pick.
    let oracle = optinter::core::Architecture::oracle(&bundle.planted);
    let (_, report) = train_fixed(&bundle, &cfg, oracle.clone());
    println!(
        "{:<22} {:>7.4} {:>9.4} {:>12} {:>13.0}%",
        "Oracle (planted truth)",
        report.auc,
        report.log_loss,
        oracle.counts_string(),
        100.0
    );
}
