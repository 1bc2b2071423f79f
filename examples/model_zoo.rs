//! Model zoo tour: trains every baseline of the paper's Table III on one
//! synthetic dataset and prints a leaderboard with taxonomy metadata.
//!
//! ```bash
//! cargo run --release --example model_zoo
//! ```

use optinter::core::OptInterConfig;
use optinter::data::Profile;
use optinter::models::{build_model, run_model, ModelKind};

fn main() {
    let bundle = Profile::Tiny.bundle_with_rows(10_000, 7);
    let cfg = OptInterConfig {
        orig_dim: 8,
        hidden: vec![32, 16],
        retrain_epochs: 3,
        lr: 5e-3,
        ..OptInterConfig::default()
    };

    println!(
        "{:<8} {:<11} {:<7} {:<22} {:<8} {:>7} {:>9} {:>9}",
        "Model", "Category", "Methods", "Factorization fn", "Clf", "AUC", "LogLoss", "Params"
    );
    let mut results = Vec::new();
    for kind in ModelKind::all() {
        let mut model = build_model(kind, &cfg, &bundle.data);
        let taxonomy = model.taxonomy();
        let report = run_model(model.as_mut(), &bundle, &cfg);
        println!(
            "{:<8} {:<11} {:<7} {:<22} {:<8} {:>7.4} {:>9.4} {:>9}",
            kind.name(),
            taxonomy.category.name(),
            taxonomy.methods,
            taxonomy.factorization_fn,
            taxonomy.classifier,
            report.auc,
            report.log_loss,
            report.num_params
        );
        results.push((kind.name(), report.auc));
    }

    results.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\nLeaderboard (by AUC):");
    for (rank, (name, auc)) in results.iter().enumerate() {
        println!("  {}. {name:<8} {auc:.4}", rank + 1);
    }
}
