//! Table VII: comparison with naïve and factorized models given roughly the
//! same parameter budget as OptInter — the paper enlarges the baselines'
//! embedding sizes until their parameter counts match, and shows that the
//! extra capacity does not close the gap.

use crate::configs::{optinter_config, ExpOptions};
use crate::report::{format_params, save_json, Table};
use optinter_core::{run_two_stage, OptInterConfig, SearchStrategy};
use optinter_data::Profile;
use optinter_models::{build_model, run_model, ModelKind};
use serde::Serialize;

#[derive(Serialize)]
struct JsonRow {
    dataset: String,
    model: String,
    embed_dim: usize,
    auc: f64,
    log_loss: f64,
    params: usize,
}

/// Runs Table VII on the Criteo- and Avazu-like profiles.
pub fn run(opts: &ExpOptions) {
    println!("\n## Table VII — equal-parameter comparison\n");
    let mut json = Vec::new();
    for profile in [Profile::CriteoLike, Profile::AvazuLike] {
        let bundle = opts.bundle(profile);
        // OptInter reference run.
        let ocfg = optinter_config(profile, opts.seed, opts.threads);
        let oreport = run_two_stage(&bundle, &ocfg, SearchStrategy::Joint);
        // Enlarge baseline embeddings until the (embedding-dominated)
        // parameter count matches OptInter's.
        let vocab = bundle.data.orig_vocab as usize;
        let enlarged_dim = (oreport.num_params / vocab).max(ocfg.orig_dim + 1);
        let mut table = Table::new(&["Model", "AUC", "Log loss", "Orig.E.", "Cross.E.", "Param."]);
        for kind in [
            ModelKind::Fm,
            ModelKind::Fnn,
            ModelKind::Ipnn,
            ModelKind::DeepFm,
        ] {
            let cfg = OptInterConfig {
                orig_dim: enlarged_dim,
                ..ocfg.clone()
            };
            let mut model = build_model(kind, &cfg, &bundle.data);
            let r = run_model(model.as_mut(), &bundle, &cfg);
            table.push(vec![
                kind.name().into(),
                format!("{:.4}", r.auc),
                format!("{:.4}", r.log_loss),
                enlarged_dim.to_string(),
                "0".into(),
                format_params(r.num_params),
            ]);
            json.push(JsonRow {
                dataset: profile.name().into(),
                model: kind.name().into(),
                embed_dim: enlarged_dim,
                auc: r.auc,
                log_loss: r.log_loss,
                params: r.num_params,
            });
        }
        table.push(vec![
            "OptInter".into(),
            format!("{:.4}", oreport.auc),
            format!("{:.4}", oreport.log_loss),
            ocfg.orig_dim.to_string(),
            ocfg.cross_dim.to_string(),
            format_params(oreport.num_params),
        ]);
        json.push(JsonRow {
            dataset: profile.name().into(),
            model: "OptInter".into(),
            embed_dim: ocfg.orig_dim,
            auc: oreport.auc,
            log_loss: oreport.log_loss,
            params: oreport.num_params,
        });
        println!(
            "### {} (baseline embeddings enlarged to {})\n",
            profile.name(),
            enlarged_dim
        );
        println!("{}", table.render());
    }
    save_json("table7", &json);
}
