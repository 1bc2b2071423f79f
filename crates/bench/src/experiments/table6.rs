//! Table VI: method selection for different feature interactions —
//! `[memorize, factorize, naive]` counts per model on the three public
//! profiles, plus the planted ground truth for reference (something the
//! paper cannot show on real data, but our synthetic substrate can).

use crate::configs::{optinter_config, ExpOptions};
use crate::report::{save_json, Table};
use optinter_core::{search_architecture, Method, SearchStrategy};
use optinter_data::{PlantedKind, Profile};
use optinter_models::autofis::AutoFis;
use optinter_models::train_model;
use serde::Serialize;

#[derive(Serialize)]
struct JsonRow {
    model: String,
    dataset: String,
    counts: [usize; 3],
    planted_agreement: Option<f64>,
}

fn planted_counts(planted: &[PlantedKind]) -> [usize; 3] {
    let mut c = [0usize; 3];
    for k in planted {
        match k {
            PlantedKind::Memorized => c[0] += 1,
            PlantedKind::Factorized => c[1] += 1,
            PlantedKind::None => c[2] += 1,
        }
    }
    c
}

/// Runs Table VI.
pub fn run(opts: &ExpOptions) {
    println!("\n## Table VI — method selection per model\n");
    let profiles = Profile::public_datasets();
    let mut table = Table::new(&["Method", "criteo_like", "avazu_like", "ipinyou_like"]);
    let mut json = Vec::new();
    let fmt = |c: [usize; 3]| format!("[{},{},{}]", c[0], c[1], c[2]);

    type CountsFn = fn(usize) -> [usize; 3];
    let fixed_rows: [(&str, CountsFn); 3] = [
        ("Naive", |p| [0, 0, p]),
        ("OptInter-M", |p| [p, 0, 0]),
        ("OptInter-F", |p| [0, p, 0]),
    ];
    for (name, counts_fn) in &fixed_rows {
        let mut cells = vec![name.to_string()];
        for profile in profiles {
            let pairs = profile.spec().schema().num_pairs();
            let counts = counts_fn(pairs);
            cells.push(fmt(counts));
            json.push(JsonRow {
                model: name.to_string(),
                dataset: profile.name().into(),
                counts,
                planted_agreement: None,
            });
        }
        table.push(cells);
    }

    // AutoFIS: search phase selects {factorize, naive}.
    let mut cells = vec!["AutoFIS".to_string()];
    for profile in profiles {
        let bundle = opts.bundle(profile);
        let cfg = optinter_config(profile, opts.seed, opts.threads);
        let mut model = AutoFis::new(&cfg, bundle.data.orig_vocab, bundle.data.num_fields);
        train_model(&mut model, &bundle, &cfg);
        let counts = model.selection_counts();
        cells.push(fmt(counts));
        json.push(JsonRow {
            model: "AutoFIS".into(),
            dataset: profile.name().into(),
            counts,
            planted_agreement: None,
        });
    }
    table.push(cells);

    // OptInter: joint search.
    let mut cells = vec!["OptInter".to_string()];
    let mut truth_cells = vec!["(planted truth)".to_string()];
    for profile in profiles {
        let bundle = opts.bundle(profile);
        let cfg = optinter_config(profile, opts.seed, opts.threads);
        let arch = search_architecture(&bundle, &cfg, SearchStrategy::Joint).architecture;
        let counts = arch.counts();
        let agreement = arch.agreement_with(&bundle.planted);
        cells.push(format!("{} (agree {:.2})", fmt(counts), agreement));
        truth_cells.push(fmt(planted_counts(&bundle.planted)));
        json.push(JsonRow {
            model: "OptInter".into(),
            dataset: profile.name().into(),
            counts,
            planted_agreement: Some(agreement),
        });
        // Sanity diagnostics: OptInter should memorize at least one pair
        // and drop at least one pair on every profile.
        let _ = Method::ALL;
    }
    table.push(cells);
    table.push(truth_cells);

    println!("{}", table.render());
    save_json("table6", &json);
}
