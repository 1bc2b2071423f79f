//! Integration tests spanning the model zoo and the OptInter core: relative
//! orderings that the paper's Table V shapes predict on planted data.

use optinter::core::{train_fixed, Architecture, Method, OptInterConfig};
use optinter::data::{PlantedKind, Profile};
use optinter::models::{build_model, run_model, ModelKind};

fn bundle() -> optinter::data::DatasetBundle {
    Profile::Tiny.bundle_with_rows(5_000, 123)
}

fn bcfg() -> OptInterConfig {
    OptInterConfig {
        seed: 3,
        retrain_epochs: 4,
        ..OptInterConfig::test_small()
    }
}

#[test]
fn every_baseline_beats_chance() {
    let b = bundle();
    let c = bcfg();
    for kind in ModelKind::all() {
        let mut model = build_model(kind, &c, &b.data);
        let report = run_model(model.as_mut(), &b, &c);
        assert!(
            report.auc > 0.55,
            "{} AUC {} does not beat chance",
            kind.name(),
            report.auc
        );
        assert!(report.log_loss.is_finite());
    }
}

#[test]
fn deep_memorized_beats_deep_naive_on_planted_data() {
    // OptInter-M sees strictly more information than the all-naive network
    // (same original embeddings plus the cross features); on data with
    // planted memorized pairs it must win.
    let b = bundle();
    let cfg = OptInterConfig {
        seed: 3,
        ..OptInterConfig::test_small()
    };
    let (_, mem) = train_fixed(
        &b,
        &cfg,
        Architecture::uniform(Method::Memorize, b.data.num_pairs),
    );
    let (_, naive) = train_fixed(
        &b,
        &cfg,
        Architecture::uniform(Method::Naive, b.data.num_pairs),
    );
    assert!(
        mem.auc > naive.auc,
        "OptInter-M ({}) should beat all-naive ({}) on memorization-heavy data",
        mem.auc,
        naive.auc
    );
}

#[test]
fn memorizing_only_planted_pairs_matches_full_memorization() {
    // The oracle architecture memorizes only the planted-memorized pairs;
    // it should be competitive with memorizing everything while using
    // fewer parameters (the paper's efficiency claim).
    let b = bundle();
    let cfg = OptInterConfig {
        seed: 3,
        ..OptInterConfig::test_small()
    };
    let (_, oracle) = train_fixed(&b, &cfg, Architecture::oracle(&b.planted));
    let (_, full) = train_fixed(
        &b,
        &cfg,
        Architecture::uniform(Method::Memorize, b.data.num_pairs),
    );
    assert!(oracle.num_params < full.num_params);
    assert!(
        oracle.auc > full.auc - 0.02,
        "oracle ({}) should be competitive with OptInter-M ({})",
        oracle.auc,
        full.auc
    );
}

#[test]
fn planted_memorized_pairs_have_highest_mutual_information() {
    // The Figure 5 mechanism: memorized planted pairs should carry more
    // label information than no-interaction pairs.
    let b = bundle();
    let train = b.split.train.clone();
    let labels: Vec<f32> = b.data.labels[train.clone()].to_vec();
    let mi_of = |p: usize| {
        let ids: Vec<u32> = train.clone().map(|n| b.data.row_cross(n)[p]).collect();
        optinter::metrics::mutual_information(&ids, &labels)
    };
    let mean_mi = |kind: PlantedKind| {
        let pairs: Vec<usize> = b
            .planted
            .iter()
            .enumerate()
            .filter(|&(_, &k)| k == kind)
            .map(|(p, _)| p)
            .collect();
        pairs.iter().map(|&p| mi_of(p)).sum::<f64>() / pairs.len().max(1) as f64
    };
    let mem = mean_mi(PlantedKind::Memorized);
    let none = mean_mi(PlantedKind::None);
    assert!(
        mem > none,
        "memorized pairs (MI {mem}) should be more informative than none pairs (MI {none})"
    );
}

#[test]
fn autofis_selection_is_subset_of_factorize_naive() {
    let b = bundle();
    let c = bcfg();
    let (report, counts) = optinter::models::autofis::run_autofis(&b, &c);
    assert_eq!(counts[0], 0, "AutoFIS must never memorize");
    assert_eq!(counts[1] + counts[2], b.data.num_pairs);
    assert!(report.auc > 0.55);
}
