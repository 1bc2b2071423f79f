//! Train/serve parity: the frozen, unquantized scorer must reproduce the
//! training-path forward pass **bit-for-bit** at every thread count, and
//! quantized artifacts are only accepted behind the AUC-delta gate.
//!
//! This is the contract that makes the serving tier trustworthy: an
//! artifact that scores even one ULP differently from the trainer would
//! make offline AUC numbers meaningless for the deployed model.

use optinter_core::net::DataDims;
use optinter_core::{Architecture, FactFn, Method, OptInterConfig, OptInterNet};
use optinter_data::{Batch, BatchIter, DatasetBundle, Profile};
use optinter_nn::StoreKind;
use optinter_serve::{freeze, freeze_gated, FreezeError, FrozenModel, FrozenScorer, Quant};

const THREADS: [usize; 3] = [1, 2, 4];

fn bundle() -> DatasetBundle {
    Profile::Tiny.bundle_with_rows(1_500, 23)
}

/// A short mixed-architecture training run (Memorize/Factorize/Naive all
/// present) so embeddings, cross table and MLP all hold trained values.
fn trained_net(bundle: &DatasetBundle, fact_fn: FactFn) -> OptInterNet {
    let dims = DataDims::of(&bundle.data);
    let arch = Architecture::new(
        (0..dims.num_pairs)
            .map(|p| Method::from_index(p % 3))
            .collect(),
    );
    let cfg = OptInterConfig {
        seed: 11,
        num_threads: 1,
        fact_fn,
        ..OptInterConfig::test_small()
    };
    let mut net = OptInterNet::new(cfg, dims, arch);
    for epoch in 0..2u64 {
        for batch in BatchIter::new(&bundle.data, 0..1_000, 128, Some(epoch)) {
            let loss = net.train_batch(&batch);
            assert!(loss.is_finite(), "training loss {loss}");
        }
    }
    net
}

fn bits(probs: &[f32]) -> Vec<u32> {
    probs.iter().map(|p| p.to_bits()).collect()
}

/// Scores `rows` through the training path and through a frozen scorer at
/// each thread count, asserting bitwise equality batch by batch.
fn assert_bit_parity(net: &mut OptInterNet, bundle: &DatasetBundle, batch_size: usize) {
    let frozen = freeze(net, &bundle.data, Quant::F32);
    for &threads in &THREADS {
        let mut scorer = FrozenScorer::new(&frozen, threads).expect("frozen model loads");
        let mut iter = BatchIter::new(&bundle.data, 1_000..1_400, batch_size, None);
        let mut batch = Batch::empty();
        let mut probs = Vec::new();
        let mut batches = 0;
        while iter.next_into(&mut batch) {
            let expected = net.predict(&batch);
            scorer
                .score_into(&batch, &mut probs)
                .expect("valid batch scores");
            assert_eq!(
                bits(&expected),
                bits(&probs),
                "frozen scorer diverges from training forward \
                 (threads {threads}, batch_size {batch_size}, batch {batches})"
            );
            batches += 1;
        }
        assert!(batches > 0);
    }
}

#[test]
fn frozen_f32_scorer_is_bit_identical_to_training_forward() {
    let bundle = bundle();
    let mut net = trained_net(&bundle, FactFn::Generalized);
    // Large batches, micro-batch-sized batches, and single requests.
    assert_bit_parity(&mut net, &bundle, 400);
    assert_bit_parity(&mut net, &bundle, 32);
    assert_bit_parity(&mut net, &bundle, 1);
}

#[test]
fn parity_holds_for_hadamard_and_pointwise_add_factorization() {
    let bundle = bundle();
    for fact_fn in [FactFn::Hadamard, FactFn::PointwiseAdd] {
        let mut net = trained_net(&bundle, fact_fn);
        assert_bit_parity(&mut net, &bundle, 64);
    }
}

#[test]
fn f16_artifact_passes_the_default_auc_gate() {
    let bundle = bundle();
    let mut net = trained_net(&bundle, FactFn::Generalized);
    let (frozen, delta) = freeze_gated(&mut net, &bundle.data, 1_000..1_400, Quant::F16, 0.001)
        .expect("f16 quantization within the default AUC gate");
    assert_eq!(frozen.quant, Quant::F16);
    assert!((0.0..=0.001).contains(&delta), "reported delta {delta}");
    // The gated artifact still scores: finite probabilities in (0, 1).
    let mut scorer = FrozenScorer::new(&frozen, 2).expect("loads");
    let batch = BatchIter::new(&bundle.data, 1_000..1_100, 100, None)
        .next()
        .expect("batch");
    let mut probs = Vec::new();
    scorer
        .score_into(&batch, &mut probs)
        .expect("valid batch scores");
    assert_eq!(probs.len(), 100);
    assert!(probs.iter().all(|p| p.is_finite() && *p > 0.0 && *p < 1.0));
}

#[test]
fn int8_artifact_is_gated_by_auc_delta() {
    let bundle = bundle();
    let mut net = trained_net(&bundle, FactFn::Generalized);
    // A generous ceiling accepts the artifact and reports the true delta.
    let (frozen, delta) = freeze_gated(&mut net, &bundle.data, 1_000..1_400, Quant::Int8, 1.0)
        .expect("int8 freeze under a permissive gate");
    assert_eq!(frozen.quant, Quant::Int8);
    assert!(delta >= 0.0);
    // An impossible ceiling must reject with the typed gate error carrying
    // both AUCs — delta is never negative, so -1.0 always fires.
    match freeze_gated(&mut net, &bundle.data, 1_000..1_400, Quant::Int8, -1.0) {
        Err(FreezeError::AucGate {
            base_auc,
            frozen_auc,
            delta,
            max_delta,
        }) => {
            assert!((0.0..=1.0).contains(&base_auc));
            assert!((0.0..=1.0).contains(&frozen_auc));
            assert!(delta >= 0.0);
            assert_eq!(max_delta, -1.0);
        }
        other => panic!("expected AucGate rejection, got {other:?}"),
    }
}

#[test]
fn unquantized_gate_reports_zero_delta() {
    // Bit parity implies the F32 gate sees *exactly* equal AUCs.
    let bundle = bundle();
    let mut net = trained_net(&bundle, FactFn::Generalized);
    let (_, delta) = freeze_gated(&mut net, &bundle.data, 1_000..1_400, Quant::F32, 0.0)
        .expect("f32 freeze is lossless");
    assert_eq!(delta, 0.0);
}

/// A short training run over hashed embedding stores.
fn trained_hashed_net(
    bundle: &DatasetBundle,
    orig_store: StoreKind,
    cross_store: StoreKind,
) -> OptInterNet {
    let dims = DataDims::of(&bundle.data);
    let arch = Architecture::new(
        (0..dims.num_pairs)
            .map(|p| Method::from_index(p % 3))
            .collect(),
    );
    let cfg = OptInterConfig {
        seed: 11,
        ..OptInterConfig::test_small()
    }
    .with_stores(orig_store, cross_store);
    let mut net = OptInterNet::new(cfg, dims, arch);
    for epoch in 0..2u64 {
        for batch in BatchIter::new(&bundle.data, 0..1_000, 128, Some(epoch)) {
            let loss = net.train_batch(&batch);
            assert!(loss.is_finite(), "training loss {loss}");
        }
    }
    net
}

#[test]
fn hashed_store_artifacts_round_trip_and_score_bit_identically() {
    // The serving side must recompose hashed rows exactly as training
    // did — through the serialized artifact, at every thread count.
    let bundle = bundle();
    for (orig_store, cross_store) in [
        (StoreKind::HashedQr { bucket: 13 }, StoreKind::Dense),
        (
            StoreKind::HashedDouble { rows: 37 },
            StoreKind::HashedQr { bucket: 7 },
        ),
    ] {
        let mut net = trained_hashed_net(&bundle, orig_store, cross_store);
        let frozen = freeze(&mut net, &bundle.data, Quant::F32);
        assert!(frozen.orig_store.is_hashed());
        assert!(
            frozen.row_map.is_empty(),
            "hashed orig store keeps no row_map"
        );
        let bytes = frozen.to_bytes();
        let reloaded = FrozenModel::from_bytes(&bytes).expect("hashed artifact loads");
        assert_eq!(bytes, reloaded.to_bytes(), "byte round trip");
        for &threads in &THREADS {
            let mut scorer = FrozenScorer::new(&reloaded, threads).expect("scorer loads");
            let mut iter = BatchIter::new(&bundle.data, 1_000..1_400, 64, None);
            let mut batch = Batch::empty();
            let mut probs = Vec::new();
            let mut batches = 0;
            while iter.next_into(&mut batch) {
                let expected = net.predict(&batch);
                scorer
                    .score_into(&batch, &mut probs)
                    .expect("in-vocab batch scores");
                assert_eq!(
                    bits(&expected),
                    bits(&probs),
                    "hashed frozen scorer diverges ({orig_store:?}/{cross_store:?}, threads {threads})"
                );
                batches += 1;
            }
            assert!(batches > 0);
        }
    }
}
