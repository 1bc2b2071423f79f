//! Train/serve parity: the frozen, unquantized scorer must reproduce the
//! training-path forward pass **bit-for-bit** at every thread count, and
//! quantized artifacts are only accepted behind the AUC-delta gate.
//!
//! This is the contract that makes the serving tier trustworthy: an
//! artifact that scores even one ULP differently from the trainer would
//! make offline AUC numbers meaningless for the deployed model. It holds
//! across kernel backends too, since both compute one numeric contract.

use optinter_core::net::DataDims;
use optinter_core::{Architecture, FactFn, Method, OptInterConfig, OptInterNet};
use optinter_data::{Batch, BatchIter, DatasetBundle, Profile};
use optinter_nn::StoreKind;
use optinter_serve::{freeze, freeze_gated, FreezeError, FrozenModel, FrozenScorer, Quant};
use optinter_tensor::kernels::{self, Backend};
use std::ops::Range;

const THREADS: [usize; 3] = [1, 2, 4];

/// Held-out rows scored as one batch big enough to pool the embedding
/// lookups and the hashed compose.
const POOLED_ROWS: Range<usize> = 1_000..1_500;

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
fn assert_bit_parity(
    net: &mut OptInterNet,
    bundle: &DatasetBundle,
    rows: Range<usize>,
    batch_size: usize,
) {
    let frozen = freeze(net, &bundle.data, Quant::F32);
    for &threads in &THREADS {
        let mut scorer = FrozenScorer::new(&frozen, threads).expect("frozen model loads");
        let mut iter = BatchIter::new(&bundle.data, rows.clone(), batch_size, None);
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
    assert_bit_parity(&mut net, &bundle, 1_000..1_400, 400);
    assert_bit_parity(&mut net, &bundle, 1_000..1_400, 32);
    assert_bit_parity(&mut net, &bundle, 1_000..1_400, 1);
    // 500 rows of 6 fields x 6 dims cross the lookups' pooling threshold
    // (16,384 scalars), so the pooled lookup runs at 2 and 4 threads.
    assert_bit_parity(&mut net, &bundle, POOLED_ROWS, POOLED_ROWS.len());
}

/// Trains and freezes under one kernel backend, then scores under the
/// other, both ways: every batch must carry the training forward's bits.
/// The other tests in this binary run concurrently with the backend
/// switches, which is sound only because no switch changes a bit.
#[test]
fn frozen_scorer_is_bit_identical_across_kernel_backends() {
    let bundle = bundle();
    let pairs = if Backend::AvxFma.is_supported() {
        vec![
            (Backend::AvxFma, Backend::Scalar),
            (Backend::Scalar, Backend::AvxFma),
        ]
    } else {
        eprintln!("no avx2fma on this host: trained, froze and scored under scalar only");
        vec![(Backend::Scalar, Backend::Scalar)]
    };
    let prev = kernels::set_active(pairs[0].0);
    for (train_with, score_with) in pairs {
        kernels::set_active(train_with);
        let mut net = trained_net(&bundle, FactFn::Generalized);
        let frozen = freeze(&mut net, &bundle.data, Quant::F32);
        let mut iter = BatchIter::new(&bundle.data, 1_000..1_400, 32, None);
        let mut batch = Batch::empty();
        let mut batches = Vec::new();
        while iter.next_into(&mut batch) {
            batches.push((batch.clone(), net.predict(&batch)));
        }
        assert!(!batches.is_empty());
        kernels::set_active(score_with);
        for &threads in &THREADS {
            let mut scorer = FrozenScorer::new(&frozen, threads).expect("frozen model loads");
            let mut probs = Vec::new();
            for (i, (batch, expected)) in batches.iter().enumerate() {
                scorer
                    .score_into(batch, &mut probs)
                    .expect("valid batch scores");
                assert_eq!(
                    bits(expected),
                    bits(&probs),
                    "frozen under {} and scored under {} diverges from the training forward \
                     (threads {threads}, batch {i})",
                    train_with.name(),
                    score_with.name()
                );
            }
        }
    }
    kernels::set_active(prev);
}

#[test]
fn parity_holds_for_hadamard_and_pointwise_add_factorization() {
    let bundle = bundle();
    for fact_fn in [FactFn::Hadamard, FactFn::PointwiseAdd] {
        let mut net = trained_net(&bundle, fact_fn);
        assert_bit_parity(&mut net, &bundle, 1_000..1_400, 64);
    }
}

#[test]
fn f16_artifact_passes_the_default_auc_gate() {
    let bundle = bundle();
    let mut net = trained_net(&bundle, FactFn::Generalized);
    let f32_model = freeze(&mut net, &bundle.data, Quant::F32);
    let (frozen, delta) = freeze_gated(f32_model, &bundle.data, 1_000..1_400, Quant::F16, 0.001)
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
    let f32_model = freeze(&mut net, &bundle.data, Quant::F32);
    // A generous ceiling accepts the artifact and reports the true delta.
    let (frozen, delta) = freeze_gated(
        f32_model.clone(),
        &bundle.data,
        1_000..1_400,
        Quant::Int8,
        1.0,
    )
    .expect("int8 freeze under a permissive gate");
    assert_eq!(frozen.quant, Quant::Int8);
    assert!(delta >= 0.0);
    // An impossible ceiling must reject with the typed gate error carrying
    // both AUCs — delta is never negative, so -1.0 always fires.
    match freeze_gated(f32_model, &bundle.data, 1_000..1_400, Quant::Int8, -1.0) {
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
    let f32_model = freeze(&mut net, &bundle.data, Quant::F32);
    let (_, delta) = freeze_gated(f32_model, &bundle.data, 1_000..1_400, Quant::F32, 0.0)
        .expect("f32 freeze is lossless");
    assert_eq!(delta, 0.0);
}

/// The CLI quantizes a decoded f32 artifact, its model file. That must
/// give a direct freeze's bytes, with dense and with hashed stores, and a
/// quantized model must not be re-quantized at all.
#[test]
fn gated_requantization_of_the_f32_file_matches_a_direct_freeze() {
    let bundle = bundle();
    let dense = trained_net(&bundle, FactFn::Generalized);
    let hashed = trained_hashed_net(
        &bundle,
        StoreKind::HashedQr { bucket: 13 },
        StoreKind::HashedDouble { rows: 29 },
    );
    for mut net in [dense, hashed] {
        let file = freeze(&mut net, &bundle.data, Quant::F32).to_bytes();
        for quant in [Quant::F16, Quant::Int8] {
            let model = FrozenModel::from_bytes(&file).expect("the f32 file decodes");
            let (gated, _) = freeze_gated(model, &bundle.data, 1_000..1_400, quant, 1.0)
                .expect("a permissive gate accepts");
            let mut direct = freeze(&mut net, &bundle.data, quant);
            // The backend byte names the process-wide kernel switch, which
            // another test in this binary flips meanwhile.
            direct.backend = gated.backend;
            assert!(
                gated.to_bytes() == direct.to_bytes(),
                "{quant:?}: re-quantized bytes differ from a direct freeze"
            );
            match freeze_gated(gated, &bundle.data, 1_000..1_400, Quant::F16, 1.0) {
                Err(FreezeError::Quantized(q)) => assert_eq!(q, quant),
                other => panic!("a {quant:?} model was re-quantized: {other:?}"),
            }
        }
    }
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
            for (rows, batch_size) in [(1_000..1_400, 64), (POOLED_ROWS, POOLED_ROWS.len())] {
                let mut iter = BatchIter::new(&bundle.data, rows, batch_size, None);
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
                        "hashed frozen scorer diverges ({orig_store:?}/{cross_store:?}, \
                         threads {threads}, batch_size {batch_size})"
                    );
                    batches += 1;
                }
                assert!(batches > 0);
            }
        }
    }
}
