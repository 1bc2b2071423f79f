//! Typed error surface of the serving tier: a scorer fed ids it did not
//! mint must reject them with a [`ScoreError`] — never panic — for both
//! dense and hashed embedding stores, and the micro-batching front door
//! must keep serving valid requests around a malformed one.

use optinter_core::net::DataDims;
use optinter_core::{Architecture, Method, OptInterConfig, OptInterNet};
use optinter_data::{Batch, DatasetBundle, Profile};
use optinter_nn::StoreKind;
use optinter_serve::{
    freeze, serve, ArtifactError, FrozenModel, FrozenScorer, MicroBatchOptions, MonotonicClock,
    Quant, ScoreError, TensorData,
};
use optinter_tensor::Matrix;

fn bundle() -> DatasetBundle {
    Profile::Tiny.bundle_with_rows(600, 5)
}

fn scorer_for(
    bundle: &DatasetBundle,
    orig_store: StoreKind,
    cross_store: StoreKind,
) -> FrozenScorer {
    let frozen = frozen_for(bundle, orig_store, cross_store);
    FrozenScorer::new(&frozen, 1).expect("frozen model loads")
}

fn frozen_for(
    bundle: &DatasetBundle,
    orig_store: StoreKind,
    cross_store: StoreKind,
) -> FrozenModel {
    let dims = DataDims::of(&bundle.data);
    let arch = Architecture::new(
        (0..dims.num_pairs)
            .map(|p| Method::from_index(p % 3))
            .collect(),
    );
    let cfg = OptInterConfig {
        seed: 3,
        ..OptInterConfig::test_small()
    }
    .with_stores(orig_store, cross_store);
    let mut net = OptInterNet::new(cfg, dims, arch);
    freeze(&mut net, &bundle.data, Quant::F32)
}

fn stores() -> [(StoreKind, StoreKind); 2] {
    [
        (StoreKind::Dense, StoreKind::Dense),
        (
            StoreKind::HashedQr { bucket: 11 },
            StoreKind::HashedDouble { rows: 17 },
        ),
    ]
}

#[test]
fn out_of_range_field_id_is_a_typed_error_not_a_panic() {
    let bundle = bundle();
    for (orig, cross) in stores() {
        let mut scorer = scorer_for(&bundle, orig, cross);
        let vocab = scorer.dims().orig_vocab;
        let mut fields = bundle.data.row_fields(0).to_vec();
        fields[2] = vocab + 41; // beyond the frozen key space
        let mut batch = Batch::empty();
        batch.begin(bundle.data.num_fields, bundle.data.num_pairs);
        batch.push_row(&fields, bundle.data.row_cross(0), 0.0);
        let mut probs = vec![0.5];
        match scorer.score_into(&batch, &mut probs) {
            Err(ScoreError::FieldIdOutOfRange {
                row,
                field,
                id,
                key_space,
            }) => {
                assert_eq!((row, field), (0, 2));
                assert_eq!(id, vocab + 41);
                assert_eq!(key_space, vocab);
            }
            other => panic!("expected FieldIdOutOfRange ({orig:?}), got {other:?}"),
        }
        assert!(probs.is_empty(), "rejected batch must leave out cleared");
        // The scorer survives the rejection and still scores valid rows.
        batch.begin(bundle.data.num_fields, bundle.data.num_pairs);
        batch.push_row(bundle.data.row_fields(0), bundle.data.row_cross(0), 0.0);
        scorer
            .score_into(&batch, &mut probs)
            .expect("valid batch scores after a rejection");
        assert_eq!(probs.len(), 1);
        assert!(probs[0].is_finite());
    }
}

#[test]
fn cross_id_outside_its_pair_block_is_a_typed_error() {
    let bundle = bundle();
    for (orig, cross_kind) in stores() {
        let mut scorer = scorer_for(&bundle, orig, cross_kind);
        // Find a memorized pair (arch cycles M/F/N, so pair 0 memorizes).
        let dims = scorer.dims().clone();
        let mut cross = bundle.data.row_cross(0).to_vec();
        cross[0] = dims.pair_offsets[0] + dims.pair_vocab_sizes[0]; // one past the block
        let mut batch = Batch::empty();
        batch.begin(bundle.data.num_fields, bundle.data.num_pairs);
        batch.push_row(bundle.data.row_fields(0), &cross, 0.0);
        let mut probs = Vec::new();
        match scorer.score_into(&batch, &mut probs) {
            Err(ScoreError::CrossIdOutOfRange {
                row,
                pair,
                id,
                lo,
                hi,
            }) => {
                assert_eq!((row, pair), (0, 0));
                assert_eq!(id, hi);
                assert!(lo < hi);
            }
            other => panic!("expected CrossIdOutOfRange, got {other:?}"),
        }
    }
}

#[test]
fn hashed_store_over_an_empty_key_space_is_a_typed_error_not_a_panic() {
    // Decode accepts a hashed original store over zero ids with a 0-row
    // first sub-table; loading it must answer with an error.
    let bundle = bundle();
    let mut frozen = frozen_for(
        &bundle,
        StoreKind::HashedQr { bucket: 11 },
        StoreKind::HashedDouble { rows: 17 },
    );
    frozen.dims.orig_vocab = 0;
    let (_, t1) = frozen
        .tensors
        .iter_mut()
        .find(|(name, _)| name == "e_orig.t1")
        .expect("a hashed original store has a first sub-table");
    *t1 = TensorData::F32(Matrix::zeros(0, frozen.orig_dim));
    let model = FrozenModel::from_bytes(&frozen.to_bytes()).expect("the artifact decodes");
    match FrozenScorer::new(&model, 1) {
        Err(ArtifactError::Corrupt(why)) => assert!(why.contains("empty key space"), "{why}"),
        Err(other) => panic!("expected a corrupt-artifact error, got {other}"),
        Ok(_) => panic!("a hashed store over no ids loaded"),
    }
}

#[test]
fn pair_block_past_the_cross_id_space_is_a_corrupt_artifact() {
    // A pair block at offset u32::MAX - 1 wraps `offset + size`; decode
    // must reject it rather than hand the scorer a block it cannot check
    // ids against.
    let bundle = bundle();
    let mut frozen = frozen_for(&bundle, StoreKind::Dense, StoreKind::Dense);
    assert!(frozen.dims.pair_vocab_sizes[0] >= 2);
    frozen.dims.pair_offsets[0] = u32::MAX - 1;
    match FrozenModel::from_bytes(&frozen.to_bytes()) {
        Err(ArtifactError::Corrupt(why)) => assert!(why.contains("pair 0"), "{why}"),
        Err(other) => panic!("expected a corrupt-artifact error, got {other}"),
        Ok(_) => panic!("a pair block past u32::MAX decoded"),
    }
}

#[test]
fn missing_cross_and_bad_arity_are_typed_errors() {
    let bundle = bundle();
    let mut scorer = scorer_for(&bundle, StoreKind::Dense, StoreKind::Dense);
    assert!(scorer.requires_cross());
    let mut probs = Vec::new();

    // No cross features while the architecture memorizes pairs.
    let mut batch = Batch::empty();
    batch.begin(bundle.data.num_fields, bundle.data.num_pairs);
    batch.push_row(bundle.data.row_fields(0), &[], 0.0);
    assert_eq!(
        scorer.score_into(&batch, &mut probs),
        Err(ScoreError::MissingCross)
    );

    // Wrong field arity.
    let mut batch = Batch::empty();
    batch.begin(bundle.data.num_fields + 1, bundle.data.num_pairs);
    assert_eq!(
        scorer.score_into(&batch, &mut probs),
        Err(ScoreError::FieldCountMismatch {
            got: bundle.data.num_fields + 1,
            expected: bundle.data.num_fields,
        })
    );

    // Field ids for a row and a half.
    let mut batch = Batch::empty();
    batch.begin(bundle.data.num_fields, bundle.data.num_pairs);
    batch.push_row(bundle.data.row_fields(0), bundle.data.row_cross(0), 0.0);
    batch
        .fields
        .extend_from_slice(&bundle.data.row_fields(1)[..2]);
    assert_eq!(
        scorer.score_into(&batch, &mut probs),
        Err(ScoreError::FieldCountMismatch {
            got: 2,
            expected: bundle.data.num_fields,
        })
    );
}

#[test]
fn microbatch_degrades_to_nan_for_malformed_requests_only() {
    let bundle = bundle();
    let mut scorer = scorer_for(&bundle, StoreKind::Dense, StoreKind::Dense);
    let vocab = scorer.dims().orig_vocab;
    let clock = MonotonicClock::new();
    // One flush holds all three requests, so the malformed middle one
    // forces the degraded per-request path for the whole batch.
    let opts = MicroBatchOptions {
        queue_slots: 8,
        max_batch: 3,
        deadline_ns: 50_000_000,
    };
    let mut responses = Vec::new();
    serve(
        &mut scorer,
        &clock,
        &opts,
        |mut submitter| {
            let good = bundle.data.row_fields(1).to_vec();
            let mut bad = good.clone();
            bad[0] = vocab + 7;
            assert!(submitter.submit(0, &good, bundle.data.row_cross(1)));
            assert!(submitter.submit(1, &bad, bundle.data.row_cross(1)));
            assert!(submitter.submit(2, &good, bundle.data.row_cross(1)));
        },
        |r| responses.push(r),
    );
    assert_eq!(responses.len(), 3);
    assert!(responses[0].prob.is_finite(), "valid request still scores");
    assert!(responses[1].prob.is_nan(), "malformed request answers NaN");
    assert!(responses[2].prob.is_finite(), "valid request still scores");
    assert_eq!(
        responses[0].prob.to_bits(),
        responses[2].prob.to_bits(),
        "identical requests score identically through the degraded path"
    );
}
