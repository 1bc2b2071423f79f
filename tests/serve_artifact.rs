//! Artifact robustness: freeze → serialize → load → serialize must be
//! byte-identical, and *any* corruption — truncation, a single flipped
//! bit, a wrong version — must come back as a typed [`ArtifactError`],
//! never a panic. A serving tier loads artifacts it did not write; the
//! loader's error surface is part of the format.

use optinter_core::net::DataDims;
use optinter_core::{Architecture, Method, OptInterConfig, OptInterNet};
use optinter_data::{DatasetBundle, Profile};
use optinter_nn::StoreKind;
use optinter_serve::{freeze, ArtifactError, FrozenModel, Quant, StoreDesc};

fn frozen_with_stores(quant: Quant, orig: StoreKind, cross: StoreKind) -> FrozenModel {
    let bundle: DatasetBundle = Profile::Tiny.bundle_with_rows(300, 7);
    let dims = DataDims::of(&bundle.data);
    let arch = Architecture::new(
        (0..dims.num_pairs)
            .map(|p| Method::from_index(p % 3))
            .collect(),
    );
    let cfg = OptInterConfig {
        seed: 4,
        ..OptInterConfig::test_small()
    }
    .with_stores(orig, cross);
    let mut net = OptInterNet::new(cfg, dims, arch);
    freeze(&mut net, &bundle.data, quant)
}

fn frozen(quant: Quant) -> FrozenModel {
    frozen_with_stores(quant, StoreKind::Dense, StoreKind::Dense)
}

#[test]
fn freeze_load_freeze_is_byte_identical_for_every_quantization() {
    for quant in [Quant::F32, Quant::F16, Quant::Int8] {
        let model = frozen(quant);
        let bytes = model.to_bytes();
        let reloaded = FrozenModel::from_bytes(&bytes)
            .unwrap_or_else(|e| panic!("{quant:?}: fresh artifact failed to load: {e}"));
        assert_eq!(
            bytes,
            reloaded.to_bytes(),
            "{quant:?}: re-serialized artifact differs from the original bytes"
        );
    }
}

#[test]
fn hashed_store_artifacts_round_trip_and_reject_corruption() {
    let model = frozen_with_stores(
        Quant::F16,
        StoreKind::HashedQr { bucket: 9 },
        StoreKind::HashedDouble { rows: 23 },
    );
    assert!(matches!(
        model.orig_store,
        StoreDesc::HashedQr { bucket: 9, .. }
    ));
    assert!(matches!(
        model.cross_store,
        StoreDesc::HashedDouble { rows: 23, .. }
    ));
    assert!(model.row_map.is_empty());
    let bytes = model.to_bytes();
    let reloaded = FrozenModel::from_bytes(&bytes).expect("hashed artifact loads");
    assert_eq!(reloaded.orig_store, model.orig_store);
    assert_eq!(reloaded.cross_store, model.cross_store);
    assert_eq!(bytes, reloaded.to_bytes());

    // The store descriptors sit inside the checksummed payload, so the
    // truncation and bit-flip sweeps below cover them too; spot-check a
    // targeted flip of each payload byte region still errors.
    let step = (bytes.len() / 211).max(1);
    for i in (20..bytes.len()).step_by(step) {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0x04;
        assert!(
            FrozenModel::from_bytes(&corrupt).is_err(),
            "flip at byte {i} went undetected"
        );
    }
}

#[test]
fn file_round_trip_preserves_bytes() {
    let dir = std::env::temp_dir().join("optinter-serve-artifact-test");
    std::fs::create_dir_all(&dir).expect("tempdir");
    let path = dir.join("model.osa");
    let model = frozen(Quant::F16);
    model.write_file(&path).expect("write artifact");
    assert!(
        !dir.join("model.osa.tmp").exists(),
        "the staging file must be renamed away"
    );
    let reloaded = FrozenModel::read_file(&path).expect("read artifact");
    assert_eq!(model.to_bytes(), reloaded.to_bytes());
    std::fs::remove_file(&path).ok();

    match FrozenModel::read_file(&dir.join("does-not-exist.osa")) {
        Err(ArtifactError::Io(_)) => {}
        other => panic!("missing file must be an Io error, got {other:?}"),
    }
}

#[test]
fn failed_write_keeps_the_previous_artifact() {
    let dir = std::env::temp_dir().join("optinter-serve-artifact-test");
    std::fs::create_dir_all(&dir).expect("tempdir");
    let path = dir.join("replaced.osa");
    // `write_file` stages the bytes in `<path>.tmp`.
    let tmp = dir.join("replaced.osa.tmp");
    std::fs::remove_dir_all(&tmp).ok();
    let old = frozen(Quant::F16);
    old.write_file(&path).expect("write the first artifact");

    // A directory occupying the staging file's name makes the write fail
    // before `path` is touched.
    std::fs::create_dir_all(&tmp).expect("block the staging name");
    let new = frozen(Quant::Int8);
    match new.write_file(&path) {
        Err(ArtifactError::Io(_)) => {}
        other => panic!("a blocked write must be an Io error, got {other:?}"),
    }
    let kept = FrozenModel::read_file(&path).expect("previous artifact still decodes");
    assert_eq!(kept.to_bytes(), old.to_bytes(), "previous artifact changed");

    // Once the name is free, the new artifact replaces the old one.
    std::fs::remove_dir(&tmp).expect("unblock the staging name");
    new.write_file(&path).expect("write the second artifact");
    let replaced = FrozenModel::read_file(&path).expect("read the second artifact");
    assert_eq!(replaced.to_bytes(), new.to_bytes());
    assert!(!tmp.exists(), "the staging file must be renamed away");
    std::fs::remove_file(&path).ok();
}

#[test]
fn every_truncation_is_a_typed_error() {
    let bytes = frozen(Quant::Int8).to_bytes();
    // Every prefix around the header plus a coarse sweep of the payload.
    let mut lengths: Vec<usize> = (0..64.min(bytes.len())).collect();
    let step = (bytes.len() / 97).max(1);
    lengths.extend((64..bytes.len()).step_by(step));
    for len in lengths {
        match FrozenModel::from_bytes(&bytes[..len]) {
            Err(_) => {}
            Ok(_) => panic!("truncation to {len} of {} bytes decoded", bytes.len()),
        }
    }
}

#[test]
fn every_single_bit_flip_is_a_typed_error() {
    let bytes = frozen(Quant::F32).to_bytes();
    for (i, _) in bytes.iter().enumerate() {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 1 << (i % 8);
        match FrozenModel::from_bytes(&corrupt) {
            Err(_) => {}
            Ok(_) => panic!("bit flip at byte {i} went undetected"),
        }
    }
}

#[test]
fn corruption_errors_are_classified() {
    let bytes = frozen(Quant::F32).to_bytes();

    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        FrozenModel::from_bytes(&bad_magic),
        Err(ArtifactError::BadMagic)
    ));

    // Version lives at bytes 8..12 (little-endian u32).
    let mut future = bytes.clone();
    future[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        FrozenModel::from_bytes(&future),
        Err(ArtifactError::UnsupportedVersion(99))
    ));

    // A payload flip passes magic + version and dies on the checksum.
    let mut payload = bytes.clone();
    let last = payload.len() - 1;
    payload[last] ^= 0x10;
    assert!(matches!(
        FrozenModel::from_bytes(&payload),
        Err(ArtifactError::Corrupt(_))
    ));

    assert!(matches!(
        FrozenModel::from_bytes(&[]),
        Err(ArtifactError::Truncated(_))
    ));
}
