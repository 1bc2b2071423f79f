//! Property-based tests on the data substrate: vocabulary encoding, the
//! cross-product transform, batching, and generation invariants.

#![cfg(test)]

use crate::batch::BatchIter;
use crate::dataset::{reference, DatasetBundle, EncodedDataset, Split};
use crate::generator::{PlantedKind, RawDataset, SyntheticSpec};
use crate::schema::Schema;
use crate::zipf::Zipf;
use proptest::prelude::*;

/// Raw rows over `cardinalities`, the ragged tail dropped, with all-zero
/// labels and logits.
fn raw_dataset(cardinalities: Vec<u32>, mut rows: Vec<u32>) -> RawDataset {
    let m = cardinalities.len();
    let n = rows.len() / m;
    rows.truncate(n * m);
    RawDataset {
        schema: Schema::new(cardinalities),
        rows,
        labels: vec![0; n],
        logits: vec![0.0; n],
    }
}

fn arb_spec() -> impl Strategy<Value = SyntheticSpec> {
    (2usize..5, 3u32..12, 0.0f64..1.5, 0.05f64..0.5, 0u64..50).prop_map(
        |(m, card, zipf, pos, seed)| {
            let pairs = m * (m - 1) / 2;
            let mem = pairs / 3;
            let fac = pairs / 3;
            SyntheticSpec {
                name: "prop".into(),
                seed,
                cardinalities: vec![card; m],
                zipf_exponent: zipf,
                planted: PlantedKind::assign(mem, fac, pairs - mem - fac, pairs, seed),
                field_weight_std: 0.3,
                memorized_std: 0.8,
                factorized_std: 0.8,
                latent_dim: 2,
                nonlinear_std: 0.0,
                noise_std: 0.1,
                target_pos_ratio: pos,
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn encoded_ids_always_in_vocab_range(spec in arb_spec()) {
        let bundle = DatasetBundle::from_spec(spec, 300, 1, 7);
        for &id in &bundle.data.fields {
            prop_assert!(id < bundle.data.orig_vocab);
        }
        for &id in &bundle.data.cross {
            prop_assert!(id < bundle.data.cross_vocab);
        }
    }

    #[test]
    fn vocab_offsets_partition_the_id_space(spec in arb_spec()) {
        let bundle = DatasetBundle::from_spec(spec, 200, 1, 8);
        let d = &bundle.data;
        let mut expected = 0u32;
        for (f, &offset) in d.field_offsets.iter().enumerate() {
            prop_assert_eq!(offset, expected);
            expected += d.field_vocab_sizes[f];
        }
        prop_assert_eq!(expected, d.orig_vocab);
        let mut expected = 0u32;
        for (p, &offset) in d.pair_offsets.iter().enumerate() {
            prop_assert_eq!(offset, expected);
            expected += d.pair_vocab_sizes[p];
        }
        prop_assert_eq!(expected, d.cross_vocab);
    }

    #[test]
    fn higher_min_count_never_grows_vocab(
        rows in proptest::collection::vec(0u32..6, 30..120),
    ) {
        let raw = raw_dataset(vec![6, 6], rows);
        let n = raw.len();
        let low = EncodedDataset::encode(&raw, 0..n, 1);
        let high = EncodedDataset::encode(&raw, 0..n, 3);
        prop_assert!(high.orig_vocab <= low.orig_vocab);
        prop_assert!(high.cross_vocab <= low.cross_vocab);
    }

    #[test]
    fn encoder_matches_the_historical_hashmap_path(
        rows in proptest::collection::vec(0u32..9, 40..160),
        vocab_end in 0usize..60,
        min_count in 0u32..4,
    ) {
        let raw = raw_dataset(vec![9, 9, 9], rows);
        let vocab_rows = 0..vocab_end.min(raw.len());
        let got = EncodedDataset::encode(&raw, vocab_rows.clone(), min_count);
        prop_assert_eq!(got, reference::encode(&raw, vocab_rows, min_count));
    }

    #[test]
    fn prefetched_stream_is_identical_to_serial_stream(
        n in 20usize..200,
        batch_size in 1usize..50,
        shuffle in proptest::bool::ANY,
        seed_value in 0u64..20,
    ) {
        let seed = shuffle.then_some(seed_value);
        let spec = SyntheticSpec {
            name: "stream-prop".into(),
            seed: 2,
            cardinalities: vec![5, 4],
            zipf_exponent: 0.6,
            planted: vec![PlantedKind::Factorized],
            field_weight_std: 0.2,
            memorized_std: 0.5,
            factorized_std: 0.5,
            latent_dim: 2,
            nonlinear_std: 0.0,
            noise_std: 0.0,
            target_pos_ratio: 0.3,
        };
        let bundle = DatasetBundle::from_spec(spec, 250, 1, 3);
        let range = 0..n.min(bundle.len());
        let mut collected = [Vec::new(), Vec::new()];
        for (slot, prefetch) in [false, true].into_iter().enumerate() {
            crate::prefetch::BatchStream::new(&bundle.data, range.clone(), batch_size, seed)
                .prefetch(prefetch)
                .for_each(|b| {
                    collected[slot].extend_from_slice(&b.fields);
                    collected[slot].extend_from_slice(&b.cross);
                    collected[slot].extend(b.labels.iter().map(|&y| y as u32));
                });
        }
        let [serial, prefetched] = collected;
        prop_assert_eq!(serial, prefetched);
    }

    #[test]
    fn batches_partition_any_range(
        n in 10usize..200,
        batch_size in 1usize..40,
        shuffle in proptest::bool::ANY,
    ) {
        let spec = SyntheticSpec {
            name: "batch-prop".into(),
            seed: 1,
            cardinalities: vec![4, 4],
            zipf_exponent: 0.5,
            planted: vec![PlantedKind::Memorized],
            field_weight_std: 0.2,
            memorized_std: 0.5,
            factorized_std: 0.5,
            latent_dim: 2,
            nonlinear_std: 0.0,
            noise_std: 0.0,
            target_pos_ratio: 0.3,
        };
        let bundle = DatasetBundle::from_spec(spec, 250, 1, 3);
        let range = 0..n.min(bundle.len());
        let seed = shuffle.then_some(9u64);
        let total: usize = BatchIter::new(&bundle.data, range.clone(), batch_size, seed)
            .map(|b| b.len())
            .sum();
        prop_assert_eq!(total, range.len());
    }

    #[test]
    fn split_covers_everything_disjointly(n in 10usize..5000) {
        let s = Split::fractions(n, 0.7, 0.1);
        prop_assert_eq!(s.train.start, 0);
        prop_assert_eq!(s.train.end, s.val.start);
        prop_assert_eq!(s.val.end, s.test.start);
        prop_assert_eq!(s.test.end, n);
        prop_assert!(!s.test.is_empty());
    }

    #[test]
    fn zipf_quantile_is_monotone(
        // A small support, or one past the sampler's 2^16-value head.
        n in (0u32..2, 2u32..50, 65_000u32..140_000)
            .prop_map(|(pick, small, large)| if pick == 0 { small } else { large }),
        s in 0.0f64..2.0,
        u1 in 0.0f64..1.0,
        u2 in 0.0f64..1.0,
    ) {
        let z = Zipf::new(n, s);
        let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
        prop_assert!(z.quantile(lo) <= z.quantile(hi));
        // The same pair squeezed into the last 0.1 % of mass, past the head.
        let (lo, hi) = (1.0 - (1.0 - lo) * 1e-3, 1.0 - (1.0 - hi) * 1e-3);
        prop_assert!(z.quantile(lo) <= z.quantile(hi));
    }
}
