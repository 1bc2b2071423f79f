//! Encoded datasets: vocabulary-mapped features, cross features, labels and
//! train/validation/test splits.

use crate::cross::CrossVocab;
use crate::generator::{PlantedKind, RawDataset, SyntheticGenerator, SyntheticSpec};
use crate::vocab::Vocabulary;
use std::ops::Range;

/// Train / validation / test row ranges.
///
/// Rows are generated i.i.d., so contiguous ranges are valid random splits.
/// The paper uses 80% train+validation / 20% test; we default to 70/10/20.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Split {
    /// Training rows.
    pub train: Range<usize>,
    /// Validation rows (used by bi-level search and early diagnostics).
    pub val: Range<usize>,
    /// Held-out test rows.
    pub test: Range<usize>,
}

impl Split {
    /// Builds a split from fractions. Fractions must sum to at most 1.
    pub fn fractions(n: usize, train: f64, val: f64) -> Self {
        assert!(
            train > 0.0 && val >= 0.0 && train + val < 1.0,
            "invalid split fractions"
        );
        let n_train = (n as f64 * train).round() as usize;
        let n_val = (n as f64 * val).round() as usize;
        assert!(n_train + n_val < n, "split leaves no test rows");
        Self {
            train: 0..n_train,
            val: n_train..n_train + n_val,
            test: n_train + n_val..n,
        }
    }
}

/// A fully-encoded dataset ready for mini-batch training.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedDataset {
    /// Number of original fields `M`.
    pub num_fields: usize,
    /// Number of second-order pairs `M(M-1)/2`.
    pub num_pairs: usize,
    /// Global original-feature vocabulary size (rows of `E^o`).
    pub orig_vocab: u32,
    /// Global cross-feature vocabulary size (rows of `E^m`).
    pub cross_vocab: u32,
    /// Row-major `[N * M]` global original-feature ids.
    pub fields: Vec<u32>,
    /// Row-major `[N * P]` global cross-feature ids.
    pub cross: Vec<u32>,
    /// Labels in `{0.0, 1.0}`.
    pub labels: Vec<f32>,
    /// Per-field vocabulary sizes (OOV included).
    pub field_vocab_sizes: Vec<u32>,
    /// Per-pair cross vocabulary sizes (OOV included).
    pub pair_vocab_sizes: Vec<u32>,
    /// Global offset of each field in the original id space.
    pub field_offsets: Vec<u32>,
    /// Global offset of each pair in the cross id space.
    pub pair_offsets: Vec<u32>,
}

impl EncodedDataset {
    /// Encodes a raw dataset. Vocabularies are built on `vocab_rows`
    /// (normally the training range) and applied everywhere: a value or a
    /// pair's value combination seen fewer than `min_count` times there is
    /// out of vocabulary. A `min_count` of 0 keeps what 1 keeps.
    ///
    /// The field ids are encoded first; the cross-product transform then
    /// counts and encodes each pair through its fields' local ids
    /// ([`crate::cross`]).
    pub fn encode(raw: &RawDataset, vocab_rows: Range<usize>, min_count: u32) -> Self {
        let m = raw.schema.num_fields();
        let vocab_range = vocab_rows.start * m..vocab_rows.end * m;
        let vocab = Vocabulary::build(&raw.schema, &raw.rows[vocab_range.clone()], min_count);
        let fields = vocab.encode_rows(&raw.rows);
        let cross_vocab = CrossVocab::build(&vocab, &fields[vocab_range], min_count);
        let cross = cross_vocab.encode_rows(&fields);
        let labels = raw.labels.iter().map(|&y| y as f32).collect();
        Self {
            num_fields: m,
            num_pairs: raw.schema.num_pairs(),
            orig_vocab: vocab.total(),
            cross_vocab: cross_vocab.total(),
            fields,
            cross,
            labels,
            field_vocab_sizes: vocab.sizes(),
            pair_vocab_sizes: cross_vocab.sizes(),
            field_offsets: (0..m).map(|f| vocab.offset(f)).collect(),
            pair_offsets: (0..raw.schema.num_pairs())
                .map(|p| cross_vocab.offset(p))
                .collect(),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Original-feature ids of row `n`.
    pub fn row_fields(&self, n: usize) -> &[u32] {
        &self.fields[n * self.num_fields..(n + 1) * self.num_fields]
    }

    /// Cross-feature ids of row `n`.
    pub fn row_cross(&self, n: usize) -> &[u32] {
        &self.cross[n * self.num_pairs..(n + 1) * self.num_pairs]
    }

    /// Positive ratio over a row range.
    pub fn pos_ratio(&self, range: Range<usize>) -> f64 {
        let s: f64 = self.labels[range.clone()].iter().map(|&y| y as f64).sum();
        s / range.len().max(1) as f64
    }

    /// Local (within-pair) cross id of row `n`, pair `p`: 0 means OOV.
    pub fn local_cross(&self, n: usize, p: usize) -> u32 {
        self.row_cross(n)[p] - self.pair_offsets[p]
    }
}

/// Everything an experiment needs: spec, encoded data, split, and the
/// planted ground truth for verification.
#[derive(Debug, Clone)]
pub struct DatasetBundle {
    /// The generating spec.
    pub spec: SyntheticSpec,
    /// Encoded dataset.
    pub data: EncodedDataset,
    /// Row split.
    pub split: Split,
    /// Planted interaction kind per pair (flat order).
    pub planted: Vec<PlantedKind>,
    /// Ground-truth logits (oracle diagnostics).
    pub oracle_logits: Vec<f32>,
}

impl DatasetBundle {
    /// Generates, splits and encodes a dataset from a spec.
    pub fn from_spec(spec: SyntheticSpec, n: usize, min_count: u32, sample_seed: u64) -> Self {
        let generator = SyntheticGenerator::new(spec);
        let raw = generator.generate(n, sample_seed);
        let split = Split::fractions(n, 0.7, 0.1);
        let data = EncodedDataset::encode(&raw, split.train.clone(), min_count);
        let spec = generator.spec().clone();
        let planted = spec.planted.clone();
        Self {
            spec,
            data,
            split,
            planted,
            oracle_logits: raw.logits,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// The historical encoder, kept as the bit reference of
/// [`EncodedDataset::encode`]: per-field SipHash `HashMap` counts, numbered
/// frequency-descending then raw-ascending, and per-pair counts keyed by
/// the raw cross value, numbered in raw order; every row looked up by its
/// raw values.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::cross::raw_cross;
    use std::collections::HashMap;

    /// Numbers the keys counted at least `min_count` times from 1, in
    /// `order`.
    fn number<K: Copy + Eq + std::hash::Hash>(
        counts: HashMap<K, u32>,
        min_count: u32,
        order: impl Fn(&(K, u32), &(K, u32)) -> std::cmp::Ordering,
    ) -> HashMap<K, u32> {
        let mut kept: Vec<(K, u32)> = counts
            .into_iter()
            .filter(|&(_, c)| c >= min_count)
            .collect();
        kept.sort_unstable_by(order);
        kept.into_iter().map(|(k, _)| k).zip(1..).collect()
    }

    /// Sizes (OOV included) and offsets of a list of vocabularies.
    fn layout<K>(ids: &[HashMap<K, u32>]) -> (Vec<u32>, Vec<u32>, u32) {
        let sizes: Vec<u32> = ids.iter().map(|m| m.len() as u32 + 1).collect();
        let mut offsets = Vec::with_capacity(sizes.len());
        let mut total = 0;
        for &size in &sizes {
            offsets.push(total);
            total += size;
        }
        (sizes, offsets, total)
    }

    pub(crate) fn encode(
        raw: &RawDataset,
        vocab_rows: Range<usize>,
        min_count: u32,
    ) -> EncodedDataset {
        let m = raw.schema.num_fields();
        let pairs: Vec<(usize, usize)> = raw.schema.pairs().iter().collect();
        let train = &raw.rows[vocab_rows.start * m..vocab_rows.end * m];
        let field_ids: Vec<HashMap<u32, u32>> = (0..m)
            .map(|f| {
                let mut counts = HashMap::new();
                for row in train.chunks_exact(m) {
                    *counts.entry(row[f]).or_insert(0) += 1;
                }
                number(counts, min_count, |a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)))
            })
            .collect();
        let pair_ids: Vec<HashMap<u64, u32>> = pairs
            .iter()
            .map(|&(i, j)| {
                let mut counts = HashMap::new();
                for row in train.chunks_exact(m) {
                    *counts.entry(raw_cross(row[i], row[j])).or_insert(0) += 1;
                }
                number(counts, min_count, |a, b| a.0.cmp(&b.0))
            })
            .collect();
        let (field_vocab_sizes, field_offsets, orig_vocab) = layout(&field_ids);
        let (pair_vocab_sizes, pair_offsets, cross_vocab) = layout(&pair_ids);
        let mut fields = Vec::with_capacity(raw.rows.len());
        let mut cross = Vec::with_capacity(raw.len() * pairs.len());
        for row in raw.rows.chunks_exact(m) {
            for (f, ids) in field_ids.iter().enumerate() {
                fields.push(field_offsets[f] + ids.get(&row[f]).copied().unwrap_or(0));
            }
            for (p, &(i, j)) in pairs.iter().enumerate() {
                let id = pair_ids[p].get(&raw_cross(row[i], row[j])).copied();
                cross.push(pair_offsets[p] + id.unwrap_or(0));
            }
        }
        EncodedDataset {
            num_fields: m,
            num_pairs: pairs.len(),
            orig_vocab,
            cross_vocab,
            fields,
            cross,
            labels: raw.labels.iter().map(|&y| y as f32).collect(),
            field_vocab_sizes,
            pair_vocab_sizes,
            field_offsets,
            pair_offsets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cross::CrossVocab;
    use crate::generator::PlantedKind;
    use crate::profiles::Profile;
    use crate::schema::Schema;

    fn tiny_bundle(n: usize) -> DatasetBundle {
        let spec = SyntheticSpec {
            name: "tiny".into(),
            seed: 3,
            cardinalities: vec![6, 6, 6],
            zipf_exponent: 0.8,
            planted: PlantedKind::assign(1, 1, 1, 3, 3),
            field_weight_std: 0.3,
            memorized_std: 1.0,
            factorized_std: 1.0,
            latent_dim: 3,
            nonlinear_std: 0.0,
            noise_std: 0.1,
            target_pos_ratio: 0.3,
        };
        DatasetBundle::from_spec(spec, n, 1, 17)
    }

    #[test]
    fn split_fractions() {
        let s = Split::fractions(100, 0.7, 0.1);
        assert_eq!(s.train, 0..70);
        assert_eq!(s.val, 70..80);
        assert_eq!(s.test, 80..100);
    }

    #[test]
    #[should_panic(expected = "no test rows")]
    fn split_requires_test_rows() {
        Split::fractions(10, 0.9, 0.09999999);
    }

    #[test]
    fn encode_shapes() {
        let b = tiny_bundle(200);
        assert_eq!(b.data.num_fields, 3);
        assert_eq!(b.data.num_pairs, 3);
        assert_eq!(b.data.fields.len(), 200 * 3);
        assert_eq!(b.data.cross.len(), 200 * 3);
        assert_eq!(b.data.labels.len(), 200);
        assert_eq!(b.oracle_logits.len(), 200);
    }

    #[test]
    fn global_ids_in_range() {
        let b = tiny_bundle(300);
        for &id in &b.data.fields {
            assert!(id < b.data.orig_vocab);
        }
        for &id in &b.data.cross {
            assert!(id < b.data.cross_vocab);
        }
    }

    #[test]
    fn field_ids_fall_in_their_field_bucket() {
        let b = tiny_bundle(100);
        for n in 0..b.len() {
            let row = b.data.row_fields(n);
            for (f, &id) in row.iter().enumerate() {
                let lo = b.data.field_offsets[f];
                let hi = lo + b.data.field_vocab_sizes[f];
                assert!((lo..hi).contains(&id), "row {n} field {f}: {id}");
            }
        }
    }

    #[test]
    fn local_cross_zero_is_oov() {
        let b = tiny_bundle(100);
        for n in 0..b.len() {
            for p in 0..3 {
                let local = b.data.local_cross(n, p);
                assert!(local < b.data.pair_vocab_sizes[p]);
            }
        }
    }

    #[test]
    fn vocab_built_from_train_only() {
        // A value appearing only in the test range must encode as OOV.
        let b = tiny_bundle(50);
        // All ids valid is already checked; here we check determinism.
        let b2 = tiny_bundle(50);
        assert_eq!(b.data.fields, b2.data.fields);
        assert_eq!(b.data.cross, b2.data.cross);
    }

    #[test]
    fn labels_are_binary() {
        let b = tiny_bundle(150);
        assert!(b.data.labels.iter().all(|&y| y == 0.0 || y == 1.0));
    }

    const ALL_PROFILES: [Profile; 6] = [
        Profile::CriteoLike,
        Profile::AvazuLike,
        Profile::IpinyouLike,
        Profile::PrivateLike,
        Profile::Tiny,
        Profile::GiantVocab,
    ];

    /// Asserts that `encode` gives the historical encoder's bits.
    fn assert_matches_reference(
        raw: &RawDataset,
        vocab_rows: Range<usize>,
        min_count: u32,
        at: &str,
    ) {
        let got = EncodedDataset::encode(raw, vocab_rows.clone(), min_count);
        let want = reference::encode(raw, vocab_rows, min_count);
        assert_eq!(
            got.field_vocab_sizes, want.field_vocab_sizes,
            "{at}: field sizes"
        );
        assert_eq!(
            got.pair_vocab_sizes, want.pair_vocab_sizes,
            "{at}: pair sizes"
        );
        assert!(got.fields == want.fields, "{at}: fields");
        assert!(got.cross == want.cross, "{at}: cross");
        assert_eq!(got, want, "{at}");
    }

    /// How many of the pairs' id tables are hashed when the vocabularies
    /// are built on `vocab_rows`.
    fn hashed_pairs(raw: &RawDataset, vocab_rows: Range<usize>, min_count: u32) -> usize {
        let m = raw.schema.num_fields();
        let rows = &raw.rows[vocab_rows.start * m..vocab_rows.end * m];
        let vocab = Vocabulary::build(&raw.schema, rows, min_count);
        CrossVocab::build(&vocab, &vocab.encode_rows(rows), min_count).hashed_pairs()
    }

    /// Every profile's `generate(rows, seed)` at seeds 7 and 42, encoded
    /// at `min_count` 1, the profile's own and 5, against the reference;
    /// returns each profile's hashed pairs at its own `min_count`.
    fn assert_profiles_match_reference(rows: usize) -> Vec<(Profile, [usize; 2])> {
        let train = Split::fractions(rows, 0.7, 0.1).train;
        ALL_PROFILES
            .iter()
            .map(|&profile| {
                let gen = SyntheticGenerator::new(profile.spec());
                let hashed = [7, 42].map(|seed| {
                    let raw = gen.generate(rows, seed);
                    for min_count in [1, profile.min_count(), 5] {
                        let at = format!(
                            "{} rows {rows} seed {seed} min_count {min_count}",
                            profile.name()
                        );
                        assert_matches_reference(&raw, train.clone(), min_count, &at);
                    }
                    hashed_pairs(&raw, train.clone(), profile.min_count())
                });
                (profile, hashed)
            })
            .collect()
    }

    #[test]
    fn encode_bits_every_profile_matches_the_historical_path_at_2000_rows() {
        for (profile, hashed) in assert_profiles_match_reference(2_000) {
            assert_eq!(hashed, [0, 0], "{}: every pair is dense", profile.name());
        }
    }

    #[test]
    fn encode_bits_every_profile_matches_the_historical_path_at_20000_rows() {
        // Both table kinds: at 20,000 rows the largest pairs of four
        // profiles pass 2^16 cells.
        for (profile, hashed) in assert_profiles_match_reference(20_000) {
            let want = match profile {
                Profile::CriteoLike => [5, 5],
                Profile::AvazuLike => [5, 4],
                Profile::PrivateLike => [1, 1],
                Profile::GiantVocab => [6, 6],
                Profile::IpinyouLike | Profile::Tiny => [0, 0],
            };
            assert_eq!(
                hashed,
                want,
                "{}: hashed pairs at seeds 7 and 42",
                profile.name()
            );
        }
    }

    #[test]
    fn encode_bits_min_count_zero_keeps_what_one_keeps() {
        for profile in ALL_PROFILES {
            let raw = SyntheticGenerator::new(profile.spec()).generate(2_000, 7);
            let train = Split::fractions(2_000, 0.7, 0.1).train;
            let zero = EncodedDataset::encode(&raw, train.clone(), 0);
            assert_eq!(
                zero,
                EncodedDataset::encode(&raw, train, 1),
                "{}",
                profile.name()
            );
        }
    }

    #[test]
    fn encode_bits_hold_at_the_table_bound_and_on_edge_rows() {
        // 3,000 vocab rows give fields 0 and 1 255 values each and field 2
        // 256 (vocabulary sizes 256, 256 and 257 with OOV): pair (0, 1) has
        // exactly 2^16 cells and stays dense, pairs (0, 2) and (1, 2) have
        // 65,792 and are hashed. Field 0 declares 100 values but draws up
        // to 254, and 40 rows past the vocab rows bring values no vocab
        // row has (1,000 and more, past every declared cardinality).
        let schema = Schema::new(vec![100, 255, 256, 4]);
        let (n, extra) = (3_000usize, 40usize);
        let mut rows = Vec::new();
        for r in 0..n as u64 {
            let h = crate::hash::splitmix64(r);
            rows.extend([
                (r % 255) as u32,
                (h % 255) as u32,
                (r * 13 % 256) as u32,
                (h >> 32) as u32 % 4,
            ]);
        }
        for r in 0..extra as u32 {
            rows.extend([
                1_000 + r % 3,
                r % 255,
                256 + r,
                if r % 2 == 0 { 99 } else { r % 4 },
            ]);
        }
        let len = n + extra;
        let raw = RawDataset {
            schema,
            rows,
            labels: vec![0; len],
            logits: vec![0.0; len],
        };
        let encoded = EncodedDataset::encode(&raw, 0..n, 1);
        assert_eq!(encoded.field_vocab_sizes, [256, 256, 257, 5]);
        assert_eq!(
            hashed_pairs(&raw, 0..n, 1),
            2,
            "only (0, 2) and (1, 2) are hashed"
        );
        for min_count in [0, 1, 2, 5, 12, 13] {
            assert_matches_reference(&raw, 0..n, min_count, &format!("min_count {min_count}"));
        }
        // Vocab rows in the middle, an empty vocab range, and a min_count
        // above every count: everything is OOV in the last two.
        assert_matches_reference(&raw, 500..2_600, 2, "middle vocab rows");
        for (vocab_rows, min_count) in [(0..0, 1), (0..n, n as u32 + 1)] {
            let at = format!("vocab rows {vocab_rows:?}, min_count {min_count}");
            assert_matches_reference(&raw, vocab_rows.clone(), min_count, &at);
            let encoded = EncodedDataset::encode(&raw, vocab_rows, min_count);
            assert_eq!((encoded.orig_vocab, encoded.cross_vocab), (4, 6), "{at}");
        }
    }
}
