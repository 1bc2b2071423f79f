//! Per-field vocabularies with frequency thresholding and OOV bucketing.
//!
//! The paper replaces categorical values appearing fewer than a minimum
//! number of times in the training set with a dummy out-of-vocabulary
//! feature (min-count 20 on Criteo, 5 on Avazu). Local id 0 of every field
//! is the OOV bucket; surviving values get contiguous local ids starting
//! at 1. Local ids are laid out into one global id space (field offsets),
//! so a single embedding table serves all fields.

use crate::hash::OpenTable;
use crate::schema::Schema;

/// Vocabulary of a single field.
#[derive(Debug, Clone)]
pub struct FieldVocab {
    /// Raw value -> local id; absent values read 0, the OOV bucket.
    ids: OpenTable,
    /// Raw value of local id `l` at `raws[l - 1]`.
    raws: Vec<u32>,
}

impl FieldVocab {
    /// Builds from raw-value counts, keeping values with `count >=
    /// min_count`. A `min_count` of 0 keeps what 1 keeps: every value that
    /// was counted.
    ///
    /// Local ids are assigned frequency-then-key: most frequent value gets
    /// id 1, ties broken by ascending raw value. The ordering is a total
    /// order over the retained values, so the assignment is a pure function
    /// of the counts, independent of the order rows were counted in.
    /// (Frequency-descending also means the hottest embedding rows cluster
    /// at the front of each field's id range, which keeps frequent lookups
    /// cache-friendly.)
    pub fn from_counts(counts: &OpenTable, min_count: u32) -> Self {
        let mut kept: Vec<(u64, u32)> = counts.iter().filter(|&(_, c)| c >= min_count).collect();
        kept.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut ids = OpenTable::with_capacity(kept.len());
        for (id, &(v, _)) in (1..).zip(&kept) {
            ids.insert(v, id);
        }
        let raws = kept.iter().map(|&(v, _)| v as u32).collect();
        Self { ids, raws }
    }

    /// Local id of a raw value (0 = OOV).
    #[inline]
    pub fn encode(&self, raw: u32) -> u32 {
        self.ids.get(u64::from(raw))
    }

    /// Raw value of a retained local id (`1..size()`).
    pub(crate) fn raw(&self, local: u32) -> u32 {
        self.raws[local as usize - 1]
    }

    /// Vocabulary size including the OOV slot.
    pub fn size(&self) -> u32 {
        self.raws.len() as u32 + 1
    }

    /// Number of retained (non-OOV) values.
    pub fn retained(&self) -> u32 {
        self.raws.len() as u32
    }
}

/// Vocabularies for every field plus the global id layout.
#[derive(Debug, Clone)]
pub struct Vocabulary {
    fields: Vec<FieldVocab>,
    offsets: Vec<u32>,
    total: u32,
}

impl Vocabulary {
    /// Builds per-field vocabularies by counting values over the given
    /// (training) rows. `rows` is row-major `[N * M]`.
    pub fn build(schema: &Schema, rows: &[u32], min_count: u32) -> Self {
        let m = schema.num_fields();
        assert_eq!(rows.len() % m, 0, "vocab build: ragged rows");
        // One field at a time, so one count table is alive at a time.
        let fields: Vec<FieldVocab> = (0..m)
            .map(|f| {
                let mut counts = OpenTable::new();
                for row in rows.chunks_exact(m) {
                    counts.add(u64::from(row[f]), 1);
                }
                FieldVocab::from_counts(&counts, min_count)
            })
            .collect();
        let mut offsets = Vec::with_capacity(m);
        let mut total = 0u32;
        for fv in &fields {
            offsets.push(total);
            total += fv.size();
        }
        Self {
            fields,
            offsets,
            total,
        }
    }

    /// Number of fields.
    pub fn num_fields(&self) -> usize {
        self.fields.len()
    }

    /// Total global vocabulary size (the paper's "#orig value" analogue).
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Per-field vocabulary sizes (OOV included).
    pub fn sizes(&self) -> Vec<u32> {
        self.fields.iter().map(|f| f.size()).collect()
    }

    /// Vocabulary of field `f`.
    pub(crate) fn field(&self, f: usize) -> &FieldVocab {
        &self.fields[f]
    }

    /// Global offset of field `f`.
    pub fn offset(&self, f: usize) -> u32 {
        self.offsets[f]
    }

    /// Global id of a raw value in field `f`.
    pub fn encode(&self, f: usize, raw: u32) -> u32 {
        self.offsets[f] + self.fields[f].encode(raw)
    }

    /// Local (within-field) id of a raw value.
    pub fn encode_local(&self, f: usize, raw: u32) -> u32 {
        self.fields[f].encode(raw)
    }

    /// Encodes an entire row-major block of rows into global ids.
    pub fn encode_rows(&self, rows: &[u32]) -> Vec<u32> {
        let m = self.num_fields();
        assert_eq!(rows.len() % m, 0, "encode_rows: ragged rows");
        let mut out = Vec::with_capacity(rows.len());
        for chunk in rows.chunks_exact(m) {
            for (f, &raw) in chunk.iter().enumerate() {
                out.push(self.encode(f, raw));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_simple() -> Vocabulary {
        let schema = Schema::new(vec![10, 10]);
        // Field 0: value 1 appears 3x, value 2 once. Field 1: value 5 x4.
        let rows = vec![1, 5, 1, 5, 1, 5, 2, 5];
        Vocabulary::build(&schema, &rows, 2)
    }

    #[test]
    fn threshold_prunes_rare_values() {
        let v = build_simple();
        assert_eq!(v.encode_local(0, 1), 1); // kept
        assert_eq!(v.encode_local(0, 2), 0); // pruned -> OOV
        assert_eq!(v.encode_local(0, 99), 0); // unseen -> OOV
        assert_eq!(v.encode_local(1, 5), 1);
        assert_eq!(v.field(0).raw(1), 1);
        assert_eq!(v.field(1).raw(1), 5);
    }

    #[test]
    fn sizes_and_offsets() {
        let v = build_simple();
        assert_eq!(v.sizes(), vec![2, 2]); // OOV + 1 kept value each
        assert_eq!(v.offset(0), 0);
        assert_eq!(v.offset(1), 2);
        assert_eq!(v.total(), 4);
        assert_eq!(v.encode(1, 5), 3);
    }

    #[test]
    fn encode_rows_layout() {
        let v = build_simple();
        let encoded = v.encode_rows(&[1, 5, 2, 7]);
        assert_eq!(encoded, vec![1, 3, 0, 2]);
    }

    #[test]
    fn min_count_one_keeps_everything_seen() {
        let schema = Schema::new(vec![5, 5]);
        let rows = vec![0, 1, 2, 3, 4, 0];
        let v = Vocabulary::build(&schema, &rows, 1);
        assert_eq!(v.sizes(), vec![4, 4]); // 3 distinct + OOV each
        let v0 = Vocabulary::build(&schema, &rows, 0);
        assert_eq!(v0.sizes(), v.sizes(), "min_count 0 keeps what 1 keeps");
    }

    #[test]
    fn ids_are_assigned_frequency_then_key() {
        let mut counts = OpenTable::new();
        // Frequencies: 9 -> 5x, {3, 7} -> 3x (tie), 1 -> 2x, 4 -> 1x (pruned).
        counts.add(9, 5);
        counts.add(3, 3);
        counts.add(7, 3);
        counts.add(1, 2);
        counts.add(4, 1);
        let v = FieldVocab::from_counts(&counts, 2);
        assert_eq!(v.encode(9), 1); // most frequent first
        assert_eq!(v.encode(3), 2); // tie broken by ascending raw value
        assert_eq!(v.encode(7), 3);
        assert_eq!(v.encode(1), 4);
        assert_eq!(v.encode(4), 0); // below min_count -> OOV
        assert_eq!(v.size(), 5);
        assert_eq!((1..5).map(|l| v.raw(l)).collect::<Vec<_>>(), [9, 3, 7, 1]);
    }

    #[test]
    fn deterministic_id_assignment() {
        let schema = Schema::new(vec![100, 100]);
        let rows: Vec<u32> = (0..50).flat_map(|i| [i % 7, i % 5]).collect();
        let a = Vocabulary::build(&schema, &rows, 1);
        let b = Vocabulary::build(&schema, &rows, 1);
        for f in 0..2 {
            for raw in 0..10 {
                assert_eq!(a.encode(f, raw), b.encode(f, raw));
            }
        }
    }
}
