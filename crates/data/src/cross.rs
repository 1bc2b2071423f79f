//! Cross-product transformation (paper Eq. 4).
//!
//! For every field pair `(i, j)` the cross-product transformed feature of a
//! row is the combination of its raw values, `x^m_(i,j) =
//! onehot(x_i × x_j)`. Like the original features, cross values below a
//! frequency threshold collapse into a per-pair OOV bucket — this is where
//! the memorized method's feature-sparsity problem (paper Sec. I) shows up,
//! so the thresholding is faithful to the paper's preprocessing.
//!
//! Building these vocabularies is the "#cross values" blow-up the paper
//! flags as the cost of memorization: every row contributes `M(M-1)/2`
//! pair combinations. So the transform works on the rows' encoded field
//! ids, not their raw values. A row's *cell* in pair `(i, j)` is
//! `li·s_j + lj`, with `li`, `lj` its local ids and `s_j` field `j`'s
//! vocabulary size (OOV included). A combination seen `min_count` times
//! joins two values seen at least that often (`count(vi, vj) ≤
//! count(vi)`), so rows with an OOV side are skipped when counting and
//! always encode as the pair's OOV, and counting cells is counting raw
//! combinations.
//!
//! A pair of at most `TABLE_MAX_VALUES` = 2¹⁶ cells counts into a dense
//! buffer and keeps a dense `u16` id per cell (the kept cells, and so the
//! ids, number fewer than the cells); a larger pair counts and keeps its
//! ids in [`OpenTable`]s keyed by cell. Either way the ids number the kept
//! combinations in ascending [`raw_cross`] value, recovered through the
//! fields' local-to-raw lists, so they do not depend on the local ids'
//! frequency order.

use crate::hash::{OpenTable, TABLE_MAX_VALUES};
use crate::schema::PairIndexer;
use crate::vocab::Vocabulary;

/// Rows per block of [`CrossVocab::encode_rows`]: every pair encodes a
/// block's rows before the next block is read, so a block's local ids and
/// cross ids stay in cache while one pair's table is read 256 times in a
/// row.
const BLOCK_ROWS: usize = 256;

/// Raw cross value of a pair: a single u64 combining both raw field values.
#[inline]
pub fn raw_cross(vi: u32, vj: u32) -> u64 {
    ((vi as u64) << 32) | vj as u64
}

/// Writes the local ids of `fields` (global ids, row-major `[N * M]`)
/// into `cols` field-major: field `f`'s column is `cols[f * N..][..N]`.
/// The encoder transposes one block of rows at a time; the whole training
/// range transposed would add 4 bytes per field and row to the set-up's
/// peak memory.
fn local_columns(fields: &[u32], offsets: &[u32], cols: &mut Vec<u32>) {
    let m = offsets.len();
    cols.clear();
    for (f, &offset) in offsets.iter().enumerate() {
        cols.extend(fields.chunks_exact(m).map(|row| row[f] - offset));
    }
}

/// A pair `(i, j)` and the vocabulary sizes (OOV included) of its fields.
#[derive(Debug, Clone, Copy)]
struct Pair {
    i: usize,
    j: usize,
    sizes: (u32, u32),
}

impl Pair {
    /// The cell of local ids `(li, lj)`.
    #[inline]
    fn cell(&self, li: u32, lj: u32) -> usize {
        li as usize * self.sizes.1 as usize + lj as usize
    }

    /// The pair's number of cells, `s_i·s_j`.
    fn cells(&self) -> u64 {
        u64::from(self.sizes.0) * u64::from(self.sizes.1)
    }

    /// The local ids `(li, lj)` of `n` rows whose local ids are `cols`
    /// (field-major), in row order.
    fn locals<'a>(&self, cols: &'a [u32], n: usize) -> impl Iterator<Item = (u32, u32)> + 'a {
        let (i, j) = (&cols[self.i * n..][..n], &cols[self.j * n..][..n]);
        i.iter().copied().zip(j.iter().copied())
    }
}

/// Ids of one pair's kept combinations, by cell; 0 is the OOV bucket.
#[derive(Debug, Clone)]
enum PairIds {
    /// One id per cell.
    Dense(Vec<u16>),
    /// Kept cells only: absent cells read 0.
    Hashed(OpenTable),
}

/// Cross-product vocabularies for all pairs plus the global id layout.
#[derive(Debug, Clone)]
pub struct CrossVocab {
    /// Global offset of each field in the rows' ids.
    field_offsets: Vec<u32>,
    pairs: Vec<Pair>,
    ids: Vec<PairIds>,
    sizes: Vec<u32>,
    offsets: Vec<u32>,
    total: u32,
}

impl CrossVocab {
    /// Builds cross vocabularies by counting pair combinations over the
    /// given (training) rows. `fields` is row-major `[N * M]` of the rows'
    /// global ids under `vocab`, which was built with the same `min_count`.
    /// A `min_count` of 0 keeps what 1 keeps: every combination seen.
    pub fn build(vocab: &Vocabulary, fields: &[u32], min_count: u32) -> Self {
        let m = vocab.num_fields();
        assert_eq!(fields.len() % m, 0, "cross vocab: ragged rows");
        let n = fields.len() / m;
        let min_count = min_count.max(1);
        let field_offsets: Vec<u32> = (0..m).map(|f| vocab.offset(f)).collect();
        let pairs: Vec<Pair> = PairIndexer::new(m)
            .iter()
            .map(|(i, j)| Pair {
                i,
                j,
                sizes: (vocab.field(i).size(), vocab.field(j).size()),
            })
            .collect();
        let mut counts: Vec<u32> = Vec::new();
        let mut ids = Vec::with_capacity(pairs.len());
        let mut sizes = Vec::with_capacity(pairs.len());
        for at in &pairs {
            // A cell with local id 0 on either side is never counted, so
            // it is never kept.
            let (oi, oj) = (field_offsets[at.i], field_offsets[at.j]);
            let seen = fields
                .chunks_exact(m)
                .map(|row| (row[at.i] - oi, row[at.j] - oj))
                .filter(|&(li, lj)| li != 0 && lj != 0)
                .map(|(li, lj)| at.cell(li, lj));
            let sj = at.sizes.1 as usize;
            let raw = |cell: usize| {
                raw_cross(
                    vocab.field(at.i).raw((cell / sj) as u32),
                    vocab.field(at.j).raw((cell % sj) as u32),
                )
            };
            let dense = at.cells() <= u64::from(TABLE_MAX_VALUES);
            // Kept cells with their raw cross values, then in raw order.
            let mut kept: Vec<(u64, usize)> = if dense {
                counts.clear();
                counts.resize(at.cells() as usize, 0);
                for cell in seen {
                    counts[cell] += 1;
                }
                counts
                    .iter()
                    .enumerate()
                    .filter(|&(_, &count)| count >= min_count)
                    .map(|(cell, _)| (raw(cell), cell))
                    .collect()
            } else {
                // Distinct combinations are bounded by the row count;
                // pre-sizing to it (capped so giant datasets don't
                // over-allocate) makes the counting pass rehash-free.
                let mut table = OpenTable::with_capacity(n.min(1 << 20));
                for cell in seen {
                    table.add(cell as u64, 1);
                }
                table
                    .iter()
                    .filter(|&(_, count)| count >= min_count)
                    .map(|(cell, _)| (raw(cell as usize), cell as usize))
                    .collect()
            };
            kept.sort_unstable();
            let cells = kept.iter().map(|&(_, cell)| cell);
            ids.push(if dense {
                let mut dense = vec![0u16; at.cells() as usize];
                for (id, cell) in (1..).zip(cells) {
                    dense[cell] = id;
                }
                PairIds::Dense(dense)
            } else {
                let mut hashed = OpenTable::with_capacity(kept.len());
                for (id, cell) in (1..).zip(cells) {
                    hashed.insert(cell as u64, id);
                }
                PairIds::Hashed(hashed)
            });
            sizes.push(kept.len() as u32 + 1);
        }
        let mut offsets = Vec::with_capacity(sizes.len());
        let mut total = 0u32;
        for &size in &sizes {
            offsets.push(total);
            total += size;
        }
        Self {
            field_offsets,
            pairs,
            ids,
            sizes,
            offsets,
            total,
        }
    }

    /// Number of pairs.
    pub fn num_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Number of pairs whose ids live in a hashed table; the rest are
    /// dense.
    #[cfg(test)]
    pub(crate) fn hashed_pairs(&self) -> usize {
        self.ids
            .iter()
            .filter(|ids| matches!(ids, PairIds::Hashed(_)))
            .count()
    }

    /// Total global cross vocabulary size (the paper's "#cross value").
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Per-pair vocabulary sizes (OOV included).
    pub fn sizes(&self) -> Vec<u32> {
        self.sizes.clone()
    }

    /// Global offset of pair `p`.
    pub fn offset(&self, p: usize) -> u32 {
        self.offsets[p]
    }

    /// Encodes every row's cross features from its global field ids (as
    /// [`Vocabulary::encode_rows`] gives them): output is row-major
    /// `[N * P]`. Works pair by pair over blocks of rows, matching each
    /// pair's table kind once per block.
    pub fn encode_rows(&self, fields: &[u32]) -> Vec<u32> {
        let m = self.field_offsets.len();
        let np = self.num_pairs();
        assert_eq!(fields.len() % m, 0, "encode_rows: ragged rows");
        let mut out = vec![0u32; fields.len() / m * np];
        let mut cols = Vec::with_capacity(BLOCK_ROWS * m);
        for (rows, out) in fields
            .chunks(BLOCK_ROWS * m)
            .zip(out.chunks_mut(BLOCK_ROWS * np))
        {
            let n = rows.len() / m;
            local_columns(rows, &self.field_offsets, &mut cols);
            for (p, (at, ids)) in self.pairs.iter().zip(&self.ids).enumerate() {
                let offset = self.offsets[p];
                let slots = out[p..].iter_mut().step_by(np);
                let cells = at.locals(&cols, n).map(|(li, lj)| at.cell(li, lj));
                match ids {
                    PairIds::Dense(ids) => {
                        for (slot, cell) in slots.zip(cells) {
                            *slot = offset + u32::from(ids[cell]);
                        }
                    }
                    PairIds::Hashed(ids) => {
                        for (slot, cell) in slots.zip(cells) {
                            *slot = offset + ids.get(cell as u64);
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    /// Builds both vocabularies on `rows` and encodes them.
    fn encode(cards: Vec<u32>, rows: &[u32], min_count: u32) -> (CrossVocab, Vec<u32>) {
        let vocab = Vocabulary::build(&Schema::new(cards), rows, min_count);
        let fields = vocab.encode_rows(rows);
        let cv = CrossVocab::build(&vocab, &fields, min_count);
        let cross = cv.encode_rows(&fields);
        (cv, cross)
    }

    #[test]
    fn raw_cross_is_injective() {
        assert_ne!(raw_cross(1, 2), raw_cross(2, 1));
        assert_ne!(raw_cross(0, 5), raw_cross(5, 0));
        assert_eq!(raw_cross(3, 3), raw_cross(3, 3));
    }

    #[test]
    fn ids_follow_raw_order_not_local_order() {
        // Field 0's value 5 is the more frequent, so it gets local id 1 and
        // value 2 local id 2; the crosses are still numbered by raw value,
        // so (2, 7) gets pair id 1 and (5, 7) pair id 2.
        let (cv, cross) = encode(vec![8, 8], &[5, 7, 5, 7, 2, 7], 1);
        assert_eq!(cv.sizes(), [3]);
        assert_eq!(cross, [2, 2, 1]);
    }

    #[test]
    fn an_oov_side_gives_an_oov_cross() {
        // At min_count 2, value 3 of field 0 (seen once) is OOV, so its
        // row's cross is OOV too; (1, 4) is seen twice and kept.
        let (cv, cross) = encode(vec![8, 8], &[1, 4, 1, 4, 3, 4], 2);
        assert_eq!(cv.sizes(), [2]);
        assert_eq!(cross, [1, 1, 0]);
        assert_eq!(cv.total(), 2);
    }
}
