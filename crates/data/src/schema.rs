//! Multi-field schema and second-order pair indexing.

/// Schema of a multi-field categorical dataset: `M` fields, each with a raw
/// cardinality (number of distinct raw values before vocabulary pruning).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    cardinalities: Vec<u32>,
}

impl Schema {
    /// Creates a schema from per-field raw cardinalities.
    ///
    /// # Panics
    /// Panics if any cardinality is zero or there are fewer than two fields.
    pub fn new(cardinalities: Vec<u32>) -> Self {
        assert!(cardinalities.len() >= 2, "schema needs at least two fields");
        assert!(
            cardinalities.iter().all(|&c| c > 0),
            "field cardinality must be positive"
        );
        Self { cardinalities }
    }

    /// Number of fields `M`.
    pub fn num_fields(&self) -> usize {
        self.cardinalities.len()
    }

    /// Raw cardinality of field `f`.
    pub fn cardinality(&self, f: usize) -> u32 {
        self.cardinalities[f]
    }

    /// All per-field cardinalities.
    pub fn cardinalities(&self) -> &[u32] {
        &self.cardinalities
    }

    /// Number of second-order pairs `M(M-1)/2` (paper: `C_M^2`).
    pub fn num_pairs(&self) -> usize {
        let m = self.num_fields();
        m * (m - 1) / 2
    }

    /// Pair indexer over this schema's fields.
    pub fn pairs(&self) -> PairIndexer {
        PairIndexer::new(self.num_fields())
    }
}

/// Bijection between field pairs `(i, j)` with `i < j` and flat indices
/// `0..M(M-1)/2`, in the paper's lexicographic order
/// `(0,1), (0,2), ..., (M-2, M-1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairIndexer {
    num_fields: usize,
}

impl PairIndexer {
    /// Creates an indexer over `num_fields` fields.
    pub fn new(num_fields: usize) -> Self {
        assert!(num_fields >= 2, "pair indexing needs at least two fields");
        Self { num_fields }
    }

    /// Number of fields.
    pub fn num_fields(&self) -> usize {
        self.num_fields
    }

    /// Number of pairs.
    pub fn num_pairs(&self) -> usize {
        self.num_fields * (self.num_fields - 1) / 2
    }

    /// Flat index of pair `(i, j)` with `i < j`.
    pub fn index_of(&self, i: usize, j: usize) -> usize {
        assert!(i < j && j < self.num_fields, "invalid pair ({i}, {j})");
        // Pairs with first coordinate < i come first:
        // sum_{k<i} (M-1-k) = i*(2M - i - 1)/2
        let m = self.num_fields;
        i * (2 * m - i - 1) / 2 + (j - i - 1)
    }

    /// The pair `(i, j)` at flat index `p`.
    pub fn pair_at(&self, p: usize) -> (usize, usize) {
        assert!(p < self.num_pairs(), "pair index {p} out of range");
        let m = self.num_fields;
        let mut i = 0;
        let mut offset = 0;
        loop {
            let row_len = m - 1 - i;
            if p < offset + row_len {
                return (i, i + 1 + (p - offset));
            }
            offset += row_len;
            i += 1;
        }
    }

    /// Iterator over all pairs in flat order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let m = self.num_fields;
        (0..m).flat_map(move |i| (i + 1..m).map(move |j| (i, j)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_basics() {
        let s = Schema::new(vec![10, 20, 30]);
        assert_eq!(s.num_fields(), 3);
        assert_eq!(s.num_pairs(), 3);
        assert_eq!(s.cardinality(2), 30);
    }

    #[test]
    #[should_panic(expected = "at least two fields")]
    fn schema_rejects_single_field() {
        Schema::new(vec![10]);
    }

    #[test]
    fn pair_index_roundtrip() {
        for m in 2..=8 {
            let idx = PairIndexer::new(m);
            let mut seen = vec![false; idx.num_pairs()];
            for (i, j) in idx.iter() {
                let p = idx.index_of(i, j);
                assert!(!seen[p], "duplicate flat index {p}");
                seen[p] = true;
                assert_eq!(idx.pair_at(p), (i, j));
            }
            assert!(seen.iter().all(|&s| s), "missing flat index for m={m}");
        }
    }

    #[test]
    fn pair_order_is_lexicographic() {
        let idx = PairIndexer::new(4);
        let pairs: Vec<_> = idx.iter().collect();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(idx.index_of(0, 1), 0);
        assert_eq!(idx.index_of(2, 3), 5);
    }

    #[test]
    #[should_panic(expected = "invalid pair")]
    fn index_of_rejects_unordered() {
        PairIndexer::new(4).index_of(2, 1);
    }
}
