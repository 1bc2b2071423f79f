//! Embedding stores: dense tables and compositional (hashed) tables.
//!
//! Production CTR vocabularies run to 10⁷–10⁸ keys; a dense
//! [`EmbeddingTable`] at that scale spends hundreds of megabytes per field
//! group and dominates both memory and optimizer time. This module makes
//! the storage scheme a first-class choice behind the [`EmbeddingStore`]
//! trait:
//!
//! - [`EmbeddingTable`] — one row per key, exact, the default;
//! - [`HashedEmbedding`] — a compositional table in the quotient-remainder
//!   or double-hash style: each key id maps to one row in each of **two**
//!   small sub-tables and its embedding is the element-wise product of the
//!   two rows. Memory drops from `O(V)` rows to `O(√V)` (quotient-remainder
//!   at the optimal bucket) or any chosen budget (double-hash), at the cost
//!   of parameter sharing between colliding keys.
//!
//! Both impls keep the substrate contracts: `*_into` lookup and
//! lane-sharded gradient paths are allocation-free at steady state, and all
//! parallel work is owner-computes over pool rows/lanes, so results are
//! bit-identical at 1, 2 and 4 threads.
//!
//! # Hashing
//!
//! Slot derivation is a pure function of `(seed, id)` built from the same
//! SplitMix64 + Fibonacci multiply-shift idioms as `data::hash` (that crate
//! sits *above* this one, so the two small functions are mirrored here
//! rather than imported). [`qr_slots`] and [`double_hash_slots`] are
//! exported so tests can check purity and collision structure directly.

use crate::embedding::{EmbedOptimizerMode, EmbeddingTable, POOL_MIN_WORK};
use crate::optim::Adam;
use optinter_tensor::pool::Pool;
use optinter_tensor::Matrix;
use rand::Rng;

/// Fibonacci multiplier (2⁶⁴ / φ) — mirrors `data::hash::MULT`.
const MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// One round of the SplitMix64 mixing function — mirrors
/// `data::hash::splitmix64` (nn cannot depend on the data crate).
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Quotient-remainder slot pair for `id` under divisor `bucket`:
/// `(id / bucket, id % bucket)`. The pair is injective over any key space,
/// so two distinct ids never share *both* rows — the compose output stays
/// unique per key even though each sub-row is shared.
#[inline]
pub fn qr_slots(bucket: u32, id: u32) -> (u32, u32) {
    debug_assert!(bucket > 0, "qr_slots: bucket must be positive");
    (id / bucket, id % bucket)
}

/// Double-hash slot pair for `id`: two independent SplitMix64 draws seeded
/// by `(seed, id)`, each reduced onto `[0, rows)` with the multiply-shift
/// (Lemire) map. Pure function of `(seed, rows, id)` — no process state.
#[inline]
pub fn double_hash_slots(seed: u64, rows: u32, id: u32) -> (u32, u32) {
    debug_assert!(rows > 0, "double_hash_slots: rows must be positive");
    let h1 = splitmix64(seed ^ (id as u64).wrapping_mul(MULT));
    let h2 = splitmix64(h1 ^ 0xA5A5_5A5A_C3C3_3C3C);
    let s1 = (((h1 >> 32) * rows as u64) >> 32) as u32;
    let s2 = (((h2 >> 32) * rows as u64) >> 32) as u32;
    (s1, s2)
}

/// How a [`HashedEmbedding`] derives its two sub-table slots from a key id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HashScheme {
    /// `id -> (id / bucket, id % bucket)`; sub-tables have
    /// `ceil(key_space / bucket)` and `bucket` rows. Injective: the slot
    /// pair identifies the id uniquely.
    QuotientRemainder { bucket: u32 },
    /// Two seeded SplitMix64 hashes onto `rows`-row sub-tables. Not
    /// injective, but the memory budget is chosen freely and collisions in
    /// both slots at once are ~`1/rows²`.
    DoubleHash { rows: u32 },
}

/// Uniform interface over embedding storage schemes.
///
/// Lookups take `&mut self` because compositional stores stage sub-table
/// results in owned scratch (the zero-alloc contract forbids temporaries).
/// The gradient/optimizer half mirrors [`EmbeddingTable`]'s touched-row
/// arena protocol: accumulate per batch, apply once per step, and
/// [`catch_up_all`](Self::catch_up_all) to flush lazy tails before
/// exporting weights.
pub trait EmbeddingStore {
    /// Number of distinct key ids the store accepts (`0..key_space`).
    fn key_space(&self) -> usize;
    /// Embedding width per key.
    fn dim(&self) -> usize;
    /// Trainable parameter count (what the store actually allocates).
    fn num_params(&self) -> usize;
    /// Multi-field batched lookup into a caller-owned buffer.
    fn lookup_fields_into(&mut self, flat: &[u32], num_fields: usize, out: &mut Matrix);
    /// [`lookup_fields_into`](Self::lookup_fields_into) with batch rows
    /// sharded across `pool`; bit-identical to the serial path.
    fn lookup_fields_pooled_into(
        &mut self,
        flat: &[u32],
        num_fields: usize,
        pool: &Pool,
        out: &mut Matrix,
    );
    /// Accumulates gradients for the most recent batch shape (inverse of
    /// the lookup), lane-sharded deterministically across `pool`.
    fn accumulate_grad_fields_pooled(
        &mut self,
        flat: &[u32],
        num_fields: usize,
        grad: &Matrix,
        pool: &Pool,
    );
    /// Applies one Adam step under the configured optimizer mode.
    fn apply_adam(&mut self, adam: &Adam, weight_decay: f32);
    /// Applies one SGD step under the configured optimizer mode.
    fn apply_sgd(&mut self, lr: f32, weight_decay: f32);
    /// Replays deferred lazy-Adam zero-grad steps on every row.
    fn catch_up_all(&mut self, adam: &Adam, weight_decay: f32);
    /// Drops accumulated gradients without applying them.
    fn clear_grads(&mut self);
    /// Selects sparse / dense-apply / lazy optimizer behavior.
    fn set_optimizer_mode(&mut self, mode: EmbedOptimizerMode);
}

impl EmbeddingStore for EmbeddingTable {
    fn key_space(&self) -> usize {
        self.vocab()
    }

    fn dim(&self) -> usize {
        EmbeddingTable::dim(self)
    }

    fn num_params(&self) -> usize {
        EmbeddingTable::num_params(self)
    }

    fn lookup_fields_into(&mut self, flat: &[u32], num_fields: usize, out: &mut Matrix) {
        EmbeddingTable::lookup_fields_into(self, flat, num_fields, out);
    }

    fn lookup_fields_pooled_into(
        &mut self,
        flat: &[u32],
        num_fields: usize,
        pool: &Pool,
        out: &mut Matrix,
    ) {
        EmbeddingTable::lookup_fields_pooled_into(self, flat, num_fields, pool, out);
    }

    fn accumulate_grad_fields_pooled(
        &mut self,
        flat: &[u32],
        num_fields: usize,
        grad: &Matrix,
        pool: &Pool,
    ) {
        EmbeddingTable::accumulate_grad_fields_pooled(self, flat, num_fields, grad, pool);
    }

    fn apply_adam(&mut self, adam: &Adam, weight_decay: f32) {
        EmbeddingTable::apply_adam(self, adam, weight_decay);
    }

    fn apply_sgd(&mut self, lr: f32, weight_decay: f32) {
        EmbeddingTable::apply_sgd(self, lr, weight_decay);
    }

    fn catch_up_all(&mut self, adam: &Adam, weight_decay: f32) {
        EmbeddingTable::catch_up_all(self, adam, weight_decay);
    }

    fn clear_grads(&mut self) {
        EmbeddingTable::clear_grads(self);
    }

    fn set_optimizer_mode(&mut self, mode: EmbedOptimizerMode) {
        EmbeddingTable::set_optimizer_mode(self, mode);
    }
}

/// Compositional embedding table: `embed(id) = t1[slot1(id)] ⊙ t2[slot2(id)]`.
///
/// Covers a `key_space`-id vocabulary with two sub-tables whose combined
/// row count is far below `key_space` (see [`HashScheme`]). The Zipf-hot
/// head of a CTR vocabulary keeps effectively-private rows (collisions are
/// rare among few hot keys), while the long tail shares capacity.
///
/// Backward recomputes the sub-lookups, so a step is self-contained:
/// `∂L/∂t1[s1] += grad ⊙ t2[s2]` and symmetrically for `t2`, both through
/// the sub-tables' lane-sharded arena path (deterministic for any thread
/// count). Call the usual `apply_*`/`clear_grads` once per step.
pub struct HashedEmbedding {
    key_space: usize,
    dim: usize,
    seed: u64,
    scheme: HashScheme,
    t1: EmbeddingTable,
    t2: EmbeddingTable,
    /// Per-batch slot scratch (lazily grown, then reused).
    idx1: Vec<u32>,
    idx2: Vec<u32>,
    /// Per-batch sub-lookup / sub-gradient scratch.
    rows1: Matrix,
    rows2: Matrix,
    g1: Matrix,
    g2: Matrix,
}

impl HashedEmbedding {
    /// Creates a hashed store covering ids `0..key_space` at width `dim`.
    ///
    /// Sub-tables are Xavier-initialised from `rng`; `seed` parameterises
    /// the slot hash (only [`HashScheme::DoubleHash`] consumes it, but it
    /// is stored for both so a frozen artifact can reconstruct the exact
    /// mapping).
    pub fn new(
        rng: &mut impl Rng,
        key_space: usize,
        dim: usize,
        scheme: HashScheme,
        seed: u64,
    ) -> Self {
        let (rows1, rows2) = Self::sub_rows(key_space, scheme);
        Self {
            key_space,
            dim,
            seed,
            scheme,
            t1: EmbeddingTable::new(rng, rows1, dim),
            t2: EmbeddingTable::new(rng, rows2, dim),
            idx1: Vec::new(),
            idx2: Vec::new(),
            rows1: Matrix::zeros(0, 0),
            rows2: Matrix::zeros(0, 0),
            g1: Matrix::zeros(0, 0),
            g2: Matrix::zeros(0, 0),
        }
    }

    /// Row counts of the two sub-tables implied by `(key_space, scheme)`.
    pub fn sub_rows(key_space: usize, scheme: HashScheme) -> (usize, usize) {
        assert!(key_space > 0, "HashedEmbedding: empty key space");
        assert!(
            key_space - 1 <= u32::MAX as usize,
            "HashedEmbedding: ids must fit in u32"
        );
        match scheme {
            HashScheme::QuotientRemainder { bucket } => {
                assert!(bucket > 0, "HashedEmbedding: bucket must be positive");
                (key_space.div_ceil(bucket as usize), bucket as usize)
            }
            HashScheme::DoubleHash { rows } => {
                assert!(rows > 0, "HashedEmbedding: rows must be positive");
                (rows as usize, rows as usize)
            }
        }
    }

    /// Number of distinct ids this store accepts.
    pub fn key_space(&self) -> usize {
        self.key_space
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Slot-hash seed (see [`double_hash_slots`]).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured slot-derivation scheme.
    pub fn scheme(&self) -> HashScheme {
        self.scheme
    }

    /// Trainable parameter count across both sub-tables.
    pub fn num_params(&self) -> usize {
        self.t1.num_params() + self.t2.num_params()
    }

    /// First (quotient / first-hash) sub-table.
    pub fn table1(&self) -> &EmbeddingTable {
        &self.t1
    }

    /// Second (remainder / second-hash) sub-table.
    pub fn table2(&self) -> &EmbeddingTable {
        &self.t2
    }

    /// Mutable sub-table access (weight import when thawing artifacts).
    pub fn tables_mut(&mut self) -> (&mut EmbeddingTable, &mut EmbeddingTable) {
        (&mut self.t1, &mut self.t2)
    }

    /// Slot pair for one id under the configured scheme — pure in
    /// `(seed, scheme, id)`.
    #[inline]
    pub fn slots(&self, id: u32) -> (u32, u32) {
        match self.scheme {
            HashScheme::QuotientRemainder { bucket } => qr_slots(bucket, id),
            HashScheme::DoubleHash { rows } => double_hash_slots(self.seed, rows, id),
        }
    }

    /// Selects sparse / dense-apply / lazy optimizer behavior on both
    /// sub-tables. Set before the first `apply_*` call.
    pub fn set_optimizer_mode(&mut self, mode: EmbedOptimizerMode) {
        self.t1.set_optimizer_mode(mode);
        self.t2.set_optimizer_mode(mode);
    }

    /// Fills the slot scratch for a flat id batch.
    fn hash_into(&mut self, flat: &[u32]) {
        self.idx1.resize(flat.len(), 0);
        self.idx2.resize(flat.len(), 0);
        for (k, &id) in flat.iter().enumerate() {
            debug_assert!(
                (id as usize) < self.key_space,
                "HashedEmbedding: id {id} outside key space {}",
                self.key_space
            );
            let (s1, s2) = match self.scheme {
                HashScheme::QuotientRemainder { bucket } => qr_slots(bucket, id),
                HashScheme::DoubleHash { rows } => double_hash_slots(self.seed, rows, id),
            };
            self.idx1[k] = s1;
            self.idx2[k] = s2;
        }
    }

    /// Element-wise product compose of the staged sub-lookups into `out`.
    /// Row-owned writes only, so pooled and serial results are bitwise
    /// equal.
    fn compose_into(&self, batch: usize, width: usize, pool: &Pool, out: &mut Matrix) {
        out.reset(batch, width);
        let (r1, r2) = (&self.rows1, &self.rows2);
        if pool.is_serial() || batch * width < POOL_MIN_WORK {
            for b in 0..batch {
                let dst = out.row_mut(b);
                for ((d, &x), &y) in dst.iter_mut().zip(r1.row(b)).zip(r2.row(b)) {
                    *d = x * y;
                }
            }
        } else {
            pool.for_rows(out.as_mut_slice(), width, |b, dst| {
                for ((d, &x), &y) in dst.iter_mut().zip(r1.row(b)).zip(r2.row(b)) {
                    *d = x * y;
                }
            });
        }
    }

    /// Multi-field batched lookup into a caller-owned buffer (`out` becomes
    /// `[batch, num_fields*dim]`). Allocation-free at steady state.
    pub fn lookup_fields_into(&mut self, flat: &[u32], num_fields: usize, out: &mut Matrix) {
        self.lookup_fields_pooled_into(flat, num_fields, &Pool::serial(), out);
    }

    /// [`lookup_fields_into`](Self::lookup_fields_into) with the sub-table
    /// lookups and the compose pass sharded across `pool`.
    pub fn lookup_fields_pooled_into(
        &mut self,
        flat: &[u32],
        num_fields: usize,
        pool: &Pool,
        out: &mut Matrix,
    ) {
        assert!(num_fields > 0, "lookup_fields: need at least one field");
        assert_eq!(flat.len() % num_fields, 0, "lookup_fields: ragged batch");
        let batch = flat.len() / num_fields;
        let width = num_fields * self.dim;
        self.hash_into(flat);
        self.t1
            .lookup_fields_pooled_into(&self.idx1, num_fields, pool, &mut self.rows1);
        self.t2
            .lookup_fields_pooled_into(&self.idx2, num_fields, pool, &mut self.rows2);
        self.compose_into(batch, width, pool, out);
    }

    /// Accumulates gradients for a composed lookup (inverse of
    /// [`lookup_fields_pooled_into`](Self::lookup_fields_pooled_into)).
    ///
    /// Recomputes the sub-lookups (weights are unchanged between a step's
    /// forward and backward), forms `g1 = grad ⊙ t2-rows` and
    /// `g2 = grad ⊙ t1-rows` with row-owned pooled writes, then feeds each
    /// through the sub-table's lane-sharded arena accumulation.
    pub fn accumulate_grad_fields_pooled(
        &mut self,
        flat: &[u32],
        num_fields: usize,
        grad: &Matrix,
        pool: &Pool,
    ) {
        assert!(
            num_fields > 0,
            "accumulate_grad_fields: need at least one field"
        );
        assert_eq!(
            flat.len() % num_fields,
            0,
            "accumulate_grad_fields: ragged batch"
        );
        let batch = flat.len() / num_fields;
        let width = num_fields * self.dim;
        assert_eq!(grad.rows(), batch, "accumulate_grad_fields: batch mismatch");
        assert_eq!(grad.cols(), width, "accumulate_grad_fields: dim mismatch");
        self.hash_into(flat);
        self.t1
            .lookup_fields_pooled_into(&self.idx1, num_fields, pool, &mut self.rows1);
        self.t2
            .lookup_fields_pooled_into(&self.idx2, num_fields, pool, &mut self.rows2);
        self.g1.reset(batch, width);
        self.g2.reset(batch, width);
        {
            let (r1, r2) = (&self.rows1, &self.rows2);
            let serial = pool.is_serial() || batch * width < POOL_MIN_WORK;
            let fill = |b: usize, dst: &mut [f32], other: &Matrix| {
                for ((d, &g), &o) in dst.iter_mut().zip(grad.row(b)).zip(other.row(b)) {
                    *d = g * o;
                }
            };
            if serial {
                for b in 0..batch {
                    fill(b, self.g1.row_mut(b), r2);
                }
                for b in 0..batch {
                    fill(b, self.g2.row_mut(b), r1);
                }
            } else {
                pool.for_rows(self.g1.as_mut_slice(), width, |b, dst| fill(b, dst, r2));
                pool.for_rows(self.g2.as_mut_slice(), width, |b, dst| fill(b, dst, r1));
            }
        }
        self.t1
            .accumulate_grad_fields_pooled(&self.idx1, num_fields, &self.g1, pool);
        self.t2
            .accumulate_grad_fields_pooled(&self.idx2, num_fields, &self.g2, pool);
    }

    /// Serial convenience form of
    /// [`accumulate_grad_fields_pooled`](Self::accumulate_grad_fields_pooled).
    pub fn accumulate_grad_fields(&mut self, flat: &[u32], num_fields: usize, grad: &Matrix) {
        self.accumulate_grad_fields_pooled(flat, num_fields, grad, &Pool::serial());
    }

    /// Applies one Adam step to both sub-tables (shared timestep).
    pub fn apply_adam(&mut self, adam: &Adam, weight_decay: f32) {
        self.t1.apply_adam(adam, weight_decay);
        self.t2.apply_adam(adam, weight_decay);
    }

    /// Applies one SGD step to both sub-tables.
    pub fn apply_sgd(&mut self, lr: f32, weight_decay: f32) {
        self.t1.apply_sgd(lr, weight_decay);
        self.t2.apply_sgd(lr, weight_decay);
    }

    /// Replays deferred lazy-Adam steps on every sub-table row.
    pub fn catch_up_all(&mut self, adam: &Adam, weight_decay: f32) {
        self.t1.catch_up_all(adam, weight_decay);
        self.t2.catch_up_all(adam, weight_decay);
    }

    /// Drops accumulated gradients without applying them.
    pub fn clear_grads(&mut self) {
        self.t1.clear_grads();
        self.t2.clear_grads();
    }
}

impl EmbeddingStore for HashedEmbedding {
    fn key_space(&self) -> usize {
        HashedEmbedding::key_space(self)
    }

    fn dim(&self) -> usize {
        HashedEmbedding::dim(self)
    }

    fn num_params(&self) -> usize {
        HashedEmbedding::num_params(self)
    }

    fn lookup_fields_into(&mut self, flat: &[u32], num_fields: usize, out: &mut Matrix) {
        HashedEmbedding::lookup_fields_into(self, flat, num_fields, out);
    }

    fn lookup_fields_pooled_into(
        &mut self,
        flat: &[u32],
        num_fields: usize,
        pool: &Pool,
        out: &mut Matrix,
    ) {
        HashedEmbedding::lookup_fields_pooled_into(self, flat, num_fields, pool, out);
    }

    fn accumulate_grad_fields_pooled(
        &mut self,
        flat: &[u32],
        num_fields: usize,
        grad: &Matrix,
        pool: &Pool,
    ) {
        HashedEmbedding::accumulate_grad_fields_pooled(self, flat, num_fields, grad, pool);
    }

    fn apply_adam(&mut self, adam: &Adam, weight_decay: f32) {
        HashedEmbedding::apply_adam(self, adam, weight_decay);
    }

    fn apply_sgd(&mut self, lr: f32, weight_decay: f32) {
        HashedEmbedding::apply_sgd(self, lr, weight_decay);
    }

    fn catch_up_all(&mut self, adam: &Adam, weight_decay: f32) {
        HashedEmbedding::catch_up_all(self, adam, weight_decay);
    }

    fn clear_grads(&mut self) {
        HashedEmbedding::clear_grads(self);
    }

    fn set_optimizer_mode(&mut self, mode: EmbedOptimizerMode) {
        HashedEmbedding::set_optimizer_mode(self, mode);
    }
}

/// Storage-scheme choice carried by model configs. [`StoreKind::Dense`]
/// reproduces the historical dense-table behavior bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreKind {
    /// One exact row per key ([`EmbeddingTable`]).
    #[default]
    Dense,
    /// Quotient-remainder compositional store with the given divisor.
    HashedQr { bucket: u32 },
    /// Double-hash compositional store with the given sub-table rows.
    HashedDouble { rows: u32 },
}

impl StoreKind {
    /// The [`HashScheme`] this kind implies, or `None` for dense.
    pub fn scheme(&self) -> Option<HashScheme> {
        match *self {
            StoreKind::Dense => None,
            StoreKind::HashedQr { bucket } => Some(HashScheme::QuotientRemainder { bucket }),
            StoreKind::HashedDouble { rows } => Some(HashScheme::DoubleHash { rows }),
        }
    }
}

/// Maps a tensor name plus its expected `(rows, cols)` to the stored
/// matrix; the source [`EmbedStore::import_weights`] reads from.
pub type WeightFetch<'a> = dyn FnMut(&str, (usize, usize)) -> Result<Matrix, String> + 'a;

/// A concrete store owned by a model: dense or hashed, chosen per
/// [`StoreKind`]. Inherent methods delegate so model code needs no trait
/// import and no generics.
pub enum EmbedStore {
    /// Dense per-key table.
    Dense(Box<EmbeddingTable>),
    /// Compositional two-table store.
    Hashed(Box<HashedEmbedding>),
}

impl EmbedStore {
    /// Builds a store of the requested kind. For [`StoreKind::Dense`] this
    /// draws exactly the values `EmbeddingTable::new` always drew, keeping
    /// historical weight trajectories bitwise intact.
    pub fn new(
        kind: StoreKind,
        rng: &mut impl Rng,
        key_space: usize,
        dim: usize,
        hash_seed: u64,
    ) -> Self {
        match kind.scheme() {
            None => EmbedStore::Dense(Box::new(EmbeddingTable::new(rng, key_space, dim))),
            Some(scheme) => EmbedStore::Hashed(Box::new(HashedEmbedding::new(
                rng, key_space, dim, scheme, hash_seed,
            ))),
        }
    }

    /// The [`StoreKind`] this store was built as.
    pub fn kind(&self) -> StoreKind {
        match self {
            EmbedStore::Dense(_) => StoreKind::Dense,
            EmbedStore::Hashed(h) => match h.scheme() {
                HashScheme::QuotientRemainder { bucket } => StoreKind::HashedQr { bucket },
                HashScheme::DoubleHash { rows } => StoreKind::HashedDouble { rows },
            },
        }
    }

    /// Number of distinct ids the store accepts.
    pub fn key_space(&self) -> usize {
        match self {
            EmbedStore::Dense(t) => t.vocab(),
            EmbedStore::Hashed(h) => h.key_space(),
        }
    }

    /// The compositional hash seed, when the store is hashed (serving
    /// artifacts record it so lookup recomposition hashes identically).
    pub fn hash_seed(&self) -> Option<u64> {
        match self {
            EmbedStore::Dense(_) => None,
            EmbedStore::Hashed(h) => Some(h.seed()),
        }
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        match self {
            EmbedStore::Dense(t) => t.dim(),
            EmbedStore::Hashed(h) => h.dim(),
        }
    }

    /// Trainable parameter count (bytes/row comparisons divide this by
    /// [`key_space`](Self::key_space)).
    pub fn num_params(&self) -> usize {
        match self {
            EmbedStore::Dense(t) => t.num_params(),
            EmbedStore::Hashed(h) => h.num_params(),
        }
    }

    /// The dense table, if this store is dense.
    pub fn as_dense(&self) -> Option<&EmbeddingTable> {
        match self {
            EmbedStore::Dense(t) => Some(t),
            EmbedStore::Hashed(_) => None,
        }
    }

    /// Mutable form of [`as_dense`](Self::as_dense).
    pub fn as_dense_mut(&mut self) -> Option<&mut EmbeddingTable> {
        match self {
            EmbedStore::Dense(t) => Some(t),
            EmbedStore::Hashed(_) => None,
        }
    }

    /// The hashed store, if this store is compositional.
    pub fn as_hashed(&self) -> Option<&HashedEmbedding> {
        match self {
            EmbedStore::Dense(_) => None,
            EmbedStore::Hashed(h) => Some(h),
        }
    }

    /// Mutable form of [`as_hashed`](Self::as_hashed).
    pub fn as_hashed_mut(&mut self) -> Option<&mut HashedEmbedding> {
        match self {
            EmbedStore::Dense(_) => None,
            EmbedStore::Hashed(h) => Some(h),
        }
    }

    /// Multi-field batched lookup into a caller-owned buffer.
    pub fn lookup_fields_into(&mut self, flat: &[u32], num_fields: usize, out: &mut Matrix) {
        match self {
            EmbedStore::Dense(t) => t.lookup_fields_into(flat, num_fields, out),
            EmbedStore::Hashed(h) => h.lookup_fields_into(flat, num_fields, out),
        }
    }

    /// Pooled multi-field lookup; bit-identical to the serial path.
    pub fn lookup_fields_pooled_into(
        &mut self,
        flat: &[u32],
        num_fields: usize,
        pool: &Pool,
        out: &mut Matrix,
    ) {
        match self {
            EmbedStore::Dense(t) => t.lookup_fields_pooled_into(flat, num_fields, pool, out),
            EmbedStore::Hashed(h) => h.lookup_fields_pooled_into(flat, num_fields, pool, out),
        }
    }

    /// Lane-sharded gradient accumulation (inverse of the lookup).
    pub fn accumulate_grad_fields_pooled(
        &mut self,
        flat: &[u32],
        num_fields: usize,
        grad: &Matrix,
        pool: &Pool,
    ) {
        match self {
            EmbedStore::Dense(t) => t.accumulate_grad_fields_pooled(flat, num_fields, grad, pool),
            EmbedStore::Hashed(h) => h.accumulate_grad_fields_pooled(flat, num_fields, grad, pool),
        }
    }

    /// Applies one Adam step under the configured optimizer mode.
    pub fn apply_adam(&mut self, adam: &Adam, weight_decay: f32) {
        match self {
            EmbedStore::Dense(t) => t.apply_adam(adam, weight_decay),
            EmbedStore::Hashed(h) => h.apply_adam(adam, weight_decay),
        }
    }

    /// Applies one SGD step under the configured optimizer mode.
    pub fn apply_sgd(&mut self, lr: f32, weight_decay: f32) {
        match self {
            EmbedStore::Dense(t) => t.apply_sgd(lr, weight_decay),
            EmbedStore::Hashed(h) => h.apply_sgd(lr, weight_decay),
        }
    }

    /// Replays deferred lazy-Adam steps so exported weights match the
    /// dense-apply trajectory.
    pub fn catch_up_all(&mut self, adam: &Adam, weight_decay: f32) {
        match self {
            EmbedStore::Dense(t) => t.catch_up_all(adam, weight_decay),
            EmbedStore::Hashed(h) => h.catch_up_all(adam, weight_decay),
        }
    }

    /// Drops accumulated gradients without applying them.
    pub fn clear_grads(&mut self) {
        match self {
            EmbedStore::Dense(t) => t.clear_grads(),
            EmbedStore::Hashed(h) => h.clear_grads(),
        }
    }

    /// Selects sparse / dense-apply / lazy optimizer behavior.
    pub fn set_optimizer_mode(&mut self, mode: EmbedOptimizerMode) {
        match self {
            EmbedStore::Dense(t) => t.set_optimizer_mode(mode),
            EmbedStore::Hashed(h) => h.set_optimizer_mode(mode),
        }
    }

    /// Exports trainable tensors under `name` (dense: `name`; hashed:
    /// `name.t1` / `name.t2`), appending `(tensor_name, weights)` pairs.
    pub fn push_weights(&self, name: &str, out: &mut Vec<(String, Matrix)>) {
        match self {
            EmbedStore::Dense(t) => out.push((name.to_string(), t.weight().clone())),
            EmbedStore::Hashed(h) => {
                out.push((format!("{name}.t1"), h.table1().weight().clone()));
                out.push((format!("{name}.t2"), h.table2().weight().clone()));
            }
        }
    }

    /// Imports trainable tensors exported by
    /// [`push_weights`](Self::push_weights).
    pub fn import_weights(
        &mut self,
        name: &str,
        fetch: &mut WeightFetch<'_>,
    ) -> Result<(), String> {
        match self {
            EmbedStore::Dense(t) => {
                let shape = t.weight().shape();
                *t.weight_mut() = fetch(name, shape)?;
                Ok(())
            }
            EmbedStore::Hashed(h) => {
                let (t1, t2) = h.tables_mut();
                let shape1 = t1.weight().shape();
                *t1.weight_mut() = fetch(&format!("{name}.t1"), shape1)?;
                let shape2 = t2.weight().shape();
                *t2.weight_mut() = fetch(&format!("{name}.t2"), shape2)?;
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn zipfish_batch(n: usize, key_space: u32, salt: u64) -> Vec<u32> {
        // Deterministic skewed ids: half the draws land in the hot head.
        (0..n)
            .map(|i| {
                let h = splitmix64(salt ^ i as u64);
                if h.is_multiple_of(2) {
                    (h % 17) as u32
                } else {
                    (h % key_space as u64) as u32
                }
            })
            .collect()
    }

    #[test]
    fn qr_partition_reconstructs_every_id() {
        let (key_space, bucket) = (1000u32, 37u32);
        for id in 0..key_space {
            let (q, r) = qr_slots(bucket, id);
            assert_eq!(q * bucket + r, id);
            assert!(q < key_space.div_ceil(bucket));
            assert!(r < bucket);
        }
    }

    #[test]
    fn double_hash_is_pure_and_in_range() {
        for id in 0..500u32 {
            let a = double_hash_slots(99, 64, id);
            let b = double_hash_slots(99, 64, id);
            assert_eq!(a, b);
            assert!(a.0 < 64 && a.1 < 64);
        }
        // Different seeds move slots for at least some ids.
        assert!((0..500u32).any(|id| double_hash_slots(1, 64, id) != double_hash_slots(2, 64, id)));
    }

    #[test]
    fn hashed_lookup_matches_manual_compose() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut h = HashedEmbedding::new(
            &mut rng,
            200,
            4,
            HashScheme::QuotientRemainder { bucket: 16 },
            3,
        );
        let flat = [5u32, 21, 199, 0, 16, 17];
        let mut out = Matrix::zeros(0, 0);
        h.lookup_fields_into(&flat, 3, &mut out);
        assert_eq!((out.rows(), out.cols()), (2, 12));
        for (k, &id) in flat.iter().enumerate() {
            let (s1, s2) = h.slots(id);
            let (b, f) = (k / 3, k % 3);
            for d in 0..4 {
                let want = h.table1().weight().row(s1 as usize)[d]
                    * h.table2().weight().row(s2 as usize)[d];
                assert_eq!(out.row(b)[f * 4 + d].to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn pooled_hashed_paths_match_serial_bitwise() {
        for scheme in [
            HashScheme::QuotientRemainder { bucket: 16 },
            HashScheme::DoubleHash { rows: 48 },
        ] {
            let mut rng = StdRng::seed_from_u64(11);
            let mut serial = HashedEmbedding::new(&mut rng, 300, 8, scheme, 5);
            let mut rng2 = StdRng::seed_from_u64(11);
            let mut pooled = HashedEmbedding::new(&mut rng2, 300, 8, scheme, 5);
            let flat = zipfish_batch(256 * 8, 300, 42);
            let grad = Matrix::from_fn(256, 64, |r, c| 0.01 * (r as f32 - 3.0) + 0.001 * c as f32);
            let pool = Pool::new(4);

            let mut out_s = Matrix::zeros(0, 0);
            let mut out_p = Matrix::zeros(0, 0);
            serial.lookup_fields_into(&flat, 8, &mut out_s);
            pooled.lookup_fields_pooled_into(&flat, 8, &pool, &mut out_p);
            for (a, b) in out_s.as_slice().iter().zip(out_p.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }

            serial.accumulate_grad_fields(&flat, 8, &grad);
            pooled.accumulate_grad_fields_pooled(&flat, 8, &grad, &pool);
            let adam = Adam::with_lr_eps(0.01, 1e-8);
            serial.apply_adam(&adam, 0.0);
            pooled.apply_adam(&adam, 0.0);
            for (a, b) in serial
                .table1()
                .weight()
                .as_slice()
                .iter()
                .zip(pooled.table1().weight().as_slice())
            {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in serial
                .table2()
                .weight()
                .as_slice()
                .iter()
                .zip(pooled.table2().weight().as_slice())
            {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn hashed_gradients_match_finite_difference() {
        // d(loss)/d(t1[s1]) for loss = sum(out * c) is c ⊙ t2[s2] summed
        // over occurrences — check through the public API on a tiny case.
        let mut rng = StdRng::seed_from_u64(3);
        let mut h = HashedEmbedding::new(
            &mut rng,
            20,
            2,
            HashScheme::QuotientRemainder { bucket: 4 },
            1,
        );
        let flat = [7u32, 7, 13];
        // grad rows: batch=3, one field, dim=2.
        let grad = Matrix::from_fn(3, 2, |r, c| (r as f32 + 1.0) * 0.1 + c as f32 * 0.01);
        h.accumulate_grad_fields(&flat, 1, &grad);
        // Expected t1-slot gradient for id 7 (appears twice: rows 0 and 1).
        let (s1, s2) = h.slots(7);
        let t2row: Vec<f32> = h.table2().weight().row(s2 as usize).to_vec();
        let w_before: Vec<f32> = h.table1().weight().row(s1 as usize).to_vec();
        let lr = 0.5f32;
        h.apply_sgd(lr, 0.0);
        for d in 0..2 {
            let expect_g = grad.row(0)[d] * t2row[d] + grad.row(1)[d] * t2row[d];
            let want = w_before[d] - lr * expect_g;
            let got = h.table1().weight().row(s1 as usize)[d];
            assert!(
                (got - want).abs() < 1e-6,
                "slot grad mismatch: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn store_kind_roundtrips_through_embed_store() {
        let mut rng = StdRng::seed_from_u64(1);
        for kind in [
            StoreKind::Dense,
            StoreKind::HashedQr { bucket: 8 },
            StoreKind::HashedDouble { rows: 24 },
        ] {
            let s = EmbedStore::new(kind, &mut rng, 100, 4, 9);
            assert_eq!(s.kind(), kind);
            assert_eq!(s.key_space(), 100);
            assert_eq!(s.dim(), 4);
        }
    }

    #[test]
    fn dense_embed_store_draws_match_plain_table() {
        let mut rng_a = StdRng::seed_from_u64(77);
        let mut rng_b = StdRng::seed_from_u64(77);
        let plain = EmbeddingTable::new(&mut rng_a, 50, 6);
        let store = EmbedStore::new(StoreKind::Dense, &mut rng_b, 50, 6, 123);
        let dense = store.as_dense().unwrap();
        for (a, b) in plain
            .weight()
            .as_slice()
            .iter()
            .zip(dense.weight().as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn export_import_roundtrip_hashed() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = EmbedStore::new(StoreKind::HashedQr { bucket: 8 }, &mut rng, 64, 4, 2);
        let mut tensors = Vec::new();
        s.push_weights("e_orig", &mut tensors);
        assert_eq!(tensors.len(), 2);
        assert_eq!(tensors[0].0, "e_orig.t1");
        assert_eq!(tensors[1].0, "e_orig.t2");

        let mut rng2 = StdRng::seed_from_u64(999);
        let mut fresh = EmbedStore::new(StoreKind::HashedQr { bucket: 8 }, &mut rng2, 64, 4, 2);
        fresh
            .import_weights("e_orig", &mut |name, shape| {
                tensors
                    .iter()
                    .find(|(n, m)| n == name && m.shape() == shape)
                    .map(|(_, m)| m.clone())
                    .ok_or_else(|| format!("missing {name}"))
            })
            .unwrap();
        let (h, f) = (s.as_hashed().unwrap(), fresh.as_hashed().unwrap());
        assert_eq!(
            h.table1().weight().as_slice(),
            f.table1().weight().as_slice()
        );
        assert_eq!(
            h.table2().weight().as_slice(),
            f.table2().weight().as_slice()
        );
    }

    #[test]
    fn num_params_reflects_compression() {
        let mut rng = StdRng::seed_from_u64(2);
        let dense = EmbedStore::new(StoreKind::Dense, &mut rng, 10_000, 8, 0);
        let hashed = EmbedStore::new(StoreKind::HashedQr { bucket: 100 }, &mut rng, 10_000, 8, 0);
        // QR at bucket=100 over 10k keys: 100 + 100 rows vs 10_000.
        assert_eq!(dense.num_params(), 10_000 * 8);
        assert_eq!(hashed.num_params(), 200 * 8);
        assert!(dense.num_params() >= 4 * hashed.num_params());
    }
}
