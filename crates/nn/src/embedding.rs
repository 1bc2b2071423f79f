//! Embedding tables with sparse gradient accumulation.
//!
//! The embedding layer (paper Sec. II-B2) maps one-hot encoded categorical
//! features to dense vectors: `e_i = E x_i`. Because each mini-batch touches
//! only a tiny fraction of the vocabulary, gradients are kept for the
//! touched rows only and the Adam update is applied lazily to exactly those
//! rows — the standard "sparse Adam" used by production CTR trainers.
//!
//! # Pending gradients
//!
//! A backward pass appends its ids and gradient rows to a pending list in
//! arrival order: one sequential copy per call, with no random access and
//! no buffer sized by the vocabulary, so a table's gradient memory is
//! O(batch · fields · dim), not O(vocab · dim). An apply groups the list
//! by id with a stable LSD radix sort (ids ascending, each id's rows in
//! arrival order), sums each id's rows from `+0.0` in that order and runs
//! the mode's row step. That sum is the chain a `[vocab, dim]` accumulator
//! would build with `+=` in `(call, b, f)` order, and every row's step reads
//! only its own sum, so grouping moves no bit. The radix digit is at most
//! `RADIX_BITS` wide and the pass count follows from the row count: one
//! pass while every id fits in one digit. `clear_grads` empties the list.
//!
//! # Row width
//!
//! The lookup's row copies, the apply's row sums and its Adam row steps
//! are each one generic fn over a [`Width`], picked once per call from
//! `dim` by [`by_width!`]: a constant for widths 4, 8 and 16, so a row is a
//! fixed number of vector registers and a row copy or add is a few vector
//! moves with no loop and no `memcpy` call, and the runtime width for any
//! other, through the same source. The lookup copies rows in `flat` order,
//! which is the row-major order of its output. `Sparse` and `LazyCatchUp`
//! Adam take the distinct ids `BLOCK_ROWS` at a time: they gather the
//! block's weight, `m` and `v` rows into scratch the table owns
//! (`3 · BLOCK_ROWS · dim` floats), run each row's lazy replays there, take
//! one `step_row` over the block against its ids' sums, which lie side by
//! side in the same order, and scatter the rows back. The Adam update is
//! elementwise, so every element gets the operations a step of its row
//! alone gives it, in the same order, and no bit moves. Stepping the same
//! rows in place, one `step_row` per row as `DenseApply` does, measured
//! slower on a table whose rows miss cache (DESIGN.md §8). `apply_sgd`,
//! which no workload calls, runs at the runtime width for every `dim`.
//!
//! # Optimizer modes
//!
//! [`EmbedOptimizerMode`] selects what `apply_adam` visits per step:
//!
//! - `Sparse` (default): touched rows only, with weight decay applied to
//!   touched rows only — the sparse-L2 convention every existing trajectory
//!   in this repo was trained under.
//! - `DenseApply`: a full `0..vocab` sweep per step — textbook dense Adam,
//!   where momentum carry-over and weight decay move *every* row every step.
//!   O(vocab·dim) per step; the reference the lazy path is tested against.
//! - `LazyCatchUp`: dense-Adam *semantics* at touched-rows *cost*. Each row
//!   remembers the last step it was brought up to date (`last_step`); when a
//!   batch touches it again, the skipped steps are replayed as zero-gradient
//!   Adam steps (each with that step's own bias corrections) before the live
//!   gradient applies. [`catch_up_all`](EmbeddingTable::catch_up_all) replays
//!   the tail for every row, after which the weights are bitwise identical
//!   to a `DenseApply` run of the same touch/gradient sequence — see the
//!   `lazy_catch_up_matches_dense_apply_bitwise` test and DESIGN.md §14.

use crate::optim::Adam;
use optinter_tensor::by_width;
use optinter_tensor::pool::Pool;
use optinter_tensor::width::{Runtime, Width};
use optinter_tensor::{init, Matrix};
use rand::Rng;

/// Which rows the embedding optimizer visits per `apply_adam` step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EmbedOptimizerMode {
    /// Touched rows only; weight decay hits touched rows only (sparse-L2).
    #[default]
    Sparse,
    /// Full `0..vocab` sweep per step — dense Adam semantics, O(vocab·dim)
    /// per step. The equivalence reference for `LazyCatchUp`.
    DenseApply,
    /// Dense Adam semantics at sparse cost: skipped steps are replayed as
    /// zero-gradient catch-up steps on first re-touch (and by
    /// [`catch_up_all`](EmbeddingTable::catch_up_all) at the end). Applies
    /// to `apply_adam`; `apply_sgd` falls back to `Sparse` behaviour (a
    /// zero-grad SGD step without weight decay is a no-op anyway).
    LazyCatchUp,
}

/// Work size (scalar copies / adds) below which the pooled embedding paths
/// stay serial; the fallback never changes results.
pub(crate) const POOL_MIN_WORK: usize = 16 * 1024;

/// Widest digit of the pending-gradient radix sort, in bits: its 2,048
/// bucket counts take 8 KB of stack.
const RADIX_BITS: u32 = 11;

/// Distinct ids a `Sparse` or `LazyCatchUp` Adam step gathers, steps and
/// scatters together.
const BLOCK_ROWS: usize = 16;

/// Copies row `ids[k]` of the row-major `table` into the `k`th row of
/// `out`, for every row `out` holds.
///
/// # Panics
/// Panics on an id past the table.
fn gather_rows<W: Width>(w: W, table: &[f32], ids: &[u32], out: &mut [f32]) {
    let n = w.get();
    for (dst, &id) in out.chunks_exact_mut(n).zip(ids) {
        let at = id as usize * n;
        dst.copy_from_slice(&table[at..at + n]);
    }
}

/// An embedding table of shape `[vocab, dim]` with sparse gradients.
pub struct EmbeddingTable {
    weight: Matrix,
    /// Lazily allocated Adam first-moment state.
    m: Option<Matrix>,
    /// Lazily allocated Adam second-moment state.
    v: Option<Matrix>,
    /// Gradient rows accumulated since the last apply or clear.
    pending: PendingGrads,
    /// Optimizer row-visiting policy (see [`EmbedOptimizerMode`]).
    opt_mode: EmbedOptimizerMode,
    /// `LazyCatchUp` bookkeeping: the Adam timestep each row was last
    /// brought up to date at. Lazily allocated to `[vocab]` on first apply.
    last_step: Vec<u32>,
    /// `LazyCatchUp`: the recent steps' bias corrections the replays read.
    bias_window: BiasWindow,
    /// The weight, `m` and `v` rows of one sparse Adam block, gathered:
    /// `3 · BLOCK_ROWS · dim` floats, grown by the first apply.
    block: Vec<f32>,
}

/// Gradient rows waiting for the next apply, in arrival order, and the
/// scratch that groups them by id. Every buffer is sized by the rows
/// appended since the last drain, never by the vocabulary, and keeps its
/// capacity across steps.
#[derive(Default)]
struct PendingGrads {
    /// One key `id << 32 | arrival` per pending row; sorted by id in place
    /// at drain.
    keys: Vec<u64>,
    /// The pending gradient rows, `dim` floats each, in arrival order.
    rows: Vec<f32>,
    /// The radix passes' second key buffer.
    spare: Vec<u64>,
    /// The distinct pending ids, ascending.
    ids: Vec<u32>,
    /// `dim` zeros, then the summed gradient of each of `ids`.
    sums: Vec<f32>,
}

impl PendingGrads {
    fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    fn clear(&mut self) {
        self.keys.clear();
        self.rows.clear();
    }

    /// Sorts `keys` by id (their high half), ascending and stable, in LSD
    /// radix passes over the bits an id below `vocab` can set: as few
    /// passes of at most [`RADIX_BITS`] bits as cover them, one digit width
    /// for all. Arrival order breaks ties, as each pass is stable.
    fn radix_sort(&mut self, vocab: usize) {
        let bits = usize::BITS - vocab.saturating_sub(1).leading_zeros();
        if bits == 0 {
            return;
        }
        let passes = bits.div_ceil(RADIX_BITS);
        let width = bits.div_ceil(passes);
        let mask = (1u64 << width) - 1;
        self.spare.resize(self.keys.len(), 0);
        let mut buckets = [0u32; 1 << RADIX_BITS];
        for pass in 0..passes {
            let shift = 32 + pass * width;
            let (keys, spare) = (&self.keys[..], &mut self.spare[..]);
            // Counts per digit, then each digit's first slot.
            let counts = &mut buckets[..1 << width];
            counts.fill(0);
            for &key in keys {
                counts[((key >> shift) & mask) as usize] += 1;
            }
            let mut start = 0;
            for c in counts.iter_mut() {
                start += std::mem::replace(c, start);
            }
            for &key in keys {
                let slot = &mut counts[((key >> shift) & mask) as usize];
                spare[*slot as usize] = key;
                *slot += 1;
            }
            std::mem::swap(&mut self.keys, &mut self.spare);
        }
    }

    /// Groups the list by id: afterwards `ids` holds the distinct pending
    /// ids, ascending, and `sums` holds `w` zeros and then each id's sum,
    /// formed from `+0.0` over its rows in arrival order. The list itself
    /// stays until [`clear`](Self::clear).
    ///
    /// Each key's id starts a new sum or adds to the last one; counting the
    /// sums first lets one zero-fill seed them all, so the summing loop has
    /// no data-dependent branch.
    fn reduce<W: Width>(&mut self, w: W, vocab: usize) {
        let n = w.get();
        self.radix_sort(vocab);
        let mut distinct = 0;
        let mut prev = u64::MAX;
        for &key in &self.keys {
            distinct += usize::from(key >> 32 != prev);
            prev = key >> 32;
        }
        self.ids.clear();
        self.ids.resize(distinct, 0);
        self.sums.clear();
        self.sums.resize(n * (distinct + 1), 0.0);
        let (mut u, mut prev) = (usize::MAX, u64::MAX);
        for &key in &self.keys {
            u = u.wrapping_add(usize::from(key >> 32 != prev));
            prev = key >> 32;
            self.ids[u] = prev as u32;
            let (a, at) = ((key & u64::from(u32::MAX)) as usize * n, (u + 1) * n);
            for (s, &g) in self.sums[at..at + n].iter_mut().zip(&self.rows[a..a + n]) {
                *s += g;
            }
        }
    }

    /// [`reduce`](Self::reduce)s, then calls `step(id, grad)` once per id
    /// with pending rows, ids ascending, with its sum as `grad`. With
    /// `every_row`, every other id in `0..vocab` steps too, in order, with
    /// a `+0.0` gradient. Then empties the list.
    ///
    /// All sums are formed before the first step, so the loop over `ids`
    /// has no data-dependent branch and the scattered row reads of
    /// consecutive steps overlap.
    fn drain_sums<W: Width>(
        &mut self,
        w: W,
        vocab: usize,
        every_row: bool,
        mut step: impl FnMut(usize, &[f32]),
    ) {
        self.reduce(w, vocab);
        let (zeros, sums) = self.sums.split_at(w.get());
        let mut next = 0;
        for (&id, grad) in self.ids.iter().zip(sums.chunks_exact(w.get())) {
            let id = id as usize;
            if every_row {
                for i in next..id {
                    step(i, zeros);
                }
                next = id + 1;
            }
            step(id, grad);
        }
        if every_row {
            for i in next..vocab {
                step(i, zeros);
            }
        }
        self.clear();
    }
}

/// Steps of Adam bias corrections a [`BiasWindow`] holds. The oldest
/// catch-up replay measured on the `giant_hashed` benchmark was 392 steps
/// old (DESIGN.md §14).
const BIAS_WINDOW_STEPS: u64 = 1024;

/// The bias corrections `adam.bias_corrections_at(s)` of the last
/// [`BIAS_WINDOW_STEPS`] steps, so a `LazyCatchUp` replay reads its step's
/// pair instead of calling `powi` twice. Each entry is the value the direct
/// call returns, so a replay is bitwise the same either way; steps older
/// than the window fall back to the direct call.
#[derive(Default)]
struct BiasWindow {
    /// `pairs[s % BIAS_WINDOW_STEPS]` holds step `s`'s corrections for every
    /// `s` in `next - BIAS_WINDOW_STEPS..next`.
    pairs: Vec<(f32, f32)>,
    /// One past the newest step filled in.
    next: u64,
    /// Bit patterns of the betas the pairs were computed with.
    betas: (u32, u32),
}

impl BiasWindow {
    /// Allocates the window (once, on the first lazy apply).
    fn ensure(&mut self) {
        if self.pairs.is_empty() {
            self.pairs.resize(BIAS_WINDOW_STEPS as usize, (0.0, 0.0));
        }
    }

    /// Fills in the steps up to and including `t`.
    fn advance(&mut self, adam: &Adam, t: u64) {
        let betas = (adam.config.beta1.to_bits(), adam.config.beta2.to_bits());
        if betas != self.betas {
            self.betas = betas;
            self.next = 0;
        }
        for s in self.next.max((t + 1).saturating_sub(BIAS_WINDOW_STEPS))..=t {
            self.pairs[(s % BIAS_WINDOW_STEPS) as usize] = adam.bias_corrections_at(s);
        }
        self.next = self.next.max(t + 1);
    }

    /// Step `s`'s bias corrections, from the window when it holds them.
    fn at(&self, adam: &Adam, s: u64) -> (f32, f32) {
        if s < self.next && self.next - s <= BIAS_WINDOW_STEPS {
            self.pairs[(s % BIAS_WINDOW_STEPS) as usize]
        } else {
            adam.bias_corrections_at(s)
        }
    }
}

impl EmbeddingTable {
    /// Creates a Xavier-initialised table with `vocab` rows of size `dim`.
    pub fn new(rng: &mut impl Rng, vocab: usize, dim: usize) -> Self {
        Self::from_weight(init::xavier_embedding(rng, vocab, dim))
    }

    /// Creates a zero-initialised table (useful for tests).
    pub fn zeros(vocab: usize, dim: usize) -> Self {
        Self::from_weight(Matrix::zeros(vocab, dim))
    }

    /// Wraps a `[vocab, dim]` weight matrix as a table with fresh optimizer
    /// state.
    pub fn from_weight(weight: Matrix) -> Self {
        Self {
            weight,
            m: None,
            v: None,
            pending: PendingGrads::default(),
            opt_mode: EmbedOptimizerMode::Sparse,
            last_step: Vec::new(),
            bias_window: BiasWindow::default(),
            block: Vec::new(),
        }
    }

    /// Selects the optimizer row-visiting policy. Call before the first
    /// `apply_adam`: switching modes mid-training is unsupported (the
    /// `LazyCatchUp` bookkeeping only tracks steps taken while active).
    pub fn set_optimizer_mode(&mut self, mode: EmbedOptimizerMode) {
        self.opt_mode = mode;
    }

    /// Vocabulary size (number of rows).
    pub fn vocab(&self) -> usize {
        self.weight.rows()
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.weight.cols()
    }

    /// Number of trainable scalars.
    pub fn num_params(&self) -> usize {
        self.weight.len()
    }

    /// Immutable view of row `idx`.
    pub fn row(&self, idx: u32) -> &[f32] {
        self.weight.row(idx as usize)
    }

    /// Mutable access to the raw weight matrix (tests / analysis only).
    pub fn weight_mut(&mut self) -> &mut Matrix {
        &mut self.weight
    }

    /// Immutable access to the raw weight matrix.
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// Looks up a flattened multi-field batch into a caller-owned buffer
    /// (reshaped as needed), with the batch rows sharded across `pool`.
    ///
    /// `flat` is row-major `[B * num_fields]`: example `b`'s field `f` index
    /// lives at `flat[b * num_fields + f]`. `out` becomes
    /// `[B, num_fields*dim]` with field blocks concatenated in order — the
    /// paper's Eq. 7 layout, which is `flat` order, one row per id. Pure
    /// row copies that overwrite every element, so the result is the same
    /// for any thread count.
    pub fn lookup_fields_pooled_into(
        &self,
        flat: &[u32],
        num_fields: usize,
        pool: &Pool,
        out: &mut Matrix,
    ) {
        // lint: allow(panic-free, reason="scoring reaches this only after FrozenScorer::validate, with the artifact's field count (decode requires two or more) or a nonzero memorized-pair count")
        assert!(
            num_fields > 0,
            "lookup_fields_pooled_into: need at least one field"
        );
        // lint: allow(panic-free, reason="FrozenScorer::validate splits the field ids into whole rows; cross ids come from gather_mem_ids_into in whole rows")
        assert_eq!(
            flat.len() % num_fields,
            0,
            "lookup_fields_pooled_into: ragged batch"
        );
        let dim = self.dim();
        let batch = flat.len() / num_fields;
        let width = num_fields * dim;
        out.reshape_for_overwrite(batch, width);
        if dim == 0 {
            return;
        }
        let table = self.weight.as_slice();
        by_width!(dim, w => {
            if pool.is_serial() || flat.len() * dim < POOL_MIN_WORK {
                gather_rows(w, table, flat, out.as_mut_slice());
            } else {
                pool.for_row_chunks(out.as_mut_slice(), width, |b0, rows| {
                    gather_rows(w, table, &flat[b0 * num_fields..], rows);
                });
            }
        })
    }

    /// Accumulates gradients for a multi-field lookup (inverse of
    /// [`lookup_fields_pooled_into`](Self::lookup_fields_pooled_into)).
    /// `grad` has shape `[B, num_fields*dim]`.
    ///
    /// Appends the ids and their gradient rows to the pending list in
    /// `(b, f)` order, one sequential copy that needs no threads; the next
    /// apply sums each id's rows (see the module doc).
    ///
    /// # Panics
    /// Panics on a ragged batch, a `grad` of the wrong shape, or an id
    /// outside `0..vocab`.
    pub fn accumulate_grad_fields_pooled(
        &mut self,
        flat: &[u32],
        num_fields: usize,
        grad: &Matrix,
    ) {
        let dim = self.dim();
        assert_eq!(
            flat.len() % num_fields,
            0,
            "accumulate_grad_fields_pooled: ragged batch"
        );
        let batch = flat.len() / num_fields;
        assert_eq!(
            grad.rows(),
            batch,
            "accumulate_grad_fields_pooled: batch mismatch"
        );
        assert_eq!(
            grad.cols(),
            num_fields * dim,
            "accumulate_grad_fields_pooled: dim mismatch"
        );
        let vocab = self.vocab();
        if let Some(id) = flat
            .iter()
            .copied()
            .max()
            .filter(|&id| id as usize >= vocab)
        {
            panic!("accumulate_grad_fields_pooled: id {id} is outside the table's {vocab} rows");
        }
        let pending = &mut self.pending;
        let arrivals = pending.keys.len() as u64..;
        let keys = flat.iter().zip(arrivals);
        pending
            .keys
            .extend(keys.map(|(&id, a)| (u64::from(id) << 32) | a));
        pending.rows.extend_from_slice(grad.as_slice());
        assert!(
            u32::try_from(pending.keys.len()).is_ok(),
            "accumulate_grad_fields_pooled: more pending rows than a u32 counts"
        );
    }

    /// Ensures the Adam moment matrices exist.
    fn ensure_moments(&mut self) {
        if self.m.is_none() {
            let (rows, cols) = self.weight.shape();
            self.m = Some(Matrix::zeros(rows, cols));
            self.v = Some(Matrix::zeros(rows, cols));
        }
    }

    /// Ensures the `LazyCatchUp` per-row step bookkeeping exists.
    fn ensure_last_step(&mut self) {
        if self.last_step.is_empty() {
            self.last_step.resize(self.vocab(), 0);
        }
        self.bias_window.ensure();
    }

    /// Applies one Adam step according to the active
    /// [`EmbedOptimizerMode`], then clears the accumulated gradients.
    ///
    /// - `Sparse`: rows with pending gradients only, ascending-id order,
    ///   weight decay on those rows only.
    /// - `DenseApply`: every row in `0..vocab` order (rows without pending
    ///   gradients see a zero gradient, so momentum and weight decay still
    ///   move them).
    /// - `LazyCatchUp`: rows with pending gradients only, ascending-id
    ///   order, but each row first replays the steps it skipped as
    ///   zero-gradient updates — the visited-row count is `O(touched)` per
    ///   step while the resulting weights track the `DenseApply` trajectory
    ///   exactly (bitwise, once [`catch_up_all`](Self::catch_up_all)
    ///   flushes the tail).
    pub fn apply_adam(&mut self, adam: &Adam, weight_decay: f32) {
        let every_row = self.opt_mode == EmbedOptimizerMode::DenseApply;
        if self.pending.is_empty() && !every_row {
            return;
        }
        self.ensure_moments();
        let lazy = self.opt_mode == EmbedOptimizerMode::LazyCatchUp;
        let t = adam.timestep().max(1);
        if lazy {
            self.ensure_last_step();
            self.bias_window.advance(adam, t);
        }
        if self.dim() == 0 {
            self.pending.clear();
            return;
        }
        by_width!(self.dim(), w => self.adam_rows(w, adam, weight_decay, t))
    }

    /// [`apply_adam`](Self::apply_adam)'s row loop at width `w`, once the
    /// moments (and, in `LazyCatchUp` mode, the step bookkeeping) exist:
    /// `DenseApply` steps each row of `0..vocab` in place, in order;
    /// `Sparse` and `LazyCatchUp` step the ascending distinct ids
    /// [`BLOCK_ROWS`] at a time on their rows gathered into `block` (see
    /// the module doc's "Row width").
    fn adam_rows<W: Width>(&mut self, w: W, adam: &Adam, weight_decay: f32, t: u64) {
        let (n, vocab) = (w.get(), self.vocab());
        let (bc1, bc2) = adam.bias_corrections();
        let (Some(m), Some(v)) = (self.m.as_mut(), self.v.as_mut()) else {
            return;
        };
        let (weight, m, v) = (
            self.weight.as_mut_slice(),
            m.as_mut_slice(),
            v.as_mut_slice(),
        );
        if self.opt_mode == EmbedOptimizerMode::DenseApply {
            self.pending.drain_sums(w, vocab, true, |i, grad| {
                let at = i * n;
                let (wr, mr, vr) = (
                    &mut weight[at..at + n],
                    &mut m[at..at + n],
                    &mut v[at..at + n],
                );
                adam.step_row(wr, grad, mr, vr, weight_decay, bc1, bc2);
            });
            return;
        }
        let lazy = self.opt_mode == EmbedOptimizerMode::LazyCatchUp;
        let pending = &mut self.pending;
        pending.reduce(w, vocab);
        let (last_step, window) = (&mut self.last_step, &self.bias_window);
        self.block.resize(3 * BLOCK_ROWS * n, 0.0);
        let (block_w, block_mv) = self.block.split_at_mut(BLOCK_ROWS * n);
        let (block_m, block_v) = block_mv.split_at_mut(BLOCK_ROWS * n);
        let ids = pending.ids.chunks(BLOCK_ROWS);
        for (ids, grads) in ids.zip(pending.sums[n..].chunks(BLOCK_ROWS * n)) {
            let len = grads.len();
            let (bw, bm, bv) = (
                &mut block_w[..len],
                &mut block_m[..len],
                &mut block_v[..len],
            );
            let rows = bw.chunks_exact_mut(n).zip(bm.chunks_exact_mut(n));
            for ((&id, (wr, mr)), vr) in ids.iter().zip(rows).zip(bv.chunks_exact_mut(n)) {
                let at = id as usize * n;
                wr.copy_from_slice(&weight[at..at + n]);
                mr.copy_from_slice(&m[at..at + n]);
                vr.copy_from_slice(&v[at..at + n]);
                if lazy {
                    let last = &mut last_step[id as usize];
                    for s in u64::from(*last) + 1..t {
                        let (cb1, cb2) = window.at(adam, s);
                        adam.step_row_zero_grad(wr, mr, vr, weight_decay, cb1, cb2);
                    }
                    *last = t as u32;
                }
            }
            adam.step_row(bw, grads, bm, bv, weight_decay, bc1, bc2);
            let rows = bw.chunks_exact(n).zip(bm.chunks_exact(n));
            for ((&id, (wr, mr)), vr) in ids.iter().zip(rows).zip(bv.chunks_exact(n)) {
                let at = id as usize * n;
                weight[at..at + n].copy_from_slice(wr);
                m[at..at + n].copy_from_slice(mr);
                v[at..at + n].copy_from_slice(vr);
            }
        }
        pending.clear();
    }

    /// Replays every row's outstanding zero-gradient steps up to `adam`'s
    /// current timestep (fixed `0..vocab` order). After this, a
    /// `LazyCatchUp` run is bitwise identical to a `DenseApply` run of the
    /// same touch/gradient sequence. No-op in the other modes. Call once at
    /// the end of training (or before exporting/serving weights).
    pub fn catch_up_all(&mut self, adam: &Adam, weight_decay: f32) {
        if self.opt_mode != EmbedOptimizerMode::LazyCatchUp || self.weight.is_empty() {
            return;
        }
        let t = adam.timestep();
        if t == 0 {
            return;
        }
        self.ensure_moments();
        self.ensure_last_step();
        self.bias_window.advance(adam, t);
        if let (Some(m), Some(v)) = (self.m.as_mut(), self.v.as_mut()) {
            for i in 0..self.weight.rows() {
                let (w, mr, vr) = (self.weight.row_mut(i), m.row_mut(i), v.row_mut(i));
                for s in u64::from(self.last_step[i]) + 1..=t {
                    let (cb1, cb2) = self.bias_window.at(adam, s);
                    adam.step_row_zero_grad(w, mr, vr, weight_decay, cb1, cb2);
                }
                self.last_step[i] = t as u32;
            }
        }
    }

    /// Applies plain SGD (tests / ablations), then clears. Rows with
    /// pending gradients in ascending-id order, except in `DenseApply`
    /// mode, which sweeps every row so weight decay hits the whole table.
    /// `LazyCatchUp` behaves like `Sparse` here: with zero gradient and no
    /// decay an SGD step is a no-op, so there is nothing to catch up on the
    /// production (wd = 0) path, and the lazy machinery is Adam-specific.
    pub fn apply_sgd(&mut self, lr: f32, weight_decay: f32) {
        let every_row = self.opt_mode == EmbedOptimizerMode::DenseApply;
        let (vocab, dim) = (self.vocab(), self.dim());
        if dim == 0 {
            self.pending.clear();
            return;
        }
        let weight = self.weight.as_mut_slice();
        self.pending
            .drain_sums(Runtime(dim), vocab, every_row, |i, grad| {
                for (w, &g) in weight[i * dim..(i + 1) * dim].iter_mut().zip(grad) {
                    *w -= lr * (g + weight_decay * *w);
                }
            });
    }

    /// Discards pending gradients without applying them.
    pub fn clear_grads(&mut self) {
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, DenseOptimizer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `flat`'s rows through the pooled lookup on a serial pool.
    fn rows_of(t: &EmbeddingTable, flat: &[u32], num_fields: usize) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        t.lookup_fields_pooled_into(flat, num_fields, &Pool::serial(), &mut out);
        out
    }

    /// Scatters row `r` of `grad` onto `ids[r]`.
    fn scatter(t: &mut EmbeddingTable, ids: &[u32], grad: &Matrix) {
        t.accumulate_grad_fields_pooled(ids, 1, grad);
    }

    fn small_table() -> EmbeddingTable {
        let mut t = EmbeddingTable::zeros(4, 2);
        for r in 0..4 {
            for c in 0..2 {
                t.weight_mut().set(r, c, (r * 2 + c) as f32);
            }
        }
        t
    }

    #[test]
    fn lookup_copies_rows() {
        let t = small_table();
        let out = rows_of(&t, &[2, 0, 2], 1);
        assert_eq!(out.row(0), &[4.0, 5.0]);
        assert_eq!(out.row(1), &[0.0, 1.0]);
        assert_eq!(out.row(2), &[4.0, 5.0]);
    }

    #[test]
    fn lookup_fields_layout() {
        let t = small_table();
        // 2 examples x 2 fields
        let flat = [0u32, 1, 2, 3];
        let out = rows_of(&t, &flat, 2);
        assert_eq!(out.shape(), (2, 4));
        assert_eq!(out.row(0), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(out.row(1), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn lookup_reshapes_a_reused_buffer() {
        let t = small_table();
        let mut out = Matrix::zeros(7, 3);
        t.lookup_fields_pooled_into(&[0u32, 1, 2, 3], 2, &Pool::serial(), &mut out);
        assert_eq!(out.shape(), (2, 4));
        assert_eq!(out.row(0), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn grad_accumulation_sums_repeated_indices() {
        let mut t = small_table();
        let grad = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]);
        scatter(&mut t, &[1, 1], &grad);
        t.apply_sgd(1.0, 0.0);
        // Row 1 started [2,3]; grad sum [3,3] -> [−1, 0]
        assert_eq!(t.row(1), &[-1.0, 0.0]);
        // The apply consumed the gradient: a second one moves nothing.
        t.apply_sgd(1.0, 0.0);
        assert_eq!(t.row(1), &[-1.0, 0.0]);
        assert_eq!(
            t.weight().as_slice(),
            &[0.0, 1.0, -1.0, 0.0, 4.0, 5.0, 6.0, 7.0]
        );
    }

    #[test]
    fn fields_grad_roundtrip() {
        let mut t = small_table();
        let flat = [0u32, 1];
        let grad = Matrix::from_rows(&[&[0.5, 0.5, 1.5, 1.5]]);
        t.accumulate_grad_fields_pooled(&flat, 2, &grad);
        t.apply_sgd(1.0, 0.0);
        assert_eq!(t.row(0), &[-0.5, 0.5]);
        assert_eq!(t.row(1), &[0.5, 1.5]);
    }

    #[test]
    fn pending_rows_are_dropped_after_apply() {
        // A second step touching the same row must start from a clean sum,
        // not the previous step's gradient.
        let mut t = small_table();
        scatter(&mut t, &[2], &Matrix::from_rows(&[&[1.0, 0.0]]));
        t.apply_sgd(1.0, 0.0);
        assert_eq!(t.row(2), &[3.0, 5.0]);
        scatter(&mut t, &[2], &Matrix::from_rows(&[&[0.0, 2.0]]));
        t.apply_sgd(1.0, 0.0);
        assert_eq!(t.row(2), &[3.0, 3.0]);
    }

    #[test]
    fn clear_grads_leaves_nothing_for_the_next_sum() {
        let mut t = small_table();
        scatter(&mut t, &[0], &Matrix::filled(1, 2, 1.0));
        t.clear_grads();
        let before = t.row(0).to_vec();
        // A fresh accumulate must not see the discarded gradient.
        scatter(&mut t, &[0], &Matrix::filled(1, 2, 0.0));
        t.apply_sgd(1.0, 0.0);
        assert_eq!(t.row(0), before.as_slice());
    }

    #[test]
    fn untouched_rows_not_updated_by_adam() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut t = EmbeddingTable::new(&mut rng, 10, 4);
        let before_row9 = t.row(9).to_vec();
        let mut adam = Adam::with_lr_eps(0.01, 1e-8);
        let grad = Matrix::filled(1, 4, 1.0);
        scatter(&mut t, &[3], &grad);
        adam.begin_step();
        t.apply_adam(&adam, 0.0);
        assert_eq!(t.row(9), before_row9.as_slice());
        // Touched row moved.
        assert!(t.row(3).iter().zip(before_row9.iter()).any(|(a, b)| a != b));
    }

    #[test]
    fn sparse_adam_matches_dense_adam_for_always_touched_row() {
        // A row touched every step must follow exactly the dense Adam
        // trajectory of an equivalent parameter.
        let mut table = EmbeddingTable::zeros(1, 3);
        table.weight_mut().fill_with(1.0);
        let mut dense = crate::param::Parameter::new(Matrix::filled(1, 3, 1.0));
        let mut adam = Adam::with_lr_eps(0.05, 1e-8);
        for step in 0..20 {
            let g = 0.1 * (step as f32 + 1.0);
            let grad = Matrix::filled(1, 3, g);
            scatter(&mut table, &[0], &grad);
            dense.grad = grad.clone();
            adam.begin_step();
            table.apply_adam(&adam, 0.0);
            adam.step(&mut dense, 0.0);
        }
        for (a, b) in table.row(0).iter().zip(dense.value.as_slice().iter()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn pooled_lookup_and_grads_match_serial_bitwise() {
        // Large enough to clear POOL_MIN_WORK so the parallel lookup runs.
        let (batch, fields, dim, vocab) = (256, 8, 8, 37);
        let mut rng = StdRng::seed_from_u64(12);
        let mut serial_t = EmbeddingTable::new(&mut rng, vocab, dim);
        let mut pooled_t = EmbeddingTable::zeros(vocab, dim);
        pooled_t
            .weight_mut()
            .as_mut_slice()
            .copy_from_slice(serial_t.weight().as_slice());
        let flat: Vec<u32> = (0..batch * fields)
            .map(|i| ((i * 7 + i / 11) % vocab) as u32)
            .collect();
        let grad = Matrix::from_fn(batch, fields * dim, |r, c| {
            ((r * 31 + c) as f32 * 0.01).sin()
        });
        let pool = optinter_tensor::Pool::new(4);
        let lookup_serial = rows_of(&serial_t, &flat, fields);
        let mut lookup_pooled = Matrix::zeros(0, 0);
        pooled_t.lookup_fields_pooled_into(&flat, fields, &pool, &mut lookup_pooled);
        assert_eq!(lookup_serial.as_slice(), lookup_pooled.as_slice());
        serial_t.accumulate_grad_fields_pooled(&flat, fields, &grad);
        pooled_t.accumulate_grad_fields_pooled(&flat, fields, &grad);
        serial_t.apply_sgd(1.0, 0.0);
        pooled_t.apply_sgd(1.0, 0.0);
        for (a, b) in serial_t
            .weight()
            .as_slice()
            .iter()
            .zip(pooled_t.weight().as_slice())
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "pooled grads diverged: {a} vs {b}"
            );
        }
    }

    #[test]
    fn clear_grads_discards_pending() {
        let mut t = small_table();
        scatter(&mut t, &[0], &Matrix::filled(1, 2, 1.0));
        t.clear_grads();
        let before = t.row(0).to_vec();
        t.apply_sgd(1.0, 0.0);
        assert_eq!(t.row(0), before.as_slice());
    }

    /// Rows `GAP_ROWS[k].0` are touched exactly at steps `.1` and `.2`: the
    /// re-touch replays steps up to `.2 - .1 - 1` old, which straddles the
    /// bias window's edge (gaps 1,023 and 1,024 replay from the window
    /// only, 1,025 reaches one step past it) and runs far beyond it.
    const GAP_ROWS: [(u32, u64, u64); 4] = [
        (5, 100, 1123),
        (6, 200, 1224),
        (7, 300, 1325),
        (8, 60, 2200),
    ];

    /// Drives `steps` Adam steps over a fixed pseudo-random touch/gradient
    /// sequence and returns the final weights. Rows 0..5 take a drifting
    /// pair most steps (steps 5 and 9 touch nothing at all); the rows of
    /// [`GAP_ROWS`] come back after long gaps; row 9 is touched at step 0
    /// only and rows 10..13 never, so `catch_up_all` replays their whole
    /// history. Shared by the mode-equivalence tests below.
    fn run_mode(mode: EmbedOptimizerMode, weight_decay: f32, dim: usize, steps: u64) -> Vec<f32> {
        let vocab = 13usize;
        let mut rng = StdRng::seed_from_u64(41);
        let mut t = EmbeddingTable::new(&mut rng, vocab, dim);
        t.set_optimizer_mode(mode);
        let mut adam = Adam::with_lr_eps(0.02, 1e-8);
        let mut ids = Vec::new();
        for step in 0..steps {
            adam.begin_step();
            ids.clear();
            if step != 5 && step != 9 {
                ids.push(((step * 7 + 3) % 5) as u32);
                ids.push(((step * 3 + 1) % 5) as u32);
            }
            for &(row, first, second) in &GAP_ROWS {
                if step == first || step == second {
                    ids.push(row);
                }
            }
            if step == 0 {
                ids.push(9);
            }
            if !ids.is_empty() {
                let g = 0.05 * (step as f32 + 1.0);
                let grad =
                    Matrix::from_fn(ids.len(), dim, |r, c| g * (1.0 + r as f32 + 0.1 * c as f32));
                scatter(&mut t, &ids, &grad);
            }
            t.apply_adam(&adam, weight_decay);
        }
        t.catch_up_all(&adam, weight_decay);
        t.weight().as_slice().to_vec()
    }

    #[test]
    fn lazy_catch_up_matches_dense_apply_bitwise() {
        // 2,600 steps re-touch rows across the bias window's edge and far
        // past it, so both the window and the direct `powi` fallback are
        // pinned, at the runtime width 3 and every constant row width.
        for &dim in &[3usize, 4, 8, 16] {
            for &wd in &[0.0f32, 1e-2] {
                let dense = run_mode(EmbedOptimizerMode::DenseApply, wd, dim, 2600);
                let lazy = run_mode(EmbedOptimizerMode::LazyCatchUp, wd, dim, 2600);
                for (k, (a, b)) in dense.iter().zip(lazy.iter()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "dim={dim} wd={wd}: element {k} diverges: dense {a} vs lazy {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn sparse_mode_differs_from_dense_only_on_untouched_rows() {
        // With wd = 0, a never-touched row has m = v = 0 and a zero
        // gradient, so even the dense sweep leaves it exactly in place;
        // rows touched at every step agree across all three modes.
        let dense = run_mode(EmbedOptimizerMode::DenseApply, 0.0, 3, 6);
        let sparse = run_mode(EmbedOptimizerMode::Sparse, 0.0, 3, 6);
        let lazy = run_mode(EmbedOptimizerMode::LazyCatchUp, 0.0, 3, 6);
        assert_eq!(dense.len(), sparse.len());
        // Sparse differs from dense somewhere (momentum carry-over on rows
        // skipped between touches)...
        assert!(
            dense.iter().zip(sparse.iter()).any(|(a, b)| a != b),
            "expected sparse and dense trajectories to diverge"
        );
        // ...while lazy+catch-up matches dense everywhere (checked bitwise
        // in lazy_catch_up_matches_dense_apply_bitwise; spot-check here).
        assert_eq!(dense, lazy);
    }

    #[test]
    fn dense_apply_weight_decay_moves_untouched_rows() {
        let mut t = EmbeddingTable::zeros(4, 2);
        t.weight_mut().fill_with(1.0);
        t.set_optimizer_mode(EmbedOptimizerMode::DenseApply);
        let mut adam = Adam::with_lr_eps(0.1, 1e-8);
        adam.begin_step();
        scatter(&mut t, &[0], &Matrix::filled(1, 2, 1.0));
        t.apply_adam(&adam, 0.5);
        // Row 3 was never touched but decays under the dense sweep.
        assert!(
            t.row(3)[0] < 1.0,
            "untouched row did not decay: {:?}",
            t.row(3)
        );
    }

    /// The `[vocab, dim]` gradient arena the pending list replaced, kept as
    /// its reference: `+=` into a dense buffer from `+0.0` in `(call, b, f)`
    /// order, touched ids listed once and sorted ascending at apply, and the
    /// per-mode row steps that read the buffer. Lazy replays call
    /// `Adam::bias_corrections_at`, whose bits the table's window returns.
    struct Arena {
        mode: EmbedOptimizerMode,
        weight: Matrix,
        m: Matrix,
        v: Matrix,
        last_step: Vec<u32>,
        slab: Vec<f32>,
        touched: Vec<u32>,
        flags: Vec<bool>,
    }

    impl Arena {
        fn new(t: &EmbeddingTable, mode: EmbedOptimizerMode) -> Self {
            let (vocab, dim) = (t.vocab(), t.dim());
            Self {
                mode,
                weight: t.weight().clone(),
                m: Matrix::zeros(vocab, dim),
                v: Matrix::zeros(vocab, dim),
                last_step: vec![0; vocab],
                slab: vec![0.0; vocab * dim],
                touched: Vec::new(),
                flags: vec![false; vocab],
            }
        }

        fn accumulate(&mut self, flat: &[u32], num_fields: usize, grad: &Matrix) {
            let dim = self.weight.cols();
            for b in 0..flat.len() / num_fields {
                for f in 0..num_fields {
                    let i = flat[b * num_fields + f] as usize;
                    if !self.flags[i] {
                        self.flags[i] = true;
                        self.touched.push(i as u32);
                    }
                    let g = &grad.row(b)[f * dim..(f + 1) * dim];
                    for (a, &g) in self.slab[i * dim..(i + 1) * dim].iter_mut().zip(g) {
                        *a += g;
                    }
                }
            }
        }

        /// The rows an apply visits, ascending: every row in `DenseApply`
        /// mode, else the touched ones.
        fn visited(&mut self) -> Vec<usize> {
            self.touched.sort_unstable();
            match self.mode {
                EmbedOptimizerMode::DenseApply => (0..self.weight.rows()).collect(),
                _ => self.touched.iter().map(|&i| i as usize).collect(),
            }
        }

        fn apply_adam(&mut self, adam: &Adam, wd: f32) {
            let dim = self.weight.cols();
            let (bc1, bc2) = adam.bias_corrections();
            let t = adam.timestep().max(1);
            for i in self.visited() {
                let (w, m, v) = (self.weight.row_mut(i), self.m.row_mut(i), self.v.row_mut(i));
                if self.mode == EmbedOptimizerMode::LazyCatchUp {
                    for s in u64::from(self.last_step[i]) + 1..t {
                        let (cb1, cb2) = adam.bias_corrections_at(s);
                        adam.step_row_zero_grad(w, m, v, wd, cb1, cb2);
                    }
                    self.last_step[i] = t as u32;
                }
                let g = &self.slab[i * dim..(i + 1) * dim];
                adam.step_row(w, g, m, v, wd, bc1, bc2);
            }
            self.discard();
        }

        fn apply_sgd(&mut self, lr: f32, wd: f32) {
            let dim = self.weight.cols();
            for i in self.visited() {
                let g = &self.slab[i * dim..(i + 1) * dim];
                for (w, &g) in self.weight.row_mut(i).iter_mut().zip(g) {
                    *w -= lr * (g + wd * *w);
                }
            }
            self.discard();
        }

        fn discard(&mut self) {
            let dim = self.weight.cols();
            for &i in &self.touched {
                let i = i as usize;
                self.slab[i * dim..(i + 1) * dim].fill(0.0);
                self.flags[i] = false;
            }
            self.touched.clear();
        }
    }

    /// A table and its arena reference, driven through the same calls.
    struct Twin {
        list: EmbeddingTable,
        arena: Arena,
        adam: Adam,
    }

    impl Twin {
        /// Xavier weights, except that row [`neg_zero_id`] is all `-0.0`:
        /// an SGD step on it tells a `+0.0` gradient from a `-0.0` one.
        fn new(vocab: usize, dim: usize, mode: EmbedOptimizerMode) -> Self {
            let mut rng = StdRng::seed_from_u64(vocab as u64 ^ 0x5EED);
            let mut list = EmbeddingTable::new(&mut rng, vocab, dim);
            list.weight_mut().row_mut(neg_zero_id(vocab)).fill(-0.0);
            list.set_optimizer_mode(mode);
            let arena = Arena::new(&list, mode);
            let adam = Adam::with_lr_eps(0.02, 1e-8);
            Self { list, arena, adam }
        }

        fn accumulate(&mut self, flat: &[u32], num_fields: usize, grad: &Matrix) {
            self.list
                .accumulate_grad_fields_pooled(flat, num_fields, grad);
            self.arena.accumulate(flat, num_fields, grad);
        }

        fn adam_step(&mut self, wd: f32) {
            self.adam.begin_step();
            self.list.apply_adam(&self.adam, wd);
            self.arena.apply_adam(&self.adam, wd);
            self.assert_bits(&format!("adam step {}", self.adam.timestep()));
        }

        fn sgd_step(&mut self, lr: f32, wd: f32) {
            self.list.apply_sgd(lr, wd);
            self.arena.apply_sgd(lr, wd);
            self.assert_bits("sgd step");
        }

        fn discard(&mut self) {
            self.list.clear_grads();
            self.arena.discard();
        }

        /// Weights and both Adam moments equal the arena's, bit for bit.
        fn assert_bits(&self, when: &str) {
            let (vocab, dim) = (self.list.vocab(), self.list.dim());
            let unset = Matrix::zeros(0, 0);
            let moment = |m: &Option<Matrix>| m.as_ref().unwrap_or(&unset).as_slice().to_vec();
            let zeros = vec![0.0; vocab * dim];
            let (m, v) = (moment(&self.list.m), moment(&self.list.v));
            let blocks = [
                (
                    "weight",
                    self.list.weight().as_slice(),
                    self.arena.weight.as_slice(),
                ),
                (
                    "m",
                    if m.is_empty() { &zeros } else { &m },
                    self.arena.m.as_slice(),
                ),
                (
                    "v",
                    if v.is_empty() { &zeros } else { &v },
                    self.arena.v.as_slice(),
                ),
            ];
            for (name, got, want) in blocks {
                assert_eq!(got.len(), want.len(), "{when}: {name} size");
                let same = got
                    .iter()
                    .zip(want)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                if !same {
                    let k = (0..got.len()).find(|&k| got[k].to_bits() != want[k].to_bits());
                    let k = k.unwrap_or_default();
                    panic!(
                        "{when} (vocab {vocab}, dim {dim}, {:?}): {name} row {} col {}: list {:e} vs arena {:e}",
                        self.arena.mode,
                        k / dim,
                        k % dim,
                        got[k],
                        want[k]
                    );
                }
            }
        }
    }

    /// The row whose only gradient is ever `-0.0`, and whose weights start
    /// at `-0.0`.
    fn neg_zero_id(vocab: usize) -> usize {
        vocab / 3
    }

    /// The rows that receive NaN, +Inf and -Inf gradients (besides finite
    /// ones), one kind each so no sum meets two NaN payloads.
    fn special_ids(vocab: usize) -> [(usize, f32); 3] {
        let base = vocab / 3 + 1;
        [
            (base, f32::NAN),
            (base + 1, f32::INFINITY),
            (base + 2, f32::NEG_INFINITY),
        ]
    }

    /// The row whose arrivals `1, 1e8, -1e8` sum to `0` in arrival order
    /// and to `1` backwards, so a grouping that reorders them shows.
    fn order_id(vocab: usize) -> usize {
        vocab / 2
    }

    /// Rows no random draw hits: the lazy test touches them only after
    /// long gaps.
    fn gap_ids(vocab: usize) -> [usize; 3] {
        let base = vocab / 4;
        [base, base + 1, base + 2]
    }

    /// Whether `id` is one of the rows the fixtures above reserve.
    fn reserved(vocab: usize, id: usize) -> bool {
        id == neg_zero_id(vocab)
            || id == order_id(vocab)
            || special_ids(vocab).iter().any(|&(s, _)| s == id)
            || gap_ids(vocab).contains(&id)
    }

    /// One `rows x fields` batch for `vocab` rows of width `dim`: ids drawn
    /// from a few hot rows (so they repeat within a row and across fields)
    /// and from the whole table, ids `0` and `vocab - 1` in the first row,
    /// and rows 1 to 4 carrying the `-0.0`, NaN/Inf and order-sensitive
    /// gradients of [`neg_zero_id`], [`special_ids`] and [`order_id`].
    /// Row 4's fields from 1 on hold id 0, free for a test to overwrite.
    fn batch(
        rng: &mut StdRng,
        vocab: usize,
        rows: usize,
        fields: usize,
        dim: usize,
    ) -> (Vec<u32>, Matrix) {
        assert!(
            rows >= 5 && fields >= 3,
            "batch: too small for the fixtures"
        );
        let hot = [0, 1, 7 % vocab, vocab - 1];
        let mut flat: Vec<u32> = (0..rows * fields)
            .map(|_| match rng.gen_range(0..3) {
                0 => hot[rng.gen_range(0..hot.len())],
                _ => rng.gen_range(0..vocab),
            })
            .map(|id| if reserved(vocab, id) { 1 } else { id as u32 })
            .collect();
        let mut grad = Matrix::from_fn(rows, fields * dim, |_, _| rng.gen_range(-1.0..1.0));
        flat[..3].copy_from_slice(&[0, 0, (vocab - 1) as u32]);
        // Row 1: the -0.0 row twice, fields 0 and 2.
        for f in [0, 2] {
            flat[fields + f] = neg_zero_id(vocab) as u32;
            grad.row_mut(1)[f * dim..(f + 1) * dim].fill(-0.0);
        }
        // Row 2: one special value per field.
        for (f, &(id, g)) in special_ids(vocab).iter().enumerate() {
            flat[2 * fields + f] = id as u32;
            grad.row_mut(2)[f * dim] = g;
        }
        // Rows 3 and 4: 1 and 1e8 in row 3, then -1e8 in row 4.
        for (b, f, g) in [(3, 0, 1.0), (3, 1, 1e8), (4, 0, -1e8)] {
            flat[b * fields + f] = order_id(vocab) as u32;
            grad.row_mut(b)[f * dim..(f + 1) * dim].fill(g);
        }
        flat[4 * fields + 1..5 * fields].fill(0);
        (flat, grad)
    }

    /// Vocabularies at the one-pass edge (2^11 - 1, 2^11) and just past it,
    /// with the widths each runs at: every constant width of `by_width!`
    /// (4, 8 and 16) and the runtime width 3.
    const EDGE_VOCABS: [(usize, usize); 4] = [(2047, 3), (2047, 4), (2048, 8), (2049, 16)];

    /// Six Adam steps: two accumulate calls before some applies, a
    /// `clear_grads` between calls on one, one step with nothing pending.
    fn adam_script(mode: EmbedOptimizerMode, wd: f32) {
        for (vocab, dim) in EDGE_VOCABS {
            let mut rng = StdRng::seed_from_u64(vocab as u64);
            let mut twin = Twin::new(vocab, dim, mode);
            for step in 0..6 {
                let (flat, grad) = batch(&mut rng, vocab, 32, 5, dim);
                twin.accumulate(&flat, 5, &grad);
                if step % 2 == 1 {
                    let (flat, grad) = batch(&mut rng, vocab, 8, 3, dim);
                    twin.accumulate(&flat, 3, &grad);
                }
                if step == 4 {
                    twin.discard();
                    let (flat, grad) = batch(&mut rng, vocab, 5, 4, dim);
                    twin.accumulate(&flat, 4, &grad);
                }
                twin.adam_step(wd);
            }
            twin.adam_step(wd);
        }
    }

    #[test]
    fn list_bits_match_arena_sparse_adam() {
        adam_script(EmbedOptimizerMode::Sparse, 0.0);
        adam_script(EmbedOptimizerMode::Sparse, 1e-2);
    }

    #[test]
    fn list_bits_match_arena_dense_adam() {
        adam_script(EmbedOptimizerMode::DenseApply, 0.0);
        adam_script(EmbedOptimizerMode::DenseApply, 1e-2);
    }

    #[test]
    fn list_bits_match_arena_lazy_adam_across_the_bias_window() {
        adam_script(EmbedOptimizerMode::LazyCatchUp, 1e-2);
        // Rows re-touched after gaps of 1,023, 1,024 and 1,025 steps replay
        // from the window's edge and one step past it.
        for (vocab, dim) in EDGE_VOCABS {
            let mut rng = StdRng::seed_from_u64(vocab as u64 + 1);
            let mut twin = Twin::new(vocab, dim, EmbedOptimizerMode::LazyCatchUp);
            let gaps = gap_ids(vocab).into_iter().zip([1023, 1024, 1025]);
            let gaps: Vec<(usize, u64)> = gaps.collect();
            for step in 0..1030u64 {
                let (mut flat, grad) = batch(&mut rng, vocab, 5, 4, dim);
                for (k, &(id, gap)) in gaps.iter().enumerate() {
                    if step == 2 || step == 2 + gap {
                        flat[4 * 4 + 1 + k] = id as u32;
                    }
                }
                twin.accumulate(&flat, 4, &grad);
                twin.adam_step(1e-2);
            }
        }
    }

    #[test]
    fn list_bits_match_arena_in_full_and_partial_blocks() {
        // 15, 16, 17 and 33 distinct ids leave the last block of
        // BLOCK_ROWS ids short, full, one id long and one id long after two
        // full blocks. Id `k` of the final step was last touched at step
        // `k % 5`, so a lazy block replays a different count on each row.
        let vocab = 2049;
        for mode in [
            EmbedOptimizerMode::Sparse,
            EmbedOptimizerMode::LazyCatchUp,
            EmbedOptimizerMode::DenseApply,
        ] {
            for (_, dim) in EDGE_VOCABS {
                for distinct in [15usize, 16, 17, 33] {
                    let mut rng = StdRng::seed_from_u64((distinct * dim) as u64);
                    let mut twin = Twin::new(vocab, dim, mode);
                    let ids: Vec<u32> = (0..distinct).map(|k| (k * 61 % vocab) as u32).collect();
                    for step in 0..8 {
                        let flat: Vec<u32> = match step {
                            0..=4 => ids.iter().copied().skip(step).step_by(5).collect(),
                            5 | 6 => Vec::new(),
                            // Descending arrivals, half of the ids twice.
                            _ => ids
                                .iter()
                                .rev()
                                .chain(&ids[..distinct / 2])
                                .copied()
                                .collect(),
                        };
                        let grad =
                            Matrix::from_fn(flat.len(), dim, |_, _| rng.gen_range(-1.0..1.0));
                        twin.accumulate(&flat, 1, &grad);
                        twin.adam_step(1e-2);
                    }
                }
            }
        }
    }

    #[test]
    fn lookup_bits_match_naive_row_copies() {
        // 509 rows x 12 fields clear POOL_MIN_WORK at every width, so the
        // 2-thread pool shards the lookup, in two uneven chunks.
        let (vocab, rows, fields) = (301, 509, 12);
        for (_, dim) in EDGE_VOCABS {
            let mut rng = StdRng::seed_from_u64(dim as u64);
            let mut t = EmbeddingTable::new(&mut rng, vocab, dim);
            for (id, v) in [(7, -0.0), (8, f32::NAN), (9, f32::NEG_INFINITY)] {
                t.weight_mut().row_mut(id).fill(v);
            }
            let flat: Vec<u32> = (0..rows * fields)
                .map(|_| rng.gen_range(0..vocab as u32))
                .collect();
            let mut want = Matrix::zeros(rows, fields * dim);
            for b in 0..rows {
                for f in 0..fields {
                    let row = t.row(flat[b * fields + f]);
                    want.row_mut(b)[f * dim..(f + 1) * dim].copy_from_slice(row);
                }
            }
            for pool in [Pool::serial(), Pool::new(2)] {
                // A stale buffer, longer than the result: every element
                // must be overwritten.
                let mut got = Matrix::filled(rows, fields * dim + 1, 9.0);
                t.lookup_fields_pooled_into(&flat, fields, &pool, &mut got);
                assert_eq!(got.shape(), want.shape());
                let same = got
                    .as_slice()
                    .iter()
                    .zip(want.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "dim {dim}, {} threads", pool.threads());
            }
        }
    }

    #[test]
    fn list_bits_match_arena_sgd_in_every_mode() {
        for mode in [
            EmbedOptimizerMode::Sparse,
            EmbedOptimizerMode::LazyCatchUp,
            EmbedOptimizerMode::DenseApply,
        ] {
            for (vocab, dim) in EDGE_VOCABS {
                for wd in [0.0, 1e-2] {
                    let mut rng = StdRng::seed_from_u64(vocab as u64 + 2);
                    let mut twin = Twin::new(vocab, dim, mode);
                    for step in 0..4 {
                        let (flat, grad) = batch(&mut rng, vocab, 16, 4, dim);
                        twin.accumulate(&flat, 4, &grad);
                        if step == 1 {
                            let (flat, grad) = batch(&mut rng, vocab, 5, 3, dim);
                            twin.accumulate(&flat, 3, &grad);
                        }
                        twin.sgd_step(0.5, wd);
                    }
                    // The -0.0 row kept its -0.0 weights: its gradient sum
                    // started at +0.0.
                    let row = twin.list.row(neg_zero_id(vocab) as u32);
                    if wd == 0.0 {
                        assert!(row.iter().all(|w| w.to_bits() == (-0.0f32).to_bits()));
                    }
                }
            }
        }
    }

    #[test]
    fn list_bits_match_arena_at_three_radix_passes() {
        // 2^22 + 1 rows: id 2^22 needs 23 bits, three passes of eight.
        let vocab = (1 << 22) + 1;
        for mode in [
            EmbedOptimizerMode::Sparse,
            EmbedOptimizerMode::LazyCatchUp,
            EmbedOptimizerMode::DenseApply,
        ] {
            let mut rng = StdRng::seed_from_u64(3);
            let mut twin = Twin::new(vocab, 1, mode);
            for _ in 0..2 {
                let (flat, grad) = batch(&mut rng, vocab, 64, 4, 1);
                twin.accumulate(&flat, 4, &grad);
                let (flat, grad) = batch(&mut rng, vocab, 8, 3, 1);
                twin.accumulate(&flat, 3, &grad);
                twin.adam_step(1e-2);
            }
            let (flat, grad) = batch(&mut rng, vocab, 64, 4, 1);
            twin.accumulate(&flat, 4, &grad);
            twin.sgd_step(0.5, 0.0);
        }
    }

    #[test]
    fn list_bits_radix_sort_is_stable_at_every_pass_count() {
        // Row counts at each pass-count edge; keys carry their arrival
        // index, so a stable sort by id is the only correct output.
        let mut rng = StdRng::seed_from_u64(11);
        for vocab in [1usize, 2, 2047, 2048, 2049, 1 << 22, (1 << 22) + 1, 1 << 32] {
            let mut pending = PendingGrads::default();
            let top = (vocab - 1) as u32;
            let ids: Vec<u32> = (0..3000)
                .map(|k| match k % 4 {
                    0 => top,
                    1 => rng.gen_range(0..vocab.min(8) as u32),
                    _ => (rng.gen::<u64>() % vocab as u64) as u32,
                })
                .collect();
            pending.keys = ids
                .iter()
                .zip(0u64..)
                .map(|(&id, a)| (u64::from(id) << 32) | a)
                .collect();
            let mut want = pending.keys.clone();
            want.sort_by_key(|k| k >> 32);
            pending.radix_sort(vocab);
            assert_eq!(pending.keys, want, "vocab {vocab}");
        }
    }

    #[test]
    fn list_bits_clear_grads_drops_pending_rows() {
        let mut twin = Twin::new(2049, 4, EmbedOptimizerMode::Sparse);
        let mut rng = StdRng::seed_from_u64(5);
        let (flat, grad) = batch(&mut rng, 2049, 8, 3, 4);
        twin.accumulate(&flat, 3, &grad);
        twin.discard();
        // Nothing is pending, so the apply visits no row.
        twin.adam_step(1e-2);
        assert!(twin.list.m.is_none(), "an empty apply allocated moments");
        let (flat, grad) = batch(&mut rng, 2049, 8, 3, 4);
        twin.accumulate(&flat, 3, &grad);
        twin.adam_step(1e-2);
    }

    #[test]
    #[should_panic(expected = "id 2049 is outside the table's 2049 rows")]
    fn list_bits_id_past_vocab_panics_in_accumulate() {
        let mut t = EmbeddingTable::zeros(2049, 2);
        let grad = Matrix::zeros(2, 4);
        t.accumulate_grad_fields_pooled(&[0, 5, 2048, 2049], 2, &grad);
    }
}
