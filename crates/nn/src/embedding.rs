//! Embedding tables with sparse gradient accumulation.
//!
//! The embedding layer (paper Sec. II-B2) maps one-hot encoded categorical
//! features to dense vectors: `e_i = E x_i`. Because each mini-batch touches
//! only a tiny fraction of the vocabulary, gradients are accumulated
//! per-touched-row and the Adam update is applied lazily to exactly those
//! rows — the standard "sparse Adam" used by production CTR trainers.
//!
//! # Gradient arena
//!
//! Pending gradients live in a flat arena: a contiguous `[vocab * dim]`
//! slab (allocated lazily, once) plus a vector of touched row ids and a
//! per-row touched flag. Accumulation is a bounds-checked slab add — no
//! hashing, no per-row boxing — and the apply step sorts the touched ids so
//! rows update in ascending order, which keeps the update loop deterministic
//! by construction (each row's Adam step only reads its own slab row, so the
//! order cannot change any float, but a fixed order keeps traces and
//! diagnostics stable too). Touched slab rows are re-zeroed on apply/clear;
//! untouched rows are never written, so the slab stays clean without a
//! `vocab`-sized sweep.
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
use optinter_tensor::pool::Pool;
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

/// An embedding table of shape `[vocab, dim]` with sparse gradients.
pub struct EmbeddingTable {
    weight: Matrix,
    /// Lazily allocated Adam first-moment state.
    m: Option<Matrix>,
    /// Lazily allocated Adam second-moment state.
    v: Option<Matrix>,
    /// Flat gradient arena: row `idx` of the slab accumulates the pending
    /// gradient of weight row `idx`. Lazily allocated to `[vocab * dim]` on
    /// first use; rows not in `touched` are all-zero by invariant.
    grad_slab: Vec<f32>,
    /// Ids with pending gradient, each listed exactly once (in first-touch
    /// order until [`apply_adam`](Self::apply_adam) sorts them).
    touched: Vec<u32>,
    /// `touched_flags[idx]` mirrors membership of `idx` in `touched`.
    touched_flags: Vec<bool>,
    /// Optimizer row-visiting policy (see [`EmbedOptimizerMode`]).
    opt_mode: EmbedOptimizerMode,
    /// `LazyCatchUp` bookkeeping: the Adam timestep each row was last
    /// brought up to date at. Lazily allocated to `[vocab]` on first apply.
    last_step: Vec<u32>,
    /// `LazyCatchUp`: the recent steps' bias corrections the replays read.
    bias_window: BiasWindow,
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
            grad_slab: Vec::new(),
            touched: Vec::new(),
            touched_flags: Vec::new(),
            opt_mode: EmbedOptimizerMode::Sparse,
            last_step: Vec::new(),
            bias_window: BiasWindow::default(),
        }
    }

    /// Selects the optimizer row-visiting policy. Call before the first
    /// `apply_adam`: switching modes mid-training is unsupported (the
    /// `LazyCatchUp` bookkeeping only tracks steps taken while active).
    pub fn set_optimizer_mode(&mut self, mode: EmbedOptimizerMode) {
        self.opt_mode = mode;
    }

    /// The active optimizer row-visiting policy.
    pub fn optimizer_mode(&self) -> EmbedOptimizerMode {
        self.opt_mode
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

    /// Ensures the gradient arena is allocated (one-time cost per table).
    fn ensure_arena(&mut self) {
        if self.grad_slab.is_empty() && !self.weight.is_empty() {
            self.grad_slab.resize(self.weight.len(), 0.0);
        }
        if self.touched_flags.is_empty() {
            self.touched_flags.resize(self.vocab(), false);
        }
    }

    /// Registers `idx` as touched (idempotent).
    #[inline]
    fn touch(&mut self, idx: u32) {
        let i = idx as usize;
        if !self.touched_flags[i] {
            self.touched_flags[i] = true;
            self.touched.push(idx);
        }
    }

    /// Looks up a batch of single indices, producing `[B, dim]`.
    pub fn lookup(&self, indices: &[u32]) -> Matrix {
        let dim = self.dim();
        let mut out = Matrix::zeros(indices.len(), dim);
        for (r, &idx) in indices.iter().enumerate() {
            out.row_mut(r)
                .copy_from_slice(self.weight.row(idx as usize));
        }
        out
    }

    /// Looks up a flattened multi-field batch.
    ///
    /// `flat` is row-major `[B * num_fields]`: example `b`'s field `f` index
    /// lives at `flat[b * num_fields + f]`. Output is `[B, num_fields*dim]`
    /// with field blocks concatenated in order — the paper's Eq. 7 layout.
    pub fn lookup_fields(&self, flat: &[u32], num_fields: usize) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.lookup_fields_into(flat, num_fields, &mut out);
        out
    }

    /// [`lookup_fields`](Self::lookup_fields) into a caller-owned buffer
    /// (reshaped as needed) — the allocation-free form.
    pub fn lookup_fields_into(&self, flat: &[u32], num_fields: usize, out: &mut Matrix) {
        // lint: allow(panic-free, reason="scoring reaches this only after FrozenScorer::validate, with the artifact's field count (decode requires two or more) or a nonzero memorized-pair count")
        assert!(num_fields > 0, "lookup_fields: need at least one field");
        // lint: allow(panic-free, reason="FrozenScorer::validate splits the field ids into whole rows; cross ids come from gather_mem_ids_into in whole rows")
        assert_eq!(flat.len() % num_fields, 0, "lookup_fields: ragged batch");
        let batch = flat.len() / num_fields;
        let dim = self.dim();
        out.reset(batch, num_fields * dim);
        for b in 0..batch {
            let row = out.row_mut(b);
            for f in 0..num_fields {
                let idx = flat[b * num_fields + f] as usize;
                row[f * dim..(f + 1) * dim].copy_from_slice(self.weight.row(idx));
            }
        }
    }

    /// [`lookup_fields`](Self::lookup_fields) with the batch rows sharded
    /// across `pool`. Pure row copies, so trivially bit-identical to the
    /// serial lookup for any thread count.
    pub fn lookup_fields_pooled(&self, flat: &[u32], num_fields: usize, pool: &Pool) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.lookup_fields_pooled_into(flat, num_fields, pool, &mut out);
        out
    }

    /// [`lookup_fields_pooled`](Self::lookup_fields_pooled) into a
    /// caller-owned buffer (reshaped as needed).
    pub fn lookup_fields_pooled_into(
        &self,
        flat: &[u32],
        num_fields: usize,
        pool: &Pool,
        out: &mut Matrix,
    ) {
        // lint: allow(panic-free, reason="scoring reaches this only after FrozenScorer::validate, with the artifact's field count (decode requires two or more) or a nonzero memorized-pair count")
        assert!(num_fields > 0, "lookup_fields: need at least one field");
        // lint: allow(panic-free, reason="FrozenScorer::validate splits the field ids into whole rows; cross ids come from gather_mem_ids_into in whole rows")
        assert_eq!(flat.len() % num_fields, 0, "lookup_fields: ragged batch");
        let dim = self.dim();
        if pool.is_serial() || flat.len() * dim < POOL_MIN_WORK {
            self.lookup_fields_into(flat, num_fields, out);
            return;
        }
        let batch = flat.len() / num_fields;
        let width = num_fields * dim;
        out.reset(batch, width);
        pool.for_rows(out.as_mut_slice(), width, |b, row| {
            for f in 0..num_fields {
                let idx = flat[b * num_fields + f] as usize;
                row[f * dim..(f + 1) * dim].copy_from_slice(self.weight.row(idx));
            }
        });
    }

    /// Mean-pooled lookup for multivalent features (paper Sec. II-B2) in
    /// flat CSR form: example `r`'s value set is
    /// `values[offsets[r]..offsets[r + 1]]`, so a whole ragged batch is two
    /// borrowed slices — no per-example `Vec`. Each set's embeddings are
    /// averaged into `out` row `r` (reshaped to `[offsets.len()-1, dim]`);
    /// empty sets produce a zero vector. Allocation-free at steady state.
    pub fn lookup_mean_into(&self, values: &[u32], offsets: &[usize], out: &mut Matrix) {
        assert!(
            !offsets.is_empty(),
            "lookup_mean: offsets needs a final end"
        );
        assert_eq!(
            *offsets.last().unwrap_or(&0),
            values.len(),
            "lookup_mean: offsets do not cover values"
        );
        let dim = self.dim();
        let batch = offsets.len() - 1;
        out.reset(batch, dim);
        for r in 0..batch {
            let (start, end) = (offsets[r], offsets[r + 1]);
            assert!(start <= end, "lookup_mean: offsets must be monotone");
            if start == end {
                continue;
            }
            let row = out.row_mut(r);
            for &idx in &values[start..end] {
                for (o, &w) in row.iter_mut().zip(self.weight.row(idx as usize).iter()) {
                    *o += w;
                }
            }
            let inv = 1.0 / (end - start) as f32;
            for o in row.iter_mut() {
                *o *= inv;
            }
        }
    }

    /// Accumulates gradients for a single-index lookup (inverse of
    /// [`lookup`](Self::lookup)). `grad` has shape `[B, dim]`.
    pub fn accumulate_grad(&mut self, indices: &[u32], grad: &Matrix) {
        assert_eq!(
            grad.rows(),
            indices.len(),
            "accumulate_grad: batch mismatch"
        );
        assert_eq!(grad.cols(), self.dim(), "accumulate_grad: dim mismatch");
        self.ensure_arena();
        let dim = self.dim();
        for (r, &idx) in indices.iter().enumerate() {
            self.touch(idx);
            let i = idx as usize;
            let acc = &mut self.grad_slab[i * dim..(i + 1) * dim];
            for (a, &g) in acc.iter_mut().zip(grad.row(r).iter()) {
                *a += g;
            }
        }
    }

    /// Accumulates gradients for a multi-field lookup (inverse of
    /// [`lookup_fields`](Self::lookup_fields)). `grad` has shape
    /// `[B, num_fields*dim]`.
    ///
    /// Contributions add into each row's arena slot in `(b, f)` scan order —
    /// the same association the lane-sharded
    /// [`accumulate_grad_fields_pooled`](Self::accumulate_grad_fields_pooled)
    /// path uses, so the two are bit-identical for any thread count.
    pub fn accumulate_grad_fields(&mut self, flat: &[u32], num_fields: usize, grad: &Matrix) {
        self.accumulate_grad_fields_pooled(flat, num_fields, grad, &Pool::serial());
    }

    /// Lane-sharded parallel version of
    /// [`accumulate_grad_fields`](Self::accumulate_grad_fields).
    ///
    /// Each lane owns the arena rows with `idx % lanes == lane` and scans
    /// the whole batch in `(b, f)` order, so a given row's pending sum is
    /// built in exactly the serial accumulation order no matter how many
    /// lanes run. Lanes touch disjoint rows (enforced by
    /// [`Pool::for_lane_rows`]), so no cross-thread floating-point
    /// reduction happens at all.
    pub fn accumulate_grad_fields_pooled(
        &mut self,
        flat: &[u32],
        num_fields: usize,
        grad: &Matrix,
        pool: &Pool,
    ) {
        let dim = self.dim();
        assert_eq!(
            flat.len() % num_fields,
            0,
            "accumulate_grad_fields: ragged batch"
        );
        let batch = flat.len() / num_fields;
        assert_eq!(grad.rows(), batch, "accumulate_grad_fields: batch mismatch");
        assert_eq!(
            grad.cols(),
            num_fields * dim,
            "accumulate_grad_fields: dim mismatch"
        );
        self.ensure_arena();
        // Touched-id registration is a cheap serial scan; the FP work below
        // is what shards.
        for &idx in flat {
            self.touch(idx);
        }
        let lanes = if pool.is_serial() || flat.len() * dim < POOL_MIN_WORK {
            1
        } else {
            pool.threads()
        };
        if lanes == 1 {
            for b in 0..batch {
                let grow = grad.row(b);
                for f in 0..num_fields {
                    let i = flat[b * num_fields + f] as usize;
                    let acc = &mut self.grad_slab[i * dim..(i + 1) * dim];
                    for (a, &g) in acc.iter_mut().zip(grow[f * dim..(f + 1) * dim].iter()) {
                        *a += g;
                    }
                }
            }
        } else {
            pool.for_lane_rows(&mut self.grad_slab, dim, lanes, |_, mut lane| {
                for b in 0..batch {
                    let grow = grad.row(b);
                    for f in 0..num_fields {
                        let idx = flat[b * num_fields + f] as usize;
                        if !lane.owns(idx) {
                            continue;
                        }
                        let acc = lane.row_mut(idx);
                        for (a, &g) in acc.iter_mut().zip(grow[f * dim..(f + 1) * dim].iter()) {
                            *a += g;
                        }
                    }
                }
            });
        }
    }

    /// Accumulates gradients for a mean-pooled lookup (inverse of
    /// [`lookup_mean_into`](Self::lookup_mean_into)), in the same flat CSR
    /// form: `grad` row `r` is split evenly over
    /// `values[offsets[r]..offsets[r + 1]]`. Allocation-free.
    pub fn accumulate_grad_mean(&mut self, values: &[u32], offsets: &[usize], grad: &Matrix) {
        assert!(
            !offsets.is_empty(),
            "accumulate_grad_mean: offsets needs a final end"
        );
        assert_eq!(
            *offsets.last().unwrap_or(&0),
            values.len(),
            "accumulate_grad_mean: offsets do not cover values"
        );
        assert_eq!(
            grad.rows(),
            offsets.len() - 1,
            "accumulate_grad_mean: batch mismatch"
        );
        assert_eq!(
            grad.cols(),
            self.dim(),
            "accumulate_grad_mean: dim mismatch"
        );
        self.ensure_arena();
        let dim = self.dim();
        for r in 0..offsets.len() - 1 {
            let (start, end) = (offsets[r], offsets[r + 1]);
            assert!(
                start <= end,
                "accumulate_grad_mean: offsets must be monotone"
            );
            if start == end {
                continue;
            }
            let inv = 1.0 / (end - start) as f32;
            for &idx in &values[start..end] {
                self.touch(idx);
                let i = idx as usize;
                let acc = &mut self.grad_slab[i * dim..(i + 1) * dim];
                for (a, &g) in acc.iter_mut().zip(grad.row(r).iter()) {
                    *a += g * inv;
                }
            }
        }
    }

    /// Number of rows with pending gradient accumulation.
    pub fn touched_rows(&self) -> usize {
        self.touched.len()
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
    /// - `Sparse`: touched rows only, ascending-id order, weight decay on
    ///   touched rows only.
    /// - `DenseApply`: every row in `0..vocab` order (untouched rows see a
    ///   zero gradient, so momentum and weight decay still move them).
    /// - `LazyCatchUp`: touched rows only, ascending-id order, but each row
    ///   first replays the steps it skipped as zero-gradient updates — the
    ///   visited-row count is `O(touched)` per step while the resulting
    ///   weights track the `DenseApply` trajectory exactly (bitwise, once
    ///   [`catch_up_all`](Self::catch_up_all) flushes the tail).
    pub fn apply_adam(&mut self, adam: &Adam, weight_decay: f32) {
        match self.opt_mode {
            EmbedOptimizerMode::Sparse => self.apply_adam_sparse(adam, weight_decay),
            EmbedOptimizerMode::DenseApply => self.apply_adam_dense(adam, weight_decay),
            EmbedOptimizerMode::LazyCatchUp => self.apply_adam_lazy(adam, weight_decay),
        }
    }

    /// The historical touched-rows-only step (mode `Sparse`).
    fn apply_adam_sparse(&mut self, adam: &Adam, weight_decay: f32) {
        if self.touched.is_empty() {
            return;
        }
        self.ensure_moments();
        let (bc1, bc2) = adam.bias_corrections();
        let dim = self.dim();
        let mut touched = std::mem::take(&mut self.touched);
        touched.sort_unstable();
        if let (Some(m), Some(v)) = (self.m.as_mut(), self.v.as_mut()) {
            for &idx in &touched {
                let i = idx as usize;
                let grad = &mut self.grad_slab[i * dim..(i + 1) * dim];
                adam.step_row(
                    self.weight.row_mut(i),
                    grad,
                    m.row_mut(i),
                    v.row_mut(i),
                    weight_decay,
                    bc1,
                    bc2,
                );
                grad.fill(0.0);
                self.touched_flags[i] = false;
            }
        }
        touched.clear();
        self.touched = touched;
    }

    /// Full-sweep dense Adam (mode `DenseApply`): the O(vocab·dim) wall the
    /// lazy path exists to avoid, kept as its bitwise reference.
    fn apply_adam_dense(&mut self, adam: &Adam, weight_decay: f32) {
        if self.weight.is_empty() {
            return;
        }
        self.ensure_arena();
        self.ensure_moments();
        let (bc1, bc2) = adam.bias_corrections();
        let dim = self.dim();
        if let (Some(m), Some(v)) = (self.m.as_mut(), self.v.as_mut()) {
            for i in 0..self.weight.rows() {
                let grad = &self.grad_slab[i * dim..(i + 1) * dim];
                adam.step_row(
                    self.weight.row_mut(i),
                    grad,
                    m.row_mut(i),
                    v.row_mut(i),
                    weight_decay,
                    bc1,
                    bc2,
                );
            }
        }
        for &idx in &self.touched {
            let i = idx as usize;
            self.grad_slab[i * dim..(i + 1) * dim].fill(0.0);
            self.touched_flags[i] = false;
        }
        self.touched.clear();
    }

    /// Lazy dense-equivalent Adam (mode `LazyCatchUp`): visits the sorted
    /// touched index only; each visited row first replays its skipped steps
    /// as zero-gradient updates with the bias corrections those steps would
    /// have used, then takes the live step.
    fn apply_adam_lazy(&mut self, adam: &Adam, weight_decay: f32) {
        if self.touched.is_empty() {
            return;
        }
        self.ensure_moments();
        self.ensure_last_step();
        let t = adam.timestep().max(1);
        self.bias_window.advance(adam, t);
        let (bc1, bc2) = adam.bias_corrections();
        let dim = self.dim();
        let mut touched = std::mem::take(&mut self.touched);
        touched.sort_unstable();
        if let (Some(m), Some(v)) = (self.m.as_mut(), self.v.as_mut()) {
            for &idx in &touched {
                let i = idx as usize;
                let (w, mr, vr) = (self.weight.row_mut(i), m.row_mut(i), v.row_mut(i));
                for s in u64::from(self.last_step[i]) + 1..t {
                    let (cb1, cb2) = self.bias_window.at(adam, s);
                    adam.step_row_zero_grad(w, mr, vr, weight_decay, cb1, cb2);
                }
                let grad = &mut self.grad_slab[i * dim..(i + 1) * dim];
                adam.step_row(w, grad, mr, vr, weight_decay, bc1, bc2);
                grad.fill(0.0);
                self.touched_flags[i] = false;
                self.last_step[i] = t as u32;
            }
        }
        touched.clear();
        self.touched = touched;
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

    /// Applies plain SGD (tests / ablations), then clears. Touched rows in
    /// ascending-id order, except in `DenseApply` mode, which sweeps every
    /// row so weight decay hits the whole table. `LazyCatchUp` behaves like
    /// `Sparse` here: with zero gradient and no decay an SGD step is a
    /// no-op, so there is nothing to catch up on the production (wd = 0)
    /// path, and the lazy machinery is Adam-specific.
    pub fn apply_sgd(&mut self, lr: f32, weight_decay: f32) {
        if self.opt_mode == EmbedOptimizerMode::DenseApply {
            self.apply_sgd_dense(lr, weight_decay);
            return;
        }
        let dim = self.dim();
        let mut touched = std::mem::take(&mut self.touched);
        touched.sort_unstable();
        for &idx in &touched {
            let i = idx as usize;
            let grad = &mut self.grad_slab[i * dim..(i + 1) * dim];
            let row = self.weight.row_mut(i);
            for (w, &g) in row.iter_mut().zip(grad.iter()) {
                *w -= lr * (g + weight_decay * *w);
            }
            grad.fill(0.0);
            self.touched_flags[i] = false;
        }
        touched.clear();
        self.touched = touched;
    }

    /// Full-sweep SGD (mode `DenseApply`).
    fn apply_sgd_dense(&mut self, lr: f32, weight_decay: f32) {
        if self.weight.is_empty() {
            return;
        }
        self.ensure_arena();
        let dim = self.dim();
        for i in 0..self.weight.rows() {
            let grad = &self.grad_slab[i * dim..(i + 1) * dim];
            let row = self.weight.row_mut(i);
            for (w, &g) in row.iter_mut().zip(grad.iter()) {
                *w -= lr * (g + weight_decay * *w);
            }
        }
        for &idx in &self.touched {
            let i = idx as usize;
            self.grad_slab[i * dim..(i + 1) * dim].fill(0.0);
            self.touched_flags[i] = false;
        }
        self.touched.clear();
    }

    /// Discards pending gradients without applying them.
    pub fn clear_grads(&mut self) {
        let dim = self.dim();
        for &idx in &self.touched {
            let i = idx as usize;
            self.grad_slab[i * dim..(i + 1) * dim].fill(0.0);
            self.touched_flags[i] = false;
        }
        self.touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, DenseOptimizer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        let out = t.lookup(&[2, 0, 2]);
        assert_eq!(out.row(0), &[4.0, 5.0]);
        assert_eq!(out.row(1), &[0.0, 1.0]);
        assert_eq!(out.row(2), &[4.0, 5.0]);
    }

    #[test]
    fn lookup_fields_layout() {
        let t = small_table();
        // 2 examples x 2 fields
        let flat = [0u32, 1, 2, 3];
        let out = t.lookup_fields(&flat, 2);
        assert_eq!(out.shape(), (2, 4));
        assert_eq!(out.row(0), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(out.row(1), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn lookup_fields_into_reuses_buffer() {
        let t = small_table();
        let mut out = Matrix::zeros(7, 3);
        t.lookup_fields_into(&[0u32, 1, 2, 3], 2, &mut out);
        assert_eq!(out.shape(), (2, 4));
        assert_eq!(out.row(0), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn lookup_mean_pools() {
        let t = small_table();
        // CSR batch: {0, 2}, {}, {3}.
        let values = [0u32, 2, 3];
        let offsets = [0usize, 2, 2, 3];
        let mut out = Matrix::zeros(0, 0);
        t.lookup_mean_into(&values, &offsets, &mut out);
        assert_eq!(out.shape(), (3, 2));
        assert_eq!(out.row(0), &[2.0, 3.0]); // mean of [0,1] and [4,5]
        assert_eq!(out.row(1), &[0.0, 0.0]);
        assert_eq!(out.row(2), &[6.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "offsets do not cover values")]
    fn lookup_mean_rejects_uncovering_offsets() {
        let t = small_table();
        let mut out = Matrix::zeros(0, 0);
        t.lookup_mean_into(&[0u32, 1], &[0usize, 1], &mut out);
    }

    #[test]
    fn grad_accumulation_sums_repeated_indices() {
        let mut t = small_table();
        let grad = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]);
        t.accumulate_grad(&[1, 1], &grad);
        assert_eq!(t.touched_rows(), 1);
        t.apply_sgd(1.0, 0.0);
        // Row 1 started [2,3]; grad sum [3,3] -> [−1, 0]
        assert_eq!(t.row(1), &[-1.0, 0.0]);
        assert_eq!(t.touched_rows(), 0);
    }

    #[test]
    fn fields_grad_roundtrip() {
        let mut t = small_table();
        let flat = [0u32, 1];
        let grad = Matrix::from_rows(&[&[0.5, 0.5, 1.5, 1.5]]);
        t.accumulate_grad_fields(&flat, 2, &grad);
        t.apply_sgd(1.0, 0.0);
        assert_eq!(t.row(0), &[-0.5, 0.5]);
        assert_eq!(t.row(1), &[0.5, 1.5]);
    }

    #[test]
    fn mean_grad_splits_evenly() {
        let mut t = small_table();
        // CSR batch: one example with value set {0, 1}.
        let grad = Matrix::from_rows(&[&[2.0, 2.0]]);
        t.accumulate_grad_mean(&[0u32, 1], &[0usize, 2], &grad);
        t.apply_sgd(1.0, 0.0);
        // Each of rows 0 and 1 receives grad 1.0.
        assert_eq!(t.row(0), &[-1.0, 0.0]);
        assert_eq!(t.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn mean_roundtrip_skips_empty_sets() {
        let mut t = small_table();
        // Batch of two: {} then {3}; the empty set neither reads nor
        // writes any row.
        let grad = Matrix::from_rows(&[&[5.0, 5.0], &[1.0, 1.0]]);
        t.accumulate_grad_mean(&[3u32], &[0usize, 0, 1], &grad);
        assert_eq!(t.touched_rows(), 1);
        t.apply_sgd(1.0, 0.0);
        assert_eq!(t.row(3), &[5.0, 6.0]);
    }

    #[test]
    fn arena_rows_are_rezeroed_after_apply() {
        // A second step touching the same row must start from a clean slab
        // row, not the previous step's gradient.
        let mut t = small_table();
        t.accumulate_grad(&[2], &Matrix::from_rows(&[&[1.0, 0.0]]));
        t.apply_sgd(1.0, 0.0);
        assert_eq!(t.row(2), &[3.0, 5.0]);
        t.accumulate_grad(&[2], &Matrix::from_rows(&[&[0.0, 2.0]]));
        t.apply_sgd(1.0, 0.0);
        assert_eq!(t.row(2), &[3.0, 3.0]);
    }

    #[test]
    fn clear_grads_rezeroes_touched_arena_rows() {
        let mut t = small_table();
        t.accumulate_grad(&[0], &Matrix::filled(1, 2, 1.0));
        t.clear_grads();
        assert_eq!(t.touched_rows(), 0);
        let before = t.row(0).to_vec();
        // A fresh accumulate must not see the discarded gradient.
        t.accumulate_grad(&[0], &Matrix::filled(1, 2, 0.0));
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
        t.accumulate_grad(&[3], &grad);
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
            table.accumulate_grad(&[0], &grad);
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
    fn pooled_lookup_and_sharded_grads_match_serial_bitwise() {
        // Large enough to clear POOL_MIN_WORK so the parallel paths run.
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
        let lookup_serial = serial_t.lookup_fields(&flat, fields);
        let lookup_pooled = pooled_t.lookup_fields_pooled(&flat, fields, &pool);
        assert_eq!(lookup_serial.as_slice(), lookup_pooled.as_slice());
        serial_t.accumulate_grad_fields(&flat, fields, &grad);
        pooled_t.accumulate_grad_fields_pooled(&flat, fields, &grad, &pool);
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
                "sharded grads diverged: {a} vs {b}"
            );
        }
    }

    #[test]
    fn clear_grads_discards_pending() {
        let mut t = small_table();
        t.accumulate_grad(&[0], &Matrix::filled(1, 2, 1.0));
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
                t.accumulate_grad(&ids, &grad);
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
        // pinned, at widths below one vector lane, of one and of two lanes.
        for &dim in &[3usize, 8, 16] {
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
        t.accumulate_grad(&[0], &Matrix::filled(1, 2, 1.0));
        t.apply_adam(&adam, 0.5);
        // Row 3 was never touched but decays under the dense sweep.
        assert!(
            t.row(3)[0] < 1.0,
            "untouched row did not decay: {:?}",
            t.row(3)
        );
    }
}
