//! Row-major dense `f32` matrix and the matmul variants used by backprop.
//!
//! Every matmul kernel comes in two flavours: the plain serial method and a
//! `*_pooled` variant that row-blocks the same loops across a
//! [`Pool`](crate::pool::Pool). The pooled variants follow the
//! owner-computes discipline described in the [`pool`](crate::pool) module
//! docs — each output row is produced by exactly one job running the exact
//! serial per-row loop — so they are bit-identical to the serial kernels
//! for any thread count.

use crate::pool::Pool;
use std::fmt;

/// Multiply-add count below which the `*_pooled` kernels run serially:
/// dispatch overhead would dominate, and the fallback is free because the
/// two paths produce bit-identical results.
const POOL_MIN_FLOPS: usize = 32 * 1024;

/// A dense, row-major matrix of `f32` values.
///
/// `Matrix` is the only tensor type in the reproduction: vectors are
/// represented either as plain slices or as `1 x n` / `n x 1` matrices.
/// Storage is a single contiguous `Vec<f32>`; element `(r, c)` lives at
/// `r * cols + c`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for r in 0..max_rows {
            let row = self.row(r);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:.4}")).collect();
            let ellipsis = if self.cols > 8 { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            // lint: allow(hot-path-alloc, reason="allocating constructor: hot callers only build zeros(0, 0) placeholders or one-time lazy workspaces; steady state is policed by the counting allocator")
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        // lint: allow(panic-free, reason="artifact decode sizes the vec to exactly rows*cols via checked take_mul before calling from_vec")
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                cols,
                "Matrix::from_rows: row {i} has inconsistent length"
            );
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix whose element `(r, c)` is `f(r, c)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates the `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning the flat data vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        // lint: allow(panic-free, reason="reached from the decode root only via the conservative .get name fallback; in-crate callers bound r and c by the matrix dims")
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow row `r` mutably.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        let c = self.cols;
        &mut self.data[r * c..(r + 1) * c]
    }

    /// Iterator over row slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Copies the contents of column `c` into a new vector.
    pub fn col_to_vec(&self, c: usize) -> Vec<f32> {
        assert!(
            c < self.cols,
            "col_to_vec: column {} out of bounds ({})",
            c,
            self.cols
        );
        (0..self.rows)
            .map(|r| self.data[r * self.cols + c])
            .collect()
    }

    /// Copies column `c` into `out` — the allocation-free form of
    /// [`col_to_vec`](Self::col_to_vec) for hot-path callers.
    ///
    /// # Panics
    /// Panics if `c` is out of bounds or `out.len() != self.rows`.
    pub fn col_into(&self, c: usize, out: &mut [f32]) {
        assert!(
            c < self.cols,
            "col_into: column {} out of bounds ({})",
            c,
            self.cols
        );
        assert_eq!(out.len(), self.rows, "col_into: output length mismatch");
        for (r, o) in out.iter_mut().enumerate() {
            *o = self.data[r * self.cols + c];
        }
    }

    /// Resets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Fills every element with `value`.
    pub fn fill_with(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Matrix product `self * other`, allocating the output.
    ///
    /// # Panics
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// Matrix product `self * other` written into `out` (overwriting it).
    ///
    /// Dispatches through the active kernel backend (see
    /// [`crate::kernels`]); see `reference::matmul_accumulate` for the
    /// naive loop it is validated against.
    ///
    /// # Panics
    /// Panics on any dimension mismatch.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul: inner dimensions differ");
        assert_eq!(out.rows, self.rows, "matmul: output row count mismatch");
        assert_eq!(out.cols, other.cols, "matmul: output col count mismatch");
        out.fill_zero();
        self.matmul_accumulate(other, out, 1.0);
    }

    /// `out += alpha * self * other`.
    pub fn matmul_accumulate(&self, other: &Matrix, out: &mut Matrix, alpha: f32) {
        // lint: allow(panic-free, reason="operand shapes are pinned by Dense::forward_into's reset against frozen layer dims")
        assert_eq!(
            self.cols, other.rows,
            "matmul_accumulate: inner dimensions differ"
        );
        // lint: allow(panic-free, reason="operand shapes are pinned by Dense::forward_into's reset against frozen layer dims")
        assert_eq!(
            out.rows, self.rows,
            "matmul_accumulate: output row count mismatch"
        );
        // lint: allow(panic-free, reason="operand shapes are pinned by Dense::forward_into's reset against frozen layer dims")
        assert_eq!(
            out.cols, other.cols,
            "matmul_accumulate: output col count mismatch"
        );
        crate::kernels::active_kernel().mm_acc_rows(
            &self.data,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
            alpha,
        );
    }

    /// `self^T * other`, allocating the output.
    ///
    /// This is the weight-gradient shape in backprop:
    /// `dW = X^T * dY` for `Y = X W`.
    pub fn matmul_at_b(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.matmul_at_b_accumulate(other, &mut out, 1.0);
        out
    }

    /// `out += alpha * self^T * other`.
    pub fn matmul_at_b_accumulate(&self, other: &Matrix, out: &mut Matrix, alpha: f32) {
        assert_eq!(self.rows, other.rows, "matmul_at_b: row counts differ");
        assert_eq!(
            out.rows, self.cols,
            "matmul_at_b: output row count mismatch"
        );
        assert_eq!(
            out.cols, other.cols,
            "matmul_at_b: output col count mismatch"
        );
        crate::kernels::active_kernel().mm_atb_rows(
            &self.data,
            self.cols,
            &other.data,
            other.cols,
            0,
            &mut out.data,
            alpha,
        );
    }

    /// `self * other^T`, allocating the output.
    ///
    /// This is the input-gradient shape in backprop:
    /// `dX = dY * W^T` for `Y = X W`.
    pub fn matmul_a_bt(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_a_bt_into(other, &mut out);
        out
    }

    /// `self * other^T` written into `out` (overwriting it).
    pub fn matmul_a_bt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_a_bt: col counts differ");
        assert_eq!(
            out.rows, self.rows,
            "matmul_a_bt: output row count mismatch"
        );
        assert_eq!(
            out.cols, other.rows,
            "matmul_a_bt: output col count mismatch"
        );
        crate::kernels::active_kernel().mm_abt_rows(
            &self.data,
            self.cols,
            &other.data,
            other.rows,
            &mut out.data,
        );
    }

    /// Matrix product `self * other` row-blocked across `pool`, allocating.
    ///
    /// Bit-identical to [`Matrix::matmul`] for any thread count.
    pub fn matmul_pooled(&self, other: &Matrix, pool: &Pool) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into_pooled(other, &mut out, pool);
        out
    }

    /// `self * other` written into `out`, row-blocked across `pool`.
    ///
    /// Bit-identical to [`Matrix::matmul_into`] for any thread count.
    pub fn matmul_into_pooled(&self, other: &Matrix, out: &mut Matrix, pool: &Pool) {
        assert_eq!(self.cols, other.rows, "matmul: inner dimensions differ");
        assert_eq!(out.rows, self.rows, "matmul: output row count mismatch");
        assert_eq!(out.cols, other.cols, "matmul: output col count mismatch");
        out.fill_zero();
        self.matmul_accumulate_pooled(other, out, 1.0, pool);
    }

    /// `out += alpha * self * other`, row-blocked across `pool`.
    ///
    /// Each job owns a contiguous block of output rows and runs the serial
    /// per-row loop on it, so the result is bit-identical to
    /// [`Matrix::matmul_accumulate`] for any thread count.
    pub fn matmul_accumulate_pooled(
        &self,
        other: &Matrix,
        out: &mut Matrix,
        alpha: f32,
        pool: &Pool,
    ) {
        // lint: allow(panic-free, reason="operand shapes are pinned by Dense::forward_into's reset against frozen layer dims")
        assert_eq!(
            self.cols, other.rows,
            "matmul_accumulate: inner dimensions differ"
        );
        // lint: allow(panic-free, reason="operand shapes are pinned by Dense::forward_into's reset against frozen layer dims")
        assert_eq!(
            out.rows, self.rows,
            "matmul_accumulate: output row count mismatch"
        );
        // lint: allow(panic-free, reason="operand shapes are pinned by Dense::forward_into's reset against frozen layer dims")
        assert_eq!(
            out.cols, other.cols,
            "matmul_accumulate: output col count mismatch"
        );
        if pool.is_serial() || self.rows * self.cols * other.cols < POOL_MIN_FLOPS {
            return self.matmul_accumulate(other, out, alpha);
        }
        let n = other.cols;
        let kdim = self.cols;
        let kern = crate::kernels::active_kernel();
        // The prepare hook sizes every participating thread's packing
        // scratch before it can win a chunk, keeping scratch growth
        // deterministic (see Pool::for_row_chunks_prepared).
        pool.for_row_chunks_prepared(
            &mut out.data,
            n,
            || kern.warm_acc_scratch(kdim, n),
            |r0, out_chunk| {
                let rows_in = out_chunk.len() / n;
                let a_chunk = &self.data[r0 * kdim..(r0 + rows_in) * kdim];
                kern.mm_acc_rows(a_chunk, kdim, &other.data, n, out_chunk, alpha);
            },
        );
    }

    /// `self^T * other` row-blocked across `pool`, allocating.
    ///
    /// Bit-identical to [`Matrix::matmul_at_b`] for any thread count.
    pub fn matmul_at_b_pooled(&self, other: &Matrix, pool: &Pool) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.matmul_at_b_accumulate_pooled(other, &mut out, 1.0, pool);
        out
    }

    /// `out += alpha * self^T * other`, blocked over output rows.
    ///
    /// The serial kernel iterates `r` outermost, so output element `(k, j)`
    /// receives its `r` contributions in ascending order. Here each job owns
    /// a block of output rows `k` and replays the same ascending-`r`
    /// accumulation per row, which keeps the result bit-identical to
    /// [`Matrix::matmul_at_b_accumulate`] for any thread count.
    pub fn matmul_at_b_accumulate_pooled(
        &self,
        other: &Matrix,
        out: &mut Matrix,
        alpha: f32,
        pool: &Pool,
    ) {
        assert_eq!(self.rows, other.rows, "matmul_at_b: row counts differ");
        assert_eq!(
            out.rows, self.cols,
            "matmul_at_b: output row count mismatch"
        );
        assert_eq!(
            out.cols, other.cols,
            "matmul_at_b: output col count mismatch"
        );
        if pool.is_serial() || self.rows * self.cols * other.cols < POOL_MIN_FLOPS {
            return self.matmul_at_b_accumulate(other, out, alpha);
        }
        let n = other.cols;
        let kern = crate::kernels::active_kernel();
        // Same deterministic scratch warming as matmul_accumulate_pooled,
        // for a product that reduces over this matrix's rows.
        pool.for_row_chunks_prepared(
            &mut out.data,
            n,
            || kern.warm_acc_scratch(self.rows, n),
            |k0, out_chunk| {
                kern.mm_atb_rows(&self.data, self.cols, &other.data, n, k0, out_chunk, alpha);
            },
        );
    }

    /// `self * other^T` row-blocked across `pool`, allocating.
    ///
    /// Bit-identical to [`Matrix::matmul_a_bt`] for any thread count.
    pub fn matmul_a_bt_pooled(&self, other: &Matrix, pool: &Pool) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_a_bt_into_pooled(other, &mut out, pool);
        out
    }

    /// `self * other^T` written into `out`, row-blocked across `pool`.
    ///
    /// Bit-identical to [`Matrix::matmul_a_bt_into`] for any thread count.
    pub fn matmul_a_bt_into_pooled(&self, other: &Matrix, out: &mut Matrix, pool: &Pool) {
        assert_eq!(self.cols, other.cols, "matmul_a_bt: col counts differ");
        assert_eq!(
            out.rows, self.rows,
            "matmul_a_bt: output row count mismatch"
        );
        assert_eq!(
            out.cols, other.rows,
            "matmul_a_bt: output col count mismatch"
        );
        if pool.is_serial() || self.rows * self.cols * other.rows < POOL_MIN_FLOPS {
            return self.matmul_a_bt_into(other, out);
        }
        let bn = other.rows;
        let ncols = self.cols;
        let kern = crate::kernels::active_kernel();
        // Same deterministic scratch warming as matmul_accumulate_pooled,
        // for a product that reduces over `ncols` into `bn` columns.
        pool.for_row_chunks_prepared(
            &mut out.data,
            bn,
            || kern.warm_abt_scratch(ncols, bn),
            |r0, out_chunk| {
                let rows_in = out_chunk.len() / bn;
                let a_chunk = &self.data[r0 * ncols..(r0 + rows_in) * ncols];
                kern.mm_abt_rows(a_chunk, ncols, &other.data, bn, out_chunk);
            },
        );
    }

    /// Element-wise `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Element-wise `self += alpha * other` (AXPY).
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Element-wise `self *= alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for a in self.data.iter_mut() {
            *a *= alpha;
        }
    }

    /// Element-wise Hadamard product `self ⊙ other`, allocating.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "hadamard: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a * b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        for a in self.data.iter_mut() {
            *a = f(*a);
        }
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map(&self, mut f: impl FnMut(f32) -> f32) -> Matrix {
        let data = self.data.iter().map(|&a| f(a)).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum absolute element (0 for an empty matrix).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Squared Frobenius norm.
    pub fn frob_sq(&self) -> f32 {
        self.data.iter().map(|&v| v * v).sum()
    }

    /// Copies `src` into the column block starting at `col_offset`.
    ///
    /// # Panics
    /// Panics if the block does not fit.
    pub fn copy_block_from(&mut self, src: &Matrix, col_offset: usize) {
        assert_eq!(self.rows, src.rows, "copy_block_from: row count mismatch");
        assert!(
            col_offset + src.cols <= self.cols,
            "copy_block_from: block [{}, {}) exceeds {} cols",
            col_offset,
            col_offset + src.cols,
            self.cols
        );
        for r in 0..self.rows {
            let dst =
                &mut self.data[r * self.cols + col_offset..r * self.cols + col_offset + src.cols];
            dst.copy_from_slice(src.row(r));
        }
    }

    /// Extracts the column block `[col_offset, col_offset + width)` into a new matrix.
    pub fn block(&self, col_offset: usize, width: usize) -> Matrix {
        assert!(
            col_offset + width <= self.cols,
            "block: [{}, {}) exceeds {} cols",
            col_offset,
            col_offset + width,
            self.cols
        );
        let mut out = Matrix::zeros(self.rows, width);
        for r in 0..self.rows {
            let src = &self.data[r * self.cols + col_offset..r * self.cols + col_offset + width];
            out.row_mut(r).copy_from_slice(src);
        }
        out
    }

    /// Reshapes to `[rows, cols]` and zeroes every element, reusing the
    /// existing allocation whenever it is large enough. This is the
    /// workhorse of the scratch-buffer (`Workspace`) paths: a recycled
    /// matrix of any prior shape becomes a fresh zeroed one without
    /// touching the heap once its capacity has grown to the working-set
    /// maximum.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Reshapes to `[rows, cols]` for a caller that writes every element:
    /// unlike [`reset`](Self::reset) it zeroes only storage beyond the old
    /// length, so a persistent scratch buffer skips one pass over memory
    /// per use. The other elements keep stale values until overwritten.
    pub fn reshape_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Makes `self` an element-for-element copy of `src` (shape included),
    /// reusing the existing allocation when possible.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.data.clear();
        self.data.extend_from_slice(&src.data);
        self.rows = src.rows;
        self.cols = src.cols;
    }

    /// Extracts the column block `[col_offset, col_offset + width)` into
    /// `out`, resizing it as needed — the allocation-free form of
    /// [`block`](Self::block).
    pub fn block_into(&self, col_offset: usize, width: usize, out: &mut Matrix) {
        assert!(
            col_offset + width <= self.cols,
            "block_into: [{}, {}) exceeds {} cols",
            col_offset,
            col_offset + width,
            self.cols
        );
        out.reset(self.rows, width);
        for r in 0..self.rows {
            let src = &self.data[r * self.cols + col_offset..r * self.cols + col_offset + width];
            out.row_mut(r).copy_from_slice(src);
        }
    }

    /// Adds `src` into the column block starting at `col_offset`.
    pub fn add_block(&mut self, src: &Matrix, col_offset: usize) {
        assert_eq!(self.rows, src.rows, "add_block: row count mismatch");
        assert!(
            col_offset + src.cols <= self.cols,
            "add_block: block exceeds matrix"
        );
        for r in 0..self.rows {
            let dst =
                &mut self.data[r * self.cols + col_offset..r * self.cols + col_offset + src.cols];
            for (d, &s) in dst.iter_mut().zip(src.row(r).iter()) {
                *d += s;
            }
        }
    }
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
}

/// `y += alpha * x` over slices.
#[inline]
pub fn axpy_slice(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(0), &[0.0, 1.0, 2.0]);
        assert_eq!(m.col_to_vec(1), vec![1.0, 4.0]);
    }

    #[test]
    fn col_into_matches_col_to_vec() {
        let m = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32);
        for c in 0..3 {
            let mut out = vec![0.0f32; 4];
            m.col_into(c, &mut out);
            assert_eq!(out, m.col_to_vec(c));
        }
        let bad = std::panic::catch_unwind(|| {
            let mut out = vec![0.0f32; 3];
            m.col_into(0, &mut out);
        });
        assert!(bad.is_err(), "length mismatch must panic");
    }

    #[test]
    fn from_vec_checks_length() {
        let result = std::panic::catch_unwind(|| Matrix::from_vec(2, 2, vec![1.0; 3]));
        assert!(result.is_err());
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_fn(3, 3, |r, c| (r + c) as f32);
        let i = Matrix::eye(3);
        assert_eq!(a.matmul(&i).as_slice(), a.as_slice());
        assert_eq!(i.matmul(&a).as_slice(), a.as_slice());
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Matrix::from_fn(2, 4, |r, c| (r * 4 + c) as f32);
        let b = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 3));
        // Row 0 of a: [0,1,2,3]; col 0 of b: [0,3,6,9] -> 0+3+12+27 = 42.
        assert_eq!(c.get(0, 0), 42.0);
    }

    #[test]
    fn matmul_at_b_matches_explicit_transpose() {
        let a = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32 * 0.5);
        let b = Matrix::from_fn(4, 3, |r, c| (r + c) as f32 * 0.25);
        let expected = a.transpose().matmul(&b);
        let got = a.matmul_at_b(&b);
        assert_eq!(got.shape(), expected.shape());
        for (g, e) in got.as_slice().iter().zip(expected.as_slice()) {
            assert!((g - e).abs() < 1e-6);
        }
    }

    #[test]
    fn matmul_a_bt_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.1);
        let b = Matrix::from_fn(2, 4, |r, c| (r + c) as f32 * 0.3);
        let expected = a.matmul(&b.transpose());
        let got = a.matmul_a_bt(&b);
        assert_eq!(got.shape(), expected.shape());
        for (g, e) in got.as_slice().iter().zip(expected.as_slice()) {
            assert!((g - e).abs() < 1e-6);
        }
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 31 + c * 7) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[3.0; 4]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[4.0; 4]);
        a.scale(0.25);
        assert_eq!(a.as_slice(), &[1.0; 4]);
        let h = a.hadamard(&b);
        assert_eq!(h.as_slice(), &[2.0; 4]);
    }

    #[test]
    fn block_roundtrip() {
        let mut big = Matrix::zeros(2, 6);
        let small = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        big.copy_block_from(&small, 2);
        assert_eq!(big.row(0), &[0.0, 0.0, 1.0, 2.0, 0.0, 0.0]);
        let back = big.block(2, 2);
        assert_eq!(back, small);
        big.add_block(&small, 2);
        assert_eq!(big.get(1, 3), 8.0);
    }

    #[test]
    fn reductions() {
        let m = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, -4.0]]);
        assert_eq!(m.sum(), -2.0);
        assert_eq!(m.mean(), -0.5);
        assert_eq!(m.max_abs(), 4.0);
        assert_eq!(m.frob_sq(), 30.0);
    }

    #[test]
    fn dot_and_axpy_slice() {
        let a = [1.0, 2.0, 3.0];
        let mut b = [4.0, 5.0, 6.0];
        assert_eq!(dot(&a, &b), 32.0);
        axpy_slice(2.0, &a, &mut b);
        assert_eq!(b, [6.0, 9.0, 12.0]);
    }

    #[test]
    fn pooled_matmuls_are_bit_identical_to_serial() {
        // Large enough to clear POOL_MIN_FLOPS so the parallel path runs.
        let a = Matrix::from_fn(96, 64, |r, c| ((r * 67 + c * 13) as f32 * 0.013).sin());
        let b = Matrix::from_fn(64, 48, |r, c| ((r * 31 + c * 29) as f32 * 0.017).cos());
        // Same row count as `a`, as `matmul_at_b` requires.
        let g = Matrix::from_fn(96, 48, |r, c| ((r * 5 + c * 11) as f32 * 0.019).sin());
        let bt = Matrix::from_fn(48, 64, |r, c| ((r * 7 + c * 3) as f32 * 0.011).sin());
        for threads in [1, 2, 3, 4, 7] {
            let pool = Pool::new(threads);
            let ab = a.matmul(&b);
            let ab_p = a.matmul_pooled(&b, &pool);
            assert_bits_eq(&ab, &ab_p, "matmul", threads);
            let atb = a.matmul_at_b(&g);
            let atb_p = a.matmul_at_b_pooled(&g, &pool);
            assert_bits_eq(&atb, &atb_p, "matmul_at_b", threads);
            let abt = a.matmul_a_bt(&bt);
            let abt_p = a.matmul_a_bt_pooled(&bt, &pool);
            assert_bits_eq(&abt, &abt_p, "matmul_a_bt", threads);
        }
    }

    #[test]
    fn pooled_accumulate_variants_respect_alpha_and_existing_contents() {
        let a = Matrix::from_fn(80, 64, |r, c| ((r + 2 * c) as f32 * 0.01).sin());
        let b = Matrix::from_fn(64, 40, |r, c| ((3 * r + c) as f32 * 0.02).cos());
        let pool = Pool::new(4);
        let mut serial = Matrix::filled(80, 40, 0.5);
        let mut pooled = Matrix::filled(80, 40, 0.5);
        a.matmul_accumulate(&b, &mut serial, -1.25);
        a.matmul_accumulate_pooled(&b, &mut pooled, -1.25, &pool);
        assert_bits_eq(&serial, &pooled, "matmul_accumulate", 4);
        let g = Matrix::from_fn(80, 40, |r, c| ((r + 7 * c) as f32 * 0.03).sin());
        let mut serial_t = Matrix::filled(64, 40, -0.25);
        let mut pooled_t = Matrix::filled(64, 40, -0.25);
        a.matmul_at_b_accumulate(&g, &mut serial_t, 0.75);
        a.matmul_at_b_accumulate_pooled(&g, &mut pooled_t, 0.75, &pool);
        assert_bits_eq(&serial_t, &pooled_t, "matmul_at_b_accumulate", 4);
    }

    fn assert_bits_eq(serial: &Matrix, pooled: &Matrix, kernel: &str, threads: usize) {
        assert_eq!(serial.shape(), pooled.shape());
        for (i, (s, p)) in serial.as_slice().iter().zip(pooled.as_slice()).enumerate() {
            assert_eq!(
                s.to_bits(),
                p.to_bits(),
                "{kernel} with {threads} threads diverged at flat index {i}: {s} vs {p}"
            );
        }
    }

    #[test]
    fn matmul_accumulate_adds() {
        let a = Matrix::eye(2);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let mut out = Matrix::filled(2, 2, 1.0);
        a.matmul_accumulate(&b, &mut out, 3.0);
        assert_eq!(out.as_slice(), &[4.0, 1.0, 1.0, 4.0]);
    }

    #[test]
    fn matmul_accumulate_propagates_nan_through_zero_coefficients() {
        // Regression for the removed `if scaled == 0.0 { continue }`
        // fast-path: skipping a zero multiplier is not IEEE-neutral, because
        // `0.0 * inf` must produce NaN. The production kernel must spell out
        // every multiply-add, so a zero row of `a` against an inf/NaN entry
        // of `b` poisons the corresponding output column.
        let a = Matrix::from_fn(3, 5, |r, c| if r == 1 { 0.0 } else { (r + c) as f32 });
        let mut b = Matrix::from_fn(5, 7, |r, c| (r * 7 + c) as f32 * 0.1);
        b.row_mut(2)[3] = f32::INFINITY;
        b.row_mut(4)[6] = f32::NAN;
        let mut out = Matrix::zeros(3, 7);
        a.matmul_accumulate(&b, &mut out, 1.0);
        // Row 1 of `a` is all zeros: col 3 hits 0*inf, col 6 hits 0*NaN.
        assert!(
            out.get(1, 3).is_nan(),
            "0 * inf must be NaN, got {}",
            out.get(1, 3)
        );
        assert!(
            out.get(1, 6).is_nan(),
            "0 * NaN must be NaN, got {}",
            out.get(1, 6)
        );
        // Columns that never meet a non-finite value stay finite.
        assert!(out.get(1, 0).is_finite());
        assert!(out.get(0, 0).is_finite());
        // Rows with non-zero coefficients see inf (not NaN) in the inf column.
        assert!(out.get(0, 3).is_infinite());
    }

    #[test]
    fn matmul_accumulate_propagates_nan_with_zero_alpha() {
        // alpha == 0.0 must not short-circuit either: 0 * inf panel = NaN.
        let a = Matrix::filled(2, 3, 1.0);
        let mut b = Matrix::zeros(3, 4);
        b.row_mut(1)[2] = f32::INFINITY;
        let mut out = Matrix::zeros(2, 4);
        a.matmul_accumulate(&b, &mut out, 0.0);
        assert!(out.get(0, 2).is_nan(), "alpha=0 times inf must be NaN");
        assert_eq!(out.get(0, 0), 0.0);
    }
}
