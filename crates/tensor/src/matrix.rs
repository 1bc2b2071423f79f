//! Row-major dense `f32` matrix and the three matmul products backprop
//! needs.
//!
//! Each product has one entry point, `*_pooled`, that row-blocks the kernel
//! across a [`Pool`] under the owner-computes discipline
//! described in the [`pool`](crate::pool) module docs: each output row is
//! produced by exactly one job, so the result is bit-identical for any
//! thread count. A serial pool, or a product below `POOL_MIN_FLOPS`, calls
//! the kernel once on the whole output with no dispatch.

use crate::kernels::{self, Tile};
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

    /// `self * other` written into `out` (overwriting it), row-blocked
    /// across `pool`: [`matmul_accumulate_pooled`](Self::matmul_accumulate_pooled)
    /// into a zeroed `out`.
    ///
    /// Dispatches through the active kernel backend (see
    /// [`crate::kernels`]); see `reference::matmul_accumulate` for the
    /// naive loop it is validated against.
    ///
    /// # Panics
    /// Panics on any dimension mismatch.
    pub fn matmul_into_pooled(&self, other: &Matrix, out: &mut Matrix, pool: &Pool) {
        out.fill_zero();
        self.matmul_accumulate_pooled(other, out, 1.0, pool);
    }

    /// `out += alpha * self * other`, row-blocked across `pool`.
    ///
    /// Each job owns a contiguous block of output rows and runs the kernel
    /// on it. Every element is one chain anchored at its absolute row and
    /// column, so the result is bit-identical for any thread count.
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
            "matmul_accumulate_pooled: inner dimensions differ"
        );
        // lint: allow(panic-free, reason="operand shapes are pinned by Dense::forward_into's reset against frozen layer dims")
        assert_eq!(
            out.rows, self.rows,
            "matmul_accumulate_pooled: output row count mismatch"
        );
        // lint: allow(panic-free, reason="operand shapes are pinned by Dense::forward_into's reset against frozen layer dims")
        assert_eq!(
            out.cols, other.cols,
            "matmul_accumulate_pooled: output col count mismatch"
        );
        let n = other.cols;
        let kdim = self.cols;
        let t = Tile::active();
        if pool.is_serial() || self.rows * kdim * n < POOL_MIN_FLOPS {
            kernels::mm_acc_rows(t, &self.data, kdim, &other.data, n, &mut out.data, alpha);
            return;
        }
        // The prepare hook sizes every participating thread's packing
        // scratch before it can win a chunk, keeping scratch growth
        // deterministic (see Pool::for_row_chunks_prepared).
        pool.for_row_chunks_prepared(
            &mut out.data,
            n,
            || kernels::warm_acc_scratch(t, kdim, n),
            |r0, out_chunk| {
                let rows_in = out_chunk.len() / n;
                let a_chunk = &self.data[r0 * kdim..(r0 + rows_in) * kdim];
                kernels::mm_acc_rows(t, a_chunk, kdim, &other.data, n, out_chunk, alpha);
            },
        );
    }

    /// `out += alpha * self^T * other`, blocked over output rows.
    ///
    /// This is the weight-gradient shape in backprop: `dW = X^T * dY` for
    /// `Y = X W`. Output element `(k, j)` receives its `r` contributions in
    /// ascending order; each job owns a block of output rows `k` and
    /// replays the same ascending-`r` chain per row, which keeps the result
    /// bit-identical for any thread count.
    pub fn matmul_at_b_accumulate_pooled(
        &self,
        other: &Matrix,
        out: &mut Matrix,
        alpha: f32,
        pool: &Pool,
    ) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_at_b_accumulate_pooled: row counts differ"
        );
        assert_eq!(
            out.rows, self.cols,
            "matmul_at_b_accumulate_pooled: output row count mismatch"
        );
        assert_eq!(
            out.cols, other.cols,
            "matmul_at_b_accumulate_pooled: output col count mismatch"
        );
        let n = other.cols;
        let t = Tile::active();
        if pool.is_serial() || self.rows * self.cols * n < POOL_MIN_FLOPS {
            kernels::mm_atb_rows(
                t,
                &self.data,
                self.cols,
                &other.data,
                n,
                0,
                &mut out.data,
                alpha,
            );
            return;
        }
        // Same deterministic scratch warming as matmul_accumulate_pooled,
        // for a product that reduces over this matrix's rows.
        pool.for_row_chunks_prepared(
            &mut out.data,
            n,
            || kernels::warm_acc_scratch(t, self.rows, n),
            |k0, out_chunk| {
                kernels::mm_atb_rows(
                    t,
                    &self.data,
                    self.cols,
                    &other.data,
                    n,
                    k0,
                    out_chunk,
                    alpha,
                );
            },
        );
    }

    /// `self * other^T` written into `out` (overwriting it), row-blocked
    /// across `pool`.
    ///
    /// This is the input-gradient shape in backprop: `dX = dY * W^T` for
    /// `Y = X W`.
    pub fn matmul_a_bt_into_pooled(&self, other: &Matrix, out: &mut Matrix, pool: &Pool) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_a_bt_into_pooled: col counts differ"
        );
        assert_eq!(
            out.rows, self.rows,
            "matmul_a_bt_into_pooled: output row count mismatch"
        );
        assert_eq!(
            out.cols, other.rows,
            "matmul_a_bt_into_pooled: output col count mismatch"
        );
        let bn = other.rows;
        let ncols = self.cols;
        let t = Tile::active();
        if pool.is_serial() || self.rows * ncols * bn < POOL_MIN_FLOPS {
            kernels::mm_abt_rows(t, &self.data, ncols, &other.data, bn, &mut out.data);
            return;
        }
        // Same deterministic scratch warming as matmul_accumulate_pooled,
        // for a product that reduces over `ncols` into `bn` columns.
        pool.for_row_chunks_prepared(
            &mut out.data,
            bn,
            || kernels::warm_abt_scratch(t, ncols, bn),
            |r0, out_chunk| {
                let rows_in = out_chunk.len() / bn;
                let a_chunk = &self.data[r0 * ncols..(r0 + rows_in) * ncols];
                kernels::mm_abt_rows(t, a_chunk, ncols, &other.data, bn, out_chunk);
            },
        );
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
        // lint: allow(panic-free, reason="serving reaches this only through Body::forward's generic Block dispatch to the deep zoo's blocks; the scorer's block is FixedBlock, which never calls it")
        assert_eq!(self.rows, src.rows, "copy_block_from: row count mismatch");
        // lint: allow(panic-free, reason="serving reaches this only through Body::forward's generic Block dispatch to the deep zoo's blocks; the scorer's block is FixedBlock, which never calls it")
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
    /// existing allocation whenever it is large enough: the start of a
    /// scratch buffer that a caller accumulates into. A recycled matrix of
    /// any prior shape becomes a fresh zeroed one without touching the
    /// heap once its capacity has grown to the working-set maximum.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// `a * b` through the pooled entry point on a serial pool.
    fn mm(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        a.matmul_into_pooled(b, &mut out, &Pool::serial());
        out
    }

    /// `a^T * b` through the pooled entry point on `pool`.
    fn mm_at_b(a: &Matrix, b: &Matrix, pool: &Pool) -> Matrix {
        let mut out = Matrix::zeros(a.cols(), b.cols());
        a.matmul_at_b_accumulate_pooled(b, &mut out, 1.0, pool);
        out
    }

    /// `a * b^T` through the pooled entry point on `pool`.
    fn mm_a_bt(a: &Matrix, b: &Matrix, pool: &Pool) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.rows());
        a.matmul_a_bt_into_pooled(b, &mut out, pool);
        out
    }

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
        assert_eq!(mm(&a, &i).as_slice(), a.as_slice());
        assert_eq!(mm(&i, &a).as_slice(), a.as_slice());
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = mm(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Matrix::from_fn(2, 4, |r, c| (r * 4 + c) as f32);
        let b = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32);
        let c = mm(&a, &b);
        assert_eq!(c.shape(), (2, 3));
        // Row 0 of a: [0,1,2,3]; col 0 of b: [0,3,6,9] -> 0+3+12+27 = 42.
        assert_eq!(c.get(0, 0), 42.0);
    }

    #[test]
    fn matmul_at_b_matches_explicit_transpose() {
        let a = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32 * 0.5);
        let b = Matrix::from_fn(4, 3, |r, c| (r + c) as f32 * 0.25);
        let expected = mm(&a.transpose(), &b);
        let got = mm_at_b(&a, &b, &Pool::serial());
        assert_eq!(got.shape(), expected.shape());
        for (g, e) in got.as_slice().iter().zip(expected.as_slice()) {
            assert_eq!(g.to_bits(), e.to_bits(), "{g} vs {e}");
        }
    }

    #[test]
    fn matmul_a_bt_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.1);
        let b = Matrix::from_fn(2, 4, |r, c| (r + c) as f32 * 0.3);
        let expected = mm(&a, &b.transpose());
        let got = mm_a_bt(&a, &b, &Pool::serial());
        assert_eq!(got.shape(), expected.shape());
        for (g, e) in got.as_slice().iter().zip(expected.as_slice()) {
            assert_eq!(g.to_bits(), e.to_bits(), "{g} vs {e}");
        }
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 31 + c * 7) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
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
    fn pooled_matmuls_are_bit_identical_to_serial() {
        // Large enough to clear POOL_MIN_FLOPS so the parallel path runs.
        let a = Matrix::from_fn(96, 64, |r, c| ((r * 67 + c * 13) as f32 * 0.013).sin());
        let b = Matrix::from_fn(64, 48, |r, c| ((r * 31 + c * 29) as f32 * 0.017).cos());
        // Same row count as `a`, as `matmul_at_b` requires.
        let g = Matrix::from_fn(96, 48, |r, c| ((r * 5 + c * 11) as f32 * 0.019).sin());
        let bt = Matrix::from_fn(48, 64, |r, c| ((r * 7 + c * 3) as f32 * 0.011).sin());
        let serial = Pool::serial();
        for threads in [1, 2, 3, 4, 7] {
            let pool = Pool::new(threads);
            let ab = mm(&a, &b);
            let mut ab_p = Matrix::zeros(96, 48);
            a.matmul_into_pooled(&b, &mut ab_p, &pool);
            assert_bits_eq(&ab, &ab_p, "matmul_into_pooled", threads);
            let atb = mm_at_b(&a, &g, &serial);
            let atb_p = mm_at_b(&a, &g, &pool);
            assert_bits_eq(&atb, &atb_p, "matmul_at_b_accumulate_pooled", threads);
            let abt = mm_a_bt(&a, &bt, &serial);
            let abt_p = mm_a_bt(&a, &bt, &pool);
            assert_bits_eq(&abt, &abt_p, "matmul_a_bt_into_pooled", threads);
        }
    }

    #[test]
    fn pooled_accumulate_variants_respect_alpha_and_existing_contents() {
        let a = Matrix::from_fn(80, 64, |r, c| ((r + 2 * c) as f32 * 0.01).sin());
        let b = Matrix::from_fn(64, 40, |r, c| ((3 * r + c) as f32 * 0.02).cos());
        let pool = Pool::new(4);
        let mut serial = Matrix::filled(80, 40, 0.5);
        let mut pooled = Matrix::filled(80, 40, 0.5);
        a.matmul_accumulate_pooled(&b, &mut serial, -1.25, &Pool::serial());
        a.matmul_accumulate_pooled(&b, &mut pooled, -1.25, &pool);
        assert_bits_eq(&serial, &pooled, "matmul_accumulate_pooled", 4);
        let g = Matrix::from_fn(80, 40, |r, c| ((r + 7 * c) as f32 * 0.03).sin());
        let mut serial_t = Matrix::filled(64, 40, -0.25);
        let mut pooled_t = Matrix::filled(64, 40, -0.25);
        a.matmul_at_b_accumulate_pooled(&g, &mut serial_t, 0.75, &Pool::serial());
        a.matmul_at_b_accumulate_pooled(&g, &mut pooled_t, 0.75, &pool);
        assert_bits_eq(&serial_t, &pooled_t, "matmul_at_b_accumulate_pooled", 4);
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
        a.matmul_accumulate_pooled(&b, &mut out, 3.0, &Pool::serial());
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
        a.matmul_accumulate_pooled(&b, &mut out, 1.0, &Pool::serial());
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
        a.matmul_accumulate_pooled(&b, &mut out, 0.0, &Pool::serial());
        assert!(out.get(0, 2).is_nan(), "alpha=0 times inf must be NaN");
        assert_eq!(out.get(0, 0), 0.0);
    }
}
