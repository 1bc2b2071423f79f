//! Dense linear-algebra substrate for the OptInter reproduction.
//!
//! This crate provides the minimal numerical kernel every other crate builds
//! on: a row-major [`Matrix`] of `f32`, the three matmul products manual
//! backpropagation needs ([`Matrix::matmul_into_pooled`] and
//! [`Matrix::matmul_accumulate_pooled`] for `x·W`,
//! [`Matrix::matmul_at_b_accumulate_pooled`] for `xᵀ·g`,
//! [`Matrix::matmul_a_bt_into_pooled`] for `g·Wᵀ`), AXPY-style updates,
//! numerically stable scalar functions ([`numerics`]), weight initialisation
//! ([`init`]), small statistics helpers ([`stats`]), and the row widths
//! row kernels are compiled for ([`width`], [`by_width!`]).
//!
//! Everything is deliberately simple and allocation-conscious: the
//! reproduction targets deterministic CPU training, and the hot loops are
//! written so LLVM can auto-vectorise them (inner loops over contiguous row
//! slices, no bounds checks in the `k`-loop thanks to slice re-borrows).
//!
//! Optional intra-batch data parallelism comes from [`pool::Pool`]: each
//! matmul row-blocks its kernel across the pool it is given under an
//! owner-computes discipline, so its result is bit-identical for any thread
//! count, [`Pool::serial`] included (see the [`pool`] module docs for the
//! determinism contract).
//!
//! # Example
//!
//! ```
//! use optinter_tensor::{Matrix, Pool};
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::eye(2);
//! let mut c = Matrix::zeros(2, 2);
//! a.matmul_into_pooled(&b, &mut c, &Pool::serial());
//! assert_eq!(c.as_slice(), a.as_slice());
//! ```

// `unsafe` lives only in `pool` and the `kernels` SIMD backends (see
// DESIGN.md §7/§13 and the optinter-lint unsafe-confinement rule); inside
// an `unsafe fn`, every unsafe operation still needs its own `unsafe {}`
// block with a SAFETY comment.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod init;
pub mod kernels;
pub mod matrix;
pub mod numerics;
pub mod ops;
pub mod pool;
#[cfg(test)]
mod proptests;
pub mod reference;
pub mod stats;
pub mod width;

pub use matrix::Matrix;
pub use numerics::{log1p_exp, sigmoid, stable_bce, stable_bce_grad};
pub use pool::Pool;
