//! Naive reference matmul kernels: the bit oracle of the tiled ones.
//!
//! Each spells out, one output element at a time, the chain every tile in
//! [`crate::kernels`] computes: `acc = fma(a, b, acc)` over ascending k
//! from +0, then `out = fma(alpha, acc, out)`. The kernel tests and
//! proptests hold every tile to these bits, including ±0, NaN and ±Inf.
//! They stay naive on purpose: checking one tile against another would let
//! a stride bug in the driver they share pass. The `perf` benchmark binary
//! times them too, so the tiled-vs-naive gap stays visible.
//!
//! There is no `if a == 0.0 { continue }` fast-path: skipping a zero
//! multiplier is not IEEE-neutral (`0.0 * inf` must produce NaN, and
//! `-0.0 + 0.0` must produce `0.0`), so every multiply-add is spelled out.

use crate::matrix::Matrix;

/// `out = fma(alpha, acc, out)` per element: the one store of each chain.
fn store(out: &mut Matrix, acc: &Matrix, alpha: f32) {
    for (o, &s) in out.as_mut_slice().iter_mut().zip(acc.as_slice()) {
        *o = alpha.mul_add(s, *o);
    }
}

/// `out += alpha * a * b`. Element `(r, c)`'s chain runs over `kk`
/// ascending, in the `kk` loop.
///
/// # Panics
/// Panics on any dimension mismatch.
pub fn matmul_accumulate(a: &Matrix, b: &Matrix, out: &mut Matrix, alpha: f32) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "reference matmul: inner dimensions differ"
    );
    assert_eq!(
        out.rows(),
        a.rows(),
        "reference matmul: output row count mismatch"
    );
    assert_eq!(
        out.cols(),
        b.cols(),
        "reference matmul: output col count mismatch"
    );
    let mut acc = Matrix::zeros(out.rows(), out.cols());
    for r in 0..a.rows() {
        for kk in 0..a.cols() {
            let x = a.get(r, kk);
            for (s, &y) in acc.row_mut(r).iter_mut().zip(b.row(kk)) {
                *s = x.mul_add(y, *s);
            }
        }
    }
    store(out, &acc, alpha);
}

/// `out += alpha * a^T * b`. Element `(i, c)`'s chain runs over the rows
/// `r` of `a` and `b` ascending, in the `r` loop.
///
/// # Panics
/// Panics on any dimension mismatch.
pub fn matmul_at_b_accumulate(a: &Matrix, b: &Matrix, out: &mut Matrix, alpha: f32) {
    assert_eq!(
        a.rows(),
        b.rows(),
        "reference matmul_at_b: row counts differ"
    );
    assert_eq!(
        out.rows(),
        a.cols(),
        "reference matmul_at_b: output row count mismatch"
    );
    assert_eq!(
        out.cols(),
        b.cols(),
        "reference matmul_at_b: output col count mismatch"
    );
    let mut acc = Matrix::zeros(out.rows(), out.cols());
    for r in 0..a.rows() {
        for i in 0..a.cols() {
            let x = a.get(r, i);
            for (s, &y) in acc.row_mut(i).iter_mut().zip(b.row(r)) {
                *s = x.mul_add(y, *s);
            }
        }
    }
    store(out, &acc, alpha);
}

/// `out = a * b^T`: element `(r, c)`'s chain runs over `kk` ascending
/// along rows `r` of `a` and `c` of `b`, and is stored into a zeroed `out`
/// with alpha = 1, as the tiles do.
///
/// # Panics
/// Panics on any dimension mismatch.
pub fn matmul_a_bt_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(
        a.cols(),
        b.cols(),
        "reference matmul_a_bt: col counts differ"
    );
    assert_eq!(
        out.rows(),
        a.rows(),
        "reference matmul_a_bt: output row count mismatch"
    );
    assert_eq!(
        out.cols(),
        b.rows(),
        "reference matmul_a_bt: output col count mismatch"
    );
    let mut acc = Matrix::zeros(out.rows(), out.cols());
    for r in 0..a.rows() {
        for c in 0..b.rows() {
            let mut s = 0.0f32;
            for (&x, &y) in a.row(r).iter().zip(b.row(c)) {
                s = x.mul_add(y, s);
            }
            acc.set(r, c, s);
        }
    }
    out.fill_zero();
    store(out, &acc, 1.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reference_matmul_matches_dispatched_matmul() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = init::uniform(&mut rng, 7, 5, -1.0, 1.0);
        let b = init::uniform(&mut rng, 5, 9, -1.0, 1.0);
        let mut expected = Matrix::zeros(7, 9);
        a.matmul_into_pooled(&b, &mut expected, &crate::Pool::serial());
        let mut out = Matrix::zeros(7, 9);
        matmul_accumulate(&a, &b, &mut out, 1.0);
        for (x, y) in out.as_slice().iter().zip(expected.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn reference_propagates_nan_through_zero_coefficients() {
        // A zero row in `a` multiplied against an inf entry of `b` must
        // produce NaN in the whole output row (0 * inf = NaN).
        let a = Matrix::from_fn(1, 2, |_, _| 0.0);
        let mut b = Matrix::zeros(2, 3);
        b.row_mut(0)[1] = f32::INFINITY;
        let mut out = Matrix::zeros(1, 3);
        matmul_accumulate(&a, &b, &mut out, 1.0);
        assert!(out.row(0)[1].is_nan(), "0 * inf must be NaN");
        assert_eq!(out.row(0)[0], 0.0);
    }
}
