//! Property-based tests for the matmul tiles.
//!
//! Two families of invariants, both bitwise:
//!
//! 1. **One numeric contract** — every tile the host runs, and the
//!    dispatched [`Matrix`] entry points on a serial pool, must give the
//!    bits of the naive chains in [`crate::reference`] on arbitrary shapes,
//!    including K/N that are not multiples of the tile edges (the remainder
//!    paths are the easiest place for a blocking bug to hide).
//! 2. **Determinism** — the matmuls must be bit-identical on a serial pool
//!    and on any thread count, and a block of output rows computed in
//!    several calls to one call, because each element is one chain
//!    anchored at absolute row and column origins.

#![cfg(test)]

use crate::kernels::{self, Tile};
use crate::matrix::Matrix;
use crate::pool::Pool;
use crate::reference;
use proptest::prelude::*;

/// Deterministic pseudo-random matrix whose entries vary with `salt`.
fn salted(rows: usize, cols: usize, salt: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let x = (r * 131 + c * 37) as f32 * 0.0137 + salt as f32 * 0.11;
        (x.sin() * 1.7) + (x * 0.31).cos() * 0.4
    })
}

/// Every tile the host runs, called directly on slices, so the
/// process-wide backend selection is never mutated from parallel test
/// threads.
fn tiles() -> Vec<Tile> {
    Tile::all("tensor proptests")
}

/// Plain `assert!`s still fail (and shrink) the enclosing property.
fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{what} not bitwise at {i}: {x} vs {y}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pooled_tiled_kernels_bitwise_equal_serial(
        m in 1usize..48,
        k in 1usize..48,
        n in 1usize..48,
        salt in 0u64..1000,
        threads in 1usize..5,
    ) {
        let pool = Pool::new(threads);
        let a = salted(m, k, salt);
        let b = salted(k, n, salt ^ 0x11);
        let mut serial = salted(m, n, salt ^ 0x22);
        let mut pooled = serial.clone();
        a.matmul_accumulate_pooled(&b, &mut serial, 0.75, &Pool::serial());
        a.matmul_accumulate_pooled(&b, &mut pooled, 0.75, &pool);
        for (i, (s, p)) in serial.as_slice().iter().zip(pooled.as_slice()).enumerate() {
            prop_assert!(
                s.to_bits() == p.to_bits(),
                "matmul_accumulate_pooled {m}x{k}x{n} t={threads} not bitwise at {i}: {s} vs {p}"
            );
        }
        let g = salted(m, n, salt ^ 0x33);
        let mut serial_t = salted(k, n, salt ^ 0x44);
        let mut pooled_t = serial_t.clone();
        a.matmul_at_b_accumulate_pooled(&g, &mut serial_t, -0.5, &Pool::serial());
        a.matmul_at_b_accumulate_pooled(&g, &mut pooled_t, -0.5, &pool);
        for (i, (s, p)) in serial_t.as_slice().iter().zip(pooled_t.as_slice()).enumerate() {
            prop_assert!(
                s.to_bits() == p.to_bits(),
                "matmul_at_b_accumulate_pooled {m}x{k}x{n} t={threads} not bitwise at {i}: {s} vs {p}"
            );
        }
        let bt = salted(n, k, salt ^ 0x55);
        let mut serial_bt = Matrix::zeros(m, n);
        let mut pooled_bt = Matrix::zeros(m, n);
        a.matmul_a_bt_into_pooled(&bt, &mut serial_bt, &Pool::serial());
        a.matmul_a_bt_into_pooled(&bt, &mut pooled_bt, &pool);
        for (i, (s, p)) in serial_bt.as_slice().iter().zip(pooled_bt.as_slice()).enumerate() {
            prop_assert!(
                s.to_bits() == p.to_bits(),
                "matmul_a_bt_into_pooled {m}x{k}x{n} t={threads} not bitwise at {i}: {s} vs {p}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn backend_mm_acc_matches_reference(
        m in 1usize..37,
        k in 1usize..90,
        n in 1usize..70,
        salt in 0u64..1000,
        alpha in -2.0f32..2.0,
    ) {
        let a = salted(m, k, salt);
        let b = salted(k, n, salt ^ 0x5a);
        let seed = salted(m, n, salt ^ 0xc3);
        let mut want = seed.clone();
        reference::matmul_accumulate(&a, &b, &mut want, alpha);
        let mut dispatched = seed.clone();
        a.matmul_accumulate_pooled(&b, &mut dispatched, alpha, &Pool::serial());
        let what = format!("matmul_accumulate_pooled {m}x{k}x{n} alpha={alpha}");
        assert_bits(dispatched.as_slice(), want.as_slice(), &what);
        for t in tiles() {
            let mut got = seed.as_slice().to_vec();
            kernels::mm_acc_rows(t, a.as_slice(), k, b.as_slice(), n, &mut got, alpha);
            assert_bits(&got, want.as_slice(), &format!("{t:?} mm_acc {m}x{k}x{n} alpha={alpha}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn backend_mm_atb_matches_reference(
        m in 1usize..50,
        k in 1usize..70,
        n in 1usize..70,
        salt in 0u64..1000,
        alpha in -2.0f32..2.0,
    ) {
        // out[k, n] += alpha * a[m, k]^T * g[m, n]
        let a = salted(m, k, salt);
        let g = salted(m, n, salt ^ 0x5a);
        let seed = salted(k, n, salt ^ 0xc3);
        let mut want = seed.clone();
        reference::matmul_at_b_accumulate(&a, &g, &mut want, alpha);
        let mut dispatched = seed.clone();
        a.matmul_at_b_accumulate_pooled(&g, &mut dispatched, alpha, &Pool::serial());
        let what = format!("matmul_at_b_accumulate_pooled {m}x{k}x{n} alpha={alpha}");
        assert_bits(dispatched.as_slice(), want.as_slice(), &what);
        for t in tiles() {
            let mut got = seed.as_slice().to_vec();
            kernels::mm_atb_rows(t, a.as_slice(), k, g.as_slice(), n, 0, &mut got, alpha);
            assert_bits(&got, want.as_slice(), &format!("{t:?} mm_atb {m}x{k}x{n} alpha={alpha}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn backend_mm_abt_matches_reference(
        m in 1usize..37,
        k in 1usize..90,
        n in 1usize..37,
        salt in 0u64..1000,
    ) {
        // out[m, n] = a[m, k] * b[n, k]^T
        let a = salted(m, k, salt);
        let b = salted(n, k, salt ^ 0x5a);
        let mut want = Matrix::zeros(m, n);
        reference::matmul_a_bt_into(&a, &b, &mut want);
        let mut dispatched = Matrix::filled(m, n, f32::NAN);
        a.matmul_a_bt_into_pooled(&b, &mut dispatched, &Pool::serial());
        let what = format!("matmul_a_bt_into_pooled {m}x{k}x{n}");
        assert_bits(dispatched.as_slice(), want.as_slice(), &what);
        for t in tiles() {
            let mut got = vec![f32::NAN; m * n];
            kernels::mm_abt_rows(t, a.as_slice(), k, b.as_slice(), n, &mut got);
            assert_bits(&got, want.as_slice(), &format!("{t:?} mm_abt {m}x{k}x{n}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Emulates arbitrary pooled chunk boundaries at the kernel-call
    // level: computing a block of output rows in several contiguous calls
    // must be bit-identical to one call, for every tile — this is the
    // property the owner-computes pool paths rely on.
    #[test]
    fn backend_row_regrouping_is_bitwise_invariant(
        m in 1usize..41,
        k in 1usize..41,
        n in 1usize..41,
        raw_split in 1usize..41,
        salt in 0u64..1000,
    ) {
        check_row_regrouping(m, k, n, raw_split, salt);
    }
}

/// Non-finite inputs must propagate bit for bit on every tile: the AVX
/// tiles compute zero-padded tail lanes but never store them, and no tile
/// has a skip-zero fast path.
#[test]
fn nan_inf_propagation_parity_across_backends() {
    let (m, k, n) = (9, 21, 13);
    let mut a = salted(m, k, 7);
    a.set(2, 5, f32::NAN);
    a.set(6, 1, f32::INFINITY);
    a.set(7, 3, f32::NEG_INFINITY);
    let b = salted(k, n, 9);
    let seed = salted(m, n, 11);
    let mut expect = seed.clone();
    reference::matmul_accumulate(&a, &b, &mut expect, 1.0);
    for t in tiles() {
        let mut got = seed.as_slice().to_vec();
        kernels::mm_acc_rows(t, a.as_slice(), k, b.as_slice(), n, &mut got, 1.0);
        assert_bits(&got, expect.as_slice(), &format!("{t:?} mm_acc"));
    }
    // A^T G with non-finite entries in G.
    let a = salted(m, k, 13);
    let mut g = salted(m, n, 15);
    g.set(4, 2, f32::NAN);
    g.set(1, 9, f32::INFINITY);
    let seed_t = salted(k, n, 17);
    let mut expect_t = seed_t.clone();
    reference::matmul_at_b_accumulate(&a, &g, &mut expect_t, 1.0);
    for t in tiles() {
        let mut got = seed_t.as_slice().to_vec();
        kernels::mm_atb_rows(t, a.as_slice(), k, g.as_slice(), n, 0, &mut got, 1.0);
        assert_bits(&got, expect_t.as_slice(), &format!("{t:?} mm_atb"));
    }
    // A B^T with non-finite entries in B.
    let mut bt = salted(n, k, 19);
    bt.set(3, 8, f32::NEG_INFINITY);
    bt.set(10, 0, f32::NAN);
    let mut expect_bt = Matrix::zeros(m, n);
    reference::matmul_a_bt_into(&a, &bt, &mut expect_bt);
    for t in tiles() {
        let mut got = vec![0.0f32; m * n];
        kernels::mm_abt_rows(t, a.as_slice(), k, bt.as_slice(), n, &mut got);
        assert_bits(&got, expect_bt.as_slice(), &format!("{t:?} mm_abt"));
    }
}

/// Body of `backend_row_regrouping_is_bitwise_invariant`, extracted so the
/// `proptest!` macro expansion stays within the recursion limit.
fn check_row_regrouping(m: usize, k: usize, n: usize, raw_split: usize, salt: u64) {
    let a = salted(m, k, salt);
    let b = salted(k, n, salt ^ 0x11);
    let g = salted(m, n, salt ^ 0x22);
    let bt = salted(n, k, salt ^ 0x33);
    for t in tiles() {
        // out += alpha * A B, split over output rows.
        let mut full = vec![0.5f32; m * n];
        kernels::mm_acc_rows(t, a.as_slice(), k, b.as_slice(), n, &mut full, 0.75);
        let split = 1 + raw_split % m;
        let mut parts = vec![0.5f32; m * n];
        let mut r0 = 0;
        while r0 < m {
            let rows = split.min(m - r0);
            kernels::mm_acc_rows(
                t,
                &a.as_slice()[r0 * k..(r0 + rows) * k],
                k,
                b.as_slice(),
                n,
                &mut parts[r0 * n..(r0 + rows) * n],
                0.75,
            );
            r0 += rows;
        }
        let what = format!("{t:?} mm_acc {m}x{k}x{n} split {split}");
        assert_bits(&parts, &full, &what);
        // out += alpha * A^T G, split over output rows (= A columns).
        let mut full_t = vec![-0.25f32; k * n];
        kernels::mm_atb_rows(t, a.as_slice(), k, g.as_slice(), n, 0, &mut full_t, -0.5);
        let split = 1 + raw_split % k;
        let mut parts_t = vec![-0.25f32; k * n];
        let mut k0 = 0;
        while k0 < k {
            let rows = split.min(k - k0);
            kernels::mm_atb_rows(
                t,
                a.as_slice(),
                k,
                g.as_slice(),
                n,
                k0,
                &mut parts_t[k0 * n..(k0 + rows) * n],
                -0.5,
            );
            k0 += rows;
        }
        let what = format!("{t:?} mm_atb {m}x{k}x{n} split {split}");
        assert_bits(&parts_t, &full_t, &what);
        // out = A B^T, split over output rows.
        let mut full_bt = vec![0.0f32; m * n];
        kernels::mm_abt_rows(t, a.as_slice(), k, bt.as_slice(), n, &mut full_bt);
        let split = 1 + raw_split % m;
        let mut parts_bt = vec![0.0f32; m * n];
        let mut r0 = 0;
        while r0 < m {
            let rows = split.min(m - r0);
            kernels::mm_abt_rows(
                t,
                &a.as_slice()[r0 * k..(r0 + rows) * k],
                k,
                bt.as_slice(),
                n,
                &mut parts_bt[r0 * n..(r0 + rows) * n],
            );
            r0 += rows;
        }
        let what = format!("{t:?} mm_abt {m}x{k}x{n} split {split}");
        assert_bits(&parts_bt, &full_bt, &what);
    }
}
