//! Property-based tests on the NN substrate: every layer's backward pass
//! must match finite differences for arbitrary shapes and inputs, the
//! optimizers must respect their invariants, and the compositional
//! embedding hashes must be pure, in-range functions of `(seed, id)`.

#![cfg(test)]

use crate::gradcheck::check_grad_matrix;
use crate::layers::{Dense, LayerNorm, Relu};
use crate::loss::bce_with_logits;
use crate::optim::{Adam, DenseOptimizer, Grda, GrdaConfig};
use crate::param::Parameter;
use crate::store::{double_hash_slots, qr_slots, HashScheme, HashedEmbedding};
use optinter_tensor::{Matrix, Pool};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dense_input_gradient_matches_fd(
        seed in 0u64..1000,
        batch in 1usize..4,
        in_dim in 1usize..5,
        out_dim in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layer = Dense::new(&mut rng, in_dim, out_dim);
        let x = optinter_tensor::init::uniform(&mut rng, batch, in_dim, -1.0, 1.0);
        // Scalar objective: sum of outputs.
        let (mut y, mut dx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        layer.forward_into(&x, &mut y);
        let ones = Matrix::filled(y.rows(), y.cols(), 1.0);
        layer.backward_into(&x, &ones, &mut dx);
        let report = check_grad_matrix(&x, &dx, 1e-3, |xp| {
            layer.forward_into(xp, &mut y);
            y.sum()
        });
        prop_assert!(report.passes(1e-2), "{report:?}");
    }

    #[test]
    fn layernorm_gradients_match_fd(
        seed in 0u64..1000,
        batch in 1usize..20,
        dim in 2usize..6,
    ) {
        // Up to 19 rows: two full eight-row blocks and a partial one.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layer = LayerNorm::new(dim, 1e-2);
        layer.gamma.value = optinter_tensor::init::uniform(&mut rng, 1, dim, 0.5, 1.5);
        layer.beta.value = optinter_tensor::init::uniform(&mut rng, 1, dim, -0.5, 0.5);
        // Weighted-sum objective to exercise off-diagonal terms.
        let weights = optinter_tensor::init::uniform(&mut rng, batch, dim, -1.0, 1.0);
        let x = optinter_tensor::init::uniform(&mut rng, batch, dim, -1.0, 1.0);
        let (mut y, mut dx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        layer.forward_into(&x, &mut y);
        layer.backward_into(&weights, &mut dx);
        let (dgamma, dbeta) = (layer.gamma.grad.clone(), layer.beta.grad.clone());
        let (gamma, beta) = (layer.gamma.value.clone(), layer.beta.value.clone());
        let mut objective = |layer: &mut LayerNorm, x: &Matrix| {
            layer.forward_into(x, &mut y);
            y.hadamard(&weights).sum()
        };
        let report = check_grad_matrix(&x, &dx, 1e-3, |xp| objective(&mut layer, xp));
        prop_assert!(report.passes(3e-2), "dx: {report:?}");
        let report = check_grad_matrix(&gamma, &dgamma, 1e-3, |gp| {
            layer.gamma.value = gp.clone();
            objective(&mut layer, &x)
        });
        prop_assert!(report.passes(3e-2), "dgamma: {report:?}");
        layer.gamma.value = gamma;
        let report = check_grad_matrix(&beta, &dbeta, 1e-3, |bp| {
            layer.beta.value = bp.clone();
            objective(&mut layer, &x)
        });
        prop_assert!(report.passes(3e-2), "dbeta: {report:?}");
    }

    #[test]
    fn relu_gradient_matches_fd(
        data in proptest::collection::vec(-2.0f32..2.0, 12),
    ) {
        // Avoid kink points at exactly zero.
        let data: Vec<f32> = data.into_iter()
            .map(|v| if v.abs() < 0.05 { v + 0.1 } else { v })
            .collect();
        let x = Matrix::from_vec(3, 4, data);
        let mut relu = Relu::new();
        relu.forward_inplace(&mut x.clone());
        let mut dx = Matrix::filled(3, 4, 1.0);
        relu.backward_inplace(&mut dx);
        let report = check_grad_matrix(&x, &dx, 1e-3, |xp| {
            let mut y = xp.clone();
            Relu::new().forward_inplace(&mut y);
            y.sum()
        });
        prop_assert!(report.passes(1e-2), "{report:?}");
    }

    #[test]
    fn bce_gradient_matches_fd(
        logits in proptest::collection::vec(-4.0f32..4.0, 1..8),
    ) {
        let labels: Vec<f32> = logits.iter().enumerate()
            .map(|(i, _)| (i % 2) as f32).collect();
        let m = Matrix::from_vec(logits.len(), 1, logits);
        let (_, grad) = bce_with_logits(&m, &labels);
        let report = check_grad_matrix(&m, &grad, 1e-3, |mp| {
            bce_with_logits(mp, &labels).0
        });
        prop_assert!(report.passes(1e-2), "{report:?}");
    }

    #[test]
    fn adam_moves_opposite_to_gradient_sign(
        g in proptest::collection::vec(-1.0f32..1.0, 4),
    ) {
        prop_assume!(g.iter().all(|v| v.abs() > 1e-3));
        let mut p = Parameter::new(Matrix::zeros(1, 4));
        p.grad = Matrix::from_vec(1, 4, g.clone());
        let mut opt = Adam::with_lr_eps(0.01, 1e-8);
        opt.begin_step();
        opt.step(&mut p, 0.0);
        for (w, gi) in p.value.as_slice().iter().zip(g.iter()) {
            prop_assert!(w * gi <= 0.0, "weight {w} moved along gradient {gi}");
        }
    }

    #[test]
    fn grda_never_flips_accumulator_sign_via_threshold(
        c in 0.0f32..1.0,
        mu in 0.1f32..0.9,
    ) {
        // Soft-thresholding shrinks towards zero but never crosses it.
        let mut p = Parameter::new(Matrix::from_vec(1, 2, vec![0.5, -0.5]));
        let mut opt = Grda::new(GrdaConfig { lr: 0.01, c, mu });
        for _ in 0..20 {
            p.grad = Matrix::zeros(1, 2);
            opt.begin_step();
            opt.step(&mut p, 0.0);
        }
        prop_assert!(p.value.get(0, 0) >= 0.0);
        prop_assert!(p.value.get(0, 1) <= 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Quotient-remainder slots partition the declared key space: every id
    // gets in-range slots and the pair reconstructs the id exactly
    // (injectivity — no two ids share both rows).
    #[test]
    fn qr_slots_partition_every_id(
        key_space in 1u32..200_000,
        bucket in 1u32..5_000,
        probe in 0u32..1_000_000,
    ) {
        let id = probe % key_space;
        let (q, r) = qr_slots(bucket, id);
        prop_assert!(q < key_space.div_ceil(bucket), "quotient {q} out of range");
        prop_assert!(r < bucket, "remainder {r} out of range");
        prop_assert_eq!(q * bucket + r, id, "slot pair must reconstruct the id");
    }

    // Double-hash slots are a pure function of `(seed, rows, id)` — same
    // inputs, same slots — and always land in `[0, rows)`.
    #[test]
    fn double_hash_slots_pure_and_in_range(
        seed in 0u64..u64::MAX,
        rows in 1u32..100_000,
        id in 0u32..u32::MAX,
    ) {
        let (s1, s2) = double_hash_slots(seed, rows, id);
        prop_assert!(s1 < rows && s2 < rows, "slots ({s1}, {s2}) outside {rows} rows");
        prop_assert_eq!((s1, s2), double_hash_slots(seed, rows, id), "hash must be pure");
    }

    // A hashed-store lookup is a pure function of `(init seed, hash seed,
    // id)`: two stores built identically return bitwise-equal embeddings,
    // and each equals the manual compose of its sub-table rows.
    #[test]
    fn hashed_lookup_is_pure_function_of_seed_and_id(
        init_seed in 0u64..1000,
        hash_seed in 0u64..u64::MAX,
        id in 0u32..300,
        qr in proptest::bool::ANY,
    ) {
        let scheme = if qr {
            HashScheme::QuotientRemainder { bucket: 19 }
        } else {
            HashScheme::DoubleHash { rows: 31 }
        };
        let mut a = HashedEmbedding::new(
            &mut StdRng::seed_from_u64(init_seed), 300, 4, scheme, hash_seed);
        let mut b = HashedEmbedding::new(
            &mut StdRng::seed_from_u64(init_seed), 300, 4, scheme, hash_seed);
        let flat = [id];
        let (mut out_a, mut out_b) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        a.lookup_fields_pooled_into(&flat, 1, &Pool::serial(), &mut out_a);
        b.lookup_fields_pooled_into(&flat, 1, &Pool::serial(), &mut out_b);
        let (s1, s2) = a.slots(id);
        for d in 0..4 {
            prop_assert_eq!(out_a.row(0)[d].to_bits(), out_b.row(0)[d].to_bits());
            let want = a.table1().weight().row(s1 as usize)[d]
                * a.table2().weight().row(s2 as usize)[d];
            prop_assert_eq!(out_a.row(0)[d].to_bits(), want.to_bits());
        }
    }
}
