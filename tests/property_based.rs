//! Property-based tests (proptest) on cross-crate invariants.

use optinter::data::generator::SyntheticSpec;
use optinter::data::{DatasetBundle, PairIndexer, PlantedKind};
use optinter::metrics::{auc, log_loss, mutual_information};
use optinter::tensor::ops::{argmax, softmax_slice};
use optinter::tensor::{Matrix, Pool};
use proptest::prelude::*;

/// Deterministic pseudo-random matrix for the parallel-vs-serial cases
/// (entries vary with the proptest-chosen salt).
fn salted_matrix(rows: usize, cols: usize, salt: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let x = (r * 31 + c * 17) as f32 + salt as f32 * 0.13;
        (x * 0.7).sin() * 1.5
    })
}

/// `a * b` on `pool`, into a fresh output.
fn product(a: &Matrix, b: &Matrix, pool: &Pool) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    a.matmul_into_pooled(b, &mut out, pool);
    out
}

/// `a^T * g` on `pool`, into a fresh output.
fn product_at_b(a: &Matrix, g: &Matrix, pool: &Pool) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), g.cols());
    a.matmul_at_b_accumulate_pooled(g, &mut out, 1.0, pool);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_is_associative(
        a in proptest::collection::vec(-2.0f32..2.0, 6),
        b in proptest::collection::vec(-2.0f32..2.0, 6),
        c in proptest::collection::vec(-2.0f32..2.0, 6),
    ) {
        let ma = Matrix::from_vec(2, 3, a);
        let mb = Matrix::from_vec(3, 2, b);
        let mc = Matrix::from_vec(2, 3, c);
        let serial = Pool::serial();
        let left = product(&product(&ma, &mb, &serial), &mc, &serial);
        let right = product(&ma, &product(&mb, &mc, &serial), &serial);
        for (l, r) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((l - r).abs() < 1e-3, "{l} vs {r}");
        }
    }

    #[test]
    fn softmax_is_a_distribution(
        xs in proptest::collection::vec(-30.0f32..30.0, 1..10),
        tau in 0.01f32..10.0,
    ) {
        let p = softmax_slice(&xs, tau);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        // Softmax preserves the argmax.
        prop_assert_eq!(argmax(&xs), argmax(&p));
    }

    #[test]
    fn auc_is_invariant_to_positive_affine_transforms(
        scores in proptest::collection::vec(0.0f32..1.0, 10..50),
        scale in 0.1f32..10.0,
        shift in -5.0f32..5.0,
    ) {
        let labels: Vec<f32> = scores.iter().enumerate()
            .map(|(i, _)| ((i * 7) % 3 == 0) as u8 as f32).collect();
        let transformed: Vec<f32> = scores.iter().map(|&s| s * scale + shift).collect();
        let a = auc(&scores, &labels);
        let b = auc(&transformed, &labels);
        prop_assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn auc_of_flipped_scores_is_complement(
        scores in proptest::collection::vec(0.0f32..1.0, 10..50),
    ) {
        let labels: Vec<f32> = scores.iter().enumerate()
            .map(|(i, _)| ((i * 5) % 2 == 0) as u8 as f32).collect();
        let flipped: Vec<f32> = scores.iter().map(|&s| -s).collect();
        let a = auc(&scores, &labels);
        let b = auc(&flipped, &labels);
        prop_assert!((a + b - 1.0).abs() < 1e-9, "{a} + {b} != 1");
    }

    #[test]
    fn log_loss_is_nonnegative(
        probs in proptest::collection::vec(0.0f32..1.0, 1..40),
    ) {
        let labels: Vec<f32> = probs.iter().enumerate()
            .map(|(i, _)| (i % 2) as f32).collect();
        prop_assert!(log_loss(&probs, &labels) >= 0.0);
    }

    #[test]
    fn mutual_information_bounded_by_ln2(
        ids in proptest::collection::vec(0u32..8, 20..100),
    ) {
        let labels: Vec<f32> = ids.iter().enumerate()
            .map(|(i, _)| ((i * 11) % 3 == 0) as u8 as f32).collect();
        let mi = mutual_information(&ids, &labels);
        prop_assert!(mi >= 0.0);
        prop_assert!(mi <= std::f64::consts::LN_2 + 1e-9);
    }

    #[test]
    fn pair_indexer_roundtrip(m in 2usize..12) {
        let idx = PairIndexer::new(m);
        for p in 0..idx.num_pairs() {
            let (i, j) = idx.pair_at(p);
            prop_assert!(i < j && j < m);
            prop_assert_eq!(idx.index_of(i, j), p);
        }
    }

    #[test]
    fn pooled_matmul_equals_serial_exactly(
        m in 1usize..48,
        k in 1usize..48,
        n in 1usize..48,
        threads in 1usize..8,
        salt in 0u64..1000,
    ) {
        // The determinism guarantee is exact: for any shape and any thread
        // count, the data-parallel kernel must be bit-identical to the
        // serial one (not just close).
        let a = salted_matrix(m, k, salt);
        let b = salted_matrix(k, n, salt.wrapping_add(1));
        let pool = Pool::new(threads);
        let serial = product(&a, &b, &Pool::serial());
        let pooled = product(&a, &b, &pool);
        prop_assert_eq!(serial.shape(), pooled.shape());
        for (s, p) in serial.as_slice().iter().zip(pooled.as_slice()) {
            prop_assert_eq!(s.to_bits(), p.to_bits(), "{} vs {}", s, p);
        }
    }

    #[test]
    fn pooled_matmul_at_b_equals_serial_exactly(
        rows in 1usize..48,
        m in 1usize..32,
        n in 1usize..32,
        threads in 1usize..8,
        salt in 0u64..1000,
    ) {
        let a = salted_matrix(rows, m, salt);
        let g = salted_matrix(rows, n, salt.wrapping_add(2));
        let pool = Pool::new(threads);
        let serial = product_at_b(&a, &g, &Pool::serial());
        let pooled = product_at_b(&a, &g, &pool);
        prop_assert_eq!(serial.shape(), pooled.shape());
        for (s, p) in serial.as_slice().iter().zip(pooled.as_slice()) {
            prop_assert_eq!(s.to_bits(), p.to_bits(), "{} vs {}", s, p);
        }
    }

    #[test]
    fn generated_labels_respect_target_rate(target in 0.05f64..0.5) {
        let spec = SyntheticSpec {
            name: "prop".into(),
            seed: 5,
            cardinalities: vec![8, 8, 8],
            zipf_exponent: 0.8,
            planted: PlantedKind::assign(1, 1, 1, 3, 5),
            field_weight_std: 0.3,
            memorized_std: 0.8,
            factorized_std: 0.8,
            latent_dim: 2,
            nonlinear_std: 0.0,
            noise_std: 0.1,
            target_pos_ratio: target,
        };
        let bundle = DatasetBundle::from_spec(spec, 4000, 1, 9);
        let ratio = bundle.data.pos_ratio(0..bundle.len());
        prop_assert!((ratio - target).abs() < 0.08,
            "target {target}, got {ratio}");
    }
}
