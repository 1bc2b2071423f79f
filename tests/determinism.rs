//! Thread-count and backend determinism: the data-parallel execution layer
//! must be bit-identical to the serial path for any worker count, and every
//! kernel backend must compute the same bits. These tests train the
//! search-stage supernet and a fixed-architecture network with 1, 2 and 4
//! threads from the same seed and compare predicted probabilities,
//! architecture probabilities and the final AUC **bitwise** — not within a
//! tolerance. See `optinter_tensor::pool`, `optinter_tensor::kernels` and
//! DESIGN.md for why this holds.

use optinter_core::net::DataDims;
use optinter_core::{
    search_architecture, Architecture, FactFn, Method, OptInterConfig, OptInterNet, SearchStrategy,
    Supernet,
};
use optinter_data::{Batch, BatchIter, BatchStream, DatasetBundle, Profile};
use optinter_nn::{EmbedOptimizerMode, StoreKind};
use optinter_tensor::kernels::{self, Backend};

const THREADS: [usize; 3] = [1, 2, 4];

fn bundle() -> DatasetBundle {
    Profile::Tiny.bundle_with_rows(1_500, 23)
}

fn test_batch(bundle: &DatasetBundle) -> Batch {
    BatchIter::new(&bundle.data, 1_000..1_400, 400, None)
        .next()
        .expect("test batch")
}

fn bits(probs: &[f32]) -> Vec<u32> {
    probs.iter().map(|p| p.to_bits()).collect()
}

/// Trains the supernet and returns (predicted probs, alpha probs, AUC).
fn train_supernet(bundle: &DatasetBundle, threads: usize) -> (Vec<f32>, Vec<[f32; 3]>, f64) {
    let dims = DataDims::of(&bundle.data);
    let cfg = OptInterConfig {
        seed: 3,
        num_threads: threads,
        fact_fn: FactFn::Generalized,
        ..OptInterConfig::test_small()
    };
    let mut net = Supernet::new(cfg, dims);
    for epoch in 0..2u64 {
        for batch in BatchIter::new(&bundle.data, 0..1_000, 128, Some(epoch)) {
            let loss = net.train_batch(&batch, 0.7);
            assert!(loss.is_finite(), "threads={threads}: loss {loss}");
        }
    }
    let test = test_batch(bundle);
    let probs = net.predict(&test, 0.7);
    let auc = optinter_metrics::auc(&probs, &test.labels);
    (probs, net.arch_probs(), auc)
}

#[test]
fn supernet_training_is_bit_identical_across_thread_counts() {
    let bundle = bundle();
    let (ref_probs, ref_alpha, ref_auc) = train_supernet(&bundle, THREADS[0]);
    assert!(ref_auc > 0.5, "reference run did not learn: AUC {ref_auc}");
    for &threads in &THREADS[1..] {
        let (probs, alpha, auc) = train_supernet(&bundle, threads);
        assert_eq!(
            bits(&ref_probs),
            bits(&probs),
            "predicted logits diverge at {threads} threads"
        );
        for (p, (a, b)) in ref_alpha.iter().zip(alpha.iter()).enumerate() {
            assert_eq!(
                bits(a),
                bits(b),
                "alpha probabilities diverge at pair {p}, {threads} threads"
            );
        }
        assert_eq!(
            ref_auc.to_bits(),
            auc.to_bits(),
            "final AUC diverges at {threads} threads"
        );
    }
}

/// Trains a fixed mixed architecture and returns predicted probabilities.
fn train_fixed_arch(bundle: &DatasetBundle, threads: usize) -> Vec<f32> {
    let dims = DataDims::of(&bundle.data);
    let arch = Architecture::new(
        (0..dims.num_pairs)
            .map(|p| Method::from_index(p % 3))
            .collect(),
    );
    let cfg = OptInterConfig {
        seed: 5,
        num_threads: threads,
        fact_fn: FactFn::Generalized,
        ..OptInterConfig::test_small()
    };
    let mut net = OptInterNet::new(cfg, dims, arch);
    for epoch in 0..2u64 {
        for batch in BatchIter::new(&bundle.data, 0..1_000, 128, Some(epoch)) {
            let loss = net.train_batch(&batch);
            assert!(loss.is_finite(), "threads={threads}: loss {loss}");
        }
    }
    net.predict(&test_batch(bundle))
}

#[test]
fn fixed_architecture_training_is_bit_identical_across_thread_counts() {
    let bundle = bundle();
    let reference = train_fixed_arch(&bundle, THREADS[0]);
    for &threads in &THREADS[1..] {
        let probs = train_fixed_arch(&bundle, threads);
        assert_eq!(
            bits(&reference),
            bits(&probs),
            "fixed-arch predictions diverge at {threads} threads"
        );
    }
}

/// Trains a fixed mixed architecture over configurable embedding stores
/// and optimizer mode; returns (per-batch loss bits, predicted probs).
fn train_fixed_stores(
    bundle: &DatasetBundle,
    threads: usize,
    orig_store: StoreKind,
    cross_store: StoreKind,
    embed_opt: EmbedOptimizerMode,
) -> (Vec<u32>, Vec<f32>) {
    let dims = DataDims::of(&bundle.data);
    let arch = Architecture::new(
        (0..dims.num_pairs)
            .map(|p| Method::from_index(p % 3))
            .collect(),
    );
    let cfg = OptInterConfig {
        seed: 5,
        num_threads: threads,
        fact_fn: FactFn::Generalized,
        ..OptInterConfig::test_small()
    }
    .with_stores(orig_store, cross_store)
    .with_embed_opt(embed_opt);
    let mut net = OptInterNet::new(cfg, dims, arch);
    let mut losses = Vec::new();
    for epoch in 0..2u64 {
        for batch in BatchIter::new(&bundle.data, 0..1_000, 128, Some(epoch)) {
            let loss = net.train_batch(&batch);
            assert!(loss.is_finite(), "threads={threads}: loss {loss}");
            losses.push(loss.to_bits());
        }
    }
    (losses, net.predict(&test_batch(bundle)))
}

#[test]
fn hashed_stores_and_lazy_adam_are_bit_identical_across_thread_counts() {
    let bundle = bundle();
    // Every store kind × optimizer-mode combination the config exposes
    // must satisfy the same owner-computes contract as the dense path:
    // losses and predictions bitwise equal at 1, 2 and 4 threads.
    let cases = [
        (
            StoreKind::HashedQr { bucket: 13 },
            StoreKind::HashedDouble { rows: 31 },
            EmbedOptimizerMode::Sparse,
        ),
        (
            StoreKind::HashedQr { bucket: 13 },
            StoreKind::Dense,
            EmbedOptimizerMode::LazyCatchUp,
        ),
        (
            StoreKind::Dense,
            StoreKind::Dense,
            EmbedOptimizerMode::LazyCatchUp,
        ),
    ];
    for (orig, cross, mode) in cases {
        let (ref_losses, ref_probs) = train_fixed_stores(&bundle, THREADS[0], orig, cross, mode);
        assert!(!ref_losses.is_empty());
        for &threads in &THREADS[1..] {
            let (losses, probs) = train_fixed_stores(&bundle, threads, orig, cross, mode);
            assert_eq!(
                ref_losses, losses,
                "per-batch losses diverge at {threads} threads ({orig:?}/{cross:?}, {mode:?})"
            );
            assert_eq!(
                bits(&ref_probs),
                bits(&probs),
                "predictions diverge at {threads} threads ({orig:?}/{cross:?}, {mode:?})"
            );
        }
    }
}

/// Trains a fixed mixed architecture through `BatchStream` with prefetching
/// toggled and returns (per-batch loss bits, predicted probabilities).
fn train_fixed_stream(
    bundle: &DatasetBundle,
    threads: usize,
    prefetch: bool,
) -> (Vec<u32>, Vec<f32>) {
    let dims = DataDims::of(&bundle.data);
    let arch = Architecture::new(
        (0..dims.num_pairs)
            .map(|p| Method::from_index(p % 3))
            .collect(),
    );
    let cfg = OptInterConfig {
        seed: 5,
        num_threads: threads,
        fact_fn: FactFn::Generalized,
        ..OptInterConfig::test_small()
    };
    let mut net = OptInterNet::new(cfg, dims, arch);
    let mut losses = Vec::new();
    for epoch in 0..2u64 {
        BatchStream::new(&bundle.data, 0..1_000, 128, Some(epoch))
            .prefetch(prefetch)
            .for_each(|batch| {
                losses.push(net.train_batch(batch).to_bits());
            });
    }
    (losses, net.predict(&test_batch(bundle)))
}

#[test]
fn fixed_arch_prefetch_toggle_is_bit_identical_across_thread_counts() {
    let bundle = bundle();
    for &threads in &THREADS {
        let (loss_off, probs_off) = train_fixed_stream(&bundle, threads, false);
        let (loss_on, probs_on) = train_fixed_stream(&bundle, threads, true);
        assert!(!loss_off.is_empty());
        assert_eq!(
            loss_off, loss_on,
            "per-batch losses diverge with prefetching at {threads} threads"
        );
        assert_eq!(
            bits(&probs_off),
            bits(&probs_on),
            "predictions diverge with prefetching at {threads} threads"
        );
    }
}

/// Trains the supernet through `BatchStream` with prefetching toggled and
/// returns (per-batch loss bits, predicted probabilities, alpha probs).
fn train_supernet_stream(
    bundle: &DatasetBundle,
    threads: usize,
    prefetch: bool,
) -> (Vec<u32>, Vec<f32>, Vec<[f32; 3]>) {
    let dims = DataDims::of(&bundle.data);
    let cfg = OptInterConfig {
        seed: 3,
        num_threads: threads,
        fact_fn: FactFn::Generalized,
        ..OptInterConfig::test_small()
    };
    let mut net = Supernet::new(cfg, dims);
    let mut losses = Vec::new();
    for epoch in 0..2u64 {
        BatchStream::new(&bundle.data, 0..1_000, 128, Some(epoch))
            .prefetch(prefetch)
            .for_each(|batch| {
                losses.push(net.train_batch(batch, 0.7).to_bits());
            });
    }
    let probs = net.predict(&test_batch(bundle), 0.7);
    let alpha = net.arch_probs();
    (losses, probs, alpha)
}

#[test]
fn supernet_prefetch_toggle_is_bit_identical_across_thread_counts() {
    let bundle = bundle();
    for &threads in &THREADS {
        let (loss_off, probs_off, alpha_off) = train_supernet_stream(&bundle, threads, false);
        let (loss_on, probs_on, alpha_on) = train_supernet_stream(&bundle, threads, true);
        assert_eq!(
            loss_off, loss_on,
            "supernet per-batch losses diverge with prefetching at {threads} threads"
        );
        assert_eq!(
            bits(&probs_off),
            bits(&probs_on),
            "supernet predictions diverge with prefetching at {threads} threads"
        );
        for (p, (a, b)) in alpha_off.iter().zip(alpha_on.iter()).enumerate() {
            assert_eq!(
                bits(a),
                bits(b),
                "alpha probabilities diverge with prefetching at pair {p}, {threads} threads"
            );
        }
    }
}

/// The full search pipelines must also be unaffected by the prefetch flag:
/// the selected architecture and final loss are compared bitwise through
/// the public `search_architecture` entry point.
#[test]
fn search_is_bit_identical_with_and_without_prefetching() {
    let bundle = bundle();
    for strategy in [SearchStrategy::Joint, SearchStrategy::BiLevel] {
        let cfg = OptInterConfig {
            seed: 11,
            search_epochs: 1,
            ..OptInterConfig::test_small()
        };
        let on = search_architecture(&bundle, &cfg.with_prefetch(true), strategy);
        let off = search_architecture(&bundle, &cfg.with_prefetch(false), strategy);
        assert_eq!(
            on.architecture, off.architecture,
            "{strategy:?}: selected architecture diverges with prefetching"
        );
        assert_eq!(
            on.final_loss.to_bits(),
            off.final_loss.to_bits(),
            "{strategy:?}: final loss diverges with prefetching"
        );
    }
}

/// One numeric contract: every kernel backend the host supports, at 1, 2
/// and 4 threads, trains to the bits of the scalar backend at 1 thread.
/// The other tests in this binary run concurrently with the backend
/// switches below, which is sound only because no switch changes a bit.
#[test]
fn training_is_bit_identical_across_backends_and_thread_counts() {
    let bundle = bundle();
    let mut backends = vec![Backend::Scalar];
    if Backend::AvxFma.is_supported() {
        backends.push(Backend::AvxFma);
    } else {
        eprintln!("no avx2fma on this host: checked the scalar backend only");
    }
    let prev = kernels::set_active(Backend::Scalar);
    let (ref_probs, ref_alpha, ref_auc) = train_supernet(&bundle, THREADS[0]);
    assert!(ref_auc > 0.5, "reference run did not learn: AUC {ref_auc}");
    let fixed_ref = train_fixed_arch(&bundle, THREADS[0]);
    for &backend in &backends {
        kernels::set_active(backend);
        let name = backend.name();
        for threads in THREADS {
            let (probs, alpha, auc) = train_supernet(&bundle, threads);
            assert_eq!(
                bits(&ref_probs),
                bits(&probs),
                "[{name}] supernet logits diverge at {threads} threads"
            );
            for (p, (a, b)) in ref_alpha.iter().zip(alpha.iter()).enumerate() {
                assert_eq!(
                    bits(a),
                    bits(b),
                    "[{name}] alpha probabilities diverge at pair {p}, {threads} threads"
                );
            }
            assert_eq!(
                ref_auc.to_bits(),
                auc.to_bits(),
                "[{name}] final AUC diverges at {threads} threads"
            );
            assert_eq!(
                bits(&fixed_ref),
                bits(&train_fixed_arch(&bundle, threads)),
                "[{name}] fixed-arch predictions diverge at {threads} threads"
            );
        }
    }
    kernels::set_active(prev);
}
