//! Criterion micro-benchmarks for the substrate hot paths: matmul, embedding
//! lookup/update, Gumbel sampling, AUC, data generation, and one full
//! training step for representative models (including the OptInter supernet
//! — the search-stage overhead the paper discusses for Table VIII).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use optinter_core::net::DataDims;
use optinter_core::{Architecture, Method, OptInterConfig, OptInterNet, Supernet};
use optinter_data::{BatchIter, BatchStream, Profile};
use optinter_models::{build_model, BaselineConfig, ModelKind};
use optinter_nn::{Adam, EmbeddingTable};
use optinter_tensor::{init, reference, Matrix, Pool};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("tensor");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    let mut rng = StdRng::seed_from_u64(0);
    let serial = Pool::serial();
    for &(m, k, n) in &[(128usize, 256usize, 64usize), (256, 720, 64)] {
        let a = init::uniform(&mut rng, m, k, -1.0, 1.0);
        let b = init::uniform(&mut rng, k, n, -1.0, 1.0);
        group.bench_function(format!("matmul_{m}x{k}x{n}"), |bench| {
            let mut out = Matrix::zeros(m, n);
            bench.iter(|| a.matmul_into_pooled(&b, &mut out, &serial));
        });
        for threads in [2usize, 4] {
            let pool = Pool::new(threads);
            group.bench_function(format!("matmul_{m}x{k}x{n}_t{threads}"), |bench| {
                let mut out = Matrix::zeros(m, n);
                bench.iter(|| a.matmul_into_pooled(&b, &mut out, &pool));
            });
        }
        // Blocked (production) vs naive (reference) kernels, same shapes:
        // keeps the microkernel speedup visible as a ratio in every run.
        group.bench_function(format!("matmul_blocked_{m}x{k}x{n}"), |bench| {
            let mut out = Matrix::zeros(m, n);
            bench.iter(|| a.matmul_accumulate_pooled(&b, &mut out, 1.0, &serial));
        });
        group.bench_function(format!("matmul_naive_{m}x{k}x{n}"), |bench| {
            let mut out = Matrix::zeros(m, n);
            bench.iter(|| reference::matmul_accumulate(&a, &b, &mut out, 1.0));
        });
        let g = init::uniform(&mut rng, m, n, -1.0, 1.0);
        group.bench_function(format!("matmul_at_b_blocked_{m}x{k}x{n}"), |bench| {
            let mut out = Matrix::zeros(k, n);
            bench.iter(|| a.matmul_at_b_accumulate_pooled(&g, &mut out, 1.0, &serial));
        });
        group.bench_function(format!("matmul_at_b_naive_{m}x{k}x{n}"), |bench| {
            let mut out = Matrix::zeros(k, n);
            bench.iter(|| reference::matmul_at_b_accumulate(&a, &g, &mut out, 1.0));
        });
        let bt = init::uniform(&mut rng, n, k, -1.0, 1.0);
        group.bench_function(format!("matmul_a_bt_blocked_{m}x{k}x{n}"), |bench| {
            let mut out = Matrix::zeros(m, n);
            bench.iter(|| a.matmul_a_bt_into_pooled(&bt, &mut out, &serial));
        });
        group.bench_function(format!("matmul_a_bt_naive_{m}x{k}x{n}"), |bench| {
            let mut out = Matrix::zeros(m, n);
            bench.iter(|| reference::matmul_a_bt_into(&a, &bt, &mut out));
        });
    }
    group.finish();
}

fn bench_embedding(c: &mut Criterion) {
    let mut group = c.benchmark_group("embedding");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    let mut rng = StdRng::seed_from_u64(1);
    let table_size = 50_000;
    let dim = 16;
    let batch = 128;
    let fields = 12;
    let mut table = EmbeddingTable::new(&mut rng, table_size, dim);
    let ids: Vec<u32> = (0..batch * fields)
        .map(|i| (i * 37 % table_size) as u32)
        .collect();
    let serial = Pool::serial();
    group.bench_function("lookup_fields_128x12x16", |b| {
        let mut out = Matrix::zeros(0, 0);
        b.iter(|| table.lookup_fields_pooled_into(&ids, fields, &serial, &mut out));
    });
    let grad = Matrix::filled(batch, fields * dim, 0.01);
    let adam = Adam::with_lr_eps(1e-3, 1e-8);
    group.bench_function("accumulate_and_sparse_adam", |b| {
        b.iter(|| {
            table.accumulate_grad_fields_pooled(&ids, fields, &grad, &serial);
            table.apply_adam(&adam, 1e-4);
        });
    });
    group.finish();
}

fn bench_gumbel_and_auc(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    let mut rng = StdRng::seed_from_u64(2);
    let logits = [0.3f32, -0.5, 1.1];
    group.bench_function("gumbel_sample_x66", |b| {
        b.iter(|| {
            for _ in 0..66 {
                let s = optinter_core::gumbel::GumbelSample::draw(&logits, 0.5, &mut rng);
                std::hint::black_box(s.probs[0]);
            }
        });
    });
    let scores: Vec<f32> = (0..10_000)
        .map(|i| ((i * 37) % 997) as f32 / 997.0)
        .collect();
    let labels: Vec<f32> = (0..10_000)
        .map(|i| ((i * 13) % 5 == 0) as u8 as f32)
        .collect();
    group.bench_function("auc_10k", |b| {
        b.iter(|| optinter_metrics::auc(&scores, &labels));
    });
    group.finish();
}

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("data");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    group.bench_function("generate_and_encode_tiny_2k", |b| {
        b.iter(|| Profile::Tiny.bundle_with_rows(2_000, 7));
    });
    group.finish();
}

fn bench_train_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_step");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    let bundle = Profile::Tiny.bundle_with_rows(2_000, 9);
    let Some(batch) = BatchIter::new(&bundle.data, 0..128, 128, None).next() else {
        // A 2k-row bundle always yields a full first batch; if it ever
        // doesn't, skip the group rather than abort the whole bench run.
        eprintln!("train_step bench: empty batch iterator, skipping group");
        return;
    };
    let bcfg = BaselineConfig::test_small();
    for kind in [
        ModelKind::Fm,
        ModelKind::Fnn,
        ModelKind::Ipnn,
        ModelKind::Pin,
    ] {
        group.bench_function(format!("{}_batch128", kind.name()), |b| {
            b.iter_batched(
                || build_model(kind, &bcfg, &bundle.data),
                |mut model| model.train_batch(&batch),
                BatchSize::SmallInput,
            );
        });
    }
    let cfg = OptInterConfig::test_small();
    let dims = DataDims::of(&bundle.data);
    group.bench_function("OptInterNet_mixed_batch128", |b| {
        let arch = Architecture::new(
            (0..dims.num_pairs)
                .map(|p| Method::from_index(p % 3))
                .collect(),
        );
        b.iter_batched(
            || OptInterNet::new(cfg.clone(), dims.clone(), arch.clone()),
            |mut net| net.train_batch(&batch),
            BatchSize::SmallInput,
        );
    });
    group.bench_function("Supernet_search_batch128", |b| {
        b.iter_batched(
            || Supernet::new(cfg.clone(), dims.clone()),
            |mut net| net.train_batch(&batch, 0.5),
            BatchSize::SmallInput,
        );
    });
    // Thread sweep for the acceptance speedup check: results are
    // bit-identical across the sweep, so only wall-clock should move.
    for threads in [1usize, 2, 4] {
        let tcfg = cfg.with_threads(threads);
        group.bench_function(format!("Supernet_search_batch128_t{threads}"), |b| {
            b.iter_batched(
                || Supernet::new(tcfg.clone(), dims.clone()),
                |mut net| net.train_batch(&batch, 0.5),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_batch_assembly(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_assembly");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(5));
    let bundle = Profile::AvazuLike.bundle_with_rows(4_000, 11);
    let train = bundle.split.train.clone();
    // One shuffled pass over the training split at batch 256: the
    // allocating iterator vs the recycled-buffer stream (serial, so the
    // comparison isolates allocation cost from overlap).
    group.bench_function("alloc_per_batch", |b| {
        b.iter(|| {
            for batch in BatchIter::new(&bundle.data, train.clone(), 256, Some(42)) {
                std::hint::black_box(batch.len());
            }
        });
    });
    group.bench_function("recycled_stream", |b| {
        b.iter(|| {
            BatchStream::new(&bundle.data, train.clone(), 256, Some(42))
                .prefetch(false)
                .for_each(|batch| {
                    std::hint::black_box(batch.len());
                });
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_embedding,
    bench_gumbel_and_auc,
    bench_generation,
    bench_train_steps,
    bench_batch_assembly
);
criterion_main!(benches);
