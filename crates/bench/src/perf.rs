//! Fixed-workload substrate performance measurements with a committed
//! JSON trajectory (`results/BENCH_substrate.json`).
//!
//! Every entry appended by [`run`] is labelled, so before/after pairs from
//! perf-focused PRs remain comparable forever. The workload is frozen (see
//! the `--bin perf` docs); only iteration counts shrink under `--quick`.

use optinter_core::net::DataDims;
use optinter_core::{Architecture, Method, OptInterConfig, OptInterNet, Supernet};
use optinter_data::cross::{raw_cross, CrossVocab};
use optinter_data::{Batch, BatchIter, BatchStream, Profile, Schema, SyntheticGenerator};
use optinter_nn::{
    Adam, DenseOptimizer, EmbedOptimizerMode, EmbedStore, EmbeddingTable, StoreKind,
};
use optinter_serve::{
    freeze, run_zipf_load, FrozenScorer, LoadSpec, MicroBatchOptions, MonotonicClock, Quant,
};
use optinter_tensor::kernels::{self, Backend};
use optinter_tensor::stats::percentile_sorted;
use optinter_tensor::{init, Matrix, Pool};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::time::Instant;

/// Options for a perf run.
#[derive(Debug, Clone)]
pub struct PerfOptions {
    /// Entry label recorded in the JSON (e.g. `pr3-before`).
    pub label: String,
    /// Smoke mode: tiny iteration counts, same workload and shapes.
    pub quick: bool,
    /// Output JSON path.
    pub out: String,
    /// Overlap batch assembly with compute in the epoch measurements
    /// (`--no-prefetch` disables it for A/B runs; the affected rows are
    /// labelled `stream_serial` instead of `prefetch`).
    pub prefetch: bool,
    /// Path to a committed trajectory to regression-check against: the
    /// run fails if any train-step `rows_per_sec` drops more than
    /// [`REGRESSION_TOLERANCE`] below the matching `(model, threads)` row
    /// of that file's last entry.
    pub check_against: Option<String>,
    /// Kernel backend forced for the train/input/serve sections
    /// (`--backend scalar|avx2fma`); `None` keeps the process default
    /// (env override or CPU detection). The kernel section always measures
    /// every supported backend side by side regardless.
    pub backend: Option<String>,
}

/// Allowed fractional train-step throughput drop before
/// `--check-against` fails the run.
pub const REGRESSION_TOLERANCE: f64 = 0.10;

/// Tolerance for rows whose thread count exceeds the machine's cores.
/// Oversubscribed rows measure the OS scheduler as much as the kernels —
/// on a 1-core CI runner a t4 median routinely swings ±20% between runs —
/// so the gate only fails them on drops large enough to be a real
/// regression rather than contention noise.
pub const OVERSUBSCRIBED_TOLERANCE: f64 = 0.30;

/// Cores available to this process (1 if the query fails).
fn machine_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Default for PerfOptions {
    fn default() -> Self {
        Self {
            label: "dev".to_string(),
            quick: false,
            out: "results/BENCH_substrate.json".to_string(),
            prefetch: true,
            check_against: None,
            backend: None,
        }
    }
}

/// One timed kernel measurement.
#[derive(Debug, Clone, Serialize)]
pub struct KernelRow {
    /// Kernel name (`matmul`, `matmul_at_b`, `matmul_a_bt`).
    pub kernel: String,
    /// Kernel variant: a backend name (`scalar` / `avx2fma`, dispatched
    /// through the pooled entry points) or the `naive` reference.
    pub variant: String,
    /// `A` rows.
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// `B` columns.
    pub n: usize,
    /// Worker threads (1 = serial).
    pub threads: usize,
    /// Median wall-clock per call.
    pub ns_per_call: f64,
    /// Throughput in `2*m*k*n / time` GFLOP/s.
    pub gflops: f64,
}

/// Embedding-path measurement (batch 256 x 12 fields, 50k x 16 table).
#[derive(Debug, Clone, Serialize)]
pub struct EmbeddingRow {
    /// Measured operation.
    pub op: String,
    /// Median wall-clock per call.
    pub ns_per_call: f64,
    /// Batch rows processed per second.
    pub rows_per_sec: f64,
}

/// Memory-scaled embedding measurement on a giant-vocab key space.
///
/// Ops are scale-suffixed (`lookup_grad@1e7` full, `lookup_grad@2e5`
/// quick) so `--check-against` keys from a quick smoke run can never
/// cross-match a committed full-scale baseline: absent keys pass the
/// gate, mismatched scales never compare.
#[derive(Debug, Clone, Serialize)]
pub struct EmbedScaleRow {
    /// Measured operation (`lookup_grad@SCALE`, `adam_apply@SCALE`,
    /// `train_step@SCALE`).
    pub op: String,
    /// Store or optimizer variant (`dense` / `hashed_qr` /
    /// `hashed_double`; `dense_apply` / `lazy` for the optimizer wall).
    pub variant: String,
    /// Resident training bytes per key-space row: f32 weights plus the
    /// two Adam moment planes, divided by the key space served.
    pub bytes_per_row: f64,
    /// Median wall-clock per call (per epoch for `train_step`).
    pub ns_per_call: f64,
    /// Batch (or trained) rows processed per second.
    pub rows_per_sec: f64,
    /// Validation AUC (`train_step` rows only; 0 for micro ops).
    pub auc: f64,
}

/// Full train-step measurement at batch 256.
#[derive(Debug, Clone, Serialize)]
pub struct TrainRow {
    /// Model (`supernet` or `optinternet`).
    pub model: String,
    /// Worker threads.
    pub threads: usize,
    /// Median wall-clock per training step.
    pub ns_per_step: f64,
    /// Examples per second at batch 256.
    pub rows_per_sec: f64,
    /// Final-step loss, as a cross-run determinism fingerprint.
    pub last_loss: f32,
}

/// Input-pipeline measurement on the AvazuLike profile (10 fields, 45
/// pairs): cross-vocabulary build, row encoding, batch assembly, and full
/// training epochs with and without the prefetching stream.
#[derive(Debug, Clone, Serialize)]
pub struct InputRow {
    /// Measured operation (`cross_vocab_build`, `encode_rows`,
    /// `batch_assembly`, `epoch_optinternet`, `epoch_supernet`).
    pub op: String,
    /// Variant (`hashmap_reference`/`open_addressing`, `serial`/`pooled`,
    /// `alloc_per_batch`/`recycled`, `batchiter`/`prefetch`).
    pub variant: String,
    /// Worker threads (1 = serial).
    pub threads: usize,
    /// Median wall-clock per call (per epoch for the epoch ops).
    pub ns_per_call: f64,
    /// Raw/encoded/trained rows processed per second.
    pub rows_per_sec: f64,
}

/// Serving-path latency/throughput measurement on a frozen artifact:
/// the single-request scorer and the micro-batching front door under a
/// Zipf-hot open-loop load, at 1, 2 and 4 threads.
#[derive(Debug, Clone, Serialize)]
pub struct ServeRow {
    /// Measured path (`single_request` or `micro_batch`).
    pub op: String,
    /// Scorer pool threads.
    pub threads: usize,
    /// Median request latency.
    pub p50_ns: f64,
    /// 99th-percentile request latency.
    pub p99_ns: f64,
    /// 99.9th-percentile request latency.
    pub p999_ns: f64,
    /// Requests scored per second over the whole run.
    pub rows_per_sec: f64,
}

/// One labelled perf run (an element of the JSON trajectory array).
#[derive(Debug, Clone, Serialize)]
pub struct PerfEntry {
    /// Run label (`--label`).
    pub label: String,
    /// Whether this was a `--quick` smoke run.
    pub quick: bool,
    /// Kernel backend the train/input/serve sections ran under.
    pub backend: String,
    /// Kernel micro measurements.
    pub matmul: Vec<KernelRow>,
    /// Embedding accumulate/update measurements.
    pub embedding: Vec<EmbeddingRow>,
    /// Memory-scaled embedding measurements (giant-vocab key space).
    pub embedding_scale: Vec<EmbedScaleRow>,
    /// End-to-end train-step measurements.
    pub train_step: Vec<TrainRow>,
    /// Input-pipeline measurements.
    pub input: Vec<InputRow>,
    /// Serving-path latency measurements.
    pub serve: Vec<ServeRow>,
}

/// Median nanoseconds per call of `f` over `samples` timed runs.
fn time_ns(samples: usize, mut f: impl FnMut()) -> f64 {
    f();
    f(); // warm-up
    let mut times: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples.max(1) {
        let start = Instant::now();
        f();
        times.push(start.elapsed().as_nanos() as f64);
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    times[times.len() / 2]
}

const MATMUL_SHAPES: [(usize, usize, usize); 2] = [(256, 720, 64), (128, 256, 64)];

fn bench_matmul_variant(
    rows: &mut Vec<KernelRow>,
    variant: &str,
    samples: usize,
    run: &dyn Fn(&str, &Matrix, &Matrix, &mut Matrix, &Pool),
) {
    let mut rng = StdRng::seed_from_u64(0xBE7C);
    for &(m, k, n) in &MATMUL_SHAPES {
        // Forward product `[m,k] x [k,n]`, the weight-gradient shape
        // `[m,k]^T x [m,n]` and the input-gradient shape `[m,n] x [k,n]^T`.
        let a = init::uniform(&mut rng, m, k, -1.0, 1.0);
        let b = init::uniform(&mut rng, k, n, -1.0, 1.0);
        let g = init::uniform(&mut rng, m, n, -1.0, 1.0);
        let cases: [(&str, &Matrix, &Matrix, (usize, usize)); 3] = [
            ("matmul", &a, &b, (m, n)),
            ("matmul_at_b", &a, &g, (k, n)),
            ("matmul_a_bt", &g, &b, (m, k)),
        ];
        for threads in [1usize, 2, 4] {
            let pool = Pool::new(threads);
            for (name, lhs, rhs, (or, oc)) in cases {
                let mut out = Matrix::zeros(or, oc);
                let ns = time_ns(samples, || run(name, lhs, rhs, &mut out, &pool));
                std::hint::black_box(out.as_slice());
                rows.push(KernelRow {
                    kernel: name.to_string(),
                    variant: variant.to_string(),
                    m,
                    k,
                    n,
                    threads,
                    ns_per_call: ns,
                    gflops: 2.0 * (m * k * n) as f64 / ns,
                });
            }
        }
    }
}

fn bench_matmuls(quick: bool) -> Vec<KernelRow> {
    let samples = if quick { 3 } else { 30 };
    let mut rows = Vec::new();
    // Per-backend section: each supported backend is forced active for its
    // rows so the pooled entry points dispatch to it, then the caller's
    // selection is restored. These rows are reported, never gated — the
    // committed trajectory stays scalar-comparable while the SIMD win is
    // documented side by side.
    let prev = kernels::active();
    let mut backends = vec![Backend::Scalar];
    if Backend::AvxFma.is_supported() {
        backends.push(Backend::AvxFma);
    }
    for b in backends {
        kernels::set_active(b);
        bench_matmul_variant(
            &mut rows,
            b.name(),
            samples,
            &|name, lhs, rhs, out, pool| match name {
                "matmul" => lhs.matmul_into_pooled(rhs, out, pool),
                "matmul_at_b" => {
                    out.fill_zero();
                    lhs.matmul_at_b_accumulate_pooled(rhs, out, 1.0, pool)
                }
                _ => lhs.matmul_a_bt_into_pooled(rhs, out, pool),
            },
        );
    }
    kernels::set_active(prev);
    bench_matmul_variant(
        &mut rows,
        "naive",
        samples,
        &|name, lhs, rhs, out, _pool| {
            use optinter_tensor::reference;
            match name {
                "matmul" => {
                    out.fill_zero();
                    reference::matmul_accumulate(lhs, rhs, out, 1.0)
                }
                "matmul_at_b" => {
                    out.fill_zero();
                    reference::matmul_at_b_accumulate(lhs, rhs, out, 1.0)
                }
                _ => reference::matmul_a_bt_into(lhs, rhs, out),
            }
        },
    );
    rows
}

fn bench_embedding(quick: bool) -> Vec<EmbeddingRow> {
    let samples = if quick { 3 } else { 30 };
    let (vocab, dim, batch, fields) = (50_000usize, 16usize, 256usize, 12usize);
    let mut rng = StdRng::seed_from_u64(0xE3B);
    let mut table = EmbeddingTable::new(&mut rng, vocab, dim);
    let ids: Vec<u32> = (0..batch * fields)
        .map(|i| (i * 37 % vocab) as u32)
        .collect();
    let grad = Matrix::from_fn(batch, fields * dim, |r, c| {
        ((r * 31 + c) as f32 * 0.01).sin()
    });
    let mut rows = Vec::new();
    let lookup_ns = time_ns(samples, || {
        std::hint::black_box(table.lookup_fields(&ids, fields));
    });
    rows.push(EmbeddingRow {
        op: "lookup_fields".to_string(),
        ns_per_call: lookup_ns,
        rows_per_sec: batch as f64 / (lookup_ns * 1e-9),
    });
    let adam = Adam::with_lr_eps(1e-3, 1e-8);
    let acc_ns = time_ns(samples, || {
        table.accumulate_grad_fields(&ids, fields, &grad);
        table.apply_adam(&adam, 1e-4);
    });
    rows.push(EmbeddingRow {
        op: "accumulate_and_sparse_adam".to_string(),
        ns_per_call: acc_ns,
        rows_per_sec: batch as f64 / (acc_ns * 1e-9),
    });
    rows
}

/// Resident training bytes per key: f32 weights plus the two Adam moment
/// planes the optimizer materializes, over the key space served.
fn bytes_per_row(params: usize, key_space: usize) -> f64 {
    (params * 3 * std::mem::size_of::<f32>()) as f64 / key_space.max(1) as f64
}

/// Memory-scaled embedding measurements, the `giant_vocab` perf axis:
///
/// - `lookup_grad@SCALE`: one Zipf-hot lookup + gradient-accumulate +
///   sparse-Adam touch per store scheme (dense vs the two compositional
///   tables) over the raw key space, with resident bytes/row alongside —
///   the memory/throughput tradeoff in one row.
/// - `adam_apply@SCALE`: the optimizer wall. A full training touch under
///   `DenseApply` (O(key_space) sweep per step) vs `LazyCatchUp`
///   (touched rows only, deferred zero-grad replay) on the same dense
///   table.
/// - `train_step@SCALE`: end-to-end OptInterNet epochs on the
///   `giant_vocab` profile, dense vs hashed stores, with validation AUC
///   recorded so the memory saving is tied to model quality.
///
/// Full runs use the profile's ≥10⁷ raw key space; `--quick` shrinks to
/// 2·10⁵ keys and relabels the ops so smoke keys never gate against a
/// committed full-scale baseline.
fn bench_embedding_scale(quick: bool) -> Vec<EmbedScaleRow> {
    let (key_space, scale) = if quick {
        (200_000usize, "@2e5")
    } else {
        (10_000_000usize, "@1e7")
    };
    let dim = 16usize;
    let fields = 6usize; // giant_vocab field count
    let batch = 1024usize;
    let samples = if quick { 3 } else { 10 };

    // Zipf-hot ids at the giant_vocab exponent: the head dominates, the
    // tail keeps the touched-row set honest.
    let zipf = optinter_data::zipf::Zipf::new(key_space as u32, 1.25);
    let mut rng = StdRng::seed_from_u64(0x61A7);
    let ids: Vec<u32> = (0..batch * fields).map(|_| zipf.sample(&mut rng)).collect();
    let grad = Matrix::from_fn(batch, fields * dim, |r, c| {
        ((r * 29 + c) as f32 * 0.01).cos()
    });
    let pool = Pool::serial();
    let mut rows = Vec::new();

    // Store-scheme comparison at matched sub-table budgets (~2·sqrt(V)
    // rows, the quotient-remainder optimum).
    let bucket = (key_space as f64).sqrt().ceil() as u32;
    for (variant, kind) in [
        ("dense", StoreKind::Dense),
        ("hashed_qr", StoreKind::HashedQr { bucket }),
        ("hashed_double", StoreKind::HashedDouble { rows: bucket }),
    ] {
        let mut store_rng = StdRng::seed_from_u64(0x5E);
        let mut store = EmbedStore::new(kind, &mut store_rng, key_space, dim, 0xD1CE);
        let mut adam = Adam::with_lr_eps(1e-3, 1e-8);
        let mut out = Matrix::zeros(0, 0);
        let ns = time_ns(samples, || {
            adam.begin_step();
            store.lookup_fields_pooled_into(&ids, fields, &pool, &mut out);
            store.accumulate_grad_fields_pooled(&ids, fields, &grad, &pool);
            store.apply_adam(&adam, 1e-4);
        });
        std::hint::black_box(out.as_slice());
        rows.push(EmbedScaleRow {
            op: format!("lookup_grad{scale}"),
            variant: variant.to_string(),
            bytes_per_row: bytes_per_row(store.num_params(), store.key_space()),
            ns_per_call: ns,
            rows_per_sec: batch as f64 / (ns * 1e-9),
            auc: 0.0,
        });
    }

    // The optimizer wall: identical touch sequence, dense full-sweep
    // apply vs the lazy touched-row path, on the same dense table.
    for (variant, mode) in [
        ("dense_apply", EmbedOptimizerMode::DenseApply),
        ("lazy", EmbedOptimizerMode::LazyCatchUp),
    ] {
        // The dense sweep costs seconds per step at 10^7 rows; a median
        // of 3 bounds the section's wall clock without losing the
        // orders-of-magnitude signal.
        let apply_samples = if quick { 2 } else { 3 };
        let mut store_rng = StdRng::seed_from_u64(0x5E);
        let mut table = EmbeddingTable::new(&mut store_rng, key_space, dim);
        table.set_optimizer_mode(mode);
        let mut adam = Adam::with_lr_eps(1e-3, 1e-8);
        let mut out = Matrix::zeros(0, 0);
        let ns = time_ns(apply_samples, || {
            adam.begin_step();
            table.lookup_fields_into(&ids, fields, &mut out);
            table.accumulate_grad_fields(&ids, fields, &grad);
            table.apply_adam(&adam, 1e-4);
        });
        std::hint::black_box(out.as_slice());
        rows.push(EmbedScaleRow {
            op: format!("adam_apply{scale}"),
            variant: variant.to_string(),
            bytes_per_row: bytes_per_row(table.num_params(), table.vocab()),
            ns_per_call: ns,
            rows_per_sec: batch as f64 / (ns * 1e-9),
            auc: 0.0,
        });
    }

    // End-to-end: dense vs hashed stores on the giant_vocab profile at
    // equal AUC. The hashed bucket targets ~6x fewer resident rows over
    // the *materialized* vocabularies (a large remainder table keeps the
    // Zipf-hot head near-private, so AUC tracks dense).
    let n_rows = if quick { 6_000 } else { 60_000 };
    let epochs = if quick { 1u64 } else { 2 };
    let bundle = Profile::GiantVocab.bundle_with_rows(n_rows, 17);
    let dims = DataDims::of(&bundle.data);
    let train = bundle.split.train.clone();
    let orig_bucket = (dims.orig_vocab / 6).max(1);
    // The cross store only holds rows for memorized pairs (the M/F/N
    // cycle memorizes every third pair), so size its bucket from that
    // compact key space, not the full cross vocabulary.
    let compact_cross: u32 = (0..dims.num_pairs)
        .filter(|&p| Method::from_index(p % 3) == Method::Memorize)
        .map(|p| dims.pair_vocab_sizes[p])
        .sum();
    let cross_bucket = (compact_cross / 6).max(1);
    for (variant, orig_kind, cross_kind) in [
        ("dense", StoreKind::Dense, StoreKind::Dense),
        (
            "hashed_qr",
            StoreKind::HashedQr {
                bucket: orig_bucket,
            },
            StoreKind::HashedQr {
                bucket: cross_bucket,
            },
        ),
    ] {
        let cfg = OptInterConfig {
            seed: 7,
            num_threads: 1,
            batch_size: 256,
            orig_dim: 16,
            cross_dim: 8,
            ..OptInterConfig::test_small()
        }
        .with_stores(orig_kind, cross_kind);
        let arch = Architecture::new(
            (0..dims.num_pairs)
                .map(|p| Method::from_index(p % 3))
                .collect(),
        );
        let mut net = OptInterNet::new(cfg, dims.clone(), arch);
        let t0 = Instant::now();
        for epoch in 0..epochs {
            for b in BatchIter::new(&bundle.data, train.clone(), 256, Some(epoch)) {
                std::hint::black_box(net.train_batch(&b));
            }
        }
        let span = t0.elapsed().as_secs_f64().max(1e-9);
        let mut probs = Vec::new();
        let mut labels = Vec::new();
        for b in BatchIter::new(&bundle.data, bundle.split.val.clone(), 512, None) {
            probs.extend(net.predict(&b));
            labels.extend_from_slice(&b.labels);
        }
        let auc = optinter_metrics::auc(&probs, &labels);
        let (orig, cross) = net.embedding_stores();
        rows.push(EmbedScaleRow {
            op: format!("train_step{scale}"),
            variant: variant.to_string(),
            bytes_per_row: bytes_per_row(
                orig.num_params() + cross.num_params(),
                orig.key_space() + cross.key_space(),
            ),
            ns_per_call: span * 1e9 / epochs as f64,
            rows_per_sec: (train.len() as u64 * epochs) as f64 / span,
            auc,
        });
    }
    rows
}

fn train_batch_256(bundle: &optinter_data::DatasetBundle) -> Option<Batch> {
    BatchIter::new(&bundle.data, 0..256, 256, None).next()
}

fn bench_train_steps(quick: bool) -> Vec<TrainRow> {
    // Quick mode still takes a real median here: these rows feed the
    // `--check-against` regression gate, and a median of 3 sub-millisecond
    // steps is noisy enough to trip a 10% tolerance on an idle machine.
    // 15 samples cost single-digit milliseconds per config.
    let steps = if quick { 15 } else { 25 };
    let bundle = Profile::Tiny.bundle_with_rows(2_000, 9);
    let dims = DataDims::of(&bundle.data);
    let Some(batch) = train_batch_256(&bundle) else {
        eprintln!("perf: could not build a 256-row batch");
        return Vec::new();
    };
    let mut rows = Vec::new();
    for threads in [1usize, 2, 4] {
        let cfg = OptInterConfig {
            seed: 7,
            num_threads: threads,
            batch_size: 256,
            ..OptInterConfig::test_small()
        };
        let mut super_net = Supernet::new(cfg.clone(), dims.clone());
        let mut last_loss = 0.0f32;
        let ns = time_ns(steps, || {
            last_loss = super_net.train_batch(&batch, 0.7);
        });
        rows.push(TrainRow {
            model: "supernet".to_string(),
            threads,
            ns_per_step: ns,
            rows_per_sec: 256.0 / (ns * 1e-9),
            last_loss,
        });
        let arch = Architecture::new(
            (0..dims.num_pairs)
                .map(|p| Method::from_index(p % 3))
                .collect(),
        );
        let mut net = OptInterNet::new(cfg, dims.clone(), arch);
        let ns = time_ns(steps, || {
            last_loss = net.train_batch(&batch);
        });
        rows.push(TrainRow {
            model: "optinternet".to_string(),
            threads,
            ns_per_step: ns,
            rows_per_sec: 256.0 / (ns * 1e-9),
            last_loss,
        });
    }
    rows
}

/// The pre-open-addressing cross-vocabulary build (per-pair SipHash
/// `HashMap` counting, sorted id assignment into a second `HashMap`), kept
/// here as the before-side of the `cross_vocab_build` and `encode_rows`
/// comparisons. Returns the per-pair id maps and the total vocabulary size
/// (the latter feeds a divergence check against the production path).
#[allow(clippy::type_complexity)]
fn reference_cross_vocab(
    schema: &Schema,
    rows: &[u32],
    min_count: u32,
) -> (Vec<std::collections::HashMap<u64, u32>>, u32) {
    use std::collections::HashMap;
    let indexer = schema.pairs();
    let m = schema.num_fields();
    let n = rows.len() / m;
    let mut maps = Vec::with_capacity(indexer.num_pairs());
    let mut total = 0u32;
    for (i, j) in indexer.iter() {
        let mut counts: HashMap<u64, u32> = HashMap::new();
        for r in 0..n {
            *counts
                .entry(raw_cross(rows[r * m + i], rows[r * m + j]))
                .or_insert(0) += 1;
        }
        let mut kept: Vec<u64> = counts
            .iter()
            .filter(|&(_, &c)| c >= min_count)
            .map(|(&v, _)| v)
            .collect();
        kept.sort_unstable();
        let ids: HashMap<u64, u32> = kept
            .iter()
            .enumerate()
            .map(|(idx, &v)| (v, idx as u32 + 1))
            .collect();
        total += kept.len() as u32 + 1; // +1 for the OOV bucket
        maps.push(ids);
    }
    (maps, total)
}

/// The pre-open-addressing row encoder: per-pair global offset plus a
/// SipHash `HashMap` lookup per cross value.
fn reference_encode_rows(
    schema: &Schema,
    maps: &[std::collections::HashMap<u64, u32>],
    rows: &[u32],
) -> Vec<u32> {
    let indexer = schema.pairs();
    let m = schema.num_fields();
    let np = indexer.num_pairs();
    let n = rows.len() / m;
    let mut offsets = Vec::with_capacity(np);
    let mut offset = 0u32;
    for ids in maps {
        offsets.push(offset);
        offset += ids.len() as u32 + 1;
    }
    let mut out = vec![0u32; n * np];
    for r in 0..n {
        let row = &rows[r * m..(r + 1) * m];
        for (p, (i, j)) in indexer.iter().enumerate() {
            let raw = raw_cross(row[i], row[j]);
            out[r * np + p] = offsets[p] + maps[p].get(&raw).copied().unwrap_or(0);
        }
    }
    out
}

/// Input-pipeline measurements on the AvazuLike profile. The epoch ops use
/// an intentionally small network (embedding dims 4/2, one hidden layer of
/// 16) so batch assembly is a visible fraction of the step — the regime
/// the prefetcher targets.
fn bench_input(quick: bool, prefetch: bool) -> Vec<InputRow> {
    let samples = if quick { 2 } else { 12 };
    let n_raw = if quick { 4_000 } else { 40_000 };
    let min_count = Profile::AvazuLike.min_count();
    let raw = SyntheticGenerator::new(Profile::AvazuLike.spec()).generate(n_raw, 11);
    let mut rows = Vec::new();

    // Cross-vocabulary build: historical HashMap path vs the open-addressing
    // table, serial and pair-sharded.
    let (ref_maps, expected_total) = reference_cross_vocab(&raw.schema, &raw.rows, min_count);
    let built_total = CrossVocab::build(&raw.schema, &raw.rows, min_count).total();
    assert_eq!(
        built_total, expected_total,
        "open-addressing cross vocabulary diverges from the HashMap reference"
    );
    let ns = time_ns(samples, || {
        std::hint::black_box(reference_cross_vocab(&raw.schema, &raw.rows, min_count).1);
    });
    rows.push(InputRow {
        op: "cross_vocab_build".to_string(),
        variant: "hashmap_reference".to_string(),
        threads: 1,
        ns_per_call: ns,
        rows_per_sec: n_raw as f64 / (ns * 1e-9),
    });
    for threads in [1usize, 2, 4] {
        let pool = Pool::new(threads);
        let ns = time_ns(samples, || {
            std::hint::black_box(
                CrossVocab::build_with_pool(&raw.schema, &raw.rows, min_count, &pool).total(),
            );
        });
        rows.push(InputRow {
            op: "cross_vocab_build".to_string(),
            variant: "open_addressing".to_string(),
            threads,
            ns_per_call: ns,
            rows_per_sec: n_raw as f64 / (ns * 1e-9),
        });
    }

    // Row encoding through the built vocabulary: historical HashMap lookup
    // path, then the production encoder serial and row-sharded.
    let vocab = CrossVocab::build(&raw.schema, &raw.rows, min_count);
    assert_eq!(
        vocab.encode_rows(&raw.schema, &raw.rows),
        reference_encode_rows(&raw.schema, &ref_maps, &raw.rows),
        "open-addressing encode diverges from the HashMap reference"
    );
    let ns = time_ns(samples, || {
        std::hint::black_box(reference_encode_rows(&raw.schema, &ref_maps, &raw.rows).len());
    });
    rows.push(InputRow {
        op: "encode_rows".to_string(),
        variant: "hashmap_reference".to_string(),
        threads: 1,
        ns_per_call: ns,
        rows_per_sec: n_raw as f64 / (ns * 1e-9),
    });
    for threads in [1usize, 2, 4] {
        let pool = Pool::new(threads);
        let ns = time_ns(samples, || {
            std::hint::black_box(
                vocab
                    .encode_rows_with_pool(&raw.schema, &raw.rows, &pool)
                    .len(),
            );
        });
        rows.push(InputRow {
            op: "encode_rows".to_string(),
            variant: if threads == 1 { "serial" } else { "pooled" }.to_string(),
            threads,
            ns_per_call: ns,
            rows_per_sec: n_raw as f64 / (ns * 1e-9),
        });
    }

    // Batch assembly over the encoded dataset: the allocating iterator vs
    // the recycled-buffer stream (both on the caller thread).
    let n_encoded = if quick { 2_000 } else { 20_000 };
    let bundle = Profile::AvazuLike.bundle_with_rows(n_encoded, 11);
    let train = bundle.split.train.clone();
    let assembly_samples = if quick { 2 } else { 20 };
    let ns = time_ns(assembly_samples, || {
        for batch in BatchIter::new(&bundle.data, train.clone(), 256, Some(42)) {
            std::hint::black_box(batch.len());
        }
    });
    rows.push(InputRow {
        op: "batch_assembly".to_string(),
        variant: "alloc_per_batch".to_string(),
        threads: 1,
        ns_per_call: ns,
        rows_per_sec: train.len() as f64 / (ns * 1e-9),
    });
    let ns = time_ns(assembly_samples, || {
        BatchStream::new(&bundle.data, train.clone(), 256, Some(42))
            .prefetch(false)
            .for_each(|batch| {
                std::hint::black_box(batch.len());
            });
    });
    rows.push(InputRow {
        op: "batch_assembly".to_string(),
        variant: "recycled".to_string(),
        threads: 1,
        ns_per_call: ns,
        rows_per_sec: train.len() as f64 / (ns * 1e-9),
    });

    // Full training epochs: legacy allocating iterator vs the stream. The
    // stream variant honours `--no-prefetch` so the overlap itself can be
    // A/B-ed; the row is relabelled so the JSON stays unambiguous.
    let epoch_samples = if quick { 1 } else { 5 };
    let stream_variant = if prefetch {
        "prefetch"
    } else {
        "stream_serial"
    };
    let dims = DataDims::of(&bundle.data);
    for threads in [1usize, 2, 4] {
        let cfg = OptInterConfig {
            seed: 7,
            num_threads: threads,
            batch_size: 256,
            orig_dim: 4,
            cross_dim: 2,
            hidden: vec![16],
            ..OptInterConfig::test_small()
        };
        let arch = Architecture::new(
            (0..dims.num_pairs)
                .map(|p| Method::from_index(p % 3))
                .collect(),
        );
        let mut net = OptInterNet::new(cfg.clone(), dims.clone(), arch);
        let ns = time_ns(epoch_samples, || {
            for batch in BatchIter::new(&bundle.data, train.clone(), cfg.batch_size, Some(42)) {
                std::hint::black_box(net.train_batch(&batch));
            }
        });
        rows.push(InputRow {
            op: "epoch_optinternet".to_string(),
            variant: "batchiter".to_string(),
            threads,
            ns_per_call: ns,
            rows_per_sec: train.len() as f64 / (ns * 1e-9),
        });
        let ns = time_ns(epoch_samples, || {
            BatchStream::new(&bundle.data, train.clone(), cfg.batch_size, Some(42))
                .prefetch(prefetch)
                .for_each(|batch| {
                    std::hint::black_box(net.train_batch(batch));
                });
        });
        rows.push(InputRow {
            op: "epoch_optinternet".to_string(),
            variant: stream_variant.to_string(),
            threads,
            ns_per_call: ns,
            rows_per_sec: train.len() as f64 / (ns * 1e-9),
        });
        let mut super_net = Supernet::new(cfg.clone(), dims.clone());
        let ns = time_ns(epoch_samples, || {
            for batch in BatchIter::new(&bundle.data, train.clone(), cfg.batch_size, Some(42)) {
                std::hint::black_box(super_net.train_batch(&batch, 0.7));
            }
        });
        rows.push(InputRow {
            op: "epoch_supernet".to_string(),
            variant: "batchiter".to_string(),
            threads,
            ns_per_call: ns,
            rows_per_sec: train.len() as f64 / (ns * 1e-9),
        });
        let ns = time_ns(epoch_samples, || {
            BatchStream::new(&bundle.data, train.clone(), cfg.batch_size, Some(42))
                .prefetch(prefetch)
                .for_each(|batch| {
                    std::hint::black_box(super_net.train_batch(batch, 0.7));
                });
        });
        rows.push(InputRow {
            op: "epoch_supernet".to_string(),
            variant: stream_variant.to_string(),
            threads,
            ns_per_call: ns,
            rows_per_sec: train.len() as f64 / (ns * 1e-9),
        });
    }
    rows
}

/// Serving-path measurements on a frozen Tiny-profile model: per-request
/// latency of the single-request scorer (one-row batches, Zipf-hot rows)
/// and of the micro-batching front door under a saturating open-loop
/// Zipf load, at 1, 2 and 4 scorer threads.
fn bench_serve(quick: bool) -> Vec<ServeRow> {
    let single_requests = if quick { 500 } else { 20_000 };
    let load_requests = if quick { 2_000 } else { 50_000 };
    let bundle = Profile::Tiny.bundle_with_rows(2_000, 9);
    let dims = DataDims::of(&bundle.data);
    let arch = Architecture::new(
        (0..dims.num_pairs)
            .map(|p| Method::from_index(p % 3))
            .collect(),
    );
    let cfg = OptInterConfig {
        seed: 7,
        num_threads: 1,
        batch_size: 256,
        ..OptInterConfig::test_small()
    };
    let mut net = OptInterNet::new(cfg, dims, arch);
    let frozen = freeze(&mut net, &bundle.data, Quant::F32);
    let zipf = optinter_data::zipf::Zipf::new(bundle.data.len() as u32, 1.05);

    let mut rows = Vec::new();
    for threads in [1usize, 2, 4] {
        let mut scorer = match FrozenScorer::new(&frozen, threads) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("perf: frozen scorer failed to load: {e}");
                return rows;
            }
        };

        // Single-request path: per-call wall clock around `score_into`.
        let mut rng = StdRng::seed_from_u64(0x5E21);
        let mut batch = Batch::empty();
        let mut probs = Vec::new();
        let mut score_row = |scorer: &mut FrozenScorer, batch: &mut Batch, r: usize| {
            batch.begin(bundle.data.num_fields, bundle.data.num_pairs);
            batch.push_row(bundle.data.row_fields(r), bundle.data.row_cross(r), 0.0);
            // Dataset rows are always in-vocab; a rejection here would be
            // a harness bug and shows up as empty probabilities.
            let _ = scorer.score_into(batch, &mut probs);
        };
        for _ in 0..64 {
            let r = zipf.sample(&mut rng) as usize;
            score_row(&mut scorer, &mut batch, r);
        }
        let mut lat: Vec<f64> = Vec::with_capacity(single_requests);
        let t0 = Instant::now();
        for _ in 0..single_requests {
            let r = zipf.sample(&mut rng) as usize;
            let start = Instant::now();
            score_row(&mut scorer, &mut batch, r);
            lat.push(start.elapsed().as_nanos() as f64);
        }
        let span = t0.elapsed().as_secs_f64().max(1e-9);
        std::hint::black_box(&probs);
        lat.sort_by(f64::total_cmp);
        rows.push(ServeRow {
            op: "single_request".to_string(),
            threads,
            p50_ns: percentile_sorted(&lat, 0.50),
            p99_ns: percentile_sorted(&lat, 0.99),
            p999_ns: percentile_sorted(&lat, 0.999),
            rows_per_sec: single_requests as f64 / span,
        });

        // Micro-batching front door: saturating open-loop Zipf load.
        let clock = MonotonicClock::new();
        let opts = MicroBatchOptions {
            queue_slots: 64,
            max_batch: 32,
            deadline_ns: 200_000,
        };
        let spec = LoadSpec {
            requests: load_requests,
            zipf_s: 1.05,
            seed: 0x10AD,
            interarrival_ns: 0,
        };
        let report = run_zipf_load(&mut scorer, &bundle.data, &clock, &opts, &spec);
        let s = report.summary();
        rows.push(ServeRow {
            op: "micro_batch".to_string(),
            threads,
            p50_ns: s.p50_ns,
            p99_ns: s.p99_ns,
            p999_ns: s.p999_ns,
            rows_per_sec: s.rows_per_sec,
        });
    }
    rows
}

/// Appends `entry` to the JSON trajectory array at `path`, creating the
/// file (and `results/`) when missing. The existing file is spliced
/// textually — the serde shim has no parser — so entries written by older
/// kernel versions are preserved byte-for-byte.
fn append_entry(path: &str, entry: &PerfEntry) {
    let rendered = match serde_json::to_string_pretty(entry) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("perf: could not serialize entry: {e}");
            return;
        }
    };
    if let Some(dir) = std::path::Path::new(path).parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("perf: could not create {}: {e}", dir.display());
            return;
        }
    }
    let merged = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let trimmed = existing.trim_end();
            match trimmed.strip_suffix(']') {
                Some(head) if head.trim_end().ends_with('[') => {
                    // Existing but empty array.
                    format!("[\n{rendered}\n]\n")
                }
                Some(head) => format!("{}\n,\n{rendered}\n]\n", head.trim_end()),
                None => {
                    eprintln!("perf: {path} is not a JSON array; rewriting");
                    format!("[\n{rendered}\n]\n")
                }
            }
        }
        Err(_) => format!("[\n{rendered}\n]\n"),
    };
    match std::fs::write(path, merged) {
        Ok(()) => println!("perf: appended entry `{}` to {path}", entry.label),
        Err(e) => eprintln!("perf: could not write {path}: {e}"),
    }
}

/// A `(model, threads, rows_per_sec)` train-step baseline row recovered
/// from a committed trajectory file.
type BaselineRow = (String, usize, f64);

/// Extracts the train-step rows of the *last* entry in a committed
/// trajectory JSON (the output format of [`append_entry`]). Hand-rolled:
/// the serde_json shim only serializes, and the three fields we need sit
/// in flat objects. Returns an error when the file or the expected keys
/// are missing — a silent pass on malformed input would defeat the gate.
pub fn last_train_step_rows(text: &str) -> Result<Vec<BaselineRow>, String> {
    let key = "\"train_step\"";
    let at = text
        .rfind(key)
        .ok_or_else(|| "no \"train_step\" key in trajectory file".to_string())?;
    let rest = &text[at + key.len()..];
    let open = rest
        .find('[')
        .ok_or_else(|| "\"train_step\" is not an array".to_string())?;
    let mut depth = 0usize;
    let mut end = None;
    for (i, c) in rest[open..].char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    end = Some(open + i);
                    break;
                }
            }
            _ => {}
        }
    }
    let end = end.ok_or_else(|| "unterminated \"train_step\" array".to_string())?;
    let body = &rest[open + 1..end];
    let mut rows = Vec::new();
    // Objects in the array are flat (no nested braces), so splitting on
    // '}' yields one object body per chunk.
    for obj in body.split('}') {
        let Some(brace) = obj.find('{') else { continue };
        let obj = &obj[brace + 1..];
        let model = extract_json_string(obj, "model")?;
        let threads = extract_json_number(obj, "threads")? as usize;
        let rows_per_sec = extract_json_number(obj, "rows_per_sec")?;
        rows.push((model, threads, rows_per_sec));
    }
    if rows.is_empty() {
        return Err("last \"train_step\" array holds no rows".to_string());
    }
    Ok(rows)
}

fn extract_json_string(obj: &str, key: &str) -> Result<String, String> {
    let pat = format!("\"{key}\"");
    let at = obj
        .find(&pat)
        .ok_or_else(|| format!("missing key \"{key}\""))?;
    let rest = &obj[at + pat.len()..];
    let colon = rest
        .find(':')
        .ok_or_else(|| format!("malformed \"{key}\""))?;
    let rest = rest[colon + 1..].trim_start();
    let rest = rest
        .strip_prefix('"')
        .ok_or_else(|| format!("\"{key}\" is not a string"))?;
    let close = rest
        .find('"')
        .ok_or_else(|| format!("unterminated \"{key}\""))?;
    Ok(rest[..close].to_string())
}

fn extract_json_number(obj: &str, key: &str) -> Result<f64, String> {
    let pat = format!("\"{key}\"");
    let at = obj
        .find(&pat)
        .ok_or_else(|| format!("missing key \"{key}\""))?;
    let rest = &obj[at + pat.len()..];
    let colon = rest
        .find(':')
        .ok_or_else(|| format!("malformed \"{key}\""))?;
    let rest = rest[colon + 1..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end]
        .parse::<f64>()
        .map_err(|e| format!("\"{key}\" is not a number: {e}"))
}

/// Extracts the serve rows `(op, threads, rows_per_sec)` of the most
/// recent entry carrying a `"serve"` section. Entries written before the
/// serving path existed have none — that is not an error; an empty
/// baseline simply disables the serve gate for the transition run.
pub fn last_serve_rows(text: &str) -> Result<Vec<BaselineRow>, String> {
    let key = "\"serve\"";
    let Some(at) = text.rfind(key) else {
        return Ok(Vec::new());
    };
    let rest = &text[at + key.len()..];
    let open = rest
        .find('[')
        .ok_or_else(|| "\"serve\" is not an array".to_string())?;
    let mut depth = 0usize;
    let mut end = None;
    for (i, c) in rest[open..].char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    end = Some(open + i);
                    break;
                }
            }
            _ => {}
        }
    }
    let end = end.ok_or_else(|| "unterminated \"serve\" array".to_string())?;
    let body = &rest[open + 1..end];
    let mut rows = Vec::new();
    for obj in body.split('}') {
        let Some(brace) = obj.find('{') else { continue };
        let obj = &obj[brace + 1..];
        let op = extract_json_string(obj, "op")?;
        let threads = extract_json_number(obj, "threads")? as usize;
        let rows_per_sec = extract_json_number(obj, "rows_per_sec")?;
        rows.push((op, threads, rows_per_sec));
    }
    Ok(rows)
}

/// Extracts `(op/variant, 1, rows_per_sec)` keys from the most recent
/// entry carrying an `"embedding_scale"` section. Entries written before
/// the giant-vocab axis existed have none — an empty baseline disables
/// the gate for the transition run, exactly like the serve section.
pub fn last_embed_scale_rows(text: &str) -> Result<Vec<BaselineRow>, String> {
    let key = "\"embedding_scale\"";
    let Some(at) = text.rfind(key) else {
        return Ok(Vec::new());
    };
    let rest = &text[at + key.len()..];
    let open = rest
        .find('[')
        .ok_or_else(|| "\"embedding_scale\" is not an array".to_string())?;
    let mut depth = 0usize;
    let mut end = None;
    for (i, c) in rest[open..].char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    end = Some(open + i);
                    break;
                }
            }
            _ => {}
        }
    }
    let end = end.ok_or_else(|| "unterminated \"embedding_scale\" array".to_string())?;
    let body = &rest[open + 1..end];
    let mut rows = Vec::new();
    for obj in body.split('}') {
        let Some(brace) = obj.find('{') else { continue };
        let obj = &obj[brace + 1..];
        let op = extract_json_string(obj, "op")?;
        let variant = extract_json_string(obj, "variant")?;
        let rows_per_sec = extract_json_number(obj, "rows_per_sec")?;
        rows.push((format!("{op}/{variant}"), 1, rows_per_sec));
    }
    Ok(rows)
}

/// Embedding-scale ops whose throughput the gate ratchets, by prefix.
/// `train_step@` rows are reported but not gated: they are a single
/// epoch-scale sample whose variance on a shared runner dwarfs the
/// tolerance (the AUC column is the invariant that matters there).
/// The scale suffix keeps quick-mode keys (`@2e5`) from ever matching a
/// committed full-scale (`@1e7`) baseline — absent keys pass.
const GATED_EMBED_OPS: &[&str] = &["lookup_grad@", "adam_apply@"];

/// Compares measured embedding-scale rows against a committed baseline,
/// keyed by `op/variant` on `rows_per_sec`. Messages are prefixed
/// `embed` so retain-keys never collide with the other sections.
pub fn embed_scale_regressions(
    measured: &[EmbedScaleRow],
    baseline: &[BaselineRow],
    tolerance: f64,
) -> Vec<String> {
    let mut problems = Vec::new();
    for row in measured {
        if !GATED_EMBED_OPS.iter().any(|p| row.op.starts_with(p)) {
            continue;
        }
        let key = format!("{}/{}", row.op, row.variant);
        let Some((_, _, base_rps)) = baseline.iter().find(|(k, _, _)| *k == key) else {
            continue;
        };
        if *base_rps <= 0.0 {
            continue;
        }
        let ratio = row.rows_per_sec / base_rps;
        if ratio < 1.0 - tolerance {
            problems.push(format!(
                "embed {key}: {:.0} rows/s vs committed {:.0} ({:+.1}%), below the \
                 {:.0}% regression tolerance",
                row.rows_per_sec,
                base_rps,
                (ratio - 1.0) * 100.0,
                tolerance * 100.0,
            ));
        }
    }
    problems
}

/// Per-row gate tolerance: `tolerance` where the row's thread count fits
/// the machine, [`OVERSUBSCRIBED_TOLERANCE`] where it does not.
fn row_tolerance(tolerance: f64, threads: usize, cores: usize) -> f64 {
    if threads > cores {
        tolerance.max(OVERSUBSCRIBED_TOLERANCE)
    } else {
        tolerance
    }
}

/// Serve ops whose throughput the gate ratchets. `micro_batch` rows are
/// reported in the results file but never gated: the open-loop front
/// door always runs a submitter thread plus the batcher alongside the
/// scorer pool, so on a small CI runner its rows/sec measures the OS
/// scheduler, not the scoring kernels — 2x run-to-run swings were
/// observed on one core. `single_request` isolates the kernels and is
/// stable enough to ratchet.
const GATED_SERVE_OPS: &[&str] = &["single_request"];

/// Compares measured serve rows against a committed baseline, keyed by
/// `(op, threads)` on `rows_per_sec`. Only [`GATED_SERVE_OPS`] rows are
/// gated; pairs absent from the baseline pass; rows oversubscribing
/// `cores` get the wider tolerance. Messages are prefixed `serve` so
/// their retain-keys never collide with train-step model names.
pub fn serve_regressions(
    measured: &[ServeRow],
    baseline: &[BaselineRow],
    tolerance: f64,
    cores: usize,
) -> Vec<String> {
    let mut problems = Vec::new();
    for row in measured {
        if !GATED_SERVE_OPS.contains(&row.op.as_str()) {
            continue;
        }
        let Some((_, _, base_rps)) = baseline
            .iter()
            .find(|(op, t, _)| *op == row.op && *t == row.threads)
        else {
            continue;
        };
        if *base_rps <= 0.0 {
            continue;
        }
        let tolerance = row_tolerance(tolerance, row.threads, cores);
        let ratio = row.rows_per_sec / base_rps;
        if ratio < 1.0 - tolerance {
            problems.push(format!(
                "serve {} t{}: {:.0} rows/s vs committed {:.0} ({:+.1}%), below the \
                 {:.0}% regression tolerance",
                row.op,
                row.threads,
                row.rows_per_sec,
                base_rps,
                (ratio - 1.0) * 100.0,
                tolerance * 100.0,
            ));
        }
    }
    problems
}

/// Compares measured train-step rows against a committed baseline.
/// Returns one message per `(model, threads)` pair whose throughput
/// dropped more than the row's tolerance (`tolerance`, widened for rows
/// oversubscribing `cores`); pairs absent from the baseline pass.
pub fn train_step_regressions(
    measured: &[TrainRow],
    baseline: &[BaselineRow],
    tolerance: f64,
    cores: usize,
) -> Vec<String> {
    let mut problems = Vec::new();
    for row in measured {
        let Some((_, _, base_rps)) = baseline
            .iter()
            .find(|(m, t, _)| *m == row.model && *t == row.threads)
        else {
            continue;
        };
        if *base_rps <= 0.0 {
            continue;
        }
        let tolerance = row_tolerance(tolerance, row.threads, cores);
        let ratio = row.rows_per_sec / base_rps;
        if ratio < 1.0 - tolerance {
            problems.push(format!(
                "{} t{}: {:.0} rows/s vs committed {:.0} ({:+.1}%), below the {:.0}% \
                 regression tolerance",
                row.model,
                row.threads,
                row.rows_per_sec,
                base_rps,
                (ratio - 1.0) * 100.0,
                tolerance * 100.0,
            ));
        }
    }
    problems
}

/// Runs the fixed workload and appends a labelled entry to the trajectory.
/// With `check_against` set, returns `Err` when any train-step throughput
/// regressed beyond [`REGRESSION_TOLERANCE`] (the entry is still written
/// first, so the failing numbers are inspectable).
pub fn run(opts: &PerfOptions) -> Result<(), String> {
    if let Some(name) = &opts.backend {
        let b = Backend::parse(name)
            .ok_or_else(|| format!("unknown kernel backend `{name}` (scalar|avx2fma)"))?;
        if !b.is_supported() {
            return Err(format!(
                "kernel backend `{name}` is not supported on this host"
            ));
        }
        kernels::set_active(b);
    }
    let backend = kernels::active().name().to_string();
    println!(
        "perf: label={} quick={} out={} backend={backend}",
        opts.label, opts.quick, opts.out
    );
    let matmul = bench_matmuls(opts.quick);
    for row in &matmul {
        println!(
            "  {:>12} {:>7} {}x{}x{} t{}: {:>10.0} ns  {:>6.2} GFLOP/s",
            row.kernel, row.variant, row.m, row.k, row.n, row.threads, row.ns_per_call, row.gflops
        );
    }
    let embedding = bench_embedding(opts.quick);
    for row in &embedding {
        println!(
            "  {:>26}: {:>10.0} ns  {:>10.0} rows/s",
            row.op, row.ns_per_call, row.rows_per_sec
        );
    }
    let embedding_scale = bench_embedding_scale(opts.quick);
    for row in &embedding_scale {
        println!(
            "  {:>16} {:>12}: {:>7.1} B/row  {:>12.0} ns  {:>10.0} rows/s  auc {:.4}",
            row.op, row.variant, row.bytes_per_row, row.ns_per_call, row.rows_per_sec, row.auc
        );
    }
    let train_step = bench_train_steps(opts.quick);
    for row in &train_step {
        println!(
            "  {:>12} t{}: {:>12.0} ns/step  {:>8.0} rows/s  loss {:.6}",
            row.model, row.threads, row.ns_per_step, row.rows_per_sec, row.last_loss
        );
    }
    let input = bench_input(opts.quick, opts.prefetch);
    for row in &input {
        println!(
            "  {:>18} {:>17} t{}: {:>12.0} ns  {:>10.0} rows/s",
            row.op, row.variant, row.threads, row.ns_per_call, row.rows_per_sec
        );
    }
    let serve = bench_serve(opts.quick);
    for row in &serve {
        println!(
            "  {:>16} t{}: p50 {:>9.0} ns  p99 {:>10.0} ns  p999 {:>10.0} ns  {:>8.0} rows/s",
            row.op, row.threads, row.p50_ns, row.p99_ns, row.p999_ns, row.rows_per_sec
        );
    }
    let entry = PerfEntry {
        label: opts.label.clone(),
        quick: opts.quick,
        backend,
        matmul,
        embedding,
        embedding_scale,
        train_step,
        input,
        serve,
    };
    // Snapshot the baseline BEFORE appending: with the default `--out` the
    // trajectory and the baseline are the same file, and reading afterwards
    // would compare the new entry against itself.
    let baseline = match &opts.check_against {
        Some(baseline_path) => {
            let text = std::fs::read_to_string(baseline_path)
                .map_err(|e| format!("check-against: cannot read {baseline_path}: {e}"))?;
            let train = last_train_step_rows(&text)
                .map_err(|e| format!("check-against: {baseline_path}: {e}"))?;
            let serve = last_serve_rows(&text)
                .map_err(|e| format!("check-against: {baseline_path}: {e}"))?;
            let embed = last_embed_scale_rows(&text)
                .map_err(|e| format!("check-against: {baseline_path}: {e}"))?;
            Some((train, serve, embed))
        }
        None => None,
    };
    append_entry(&opts.out, &entry);
    if let (Some(baseline_path), Some((train_baseline, serve_baseline, embed_baseline))) =
        (&opts.check_against, baseline)
    {
        let cores = machine_cores();
        let mut problems = train_step_regressions(
            &entry.train_step,
            &train_baseline,
            REGRESSION_TOLERANCE,
            cores,
        );
        problems.extend(serve_regressions(
            &entry.serve,
            &serve_baseline,
            REGRESSION_TOLERANCE,
            cores,
        ));
        problems.extend(embed_scale_regressions(
            &entry.embedding_scale,
            &embed_baseline,
            REGRESSION_TOLERANCE,
        ));
        if !problems.is_empty() {
            // A single median can sink below the tolerance from external
            // noise alone (shared CI runners; oversubscribed t2/t4 rows on
            // small machines). Re-measure once and fail only the rows that
            // regress in BOTH measurements: one-off noise passes, a real
            // regression reproduces.
            println!("perf: throughput regression suspected; re-measuring to confirm");
            let retry = bench_train_steps(opts.quick);
            let mut confirmed =
                train_step_regressions(&retry, &train_baseline, REGRESSION_TOLERANCE, cores);
            let retry_serve = bench_serve(opts.quick);
            confirmed.extend(serve_regressions(
                &retry_serve,
                &serve_baseline,
                REGRESSION_TOLERANCE,
                cores,
            ));
            let retry_embed = bench_embedding_scale(opts.quick);
            confirmed.extend(embed_scale_regressions(
                &retry_embed,
                &embed_baseline,
                REGRESSION_TOLERANCE,
            ));
            let confirmed_rows: Vec<&str> = confirmed
                .iter()
                .filter_map(|p| p.split(':').next())
                .collect();
            problems.retain(|p| {
                p.split(':')
                    .next()
                    .is_some_and(|k| confirmed_rows.contains(&k))
            });
        }
        if problems.is_empty() {
            println!(
                "perf: train-step, serve and embedding-scale throughput within {:.0}% of \
                 {baseline_path}",
                REGRESSION_TOLERANCE * 100.0
            );
        } else {
            return Err(format!(
                "throughput regressed vs {baseline_path}:\n  {}",
                problems.join("\n  ")
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trajectory(rps_a: f64, rps_b: f64) -> String {
        // Two entries: the extractor must pick the LAST one.
        format!(
            r#"[
{{
  "label": "old",
  "train_step": [
    {{"model": "supernet", "threads": 1, "ns_per_step": 1.0, "rows_per_sec": 1.0, "last_loss": 0.1}}
  ]
}}
,
{{
  "label": "new",
  "train_step": [
    {{"model": "supernet", "threads": 1, "ns_per_step": 1.0, "rows_per_sec": {rps_a}, "last_loss": 0.1}},
    {{"model": "optinternet", "threads": 2, "ns_per_step": 1.0, "rows_per_sec": {rps_b}, "last_loss": 0.2}}
  ]
}}
]"#
        )
    }

    fn measured(model: &str, threads: usize, rows_per_sec: f64) -> TrainRow {
        TrainRow {
            model: model.to_string(),
            threads,
            ns_per_step: 0.0,
            rows_per_sec,
            last_loss: 0.0,
        }
    }

    #[test]
    fn extractor_reads_the_last_entry() {
        let rows = last_train_step_rows(&trajectory(1000.0, 2000.0)).expect("parse");
        assert_eq!(
            rows,
            vec![
                ("supernet".to_string(), 1, 1000.0),
                ("optinternet".to_string(), 2, 2000.0),
            ]
        );
    }

    #[test]
    fn extractor_rejects_malformed_input() {
        assert!(last_train_step_rows("{}").is_err());
        assert!(last_train_step_rows("{\"train_step\": 3}").is_err());
        assert!(last_train_step_rows("{\"train_step\": []}").is_err());
        assert!(last_train_step_rows("{\"train_step\": [{\"model\": \"x\"}]}").is_err());
    }

    fn serve_trajectory(rps: f64) -> String {
        format!(
            r#"[
{{
  "label": "new",
  "train_step": [
    {{"model": "supernet", "threads": 1, "ns_per_step": 1.0, "rows_per_sec": 1.0, "last_loss": 0.1}}
  ],
  "serve": [
    {{"op": "single_request", "threads": 1, "p50_ns": 10.0, "p99_ns": 20.0, "p999_ns": 30.0, "rows_per_sec": {rps}}},
    {{"op": "single_request", "threads": 4, "p50_ns": 10.0, "p99_ns": 20.0, "p999_ns": 30.0, "rows_per_sec": 8000.0}},
    {{"op": "micro_batch", "threads": 4, "p50_ns": 10.0, "p99_ns": 20.0, "p999_ns": 30.0, "rows_per_sec": 9000.0}}
  ]
}}
]"#
        )
    }

    fn measured_serve(op: &str, threads: usize, rows_per_sec: f64) -> ServeRow {
        ServeRow {
            op: op.to_string(),
            threads,
            p50_ns: 0.0,
            p99_ns: 0.0,
            p999_ns: 0.0,
            rows_per_sec,
        }
    }

    #[test]
    fn serve_extractor_tolerates_pre_serving_trajectories() {
        // Entries written before the serving path have no "serve" section:
        // that must be an empty baseline, not an error.
        assert_eq!(
            last_serve_rows(&trajectory(1.0, 2.0)).expect("tolerated"),
            Vec::new()
        );
        let rows = last_serve_rows(&serve_trajectory(5000.0)).expect("parse");
        assert_eq!(
            rows,
            vec![
                ("single_request".to_string(), 1, 5000.0),
                ("single_request".to_string(), 4, 8000.0),
                ("micro_batch".to_string(), 4, 9000.0),
            ]
        );
        // A present-but-broken section still fails loudly.
        assert!(last_serve_rows("{\"serve\": [{\"op\": \"x\"}]}").is_err());
    }

    #[test]
    fn serve_gate_fires_only_beyond_tolerance() {
        let baseline = last_serve_rows(&serve_trajectory(5000.0)).expect("parse");
        let ok = [
            measured_serve("single_request", 1, 4800.0),
            measured_serve("single_request", 4, 20000.0),
        ];
        assert!(serve_regressions(&ok, &baseline, 0.10, usize::MAX).is_empty());
        let bad = [measured_serve("single_request", 1, 4000.0)];
        let problems = serve_regressions(&bad, &baseline, 0.10, usize::MAX);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].starts_with("serve single_request t1"),
            "{problems:?}"
        );
        // Unknown (op, threads) pairs are skipped, not failed.
        let unknown = [measured_serve("single_request", 9, 1.0)];
        assert!(serve_regressions(&unknown, &baseline, 0.10, usize::MAX).is_empty());
        // micro_batch rows are never gated, however bad: the open-loop
        // front door's throughput is scheduler noise on a small machine.
        let micro = [measured_serve("micro_batch", 4, 1.0)];
        assert!(serve_regressions(&micro, &baseline, 0.10, usize::MAX).is_empty());
    }

    #[test]
    fn oversubscribed_rows_get_the_wider_tolerance() {
        // Baseline: single_request t1 = 5000 and t4 = 8000.
        let baseline = last_serve_rows(&serve_trajectory(5000.0)).expect("parse");
        // A 20% drop on a t4 row: fails on a 4-core machine, passes on a
        // 1-core machine where t4 medians are scheduling noise.
        let dropped = [measured_serve("single_request", 4, 6400.0)];
        assert_eq!(serve_regressions(&dropped, &baseline, 0.10, 4).len(), 1);
        assert!(serve_regressions(&dropped, &baseline, 0.10, 1).is_empty());
        // Even on 1 core, a drop beyond OVERSUBSCRIBED_TOLERANCE fails.
        let collapsed = [measured_serve("single_request", 4, 4000.0)];
        assert_eq!(serve_regressions(&collapsed, &baseline, 0.10, 1).len(), 1);
        // Fitting rows keep the strict tolerance regardless of cores.
        let t1_dropped = [measured_serve("single_request", 1, 4000.0)];
        assert_eq!(serve_regressions(&t1_dropped, &baseline, 0.10, 1).len(), 1);
        // Train rows widen the same way.
        let train_baseline = last_train_step_rows(&trajectory(1000.0, 2000.0)).expect("parse");
        let t2_dropped = [measured("optinternet", 2, 1700.0)];
        assert_eq!(
            train_step_regressions(&t2_dropped, &train_baseline, 0.10, 2).len(),
            1
        );
        assert!(train_step_regressions(&t2_dropped, &train_baseline, 0.10, 1).is_empty());
    }

    fn embed_trajectory(rps: f64) -> String {
        format!(
            r#"[
{{
  "label": "new",
  "embedding_scale": [
    {{"op": "lookup_grad@1e7", "variant": "dense", "bytes_per_row": 192.0, "ns_per_call": 1.0, "rows_per_sec": {rps}, "auc": 0.0}},
    {{"op": "adam_apply@1e7", "variant": "lazy", "bytes_per_row": 192.0, "ns_per_call": 1.0, "rows_per_sec": 9000.0, "auc": 0.0}},
    {{"op": "train_step@1e7", "variant": "hashed_qr", "bytes_per_row": 30.0, "ns_per_call": 1.0, "rows_per_sec": 4000.0, "auc": 0.79}}
  ]
}}
]"#
        )
    }

    fn measured_embed(op: &str, variant: &str, rows_per_sec: f64) -> EmbedScaleRow {
        EmbedScaleRow {
            op: op.to_string(),
            variant: variant.to_string(),
            bytes_per_row: 0.0,
            ns_per_call: 0.0,
            rows_per_sec,
            auc: 0.0,
        }
    }

    #[test]
    fn embed_extractor_tolerates_pre_scale_trajectories() {
        // Entries written before the giant-vocab axis have no
        // "embedding_scale" section: empty baseline, not an error.
        assert_eq!(
            last_embed_scale_rows(&trajectory(1.0, 2.0)).expect("tolerated"),
            Vec::new()
        );
        let rows = last_embed_scale_rows(&embed_trajectory(5000.0)).expect("parse");
        assert_eq!(
            rows,
            vec![
                ("lookup_grad@1e7/dense".to_string(), 1, 5000.0),
                ("adam_apply@1e7/lazy".to_string(), 1, 9000.0),
                ("train_step@1e7/hashed_qr".to_string(), 1, 4000.0),
            ]
        );
        assert!(last_embed_scale_rows("{\"embedding_scale\": [{\"op\": \"x\"}]}").is_err());
    }

    #[test]
    fn embed_gate_fires_only_on_gated_ops_beyond_tolerance() {
        let baseline = last_embed_scale_rows(&embed_trajectory(5000.0)).expect("parse");
        let ok = [measured_embed("lookup_grad@1e7", "dense", 4800.0)];
        assert!(embed_scale_regressions(&ok, &baseline, 0.10).is_empty());
        let bad = [measured_embed("lookup_grad@1e7", "dense", 4000.0)];
        let problems = embed_scale_regressions(&bad, &baseline, 0.10);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].starts_with("embed lookup_grad@1e7/dense"),
            "{problems:?}"
        );
        // Quick-mode keys carry a different scale suffix and never match
        // a committed full-scale baseline.
        let quick = [measured_embed("lookup_grad@2e5", "dense", 1.0)];
        assert!(embed_scale_regressions(&quick, &baseline, 0.10).is_empty());
        // train_step rows are reported, never gated.
        let train = [measured_embed("train_step@1e7", "hashed_qr", 1.0)];
        assert!(embed_scale_regressions(&train, &baseline, 0.10).is_empty());
    }

    #[test]
    fn regression_gate_fires_only_beyond_tolerance() {
        let baseline = last_train_step_rows(&trajectory(1000.0, 2000.0)).expect("parse");
        // Within tolerance (and even faster) passes.
        let ok = [
            measured("supernet", 1, 950.0),
            measured("optinternet", 2, 2500.0),
        ];
        assert!(train_step_regressions(&ok, &baseline, 0.10, usize::MAX).is_empty());
        // An 11% drop fails, and names the offending pair.
        let bad = [
            measured("supernet", 1, 890.0),
            measured("optinternet", 2, 2000.0),
        ];
        let problems = train_step_regressions(&bad, &baseline, 0.10, usize::MAX);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("supernet t1"), "{problems:?}");
        // Pairs with no committed counterpart are skipped, not failed.
        let unknown = [measured("fm", 4, 1.0)];
        assert!(train_step_regressions(&unknown, &baseline, 0.10, usize::MAX).is_empty());
    }
}
