//! Fixed-workload substrate performance measurements with a committed
//! JSON trajectory (`results/BENCH_substrate.json`).
//!
//! Every entry appended by [`run`] is labelled, so before/after pairs from
//! perf-focused PRs remain comparable forever. The workload is frozen (see
//! the `--bin perf` docs); only iteration counts shrink under `--quick`.

use optinter_core::net::DataDims;
use optinter_core::{Architecture, Method, OptInterConfig, OptInterNet, Supernet};
use optinter_data::cross::raw_cross;
use optinter_data::{
    Batch, BatchIter, BatchStream, EncodedDataset, Profile, RawDataset, SyntheticGenerator,
};
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
use serde_json::Value;
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
    /// run fails if a gated row's `rows_per_sec` (`GATED`) drops more
    /// than [`REGRESSION_TOLERANCE`] ([`OVERSUBSCRIBED_TOLERANCE`] for
    /// rows whose threads exceed the cores) below the row with the same
    /// section, key and threads in that file's last entry, in the run and
    /// in its one re-measure.
    pub check_against: Option<String>,
    /// Kernel backend forced for the train/input/serve sections
    /// (`--backend scalar|avx2fma`); `None` keeps the process default
    /// (env override or CPU detection). The kernel section always measures
    /// every supported backend side by side regardless.
    pub backend: Option<String>,
}

/// Allowed fractional throughput drop of a gated row before
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
/// pairs): the whole encode (vocabularies and ids), batch assembly, and
/// full training epochs with and without the prefetching stream.
#[derive(Debug, Clone, Serialize)]
pub struct InputRow {
    /// Measured operation (`encode`, `batch_assembly`,
    /// `epoch_optinternet`, `epoch_supernet`).
    pub op: String,
    /// Variant (`hashmap_reference`/`local_ids`,
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
    let mut out = Matrix::zeros(0, 0);
    let lookup_ns = time_ns(samples, || {
        table.lookup_fields_pooled_into(&ids, fields, &Pool::serial(), &mut out);
        std::hint::black_box(out.as_slice());
    });
    rows.push(EmbeddingRow {
        op: "lookup_fields".to_string(),
        ns_per_call: lookup_ns,
        rows_per_sec: batch as f64 / (lookup_ns * 1e-9),
    });
    let adam = Adam::with_lr_eps(1e-3, 1e-8);
    let acc_ns = time_ns(samples, || {
        table.accumulate_grad_fields_pooled(&ids, fields, &grad);
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
            table.lookup_fields_pooled_into(&ids, fields, &Pool::serial(), &mut out);
            table.accumulate_grad_fields_pooled(&ids, fields, &grad);
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

/// The historical encoder, kept here as the before-side of the `encode`
/// comparison: per-field SipHash `HashMap` counts numbered
/// frequency-then-value, per-pair counts keyed by the raw cross value and
/// numbered in raw order, and every row looked up by its raw values.
/// Returns the field ids and the cross ids, which feed a divergence check
/// against the library encoder.
fn reference_encode(raw: &RawDataset, min_count: u32) -> (Vec<u32>, Vec<u32>) {
    use std::collections::HashMap;
    let m = raw.schema.num_fields();
    let pairs: Vec<(usize, usize)> = raw.schema.pairs().iter().collect();
    let mut field_ids: Vec<HashMap<u32, u32>> = Vec::with_capacity(m);
    let mut field_offsets = Vec::with_capacity(m);
    let mut offset = 0u32;
    for f in 0..m {
        let mut counts: HashMap<u32, u32> = HashMap::new();
        for row in raw.rows.chunks_exact(m) {
            *counts.entry(row[f]).or_insert(0) += 1;
        }
        let mut kept: Vec<(u32, u32)> = counts
            .into_iter()
            .filter(|&(_, c)| c >= min_count)
            .collect();
        kept.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        field_offsets.push(offset);
        offset += kept.len() as u32 + 1; // +1 for the OOV bucket
        field_ids.push(kept.into_iter().map(|(v, _)| v).zip(1..).collect());
    }
    let mut pair_ids: Vec<HashMap<u64, u32>> = Vec::with_capacity(pairs.len());
    let mut pair_offsets = Vec::with_capacity(pairs.len());
    let mut offset = 0u32;
    for &(i, j) in &pairs {
        let mut counts: HashMap<u64, u32> = HashMap::new();
        for row in raw.rows.chunks_exact(m) {
            *counts.entry(raw_cross(row[i], row[j])).or_insert(0) += 1;
        }
        let mut kept: Vec<u64> = counts
            .into_iter()
            .filter(|&(_, c)| c >= min_count)
            .map(|(v, _)| v)
            .collect();
        kept.sort_unstable();
        pair_offsets.push(offset);
        offset += kept.len() as u32 + 1;
        pair_ids.push(kept.into_iter().zip(1..).collect());
    }
    let mut fields = Vec::with_capacity(raw.rows.len());
    let mut cross = Vec::with_capacity(raw.len() * pairs.len());
    for row in raw.rows.chunks_exact(m) {
        for (f, ids) in field_ids.iter().enumerate() {
            fields.push(field_offsets[f] + ids.get(&row[f]).copied().unwrap_or(0));
        }
        for (p, &(i, j)) in pairs.iter().enumerate() {
            let id = pair_ids[p].get(&raw_cross(row[i], row[j])).copied();
            cross.push(pair_offsets[p] + id.unwrap_or(0));
        }
    }
    (fields, cross)
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

    // The whole encode (vocabularies built on every row, then every row
    // encoded): the historical HashMap path vs the library's local-id
    // encoder.
    let encoded = EncodedDataset::encode(&raw, 0..n_raw, min_count);
    assert!(
        (encoded.fields, encoded.cross) == reference_encode(&raw, min_count),
        "the encoder diverges from the HashMap reference"
    );
    let ns = time_ns(samples, || {
        std::hint::black_box(reference_encode(&raw, min_count).1.len());
    });
    rows.push(InputRow {
        op: "encode".to_string(),
        variant: "hashmap_reference".to_string(),
        threads: 1,
        ns_per_call: ns,
        rows_per_sec: n_raw as f64 / (ns * 1e-9),
    });
    let ns = time_ns(samples, || {
        std::hint::black_box(EncodedDataset::encode(&raw, 0..n_raw, min_count).cross_vocab);
    });
    rows.push(InputRow {
        op: "encode".to_string(),
        variant: "local_ids".to_string(),
        threads: 1,
        ns_per_call: ns,
        rows_per_sec: n_raw as f64 / (ns * 1e-9),
    });

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
/// textually rather than parsed and re-rendered, so the entries already
/// in it keep their bytes.
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

/// One entry section's rows that `--check-against` gates.
struct Gated {
    /// The [`PerfEntry`] field holding the rows.
    section: &'static str,
    /// Fields whose values, joined with `/`, name a row in its section.
    key: &'static [&'static str],
    /// Whether rows carry a `threads` field; rows without one count as
    /// one thread.
    threaded: bool,
    /// Key prefixes of the gated rows; empty gates every row.
    ops: &'static [&'static str],
}

/// The gated rows, compared on `rows_per_sec`.
///
/// - Every train step is gated.
/// - Of the serve rows only `single_request`: the open-loop `micro_batch`
///   front door runs a submitter thread and the batcher beside the scorer
///   pool, so on a small runner its rows/sec measures the OS scheduler
///   (2x run-to-run swings on one core).
/// - Of the embedding-scale rows only `lookup_grad@` and `adam_apply@`:
///   a `train_step@` row is one epoch-scale sample whose spread on a
///   shared runner dwarfs the tolerance (its AUC is what matters). The
///   scale suffix in the key (`@2e5` quick, `@1e7` full) keeps a quick
///   run from ever matching a full-scale baseline: rows with no baseline
///   counterpart pass.
const GATED: [Gated; 3] = [
    Gated {
        section: "train_step",
        key: &["model"],
        threaded: true,
        ops: &[],
    },
    Gated {
        section: "serve",
        key: &["op"],
        threaded: true,
        ops: &["single_request"],
    },
    Gated {
        section: "embedding_scale",
        key: &["op", "variant"],
        threaded: false,
        ops: &["lookup_grad@", "adam_apply@"],
    },
];

/// One gated row of an entry, as [`gated_rows`] reads it.
#[derive(Debug, Clone, PartialEq)]
struct GateRow {
    /// A [`GATED`] section.
    section: &'static str,
    /// The row's key fields joined with `/`.
    key: String,
    /// Worker threads (1 for unthreaded sections).
    threads: usize,
    rows_per_sec: f64,
}

impl GateRow {
    /// What a baseline row must share with a measured one to compare.
    fn id(&self) -> (&str, &str, usize) {
        (self.section, &self.key, self.threads)
    }
}

/// Reads the [`GATED`] rows of one trajectory entry: a parsed baseline
/// entry, or a measured [`PerfEntry`]'s `to_json_value()`. Every row of a
/// gated section must carry its key fields, `threads` where the section
/// is threaded, and a numeric `rows_per_sec`; a missing section is an
/// error too.
fn gated_rows(entry: &Value) -> Result<Vec<GateRow>, String> {
    let mut rows = Vec::new();
    for gated in &GATED {
        let section = gated.section;
        let items = entry
            .get(section)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("no \"{section}\" array"))?;
        for item in items {
            let field = |name: &str| {
                item.get(name)
                    .ok_or_else(|| format!("a \"{section}\" row has no \"{name}\""))
            };
            let number = |name: &str| {
                field(name)?
                    .as_f64()
                    .ok_or_else(|| format!("a \"{section}\" row's \"{name}\" is not a number"))
            };
            let key = gated
                .key
                .iter()
                .map(|&name| {
                    field(name)?
                        .as_str()
                        .ok_or_else(|| format!("a \"{section}\" row's \"{name}\" is not a string"))
                })
                .collect::<Result<Vec<_>, _>>()?
                .join("/");
            let threads = if gated.threaded {
                number("threads")? as usize
            } else {
                1
            };
            let rows_per_sec = number("rows_per_sec")?;
            if gated.ops.is_empty() || gated.ops.iter().any(|op| key.starts_with(op)) {
                rows.push(GateRow {
                    section,
                    key,
                    threads,
                    rows_per_sec,
                });
            }
        }
    }
    Ok(rows)
}

/// The gated rows of the last entry of a trajectory file's text (the
/// array [`append_entry`] writes). Each [`GATED`] section must hold a
/// gated row: a baseline that gates nothing would pass every run.
fn baseline_rows(text: &str) -> Result<Vec<GateRow>, String> {
    let doc = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let entry = doc
        .as_array()
        .and_then(|entries| entries.last())
        .ok_or_else(|| "not a non-empty array of entries".to_string())?;
    let rows = gated_rows(entry)?;
    match GATED
        .iter()
        .find(|g| !rows.iter().any(|r| r.section == g.section))
    {
        Some(g) => Err(format!(
            "the last entry's \"{}\" section has no gated row",
            g.section
        )),
        None => Ok(rows),
    }
}

/// Compares `measured` with the `baseline` row of the same section, key
/// and thread count and returns one message per regression: a row whose
/// rows/sec fell more than [`REGRESSION_TOLERANCE`] below its baseline
/// ([`OVERSUBSCRIBED_TOLERANCE`] when its threads exceed `cores`). Rows
/// with no baseline counterpart, or a baseline at or below zero, pass.
///
/// A single median can sink below the tolerance from outside noise alone
/// (shared runners, oversubscribed rows), so when any row is flagged this
/// calls `remeasure` once and keeps only the rows both measurements flag:
/// one-off noise passes, a real regression reproduces.
fn regressions(
    measured: &[GateRow],
    baseline: &[GateRow],
    cores: usize,
    remeasure: impl FnOnce() -> Result<Vec<GateRow>, String>,
) -> Result<Vec<String>, String> {
    fn flag<'a>(
        rows: &'a [GateRow],
        baseline: &[GateRow],
        cores: usize,
    ) -> Vec<(&'a GateRow, String)> {
        rows.iter()
            .filter_map(|row| {
                let committed = baseline.iter().find(|b| b.id() == row.id())?.rows_per_sec;
                let tolerance = if row.threads > cores {
                    OVERSUBSCRIBED_TOLERANCE
                } else {
                    REGRESSION_TOLERANCE
                };
                let ratio = row.rows_per_sec / committed;
                (committed > 0.0 && ratio < 1.0 - tolerance).then(|| {
                    let message = format!(
                        "{} {} t{}: {:.0} rows/s vs committed {committed:.0} ({:+.1}%), \
                         below the {:.0}% regression tolerance",
                        row.section,
                        row.key,
                        row.threads,
                        row.rows_per_sec,
                        (ratio - 1.0) * 100.0,
                        tolerance * 100.0,
                    );
                    (row, message)
                })
            })
            .collect()
    }
    let mut flagged = flag(measured, baseline, cores);
    if !flagged.is_empty() {
        println!("perf: throughput regression suspected; re-measuring to confirm");
        let retry = remeasure()?;
        let again = flag(&retry, baseline, cores);
        flagged.retain(|(row, _)| again.iter().any(|(r, _)| r.id() == row.id()));
    }
    Ok(flagged.into_iter().map(|(_, message)| message).collect())
}

/// Runs the fixed workload and appends a labelled entry to the trajectory.
/// With `check_against` set, the file's last entry is read before any
/// measurement (a malformed file fails the run at once), and the run
/// returns `Err` when `regressions` confirms a gated row regressed; the
/// entry is written first, so the failing numbers are inspectable.
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
    // Read the baseline before measuring, so a malformed file fails at
    // once, and before appending: with the default `--out` the trajectory
    // and the baseline are the same file.
    let baseline = match &opts.check_against {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("check-against: cannot read {path}: {e}"))?;
            let rows = baseline_rows(&text).map_err(|e| format!("check-against: {path}: {e}"))?;
            Some((path, rows))
        }
        None => None,
    };
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
    append_entry(&opts.out, &entry);
    let Some((path, baseline)) = baseline else {
        return Ok(());
    };
    let problems = regressions(
        &gated_rows(&entry.to_json_value())?,
        &baseline,
        machine_cores(),
        || {
            let retry = PerfEntry {
                train_step: bench_train_steps(opts.quick),
                serve: bench_serve(opts.quick),
                embedding_scale: bench_embedding_scale(opts.quick),
                ..entry
            };
            gated_rows(&retry.to_json_value())
        },
    )?;
    if !problems.is_empty() {
        return Err(format!(
            "throughput regressed vs {path}:\n  {}",
            problems.join("\n  ")
        ));
    }
    println!(
        "perf: train-step, serve and embedding-scale throughput within {:.0}% of {path}",
        REGRESSION_TOLERANCE * 100.0
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trajectory entry with the given gated sections; `None` leaves a
    /// section out.
    fn entry_json(
        label: &str,
        train: Option<&str>,
        serve: Option<&str>,
        embed: Option<&str>,
    ) -> String {
        let mut fields = vec![format!("\"label\": \"{label}\"")];
        for (name, rows) in [
            ("train_step", train),
            ("serve", serve),
            ("embedding_scale", embed),
        ] {
            if let Some(rows) = rows {
                fields.push(format!("\"{name}\": [{rows}]"));
            }
        }
        format!("{{{}}}", fields.join(",\n  "))
    }

    fn train_json(model: &str, threads: usize, rps: f64) -> String {
        format!(
            r#"{{"model": "{model}", "threads": {threads}, "ns_per_step": 1.0, "rows_per_sec": {rps}, "last_loss": 0.1}}"#
        )
    }

    fn serve_json(op: &str, threads: usize, rps: f64) -> String {
        format!(
            r#"{{"op": "{op}", "threads": {threads}, "p50_ns": 10.0, "p99_ns": 20.0, "p999_ns": 30.0, "rows_per_sec": {rps}}}"#
        )
    }

    fn embed_json(op: &str, variant: &str, rps: f64) -> String {
        format!(
            r#"{{"op": "{op}", "variant": "{variant}", "bytes_per_row": 192.0, "ns_per_call": 1.0, "rows_per_sec": {rps}, "auc": 0.0}}"#
        )
    }

    /// Baseline: supernet t1 1000, optinternet t2 2000; single_request
    /// t1 5000, t4 8000, micro_batch t4 9000; lookup_grad@1e7/dense 5000,
    /// adam_apply@1e7/lazy 9000, train_step@1e7/hashed_qr 4000. An older
    /// entry comes first.
    fn baseline() -> Vec<GateRow> {
        let old = entry_json(
            "old",
            Some(&train_json("supernet", 1, 1.0)),
            Some(&serve_json("single_request", 1, 1.0)),
            Some(&embed_json("lookup_grad@1e7", "dense", 1.0)),
        );
        let new = entry_json(
            "new",
            Some(
                &[
                    train_json("supernet", 1, 1000.0),
                    train_json("optinternet", 2, 2000.0),
                ]
                .join(","),
            ),
            Some(
                &[
                    serve_json("single_request", 1, 5000.0),
                    serve_json("single_request", 4, 8000.0),
                    serve_json("micro_batch", 4, 9000.0),
                ]
                .join(","),
            ),
            Some(
                &[
                    embed_json("lookup_grad@1e7", "dense", 5000.0),
                    embed_json("adam_apply@1e7", "lazy", 9000.0),
                    embed_json("train_step@1e7", "hashed_qr", 4000.0),
                ]
                .join(","),
            ),
        );
        baseline_rows(&format!("[\n{old}\n,\n{new}\n]\n")).expect("parse")
    }

    fn row(section: &'static str, key: &str, threads: usize, rows_per_sec: f64) -> GateRow {
        GateRow {
            section,
            key: key.to_string(),
            threads,
            rows_per_sec,
        }
    }

    /// The gated rows of a measured entry, read the way `run` reads them:
    /// through the entry's `Serialize` value.
    fn measured(
        train: &[(&str, usize, f64)],
        serve: &[(&str, usize, f64)],
        embed: &[(&str, &str, f64)],
    ) -> Vec<GateRow> {
        let entry = PerfEntry {
            label: "measured".to_string(),
            quick: true,
            backend: "scalar".to_string(),
            matmul: Vec::new(),
            embedding: Vec::new(),
            embedding_scale: embed
                .iter()
                .map(|&(op, variant, rows_per_sec)| EmbedScaleRow {
                    op: op.to_string(),
                    variant: variant.to_string(),
                    bytes_per_row: 0.0,
                    ns_per_call: 0.0,
                    rows_per_sec,
                    auc: 0.0,
                })
                .collect(),
            train_step: train
                .iter()
                .map(|&(model, threads, rows_per_sec)| TrainRow {
                    model: model.to_string(),
                    threads,
                    ns_per_step: 0.0,
                    rows_per_sec,
                    last_loss: 0.0,
                })
                .collect(),
            input: Vec::new(),
            serve: serve
                .iter()
                .map(|&(op, threads, rows_per_sec)| ServeRow {
                    op: op.to_string(),
                    threads,
                    p50_ns: 0.0,
                    p99_ns: 0.0,
                    p999_ns: 0.0,
                    rows_per_sec,
                })
                .collect(),
        };
        gated_rows(&entry.to_json_value()).expect("a measured entry reads")
    }

    /// The gate's verdict with no re-measure to fall back on: a test that
    /// reaches `remeasure` measured a regression, so the retry repeats it.
    fn verdict(rows: &[GateRow], cores: usize) -> Vec<String> {
        regressions(rows, &baseline(), cores, || Ok(rows.to_vec())).expect("no retry error")
    }

    #[test]
    fn baseline_reads_the_gated_rows_of_the_last_entry() {
        assert_eq!(
            baseline(),
            vec![
                row("train_step", "supernet", 1, 1000.0),
                row("train_step", "optinternet", 2, 2000.0),
                row("serve", "single_request", 1, 5000.0),
                row("serve", "single_request", 4, 8000.0),
                row("embedding_scale", "lookup_grad@1e7/dense", 1, 5000.0),
                row("embedding_scale", "adam_apply@1e7/lazy", 1, 9000.0),
            ]
        );
    }

    #[test]
    fn baseline_rejects_malformed_input() {
        let train = train_json("supernet", 1, 1.0);
        let serve = serve_json("single_request", 1, 1.0);
        let embed = embed_json("lookup_grad@1e7", "dense", 1.0);
        let entry = |t: Option<&str>, s: Option<&str>, e: Option<&str>| entry_json("x", t, s, e);
        let one =
            |t: Option<&str>, s: Option<&str>, e: Option<&str>| format!("[{}]", entry(t, s, e));
        let good = one(Some(&train), Some(&serve), Some(&embed));
        assert_eq!(baseline_rows(&good).map(|rows| rows.len()), Ok(3));
        for (bad, why) in [
            (String::new(), "EOF while parsing a value"),
            (
                "[{\"train_step\": [".to_string(),
                "EOF while parsing a value",
            ),
            (good.replace("\"x\"", "x"), "expected value"),
            ("{}".to_string(), "not a non-empty array"),
            ("[]".to_string(), "not a non-empty array"),
            // A gated section that is not an array, or holds no gated row.
            (
                good.replace(&format!("[{train}]"), "3"),
                "no \"train_step\" array",
            ),
            (
                one(Some(""), Some(&serve), Some(&embed)),
                "\"train_step\" section has no gated row",
            ),
            (
                one(Some(&train), Some(""), Some(&embed)),
                "\"serve\" section has no gated row",
            ),
            (
                one(
                    Some(&train),
                    Some(&serve_json("micro_batch", 1, 1.0)),
                    Some(&embed),
                ),
                "\"serve\" section has no gated row",
            ),
            (
                one(
                    Some(&train),
                    Some(&serve),
                    Some(&embed_json("train_step@1e7", "dense", 1.0)),
                ),
                "\"embedding_scale\" section has no gated row",
            ),
            // A gated section's row without its key, threads or rows/sec.
            (
                one(Some("{\"model\": \"x\"}"), Some(&serve), Some(&embed)),
                "row has no \"threads\"",
            ),
            (
                one(Some(&train), Some("{\"op\": \"x\"}"), Some(&embed)),
                "row has no \"threads\"",
            ),
            (
                one(Some(&train), Some(&serve), Some("{\"op\": \"x\"}")),
                "row has no \"variant\"",
            ),
            (
                good.replace("\"model\"", "\"name\""),
                "row has no \"model\"",
            ),
            (
                good.replace("\"supernet\"", "7"),
                "\"model\" is not a string",
            ),
            (
                good.replace("\"threads\": 1,", "\"threads\": \"1\","),
                "\"threads\" is not a number",
            ),
            (
                good.replace("\"rows_per_sec\": 1,", "\"rows_per_sec\": null,"),
                "\"rows_per_sec\" is not a number",
            ),
            // A gated section missing from the last entry: an older entry
            // that has it is not read.
            (
                one(None, Some(&serve), Some(&embed)),
                "no \"train_step\" array",
            ),
            (
                format!(
                    "[{}, {}]",
                    entry(Some(&train), Some(&serve), Some(&embed)),
                    entry(Some(&train), None, Some(&embed))
                ),
                "no \"serve\" array",
            ),
            (
                format!(
                    "[{}, {}]",
                    entry(Some(&train), Some(&serve), Some(&embed)),
                    entry(Some(&train), Some(&serve), None)
                ),
                "no \"embedding_scale\" array",
            ),
        ] {
            match baseline_rows(&bad) {
                Err(e) => assert!(e.contains(why), "{bad}: {e:?} lacks {why:?}"),
                Ok(rows) => panic!("accepted {bad}: {rows:?}"),
            }
        }
    }

    #[test]
    fn committed_trajectory_gates_every_section() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/BENCH_substrate.json"
        );
        let text = std::fs::read_to_string(path).expect("the committed trajectory");
        let rows = baseline_rows(&text).expect("the committed baseline reads");
        // What perf writes: two models at 1, 2 and 4 threads, the
        // single-request scorer at 1, 2 and 4 threads, and lookup_grad@
        // for three stores plus adam_apply@ for two optimizer modes.
        let count = |section: &str| rows.iter().filter(|r| r.section == section).count();
        assert_eq!(count("train_step"), 6, "{rows:?}");
        assert_eq!(count("serve"), 3, "{rows:?}");
        assert_eq!(count("embedding_scale"), 5, "{rows:?}");
        assert!(rows.iter().all(|r| r.rows_per_sec > 0.0), "{rows:?}");
    }

    #[test]
    fn train_gate_fires_only_beyond_tolerance() {
        // Within tolerance (and even faster) passes.
        let ok = measured(
            &[("supernet", 1, 950.0), ("optinternet", 2, 2500.0)],
            &[],
            &[],
        );
        assert!(verdict(&ok, usize::MAX).is_empty());
        // An 11% drop fails, and names the offending row.
        let bad = measured(
            &[("supernet", 1, 890.0), ("optinternet", 2, 2000.0)],
            &[],
            &[],
        );
        let problems = verdict(&bad, usize::MAX);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].starts_with("train_step supernet t1:"),
            "{problems:?}"
        );
        // Rows with no committed counterpart are skipped, not failed.
        assert!(verdict(&measured(&[("fm", 4, 1.0)], &[], &[]), usize::MAX).is_empty());
    }

    #[test]
    fn serve_gate_fires_only_beyond_tolerance() {
        let ok = measured(
            &[],
            &[
                ("single_request", 1, 4800.0),
                ("single_request", 4, 20000.0),
            ],
            &[],
        );
        assert!(verdict(&ok, usize::MAX).is_empty());
        let bad = measured(&[], &[("single_request", 1, 4000.0)], &[]);
        let problems = verdict(&bad, usize::MAX);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].starts_with("serve single_request t1:"),
            "{problems:?}"
        );
        // Unknown (op, threads) pairs are skipped, not failed.
        assert!(verdict(
            &measured(&[], &[("single_request", 9, 1.0)], &[]),
            usize::MAX
        )
        .is_empty());
        // micro_batch rows are never gated, however bad: the reader drops
        // them from the measured entry as it does from the baseline.
        let micro = measured(&[], &[("micro_batch", 4, 1.0)], &[]);
        assert!(micro.is_empty(), "{micro:?}");
        assert!(verdict(&micro, usize::MAX).is_empty());
    }

    #[test]
    fn embed_gate_fires_only_on_gated_ops_beyond_tolerance() {
        let ok = measured(&[], &[], &[("lookup_grad@1e7", "dense", 4800.0)]);
        assert!(verdict(&ok, usize::MAX).is_empty());
        let bad = measured(&[], &[], &[("lookup_grad@1e7", "dense", 4000.0)]);
        let problems = verdict(&bad, usize::MAX);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].starts_with("embedding_scale lookup_grad@1e7/dense t1:"),
            "{problems:?}"
        );
        // Quick-mode keys carry a different scale suffix and never match
        // a committed full-scale baseline.
        let quick = measured(&[], &[], &[("lookup_grad@2e5", "dense", 1.0)]);
        assert_eq!(
            quick,
            vec![row("embedding_scale", "lookup_grad@2e5/dense", 1, 1.0)]
        );
        assert!(verdict(&quick, usize::MAX).is_empty());
        // train_step rows are reported, never gated.
        let train = measured(&[], &[], &[("train_step@1e7", "hashed_qr", 1.0)]);
        assert!(train.is_empty(), "{train:?}");
    }

    #[test]
    fn oversubscribed_rows_get_the_wider_tolerance() {
        // Baseline: single_request t1 = 5000 and t4 = 8000. A 20% drop on
        // a t4 row fails on a 4-core machine and passes on a 1-core one,
        // where t4 medians are scheduling noise.
        let dropped = measured(&[], &[("single_request", 4, 6400.0)], &[]);
        assert_eq!(verdict(&dropped, 4).len(), 1);
        assert!(verdict(&dropped, 1).is_empty());
        // Even on 1 core, a drop beyond OVERSUBSCRIBED_TOLERANCE fails.
        let collapsed = measured(&[], &[("single_request", 4, 4000.0)], &[]);
        assert_eq!(verdict(&collapsed, 1).len(), 1);
        // Fitting rows keep the strict tolerance regardless of cores.
        let t1_dropped = measured(&[], &[("single_request", 1, 4000.0)], &[]);
        assert_eq!(verdict(&t1_dropped, 1).len(), 1);
        // Train rows widen the same way.
        let t2_dropped = measured(&[("optinternet", 2, 1700.0)], &[], &[]);
        assert_eq!(verdict(&t2_dropped, 2).len(), 1);
        assert!(verdict(&t2_dropped, 1).is_empty());
    }

    #[test]
    fn retry_keeps_only_the_rows_both_measurements_flag() {
        let first = measured(
            &[("supernet", 1, 500.0), ("optinternet", 2, 100.0)],
            &[("single_request", 1, 100.0)],
            &[("lookup_grad@1e7", "dense", 100.0)],
        );
        // The retry recovers the train rows, still regresses the serve and
        // embedding rows, and flags a row the first run did not.
        let retry = measured(
            &[("supernet", 1, 1000.0), ("optinternet", 2, 1900.0)],
            &[("single_request", 1, 200.0), ("single_request", 4, 1.0)],
            &[("lookup_grad@1e7", "dense", 1.0)],
        );
        let problems = regressions(&first, &baseline(), usize::MAX, || Ok(retry)).expect("verdict");
        assert_eq!(problems.len(), 2, "{problems:?}");
        // The first measurement's numbers are the ones reported.
        assert!(
            problems[0].starts_with("serve single_request t1: 100 rows/s"),
            "{problems:?}"
        );
        assert!(
            problems[1].starts_with("embedding_scale lookup_grad@1e7/dense t1: 100 rows/s"),
            "{problems:?}"
        );
        // Nothing flagged: no re-measure. A failing re-measure fails.
        let ok = measured(&[("supernet", 1, 1000.0)], &[], &[]);
        let never = || -> Result<Vec<GateRow>, String> { panic!("re-measured a passing run") };
        assert!(regressions(&ok, &baseline(), usize::MAX, never)
            .expect("verdict")
            .is_empty());
        let broken = regressions(
            &first,
            &baseline(),
            usize::MAX,
            || Err("broken".to_string()),
        );
        assert_eq!(broken, Err("broken".to_string()));
    }
}
