//! Runtime cross-check of the `hot-path-alloc` lint rule: a counting
//! global allocator proves that steady-state training performs **zero**
//! heap allocations per batch — for the fixed-architecture OptInterNet,
//! the search-stage Supernet, and every baseline of the zoo (AutoFIS in
//! search and re-train mode), with the prefetching pipeline on and off.
//!
//! The static rule (`optinter-lint`, DESIGN.md §10) can only flag
//! allocation *tokens* it can see; this test closes the loop by counting
//! what the allocator actually does. Together they make the zero-alloc
//! claim in `crates/data/src/prefetch.rs` and `optinter_nn::Workspace`
//! enforceable instead of aspirational.
//!
//! Everything runs inside a single `#[test]` so no concurrent test can
//! pollute the global counter.

use optinter_core::net::DataDims;
use optinter_core::{Architecture, FactFn, Method, OptInterConfig, OptInterNet, Supernet};
use optinter_data::{Batch, BatchStream, DatasetBundle, Profile};
use optinter_models::{build_model, AutoFis, CtrModel, ModelKind};
use optinter_nn::{EmbedOptimizerMode, StoreKind};
use optinter_serve::{freeze, serve, FrozenScorer, ManualClock, MicroBatchOptions, Quant};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of heap acquisitions (alloc + realloc) since process start.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// A pass-through allocator that counts every heap acquisition.
/// Deallocations are free to happen (dropping moves no new memory), so
/// only `alloc` and `realloc` bump the counter. `alloc_zeroed` falls back
/// to the default impl, which routes through `alloc`.
struct CountingAlloc;

// SAFETY: every method forwards verbatim to `System`, which upholds the
// GlobalAlloc contract; the counter update has no effect on the returned
// memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: layout is forwarded unchanged to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: ptr/layout come from a matching `alloc` and are forwarded
    // unchanged to `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: ptr/layout/new_size are forwarded unchanged to
    // `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const ROWS: usize = 1_920;
const BATCH: usize = 128; // divides ROWS: every batch has the same size
const NUM_BATCHES: usize = ROWS / BATCH;

/// Batches to exclude from the zero-alloc assertion at the start of the
/// measurement epoch. With prefetching the producer's `NUM_BUFFERS` (4)
/// recycled buffers plus the `QUEUE_SLOTS` (2) in-flight batches grow to
/// full size while the consumer works through the first few batches;
/// inline, a single recycled buffer reaches full size immediately.
const WARMUP_PREFETCH: usize = 6;
const WARMUP_INLINE: usize = 2;

fn bundle() -> DatasetBundle {
    Profile::Tiny.bundle_with_rows(ROWS, 29)
}

/// Runs one warm-up epoch (grows every scratch buffer to its working-set
/// maximum), then a measurement epoch asserting that each post-warm-up
/// batch triggered zero heap acquisitions — anywhere in the process,
/// producer thread included.
fn assert_zero_alloc_epoch(
    name: &str,
    bundle: &DatasetBundle,
    prefetch: bool,
    train: &mut dyn FnMut(&Batch),
) {
    let warmup = if prefetch {
        WARMUP_PREFETCH
    } else {
        WARMUP_INLINE
    };
    BatchStream::new(&bundle.data, 0..ROWS, BATCH, Some(0))
        .prefetch(prefetch)
        .for_each(|b| train(b));

    let mut marks: Vec<u64> = Vec::with_capacity(NUM_BATCHES + 1);
    BatchStream::new(&bundle.data, 0..ROWS, BATCH, Some(1))
        .prefetch(prefetch)
        .for_each(|b| {
            marks.push(ALLOCS.load(Ordering::Relaxed));
            train(b);
        });
    marks.push(ALLOCS.load(Ordering::Relaxed));

    assert_eq!(
        marks.len(),
        NUM_BATCHES + 1,
        "{name}: unexpected batch count"
    );
    for (k, pair) in marks.windows(2).enumerate().skip(warmup) {
        assert_eq!(
            pair[1] - pair[0],
            0,
            "{name} (prefetch={prefetch}): batch {k} of the measurement epoch \
             performed {} heap allocation(s); steady-state training must not \
             touch the heap",
            pair[1] - pair[0],
        );
    }
}

/// Warms `scorer`'s scratch buffers on a few single-row requests, then
/// asserts that each of the next 64 performs zero heap acquisitions.
fn assert_zero_alloc_requests(
    name: &str,
    scorer: &mut FrozenScorer,
    bundle: &DatasetBundle,
    batch: &mut Batch,
) {
    let mut probs = Vec::new();
    for row in 0..8 {
        batch.begin(bundle.data.num_fields, bundle.data.num_pairs);
        batch.push_row(bundle.data.row_fields(row), bundle.data.row_cross(row), 0.0);
        scorer
            .score_into(batch, &mut probs)
            .expect("valid batch scores");
    }
    for row in 0..64 {
        batch.begin(bundle.data.num_fields, bundle.data.num_pairs);
        batch.push_row(bundle.data.row_fields(row), bundle.data.row_cross(row), 0.0);
        let before = ALLOCS.load(Ordering::Relaxed);
        scorer
            .score_into(batch, &mut probs)
            .expect("valid batch scores");
        let after = ALLOCS.load(Ordering::Relaxed);
        assert_eq!(
            after - before,
            0,
            "{name}: request {row} performed {} heap \
             allocation(s); serving must not touch the heap",
            after - before
        );
    }
}

#[test]
fn steady_state_training_performs_zero_heap_allocations() {
    // Sanity: the counter actually observes allocations.
    let before = ALLOCS.load(Ordering::Relaxed);
    let probe: Vec<u8> = Vec::with_capacity(64);
    std::hint::black_box(&probe);
    assert!(
        ALLOCS.load(Ordering::Relaxed) > before,
        "counting allocator is not installed"
    );
    drop(probe);

    let bundle = bundle();
    let dims = DataDims::of(&bundle.data);

    for prefetch in [false, true] {
        // Fixed-architecture OptInterNet with a mix of all three methods,
        // on the 2-thread pool so the worker hand-off path is covered.
        let arch = Architecture::new(
            (0..dims.num_pairs)
                .map(|p| Method::from_index(p % 3))
                .collect(),
        );
        let cfg = OptInterConfig {
            seed: 7,
            num_threads: 2,
            fact_fn: FactFn::Generalized,
            ..OptInterConfig::test_small()
        };
        let mut net = OptInterNet::new(cfg, dims.clone(), arch);
        let mut loss_sum = 0.0f32;
        assert_zero_alloc_epoch("OptInterNet", &bundle, prefetch, &mut |b| {
            loss_sum += net.train_batch(b);
        });
        assert!(loss_sum.is_finite(), "OptInterNet loss diverged");

        // Hashed-store OptInterNet with the lazy embedding optimizer: the
        // compositional lookup/compose scratch, the sub-table gradient
        // arenas and the lazy catch-up bookkeeping must all reach their
        // working-set maximum during warm-up, exactly like the dense path.
        let arch = Architecture::new(
            (0..dims.num_pairs)
                .map(|p| Method::from_index(p % 3))
                .collect(),
        );
        let cfg = OptInterConfig {
            seed: 7,
            num_threads: 2,
            fact_fn: FactFn::Generalized,
            ..OptInterConfig::test_small()
        }
        .with_stores(
            StoreKind::HashedQr { bucket: 13 },
            StoreKind::HashedDouble { rows: 37 },
        )
        .with_embed_opt(EmbedOptimizerMode::LazyCatchUp);
        let mut net = OptInterNet::new(cfg, dims.clone(), arch);
        let mut loss_sum = 0.0f32;
        assert_zero_alloc_epoch("OptInterNet(hashed,lazy)", &bundle, prefetch, &mut |b| {
            loss_sum += net.train_batch(b);
        });
        assert!(loss_sum.is_finite(), "hashed OptInterNet loss diverged");

        // Search-stage Supernet: Gumbel draws, relaxed mixing, arch grads.
        let cfg = OptInterConfig {
            seed: 11,
            num_threads: 2,
            fact_fn: FactFn::Generalized,
            ..OptInterConfig::test_small()
        };
        let mut supernet = Supernet::new(cfg, dims.clone());
        let mut loss_sum = 0.0f32;
        assert_zero_alloc_epoch("Supernet", &bundle, prefetch, &mut |b| {
            loss_sum += supernet.train_batch(b, 0.7);
        });
        assert!(loss_sum.is_finite(), "Supernet loss diverged");

        // Every baseline through the CtrModel trait, the deep ones on the
        // 2-thread pool; AutoFIS is built in search mode, and once more
        // re-training a fixed selection.
        let cfg = OptInterConfig::test_small().with_threads(2);
        let (vocab, fields) = (bundle.data.orig_vocab, bundle.data.num_fields);
        let mask: Vec<bool> = (0..dims.num_pairs).map(|p| p % 2 == 0).collect();
        let retrain: Box<dyn CtrModel> = Box::new(AutoFis::retrain(&cfg, vocab, fields, mask));
        let models = ModelKind::all()
            .into_iter()
            .map(|kind| (kind.name(), build_model(kind, &cfg, &bundle.data)))
            .chain([("AutoFIS(retrain)", retrain)]);
        for (name, mut model) in models {
            let mut loss_sum = 0.0f32;
            assert_zero_alloc_epoch(name, &bundle, prefetch, &mut |b| {
                loss_sum += model.train_batch(b);
            });
            assert!(loss_sum.is_finite(), "{name} loss diverged");
        }
    }

    // ------------------------------------------------------------------
    // Serving path. Same allocator, same bar: after warm-up, neither the
    // single-request scorer nor the micro-batching front door may touch
    // the heap per request.

    let arch = Architecture::new(
        (0..dims.num_pairs)
            .map(|p| Method::from_index(p % 3))
            .collect(),
    );
    let cfg = OptInterConfig {
        seed: 13,
        num_threads: 2,
        fact_fn: FactFn::Generalized,
        ..OptInterConfig::test_small()
    };
    let mut net = OptInterNet::new(cfg.clone(), dims.clone(), arch.clone());
    let frozen = freeze(&mut net, &bundle.data, Quant::F32);
    let mut scorer = FrozenScorer::new(&frozen, 2).expect("frozen model loads");
    let mut batch = Batch::empty();
    assert_zero_alloc_requests("single-request scorer", &mut scorer, &bundle, &mut batch);

    // Hashed stores stage their sub-table rows in the store's own scratch,
    // which must also reach its working size during warm-up.
    let hashed_cfg = cfg.with_stores(
        StoreKind::HashedQr { bucket: 13 },
        StoreKind::HashedDouble { rows: 37 },
    );
    let mut hashed_net = OptInterNet::new(hashed_cfg, dims.clone(), arch);
    let hashed = freeze(&mut hashed_net, &bundle.data, Quant::F32);
    let mut hashed_scorer = FrozenScorer::new(&hashed, 2).expect("hashed model loads");
    assert_zero_alloc_requests(
        "hashed single-request scorer",
        &mut hashed_scorer,
        &bundle,
        &mut batch,
    );

    // Mutation control: the counter must catch an allocation on this very
    // path — scoring into a *fresh* (capacity-0) output vector has to
    // grow it on the heap. If this stops tripping, the assertions above
    // are vacuous.
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut fresh_probs = Vec::new();
    scorer
        .score_into(&batch, &mut fresh_probs)
        .expect("valid batch scores");
    assert!(
        ALLOCS.load(Ordering::Relaxed) > before,
        "negative control failed: fresh output vector did not allocate"
    );
    drop(fresh_probs);

    // Micro-batching front door: ManualClock never advances, so batches
    // flush purely on max_batch; request buffers, the pending queue and
    // the gather batch all reach steady-state size within the first few
    // full buffer cycles.
    const REQUESTS: usize = 512;
    const SERVE_WARMUP: usize = 64;
    let clock = ManualClock::new();
    let opts = MicroBatchOptions {
        queue_slots: 8,
        max_batch: 8,
        deadline_ns: u64::MAX / 2,
    };
    let mut serve_marks: Vec<u64> = Vec::with_capacity(REQUESTS + 1);
    serve(
        &mut scorer,
        &clock,
        &opts,
        |mut submitter| {
            for k in 0..REQUESTS {
                let row = k % ROWS;
                assert!(submitter.submit(
                    k as u64,
                    bundle.data.row_fields(row),
                    bundle.data.row_cross(row),
                ));
            }
        },
        |resp| {
            assert!(resp.prob.is_finite());
            serve_marks.push(ALLOCS.load(Ordering::Relaxed));
        },
    );
    assert_eq!(serve_marks.len(), REQUESTS, "micro-batcher lost responses");
    for (k, pair) in serve_marks.windows(2).enumerate().skip(SERVE_WARMUP) {
        assert_eq!(
            pair[1] - pair[0],
            0,
            "micro-batch front door: response {k} performed {} heap \
             allocation(s) at steady state",
            pair[1] - pair[0]
        );
    }
}
