//! Layer twins: the `nn` and `tensor` calls a training step makes,
//! replayed in isolation on the workload's own shapes and batch ids so each
//! gets a time of its own. Twins are labelled as such in the README: they
//! measure the same public functions with the same sizes, not the calls
//! inside the model.

use crate::registry::Report;
use crate::stats::median;
use crate::trace::Tracer;
use optinter_core::OptInterConfig;
use optinter_nn::{
    Adam, DenseOptimizer, EmbedOptimizerMode, EmbedStore, Mlp, MlpConfig, StoreKind,
};
use optinter_tensor::{Matrix, Pool};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Calls skipped before timing starts, so lazily sized buffers are warm.
const WARMUP: usize = 3;

/// An embedding store as a model builds it.
#[derive(Debug, Clone, Copy)]
pub struct StoreSpec {
    pub kind: StoreKind,
    pub key_space: usize,
    pub dim: usize,
    pub mode: EmbedOptimizerMode,
    pub lr: f32,
    pub eps: f32,
    pub l2: f32,
}

/// Median microseconds of the three store calls a training step makes.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreTimes {
    pub lookup_us: f64,
    pub grad_us: f64,
    pub apply_us: f64,
}

/// Span names of one store twin.
pub struct StoreSpans {
    pub lookup: &'static str,
    pub grad: &'static str,
    pub apply: &'static str,
}

/// Replays lookup → gradient accumulate → Adam apply on a fresh store of
/// `spec`, one step per entry of `steps` (each `rows x fields` ids).
pub fn store_twin(
    spec: &StoreSpec,
    steps: &[Vec<u32>],
    fields: usize,
    threads: usize,
    spans: &StoreSpans,
    tracer: &mut Tracer,
) -> StoreTimes {
    if fields == 0 || steps.is_empty() {
        return StoreTimes::default();
    }
    let mut rng = StdRng::seed_from_u64(0x7_1AB1E);
    let mut store = EmbedStore::new(spec.kind, &mut rng, spec.key_space, spec.dim, 0x5EED);
    store.set_optimizer_mode(spec.mode);
    let pool = Pool::new(threads);
    let mut adam = Adam::with_lr_eps(spec.lr, spec.eps);
    let rows = steps[0].len() / fields;
    let grad = Matrix::from_fn(rows, fields * spec.dim, |r, c| {
        ((r * 31 + c) as f32 * 0.01).sin() * 1e-3
    });
    let mut out = Matrix::zeros(0, 0);
    let (mut lookup, mut acc, mut apply) = (Vec::new(), Vec::new(), Vec::new());
    for (i, ids) in steps.iter().enumerate() {
        adam.begin_step();
        let t0 = tracer.now_ns();
        let s = tracer.enter(spans.lookup, i as u64);
        store.lookup_fields_pooled_into(ids, fields, &pool, &mut out);
        tracer.exit(s);
        let t1 = tracer.now_ns();
        let s = tracer.enter(spans.grad, i as u64);
        store.accumulate_grad_fields_pooled(ids, fields, &grad, &pool);
        tracer.exit(s);
        let t2 = tracer.now_ns();
        let s = tracer.enter(spans.apply, i as u64);
        store.apply_adam(&adam, spec.l2);
        tracer.exit(s);
        let t3 = tracer.now_ns();
        if i >= WARMUP.min(steps.len() - 1) {
            lookup.push((t1 - t0) as f64 * 1e-3);
            acc.push((t2 - t1) as f64 * 1e-3);
            apply.push((t3 - t2) as f64 * 1e-3);
        }
    }
    std::hint::black_box(out.as_slice());
    StoreTimes {
        lookup_us: median(&mut lookup),
        grad_us: median(&mut acc),
        apply_us: median(&mut apply),
    }
}

/// Median distinct ids per step.
pub fn rows_touched(steps: &[(&[u32], &[u32])]) -> f64 {
    let mut counts: Vec<f64> = steps
        .iter()
        .map(|(a, b)| {
            let distinct = |ids: &[u32]| {
                let mut v = ids.to_vec();
                v.sort_unstable();
                v.dedup();
                v.len()
            };
            (distinct(a) + distinct(b)) as f64
        })
        .collect();
    median(&mut counts)
}

/// Median microseconds of `Mlp::forward_into` and (when `backward`)
/// `Mlp::backward_into` at `rows x cfg.input_dim`.
pub fn mlp_twin(
    cfg: &MlpConfig,
    rows: usize,
    threads: usize,
    calls: usize,
    backward: bool,
    tracer: &mut Tracer,
) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(0x7_31F);
    let mut mlp = Mlp::new(&mut rng, cfg);
    mlp.set_pool(&Pool::new(threads));
    let x = Matrix::from_fn(rows, cfg.input_dim, |r, c| {
        ((r * 7 + c) as f32 * 0.013).sin()
    });
    let g = Matrix::from_fn(rows, cfg.output_dim, |r, _| (r as f32 * 0.1).cos() * 1e-2);
    let (mut out, mut dx) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    for i in 0..calls + WARMUP {
        let t0 = tracer.now_ns();
        let s = tracer.enter("nn.mlp.fwd", i as u64);
        mlp.forward_into(&x, &mut out);
        tracer.exit(s);
        let t1 = tracer.now_ns();
        if backward {
            let s = tracer.enter("nn.mlp.bwd", i as u64);
            mlp.backward_into(&x, &g, &mut dx);
            tracer.exit(s);
        }
        let t2 = tracer.now_ns();
        if i >= WARMUP {
            fwd.push((t1 - t0) as f64 * 1e-3);
            bwd.push((t2 - t1) as f64 * 1e-3);
        }
    }
    std::hint::black_box((out.as_slice(), dx.as_slice()));
    let bwd_us = if backward { median(&mut bwd) } else { 0.0 };
    (median(&mut fwd), bwd_us)
}

/// GFLOP/s of the three matmul shapes of a dense layer `[m,k] x [k,n]`:
/// forward `A·B`, weight gradient `Aᵀ·G` and input gradient `G·Bᵀ`, on a
/// `threads`-wide pool with the active kernel backend. With `forward_only`
/// the gradient products report 0.
pub fn matmul_gflops(
    (m, k, n): (usize, usize, usize),
    threads: usize,
    calls: usize,
    forward_only: bool,
    tracer: &mut Tracer,
) -> [f64; 3] {
    let pool = Pool::new(threads);
    let a = Matrix::from_fn(m, k, |r, c| ((r * 3 + c) as f32 * 0.01).sin());
    let b = Matrix::from_fn(k, n, |r, c| ((r + 5 * c) as f32 * 0.01).cos());
    let g = Matrix::from_fn(m, n, |r, c| ((r * 11 + c) as f32 * 0.02).sin());
    let flops = 2.0 * (m * k * n) as f64;
    let mut time = |name: &'static str, f: &mut dyn FnMut()| {
        let mut ns = Vec::with_capacity(calls);
        for i in 0..calls + WARMUP {
            let t0 = tracer.now_ns();
            let s = tracer.enter(name, i as u64);
            f();
            tracer.exit(s);
            if i >= WARMUP {
                ns.push((tracer.now_ns() - t0) as f64);
            }
        }
        flops / median(&mut ns).max(1.0)
    };
    let mut out = Matrix::zeros(m, n);
    let mm = time("tensor.mm", &mut || {
        a.matmul_into_pooled(&b, &mut out, &pool)
    });
    if forward_only {
        return [mm, 0.0, 0.0];
    }
    let mut wgrad = Matrix::zeros(k, n);
    let atb = time("tensor.mm_atb", &mut || {
        wgrad.fill_zero();
        a.matmul_at_b_accumulate_pooled(&g, &mut wgrad, 1.0, &pool)
    });
    let mut xgrad = Matrix::zeros(m, k);
    let abt = time("tensor.mm_abt", &mut || {
        g.matmul_a_bt_into_pooled(&b, &mut xgrad, &pool)
    });
    std::hint::black_box((out.as_slice(), wgrad.as_slice(), xgrad.as_slice()));
    [mm, atb, abt]
}

/// The dense-layer twins of a model built from `cfg` with an MLP input of
/// `input_dim`: `mlp_twin` and `matmul_gflops` at the first hidden layer,
/// on `rows`-row batches. Records `nn.mlp.*` and `tensor.*` (backward and
/// gradient products only when `training`) and returns the forward µs.
#[allow(clippy::too_many_arguments)]
pub fn dense_twins(
    cfg: &OptInterConfig,
    input_dim: usize,
    rows: usize,
    threads: usize,
    calls: usize,
    training: bool,
    tracer: &mut Tracer,
    report: &mut Report,
) -> f64 {
    let mlp = MlpConfig {
        input_dim,
        hidden: cfg.hidden.clone(),
        output_dim: 1,
        layer_norm: cfg.layer_norm,
        ln_eps: 1e-5,
    };
    let (fwd, bwd) = mlp_twin(&mlp, rows, threads, calls, training, tracer);
    report.set("nn.mlp.fwd_us", fwd);
    report.set("nn.mlp.bwd_us", bwd);
    let first_hidden = cfg.hidden.first().copied().unwrap_or(1);
    let shape = (rows, input_dim, first_hidden);
    let [mm, atb, abt] = matmul_gflops(shape, threads, calls, !training, tracer);
    report.set("tensor.mm.gflops", mm);
    report.set("tensor.mm_atb.gflops", atb);
    report.set("tensor.mm_abt.gflops", abt);
    report.note("mlp_input_dim", input_dim);
    fwd
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_touched_counts_distinct_ids() {
        let a = [1u32, 1, 2, 3];
        let b = [9u32, 9];
        let full = (&a[..], &b[..]);
        assert_eq!(rows_touched(&[full, full, (&a[..1], &b[..1])]), 4.0);
    }

    #[test]
    fn twins_report_positive_times() {
        let mut t = Tracer::new(true, 1024);
        let spec = StoreSpec {
            kind: StoreKind::HashedQr { bucket: 16 },
            key_space: 200,
            dim: 4,
            mode: EmbedOptimizerMode::LazyCatchUp,
            lr: 1e-2,
            eps: 1e-8,
            l2: 0.0,
        };
        let steps: Vec<Vec<u32>> = (0..6)
            .map(|s| (0..24).map(|i| (i * 7 + s) % 200).collect())
            .collect();
        let spans = StoreSpans {
            lookup: "nn.embed_orig.lookup",
            grad: "nn.embed_orig.grad",
            apply: "nn.embed_orig.apply",
        };
        let st = store_twin(&spec, &steps, 3, 1, &spans, &mut t);
        assert!(st.lookup_us > 0.0 && st.grad_us > 0.0 && st.apply_us > 0.0);
        let cfg = MlpConfig::classifier(12, vec![8]);
        let (f, b) = mlp_twin(&cfg, 16, 1, 4, true, &mut t);
        assert!(f > 0.0 && b > 0.0);
        let g = matmul_gflops((16, 12, 8), 1, 4, false, &mut t);
        assert!(g.iter().all(|&x| x > 0.0));
        assert_eq!(t.durations("nn.embed_orig.lookup").len(), 6);
    }
}
