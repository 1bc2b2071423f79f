//! The three training workloads: `search_criteo`, `retrain_avazu` and
//! `giant_hashed`.
//!
//! Both modes call the stage a user calls (`joint_search_supernet` or
//! `train_fixed`) once, then replay its loop from the crates' public calls
//! and check that the replay reproduces the stage's output bitwise. An
//! untraced run replays the stage again and again for `--seconds` with a
//! [`Meter`] ticking between steps, and after each replay times the
//! trained model's `predict`; it reports both at the probe's reference
//! speed. A traced run replays once with a span around each call, then
//! times the layer twins.

use crate::calib::{self, Meter, Scaled};
use crate::data;
use crate::layers::{self, StoreSpans, StoreSpec, StoreTimes};
use crate::registry::{Report, Workload};
use crate::stats::{median, summarize};
use crate::trace::{ratio, Tracer};
use crate::Sizes;
use optinter_bench::optinter_config;
use optinter_core::net::DataDims;
use optinter_core::trainer::evaluate_supernet;
use optinter_core::{
    evaluate_net, joint_search_supernet, train_fixed, Architecture, Method, OptInterConfig,
    OptInterNet, Supernet,
};
use optinter_data::{Batch, BatchIter, BatchStream, DatasetBundle, Profile};
use optinter_metrics::EvalResult;
use optinter_nn::{bce_with_logits, EmbedOptimizerMode, StoreKind};
use std::time::Instant;

/// Search epochs, as in the paper's two-stage pipeline.
const SEARCH_EPOCHS: usize = 2;

/// Retrain budget. `train_fixed` stops early only after two epochs without
/// a validation gain, so a three-epoch budget always trains all three:
/// rows/s then does not depend on when early stopping fires.
const RETRAIN_EPOCHS: usize = 3;

/// Replays an untraced run makes at least, so every run checks that a
/// repeated replay reproduces the stage bitwise.
const MIN_REPLAYS: usize = 2;

/// Shift `train_fixed` adds to the seed to shuffle each epoch.
const RETRAIN_SHUFFLE: u64 = 0x5EED;

/// After each replay, the trained model predicts test batches for this
/// share of the replay's wall time; `latency_ms` comes from those calls.
const PREDICT_SHARE: f64 = 0.2;

/// Full test batches the prediction calls cycle through.
const PREDICT_BATCHES: usize = 64;

/// `predict` calls per calibrated block: 7-25 ms of work.
const PREDICT_BLOCK: usize = 32;

/// Dataset and quality floor of one training workload.
struct Plan {
    profile: Profile,
    rows: usize,
    auc_floor: f64,
}

fn plan(w: Workload, sizes: &Sizes) -> Plan {
    let (profile, rows, auc_floor) = match w {
        Workload::SearchCriteo => (
            Profile::CriteoLike,
            sizes.search_rows,
            sizes.floors.search_auc,
        ),
        Workload::RetrainAvazu => (
            Profile::AvazuLike,
            sizes.retrain_rows,
            sizes.floors.retrain_auc,
        ),
        _ => (
            Profile::GiantVocab,
            sizes.giant_rows,
            sizes.floors.giant_auc,
        ),
    };
    Plan {
        profile,
        rows,
        auc_floor,
    }
}

/// Compute threads of a training workload. On the 2-vCPU host the
/// benchmark was built on, the two vCPUs share one core's vector units: a
/// second thread made the search no faster and its timings several times
/// noisier (see the README), so every workload computes on one thread.
pub const THREADS: usize = 1;

/// Model settings for `w` (the profile's `optinter_config`, plus the
/// workload's epochs and stores) and the planted oracle architecture.
fn configure(
    w: Workload,
    p: &Plan,
    bundle: &DatasetBundle,
    seed: u64,
) -> (OptInterConfig, Architecture) {
    let mut cfg = optinter_config(p.profile, seed, THREADS);
    let oracle = Architecture::oracle(&bundle.planted);
    cfg.search_epochs = SEARCH_EPOCHS;
    cfg.retrain_epochs = RETRAIN_EPOCHS;
    if w == Workload::GiantHashed {
        // The bucket sizing of perf's `train_step@1e7` row: about six
        // times fewer resident rows than the materialized vocabularies.
        let dims = DataDims::of(&bundle.data);
        let compact = compact_cross_rows(&dims, &oracle);
        cfg = cfg
            .with_stores(
                StoreKind::HashedQr {
                    bucket: (dims.orig_vocab / 6).max(1),
                },
                StoreKind::HashedQr {
                    bucket: (compact / 6).max(1),
                },
            )
            .with_embed_opt(EmbedOptimizerMode::LazyCatchUp);
    }
    (cfg, oracle)
}

fn memorized(arch: &Architecture) -> impl Iterator<Item = usize> + '_ {
    arch.pairs_with(Method::Memorize).into_iter()
}

/// Rows of `OptInterNet`'s compact cross table: the memorized pairs'
/// vocabularies.
fn compact_cross_rows(dims: &DataDims, arch: &Architecture) -> u32 {
    memorized(arch).map(|p| dims.pair_vocab_sizes[p]).sum()
}

/// What a stage produced; compared bitwise across calls and with the replay.
#[derive(Debug, Clone)]
struct Outcome {
    arch: Architecture,
    final_loss: f32,
    auc: f64,
    log_loss: f64,
}

impl Outcome {
    fn same(&self, o: &Outcome) -> bool {
        self.arch == o.arch
            && self.final_loss.to_bits() == o.final_loss.to_bits()
            && self.auc.to_bits() == o.auc.to_bits()
            && self.log_loss.to_bits() == o.log_loss.to_bits()
    }

    fn finite(&self) -> bool {
        self.final_loss.is_finite() && self.auc.is_finite() && self.log_loss.is_finite()
    }
}

/// The test AUC the search stage is judged by: the trained supernet's
/// soft architecture at the final temperature (paper Table IX, without
/// re-train).
fn supernet_eval(net: &mut Supernet, bundle: &DatasetBundle, cfg: &OptInterConfig) -> EvalResult {
    let test = bundle.split.test.clone();
    evaluate_supernet(net, bundle, test, cfg.batch_size, cfg.tau.at(1.0))
}

/// The `predict` of the model a replay trained (the supernet at its final
/// temperature).
type Predict = Box<dyn FnMut(&Batch) -> Vec<f32>>;

/// One call of the library stage: its outcome and wall time (the search's
/// evaluation is not timed).
fn library_stage(
    w: Workload,
    bundle: &DatasetBundle,
    cfg: &OptInterConfig,
    oracle: &Architecture,
) -> (Outcome, f64) {
    let t0 = Instant::now();
    if w == Workload::SearchCriteo {
        let (mut net, out) = joint_search_supernet(bundle, cfg);
        let wall = t0.elapsed().as_secs_f64();
        let ev = supernet_eval(&mut net, bundle, cfg);
        let outcome = Outcome {
            arch: out.architecture,
            final_loss: out.final_loss,
            auc: ev.auc,
            log_loss: ev.log_loss,
        };
        (outcome, wall)
    } else {
        let (_, report) = train_fixed(bundle, cfg, oracle.clone());
        let wall = t0.elapsed().as_secs_f64();
        let outcome = Outcome {
            arch: report.architecture.unwrap_or_else(|| oracle.clone()),
            final_loss: report.final_train_loss,
            auc: report.auc,
            log_loss: report.log_loss,
        };
        (outcome, wall)
    }
}

/// Replays the stage of workload `w`.
fn replay(
    w: Workload,
    bundle: &DatasetBundle,
    cfg: &OptInterConfig,
    oracle: &Architecture,
    tracer: &mut Tracer,
    meter: &mut Meter,
) -> (Replay, Predict) {
    if w == Workload::SearchCriteo {
        replay_search(bundle, cfg, tracer, meter)
    } else {
        replay_fixed(bundle, cfg, oracle, tracer, meter)
    }
}

/// Times `predict` on `batches`, in turn, in calibrated blocks of
/// [`PREDICT_BLOCK`] calls for `budget_s` seconds (at least one block),
/// appending each block's reference-speed milliseconds per call to `ms`.
/// Returns the calls whose probabilities were not all finite.
fn time_predictions(
    predict: &mut Predict,
    batches: &[Batch],
    budget_s: f64,
    meter: &mut Meter,
    ms: &mut Vec<f64>,
) -> u64 {
    let start = Instant::now();
    let mut batches = batches.iter().cycle();
    let mut bad = 0;
    loop {
        let (nonfinite, t) = meter.time(|| {
            batches
                .by_ref()
                .take(PREDICT_BLOCK)
                .map(|b| u64::from(!predict(b).iter().all(|p| p.is_finite())))
                .sum::<u64>()
        });
        bad += nonfinite;
        ms.push(t.ref_s * 1e3 / PREDICT_BLOCK as f64);
        if start.elapsed().as_secs_f64() >= budget_s {
            return bad;
        }
    }
}

/// Runs training workload `w`, untraced or traced as `tracer` is.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let p = plan(w, sizes);
    let (outcome, bundle) = if tracer.enabled() {
        traced(w, &p, seed, sizes, tracer, report)
    } else {
        untraced(w, &p, seed, seconds, sizes, report)
    };
    report.set("quality.test_auc", outcome.auc);
    report.check(
        format!("test_auc {:.5} >= {}", outcome.auc, p.auc_floor),
        outcome.auc >= p.auc_floor,
    );
    report.note("final_loss", outcome.final_loss);
    report.note("architecture", outcome.arch.counts_string());
    if w == Workload::SearchCriteo {
        // Reported, not gated: across seeds it spans 0.35-0.58 at this
        // size, so no floor separates a broken search from chance (1/3).
        let agreement = outcome.arch.agreement_with(&bundle.planted);
        report.set("quality.arch_agreement", agreement);
        report.note("arch_agreement", agreement);
    }
}

fn untraced(
    w: Workload,
    p: &Plan,
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
    report: &mut Report,
) -> (Outcome, DatasetBundle) {
    let mut tracer = Tracer::new(false, 0);
    let mut meter = Meter::new(true);
    let mut setups = Vec::with_capacity(sizes.setups);
    let mut setup = |meter: &mut Meter| {
        meter.start();
        let (b, _) = data::bundle(p.profile, p.rows, seed, &mut tracer, meter);
        setups.push(meter.stop());
        b
    };
    let mut bundle = setup(&mut meter);
    for _ in 1..sizes.setups {
        drop(bundle); // free the previous set-up's data first
        bundle = setup(&mut meter);
    }
    let (cfg, oracle) = configure(w, p, &bundle, seed);
    let test = bundle.split.test.clone();
    let predict_batches: Vec<Batch> = BatchIter::new(&bundle.data, test, cfg.batch_size, None)
        .filter(|b| b.len() == cfg.batch_size)
        .take(PREDICT_BATCHES)
        .collect();
    // The library call counts against `--seconds` but is not calibrated:
    // it is the reference every replay must reproduce.
    let start = Instant::now();
    let (library, library_s) = library_stage(w, &bundle, &cfg, &oracle);

    // One round: a replay, then the model it trained predicts. The model
    // is dropped before the next round trains another.
    let (mut predict_ms, mut bad_predictions) = (Vec::new(), 0u64);
    let mut round = |meter: &mut Meter| {
        let t0 = Instant::now();
        let (r, mut predict) = replay(w, &bundle, &cfg, &oracle, &mut tracer, meter);
        let budget = r.epoch_times.iter().map(|t| t.raw_s).sum::<f64>() * PREDICT_SHARE;
        bad_predictions +=
            time_predictions(&mut predict, &predict_batches, budget, meter, &mut predict_ms);
        (r, t0.elapsed().as_secs_f64())
    };
    let (mut epochs, mut replays, mut longest, mut failed) = (Vec::new(), 0, 0.0f64, 0u64);
    while replays < MIN_REPLAYS || start.elapsed().as_secs_f64() + longest <= seconds {
        let (r, round_s) = round(&mut meter);
        longest = longest.max(round_s);
        epochs.extend(r.epoch_times);
        replays += 1;
        failed += u64::from(!r.outcome.finite() || !r.outcome.same(&library));
    }
    report.attempted = replays as u64;
    report.failed = failed;
    report.check(
        "every replay reproduces the library stage bitwise and is finite",
        failed == 0,
    );
    report.check(
        "the trained model predicts finite probabilities on full test batches",
        bad_predictions == 0,
    );
    report.note("library_stage_s", format!("{library_s:.3}"));
    report.note("epoch_s", calib::note(&epochs));
    report.note("setup_runs_s", calib::note(&setups));
    let mut epoch_s: Vec<f64> = epochs.iter().map(|s| s.ref_s).collect();
    let mut factors: Vec<f64> = epochs.iter().map(Scaled::factor).collect();
    report.note("speed_factor", format!("{:.4}", median(&mut factors)));
    let mut setup_s: Vec<f64> = setups.iter().map(|s| s.ref_s).collect();
    report.set("setup_s", median(&mut setup_s));
    let rows = bundle.split.train.len() as f64;
    report.set("rows_per_s", rows / median(&mut epoch_s));
    report.note("predict_blocks", predict_ms.len());
    report.set("latency_ms", median(&mut predict_ms));
    match crate::peak_rss_mb() {
        Ok(mb) => report.set("peak_rss_mb", mb),
        Err(e) => report.check(e, false),
    }
    (library, bundle)
}

fn traced(
    w: Workload,
    p: &Plan,
    seed: u64,
    sizes: &Sizes,
    tracer: &mut Tracer,
    report: &mut Report,
) -> (Outcome, DatasetBundle) {
    // Spans are raw times; the meter only calibrates end-to-end metrics.
    let mut meter = Meter::new(false);
    let s = tracer.enter("setup", 0);
    let (bundle, times) = data::bundle(p.profile, p.rows, seed, tracer, &mut meter);
    let (cfg, oracle) = configure(w, p, &bundle, seed);
    tracer.exit(s);
    report.set("data.generate_s", times.generate_s);
    report.set("data.encode_s", times.encode_s);

    let s = tracer.enter("stage.library", 0);
    let (library, _) = library_stage(w, &bundle, &cfg, &oracle);
    tracer.exit(s);
    let s = tracer.enter("stage.replay", 0);
    let (replay, _) = replay(w, &bundle, &cfg, &oracle, tracer, &mut meter);
    tracer.exit(s);
    report.check(
        "traced replay reproduces the stage's architecture, loss and AUC bitwise",
        replay.outcome.same(&library),
    );
    report.attempted = replay.steps;
    report.failed = replay.nonfinite;
    report.check(
        "every replayed step has a finite loss",
        replay.nonfinite == 0,
    );

    let s = tracer.enter("twins", 0);
    let (orig, cross, mlp_fwd) = twins(w, &bundle, &cfg, &oracle, sizes, tracer, report);
    tracer.exit(s);

    let us =
        |name: &str| -> Vec<f64> { tracer.durations(name).iter().map(|ns| ns * 1e-3).collect() };
    let step = summarize(&mut us("core.step"));
    let forward = median(&mut us("core.forward"));
    report.set("core.step_us.p50", step.p50);
    report.set("core.step_us.tail", step.tail);
    report.set("core.step_us.tail_pct", step.tail_pct);
    report.set("core.forward_us.p50", forward);
    report.set("core.backward_us.p50", median(&mut us("core.backward")));
    report.set("core.arch_step_us.p50", median(&mut us("core.arch_step")));
    report.set("nn.loss_us.p50", median(&mut us("nn.loss")));
    report.set("nn.optim_us.p50", median(&mut us("nn.optim")));
    report.set(
        "core.combine_fwd_est_us",
        forward - orig.lookup_us - cross.lookup_us - mlp_fwd,
    );
    let step_total = tracer.total("core.step");
    report.set(
        "core.forward_share",
        ratio(tracer.total("core.forward"), step_total),
    );
    report.set(
        "core.backward_share",
        ratio(tracer.total("core.backward"), step_total),
    );
    report.set(
        "nn.optim_share",
        ratio(tracer.total("nn.optim"), step_total),
    );
    let wait = tracer.total("data.batch_wait");
    report.set("data.batch_wait_share", ratio(wait, wait + step_total));
    let eval = tracer.total("core.eval");
    report.set(
        "core.eval_rows_per_s",
        ratio(replay.eval_rows as f64, eval * 1e-9),
    );
    report.set("core.eval_share", ratio(eval, tracer.total("stage.replay")));
    report.set("core.steps", replay.steps as f64);
    report.set("core.epochs", replay.epochs as f64);
    let step_self = tracer.self_time("core.step");
    report.set("trace.step_coverage", 1.0 - ratio(step_self, step_total));
    report.set(
        "trace.overhead_frac",
        ratio(tracer.total("stage.replay"), tracer.total("stage.library")) - 1.0,
    );
    (library, bundle)
}

/// Counters, outcome and time of a replayed stage.
struct Replay {
    outcome: Outcome,
    steps: u64,
    epochs: u64,
    nonfinite: u64,
    eval_rows: u64,
    /// Each epoch's training (and, for `train_fixed`, evaluation) time,
    /// as the meter saw it; zeros when the meter is off.
    epoch_times: Vec<Scaled>,
}

/// `joint_search_supernet` from public calls: the same batch seeds and
/// temperature schedule. Traced, `Supernet::train_batch` is split into its
/// calls, each in a span.
fn replay_search(
    bundle: &DatasetBundle,
    cfg: &OptInterConfig,
    tracer: &mut Tracer,
    meter: &mut Meter,
) -> (Replay, Predict) {
    let data = &bundle.data;
    let train = bundle.split.train.clone();
    let mut net = Supernet::new(cfg.clone(), DataDims::of(data));
    let epochs = cfg.search_epochs.max(1);
    let total =
        (BatchIter::new(data, train.clone(), cfg.batch_size, None).num_batches() * epochs).max(1);
    let (mut seen, mut nonfinite, mut final_loss) = (0usize, 0u64, 0.0f32);
    let mut epoch_times = Vec::with_capacity(epochs);
    for epoch in 0..epochs {
        meter.start();
        let ep = tracer.enter("core.epoch", epoch as u64);
        let (mut epoch_loss, mut count) = (0.0f32, 0usize);
        let mut ready = tracer.now_ns();
        let shuffle = Some(cfg.seed.wrapping_add(epoch as u64));
        BatchStream::new(data, train.clone(), cfg.batch_size, shuffle)
            .prefetch(cfg.prefetch)
            .for_each(|batch| {
                let id = seen as u64;
                let tau = cfg.tau.at(seen as f32 / total as f32);
                let loss = if tracer.enabled() {
                    let now = tracer.now_ns();
                    tracer.record("data.batch_wait", ready, now, id);
                    let step = tracer.enter("core.step", id);
                    let s = tracer.enter("core.forward", id);
                    let logits = net.forward(batch, tau, true);
                    tracer.exit(s);
                    let s = tracer.enter("nn.loss", id);
                    let (loss, grad) = bce_with_logits(&logits, &batch.labels);
                    tracer.exit(s);
                    let s = tracer.enter("core.backward", id);
                    net.backward(batch, &grad);
                    tracer.exit(s);
                    let s = tracer.enter("nn.optim", id);
                    net.step_weights();
                    tracer.exit(s);
                    let s = tracer.enter("core.arch_step", id);
                    net.step_arch();
                    tracer.exit(s);
                    tracer.exit(step);
                    loss
                } else {
                    net.train_batch(batch, tau)
                };
                nonfinite += u64::from(!loss.is_finite());
                epoch_loss += loss;
                seen += 1;
                count += 1;
                meter.tick();
                ready = tracer.now_ns();
            });
        final_loss = epoch_loss / count.max(1) as f32;
        tracer.exit(ep);
        epoch_times.push(meter.stop());
    }
    let arch = net.extract_architecture();
    let s = tracer.enter("core.eval", 0);
    let ev = supernet_eval(&mut net, bundle, cfg);
    tracer.exit(s);
    let tau = cfg.tau.at(1.0);
    let replay = Replay {
        outcome: Outcome {
            arch,
            final_loss,
            auc: ev.auc,
            log_loss: ev.log_loss,
        },
        steps: seen as u64,
        epochs: epochs as u64,
        nonfinite,
        eval_rows: bundle.split.test.len() as u64,
        epoch_times,
    };
    (replay, Box::new(move |b| net.predict(b, tau)))
}

/// `train_fixed` from public calls: the same batch seeds, early stopping
/// and `evaluate_net` calls. Traced, `OptInterNet::train_batch` is split
/// into its calls, each in a span.
fn replay_fixed(
    bundle: &DatasetBundle,
    cfg: &OptInterConfig,
    oracle: &Architecture,
    tracer: &mut Tracer,
    meter: &mut Meter,
) -> (Replay, Predict) {
    let data = &bundle.data;
    let mut net = OptInterNet::new(cfg.clone(), DataDims::of(data), oracle.clone());
    let (mut steps, mut epochs, mut nonfinite, mut eval_rows) = (0u64, 0u64, 0u64, 0u64);
    let mut final_loss = 0.0f32;
    let mut best_val = f64::NEG_INFINITY;
    let mut best_test = None;
    let mut since_best = 0usize;
    let mut epoch_times = Vec::with_capacity(cfg.retrain_epochs);
    for epoch in 0..cfg.retrain_epochs.max(1) {
        meter.start();
        let ep = tracer.enter("core.epoch", epoch as u64);
        let (mut epoch_loss, mut count) = (0.0f32, 0usize);
        let mut ready = tracer.now_ns();
        let shuffle = Some(cfg.seed.wrapping_add(RETRAIN_SHUFFLE + epoch as u64));
        BatchStream::new(data, bundle.split.train.clone(), cfg.batch_size, shuffle)
            .prefetch(cfg.prefetch)
            .for_each(|batch| {
                let id = steps;
                let loss = if tracer.enabled() {
                    let now = tracer.now_ns();
                    tracer.record("data.batch_wait", ready, now, id);
                    let step = tracer.enter("core.step", id);
                    let s = tracer.enter("core.forward", id);
                    let logits = net.forward(batch);
                    tracer.exit(s);
                    let s = tracer.enter("nn.loss", id);
                    let (loss, grad) = bce_with_logits(&logits, &batch.labels);
                    tracer.exit(s);
                    let s = tracer.enter("core.backward", id);
                    net.backward(batch, &grad);
                    tracer.exit(s);
                    let s = tracer.enter("nn.optim", id);
                    net.step();
                    tracer.exit(s);
                    tracer.exit(step);
                    loss
                } else {
                    net.train_batch(batch)
                };
                nonfinite += u64::from(!loss.is_finite());
                epoch_loss += loss;
                steps += 1;
                count += 1;
                meter.tick();
                ready = tracer.now_ns();
            });
        final_loss = epoch_loss / count.max(1) as f32;
        epochs += 1;
        let val = timed_eval(&mut net, bundle, bundle.split.val.clone(), cfg, tracer);
        eval_rows += bundle.split.val.len() as u64;
        let mut stop = false;
        if val.auc > best_val {
            best_val = val.auc;
            let test = bundle.split.test.clone();
            best_test = Some(timed_eval(&mut net, bundle, test, cfg, tracer));
            eval_rows += bundle.split.test.len() as u64;
            since_best = 0;
        } else {
            since_best += 1;
            stop = since_best >= 2;
        }
        tracer.exit(ep);
        epoch_times.push(meter.stop());
        if stop {
            break;
        }
    }
    let ev = match best_test {
        Some(ev) => ev,
        None => {
            eval_rows += bundle.split.test.len() as u64;
            timed_eval(&mut net, bundle, bundle.split.test.clone(), cfg, tracer)
        }
    };
    let replay = Replay {
        outcome: Outcome {
            arch: net.architecture().clone(),
            final_loss,
            auc: ev.auc,
            log_loss: ev.log_loss,
        },
        steps,
        epochs,
        nonfinite,
        eval_rows,
        epoch_times,
    };
    (replay, Box::new(move |b| net.predict(b)))
}

/// `evaluate_net` inside a `core.eval` span.
fn timed_eval(
    net: &mut OptInterNet,
    bundle: &DatasetBundle,
    range: std::ops::Range<usize>,
    cfg: &OptInterConfig,
    tracer: &mut Tracer,
) -> EvalResult {
    let s = tracer.enter("core.eval", range.start as u64);
    let r = evaluate_net(net, bundle, range, cfg.batch_size);
    tracer.exit(s);
    r
}

/// Compact cross-table ids of the memorized pairs of `batch`, as
/// `OptInterNet` looks them up: memorized pairs' vocabularies laid end to
/// end in pair order.
fn compact_cross_ids(batch: &Batch, dims: &DataDims, arch: &Architecture) -> Vec<u32> {
    let mut offsets = Vec::new();
    let mut next = 0u32;
    for p in memorized(arch) {
        offsets.push((p, next));
        next += dims.pair_vocab_sizes[p];
    }
    let mut ids = Vec::with_capacity(batch.len() * offsets.len());
    for r in 0..batch.len() {
        let row = &batch.cross[r * dims.num_pairs..(r + 1) * dims.num_pairs];
        for &(p, base) in &offsets {
            ids.push(base + row[p] - dims.pair_offsets[p]);
        }
    }
    ids
}

/// Times the embedding, MLP and matmul twins on the workload's first
/// epoch batches; returns both stores' times and the MLP forward time.
fn twins(
    w: Workload,
    bundle: &DatasetBundle,
    cfg: &OptInterConfig,
    oracle: &Architecture,
    sizes: &Sizes,
    tracer: &mut Tracer,
    report: &mut Report,
) -> (StoreTimes, StoreTimes, f64) {
    let data = &bundle.data;
    let dims = DataDims::of(data);
    let bs = cfg.batch_size;
    let shuffle = if w == Workload::SearchCriteo {
        cfg.seed
    } else {
        cfg.seed.wrapping_add(RETRAIN_SHUFFLE)
    };
    let batches: Vec<Batch> = BatchIter::new(data, bundle.split.train.clone(), bs, Some(shuffle))
        .filter(|b| b.len() == bs)
        .take(sizes.twin_steps)
        .collect();
    let search = w == Workload::SearchCriteo;
    let (cross_fields, cross_keys) = if search {
        (dims.num_pairs, dims.cross_vocab as usize)
    } else {
        let compact = compact_cross_rows(&dims, oracle);
        (memorized(oracle).count(), compact.max(1) as usize)
    };
    let orig_ids: Vec<Vec<u32>> = batches.iter().map(|b| b.fields.clone()).collect();
    let cross_ids: Vec<Vec<u32>> = batches
        .iter()
        .map(|b| {
            if search {
                b.cross.clone()
            } else {
                compact_cross_ids(b, &dims, oracle)
            }
        })
        .collect();
    let store = |kind, key_space, dim, lr, l2| StoreSpec {
        kind,
        key_space,
        dim,
        mode: cfg.embed_opt,
        lr,
        eps: cfg.adam_eps,
        l2,
    };
    let orig_spec = store(
        cfg.orig_store,
        dims.orig_vocab as usize,
        cfg.orig_dim,
        cfg.lr,
        cfg.l2_orig,
    );
    let cross_spec = store(
        cfg.cross_store,
        cross_keys,
        cfg.cross_dim,
        cfg.lr_cross,
        cfg.l2_cross,
    );
    let orig_spans = StoreSpans {
        lookup: "nn.embed_orig.lookup",
        grad: "nn.embed_orig.grad",
        apply: "nn.embed_orig.apply",
    };
    let cross_spans = StoreSpans {
        lookup: "nn.embed_cross.lookup",
        grad: "nn.embed_cross.grad",
        apply: "nn.embed_cross.apply",
    };
    let orig = layers::store_twin(
        &orig_spec,
        &orig_ids,
        dims.num_fields,
        THREADS,
        &orig_spans,
        tracer,
    );
    let cross = layers::store_twin(
        &cross_spec,
        &cross_ids,
        cross_fields,
        THREADS,
        &cross_spans,
        tracer,
    );
    for (prefix, t) in [("nn.embed_orig", orig), ("nn.embed_cross", cross)] {
        report.set(&format!("{prefix}.lookup_us"), t.lookup_us);
        report.set(&format!("{prefix}.grad_us"), t.grad_us);
        report.set(&format!("{prefix}.apply_us"), t.apply_us);
    }
    let touched: Vec<(&[u32], &[u32])> = orig_ids
        .iter()
        .zip(&cross_ids)
        .map(|(a, b)| (a.as_slice(), b.as_slice()))
        .collect();
    report.set("nn.embed.rows_touched", layers::rows_touched(&touched));

    let s1 = cfg.orig_dim;
    let input_dim = if search {
        dims.num_fields * s1 + dims.num_pairs * cfg.mixed_dim()
    } else {
        let [m, f, _] = oracle.counts();
        dims.num_fields * s1 + m * cfg.cross_dim + f * s1
    };
    let calls = sizes.twin_steps;
    let fwd = layers::dense_twins(cfg, input_dim, bs, THREADS, calls, true, tracer, report);
    (orig, cross, fwd)
}
