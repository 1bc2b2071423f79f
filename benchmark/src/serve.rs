//! The `serve_criteo` workload and its open-loop load driver.
//!
//! Set-up trains the oracle architecture for two epochs, freezes it, round
//! trips the artifact through bytes and loads a one-thread scorer. An
//! untraced run then alternates, in calibrated blocks, offline scoring
//! (32-row batches straight into `score_into`) and short phases of the
//! front door as a closed loop with one full batch in flight. A traced run
//! times `score_into` at 1 and 32 rows and one closed-loop phase, then
//! drives `microbatch::serve` from one spinning client thread on a fixed
//! schedule at each rate of a ladder. Latency runs from when a request was
//! due, not from when it was submitted, so generator stalls and submit
//! back-pressure count against it.

use crate::calib::{self, Meter, Scaled};
use crate::data;
use crate::layers;
use crate::registry::Report;
use crate::stats::{median, summarize, Summary};
use crate::trace::{ratio, BenchClock, Tracer, ROOT};
use crate::Sizes;
use optinter_bench::optinter_config;
use optinter_core::net::DataDims;
use optinter_core::{Architecture, OptInterNet};
use optinter_data::zipf::Zipf;
use optinter_data::{Batch, BatchIter, BatchStream, DatasetBundle, EncodedDataset, Profile};
use optinter_serve::{freeze, serve, Clock, FrozenModel, FrozenScorer, MicroBatchOptions, Quant};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};

/// Offered rates, in requests per second, in ladder order.
pub const LADDER: [u32; 6] = [5_000, 10_000, 20_000, 40_000, 80_000, 160_000];
/// Rates with per-layer metrics, and their metric-name suffixes.
const REPORTED: [(u32, &str); 4] = [
    (5_000, "r5k"),
    (10_000, "r10k"),
    (20_000, "r20k"),
    (40_000, "r40k"),
];
/// A request meets the SLO when done within this long of its due time.
pub const SLO_NS: u64 = 10_000_000;
/// A rate passes when this share of its planned requests meets the SLO
/// and none was refused.
pub const SLO_SHARE: f64 = 0.99;
/// The generator abandons a rate once it is this far behind schedule;
/// the requests it never sent count as refused.
pub const GIVE_UP_NS: u64 = 100_000_000;
/// Training epochs before freezing. The served model is trained, not
/// random, so the parity check compares informative scores and the served
/// test AUC means something.
const SERVE_EPOCHS: u64 = 2;
/// Zipf exponent of the request row popularity.
const ZIPF_S: f64 = 1.05;
/// Pre-sampled request rows; the generator cycles through them.
const ROW_SAMPLES: usize = 1 << 16;
/// Rows whose served probability must equal `OptInterNet::predict` bitwise.
const PARITY_ROWS: usize = 512;
/// Each traced phase (the closed loop and each ladder rate) measures for
/// this share of `--seconds`.
const PHASE_SHARE: f64 = 1.0 / 8.0;
/// Offline `score_into` calls per calibrated block: about 20 ms of work.
const OFFLINE_BLOCK: usize = 160;
/// Length of one untraced closed-loop phase, a calibrated block of its own.
const CLOSED_PHASE_S: f64 = 0.05;
/// Offline blocks per closed-loop phase, so both get about half the run.
const OFFLINE_PER_PHASE: usize = 2;
/// Request spans a traced run keeps per rate, evenly spaced, so the span
/// buffer holds every rate however far the ladder climbs.
const REQUEST_SPANS: usize = 20_000;
/// Requests the closed-loop client keeps in flight: one full batch.
const IN_FLIGHT: u64 = 32;
/// Upper bound on the closed-loop request rate, for reserving its
/// buffers; the phase ends early if the front door ever outruns it.
const MAX_RATE: f64 = 2e6;

/// Generator-side record of one sent request.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sent {
    /// When the schedule said to send it.
    pub due: u64,
    /// When the generator called `submit`.
    pub start: u64,
    /// When `submit` returned.
    pub end: u64,
}

/// Batcher-side record of the responses to one request id.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reply {
    /// `Response::submit_ns`.
    pub submit: u64,
    /// `Response::done_ns`: when its batch finished scoring.
    pub done: u64,
    pub prob: f32,
    /// Responses seen for the id (exactly one is correct).
    pub count: u32,
}

/// Everything measured at one offered rate.
#[derive(Debug, Clone, Copy)]
pub struct RateStats {
    pub rate: u32,
    pub planned: usize,
    pub sent: usize,
    /// Sent requests answered zero or several times or with a non-finite
    /// probability, plus answers to ids never sent.
    pub bad: usize,
    /// Due → done, µs.
    pub latency: Summary,
    /// `submit_ns` → done, µs.
    pub queue: Summary,
    /// Time blocked inside `submit`, µs.
    pub submit: Summary,
    /// How late the generator called `submit`, µs.
    pub late: Summary,
    /// Planned requests done within [`SLO_NS`] of their due time.
    pub slo_frac: f64,
    /// Mean requests per flush.
    pub batch_mean: f64,
    /// Answered requests per second, first submit to last done.
    pub rows_per_s: f64,
}

impl RateStats {
    /// Requests the generator never sent.
    pub fn refused(&self) -> usize {
        self.planned - self.sent
    }

    /// Whether the rate met the SLO with nothing refused or wrong.
    pub fn passes(&self) -> bool {
        self.refused() == 0 && self.bad == 0 && self.slo_frac >= SLO_SHARE
    }
}

/// Whether a generator at `now` is too far behind a request due at `due`.
pub fn gave_up(now: u64, due: u64) -> bool {
    now.saturating_sub(due) > GIVE_UP_NS
}

/// Summarizes one phase: `sent[k]` and `replies[k]` describe request `k`;
/// `replies` may be longer than `sent` (planned but never sent).
pub fn analyze(rate: u32, planned: usize, sent: &[Sent], replies: &[Reply]) -> RateStats {
    let n = sent.len();
    let (mut lat, mut queue, mut submit, mut late) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    let (mut bad, mut within, mut flushes) = (0usize, 0usize, 0usize);
    let (mut last_done, mut first_submit, mut final_done) = (None, u64::MAX, 0u64);
    for (s, r) in sent.iter().zip(replies) {
        if r.count != 1 || !r.prob.is_finite() {
            bad += 1;
            continue;
        }
        let latency = r.done.saturating_sub(s.due);
        within += usize::from(latency <= SLO_NS);
        lat.push(latency as f64 * 1e-3);
        queue.push(r.done.saturating_sub(r.submit) as f64 * 1e-3);
        submit.push(s.end.saturating_sub(s.start) as f64 * 1e-3);
        late.push(s.start.saturating_sub(s.due) as f64 * 1e-3);
        // One flush stamps every request it scored with one `done_ns`.
        if last_done != Some(r.done) {
            flushes += 1;
            last_done = Some(r.done);
        }
        first_submit = first_submit.min(r.submit);
        final_done = final_done.max(r.done);
    }
    bad += replies.iter().skip(n).filter(|r| r.count > 0).count();
    let answered = lat.len();
    RateStats {
        rate,
        planned,
        sent: n,
        bad,
        latency: summarize(&mut lat),
        queue: summarize(&mut queue),
        submit: summarize(&mut submit),
        late: summarize(&mut late),
        slo_frac: ratio(within as f64, planned as f64),
        batch_mean: ratio(answered as f64, flushes as f64),
        rows_per_s: ratio(
            answered as f64,
            final_done.saturating_sub(first_submit) as f64 * 1e-9,
        ),
    }
}

/// The next ladder rate to run after `done`, or `None` when the ladder is
/// over: it stops after the first failing rate.
pub fn next_rate(done: &[RateStats]) -> Option<u32> {
    let rate = *LADDER.get(done.len())?;
    done.iter().all(RateStats::passes).then_some(rate)
}

/// The highest ladder rate at and below which every rate passed.
pub fn knee(done: &[RateStats]) -> u32 {
    done.iter()
        .take_while(|r| r.passes())
        .last()
        .map_or(0, |r| r.rate)
}

/// How a load phase's client sends.
#[derive(Debug, Clone, Copy)]
enum Load {
    /// Open loop: one request every `1/rate` s, whatever the responses.
    Rate(u32),
    /// Closed loop: a new request whenever fewer than this many are in
    /// flight, like that many callers each waiting for its reply.
    InFlight(u64),
}

/// One load phase of `seconds`. Returns the sent records, the replies
/// indexed by request id and the planned request count.
fn drive(
    scorer: &mut FrozenScorer,
    data: &EncodedDataset,
    rows: &[usize],
    load: Load,
    seconds: f64,
    clock: &BenchClock,
) -> (Vec<Sent>, Vec<Reply>, usize) {
    let capacity = match load {
        Load::Rate(r) => ((r as f64 * seconds).round() as usize).max(1),
        Load::InFlight(_) => (MAX_RATE * seconds) as usize + 1,
    };
    let stop_ns = (seconds * 1e9) as u64;
    let answered = AtomicU64::new(0);
    // Reserved, not touched: only what is sent adds to the resident set.
    let mut sent = Vec::with_capacity(capacity);
    let mut responses = Vec::with_capacity(capacity);
    serve(
        scorer,
        clock,
        &MicroBatchOptions::default(),
        |mut submitter| {
            let t0 = clock.now_ns();
            for k in 0..capacity {
                let mut now = clock.now_ns();
                let due = match load {
                    Load::Rate(r) => t0 + (k as f64 * 1e9 / r as f64) as u64,
                    Load::InFlight(n) => {
                        while k as u64 - answered.load(Ordering::Relaxed) >= n && now - t0 < stop_ns
                        {
                            std::hint::spin_loop();
                            now = clock.now_ns();
                        }
                        if now - t0 >= stop_ns {
                            break;
                        }
                        now
                    }
                };
                while now < due {
                    std::hint::spin_loop();
                    now = clock.now_ns();
                }
                if gave_up(now, due) {
                    break;
                }
                let row = rows[k % rows.len()];
                if !submitter.submit(k as u64, data.row_fields(row), data.row_cross(row)) {
                    break;
                }
                sent.push(Sent {
                    due,
                    start: now,
                    end: clock.now_ns(),
                });
            }
        },
        |resp| {
            responses.push(resp);
            answered.fetch_add(1, Ordering::Relaxed);
        },
    );
    let planned = match load {
        Load::Rate(_) => capacity,
        Load::InFlight(_) => sent.len(),
    };
    let mut replies = vec![Reply::default(); planned];
    for resp in responses {
        // An answer to an id that was never planned is a wrong answer too.
        let at = match usize::try_from(resp.id) {
            Ok(at) if at < planned => at,
            _ => {
                replies.push(Reply::default());
                replies.len() - 1
            }
        };
        let r = &mut replies[at];
        r.count += 1;
        r.submit = resp.submit_ns;
        r.done = resp.done_ns;
        r.prob = resp.prob;
    }
    (sent, replies, planned)
}

/// A loaded model with the net it was frozen from and its dataset.
struct Served {
    bundle: DatasetBundle,
    net: OptInterNet,
    scorer: FrozenScorer,
    artifact_mb: f64,
    nonfinite_losses: usize,
}

/// Seconds spent in each part of one set-up.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    data: data::SetupTimes,
    train_s: f64,
    freeze_s: f64,
    load_s: f64,
}

/// One set-up; `meter` gets a block boundary between its steps and every
/// 20 ms of training.
fn setup(
    rows: usize,
    seed: u64,
    tracer: &mut Tracer,
    meter: &mut Meter,
) -> Result<(Served, SetupTimes), String> {
    let (bundle, data_times) = data::bundle(Profile::CriteoLike, rows, seed, tracer, meter);
    meter.split();
    let cfg = optinter_config(Profile::CriteoLike, seed, 1);
    let oracle = Architecture::oracle(&bundle.planted);
    let t0 = tracer.now_ns();
    let s = tracer.enter("serve.train", 0);
    let mut net = OptInterNet::new(cfg.clone(), DataDims::of(&bundle.data), oracle);
    let mut nonfinite_losses = 0;
    for epoch in 0..SERVE_EPOCHS {
        let shuffle = Some(cfg.seed.wrapping_add(epoch));
        BatchStream::new(
            &bundle.data,
            bundle.split.train.clone(),
            cfg.batch_size,
            shuffle,
        )
        .prefetch(cfg.prefetch)
        .for_each(|batch| {
            nonfinite_losses += usize::from(!net.train_batch(batch).is_finite());
            meter.tick();
        });
    }
    tracer.exit(s);
    let t1 = tracer.now_ns();
    meter.split();
    let s = tracer.enter("serve.freeze", 0);
    let model = freeze(&mut net, &bundle.data, Quant::F32);
    tracer.exit(s);
    let t2 = tracer.now_ns();
    meter.split();
    let s = tracer.enter("serve.load", 0);
    let bytes = model.to_bytes();
    let loaded = FrozenModel::from_bytes(&bytes).map_err(|e| format!("artifact decode: {e}"))?;
    let scorer = FrozenScorer::new(&loaded, 1).map_err(|e| format!("scorer load: {e}"))?;
    tracer.exit(s);
    let t3 = tracer.now_ns();
    let times = SetupTimes {
        data: data_times,
        train_s: (t1 - t0) as f64 * 1e-9,
        freeze_s: (t2 - t1) as f64 * 1e-9,
        load_s: (t3 - t2) as f64 * 1e-9,
    };
    let served = Served {
        bundle,
        net,
        scorer,
        artifact_mb: bytes.len() as f64 / 1e6,
        nonfinite_losses,
    };
    Ok((served, times))
}

/// Checks the served outputs and returns the test AUC of the serving path.
fn check_outputs(s: &mut Served, report: &mut Report) -> f64 {
    let data = &s.bundle.data;
    let test = s.bundle.split.test.clone();
    let n = PARITY_ROWS.min(test.len());
    let mut got = Vec::new();
    let parity = BatchIter::new(data, test.start..test.start + n, n.max(1), None)
        .next()
        .is_some_and(|batch| {
            let want = s.net.predict(&batch);
            s.scorer.score_into(&batch, &mut got).is_ok()
                && want.len() == got.len()
                && want
                    .iter()
                    .zip(&got)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        });
    report.check(
        format!("{n} served probabilities equal OptInterNet::predict bitwise"),
        parity,
    );
    let (mut probs, mut labels, mut errors) = (Vec::new(), Vec::new(), 0usize);
    for batch in BatchIter::new(data, test, 512, None) {
        match s.scorer.score_into(&batch, &mut got) {
            Ok(()) => {
                probs.extend_from_slice(&got);
                labels.extend_from_slice(&batch.labels);
            }
            Err(_) => errors += 1,
        }
    }
    report.check(
        "the test split scores without errors and every probability is finite",
        errors == 0 && probs.iter().all(|p| p.is_finite()),
    );
    report.check("set-up training losses are finite", s.nonfinite_losses == 0);
    optinter_metrics::auc(&probs, &labels)
}

/// Microseconds of each closed-loop `score_into` call on batches of
/// `batch_rows` Zipf rows: `calls` of them, or as many as fit in
/// `max_s` seconds. Batch assembly is not timed.
fn score_calls(
    s: &mut Served,
    rows: &[usize],
    batch_rows: usize,
    (calls, max_s): (usize, f64),
    name: &'static str,
    tracer: &mut Tracer,
) -> Vec<f64> {
    let data = &s.bundle.data;
    let (mut batch, mut out) = (Batch::empty(), Vec::new());
    let mut times = Vec::new();
    let stop = tracer
        .now_ns()
        .saturating_add((max_s * 1e9).min(u64::MAX as f64) as u64);
    for i in 0..calls {
        if tracer.now_ns() >= stop {
            break;
        }
        batch.begin(data.num_fields, data.num_pairs);
        for j in 0..batch_rows {
            let r = rows[(i * batch_rows + j) % rows.len()];
            batch.push_row(data.row_fields(r), data.row_cross(r), 0.0);
        }
        let t0 = tracer.now_ns();
        let span = tracer.enter(name, i as u64);
        let ok = s.scorer.score_into(&batch, &mut out).is_ok();
        tracer.exit(span);
        times.push(if ok {
            (tracer.now_ns() - t0) as f64 * 1e-3
        } else {
            f64::NAN
        });
    }
    std::hint::black_box(&out);
    times
}

/// Runs `serve_criteo`, untraced or traced as `tracer` is.
pub fn run(
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let traced = tracer.enabled();
    // Spans are raw times; the meter only calibrates end-to-end metrics.
    let mut meter = Meter::new(!traced);
    let setups = if traced { 1 } else { sizes.setups.max(1) };
    let mut totals = Vec::with_capacity(setups);
    let s = tracer.enter("setup", 0);
    meter.start();
    let (mut served, times) = setup(sizes.serve_rows, seed, tracer, &mut meter)?;
    totals.push(meter.stop());
    tracer.exit(s);
    for _ in 1..setups {
        drop(served); // free the previous set-up first
        meter.start();
        let (next, _) = setup(sizes.serve_rows, seed, tracer, &mut meter)?;
        totals.push(meter.stop());
        served = next;
    }
    let mut setup_s: Vec<f64> = totals.iter().map(|t| t.ref_s).collect();
    report.set("setup_s", median(&mut setup_s));
    report.set("data.generate_s", times.data.generate_s);
    report.set("data.encode_s", times.data.encode_s);
    report.set("serve.train_s", times.train_s);
    report.set("serve.freeze_s", times.freeze_s);
    report.set("serve.load_s", times.load_s);
    report.set("serve.artifact_mb", served.artifact_mb);

    let s = tracer.enter("serve.check", 0);
    let auc = check_outputs(&mut served, report);
    tracer.exit(s);
    report.set("quality.test_auc", auc);
    report.check(
        format!("served test_auc {auc:.5} >= {}", sizes.floors.serve_auc),
        auc >= sizes.floors.serve_auc,
    );

    let zipf = Zipf::new(served.bundle.data.len() as u32, ZIPF_S);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E_12E);
    let rows: Vec<usize> = (0..ROW_SAMPLES)
        .map(|_| zipf.sample(&mut rng) as usize)
        .collect();
    if traced {
        traced_phases(&mut served, &rows, seed, seconds, sizes, tracer, report)
    } else {
        report.note("setup_runs_s", calib::note(&totals));
        untraced_phases(&mut served, &rows, seconds, &mut meter, report)
    }
}

/// The untraced measurement: for `seconds`, [`OFFLINE_PER_PHASE`] blocks of
/// offline scoring, then one closed-loop phase through the front door, each
/// block scaled to the probe's reference speed.
fn untraced_phases(
    served: &mut Served,
    rows: &[usize],
    seconds: f64,
    meter: &mut Meter,
    report: &mut Report,
) -> Result<(), String> {
    let clock = BenchClock::new();
    let mut no_spans = Tracer::new(false, 0);
    let (mut offline, mut latency_us, mut phases) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut bad, mut offline_ok) = (0, 0, true);
    let start = std::time::Instant::now();
    while phases.is_empty() || start.elapsed().as_secs_f64() < seconds {
        for _ in 0..OFFLINE_PER_PHASE {
            let block = (OFFLINE_BLOCK, f64::INFINITY);
            let (us, t) = meter.time(|| score_calls(served, rows, 32, block, "", &mut no_spans));
            offline_ok &= us.iter().all(|t| t.is_finite());
            let busy_s = us.iter().sum::<f64>() * 1e-6 * t.factor();
            offline.push(32.0 * us.len() as f64 / busy_s);
        }
        let load = Load::InFlight(IN_FLIGHT);
        let data = &served.bundle.data;
        let ((sent, replies, planned), t) = meter.time(|| {
            drive(&mut served.scorer, data, rows, load, CLOSED_PHASE_S, &clock)
        });
        let phase = analyze(0, planned, &sent, &replies);
        attempted += phase.sent;
        bad += phase.bad;
        latency_us.push(phase.latency.p50 * t.factor());
        phases.push(t);
    }
    report.attempted = attempted as u64;
    report.failed = bad as u64;
    report.check("offline scoring calls succeed", offline_ok);
    report.check("every sent request got exactly one finite answer", bad == 0);
    let mut factors: Vec<f64> = phases.iter().map(Scaled::factor).collect();
    report.note("speed_factor", format!("{:.4}", median(&mut factors)));
    report.note(
        "blocks",
        format!("offline {} closed_loop {}", offline.len(), latency_us.len()),
    );
    report.set("rows_per_s", median(&mut offline));
    report.set("latency_ms", median(&mut latency_us) * 1e-3);
    report.set("peak_rss_mb", crate::peak_rss_mb()?);
    Ok(())
}

/// The traced phases: closed-loop `score_into`, the dense twins, one
/// closed-loop phase through the front door and the open-loop ladder.
fn traced_phases(
    served: &mut Served,
    rows: &[usize],
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let phase_s = seconds * PHASE_SHARE;
    let clock = tracer.clock();
    let calls = (sizes.score_calls, f64::INFINITY);
    let s = tracer.enter("serve.score", 0);
    let mut b1 = score_calls(served, rows, 1, calls, "serve.score.b1", tracer);
    let mut b32 = score_calls(served, rows, 32, calls, "serve.score.b32", tracer);
    // The same b32 calls without spans, for the tracing overhead.
    let plain = score_calls(served, rows, 32, calls, "", &mut Tracer::new(false, 0));
    tracer.exit(s);
    let spanned: f64 = b32.iter().sum();
    report.set(
        "trace.overhead_frac",
        ratio(spanned, plain.iter().sum()) - 1.0,
    );
    report.set("serve.score_us.b1", median(&mut b1));
    report.set("serve.score_us.b32", median(&mut b32));

    let s = tracer.enter("twins", 0);
    let input_dim = served.scorer.input_dim();
    let cfg = optinter_config(Profile::CriteoLike, seed, 1);
    let calls = sizes.twin_steps;
    layers::dense_twins(&cfg, input_dim, 32, 1, calls, false, tracer, report);
    tracer.exit(s);

    let s = tracer.enter("serve.closed_loop", 0);
    let load = Load::InFlight(IN_FLIGHT);
    let data = &served.bundle.data;
    let (sent, replies, planned) = drive(&mut served.scorer, data, rows, load, phase_s, &clock);
    tracer.exit(s);
    let closed = analyze(0, planned, &sent, &replies);
    report.set("serve.closed_rows_per_s", closed.rows_per_s);
    report.set("serve.closed_batch_mean", closed.batch_mean);
    let (mut attempted, mut bad) = (closed.sent, closed.bad);

    let mut ladder: Vec<RateStats> = Vec::new();
    while let Some(rate) = next_rate(&ladder) {
        let span = tracer.enter("serve.rate", u64::from(rate));
        let (sent, replies, planned) = drive(
            &mut served.scorer,
            data,
            rows,
            Load::Rate(rate),
            phase_s,
            &clock,
        );
        tracer.exit(span);
        if span != ROOT {
            let stride = sent.len().div_ceil(REQUEST_SPANS).max(1);
            for (k, (s, r)) in sent.iter().zip(&replies).enumerate().step_by(stride) {
                tracer.record_under(span, "serve.request", s.due, r.done.max(s.end), k as u64);
            }
        }
        let stats = analyze(rate, planned, &sent, &replies);
        attempted += stats.sent;
        bad += stats.bad;
        report.note(
            format!("rate {rate}"),
            format!(
                "sent {}/{} slo_frac {:.4} p50_us {:.1} batch_mean {:.2} {}",
                stats.sent,
                stats.planned,
                stats.slo_frac,
                stats.latency.p50,
                stats.batch_mean,
                if stats.passes() { "pass" } else { "fail" }
            ),
        );
        ladder.push(stats);
    }
    report.attempted = attempted as u64;
    report.failed = bad as u64;
    report.check("every sent request got exactly one finite answer", bad == 0);
    report.set("serve.max_rate_rps", f64::from(knee(&ladder)));
    for (rate, suffix) in REPORTED {
        let Some(r) = ladder.iter().find(|r| r.rate == rate) else {
            for m in [
                "lat_us.p50",
                "lat_us.tail",
                "lat_us.tail_pct",
                "slo_frac",
                "batch_mean",
                "queue_us.p50",
                "submit_us.tail",
                "gen_late_us.tail",
                "sent",
                "attempted",
            ] {
                report.set(&format!("serve.{m}.{suffix}"), 0.0);
            }
            continue;
        };
        report.set(&format!("serve.lat_us.p50.{suffix}"), r.latency.p50);
        report.set(&format!("serve.lat_us.tail.{suffix}"), r.latency.tail);
        report.set(
            &format!("serve.lat_us.tail_pct.{suffix}"),
            r.latency.tail_pct,
        );
        report.set(&format!("serve.slo_frac.{suffix}"), r.slo_frac);
        report.set(&format!("serve.batch_mean.{suffix}"), r.batch_mean);
        report.set(&format!("serve.queue_us.p50.{suffix}"), r.queue.p50);
        report.set(&format!("serve.submit_us.tail.{suffix}"), r.submit.tail);
        report.set(&format!("serve.gen_late_us.tail.{suffix}"), r.late.tail);
        report.set(&format!("serve.sent.{suffix}"), r.sent as f64);
        report.set(&format!("serve.attempted.{suffix}"), r.planned as f64);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    /// `n` requests due every 50 µs, answered `lat(k)` after their due
    /// time, flushed in groups of `group`.
    fn phase(n: usize, group: usize, lat: impl Fn(usize) -> u64) -> (Vec<Sent>, Vec<Reply>) {
        let sent: Vec<Sent> = (0..n)
            .map(|k| {
                let due = k as u64 * 50_000;
                Sent {
                    due,
                    start: due + 1_000,
                    end: due + 3_000,
                }
            })
            .collect();
        let replies = (0..n)
            .map(|k| {
                let last = (k / group + 1) * group - 1;
                Reply {
                    submit: sent[k].start + 500,
                    done: sent[last.min(n - 1)].due + lat(last),
                    prob: 0.5,
                    count: 1,
                }
            })
            .collect();
        (sent, replies)
    }

    #[test]
    fn on_time_phase_passes() {
        let (sent, replies) = phase(1000, 4, |_| MS);
        let s = analyze(20_000, 1000, &sent, &replies);
        assert!(s.passes());
        assert_eq!(s.slo_frac, 1.0);
        assert_eq!(s.batch_mean, 4.0);
        assert_eq!(s.submit.p50, 2.0);
        assert_eq!(s.late.p50, 1.0);
        assert_eq!(s.latency.n, 1000);
    }

    #[test]
    fn late_answers_miss_the_slo() {
        // 2 % of the requests finish 20 ms after they were due.
        let (sent, replies) = phase(1000, 1, |k| if k % 50 == 0 { 20 * MS } else { MS });
        let s = analyze(20_000, 1000, &sent, &replies);
        assert_eq!(s.slo_frac, 0.98);
        assert!(!s.passes());
    }

    #[test]
    fn refused_requests_count_as_misses() {
        let (sent, replies) = phase(1000, 1, |_| MS);
        let s = analyze(20_000, 1000, &sent[..995], &replies);
        assert_eq!((s.sent, s.refused()), (995, 5));
        assert_eq!(s.slo_frac, 0.995);
        assert!(
            !s.passes(),
            "refusals fail a rate even within the SLO share"
        );
    }

    #[test]
    fn missing_duplicate_and_nan_answers_are_bad() {
        let (sent, mut replies) = phase(100, 1, |_| MS);
        replies[3].count = 0;
        replies[4].count = 2;
        replies[5].prob = f32::NAN;
        let s = analyze(5_000, 100, &sent, &replies);
        assert_eq!(s.bad, 3);
        assert!(!s.passes());
        // An answer for an id that was never sent.
        let (sent, mut replies) = phase(100, 1, |_| MS);
        replies.push(Reply {
            count: 1,
            ..Reply::default()
        });
        assert_eq!(analyze(5_000, 101, &sent, &replies).bad, 1);
    }

    #[test]
    fn generator_gives_up_past_100_ms() {
        assert!(!gave_up(5, 10));
        assert!(!gave_up(GIVE_UP_NS + 10, 10));
        assert!(gave_up(GIVE_UP_NS + 11, 10));
    }

    fn stats(rate: u32, pass: bool) -> RateStats {
        let (sent, replies) = phase(100, 1, |_| if pass { MS } else { 20 * MS });
        analyze(rate, 100, &sent, &replies)
    }

    #[test]
    fn knee_is_the_last_rate_of_an_unbroken_passing_run() {
        let ladder: Vec<RateStats> = [
            (5_000, true),
            (10_000, true),
            (20_000, true),
            (40_000, false),
        ]
        .into_iter()
        .map(|(r, p)| stats(r, p))
        .collect();
        assert_eq!(knee(&ladder), 20_000);
        let broken = vec![stats(5_000, false), stats(10_000, true)];
        assert_eq!(knee(&broken), 0);
        assert_eq!(knee(&[]), 0);
    }

    #[test]
    fn ladder_stops_after_the_first_failure() {
        assert_eq!(next_rate(&[]), Some(5_000));
        assert_eq!(next_rate(&[stats(5_000, false)]), None);
        let passing: Vec<RateStats> = LADDER[..3].iter().map(|&r| stats(r, true)).collect();
        assert_eq!(next_rate(&passing), Some(40_000));
        let mut all: Vec<RateStats> = LADDER.iter().map(|&r| stats(r, true)).collect();
        assert_eq!(next_rate(&all), None);
        all.truncate(4);
        all[3] = stats(40_000, false);
        assert_eq!(next_rate(&all), None);
    }
}
