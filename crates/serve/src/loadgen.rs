//! Synthetic open-loop load generator for the serving path.
//!
//! Requests replay rows of an encoded dataset with Zipf-hot row
//! selection (row 0 hottest), which — combined with the freezer's
//! hot-first arena — concentrates embedding reads in the first pages of
//! the table, the access pattern a production CTR serving tier sees.
//! Arrivals are open-loop: with `interarrival_ns > 0` the generator
//! submits on a fixed schedule regardless of completions (backpressure
//! only at the bounded queue), with `0` it saturates.

use crate::clock::Clock;
use crate::microbatch::{serve, MicroBatchOptions};
use crate::scorer::FrozenScorer;
use optinter_data::zipf::Zipf;
use optinter_data::EncodedDataset;
use optinter_tensor::stats::percentile_sorted;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Load-generation parameters.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Total requests to submit.
    pub requests: usize,
    /// Zipf exponent over dataset row indices (0 = uniform).
    pub zipf_s: f64,
    /// Row-sampling seed.
    pub seed: u64,
    /// Fixed inter-arrival gap; 0 submits as fast as the queue accepts.
    /// Requires a clock that advances on its own ([`crate::clock::MonotonicClock`]).
    pub interarrival_ns: u64,
}

/// Everything the generator observed.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Per-response latency (submit → batch scored) of every scored
    /// request, response order.
    pub latencies_ns: Vec<u64>,
    /// Requests the front door answered with NaN: it could not score them
    /// (ids outside the model's key spaces, a malformed row).
    pub failed: usize,
    /// Earliest submit timestamp.
    pub first_submit_ns: u64,
    /// Latest completion timestamp.
    pub last_done_ns: u64,
}

/// Latency percentiles + throughput, the numbers
/// `results/BENCH_substrate.json` records.
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    /// Number of scored requests.
    pub count: usize,
    /// Number of requests answered with NaN.
    pub failed: usize,
    /// Median latency in nanoseconds.
    pub p50_ns: f64,
    /// 99th-percentile latency.
    pub p99_ns: f64,
    /// 99.9th-percentile latency.
    pub p999_ns: f64,
    /// Scored requests per second over the whole run.
    pub rows_per_sec: f64,
}

impl LoadReport {
    /// Summarizes the run (nearest-rank percentiles, NaN when no request
    /// was scored).
    pub fn summary(&self) -> LatencySummary {
        let mut xs: Vec<f64> = self.latencies_ns.iter().map(|&v| v as f64).collect();
        xs.sort_by(f64::total_cmp);
        let span_ns = self
            .last_done_ns
            .saturating_sub(self.first_submit_ns)
            .max(1);
        LatencySummary {
            count: xs.len(),
            failed: self.failed,
            p50_ns: percentile_sorted(&xs, 0.50),
            p99_ns: percentile_sorted(&xs, 0.99),
            p999_ns: percentile_sorted(&xs, 0.999),
            rows_per_sec: xs.len() as f64 / (span_ns as f64 * 1e-9),
        }
    }
}

/// Drives the micro-batching front door with Zipf-hot rows of `data` and
/// collects per-request latency, counting a NaN answer as a failure.
pub fn run_zipf_load<C: Clock>(
    scorer: &mut FrozenScorer,
    data: &EncodedDataset,
    clock: &C,
    opts: &MicroBatchOptions,
    spec: &LoadSpec,
) -> LoadReport {
    assert!(!data.is_empty(), "load generator needs a non-empty dataset");
    let zipf = Zipf::new(data.len() as u32, spec.zipf_s);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    // Pre-sample so the submit loop is pure row replay.
    let rows: Vec<usize> = (0..spec.requests)
        .map(|_| zipf.sample(&mut rng) as usize)
        .collect();
    let interarrival_ns = spec.interarrival_ns;

    let mut latencies = Vec::with_capacity(spec.requests);
    let mut failed = 0usize;
    let mut first_submit = u64::MAX;
    let mut last_done = 0u64;
    serve(
        scorer,
        clock,
        opts,
        move |mut submitter| {
            let start = clock.now_ns();
            for (k, &row) in rows.iter().enumerate() {
                if interarrival_ns > 0 {
                    let due = start.saturating_add(k as u64 * interarrival_ns);
                    while clock.now_ns() < due {
                        std::hint::spin_loop();
                    }
                }
                if !submitter.submit(k as u64, data.row_fields(row), data.row_cross(row)) {
                    break;
                }
            }
        },
        |resp| {
            if resp.prob.is_nan() {
                failed += 1;
            } else {
                latencies.push(resp.done_ns.saturating_sub(resp.submit_ns));
            }
            first_submit = first_submit.min(resp.submit_ns);
            last_done = last_done.max(resp.done_ns);
        },
    );
    LoadReport {
        latencies_ns: latencies,
        failed,
        first_submit_ns: first_submit,
        last_done_ns: last_done,
    }
}
