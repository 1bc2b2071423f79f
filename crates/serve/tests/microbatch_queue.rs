//! Micro-batch queue invariants.
//!
//! Property tests drive [`optinter_serve::simulate`] — the deterministic
//! single-threaded model sharing [`BatchPolicy`] with the live batcher —
//! over arbitrary arrival/deadline/capacity sequences: no request is
//! ever lost, duplicated, or reordered, batches respect `max_batch`, and
//! no request waits past its deadline (except the shutdown drain, which
//! flushes immediately). Threaded tests then check the live [`serve`]
//! loop: ordered delivery, whole-queue flushes once a deadline has
//! passed, clean mid-flight drain on submitter drop, panic propagation
//! out of the scope (nothing hangs), and the load generator's count of
//! the requests the door answers with NaN.

use optinter_core::net::DataDims;
use optinter_core::{Architecture, Method, OptInterConfig, OptInterNet};
use optinter_data::{DatasetBundle, Profile};
use optinter_serve::{
    freeze, run_zipf_load, serve, simulate, BatchPolicy, FrozenScorer, LoadSpec, ManualClock,
    MicroBatchOptions, Quant,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn simulated_queue_never_loses_duplicates_or_reorders(
        gaps in proptest::collection::vec(0u64..200_000, 0..200),
        max_batch in 1usize..16,
        deadline_ns in 0u64..100_000,
    ) {
        let policy = BatchPolicy { max_batch, deadline_ns };
        let (responses, batch_sizes) = simulate(&policy, &gaps);

        // Exactly one response per request, in submission order.
        prop_assert_eq!(responses.len(), gaps.len());
        for (i, r) in responses.iter().enumerate() {
            prop_assert_eq!(r.id, i as u64, "response {} out of order", i);
        }

        // Batches are non-empty, bounded, and account for every request.
        let mut total = 0usize;
        for &n in &batch_sizes {
            prop_assert!(n >= 1);
            prop_assert!(n <= max_batch);
            total += n;
        }
        prop_assert_eq!(total, gaps.len());

        // Nothing waits past its deadline, completion time is monotone,
        // and causality holds (done >= submit).
        let mut last_done = 0u64;
        for r in &responses {
            prop_assert!(r.done_ns >= r.submit_ns);
            prop_assert!(
                r.done_ns <= policy.deadline_for(r.submit_ns),
                "request {} flushed after its deadline", r.id
            );
            prop_assert!(r.done_ns >= last_done);
            last_done = r.done_ns;
        }
    }

    #[test]
    fn saturating_arrivals_always_fill_batches(
        n in 1usize..300,
        max_batch in 1usize..16,
    ) {
        // Back-to-back arrivals (gap 0) with a generous deadline: every
        // batch except possibly the last must be exactly max_batch.
        let policy = BatchPolicy { max_batch, deadline_ns: u64::MAX / 2 };
        let gaps = vec![0u64; n];
        let (responses, batch_sizes) = simulate(&policy, &gaps);
        prop_assert_eq!(responses.len(), n);
        for (i, &b) in batch_sizes.iter().enumerate() {
            if i + 1 < batch_sizes.len() {
                prop_assert_eq!(b, max_batch);
            } else {
                prop_assert!(b <= max_batch);
            }
        }
    }

    #[test]
    fn sparse_arrivals_flush_alone_at_their_deadline(
        n in 1usize..50,
        deadline_ns in 1u64..10_000,
    ) {
        // Gaps far beyond the deadline: every request flushes as a batch
        // of one, exactly deadline_ns after submission.
        let policy = BatchPolicy { max_batch: 64, deadline_ns };
        let gaps = vec![deadline_ns.saturating_mul(3).max(1); n];
        let (responses, batch_sizes) = simulate(&policy, &gaps);
        prop_assert_eq!(responses.len(), n);
        for (i, &b) in batch_sizes.iter().enumerate() {
            // The final request flushes in the shutdown drain instead.
            if i + 1 < batch_sizes.len() {
                prop_assert_eq!(b, 1);
            }
        }
        for r in responses.iter().take(n - 1) {
            prop_assert_eq!(r.done_ns, policy.deadline_for(r.submit_ns));
        }
    }
}

// ---------------------------------------------------------------------------
// Threaded front-door tests against a real scorer.

fn tiny_scorer() -> (FrozenScorer, DatasetBundle) {
    let bundle: DatasetBundle = Profile::Tiny.bundle_with_rows(200, 7);
    let dims = DataDims::of(&bundle.data);
    let arch = Architecture::new(
        (0..dims.num_pairs)
            .map(|p| Method::from_index(p % 3))
            .collect(),
    );
    let cfg = OptInterConfig {
        seed: 2,
        ..OptInterConfig::test_small()
    };
    let mut net = OptInterNet::new(cfg, dims, arch);
    let frozen = freeze(&mut net, &bundle.data, Quant::F32);
    let scorer = FrozenScorer::new(&frozen, 1).expect("frozen model loads");
    (scorer, bundle)
}

#[test]
fn load_report_counts_nan_answers_as_failures() {
    let (mut scorer, own) = tiny_scorer();
    // Another dataset's cross ids fall outside the frozen pair blocks, so
    // the front door answers some of its rows with NaN.
    let other = Profile::Tiny.bundle_with_rows(1_200, 7);
    let clock = ManualClock::new();
    let opts = MicroBatchOptions {
        queue_slots: 8,
        max_batch: 8,
        deadline_ns: u64::MAX / 2,
    };
    let spec = LoadSpec {
        requests: 400,
        zipf_s: 0.0,
        seed: 1,
        interarrival_ns: 0,
    };
    let report = run_zipf_load(&mut scorer, &other.data, &clock, &opts, &spec);
    let s = report.summary();
    assert!(s.failed > 0, "no request of the other dataset failed");
    assert_eq!(s.failed, report.failed);
    assert_eq!(s.count, report.latencies_ns.len());
    assert_eq!(s.count + s.failed, spec.requests);
    // The model's own rows all score.
    let s = run_zipf_load(&mut scorer, &own.data, &clock, &opts, &spec).summary();
    assert_eq!((s.count, s.failed), (spec.requests, 0));
}

#[test]
fn live_serve_delivers_every_request_in_order() {
    let (mut scorer, bundle) = tiny_scorer();
    let clock = ManualClock::new();
    let opts = MicroBatchOptions {
        queue_slots: 8,
        max_batch: 8,
        deadline_ns: u64::MAX / 2,
    };
    const N: usize = 100;
    let mut got = Vec::new();
    serve(
        &mut scorer,
        &clock,
        &opts,
        |mut submitter| {
            for k in 0..N {
                let row = k % bundle.data.len();
                let ok = submitter.submit(
                    k as u64,
                    bundle.data.row_fields(row),
                    bundle.data.row_cross(row),
                );
                assert!(ok, "batcher vanished at request {k}");
            }
        },
        |resp| got.push(resp),
    );
    assert_eq!(got.len(), N);
    for (k, r) in got.iter().enumerate() {
        assert_eq!(r.id, k as u64, "response order broken at {k}");
        assert!(r.prob.is_finite() && r.prob > 0.0 && r.prob < 1.0);
        assert!(r.done_ns >= r.submit_ns);
    }
    // Responses match scoring the same rows directly (forward passes are
    // row-independent, so batch composition cannot matter).
    let mut batch = optinter_data::Batch::empty();
    let mut probs = Vec::new();
    for (k, r) in got.iter().enumerate() {
        let row = k % bundle.data.len();
        batch.begin(bundle.data.num_fields, bundle.data.num_pairs);
        batch.push_row(bundle.data.row_fields(row), bundle.data.row_cross(row), 0.0);
        scorer
            .score_into(&batch, &mut probs)
            .expect("a well-formed row scores");
        assert_eq!(
            probs[0].to_bits(),
            r.prob.to_bits(),
            "micro-batched probability differs from direct scoring at {k}"
        );
    }
}

#[test]
fn an_overdue_flush_takes_every_queued_request() {
    // The batcher flushes request 0 alone, then waits inside its
    // `on_response` until the client has queued `k` more requests and
    // moved the clock past their deadline. So the queue holds `k` overdue
    // requests when the loop resumes, whatever the thread timing, and the
    // next flush must take min(k, max_batch) of them, like `simulate`.
    const MAX_BATCH: usize = 8;
    const DEADLINE_NS: u64 = 1_000;
    let (mut scorer, bundle) = tiny_scorer();
    let (fields, cross) = (bundle.data.row_fields(0), bundle.data.row_cross(0));
    for k in [1, 5, MAX_BATCH, MAX_BATCH + 3] {
        let clock = ManualClock::new();
        let opts = MicroBatchOptions {
            queue_slots: 16,
            max_batch: MAX_BATCH,
            deadline_ns: DEADLINE_NS,
        };
        let (flushed_tx, flushed_rx) = std::sync::mpsc::channel::<()>();
        let (queued_tx, queued_rx) = std::sync::mpsc::channel::<()>();
        let mut done_ns = Vec::new();
        let client_clock = &clock;
        serve(
            &mut scorer,
            &clock,
            &opts,
            move |mut submitter| {
                assert!(submitter.submit(0, fields, cross));
                flushed_rx.recv().expect("request 0 flushes on its own");
                for id in 1..=k as u64 {
                    assert!(submitter.submit(id, fields, cross));
                }
                client_clock.set_ns(DEADLINE_NS + 1);
                queued_tx.send(()).expect("batcher waits for the queue");
            },
            |resp| {
                if resp.id == 0 {
                    flushed_tx.send(()).expect("client waits for the flush");
                    queued_rx.recv().expect("client fills the queue");
                }
                done_ns.push(resp.done_ns);
                // A flush reads the clock once, so each flush gets its own
                // `done_ns` and the sizes can be read back from them.
                clock.advance_ns(1);
            },
        );
        let mut sizes = Vec::new();
        for (n, t) in done_ns.iter().enumerate() {
            if n == 0 || done_ns[n - 1] != *t {
                sizes.push(0);
            }
            *sizes.last_mut().expect("a flush was opened") += 1;
        }
        let mut want = vec![1];
        let mut left = k;
        while left > 0 {
            want.push(left.min(MAX_BATCH));
            left -= left.min(MAX_BATCH);
        }
        assert_eq!(sizes, want, "flush sizes with {k} overdue requests queued");
    }
}

#[test]
fn dropping_the_submitter_drains_in_flight_requests() {
    let (mut scorer, bundle) = tiny_scorer();
    let clock = ManualClock::new();
    // max_batch and deadline both unreachable: only the shutdown drain
    // can flush these.
    let opts = MicroBatchOptions {
        queue_slots: 16,
        max_batch: 1_000,
        deadline_ns: u64::MAX / 2,
    };
    let mut got = Vec::new();
    serve(
        &mut scorer,
        &clock,
        &opts,
        |mut submitter| {
            for k in 0..10u64 {
                assert!(submitter.submit(k, bundle.data.row_fields(0), bundle.data.row_cross(0)));
            }
            // Submitter dropped here, mid-flight.
        },
        |resp| got.push(resp.id),
    );
    assert_eq!(
        got,
        (0..10).collect::<Vec<u64>>(),
        "shutdown drain lost requests"
    );
}

#[test]
fn client_panic_propagates_and_does_not_hang() {
    let (mut scorer, bundle) = tiny_scorer();
    let clock = ManualClock::new();
    let opts = MicroBatchOptions::default();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        serve(
            &mut scorer,
            &clock,
            &opts,
            |mut submitter| {
                submitter.submit(0, bundle.data.row_fields(0), bundle.data.row_cross(0));
                panic!("client died");
            },
            |_| {},
        );
    }));
    assert!(result.is_err(), "client panic must propagate out of serve");
}
