//! Micro-batching front door: a bounded request queue with deadline
//! flush, built on the `optinter_data::prefetch` ring idiom.
//!
//! Ownership protocol (mirrors `BatchStream`): request buffers are owned
//! by exactly one holder at a time and cycle submitter → full queue →
//! batcher → free list → submitter over two bounded
//! [`optinter_data::channel`]s (preallocated; unlike `std::sync::mpsc`
//! they never allocate even when a side blocks). The free list's bound
//! equals the total buffer count, so returning a buffer never blocks; at
//! steady state no request touches the heap (proved by
//! `tests/alloc_steady_state.rs`).
//!
//! Deadline semantics: a batch flushes the moment it holds
//! [`BatchPolicy::max_batch`] requests, or when the *oldest* request in
//! it has waited [`BatchPolicy::deadline_ns`], whichever comes first. A
//! flush takes every request already queued, up to `max_batch`, as
//! [`simulate`] does.
//! Dropping the submitter drains everything in flight and flushes the
//! remainder immediately; thread panics propagate out of [`serve`] via
//! `std::thread::scope` (nothing hangs).
//!
//! The flush decision lives in [`BatchPolicy`] and is exercised two ways:
//! deterministically by [`simulate`] (driven by the proptests with a
//! manual clock) and for real by [`serve`].

use crate::clock::Clock;
use crate::scorer::FrozenScorer;
use optinter_data::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use optinter_data::Batch;
use std::time::Duration;

/// Tuning knobs for the front door.
#[derive(Debug, Clone)]
pub struct MicroBatchOptions {
    /// Bound of the full-request queue (in-flight requests beyond the
    /// batch being assembled). Submitters block when it is full.
    pub queue_slots: usize,
    /// Flush as soon as a batch holds this many requests.
    pub max_batch: usize,
    /// Flush when the oldest pending request has waited this long.
    pub deadline_ns: u64,
}

impl Default for MicroBatchOptions {
    fn default() -> Self {
        Self {
            queue_slots: 32,
            max_batch: 32,
            deadline_ns: 200_000,
        }
    }
}

impl MicroBatchOptions {
    fn policy(&self) -> BatchPolicy {
        BatchPolicy {
            max_batch: self.max_batch.max(1),
            deadline_ns: self.deadline_ns,
        }
    }
}

/// The flush decision, shared by the live batcher and the proptest
/// simulator.
#[derive(Debug, Clone, Copy)]
pub struct BatchPolicy {
    /// Flush as soon as a batch holds this many requests.
    pub max_batch: usize,
    /// Flush when the oldest pending request has waited this long.
    pub deadline_ns: u64,
}

impl BatchPolicy {
    /// Absolute flush deadline for a batch whose oldest request was
    /// submitted at `first_submit_ns`.
    pub fn deadline_for(&self, first_submit_ns: u64) -> u64 {
        first_submit_ns.saturating_add(self.deadline_ns)
    }

    /// Whether a batch of `pending` requests (oldest submitted at
    /// `first_submit_ns`) must flush at time `now_ns`.
    pub fn should_flush(&self, pending: usize, first_submit_ns: u64, now_ns: u64) -> bool {
        pending >= self.max_batch || (pending > 0 && now_ns >= self.deadline_for(first_submit_ns))
    }
}

/// One in-flight scoring request (a recycled buffer).
#[derive(Debug)]
pub struct Request {
    /// Caller-chosen correlation id, echoed in the [`Response`].
    pub id: u64,
    /// Submission timestamp (submitter's clock).
    pub submit_ns: u64,
    /// Global original-feature ids, `[num_fields]`.
    pub fields: Vec<u32>,
    /// Global cross-feature ids, `[num_pairs]`.
    pub cross: Vec<u32>,
}

impl Request {
    fn empty() -> Self {
        Self {
            id: 0,
            submit_ns: 0,
            fields: Vec::new(),
            cross: Vec::new(),
        }
    }
}

/// One scored response.
#[derive(Debug, Clone, Copy)]
pub struct Response {
    /// The request's correlation id.
    pub id: u64,
    /// Predicted click probability.
    pub prob: f32,
    /// When the request was submitted.
    pub submit_ns: u64,
    /// When its batch finished scoring (same clock).
    pub done_ns: u64,
}

/// Client-side handle: fills a recycled buffer and hands it to the
/// batcher. Dropping it shuts the front door down (in-flight requests
/// still drain).
pub struct Submitter<'a, C: Clock> {
    tx: Sender<Request>,
    free_rx: Receiver<Request>,
    fresh: Vec<Request>,
    num_fields: usize,
    num_pairs: usize,
    requires_cross: bool,
    clock: &'a C,
}

impl<C: Clock> Submitter<'_, C> {
    /// Submits one request, blocking while the queue is full. Returns
    /// `false` when the batcher is gone (serve loop panicked or exited).
    ///
    /// # Panics
    /// Panics when the request does not match the scorer's schema:
    /// `fields` must have exactly `num_fields` entries, and `cross` must
    /// have exactly `num_pairs` entries whenever the scorer memorizes any
    /// pair (otherwise it may also be empty). Validating here keeps
    /// malformed requests on the caller's thread instead of panicking the
    /// serving loop.
    pub fn submit(&mut self, id: u64, fields: &[u32], cross: &[u32]) -> bool {
        assert_eq!(
            fields.len(),
            self.num_fields,
            "submit: request has {} fields, the scorer expects {}",
            fields.len(),
            self.num_fields
        );
        assert!(
            cross.len() == self.num_pairs || (cross.is_empty() && !self.requires_cross),
            "submit: request cross width {} does not match the scorer's {} pairs",
            cross.len(),
            self.num_pairs
        );
        let mut req = match self.fresh.pop() {
            Some(r) => r,
            None => match self.free_rx.recv() {
                Ok(r) => r,
                Err(_) => return false,
            },
        };
        req.id = id;
        req.fields.clear();
        req.fields.extend_from_slice(fields);
        req.cross.clear();
        req.cross.extend_from_slice(cross);
        req.submit_ns = self.clock.now_ns();
        self.tx.send(req).is_ok()
    }
}

/// Runs the micro-batching front door until `client` returns and every
/// in-flight request has been scored.
///
/// `client` runs on its own scoped thread and submits requests through
/// the [`Submitter`]; `on_response` runs on the calling thread and sees
/// every response exactly once, in submission order.
pub fn serve<C, G, F>(
    scorer: &mut FrozenScorer,
    clock: &C,
    opts: &MicroBatchOptions,
    client: G,
    mut on_response: F,
) where
    C: Clock,
    G: FnOnce(Submitter<'_, C>) + Send,
    F: FnMut(Response),
{
    let policy = opts.policy();
    let queue_slots = opts.queue_slots.max(1);
    // Total pool: everything the queue and an assembling batch can hold,
    // one in the submitter's hand, one in flight through a channel.
    let num_buffers = queue_slots + policy.max_batch + 2;
    let (full_tx, full_rx) = bounded::<Request>(queue_slots);
    // Bounded at the pool size so returning a buffer never blocks (and,
    // per the preallocated ring, never allocates).
    let (free_tx, free_rx) = bounded::<Request>(num_buffers);
    let mut fresh = Vec::with_capacity(num_buffers);
    for _ in 0..num_buffers {
        fresh.push(Request::empty());
    }

    let num_fields = scorer.dims().num_fields;
    let num_pairs = scorer.dims().num_pairs;
    let requires_cross = scorer.requires_cross();
    let mut pending: Vec<Request> = Vec::with_capacity(policy.max_batch);
    let mut batch = Batch::empty();
    let mut probs: Vec<f32> = Vec::new();
    // Degraded-path scratch: only touched when a batch fails validation.
    let mut single = Batch::empty();
    let mut one: Vec<f32> = Vec::new();

    std::thread::scope(|s| {
        s.spawn(move || {
            client(Submitter {
                tx: full_tx,
                free_rx,
                fresh,
                num_fields,
                num_pairs,
                requires_cross,
                clock,
            });
        });

        loop {
            if pending.is_empty() {
                match full_rx.recv() {
                    Ok(r) => pending.push(r),
                    Err(_) => break, // submitter gone, everything drained
                }
            }
            // Top the batch up until it is full or the oldest request's
            // deadline arrives. Before each decision, take everything
            // already queued (up to a full batch): an overdue batch must
            // carry the backlog with it, or every later request, overdue
            // on arrival, would flush alone.
            let deadline = policy.deadline_for(pending[0].submit_ns);
            loop {
                let room = policy.max_batch - pending.len();
                full_rx.try_recv_into(&mut pending, room);
                if policy.should_flush(pending.len(), pending[0].submit_ns, clock.now_ns()) {
                    break;
                }
                let wait = deadline.saturating_sub(clock.now_ns());
                match full_rx.recv_timeout(Duration::from_nanos(wait)) {
                    Ok(r) => pending.push(r),
                    Err(RecvTimeoutError::Timeout) => break,
                    Err(RecvTimeoutError::Disconnected) => break, // flush the tail
                }
            }
            flush_into(
                scorer,
                clock,
                &mut pending,
                &mut batch,
                &mut probs,
                (&mut single, &mut one),
                num_fields,
                num_pairs,
                &free_tx,
                &mut on_response,
            );
        }
    });
}

/// Scores the pending batch, emits its responses in order, and recycles
/// the request buffers. Allocation-free at steady state.
///
/// When the batch is rejected with a typed `ScoreError` (an id outside
/// the frozen key space — `submit` validates arity but not id ranges),
/// the loop degrades to scoring each request alone: valid requests still
/// get real probabilities and only the offending ones answer NaN. The
/// serving loop itself never panics on request data.
#[allow(clippy::too_many_arguments)]
fn flush_into<C: Clock, F: FnMut(Response)>(
    scorer: &mut FrozenScorer,
    clock: &C,
    pending: &mut Vec<Request>,
    batch: &mut Batch,
    probs: &mut Vec<f32>,
    (single, one): (&mut Batch, &mut Vec<f32>),
    num_fields: usize,
    num_pairs: usize,
    free_tx: &Sender<Request>,
    on_response: &mut F,
) {
    if pending.is_empty() {
        return;
    }
    batch.begin(num_fields, num_pairs);
    for req in pending.iter() {
        batch.push_row(&req.fields, &req.cross, 0.0);
    }
    if scorer.score_into(batch, probs).is_err() {
        probs.clear();
        for req in pending.iter() {
            single.begin(num_fields, num_pairs);
            single.push_row(&req.fields, &req.cross, 0.0);
            let prob = match scorer.score_into(single, one) {
                Ok(()) => one.first().copied().unwrap_or(f32::NAN),
                Err(_) => f32::NAN,
            };
            probs.push(prob);
        }
    }
    let done_ns = clock.now_ns();
    for (req, &prob) in pending.iter().zip(probs.iter()) {
        on_response(Response {
            id: req.id,
            prob,
            submit_ns: req.submit_ns,
            done_ns,
        });
    }
    for req in pending.drain(..) {
        // The free list is bounded at the total buffer count, so this
        // never blocks; a send error just means the submitter is gone.
        let _ = free_tx.send(req);
    }
}

/// One response from the deterministic simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimResponse {
    /// Sequential request id (`0..gaps.len()`).
    pub id: u64,
    /// Simulated submission time.
    pub submit_ns: u64,
    /// Simulated flush time.
    pub done_ns: u64,
}

/// Deterministic, single-threaded model of the batcher: same
/// [`BatchPolicy`], manual time. Request `i` arrives `gaps[i]`
/// nanoseconds after request `i-1`. Returns every response plus the
/// flushed batch sizes — the proptests check the queue invariants
/// (no loss, no duplication, no reordering, bounded wait) against this.
pub fn simulate(policy: &BatchPolicy, gaps: &[u64]) -> (Vec<SimResponse>, Vec<usize>) {
    let max_batch = policy.max_batch.max(1);
    let mut now = 0u64;
    let mut waiting: Vec<(u64, u64)> = Vec::new(); // (id, submit_ns) FIFO
    let mut responses = Vec::with_capacity(gaps.len());
    let mut batch_sizes = Vec::new();

    fn flush(
        waiting: &mut Vec<(u64, u64)>,
        max_batch: usize,
        at: u64,
        responses: &mut Vec<SimResponse>,
        batch_sizes: &mut Vec<usize>,
    ) {
        let n = waiting.len().min(max_batch);
        batch_sizes.push(n);
        for (id, submit_ns) in waiting.drain(..n) {
            responses.push(SimResponse {
                id,
                submit_ns,
                done_ns: at,
            });
        }
    }

    for (i, &gap) in gaps.iter().enumerate() {
        now = now.saturating_add(gap);
        // Deadline flushes that came due while we waited for this arrival
        // fire at their deadline, not at the arrival time.
        while let Some(&(_, first)) = waiting.first() {
            let dl = policy.deadline_for(first);
            if dl > now {
                break;
            }
            flush(
                &mut waiting,
                max_batch,
                dl,
                &mut responses,
                &mut batch_sizes,
            );
        }
        waiting.push((i as u64, now));
        if waiting.len() >= max_batch {
            flush(
                &mut waiting,
                max_batch,
                now,
                &mut responses,
                &mut batch_sizes,
            );
        }
    }
    // Shutdown: drain everything still in flight immediately.
    while !waiting.is_empty() {
        flush(
            &mut waiting,
            max_batch,
            now,
            &mut responses,
            &mut batch_sizes,
        );
    }
    (responses, batch_sizes)
}
