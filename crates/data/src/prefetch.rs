//! Overlapped, zero-allocation batch streaming.
//!
//! [`BatchStream`] wraps [`BatchIter`] in a double-buffered producer /
//! consumer pipeline: a scoped background thread gathers batch `k + 1`
//! (field/cross row gathers plus the label copy) while the caller's
//! closure trains on batch `k`. Filled batches travel over a bounded
//! two-slot channel; spent buffers travel back over a free-list channel
//! and are refilled in place, so steady-state batch assembly performs
//! **zero heap allocations** — mirroring `optinter_nn::Workspace` on the
//! compute side.
//!
//! # Determinism
//!
//! Batch *contents* remain a pure function of `(shuffle_seed, range,
//! batch_size)`: the producer runs the exact same [`BatchIter::next_into`]
//! the serial path runs, in the same order, and the bounded channel
//! preserves that order end to end. Prefetching changes only *when* a
//! batch is assembled relative to the compute on the previous one — so
//! training with the stream is bit-identical with prefetch on or off, at
//! any thread count (`tests/determinism.rs` proves this).
//!
//! # Buffer ownership protocol
//!
//! The producer owns `NUM_BUFFERS` `Batch` buffers. At any instant each
//! buffer is in exactly one place: being filled by the producer, queued in
//! the bounded channel (capacity `QUEUE_SLOTS`), lent to the consumer
//! closure, or in transit back through the free-list channel. The producer
//! blocks when the queue is full (compute-bound training) or when no free
//! buffer is available yet; the consumer blocks in `recv` when the queue
//! is empty (input-bound training). Either side dropping its channel ends
//! the other cleanly, including on panic — `std::thread::scope` then
//! propagates the panic to the caller.

use crate::batch::{Batch, BatchIter};
use crate::channel;
use crate::dataset::EncodedDataset;
use std::ops::Range;

/// Recycled batch buffers owned by the pipeline. Two can sit in the full
/// queue while one is being filled and one is being consumed.
const NUM_BUFFERS: usize = 4;

/// Bound of the filled-batch channel: the producer runs at most two
/// batches ahead of the consumer.
const QUEUE_SLOTS: usize = 2;

/// A configurable stream of mini-batches, consumed through a callback.
///
/// This is the input side of every training loop: construction mirrors
/// [`BatchIter::new`], and [`BatchStream::for_each`] drives the loop body.
/// With prefetching enabled (the default) batch assembly overlaps the
/// loop body on a background thread; disabled, batches are assembled
/// inline into a single recycled buffer. Both paths yield bit-identical
/// batches in the same order.
#[must_use = "a BatchStream does nothing until `for_each` is called"]
pub struct BatchStream<'a> {
    data: &'a EncodedDataset,
    range: Range<usize>,
    batch_size: usize,
    shuffle_seed: Option<u64>,
    include_cross: bool,
    prefetch: bool,
}

impl<'a> BatchStream<'a> {
    /// Creates a stream over `range` with the same semantics as
    /// [`BatchIter::new`]. Prefetching and the cross gather start enabled.
    pub fn new(
        data: &'a EncodedDataset,
        range: Range<usize>,
        batch_size: usize,
        shuffle_seed: Option<u64>,
    ) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        assert!(range.end <= data.len(), "range exceeds dataset");
        Self {
            data,
            range,
            batch_size,
            shuffle_seed,
            include_cross: true,
            prefetch: true,
        }
    }

    /// Controls whether batches gather cross-feature ids (models that never
    /// memorize can skip the gather).
    pub fn with_cross(mut self, include: bool) -> Self {
        self.include_cross = include;
        self
    }

    /// Enables or disables the background prefetch thread. Results are
    /// bit-identical either way; `false` keeps everything on the caller
    /// thread (useful for A/B timing and single-threaded debugging).
    pub fn prefetch(mut self, enabled: bool) -> Self {
        self.prefetch = enabled;
        self
    }

    /// Number of batches the stream will yield.
    pub fn num_batches(&self) -> usize {
        self.range.len().div_ceil(self.batch_size)
    }

    /// Number of rows the stream will yield, over all its batches.
    pub fn num_rows(&self) -> usize {
        self.range.len()
    }

    /// Runs `f` over every batch in order.
    ///
    /// The borrow handed to `f` lives only for the call — the buffer
    /// behind it is recycled for a later batch as soon as `f` returns.
    pub fn for_each<F: FnMut(&Batch)>(self, mut f: F) {
        let mut iter = BatchIter::new(self.data, self.range, self.batch_size, self.shuffle_seed)
            .with_cross(self.include_cross);
        if !self.prefetch {
            // Inline path: one recycled buffer, zero steady-state allocs.
            let mut buf = Batch::empty();
            while iter.next_into(&mut buf) {
                f(&buf);
            }
            return;
        }
        std::thread::scope(|scope| {
            // `optinter_data::channel` rather than `std::sync::mpsc`: the
            // std channel lazily registers parked threads in a growable
            // waker list, so the first blocking recv of an epoch could
            // allocate mid-measurement. Ours preallocates everything.
            let (full_tx, full_rx) = channel::bounded::<Batch>(QUEUE_SLOTS);
            // The free-list is bounded too, at capacity NUM_BUFFERS, so a
            // send can never block — there are only NUM_BUFFERS buffers in
            // existence.
            let (free_tx, free_rx) = channel::bounded::<Batch>(NUM_BUFFERS);
            scope.spawn(move || {
                let mut fresh: Vec<Batch> = (0..NUM_BUFFERS).map(|_| Batch::empty()).collect();
                loop {
                    let mut buf = match fresh.pop() {
                        Some(b) => b,
                        // All buffers are in flight: wait for a spent one.
                        // A recv error means the consumer is gone (done or
                        // panicked); either way there is nothing left to do.
                        None => match free_rx.recv() {
                            Ok(b) => b,
                            Err(_) => return,
                        },
                    };
                    if !iter.next_into(&mut buf) {
                        // Exhausted: dropping `full_tx` tells the consumer
                        // the stream is complete.
                        return;
                    }
                    if full_tx.send(buf).is_err() {
                        return;
                    }
                }
            });
            // The consumer runs on the caller thread; `recv` returns an
            // error exactly when the producer has finished and the queue
            // has drained.
            while let Ok(batch) = full_rx.recv() {
                f(&batch);
                // The producer may already have exited; losing the buffer
                // then is fine.
                let _ = free_tx.send(batch);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBundle;
    use crate::generator::{PlantedKind, SyntheticSpec};

    fn bundle(n: usize) -> DatasetBundle {
        let spec = SyntheticSpec {
            name: "prefetch-test".into(),
            seed: 11,
            cardinalities: vec![6, 5, 4],
            zipf_exponent: 0.7,
            planted: PlantedKind::assign(1, 1, 1, 3, 2),
            field_weight_std: 0.2,
            memorized_std: 0.8,
            factorized_std: 0.8,
            latent_dim: 2,
            nonlinear_std: 0.0,
            noise_std: 0.0,
            target_pos_ratio: 0.4,
        };
        DatasetBundle::from_spec(spec, n, 1, 5)
    }

    /// Flattens a stream into (fields, cross, labels, batch_lens).
    fn collect(
        b: &DatasetBundle,
        batch_size: usize,
        seed: Option<u64>,
        prefetch: bool,
        cross: bool,
    ) -> (Vec<u32>, Vec<u32>, Vec<f32>, Vec<usize>) {
        let mut out = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        BatchStream::new(&b.data, 0..b.len(), batch_size, seed)
            .with_cross(cross)
            .prefetch(prefetch)
            .for_each(|batch| {
                out.0.extend_from_slice(&batch.fields);
                out.1.extend_from_slice(&batch.cross);
                out.2.extend_from_slice(&batch.labels);
                out.3.push(batch.len());
            });
        out
    }

    #[test]
    fn prefetch_on_and_off_yield_identical_streams() {
        let b = bundle(333);
        for &seed in &[None, Some(9u64)] {
            for batch_size in [1usize, 7, 64, 333, 500] {
                let on = collect(&b, batch_size, seed, true, true);
                let off = collect(&b, batch_size, seed, false, true);
                assert_eq!(on, off, "seed={seed:?} batch_size={batch_size}");
            }
        }
    }

    #[test]
    fn stream_matches_batch_iter_exactly() {
        let b = bundle(200);
        let mut expect = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for batch in BatchIter::new(&b.data, 0..200, 13, Some(4)) {
            expect.0.extend_from_slice(&batch.fields);
            expect.1.extend_from_slice(&batch.cross);
            expect.2.extend_from_slice(&batch.labels);
            expect.3.push(batch.len());
        }
        assert_eq!(collect(&b, 13, Some(4), true, true), expect);
    }

    #[test]
    fn covers_all_rows_exactly_once() {
        let b = bundle(257);
        let stream = BatchStream::new(&b.data, 0..257, 10, Some(1));
        assert_eq!(stream.num_batches(), 26);
        assert_eq!(stream.num_rows(), 257);
        let mut rows = 0usize;
        stream.for_each(|batch| rows += batch.len());
        assert_eq!(rows, 257);
    }

    #[test]
    fn without_cross_skips_gather() {
        let b = bundle(64);
        let (fields, cross, labels, _) = collect(&b, 16, None, true, false);
        assert!(cross.is_empty());
        assert_eq!(fields.len(), 64 * 3);
        assert_eq!(labels.len(), 64);
    }

    #[test]
    fn consumer_panic_propagates_and_does_not_hang() {
        let b = bundle(300);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut seen = 0usize;
            BatchStream::new(&b.data, 0..300, 8, None).for_each(|_| {
                seen += 1;
                if seen == 3 {
                    panic!("consumer bail-out");
                }
            });
        }));
        assert!(result.is_err(), "panic must reach the caller");
    }

    #[test]
    fn empty_range_yields_no_batches() {
        let b = bundle(50);
        let mut calls = 0usize;
        BatchStream::new(&b.data, 10..10, 4, None).for_each(|_| calls += 1);
        assert_eq!(calls, 0);
    }
}
