//! A bounded SPSC channel whose steady state never touches the heap.
//!
//! `std::sync::mpsc::sync_channel` is *almost* allocation-free — its ring
//! buffer is sized up front — but the first time a side actually has to
//! block, the runtime registers the parked thread in an internal waker
//! `Vec` that grows on the heap. When channels are created per epoch (the
//! prefetch pipeline) or per serve session (the micro-batch front door),
//! that lazy registration lands at whatever moment the two sides first
//! contend — including inside a zero-allocation measurement window
//! (`tests/alloc_steady_state.rs` caught exactly this, intermittently).
//!
//! This channel replaces parking with a `Mutex` + `Condvar` pair, whose
//! waits are futex-based on the platforms we run on and allocate nothing.
//! Everything is preallocated in [`bounded`]: a `VecDeque` ring of
//! `capacity` slots that can never grow, because senders block while it
//! is full. Semantics mirror the `std::sync::mpsc` subset the repo uses:
//! single producer, single consumer, `send`/`recv`/`recv_timeout`, and
//! hang-free disconnect in both directions when either handle drops; one
//! addition, `try_recv_into`, pops whatever is queued in one lock.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;
use std::time::Instant;

/// Error returned by [`Sender::send`] when the receiver is gone; carries
/// the unsent value back like `std::sync::mpsc::SendError`.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by [`Receiver::recv`] when the channel is empty and the
/// sender is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The timeout elapsed with the channel still empty.
    Timeout,
    /// The channel is empty and the sender is gone.
    Disconnected,
}

struct State<T> {
    queue: VecDeque<T>,
    sender_alive: bool,
    receiver_alive: bool,
}

struct Inner<T> {
    capacity: usize,
    state: Mutex<State<T>>,
    /// Signals the receiver that an item (or disconnect) is available.
    not_empty: Condvar,
    /// Signals the sender that a slot (or disconnect) is available.
    not_full: Condvar,
}

/// Producer half; dropping it disconnects the channel (the receiver still
/// drains whatever is queued).
pub struct Sender<T>(Arc<Inner<T>>);

/// Consumer half; dropping it disconnects the channel (senders error).
pub struct Receiver<T>(Arc<Inner<T>>);

/// Creates a bounded channel with `capacity` preallocated slots.
///
/// # Panics
/// Panics when `capacity` is zero — rendezvous channels are not needed
/// here and would reintroduce blocking on every send.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "bounded channel needs at least one slot");
    let inner = Arc::new(Inner {
        capacity,
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(capacity),
            sender_alive: true,
            receiver_alive: true,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender(inner.clone()), Receiver(inner))
}

/// Locks channel state, tolerating poisoning: a panicked peer thread
/// cannot leave the queue of owned values inconsistent, and the panic
/// itself still propagates through `std::thread::scope`.
fn lock<T>(m: &Mutex<State<T>>) -> MutexGuard<'_, State<T>> {
    // lint: allow(no-blocking-cone, reason="declared queue hand-off: the channel mutex guards only the VecDeque push/pop, never user code, so the critical section is a few instructions")
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl<T> Sender<T> {
    /// Sends `value`, blocking while the channel is full. Fails (returning
    /// the value) when the receiver has been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = lock(&self.0.state);
        loop {
            if !st.receiver_alive {
                return Err(SendError(value));
            }
            if st.queue.len() < self.0.capacity {
                st.queue.push_back(value);
                self.0.not_empty.notify_one();
                return Ok(());
            }
            // lint: allow(no-blocking-cone, reason="declared backpressure point: a bounded channel must park producers when full; flush_into only reaches this through the response Sender, which is sized to the in-flight batch and never fills")
            st = match self.0.not_full.wait(st) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = lock(&self.0.state);
        st.sender_alive = false;
        self.0.not_empty.notify_all();
    }
}

impl<T> Receiver<T> {
    /// Receives the next value, blocking while the channel is empty.
    /// Fails only when the channel is empty *and* the sender is gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = lock(&self.0.state);
        loop {
            if let Some(v) = st.queue.pop_front() {
                self.0.not_full.notify_one();
                return Ok(v);
            }
            if !st.sender_alive {
                return Err(RecvError);
            }
            st = match self.0.not_empty.wait(st) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Moves up to `limit` queued values into `out` without waiting, under
    /// one lock, and returns how many it moved. Never reports a
    /// disconnect: a later [`recv`](Self::recv) does. Allocation-free when
    /// `out` has room for them.
    pub fn try_recv_into(&self, out: &mut Vec<T>, limit: usize) -> usize {
        let mut st = lock(&self.0.state);
        let n = st.queue.len().min(limit);
        out.extend(st.queue.drain(..n));
        if n > 0 {
            self.0.not_full.notify_one();
        }
        n
    }

    /// [`recv`](Self::recv) with an upper bound on the wait. Spurious
    /// condvar wakeups re-arm with the remaining time, so the total wait
    /// never exceeds `timeout` by more than scheduling noise.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        // lint: allow(wall-clock, reason="timeout bookkeeping for a blocking wait; not observable by any training computation")
        let start = Instant::now();
        let mut st = lock(&self.0.state);
        loop {
            if let Some(v) = st.queue.pop_front() {
                self.0.not_full.notify_one();
                return Ok(v);
            }
            if !st.sender_alive {
                return Err(RecvTimeoutError::Disconnected);
            }
            let elapsed = start.elapsed();
            let Some(remaining) = timeout.checked_sub(elapsed) else {
                return Err(RecvTimeoutError::Timeout);
            };
            st = match self.0.not_empty.wait_timeout(st, remaining) {
                Ok((g, _)) => g,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = lock(&self.0.state);
        st.receiver_alive = false;
        self.0.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_arrive_in_order() {
        let (tx, rx) = bounded::<u32>(2);
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..100 {
                    tx.send(i).expect("receiver alive");
                }
            });
            for i in 0..100 {
                assert_eq!(rx.recv(), Ok(i));
            }
            assert_eq!(rx.recv(), Err(RecvError));
        });
    }

    #[test]
    fn dropping_the_receiver_fails_sends_with_the_value() {
        let (tx, rx) = bounded::<u32>(1);
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));
    }

    #[test]
    fn dropping_the_sender_drains_then_disconnects() {
        let (tx, rx) = bounded::<u32>(4);
        tx.send(1).expect("send");
        tx.send(2).expect("send");
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn recv_timeout_times_out_on_an_empty_channel() {
        let (tx, rx) = bounded::<u32>(1);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(9).expect("send");
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(9));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn try_recv_into_takes_what_is_queued_up_to_the_limit() {
        let (tx, rx) = bounded::<u32>(8);
        let mut out = Vec::with_capacity(8);
        assert_eq!(rx.try_recv_into(&mut out, 4), 0, "empty channel");
        for i in 0..5 {
            tx.send(i).expect("send");
        }
        assert_eq!(rx.try_recv_into(&mut out, 3), 3);
        assert_eq!(out, [0, 1, 2]);
        assert_eq!(rx.try_recv_into(&mut out, 8), 2);
        assert_eq!(out, [0, 1, 2, 3, 4]);
        drop(tx);
        assert_eq!(rx.try_recv_into(&mut out, 8), 0);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn try_recv_into_wakes_a_blocked_sender() {
        let (tx, rx) = bounded::<u32>(2);
        tx.send(0).expect("send");
        tx.send(1).expect("send");
        std::thread::scope(|s| {
            s.spawn(move || {
                // The channel is full: this send parks until the batch pop.
                tx.send(2).expect("receiver alive");
            });
            let mut out = Vec::new();
            assert_eq!(rx.try_recv_into(&mut out, 2), 2);
            assert_eq!(out, [0, 1]);
            assert_eq!(rx.recv(), Ok(2));
        });
    }

    #[test]
    fn send_blocks_until_a_slot_frees_up() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(0).expect("send");
        std::thread::scope(|s| {
            s.spawn(move || {
                // This send must block until the first recv below.
                tx.send(1).expect("receiver alive");
            });
            assert_eq!(rx.recv(), Ok(0));
            assert_eq!(rx.recv(), Ok(1));
        });
    }
}
