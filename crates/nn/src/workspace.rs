//! Reusable scratch-buffer pool for allocation-free training steps.
//!
//! Every forward/backward pass needs a handful of temporaries — MLP
//! activations, gradient ping-pong buffers, assembled model inputs. Heap
//! allocating them per batch costs more than the arithmetic for small
//! models, so models own a [`Workspace`] and
//! [`take_for_overwrite`](Workspace::take_for_overwrite) /
//! [`recycle`](Workspace::recycle) matrices around each step. A recycled
//! matrix keeps its backing `Vec`, so once every slot has grown to the
//! working-set maximum the steady-state training loop performs no heap
//! allocation at all.
//!
//! Ownership rules (see DESIGN.md §8):
//!
//! - A buffer is owned by exactly one holder at a time: either the
//!   workspace free list or the code that took it. There is no sharing and
//!   no interior mutability — `take` moves the `Matrix` out, `recycle`
//!   moves it back.
//! - Buffers that must survive from forward to backward (cached
//!   activations, assembled inputs) are *held*, not recycled, until the
//!   backward pass has consumed them.
//! - [`take_for_overwrite`](Workspace::take_for_overwrite) reshapes a
//!   buffer without filling it, so it may hold an earlier step's values:
//!   every taker writes each element before it reads it. A dense layer's
//!   forward accumulates, so it zero-fills its output itself.

use optinter_tensor::Matrix;

/// A pool of reusable [`Matrix`] buffers.
#[derive(Default)]
pub struct Workspace {
    free: Vec<Matrix>,
}

impl Workspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a `[rows, cols]` matrix for a caller that writes every element
    /// before reading it, reusing a recycled buffer's allocation when one is
    /// available. Only storage past the buffer's old length is zeroed; the
    /// rest keeps stale values (see
    /// [`Matrix::reshape_for_overwrite`]).
    ///
    /// Prefers the free buffer whose capacity already fits the request so
    /// mixed-size call patterns converge to zero allocations instead of
    /// repeatedly growing whichever buffer happens to be on top.
    pub fn take_for_overwrite(&mut self, rows: usize, cols: usize) -> Matrix {
        let need = rows * cols;
        let slot = self
            .free
            .iter()
            .position(|m| m.len() >= need)
            .unwrap_or(self.free.len().saturating_sub(1));
        let mut m = match self.free.get(slot) {
            Some(_) => self.free.swap_remove(slot),
            None => Matrix::zeros(0, 0),
        };
        m.reshape_for_overwrite(rows, cols);
        m
    }

    /// Returns a buffer to the pool for reuse by a later
    /// [`take_for_overwrite`](Self::take_for_overwrite).
    pub fn recycle(&mut self, m: Matrix) {
        self.free.push(m);
    }

    /// Number of buffers currently sitting in the free list.
    pub fn free_buffers(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_exact_shape_and_zeroes_only_new_storage() {
        let mut ws = Workspace::new();
        let mut a = ws.take_for_overwrite(3, 4);
        assert_eq!(a.shape(), (3, 4));
        assert!(a.as_slice().iter().all(|&v| v == 0.0), "fresh storage");
        a.fill_with(7.0);
        ws.recycle(a);
        // The recycled buffer comes back unfilled: its first 12 elements
        // keep their values, the two past them are new and zero.
        let b = ws.take_for_overwrite(2, 7);
        assert_eq!(b.shape(), (2, 7));
        assert!(b.as_slice()[..12].iter().all(|&v| v == 7.0));
        assert_eq!(&b.as_slice()[12..], &[0.0, 0.0]);
    }

    #[test]
    fn recycled_capacity_is_reused() {
        let mut ws = Workspace::new();
        let a = ws.take_for_overwrite(16, 16);
        let ptr = a.as_slice().as_ptr();
        ws.recycle(a);
        // Same size request must come back on the same allocation.
        let b = ws.take_for_overwrite(16, 16);
        assert_eq!(b.as_slice().as_ptr(), ptr);
        assert_eq!(ws.free_buffers(), 0);
    }

    #[test]
    fn take_prefers_fitting_buffer() {
        let mut ws = Workspace::new();
        let small = ws.take_for_overwrite(2, 2);
        let big = ws.take_for_overwrite(32, 32);
        let big_ptr = big.as_slice().as_ptr();
        ws.recycle(small);
        ws.recycle(big);
        // A large request should land on the large buffer even though the
        // small one was recycled first.
        let c = ws.take_for_overwrite(32, 32);
        assert_eq!(c.as_slice().as_ptr(), big_ptr);
    }
}
