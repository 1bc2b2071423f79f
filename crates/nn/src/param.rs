//! Trainable parameters: a value matrix, its gradient accumulator, and
//! lazily-allocated optimizer state slots.

use optinter_tensor::Matrix;

/// A trainable parameter.
///
/// `grad` is accumulated by layer backward passes and consumed (then zeroed)
/// by an optimizer step. The `slot_a` / `slot_b` matrices are optimizer
/// scratch state — Adam uses them for the first and second moments, GRDA for
/// its dual accumulator — allocated on first use so cold parameters cost
/// nothing extra.
#[derive(Clone, Debug)]
pub struct Parameter {
    /// Current value.
    pub value: Matrix,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Matrix,
    /// Optimizer state slot A (Adam: first moment `m`; GRDA: accumulator `v`).
    pub slot_a: Option<Matrix>,
    /// Optimizer state slot B (Adam: second moment `v`).
    pub slot_b: Option<Matrix>,
}

impl Parameter {
    /// Wraps a value matrix into a parameter with a zeroed gradient.
    pub fn new(value: Matrix) -> Self {
        let grad = Matrix::zeros(value.rows(), value.cols());
        Self {
            value,
            grad,
            slot_a: None,
            slot_b: None,
        }
    }

    /// A zero-initialised parameter of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::new(Matrix::zeros(rows, cols))
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Ensures both optimizer slots exist (zeroed, same shape as `value`).
    pub fn ensure_slots(&mut self) {
        let (r, c) = self.value.shape();
        if self.slot_a.is_none() {
            self.slot_a = Some(Matrix::zeros(r, c));
        }
        if self.slot_b.is_none() {
            self.slot_b = Some(Matrix::zeros(r, c));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad() {
        let p = Parameter::new(Matrix::filled(2, 3, 1.5));
        assert_eq!(p.grad.shape(), (2, 3));
        assert!(p.grad.as_slice().iter().all(|&g| g == 0.0));
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn ensure_slots_allocates_once() {
        let mut p = Parameter::zeros(2, 2);
        assert!(p.slot_a.is_none());
        p.ensure_slots();
        assert!(p.slot_a.is_some() && p.slot_b.is_some());
        // Mutate then ensure again: state must persist.
        p.slot_a.as_mut().unwrap().set(0, 0, 9.0);
        p.ensure_slots();
        assert_eq!(p.slot_a.as_ref().unwrap().get(0, 0), 9.0);
    }
}
