//! The first-order term LR, Poly2, the FM family and DeepFM share:
//! `b + Σ_f w[x_f]`, a bias plus one scalar weight per feature value.

use optinter_nn::{Adam, DenseOptimizer, EmbeddingTable, Parameter};
use optinter_tensor::Matrix;

/// A bias plus one weight per original-feature value. The weights are a
/// dim-1 embedding table, so sparse Adam applies to them.
pub(crate) struct Linear {
    bias: Parameter,
    weights: EmbeddingTable,
    num_fields: usize,
    /// Recycled id column for the per-field gradient scatter.
    ids: Vec<u32>,
}

impl Linear {
    /// A zero term over `vocab` feature values (every logit starts at 0,
    /// the usual start for linear CTR models).
    pub(crate) fn new(vocab: u32, num_fields: usize) -> Self {
        Self {
            bias: Parameter::zeros(1, 1),
            weights: EmbeddingTable::zeros(vocab as usize, 1),
            num_fields,
            ids: Vec::new(),
        }
    }

    /// Writes `b + Σ_f w[x_f]` for every row of `fields` into `logits`,
    /// shaped `[B, 1]`.
    pub(crate) fn forward_into(&self, fields: &[u32], logits: &mut Matrix) {
        logits.reshape_for_overwrite(fields.len() / self.num_fields, 1);
        logits.as_mut_slice().fill(self.bias.value.get(0, 0));
        add_weights(&self.weights, fields, self.num_fields, logits);
    }

    /// Takes the gradient on the logits `[B, 1]`: the bias gets its sum,
    /// each weight the gradient of every row its value appears in.
    pub(crate) fn backward(&mut self, fields: &[u32], grad: &Matrix) {
        let mut dbias = 0.0f32;
        for &g in grad.as_slice() {
            dbias += g;
        }
        self.bias.grad.set(0, 0, dbias);
        let m = self.num_fields;
        scatter(&mut self.weights, fields, m, grad, &mut self.ids);
    }

    /// Applies the Adam step `adam` has begun: `weight_decay` on the
    /// weights, none on the bias.
    pub(crate) fn step(&mut self, adam: &Adam, weight_decay: f32) {
        self.weights.apply_adam(adam, weight_decay);
        let mut adam = *adam;
        adam.step(&mut self.bias, 0.0);
    }

    /// Trainable scalars: one weight per feature value plus the bias.
    pub(crate) fn num_params(&self) -> usize {
        self.weights.num_params() + 1
    }
}

/// Adds `Σ_f w[ids[r·width + f]]` to row `r`'s logit, fields in order.
pub(crate) fn add_weights(
    weights: &EmbeddingTable,
    ids: &[u32],
    width: usize,
    logits: &mut Matrix,
) {
    for (r, z) in logits.as_mut_slice().iter_mut().enumerate() {
        for &id in &ids[r * width..(r + 1) * width] {
            *z += weights.row(id)[0];
        }
    }
}

/// Adds row `r`'s logit gradient to the weight of each id in row `r`, one
/// field column at a time through the recycled `column`.
pub(crate) fn scatter(
    weights: &mut EmbeddingTable,
    ids: &[u32],
    width: usize,
    grad: &Matrix,
    column: &mut Vec<u32>,
) {
    for f in 0..width {
        column.clear();
        column.extend((0..grad.rows()).map(|r| ids[r * width + f]));
        weights.accumulate_grad_fields_pooled(column, 1, grad);
    }
}
