//! Neural-network substrate with manual reverse-mode backpropagation.
//!
//! The paper trains deep CTR models (embedding layer → feature interaction
//! layer → MLP with ReLU + LayerNorm → sigmoid, Eqs. 9–13) with Adam and
//! Xavier initialisation on a GPU stack. This crate rebuilds exactly that
//! computational machinery in pure Rust:
//!
//! - [`param::Parameter`] — a value/gradient pair with optimizer slots;
//! - [`layers`] — [`layers::Dense`], [`layers::Relu`], [`layers::LayerNorm`],
//!   each caching what its backward pass needs;
//! - [`mlp::Mlp`] — the paper's classifier stack `LN(relu(Wx + b))`;
//! - [`embedding::EmbeddingTable`] — sparse-gradient lookup tables for
//!   original features `E^o` and cross-product features `E^m`;
//! - [`optim`] — SGD, Adam (dense + lazy sparse-row updates) and GRDA (the
//!   directional-pruning optimizer AutoFIS uses for its gates);
//! - [`loss`] — fused sigmoid + binary-cross-entropy (paper Eq. 12–13);
//! - [`gradcheck`] — finite-difference gradient checking used by the test
//!   suite to validate every backward pass.
//!
//! All layers implement the [`Layer`] trait, so models compose them freely
//! while owning their own interaction-specific forward/backward logic.

// Kernel-adjacent crate: `unsafe` is permitted only in `embedding` (the
// optinter-lint allowlist) and currently unused; unsafe operations inside
// `unsafe fn`s must be wrapped in explicit `unsafe {}` blocks.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod embedding;
pub mod gradcheck;
pub mod layers;
pub mod loss;
pub mod mlp;
pub mod optim;
pub mod param;
pub mod store;
pub mod workspace;

#[cfg(test)]
mod proptests;

pub use embedding::{EmbedOptimizerMode, EmbeddingTable};
pub use layers::{Dense, LayerNorm, Relu};
pub use loss::{bce_with_logits, bce_with_logits_into, probabilities_into};
pub use mlp::{Mlp, MlpConfig};
pub use optim::{Adam, AdamConfig, DenseOptimizer, Grda, GrdaConfig, Sgd};
pub use param::Parameter;
pub use store::{
    double_hash_slots, qr_slots, splitmix64, EmbedStore, HashScheme, HashedEmbedding, StoreKind,
    WeightFetch,
};
pub use workspace::Workspace;

use optinter_tensor::Matrix;

/// A differentiable layer with cached state for one forward/backward cycle.
///
/// Contract: `backward` must be called at most once after each `forward`,
/// with an upstream gradient of the same shape as the forward output; it
/// accumulates parameter gradients and returns the gradient with respect to
/// the forward input.
pub trait Layer {
    /// Computes the layer output for a batch (rows = examples).
    fn forward(&mut self, x: &Matrix) -> Matrix;

    /// Propagates the upstream gradient, accumulating parameter gradients.
    fn backward(&mut self, grad_out: &Matrix) -> Matrix;

    /// Visits every trainable parameter (for optimizer steps / zeroing).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter));

    /// Total number of trainable scalar parameters.
    fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.value.len());
        n
    }

    /// Zeroes all accumulated parameter gradients.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.grad.fill_zero());
    }
}
