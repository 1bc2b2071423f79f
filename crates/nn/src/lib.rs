//! Neural-network substrate with manual reverse-mode backpropagation.
//!
//! The paper trains deep CTR models (embedding layer → feature interaction
//! layer → MLP with ReLU + LayerNorm → sigmoid, Eqs. 9–13) with Adam and
//! Xavier initialisation on a GPU stack. This crate rebuilds exactly that
//! computational machinery in pure Rust:
//!
//! - [`param::Parameter`] — a value/gradient pair with optimizer slots;
//! - [`layers`] — [`layers::Dense`], [`layers::Relu`], [`layers::LayerNorm`],
//!   each with an allocation-free forward and backward into caller buffers;
//! - [`mlp::Mlp`] — the paper's classifier stack `LN(relu(Wx + b))`;
//! - [`embedding::EmbeddingTable`] — sparse-gradient lookup tables for
//!   original features `E^o` and cross-product features `E^m`;
//! - [`optim`] — Adam (dense + lazy sparse-row updates) and GRDA (the
//!   directional-pruning optimizer AutoFIS uses for its gates);
//! - [`loss`] — fused sigmoid + binary-cross-entropy (paper Eq. 12–13);
//! - [`gradcheck`] — finite-difference gradient checking used by the test
//!   suite to validate every backward pass.
//!
//! Models compose these pieces through their `_into` methods and own their
//! interaction-specific forward/backward logic; [`Mlp::visit_params`] hands
//! the classifier's parameters to an optimizer.

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
pub use optim::{Adam, AdamConfig, DenseOptimizer, Grda, GrdaConfig};
pub use param::Parameter;
pub use store::{
    double_hash_slots, qr_slots, EmbedStore, HashScheme, HashedEmbedding, StoreKind, WeightFetch,
};
pub use workspace::Workspace;
