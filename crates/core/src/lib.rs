//! OptInter: learning the optimal feature-interaction modelling method for
//! every feature pair (the paper's primary contribution).
//!
//! The framework (paper Fig. 2) stacks an input layer (cross-product
//! transform, provided by `optinter-data`), an embedding layer (`E^o` for
//! original features, `E^m` for cross-product features), a feature
//! interaction layer whose *combination block* picks per pair among
//!
//! - **memorized** — the pair's own cross-product embedding `e^m_(i,j)`,
//! - **factorized** — the Hadamard product `e^o_i ⊗ e^o_j` (Eq. 14),
//! - **naïve** — the empty embedding,
//!
//! and an MLP classifier. Crate layout:
//!
//! - [`arch`] — [`arch::Method`] / [`arch::Architecture`]: one choice per
//!   pair, and the architecture's string form (one `M`/`F`/`N` tag per
//!   pair);
//! - [`gumbel`] — the Gumbel-softmax relaxation (Eqs. 16–18);
//! - [`body`] — the one network body: `E^o`, the MLP classifier, the dense
//!   Adam and the one train step, generic over a [`Block`]; the supernet,
//!   the fixed-architecture net, the frozen scorer and the baseline zoo's
//!   deep models all run on it;
//! - [`combine`] — the combination block's kernels, shared by the
//!   supernet, the fixed-architecture net and the frozen scorer;
//! - [`config`] — hyper-parameters (Table IV analogue);
//! - [`supernet`] — the search-stage model: all three candidates computed
//!   per pair and mixed by relaxed architecture weights, trained jointly
//!   with the architecture parameters `α` (Algorithm 1); a body over
//!   [`supernet::SearchBlock`];
//! - [`net`] — the fixed-architecture model used by OptInter-M, OptInter-F
//!   and the re-train stage (Algorithm 2 / Eq. 19), with a *compact* cross
//!   embedding table holding only the memorized pairs; a body over
//!   [`net::FixedBlock`];
//! - [`search`] — joint (paper), bi-level and random search strategies
//!   (the Table VIII ablation);
//! - [`trainer`] — the one epoch pass, scoring pass and early-stopping
//!   rule that every model trains and scores under (the baseline zoo's
//!   too), and the two-stage search → re-train pipeline.
//!
//! A trained model leaves this crate through `optinter-serve`'s frozen
//! artifact, the one model file.

#![forbid(unsafe_code)]

pub mod arch;
pub mod body;
pub mod combine;
pub mod config;
pub mod gumbel;
pub mod net;
pub mod search;
pub mod supernet;
pub mod trainer;

pub use arch::{Architecture, Method};
pub use body::{Block, Body, Inputs};
pub use config::{FactFn, OptInterConfig};
pub use net::OptInterNet;
pub use search::{joint_search_supernet, search_architecture, SearchOutcome, SearchStrategy};
pub use supernet::Supernet;
pub use trainer::{evaluate_net, run_two_stage, train_fixed, TrainReport};
