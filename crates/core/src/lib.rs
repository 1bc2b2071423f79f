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
//! - [`arch`] — [`arch::Method`] / [`arch::Architecture`]: one choice per pair;
//! - [`gumbel`] — the Gumbel-softmax relaxation (Eqs. 16–18);
//! - [`combine`] — the combination block itself, shared by the supernet,
//!   the fixed-architecture net and the frozen scorer;
//! - [`config`] — hyper-parameters (Table IV analogue);
//! - [`supernet`] — the search-stage model: all three candidates computed
//!   per pair and mixed by relaxed architecture weights, trained jointly
//!   with the architecture parameters `α` (Algorithm 1);
//! - [`net`] — the fixed-architecture model used by OptInter-M, OptInter-F
//!   and the re-train stage (Algorithm 2 / Eq. 19), with a *compact* cross
//!   embedding table holding only the memorized pairs;
//! - [`search`] — joint (paper), bi-level and random search strategies
//!   (the Table VIII ablation);
//! - [`trainer`] — the one epoch pass, scoring pass and early-stopping
//!   rule that every model trains and scores under (the baseline zoo's
//!   too), and the two-stage search → re-train pipeline;
//! - [`persist`] — architectures as strings and trained weights as files.

#![forbid(unsafe_code)]

pub mod arch;
pub mod combine;
pub mod config;
pub mod gumbel;
pub mod net;
pub mod persist;
pub mod search;
pub mod supernet;
pub mod trainer;

pub use arch::{Architecture, Method};
pub use config::{FactFn, OptInterConfig};
pub use net::OptInterNet;
pub use search::{joint_search_supernet, search_architecture, SearchOutcome, SearchStrategy};
pub use supernet::Supernet;
pub use trainer::{evaluate_net, run_two_stage, train_fixed, TrainReport};
