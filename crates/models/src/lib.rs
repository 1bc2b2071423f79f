//! The baseline CTR model zoo (paper Table III / Sec. III-A3).
//!
//! Every baseline is an instance of the OptInter taxonomy — a fixed choice
//! of feature-interaction method plus a factorization function and a
//! classifier:
//!
//! | model  | category   | interaction | factorization fn        | classifier |
//! |--------|------------|-------------|-------------------------|------------|
//! | LR     | naïve      | none        | —                       | shallow    |
//! | FNN    | naïve      | none        | —                       | deep       |
//! | Poly2  | memorized  | all pairs   | —                       | shallow    |
//! | FM     | factorized | all pairs   | `<e_i, e_j>`            | shallow    |
//! | FwFM   | factorized | all pairs   | `<e_i, e_j> w_(i,j)`    | shallow    |
//! | FmFM   | factorized | all pairs   | `e_i W_(i,j) e_j^T`     | shallow    |
//! | IPNN   | factorized | all pairs   | `<e_i, e_j>`            | deep       |
//! | OPNN   | factorized | all pairs   | outer product           | deep       |
//! | DeepFM | factorized | all pairs   | `<e_i, e_j>`            | deep       |
//! | PIN    | factorized | all pairs   | per-pair micro network  | deep       |
//! | AutoFIS| hybrid     | {fac, naïve}| flexible (GRDA gates)   | deep       |
//!
//! OptInter-M, OptInter-F and full OptInter live in `optinter-core`
//! (`Architecture::uniform` / the two-stage pipeline); [`zoo`] builds all
//! of them behind the uniform [`CtrModel`] interface used by the
//! experiment harness.
//!
//! One type serves each family: [`FmFamily`] is FM, FwFM or FmFM by
//! [`FmVariant`], and [`Pnn`] is IPNN or OPNN by [`ProductKind`]. The six
//! deep models are one type too: [`Deep`] runs `optinter_core`'s network
//! body, the one the OptInter models train on, over the model's
//! combination block ([`DeepBlock`]), so each deep model's file holds only
//! its block. LR, Poly2, the FM family and DeepFM share one first-order
//! term (`b + Σ_f w[x_f]` and its per-field gradient scatter), and FM and
//! DeepFM share one Rendle pair term. [`runner`] trains and scores every
//! model through `optinter_core::trainer`'s epoch pass, scoring pass and
//! early-stopping rule, the ones the OptInter models use. Every model is
//! built from the OptInter models' config, `optinter_core::OptInterConfig`,
//! which holds the zoo's own Table IV values too (PIN's `subnet`,
//! AutoFIS's `grda_c` and `grda_mu`).

#![forbid(unsafe_code)]

pub mod autofis;
pub mod deep;
pub mod deepfm;
pub mod fm;
pub mod fnn;
mod linear;
pub mod lr;
pub mod pin;
pub mod pnn;
pub mod poly2;
pub mod runner;
pub mod traits;
pub mod zoo;

pub use autofis::AutoFis;
pub use deep::{Deep, DeepBlock};
pub use deepfm::DeepFm;
pub use fm::{FmFamily, FmVariant};
pub use fnn::Fnn;
pub use lr::Lr;
pub use pin::Pin;
pub use pnn::{Pnn, ProductKind};
pub use poly2::Poly2;
pub use runner::{evaluate_model, run_model, train_model};
pub use traits::{Category, CtrModel, Taxonomy};
pub use zoo::{build_model, ModelKind};
