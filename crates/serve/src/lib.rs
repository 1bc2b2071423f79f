//! Low-latency serving path for trained OptInter models.
//!
//! Three pieces, mirroring how a CTR model leaves the training tier:
//!
//! - [`freeze()`] turns a trained [`optinter_core::OptInterNet`] into an
//!   immutable, versioned, checksummed [`FrozenModel`] artifact —
//!   embedding rows reordered hot-first, weights flattened into
//!   contiguous arenas. The f32 artifact is the one model file training
//!   saves; [`freeze_gated`] re-quantizes it (f16/int8 rows) and accepts
//!   the result only behind an AUC-delta gate.
//! - [`FrozenScorer`] is the zero-alloc single-request/small-batch
//!   scorer: it loads the frozen weights into the training forward (a
//!   `Body` over `optinter_core::net::FixedBlock`) and runs it, so its scores are
//!   training's bit for bit (parity proved by `tests/serve_parity.rs`).
//! - [`serve`] is the micro-batching front door: a bounded request queue
//!   with deadline flush on the prefetch ring idiom, driven by the
//!   Zipf-hot open-loop load generator in [`loadgen`].

#![forbid(unsafe_code)]

pub mod artifact;
pub mod clock;
pub mod freeze;
pub mod loadgen;
pub mod microbatch;
pub mod quant;
pub mod scorer;

pub use artifact::{ArtifactError, FrozenModel, Quant, StoreDesc, TensorData};
pub use clock::{Clock, ManualClock, MonotonicClock};
pub use freeze::{freeze, freeze_gated, hot_first_row_map, FreezeError};
pub use loadgen::{run_zipf_load, LatencySummary, LoadReport, LoadSpec};
pub use microbatch::{
    serve, simulate, BatchPolicy, MicroBatchOptions, Response, SimResponse, Submitter,
};
pub use scorer::{FrozenScorer, ScoreError};
