//! Zero-alloc single-request (and micro-batch) scorer over a frozen
//! artifact.
//!
//! Bit-parity contract: for an unquantized ([`Quant::F32`]) artifact,
//! [`FrozenScorer::score_into`] produces probabilities bitwise-identical
//! to `OptInterNet::predict` on the same batch at any thread count. That
//! holds because the scorer runs the training forward itself: it loads
//! the artifact into a [`Body`] over a [`FixedBlock`], the type
//! `OptInterNet` trains, and calls its `forward` — the same embedding
//! stores and lookups, the same combination block and the same
//! [`Mlp`](optinter_nn::Mlp) kernels — then the same `sigmoid`. The one
//! serving-side step is the hot-first permutation of a dense original
//! table: validation maps each field id to its arena row through
//! `row_map`, so identical bytes land in identical scratch positions.
//!
//! Steady-state scoring performs zero heap allocations (proved by
//! `tests/alloc_steady_state.rs`): all scratch lives in the scorer and is
//! `reset` in place per request.

use crate::artifact::{ArtifactError, FrozenModel, Quant};
use optinter_core::net::{DataDims, FixedBlock};
use optinter_core::{Body, Method, OptInterConfig};
use optinter_data::{Batch, BatchIter, EncodedDataset};
use optinter_nn::loss::probabilities_into;
use optinter_tensor::kernels::{self, Backend};
use optinter_tensor::Pool;
use std::fmt;
use std::ops::Range;

/// A malformed scoring request, surfaced as a typed error instead of a
/// panic: the serving tier scores ids it did not mint, so out-of-range
/// input is part of the error surface, not a programmer bug. All
/// variants are allocation-free (plain fields) so returning one keeps
/// the zero-alloc scoring contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreError {
    /// The batch's field arity does not match the frozen schema.
    FieldCountMismatch {
        /// Fields per row in the batch.
        got: usize,
        /// Fields per row the artifact was trained with.
        expected: usize,
    },
    /// The architecture memorizes pairs but the batch has no cross ids.
    MissingCross,
    /// The batch's cross width does not match the frozen pair count.
    CrossCountMismatch {
        /// Cross ids per row in the batch.
        got: usize,
        /// Pairs the artifact was trained with.
        expected: usize,
    },
    /// An original-feature id is outside the frozen key space.
    FieldIdOutOfRange {
        /// Batch row of the offending id.
        row: usize,
        /// Field index within the row.
        field: usize,
        /// The id itself.
        id: u32,
        /// Exclusive upper bound (`dims.orig_vocab`).
        key_space: u32,
    },
    /// A cross-product id is outside its pair's vocab block.
    CrossIdOutOfRange {
        /// Batch row of the offending id.
        row: usize,
        /// Pair index within the row.
        pair: usize,
        /// The id itself.
        id: u32,
        /// Inclusive lower bound (the pair's offset).
        lo: u32,
        /// Exclusive upper bound (offset + pair vocab size).
        hi: u32,
    },
}

impl fmt::Display for ScoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScoreError::FieldCountMismatch { got, expected } => {
                write!(f, "request has {got} fields, the scorer expects {expected}")
            }
            ScoreError::MissingCross => {
                write!(
                    f,
                    "architecture memorizes pairs but the batch has no cross features"
                )
            }
            ScoreError::CrossCountMismatch { got, expected } => {
                write!(
                    f,
                    "request has {got} cross ids per row, the scorer expects {expected}"
                )
            }
            ScoreError::FieldIdOutOfRange {
                row,
                field,
                id,
                key_space,
            } => write!(
                f,
                "row {row} field {field}: id {id} outside the frozen key space {key_space}"
            ),
            ScoreError::CrossIdOutOfRange {
                row,
                pair,
                id,
                lo,
                hi,
            } => write!(
                f,
                "row {row} pair {pair}: cross id {id} outside its vocab block [{lo}, {hi})"
            ),
        }
    }
}

impl std::error::Error for ScoreError {}

/// A loaded, immutable model plus per-scorer scratch. One instance serves
/// one thread of control; clone-free request scoring after warm-up.
pub struct FrozenScorer {
    quant: Quant,
    /// Kernel backend the scorer dispatches to, captured at load time so
    /// the serving tier can report it next to the freeze-time backend
    /// recorded in the artifact.
    backend: Backend,
    /// Backend recorded in the artifact at freeze time.
    frozen_backend: Backend,
    /// Training-time field id → row of the hot-first original arena.
    /// Empty when the original store is hashed: its ids index it directly.
    row_map: Vec<u32>,
    /// The training forward over the frozen weights.
    fwd: Body<FixedBlock>,
    /// The request's field ids as the original store indexes them.
    ids: Vec<u32>,
}

impl FrozenScorer {
    /// Builds a scorer over `model` with a `num_threads`-wide pool.
    ///
    /// # Errors
    /// Returns [`ArtifactError::Corrupt`] when the model's tensors are
    /// missing or shaped inconsistently with its metadata.
    pub fn new(model: &FrozenModel, num_threads: usize) -> Result<Self, ArtifactError> {
        let dims = &model.dims;
        let row_map = if model.orig_store.is_hashed() {
            Vec::new()
        } else if model.row_map.len() == dims.orig_vocab as usize {
            model.row_map.clone()
        } else {
            return Err(ArtifactError::Corrupt(format!(
                "row_map has {} entries for vocab {}",
                model.row_map.len(),
                dims.orig_vocab
            )));
        };
        // The fields of a training config that shape the forward.
        let cfg = OptInterConfig {
            orig_dim: model.orig_dim,
            cross_dim: model.cross_dim,
            hidden: model.hidden.clone(),
            layer_norm: model.layer_norm,
            fact_fn: model.fact_fn,
            orig_store: model.orig_store.kind,
            cross_store: model.cross_store.kind,
            ..OptInterConfig::default()
        };
        let mut fetched = 0usize;
        let fwd = Body::from_weights(
            &cfg,
            dims.clone(),
            &model.arch,
            [model.orig_store.seed, model.cross_store.seed],
            Pool::new(num_threads),
            &mut |name, (rows, cols)| {
                let t = model
                    .tensor(name)
                    .ok_or_else(|| format!("missing tensor `{name}`"))?;
                if (t.rows(), t.cols()) != (rows, cols) {
                    return Err(format!(
                        "tensor `{name}` is {}x{}, expected {rows}x{cols}",
                        t.rows(),
                        t.cols()
                    ));
                }
                fetched += 1;
                Ok(t.to_matrix())
            },
        )
        .map_err(ArtifactError::Corrupt)?;
        if model.tensors.len() != fetched {
            return Err(ArtifactError::Corrupt(format!(
                "artifact has {} tensors, model shape needs {fetched}",
                model.tensors.len()
            )));
        }
        Ok(Self {
            quant: model.quant,
            backend: kernels::active(),
            frozen_backend: model.backend,
            row_map,
            fwd,
            ids: Vec::new(),
        })
    }

    /// MLP input dimension (diagnostics).
    pub fn input_dim(&self) -> usize {
        self.fwd.block().layout().input_dim()
    }

    /// Quantization mode of the loaded artifact.
    pub fn quant(&self) -> Quant {
        self.quant
    }

    /// Kernel backend this scorer dispatches to (captured at load time).
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Kernel backend recorded in the artifact at freeze time. Whether or
    /// not it matches [`Self::backend`], f32 scores carry the freeze-time
    /// bits: every backend computes the same ones.
    pub fn frozen_backend(&self) -> Backend {
        self.frozen_backend
    }

    /// Dataset dimensions baked into the artifact.
    pub fn dims(&self) -> &DataDims {
        self.fwd.block().dims()
    }

    /// Whether scoring needs cross features in the batch (the frozen
    /// architecture memorizes at least one pair). The micro-batch front
    /// door uses this to validate requests before they are queued.
    pub fn requires_cross(&self) -> bool {
        self.fwd.block().layout().num_memorized() > 0
    }

    /// Scores a batch of requests into `out` (cleared first): `out[i]` is
    /// the predicted click probability of row `i`. Labels in `batch` are
    /// ignored. Allocation-free at steady state.
    ///
    /// # Errors
    /// Returns a typed [`ScoreError`] — never panics — when the batch
    /// does not match the frozen schema or carries ids outside the
    /// frozen key spaces; `out` is left cleared in that case.
    pub fn score_into(&mut self, batch: &Batch, out: &mut Vec<f32>) -> Result<(), ScoreError> {
        out.clear();
        self.validate(batch)?;
        let logits = self.fwd.forward(&self.ids, &batch.cross);
        probabilities_into(logits, out);
        Ok(())
    }

    /// Scores `rows` of `data` in batches of `batch_size` and returns the
    /// probabilities with the rows' labels, in row order: how a model is
    /// evaluated on a held-out split.
    ///
    /// # Errors
    /// The first batch's [`ScoreError`], as [`Self::score_into`] gives it.
    pub fn score_rows(
        &mut self,
        data: &EncodedDataset,
        rows: Range<usize>,
        batch_size: usize,
    ) -> Result<(Vec<f32>, Vec<f32>), ScoreError> {
        let mut probs = Vec::with_capacity(rows.len());
        let mut labels = Vec::with_capacity(rows.len());
        let (mut batch, mut scored) = (Batch::empty(), Vec::new());
        let mut iter = BatchIter::new(data, rows, batch_size, None).with_cross(true);
        while iter.next_into(&mut batch) {
            self.score_into(&batch, &mut scored)?;
            probs.extend_from_slice(&scored);
            labels.extend_from_slice(&batch.labels);
        }
        Ok((probs, labels))
    }

    /// Checks a batch against the frozen schema and key spaces *before*
    /// any table access, so the forward never indexes out of range, and
    /// writes the field ids the original store reads into `self.ids`.
    /// Allocation-free at steady state: every [`ScoreError`] is plain
    /// fields.
    fn validate(&mut self, batch: &Batch) -> Result<(), ScoreError> {
        let dims = self.fwd.block().dims();
        let m = dims.num_fields;
        if batch.num_fields != m {
            return Err(ScoreError::FieldCountMismatch {
                got: batch.num_fields,
                expected: m,
            });
        }
        let key_space = dims.orig_vocab;
        self.ids.clear();
        for (row, ids) in batch.fields.chunks(m.max(1)).enumerate() {
            if ids.len() != m {
                return Err(ScoreError::FieldCountMismatch {
                    got: ids.len(),
                    expected: m,
                });
            }
            for (field, &id) in ids.iter().enumerate() {
                if id >= key_space {
                    return Err(ScoreError::FieldIdOutOfRange {
                        row,
                        field,
                        id,
                        key_space,
                    });
                }
                self.ids
                    .push(self.row_map.get(id as usize).copied().unwrap_or(id));
            }
        }
        let layout = self.fwd.block().layout();
        if layout.num_memorized() == 0 {
            return Ok(());
        }
        if batch.cross.is_empty() {
            return Err(ScoreError::MissingCross);
        }
        let p_count = dims.num_pairs;
        let b = batch.fields.len() / m.max(1);
        if batch.cross.len() != b * p_count {
            return Err(ScoreError::CrossCountMismatch {
                got: batch.cross.len() / b.max(1),
                expected: p_count,
            });
        }
        for (r, row) in batch.cross.chunks_exact(p_count).enumerate() {
            for (p, (slot, &id)) in layout.slots().iter().zip(row).enumerate() {
                if slot.method != Method::Memorize {
                    continue;
                }
                let lo = dims.pair_offsets[p];
                let hi = lo + dims.pair_vocab_sizes[p];
                if id < lo || id >= hi {
                    return Err(ScoreError::CrossIdOutOfRange {
                        row: r,
                        pair: p,
                        id,
                        lo,
                        hi,
                    });
                }
            }
        }
        Ok(())
    }
}
