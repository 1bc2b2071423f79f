//! Zero-alloc single-request (and micro-batch) scorer over a frozen
//! artifact.
//!
//! Bit-parity contract: for an unquantized ([`Quant::F32`]) artifact,
//! [`FrozenScorer::score_into`] produces probabilities bitwise-identical
//! to `OptInterNet::predict` on the same batch at any thread count. That
//! holds because every stage reuses the training path's machinery:
//!
//! - embedding lookups are pure row copies (the hot-first permutation is
//!   undone through `row_map`, so identical bytes land in identical
//!   scratch positions) — and for hashed stores, the same slot functions
//!   and elementwise product the training store used;
//! - MLP-input assembly is the training forward's own function,
//!   [`PairLayout::assemble_into`], over a layout rebuilt from the frozen
//!   architecture;
//! - the classifier is a real [`Mlp`] rebuilt from the frozen weights, so
//!   the blocked matmul kernels and LayerNorm are literally the training
//!   code;
//! - probabilities go through the same `sigmoid`.
//!
//! Steady-state scoring performs zero heap allocations (proved by
//! `tests/alloc_steady_state.rs`): all scratch lives in the scorer and is
//! `reset` in place per request.

use crate::artifact::{ArtifactError, FrozenModel, Quant, StoreDesc};
use optinter_core::combine::{Fact, PairLayout};
use optinter_core::net::DataDims;
use optinter_core::{FactFn, Method};
use optinter_data::Batch;
use optinter_nn::loss::probabilities_into;
use optinter_nn::{double_hash_slots, qr_slots, HashScheme, Layer, Mlp, MlpConfig};
use optinter_tensor::kernels::{self, Backend};
use optinter_tensor::{Matrix, Pool};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

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

/// Below this many scalars a pooled lookup dispatch costs more than the
/// copies; mirrors `POOL_MIN_WORK` in `optinter_nn::embedding`. Either
/// path writes identical bytes, so this is purely a latency knob.
const SERIAL_LOOKUP_MIN: usize = 16 * 1024;

/// A frozen embedding table in serving form: either a dense arena (with
/// an optional hot-first permutation to undo at lookup time) or a
/// compositional pair of sub-tables whose rows are recomposed per id
/// with the exact slot functions and elementwise product the training
/// store used — which is what keeps f32 serving bit-identical to
/// training for hashed stores too.
enum ServingTable {
    /// One row per id. `row_map` is `Some` for the hot-first reordered
    /// original arena and `None` for the compact cross table.
    Dense {
        arena: Matrix,
        row_map: Option<Vec<u32>>,
    },
    /// Two sub-tables composed as `t1.row(a) ⊙ t2.row(b)`.
    Hashed {
        t1: Matrix,
        t2: Matrix,
        scheme: HashScheme,
        seed: u64,
    },
}

impl ServingTable {
    fn dim(&self) -> usize {
        match self {
            ServingTable::Dense { arena, .. } => arena.cols(),
            ServingTable::Hashed { t1, .. } => t1.cols(),
        }
    }

    /// Gathers `flat` (`B * num_fields` ids, already validated in-range)
    /// into `out`, `[B, num_fields * dim]`. Row writes are
    /// order-independent, so the serial and pooled paths produce
    /// identical bytes; the threshold only picks the faster one.
    fn lookup_into(&self, flat: &[u32], num_fields: usize, pool: &Pool, out: &mut Matrix) {
        let dim = self.dim();
        debug_assert!(num_fields > 0);
        debug_assert_eq!(flat.len() % num_fields, 0);
        let batch = flat.len() / num_fields;
        let width = num_fields * dim;
        out.reset(batch, width);
        let fill_row = |r: usize, dst: &mut [f32]| {
            let ids = &flat[r * num_fields..(r + 1) * num_fields];
            for (f, &id) in ids.iter().enumerate() {
                let cell = &mut dst[f * dim..(f + 1) * dim];
                match self {
                    ServingTable::Dense { arena, row_map } => {
                        let row = match row_map {
                            Some(m) => m[id as usize],
                            None => id,
                        };
                        cell.copy_from_slice(arena.row(row as usize));
                    }
                    ServingTable::Hashed {
                        t1,
                        t2,
                        scheme,
                        seed,
                    } => {
                        let (a, b) = match *scheme {
                            HashScheme::QuotientRemainder { bucket } => qr_slots(bucket, id),
                            HashScheme::DoubleHash { rows } => double_hash_slots(*seed, rows, id),
                        };
                        let (ra, rb) = (t1.row(a as usize), t2.row(b as usize));
                        for ((d, &x), &y) in cell.iter_mut().zip(ra).zip(rb) {
                            *d = x * y;
                        }
                    }
                }
            }
        };
        if pool.is_serial() || flat.len() * dim < SERIAL_LOOKUP_MIN {
            for r in 0..batch {
                fill_row(r, out.row_mut(r));
            }
        } else {
            pool.for_rows(out.as_mut_slice(), width, fill_row);
        }
    }
}

/// A loaded, immutable model plus per-scorer scratch. One instance serves
/// one thread of control; clone-free request scoring after warm-up.
pub struct FrozenScorer {
    dims: DataDims,
    fact_fn: FactFn,
    quant: Quant,
    /// Kernel backend the scorer dispatches to, captured at load time so
    /// the serving tier can report it next to the freeze-time backend
    /// recorded in the artifact.
    backend: Backend,
    /// Backend recorded in the artifact at freeze time.
    frozen_backend: Backend,
    /// The training-time pair layout, rebuilt from the frozen metadata.
    layout: PairLayout,
    /// Original-feature table (hot-first arena or hashed sub-tables).
    orig: ServingTable,
    /// Compact cross table (training order).
    cross: ServingTable,
    fact_weights: Option<Matrix>,
    mlp: Mlp,
    pool: Pool,
    // Per-request scratch, reused across calls.
    eo: Matrix,
    em: Matrix,
    input: Matrix,
    logits: Matrix,
    mem_ids: Vec<u32>,
}

impl FrozenScorer {
    /// Builds a scorer over `model` with a `num_threads`-wide pool.
    ///
    /// # Errors
    /// Returns [`ArtifactError::Corrupt`] when the model's tensors are
    /// missing or shaped inconsistently with its metadata.
    pub fn new(model: &FrozenModel, num_threads: usize) -> Result<Self, ArtifactError> {
        let dims = model.dims.clone();
        let s1 = model.orig_dim;
        let s2 = model.cross_dim;
        let layout = PairLayout::new(&model.arch, &dims, s1, s2);

        let orig = build_table(
            model,
            "e_orig",
            model.orig_store,
            dims.orig_vocab as usize,
            s1,
            true,
        )?;
        let cross = build_table(
            model,
            "e_cross",
            model.cross_store,
            layout.compact_rows(),
            s2,
            false,
        )?;
        let fact_weights = if model.fact_fn == FactFn::Generalized {
            Some(fetch(model, "fact_weights", dims.num_pairs, s1)?)
        } else {
            if model.tensor("fact_weights").is_some() {
                return Err(corrupt(format!(
                    "fact_weights present but fact_fn is {:?}",
                    model.fact_fn
                )));
            }
            None
        };

        // Rebuild a real Mlp (same kernels as training) and overwrite its
        // parameters with the frozen ones, checking count and shapes.
        let mut rng = StdRng::seed_from_u64(0);
        let mut mlp = Mlp::new(
            &mut rng,
            &MlpConfig {
                input_dim: layout.input_dim(),
                hidden: model.hidden.clone(),
                output_dim: 1,
                layer_norm: model.layer_norm,
                ln_eps: 1e-5,
            },
        );
        let mut idx = 0usize;
        let mut err: Option<ArtifactError> = None;
        mlp.visit_params(&mut |p| {
            if err.is_some() {
                return;
            }
            let name = format!("mlp.{idx}");
            match fetch(model, &name, p.value.rows(), p.value.cols()) {
                Ok(m) => p.value = m,
                Err(e) => err = Some(e),
            }
            idx += 1;
        });
        if let Some(e) = err {
            return Err(e);
        }
        let embed_tensors = [model.orig_store, model.cross_store]
            .iter()
            .map(|d| if d.is_hashed() { 2 } else { 1 })
            .sum::<usize>();
        let expected_tensors = embed_tensors + fact_weights.is_some() as usize + idx;
        if model.tensors.len() != expected_tensors {
            return Err(corrupt(format!(
                "artifact has {} tensors, model shape needs {expected_tensors}",
                model.tensors.len()
            )));
        }

        let pool = Pool::new(num_threads);
        mlp.set_pool(&pool);
        Ok(Self {
            dims,
            fact_fn: model.fact_fn,
            quant: model.quant,
            backend: kernels::active(),
            frozen_backend: model.backend,
            layout,
            orig,
            cross,
            fact_weights,
            mlp,
            pool,
            eo: Matrix::zeros(0, 0),
            em: Matrix::zeros(0, 0),
            input: Matrix::zeros(0, 0),
            logits: Matrix::zeros(0, 0),
            mem_ids: Vec::new(),
        })
    }

    /// MLP input dimension (diagnostics).
    pub fn input_dim(&self) -> usize {
        self.layout.input_dim()
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
        &self.dims
    }

    /// Whether scoring needs cross features in the batch (the frozen
    /// architecture memorizes at least one pair). The micro-batch front
    /// door uses this to validate requests before they are queued.
    pub fn requires_cross(&self) -> bool {
        self.layout.num_memorized() > 0
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
        let m = self.dims.num_fields;
        self.orig
            .lookup_into(&batch.fields, m, &self.pool, &mut self.eo);
        self.layout
            .gather_mem_ids_into(&batch.cross, &self.dims.pair_offsets, &mut self.mem_ids);
        let num_memorized = self.layout.num_memorized();
        if num_memorized > 0 {
            self.cross
                .lookup_into(&self.mem_ids, num_memorized, &self.pool, &mut self.em);
        } else {
            self.em.reset(batch.len(), 0);
        }
        // The training forward's own assembly (`OptInterNet::forward_step`),
        // sharded owner-computes so any thread count writes identical bytes.
        self.layout.assemble_into(
            &self.pool,
            Fact::new(self.fact_fn, self.fact_weights.as_ref()),
            &self.eo,
            &self.em,
            &mut self.input,
        );
        self.mlp.forward_into(&self.input, &mut self.logits);
        probabilities_into(&self.logits, out);
        Ok(())
    }

    /// Checks a batch against the frozen schema and key spaces *before*
    /// any table access, so the scoring hot path never indexes out of
    /// range. Allocation-free: every [`ScoreError`] is plain fields.
    fn validate(&self, batch: &Batch) -> Result<(), ScoreError> {
        let m = self.dims.num_fields;
        if batch.num_fields != m {
            return Err(ScoreError::FieldCountMismatch {
                got: batch.num_fields,
                expected: m,
            });
        }
        let key_space = self.dims.orig_vocab;
        for (i, &id) in batch.fields.iter().enumerate() {
            if id >= key_space {
                return Err(ScoreError::FieldIdOutOfRange {
                    row: i / m.max(1),
                    field: i % m.max(1),
                    id,
                    key_space,
                });
            }
        }
        if self.layout.num_memorized() == 0 {
            return Ok(());
        }
        if batch.cross.is_empty() {
            return Err(ScoreError::MissingCross);
        }
        let p_count = self.dims.num_pairs;
        let b = batch.len();
        if batch.cross.len() != b * p_count {
            return Err(ScoreError::CrossCountMismatch {
                got: batch.cross.len() / b.max(1),
                expected: p_count,
            });
        }
        for r in 0..b {
            let row = &batch.cross[r * p_count..(r + 1) * p_count];
            for (p, slot) in self.layout.slots().iter().enumerate() {
                if slot.method != Method::Memorize {
                    continue;
                }
                let lo = self.dims.pair_offsets[p];
                let hi = lo + self.dims.pair_vocab_sizes[p];
                let id = row[p];
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

fn corrupt(why: String) -> ArtifactError {
    ArtifactError::Corrupt(why)
}

/// Fetches a named tensor, dequantizes it, and checks its shape.
fn fetch(
    model: &FrozenModel,
    name: &str,
    rows: usize,
    cols: usize,
) -> Result<Matrix, ArtifactError> {
    let Some(t) = model.tensor(name) else {
        return Err(corrupt(format!("missing tensor `{name}`")));
    };
    if t.rows() != rows || t.cols() != cols {
        return Err(corrupt(format!(
            "tensor `{name}` is {}x{}, expected {rows}x{cols}",
            t.rows(),
            t.cols()
        )));
    }
    Ok(t.to_matrix())
}

/// Builds the serving form of one embedding table from the artifact's
/// store descriptor, fetching and shape-checking its tensor(s).
/// `permuted` marks the hot-first-reordered original arena.
fn build_table(
    model: &FrozenModel,
    name: &str,
    desc: StoreDesc,
    key_space: usize,
    dim: usize,
    permuted: bool,
) -> Result<ServingTable, ArtifactError> {
    match desc {
        StoreDesc::Dense => {
            let arena = fetch(model, name, key_space, dim)?;
            let row_map = if permuted {
                if model.row_map.len() != key_space {
                    return Err(corrupt(format!(
                        "row_map has {} entries for vocab {key_space}",
                        model.row_map.len()
                    )));
                }
                Some(model.row_map.clone())
            } else {
                None
            };
            Ok(ServingTable::Dense { arena, row_map })
        }
        StoreDesc::HashedQr { bucket, seed } => {
            let t1 = fetch(
                model,
                &format!("{name}.t1"),
                key_space.div_ceil(bucket as usize),
                dim,
            )?;
            let t2 = fetch(model, &format!("{name}.t2"), bucket as usize, dim)?;
            Ok(ServingTable::Hashed {
                t1,
                t2,
                scheme: HashScheme::QuotientRemainder { bucket },
                seed,
            })
        }
        StoreDesc::HashedDouble { rows, seed } => {
            let t1 = fetch(model, &format!("{name}.t1"), rows as usize, dim)?;
            let t2 = fetch(model, &format!("{name}.t2"), rows as usize, dim)?;
            Ok(ServingTable::Hashed {
                t1,
                t2,
                scheme: HashScheme::DoubleHash { rows },
                seed,
            })
        }
    }
}
