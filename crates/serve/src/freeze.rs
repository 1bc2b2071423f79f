//! Turning a trained `OptInterNet` into a [`FrozenModel`].
//!
//! Freeze-time layout work:
//!
//! - **Hot-first embedding reorder.** Vocab ids are already
//!   frequency-then-key per field (`optinter_data::vocab`): within each
//!   field's block, local id 0 is OOV and ids ascend by decreasing
//!   frequency. The freezer interleaves fields *rank-major* — every
//!   field's rank-0 row, then every rank-1 row, ... — so the rows a
//!   Zipf-hot request mix actually touches cluster in the first pages of
//!   the arena. The permutation is stored as `row_map` (training id →
//!   arena row) and undone at lookup time, so scoring reads identical
//!   bytes.
//! - **Contiguous arena.** Each table is one dense `Matrix`; rows are
//!   moved verbatim into the f32 model, and `quantize` re-encodes the
//!   embedding tables at [`Quant::F16`] / [`Quant::Int8`].
//! - **AUC-delta gate.** [`freeze_gated`] re-quantizes an f32 model and
//!   accepts the result only when its scorer's AUC on a held-out
//!   synthetic eval set moves by at most `max_auc_delta` from the f32
//!   scorer's, which is the training path's bit for bit.

use crate::artifact::{FrozenModel, Quant, StoreDesc, TensorData};
use crate::scorer::FrozenScorer;
use optinter_core::net::DataDims;
use optinter_core::OptInterNet;
use optinter_data::EncodedDataset;
use optinter_metrics::auc;
use optinter_tensor::kernels;
use optinter_tensor::Matrix;
use std::fmt;
use std::ops::Range;

/// Rows per batch when [`freeze_gated`] scores its eval rows: the default
/// training batch.
const GATE_BATCH: usize = 128;

/// Why a gated freeze was rejected.
#[derive(Debug)]
pub enum FreezeError {
    /// Quantization moved eval AUC beyond the allowed delta.
    AucGate {
        /// The f32 scorer's AUC on the eval set.
        base_auc: f64,
        /// Frozen (quantized) scorer AUC on the eval set.
        frozen_auc: f64,
        /// |base - frozen|.
        delta: f64,
        /// The configured ceiling.
        max_delta: f64,
    },
    /// The model handed to [`freeze_gated`] is already quantized, and
    /// re-quantizing dequantized values drifts (int8's `(127·s)/127` is
    /// not an f32 fixed point).
    Quantized(Quant),
    /// The model failed to load into a scorer or to score the eval rows:
    /// a corrupt model, or eval rows from other data.
    Model(String),
}

impl fmt::Display for FreezeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FreezeError::AucGate {
                base_auc,
                frozen_auc,
                delta,
                max_delta,
            } => write!(
                f,
                "quantization rejected: eval AUC {base_auc:.6} -> {frozen_auc:.6} \
                 (delta {delta:.6} > allowed {max_delta:.6})"
            ),
            FreezeError::Quantized(quant) => write!(
                f,
                "the model is already {}-quantized: freeze re-quantizes only an f32 model",
                quant.name()
            ),
            FreezeError::Model(e) => write!(f, "frozen model rejected: {e}"),
        }
    }
}

impl std::error::Error for FreezeError {}

/// Rank-major hot-first permutation over the per-field vocab blocks:
/// `row_map[training_id] = arena_row`. Fields' equally-ranked (equally
/// hot) rows are adjacent in the arena.
pub fn hot_first_row_map(field_offsets: &[u32], orig_vocab: u32) -> Vec<u32> {
    let m = field_offsets.len();
    let mut map = vec![0u32; orig_vocab as usize];
    let mut next = 0u32;
    let mut rank = 0u32;
    let mut placed = 0usize;
    while placed < orig_vocab as usize {
        let before = placed;
        for f in 0..m {
            let lo = field_offsets[f];
            let hi = if f + 1 < m {
                field_offsets[f + 1]
            } else {
                orig_vocab
            };
            let id = lo + rank;
            if id < hi {
                map[id as usize] = next;
                next += 1;
                placed += 1;
            }
        }
        assert!(
            placed > before,
            "hot_first_row_map: inconsistent field offsets"
        );
        rank += 1;
    }
    map
}

/// Applies a row permutation: `out.row(map[g]) = weights.row(g)`.
fn permute_rows(weights: &Matrix, map: &[u32]) -> Matrix {
    let (rows, cols) = weights.shape();
    debug_assert_eq!(rows, map.len());
    let mut out = Matrix::zeros(rows, cols);
    for (g, &dst) in map.iter().enumerate() {
        out.row_mut(dst as usize).copy_from_slice(weights.row(g));
    }
    out
}

/// Freezes a trained network into serving layout at `quant`, without an
/// accuracy gate. Use [`freeze_gated`] on the f32 model when quantizing.
///
/// `data` must be the dataset the network was trained against — its
/// `field_offsets` drive the hot-first reorder and its dimensions are
/// validated against the network's.
pub fn freeze(net: &mut OptInterNet, data: &EncodedDataset, quant: Quant) -> FrozenModel {
    let dims = DataDims::of(data);
    let cfg = net.config().clone();
    let arch = net.architecture().clone();
    assert_eq!(
        arch.num_pairs(),
        dims.num_pairs,
        "freeze: architecture/dataset mismatch"
    );

    let [orig_store, cross_store] = {
        let (orig, cross) = net.embedding_stores();
        [orig, cross].map(|store| StoreDesc {
            kind: store.kind(),
            seed: store.hash_seed().unwrap_or(0),
        })
    };
    // The hot-first reorder only makes sense for a dense per-id arena; a
    // hashed store's sub-table rows are shared across ids, so they are
    // frozen verbatim and recomposed at lookup time.
    let row_map = if !orig_store.is_hashed() {
        hot_first_row_map(&data.field_offsets, data.orig_vocab)
    } else {
        Vec::new()
    };
    // The exported matrices move into the model; only the dense original
    // table is rebuilt, in arena order.
    let tensors = net
        .export_weights()
        .into_iter()
        .map(|(name, matrix)| {
            let matrix = match name.as_str() {
                "e_orig" => permute_rows(&matrix, &row_map),
                _ => matrix,
            };
            (name, TensorData::F32(matrix))
        })
        .collect();

    let model = FrozenModel {
        orig_dim: cfg.orig_dim,
        cross_dim: cfg.cross_dim,
        hidden: cfg.hidden.clone(),
        layer_norm: cfg.layer_norm,
        fact_fn: cfg.fact_fn,
        backend: kernels::active(),
        quant: Quant::F32,
        dims,
        arch,
        orig_store,
        cross_store,
        row_map,
        tensors,
    };
    quantize(model, quant)
}

/// Re-encodes an f32 model's embedding tables at `quant`. The tables are
/// the memory giants, so they are the only tensors quantization touches;
/// the factorization weights and the MLP stay f32. Consumes the model, so
/// [`Quant::F32`] copies nothing.
fn quantize(mut model: FrozenModel, quant: Quant) -> FrozenModel {
    if quant != Quant::F32 {
        for (name, data) in &mut model.tensors {
            let table = matches!(
                name.as_str(),
                "e_orig" | "e_orig.t1" | "e_orig.t2" | "e_cross" | "e_cross.t1" | "e_cross.t2"
            );
            if let (true, TensorData::F32(matrix)) = (table, &*data) {
                *data = TensorData::encode(matrix, quant);
            }
        }
    }
    model.quant = quant;
    model
}

/// Re-quantizes an f32 `model` at `quant` behind the AUC-delta
/// acceptance gate: scores `eval_rows` of `data` through the f32 model's
/// scorer and through the quantized one, and rejects the result when the
/// AUCs differ by more than `max_auc_delta`. The f32 scorer is the
/// training path bit for bit (`tests/serve_parity.rs`), so the gate
/// measures what quantization costs the trained model.
///
/// Returns the quantized model together with the measured delta.
///
/// # Errors
/// [`FreezeError::Quantized`] when `model` is not f32;
/// [`FreezeError::AucGate`] when the gate fires; [`FreezeError::Model`]
/// when either model fails to load or to score `eval_rows` of `data`.
pub fn freeze_gated(
    model: FrozenModel,
    data: &EncodedDataset,
    eval_rows: Range<usize>,
    quant: Quant,
    max_auc_delta: f64,
) -> Result<(FrozenModel, f64), FreezeError> {
    if model.quant != Quant::F32 {
        return Err(FreezeError::Quantized(model.quant));
    }
    let base_auc = eval_auc(&model, data, eval_rows.clone())?;
    let frozen = quantize(model, quant);
    let frozen_auc = eval_auc(&frozen, data, eval_rows)?;
    let delta = (base_auc - frozen_auc).abs();
    if delta > max_auc_delta {
        return Err(FreezeError::AucGate {
            base_auc,
            frozen_auc,
            delta,
            max_delta: max_auc_delta,
        });
    }
    Ok((frozen, delta))
}

/// The AUC of `model`'s scores on `rows` of `data`.
fn eval_auc(
    model: &FrozenModel,
    data: &EncodedDataset,
    rows: Range<usize>,
) -> Result<f64, FreezeError> {
    let mut scorer = FrozenScorer::new(model, 1).map_err(|e| FreezeError::Model(e.to_string()))?;
    let (probs, labels) = scorer
        .score_rows(data, rows, GATE_BATCH)
        .map_err(|e| FreezeError::Model(e.to_string()))?;
    Ok(auc(&probs, &labels))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_major_map_interleaves_fields() {
        // Two fields: sizes 3 and 2 (offsets 0, 3).
        let map = hot_first_row_map(&[0, 3], 5);
        // rank 0: ids 0 (f0) and 3 (f1); rank 1: ids 1, 4; rank 2: id 2.
        assert_eq!(map, vec![0, 2, 4, 1, 3]);
    }

    #[test]
    fn map_is_a_permutation_on_ragged_fields() {
        let offsets = [0u32, 1, 8, 10];
        let vocab = 17u32;
        let map = hot_first_row_map(&offsets, vocab);
        let mut seen = vec![false; vocab as usize];
        for &v in &map {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
