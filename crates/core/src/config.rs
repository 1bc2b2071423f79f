//! Hyper-parameters of OptInter and the baseline zoo — the Table IV
//! analogue, scaled to the single-core synthetic substrate.

use crate::gumbel::TauSchedule;
use optinter_nn::{EmbedOptimizerMode, StoreKind};

/// The factorization function used by the factorized branch (paper Sec.
/// II-C1). The paper takes the Hadamard product as the representative and
/// notes the framework "can be extended easily to taking multiple
/// operations into account" — the other two variants implement that
/// extension and are compared by the `ablation` bench binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactFn {
    /// Element-wise product `e_i ⊗ e_j` (Eq. 14; the paper's choice).
    Hadamard,
    /// Element-wise sum `e_i ⊕ e_j`.
    PointwiseAdd,
    /// Generalized product `w_(i,j) ⊙ e_i ⊙ e_j` with a learnable
    /// per-pair weight vector.
    Generalized,
}

impl FactFn {
    /// Display tag.
    pub fn tag(&self) -> &'static str {
        match self {
            FactFn::Hadamard => "hadamard",
            FactFn::PointwiseAdd => "pointwise-add",
            FactFn::Generalized => "generalized",
        }
    }
}

/// Hyper-parameters for OptInter training (search and re-train stages)
/// and for the baseline zoo (`optinter-models`), which reads the fields
/// it shares with OptInter plus [`subnet`](Self::subnet),
/// [`grda_c`](Self::grda_c) and [`grda_mu`](Self::grda_mu).
#[derive(Debug, Clone)]
pub struct OptInterConfig {
    /// Embedding size for original features (Table IV: `s1`), every zoo
    /// model's embedding size too.
    pub orig_dim: usize,
    /// Embedding size for cross-product features (Table IV: `s2`).
    pub cross_dim: usize,
    /// MLP hidden widths (Table IV: `net`).
    pub hidden: Vec<usize>,
    /// Apply LayerNorm in the MLP (Table IV: `LN`).
    pub layer_norm: bool,
    /// Mini-batch size (Table IV: `bs`).
    pub batch_size: usize,
    /// Learning rate for network weights and `E^o` (Table IV: `lr_o`).
    pub lr: f32,
    /// Learning rate for the cross-product table `E^m` (Table IV: `lr_c`).
    pub lr_cross: f32,
    /// Learning rate for architecture parameters (Table IV: `lr_a`).
    pub lr_arch: f32,
    /// Adam epsilon (Table IV: `eps`).
    pub adam_eps: f32,
    /// L2 on original embeddings (Table IV: `l2_o`), and the weight decay
    /// every zoo model puts on its tables (LR's and Poly2's weights too).
    pub l2_orig: f32,
    /// L2 on cross-product embeddings (Table IV: `l2_c`).
    pub l2_cross: f32,
    /// Epochs for the search stage.
    pub search_epochs: usize,
    /// Epochs for the re-train stage, and every zoo model's epoch budget
    /// (AutoFIS's gate search and re-train alike).
    pub retrain_epochs: usize,
    /// Factorization function for the factorized branch.
    pub fact_fn: FactFn,
    /// Gumbel-softmax temperature annealing over the search stage.
    pub tau: TauSchedule,
    /// Master seed for weight init, shuffling and Gumbel noise.
    pub seed: u64,
    /// Intra-batch data-parallel threads (1 = serial). Any value produces
    /// bit-identical results; see `optinter_tensor::pool`.
    pub num_threads: usize,
    /// Overlap batch assembly with compute via the prefetching
    /// `optinter_data::BatchStream` (default on). Either value produces
    /// bit-identical results; off keeps training entirely on the caller
    /// thread (A/B timing, single-threaded debugging).
    pub prefetch: bool,
    /// Storage scheme for the original-feature table `E^o`
    /// ([`StoreKind::Dense`] reproduces historical trajectories bitwise;
    /// the hashed kinds trade exactness for `O(√V)` memory at giant
    /// vocabularies).
    pub orig_store: StoreKind,
    /// Storage scheme for the cross-product table `E^m`.
    pub cross_store: StoreKind,
    /// Embedding-optimizer row-visiting policy (sparse touched-row,
    /// dense full-sweep reference, or lazy catch-up; see
    /// `optinter_nn::EmbedOptimizerMode`). All modes with `l2 = 0` are
    /// bitwise-equivalent on touched rows; `LazyCatchUp` defers
    /// weight-decay-only updates until rows are next touched.
    pub embed_opt: EmbedOptimizerMode,
    /// PIN's micro-network widths: hidden widths, then the output width
    /// (Table IV: `sub-net`).
    pub subnet: Vec<usize>,
    /// AutoFIS's GRDA `c` (Table IV).
    pub grda_c: f32,
    /// AutoFIS's GRDA `μ` (Table IV).
    pub grda_mu: f32,
}

impl Default for OptInterConfig {
    fn default() -> Self {
        Self {
            orig_dim: 16,
            cross_dim: 8,
            hidden: vec![64, 32],
            layer_norm: true,
            batch_size: 128,
            // The paper's learning rates (e.g. 5e-4) assume tens of millions
            // of samples; our scaled datasets see ~100x fewer optimizer
            // steps, so the rates are scaled up accordingly.
            lr: 5e-3,
            lr_cross: 1e-2,
            lr_arch: 2e-2,
            adam_eps: 1e-8,
            l2_orig: 0.0,
            l2_cross: 1e-3,
            search_epochs: 2,
            retrain_epochs: 8,
            fact_fn: FactFn::Hadamard,
            tau: TauSchedule {
                start: 1.0,
                end: 0.2,
            },
            seed: 0,
            num_threads: 1,
            prefetch: true,
            orig_store: StoreKind::Dense,
            cross_store: StoreKind::Dense,
            embed_opt: EmbedOptimizerMode::Sparse,
            subnet: vec![16, 4],
            grda_c: 5e-4,
            grda_mu: 0.8,
        }
    }
}

impl OptInterConfig {
    /// A configuration shrunk for unit tests: tiny widths, small batches
    /// and aggressive learning rates so a few hundred optimizer steps are
    /// enough to see learning.
    pub fn test_small() -> Self {
        Self {
            orig_dim: 6,
            cross_dim: 4,
            hidden: vec![16],
            batch_size: 64,
            lr: 1e-2,
            lr_cross: 1e-2,
            lr_arch: 5e-2,
            search_epochs: 2,
            retrain_epochs: 8,
            subnet: vec![8, 3],
            ..Self::default()
        }
    }

    /// Width of the mixed pair embedding during search (candidates are
    /// zero-padded to a common width so they can be convexly combined).
    pub fn mixed_dim(&self) -> usize {
        self.orig_dim.max(self.cross_dim)
    }

    /// Returns a copy with a different seed (for repeated significance runs).
    pub fn with_seed(&self, seed: u64) -> Self {
        Self {
            seed,
            ..self.clone()
        }
    }

    /// Returns a copy with a different cross-embedding size (Figure 4's
    /// `s2` sweep).
    pub fn with_cross_dim(&self, cross_dim: usize) -> Self {
        Self {
            cross_dim,
            ..self.clone()
        }
    }

    /// Returns a copy with a different factorization function (the
    /// factorization-function ablation).
    pub fn with_fact_fn(&self, fact_fn: FactFn) -> Self {
        Self {
            fact_fn,
            ..self.clone()
        }
    }

    /// Returns a copy with a different data-parallel thread count.
    pub fn with_threads(&self, num_threads: usize) -> Self {
        Self {
            num_threads,
            ..self.clone()
        }
    }

    /// Returns a copy with input prefetching toggled (the bench
    /// `--no-prefetch` A/B switch).
    pub fn with_prefetch(&self, prefetch: bool) -> Self {
        Self {
            prefetch,
            ..self.clone()
        }
    }

    /// Returns a copy with both embedding tables moved to the given
    /// storage scheme (the giant-vocab dense-vs-hashed A/B switch).
    pub fn with_stores(&self, orig_store: StoreKind, cross_store: StoreKind) -> Self {
        Self {
            orig_store,
            cross_store,
            ..self.clone()
        }
    }

    /// Returns a copy with a different embedding-optimizer policy.
    pub fn with_embed_opt(&self, embed_opt: EmbedOptimizerMode) -> Self {
        Self {
            embed_opt,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = OptInterConfig::default();
        assert!(c.orig_dim >= c.cross_dim);
        assert_eq!(c.mixed_dim(), c.orig_dim);
        assert!(c.batch_size > 0);
    }

    #[test]
    fn with_seed_changes_only_seed() {
        let a = OptInterConfig::default();
        let b = a.with_seed(99);
        assert_eq!(b.seed, 99);
        assert_eq!(a.hidden, b.hidden);
        assert_eq!(a.orig_dim, b.orig_dim);
    }

    #[test]
    fn mixed_dim_is_max() {
        let c = OptInterConfig {
            orig_dim: 4,
            cross_dim: 10,
            ..OptInterConfig::default()
        };
        assert_eq!(c.mixed_dim(), 10);
    }
}
