//! The common interface every CTR model implements, plus the taxonomy
//! metadata of paper Table III.

use optinter_data::Batch;

/// The interaction-method category a model belongs to (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// No explicit feature interactions (LR, FNN).
    Naive,
    /// Interactions memorized as new features (Poly2, Wide&Deep).
    Memorized,
    /// Interactions modelled by factorization functions (FM family, PNNs).
    Factorized,
    /// Method chosen per interaction (AutoFIS, OptInter).
    Hybrid,
}

impl Category {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Category::Naive => "naive",
            Category::Memorized => "memorized",
            Category::Factorized => "factorized",
            Category::Hybrid => "hybrid",
        }
    }
}

/// Table III row: how a model fits into the OptInter framework.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Taxonomy {
    /// Interaction category.
    pub category: Category,
    /// Methods the model can use, as a display string (e.g. `{n,m,f}`).
    pub methods: &'static str,
    /// Factorization function, `-` when not applicable.
    pub factorization_fn: &'static str,
    /// Classifier: `Shallow`, `Deep` or `S&D`.
    pub classifier: &'static str,
}

/// A trainable CTR prediction model.
pub trait CtrModel {
    /// Model name as reported in the paper's tables.
    fn name(&self) -> &'static str;

    /// Where the model sits in the OptInter taxonomy (Table III).
    fn taxonomy(&self) -> Taxonomy;

    /// One optimizer step on a mini-batch; returns the mean batch loss.
    fn train_batch(&mut self, batch: &Batch) -> f32;

    /// Predicted click probabilities for a batch.
    fn predict(&mut self, batch: &Batch) -> Vec<f32>;

    /// Number of trainable scalar parameters.
    fn num_params(&mut self) -> usize;

    /// Whether the model consumes cross-product features (memorized ones
    /// do; the batcher can skip the cross gather otherwise).
    fn needs_cross(&self) -> bool {
        false
    }
}

/// Hyper-parameters shared by the baseline zoo.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Embedding size for original features (Table IV: `s1`).
    pub embed_dim: usize,
    /// MLP hidden widths for deep models (Table IV: `net`).
    pub hidden: Vec<usize>,
    /// Apply LayerNorm in deep classifiers.
    pub layer_norm: bool,
    /// Learning rate.
    pub lr: f32,
    /// Adam epsilon.
    pub adam_eps: f32,
    /// L2 weight decay on embeddings.
    pub l2: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Init / shuffle seed.
    pub seed: u64,
    /// PIN micro-network hidden widths (Table IV: `sub-net`).
    pub subnet: Vec<usize>,
    /// AutoFIS GRDA `c` (Table IV).
    pub grda_c: f32,
    /// AutoFIS GRDA `mu` (Table IV).
    pub grda_mu: f32,
    /// Intra-batch data-parallel threads for deep classifiers (1 = serial).
    /// Any value produces bit-identical results; see `optinter_tensor::pool`.
    pub num_threads: usize,
    /// Overlap batch assembly with compute via the prefetching
    /// `optinter_data::BatchStream` (default on). Either value produces
    /// bit-identical results.
    pub prefetch: bool,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self {
            embed_dim: 16,
            hidden: vec![64, 32],
            layer_norm: true,
            lr: 5e-3,
            adam_eps: 1e-8,
            l2: 0.0,
            batch_size: 128,
            epochs: 8,
            seed: 0,
            subnet: vec![16, 4],
            grda_c: 5e-4,
            grda_mu: 0.8,
            num_threads: 1,
            prefetch: true,
        }
    }
}

impl BaselineConfig {
    /// A shrunk configuration for unit tests.
    pub fn test_small() -> Self {
        Self {
            embed_dim: 6,
            hidden: vec![16],
            batch_size: 64,
            lr: 1e-2,
            epochs: 2,
            subnet: vec![8, 3],
            ..Self::default()
        }
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(&self, seed: u64) -> Self {
        Self {
            seed,
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_names() {
        assert_eq!(Category::Naive.name(), "naive");
        assert_eq!(Category::Hybrid.name(), "hybrid");
    }

    #[test]
    fn default_config_sane() {
        let c = BaselineConfig::default();
        assert!(c.embed_dim > 0 && c.batch_size > 0 && c.epochs > 0);
    }
}
