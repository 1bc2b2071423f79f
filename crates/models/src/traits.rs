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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_names() {
        assert_eq!(Category::Naive.name(), "naive");
        assert_eq!(Category::Hybrid.name(), "hybrid");
    }
}
