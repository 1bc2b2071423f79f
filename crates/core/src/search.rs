//! Search strategies over the architecture space (paper Sec. II-C2 and the
//! Table VIII ablation).
//!
//! - [`SearchStrategy::Joint`] — the paper's algorithm: network weights Θ
//!   and architecture parameters α are updated simultaneously on every
//!   training batch (Algorithm 1);
//! - [`SearchStrategy::BiLevel`] — DARTS-style alternation: Θ on training
//!   batches, α on validation batches;
//! - [`SearchStrategy::Random`] — uniform random assignment (the paper
//!   reports the mean of ten random architectures).

use crate::arch::{Architecture, Method};
use crate::config::OptInterConfig;
use crate::net::DataDims;
use crate::supernet::Supernet;
use crate::trainer::epoch_pass;
use optinter_data::{Batch, BatchIter, BatchStream, DatasetBundle};
use optinter_nn::bce_with_logits;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How to search for the architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Simultaneous Θ/α updates on training data (the paper's choice).
    Joint,
    /// Alternating Θ (train split) / α (validation split) updates.
    BiLevel,
    /// Uniform random architecture drawn with the given seed.
    Random {
        /// Seed for the random draw.
        seed: u64,
    },
}

/// Outcome of a search run.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The selected discrete architecture.
    pub architecture: Architecture,
    /// Mean training loss of the final epoch (0 for random search).
    pub final_loss: f32,
    /// Peak supernet parameter count (0 for random search) — bi-level and
    /// joint share the supernet, but bi-level needs a second gradient pass,
    /// which is what runs the paper's Avazu experiment out of GPU memory.
    pub supernet_params: usize,
}

/// Runs the search stage and returns the selected architecture.
pub fn search_architecture(
    bundle: &DatasetBundle,
    cfg: &OptInterConfig,
    strategy: SearchStrategy,
) -> SearchOutcome {
    match strategy {
        SearchStrategy::Random { seed } => random_architecture(bundle.data.num_pairs, seed),
        SearchStrategy::Joint => joint_search(bundle, cfg),
        SearchStrategy::BiLevel => bilevel_search(bundle, cfg),
    }
}

fn random_architecture(num_pairs: usize, seed: u64) -> SearchOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let methods = (0..num_pairs)
        .map(|_| Method::from_index(rng.gen_range(0..3)))
        .collect();
    SearchOutcome {
        architecture: Architecture::new(methods),
        final_loss: 0.0,
        supernet_params: 0,
    }
}

/// Training batches over all search epochs: the steps τ anneals over.
fn anneal_steps(bundle: &DatasetBundle, cfg: &OptInterConfig) -> usize {
    let train = bundle.split.train.clone();
    let per_epoch = BatchStream::new(&bundle.data, train, cfg.batch_size, None).num_batches();
    (per_epoch * cfg.search_epochs.max(1)).max(1)
}

fn joint_search(bundle: &DatasetBundle, cfg: &OptInterConfig) -> SearchOutcome {
    let (_, outcome) = joint_search_supernet(bundle, cfg);
    outcome
}

/// Runs the joint search and also returns the trained supernet, so callers
/// can evaluate the soft architecture directly (the Table IX
/// "without re-train" condition).
pub fn joint_search_supernet(
    bundle: &DatasetBundle,
    cfg: &OptInterConfig,
) -> (Supernet, SearchOutcome) {
    let mut net = Supernet::new(cfg.clone(), DataDims::of(&bundle.data));
    let supernet_params = net.num_params();
    let total = anneal_steps(bundle, cfg);
    let mut seen = 0usize;
    let mut final_loss = 0.0f32;
    for epoch in 0..cfg.search_epochs.max(1) {
        let seed = cfg.seed.wrapping_add(epoch as u64);
        let train = bundle.split.train.clone();
        let stream = BatchStream::new(&bundle.data, train, cfg.batch_size, Some(seed));
        final_loss = epoch_pass(stream.prefetch(cfg.prefetch), |batch| {
            let tau = cfg.tau.at(seen as f32 / total as f32);
            seen += 1;
            net.train_batch(batch, tau)
        });
    }
    let outcome = SearchOutcome {
        architecture: net.extract_architecture(),
        final_loss,
        supernet_params,
    };
    (net, outcome)
}

fn bilevel_search(bundle: &DatasetBundle, cfg: &OptInterConfig) -> SearchOutcome {
    let mut net = Supernet::new(cfg.clone(), DataDims::of(&bundle.data));
    let supernet_params = net.num_params();
    let total = anneal_steps(bundle, cfg);
    let mut seen = 0usize;
    let mut final_loss = 0.0f32;
    // The α updates pull validation batches on demand (they interleave with
    // the Θ steps, so they cannot be prefetched); a single recycled buffer
    // keeps the pull path allocation-free.
    let mut val_buf = Batch::empty();
    for epoch in 0..cfg.search_epochs.max(1) {
        // A fresh (cycling) validation stream per epoch for the α updates.
        let mut val_iter = BatchIter::new(
            &bundle.data,
            bundle.split.val.clone(),
            cfg.batch_size,
            Some(cfg.seed.wrapping_add(1000 + epoch as u64)),
        );
        let seed = cfg.seed.wrapping_add(epoch as u64);
        let train = bundle.split.train.clone();
        let stream = BatchStream::new(&bundle.data, train, cfg.batch_size, Some(seed));
        final_loss = epoch_pass(stream.prefetch(cfg.prefetch), |batch| {
            let tau = cfg.tau.at(seen as f32 / total as f32);
            // Θ step on the training batch.
            let logits = net.forward(batch, tau, true);
            let (loss, grad) = bce_with_logits(&logits, &batch.labels);
            net.backward(batch, &grad);
            net.step_weights();
            net.zero_arch_grad();
            // α step on a validation batch.
            if !val_iter.next_into(&mut val_buf) {
                val_iter = BatchIter::new(
                    &bundle.data,
                    bundle.split.val.clone(),
                    cfg.batch_size,
                    Some(cfg.seed.wrapping_add(2000 + seen as u64)),
                );
                if !val_iter.next_into(&mut val_buf) {
                    return loss; // empty validation split
                }
            }
            let logits = net.forward(&val_buf, tau, true);
            let (_, grad) = bce_with_logits(&logits, &val_buf.labels);
            net.backward(&val_buf, &grad);
            net.step_arch();
            net.zero_weight_grads();
            seen += 1;
            loss
        });
    }
    SearchOutcome {
        architecture: net.extract_architecture(),
        final_loss,
        supernet_params,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinter_data::Profile;

    fn tiny_bundle() -> DatasetBundle {
        Profile::Tiny.bundle_with_rows(1500, 23)
    }

    fn tiny_cfg() -> OptInterConfig {
        OptInterConfig {
            seed: 1,
            search_epochs: 1,
            ..OptInterConfig::test_small()
        }
    }

    #[test]
    fn random_search_is_deterministic_per_seed() {
        let b = tiny_bundle();
        let a1 = search_architecture(&b, &tiny_cfg(), SearchStrategy::Random { seed: 9 });
        let a2 = search_architecture(&b, &tiny_cfg(), SearchStrategy::Random { seed: 9 });
        assert_eq!(a1.architecture, a2.architecture);
        let a3 = search_architecture(&b, &tiny_cfg(), SearchStrategy::Random { seed: 10 });
        assert_ne!(a1.architecture, a3.architecture);
    }

    #[test]
    fn joint_search_completes_and_reports_loss() {
        let b = tiny_bundle();
        let out = search_architecture(&b, &tiny_cfg(), SearchStrategy::Joint);
        assert_eq!(out.architecture.num_pairs(), b.data.num_pairs);
        assert!(out.final_loss > 0.0 && out.final_loss < 2.0);
        assert!(out.supernet_params > 0);
    }

    #[test]
    fn bilevel_search_completes() {
        let b = tiny_bundle();
        let out = search_architecture(&b, &tiny_cfg(), SearchStrategy::BiLevel);
        assert_eq!(out.architecture.num_pairs(), b.data.num_pairs);
    }

    #[test]
    fn joint_is_reproducible() {
        let b = tiny_bundle();
        let a1 = search_architecture(&b, &tiny_cfg(), SearchStrategy::Joint);
        let a2 = search_architecture(&b, &tiny_cfg(), SearchStrategy::Joint);
        assert_eq!(a1.architecture, a2.architecture);
    }
}
