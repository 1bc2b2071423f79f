//! The deep zoo's one model type: [`Deep`] is an `optinter_core` [`Body`]
//! over a model's combination block, so FNN, IPNN, OPNN, PIN, DeepFM and
//! AutoFIS share the embedding lookup, the MLP classifier, the loss, the
//! backward and the optimizer step with OptInter's own networks. Each
//! model's file holds only its block.

use crate::traits::{CtrModel, Taxonomy};
use optinter_core::{Block, Body, OptInterConfig};
use optinter_data::Batch;
use optinter_nn::{Adam, EmbedStore, EmbeddingTable, Mlp};
use optinter_tensor::{Matrix, Pool};

/// A deep baseline's combination block, with its row of Table III.
pub trait DeepBlock: Block {
    /// Model name as reported in the paper's tables.
    fn name(&self) -> &'static str;

    /// Where the model sits in the OptInter taxonomy.
    fn taxonomy(&self) -> Taxonomy;
}

/// A deep baseline: the network body over the model's block `B`.
pub struct Deep<B> {
    pub(crate) body: Body<B>,
}

impl<B: DeepBlock> Deep<B> {
    /// A model over `block`, the dense table `emb` read `num_fields` ids
    /// per row, and `mlp`, on `pool`, stepped by `cfg`'s Adam with weight
    /// decay `cfg.l2_orig` on the table.
    pub(crate) fn with_parts(
        block: B,
        emb: EmbeddingTable,
        mlp: Mlp,
        cfg: &OptInterConfig,
        num_fields: usize,
        pool: Pool,
    ) -> Self {
        let e_orig = EmbedStore::Dense(Box::new(emb));
        let adam = Adam::with_lr_eps(cfg.lr, cfg.adam_eps);
        let body = Body::new(block, e_orig, mlp, adam, cfg.l2_orig, pool, num_fields);
        Self { body }
    }

    /// The model's combination block.
    pub fn block(&self) -> &B {
        self.body.block()
    }
}

impl<B: DeepBlock> CtrModel for Deep<B> {
    fn name(&self) -> &'static str {
        self.body.block().name()
    }

    fn taxonomy(&self) -> Taxonomy {
        self.body.block().taxonomy()
    }

    fn train_batch(&mut self, batch: &Batch) -> f32 {
        self.body.train_batch(batch)
    }

    fn predict(&mut self, batch: &Batch) -> Vec<f32> {
        self.body.predict(batch)
    }

    fn num_params(&mut self) -> usize {
        self.body.num_params()
    }
}

/// Copies `src` into `dst`, reshaped to match: the MLP input of a block
/// that feeds `e^o` as it is, and its gradient back.
pub(crate) fn copy_into(src: &Matrix, dst: &mut Matrix) {
    dst.reshape_for_overwrite(src.rows(), src.cols());
    dst.as_mut_slice().copy_from_slice(src.as_slice());
}
