//! The one network body every deep model trains on (paper Fig. 1 and
//! Table I): an embedding layer for the original features, a combination
//! block and an MLP classifier. Only the block differs between models.
//!
//! [`Body`] owns `E^o`, the classifier, the dense Adam that steps them,
//! the pool, the workspace and the step buffers, and has the one train
//! step: forward, `bce_with_logits_into`, backward, optimizer step. A
//! [`Block`] owns everything else: its tables, parameters, optimizers and
//! activations. The optimizer step begins the shared Adam's step, steps
//! the classifier, the block's dense parameters and `E^o` with it, then
//! lets the block step the rest. Dispatch is static: `Body<B>` is generic
//! over its block.

use optinter_data::Batch;
use optinter_nn::{
    bce_with_logits_into, loss, Adam, DenseOptimizer, EmbedStore, Mlp, Parameter, Workspace,
};
use optinter_tensor::{Matrix, Pool};

/// What a block reads in its forward and backward passes.
pub struct Inputs<'a> {
    /// The body's pool; work sharded on it gives the same bits for any
    /// thread count.
    pub pool: &'a Pool,
    /// The batch's original-feature ids, `num_fields` per row.
    pub fields: &'a [u32],
    /// The batch's global cross ids, `num_pairs` per row (may be empty
    /// when the block reads none).
    pub cross: &'a [u32],
    /// The rows' original embeddings `e^o`, `[B, num_fields · s1]`.
    pub eo: &'a Matrix,
}

/// A combination block: what one model puts between `E^o` and the MLP.
pub trait Block {
    /// Writes the MLP input for the batch in `x`.
    fn forward(&mut self, x: &Inputs<'_>, input: &mut Matrix);

    /// Adds the block's own term to the MLP's `[B, 1]` logits; most blocks
    /// have none.
    fn add_logits(&mut self, _x: &Inputs<'_>, _logits: &mut Matrix) {}

    /// Takes the gradients on the MLP input (`dinput`) and on the logits
    /// (`dlogits`), writes the gradient on `e^o` into `d_eo` and
    /// accumulates the gradients of the block's own weights. `x` is the
    /// batch the matching forward saw.
    fn backward(&mut self, x: &Inputs<'_>, dinput: &Matrix, dlogits: &Matrix, d_eo: &mut Matrix);

    /// Visits the dense parameters the body's Adam steps after the MLP's.
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Parameter)) {}

    /// Steps what the body's Adam, `adam`, does not; called last.
    fn step(&mut self, _adam: &Adam) {}

    /// Brings the block's lazily stepped tables up to date.
    fn catch_up(&mut self) {}

    /// Trainable scalars the block holds.
    fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.value.len());
        n
    }
}

/// An embedding layer, a combination block `B` and an MLP classifier.
pub struct Body<B> {
    block: B,
    e_orig: EmbedStore,
    mlp: Mlp,
    adam: Adam,
    /// Weight decay on `E^o`.
    l2: f32,
    pool: Pool,
    num_fields: usize,
    ws: Workspace,
    // Step buffers, overwritten in full and reused by every pass.
    eo: Matrix,
    input: Matrix,
    logits: Matrix,
    dlogits: Matrix,
    d_eo: Matrix,
}

impl<B: Block> Body<B> {
    /// A body over `block`, `E^o` (`num_fields` ids per row) and `mlp`,
    /// running on `pool`; `adam` steps all three, with weight decay `l2`
    /// on `E^o`.
    pub fn new(
        block: B,
        e_orig: EmbedStore,
        mut mlp: Mlp,
        adam: Adam,
        l2: f32,
        pool: Pool,
        num_fields: usize,
    ) -> Self {
        mlp.set_pool(&pool);
        Self {
            block,
            e_orig,
            mlp,
            adam,
            l2,
            pool,
            num_fields,
            ws: Workspace::new(),
            eo: Matrix::zeros(0, 0),
            input: Matrix::zeros(0, 0),
            logits: Matrix::zeros(0, 0),
            dlogits: Matrix::zeros(0, 0),
            d_eo: Matrix::zeros(0, 0),
        }
    }

    /// The combination block.
    pub fn block(&self) -> &B {
        &self.block
    }

    /// The combination block, mutably.
    pub(crate) fn block_mut(&mut self) -> &mut B {
        &mut self.block
    }

    /// The original-feature store `E^o`.
    pub(crate) fn e_orig(&self) -> &EmbedStore {
        &self.e_orig
    }

    /// The MLP classifier, mutably.
    pub fn mlp_mut(&mut self) -> &mut Mlp {
        &mut self.mlp
    }

    /// Trainable scalars: `E^o`, the classifier and the block.
    pub fn num_params(&mut self) -> usize {
        self.e_orig.num_params() + self.mlp.num_params() + self.block.num_params()
    }

    /// The forward pass over row-major ids (see [`Inputs`]); returns the
    /// `[B, 1]` logits. Allocation-free at steady state.
    pub fn forward(&mut self, fields: &[u32], cross: &[u32]) -> &Matrix {
        let m = self.num_fields;
        self.e_orig
            .lookup_fields_pooled_into(fields, m, &self.pool, &mut self.eo);
        let x = Inputs {
            pool: &self.pool,
            fields,
            cross,
            eo: &self.eo,
        };
        self.block.forward(&x, &mut self.input);
        self.mlp.forward_into(&self.input, &mut self.logits);
        self.block.add_logits(&x, &mut self.logits);
        &self.logits
    }

    /// The backward pass from the logits' gradient `dlogits`, for the ids
    /// the matching [`forward`](Self::forward) saw: accumulates the
    /// gradients of the classifier, the block and `E^o`.
    pub fn backward(&mut self, fields: &[u32], cross: &[u32], dlogits: &Matrix) {
        let b = dlogits.rows();
        assert_eq!(self.input.rows(), b, "Body::backward before forward");
        let mut dinput = self.ws.take_for_overwrite(b, self.input.cols());
        self.mlp.backward_into(&self.input, dlogits, &mut dinput);
        let x = Inputs {
            pool: &self.pool,
            fields,
            cross,
            eo: &self.eo,
        };
        self.block.backward(&x, &dinput, dlogits, &mut self.d_eo);
        let m = self.num_fields;
        self.e_orig
            .accumulate_grad_fields_pooled(fields, m, &self.d_eo, &self.pool);
        self.ws.recycle(dinput);
    }

    /// The shared Adam's step: the classifier, the block's visited
    /// parameters and `E^o`.
    pub(crate) fn step_shared(&mut self) {
        self.adam.begin_step();
        self.mlp.visit_params(&mut |p| self.adam.step(p, 0.0));
        self.block.visit_params(&mut |p| self.adam.step(p, 0.0));
        self.e_orig.apply_adam(&self.adam, self.l2);
    }

    /// One optimizer step on every weight: the shared Adam's step on the
    /// classifier, the block's visited parameters and `E^o`, then the
    /// block's own [`Block::step`].
    pub fn step(&mut self) {
        self.step_shared();
        self.block.step(&self.adam);
    }

    /// One training step: forward, loss, backward and optimizer step.
    /// Returns the mean batch loss.
    pub fn train_batch(&mut self, batch: &Batch) -> f32 {
        self.forward(&batch.fields, &batch.cross);
        let mut dlogits = std::mem::replace(&mut self.dlogits, Matrix::zeros(0, 0));
        let loss_value = bce_with_logits_into(&self.logits, &batch.labels, &mut dlogits);
        self.backward(&batch.fields, &batch.cross, &dlogits);
        self.dlogits = dlogits;
        self.step();
        loss_value
    }

    /// Predicted probabilities.
    pub fn predict(&mut self, batch: &Batch) -> Vec<f32> {
        self.forward(&batch.fields, &batch.cross);
        loss::probabilities(&self.logits)
    }

    /// Drops every pending gradient of the classifier, the block's
    /// visited parameters and `E^o`.
    pub(crate) fn zero_grads(&mut self) {
        self.mlp.zero_grads();
        self.block.visit_params(&mut |p| p.grad.fill_zero());
        self.e_orig.clear_grads();
    }

    /// Replays the updates the `LazyCatchUp` embedding mode deferred, in
    /// `E^o` and in the block's tables, bringing every row up to the
    /// current step. A no-op for the other modes.
    pub fn catch_up(&mut self) {
        self.e_orig.catch_up_all(&self.adam, self.l2);
        self.block.catch_up();
    }
}
