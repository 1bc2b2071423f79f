//! The combination block (paper Sec. II-C): what every feature pair
//! feeds the classifier, written once for search, re-training and serving.
//!
//! - [`Fact`] is a factorization function (Eq. 14 and its two variants)
//!   with the generalized-product weights resolved once per call. Its
//!   per-pair kernels compute `e^f_(i,j)` and push a gradient on `e^f`
//!   back into `e^o_i`, `e^o_j` and the pair's weights.
//! - [`Mixed`] is the supernet's block: every pair's three candidates
//!   mixed by relaxed weights (Eq. 18), and the gradients on `α`, `E^o`,
//!   `E^m` and the generalized weights.
//! - [`PairLayout`] is the fixed-architecture block (Eq. 19): where each
//!   pair's one embedding lands in the MLP input. `OptInterNet` and the
//!   frozen scorer share it, so train/serve parity is one code path.
//!
//! # Bit-exactness
//!
//! Every kernel is straight-line slice arithmetic with the same float
//! operations, in the same order, as the per-element scalar loops it
//! replaced; `combine::reference` keeps those loops for the tests, which
//! compare the two bit for bit. Three details carry that guarantee:
//!
//! - the mix keeps its `0.0 +` seed, because `0.0 + (-0.0)` is `+0.0`;
//! - the `α`-gradient chains run rows-outer so that one job's pairs
//!   interleave, but each pair's `dp_m` and `dp_f` still add their terms
//!   in ascending `(r, c)` order;
//! - each row of `d e^o` still receives its pairs in ascending order, the
//!   nested `(i, j)` order of [`optinter_data::PairIndexer`].
//!
//! Work is sharded under the pool's owner-computes contract: field
//! gradients and the MLP input by batch row, `α`- and weight-gradient
//! rows by contiguous ranges of pairs.

use crate::arch::{Architecture, Method};
use crate::config::FactFn;
use crate::gumbel::GumbelSample;
use crate::net::DataDims;
use optinter_nn::Parameter;
use optinter_tensor::{Matrix, Pool};

#[cfg(test)]
mod reference;

/// A factorization function, with the generalized product's weights.
#[derive(Debug, Clone, Copy)]
pub enum Fact<'a> {
    /// `e_i ⊙ e_j` (Eq. 14, the paper's choice).
    Hadamard,
    /// `e_i + e_j`.
    PointwiseAdd,
    /// `w_(i,j) ⊙ e_i ⊙ e_j`; row `p` of the `[num_pairs, s1]` matrix
    /// weighs pair `p`.
    Generalized(&'a Matrix),
}

impl Fact<'_> {
    /// `dst = f(e_i, e_j)` for pair `p`.
    #[inline]
    pub fn factorize(self, p: usize, ei: &[f32], ej: &[f32], dst: &mut [f32]) {
        match self {
            Fact::Hadamard => {
                for ((d, &a), &b) in dst.iter_mut().zip(ei).zip(ej) {
                    *d = a * b;
                }
            }
            Fact::PointwiseAdd => {
                for ((d, &a), &b) in dst.iter_mut().zip(ei).zip(ej) {
                    *d = a + b;
                }
            }
            Fact::Generalized(w) => {
                for (((d, &w), &a), &b) in dst.iter_mut().zip(w.row(p)).zip(ei).zip(ej) {
                    *d = w * a * b;
                }
            }
        }
    }

    /// `acc + Σ_c g[c]·f(e_i, e_j)[c]`, added in ascending `c`: the
    /// inner product of a gradient with pair `p`'s `e^f`, recomputed
    /// rather than stored (it is a pure function of `e^o`).
    #[inline]
    pub fn factorized_dot(self, p: usize, mut acc: f32, g: &[f32], ei: &[f32], ej: &[f32]) -> f32 {
        match self {
            Fact::Hadamard => {
                for ((&g, &a), &b) in g.iter().zip(ei).zip(ej) {
                    acc += g * (a * b);
                }
            }
            Fact::PointwiseAdd => {
                for ((&g, &a), &b) in g.iter().zip(ei).zip(ej) {
                    acc += g * (a + b);
                }
            }
            Fact::Generalized(w) => {
                for (((&g, &w), &a), &b) in g.iter().zip(w.row(p)).zip(ei).zip(ej) {
                    acc += g * (w * a * b);
                }
            }
        }
        acc
    }

    /// Pushes `scale · g`, the gradient on pair `p`'s `e^f`, into its two
    /// fields: `d e_i += (∂f/∂e_i)·scale·g`, and likewise `d e_j`.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn factorize_backward(
        self,
        p: usize,
        scale: f32,
        g: &[f32],
        ei: &[f32],
        ej: &[f32],
        d_ei: &mut [f32],
        d_ej: &mut [f32],
    ) {
        match self {
            Fact::Hadamard => {
                for ((((&g, &a), &b), di), dj) in g.iter().zip(ei).zip(ej).zip(d_ei).zip(d_ej) {
                    let def = scale * g;
                    *di += def * b;
                    *dj += def * a;
                }
            }
            Fact::PointwiseAdd => {
                for ((&g, di), dj) in g.iter().zip(d_ei).zip(d_ej) {
                    let def = scale * g;
                    *di += def;
                    *dj += def;
                }
            }
            Fact::Generalized(w) => {
                let rows = g.iter().zip(w.row(p)).zip(ei).zip(ej);
                for (((((&g, &w), &a), &b), di), dj) in rows.zip(d_ei).zip(d_ej) {
                    let dw = scale * g * w;
                    *di += dw * b;
                    *dj += dw * a;
                }
            }
        }
    }
}

/// A model's factorization function, holding the generalized product's
/// trainable weights, so a generalized model always has them.
pub enum Factorizer {
    /// `e_i ⊙ e_j`.
    Hadamard,
    /// `e_i + e_j`.
    PointwiseAdd,
    /// `w_(i,j) ⊙ e_i ⊙ e_j` with its `[num_pairs, s1]` weights.
    Generalized(Parameter),
}

impl Factorizer {
    /// `fact_fn` over `num_pairs` pairs of width `s1`. Generalized weights
    /// start at one, where the product is the Hadamard product.
    pub fn new(fact_fn: FactFn, num_pairs: usize, s1: usize) -> Self {
        match fact_fn {
            FactFn::Hadamard => Factorizer::Hadamard,
            FactFn::PointwiseAdd => Factorizer::PointwiseAdd,
            FactFn::Generalized => {
                Factorizer::Generalized(Parameter::new(Matrix::filled(num_pairs, s1, 1.0)))
            }
        }
    }

    /// The kernels' view of the function.
    pub fn fact(&self) -> Fact<'_> {
        match self {
            Factorizer::Hadamard => Fact::Hadamard,
            Factorizer::PointwiseAdd => Fact::PointwiseAdd,
            Factorizer::Generalized(w) => Fact::Generalized(&w.value),
        }
    }

    /// The kernels' view plus the generalized weights' gradient, for a
    /// backward pass.
    pub fn with_grad(&mut self) -> (Fact<'_>, Option<&mut Matrix>) {
        match self {
            Factorizer::Generalized(w) => (Fact::Generalized(&w.value), Some(&mut w.grad)),
            Factorizer::Hadamard => (Fact::Hadamard, None),
            Factorizer::PointwiseAdd => (Fact::PointwiseAdd, None),
        }
    }

    /// The generalized product's weights, if this is it.
    pub fn weights_mut(&mut self) -> Option<&mut Parameter> {
        match self {
            Factorizer::Generalized(w) => Some(w),
            Factorizer::Hadamard | Factorizer::PointwiseAdd => None,
        }
    }
}

/// `dw += (scale·g) ⊙ e_i ⊙ e_j`: one row's term of a pair's
/// generalized-weight gradient.
#[inline]
fn weight_grad(scale: f32, g: &[f32], ei: &[f32], ej: &[f32], dw: &mut [f32]) {
    for (((d, &g), &a), &b) in dw.iter_mut().zip(g).zip(ei).zip(ej) {
        *d += scale * g * a * b;
    }
}

/// Eq. 18 for one pair, in place: `dst` holds `e^f` in its first `s1`
/// columns on entry and `p_m·e^m + p_f·e^f` on return, each candidate
/// zero-padded to `dst.len()` (`e^n` is empty and contributes nothing).
#[inline]
fn mix_in_place(pm: f32, pf: f32, em: &[f32], s1: usize, dst: &mut [f32]) {
    let k = em.len().min(s1);
    let (both, rest) = dst.split_at_mut(k);
    for (d, &m) in both.iter_mut().zip(em) {
        *d = 0.0 + pm * m + pf * *d;
    }
    // Past the shorter candidate only the longer one contributes.
    if em.len() > k {
        for (d, &m) in rest.iter_mut().zip(&em[k..]) {
            *d = 0.0 + pm * m;
        }
    } else {
        for d in rest {
            *d = 0.0 + pf * *d;
        }
    }
}

/// `acc + Σ_c a[c]·b[c]`, added in ascending `c`.
#[inline]
fn dot_from(mut acc: f32, a: &[f32], b: &[f32]) -> f32 {
    for (&x, &y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// Field `f`'s `width` columns of a row.
#[inline]
fn field(row: &[f32], f: usize, width: usize) -> &[f32] {
    &row[f * width..(f + 1) * width]
}

/// Fields `i < j` of a row as two disjoint mutable slices.
#[inline]
fn field_pair_mut(row: &mut [f32], i: usize, j: usize, width: usize) -> (&mut [f32], &mut [f32]) {
    debug_assert!(i < j, "pair fields must be ordered");
    let (lo, hi) = row.split_at_mut(j * width);
    (&mut lo[i * width..(i + 1) * width], &mut hi[..width])
}

/// The supernet's combination block for one batch: per-pair fields and
/// relaxed weights, and the embedding widths. The MLP input is
/// `[e^o | e^b_0 | e^b_1 | ...]`, each `e^b` `max(s1, s2)` wide.
pub(crate) struct Mixed<'a> {
    /// `(i, j)` fields of every pair, in flat pair order.
    pub pairs: &'a [(usize, usize)],
    /// Relaxed method weights, one sample per pair.
    pub samples: &'a [GumbelSample],
    /// The factorization function.
    pub fact: Fact<'a>,
    /// Original-embedding width `s1`.
    pub s1: usize,
    /// Cross-embedding width `s2`.
    pub s2: usize,
    /// Number of original fields `M`.
    pub num_fields: usize,
}

impl Mixed<'_> {
    fn width(&self) -> usize {
        self.s1.max(self.s2)
    }

    /// Fills `input`, the MLP input, from `eo` (`[B, M·s1]`) and `em`
    /// (`[B, P·s2]`). Each pair's `e^f` is computed into its slot and mixed
    /// there.
    pub fn mix_into(&self, pool: &Pool, eo: &Matrix, em: &Matrix, input: &mut Matrix) {
        let (s1, s2, d) = (self.s1, self.s2, self.width());
        let head = self.num_fields * s1;
        let in_width = head + self.pairs.len() * d;
        input.reshape_for_overwrite(eo.rows(), in_width);
        pool.for_rows(input.as_mut_slice(), in_width, |r, in_row| {
            let (eo_row, em_row) = (eo.row(r), em.row(r));
            let (eo_dst, mixed) = in_row.split_at_mut(head);
            eo_dst.copy_from_slice(eo_row);
            let slots = self.pairs.iter().zip(mixed.chunks_exact_mut(d));
            for (p, (&(i, j), dst)) in slots.enumerate() {
                let (ei, ej) = (field(eo_row, i, s1), field(eo_row, j, s1));
                self.fact.factorize(p, ei, ej, &mut dst[..s1]);
                let probs = &self.samples[p].probs;
                mix_in_place(probs[0], probs[1], field(em_row, p, s2), s1, dst);
            }
        });
    }

    /// The `α` gradient, and for the generalized product the weight
    /// gradient, from `dinput` (the MLP-input gradient) and the forward's
    /// `eo` and `em`. Both accumulate into the existing gradients.
    ///
    /// `dp` is scratch for each pair's `(dp_m, dp_f)`. A job owns a
    /// contiguous range of pairs and walks the batch rows-outer, so its
    /// pairs' reduction chains interleave; each chain still adds its
    /// terms in ascending `(r, c)` order. `dp_n = 0`: the naïve
    /// embedding is identically zero.
    #[allow(clippy::too_many_arguments)]
    pub fn backward_arch(
        &self,
        pool: &Pool,
        dinput: &Matrix,
        eo: &Matrix,
        em: &Matrix,
        dp: &mut Matrix,
        arch_grad: &mut Matrix,
        fw_grad: Option<&mut Matrix>,
    ) {
        let (s1, s2, d) = (self.s1, self.s2, self.width());
        let head = self.num_fields * s1;
        let rows = dinput.rows();
        dp.reset(self.pairs.len(), 2);
        pool.for_row_chunks(dp.as_mut_slice(), 2, |p0, acc| {
            let p1 = p0 + acc.len() / 2;
            let pairs = &self.pairs[p0..p1];
            for r in 0..rows {
                let g_rows = dinput.row(r)[head + p0 * d..head + p1 * d].chunks_exact(d);
                let em_rows = em.row(r)[p0 * s2..p1 * s2].chunks_exact(s2);
                let eo_row = eo.row(r);
                let jobs = acc.chunks_exact_mut(2).zip(pairs).zip(g_rows.zip(em_rows));
                for (p, ((a, &(i, j)), (g, em_p))) in (p0..).zip(jobs) {
                    let (ei, ej) = (field(eo_row, i, s1), field(eo_row, j, s1));
                    a[0] = dot_from(a[0], &g[..s2], em_p);
                    a[1] = self.fact.factorized_dot(p, a[1], &g[..s1], ei, ej);
                }
            }
        });
        if let Some(fw_grad) = fw_grad {
            pool.for_row_chunks(fw_grad.as_mut_slice(), s1, |p0, dws| {
                for r in 0..rows {
                    let (g_row, eo_row) = (&dinput.row(r)[head..], eo.row(r));
                    for (p, dw) in (p0..).zip(dws.chunks_exact_mut(s1)) {
                        let (i, j) = self.pairs[p];
                        let pf = self.samples[p].probs[1];
                        let g = &field(g_row, p, d)[..s1];
                        weight_grad(pf, g, field(eo_row, i, s1), field(eo_row, j, s1), dw);
                    }
                }
            });
        }
        for (p, sample) in self.samples.iter().enumerate() {
            let dprobs = [dp.get(p, 0), dp.get(p, 1), 0.0];
            let mut dlogits = [0.0f32; 3];
            sample.backward(&dprobs, &mut dlogits);
            for (a, &g) in arch_grad.row_mut(p).iter_mut().zip(&dlogits) {
                *a += g;
            }
        }
    }

    /// The field gradients: `d_eo` (`[B, M·s1]`) starts as `dinput`'s
    /// `e^o` block and receives every pair's factorization backward;
    /// `d_em` (`[B, P·s2]`) gets `p_m · g`, seeded with `0.0 +` like the
    /// zeroed accumulator it replaces.
    pub fn backward_fields(
        &self,
        pool: &Pool,
        dinput: &Matrix,
        eo: &Matrix,
        d_eo: &mut Matrix,
        d_em: &mut Matrix,
    ) {
        let (s1, s2, d) = (self.s1, self.s2, self.width());
        let head = self.num_fields * s1;
        let em_width = self.pairs.len() * s2;
        d_eo.reshape_for_overwrite(dinput.rows(), head);
        d_em.reshape_for_overwrite(dinput.rows(), em_width);
        pool.for_rows2(
            d_eo.as_mut_slice(),
            head,
            d_em.as_mut_slice(),
            em_width,
            |r, deo_row, dem_row| {
                let (g_row, eo_row) = (dinput.row(r), eo.row(r));
                let (g_eo, g_mixed) = g_row.split_at(head);
                deo_row.copy_from_slice(g_eo);
                let slots = g_mixed.chunks_exact(d).zip(dem_row.chunks_exact_mut(s2));
                for (p, (&(i, j), (g, dem))) in self.pairs.iter().zip(slots).enumerate() {
                    let probs = &self.samples[p].probs;
                    for (dm, &g) in dem.iter_mut().zip(g) {
                        *dm = 0.0 + probs[0] * g;
                    }
                    let (d_ei, d_ej) = field_pair_mut(deo_row, i, j, s1);
                    let (ei, ej) = (field(eo_row, i, s1), field(eo_row, j, s1));
                    self.fact
                        .factorize_backward(p, probs[1], &g[..s1], ei, ej, d_ei, d_ej);
                }
            },
        );
    }
}

/// Where one pair's embedding lands in a fixed architecture's MLP input.
#[derive(Debug, Clone, Copy)]
pub struct PairSlot {
    /// The pair's method.
    pub method: Method,
    /// Column offset in the MLP input (meaningless for naïve pairs).
    pub input_offset: usize,
    /// For memorized pairs: slot index among memorized pairs.
    pub mem_slot: usize,
    /// For memorized pairs: row offset in the compact cross table.
    pub compact_offset: u32,
    /// The pair's two fields `(i, j)`, `i < j`.
    pub fields: (usize, usize),
}

/// A fixed architecture's combination block: each memorized pair copies
/// its compact cross row, each factorized pair computes `e^f`, naïve
/// pairs add nothing. The MLP input is `[e^o | one slot per non-naïve
/// pair]` in pair order.
#[derive(Debug, Clone)]
pub struct PairLayout {
    slots: Vec<PairSlot>,
    s1: usize,
    s2: usize,
    num_fields: usize,
    num_memorized: usize,
    input_dim: usize,
    compact_rows: u32,
}

impl PairLayout {
    /// Lays out `arch` over a dataset's pairs with embedding widths `s1`
    /// (original) and `s2` (cross).
    pub fn new(arch: &Architecture, dims: &DataDims, s1: usize, s2: usize) -> Self {
        let mut slots = Vec::with_capacity(dims.num_pairs);
        let mut input_offset = dims.num_fields * s1;
        let mut compact_offset = 0u32;
        let mut mem_slot = 0usize;
        for (p, fields) in dims.pairs().iter().enumerate() {
            let method = arch.method(p);
            slots.push(PairSlot {
                method,
                input_offset,
                mem_slot,
                compact_offset,
                fields,
            });
            match method {
                Method::Memorize => {
                    input_offset += s2;
                    compact_offset += dims.pair_vocab_sizes[p];
                    mem_slot += 1;
                }
                Method::Factorize => input_offset += s1,
                Method::Naive => {}
            }
        }
        Self {
            slots,
            s1,
            s2,
            num_fields: dims.num_fields,
            num_memorized: mem_slot,
            input_dim: input_offset,
            compact_rows: compact_offset,
        }
    }

    /// One slot per pair, in flat pair order.
    pub fn slots(&self) -> &[PairSlot] {
        &self.slots
    }

    /// Number of memorized pairs.
    pub fn num_memorized(&self) -> usize {
        self.num_memorized
    }

    /// MLP input width.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Rows of the compact cross table: the memorized pairs' vocabularies
    /// back to back, and at least one row so the table always exists.
    pub fn compact_rows(&self) -> usize {
        self.compact_rows.max(1) as usize
    }

    /// Translates global cross ids (`cross`, `num_pairs` per row, each
    /// inside its pair's block starting at `pair_offsets[p]`) into compact
    /// table ids for the memorized pairs, into `out` (cleared first):
    /// `[rows · num_memorized]`.
    pub fn gather_mem_ids_into(&self, cross: &[u32], pair_offsets: &[u32], out: &mut Vec<u32>) {
        out.clear();
        if self.num_memorized == 0 {
            return;
        }
        let rows = cross.len() / self.slots.len();
        out.reserve(rows * self.num_memorized);
        for row in cross.chunks_exact(self.slots.len()) {
            for ((slot, &id), &offset) in self.slots.iter().zip(row).zip(pair_offsets) {
                if slot.method == Method::Memorize {
                    out.push(slot.compact_offset + (id - offset));
                }
            }
        }
    }

    /// Assembles the MLP input from `eo` (`[B, M·s1]`) and `em` (`[B,
    /// num_memorized·s2]`, the memorized pairs' compact rows).
    pub fn assemble_into(
        &self,
        pool: &Pool,
        fact: Fact<'_>,
        eo: &Matrix,
        em: &Matrix,
        input: &mut Matrix,
    ) {
        let (s1, s2) = (self.s1, self.s2);
        let head = self.num_fields * s1;
        // Slots tile the input, so every element is written.
        input.reshape_for_overwrite(eo.rows(), self.input_dim);
        pool.for_rows(input.as_mut_slice(), self.input_dim, |r, dst| {
            let eo_row = eo.row(r);
            dst[..head].copy_from_slice(eo_row);
            for (p, slot) in self.slots.iter().enumerate() {
                let out = &mut dst[slot.input_offset..];
                match slot.method {
                    Method::Memorize => {
                        out[..s2].copy_from_slice(field(em.row(r), slot.mem_slot, s2));
                    }
                    Method::Factorize => {
                        let (i, j) = slot.fields;
                        let (ei, ej) = (field(eo_row, i, s1), field(eo_row, j, s1));
                        fact.factorize(p, ei, ej, &mut out[..s1]);
                    }
                    Method::Naive => {}
                }
            }
        });
    }

    /// Backward of [`assemble_into`](Self::assemble_into) from `dinput`:
    /// `d_eo` (`[B, M·s1]`) starts as `dinput`'s `e^o` block and receives
    /// every factorized pair's backward; `d_em` gets the memorized slots'
    /// gradients; `fw_grad`, the generalized-weight gradient, accumulates
    /// the factorized pairs' rows.
    #[allow(clippy::too_many_arguments)]
    pub fn assemble_backward_into(
        &self,
        pool: &Pool,
        fact: Fact<'_>,
        dinput: &Matrix,
        eo: &Matrix,
        d_eo: &mut Matrix,
        d_em: &mut Matrix,
        fw_grad: Option<&mut Matrix>,
    ) {
        let (s1, s2) = (self.s1, self.s2);
        let head = self.num_fields * s1;
        let rows = dinput.rows();
        if let Some(fw_grad) = fw_grad {
            pool.for_row_chunks(fw_grad.as_mut_slice(), s1, |p0, dws| {
                for r in 0..rows {
                    let (g_row, eo_row) = (dinput.row(r), eo.row(r));
                    for (slot, dw) in self.slots[p0..].iter().zip(dws.chunks_exact_mut(s1)) {
                        if slot.method == Method::Factorize {
                            let (i, j) = slot.fields;
                            let g = &g_row[slot.input_offset..slot.input_offset + s1];
                            weight_grad(1.0, g, field(eo_row, i, s1), field(eo_row, j, s1), dw);
                        }
                    }
                }
            });
        }
        let em_width = self.num_memorized * s2;
        d_eo.reshape_for_overwrite(rows, head);
        d_em.reshape_for_overwrite(rows, em_width);
        pool.for_rows2(
            d_eo.as_mut_slice(),
            head,
            d_em.as_mut_slice(),
            em_width,
            |r, deo_row, dem_row| {
                let (g_row, eo_row) = (dinput.row(r), eo.row(r));
                deo_row.copy_from_slice(&g_row[..head]);
                for (p, slot) in self.slots.iter().enumerate() {
                    let g = &g_row[slot.input_offset..];
                    match slot.method {
                        Method::Memorize => {
                            let k = slot.mem_slot;
                            dem_row[k * s2..(k + 1) * s2].copy_from_slice(&g[..s2]);
                        }
                        Method::Factorize => {
                            let (i, j) = slot.fields;
                            let (d_ei, d_ej) = field_pair_mut(deo_row, i, j, s1);
                            let (ei, ej) = (field(eo_row, i, s1), field(eo_row, j, s1));
                            fact.factorize_backward(p, 1.0, &g[..s1], ei, ej, d_ei, d_ej);
                        }
                        Method::Naive => {}
                    }
                }
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{self, NetShape, SupShape};
    use super::*;
    use optinter_data::PairIndexer;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const FIELDS: usize = 7;
    const WIDTHS: [(usize, usize); 4] = [(16, 8), (8, 16), (12, 12), (6, 5)];
    const BATCHES: [usize; 3] = [1, 7, 128];
    const FACT_FNS: [FactFn; 3] = [FactFn::Hadamard, FactFn::PointwiseAdd, FactFn::Generalized];

    /// Values in `[-1, 1)` with exact `+0.0` and `-0.0` mixed in, so a
    /// dropped `0.0 +` seed or a reordered sum changes some bit.
    fn random(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
        let data = (0..rows * cols)
            .map(|k| match k % 13 {
                5 => -0.0,
                9 => 0.0,
                _ => rng.gen::<f32>() * 2.0 - 1.0,
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// A scratch buffer of `rows × cols` NaNs: outputs are reshaped for
    /// overwrite, so an element the block forgets to write stays NaN.
    fn stale(rows: usize, cols: usize) -> Matrix {
        Matrix::filled(rows, cols, f32::NAN)
    }

    /// The kernels' view of `fact_fn`, weighted by `w` when generalized.
    fn fact_of(fact_fn: FactFn, w: &Matrix) -> Fact<'_> {
        match fact_fn {
            FactFn::Hadamard => Fact::Hadamard,
            FactFn::PointwiseAdd => Fact::PointwiseAdd,
            FactFn::Generalized => Fact::Generalized(w),
        }
    }

    fn assert_bits(what: &str, case: &str, got: &Matrix, want: &Matrix) {
        assert_eq!(got.shape(), want.shape(), "{what} shape, {case}");
        for (k, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}[{k}] differs ({g} vs {w}), {case}"
            );
        }
    }

    /// Calls `f` for every combination of pool, factorization, widths and
    /// batch size, with a label for assertion messages.
    fn for_each_case(mut f: impl FnMut(&Pool, FactFn, usize, usize, usize, &str)) {
        for pool in [Pool::new(1), Pool::new(3)] {
            for fact_fn in FACT_FNS {
                for (s1, s2) in WIDTHS {
                    for b in BATCHES {
                        let case = format!(
                            "{} threads, {}, s1={s1} s2={s2}, batch {b}",
                            pool.threads(),
                            fact_fn.tag()
                        );
                        f(&pool, fact_fn, s1, s2, b, &case);
                    }
                }
            }
        }
    }

    #[test]
    fn mixed_block_is_bit_identical_to_the_scalar_loops() {
        let pairs: Vec<(usize, usize)> = PairIndexer::new(FIELDS).iter().collect();
        let p_count = pairs.len();
        for_each_case(|pool, fact_fn, s1, s2, b, case| {
            let mut rng = StdRng::seed_from_u64((s1 * 100 + s2 * 10 + b) as u64);
            let d = s1.max(s2);
            let samples: Vec<GumbelSample> = (0..p_count)
                .map(|_| {
                    let logits = [rng.gen::<f32>(), rng.gen::<f32>(), rng.gen::<f32>()];
                    GumbelSample::draw(&logits, 0.7, &mut rng)
                })
                .collect();
            let fw = random(&mut rng, p_count, s1);
            let fw_val = (fact_fn == FactFn::Generalized).then_some(&fw);
            let eo = random(&mut rng, b, FIELDS * s1);
            let em = random(&mut rng, b, p_count * s2);
            let dinput = random(&mut rng, b, FIELDS * s1 + p_count * d);
            let arch0 = random(&mut rng, p_count, 3);
            let fw_grad0 = random(&mut rng, p_count, s1);

            let sh = SupShape {
                pairs: &pairs,
                m: FIELDS,
                s1,
                s2,
            };
            let (ef_ref, input_ref) =
                reference::supernet_forward(pool, &sh, fact_fn, fw_val, &samples, &eo, &em);
            let mut arch_ref = arch0.clone();
            let mut fw_grad_ref = fw_grad0.clone();
            let (d_eo_ref, d_em_ref) = reference::supernet_backward(
                pool,
                &sh,
                fact_fn,
                fw_val,
                &samples,
                &dinput,
                &eo,
                &em,
                &ef_ref,
                &mut arch_ref,
                fw_val.map(|_| &mut fw_grad_ref),
            );

            let block = Mixed {
                pairs: &pairs,
                samples: &samples,
                fact: fact_of(fact_fn, &fw),
                s1,
                s2,
                num_fields: FIELDS,
            };
            let mut input = stale(b, input_ref.cols());
            block.mix_into(pool, &eo, &em, &mut input);
            let mut arch = arch0.clone();
            let mut fw_grad = fw_grad0.clone();
            let mut dp = Matrix::zeros(0, 0);
            block.backward_arch(
                pool,
                &dinput,
                &eo,
                &em,
                &mut dp,
                &mut arch,
                fw_val.map(|_| &mut fw_grad),
            );
            let (mut d_eo, mut d_em) = (stale(b, eo.cols()), stale(b, em.cols()));
            block.backward_fields(pool, &dinput, &eo, &mut d_eo, &mut d_em);

            assert_bits("MLP input", case, &input, &input_ref);
            assert_bits("α gradient", case, &arch, &arch_ref);
            assert_bits("generalized-weight gradient", case, &fw_grad, &fw_grad_ref);
            assert_bits("d e^o", case, &d_eo, &d_eo_ref);
            assert_bits("d e^m", case, &d_em, &d_em_ref);
        });
    }

    #[test]
    fn fixed_block_is_bit_identical_to_the_scalar_loops() {
        let p_count = PairIndexer::new(FIELDS).num_pairs();
        let dims = DataDims {
            num_fields: FIELDS,
            num_pairs: p_count,
            orig_vocab: 100,
            cross_vocab: 5 * p_count as u32,
            pair_offsets: (0..p_count as u32).map(|p| 5 * p).collect(),
            pair_vocab_sizes: vec![5; p_count],
        };
        // Every method, with memorized and factorized pairs interleaved.
        let arch = Architecture::new(
            (0..p_count)
                .map(|p| Method::from_index((p * 7 + p / 3) % 3))
                .collect(),
        );
        for_each_case(|pool, fact_fn, s1, s2, b, case| {
            let mut rng = StdRng::seed_from_u64((s1 * 100 + s2 * 10 + b) as u64 ^ 0xF1);
            let layout = PairLayout::new(&arch, &dims, s1, s2);
            let fw = random(&mut rng, p_count, s1);
            let fw_val = (fact_fn == FactFn::Generalized).then_some(&fw);
            let eo = random(&mut rng, b, FIELDS * s1);
            let em = random(&mut rng, b, layout.num_memorized() * s2);
            let dinput = random(&mut rng, b, layout.input_dim());
            let fw_grad0 = random(&mut rng, p_count, s1);

            let sh = NetShape {
                slots: layout.slots(),
                m: FIELDS,
                s1,
                s2,
                input_dim: layout.input_dim(),
                num_memorized: layout.num_memorized(),
            };
            let input_ref = reference::net_forward(pool, &sh, fact_fn, fw_val, &eo, &em);
            let mut fw_grad_ref = fw_grad0.clone();
            let (d_eo_ref, d_em_ref) = reference::net_backward(
                pool,
                &sh,
                fact_fn,
                fw_val,
                &dinput,
                &eo,
                fw_val.map(|_| &mut fw_grad_ref),
            );

            let fact = fact_of(fact_fn, &fw);
            let mut input = stale(b, layout.input_dim());
            layout.assemble_into(pool, fact, &eo, &em, &mut input);
            let mut fw_grad = fw_grad0.clone();
            let (mut d_eo, mut d_em) = (stale(b, eo.cols()), stale(b, em.cols()));
            layout.assemble_backward_into(
                pool,
                fact,
                &dinput,
                &eo,
                &mut d_eo,
                &mut d_em,
                fw_val.map(|_| &mut fw_grad),
            );

            assert_bits("MLP input", case, &input, &input_ref);
            assert_bits("generalized-weight gradient", case, &fw_grad, &fw_grad_ref);
            assert_bits("d e^o", case, &d_eo, &d_eo_ref);
            assert_bits("d e^m", case, &d_em, &d_em_ref);
        });
    }

    #[test]
    fn layout_records_each_pairs_fields_and_compact_ids() {
        let indexer = PairIndexer::new(4);
        let dims = DataDims {
            num_fields: 4,
            num_pairs: 6,
            orig_vocab: 10,
            cross_vocab: 60,
            pair_offsets: (0..6).map(|p| 10 * p).collect(),
            pair_vocab_sizes: vec![10; 6],
        };
        let arch = Architecture::new((0..6).map(|p| Method::from_index(p % 3)).collect());
        let layout = PairLayout::new(&arch, &dims, 3, 2);
        for (p, slot) in layout.slots().iter().enumerate() {
            assert_eq!(slot.fields, indexer.pair_at(p));
        }
        // Pairs 0 and 3 are memorized: compact ids are the local id plus
        // the block offset of earlier memorized pairs.
        let cross = [3, 14, 27, 31, 45, 52, 9, 10, 20, 39, 40, 59];
        let mut ids = Vec::new();
        layout.gather_mem_ids_into(&cross, &dims.pair_offsets, &mut ids);
        assert_eq!(ids, vec![3, 10 + 1, 9, 10 + 9]);
        assert_eq!(layout.compact_rows(), 20);
        assert_eq!(layout.input_dim(), 4 * 3 + 2 * 2 + 2 * 3);
    }
}
