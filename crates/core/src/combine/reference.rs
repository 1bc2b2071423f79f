//! The per-element scalar loops the combination block replaced, kept as
//! the bit-exact reference its tests compare against. Each function is
//! the old method body with `self` spelled out as arguments.

use super::PairSlot;
use crate::arch::Method;
use crate::config::FactFn;
use crate::gumbel::GumbelSample;
use optinter_data::PairIndexer;
use optinter_tensor::{Matrix, Pool};

/// The supernet's widths and pairs.
pub(super) struct SupShape<'a> {
    pub pairs: &'a [(usize, usize)],
    pub m: usize,
    pub s1: usize,
    pub s2: usize,
}

/// `Supernet::forward_step`'s factorized candidates and MLP-input
/// assembly: returns `(ef, input)`.
pub(super) fn supernet_forward(
    pool: &Pool,
    sh: &SupShape<'_>,
    fact_fn: FactFn,
    fw_val: Option<&Matrix>,
    samples: &[GumbelSample],
    eo: &Matrix,
    em: &Matrix,
) -> (Matrix, Matrix) {
    let (m, s1, s2) = (sh.m, sh.s1, sh.s2);
    let d = s1.max(s2);
    let p_count = sh.pairs.len();
    let b = eo.rows();
    let mut ef = Matrix::zeros(b, p_count * s1);
    {
        let pairs = sh.pairs;
        let ef_width = p_count * s1;
        pool.for_rows(ef.as_mut_slice(), ef_width, |r, ef_row| {
            let eo_row = eo.row(r);
            for (p, &(i, j)) in pairs.iter().enumerate() {
                let (ei, ej) = (&eo_row[i * s1..(i + 1) * s1], &eo_row[j * s1..(j + 1) * s1]);
                let dst = &mut ef_row[p * s1..(p + 1) * s1];
                match fact_fn {
                    FactFn::Hadamard => {
                        for c in 0..s1 {
                            dst[c] = ei[c] * ej[c];
                        }
                    }
                    FactFn::PointwiseAdd => {
                        for c in 0..s1 {
                            dst[c] = ei[c] + ej[c];
                        }
                    }
                    FactFn::Generalized => {
                        let Some(fw) = fw_val else {
                            unreachable!("generalized slot without fact_weights")
                        };
                        let w = fw.row(p);
                        for c in 0..s1 {
                            dst[c] = w[c] * ei[c] * ej[c];
                        }
                    }
                }
            }
        });
    }
    let in_width = m * s1 + p_count * d;
    let mut input = Matrix::zeros(b, in_width);
    {
        let ef_ref = &ef;
        pool.for_rows(input.as_mut_slice(), in_width, |r, in_row| {
            in_row[..m * s1].copy_from_slice(eo.row(r));
            for (p, sample) in samples.iter().enumerate() {
                let pm = sample.probs[0];
                let pf = sample.probs[1];
                let base = m * s1 + p * d;
                let em_row = &em.row(r)[p * s2..(p + 1) * s2];
                let ef_row = &ef_ref.row(r)[p * s1..(p + 1) * s1];
                let dst = &mut in_row[base..base + d];
                for c in 0..d {
                    let mut v = 0.0f32;
                    if c < s2 {
                        v += pm * em_row[c];
                    }
                    if c < s1 {
                        v += pf * ef_row[c];
                    }
                    dst[c] = v;
                }
            }
        });
    }
    (ef, input)
}

/// `Supernet::backward`'s pass A (accumulating into `arch_grad` and
/// `fw_grad`) and pass B: returns `(d_eo, d_em)`.
#[allow(clippy::too_many_arguments)]
pub(super) fn supernet_backward(
    pool: &Pool,
    sh: &SupShape<'_>,
    fact_fn: FactFn,
    fw_val: Option<&Matrix>,
    samples: &[GumbelSample],
    dinput: &Matrix,
    eo: &Matrix,
    em: &Matrix,
    ef: &Matrix,
    arch_grad: &mut Matrix,
    fw_grad: Option<&mut Matrix>,
) -> (Matrix, Matrix) {
    let (m, s1, s2) = (sh.m, sh.s1, sh.s2);
    let d = s1.max(s2);
    let p_count = sh.pairs.len();
    let b = dinput.rows();
    {
        let pairs = sh.pairs;
        let mut no_fw: Vec<f32> = Vec::new();
        let (fw_grad, fw_width): (&mut [f32], usize) = match fw_grad {
            Some(fw) => (fw.as_mut_slice(), s1),
            None => (&mut no_fw, 0),
        };
        pool.for_rows2(
            arch_grad.as_mut_slice(),
            3,
            fw_grad,
            fw_width,
            |p, arow, dw| {
                let (i, j) = pairs[p];
                let sample = &samples[p];
                let pf = sample.probs[1];
                let base = m * s1 + p * d;
                let mut dpm = 0.0f32;
                let mut dpf = 0.0f32;
                for r in 0..b {
                    let g = &dinput.row(r)[base..base + d];
                    let em_row = &em.row(r)[p * s2..(p + 1) * s2];
                    let ef_row = &ef.row(r)[p * s1..(p + 1) * s1];
                    for c in 0..s2.min(d) {
                        dpm += g[c] * em_row[c];
                    }
                    for c in 0..s1.min(d) {
                        dpf += g[c] * ef_row[c];
                    }
                    if fact_fn == FactFn::Generalized {
                        let eo_row = eo.row(r);
                        let (ei, ej) =
                            (&eo_row[i * s1..(i + 1) * s1], &eo_row[j * s1..(j + 1) * s1]);
                        for c in 0..s1.min(d) {
                            let def = pf * g[c];
                            dw[c] += def * ei[c] * ej[c];
                        }
                    }
                }
                let dprobs = [dpm, dpf, 0.0];
                let mut dlogits = [0.0f32; 3];
                sample.backward(&dprobs, &mut dlogits);
                for c in 0..3 {
                    arow[c] += dlogits[c];
                }
            },
        );
    }
    let mut d_eo = Matrix::zeros(0, 0);
    dinput.block_into(0, m * s1, &mut d_eo);
    let mut d_em = Matrix::zeros(b, p_count * s2);
    {
        let eo_width = m * s1;
        let em_width = p_count * s2;
        let pairs = sh.pairs;
        pool.for_rows2(
            d_eo.as_mut_slice(),
            eo_width,
            d_em.as_mut_slice(),
            em_width,
            |r, deo_row, dem_full| {
                let eo_row = eo.row(r);
                let din_row = dinput.row(r);
                for (p, &(i, j)) in pairs.iter().enumerate() {
                    let sample = &samples[p];
                    let (pm, pf) = (sample.probs[0], sample.probs[1]);
                    let base = m * s1 + p * d;
                    let g = &din_row[base..base + d];
                    let dem_row = &mut dem_full[p * s2..(p + 1) * s2];
                    for c in 0..s2.min(d) {
                        dem_row[c] += pm * g[c];
                    }
                    let (ei, ej) = (&eo_row[i * s1..(i + 1) * s1], &eo_row[j * s1..(j + 1) * s1]);
                    match fact_fn {
                        FactFn::Hadamard => {
                            for c in 0..s1.min(d) {
                                let def = pf * g[c];
                                deo_row[i * s1 + c] += def * ej[c];
                                deo_row[j * s1 + c] += def * ei[c];
                            }
                        }
                        FactFn::PointwiseAdd => {
                            for c in 0..s1.min(d) {
                                let def = pf * g[c];
                                deo_row[i * s1 + c] += def;
                                deo_row[j * s1 + c] += def;
                            }
                        }
                        FactFn::Generalized => {
                            let Some(fw) = fw_val else {
                                unreachable!("generalized slot without fact_weights")
                            };
                            let w = fw.row(p);
                            for c in 0..s1.min(d) {
                                let def = pf * g[c];
                                deo_row[i * s1 + c] += def * w[c] * ej[c];
                                deo_row[j * s1 + c] += def * w[c] * ei[c];
                            }
                        }
                    }
                }
            },
        );
    }
    (d_eo, d_em)
}

/// A fixed architecture's widths and slots.
pub(super) struct NetShape<'a> {
    pub slots: &'a [PairSlot],
    pub m: usize,
    pub s1: usize,
    pub s2: usize,
    pub input_dim: usize,
    pub num_memorized: usize,
}

/// `OptInterNet::forward_step`'s MLP-input assembly.
pub(super) fn net_forward(
    pool: &Pool,
    sh: &NetShape<'_>,
    fact_fn: FactFn,
    fw_val: Option<&Matrix>,
    eo: &Matrix,
    em: &Matrix,
) -> Matrix {
    let (m, s1, s2) = (sh.m, sh.s1, sh.s2);
    let b = eo.rows();
    let mut input = Matrix::zeros(b, sh.input_dim);
    let slots = sh.slots;
    let pairs = PairIndexer::new(m);
    pool.for_rows(input.as_mut_slice(), sh.input_dim, |r, dst_row| {
        let eo_row = eo.row(r);
        dst_row[..m * s1].copy_from_slice(eo_row);
        for (p, slot) in slots.iter().enumerate() {
            match slot.method {
                Method::Memorize => {
                    let src = &em.row(r)[slot.mem_slot * s2..(slot.mem_slot + 1) * s2];
                    dst_row[slot.input_offset..slot.input_offset + s2].copy_from_slice(src);
                }
                Method::Factorize => {
                    let (i, j) = pairs.pair_at(p);
                    let (ei_start, ej_start) = (i * s1, j * s1);
                    match fact_fn {
                        FactFn::Hadamard => {
                            for c in 0..s1 {
                                dst_row[slot.input_offset + c] =
                                    eo_row[ei_start + c] * eo_row[ej_start + c];
                            }
                        }
                        FactFn::PointwiseAdd => {
                            for c in 0..s1 {
                                dst_row[slot.input_offset + c] =
                                    eo_row[ei_start + c] + eo_row[ej_start + c];
                            }
                        }
                        FactFn::Generalized => {
                            let Some(fw) = fw_val else {
                                unreachable!("generalized slot without fact_weights")
                            };
                            let w = fw.row(p);
                            for c in 0..s1 {
                                dst_row[slot.input_offset + c] =
                                    w[c] * eo_row[ei_start + c] * eo_row[ej_start + c];
                            }
                        }
                    }
                }
                Method::Naive => {}
            }
        }
    });
    input
}

/// `OptInterNet::backward`'s pass A (accumulating into `fw_grad`) and
/// pass B: returns `(d_eo, d_em)`.
pub(super) fn net_backward(
    pool: &Pool,
    sh: &NetShape<'_>,
    fact_fn: FactFn,
    fw_val: Option<&Matrix>,
    dinput: &Matrix,
    eo: &Matrix,
    fw_grad: Option<&mut Matrix>,
) -> (Matrix, Matrix) {
    let (m, s1, s2) = (sh.m, sh.s1, sh.s2);
    let b = dinput.rows();
    let mut d_eo = Matrix::zeros(0, 0);
    dinput.block_into(0, m * s1, &mut d_eo);
    let mut d_em = Matrix::zeros(b, sh.num_memorized * s2);
    let pairs = PairIndexer::new(m);
    let slots = sh.slots;
    if let Some(fw_grad) = fw_grad {
        pool.for_rows(fw_grad.as_mut_slice(), s1, |p, dw| {
            let slot = &slots[p];
            if slot.method != Method::Factorize {
                return;
            }
            let (i, j) = pairs.pair_at(p);
            for r in 0..b {
                let eo_row = eo.row(r);
                let (ei, ej) = (&eo_row[i * s1..(i + 1) * s1], &eo_row[j * s1..(j + 1) * s1]);
                let g_row = dinput.row(r);
                for c in 0..s1 {
                    let g = g_row[slot.input_offset + c];
                    dw[c] += g * ei[c] * ej[c];
                }
            }
        });
    }
    let eo_width = m * s1;
    let em_width = sh.num_memorized * s2;
    pool.for_rows2(
        d_eo.as_mut_slice(),
        eo_width,
        d_em.as_mut_slice(),
        em_width,
        |r, d_row, dem_full| {
            let eo_row = eo.row(r);
            let g_row = dinput.row(r);
            for (p, slot) in slots.iter().enumerate() {
                match slot.method {
                    Method::Memorize => {
                        let src = &g_row[slot.input_offset..slot.input_offset + s2];
                        dem_full[slot.mem_slot * s2..(slot.mem_slot + 1) * s2].copy_from_slice(src);
                    }
                    Method::Factorize => {
                        let (i, j) = pairs.pair_at(p);
                        let (ei, ej) =
                            (&eo_row[i * s1..(i + 1) * s1], &eo_row[j * s1..(j + 1) * s1]);
                        match fact_fn {
                            FactFn::Hadamard => {
                                for c in 0..s1 {
                                    let g = g_row[slot.input_offset + c];
                                    d_row[i * s1 + c] += g * ej[c];
                                    d_row[j * s1 + c] += g * ei[c];
                                }
                            }
                            FactFn::PointwiseAdd => {
                                for c in 0..s1 {
                                    let g = g_row[slot.input_offset + c];
                                    d_row[i * s1 + c] += g;
                                    d_row[j * s1 + c] += g;
                                }
                            }
                            FactFn::Generalized => {
                                let Some(fw) = fw_val else {
                                    unreachable!("generalized slot without fact_weights")
                                };
                                let w = fw.row(p);
                                for c in 0..s1 {
                                    let g = g_row[slot.input_offset + c];
                                    d_row[i * s1 + c] += g * w[c] * ej[c];
                                    d_row[j * s1 + c] += g * w[c] * ei[c];
                                }
                            }
                        }
                    }
                    Method::Naive => {}
                }
            }
        },
    );
    (d_eo, d_em)
}
