//! Matmul kernel backends behind a dispatch trait.
//!
//! The three product families ([`Matrix::matmul_into`],
//! [`Matrix::matmul_at_b_accumulate`], [`Matrix::matmul_a_bt_into`] and
//! their pooled variants) route through [`MatMulKernel`], with two
//! implementations:
//!
//! * [`ScalarBackend`] — the register-tiled scalar kernels (4x8 tiles,
//!   16-lane dots) that previously lived in `matrix.rs`. No `unsafe`; they
//!   rely on autovectorization at `target-cpu=x86-64-v3`.
//! * [`AvxFmaBackend`] — one microkernel over explicit
//!   `core::arch::x86_64` intrinsics, two accumulators per row: up to 12
//!   rows x 32 columns in `zmm` registers where the host has AVX-512F,
//!   else up to 6 rows x 16 columns in AVX2 + FMA `ymm` registers. It
//!   reads A in place through strides, and B one panel at a time through
//!   a k-stride: where it lies for `x·W` and `xᵀ·g`, save a ragged last
//!   panel copied into zero-padded scratch, and from packed panels of `Wᵀ`
//!   for `g·Wᵀ`. The three products differ only in their strides and in
//!   what they pack. This is the only module in the workspace besides the
//!   pool/embedding arenas allowed to contain `unsafe` (lint rule
//!   `unsafe-confinement`), and every site carries a SAFETY comment.
//!
//! **Backend selection.** [`active`] resolves once per process: the
//! `OPTINTER_KERNEL_BACKEND={scalar,avx2fma}` env var wins if set and
//! supported, otherwise runtime feature detection
//! (`is_x86_feature_detected!("avx2")` + `"fma"`) picks `avx2fma` when the
//! host supports it and `scalar` otherwise. The choice is logged to stderr
//! once, with the AVX tile's width (`avx2fma, 512-bit tile`). That width
//! is no option: `is_x86_feature_detected!("avx512f")` picks it, and it
//! moves no bits, so `avx2fma` names the numeric contract on either width.
//! CLI `--backend` flags call [`set_active`] before any matmul runs.
//!
//! **Determinism contract (per backend).** Every output element is
//! produced by exactly one accumulator chain that walks the reduction
//! dimension in ascending order and is combined with the output exactly
//! once; the remainder kernels replay the *same* per-element chain. An
//! element's value therefore does not depend on which block shape computed
//! it, so each backend is invariant under any row regrouping: serial,
//! pooled with any chunk split, and any thread count produce bit-identical
//! results. On the AVX backend neither the register width nor where B was
//! read from changes a chain either, so both tiles give the same bits as
//! the packed kernels they replaced (the `backend_avx_*` tests run every
//! width the host has against those). The chains differ
//! in one place between the backends: the scalar `a·bᵀ` splits each dot
//! product into 16 lanes reduced by a fixed tree, while the AVX `a·bᵀ` is
//! the same ascending-k FMA chain as its other two products. What is *not*
//! promised is bitwise equality *across* backends: the AVX backend
//! contracts multiply-add pairs into fused FMAs (one rounding instead of
//! two), so it agrees with `ScalarBackend` and `tensor::reference` only to
//! relative tolerance. See DESIGN.md §13.

use std::sync::atomic::{AtomicU8, Ordering};

/// The kernel-backend interface: one method per product family, each
/// operating on a contiguous block of output rows so the same entry points
/// serve both the serial paths and the pooled owner-computes row chunks.
#[allow(clippy::too_many_arguments)]
pub trait MatMulKernel: Sync {
    /// Stable name recorded in bench rows and artifacts.
    fn name(&self) -> &'static str;

    /// `out_rows += alpha * a_rows * b` for a contiguous block of output
    /// rows: `a_rows` is the matching row block of `A` (`rows x k`), `b`
    /// the full `k x n` right-hand side, `out_rows` the `rows x n` block.
    fn mm_acc_rows(
        &self,
        a_rows: &[f32],
        k: usize,
        b: &[f32],
        n: usize,
        out_rows: &mut [f32],
        alpha: f32,
    );

    /// `out_chunk += alpha * (A^T G)` rows `k0..`, for `A: m x acols` and
    /// `G: m x n`; `out_chunk` is a contiguous block of `A^T G` output rows
    /// starting at row `k0` (i.e. column `k0` of `A`).
    fn mm_atb_rows(
        &self,
        a: &[f32],
        acols: usize,
        g: &[f32],
        n: usize,
        k0: usize,
        out_chunk: &mut [f32],
        alpha: f32,
    );

    /// `out_rows = a_rows * b^T` for a contiguous block of output rows:
    /// `a_rows` is `rows x ncols`, `b` is `bn x ncols`, `out_rows` is
    /// `rows x bn`.
    fn mm_abt_rows(&self, a_rows: &[f32], ncols: usize, b: &[f32], bn: usize, out_rows: &mut [f32]);

    /// Pre-sizes, on the calling thread, any thread-local scratch that a
    /// product with reduction length `k` and `n` output columns needs:
    /// [`mm_acc_rows`](Self::mm_acc_rows) with a `k x n` right-hand side,
    /// or [`mm_atb_rows`](Self::mm_atb_rows) with `k` = the shared row
    /// count of A and G. Pooled matmuls pass this to
    /// [`Pool::for_row_chunks_prepared`](crate::Pool::for_row_chunks_prepared)
    /// so every worker's scratch grows on first sight of a shape — not at
    /// the scheduling-dependent moment that worker first wins a chunk
    /// (which could land inside a caller's zero-allocation window).
    /// Backends without scratch keep the default no-op.
    fn warm_acc_scratch(&self, _k: usize, _n: usize) {}

    /// [`warm_acc_scratch`](Self::warm_acc_scratch) for
    /// [`mm_abt_rows`](Self::mm_abt_rows) with a `bn x ncols` right-hand
    /// side.
    fn warm_abt_scratch(&self, _ncols: usize, _bn: usize) {}
}

/// Which kernel implementation the process dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Register-tiled safe-Rust kernels (autovectorized).
    Scalar,
    /// Packed-panel AVX2 + FMA intrinsic kernels.
    AvxFma,
}

impl Backend {
    /// Stable lower-case name (`scalar` / `avx2fma`), used by the env/CLI
    /// override, bench JSON rows, and log lines.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::AvxFma => "avx2fma",
        }
    }

    /// Parses [`Backend::name`] strings; `None` for anything else.
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "scalar" => Some(Backend::Scalar),
            "avx2fma" => Some(Backend::AvxFma),
            _ => None,
        }
    }

    /// One-byte artifact encoding (serve artifact header).
    pub fn tag(self) -> u8 {
        match self {
            Backend::Scalar => 0,
            Backend::AvxFma => 1,
        }
    }

    /// Inverse of [`Backend::tag`].
    pub fn from_tag(t: u8) -> Option<Backend> {
        match t {
            0 => Some(Backend::Scalar),
            1 => Some(Backend::AvxFma),
            _ => None,
        }
    }

    /// Whether this backend can run on the current host. `Scalar` always
    /// can; `AvxFma` needs a runtime AVX2 + FMA check (and is never
    /// supported under miri, which cannot execute vendor intrinsics).
    pub fn is_supported(self) -> bool {
        match self {
            Backend::Scalar => true,
            Backend::AvxFma => avx_fma_detected(),
        }
    }
}

/// Runtime CPU check for the AVX backend; `false` off x86-64 and under
/// miri.
fn avx_fma_detected() -> bool {
    if cfg!(miri) {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Process-wide backend selection: 0 = not yet resolved, otherwise
/// `Backend::tag() + 1`.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn backend_from_code(code: u8) -> Option<Backend> {
    Backend::from_tag(code.wrapping_sub(1))
}

/// First-use resolution: env override if valid and supported, else CPU
/// detection.
fn resolve_default() -> Backend {
    match std::env::var("OPTINTER_KERNEL_BACKEND") {
        Ok(v) => match Backend::parse(&v) {
            Some(b) if b.is_supported() => b,
            Some(b) => {
                eprintln!(
                    "[optinter-tensor] OPTINTER_KERNEL_BACKEND={} not supported on this host; \
                     falling back to scalar",
                    b.name()
                );
                Backend::Scalar
            }
            None => {
                eprintln!(
                    "[optinter-tensor] unknown OPTINTER_KERNEL_BACKEND value {v:?} \
                     (expected scalar|avx2fma); using auto-detection"
                );
                detect()
            }
        },
        Err(_) => detect(),
    }
}

/// Auto-detected default: `avx2fma` when the host supports it.
fn detect() -> Backend {
    if avx_fma_detected() {
        Backend::AvxFma
    } else {
        Backend::Scalar
    }
}

/// The backend the process currently dispatches to, resolving (and logging
/// the choice once) on first use.
pub fn active() -> Backend {
    loop {
        match backend_from_code(ACTIVE.load(Ordering::Relaxed)) {
            Some(b) => return b,
            None => {
                let b = resolve_default();
                if ACTIVE
                    .compare_exchange(0, b.tag() + 1, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    eprintln!(
                        "[optinter-tensor] kernel backend: {}{}",
                        b.name(),
                        tile_note(b)
                    );
                }
            }
        }
    }
}

/// The AVX backend's tile width, for the backend log line: CPU detection
/// picks it with no option, and its name and artifact tag do not say it.
fn tile_note(b: Backend) -> &'static str {
    match b {
        #[cfg(target_arch = "x86_64")]
        Backend::AvxFma if avx_fma_detected() => avx::Width::detect().log_note(),
        _ => "",
    }
}

/// Forces the process-wide backend (CLI `--backend`, tests). Returns the
/// previously active backend (or `b` itself if none had been resolved
/// yet), so callers can restore it.
///
/// # Panics
/// Panics if `b` is not supported on this host; check
/// [`Backend::is_supported`] first when the value comes from user input.
pub fn set_active(b: Backend) -> Backend {
    assert!(
        b.is_supported(),
        "kernel backend {} is not supported on this host",
        b.name()
    );
    let prev = ACTIVE.swap(b.tag() + 1, Ordering::Relaxed);
    eprintln!(
        "[optinter-tensor] kernel backend: {}{} (forced)",
        b.name(),
        tile_note(b)
    );
    backend_from_code(prev).unwrap_or(b)
}

/// Kernel object for an explicit backend (the proptest equivalence suite
/// calls implementations directly through this, without touching the
/// process-wide selection).
pub fn kernel_for(b: Backend) -> &'static dyn MatMulKernel {
    match b {
        Backend::Scalar => &ScalarBackend,
        Backend::AvxFma => &AvxFmaBackend,
    }
}

/// Kernel object for the currently active backend — the single dispatch
/// point used by every `Matrix` matmul entry.
pub fn active_kernel() -> &'static dyn MatMulKernel {
    kernel_for(active())
}

// ---------------------------------------------------------------------------
// Scalar backend: register-tiled kernels.
//
// All three products run the same scheme: output rows are processed in
// blocks of `MR = 4` and output columns in panels of `NR = 8`, with the
// `MR x NR` accumulator tile held in registers across the entire reduction
// loop (8 SSE registers for the tile, leaving room for the broadcast
// multipliers and the loaded B panel in the 16-register x86-64 budget).
// Each B/G panel row loaded from memory feeds `MR` rows of output, cutting
// memory traffic `MR`-fold versus the naive `i-k-j` loop, and the `NR`-wide
// independent lanes keep the SIMD units fed.
//
// The determinism contract is the module-level one: single ascending
// accumulator chain per element, remainder kernels replay the same chain.
// No `unsafe`: the kernels are built on `split_at`/`chunks_exact` and
// fixed-size array tiles, which LLVM lowers without bounds checks.
// ---------------------------------------------------------------------------

/// The blocked scalar kernels: the workspace determinism *reference*
/// implementation (DESIGN.md §6), and the fallback on hosts without AVX2.
pub struct ScalarBackend;

#[allow(clippy::too_many_arguments)]
impl MatMulKernel for ScalarBackend {
    fn name(&self) -> &'static str {
        Backend::Scalar.name()
    }

    fn mm_acc_rows(
        &self,
        a_rows: &[f32],
        k: usize,
        b: &[f32],
        n: usize,
        out_rows: &mut [f32],
        alpha: f32,
    ) {
        scalar::mm_acc_rows(a_rows, k, b, n, out_rows, alpha);
    }

    fn mm_atb_rows(
        &self,
        a: &[f32],
        acols: usize,
        g: &[f32],
        n: usize,
        k0: usize,
        out_chunk: &mut [f32],
        alpha: f32,
    ) {
        scalar::mm_atb_rows(a, acols, g, n, k0, out_chunk, alpha);
    }

    fn mm_abt_rows(
        &self,
        a_rows: &[f32],
        ncols: usize,
        b: &[f32],
        bn: usize,
        out_rows: &mut [f32],
    ) {
        scalar::mm_abt_rows(a_rows, ncols, b, bn, out_rows);
    }
}

mod scalar {
    /// Output-row block height of the microkernels.
    const MR: usize = 4;
    /// Output-column panel width of the microkernels.
    const NR: usize = 8;

    /// `out_rows += alpha * a_rows * b` for a contiguous block of output
    /// rows.
    pub(super) fn mm_acc_rows(
        a_rows: &[f32],
        k: usize,
        b: &[f32],
        n: usize,
        out_rows: &mut [f32],
        alpha: f32,
    ) {
        if k == 0 || n == 0 {
            return;
        }
        debug_assert_eq!(a_rows.len() % k, 0);
        debug_assert_eq!(b.len(), k * n);
        let mut a_blocks = a_rows.chunks_exact(MR * k);
        let mut o_blocks = out_rows.chunks_exact_mut(MR * n);
        for (ab, ob) in (&mut a_blocks).zip(&mut o_blocks) {
            mm_acc_mr(ab, k, b, n, ob, alpha);
        }
        for (ar, or) in a_blocks
            .remainder()
            .chunks_exact(k)
            .zip(o_blocks.into_remainder().chunks_exact_mut(n))
        {
            mm_acc_1(ar, b, n, or, alpha);
        }
    }

    /// `MR`-row microkernel of [`mm_acc_rows`].
    ///
    /// Per element `(r, c)`: `t = Σ_k a[r,k] * b[k,c]` in ascending `k` on
    /// a single accumulator, then `out += alpha * t` — `alpha` is applied
    /// once per element, outside the reduction loop.
    fn mm_acc_mr(ab: &[f32], k: usize, b: &[f32], n: usize, ob: &mut [f32], alpha: f32) {
        let (a0, rest) = ab.split_at(k);
        let (a1, rest) = rest.split_at(k);
        let (a2, a3) = rest.split_at(k);
        let (o0, rest) = ob.split_at_mut(n);
        let (o1, rest) = rest.split_at_mut(n);
        let (o2, o3) = rest.split_at_mut(n);
        let mut c = 0;
        while c + NR <= n {
            let mut t0 = [0.0f32; NR];
            let mut t1 = [0.0f32; NR];
            let mut t2 = [0.0f32; NR];
            let mut t3 = [0.0f32; NR];
            let rows = b.chunks_exact(n).zip(a0).zip(a1).zip(a2).zip(a3);
            for ((((brow, &x0), &x1), &x2), &x3) in rows {
                let bp = &brow[c..c + NR];
                for j in 0..NR {
                    t0[j] += x0 * bp[j];
                    t1[j] += x1 * bp[j];
                    t2[j] += x2 * bp[j];
                    t3[j] += x3 * bp[j];
                }
            }
            for j in 0..NR {
                o0[c + j] += alpha * t0[j];
                o1[c + j] += alpha * t1[j];
                o2[c + j] += alpha * t2[j];
                o3[c + j] += alpha * t3[j];
            }
            c += NR;
        }
        while c < n {
            let mut t0 = 0.0f32;
            let mut t1 = 0.0f32;
            let mut t2 = 0.0f32;
            let mut t3 = 0.0f32;
            let rows = b.chunks_exact(n).zip(a0).zip(a1).zip(a2).zip(a3);
            for ((((brow, &x0), &x1), &x2), &x3) in rows {
                let bv = brow[c];
                t0 += x0 * bv;
                t1 += x1 * bv;
                t2 += x2 * bv;
                t3 += x3 * bv;
            }
            o0[c] += alpha * t0;
            o1[c] += alpha * t1;
            o2[c] += alpha * t2;
            o3[c] += alpha * t3;
            c += 1;
        }
    }

    /// Single-row tail of [`mm_acc_rows`]; replays the same per-element
    /// chain.
    fn mm_acc_1(ar: &[f32], b: &[f32], n: usize, or: &mut [f32], alpha: f32) {
        let mut c = 0;
        while c + NR <= n {
            let mut t = [0.0f32; NR];
            for (brow, &x) in b.chunks_exact(n).zip(ar) {
                let bp = &brow[c..c + NR];
                for j in 0..NR {
                    t[j] += x * bp[j];
                }
            }
            for j in 0..NR {
                or[c + j] += alpha * t[j];
            }
            c += NR;
        }
        while c < n {
            let mut t = 0.0f32;
            for (brow, &x) in b.chunks_exact(n).zip(ar) {
                t += x * brow[c];
            }
            or[c] += alpha * t;
            c += 1;
        }
    }

    /// `out_chunk += alpha * (A^T G)` rows `k0..`.
    pub(super) fn mm_atb_rows(
        a: &[f32],
        acols: usize,
        g: &[f32],
        n: usize,
        k0: usize,
        out_chunk: &mut [f32],
        alpha: f32,
    ) {
        if n == 0 {
            return;
        }
        debug_assert_eq!(out_chunk.len() % n, 0);
        let mut col = k0;
        let mut o_blocks = out_chunk.chunks_exact_mut(MR * n);
        for ob in &mut o_blocks {
            mm_atb_mr(a, acols, g, n, col, ob, alpha);
            col += MR;
        }
        for or in o_blocks.into_remainder().chunks_exact_mut(n) {
            mm_atb_1(a, acols, g, n, col, or, alpha);
            col += 1;
        }
    }

    /// `MR`-output-row microkernel of [`mm_atb_rows`]: output rows are
    /// columns `col..col + MR` of `A`, reduced over `A`/`G` rows in
    /// ascending order. Same per-element scheme as [`mm_acc_mr`]: single
    /// ascending accumulator, `alpha` applied once at the end.
    fn mm_atb_mr(
        a: &[f32],
        acols: usize,
        g: &[f32],
        n: usize,
        col: usize,
        ob: &mut [f32],
        alpha: f32,
    ) {
        let (o0, rest) = ob.split_at_mut(n);
        let (o1, rest) = rest.split_at_mut(n);
        let (o2, o3) = rest.split_at_mut(n);
        let mut c = 0;
        while c + NR <= n {
            let mut t0 = [0.0f32; NR];
            let mut t1 = [0.0f32; NR];
            let mut t2 = [0.0f32; NR];
            let mut t3 = [0.0f32; NR];
            for (arow, grow) in a.chunks_exact(acols).zip(g.chunks_exact(n)) {
                let av = &arow[col..col + MR];
                let gp = &grow[c..c + NR];
                for j in 0..NR {
                    t0[j] += av[0] * gp[j];
                    t1[j] += av[1] * gp[j];
                    t2[j] += av[2] * gp[j];
                    t3[j] += av[3] * gp[j];
                }
            }
            for j in 0..NR {
                o0[c + j] += alpha * t0[j];
                o1[c + j] += alpha * t1[j];
                o2[c + j] += alpha * t2[j];
                o3[c + j] += alpha * t3[j];
            }
            c += NR;
        }
        while c < n {
            let mut t0 = 0.0f32;
            let mut t1 = 0.0f32;
            let mut t2 = 0.0f32;
            let mut t3 = 0.0f32;
            for (arow, grow) in a.chunks_exact(acols).zip(g.chunks_exact(n)) {
                let av = &arow[col..col + MR];
                let gv = grow[c];
                t0 += av[0] * gv;
                t1 += av[1] * gv;
                t2 += av[2] * gv;
                t3 += av[3] * gv;
            }
            o0[c] += alpha * t0;
            o1[c] += alpha * t1;
            o2[c] += alpha * t2;
            o3[c] += alpha * t3;
            c += 1;
        }
    }

    /// Single-output-row tail of [`mm_atb_rows`]; same per-element chain.
    fn mm_atb_1(
        a: &[f32],
        acols: usize,
        g: &[f32],
        n: usize,
        col: usize,
        or: &mut [f32],
        alpha: f32,
    ) {
        let mut c = 0;
        while c + NR <= n {
            let mut t = [0.0f32; NR];
            for (arow, grow) in a.chunks_exact(acols).zip(g.chunks_exact(n)) {
                let x = arow[col];
                let gp = &grow[c..c + NR];
                for j in 0..NR {
                    t[j] += x * gp[j];
                }
            }
            for j in 0..NR {
                or[c + j] += alpha * t[j];
            }
            c += NR;
        }
        while c < n {
            let mut t = 0.0f32;
            for (arow, grow) in a.chunks_exact(acols).zip(g.chunks_exact(n)) {
                t += arow[col] * grow[c];
            }
            or[c] += alpha * t;
            c += 1;
        }
    }

    /// `out_rows = a_rows * b^T`: every element is the same [`dot_lanes`]
    /// chain, so the 4-row cache blocking cannot affect results.
    pub(super) fn mm_abt_rows(
        a_rows: &[f32],
        ncols: usize,
        b: &[f32],
        bn: usize,
        out_rows: &mut [f32],
    ) {
        if bn == 0 {
            return;
        }
        if ncols == 0 {
            out_rows.fill(0.0);
            return;
        }
        let mut a_blocks = a_rows.chunks_exact(MR * ncols);
        let mut o_blocks = out_rows.chunks_exact_mut(MR * bn);
        for (ab, ob) in (&mut a_blocks).zip(&mut o_blocks) {
            let (a0, rest) = ab.split_at(ncols);
            let (a1, rest) = rest.split_at(ncols);
            let (a2, a3) = rest.split_at(ncols);
            let (o0, rest) = ob.split_at_mut(bn);
            let (o1, rest) = rest.split_at_mut(bn);
            let (o2, o3) = rest.split_at_mut(bn);
            for (c, brow) in b.chunks_exact(ncols).enumerate() {
                let [d0, d1, d2, d3] = dot4_lanes(a0, a1, a2, a3, brow);
                o0[c] = d0;
                o1[c] = d1;
                o2[c] = d2;
                o3[c] = d3;
            }
        }
        for (ar, or) in a_blocks
            .remainder()
            .chunks_exact(ncols)
            .zip(o_blocks.into_remainder().chunks_exact_mut(bn))
        {
            for (c, brow) in b.chunks_exact(ncols).enumerate() {
                or[c] = dot_lanes(ar, brow);
            }
        }
    }

    /// Dot product via 16 independent strided partial sums reduced in a
    /// fixed order. The lanes break the serial FP dependency chain (the
    /// naive dot is add-latency-bound: one accumulator admits one element
    /// per ~4 cycles); the fixed pairwise reduction keeps the result a
    /// pure function of the operands, so every caller — any block shape,
    /// serial or pooled — computes bit-identical values.
    #[inline]
    fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
        const L: usize = 16;
        let mut acc = [0.0f32; L];
        let mut ac = a.chunks_exact(L);
        let mut bc = b.chunks_exact(L);
        for (x, y) in (&mut ac).zip(&mut bc) {
            for j in 0..L {
                acc[j] += x[j] * y[j];
            }
        }
        let mut tail = 0.0f32;
        for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
            tail += x * y;
        }
        reduce_lanes(&acc) + tail
    }

    /// Four dot products against a shared right-hand side, computed
    /// jointly so the `b` panel is loaded once per 16-lane step and the
    /// four accumulator sets interleave. Each of the four results is
    /// **bitwise identical** to `dot_lanes(a_i, b)`: same lane
    /// decomposition, same reduction tree, same scalar tail order.
    #[inline]
    #[allow(clippy::needless_range_loop)]
    fn dot4_lanes(a0: &[f32], a1: &[f32], a2: &[f32], a3: &[f32], b: &[f32]) -> [f32; 4] {
        const L: usize = 16;
        let n = b.len();
        debug_assert!(a0.len() == n && a1.len() == n && a2.len() == n && a3.len() == n);
        let whole = n - n % L;
        let mut acc0 = [0.0f32; L];
        let mut acc1 = [0.0f32; L];
        let mut acc2 = [0.0f32; L];
        let mut acc3 = [0.0f32; L];
        let mut i = 0;
        while i + L <= whole {
            let bp = &b[i..i + L];
            let x0 = &a0[i..i + L];
            let x1 = &a1[i..i + L];
            let x2 = &a2[i..i + L];
            let x3 = &a3[i..i + L];
            for j in 0..L {
                acc0[j] += x0[j] * bp[j];
                acc1[j] += x1[j] * bp[j];
                acc2[j] += x2[j] * bp[j];
                acc3[j] += x3[j] * bp[j];
            }
            i += L;
        }
        let mut t0 = 0.0f32;
        let mut t1 = 0.0f32;
        let mut t2 = 0.0f32;
        let mut t3 = 0.0f32;
        for j in whole..n {
            t0 += a0[j] * b[j];
            t1 += a1[j] * b[j];
            t2 += a2[j] * b[j];
            t3 += a3[j] * b[j];
        }
        [
            reduce_lanes(&acc0) + t0,
            reduce_lanes(&acc1) + t1,
            reduce_lanes(&acc2) + t2,
            reduce_lanes(&acc3) + t3,
        ]
    }

    /// Fixed pairwise reduction of 16 partial sums (shared by
    /// [`dot_lanes`] and [`dot4_lanes`] so their results are
    /// bit-identical).
    #[inline]
    fn reduce_lanes(acc: &[f32; 16]) -> f32 {
        let q0 = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        let q1 = (acc[4] + acc[5]) + (acc[6] + acc[7]);
        let q2 = (acc[8] + acc[9]) + (acc[10] + acc[11]);
        let q3 = (acc[12] + acc[13]) + (acc[14] + acc[15]);
        (q0 + q1) + (q2 + q3)
    }
}

// ---------------------------------------------------------------------------
// AVX backend: one FMA microkernel per register width, B read in place.
// ---------------------------------------------------------------------------

/// AVX2 + FMA kernels, on a 512-bit tile where the host has AVX-512F.
/// Selectable only when the host passes the runtime feature check
/// ([`Backend::is_supported`]); on other architectures (or if a caller
/// constructs it anyway on a host without AVX2) every method falls back to
/// the scalar kernels, so the type is safe to instantiate unconditionally.
pub struct AvxFmaBackend;

#[allow(clippy::too_many_arguments)]
impl MatMulKernel for AvxFmaBackend {
    fn name(&self) -> &'static str {
        Backend::AvxFma.name()
    }

    fn mm_acc_rows(
        &self,
        a_rows: &[f32],
        k: usize,
        b: &[f32],
        n: usize,
        out_rows: &mut [f32],
        alpha: f32,
    ) {
        #[cfg(target_arch = "x86_64")]
        if avx_fma_detected() {
            return avx::mm_acc_rows(avx::Width::detect(), a_rows, k, b, n, out_rows, alpha);
        }
        scalar::mm_acc_rows(a_rows, k, b, n, out_rows, alpha);
    }

    fn mm_atb_rows(
        &self,
        a: &[f32],
        acols: usize,
        g: &[f32],
        n: usize,
        k0: usize,
        out_chunk: &mut [f32],
        alpha: f32,
    ) {
        #[cfg(target_arch = "x86_64")]
        if avx_fma_detected() {
            let w = avx::Width::detect();
            return avx::mm_atb_rows(w, a, acols, g, n, k0, out_chunk, alpha);
        }
        scalar::mm_atb_rows(a, acols, g, n, k0, out_chunk, alpha);
    }

    fn mm_abt_rows(
        &self,
        a_rows: &[f32],
        ncols: usize,
        b: &[f32],
        bn: usize,
        out_rows: &mut [f32],
    ) {
        #[cfg(target_arch = "x86_64")]
        if avx_fma_detected() {
            return avx::mm_abt_rows(avx::Width::detect(), a_rows, ncols, b, bn, out_rows);
        }
        scalar::mm_abt_rows(a_rows, ncols, b, bn, out_rows);
    }

    fn warm_acc_scratch(&self, k: usize, n: usize) {
        #[cfg(target_arch = "x86_64")]
        if avx_fma_detected() {
            avx::warm_acc_scratch(k, n);
        }
        // The scalar fallback keeps no scratch.
        #[cfg(not(target_arch = "x86_64"))]
        let _ = (k, n);
    }

    fn warm_abt_scratch(&self, ncols: usize, bn: usize) {
        #[cfg(target_arch = "x86_64")]
        if avx_fma_detected() {
            avx::warm_abt_scratch(ncols, bn);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = (ncols, bn);
    }
}

// One microkernel per register width, shared by all three products.
//
// Geometry: output rows in blocks of `mr`, output columns in panels of
// `nr`, two accumulators per row. With AVX-512F the tile is 12 rows x 32
// columns in `zmm`: 24 accumulators, 2 B loads and 1 broadcast use 27 of the
// 32 registers. Without it the tile is 6 x 16 in `ymm`: 12 + 2 + 1 of 16.
// Either saturates both FMA ports. `Width::detect` picks the width per call
// from CPU detection alone. The rows left after the last full block run as
// one shorter tile of the same kernel.
//
// The kernel reads A in place through a (row, k) stride pair and one
// `nr`-column panel of B through a k-stride. The products differ only in
// their strides and in which panels of B are copied first:
//   * `x·W` (`mm_acc_rows`): A is x (row stride k, k stride 1); W's
//     full-width panels are read where they lie, at k-stride n.
//   * `xᵀ·g` (`mm_atb_rows`): A is x's columns (row stride 1, k stride
//     acols); g's full-width panels are read in place, at k-stride n.
//   * `g·Wᵀ` (`mm_abt_rows`): A is g (row stride ncols, k stride 1); Wᵀ is
//     packed by `pack_bt_panels`, and the zeroed output accumulates with
//     alpha = 1.
// A ragged last panel of `x·W` and `xᵀ·g`, and every panel of `Wᵀ`, is
// copied into panel-major scratch: panel `p` holds `k` rows of `nr`
// contiguous floats for absolute output columns `[p*nr, p*nr + nr)`, the
// ragged one zero-padded (pad lanes are computed but never stored). The
// scratch is one thread-local buffer that only grows, so steady-state
// allocations stay at zero.
//
// Determinism: per output element one accumulator chain in ascending `k`
// (vector FMA lanes) from +0, stored once as `fma(alpha, acc, out)`. Column
// panels are addressed by *absolute* column index and each row's
// accumulators are independent, so neither pooled row regrouping, the tile
// height, the register width, nor where a panel of B was read from can
// change an element's chain. Ragged panels store through scalar
// `f32::mul_add`, which is the IEEE fusedMultiplyAdd — bit-identical to a
// vector FMA lane. See DESIGN.md §13.
#[cfg(target_arch = "x86_64")]
mod avx {
    use core::arch::x86_64::{
        __m256, __m512, _mm256_broadcast_ss, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps,
        _mm256_setzero_ps, _mm256_storeu_ps, _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_set1_ps,
        _mm512_setzero_ps, _mm512_storeu_ps,
    };
    use std::cell::RefCell;

    thread_local! {
        // Panel scratch: grown via `resize` to the per-thread working-set
        // maximum and never shrunk, so steady-state train steps and serve
        // requests never touch the heap (the counting allocator test covers
        // this; pool worker threads are persistent). Growth must be
        // *deterministic* to honor that: pool job assignment is dynamic, so
        // a worker that sat out every call of a shape during a caller's
        // warm-up would otherwise first grow its scratch at an arbitrary
        // later win — which is why every pooled matmul warms every thread
        // via `Pool::for_row_chunks_prepared` + the `warm_*_scratch` fns
        // below.
        static PACK_B: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    }

    /// The microkernel's register width, which fixes its tile: 6 x 16 in
    /// `ymm` or 12 x 32 in `zmm`. Only [`Width::detect`] and
    /// [`Width::wide`] make the 512-bit one, so it never runs without
    /// AVX-512F.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(super) struct Width {
        /// Rows per full tile.
        mr: usize,
        /// Columns per panel: two registers' lanes.
        nr: usize,
    }

    impl Width {
        /// The 256-bit tile (the AVX2 + FMA check is the caller's).
        pub(super) const NARROW: Width = Width { mr: 6, nr: 16 };

        /// The 512-bit tile, if this host has AVX-512F.
        pub(super) fn wide() -> Option<Width> {
            std::arch::is_x86_feature_detected!("avx512f").then_some(Width { mr: 12, nr: 32 })
        }

        /// The widest tile this host runs.
        pub(super) fn detect() -> Width {
            Width::wide().unwrap_or(Width::NARROW)
        }

        /// Suffix for the one-time backend log line.
        pub(super) fn log_note(self) -> &'static str {
            if self == Width::NARROW {
                ", 256-bit tile"
            } else {
                ", 512-bit tile"
            }
        }

        /// The `h`-row tile, `1 <= h <= self.mr`.
        fn tile(self, h: usize) -> Tile {
            match (self == Width::NARROW, h) {
                (true, 1) => tile256::<1>,
                (true, 2) => tile256::<2>,
                (true, 3) => tile256::<3>,
                (true, 4) => tile256::<4>,
                (true, 5) => tile256::<5>,
                (true, _) => tile256::<6>,
                (false, 1) => tile512::<1>,
                (false, 2) => tile512::<2>,
                (false, 3) => tile512::<3>,
                (false, 4) => tile512::<4>,
                (false, 5) => tile512::<5>,
                (false, 6) => tile512::<6>,
                (false, 7) => tile512::<7>,
                (false, 8) => tile512::<8>,
                (false, 9) => tile512::<9>,
                (false, 10) => tile512::<10>,
                (false, 11) => tile512::<11>,
                (false, _) => tile512::<12>,
            }
        }
    }

    /// The left operand, read in place: element `(i, kk)` lives at
    /// `a[i * rs + kk * ks]`.
    #[derive(Clone, Copy)]
    struct Lhs<'a> {
        a: &'a [f32],
        rs: usize,
        ks: usize,
    }

    /// One panel of B, read through a k-stride: element `(kk, j)` of the
    /// panel lives at `b[kk * ks + j]`.
    #[derive(Clone, Copy)]
    struct Rhs<'a> {
        b: &'a [f32],
        ks: usize,
    }

    /// Where [`gemm`] finds the panels of a `k x n` B: panels `p < full` in
    /// place in the row-major `b`, at k-stride `n`; the rest in `packed`,
    /// panel-major from panel `full` on, at k-stride `nr`.
    #[derive(Clone, Copy)]
    struct Panels<'a> {
        b: &'a [f32],
        full: usize,
        packed: &'a [f32],
    }

    /// The microkernel's signature, so [`gemm`] picks a tile once per row
    /// block.
    ///
    /// # Safety
    /// Calls must meet [`tile256`]'s or [`tile512`]'s contract.
    type Tile = unsafe fn(Lhs<'_>, Rhs<'_>, usize, &mut [f32], usize, usize, f32);

    /// Grows this thread's panel scratch to what `x·W` or `xᵀ·g` with
    /// reduction length `k` and `n` output columns packs on this host's
    /// tile: the ragged last panel, if any. Must stay in lockstep with
    /// [`gemm_row_major_b`].
    pub(super) fn warm_acc_scratch(k: usize, n: usize) {
        let nr = Width::detect().nr;
        warm_scratch((n.div_ceil(nr) - n / nr) * nr * k);
    }

    /// Grows this thread's panel scratch to what `g·Wᵀ` packs: all of
    /// `Wᵀ`, `bn` columns reduced over `ncols`. Must stay in lockstep with
    /// [`pack_bt_panels`].
    pub(super) fn warm_abt_scratch(ncols: usize, bn: usize) {
        let nr = Width::detect().nr;
        warm_scratch(bn.div_ceil(nr) * nr * ncols);
    }

    /// Grows this thread's panel scratch to `len` floats, so a product's
    /// own growth is a no-op.
    fn warm_scratch(len: usize) {
        PACK_B.with(|pb_cell| {
            scratch(&mut pb_cell.borrow_mut(), len);
        });
    }

    /// `out_rows += alpha * a_rows * b`; AVX twin of
    /// [`super::scalar::mm_acc_rows`].
    pub(super) fn mm_acc_rows(
        w: Width,
        a_rows: &[f32],
        k: usize,
        b: &[f32],
        n: usize,
        out_rows: &mut [f32],
        alpha: f32,
    ) {
        if k == 0 || n == 0 {
            return;
        }
        debug_assert_eq!(a_rows.len() % k, 0);
        debug_assert_eq!(b.len(), k * n);
        let lhs = Lhs {
            a: a_rows,
            rs: k,
            ks: 1,
        };
        gemm_row_major_b(w, lhs, k, b, n, out_rows, alpha);
    }

    /// `out_chunk += alpha * (A^T G)` rows `k0..`; AVX twin of
    /// [`super::scalar::mm_atb_rows`]. Output rows are columns
    /// `k0..` of A, read through strides; G is the right-hand side.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn mm_atb_rows(
        w: Width,
        a: &[f32],
        acols: usize,
        g: &[f32],
        n: usize,
        k0: usize,
        out_chunk: &mut [f32],
        alpha: f32,
    ) {
        if n == 0 || out_chunk.is_empty() {
            return;
        }
        let m = a.len() / acols;
        debug_assert_eq!(g.len(), m * n);
        if m == 0 {
            // The empty sum still takes the store's FMA, as on the scalar
            // backend.
            for o in out_chunk.iter_mut() {
                *o = alpha.mul_add(0.0, *o);
            }
            return;
        }
        let lhs = Lhs {
            a: &a[k0..],
            rs: 1,
            ks: acols,
        };
        gemm_row_major_b(w, lhs, m, g, n, out_chunk, alpha);
    }

    /// `out_rows = a_rows * b^T`; AVX twin of
    /// [`super::scalar::mm_abt_rows`]: `b^T` is packed into panels and the
    /// zeroed output accumulates the product, so every element is the same
    /// ascending-k FMA chain as [`mm_acc_rows`] on an explicit transpose.
    pub(super) fn mm_abt_rows(
        w: Width,
        a_rows: &[f32],
        ncols: usize,
        b: &[f32],
        bn: usize,
        out_rows: &mut [f32],
    ) {
        out_rows.fill(0.0);
        if ncols == 0 || bn == 0 {
            return;
        }
        debug_assert_eq!(b.len(), bn * ncols);
        let lhs = Lhs {
            a: a_rows,
            rs: ncols,
            ks: 1,
        };
        PACK_B.with(|pb_cell| {
            let mut pb = pb_cell.borrow_mut();
            let packed = pack_bt_panels(&mut pb, w.nr, b, ncols, bn);
            let src = Panels {
                b: &[],
                full: 0,
                packed,
            };
            gemm(w, lhs, ncols, src, bn, out_rows, 1.0);
        });
    }

    /// [`gemm`] for a row-major `k x n` B: its full-width panels read where
    /// they lie, a ragged last panel packed into this thread's scratch
    /// first.
    fn gemm_row_major_b(
        w: Width,
        lhs: Lhs<'_>,
        k: usize,
        b: &[f32],
        n: usize,
        out: &mut [f32],
        alpha: f32,
    ) {
        let nr = w.nr;
        let full = n / nr;
        let run = |packed: &[f32], out: &mut [f32]| {
            let src = Panels { b, full, packed };
            gemm(w, lhs, k, src, n, out, alpha);
        };
        if full * nr == n {
            return run(&[], out);
        }
        PACK_B.with(|pb_cell| {
            let mut pb = pb_cell.borrow_mut();
            run(pack_b_panels(&mut pb, nr, b, k, n, full), out);
        });
    }

    /// `out += alpha * A·B` for a row-major `out` of stride `n`: A read
    /// through `lhs`, B's panels from `src`. Rows run in `w.mr`-row
    /// tiles, the remainder as one shorter tile.
    fn gemm(
        w: Width,
        lhs: Lhs<'_>,
        k: usize,
        src: Panels<'_>,
        n: usize,
        out: &mut [f32],
        alpha: f32,
    ) {
        let (mr, nr) = (w.mr, w.nr);
        debug_assert!(k > 0 && n > 0 && out.len().is_multiple_of(n));
        let rows = out.len() / n;
        let mut r0 = 0;
        while r0 < rows {
            let h = mr.min(rows - r0);
            let tile = w.tile(h);
            // The tile reads A and B unchecked, so slice exactly the extents
            // it covers: a short operand panics here instead.
            let start = r0 * lhs.rs;
            let block = Lhs {
                a: &lhs.a[start..start + (h - 1) * lhs.rs + (k - 1) * lhs.ks + 1],
                ..lhs
            };
            let ob = &mut out[r0 * n..(r0 + h) * n];
            for p in 0..n.div_ceil(nr) {
                let (b, off, ks) = if p < src.full {
                    (src.b, p * nr, n)
                } else {
                    (src.packed, (p - src.full) * nr * k, nr)
                };
                let rhs = Rhs {
                    b: &b[off..off + (k - 1) * ks + nr],
                    ks,
                };
                // SAFETY: AVX2+FMA presence is checked by the dispatch
                // wrapper (`AvxFmaBackend` falls back to scalar without
                // it), and AVX-512F by `Width` (only detection makes a
                // 512-bit one); `block` and `rhs` were sliced to hold `h`
                // rows and one panel of `k >= 1` elements at their strides,
                // and `ob` is `h` rows of `n` with `p * nr < n`.
                unsafe { tile(block, rhs, k, ob, n, p * nr, alpha) };
            }
            r0 += h;
        }
    }

    /// The first `len` floats of this thread's scratch `pb`, which only
    /// grows, so resizes stop allocating (or zeroing) after warm-up.
    fn scratch(pb: &mut Vec<f32>, len: usize) -> &mut [f32] {
        if pb.len() < len {
            pb.resize(len, 0.0);
        }
        &mut pb[..len]
    }

    /// Packs panels `from..` of `b` (`k x n`, row-major) into `pb`,
    /// panel-major: each holds `k` rows of `nr` contiguous floats covering
    /// absolute columns `[p*nr, p*nr + nr)`; the ragged one is zero-padded.
    fn pack_b_panels<'a>(
        pb: &'a mut Vec<f32>,
        nr: usize,
        b: &[f32],
        k: usize,
        n: usize,
        from: usize,
    ) -> &'a [f32] {
        let packed = scratch(pb, (n.div_ceil(nr) - from) * nr * k);
        for (p, dst_panel) in packed.chunks_exact_mut(nr * k).enumerate() {
            let c0 = (from + p) * nr;
            let w = nr.min(n - c0);
            for (kk, dst) in dst_panel.chunks_exact_mut(nr).enumerate() {
                dst[..w].copy_from_slice(&b[kk * n + c0..kk * n + c0 + w]);
                dst[w..].fill(0.0);
            }
        }
        packed
    }

    /// [`pack_b_panels`] for all of `b^T`, given `b` (`bn x k`, row-major):
    /// panel `p` holds, for each `kk`, element `kk` of B rows
    /// `[p*nr, p*nr + nr)`.
    fn pack_bt_panels<'a>(
        pb: &'a mut Vec<f32>,
        nr: usize,
        b: &[f32],
        k: usize,
        bn: usize,
    ) -> &'a [f32] {
        let packed = scratch(pb, bn.div_ceil(nr) * nr * k);
        for (p, dst_panel) in packed.chunks_exact_mut(nr * k).enumerate() {
            let w = nr.min(bn - p * nr);
            let rows = &b[p * nr * k..(p * nr + w) * k];
            for (kk, dst) in dst_panel.chunks_exact_mut(nr).enumerate() {
                for (d, row) in dst.iter_mut().zip(rows.chunks_exact(k)) {
                    *d = row[kk];
                }
                dst[w..].fill(0.0);
            }
        }
        packed
    }

    /// Applies `orow[j] = fma(alpha, lane_j, orow[j])` for the `w`
    /// in-bounds lanes of a two-`ymm` accumulator pair. The full-width
    /// path uses vector FMA; the tail extracts lanes and uses scalar
    /// `f32::mul_add` (IEEE fusedMultiplyAdd — bit-identical per lane), so
    /// an element's result does not depend on which path stored it.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available and `orow.len() == w <= 16`.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn store_acc_row(acc0: __m256, acc1: __m256, orow: &mut [f32], w: usize, alpha: f32) {
        debug_assert_eq!(orow.len(), w);
        if w == 16 {
            let alpha_v = _mm256_set1_ps(alpha);
            let p = orow.as_mut_ptr();
            // SAFETY: w == 16, so both 8-lane spans [0, 8) and [8, 16) are
            // in bounds of `orow`.
            unsafe {
                let o0 = _mm256_loadu_ps(p);
                _mm256_storeu_ps(p, _mm256_fmadd_ps(alpha_v, acc0, o0));
                let o1 = _mm256_loadu_ps(p.add(8));
                _mm256_storeu_ps(p.add(8), _mm256_fmadd_ps(alpha_v, acc1, o1));
            }
        } else {
            let mut lanes = [0.0f32; 16];
            // SAFETY: `lanes` is 16 floats, exactly two 8-lane stores.
            unsafe {
                _mm256_storeu_ps(lanes.as_mut_ptr(), acc0);
                _mm256_storeu_ps(lanes.as_mut_ptr().add(8), acc1);
            }
            for (o, &t) in orow.iter_mut().zip(lanes.iter()) {
                *o = alpha.mul_add(t, *o);
            }
        }
    }

    /// [`store_acc_row`] for a two-`zmm` accumulator pair: 32 lanes, the
    /// `orow.len()` in-bounds ones stored.
    ///
    /// # Safety
    /// Caller must ensure AVX-512F is available and `orow.len() <= 32`.
    #[target_feature(enable = "avx512f")]
    unsafe fn store_acc_row512(acc0: __m512, acc1: __m512, orow: &mut [f32], alpha: f32) {
        debug_assert!(orow.len() <= 32);
        if orow.len() == 32 {
            let alpha_v = _mm512_set1_ps(alpha);
            let p = orow.as_mut_ptr();
            // SAFETY: the row is 32 floats, so both 16-lane spans [0, 16)
            // and [16, 32) are in bounds.
            unsafe {
                let o0 = _mm512_loadu_ps(p);
                _mm512_storeu_ps(p, _mm512_fmadd_ps(alpha_v, acc0, o0));
                let o1 = _mm512_loadu_ps(p.add(16));
                _mm512_storeu_ps(p.add(16), _mm512_fmadd_ps(alpha_v, acc1, o1));
            }
        } else {
            let mut lanes = [0.0f32; 32];
            // SAFETY: `lanes` is 32 floats, exactly two 16-lane stores.
            unsafe {
                _mm512_storeu_ps(lanes.as_mut_ptr(), acc0);
                _mm512_storeu_ps(lanes.as_mut_ptr().add(16), acc1);
            }
            for (o, &t) in orow.iter_mut().zip(lanes.iter()) {
                *o = alpha.mul_add(t, *o);
            }
        }
    }

    /// The 256-bit microkernel: `R` rows of A against one 16-column panel
    /// of B over `k` steps, one two-`ymm` accumulator chain per row in
    /// ascending `k`, stored into columns `[c0, c0 + 16)` of `ob` (clipped
    /// to `n`).
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available, `k >= 1`,
    /// `(R - 1) * lhs.rs + (k - 1) * lhs.ks < lhs.a.len()` and
    /// `(k - 1) * rhs.ks + 16 <= rhs.b.len()`. The stores are
    /// bounds-checked (`ob` should hold `R` rows of `n`, and `c0 < n`).
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn tile256<const R: usize>(
        lhs: Lhs<'_>,
        rhs: Rhs<'_>,
        k: usize,
        ob: &mut [f32],
        n: usize,
        c0: usize,
        alpha: f32,
    ) {
        let (Lhs { a, rs, ks }, Rhs { b, ks: bks }) = (lhs, rhs);
        debug_assert!(k > 0 && (R - 1) * rs + (k - 1) * ks < a.len());
        debug_assert!((k - 1) * bks + 16 <= b.len());
        debug_assert!(c0 < n && ob.len() == R * n);
        let mut acc = [[_mm256_setzero_ps(); 2]; R];
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        for kk in 0..k {
            // SAFETY: kk < k, so B's span [kk*bks, kk*bks + 16) and every
            // A offset i*rs + kk*ks (i < R) are in bounds per this fn's
            // contract.
            unsafe {
                let bk = bp.add(kk * bks);
                let b0 = _mm256_loadu_ps(bk);
                let b1 = _mm256_loadu_ps(bk.add(8));
                let ak = ap.add(kk * ks);
                for (i, acc) in acc.iter_mut().enumerate() {
                    let av = _mm256_broadcast_ss(&*ak.add(i * rs));
                    acc[0] = _mm256_fmadd_ps(av, b0, acc[0]);
                    acc[1] = _mm256_fmadd_ps(av, b1, acc[1]);
                }
            }
        }
        let w = 16.min(n - c0);
        for (acc, orow) in acc.iter().zip(ob.chunks_exact_mut(n)) {
            // SAFETY: features are available per this fn's contract and
            // the slice is exactly `w` long.
            unsafe { store_acc_row(acc[0], acc[1], &mut orow[c0..c0 + w], w, alpha) };
        }
    }

    /// The 512-bit microkernel: [`tile256`] with two `zmm` accumulators per
    /// row, so one 32-column panel per call.
    ///
    /// # Safety
    /// Caller must ensure AVX-512F is available, `k >= 1`,
    /// `(R - 1) * lhs.rs + (k - 1) * lhs.ks < lhs.a.len()` and
    /// `(k - 1) * rhs.ks + 32 <= rhs.b.len()`. The stores are
    /// bounds-checked (`ob` should hold `R` rows of `n`, and `c0 < n`).
    #[target_feature(enable = "avx512f")]
    unsafe fn tile512<const R: usize>(
        lhs: Lhs<'_>,
        rhs: Rhs<'_>,
        k: usize,
        ob: &mut [f32],
        n: usize,
        c0: usize,
        alpha: f32,
    ) {
        let (Lhs { a, rs, ks }, Rhs { b, ks: bks }) = (lhs, rhs);
        debug_assert!(k > 0 && (R - 1) * rs + (k - 1) * ks < a.len());
        debug_assert!((k - 1) * bks + 32 <= b.len());
        debug_assert!(c0 < n && ob.len() == R * n);
        let mut acc = [[_mm512_setzero_ps(); 2]; R];
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        for kk in 0..k {
            // SAFETY: kk < k, so B's span [kk*bks, kk*bks + 32) and every
            // A offset i*rs + kk*ks (i < R) are in bounds per this fn's
            // contract.
            unsafe {
                let bk = bp.add(kk * bks);
                let b0 = _mm512_loadu_ps(bk);
                let b1 = _mm512_loadu_ps(bk.add(16));
                let ak = ap.add(kk * ks);
                for (i, acc) in acc.iter_mut().enumerate() {
                    let av = _mm512_set1_ps(*ak.add(i * rs));
                    acc[0] = _mm512_fmadd_ps(av, b0, acc[0]);
                    acc[1] = _mm512_fmadd_ps(av, b1, acc[1]);
                }
            }
        }
        let w = 32.min(n - c0);
        for (acc, orow) in acc.iter().zip(ob.chunks_exact_mut(n)) {
            // SAFETY: features are available per this fn's contract and
            // the slice is `w <= 32` long.
            unsafe { store_acc_row512(acc[0], acc[1], &mut orow[c0..c0 + w], alpha) };
        }
    }

    /// The kernels the microkernel replaced, kept as the bit-exact
    /// reference its tests compare against: the forward's k-major packed
    /// A blocks with a one-row tail, and the weight gradient's packed A
    /// columns over unpacked G. Each takes its scratch as a local instead
    /// of the thread-local.
    #[cfg(test)]
    pub(super) mod reference {
        use super::{pack_b_panels, store_acc_row};
        use core::arch::x86_64::{
            _mm256_broadcast_ss, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps,
            _mm256_setzero_ps, _mm256_storeu_ps,
        };

        /// The replaced kernels' tile: 6 rows x 16 columns.
        const MR: usize = 6;
        const NR: usize = 16;

        /// The replaced `mm_acc_rows`.
        pub(in super::super) fn mm_acc_rows(
            a_rows: &[f32],
            k: usize,
            b: &[f32],
            n: usize,
            out_rows: &mut [f32],
            alpha: f32,
        ) {
            if k == 0 || n == 0 {
                return;
            }
            let mut pb = Vec::new();
            pack_b_panels(&mut pb, NR, b, k, n, 0);
            let mut pa = vec![0.0f32; MR * k];
            let mut a_blocks = a_rows.chunks_exact(MR * k);
            let mut o_blocks = out_rows.chunks_exact_mut(MR * n);
            for (ab, ob) in (&mut a_blocks).zip(&mut o_blocks) {
                pack_a_block(&mut pa, ab, k);
                for (p, panel) in pb.chunks_exact(NR * k).enumerate() {
                    let c0 = p * NR;
                    let w = NR.min(n - c0);
                    // SAFETY: the tests call this only behind the runtime
                    // AVX2+FMA check.
                    unsafe { acc_6xpanel(&pa, k, panel, ob, n, c0, w, alpha) };
                }
            }
            for (ar, or) in a_blocks
                .remainder()
                .chunks_exact(k)
                .zip(o_blocks.into_remainder().chunks_exact_mut(n))
            {
                for (p, panel) in pb.chunks_exact(NR * k).enumerate() {
                    let c0 = p * NR;
                    let w = NR.min(n - c0);
                    // SAFETY: as above.
                    unsafe { acc_1xpanel(ar, panel, or, c0, w, alpha) };
                }
            }
        }

        /// Packs an `MR x k` row block of A k-major: `pa[kk*MR + r] = ab[r*k + kk]`.
        fn pack_a_block(pa: &mut [f32], ab: &[f32], k: usize) {
            for (r, row) in ab.chunks_exact(k).enumerate() {
                for (kk, &v) in row.iter().enumerate() {
                    pa[kk * MR + r] = v;
                }
            }
        }

        /// 6-row x 16-column kernel over one packed B panel.
        ///
        /// # Safety
        /// Caller must ensure AVX2+FMA are available, `pa.len() == MR * k`,
        /// `panel.len() == NR * k`, `ob` holds `MR` rows of stride `n`, and
        /// `c0 + w <= n`.
        #[target_feature(enable = "avx2", enable = "fma")]
        #[allow(clippy::needless_range_loop, clippy::too_many_arguments)]
        unsafe fn acc_6xpanel(
            pa: &[f32],
            k: usize,
            panel: &[f32],
            ob: &mut [f32],
            n: usize,
            c0: usize,
            w: usize,
            alpha: f32,
        ) {
            let mut acc = [[_mm256_setzero_ps(); 2]; MR];
            let pb_ptr = panel.as_ptr();
            for kk in 0..k {
                // SAFETY: kk < k, so panel row [kk*NR, kk*NR + 16) is in
                // bounds of the `NR * k`-float panel.
                let (b0, b1) = unsafe {
                    (
                        _mm256_loadu_ps(pb_ptr.add(kk * NR)),
                        _mm256_loadu_ps(pb_ptr.add(kk * NR + 8)),
                    )
                };
                let pav = &pa[kk * MR..kk * MR + MR];
                for r in 0..MR {
                    let av = _mm256_broadcast_ss(&pav[r]);
                    acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
                    acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
                }
            }
            for (r, orow) in ob.chunks_exact_mut(n).enumerate() {
                // SAFETY: features are available per this fn's contract and
                // the slice is exactly `w` long.
                unsafe { store_acc_row(acc[r][0], acc[r][1], &mut orow[c0..c0 + w], w, alpha) };
            }
        }

        /// One-row tail of [`mm_acc_rows`], A read directly.
        ///
        /// # Safety
        /// Caller must ensure AVX2+FMA are available, `panel.len() == NR *
        /// ar.len()`, and `c0 + w <= or.len()`.
        #[target_feature(enable = "avx2", enable = "fma")]
        unsafe fn acc_1xpanel(
            ar: &[f32],
            panel: &[f32],
            or: &mut [f32],
            c0: usize,
            w: usize,
            alpha: f32,
        ) {
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            let pb_ptr = panel.as_ptr();
            for (kk, x) in ar.iter().enumerate() {
                let av = _mm256_broadcast_ss(x);
                // SAFETY: kk < ar.len(), so panel row [kk*NR, kk*NR + 16) is
                // in bounds.
                let (b0, b1) = unsafe {
                    (
                        _mm256_loadu_ps(pb_ptr.add(kk * NR)),
                        _mm256_loadu_ps(pb_ptr.add(kk * NR + 8)),
                    )
                };
                acc0 = _mm256_fmadd_ps(av, b0, acc0);
                acc1 = _mm256_fmadd_ps(av, b1, acc1);
            }
            // SAFETY: features available per this fn's contract; slice is `w`
            // long.
            unsafe { store_acc_row(acc0, acc1, &mut or[c0..c0 + w], w, alpha) };
        }

        /// The replaced `mm_atb_rows`.
        pub(in super::super) fn mm_atb_rows(
            a: &[f32],
            acols: usize,
            g: &[f32],
            n: usize,
            k0: usize,
            out_chunk: &mut [f32],
            alpha: f32,
        ) {
            if n == 0 {
                return;
            }
            let m = a.len() / acols.max(1);
            let mut pa = vec![0.0f32; m * MR];
            let mut col = k0;
            let mut o_blocks = out_chunk.chunks_exact_mut(MR * n);
            for ob in &mut o_blocks {
                for (r, dst) in pa.chunks_exact_mut(MR).enumerate() {
                    dst.copy_from_slice(&a[r * acols + col..r * acols + col + MR]);
                }
                // SAFETY: the tests call this only behind the runtime
                // AVX2+FMA check.
                unsafe { atb_6(&pa, m, g, n, ob, alpha) };
                col += MR;
            }
            for or in o_blocks.into_remainder().chunks_exact_mut(n) {
                // SAFETY: as above.
                unsafe { atb_1(a, acols, col, g, n, or, alpha) };
                col += 1;
            }
        }

        /// 6-output-row kernel of [`mm_atb_rows`]: 16-wide panels, then
        /// one 8-wide panel, then a scalar `mul_add` tail.
        ///
        /// # Safety
        /// Caller must ensure AVX2+FMA are available, `pa.len() == m * MR`,
        /// `g.len() == m * n`, and `ob.len() == MR * n`.
        #[target_feature(enable = "avx2", enable = "fma")]
        #[allow(clippy::needless_range_loop)]
        unsafe fn atb_6(pa: &[f32], m: usize, g: &[f32], n: usize, ob: &mut [f32], alpha: f32) {
            let g_ptr = g.as_ptr();
            let mut c = 0;
            while c + NR <= n {
                let mut acc = [[_mm256_setzero_ps(); 2]; MR];
                for r in 0..m {
                    // SAFETY: r < m and c + 16 <= n, so both 8-lane spans of
                    // G row r are in bounds of the `m * n`-float `g`.
                    let (g0, g1) = unsafe {
                        (
                            _mm256_loadu_ps(g_ptr.add(r * n + c)),
                            _mm256_loadu_ps(g_ptr.add(r * n + c + 8)),
                        )
                    };
                    let pav = &pa[r * MR..r * MR + MR];
                    for i in 0..MR {
                        let av = _mm256_broadcast_ss(&pav[i]);
                        acc[i][0] = _mm256_fmadd_ps(av, g0, acc[i][0]);
                        acc[i][1] = _mm256_fmadd_ps(av, g1, acc[i][1]);
                    }
                }
                for (i, orow) in ob.chunks_exact_mut(n).enumerate() {
                    // SAFETY: features available per this fn's contract; the
                    // slice is exactly NR long.
                    unsafe { store_acc_row(acc[i][0], acc[i][1], &mut orow[c..c + NR], NR, alpha) };
                }
                c += NR;
            }
            if c + 8 <= n {
                let mut acc = [_mm256_setzero_ps(); MR];
                for r in 0..m {
                    // SAFETY: c + 8 <= n, so the 8-lane span of G row r is in
                    // bounds.
                    let g0 = unsafe { _mm256_loadu_ps(g_ptr.add(r * n + c)) };
                    let pav = &pa[r * MR..r * MR + MR];
                    for i in 0..MR {
                        acc[i] = _mm256_fmadd_ps(_mm256_broadcast_ss(&pav[i]), g0, acc[i]);
                    }
                }
                let alpha_v = _mm256_set1_ps(alpha);
                for (i, orow) in ob.chunks_exact_mut(n).enumerate() {
                    let p = orow[c..c + 8].as_mut_ptr();
                    // SAFETY: the 8-lane span [c, c + 8) is in bounds.
                    unsafe {
                        let o0 = _mm256_loadu_ps(p);
                        _mm256_storeu_ps(p, _mm256_fmadd_ps(alpha_v, acc[i], o0));
                    }
                }
                c += 8;
            }
            while c < n {
                for (i, orow) in ob.chunks_exact_mut(n).enumerate() {
                    let mut t = 0.0f32;
                    for r in 0..m {
                        t = pa[r * MR + i].mul_add(g[r * n + c], t);
                    }
                    orow[c] = alpha.mul_add(t, orow[c]);
                }
                c += 1;
            }
        }

        /// One-output-row tail of [`mm_atb_rows`], A column `col` read
        /// strided.
        ///
        /// # Safety
        /// Caller must ensure AVX2+FMA are available, `col < acols`,
        /// `g.len() == (a.len() / acols) * n`, and `or.len() == n`.
        #[target_feature(enable = "avx2", enable = "fma")]
        unsafe fn atb_1(
            a: &[f32],
            acols: usize,
            col: usize,
            g: &[f32],
            n: usize,
            or: &mut [f32],
            alpha: f32,
        ) {
            let m = a.len() / acols.max(1);
            let g_ptr = g.as_ptr();
            let mut c = 0;
            while c + NR <= n {
                let mut acc0 = _mm256_setzero_ps();
                let mut acc1 = _mm256_setzero_ps();
                for r in 0..m {
                    let av = _mm256_broadcast_ss(&a[r * acols + col]);
                    // SAFETY: r < m and c + 16 <= n — both 8-lane spans in
                    // bounds of `g`.
                    let (g0, g1) = unsafe {
                        (
                            _mm256_loadu_ps(g_ptr.add(r * n + c)),
                            _mm256_loadu_ps(g_ptr.add(r * n + c + 8)),
                        )
                    };
                    acc0 = _mm256_fmadd_ps(av, g0, acc0);
                    acc1 = _mm256_fmadd_ps(av, g1, acc1);
                }
                // SAFETY: features available per this fn's contract; slice
                // is NR long.
                unsafe { store_acc_row(acc0, acc1, &mut or[c..c + NR], NR, alpha) };
                c += NR;
            }
            if c + 8 <= n {
                let mut acc0 = _mm256_setzero_ps();
                for r in 0..m {
                    let av = _mm256_broadcast_ss(&a[r * acols + col]);
                    // SAFETY: c + 8 <= n — the 8-lane span is in bounds.
                    let g0 = unsafe { _mm256_loadu_ps(g_ptr.add(r * n + c)) };
                    acc0 = _mm256_fmadd_ps(av, g0, acc0);
                }
                let alpha_v = _mm256_set1_ps(alpha);
                let p = or[c..c + 8].as_mut_ptr();
                // SAFETY: the 8-lane span [c, c + 8) is in bounds.
                unsafe {
                    let o0 = _mm256_loadu_ps(p);
                    _mm256_storeu_ps(p, _mm256_fmadd_ps(alpha_v, acc0, o0));
                }
                c += 8;
            }
            while c < n {
                let mut t = 0.0f32;
                for r in 0..m {
                    t = a[r * acols + col].mul_add(g[r * n + c], t);
                }
                or[c] = alpha.mul_add(t, or[c]);
                c += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn salted(rows: usize, cols: usize, salt: u64) -> Vec<f32> {
        (0..rows * cols)
            .map(|i| {
                let x = (i * 131 % 977) as f32 * 0.0137 + salt as f32 * 0.11;
                (x.sin() * 1.7) + (x * 0.31).cos() * 0.4
            })
            .collect()
    }

    fn rel_close(x: f32, y: f32, tol: f32) -> bool {
        (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0)
    }

    /// [`salted`] values with exact `-0.0`/`+0.0` scattered through and a
    /// NaN, `+Inf` and `-Inf` in rows 1, 3 and 4 when those rows exist.
    fn with_specials(rows: usize, cols: usize, salt: u64) -> Vec<f32> {
        let mut v = salted(rows, cols, salt);
        for (i, x) in v.iter_mut().enumerate() {
            match (i as u64 * 7 + salt) % 11 {
                0 => *x = -0.0,
                1 => *x = 0.0,
                _ => {}
            }
        }
        for (r, special) in [(1, f32::NAN), (3, f32::INFINITY), (4, f32::NEG_INFINITY)] {
            if r < rows {
                v[r * cols + (r * 5 + salt as usize) % cols] = special;
            }
        }
        v
    }

    /// Shapes of the bit-exactness tests: `m` covers every remainder of
    /// the 6- and 12-row tiles, `k` runs from one step to many cache lines,
    /// and `n` sits on and around the 8-, 16- and 32-lane edges.
    const BIT_MAX_M: usize = 25;
    const BIT_KS: [usize; 4] = [1, 7, 64, 420];
    const BIT_NS: [usize; 11] = [1, 7, 8, 15, 16, 17, 31, 32, 33, 64, 65];

    fn assert_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len());
        for (i, (x, y)) in got.iter().zip(want).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what} at {i}: {x} vs {y}");
        }
    }

    /// Runs `f(first_row, out_chunk)` over a copy of `seed` (`n` columns)
    /// in one chunk, and over another copy in 7-row chunks; returns both.
    #[cfg(target_arch = "x86_64")]
    fn whole_and_chunked(
        seed: &[f32],
        n: usize,
        mut f: impl FnMut(usize, &mut [f32]),
    ) -> [(Vec<f32>, &'static str); 2] {
        [(seed.len() / n, "whole"), (7, "7-row chunks")].map(|(chunk_rows, how)| {
            let mut out = seed.to_vec();
            for (c, chunk) in out.chunks_mut(chunk_rows * n).enumerate() {
                f(c * chunk_rows, chunk);
            }
            (out, how)
        })
    }

    /// Every tile width this host runs: the 256-bit one, and the 512-bit
    /// one where the host has AVX-512F. Says so when it has not, since the
    /// bit tests then cover only the 256-bit tile.
    #[cfg(target_arch = "x86_64")]
    fn tile_widths(test: &str) -> Vec<avx::Width> {
        let wide = avx::Width::wide();
        if wide.is_none() {
            eprintln!("{test}: no avx512f, so the 512-bit tile was not checked");
        }
        [Some(avx::Width::NARROW), wide]
            .into_iter()
            .flatten()
            .collect()
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn backend_avx_forward_matches_reference_kernel_bits() {
        if !Backend::AvxFma.is_supported() {
            return;
        }
        let widths = tile_widths("backend_avx_forward_matches_reference_kernel_bits");
        for k in BIT_KS {
            let a_all = with_specials(BIT_MAX_M, k, 1);
            for n in BIT_NS {
                let b = with_specials(k, n, 2);
                let seed_all = with_specials(BIT_MAX_M, n, 3);
                for m in 1..=BIT_MAX_M {
                    let a = &a_all[..m * k];
                    let seed = &seed_all[..m * n];
                    for alpha in [1.0, 0.5] {
                        let mut want = seed.to_vec();
                        avx::reference::mm_acc_rows(a, k, &b, n, &mut want, alpha);
                        for &w in &widths {
                            for (got, how) in whole_and_chunked(seed, n, |r0, out| {
                                let a_rows = &a[r0 * k..(r0 + out.len() / n) * k];
                                avx::mm_acc_rows(w, a_rows, k, &b, n, out, alpha);
                            }) {
                                let what = format!("mm_acc {m}x{k}x{n} alpha {alpha} {w:?} {how}");
                                assert_bits(&got, &want, &what);
                            }
                        }
                    }
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn backend_avx_weight_grad_matches_reference_kernel_bits() {
        if !Backend::AvxFma.is_supported() {
            return;
        }
        let widths = tile_widths("backend_avx_weight_grad_matches_reference_kernel_bits");
        for k in BIT_KS {
            for m in 1..=BIT_MAX_M {
                // A is `rows x acols`: `acols` output rows reduced over `rows`.
                for (rows, acols) in [(m, k), (k, m)] {
                    let a = with_specials(rows, acols, 4);
                    for n in BIT_NS {
                        let g = with_specials(rows, n, 5);
                        let seed = with_specials(acols, n, 6);
                        for alpha in [1.0, 0.5] {
                            let mut want = seed.clone();
                            avx::reference::mm_atb_rows(&a, acols, &g, n, 0, &mut want, alpha);
                            // In 7-row chunks, k0 > 0 runs too.
                            for &w in &widths {
                                for (got, how) in whole_and_chunked(&seed, n, |k0, out| {
                                    avx::mm_atb_rows(w, &a, acols, &g, n, k0, out, alpha);
                                }) {
                                    let what = format!(
                                        "mm_atb {rows}x{acols}x{n} alpha {alpha} {w:?} {how}"
                                    );
                                    assert_bits(&got, &want, &what);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn backend_avx_abt_equals_acc_on_explicit_transpose() {
        if !Backend::AvxFma.is_supported() {
            return;
        }
        let widths = tile_widths("backend_avx_abt_equals_acc_on_explicit_transpose");
        for k in BIT_KS {
            let a_all = with_specials(BIT_MAX_M, k, 7);
            for n in BIT_NS {
                let b = with_specials(n, k, 8);
                let bt: Vec<f32> = (0..k * n).map(|i| b[(i % n) * k + i / n]).collect();
                for m in 1..=BIT_MAX_M {
                    let a = &a_all[..m * k];
                    let mut want = vec![0.0f32; m * n];
                    avx::reference::mm_acc_rows(a, k, &bt, n, &mut want, 1.0);
                    for &w in &widths {
                        for (got, how) in whole_and_chunked(&vec![f32::NAN; m * n], n, |r0, out| {
                            let a_rows = &a[r0 * k..(r0 + out.len() / n) * k];
                            avx::mm_abt_rows(w, a_rows, k, &b, n, out);
                        }) {
                            assert_bits(&got, &want, &format!("mm_abt {m}x{k}x{n} {w:?} {how}"));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn backend_names_round_trip() {
        for b in [Backend::Scalar, Backend::AvxFma] {
            assert_eq!(Backend::parse(b.name()), Some(b));
            assert_eq!(Backend::from_tag(b.tag()), Some(b));
        }
        assert_eq!(Backend::parse("sse"), None);
        assert_eq!(Backend::from_tag(7), None);
        assert!(Backend::Scalar.is_supported());
    }

    #[test]
    fn avx_backend_matches_scalar_within_tolerance() {
        let (m, k, n) = (13, 41, 29);
        let a = salted(m, k, 1);
        let b = salted(k, n, 2);
        for kern in [kernel_for(Backend::Scalar), kernel_for(Backend::AvxFma)] {
            let mut acc = vec![0.25f32; m * n];
            kern.mm_acc_rows(&a, k, &b, n, &mut acc, 0.5);
            let mut refer = vec![0.25f32; m * n];
            ScalarBackend.mm_acc_rows(&a, k, &b, n, &mut refer, 0.5);
            for (x, y) in acc.iter().zip(refer.iter()) {
                assert!(rel_close(*x, *y, 1e-4), "{x} vs {y} ({})", kern.name());
            }
        }
    }

    #[test]
    fn avx_mm_acc_is_invariant_under_row_regrouping() {
        if !Backend::AvxFma.is_supported() {
            return;
        }
        let kern = kernel_for(Backend::AvxFma);
        let (m, k, n) = (23, 37, 19);
        let a = salted(m, k, 3);
        let b = salted(k, n, 4);
        let mut full = vec![0.0f32; m * n];
        kern.mm_acc_rows(&a, k, &b, n, &mut full, 1.0);
        for split in [1usize, 5, 7, 11] {
            let mut parts = vec![0.0f32; m * n];
            let mut r0 = 0;
            while r0 < m {
                let rows = split.min(m - r0);
                kern.mm_acc_rows(
                    &a[r0 * k..(r0 + rows) * k],
                    k,
                    &b,
                    n,
                    &mut parts[r0 * n..(r0 + rows) * n],
                    1.0,
                );
                r0 += rows;
            }
            assert_eq!(
                full.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                parts.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "split {split} changed bits"
            );
        }
    }
}
