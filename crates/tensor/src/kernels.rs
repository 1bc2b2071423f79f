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
//!   `core::arch::x86_64` AVX2 + FMA intrinsics (up to 6 rows x 16
//!   columns, two `ymm` accumulators per row) that reads A in place
//!   through strides and B from zero-padded 16-wide panels; the three
//!   products differ only in their strides and in how B is packed. This
//!   is the only module in the workspace besides the pool/embedding
//!   arenas allowed to contain `unsafe` (lint rule `unsafe-confinement`),
//!   and every site carries a SAFETY comment.
//!
//! **Backend selection.** [`active`] resolves once per process: the
//! `OPTINTER_KERNEL_BACKEND={scalar,avx2fma}` env var wins if set and
//! supported, otherwise runtime feature detection
//! (`is_x86_feature_detected!("avx2")` + `"fma"`) picks `avx2fma` when the
//! host supports it and `scalar` otherwise. The choice is logged to stderr
//! once. CLI `--backend` flags call [`set_active`] before any matmul runs.
//!
//! **Determinism contract (per backend).** Every output element is
//! produced by exactly one accumulator chain that walks the reduction
//! dimension in ascending order and is combined with the output exactly
//! once; the remainder kernels replay the *same* per-element chain. An
//! element's value therefore does not depend on which block shape computed
//! it, so each backend is invariant under any row regrouping: serial,
//! pooled with any chunk split, and any thread count produce bit-identical
//! results. The chains differ in one place between the backends: the
//! scalar `a·bᵀ` splits each dot product into 16 lanes reduced by a fixed
//! tree, while the AVX `a·bᵀ` is the same ascending-k FMA chain as its
//! other two products. What is *not* promised is bitwise equality
//! *across* backends: the AVX backend contracts multiply-add pairs into
//! fused FMAs (one rounding instead of two), so it agrees with
//! `ScalarBackend` and `tensor::reference` only to relative tolerance.
//! See DESIGN.md §13.

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
    /// [`mm_atb_rows`](Self::mm_atb_rows) with `k` = the shared row count
    /// of A and G, [`mm_abt_rows`](Self::mm_abt_rows) with `k = ncols` and
    /// `n = bn`. Pooled matmuls pass this to
    /// [`Pool::for_row_chunks_prepared`](crate::Pool::for_row_chunks_prepared)
    /// so every worker's scratch grows on first sight of a shape — not at
    /// the scheduling-dependent moment that worker first wins a chunk
    /// (which could land inside a caller's zero-allocation window).
    /// Backends without scratch keep the default no-op.
    fn warm_acc_scratch(&self, _k: usize, _n: usize) {}
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
                    eprintln!("[optinter-tensor] kernel backend: {}", b.name());
                }
            }
        }
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
    eprintln!("[optinter-tensor] kernel backend: {} (forced)", b.name());
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
// AVX2 + FMA backend: one R x 16 FMA microkernel over packed panels.
// ---------------------------------------------------------------------------

/// Packed-panel AVX2 + FMA kernels. Selectable only when the host passes
/// the runtime feature check ([`Backend::is_supported`]); on other
/// architectures (or if a caller constructs it anyway on a host without
/// AVX2) every method falls back to the scalar kernels, so the type is
/// safe to instantiate unconditionally.
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
            return avx::mm_acc_rows(a_rows, k, b, n, out_rows, alpha);
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
            return avx::mm_atb_rows(a, acols, g, n, k0, out_chunk, alpha);
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
            return avx::mm_abt_rows(a_rows, ncols, b, bn, out_rows);
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
}

// One microkernel for all three products.
//
// Geometry: output rows in blocks of `MR = 6`, output columns in panels of
// `NR = 16` (two 8-lane `ymm` accumulators per row: 12 accumulator
// registers, leaving 4 of the 16 `ymm` for the two loaded B lanes and the
// broadcast multiplier — and saturating both FMA ports at 2 fused ops per
// cycle per row-pair). The rows left after the last full block run as one
// shorter tile of the same kernel.
//
// The kernel reads A in place through a (row, k) stride pair and B from
// panel-major scratch: panel `p` holds `k` rows of `NR` contiguous floats
// for absolute output columns `[p*NR, p*NR + NR)`, the tail panel
// zero-padded (pad lanes are computed but never stored). The products
// differ only in strides and packing:
//   * `x·W` (`mm_acc_rows`): A is x (row stride k, k stride 1); W is packed
//     by `pack_b_panels`.
//   * `xᵀ·g` (`mm_atb_rows`): A is x's columns (row stride 1, k stride
//     acols); g is packed by `pack_b_panels`.
//   * `g·Wᵀ` (`mm_abt_rows`): A is g (row stride ncols, k stride 1); Wᵀ is
//     packed by `pack_bt_panels`, and the zeroed output accumulates with
//     alpha = 1.
// The panel scratch is one thread-local buffer, so steady-state
// allocations stay at zero.
//
// Determinism: per output element one accumulator chain in ascending `k`
// (vector FMA lanes), stored once as `fma(alpha, acc, out)`. Column panels
// are addressed by *absolute* column index and each row's accumulators are
// independent, so pooled row regrouping and the tile height can change
// neither the panel an element falls in nor its chain. Ragged panels
// store through scalar `f32::mul_add`, which is the IEEE fusedMultiplyAdd —
// bit-identical to a vector FMA lane. See DESIGN.md §13.
#[cfg(target_arch = "x86_64")]
mod avx {
    use core::arch::x86_64::{
        __m256, _mm256_broadcast_ss, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps,
        _mm256_setzero_ps, _mm256_storeu_ps,
    };
    use std::cell::RefCell;

    /// Output-row block height of the microkernel.
    const MR: usize = 6;
    /// Output-column panel width (two 8-lane `ymm` registers).
    const NR: usize = 16;

    thread_local! {
        // Panel scratch: grown via `resize` to the per-thread working-set
        // maximum and reused afterwards, so steady-state train steps and
        // serve requests never touch the heap (the counting allocator test
        // covers this; pool worker threads are persistent). Growth must be
        // *deterministic* to honor that: pool job assignment is dynamic, so
        // a worker that sat out every call of a shape during a caller's
        // warm-up would otherwise first grow its scratch at an arbitrary
        // later win — which is why every pooled matmul warms every thread
        // via `Pool::for_row_chunks_prepared` + `warm_acc_scratch` below.
        static PACK_B: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    }

    /// The left operand, read in place: element `(i, kk)` lives at
    /// `a[i * rs + kk * ks]`.
    #[derive(Clone, Copy)]
    struct Lhs<'a> {
        a: &'a [f32],
        rs: usize,
        ks: usize,
    }

    /// The microkernel's signature, so [`gemm`] picks a tile height once
    /// per row block.
    ///
    /// # Safety
    /// Calls must meet [`tile`]'s contract.
    type Tile = unsafe fn(Lhs<'_>, &[f32], &mut [f32], usize, usize, f32);

    /// Grows this thread's panel scratch to what a product with reduction
    /// length `k` and `n` output columns will `resize` it to, so the later
    /// resize is capacity-neutral. Sizes must stay in lockstep with
    /// [`pack_b_panels`] and [`pack_bt_panels`].
    pub(super) fn warm_acc_scratch(k: usize, n: usize) {
        if k == 0 || n == 0 {
            return;
        }
        PACK_B.with(|pb_cell| pb_cell.borrow_mut().resize(n.div_ceil(NR) * NR * k, 0.0));
    }

    /// `out_rows += alpha * a_rows * b`; AVX twin of
    /// [`super::scalar::mm_acc_rows`].
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
        let lhs = Lhs {
            a: a_rows,
            rs: k,
            ks: 1,
        };
        packed_gemm(|pb| pack_b_panels(pb, b, k, n), lhs, k, n, out_rows, alpha);
    }

    /// `out_chunk += alpha * (A^T G)` rows `k0..`; AVX twin of
    /// [`super::scalar::mm_atb_rows`]. Output rows are columns
    /// `k0..` of A, read through strides; G is the packed operand.
    pub(super) fn mm_atb_rows(
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
        packed_gemm(|pb| pack_b_panels(pb, g, m, n), lhs, m, n, out_chunk, alpha);
    }

    /// `out_rows = a_rows * b^T`; AVX twin of
    /// [`super::scalar::mm_abt_rows`]: `b^T` is packed into panels and the
    /// zeroed output accumulates the product, so every element is the same
    /// ascending-k FMA chain as [`mm_acc_rows`] on an explicit transpose.
    pub(super) fn mm_abt_rows(
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
        packed_gemm(
            |pb| pack_bt_panels(pb, b, ncols, bn),
            lhs,
            ncols,
            bn,
            out_rows,
            1.0,
        );
    }

    /// Packs B into this thread's panel scratch with `pack`, then runs
    /// [`gemm`] over it.
    fn packed_gemm(
        pack: impl FnOnce(&mut Vec<f32>),
        lhs: Lhs<'_>,
        k: usize,
        n: usize,
        out: &mut [f32],
        alpha: f32,
    ) {
        PACK_B.with(|pb_cell| {
            let mut pb = pb_cell.borrow_mut();
            pack(&mut pb);
            gemm(lhs, k, &pb, n, out, alpha);
        });
    }

    /// `out += alpha * A·B` for a row-major `out` of stride `n`: A read
    /// through `lhs`, B from `pb`'s panels of `k` rows. Rows run in
    /// `MR`-row tiles, the remainder as one shorter tile.
    fn gemm(lhs: Lhs<'_>, k: usize, pb: &[f32], n: usize, out: &mut [f32], alpha: f32) {
        debug_assert!(k > 0 && pb.len() == n.div_ceil(NR) * NR * k);
        debug_assert_eq!(out.len() % n, 0);
        let rows = out.len() / n;
        let mut r0 = 0;
        while r0 < rows {
            let h = MR.min(rows - r0);
            let tile: Tile = match h {
                1 => tile::<1>,
                2 => tile::<2>,
                3 => tile::<3>,
                4 => tile::<4>,
                5 => tile::<5>,
                _ => tile::<MR>,
            };
            // The tile reads A unchecked, so slice exactly the extent it
            // covers: a short operand panics here instead.
            let start = r0 * lhs.rs;
            let block = Lhs {
                a: &lhs.a[start..start + (h - 1) * lhs.rs + (k - 1) * lhs.ks + 1],
                ..lhs
            };
            let ob = &mut out[r0 * n..(r0 + h) * n];
            for (p, panel) in pb.chunks_exact(NR * k).enumerate() {
                // SAFETY: AVX2+FMA presence is checked by the dispatch
                // wrapper (`AvxFmaBackend` falls back to scalar without
                // it); `block` was sliced to hold `h` rows of `k` elements
                // at its strides, `panel` is `NR * k` floats with `k >= 1`,
                // and `ob` is `h` rows of `n`.
                unsafe { tile(block, panel, ob, n, p * NR, alpha) };
            }
            r0 += h;
        }
    }

    /// Packs `b` (`k x n`, row-major) into panel-major layout: panel `p`
    /// holds `k` rows of `NR` contiguous floats covering absolute columns
    /// `[p*NR, p*NR + NR)`; the tail panel is zero-padded.
    fn pack_b_panels(pb: &mut Vec<f32>, b: &[f32], k: usize, n: usize) {
        pb.resize(n.div_ceil(NR) * NR * k, 0.0);
        for (p, dst_panel) in pb.chunks_exact_mut(NR * k).enumerate() {
            let c0 = p * NR;
            let w = NR.min(n - c0);
            for (kk, dst) in dst_panel.chunks_exact_mut(NR).enumerate() {
                dst[..w].copy_from_slice(&b[kk * n + c0..kk * n + c0 + w]);
                dst[w..].fill(0.0);
            }
        }
    }

    /// [`pack_b_panels`] for `b^T`, given `b` (`bn x k`, row-major): panel
    /// `p` holds, for each `kk`, element `kk` of B rows `[p*NR, p*NR + NR)`.
    fn pack_bt_panels(pb: &mut Vec<f32>, b: &[f32], k: usize, bn: usize) {
        pb.resize(bn.div_ceil(NR) * NR * k, 0.0);
        for (p, dst_panel) in pb.chunks_exact_mut(NR * k).enumerate() {
            let w = NR.min(bn - p * NR);
            let rows = &b[p * NR * k..(p * NR + w) * k];
            for (kk, dst) in dst_panel.chunks_exact_mut(NR).enumerate() {
                for (d, row) in dst.iter_mut().zip(rows.chunks_exact(k)) {
                    *d = row[kk];
                }
                dst[w..].fill(0.0);
            }
        }
    }

    /// Applies `orow[j] = fma(alpha, lane_j, orow[j])` for the `w`
    /// in-bounds lanes of a two-`ymm` accumulator pair. The full-width
    /// path uses vector FMA; the tail extracts lanes and uses scalar
    /// `f32::mul_add` (IEEE fusedMultiplyAdd — bit-identical per lane), so
    /// an element's result does not depend on which path stored it.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available and `orow.len() == w <= NR`.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn store_acc_row(acc0: __m256, acc1: __m256, orow: &mut [f32], w: usize, alpha: f32) {
        debug_assert_eq!(orow.len(), w);
        if w == NR {
            let alpha_v = _mm256_set1_ps(alpha);
            let p = orow.as_mut_ptr();
            // SAFETY: w == NR == 16, so both 8-lane spans [0, 8) and
            // [8, 16) are in bounds of `orow`.
            unsafe {
                let o0 = _mm256_loadu_ps(p);
                _mm256_storeu_ps(p, _mm256_fmadd_ps(alpha_v, acc0, o0));
                let o1 = _mm256_loadu_ps(p.add(8));
                _mm256_storeu_ps(p.add(8), _mm256_fmadd_ps(alpha_v, acc1, o1));
            }
        } else {
            let mut lanes = [0.0f32; NR];
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

    /// The microkernel: `R` rows of A against one packed panel of
    /// `k = panel.len() / NR` rows, one two-`ymm` accumulator chain per row
    /// in ascending `k`, stored into columns `[c0, c0 + NR)` of `ob`
    /// (clipped to `n`).
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available, `panel.len() == NR * k`
    /// with `k >= 1`, and `(R - 1) * lhs.rs + (k - 1) * lhs.ks <
    /// lhs.a.len()`. The stores are bounds-checked (`ob` should hold `R`
    /// rows of `n`, and `c0 < n`).
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn tile<const R: usize>(
        lhs: Lhs<'_>,
        panel: &[f32],
        ob: &mut [f32],
        n: usize,
        c0: usize,
        alpha: f32,
    ) {
        let k = panel.len() / NR;
        let Lhs { a, rs, ks } = lhs;
        debug_assert!(k > 0 && panel.len() == NR * k);
        debug_assert!((R - 1) * rs + (k - 1) * ks < a.len());
        debug_assert!(c0 < n && ob.len() == R * n);
        let mut acc = [[_mm256_setzero_ps(); 2]; R];
        let (ap, bp) = (a.as_ptr(), panel.as_ptr());
        for kk in 0..k {
            // SAFETY: kk < k, so panel row [kk*NR, kk*NR + 16) is in bounds
            // of the `NR * k`-float panel, and every A offset
            // i*rs + kk*ks (i < R) is at most (R-1)*rs + (k-1)*ks, in
            // bounds per this fn's contract.
            unsafe {
                let b0 = _mm256_loadu_ps(bp.add(kk * NR));
                let b1 = _mm256_loadu_ps(bp.add(kk * NR + 8));
                let ak = ap.add(kk * ks);
                for (i, acc) in acc.iter_mut().enumerate() {
                    let av = _mm256_broadcast_ss(&*ak.add(i * rs));
                    acc[0] = _mm256_fmadd_ps(av, b0, acc[0]);
                    acc[1] = _mm256_fmadd_ps(av, b1, acc[1]);
                }
            }
        }
        let w = NR.min(n - c0);
        for (acc, orow) in acc.iter().zip(ob.chunks_exact_mut(n)) {
            // SAFETY: features are available per this fn's contract and
            // the slice is exactly `w` long.
            unsafe { store_acc_row(acc[0], acc[1], &mut orow[c0..c0 + w], w, alpha) };
        }
    }

    /// The kernels the microkernel replaced, kept as the bit-exact
    /// reference its tests compare against: the forward's k-major packed
    /// A blocks with a one-row tail, and the weight gradient's packed A
    /// columns over unpacked G. Each takes its scratch as a local instead
    /// of the thread-local.
    #[cfg(test)]
    pub(super) mod reference {
        use super::{pack_b_panels, store_acc_row, MR, NR};
        use core::arch::x86_64::{
            _mm256_broadcast_ss, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps,
            _mm256_setzero_ps, _mm256_storeu_ps,
        };

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
            pack_b_panels(&mut pb, b, k, n);
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
    /// the 6-row tile, `k` runs from one step to many cache lines, and `n`
    /// sits on and around the 8- and 16-lane edges.
    const BIT_MAX_M: usize = 13;
    const BIT_KS: [usize; 4] = [1, 7, 64, 420];
    const BIT_NS: [usize; 8] = [1, 7, 8, 15, 16, 17, 33, 64];

    fn assert_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len());
        for (i, (x, y)) in got.iter().zip(want).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what} at {i}: {x} vs {y}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn backend_avx_forward_matches_reference_kernel_bits() {
        if !Backend::AvxFma.is_supported() {
            return;
        }
        let kern = kernel_for(Backend::AvxFma);
        for k in BIT_KS {
            let a_all = with_specials(BIT_MAX_M, k, 1);
            for n in BIT_NS {
                let b = with_specials(k, n, 2);
                let seed_all = with_specials(BIT_MAX_M, n, 3);
                for m in 1..=BIT_MAX_M {
                    let a = &a_all[..m * k];
                    for alpha in [1.0, 0.5] {
                        let mut want = seed_all[..m * n].to_vec();
                        avx::reference::mm_acc_rows(a, k, &b, n, &mut want, alpha);
                        let mut got = seed_all[..m * n].to_vec();
                        kern.mm_acc_rows(a, k, &b, n, &mut got, alpha);
                        assert_bits(&got, &want, &format!("mm_acc {m}x{k}x{n} alpha {alpha}"));
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
        let kern = kernel_for(Backend::AvxFma);
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
                            // Whole, and in 7-row chunks so k0 > 0 runs too.
                            for chunk_rows in [acols, 7] {
                                let mut got = seed.clone();
                                for (c, chunk) in got.chunks_mut(chunk_rows * n).enumerate() {
                                    kern.mm_atb_rows(
                                        &a,
                                        acols,
                                        &g,
                                        n,
                                        c * chunk_rows,
                                        chunk,
                                        alpha,
                                    );
                                }
                                let what = format!(
                                    "mm_atb {rows}x{acols}x{n} alpha {alpha} chunks of {chunk_rows}"
                                );
                                assert_bits(&got, &want, &what);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn backend_avx_abt_equals_acc_on_explicit_transpose() {
        if !Backend::AvxFma.is_supported() {
            return;
        }
        let kern = kernel_for(Backend::AvxFma);
        for k in BIT_KS {
            let a_all = with_specials(BIT_MAX_M, k, 7);
            for n in BIT_NS {
                let b = with_specials(n, k, 8);
                let bt: Vec<f32> = (0..k * n).map(|i| b[(i % n) * k + i / n]).collect();
                for m in 1..=BIT_MAX_M {
                    let a = &a_all[..m * k];
                    let mut want = vec![0.0f32; m * n];
                    kern.mm_acc_rows(a, k, &bt, n, &mut want, 1.0);
                    let mut got = vec![f32::NAN; m * n];
                    kern.mm_abt_rows(a, k, &b, n, &mut got);
                    assert_bits(&got, &want, &format!("mm_abt {m}x{k}x{n}"));
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
