//! The dense-layer matmul kernels: one GEMM driver over three register
//! tiles, with one numeric contract.
//!
//! The three products ([`Matrix::matmul_accumulate_pooled`],
//! [`Matrix::matmul_at_b_accumulate_pooled`] and
//! [`Matrix::matmul_a_bt_into_pooled`]) call `mm_acc_rows`, `mm_atb_rows`
//! and `mm_abt_rows` on blocks of output rows. One driver runs all three: it
//! reads A in place through a (row, k) stride pair and B one panel at a
//! time through a k-stride, so the products differ only in their strides
//! and in what they pack (see `gemm`). It feeds one `Tile`:
//!
//! * the safe tile, 4 rows x 16 columns of `f32::mul_add`, for the
//!   `scalar` backend. It reads a ragged last panel of B where it lies.
//! * the AVX tiles, over `core::arch::x86_64` intrinsics with two
//!   accumulators per row, for the `avx2fma` backend: 12 rows x 32 columns
//!   in `zmm` registers where the host has AVX-512F, else 6 x 16 in `ymm`.
//!   They load whole panels, so a ragged last panel is first copied into
//!   zero-padded scratch. This is the only module in the workspace besides
//!   the pool/embedding arenas allowed to contain `unsafe` (lint rule
//!   `unsafe-confinement`), and every site carries a SAFETY comment.
//!
//! **One numeric contract.** Every output element is one chain:
//! `acc = fma(a, b, acc)` over ascending k from +0, then stored once as
//! `out = fma(alpha, acc, out)` (an empty sum stores `fma(alpha, +0, out)`).
//! `f32::mul_add` is the IEEE fusedMultiplyAdd, the operation of one
//! vector FMA lane, and panels are addressed by absolute column, so no
//! tile, tile height, register width, row split or thread count changes an
//! element's bits. Both backends therefore give the bits of
//! [`crate::reference`], which spells the chain out naively and is the
//! oracle every tile is tested against. See DESIGN.md §13.
//!
//! [`Matrix::matmul_accumulate_pooled`]: crate::Matrix::matmul_accumulate_pooled
//! [`Matrix::matmul_at_b_accumulate_pooled`]: crate::Matrix::matmul_at_b_accumulate_pooled
//! [`Matrix::matmul_a_bt_into_pooled`]: crate::Matrix::matmul_a_bt_into_pooled
//!
//! **Backend selection.** [`active`] resolves once per process: the
//! `OPTINTER_KERNEL_BACKEND={scalar,avx2fma}` env var wins if set and
//! supported, otherwise runtime feature detection
//! (`is_x86_feature_detected!("avx2")` + `"fma"`) picks `avx2fma` when the
//! host supports it and `scalar` otherwise. The choice is logged to stderr
//! once, with the AVX tile's width (`avx2fma, 512-bit tile`), which
//! `is_x86_feature_detected!("avx512f")` alone picks. Since every tile
//! gives the same bits, the backend picks only a speed.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel implementation the process dispatches to. Both give the
/// same bits (module doc); they differ only in speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The safe `f32::mul_add` tile.
    Scalar,
    /// The AVX2 + FMA intrinsic tiles, 512-bit where the host has
    /// AVX-512F.
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
                        Tile::of(b).log_note()
                    );
                }
            }
        }
    }
}

/// Forces the process-wide backend (perf's `--backend`, tests). Returns
/// the previously active backend (or `b` itself if none had been resolved
/// yet), so callers can restore it. It changes no bits, so a concurrent
/// call cannot change another thread's results.
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
        Tile::of(b).log_note()
    );
    backend_from_code(prev).unwrap_or(b)
}

// ---------------------------------------------------------------------------
// Tiles.
// ---------------------------------------------------------------------------

/// The register tile a product runs on: its instructions, rows per full
/// tile (`mr`) and columns per panel (`nr`). Only [`Tile::avx256`] and
/// [`Tile::avx512`] make an AVX tile, each behind its CPU check, so an AVX
/// tile never runs on a host without its features; the field privacy keeps
/// other modules to those constructors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Tile {
    isa: Isa,
    mr: usize,
    nr: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Isa {
    /// [`scalar_tile`].
    Scalar,
    /// [`avx::tile256`].
    #[cfg(target_arch = "x86_64")]
    Avx256,
    /// [`avx::tile512`].
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// A tile kernel: `h` rows of A against one panel of B, stored into the
/// panel's columns of `h` output rows (see [`scalar_tile`]).
///
/// # Safety
/// Calls must meet [`avx::tile256`]'s or [`avx::tile512`]'s contract;
/// [`scalar_tile`] has none.
type TileFn = unsafe fn(Lhs<'_>, Rhs<'_>, usize, &mut [f32], usize, usize, f32);

impl Tile {
    /// The safe tile: 4 rows x 16 columns, eight accumulator vectors once
    /// the 16 lanes vectorize.
    const SCALAR: Tile = Tile {
        isa: Isa::Scalar,
        mr: 4,
        nr: 16,
    };

    /// The tile of the [`active`] backend.
    pub(crate) fn active() -> Tile {
        Tile::of(active())
    }

    /// The tile `b` runs on this host: the safe one for `scalar`, the
    /// widest AVX one for `avx2fma` (the safe one where AVX2 + FMA are
    /// missing, so a wrong forced backend degrades instead of failing).
    fn of(b: Backend) -> Tile {
        match b {
            Backend::Scalar => Tile::SCALAR,
            Backend::AvxFma => Tile::avx512().or_else(Tile::avx256).unwrap_or(Tile::SCALAR),
        }
    }

    /// The 256-bit tile, 6 x 16 in `ymm`, if this host has AVX2 + FMA.
    fn avx256() -> Option<Tile> {
        #[cfg(target_arch = "x86_64")]
        if avx_fma_detected() {
            return Some(Tile {
                isa: Isa::Avx256,
                mr: 6,
                nr: 16,
            });
        }
        None
    }

    /// The 512-bit tile, 12 x 32 in `zmm`, if this host also has
    /// AVX-512F.
    fn avx512() -> Option<Tile> {
        #[cfg(target_arch = "x86_64")]
        if avx_fma_detected() && std::arch::is_x86_feature_detected!("avx512f") {
            return Some(Tile {
                isa: Isa::Avx512,
                mr: 12,
                nr: 32,
            });
        }
        None
    }

    /// Every tile this host runs. Says so on stderr when it lacks the
    /// 512-bit one, since a bit test then covers only the others.
    #[cfg(test)]
    pub(crate) fn all(test: &str) -> Vec<Tile> {
        let wide = Tile::avx512();
        if wide.is_none() {
            eprintln!("{test}: no avx512f, so the 512-bit tile was not checked");
        }
        [Some(Tile::SCALAR), Tile::avx256(), wide]
            .into_iter()
            .flatten()
            .collect()
    }

    /// Suffix for the backend log line.
    fn log_note(self) -> &'static str {
        match self.isa {
            Isa::Scalar => "",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx256 => ", 256-bit tile",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => ", 512-bit tile",
        }
    }

    /// Whether the tile loads only whole `nr`-wide panels. The AVX tiles
    /// do, so a ragged last panel of B is copied into zero-padded scratch
    /// for them; the safe tile reads one where it lies.
    fn whole_panels_only(self) -> bool {
        self.isa != Isa::Scalar
    }

    /// How many of the `n.div_ceil(nr)` panels of a row-major B with `n`
    /// columns this tile reads in place.
    fn in_place_panels(self, n: usize) -> usize {
        if self.whole_panels_only() {
            n / self.nr
        } else {
            n.div_ceil(self.nr)
        }
    }

    /// The `h`-row kernel, `1 <= h <= self.mr`.
    fn kernel(self, h: usize) -> TileFn {
        match (self.isa, h) {
            (Isa::Scalar, 1) => scalar_tile::<1>,
            (Isa::Scalar, 2) => scalar_tile::<2>,
            (Isa::Scalar, 3) => scalar_tile::<3>,
            (Isa::Scalar, _) => scalar_tile::<4>,
            #[cfg(target_arch = "x86_64")]
            (Isa::Avx256, h) => match h {
                1 => avx::tile256::<1>,
                2 => avx::tile256::<2>,
                3 => avx::tile256::<3>,
                4 => avx::tile256::<4>,
                5 => avx::tile256::<5>,
                _ => avx::tile256::<6>,
            },
            #[cfg(target_arch = "x86_64")]
            (Isa::Avx512, h) => match h {
                1 => avx::tile512::<1>,
                2 => avx::tile512::<2>,
                3 => avx::tile512::<3>,
                4 => avx::tile512::<4>,
                5 => avx::tile512::<5>,
                6 => avx::tile512::<6>,
                7 => avx::tile512::<7>,
                8 => avx::tile512::<8>,
                9 => avx::tile512::<9>,
                10 => avx::tile512::<10>,
                11 => avx::tile512::<11>,
                _ => avx::tile512::<12>,
            },
        }
    }
}

// ---------------------------------------------------------------------------
// The driver, shared by every tile.
//
// Geometry: output rows in blocks of the tile's `mr`, output columns in
// panels of its `nr`. The rows left after the last full block run as one
// shorter tile of the same kernel.
//
// The tile reads A in place through a (row, k) stride pair and one
// `nr`-column panel of B through a k-stride. The products differ only in
// their strides and in which panels of B are copied first:
//   * `x·W` (`mm_acc_rows`): A is x (row stride k, k stride 1); W's
//     panels are read where they lie, at k-stride n.
//   * `xᵀ·g` (`mm_atb_rows`): A is x's columns (row stride 1, k stride
//     acols); g's panels are read in place, at k-stride n.
//   * `g·Wᵀ` (`mm_abt_rows`): A is g (row stride ncols, k stride 1); Wᵀ is
//     packed by `pack_bt_panels`, and the zeroed output accumulates with
//     alpha = 1.
// On an AVX tile a ragged last panel of `x·W` and `xᵀ·g` is copied too.
// Copies go into panel-major scratch: panel `p` holds `k` rows of `nr`
// contiguous floats for absolute output columns `[p*nr, p*nr + nr)`, the
// ragged one zero-padded (pad lanes are computed but never stored). The
// scratch is one thread-local buffer that only grows, so steady-state
// allocations stay at zero.
// ---------------------------------------------------------------------------

thread_local! {
    // Panel scratch: grown via `resize` to the per-thread working-set
    // maximum and never shrunk, so steady-state train steps and serve
    // requests never touch the heap (the counting allocator test covers
    // this; pool worker threads are persistent). Growth must be
    // *deterministic* to honor that: pool job assignment is dynamic, so a
    // worker that sat out every call of a shape during a caller's warm-up
    // would otherwise first grow its scratch at an arbitrary later win —
    // which is why every pooled matmul warms every thread via
    // `Pool::for_row_chunks_prepared` + the `warm_*_scratch` fns below.
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

/// Grows this thread's panel scratch to what `x·W` or `xᵀ·g` with
/// reduction length `k` and `n` output columns packs on tile `t`: the
/// ragged last panel on an AVX tile, nothing on the safe one. Pooled
/// matmuls pass this to
/// [`Pool::for_row_chunks_prepared`](crate::Pool::for_row_chunks_prepared)
/// so every worker's scratch grows on first sight of a shape — not at the
/// scheduling-dependent moment that worker first wins a chunk (which could
/// land inside a caller's zero-allocation window).
pub(crate) fn warm_acc_scratch(t: Tile, k: usize, n: usize) {
    warm_scratch((n.div_ceil(t.nr) - t.in_place_panels(n)) * t.nr * k);
}

/// [`warm_acc_scratch`] for `g·Wᵀ`, which packs all of `Wᵀ`: `bn` columns
/// reduced over `ncols`. Must stay in lockstep with [`pack_bt_panels`].
pub(crate) fn warm_abt_scratch(t: Tile, ncols: usize, bn: usize) {
    warm_scratch(bn.div_ceil(t.nr) * t.nr * ncols);
}

/// Grows this thread's panel scratch to `len` floats, so a product's
/// own growth is a no-op.
fn warm_scratch(len: usize) {
    PACK_B.with(|pb_cell| {
        scratch(&mut pb_cell.borrow_mut(), len);
    });
}

/// `out_rows += alpha * a_rows * b` on tile `t`, for a contiguous block of
/// output rows: `a_rows` is the matching row block of `A` (`rows x k`),
/// `b` the full `k x n` right-hand side, `out_rows` the `rows x n` block.
pub(crate) fn mm_acc_rows(
    t: Tile,
    a_rows: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    out_rows: &mut [f32],
    alpha: f32,
) {
    if n == 0 {
        return;
    }
    if k == 0 {
        return empty_sums(out_rows, alpha);
    }
    debug_assert_eq!(a_rows.len() % k, 0);
    debug_assert_eq!(b.len(), k * n);
    let lhs = Lhs {
        a: a_rows,
        rs: k,
        ks: 1,
    };
    gemm_row_major_b(t, lhs, k, b, n, out_rows, alpha);
}

/// `out_chunk += alpha * (A^T G)` rows `k0..` on tile `t`, for
/// `A: m x acols` and `G: m x n`: `out_chunk` is a contiguous block of
/// `A^T G` output rows starting at row `k0` (i.e. column `k0` of `A`),
/// read through strides; G is the right-hand side.
#[allow(clippy::too_many_arguments)]
pub(crate) fn mm_atb_rows(
    t: Tile,
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
        return empty_sums(out_chunk, alpha);
    }
    let lhs = Lhs {
        a: &a[k0..],
        rs: 1,
        ks: acols,
    };
    gemm_row_major_b(t, lhs, m, g, n, out_chunk, alpha);
}

/// `out_rows = a_rows * b^T` on tile `t`, for a contiguous block of output
/// rows: `a_rows` is `rows x ncols`, `b` is `bn x ncols`, `out_rows` is
/// `rows x bn`. `b^T` is packed into panels and the zeroed output
/// accumulates the product, so every element is the same chain as
/// [`mm_acc_rows`] on an explicit transpose.
pub(crate) fn mm_abt_rows(
    t: Tile,
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
        let packed = pack_bt_panels(&mut pb, t.nr, b, ncols, bn);
        let src = Panels {
            b: &[],
            full: 0,
            packed,
        };
        gemm(t, lhs, ncols, src, bn, out_rows, 1.0);
    });
}

/// The chain of an empty sum, `fma(alpha, +0, out)`, for every element.
fn empty_sums(out: &mut [f32], alpha: f32) {
    for o in out.iter_mut() {
        *o = alpha.mul_add(0.0, *o);
    }
}

/// [`gemm`] for a row-major `k x n` B: the panels `t` reads in place
/// where they lie, the rest (an AVX tile's ragged last panel) packed into
/// this thread's scratch first.
fn gemm_row_major_b(
    t: Tile,
    lhs: Lhs<'_>,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    alpha: f32,
) {
    let full = t.in_place_panels(n);
    if full == n.div_ceil(t.nr) {
        let src = Panels {
            b,
            full,
            packed: &[],
        };
        return gemm(t, lhs, k, src, n, out, alpha);
    }
    PACK_B.with(|pb_cell| {
        let mut pb = pb_cell.borrow_mut();
        let packed = pack_b_panels(&mut pb, t.nr, b, k, n, full);
        gemm(t, lhs, k, Panels { b, full, packed }, n, out, alpha);
    });
}

/// `out += alpha * A·B` on tile `t` for a row-major `out` of stride `n`:
/// A read through `lhs`, B's panels from `src`. Rows run in `t.mr`-row
/// tiles, the remainder as one shorter tile.
fn gemm(t: Tile, lhs: Lhs<'_>, k: usize, src: Panels<'_>, n: usize, out: &mut [f32], alpha: f32) {
    let (mr, nr) = (t.mr, t.nr);
    debug_assert!(k > 0 && n > 0 && out.len().is_multiple_of(n));
    let rows = out.len() / n;
    let mut r0 = 0;
    while r0 < rows {
        let h = mr.min(rows - r0);
        let kernel = t.kernel(h);
        // The AVX tiles read A and B unchecked, so slice exactly the
        // extents a tile covers: a short operand panics here instead.
        let start = r0 * lhs.rs;
        let block = Lhs {
            a: &lhs.a[start..start + (h - 1) * lhs.rs + (k - 1) * lhs.ks + 1],
            ..lhs
        };
        let ob = &mut out[r0 * n..(r0 + h) * n];
        for p in 0..n.div_ceil(nr) {
            let c0 = p * nr;
            let (b, off, ks) = if p < src.full {
                (src.b, c0, n)
            } else {
                (src.packed, (p - src.full) * nr * k, nr)
            };
            // Only the safe tile takes a ragged panel, and reads only its
            // `n - c0` columns.
            let span = if t.whole_panels_only() {
                nr
            } else {
                nr.min(n - c0)
            };
            let rhs = Rhs {
                b: &b[off..off + (k - 1) * ks + span],
                ks,
            };
            // SAFETY: `kernel` is the safe tile, or an AVX tile that only
            // exists where detection found its features (`Tile::avx256`,
            // `Tile::avx512`); `block` and `rhs` were sliced to hold `h`
            // rows and one panel of `k >= 1` elements at their strides,
            // `nr` wide for an AVX tile, and `ob` is `h` rows of `n` with
            // `c0 < n`.
            unsafe { kernel(block, rhs, k, ob, n, c0, alpha) };
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

/// Lanes of the safe tile's panel.
const SCALAR_NR: usize = Tile::SCALAR.nr;

/// The safe tile: `R` rows of A against one panel of B over `k >= 1`
/// steps, one `f32::mul_add` chain per element in ascending `k` from +0,
/// stored once as `fma(alpha, acc, out)` into columns `[c0, c0 + w)` of
/// `ob` (`R` rows of `n`), `w = min(16, n - c0)`. A ragged panel
/// (`w < 16`) is read where it lies, one column at a time.
fn scalar_tile<const R: usize>(
    lhs: Lhs<'_>,
    rhs: Rhs<'_>,
    k: usize,
    ob: &mut [f32],
    n: usize,
    c0: usize,
    alpha: f32,
) {
    let w = SCALAR_NR.min(n - c0);
    if w == SCALAR_NR {
        let acc = scalar_chains::<R, SCALAR_NR>(lhs, rhs, k);
        return scalar_store(&acc, ob, n, c0, alpha);
    }
    for j in 0..w {
        let col = Rhs {
            b: &rhs.b[j..],
            ..rhs
        };
        scalar_store(&scalar_chains::<R, 1>(lhs, col, k), ob, n, c0 + j, alpha);
    }
}

/// The accumulators of [`scalar_tile`] for `L` adjacent columns: lane
/// `j` of row `i` chains `fma(a(i, kk), b(kk, j), acc)` over ascending
/// `kk` from +0. `R` and `L` are constants, so the accumulators stay in
/// registers and the 16 lanes of a whole panel vectorize.
#[inline(always)]
fn scalar_chains<const R: usize, const L: usize>(
    lhs: Lhs<'_>,
    rhs: Rhs<'_>,
    k: usize,
) -> [[f32; L]; R] {
    let mut acc = [[0.0f32; L]; R];
    for kk in 0..k {
        let brow = &rhs.b[kk * rhs.ks..kk * rhs.ks + L];
        for (i, acc) in acc.iter_mut().enumerate() {
            let av = lhs.a[i * lhs.rs + kk * lhs.ks];
            for (acc, &bv) in acc.iter_mut().zip(brow) {
                *acc = av.mul_add(bv, *acc);
            }
        }
    }
    acc
}

/// Stores [`scalar_chains`]' accumulators into columns `[c0, c0 + L)` of
/// `R` rows of `ob` (row stride `n`) as `fma(alpha, acc, out)`.
#[inline(always)]
fn scalar_store<const R: usize, const L: usize>(
    acc: &[[f32; L]; R],
    ob: &mut [f32],
    n: usize,
    c0: usize,
    alpha: f32,
) {
    for (acc, orow) in acc.iter().zip(ob.chunks_exact_mut(n)) {
        for (o, &t) in orow[c0..c0 + L].iter_mut().zip(acc) {
            *o = alpha.mul_add(t, *o);
        }
    }
}

// ---------------------------------------------------------------------------
// The AVX tiles: one FMA microkernel per register width.
//
// With AVX-512F the tile is 12 rows x 32 columns in `zmm`: 24 accumulators,
// 2 B loads and 1 broadcast use 27 of the 32 registers. Without it the tile
// is 6 x 16 in `ymm`: 12 + 2 + 1 of 16. Either saturates both FMA ports.
// Ragged panels store through scalar `f32::mul_add`, which is bit-identical
// to a vector FMA lane.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx {
    use super::{Lhs, Rhs};
    use core::arch::x86_64::{
        __m256, __m512, _mm256_broadcast_ss, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps,
        _mm256_setzero_ps, _mm256_storeu_ps, _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_set1_ps,
        _mm512_setzero_ps, _mm512_storeu_ps,
    };

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
    pub(super) unsafe fn tile256<const R: usize>(
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
    pub(super) unsafe fn tile512<const R: usize>(
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reference, Matrix};

    fn salted(rows: usize, cols: usize, salt: u64) -> Vec<f32> {
        (0..rows * cols)
            .map(|i| {
                let x = (i * 131 % 977) as f32 * 0.0137 + salt as f32 * 0.11;
                (x.sin() * 1.7) + (x * 0.31).cos() * 0.4
            })
            .collect()
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
    /// the 4-, 6- and 12-row tiles, `k` runs from one step to many cache
    /// lines, and `n` sits on and around the 8-, 16- and 32-lane edges.
    const BIT_MAX_M: usize = 25;
    const BIT_KS: [usize; 4] = [1, 7, 64, 420];
    const BIT_NS: [usize; 11] = [1, 7, 8, 15, 16, 17, 31, 32, 33, 64, 65];

    fn assert_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len());
        for (i, (x, y)) in got.iter().zip(want).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what} at {i}: {x} vs {y}");
        }
    }

    fn matrix(rows: usize, cols: usize, data: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, data.to_vec())
    }

    /// Runs `f(first_row, out_chunk)` over a copy of `seed` (`n` columns)
    /// in one chunk, and over another copy in 7-row chunks; returns both.
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

    #[test]
    fn backend_forward_matches_reference_bits() {
        let tiles = Tile::all("backend_forward_matches_reference_bits");
        for k in BIT_KS {
            let a_all = with_specials(BIT_MAX_M, k, 1);
            for n in BIT_NS {
                let b = with_specials(k, n, 2);
                let seed_all = with_specials(BIT_MAX_M, n, 3);
                for m in 1..=BIT_MAX_M {
                    let a = &a_all[..m * k];
                    let seed = &seed_all[..m * n];
                    for alpha in [1.0, 0.5] {
                        let mut want = matrix(m, n, seed);
                        reference::matmul_accumulate(
                            &matrix(m, k, a),
                            &matrix(k, n, &b),
                            &mut want,
                            alpha,
                        );
                        for &t in &tiles {
                            for (got, how) in whole_and_chunked(seed, n, |r0, out| {
                                let a_rows = &a[r0 * k..(r0 + out.len() / n) * k];
                                mm_acc_rows(t, a_rows, k, &b, n, out, alpha);
                            }) {
                                let what = format!("mm_acc {m}x{k}x{n} alpha {alpha} {t:?} {how}");
                                assert_bits(&got, want.as_slice(), &what);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn backend_weight_grad_matches_reference_bits() {
        let tiles = Tile::all("backend_weight_grad_matches_reference_bits");
        for k in BIT_KS {
            for m in 1..=BIT_MAX_M {
                // A is `rows x acols`: `acols` output rows reduced over `rows`.
                for (rows, acols) in [(m, k), (k, m)] {
                    let a = with_specials(rows, acols, 4);
                    for n in BIT_NS {
                        let g = with_specials(rows, n, 5);
                        let seed = with_specials(acols, n, 6);
                        for alpha in [1.0, 0.5] {
                            let mut want = matrix(acols, n, &seed);
                            reference::matmul_at_b_accumulate(
                                &matrix(rows, acols, &a),
                                &matrix(rows, n, &g),
                                &mut want,
                                alpha,
                            );
                            // In 7-row chunks, k0 > 0 runs too.
                            for &t in &tiles {
                                for (got, how) in whole_and_chunked(&seed, n, |k0, out| {
                                    mm_atb_rows(t, &a, acols, &g, n, k0, out, alpha);
                                }) {
                                    let what = format!(
                                        "mm_atb {rows}x{acols}x{n} alpha {alpha} {t:?} {how}"
                                    );
                                    assert_bits(&got, want.as_slice(), &what);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn backend_input_grad_matches_reference_bits() {
        let tiles = Tile::all("backend_input_grad_matches_reference_bits");
        for k in BIT_KS {
            let a_all = with_specials(BIT_MAX_M, k, 7);
            for n in BIT_NS {
                let b = with_specials(n, k, 8);
                for m in 1..=BIT_MAX_M {
                    let a = &a_all[..m * k];
                    let mut want = Matrix::zeros(m, n);
                    reference::matmul_a_bt_into(&matrix(m, k, a), &matrix(n, k, &b), &mut want);
                    for &t in &tiles {
                        // The product overwrites: seed the output with NaN.
                        for (got, how) in whole_and_chunked(&vec![f32::NAN; m * n], n, |r0, out| {
                            let a_rows = &a[r0 * k..(r0 + out.len() / n) * k];
                            mm_abt_rows(t, a_rows, k, &b, n, out);
                        }) {
                            let what = format!("mm_abt {m}x{k}x{n} {t:?} {how}");
                            assert_bits(&got, want.as_slice(), &what);
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
}
