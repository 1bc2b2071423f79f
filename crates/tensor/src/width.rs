//! Row widths that row loops are compiled for.
//!
//! A loop over a row of floats runs at a width the compiler sees
//! ([`Fixed`]) or at the width read at run time ([`Runtime`]). At a
//! constant width a row is a fixed number of vector registers: a row copy
//! is a few vector moves with no loop and no `memcpy` call, and a row
//! operand can sit in a local array, where the compiler keeps it in
//! registers because nothing else can write it. Each row kernel is one
//! generic fn over a [`Width`], and [`by_width!`](crate::by_width) picks
//! the width once per call, so every width runs the same source.
//!
//! The operand methods ([`Width::load`], [`Width::store`],
//! [`Width::update`], [`Width::dot`]) move no bit: a local copy holds the
//! row's values, every element gets the operations the in-place loop gives
//! it, and `dot` adds its terms in ascending order either way.

/// A row width: a constant the compiler sees ([`Fixed`]) or a width read
/// at run time ([`Runtime`]).
pub trait Width: Copy + Send + Sync {
    /// A row operand as a kernel reads it: a copy in a local array at a
    /// constant width, the row itself at a runtime one.
    type Row<'a>: AsRef<[f32]> + Copy;

    /// Floats per row.
    fn get(self) -> usize;

    /// The first [`get`](Self::get) floats of `src`.
    ///
    /// # Panics
    /// Panics if `src` is shorter than the width.
    fn load(self, src: &[f32]) -> Self::Row<'_>;

    /// Runs `f` on the first [`get`](Self::get) floats of `dst`, which it
    /// must write in full: at a constant width into a local array stored
    /// to `dst` once, at a runtime width in place.
    fn store(self, dst: &mut [f32], f: impl FnOnce(&mut [f32]));

    /// Runs `f` on the first [`get`](Self::get) floats of `dst`: at a
    /// constant width on a local copy stored back once, at a runtime width
    /// in place.
    fn update(self, dst: &mut [f32], f: impl FnOnce(&mut [f32]));

    /// `acc + term(0) + term(1) + ...`, over the width's columns in
    /// ascending order. At a constant width the terms are formed into a
    /// local array before the first add, so they compute as vectors while
    /// the chain keeps its order.
    fn dot(self, acc: f32, term: impl Fn(usize) -> f32) -> f32;
}

/// A width known at compile time.
#[derive(Debug, Clone, Copy)]
pub struct Fixed<const N: usize>;

impl<const N: usize> Width for Fixed<N> {
    type Row<'a> = [f32; N];

    #[inline(always)]
    fn get(self) -> usize {
        N
    }

    #[inline(always)]
    fn load(self, src: &[f32]) -> [f32; N] {
        let mut row = [0.0; N];
        row.copy_from_slice(&src[..N]);
        row
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32], f: impl FnOnce(&mut [f32])) {
        let mut row = [0.0; N];
        f(&mut row);
        dst[..N].copy_from_slice(&row);
    }

    #[inline(always)]
    fn update(self, dst: &mut [f32], f: impl FnOnce(&mut [f32])) {
        let dst = &mut dst[..N];
        let mut row = self.load(dst);
        f(&mut row);
        dst.copy_from_slice(&row);
    }

    #[inline(always)]
    fn dot(self, mut acc: f32, term: impl Fn(usize) -> f32) -> f32 {
        let mut terms = [0.0; N];
        for (c, t) in terms.iter_mut().enumerate() {
            *t = term(c);
        }
        for t in terms {
            acc += t;
        }
        acc
    }
}

/// Any other width, read at run time.
#[derive(Debug, Clone, Copy)]
pub struct Runtime(pub usize);

impl Width for Runtime {
    type Row<'a> = &'a [f32];

    #[inline(always)]
    fn get(self) -> usize {
        self.0
    }

    #[inline(always)]
    fn load(self, src: &[f32]) -> &[f32] {
        &src[..self.0]
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32], f: impl FnOnce(&mut [f32])) {
        f(&mut dst[..self.0]);
    }

    #[inline(always)]
    fn update(self, dst: &mut [f32], f: impl FnOnce(&mut [f32])) {
        f(&mut dst[..self.0]);
    }

    #[inline(always)]
    fn dot(self, mut acc: f32, term: impl Fn(usize) -> f32) -> f32 {
        for c in 0..self.0 {
            acc += term(c);
        }
        acc
    }
}

/// Evaluates a body with widths bound as [`Width`]s, picked once:
///
/// - `by_width!(dim, w => body)` binds `w` to [`Fixed`] for `dim` 4, 8
///   and 16 (embedding rows), and to [`Runtime`] for any other `dim`;
/// - `by_width!((s1, s2), (w1, w2) => body)` binds `(w1, w2)` to
///   [`Fixed`] widths for `(s1, s2)` = (16, 8) and (16, 4), the original
///   and cross embedding widths the default configurations use, and to
///   [`Runtime`] widths for any other pair.
///
/// `body` is one generic expression, so every width runs the same source.
#[macro_export]
macro_rules! by_width {
    (($s1:expr, $s2:expr), ($w1:ident, $w2:ident) => $body:expr) => {
        match ($s1, $s2) {
            (16, 8) => {
                let ($w1, $w2) = ($crate::width::Fixed::<16>, $crate::width::Fixed::<8>);
                $body
            }
            (16, 4) => {
                let ($w1, $w2) = ($crate::width::Fixed::<16>, $crate::width::Fixed::<4>);
                $body
            }
            (s1, s2) => {
                let ($w1, $w2) = ($crate::width::Runtime(s1), $crate::width::Runtime(s2));
                $body
            }
        }
    };
    ($dim:expr, $w:ident => $body:expr) => {
        match $dim {
            4 => {
                let $w = $crate::width::Fixed::<4>;
                $body
            }
            8 => {
                let $w = $crate::width::Fixed::<8>;
                $body
            }
            16 => {
                let $w = $crate::width::Fixed::<16>;
                $body
            }
            dim => {
                let $w = $crate::width::Runtime(dim);
                $body
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every operand method, at a constant width and at the same width read
    /// at run time, on the same row: equal bits.
    #[test]
    fn fixed_and_runtime_widths_agree() {
        fn run<W: Width>(w: W) -> (Vec<f32>, Vec<f32>, f32) {
            let src: Vec<f32> = (0..20).map(|k| k as f32 * 0.37 - 2.0).collect();
            let a = w.load(&src);
            let a = a.as_ref();
            let mut stored = vec![f32::NAN; 20];
            w.store(&mut stored, |d| {
                for (d, &x) in d.iter_mut().zip(a) {
                    *d = x * 3.0;
                }
            });
            let mut updated = src.clone();
            w.update(&mut updated[2..], |d| {
                for (d, &x) in d.iter_mut().zip(a) {
                    *d += x;
                }
            });
            let dot = w.dot(0.5, |c| a[c] * 1.1);
            (stored, updated, dot)
        }
        let pairs = [
            (run(Fixed::<4>), run(Runtime(4))),
            (run(Fixed::<8>), run(Runtime(8))),
            (run(Fixed::<16>), run(Runtime(16))),
        ];
        for ((fs, fu, fd), (rs, ru, rd)) in pairs {
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fs), bits(&rs));
            assert_eq!(bits(&fu), bits(&ru));
            assert_eq!(fd.to_bits(), rd.to_bits());
        }
        let mut chain = 0.5f32;
        for c in 0..8 {
            chain += (c as f32 * 0.37 - 2.0) * 1.1;
        }
        assert_eq!(run(Fixed::<8>).2.to_bits(), chain.to_bits());
    }
}
