//! Zipf-distributed categorical value sampling.
//!
//! Real CTR logs have heavily skewed value frequencies — a few head values
//! dominate, with a long tail of rare values. We model each field's value
//! distribution as Zipf with exponent `s`, sampled by inverse-CDF search.
//!
//! A sampler keeps the normalized CDF of its first `HEAD` values, where
//! nearly all draws land, and past them only the unnormalized running sum
//! at the end of each `BLOCK`-value block. A draw past the head finds its
//! block by those marks and re-adds the block's terms in order from the
//! previous mark, so every CDF value it compares has the bits a table of
//! all `n` values would hold (DESIGN.md §9).

use rand::Rng;
use std::ops::Range;

/// Values whose normalized CDF a sampler keeps: 2¹⁶ of them take 512 KiB.
const HEAD: u32 = 1 << 16;

/// Values per block past the head, between two running-sum marks.
const BLOCK: u32 = 64;

/// A Zipf(`s`) sampler over `{0, 1, ..., n-1}` where value `v` has
/// probability proportional to `1 / (v + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// The CDF of the first `min(n, HEAD)` values.
    head: Vec<f64>,
    /// Past the head: the running sum at the head's last value, then at
    /// the last value of each block, the last block ending at `n - 1`.
    /// Empty when `n <= HEAD`.
    marks: Vec<f64>,
    /// The running sum over the whole support.
    total: f64,
    n: u32,
    s: f64,
}

/// Value `v`'s unnormalized mass.
#[inline]
fn term(v: u32, s: f64) -> f64 {
    1.0 / ((v + 1) as f64).powf(s)
}

/// `acc` plus the terms of `values`, added in order.
fn add_terms(mut acc: f64, values: Range<u32>, s: f64) -> f64 {
    for v in values {
        acc += term(v, s);
    }
    acc
}

/// One running sum of the terms over `0..len`, kept at every head value and
/// at the end of each full block past it. Every support up to `len` reads
/// its partial sums and total from these same additions.
struct RunningSum {
    head: Vec<f64>,
    /// At the head's last value, then at each full block's last value.
    marks: Vec<f64>,
    len: u32,
    s: f64,
}

impl RunningSum {
    fn new(len: u32, s: f64) -> Self {
        assert!(s >= 0.0, "Zipf exponent must be non-negative");
        let mut head = Vec::with_capacity(len.min(HEAD) as usize);
        let mut acc = 0.0f64;
        for v in 0..len.min(HEAD) {
            acc += term(v, s);
            head.push(acc);
        }
        let mut marks = Vec::new();
        if len > HEAD {
            let blocks = (len - HEAD) / BLOCK;
            marks.reserve_exact(blocks as usize + 1);
            marks.push(acc);
            for b in 0..blocks {
                let start = HEAD + b * BLOCK;
                acc = add_terms(acc, start..start + BLOCK, s);
                marks.push(acc);
            }
        }
        Self {
            head,
            marks,
            len,
            s,
        }
    }

    /// The sampler over the first `n` values.
    fn zipf(&self, n: u32) -> Zipf {
        assert!(n > 0, "Zipf over empty support");
        assert!(
            n <= self.len,
            "support {n} past the running sum's {}",
            self.len
        );
        let (marks, total) = if n <= HEAD {
            (Vec::new(), self.head[n as usize - 1])
        } else {
            let full = ((n - HEAD) / BLOCK) as usize;
            let mut marks = Vec::with_capacity(full + 2);
            marks.extend_from_slice(&self.marks[..=full]);
            let start = HEAD + full as u32 * BLOCK;
            if start < n {
                marks.push(add_terms(marks[full], start..n, self.s));
            }
            let total = marks[marks.len() - 1];
            (marks, total)
        };
        // The last value's entry is `total / total`, exactly 1.
        let head = self.head[..n.min(HEAD) as usize]
            .iter()
            .map(|&acc| acc / total)
            .collect();
        Zipf {
            head,
            marks,
            total,
            n,
            s: self.s,
        }
    }
}

impl Zipf {
    /// Builds the sampler. `s = 0` gives the uniform distribution.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s < 0`.
    pub fn new(n: u32, s: f64) -> Self {
        RunningSum::new(n, s).zipf(n)
    }

    /// One sampler per support, all with exponent `s`, from one running
    /// sum over the largest support: each is bit for bit its `new`.
    ///
    /// # Panics
    /// Panics if a support is 0 or `s < 0`.
    pub(crate) fn for_supports(supports: &[u32], s: f64) -> Vec<Self> {
        let sum = RunningSum::new(supports.iter().copied().max().unwrap_or(0), s);
        supports.iter().map(|&n| sum.zipf(n)).collect()
    }

    /// Support size.
    pub fn support(&self) -> u32 {
        self.n
    }

    /// Draws one value.
    pub fn sample(&self, rng: &mut impl Rng) -> u32 {
        let u: f64 = rng.gen();
        self.quantile(u)
    }

    /// The first value whose CDF is at least `u` (value 0 for `u <= 0` or
    /// NaN, the last value for `u > 1`).
    pub fn quantile(&self, u: f64) -> u32 {
        let idx = self.head.partition_point(|&c| c < u);
        if idx < self.head.len() || self.marks.is_empty() {
            return idx.min(self.head.len() - 1) as u32;
        }
        // Block `k` follows mark `k`; the first block whose closing mark
        // reaches `u` holds the value.
        let k = self.marks[1..].partition_point(|&m| m / self.total < u);
        if k + 1 == self.marks.len() {
            return self.n - 1;
        }
        let mut acc = self.marks[k];
        let start = HEAD + k as u32 * BLOCK;
        for v in start..(start + BLOCK).min(self.n) {
            acc += term(v, self.s);
            if acc / self.total >= u {
                return v;
            }
        }
        self.n - 1
    }

    /// Probability of value `v`.
    pub fn pmf(&self, v: u32) -> f64 {
        if v == 0 {
            self.cdf(0)
        } else {
            self.cdf(v) - self.cdf(v - 1)
        }
    }

    /// The CDF at value `v`.
    fn cdf(&self, v: u32) -> f64 {
        if let Some(&c) = self.head.get(v as usize) {
            return c;
        }
        assert!(v < self.n, "value {v} outside the support of {}", self.n);
        let k = (v - HEAD) / BLOCK;
        let start = HEAD + k * BLOCK;
        add_terms(self.marks[k as usize], start..v + 1, self.s) / self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::Profile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_when_s_zero() {
        let z = Zipf::new(4, 0.0);
        for v in 0..4 {
            assert!((z.pmf(v) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(100, 1.2);
        let total: f64 = (0..100).map(|v| z.pmf(v)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn head_dominates_with_high_s() {
        let z = Zipf::new(1000, 1.5);
        assert!(z.pmf(0) > 0.3);
        assert!(z.pmf(999) < 1e-4);
    }

    #[test]
    fn samples_follow_pmf() {
        let z = Zipf::new(10, 1.0);
        let mut rng = StdRng::seed_from_u64(0);
        let n = 100_000;
        let mut counts = [0u32; 10];
        for _ in 0..n {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        for (v, &count) in counts.iter().enumerate() {
            let empirical = count as f64 / n as f64;
            let expected = z.pmf(v as u32);
            assert!(
                (empirical - expected).abs() < 0.01,
                "value {v}: {empirical} vs {expected}"
            );
        }
    }

    #[test]
    fn quantile_edges() {
        let z = Zipf::new(5, 1.0);
        assert_eq!(z.quantile(0.0), 0);
        assert_eq!(z.quantile(0.9999999), 4);
    }

    #[test]
    fn single_value_support() {
        let z = Zipf::new(1, 2.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(z.sample(&mut rng), 0);
    }

    /// The full-table sampler the head and marks replace: one normalized
    /// CDF entry per value, searched whole.
    struct FullTable {
        cdf: Vec<f64>,
    }

    impl FullTable {
        fn new(n: u32, s: f64) -> Self {
            let mut cdf = Vec::with_capacity(n as usize);
            let mut acc = 0.0f64;
            for v in 0..n {
                acc += 1.0 / ((v + 1) as f64).powf(s);
                cdf.push(acc);
            }
            let total = acc;
            for c in cdf.iter_mut() {
                *c /= total;
            }
            if let Some(last) = cdf.last_mut() {
                *last = 1.0;
            }
            Self { cdf }
        }

        fn quantile(&self, u: f64) -> u32 {
            let idx = self.cdf.partition_point(|&c| c < u);
            idx.min(self.cdf.len() - 1) as u32
        }

        fn pmf(&self, v: u32) -> f64 {
            let v = v as usize;
            if v == 0 {
                self.cdf[0]
            } else {
                self.cdf[v] - self.cdf[v - 1]
            }
        }
    }

    /// GiantVocab's exponent and its four supports past the head.
    fn giant_vocab() -> (Vec<u32>, f64) {
        let spec = Profile::GiantVocab.spec();
        (spec.cardinalities, spec.zipf_exponent)
    }

    /// Values to probe in a support of `n`: a stride through the head, both
    /// sides of every block edge (the head's end is the first), two values
    /// inside every 61st block, and the last value.
    fn probe_values(n: u32) -> Vec<u32> {
        let mut vs: Vec<u32> = (0..n.min(HEAD)).step_by(97).collect();
        for (b, edge) in (HEAD..n).step_by(BLOCK as usize).enumerate() {
            vs.extend([edge - 1, edge]);
            if b % 61 == 0 {
                vs.extend([edge + 17, edge + 45].into_iter().filter(|&v| v < n));
            }
        }
        vs.push(n - 1);
        vs
    }

    /// Asserts that `z` answers as `table` does, bit for bit: `quantile`
    /// at, one ulp below and one ulp above the CDF of every probed value and
    /// at the special `u`s, and `pmf` at every seventh probed value and the
    /// last.
    fn assert_matches_table(z: &Zipf, table: &FullTable, n: u32) {
        assert_eq!(z.support(), n);
        let probes = probe_values(n);
        for &v in &probes {
            let c = table.cdf[v as usize];
            for u in [c, c.next_down(), c.next_up()] {
                assert_eq!(
                    z.quantile(u),
                    table.quantile(u),
                    "n {n}, value {v}, u {u:e}"
                );
            }
        }
        for v in probes.iter().step_by(7).chain([&(n - 1)]) {
            let (got, want) = (z.pmf(*v), table.pmf(*v));
            assert_eq!(got.to_bits(), want.to_bits(), "n {n}: pmf({v})");
        }
        let specials = [
            0.0,
            -0.0,
            -1.0,
            1.0,
            1.0f64.next_up(),
            1.5,
            f64::INFINITY,
            f64::NAN,
        ];
        for u in specials {
            assert_eq!(z.quantile(u), table.quantile(u), "n {n}, u {u}");
        }
        assert_eq!(z.quantile(1.0), n - 1, "n {n}: the last value's CDF is 1");
    }

    #[test]
    fn zipf_bits_quantile_and_pmf_match_the_full_table_around_the_head() {
        for n in [
            HEAD - 1,
            HEAD,
            HEAD + 1,
            HEAD + BLOCK,
            HEAD + BLOCK + 1,
            HEAD + 1000,
        ] {
            for s in [0.0, 0.6, 1.25] {
                assert_matches_table(&Zipf::new(n, s), &FullTable::new(n, s), n);
            }
        }
    }

    #[test]
    fn zipf_bits_quantile_and_pmf_match_the_full_table_on_giant_vocab() {
        let (supports, s) = giant_vocab();
        for n in supports.into_iter().filter(|&n| n > HEAD) {
            assert_matches_table(&Zipf::new(n, s), &FullTable::new(n, s), n);
        }
    }

    #[test]
    fn zipf_bits_draws_match_the_full_table() {
        // Uniform draws, whose mass lies past the head, and GiantVocab's.
        for (n, s) in [(HEAD + 5_000, 0.0), (HEAD + 5_000, 1.25), (600_000, 1.25)] {
            let (z, table) = (Zipf::new(n, s), FullTable::new(n, s));
            let mut rng = StdRng::seed_from_u64(u64::from(n));
            for _ in 0..20_000 {
                let u: f64 = rng.gen();
                assert_eq!(z.quantile(u), table.quantile(u), "n {n}, s {s}, u {u:e}");
            }
        }
    }

    #[test]
    fn zipf_bits_one_shared_sum_equals_one_new_per_support() {
        let (giant, s) = giant_vocab();
        let partial = vec![HEAD + BLOCK + 1, 100, HEAD + 1, HEAD + 200, HEAD, 1];
        for (supports, s) in [(giant, s), (partial, 0.8)] {
            let shared = Zipf::for_supports(&supports, s);
            assert_eq!(shared.len(), supports.len());
            for (z, &n) in shared.iter().zip(&supports) {
                let alone = Zipf::new(n, s);
                let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&z.head), bits(&alone.head), "support {n}: head");
                assert_eq!(bits(&z.marks), bits(&alone.marks), "support {n}: marks");
                assert_eq!(z.total.to_bits(), alone.total.to_bits(), "support {n}");
                assert_eq!((z.n, z.s.to_bits()), (alone.n, alone.s.to_bits()));
            }
        }
    }

    #[test]
    fn zipf_bits_giant_vocab_samplers_hold_at_most_four_mib() {
        let (supports, s) = giant_vocab();
        let bytes: usize = Zipf::for_supports(&supports, s)
            .iter()
            .map(|z| (z.head.capacity() + z.marks.capacity()) * std::mem::size_of::<f64>())
            .sum();
        assert!(bytes <= 4 << 20, "{bytes} bytes");
    }
}
