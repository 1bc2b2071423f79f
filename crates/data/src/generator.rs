//! Planted-structure synthetic click-log generation.
//!
//! Each field pair is planted with one of the three interaction characters
//! the paper studies (Sec. I): **memorized** — an idiosyncratic effect per
//! cross-value combination that no low-rank factorization can express;
//! **factorized** — an inner product of per-field-value latent vectors; or
//! **none**. The ground-truth click probability is
//!
//! `p(click) = sigmoid(bias + Σ_f w_f(v_f) + Σ_planted pair effects + noise)`
//!
//! with every weight a deterministic hash of `(seed, identifiers)`, so the
//! ground truth is reproducible and any part of it can be recomputed on
//! demand. The bias is calibrated so that the marginal positive ratio
//! matches the profile (Table II's `pos ratio` column).
//!
//! A value's own parts of the ground truth (its field weight, its three
//! nonlinear projections and its latent vector) form one entry, read per
//! row. [`SyntheticGenerator::new`] tabulates the entries of every field of
//! at most 2¹⁶ values, and the effects of every memorized pair of at most
//! 2¹⁶ value combinations; a larger field's entry is hashed once per row
//! into a scratch entry, and a larger memorized pair's effect on demand.
//! The public per-value fns hash every time and are the bit reference the
//! tables are tested against (DESIGN.md §9).

use crate::hash::{self, TABLE_MAX_VALUES};
use crate::schema::{PairIndexer, Schema};
use crate::zipf::Zipf;
use optinter_tensor::numerics::sigmoid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The interaction character planted on a field pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlantedKind {
    /// Idiosyncratic per-cross-value effect (best memorized).
    Memorized,
    /// Low-rank latent inner-product effect (best factorized).
    Factorized,
    /// No direct interaction effect (best left naïve).
    None,
}

impl PlantedKind {
    /// Deterministically assigns kinds to `num_pairs` pairs with the given
    /// target counts, shuffled by `seed`.
    ///
    /// # Panics
    /// Panics if the counts do not sum to `num_pairs`.
    pub fn assign(
        num_memorized: usize,
        num_factorized: usize,
        num_none: usize,
        num_pairs: usize,
        seed: u64,
    ) -> Vec<PlantedKind> {
        assert_eq!(
            num_memorized + num_factorized + num_none,
            num_pairs,
            "planted counts must cover every pair"
        );
        let mut kinds = Vec::with_capacity(num_pairs);
        kinds.extend(std::iter::repeat_n(PlantedKind::Memorized, num_memorized));
        kinds.extend(std::iter::repeat_n(PlantedKind::Factorized, num_factorized));
        kinds.extend(std::iter::repeat_n(PlantedKind::None, num_none));
        // Fisher-Yates with hash-derived indices for determinism.
        for i in (1..kinds.len()).rev() {
            let j = (hash::combine(seed, &[0xA11, i as u64]) % (i as u64 + 1)) as usize;
            kinds.swap(i, j);
        }
        kinds
    }

    /// Assigns kinds by pair sparsity, mirroring real click logs: the
    /// `num_memorized` pairs with the *smallest* cross-cardinality get
    /// memorized effects (their combinations repeat often enough to
    /// memorize), the `num_factorized` pairs with the *largest*
    /// cross-cardinality get factorized effects (individual combinations
    /// are too rare to memorize, but per-value latents are learnable), and
    /// the middle gets none.
    ///
    /// # Panics
    /// Panics if the counts exceed the number of pairs.
    pub fn assign_by_cardinality(
        cardinalities: &[u32],
        num_memorized: usize,
        num_factorized: usize,
    ) -> Vec<PlantedKind> {
        let indexer = crate::schema::PairIndexer::new(cardinalities.len());
        let np = indexer.num_pairs();
        assert!(
            num_memorized + num_factorized <= np,
            "planted counts exceed pair count"
        );
        let mut order: Vec<usize> = (0..np).collect();
        let cross_card = |p: usize| {
            let (i, j) = indexer.pair_at(p);
            cardinalities[i] as u64 * cardinalities[j] as u64
        };
        order.sort_by_key(|&p| (cross_card(p), p));
        let mut kinds = vec![PlantedKind::None; np];
        for &p in order.iter().take(num_memorized) {
            kinds[p] = PlantedKind::Memorized;
        }
        for &p in order.iter().rev().take(num_factorized) {
            kinds[p] = PlantedKind::Factorized;
        }
        kinds
    }

    /// Short display tag.
    pub fn tag(&self) -> &'static str {
        match self {
            PlantedKind::Memorized => "mem",
            PlantedKind::Factorized => "fac",
            PlantedKind::None => "none",
        }
    }
}

/// Full specification of a synthetic dataset.
#[derive(Debug, Clone)]
pub struct SyntheticSpec {
    /// Human-readable name (e.g. `criteo_like`).
    pub name: String,
    /// Master seed; all ground-truth weights derive from it.
    pub seed: u64,
    /// Per-field raw cardinalities.
    pub cardinalities: Vec<u32>,
    /// Zipf exponent for value frequencies (0 = uniform).
    pub zipf_exponent: f64,
    /// Planted kind per pair, in [`PairIndexer`] flat order.
    pub planted: Vec<PlantedKind>,
    /// Std-dev of per-field-value main-effect weights.
    pub field_weight_std: f32,
    /// Std-dev of memorized pair effects.
    pub memorized_std: f32,
    /// Scale of factorized pair effects.
    pub factorized_std: f32,
    /// Rank of the planted latent vectors.
    pub latent_dim: usize,
    /// Scale of the planted *higher-order nonlinearity*: a `tanh` of a
    /// hashed one-dimensional projection of all field values. Shallow
    /// pairwise models (LR, Poly2, FM) cannot express it; deep classifiers
    /// can — this mirrors the higher-order structure of real click logs
    /// that gives deep CTR models their edge in the paper's Table V.
    pub nonlinear_std: f32,
    /// Std-dev of irreducible per-sample logit noise.
    pub noise_std: f32,
    /// Target marginal positive ratio.
    pub target_pos_ratio: f64,
}

impl SyntheticSpec {
    /// Schema implied by the cardinalities.
    pub fn schema(&self) -> Schema {
        Schema::new(self.cardinalities.clone())
    }

    /// Validates internal consistency.
    pub fn validate(&self) {
        let schema = self.schema();
        assert_eq!(
            self.planted.len(),
            schema.num_pairs(),
            "spec `{}`: planted kinds must cover every pair",
            self.name
        );
        assert!(self.latent_dim > 0, "latent_dim must be positive");
        assert!(
            (0.0..1.0).contains(&self.target_pos_ratio) && self.target_pos_ratio > 0.0,
            "target_pos_ratio must be in (0, 1)"
        );
    }
}

/// A generated raw dataset: rows of raw categorical values plus labels.
#[derive(Debug, Clone)]
pub struct RawDataset {
    /// Schema the rows follow.
    pub schema: Schema,
    /// Row-major values, `rows[n * M + f]` = raw value of field `f` in row `n`.
    pub rows: Vec<u32>,
    /// Binary click labels.
    pub labels: Vec<u8>,
    /// Ground-truth logits (diagnostics; an oracle upper bound for AUC).
    pub logits: Vec<f32>,
}

impl RawDataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Raw value of field `f` in row `n`.
    pub fn value(&self, n: usize, f: usize) -> u32 {
        self.rows[n * self.schema.num_fields() + f]
    }

    /// Empirical positive ratio.
    pub fn pos_ratio(&self) -> f64 {
        if self.labels.is_empty() {
            return 0.0;
        }
        self.labels.iter().map(|&y| y as u64).sum::<u64>() as f64 / self.labels.len() as f64
    }
}

/// Generates datasets from a [`SyntheticSpec`].
pub struct SyntheticGenerator {
    spec: SyntheticSpec,
    samplers: Vec<Zipf>,
    pairs: PairIndexer,
    /// Per field, its values' entries back to back (laid out as the
    /// `ENTRY_*` offsets say), or `None` for a field of more than
    /// `TABLE_MAX_VALUES` values, whose entry is hashed once per row.
    tables: Vec<Option<Vec<f32>>>,
    /// Per pair `(i, j)`, the memorized effect of `(vi, vj)` at
    /// `vi·c_j + vj` (`c_j` field `j`'s cardinality), or `None` for a pair
    /// that is not memorized or has more than `TABLE_MAX_VALUES` value
    /// combinations, whose effect is hashed on demand.
    effects: Vec<Option<Vec<f32>>>,
    bias: f32,
}

// Hash-domain tags keeping the weight families independent.
const TAG_FIELD: u64 = 1;
const TAG_MEM: u64 = 2;
const TAG_LATENT: u64 = 3;
const TAG_NONLIN: u64 = 4;

/// Rows drawn to calibrate the bias, from the spec seed xor
/// `CALIBRATION_SEED`.
const CALIBRATION_ROWS: usize = 4000;
const CALIBRATION_SEED: u64 = 0xCA11B;

/// Layout of one entry: the scaled field weight, then the three
/// `TAG_NONLIN` projections, then the `latent_dim` latent coordinates.
const ENTRY_WEIGHT: usize = 0;
const ENTRY_NONLIN: usize = 1;
const ENTRY_LATENT: usize = ENTRY_NONLIN + 3;

impl SyntheticGenerator {
    /// Builds a generator: one value sampler per field from one running
    /// sum, the per-value ground truth of every field of at most 2¹⁶ values
    /// and the effects of every memorized pair of at most 2¹⁶ value
    /// combinations as tables, then the bias calibrated so the marginal
    /// positive ratio approximates `spec.target_pos_ratio`.
    pub fn new(spec: SyntheticSpec) -> Self {
        spec.validate();
        let samplers = Zipf::for_supports(&spec.cardinalities, spec.zipf_exponent);
        let pairs = PairIndexer::new(spec.cardinalities.len());
        let mut gen = Self {
            spec,
            samplers,
            pairs,
            tables: Vec::new(),
            effects: Vec::new(),
            bias: 0.0,
        };
        gen.tables = (0..gen.spec.cardinalities.len())
            .map(|f| gen.table(f))
            .collect();
        gen.effects = gen
            .pairs
            .iter()
            .enumerate()
            .map(|(p, (i, j))| gen.effect_table(p, i, j))
            .collect();
        gen.bias = gen.calibrate_bias();
        gen
    }

    /// Field `f`'s table, or `None` past `TABLE_MAX_VALUES`.
    fn table(&self, f: usize) -> Option<Vec<f32>> {
        let card = self.spec.cardinalities[f];
        if card > TABLE_MAX_VALUES {
            return None;
        }
        let len = self.entry_len();
        let mut table = vec![0.0; card as usize * len];
        for (v, entry) in (0..card).zip(table.chunks_exact_mut(len)) {
            self.hash_entry(f, v, entry);
        }
        Some(table)
    }

    /// Pair `p = (i, j)`'s memorized effects, or `None` when it is not
    /// memorized or has more than `TABLE_MAX_VALUES` value combinations.
    fn effect_table(&self, p: usize, i: usize, j: usize) -> Option<Vec<f32>> {
        let (ci, cj) = (self.spec.cardinalities[i], self.spec.cardinalities[j]);
        if self.spec.planted[p] != PlantedKind::Memorized
            || u64::from(ci) * u64::from(cj) > u64::from(TABLE_MAX_VALUES)
        {
            return None;
        }
        let effects = (0..ci).flat_map(|vi| (0..cj).map(move |vj| (vi, vj)));
        Some(
            effects
                .map(|(vi, vj)| self.memorized_effect(p, vi, vj))
                .collect(),
        )
    }

    /// Writes the entry of value `v` in field `f`, from the same hashes the
    /// public per-value fns compute.
    fn hash_entry(&self, f: usize, v: u32, entry: &mut [f32]) {
        entry[ENTRY_WEIGHT] = self.field_weight(f, v);
        entry[ENTRY_NONLIN..ENTRY_LATENT].copy_from_slice(&self.hashed_projections(f, v));
        for (d, z) in entry[ENTRY_LATENT..].iter_mut().enumerate() {
            *z = self.hashed_latent(f, v, d);
        }
    }

    /// Floats per entry.
    fn entry_len(&self) -> usize {
        ENTRY_LATENT + self.spec.latent_dim
    }

    /// The spec this generator realises.
    pub fn spec(&self) -> &SyntheticSpec {
        &self.spec
    }

    /// The calibrated intercept.
    pub fn bias(&self) -> f32 {
        self.bias
    }

    /// Main-effect weight of value `v` in field `f`.
    pub fn field_weight(&self, f: usize, v: u32) -> f32 {
        hash::hash_normal(self.spec.seed, &[TAG_FIELD, f as u64, v as u64])
            * self.spec.field_weight_std
    }

    /// Memorized pair effect for pair `p` at values `(vi, vj)`.
    pub fn memorized_effect(&self, p: usize, vi: u32, vj: u32) -> f32 {
        hash::hash_normal(self.spec.seed, &[TAG_MEM, p as u64, vi as u64, vj as u64])
            * self.spec.memorized_std
    }

    /// Latent vector of value `v` in field `f` (rank = `latent_dim`).
    pub fn latent(&self, f: usize, v: u32) -> Vec<f32> {
        (0..self.spec.latent_dim)
            .map(|d| self.hashed_latent(f, v, d))
            .collect()
    }

    /// Factorized pair effect: scaled inner product of the field latents.
    pub fn factorized_effect(&self, i: usize, j: usize, vi: u32, vj: u32) -> f32 {
        self.factorized(
            |d| self.hashed_latent(i, vi, d),
            |d| self.hashed_latent(j, vj, d),
        )
    }

    /// The higher-order nonlinear component: a product of three saturated
    /// hashed projections of all field values, scaled by `nonlinear_std`.
    ///
    /// A product of two sums is still second-order (expressible by pairwise
    /// cross weights); a product of *three* zero-mean factors has no
    /// main-effect or pairwise shadow at all, so shallow pairwise models
    /// (LR, Poly2, FM) cannot capture it while a deep classifier over the
    /// original embeddings can — this mirrors the higher-order structure of
    /// real click logs that gives deep CTR models their edge in Table V.
    pub fn nonlinear_effect(&self, values: &[u32]) -> f32 {
        self.nonlinear(values, |f, v| self.hashed_projections(f, v))
    }

    /// Ground-truth logit of a row (excluding noise and bias): the
    /// nonlinear component, the field weights and the planted pair effects,
    /// summed in that order. Bit for bit the sum of the public per-value
    /// fns.
    pub fn structural_logit(&self, values: &[u32]) -> f32 {
        self.row_logit(values, &mut vec![0.0; values.len() * self.entry_len()])
    }

    /// [`Self::structural_logit`] with each field's entry read through
    /// [`Self::entry`]: a field without a table first has its value's entry
    /// hashed into its slot of `scratch`, one entry per field.
    fn row_logit(&self, values: &[u32], scratch: &mut [f32]) -> f32 {
        let len = self.entry_len();
        for ((f, &v), slot) in values.iter().enumerate().zip(scratch.chunks_exact_mut(len)) {
            if self.tables[f].is_none() {
                self.hash_entry(f, v, slot);
            }
        }
        let scratch = &*scratch;
        let mut logit = self.nonlinear(values, |f, v| {
            let e = self.entry(f, v, scratch);
            [e[ENTRY_NONLIN], e[ENTRY_NONLIN + 1], e[ENTRY_NONLIN + 2]]
        });
        for (f, &v) in values.iter().enumerate() {
            logit += self.entry(f, v, scratch)[ENTRY_WEIGHT];
        }
        for (p, (i, j)) in self.pairs.iter().enumerate() {
            let (vi, vj) = (values[i], values[j]);
            match self.spec.planted[p] {
                PlantedKind::Memorized => {
                    logit += match &self.effects[p] {
                        Some(effects) => {
                            effects[vi as usize * self.spec.cardinalities[j] as usize + vj as usize]
                        }
                        None => self.memorized_effect(p, vi, vj),
                    };
                }
                PlantedKind::Factorized => {
                    let (ei, ej) = (self.entry(i, vi, scratch), self.entry(j, vj, scratch));
                    logit += self.factorized(|d| ei[ENTRY_LATENT + d], |d| ej[ENTRY_LATENT + d]);
                }
                PlantedKind::None => {}
            }
        }
        logit
    }

    /// The entry of value `v` in field `f`: from the field's table, or from
    /// the field's slot of `scratch` when it has none.
    #[inline]
    fn entry<'a>(&'a self, f: usize, v: u32, scratch: &'a [f32]) -> &'a [f32] {
        let len = self.entry_len();
        match &self.tables[f] {
            Some(table) => &table[v as usize * len..][..len],
            None => &scratch[f * len..][..len],
        }
    }

    /// The three nonlinear projections of value `v` in field `f`.
    fn hashed_projections(&self, f: usize, v: u32) -> [f32; 3] {
        [1, 2, 3].map(|t| hash::hash_normal(self.spec.seed, &[TAG_NONLIN, t, f as u64, v as u64]))
    }

    /// Coordinate `d` of the latent vector of value `v` in field `f`.
    fn hashed_latent(&self, f: usize, v: u32, d: usize) -> f32 {
        hash::hash_normal(self.spec.seed, &[TAG_LATENT, f as u64, v as u64, d as u64])
    }

    /// The nonlinear component of a row whose three projections of value
    /// `v` in field `f` are `projections(f, v)`, summed per projection in
    /// field order.
    fn nonlinear(&self, values: &[u32], projections: impl Fn(usize, u32) -> [f32; 3]) -> f32 {
        if self.spec.nonlinear_std == 0.0 {
            return 0.0;
        }
        let m = (values.len() as f32).sqrt();
        let mut abc = [0.0f32; 3];
        for (f, &v) in values.iter().enumerate() {
            for (acc, x) in abc.iter_mut().zip(projections(f, v)) {
                *acc += x;
            }
        }
        // lint: allow(float-reduction-order, reason="fixed-order slice of 3 per-field terms, iteration order is structural")
        abc.iter().map(|&x| (1.5 * x / m).tanh()).product::<f32>() * self.spec.nonlinear_std
    }

    /// The factorized effect of two latents given coordinate by coordinate:
    /// the products in rank order, reduced by `Sum for f32`, then scaled.
    fn factorized(&self, zi: impl Fn(usize) -> f32, zj: impl Fn(usize) -> f32) -> f32 {
        let dot: f32 = (0..self.spec.latent_dim).map(|d| zi(d) * zj(d)).sum();
        dot / (self.spec.latent_dim as f32).sqrt() * self.spec.factorized_std
    }

    /// Draws one row's values, field by field.
    fn draw(&self, rng: &mut StdRng, values: &mut [u32]) {
        for (f, v) in values.iter_mut().enumerate() {
            *v = self.samplers[f].sample(rng);
        }
    }

    /// The bias that brings the mean click probability of
    /// `CALIBRATION_ROWS` drawn rows to the target positive ratio.
    fn calibrate_bias(&self) -> f32 {
        let mut rng = StdRng::seed_from_u64(self.spec.seed ^ CALIBRATION_SEED);
        let m = self.spec.cardinalities.len();
        let mut values = vec![0u32; m];
        let mut scratch = vec![0.0; m * self.entry_len()];
        let logits: Vec<f32> = (0..CALIBRATION_ROWS)
            .map(|_| {
                self.draw(&mut rng, &mut values);
                self.row_logit(&values, &mut scratch)
            })
            .collect();
        bias_for(&logits, self.spec.target_pos_ratio as f32)
    }

    /// Generates `n` i.i.d. samples using `sample_seed` for the data draw
    /// (value draws, label coin flips, noise). The ground-truth weights
    /// depend only on the spec seed, so different sample seeds give fresh
    /// datasets from the *same* underlying distribution.
    pub fn generate(&self, n: usize, sample_seed: u64) -> RawDataset {
        let m = self.spec.cardinalities.len();
        let mut rng = StdRng::seed_from_u64(sample_seed);
        let mut rows = Vec::with_capacity(n * m);
        let mut labels = Vec::with_capacity(n);
        let mut logits = Vec::with_capacity(n);
        let mut values = vec![0u32; m];
        let mut scratch = vec![0.0; m * self.entry_len()];
        for _ in 0..n {
            self.draw(&mut rng, &mut values);
            let mut logit = self.bias + self.row_logit(&values, &mut scratch);
            if self.spec.noise_std > 0.0 {
                let (z, _) = optinter_tensor::init::box_muller(&mut rng);
                logit += z * self.spec.noise_std;
            }
            let p = sigmoid(logit);
            let y = u8::from(rng.gen::<f32>() < p);
            rows.extend_from_slice(&values);
            labels.push(y);
            logits.push(logit);
        }
        RawDataset {
            schema: self.spec.schema(),
            rows,
            labels,
            logits,
        }
    }
}

/// The intercept that brings the mean of `sigmoid(z + bias)` over `logits`
/// to `target`, by 60 bisection steps over `[-30, 30]`.
fn bias_for(logits: &[f32], target: f32) -> f32 {
    let mut lo = -30.0f32;
    let mut hi = 30.0f32;
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        // lint: allow(float-reduction-order, reason="sequential slice iteration; order fixed by the Vec layout")
        let mean: f32 = logits.iter().map(|&z| sigmoid(z + mid)).sum::<f32>() / logits.len() as f32;
        if mean < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::Profile;

    fn tiny_spec() -> SyntheticSpec {
        SyntheticSpec {
            name: "tiny".into(),
            seed: 7,
            cardinalities: vec![8, 8, 8, 8],
            zipf_exponent: 1.0,
            planted: PlantedKind::assign(2, 2, 2, 6, 7),
            field_weight_std: 0.3,
            memorized_std: 1.0,
            factorized_std: 1.0,
            latent_dim: 4,
            nonlinear_std: 0.5,
            noise_std: 0.1,
            target_pos_ratio: 0.25,
        }
    }

    #[test]
    fn assign_covers_and_is_deterministic() {
        let a = PlantedKind::assign(3, 4, 5, 12, 42);
        let b = PlantedKind::assign(3, 4, 5, 12, 42);
        assert_eq!(a, b);
        assert_eq!(
            a.iter().filter(|k| **k == PlantedKind::Memorized).count(),
            3
        );
        assert_eq!(
            a.iter().filter(|k| **k == PlantedKind::Factorized).count(),
            4
        );
        assert_eq!(a.iter().filter(|k| **k == PlantedKind::None).count(), 5);
    }

    #[test]
    #[should_panic(expected = "cover every pair")]
    fn assign_rejects_bad_counts() {
        PlantedKind::assign(1, 1, 1, 4, 0);
    }

    #[test]
    fn generation_is_reproducible() {
        let g = SyntheticGenerator::new(tiny_spec());
        let a = g.generate(100, 1);
        let b = g.generate(100, 1);
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.labels, b.labels);
        let c = g.generate(100, 2);
        assert_ne!(a.rows, c.rows);
    }

    #[test]
    fn pos_ratio_near_target() {
        let g = SyntheticGenerator::new(tiny_spec());
        let d = g.generate(20_000, 3);
        let ratio = d.pos_ratio();
        assert!(
            (ratio - 0.25).abs() < 0.04,
            "pos ratio {ratio} too far from target 0.25"
        );
    }

    #[test]
    fn weights_are_functions_of_identity() {
        let g = SyntheticGenerator::new(tiny_spec());
        assert_eq!(g.field_weight(0, 3), g.field_weight(0, 3));
        assert_ne!(g.field_weight(0, 3), g.field_weight(0, 4));
        assert_ne!(g.field_weight(0, 3), g.field_weight(1, 3));
        assert_eq!(g.memorized_effect(1, 2, 3), g.memorized_effect(1, 2, 3));
        assert_ne!(g.memorized_effect(1, 2, 3), g.memorized_effect(1, 3, 2));
    }

    #[test]
    fn factorized_effect_is_symmetric_in_rank() {
        let g = SyntheticGenerator::new(tiny_spec());
        // Same inputs -> same effect; latents shared per field.
        let e1 = g.factorized_effect(0, 1, 2, 5);
        let e2 = g.factorized_effect(0, 1, 2, 5);
        assert_eq!(e1, e2);
    }

    #[test]
    fn extreme_pos_ratio_calibrates() {
        let mut spec = tiny_spec();
        spec.target_pos_ratio = 0.01;
        let g = SyntheticGenerator::new(spec);
        let d = g.generate(30_000, 5);
        let ratio = d.pos_ratio();
        assert!((0.003..0.03).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn rows_respect_cardinalities() {
        let g = SyntheticGenerator::new(tiny_spec());
        let d = g.generate(500, 11);
        for n in 0..d.len() {
            for f in 0..4 {
                assert!(d.value(n, f) < 8);
            }
        }
    }

    const ALL_PROFILES: [Profile; 6] = [
        Profile::CriteoLike,
        Profile::AvazuLike,
        Profile::IpinyouLike,
        Profile::PrivateLike,
        Profile::Tiny,
        Profile::GiantVocab,
    ];

    /// `structural_logit` as the public per-value fns compute it, summed in
    /// its order: the nonlinear component, the field weights, then the pair
    /// effects in pair order.
    fn reference_logit(g: &SyntheticGenerator, values: &[u32]) -> f32 {
        let mut logit = g.nonlinear_effect(values);
        for (f, &v) in values.iter().enumerate() {
            logit += g.field_weight(f, v);
        }
        for (p, (i, j)) in g.pairs.iter().enumerate() {
            let (vi, vj) = (values[i], values[j]);
            match g.spec.planted[p] {
                PlantedKind::Memorized => logit += g.memorized_effect(p, vi, vj),
                PlantedKind::Factorized => logit += g.factorized_effect(i, j, vi, vj),
                PlantedKind::None => {}
            }
        }
        logit
    }

    /// Asserts that `g`'s bias, and the rows, labels and logits of
    /// `g.generate(rows, seed)` for each seed, are bit for bit what the same
    /// draws give on [`reference_logit`].
    fn assert_matches_reference(g: &SyntheticGenerator, rows: usize, seeds: &[u64]) {
        let name = &g.spec.name;
        let m = g.spec.cardinalities.len();
        let mut values = vec![0u32; m];
        let mut rng = StdRng::seed_from_u64(g.spec.seed ^ CALIBRATION_SEED);
        let calibration: Vec<f32> = (0..CALIBRATION_ROWS)
            .map(|_| {
                g.draw(&mut rng, &mut values);
                reference_logit(g, &values)
            })
            .collect();
        let bias = bias_for(&calibration, g.spec.target_pos_ratio as f32);
        assert_eq!(g.bias().to_bits(), bias.to_bits(), "{name}: bias");
        for &seed in seeds {
            let data = g.generate(rows, seed);
            assert_eq!(data.len(), rows);
            let mut rng = StdRng::seed_from_u64(seed);
            for n in 0..rows {
                g.draw(&mut rng, &mut values);
                let mut logit = bias + reference_logit(g, &values);
                if g.spec.noise_std > 0.0 {
                    let (z, _) = optinter_tensor::init::box_muller(&mut rng);
                    logit += z * g.spec.noise_std;
                }
                let label = u8::from(rng.gen::<f32>() < sigmoid(logit));
                let at = format!("{name}, seed {seed}, row {n}");
                assert_eq!(data.rows[n * m..][..m], values[..], "{at}: values");
                assert_eq!(data.logits[n].to_bits(), logit.to_bits(), "{at}: logit");
                assert_eq!(data.labels[n], label, "{at}: label");
            }
        }
    }

    /// Asserts that every field of at most `TABLE_MAX_VALUES` values has a
    /// table whose entries equal the public fns' bits (the projections have
    /// no public fn of their own, so they are hashed here), and that larger
    /// fields have none. Returns the tables' size in bytes.
    fn assert_tables_match(g: &SyntheticGenerator) -> usize {
        let name = &g.spec.name;
        let mut bytes = 0;
        for (f, &card) in g.spec.cardinalities.iter().enumerate() {
            let Some(table) = &g.tables[f] else {
                assert!(card > TABLE_MAX_VALUES, "{name}: field {f} has no table");
                continue;
            };
            assert!(card <= TABLE_MAX_VALUES, "{name}: field {f} has a table");
            let len = g.entry_len();
            assert_eq!(table.len(), card as usize * len, "{name}: field {f}");
            bytes += std::mem::size_of_val(table.as_slice());
            for (v, entry) in (0..card).zip(table.chunks_exact(len)) {
                let projection =
                    |t: u64| hash::hash_normal(g.spec.seed, &[TAG_NONLIN, t, f as u64, v as u64]);
                let expected: Vec<f32> = [g.field_weight(f, v)]
                    .into_iter()
                    .chain([1, 2, 3].map(projection))
                    .chain(g.latent(f, v))
                    .collect();
                let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(entry), bits(&expected), "{name}: field {f} value {v}");
            }
        }
        bytes
    }

    /// Asserts that every memorized pair of at most `TABLE_MAX_VALUES`
    /// value combinations has a table whose entries equal
    /// `memorized_effect`'s bits, and that no other pair has one. Returns
    /// the number of tables and their size in bytes.
    fn assert_effects_match(g: &SyntheticGenerator) -> (usize, usize) {
        let name = &g.spec.name;
        let (mut tables, mut bytes) = (0, 0);
        for (p, (i, j)) in g.pairs.iter().enumerate() {
            let (ci, cj) = (g.spec.cardinalities[i], g.spec.cardinalities[j]);
            let combinations = u64::from(ci) * u64::from(cj);
            let tabled = g.spec.planted[p] == PlantedKind::Memorized
                && combinations <= u64::from(TABLE_MAX_VALUES);
            let Some(effects) = &g.effects[p] else {
                assert!(!tabled, "{name}: pair {p} has no table");
                continue;
            };
            assert!(tabled, "{name}: pair {p} has a table");
            assert_eq!(effects.len() as u64, combinations, "{name}: pair {p}");
            tables += 1;
            bytes += std::mem::size_of_val(effects.as_slice());
            let cells = (0..ci).flat_map(|vi| (0..cj).map(move |vj| (vi, vj)));
            for (&effect, (vi, vj)) in effects.iter().zip(cells) {
                let expected = g.memorized_effect(p, vi, vj);
                assert_eq!(
                    effect.to_bits(),
                    expected.to_bits(),
                    "{name}: pair {p} at ({vi}, {vj})"
                );
            }
        }
        (tables, bytes)
    }

    #[test]
    fn generator_bits_every_profile_matches_the_per_value_reference() {
        // GiantVocab mixes table-backed (two small) and on-demand (four
        // large) fields in one row.
        for profile in ALL_PROFILES {
            let g = SyntheticGenerator::new(profile.spec());
            assert_matches_reference(&g, 300, &[7, 42]);
        }
    }

    #[test]
    fn generator_bits_table_entries_equal_the_public_fns() {
        for profile in ALL_PROFILES {
            let g = SyntheticGenerator::new(profile.spec());
            let bytes = assert_tables_match(&g);
            let tabled = g.tables.iter().filter(|t| t.is_some()).count();
            if profile == Profile::GiantVocab {
                assert_eq!(tabled, 2, "only the two small fields");
            } else {
                assert_eq!(tabled, g.spec.cardinalities.len(), "{}", profile.name());
                assert!(bytes <= 130 << 10, "{}: {bytes} bytes", profile.name());
            }
            if profile == Profile::CriteoLike {
                assert!(bytes <= 73 << 10, "criteo_like: {bytes} bytes");
            }
        }
    }

    #[test]
    fn generator_bits_memorized_tables_equal_memorized_effect() {
        for profile in ALL_PROFILES {
            let g = SyntheticGenerator::new(profile.spec());
            let memorized = g
                .spec
                .planted
                .iter()
                .filter(|&&k| k == PlantedKind::Memorized);
            let (tables, bytes) = assert_effects_match(&g);
            let want = match profile {
                // GiantVocab memorizes one pair of its two small fields and
                // four that join a field of 6x10^5 values or more.
                Profile::GiantVocab => 1,
                _ => memorized.count(),
            };
            assert_eq!(tables, want, "{}: tabled pairs", profile.name());
            assert!(bytes <= 150 << 10, "{}: {bytes} bytes", profile.name());
        }
    }

    #[test]
    fn generator_bits_factorized_effect_is_the_dot_of_the_latents() {
        // The on-demand effect forms the dot without collecting `latent`'s
        // vectors; it must equal the dot of those vectors bit for bit.
        for profile in [Profile::CriteoLike, Profile::Tiny, Profile::GiantVocab] {
            let g = SyntheticGenerator::new(profile.spec());
            let k = g.spec.latent_dim as f32;
            for (p, (i, j)) in g.pairs.iter().enumerate() {
                let (ci, cj) = (g.spec.cardinalities[i], g.spec.cardinalities[j]);
                for (vi, vj) in [(0, 0), (1, cj - 1), (ci - 1, cj / 2), (ci / 3, 1)] {
                    let (zi, zj) = (g.latent(i, vi), g.latent(j, vj));
                    let dot: f32 = zi.iter().zip(&zj).map(|(a, b)| a * b).sum();
                    let expected = dot / k.sqrt() * g.spec.factorized_std;
                    let got = g.factorized_effect(i, j, vi, vj);
                    assert_eq!(
                        got.to_bits(),
                        expected.to_bits(),
                        "pair {p} at ({vi}, {vj})"
                    );
                }
            }
        }
    }

    #[test]
    fn generator_bits_hold_without_nonlinearity_and_at_latent_dims_3_and_4() {
        for (nonlinear_std, latent_dim) in [(0.0, 3), (0.0, 4), (0.5, 3), (0.5, 4)] {
            let spec = SyntheticSpec {
                nonlinear_std,
                latent_dim,
                ..tiny_spec()
            };
            let g = SyntheticGenerator::new(spec);
            assert_tables_match(&g);
            assert_matches_reference(&g, 300, &[7, 42]);
        }
    }

    #[test]
    fn generator_bits_hold_at_the_table_bound_and_one_value_past_it() {
        // Field 0 sits at the bound and gets a table, field 1 one value past
        // it does not; the largest cross-cardinality, (0, 1), is factorized,
        // so one pair reads a table entry against a hashed latent. Uniform
        // draws reach values near the bound.
        let cards = vec![TABLE_MAX_VALUES, TABLE_MAX_VALUES + 1, 8, 8];
        let planted = PlantedKind::assign_by_cardinality(&cards, 2, 2);
        assert_eq!(planted[0], PlantedKind::Factorized);
        let spec = SyntheticSpec {
            name: "bound".into(),
            cardinalities: cards,
            zipf_exponent: 0.0,
            planted,
            ..tiny_spec()
        };
        let g = SyntheticGenerator::new(spec);
        assert!(g.tables[0].is_some() && g.tables[1].is_none());
        assert_tables_match(&g);
        assert_matches_reference(&g, 300, &[7, 42]);
    }

    #[test]
    fn generator_bits_hold_for_memorized_pairs_at_the_table_bound_and_one_past_it() {
        // Pair (0, 1) has exactly 2^16 value combinations and gets a
        // table, pair (2, 3) one more (1 x 65,537, a prime) and does not;
        // (0, 2) is a small memorized pair. Uniform draws reach the far
        // corners of both.
        use PlantedKind::{Factorized as Fac, Memorized as Mem, None as Non};
        let spec = SyntheticSpec {
            name: "memorized bound".into(),
            cardinalities: vec![256, 256, 1, TABLE_MAX_VALUES + 1],
            zipf_exponent: 0.0,
            planted: vec![Mem, Mem, Fac, Non, Fac, Mem],
            ..tiny_spec()
        };
        let g = SyntheticGenerator::new(spec);
        assert_eq!(
            assert_effects_match(&g),
            (2, (TABLE_MAX_VALUES as usize + 256) * 4)
        );
        assert!(g.effects[0].is_some() && g.effects[5].is_none());
        assert_tables_match(&g);
        assert_matches_reference(&g, 300, &[7, 42]);
    }
}
