//! Deterministic hash-based pseudo-random number generation.
//!
//! The planted ground-truth model needs a weight for *every possible*
//! feature value and cross-value combination — far too many to materialise.
//! Instead, weights are defined as pure functions of `(seed, identifiers)`
//! through SplitMix64, so any weight can be recomputed on demand and the
//! ground truth is fully deterministic.

pub use optinter_tensor::hash::splitmix64;
use optinter_tensor::hash::MULT;

/// The largest dense table in the crate, in entries. The generator
/// tabulates a field's per-value ground truth, and a memorized pair's
/// per-combination effect, when it has at most this many; the encoder
/// counts and numbers a pair's crosses in dense buffers when the pair has
/// at most this many cells. Past it, values are hashed: on demand in the
/// generator, through an [`OpenTable`] in the encoder.
pub(crate) const TABLE_MAX_VALUES: u32 = 1 << 16;

/// Combines a seed with up to four identifiers into one well-mixed u64.
pub fn combine(seed: u64, parts: &[u64]) -> u64 {
    let mut h = splitmix64(seed ^ 0xD1B5_4A32_D192_ED03);
    for &p in parts {
        h = splitmix64(h ^ p.wrapping_mul(MULT));
    }
    h
}

/// Uniform value in `[0, 1)` derived from a hash.
#[inline]
pub fn hash_unit(h: u64) -> f32 {
    // Use the top 24 bits for an exactly-representable f32 in [0, 1).
    (h >> 40) as f32 / (1u64 << 24) as f32
}

/// Approximately standard-normal value derived from a hash.
///
/// Sum of four independent uniforms, centred and scaled (Irwin–Hall with
/// n = 4 has variance 1/3; scaling by sqrt(3) gives unit variance). The
/// tails are lighter than a true Gaussian, which is fine for planting
/// effect weights.
pub fn hash_normal(seed: u64, parts: &[u64]) -> f32 {
    let h = combine(seed, parts);
    let u1 = hash_unit(h);
    let u2 = hash_unit(splitmix64(h ^ 1));
    let u3 = hash_unit(splitmix64(h ^ 2));
    let u4 = hash_unit(splitmix64(h ^ 3));
    (u1 + u2 + u3 + u4 - 2.0) * (3.0f32).sqrt()
}

/// Deterministic open-addressing map from `u64` keys to **non-zero** `u32`
/// values.
///
/// The vocabularies count and look up values in it instead of
/// `std::collections::HashMap`. `std`'s map is doubly unsuitable there:
/// SipHash burns ~2ns per probe on a workload that does millions of them,
/// and its per-process random seed makes iteration order nondeterministic.
/// This table uses a fixed, seed-free multiply-shift hash, so both lookups
/// and slot layout are pure functions of the inserted data — byte-identical
/// across runs, machines and thread counts.
///
/// The value 0 is reserved as the empty-slot marker. That restriction is
/// free for every user: *counts* of seen values are at least 1, and *ids*
/// start at 1 because local id 0 is the OOV bucket — so
/// [`OpenTable::get`] returning 0 for an absent key is exactly the OOV
/// encoding.
#[derive(Debug, Clone)]
pub struct OpenTable {
    /// Slot keys; meaningful only where the matching value is non-zero.
    keys: Vec<u64>,
    /// Slot values; 0 marks an empty slot.
    vals: Vec<u32>,
    /// `64 - log2(capacity)`, the multiply-shift right-shift amount.
    shift: u32,
    len: usize,
}

impl OpenTable {
    /// Initial capacity (slots). Must be a power of two.
    const MIN_CAPACITY: usize = 16;

    /// Creates an empty table.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty table pre-sized so that up to `keys` distinct keys
    /// can be inserted without a growth rehash. `keys` is a hint: it bounds
    /// nothing, it only avoids rehashing below it.
    pub fn with_capacity(keys: usize) -> Self {
        // Smallest power of two holding `keys` under the 7/8 load cap.
        let mut cap = Self::MIN_CAPACITY;
        while cap * 7 < keys * 8 {
            cap *= 2;
        }
        Self {
            keys: vec![0; cap],
            vals: vec![0; cap],
            shift: 64 - cap.trailing_zeros(),
            len: 0,
        }
    }

    /// Number of occupied slots (distinct keys).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no key has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Home slot of a key: fixed multiply-shift into the top bits.
    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(MULT) >> self.shift) as usize
    }

    /// Index of the slot holding `key`, or of the empty slot where it would
    /// be inserted (linear probing; the load factor cap guarantees one).
    #[inline]
    fn probe(&self, key: u64) -> usize {
        let mask = self.keys.len() - 1;
        let mut i = self.home(key);
        loop {
            // lint: allow(panic-free, reason="in bounds by construction: home() multiply-shifts into 0..len and the probe wraps with the power-of-two mask")
            if self.vals[i] == 0 || self.keys[i] == key {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Value stored for `key`; 0 when absent.
    #[inline]
    pub fn get(&self, key: u64) -> u32 {
        let i = self.probe(key);
        // lint: allow(panic-free, reason="probe() returns an in-bounds slot (power-of-two mask)")
        if self.vals[i] == 0 {
            0
        } else {
            // lint: allow(panic-free, reason="probe() returns an in-bounds slot (power-of-two mask)")
            self.vals[i]
        }
    }

    /// Adds `delta` to the count stored for `key`, inserting it at `delta`
    /// when absent. `delta` must be non-zero.
    #[inline]
    pub fn add(&mut self, key: u64, delta: u32) {
        debug_assert!(delta != 0, "OpenTable: zero is the empty marker");
        let i = self.probe(key);
        if self.vals[i] == 0 {
            self.keys[i] = key;
            self.vals[i] = delta;
            self.len += 1;
            self.maybe_grow();
        } else {
            self.vals[i] += delta;
        }
    }

    /// Inserts `key -> val` (non-zero), overwriting any previous value.
    #[inline]
    pub fn insert(&mut self, key: u64, val: u32) {
        debug_assert!(val != 0, "OpenTable: zero is the empty marker");
        let i = self.probe(key);
        if self.vals[i] == 0 {
            self.keys[i] = key;
            self.vals[i] = val;
            self.len += 1;
            self.maybe_grow();
        } else {
            self.vals[i] = val;
        }
    }

    /// Doubles the capacity once occupancy passes 7/8 of the slots.
    fn maybe_grow(&mut self) {
        if self.len * 8 <= self.keys.len() * 7 {
            return;
        }
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_cap]);
        let old_vals = std::mem::replace(&mut self.vals, vec![0; new_cap]);
        self.shift = 64 - new_cap.trailing_zeros();
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if v != 0 {
                let i = self.probe(k);
                self.keys[i] = k;
                self.vals[i] = v;
            }
        }
    }

    /// Every stored `(key, value)`, in slot order: a pure function of the
    /// inserted keys and their insertion order. Empty slots are skipped, so
    /// every value is non-zero.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.keys
            .iter()
            .zip(&self.vals)
            .filter(|&(_, &v)| v != 0)
            .map(|(&k, &v)| (k, v))
    }
}

impl Default for OpenTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combine_depends_on_all_parts() {
        let a = combine(7, &[1, 2, 3]);
        assert_ne!(a, combine(7, &[1, 2, 4]));
        assert_ne!(a, combine(7, &[2, 1, 3]));
        assert_ne!(a, combine(8, &[1, 2, 3]));
        assert_eq!(a, combine(7, &[1, 2, 3]));
    }

    #[test]
    fn hash_unit_in_range() {
        for i in 0..1000u64 {
            let u = hash_unit(splitmix64(i));
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn hash_normal_moments() {
        let n = 20_000u64;
        let xs: Vec<f32> = (0..n).map(|i| hash_normal(99, &[i])).collect();
        let mean = xs.iter().sum::<f32>() / n as f32;
        let var = xs.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn open_table_counts_and_lookups() {
        let mut t = OpenTable::new();
        assert!(t.is_empty());
        t.add(42, 1);
        t.add(42, 1);
        t.add(7, 3);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(42), 2);
        assert_eq!(t.get(7), 3);
        assert_eq!(t.get(8), 0, "absent key reads as 0");
    }

    #[test]
    fn open_table_insert_overwrites() {
        let mut t = OpenTable::new();
        t.insert(5, 10);
        t.insert(5, 11);
        assert_eq!(t.get(5), 11);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn open_table_grows_past_initial_capacity() {
        let mut t = OpenTable::new();
        // Far beyond MIN_CAPACITY, including keys that collide in the top
        // bits before growth.
        for k in 0..10_000u64 {
            t.add(k.wrapping_mul(0x10_0000_0001), 1);
            t.add(k.wrapping_mul(0x10_0000_0001), 2);
        }
        assert_eq!(t.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(t.get(k.wrapping_mul(0x10_0000_0001)), 3, "key {k}");
        }
    }

    #[test]
    fn open_table_matches_std_hashmap() {
        use std::collections::HashMap;
        let mut t = OpenTable::new();
        let mut reference: HashMap<u64, u32> = HashMap::new();
        // A deterministic pseudo-random workload with repeats.
        for i in 0..5_000u64 {
            let key = splitmix64(i) % 700;
            t.add(key, 1);
            *reference.entry(key).or_insert(0) += 1;
        }
        assert_eq!(t.len(), reference.len());
        for (&k, &v) in &reference {
            assert_eq!(t.get(k), v, "key {k}");
        }
        // The stored entries, sorted, are the sorted HashMap view.
        let mut expect: Vec<(u64, u32)> = reference.iter().map(|(&k, &v)| (k, v)).collect();
        expect.sort_unstable();
        let mut got: Vec<(u64, u32)> = t.iter().collect();
        got.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn with_capacity_presizes_and_still_grows() {
        let mut t = OpenTable::with_capacity(1000);
        let cap = t.keys.len();
        assert!(cap * 7 >= 1000 * 8 / 8 * 8 && cap.is_power_of_two());
        for k in 0..1000u64 {
            t.add(splitmix64(k), 1);
        }
        assert_eq!(t.keys.len(), cap, "no rehash below the hint");
        for k in 1000..5000u64 {
            t.add(splitmix64(k), 1);
        }
        assert_eq!(t.len(), 5000, "growth past the hint still works");
        for k in 0..5000u64 {
            assert_eq!(t.get(splitmix64(k)), 1);
        }
    }

    #[test]
    fn open_table_iter_holds_key_zero_and_skips_empty_slots() {
        // Key 0 is a valid key (raw value 0, or a pair's cell 0) and must
        // not be confused with the empty-slot marker; the empty slots, whose
        // keys also read 0, must not show up at all.
        let mut t = OpenTable::new();
        assert_eq!(t.iter().count(), 0);
        t.add(0, 5);
        assert_eq!(t.get(0), 5);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(0, 5)]);
    }

    #[test]
    fn hash_unit_roughly_uniform() {
        let n = 10_000u64;
        let mut buckets = [0u32; 10];
        for i in 0..n {
            let u = hash_unit(combine(5, &[i]));
            buckets[(u * 10.0) as usize] += 1;
        }
        for (b, &count) in buckets.iter().enumerate() {
            let expected = n as f32 / 10.0;
            assert!(
                (count as f32 - expected).abs() < expected * 0.15,
                "bucket {b}: {count}"
            );
        }
    }
}
