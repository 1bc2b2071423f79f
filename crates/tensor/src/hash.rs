//! The integer hashing both upper layers build on: the data generator's
//! pure-function weights and open-addressing table (`optinter-data`) and
//! the double-hash embedding store (`optinter-nn`).

/// Fibonacci multiplier (2⁶⁴ / φ): SplitMix64's increment and the
/// classic multiply-shift constant.
pub const MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// One round of the SplitMix64 mixing function.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(MULT);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_is_the_reference_mixer() {
        // The first outputs of the SplitMix64 reference generator seeded
        // with 0, whose state advances by `MULT` before each mix.
        let mut state = 0u64;
        let mut next = || {
            let out = splitmix64(state);
            state = state.wrapping_add(MULT);
            out
        };
        assert_eq!(next(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(next(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(next(), 0x06C4_5D18_8009_454F);
        // Single-bit input changes flip many output bits.
        let diff = (splitmix64(1) ^ splitmix64(0)).count_ones();
        assert!(diff > 16, "poor avalanche: {diff} bits");
    }
}
