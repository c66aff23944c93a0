//! The workspace's one copy of its seeded hashes.
//!
//! Every deterministic draw and fingerprint in the library crates goes
//! through these helpers, because their exact bits are part of the
//! bit-identity contracts (placements, fault draws, cold-object routing
//! and report fingerprints are all pinned by value):
//!
//! * [`splitmix64`] — the SplitMix64 finalizer, a counter-based hash;
//! * [`SplitMix64`] — the sequential SplitMix64 generator over it;
//! * [`fnv1a`] / [`fnv1a_fold`] — 64-bit FNV-1a over bytes.

/// SplitMix64's state increment (the 64-bit golden ratio).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The FNV-1a-64 offset basis: the hash of the empty input.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// SplitMix64 finalizer: a pure, well-mixed hash of `z`.
#[inline]
pub fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The SplitMix64 generator: each draw advances the state by the golden
/// increment and returns [`splitmix64`] of the previous state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(GOLDEN);
        out
    }

    /// A uniform draw in `[0, 1)` from the top 53 bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Folds `bytes` into the running FNV-1a-64 hash `hash`.
#[inline]
pub fn fnv1a_fold(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a-64 of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV_OFFSET, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answers() {
        assert_eq!(SplitMix64(0).next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn stream_is_the_finalizer_over_a_golden_counter() {
        let mut rng = SplitMix64(42);
        for i in 0..8u64 {
            assert_eq!(
                rng.next_u64(),
                splitmix64(42u64.wrapping_add(i.wrapping_mul(GOLDEN)))
            );
        }
        let u = SplitMix64(7).next_f64();
        assert!((0.0..1.0).contains(&u));
    }
}
