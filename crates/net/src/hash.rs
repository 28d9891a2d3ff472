//! A small multiplicative hasher for the integer-keyed maps that dispatch
//! probes on every event: the auditor's ACK high-water marks and window
//! bounds, and each host's connection → endpoint map.
//!
//! The standard library's SipHash resists hash flooding, which matters for
//! maps keyed by outside input; these maps are keyed by the simulation's
//! own dense ids, where SipHash's dozens of rounds per probe are pure cost.
//! This is the Fx scheme (rotate, xor in a word, multiply by a large odd
//! constant): one multiply per integer written. Nothing depends on its
//! iteration order — every encoding of these maps sorts their entries
//! first — so swapping hashers changes no output byte.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The multiplier: 2⁶⁴ divided by the golden ratio, rounded to odd.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Fx-style word-at-a-time hasher (see the module docs).
#[derive(Clone, Copy, Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn hashes_are_deterministic_and_spread() {
        // Same input, same hash — across builders, so across runs.
        assert_eq!(fx((7u32, 9u32)), fx((7u32, 9u32)));
        // Dense ids land on distinct hashes and distinct top-7-bit tags
        // often enough for the table's control bytes to discriminate.
        let hashes: Vec<u64> = (0..4096u32).map(fx).collect();
        let mut sorted = hashes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), hashes.len(), "collision among dense ids");
        let mut tags = [0u32; 128];
        for h in &hashes {
            tags[(h >> 57) as usize] += 1;
        }
        assert!(
            tags.iter().all(|&n| n > 0),
            "top bits do not vary: {tags:?}"
        );
        // Pair keys are order-sensitive.
        assert_ne!(fx((1u32, 2u32)), fx((2u32, 1u32)));
    }

    #[test]
    fn map_behaves_like_a_map() {
        let mut m: FxHashMap<(u32, u32), u64> = FxHashMap::default();
        for c in 0..1000u32 {
            m.insert((c, c ^ 5), u64::from(c));
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000u32).all(|c| m[&(c, c ^ 5)] == u64::from(c)));
        assert!(!m.contains_key(&(1000, 1000 ^ 5)));
    }
}
