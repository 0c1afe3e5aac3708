//! A deterministic FxHash-style hasher for the simulator's hot-path maps.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3 with per-instance
//! random keys — a sound default for servers parsing untrusted input, but
//! pure overhead here: every key hashed on the simulator's hot path is an
//! internal integer id (`TermKey`, `QueryId`, slot ids), so there is no
//! attacker-controlled input to defend against, and SipHash's 64-bit
//! rounds dominate the probe cost of small keys. [`FxHasher`] is the
//! Firefox/rustc multiply-rotate hash: one rotate, one xor and one
//! multiply per word, with a **fixed** (keyless) state.
//!
//! Determinism note: none of the simulated figures depends on map
//! iteration order (runs are bit-identical under SipHash's per-instance
//! random keys, which already proves order independence; the few
//! order-sensitive consumers such as log analysis sort with explicit
//! tie-breaks). Swapping the hasher therefore changes wall-clock time
//! only, never a simulated quantity — every committed figure reproduced
//! after the swap, and `golden_ledger` pins them since.

use std::hash::{BuildHasherDefault, Hasher};

/// rustc-fx's 64-bit mixing constant (a truncation of π's digits, chosen
/// empirically by the Firefox authors for avalanche on short inputs).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
/// Rotation distance applied before each word is folded in.
const ROTATE: u32 = 5;

/// The FxHash streaming hasher: keyless, deterministic across processes.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    /// Byte-slice fallback: fold 8-byte words, then the zero-padded tail.
    /// Integer keys never reach this — they take the `write_uN` fast
    /// paths below — but `#[derive(Hash)]` keys with embedded slices do.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add_to_hash(u64::from_le_bytes(word));
        }
        // Fold the length so "ab" + "c" and "a" + "bc" differ.
        self.add_to_hash(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// A `BuildHasher` producing [`FxHasher`]s; zero-sized and `Default`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
#[expect(
    clippy::disallowed_types,
    reason = "with a keyless hasher, iteration order repeats from run to run"
)]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
#[expect(
    clippy::disallowed_types,
    reason = "with a keyless hasher, iteration order repeats from run to run"
)]
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Hash one value with the fixed Fx state — the sketch crates use this
/// for row hashing where a full `BuildHasher` plumb-through is noise.
pub fn hash_one<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_deterministic_across_instances() {
        // The whole point of the swap: no per-instance random keys.
        assert_eq!(hash_one(&42u64), hash_one(&42u64));
        let a: FxHashMap<u32, u32> = [(1, 10), (2, 20), (3, 30)].into_iter().collect();
        let b: FxHashMap<u32, u32> = [(3, 30), (1, 10), (2, 20)].into_iter().collect();
        assert_eq!(a, b);
        let ka: Vec<u32> = a.keys().copied().collect();
        let kb: Vec<u32> = {
            let c: FxHashMap<u32, u32> = [(1, 10), (2, 20), (3, 30)].into_iter().collect();
            c.keys().copied().collect()
        };
        assert_eq!(ka, kb, "identical insertion order gives identical layout");
    }

    #[test]
    fn distinct_keys_hash_apart() {
        let mut seen = FxHashSet::default();
        for k in 0u64..10_000 {
            assert!(seen.insert(hash_one(&k)), "collision at {k}");
        }
    }

    #[test]
    fn tail_and_length_disambiguate_slices() {
        assert_ne!(hash_one(&[1u8, 2, 3][..]), hash_one(&[1u8, 2][..]));
        assert_ne!(hash_one(&[1u8, 0][..]), hash_one(&[1u8][..]));
        assert_ne!(hash_one(&"ab"), hash_one(&"ba"));
    }

    #[test]
    fn map_and_set_aliases_behave() {
        let mut m: FxHashMap<(u32, u32), u64> = FxHashMap::default();
        m.insert((7, 9), 1);
        assert_eq!(m.get(&(7, 9)), Some(&1));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(5));
        assert!(!s.insert(5));
    }
}
