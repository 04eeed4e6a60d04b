//! A fast, non-cryptographic hasher for vertex-id keyed maps.
//!
//! This is the well-known "Fx" algorithm used by rustc: multiply-rotate
//! mixing, no HashDoS resistance. Vertex ids come from trusted inputs
//! (graph loaders and generators), and id-keyed map lookups sit on the
//! engine's hottest paths, so trading DoS resistance for speed is the
//! right call here (and avoids a dependency).

use std::hash::{BuildHasherDefault, Hasher};

/// Drop-in `HashMap` replacement keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Drop-in `HashSet` replacement keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx multiply-rotate hasher.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v.into());
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_to_hash(v.into());
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v.into());
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add_to_hash(v as u64);
        self.add_to_hash((v >> 64) as u64);
    }
}

/// Hashes one value with [`FxHasher`]; used for deterministic partition
/// assignment and sampling decisions.
pub fn fx_hash_one<T: std::hash::Hash>(value: &T) -> u64 {
    let mut hasher = FxHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Deterministic partition assignment for a vertex id.
pub fn partition_for<I: std::hash::Hash>(id: &I, num_partitions: usize) -> usize {
    (fx_hash_one(id) % num_partitions as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_calls() {
        assert_eq!(fx_hash_one(&42u64), fx_hash_one(&42u64));
        assert_ne!(fx_hash_one(&42u64), fx_hash_one(&43u64));
    }

    #[test]
    fn map_works() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m[&1], "one");
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn spreads_sequential_keys() {
        // Sequential ids must not all land in the same partition.
        let partitions = 8u64;
        let mut counts = vec![0usize; partitions as usize];
        for id in 0u64..1000 {
            counts[(fx_hash_one(&id) % partitions) as usize] += 1;
        }
        for (p, &c) in counts.iter().enumerate() {
            assert!(c > 50, "partition {p} got only {c} of 1000 keys");
        }
    }

    #[test]
    fn byte_stream_hashing_covers_tails() {
        // Different-length prefixes of the same buffer must hash differently.
        let data = [1u8; 17];
        let h: Vec<u64> = (0..=17)
            .map(|n| {
                let mut hasher = FxHasher::default();
                hasher.write(&data[..n]);
                hasher.finish()
            })
            .collect();
        for i in 1..h.len() {
            assert_ne!(h[i - 1], h[i], "lengths {} and {} collide", i - 1, i);
        }
    }
}
