//! The one hasher of the operator tables: a folded multiply.
//!
//! Every `smoke-core` operator table keyed by base data — ⋈ht
//! ([`crate::ops::join`]), γ's hashed key modes and §4.2 cell tables, and
//! the gid maps of the morsel merge and the artifacts
//! ([`crate::ops::groupby`]) — is a std `HashMap` over [`FoldMap`]'s
//! [`FoldHasher`]. A word is hashed as one 64×64→128-bit multiply by an odd
//! constant whose high and low halves are XORed together, so every input
//! bit reaches the low bits hashbrown buckets on: keys that differ only in
//! their high bits (`k << 32`) spread, which a plain multiply (or an
//! FxHash-style `(h.rotl(5) ^ x) * K`) would pile into one bucket.
//!
//! The hasher is fixed, not randomly seeded. That is sound only for keys
//! the engine reads from base relations: a request can name which rows are
//! traced, but not the values these tables hash. Tables keyed by request
//! literals or request text keep `RandomState` — the server's result cache,
//! [`crate::CardinalityHints::per_key`], [`crate::CaptureConfig::per_table`]
//! — as do [`crate::HashKey::hash64`] (grace partitioning) and the pager's
//! page table.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A std `HashMap` over the [`FoldHasher`].
pub(crate) type FoldMap<K, V> = HashMap<K, V, BuildHasherDefault<FoldHasher>>;

/// The digits of π: odd, with no structure a key is likely to share.
const MULTIPLIER: u64 = 0x243f_6a88_85a3_08d3;
/// The state before the first word, so that a zero key does not hash to 0.
const SEED: u64 = 0x1319_8a2e_0370_7344;

/// Folded multiply over each 64-bit word written (see the module doc).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FoldHasher {
    state: u64,
}

impl Default for FoldHasher {
    fn default() -> Self {
        FoldHasher { state: SEED }
    }
}

impl FoldHasher {
    #[inline]
    fn word(&mut self, x: u64) {
        let product = u128::from(self.state ^ x) * u128::from(MULTIPLIER);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for FoldHasher {
    /// Folds `bytes` 8 at a time (the tail zero-padded), then their length,
    /// so `&str` and [`crate::HashKey`] keys hash too.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.word(u64::from_le_bytes(word));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.word(u64::from_le_bytes(word));
        }
        self.word(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.word(u64::from(x));
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.word(u64::from(x));
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.word(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.word(x);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.word(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    use crate::key::{HashKey, KeyPart};

    /// Keys per shape: one per low-16-bit bucket on average.
    const KEYS: i64 = 1 << 16;
    /// Most keys any low-16-bit bucket may hold.
    const BOUND: usize = 32;

    /// The FxHash-style step the fold replaces, kept to show the check
    /// below catches it.
    #[derive(Default)]
    struct RotateMultiply(u64);

    impl Hasher for RotateMultiply {
        fn write(&mut self, bytes: &[u8]) {
            bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
        }
        fn write_u64(&mut self, x: u64) {
            self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
        fn finish(&self) -> u64 {
            self.0
        }
    }

    /// The most keys any bucket holds when buckets are the low 16 bits of
    /// the hash, as in a hashbrown table of 65,536 buckets.
    fn max_bucket_load<H: Hasher + Default, K: Hash>(keys: impl Iterator<Item = K>) -> usize {
        let build = BuildHasherDefault::<H>::default();
        let mut load = vec![0usize; 1 << 16];
        for key in keys {
            load[(build.hash_one(key) & 0xffff) as usize] += 1;
        }
        load.into_iter().max().unwrap_or(0)
    }

    fn shapes<H: Hasher + Default>() -> Vec<(&'static str, usize)> {
        vec![
            ("k", max_bucket_load::<H, _>(0..KEYS)),
            (
                "k << 32",
                max_bucket_load::<H, _>((0..KEYS).map(|k| k << 32)),
            ),
            (
                "k << 48",
                max_bucket_load::<H, _>((0..KEYS).map(|k| k << 48)),
            ),
            ("-k", max_bucket_load::<H, _>((0..KEYS).map(|k| -k))),
            ("(k, 0)", max_bucket_load::<H, _>((0..KEYS).map(|k| (k, 0)))),
            ("(0, k)", max_bucket_load::<H, _>((0..KEYS).map(|k| (0, k)))),
            (
                "HashKey::Int(k << 32)",
                max_bucket_load::<H, _>((0..KEYS).map(|k| HashKey::Int(k << 32))),
            ),
            (
                "(gid, HashKey) cells",
                max_bucket_load::<H, _>((0..KEYS).map(|k| {
                    let parts = vec![KeyPart::Int(k >> 8), KeyPart::Int(k << 40)];
                    ((k & 0xff) as u32, HashKey::Composite(parts))
                })),
            ),
            (
                "shared-prefix strings",
                max_bucket_load::<H, _>((0..KEYS).map(|k| format!("customer#{k:012}"))),
            ),
        ]
    }

    #[test]
    fn adversarial_keys_spread_over_low_bits() {
        for (shape, load) in shapes::<FoldHasher>() {
            assert!(load <= BOUND, "{shape}: {load} keys in one bucket");
        }
    }

    #[test]
    fn the_spread_check_catches_a_rotate_multiply_hasher() {
        let shapes = shapes::<RotateMultiply>();
        let (_, load) = shapes.iter().find(|(s, _)| *s == "k << 32").unwrap();
        assert_eq!(*load, KEYS as usize, "every k << 32 key in one bucket");
        assert!(shapes.iter().any(|&(_, load)| load > BOUND));
    }

    #[test]
    fn byte_strings_differ_by_length_and_content() {
        let build = BuildHasherDefault::<FoldHasher>::default();
        let hash = |bytes: &[u8]| {
            let mut h = build.build_hasher();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(hash(b"ab"), hash(b"ab\0"));
        assert_ne!(hash(b"abcdefgh"), hash(b"abcdefgi"));
        assert_ne!(hash(b""), hash(b"\0"));
        assert_eq!(hash(b"abcdefghij"), hash(b"abcdefghij"));
    }
}
