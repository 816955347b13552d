//! Stable 64-bit hashing for content-addressed caching.
//!
//! The std `DefaultHasher` is explicitly not guaranteed stable across Rust
//! releases, and `HashMap`'s per-instance random keys make it useless for
//! cache keys that must be reproducible across processes. [`StableHasher`]
//! is a word-at-a-time multiply-fold hash in the wyhash/foldhash family
//! with fixed constants: it reads its input as little-endian 64-bit words
//! and folds each into the state with one 64×64→128-bit multiply, so its
//! values are the same on every platform and every Rust release. It is the
//! one hash of the workspace: SCC content keys, the store checksum, the
//! replay-manifest and `serve` coalescing keys, the lexer's intern memo and
//! the [`StableMap`]/[`StableSet`] map hasher all use it.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`StableHasher`] instead of SipHash: for short
/// keys the program makes itself (interned symbols, ids), where SipHash's
/// resistance to crafted collisions buys nothing and its cost shows.
pub type StableMap<K, V> = HashMap<K, V, BuildHasherDefault<StableHasher>>;

/// A `HashSet` hashed with [`StableHasher`]; see [`StableMap`].
pub type StableSet<K> = HashSet<K, BuildHasherDefault<StableHasher>>;

/// Stable 64-bit hasher. Implements [`std::hash::Hasher`] so
/// `#[derive(Hash)]` types can feed it directly.
///
/// The state starts at a fixed seed and absorbs one 64-bit word per step:
/// `state = fold(state ^ word, K)`, where `fold` multiplies to 128 bits
/// and XORs the two halves.
///
/// * **Integers.** Every integer write, whatever its width, is one word:
///   the value zero-extended from its unsigned type (a signed value is
///   first reinterpreted as the unsigned type of its width). So
///   `write_u8(7)` and `write_u64(7)` hash alike; a caller whose field can
///   hold values of different widths writes a tag first. A `u128` is two
///   words, low then high.
/// * **Byte runs.** [`Hasher::write`] reads its bytes in 8-byte
///   little-endian chunks, one word each, then folds one tail word with a
///   multiplier of its own XORed with the run's length: the last
///   `len % 8` bytes, little-endian, zero-padded. The length keeps `"ab"`
///   apart from `"ab\0"` and an empty run apart from a zero word.
/// * **Finish.** [`Hasher::finish`] folds the state once more, so every
///   output bit, the low ones a direct-mapped table indexes by included,
///   depends on the whole input.
///
/// Every method is `#[inline]`: the content hash writes a word at a time
/// from hot loops in other crates, where an out-of-line call per write
/// costs about as much as the hashing itself.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

// Fixed constants: wyhash's published secret words, each odd with 32 of
// its 64 bits set.
/// The state of a fresh hasher.
const SEED: u64 = 0xa076_1d64_78bd_642f;
/// Multiplier of a word.
const WORD: u64 = 0xe703_7ed1_a0b4_28db;
/// Multiplier of a byte run's tail word, XORed with the run's length.
const TAIL: u64 = 0x8ebc_6af0_9c88_c6e3;
/// Multiplier of [`Hasher::finish`].
const FINISH: u64 = 0x5899_65cc_7537_4cc3;

/// The 128-bit product of `a` and `b`, its two halves XORed together.
#[inline(always)]
fn fold(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher { state: SEED }
    }
}

impl StableHasher {
    /// A fresh hasher.
    #[inline]
    pub fn new() -> StableHasher {
        StableHasher::default()
    }

    /// Feeds a string (length-prefixed, so `("ab","c")` ≠ `("a","bc")`).
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }
}

impl Hasher for StableHasher {
    #[inline]
    fn finish(&self) -> u64 {
        fold(self.state, FINISH)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8 bytes"));
            h = fold(h ^ word, WORD);
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.state = fold(h ^ u64::from_le_bytes(tail), TAIL ^ bytes.len() as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.state = fold(self.state ^ v, WORD);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.write_u64(v as u64);
        self.write_u64((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// Hash of a byte slice.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write(bytes);
    h.finish()
}

/// Hash of a string.
pub fn hash_str(s: &str) -> u64 {
    hash_bytes(s.as_bytes())
}

/// Digest of a program's input files, in whatever order they come: the
/// file count, then each file's name and the hash of its text, sorted by
/// name. The store's replay manifests and `serve`'s coalescing keys both
/// fold it in.
pub fn inputs_digest<'a>(files: impl IntoIterator<Item = (&'a str, &'a str)>) -> u64 {
    let mut files: Vec<(&str, &str)> = files.into_iter().collect();
    files.sort_unstable();
    let mut h = StableHasher::new();
    h.write_usize(files.len());
    for (name, text) in files {
        h.write_str(name);
        h.write_u64(hash_str(text));
    }
    h.finish()
}

/// Combines two hashes order-sensitively (for Merkle-style chains).
pub fn combine(a: u64, b: u64) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(a);
    h.write_u64(b);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer() {
        // Pinned: a change here moves every content key and checksum.
        assert_eq!(hash_str(""), 0x2b58_40ee_88a2_b24c);
        assert_eq!(hash_str("a"), 0x0305_c3c9_c487_65df);
        assert_eq!(hash_str("foobar"), 0x85bf_9a32_c7c4_5669);
        assert_eq!(hash_str("0123456789abcdefX"), 0x9f71_3a01_615c_60d7);
        assert_eq!(combine(1, 2), 0x54d2_fb97_60eb_5e94);
    }

    #[test]
    fn write_str_is_length_prefixed() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    /// The documented rule, spelled out one byte at a time: each integer
    /// write is its value as one word, whatever its width; a byte run is
    /// its 8-byte chunks, then a tail word folded with the run's length.
    #[test]
    fn integer_writes_are_one_word_and_runs_fold_their_length_into_the_tail() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..200 {
            let v = next() >> (next() % 64);
            let (mut fast, mut model) = (StableHasher::new(), SEED);
            fast.write_u8(v as u8);
            fast.write_u16(v as u16);
            fast.write_u32(v as u32);
            fast.write_i32(v as i32);
            fast.write_i64(v as i64);
            fast.write_usize(v as usize);
            fast.write_u128(u128::from(v) << 64 | u128::from(!v));
            let words = [v & 0xff, v & 0xffff, v & 0xffff_ffff, v & 0xffff_ffff, v, v, !v, v];
            for w in words {
                model = fold(model ^ w, WORD);
            }
            assert_eq!(fast.finish(), fold(model, FINISH), "{v:#x}");

            let bytes: Vec<u8> = (0..next() % 40).map(|_| next() as u8).collect();
            let mut fast = StableHasher::new();
            fast.write(&bytes);
            let mut model = SEED;
            let whole = bytes.len() / 8 * 8;
            for chunk in bytes[..whole].chunks(8) {
                let word = chunk.iter().rev().fold(0u64, |w, &b| w << 8 | u64::from(b));
                model = fold(model ^ word, WORD);
            }
            let tail = bytes[whole..].iter().rev().fold(0u64, |w, &b| w << 8 | u64::from(b));
            model = fold(model ^ tail, TAIL ^ bytes.len() as u64);
            assert_eq!(fast.finish(), fold(model, FINISH), "{bytes:?}");
        }
    }

    #[test]
    fn inputs_digest_ignores_order_but_sees_names_and_texts() {
        let files = [("a.c", "int x;"), ("b.h", "")];
        let d = inputs_digest(files);
        assert_eq!(d, inputs_digest(files.into_iter().rev()));
        assert_ne!(d, inputs_digest([("a.c", "int y;"), ("b.h", "")]));
        assert_ne!(d, inputs_digest([("a.c", "int x;"), ("c.h", "")]));
        assert_ne!(d, inputs_digest([("a.c", "int x;")]));
    }

    #[test]
    fn combine_is_order_sensitive() {
        assert_ne!(combine(1, 2), combine(2, 1));
    }

    /// About a million structured inputs, no two alike, hash to about a
    /// million distinct values: none may collide.
    #[test]
    fn structured_inputs_do_not_collide() {
        let mut hashes: Vec<u64> = Vec::with_capacity(1_200_000);
        // Integer sequences of length 0 to 3 over 0..100, each element
        // written at a width picked by its position and value; the width
        // must not matter, so the sequences are told apart by value alone.
        let widths = |h: &mut StableHasher, i: usize, v: u64| match (i + v as usize) % 4 {
            0 => h.write_u8(v as u8),
            1 => h.write_u16(v as u16),
            2 => h.write_u32(v as u32),
            _ => h.write_u64(v),
        };
        hashes.push(StableHasher::new().finish());
        for a in 0..100 {
            let mut h1 = StableHasher::new();
            widths(&mut h1, 0, a);
            hashes.push(h1.finish());
            for b in 0..100 {
                let mut h2 = h1.clone();
                widths(&mut h2, 1, b);
                hashes.push(h2.finish());
                for c in 0..100 {
                    let mut h3 = h2.clone();
                    widths(&mut h3, 2, c);
                    hashes.push(h3.finish());
                }
            }
        }
        // Byte runs of length 0 to 24: an all-zero and a mixed base of each
        // length, and every string that differs from a base in one byte
        // (the two families share a few short strings; the set keeps one).
        let mut runs = std::collections::BTreeSet::new();
        for base_byte in [|_: usize| 0u8, |i: usize| (i as u8).wrapping_mul(97) ^ 0x5a] {
            for len in 0..=24 {
                let base: Vec<u8> = (0..len).map(base_byte).collect();
                for at in 0..len {
                    for v in 0..=255u8 {
                        let mut s = base.clone();
                        s[at] = v;
                        runs.insert(s);
                    }
                }
                runs.insert(base);
            }
        }
        hashes.extend(runs.iter().map(|s| hash_bytes(s)));
        // Every way to split one 24-byte string into two length-prefixed
        // strings.
        let text = "abcdefghijklmnopqrstuvwx";
        for cut in 0..=text.len() {
            let mut h = StableHasher::new();
            h.write_str(&text[..cut]);
            h.write_str(&text[cut..]);
            hashes.push(h.finish());
        }
        let n = hashes.len();
        assert!(n > 1_000_000, "{n} inputs");
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), n, "{} collisions among {n} inputs", n - hashes.len());

        // The boundary cases by name.
        assert_ne!(hash_str("ab"), hash_str("ab\0"));
        assert_ne!(hash_bytes(&[0; 7]), hash_bytes(&[0; 8]));
        let mut empty = StableHasher::new();
        empty.write(&[]);
        let mut zero = StableHasher::new();
        zero.write_u64(0);
        assert_ne!(empty.finish(), zero.finish());
    }
}
