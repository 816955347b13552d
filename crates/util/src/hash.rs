//! Stable 64-bit hashing for content-addressed caching.
//!
//! The std `DefaultHasher` is explicitly not guaranteed stable across Rust
//! releases, and `HashMap`'s per-instance random keys make it useless for
//! cache keys that must be reproducible across processes. FNV-1a is tiny,
//! fast on the short keys the analysis hashes (IR instruction streams,
//! names, id lists), and bit-stable forever.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`Fnv64`] instead of SipHash: for short keys
/// the program makes itself (interned symbols, ids), where SipHash's
/// resistance to crafted collisions buys nothing and its cost shows.
pub type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<Fnv64>>;

/// A `HashSet` hashed with [`Fnv64`]; see [`FnvMap`].
pub type FnvSet<K> = HashSet<K, BuildHasherDefault<Fnv64>>;

/// 64-bit FNV-1a hasher. Implements [`std::hash::Hasher`] so `#[derive(Hash)]`
/// types can feed it directly.
///
/// Every method is `#[inline]`: the content hash writes a few bytes at a
/// time from hot loops in other crates, where an out-of-line call per
/// write costs about as much as the hashing itself.
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME` to the powers 0 through 8: hashing `k` zero bytes
/// multiplies the state by `PRIME_POWERS[k]`.
const PRIME_POWERS: [u64; 9] = {
    let mut p = [1u64; 9];
    let mut i = 1;
    while i < 9 {
        p[i] = p[i - 1].wrapping_mul(FNV_PRIME);
        i += 1;
    }
    p
};

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }
}

impl Fnv64 {
    /// A fresh hasher.
    #[inline]
    pub fn new() -> Fnv64 {
        Fnv64::default()
    }

    /// Feeds a string (length-prefixed, so `("ab","c")` ≠ `("a","bc")`).
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Current hash value (same as [`Hasher::finish`], without consuming).
    #[inline]
    pub fn value(&self) -> u64 {
        self.state
    }
}

impl Hasher for Fnv64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.state;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.state = h;
    }

    /// The little-endian bytes of `v`, as [`Hasher::write`] would hash
    /// them. XOR with a zero byte is the identity, so the high zero bytes
    /// of a small value fold into one multiply by a power of the prime.
    #[inline]
    fn write_u64(&mut self, v: u64) {
        let n = 8 - (v.leading_zeros() / 8) as usize;
        self.write(&v.to_le_bytes()[..n]);
        self.state = self.state.wrapping_mul(PRIME_POWERS[8 - n]);
    }

    /// As [`Fnv64::write_u64`], over four bytes.
    #[inline]
    fn write_u32(&mut self, v: u32) {
        let n = 4 - (v.leading_zeros() / 8) as usize;
        self.write(&v.to_le_bytes()[..n]);
        self.state = self.state.wrapping_mul(PRIME_POWERS[4 - n]);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// Hash of a byte slice.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Hash of a string.
pub fn hash_str(s: &str) -> u64 {
    hash_bytes(s.as_bytes())
}

/// Combines two hashes order-sensitively (for Merkle-style chains).
pub fn combine(a: u64, b: u64) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(a);
    h.write_u64(b);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer() {
        // FNV-1a 64 reference vectors.
        assert_eq!(hash_str(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash_str("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash_str("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn write_str_is_length_prefixed() {
        let mut a = Fnv64::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    /// The integer writers fold high zero bytes; they must still hash
    /// exactly the bytes `write` would.
    #[test]
    fn integer_writes_hash_their_le_bytes() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut values = vec![0, 1, 0xff, 0x100, u64::MAX, 1 << 63, i64::MIN as u64];
        for _ in 0..200 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            values.push(x >> (x % 64));
        }
        for v in values {
            let (mut fast, mut bytes) = (Fnv64::new(), Fnv64::new());
            fast.write_u8(7);
            bytes.write_u8(7);
            fast.write_u64(v);
            bytes.write(&v.to_le_bytes());
            fast.write_u32(v as u32);
            bytes.write(&(v as u32).to_le_bytes());
            fast.write_i64(v as i64);
            bytes.write(&v.to_le_bytes());
            fast.write_usize(v as usize);
            bytes.write(&(v as usize as u64).to_le_bytes());
            assert_eq!(fast.finish(), bytes.finish(), "{v:#x}");
        }
    }

    #[test]
    fn combine_is_order_sensitive() {
        assert_ne!(combine(1, 2), combine(2, 1));
    }
}
