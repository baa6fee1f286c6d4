//! The workspace's one deterministic hasher, for keys the program
//! generates itself.
//!
//! [`DetHasher`] folds its input eight bytes at a time with an FNV-style
//! step (`h = (h ^ word) * FNV_PRIME`) and finishes with the 64-bit
//! finaliser of MurmurHash3. Compared with the standard library's
//! SipHash it does one multiply per word instead of several rounds per
//! word, it needs no per-map random keys, and the same input hashes to
//! the same value in every process.
//!
//! **Generated keys only.** The hasher is unkeyed, so anyone who controls
//! the keys can make them collide on purpose and turn every lookup into
//! a scan. It serves maps whose keys come from the generated world — the
//! corpus's hostnames and paths, the crawler's visited links, the build's
//! interned hostnames and URL rows — and must never key a map filled from
//! outside input, such as anything derived from a request to the server.
//! Those keep the standard library's randomly keyed `RandomState`.
//!
//! The hash only ever picks a bucket: every map using it still compares
//! keys for equality, so switching hashers changes speed, never which
//! entries exist.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The FNV-1a 64-bit offset basis: the state of a fresh [`DetHasher`].
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// The 64-bit finaliser of MurmurHash3: spreads every input bit over the
/// whole word, so both the bucket bits and the control bits a `HashMap`
/// reads from a hash are well mixed.
fn mix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The deterministic hasher: an FNV-style pass over 64-bit words, then
/// the MurmurHash3 finaliser. See the [module docs](self) for where it may be used.
///
/// `u8`, `u64` and `usize` writes (string terminators, enum
/// discriminants, lengths, pre-packed words) fold in as one word each;
/// other integers go through the byte-slice path. A byte slice folds in
/// its length and then its bytes eight at a time, the last word
/// zero-padded; the length makes the encoding prefix-free, so `"ab"`
/// followed by `"c"` cannot hash like `"a"` followed by `"bc"`.
///
/// ```
/// use govhost_types::hash::DetHashSet;
/// use govhost_types::Url;
/// let mut seen: DetHashSet<Url> = DetHashSet::default();
/// assert!(seen.insert("https://a.gov/".parse().unwrap()));
/// assert!(!seen.insert("https://a.gov/".parse().unwrap()));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DetHasher(u64);

impl Default for DetHasher {
    fn default() -> Self {
        DetHasher(FNV_OFFSET)
    }
}

impl DetHasher {
    /// Fold one word into the state.
    #[inline]
    fn step(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(FNV_PRIME);
    }
}

impl Hasher for DetHasher {
    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.0)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.step(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.step(u64::from_le_bytes(word.try_into().expect("chunks of eight")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.step(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.step(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.step(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.step(n as u64);
    }
}

/// Builds [`DetHasher`]s; the `S` parameter of a deterministic map.
pub type DetBuildHasher = BuildHasherDefault<DetHasher>;

/// A `HashMap` over generated keys, hashed with [`DetHasher`].
pub type DetHashMap<K, V> = HashMap<K, V, DetBuildHasher>;

/// A `HashSet` over generated keys, hashed with [`DetHasher`].
pub type DetHashSet<K> = HashSet<K, DetBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        DetBuildHasher::default().hash_one(value)
    }

    #[test]
    fn the_hash_is_the_fnv_step_plus_the_finaliser() {
        // No per-process key: the hash is a pure function of the input.
        assert_eq!(DetHasher::default().finish(), mix64(FNV_OFFSET));
        let mut h = DetHasher::default();
        h.write_u64(1);
        assert_eq!(h.finish(), mix64((FNV_OFFSET ^ 1).wrapping_mul(FNV_PRIME)));
    }

    #[test]
    fn byte_slices_are_prefix_free() {
        let split = |a: &[u8], b: &[u8]| {
            let mut h = DetHasher::default();
            h.write(a);
            h.write(b);
            h.finish()
        };
        assert_ne!(split(b"ab", b"c"), split(b"a", b"bc"));
        assert_ne!(hash_of(&[0u8; 0][..]), hash_of(&[0u8][..]), "a zero tail is not padding");
        assert_ne!(hash_of("abcdefgh"), hash_of("abcdefgh\0"));
    }

    #[test]
    fn equal_keys_hash_equal_whatever_their_form() {
        let owned = String::from("/tramites/start");
        assert_eq!(hash_of(&owned), hash_of("/tramites/start"), "String and &str agree");
        let url: crate::Url = "https://www.gub.uy/tramites".parse().unwrap();
        assert_eq!(hash_of(&url), hash_of(&&url), "a borrowed key hashes like the key");
        let twin = crate::Url::new(crate::url::Scheme::Http, url.hostname().clone(), url.path());
        assert_ne!(hash_of(&url), hash_of(&twin), "the scheme is part of the key");
    }
}
