//! Core identifiers, fast hashing, and TDStore key encoding.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// User identifier.
pub type UserId = u64;
/// Item identifier.
pub type ItemId = u64;
/// Milliseconds since the stream epoch (caller-defined; never wall clock,
/// so runs are deterministic).
pub type Timestamp = u64;

/// An unordered item pair, stored canonically (smaller id first) so that
/// `pair(a, b) == pair(b, a)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ItemPair {
    /// Smaller item id.
    pub a: ItemId,
    /// Larger item id.
    pub b: ItemId,
}

impl ItemPair {
    /// Canonical pair of two distinct items. Panics when `x == y`.
    pub fn new(x: ItemId, y: ItemId) -> Self {
        assert_ne!(x, y, "an item does not pair with itself");
        if x < y {
            ItemPair { a: x, b: y }
        } else {
            ItemPair { a: y, b: x }
        }
    }

    /// The partner of `item` in this pair.
    pub fn other(&self, item: ItemId) -> ItemId {
        if item == self.a {
            self.b
        } else {
            self.a
        }
    }
}

/// An FxHash-style multiplicative hasher: much faster than SipHash for the
/// small integer keys that dominate this workload (user ids, item ids),
/// per the perf-book guidance. Not DoS-resistant — ids here are internal.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.hash = (self.hash.rotate_left(5) ^ n).wrapping_mul(SEED);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// `HashMap` with the fast hasher.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` with the fast hasher.
pub type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// Key namespaces used when algorithm state lives in TDStore. Keeping the
/// encoding in one place lets multiple bolts (and the query-side engine)
/// share the statistical data, as in the paper's Fig. 6.
pub mod keys {
    use super::{ItemId, ItemPair, UserId};

    /// A store key built on the stack. Every key format is a short tag
    /// followed by fixed-width ids (plus, for windowed counts, a session
    /// suffix), so the hot paths never allocate to name a value.
    #[derive(Clone, Copy)]
    pub struct KeyBuf {
        len: u8,
        bytes: [u8; KeyBuf::CAPACITY],
    }

    impl KeyBuf {
        /// Longest key a `KeyBuf` holds.
        pub const CAPACITY: usize = 40;

        /// A key starting with `tag`.
        pub fn new(tag: &[u8]) -> Self {
            KeyBuf {
                len: 0,
                bytes: [0; Self::CAPACITY],
            }
            .with(tag)
        }

        /// The key with `part` appended. Panics past [`Self::CAPACITY`]:
        /// key formats are fixed in this crate, so that is a bug here.
        pub fn with(mut self, part: &[u8]) -> Self {
            let end = self.len as usize + part.len();
            self.bytes[self.len as usize..end].copy_from_slice(part);
            self.len = end as u8;
            self
        }
    }

    impl std::ops::Deref for KeyBuf {
        type Target = [u8];
        fn deref(&self) -> &[u8] {
            &self.bytes[..self.len as usize]
        }
    }

    impl PartialEq for KeyBuf {
        fn eq(&self, other: &Self) -> bool {
            **self == **other
        }
    }

    impl Eq for KeyBuf {}

    impl std::fmt::Debug for KeyBuf {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            std::fmt::Debug::fmt(&**self, f)
        }
    }

    /// `itemCount(item)` accumulator.
    pub fn item_count(item: ItemId) -> KeyBuf {
        KeyBuf::new(b"ic:").with(&item.to_le_bytes())
    }

    /// `pairCount(pair)` accumulator.
    pub fn pair_count(pair: ItemPair) -> KeyBuf {
        KeyBuf::new(b"pc:")
            .with(&pair.a.to_le_bytes())
            .with(&pair.b.to_le_bytes())
    }

    /// Serialized user behaviour history.
    pub fn user_history(user: UserId) -> KeyBuf {
        KeyBuf::new(b"hist:").with(&user.to_le_bytes())
    }

    /// Serialized similar-items list of an item.
    pub fn similar_items(item: ItemId) -> KeyBuf {
        KeyBuf::new(b"sim:").with(&item.to_le_bytes())
    }

    /// Recommendation result list for a user.
    pub fn result(user: UserId) -> KeyBuf {
        KeyBuf::new(b"res:").with(&user.to_le_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_is_canonical() {
        assert_eq!(ItemPair::new(5, 2), ItemPair::new(2, 5));
        let p = ItemPair::new(7, 3);
        assert_eq!(p.a, 3);
        assert_eq!(p.b, 7);
        assert_eq!(p.other(3), 7);
        assert_eq!(p.other(7), 3);
    }

    #[test]
    #[should_panic(expected = "does not pair with itself")]
    fn self_pair_panics() {
        ItemPair::new(4, 4);
    }

    #[test]
    fn fx_hash_spreads_small_ints() {
        let mut buckets = FxHashSet::default();
        for i in 0..1000u64 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            buckets.insert(h.finish() % 64);
        }
        assert!(buckets.len() > 48, "hash should spread over buckets");
    }

    #[test]
    fn key_namespaces_disjoint() {
        let keys = [
            keys::item_count(1),
            keys::pair_count(ItemPair::new(1, 2)),
            keys::user_history(1),
            keys::similar_items(1),
            keys::result(1),
        ];
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b);
                }
            }
        }
    }

    #[test]
    fn pair_count_key_is_order_independent() {
        assert_eq!(
            keys::pair_count(ItemPair::new(9, 4)),
            keys::pair_count(ItemPair::new(4, 9))
        );
    }
}
