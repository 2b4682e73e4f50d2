//! Core identifiers and fast hashing.

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

/// Keeps the `k` least elements of `v` under the total order `cmp`, in
/// order: a selection, then a sort of only what is kept.
pub(crate) fn keep_least<T>(v: &mut Vec<T>, k: usize, cmp: impl Fn(&T, &T) -> std::cmp::Ordering) {
    if v.len() > k {
        v.select_nth_unstable_by(k, &cmp);
        v.truncate(k);
    }
    v.sort_unstable_by(cmp);
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
        use crate::topology::state::*;
        let (pair, session) = (ItemPair::new(3, 9), 77);
        let parts =
            |ids: [u64; 2], cell: [u8; 2], session: Option<u64>| KeyParts { ids, cell, session };
        let windowed = |base: KeyBuf| session_key(&base, session);
        let keys = [
            (
                Family::ItemCount,
                windowed(item_count(3)),
                parts([3, 0], [0; 2], Some(session)),
            ),
            (
                Family::PairCount,
                windowed(pair_count(pair)),
                parts([3, 9], [0; 2], Some(session)),
            ),
            (
                Family::History,
                user_history(5),
                parts([5, 0], [0; 2], None),
            ),
            (
                Family::SimList,
                similar_items(3),
                parts([3, 0], [0; 2], None),
            ),
            (
                Family::HotList,
                hot_list(4, session),
                parts([4, 0], [0; 2], Some(session)),
            ),
            (
                Family::GroupCount,
                windowed(hot(4, 3)),
                parts([4, 3], [0; 2], Some(session)),
            ),
            (
                Family::CbProfile,
                cb_profile(5),
                parts([5, 0], [0; 2], None),
            ),
            (Family::CbSeen, cb_seen(5), parts([5, 0], [0; 2], None)),
            (
                Family::CtrImps,
                windowed(ctr_imps(3, 1, 2)),
                parts([3, 0], [1, 2], Some(session)),
            ),
            (
                Family::CtrClicks,
                windowed(ctr_clicks(3, 1, 2)),
                parts([3, 0], [1, 2], Some(session)),
            ),
            (Family::Ctr, ctr_rate(3, 1, 2), parts([3, 0], [1, 2], None)),
            (
                Family::ArSession,
                ar_session(5),
                parts([5, 0], [0; 2], None),
            ),
            (
                Family::ArItem,
                windowed(ar_item(3)),
                parts([3, 0], [0; 2], Some(session)),
            ),
            (
                Family::ArPair,
                windowed(ar_pair(pair)),
                parts([3, 9], [0; 2], Some(session)),
            ),
        ];
        assert_eq!(
            keys.map(|(family, _, _)| family),
            Family::ALL,
            "one key per family"
        );
        for (i, (family, key, want)) in keys.iter().enumerate() {
            assert_eq!(Family::of(key), Some(*family), "{key:?}");
            assert_eq!(family.parse(key), Some(*want), "{key:?}");
            for (j, (other, other_key, _)) in keys.iter().enumerate() {
                if i != j {
                    assert_ne!(key, other_key);
                    assert_eq!(other.parse(key), None, "{key:?} as {other:?}");
                }
            }
        }
        assert_eq!(Family::of(b"res:1"), None);
    }

    #[test]
    fn pair_count_key_is_order_independent() {
        use crate::topology::state::pair_count;
        assert_eq!(
            pair_count(ItemPair::new(9, 4)),
            pair_count(ItemPair::new(4, 9))
        );
    }
}
