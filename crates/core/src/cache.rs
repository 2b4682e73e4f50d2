//! Fine-grained caching over TDStore (§5.2) — the temporal-burst solution.
//!
//! "User activities in the temporal burst events always have the locality
//! that the small portion of the items attract the large portion of users'
//! attention. We do the fine-grained cache in the granularity of data
//! instance, i.e., a key-value pair." Consistency comes from the topology:
//! tuples are fields-grouped by key, so exactly one worker caches any
//! given key, and writers go through the cache (write-through).

use crate::types::FxHashMap;
use std::collections::BTreeMap;
use tdstore::{StoreError, TdStore};

/// A bounded, LRU-evicting, write-through cache in front of a [`TdStore`]
/// handle. One instance per worker task; safe because key-grouped routing
/// makes each key single-writer. Eviction is O(log n) via a recency index.
///
/// Absent keys are cached too (`value: None`): a temporal burst of lookups
/// for a not-yet-written key (a brand-new item's counters) would otherwise
/// miss straight through to TDStore on every access. Negative entries obey
/// the same LRU bound and are invalidated by the next `put` of that key.
pub struct CachedStore {
    store: TdStore,
    capacity: usize,
    entries: FxHashMap<Vec<u8>, CacheEntry>,
    /// tick → key, ordered oldest-first (the LRU index).
    recency: BTreeMap<u64, Vec<u8>>,
    /// Monotonic use-counter for LRU.
    tick: u64,
    hits: u64,
    misses: u64,
}

struct CacheEntry {
    /// `None` caches a confirmed absence (negative entry).
    value: Option<Vec<u8>>,
    last_used: u64,
}

impl CachedStore {
    /// Cache of at most `capacity` keys in front of `store`.
    pub fn new(store: TdStore, capacity: usize) -> Self {
        CachedStore {
            store,
            capacity: capacity.max(1),
            entries: FxHashMap::default(),
            recency: BTreeMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn touch(&mut self, key: &[u8], old_tick: Option<u64>) -> u64 {
        if let Some(t) = old_tick {
            self.recency.remove(&t);
        }
        self.tick += 1;
        self.recency.insert(self.tick, key.to_vec());
        self.tick
    }

    fn evict_if_full(&mut self) {
        while self.entries.len() >= self.capacity {
            let Some((&oldest, _)) = self.recency.iter().next() else {
                return;
            };
            let key = self.recency.remove(&oldest).expect("index entry exists");
            self.entries.remove(&key);
        }
    }

    /// Reads through the cache. Both present and absent results are cached
    /// (a negative entry answers repeat lookups of a missing key without
    /// touching the store).
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        if let Some(entry) = self.entries.get(key) {
            let old = entry.last_used;
            let value = entry.value.clone();
            let new_tick = self.touch(key, Some(old));
            self.entries.get_mut(key).expect("entry present").last_used = new_tick;
            self.hits += 1;
            return Ok(value);
        }
        self.misses += 1;
        let value = self.store.get(key)?;
        self.evict_if_full();
        let tick = self.touch(key, None);
        self.entries.insert(
            key.to_vec(),
            CacheEntry {
                value: value.clone(),
                last_used: tick,
            },
        );
        Ok(value)
    }

    /// Write-through put: "update it both in cache and in TDStore".
    pub fn put(&mut self, key: &[u8], value: Vec<u8>) -> Result<(), StoreError> {
        self.store.put(key, value.clone())?;
        let old = self.entries.get(key).map(|e| e.last_used);
        if old.is_none() {
            self.evict_if_full();
        }
        let tick = self.touch(key, old);
        self.entries.insert(
            key.to_vec(),
            CacheEntry {
                value: Some(value),
                last_used: tick,
            },
        );
        Ok(())
    }

    /// Cached read-modify-write of an `f64` counter: reads from cache when
    /// possible ("we save the read times by the updating worker"), writes
    /// through. Returns the new value.
    pub fn incr_f64(&mut self, key: &[u8], delta: f64) -> Result<f64, StoreError> {
        let current = self
            .get(key)?
            .and_then(|v| v.as_slice().try_into().ok().map(f64::from_le_bytes))
            .unwrap_or(0.0);
        let new = current + delta;
        self.put(key, new.to_le_bytes().to_vec())?;
        Ok(new)
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (store reads) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit ratio in [0, 1].
    pub fn hit_ratio(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// Number of cached keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The underlying store handle.
    pub fn store(&self) -> &TdStore {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdstore::StoreConfig;

    fn cached(capacity: usize) -> CachedStore {
        CachedStore::new(TdStore::new(StoreConfig::default()), capacity)
    }

    #[test]
    fn read_through_and_hit() {
        let mut c = cached(10);
        c.store().put(b"k", vec![7]).unwrap();
        assert_eq!(c.get(b"k").unwrap(), Some(vec![7])); // miss
        assert_eq!(c.get(b"k").unwrap(), Some(vec![7])); // hit
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hit_ratio(), 0.5);
    }

    #[test]
    fn write_through_visible_in_store() {
        let mut c = cached(10);
        c.put(b"k", vec![1]).unwrap();
        assert_eq!(c.store().get(b"k").unwrap(), Some(vec![1]));
        // And served from cache afterwards.
        assert_eq!(c.get(b"k").unwrap(), Some(vec![1]));
        assert_eq!(c.misses(), 0);
    }

    #[test]
    fn incr_uses_cache_after_first_read() {
        let mut c = cached(10);
        assert_eq!(c.incr_f64(b"count", 1.0).unwrap(), 1.0);
        assert_eq!(c.incr_f64(b"count", 2.0).unwrap(), 3.0);
        assert_eq!(c.incr_f64(b"count", 3.0).unwrap(), 6.0);
        assert_eq!(c.misses(), 1, "only the initial read misses");
        assert_eq!(c.store().get_f64(b"count").unwrap(), Some(6.0));
    }

    #[test]
    fn lru_evicts_coldest() {
        let mut c = cached(2);
        c.put(b"a", vec![1]).unwrap();
        c.put(b"b", vec![2]).unwrap();
        c.get(b"a").unwrap(); // refresh a
        c.put(b"c", vec![3]).unwrap(); // evicts b
        assert_eq!(c.len(), 2);
        let miss_before = c.misses();
        c.get(b"a").unwrap();
        c.get(b"c").unwrap();
        assert_eq!(c.misses(), miss_before, "a and c are cached");
        c.get(b"b").unwrap();
        assert_eq!(c.misses(), miss_before + 1, "b was evicted");
    }

    #[test]
    fn missing_key_negatively_cached() {
        let mut c = cached(10);
        assert!(c.get(b"ghost").unwrap().is_none());
        assert!(c.get(b"ghost").unwrap().is_none());
        assert_eq!(c.misses(), 1, "absence is cached after the first read");
        assert_eq!(c.hits(), 1);
    }

    #[test]
    fn put_invalidates_negative_entry() {
        let mut c = cached(10);
        assert!(c.get(b"k").unwrap().is_none()); // negative entry
        c.put(b"k", vec![9]).unwrap();
        assert_eq!(c.get(b"k").unwrap(), Some(vec![9]));
        assert_eq!(c.misses(), 1, "the put replaced the negative entry");
    }

    #[test]
    fn negative_entries_respect_capacity() {
        let mut c = cached(2);
        for i in 0..100u8 {
            assert!(c.get(&[i]).unwrap().is_none());
        }
        assert_eq!(c.len(), 2, "negative entries obey the LRU bound");
    }

    #[test]
    fn miss_storm_on_absent_key_hits_cache() {
        // A burst of lookups for a key nobody has written yet (e.g. a
        // brand-new item's counters) used to read through to the store on
        // every access; only the first may miss now.
        let mut c = cached(64);
        for _ in 0..1000 {
            assert!(c.get(b"new-item").unwrap().is_none());
        }
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 999);
        assert!(c.hit_ratio() > 0.99);
    }

    #[test]
    fn burst_locality_gives_high_hit_ratio() {
        let mut c = cached(64);
        // Zipf-ish: 90% of 1000 accesses hit 5 hot keys.
        for i in 0..1000u64 {
            let key = if i % 10 < 9 {
                format!("hot{}", i % 5)
            } else {
                format!("cold{i}")
            };
            c.incr_f64(key.as_bytes(), 1.0).unwrap();
        }
        assert!(
            c.hit_ratio() > 0.85,
            "burst traffic should mostly hit cache, got {}",
            c.hit_ratio()
        );
    }
}
