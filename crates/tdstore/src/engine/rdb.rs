//! RDB: an ordered in-memory engine (the paper's Redis-backed option).
//!
//! Unlike the hashed [`super::MdbEngine`], keys are kept in a sorted map,
//! so prefix scans are range queries instead of full traversals — the
//! right engine for state that is read back by prefix (per-group hot
//! items, windowed session buckets) rather than point lookups.

use super::StorageEngine;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::ops::Bound;

/// Ordered in-memory engine.
#[derive(Default)]
pub struct RdbEngine {
    map: RwLock<BTreeMap<Vec<u8>, Vec<u8>>>,
}

impl RdbEngine {
    /// New empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// All `(key, value)` pairs with keys in `[lo, hi)`, ordered — the
    /// range primitive hash engines cannot offer.
    pub fn scan_range(&self, lo: &[u8], hi: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.map
            .read()
            .range::<[u8], _>((Bound::Included(lo), Bound::Excluded(hi)))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// The first key at or after `from`, if any.
    pub fn next_key(&self, from: &[u8]) -> Option<Vec<u8>> {
        self.map
            .read()
            .range::<[u8], _>((Bound::Included(from), Bound::Unbounded))
            .next()
            .map(|(k, _)| k.clone())
    }
}

/// Smallest byte string strictly greater than every string with prefix
/// `p` (None when p is all 0xFF).
fn prefix_end(p: &[u8]) -> Option<Vec<u8>> {
    let mut end = p.to_vec();
    while let Some(last) = end.last_mut() {
        if *last < 0xFF {
            *last += 1;
            return Some(end);
        }
        end.pop();
    }
    None
}

impl StorageEngine for RdbEngine {
    fn read(&self, key: &[u8], f: &mut super::ReadFn<'_>) {
        f(self.map.read().get(key).map(Vec::as_slice));
    }

    fn modify(&self, key: &[u8], f: &mut super::ModifyFn<'_>) -> bool {
        let mut map = self.map.write();
        let mut slot = map.get(key).cloned();
        let changed = f(&mut slot);
        if changed {
            match slot {
                Some(new) => {
                    map.insert(key.to_vec(), new);
                }
                None => {
                    map.remove(key);
                }
            }
        }
        changed
    }

    fn len(&self) -> usize {
        self.map.read().len()
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let map = self.map.read();
        match prefix_end(prefix) {
            Some(end) => map
                .range::<[u8], _>((Bound::Included(prefix), Bound::Excluded(end.as_slice())))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            None => map
                .range::<[u8], _>((Bound::Included(prefix), Bound::Unbounded))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::conformance;

    #[test]
    fn conformance_suite() {
        conformance::basic_crud(&RdbEngine::new());
        conformance::modify_semantics(&RdbEngine::new());
        conformance::prefix_scan(&RdbEngine::new());
        conformance::many_keys(&RdbEngine::new());
    }

    #[test]
    fn scan_prefix_is_a_range_query() {
        let e = RdbEngine::new();
        e.put(b"a:1", vec![1]);
        e.put(b"a:2", vec![2]);
        e.put(b"b:1", vec![3]);
        let hits = e.scan_prefix(b"a:");
        assert_eq!(hits.len(), 2);
        // Ordered output — hash engines cannot promise this.
        assert_eq!(hits[0].0, b"a:1");
        assert_eq!(hits[1].0, b"a:2");
    }

    #[test]
    fn scan_range_half_open() {
        let e = RdbEngine::new();
        for i in 0..10u8 {
            e.put(&[i], vec![i]);
        }
        let hits = e.scan_range(&[3], &[7]);
        assert_eq!(
            hits.iter().map(|(k, _)| k[0]).collect::<Vec<_>>(),
            vec![3, 4, 5, 6]
        );
    }

    #[test]
    fn next_key_walks_order() {
        let e = RdbEngine::new();
        e.put(b"b", vec![]);
        e.put(b"d", vec![]);
        assert_eq!(e.next_key(b"a"), Some(b"b".to_vec()));
        assert_eq!(e.next_key(b"c"), Some(b"d".to_vec()));
        assert_eq!(e.next_key(b"e"), None);
    }

    #[test]
    fn prefix_end_edge_cases() {
        assert_eq!(prefix_end(b"a"), Some(b"b".to_vec()));
        assert_eq!(prefix_end(&[0x01, 0xFF]), Some(vec![0x02]));
        assert_eq!(prefix_end(&[0xFF, 0xFF]), None);
        // All-0xFF prefix still scans correctly (unbounded fallback).
        let e = RdbEngine::new();
        e.put(&[0xFF, 0xFF, 0x01], vec![1]);
        assert_eq!(e.scan_prefix(&[0xFF, 0xFF]).len(), 1);
    }
}
