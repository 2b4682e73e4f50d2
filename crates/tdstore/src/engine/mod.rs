//! Storage engines. Of the paper's four data-server engines (MDB memory,
//! LDB, RDB, FDB file) two have a job here, each one:
//!
//! - [`MdbEngine`] holds the status data: each data instance is one MDB
//!   engine, the only copy of its keys while the process runs.
//! - [`FdbEngine`] holds the checkpoint log: the
//!   [`SnapshotStore`](crate::SnapshotStore) writes its blobs and manifest
//!   to one append-only FDB file, which is what survives a process death
//!   and the one durable copy of the status data.
//!
//! [`StorageEngine`] is the surface both share, and the seam the
//! conformance suite runs against.

mod fdb;
mod mdb;

pub use fdb::FdbEngine;
pub use mdb::MdbEngine;

/// The closure form taken by [`StorageEngine::read`].
pub type ReadFn<'a> = dyn FnMut(Option<&[u8]>) + 'a;

/// The closure form taken by [`StorageEngine::modify`]: edits the slot in
/// place (`None` = key absent / delete it) and returns whether the value
/// changed. After returning `false` the slot must hold what it held on
/// entry.
pub type ModifyFn<'a> = dyn FnMut(&mut Option<Vec<u8>>) -> bool + 'a;

/// Uniform engine interface, built on two primitives: a borrowing
/// [`read`](StorageEngine::read) and one conditional, in-place
/// read-modify-write, [`modify`](StorageEngine::modify). Both are
/// linearisable per key: the closure runs under the engine's lock for that
/// key, so it must be short and must not call back into the engine.
pub trait StorageEngine: Send + Sync {
    /// Calls `f` with the current value of `key`, borrowed from the engine
    /// where the engine holds values in memory (no copy).
    fn read(&self, key: &[u8], f: &mut ReadFn<'_>);

    /// Atomic read-modify-write: `f` edits the value in place and reports
    /// whether it changed; an unchanged value is not written back. Leaving
    /// the slot `None` deletes the key. Returns what `f` returned.
    fn modify(&self, key: &[u8], f: &mut ModifyFn<'_>) -> bool;

    /// Current value for `key` (a copy).
    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let mut out = None;
        self.read(key, &mut |raw| out = raw.map(<[u8]>::to_vec));
        out
    }

    /// Stores `value` under `key`.
    fn put(&self, key: &[u8], value: Vec<u8>) {
        let mut value = Some(value);
        self.modify(key, &mut |slot| {
            *slot = value.take();
            true
        });
    }

    /// Removes `key`; returns whether it was present.
    fn delete(&self, key: &[u8]) -> bool {
        self.modify(key, &mut |slot| slot.take().is_some())
    }

    /// Number of live keys.
    fn len(&self) -> usize;

    /// Whether the engine holds no keys.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All `(key, value)` pairs whose key starts with `prefix`, unordered.
    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)>;
}

#[cfg(test)]
pub(crate) mod conformance {
    //! Shared behavioural test-suite run against both engines.

    use super::StorageEngine;

    pub(crate) fn basic_crud(engine: &dyn StorageEngine) {
        assert!(engine.get(b"a").is_none());
        engine.put(b"a", vec![1]);
        assert_eq!(engine.get(b"a"), Some(vec![1]));
        engine.put(b"a", vec![2]);
        assert_eq!(engine.get(b"a"), Some(vec![2]));
        assert_eq!(engine.len(), 1);
        assert!(engine.delete(b"a"));
        assert!(!engine.delete(b"a"));
        assert!(engine.get(b"a").is_none());
        assert_eq!(engine.len(), 0);
        assert!(engine.is_empty());
    }

    pub(crate) fn modify_semantics(engine: &dyn StorageEngine) {
        // Insert through modify.
        let changed = engine.modify(b"ctr", &mut |slot| {
            assert!(slot.is_none());
            *slot = Some(vec![1]);
            true
        });
        assert!(changed);
        // Edit in place.
        assert!(engine.modify(b"ctr", &mut |slot| {
            slot.as_mut().unwrap()[0] += 1;
            true
        }));
        assert_eq!(engine.get(b"ctr"), Some(vec![2]));
        // An unchanged modify sees the value and leaves it alone.
        assert!(!engine.modify(b"ctr", &mut |slot| {
            assert_eq!(slot.as_deref(), Some(&[2u8][..]));
            false
        }));
        assert!(!engine.modify(b"absent", &mut |slot| {
            assert!(slot.is_none());
            false
        }));
        assert_eq!(engine.get(b"ctr"), Some(vec![2]));
        assert_eq!(engine.len(), 1);
        // read borrows the same bytes.
        let mut seen = None;
        engine.read(b"ctr", &mut |raw| seen = raw.map(<[u8]>::to_vec));
        assert_eq!(seen, Some(vec![2]));
        engine.read(b"absent", &mut |raw| assert!(raw.is_none()));
        // Delete through modify.
        assert!(engine.modify(b"ctr", &mut |slot| slot.take().is_some()));
        assert!(engine.get(b"ctr").is_none());
        assert_eq!(engine.len(), 0);
    }

    pub(crate) fn prefix_scan(engine: &dyn StorageEngine) {
        engine.put(b"item:1", vec![1]);
        engine.put(b"item:2", vec![2]);
        engine.put(b"pair:1", vec![3]);
        let mut items = engine.scan_prefix(b"item:");
        items.sort();
        assert_eq!(
            items,
            vec![(b"item:1".to_vec(), vec![1]), (b"item:2".to_vec(), vec![2])]
        );
        assert_eq!(engine.scan_prefix(b"zzz").len(), 0);
        assert_eq!(engine.scan_prefix(b"").len(), 3);
    }

    pub(crate) fn many_keys(engine: &dyn StorageEngine) {
        for i in 0..1000u32 {
            engine.put(&i.to_le_bytes(), i.to_le_bytes().to_vec());
        }
        assert_eq!(engine.len(), 1000);
        for i in (0..1000u32).step_by(7) {
            assert_eq!(engine.get(&i.to_le_bytes()), Some(i.to_le_bytes().to_vec()));
        }
        for i in (0..1000u32).step_by(2) {
            engine.delete(&i.to_le_bytes());
        }
        assert_eq!(engine.len(), 500);
        assert!(engine.get(&4u32.to_le_bytes()).is_none());
        assert!(engine.get(&5u32.to_le_bytes()).is_some());
    }

    /// Key lengths the two cases below cover: every one from empty to
    /// well past the longest key MDB holds inline (30 bytes).
    const KEY_LENGTHS: std::ops::RangeInclusive<usize> = 0..=64;

    /// [`prefix_scan`] over keys of every length in [`KEY_LENGTHS`]: a run
    /// of `k`s (each one a prefix of every longer one) and, beside each,
    /// a sibling that differs only in its last byte. Every prefix of the
    /// longest key must return exactly the keys that start with it.
    pub(crate) fn prefix_scan_key_lengths(engine: &dyn StorageEngine) {
        let mut model = std::collections::BTreeMap::new();
        for len in KEY_LENGTHS {
            let run = vec![b'k'; len];
            let mut sibling = run.clone();
            if let Some(last) = sibling.last_mut() {
                *last = b'x';
            }
            for (tag, key) in [(0, run), (1, sibling)] {
                let value = vec![len as u8, tag];
                engine.put(&key, value.clone());
                model.insert(key, value);
            }
        }
        assert_eq!(engine.len(), model.len());
        let keys: Vec<Vec<u8>> = model.keys().cloned().collect();
        for prefix in &keys {
            let mut got = engine.scan_prefix(prefix);
            got.sort();
            let want: Vec<(Vec<u8>, Vec<u8>)> = model
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            assert_eq!(got, want, "prefix of {} bytes", prefix.len());
        }
    }

    /// [`many_keys`] over keys of every length in [`KEY_LENGTHS`], with
    /// values as long as their keys.
    pub(crate) fn many_keys_key_lengths(engine: &dyn StorageEngine) {
        let mut keys = Vec::new();
        for len in KEY_LENGTHS {
            for i in 0..if len == 0 { 1 } else { 20u8 } {
                let mut key = vec![b'k'; len];
                if let Some(last) = key.last_mut() {
                    *last = i;
                }
                keys.push(key);
            }
        }
        for (i, key) in keys.iter().enumerate() {
            engine.put(key, vec![i as u8; key.len()]);
        }
        assert_eq!(engine.len(), keys.len());
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(engine.get(key), Some(vec![i as u8; key.len()]));
        }
        for key in keys.iter().step_by(2) {
            assert!(engine.delete(key));
        }
        assert_eq!(engine.len(), keys.len() / 2);
        for (i, key) in keys.iter().enumerate() {
            let want = (i % 2 == 1).then(|| vec![i as u8; key.len()]);
            assert_eq!(engine.get(key), want, "key of {} bytes", key.len());
        }
    }
}
