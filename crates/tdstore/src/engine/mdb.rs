//! MDB: sharded in-memory hash map engine.
//!
//! The default engine for recommendation status data: the paper stores the
//! hot `itemCount`/`pairCount`/similar-items state in a "distributed
//! memory-based key-value storage". Each engine splits its keys over
//! independent locks, picked from the *high* bits of the key hash: the
//! router already spent the low bits choosing this instance
//! (`hash % instances`), so reusing them would put every key of an
//! instance behind one lock. The shard maps hash with the same function
//! ([`KeyHashBuilder`]) instead of SipHash: one key hash in the crate.
//!
//! An entry is one heap allocation: its [`Key`] lives in the map slot
//! (every status-data key fits the inline bytes) and its value is a
//! `Box<[u8]>` of exactly the stored length. [`MdbEngine::modify`]
//! lends the value as a `Vec` and takes it back: both moves are free
//! unless the closure left spare capacity, which is trimmed.
//!
//! A shard can also record which keys `modify` changed, under the lock
//! it already holds, so a checkpoint reads only those keys. Untracked, a
//! shard holds no set and a write pays one branch for it.

use crate::route::{key_hash, KeyHashBuilder};
use parking_lot::Mutex;
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// Longest key held inline: `pc:` keys are 28 bytes, `ic:` 20, `hist:` 13
/// and `sim:` 12.
const INLINE: usize = 30;

/// A stored key: up to [`INLINE`] bytes in place, longer ones boxed. Hashes
/// and compares as the `[u8]` it holds, so maps keyed by it are looked up
/// with a borrowed `&[u8]`.
#[derive(Clone)]
pub(crate) enum Key {
    Inline { len: u8, bytes: [u8; INLINE] },
    Boxed(Box<[u8]>),
}

impl From<&[u8]> for Key {
    fn from(key: &[u8]) -> Self {
        if key.len() <= INLINE {
            let mut bytes = [0; INLINE];
            bytes[..key.len()].copy_from_slice(key);
            Key::Inline {
                len: key.len() as u8,
                bytes,
            }
        } else {
            Key::Boxed(key.into())
        }
    }
}

impl Deref for Key {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Key::Inline { len, bytes } => &bytes[..*len as usize],
            Key::Boxed(bytes) => bytes,
        }
    }
}

impl Borrow<[u8]> for Key {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Key {}

/// One lock's keys, and the keys `modify` changed since the last
/// [`MdbEngine::take_changes`] while changes are tracked.
#[derive(Default)]
struct Shard {
    map: HashMap<Key, Box<[u8]>, KeyHashBuilder>,
    changed: Option<HashSet<Key, KeyHashBuilder>>,
}

/// Sharded hash-map engine.
pub struct MdbEngine {
    shards: Vec<Mutex<Shard>>,
}

impl MdbEngine {
    /// Engine with `shards` independent locks (rounded up to a power of
    /// two).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        MdbEngine {
            shards: (0..n).map(|_| Mutex::default()).collect(),
        }
    }

    fn shard_index(&self, key: &[u8]) -> usize {
        (key_hash(key) >> 32) as usize & (self.shards.len() - 1)
    }

    fn shard(&self, key: &[u8]) -> &Mutex<Shard> {
        &self.shards[self.shard_index(key)]
    }

    /// Calls `f` with the value of `key`, borrowed under its shard's lock
    /// (no copy), and returns what `f` returns. `f` must be short and must
    /// not call back into the engine.
    pub fn read<R>(&self, key: &[u8], f: impl FnOnce(Option<&[u8]>) -> R) -> R {
        f(self.shard(key).lock().map.get(key).map(|v| &v[..]))
    }

    /// Atomic, conditional read-modify-write, in place: `f` edits the
    /// value (`None` = absent; leaving it `None` deletes the key) and
    /// reports whether it changed it. After reporting `false` the slot
    /// must hold what it held on entry; an unchanged value is not written
    /// back. `f` runs under the shard's lock, so it must be short and must
    /// not call back into the engine. Returns what `f` returned.
    pub fn modify(&self, key: &[u8], f: impl FnOnce(&mut Option<Vec<u8>>) -> bool) -> bool {
        let shard = &mut *self.shard(key).lock();
        let changed = match shard.map.get_mut(key) {
            // The value is edited where it lives: moved into the slot and
            // back (a pointer move), never copied, and the key is not
            // cloned. Only a value the closure left with spare capacity
            // is reallocated, to its length.
            Some(value) => {
                let mut slot = Some(std::mem::take(value).into_vec());
                let changed = f(&mut slot);
                match slot {
                    Some(new) => *value = new.into_boxed_slice(),
                    None => {
                        shard.map.remove(key);
                    }
                }
                changed
            }
            None => {
                let mut slot = None;
                let changed = f(&mut slot);
                if let Some(new) = slot {
                    shard.map.insert(Key::from(key), new.into_boxed_slice());
                }
                changed
            }
        };
        // What the closure reports is what the set records: by the
        // contract above an unchanged value was left as it was.
        if let Some(set) = &mut shard.changed {
            if changed && !set.contains(key) {
                set.insert(Key::from(key));
            }
        }
        changed
    }

    /// Current value for `key` (a copy).
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.read(key, |raw| raw.map(<[u8]>::to_vec))
    }

    /// Stores `value` under `key`.
    pub fn put(&self, key: &[u8], value: Vec<u8>) {
        self.modify(key, |slot| {
            *slot = Some(value);
            true
        });
    }

    /// Removes `key`; returns whether it was present.
    pub fn delete(&self, key: &[u8]) -> bool {
        self.modify(key, |slot| slot.take().is_some())
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether the engine holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All `(key, value)` pairs whose key starts with `prefix`, unordered.
    pub fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            for (k, v) in shard.map.iter() {
                if k.starts_with(prefix) {
                    out.push((k.to_vec(), v.to_vec()));
                }
            }
        }
        out
    }

    /// Starts (`true`) or stops (`false`) recording changed keys. Either
    /// way every shard's set is dropped, so a restart records from empty.
    pub(crate) fn track_changes(&self, on: bool) {
        for shard in &self.shards {
            shard.lock().changed = on.then(HashSet::default);
        }
    }

    /// Empties every shard's change set into `puts` (keys still present,
    /// with their values) and `deletes` (keys now absent), one lock per
    /// shard. Records nothing while changes are not tracked.
    pub(crate) fn take_changes(
        &self,
        puts: &mut Vec<(Vec<u8>, Vec<u8>)>,
        deletes: &mut Vec<Vec<u8>>,
    ) {
        for shard in &self.shards {
            let shard = &mut *shard.lock();
            let Some(changed) = &mut shard.changed else {
                continue;
            };
            for key in changed.drain() {
                match shard.map.get(&*key) {
                    Some(value) => puts.push((key.to_vec(), value.to_vec())),
                    None => deletes.push(key.to_vec()),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn basic_crud(engine: &MdbEngine) {
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

    #[test]
    fn conformance_suite() {
        basic_crud(&MdbEngine::new(4));
        let engine = &MdbEngine::new(4);
        // Insert through modify.
        let changed = engine.modify(b"ctr", |slot| {
            assert!(slot.is_none());
            *slot = Some(vec![1]);
            true
        });
        assert!(changed);
        // Edit in place.
        assert!(engine.modify(b"ctr", |slot| {
            slot.as_mut().unwrap()[0] += 1;
            true
        }));
        assert_eq!(engine.get(b"ctr"), Some(vec![2]));
        // An unchanged modify sees the value and leaves it alone.
        assert!(!engine.modify(b"ctr", |slot| {
            assert_eq!(slot.as_deref(), Some(&[2u8][..]));
            false
        }));
        assert!(!engine.modify(b"absent", |slot| {
            assert!(slot.is_none());
            false
        }));
        assert_eq!(engine.get(b"ctr"), Some(vec![2]));
        assert_eq!(engine.len(), 1);
        // read borrows the same bytes.
        let mut seen = None;
        engine.read(b"ctr", |raw| seen = raw.map(<[u8]>::to_vec));
        assert_eq!(seen, Some(vec![2]));
        engine.read(b"absent", |raw| assert!(raw.is_none()));
        // Delete through modify.
        assert!(engine.modify(b"ctr", |slot| slot.take().is_some()));
        assert!(engine.get(b"ctr").is_none());
        assert_eq!(engine.len(), 0);
        let engine = &MdbEngine::new(4);
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
        let engine = &MdbEngine::new(4);
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

    /// Key lengths [`conformance_over_key_lengths`] covers: every one from
    /// empty to well past the longest key MDB holds inline (30 bytes).
    const KEY_LENGTHS: std::ops::RangeInclusive<usize> = 0..=64;

    /// The prefix scan and the many-keys case of [`conformance_suite`]
    /// over keys of every length in [`KEY_LENGTHS`].
    #[test]
    fn conformance_over_key_lengths() {
        // A run of `k`s (each one a prefix of every longer one) and,
        // beside each, a sibling that differs only in its last byte.
        // Every prefix of the longest key must return exactly the keys
        // that start with it.
        let engine = &MdbEngine::new(4);
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
        // Many keys, with values as long as their keys.
        let engine = &MdbEngine::new(4);
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

    #[test]
    fn an_entry_fills_one_48_byte_slot() {
        // The key inline beside the value's pointer: the same slot size
        // as the two `Vec`s it replaced, with one allocation less.
        assert_eq!(std::mem::size_of::<Key>(), 32);
        assert_eq!(std::mem::size_of::<(Key, Box<[u8]>)>(), 48);
    }

    #[test]
    fn key_hashes_and_compares_as_its_bytes() {
        use std::hash::BuildHasher;
        let sip = std::collections::hash_map::RandomState::new();
        for len in 0..=64 {
            let bytes: Vec<u8> = (0..len as u8).collect();
            let key = Key::from(&bytes[..]);
            assert_eq!(matches!(key, Key::Inline { .. }), len <= INLINE);
            assert_eq!(&*key, &bytes[..]);
            assert_eq!(
                KeyHashBuilder.hash_one(&key),
                KeyHashBuilder.hash_one(&bytes[..])
            );
            assert_eq!(sip.hash_one(&key), sip.hash_one(&bytes[..]), "{len} bytes");
            assert!(key == Key::from(&bytes[..]));
            if len > 0 {
                assert!(key != Key::from(&bytes[..len - 1]));
            }
        }
    }

    #[test]
    fn single_shard_works() {
        basic_crud(&MdbEngine::new(1));
    }

    #[test]
    fn concurrent_updates_do_not_lose_increments() {
        let engine = Arc::new(MdbEngine::new(8));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let e = Arc::clone(&engine);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        e.modify(b"counter", |slot| {
                            let n = slot
                                .as_deref()
                                .map_or(0, |v| u64::from_le_bytes(v.try_into().unwrap()));
                            *slot = Some((n + 1).to_le_bytes().to_vec());
                            true
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let v = engine.get(b"counter").unwrap();
        assert_eq!(u64::from_le_bytes(v.try_into().unwrap()), 8000);
    }

    #[test]
    fn keys_of_one_instance_spread_over_shards() {
        // Regression: the shard used to come from the same low hash bits
        // the router takes (`hash % 16`), so with 16 instances every key
        // of an instance shared one of its 16 locks.
        let engine = MdbEngine::new(16);
        let mut used = std::collections::HashSet::new();
        let mut routed = 0;
        for i in 0u64.. {
            let mut key = b"pc:".to_vec();
            key.extend_from_slice(&i.to_le_bytes());
            if crate::route::instance_for(&key, 16) != 5 {
                continue;
            }
            used.insert(engine.shard_index(&key));
            routed += 1;
            if routed == 10_000 {
                break;
            }
        }
        assert!(
            used.len() >= 12,
            "10,000 keys of one instance occupy only {} of 16 shards",
            used.len()
        );
    }

    #[test]
    fn keys_of_one_shard_spread_over_its_map() {
        // Every key of one shard of one instance agrees on `hash % 16`
        // and on the shard bits; the map's hasher must not hand the table
        // those bits as its bucket index or its tag.
        use std::hash::BuildHasher;
        let engine = MdbEngine::new(16);
        let mut keys: Vec<Vec<u8>> = Vec::new();
        for prefix in [&b"pc:"[..], b"hist:"] {
            let wanted = keys.len() + 5_000;
            for i in 0u64.. {
                let mut key = prefix.to_vec();
                key.extend_from_slice(&i.to_le_bytes());
                if crate::route::instance_for(&key, 16) == 5 && engine.shard_index(&key) == 3 {
                    keys.push(key);
                    if keys.len() == wanted {
                        break;
                    }
                }
            }
        }
        let hashes: Vec<u64> = keys.iter().map(|k| KeyHashBuilder.hash_one(k)).collect();
        // 10,000 balls in 4,096 bins leave ~3,740 occupied when uniform.
        let buckets: std::collections::HashSet<u64> = hashes.iter().map(|h| h & 0xfff).collect();
        assert!(
            buckets.len() >= 3_400,
            "one shard's keys reach only {} of 4096 low-bit buckets",
            buckets.len()
        );
        let tags: std::collections::HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert_eq!(tags.len(), 128, "top-7-bit tags unused");
        // A borrowed `&[u8]` finds what an owned key stored.
        for (i, key) in keys.iter().enumerate() {
            engine.put(key, vec![i as u8]);
        }
        assert_eq!(engine.shards[3].lock().map.len(), keys.len());
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(engine.get(key.as_slice()), Some(vec![i as u8]));
        }
    }
}
