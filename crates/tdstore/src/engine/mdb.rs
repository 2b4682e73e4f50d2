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
//! `Box<[u8]>` of exactly the stored length. [`StorageEngine::modify`]
//! lends the value as a `Vec` and takes it back: both moves are free
//! unless the closure left spare capacity, which is trimmed.

use super::StorageEngine;
use crate::route::{key_hash, KeyHashBuilder};
use parking_lot::Mutex;
use std::borrow::Borrow;
use std::collections::HashMap;
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

type Shard = Mutex<HashMap<Key, Box<[u8]>, KeyHashBuilder>>;

/// Sharded hash-map engine.
pub struct MdbEngine {
    shards: Vec<Shard>,
}

impl MdbEngine {
    /// Engine with `shards` independent locks (rounded up to a power of
    /// two).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        MdbEngine {
            shards: (0..n).map(|_| Mutex::new(HashMap::default())).collect(),
        }
    }

    fn shard_index(&self, key: &[u8]) -> usize {
        (key_hash(key) >> 32) as usize & (self.shards.len() - 1)
    }

    fn shard(&self, key: &[u8]) -> &Shard {
        &self.shards[self.shard_index(key)]
    }

    /// Calls `f` with the value of `key`, borrowed under its shard's lock:
    /// the generic form of [`StorageEngine::read`], which returns what `f`
    /// returns.
    pub(crate) fn read_with<R>(&self, key: &[u8], f: impl FnOnce(Option<&[u8]>) -> R) -> R {
        f(self.shard(key).lock().get(key).map(|v| &v[..]))
    }
}

impl StorageEngine for MdbEngine {
    fn read(&self, key: &[u8], f: &mut super::ReadFn<'_>) {
        self.read_with(key, f);
    }

    fn modify(&self, key: &[u8], f: &mut super::ModifyFn<'_>) -> bool {
        let mut shard = self.shard(key).lock();
        match shard.get_mut(key) {
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
                        shard.remove(key);
                    }
                }
                changed
            }
            None => {
                let mut slot = None;
                let changed = f(&mut slot);
                if let Some(new) = slot {
                    shard.insert(Key::from(key), new.into_boxed_slice());
                }
                changed
            }
        }
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            for (k, v) in shard.iter() {
                if k.starts_with(prefix) {
                    out.push((k.to_vec(), v.to_vec()));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::conformance;
    use std::sync::Arc;

    #[test]
    fn conformance_suite() {
        conformance::basic_crud(&MdbEngine::new(4));
        conformance::modify_semantics(&MdbEngine::new(4));
        conformance::prefix_scan(&MdbEngine::new(4));
        conformance::many_keys(&MdbEngine::new(4));
    }

    #[test]
    fn conformance_over_key_lengths() {
        conformance::prefix_scan_key_lengths(&MdbEngine::new(4));
        conformance::many_keys_key_lengths(&MdbEngine::new(4));
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
        conformance::basic_crud(&MdbEngine::new(1));
    }

    #[test]
    fn concurrent_updates_do_not_lose_increments() {
        let engine = Arc::new(MdbEngine::new(8));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let e = Arc::clone(&engine);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        e.modify(b"counter", &mut |slot| {
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
        assert_eq!(engine.shards[3].lock().len(), keys.len());
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(engine.get(key.as_slice()), Some(vec![i as u8]));
        }
    }
}
