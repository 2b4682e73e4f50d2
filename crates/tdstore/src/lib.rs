#![warn(missing_docs)]
//! # tdstore — Tencent Data Store
//!
//! Reproduction of the paper's TDStore (§3.3): a memory-based key-value
//! store holding the recommendation *status data* (user histories,
//! `itemCount`s, `pairCount`s, similar-item lists), so that the stream
//! topology itself can stay state-free and fail fast.
//!
//! * The key space is split into **data instances** by key hash (`hash %
//!   instances`), fixed when the store is built. Each instance is one
//!   [`engine::MdbEngine`] (sharded memory, one heap allocation per entry:
//!   the key inline in the map slot, the value at its exact length).
//! * There is **one copy** of the state. The paper backs each instance up
//!   on a second data server; in one process a backup would die with the
//!   copy it backs up, so durability comes from the checkpoint log
//!   instead. [`SnapshotStore`] appends sealed snapshots, full or delta,
//!   to one file as epoch records, and a restart restores the newest one
//!   and replays the access log from the offsets it sealed.
//! * The client API is two primitives, on the engine and on
//!   [`TdStore`] alike: [`TdStore::read`] lends the stored bytes to a
//!   closure, and [`TdStore::modify`] is the one read-modify-write — in
//!   place and *conditional*: a closure that reports "unchanged" costs no
//!   write and no copy. `get`/`put`/`delete`/`update` are wrappers over
//!   them.
//! * A checkpoint coordinator can ask the store to **track changes**
//!   ([`TdStore::track_changes`]): every instance then records the keys
//!   `modify` changed, and [`TdStore::take_changes`] hands them over with
//!   their current values, so a delta checkpoint reads what changed
//!   instead of the whole store.
//!
//! ```
//! use tdstore::{StoreConfig, TdStore};
//! let store = TdStore::new(StoreConfig::default());
//! store.put(b"item_count:42", 3.5f64.to_le_bytes().to_vec()).unwrap();
//! store.incr_f64(b"item_count:42", 1.5).unwrap();
//! assert_eq!(store.get_f64(b"item_count:42").unwrap(), Some(5.0));
//! ```

pub mod engine;
mod error;
mod route;
pub mod snapshot;

pub use engine::MdbEngine;
pub use error::StoreError;
pub use snapshot::{Snapshot, SnapshotKind, SnapshotMeta, SnapshotRecord, SnapshotStore};

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Store construction parameters.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Number of data instances (key-space shards). A key's instance is
    /// its hash modulo this count, which fixes where every key lives and
    /// the order [`TdStore::scan_prefix`] returns keys in.
    pub instances: u32,
    /// Fault-injection plan for chaos testing ([`tchaos::FaultPlan::none`]
    /// by default — zero cost when disabled). Site: `WriteFail` makes a
    /// write return [`StoreError::Injected`] before touching the engine.
    pub fault_plan: tchaos::FaultPlan,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            instances: 16,
            fault_plan: tchaos::FaultPlan::none(),
        }
    }
}

/// Free-standing metric handles; attached to an exposition registry via
/// [`TdStore::register_metrics`]. Kept as plain handles (not registry
/// lookups) so the hot paths never touch the registry lock.
struct StoreMetrics {
    gets: obs::Counter,
    writes: obs::Counter,
    deletes: obs::Counter,
    /// `modify` calls whose closure reported no change: nothing written.
    unchanged: obs::Counter,
}

struct StoreInner {
    /// One engine per data instance, indexed by [`route::instance_for`].
    instances: Vec<MdbEngine>,
    fault_plan: tchaos::FaultPlan,
    metrics: StoreMetrics,
    /// Id of the tracker the instances record changes for; 0 when
    /// changes are not tracked.
    tracker: Mutex<u64>,
}

impl StoreInner {
    fn engine(&self, key: &[u8]) -> &MdbEngine {
        &self.instances[route::instance_for(key, self.instances.len())]
    }
}

/// A set of raw `(key, value)` pairs returned by scans.
pub type KvPairs = Vec<(Vec<u8>, Vec<u8>)>;

/// The keys changed since a change tracker started or last took them,
/// unordered: those still present with their values, and those now absent.
#[derive(Debug, Default)]
pub struct Changes {
    /// Changed keys that hold a value, with that value.
    pub puts: KvPairs,
    /// Changed keys that hold none (deleted, or created and deleted again).
    pub deletes: Vec<Vec<u8>>,
}

/// Source of tracker ids, unique across every store of the process, so a
/// tracker of one store never takes another store's changes.
static NEXT_TRACKER: AtomicU64 = AtomicU64::new(1);

/// Client handle to a TDStore deployment. Cheap to clone.
#[derive(Clone)]
pub struct TdStore {
    inner: Arc<StoreInner>,
}

impl TdStore {
    /// Builds an in-process deployment per `config`.
    pub fn new(config: StoreConfig) -> Self {
        assert!(config.instances > 0, "need at least one data instance");
        TdStore {
            inner: Arc::new(StoreInner {
                instances: (0..config.instances).map(|_| MdbEngine::new(16)).collect(),
                fault_plan: config.fault_plan,
                metrics: StoreMetrics {
                    gets: obs::Counter::new(),
                    writes: obs::Counter::new(),
                    deletes: obs::Counter::new(),
                    unchanged: obs::Counter::new(),
                },
                tracker: Mutex::new(0),
            }),
        }
    }

    /// Calls `f` with the value of `key` borrowed from its instance — no
    /// copy. `f` runs under the engine's lock for the key: keep it short
    /// and do not call the store from it.
    pub fn read<R>(&self, key: &[u8], f: impl FnOnce(Option<&[u8]>) -> R) -> Result<R, StoreError> {
        self.inner.metrics.gets.inc();
        Ok(self.inner.engine(key).read(key, f))
    }

    /// Atomic, conditional read-modify-write on one key, in place: `f`
    /// edits the stored value (`None` = absent; leave `None` to delete)
    /// and returns whether it changed anything. An unchanged value costs
    /// the lookup and `f`: nothing is written and nothing is copied. `f`
    /// is called exactly once, under the engine's lock for the key: keep
    /// it short and do not call the store from it. Returns what `f`
    /// returned.
    pub fn modify(
        &self,
        key: &[u8],
        mut f: impl FnMut(&mut Option<Vec<u8>>) -> bool,
    ) -> Result<bool, StoreError> {
        // Injected write failure: checked before the engine is touched,
        // so a failed write has had *no* effect and a retry/replay is safe.
        if self
            .inner
            .fault_plan
            .should_fault(tchaos::FaultSite::WriteFail)
        {
            return Err(StoreError::Injected);
        }
        let mut deleted = false;
        let changed = self.inner.engine(key).modify(key, |slot| {
            let changed = f(slot);
            deleted = changed && slot.is_none();
            changed
        });
        let counter = match (changed, deleted) {
            (false, _) => &self.inner.metrics.unchanged,
            (true, true) => &self.inner.metrics.deletes,
            (true, false) => &self.inner.metrics.writes,
        };
        counter.inc();
        Ok(changed)
    }

    /// Reads a value (a copy; see [`TdStore::read`] to borrow it).
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        self.read(key, |raw| raw.map(<[u8]>::to_vec))
    }

    /// Writes a value.
    pub fn put(&self, key: &[u8], value: Vec<u8>) -> Result<(), StoreError> {
        let mut value = Some(value);
        self.modify(key, |slot| {
            *slot = value.take();
            true
        })?;
        Ok(())
    }

    /// Deletes a key; returns whether it existed.
    pub fn delete(&self, key: &[u8]) -> Result<bool, StoreError> {
        self.modify(key, |slot| slot.take().is_some())
    }

    /// Atomic read-modify-write by value: `f` maps the current value to
    /// the new one (`None` deletes); returns the new value. Writing back
    /// the bytes already stored counts as unchanged. Prefer
    /// [`TdStore::modify`], which edits in place and returns no copy.
    pub fn update(
        &self,
        key: &[u8],
        mut f: impl FnMut(Option<&[u8]>) -> Option<Vec<u8>>,
    ) -> Result<Option<Vec<u8>>, StoreError> {
        let mut new = None;
        self.modify(key, |slot| {
            new = f(slot.as_deref());
            let changed = new != *slot;
            if changed {
                slot.clone_from(&new);
            }
            changed
        })?;
        Ok(new)
    }

    /// Typed helper: reads a little-endian `f64`.
    pub fn get_f64(&self, key: &[u8]) -> Result<Option<f64>, StoreError> {
        self.read(key, |raw| {
            raw.and_then(|v| v.try_into().ok().map(f64::from_le_bytes))
        })
    }

    /// Typed helper: atomically adds `delta` to an `f64` (missing = 0);
    /// returns the new value.
    pub fn incr_f64(&self, key: &[u8], delta: f64) -> Result<f64, StoreError> {
        let mut new = 0.0;
        self.modify(key, |slot| {
            // A stored count is rewritten in its own 8 bytes; anything
            // else (absent, or not an `f64`) counts as 0 and is replaced.
            let count = slot
                .as_deref_mut()
                .and_then(|v| <&mut [u8; 8]>::try_from(v).ok());
            new = count.as_deref().map_or(0.0, |c| f64::from_le_bytes(*c)) + delta;
            match count {
                Some(count) => *count = new.to_le_bytes(),
                None => *slot = Some(new.to_le_bytes().to_vec()),
            }
            true
        })?;
        Ok(new)
    }

    /// Writes many `(key, value)` pairs in one call.
    pub fn batch_put(&self, batch: Vec<(Vec<u8>, Vec<u8>)>) -> Result<(), StoreError> {
        for (key, value) in batch {
            self.put(&key, value)?;
        }
        Ok(())
    }

    /// All `(key, value)` pairs with the given key prefix, across all
    /// instances (unordered).
    pub fn scan_prefix(&self, prefix: &[u8]) -> Result<KvPairs, StoreError> {
        let mut out = Vec::new();
        for engine in &self.inner.instances {
            out.extend(engine.scan_prefix(prefix));
        }
        Ok(out)
    }

    /// Starts recording, in every instance, the keys that
    /// [`TdStore::modify`] changes, and returns the new tracker's id. A
    /// tracker started earlier loses its change sets: its
    /// [`TdStore::take_changes`] returns `None` from now on. What a write
    /// closure reports is what gets recorded, so a closure that reports
    /// "unchanged" must leave the value as it was.
    pub fn track_changes(&self) -> u64 {
        let mut tracker = self.inner.tracker.lock();
        *tracker = NEXT_TRACKER.fetch_add(1, Ordering::Relaxed);
        for engine in &self.inner.instances {
            engine.track_changes(true);
        }
        *tracker
    }

    /// Hands tracker `tracker` the keys changed since it started or last
    /// took them, and starts the change sets again from empty. `None` when
    /// `tracker` does not track this store's changes.
    pub fn take_changes(&self, tracker: u64) -> Option<Changes> {
        let current = self.inner.tracker.lock();
        if *current != tracker || tracker == 0 {
            return None;
        }
        let mut changes = Changes::default();
        for engine in &self.inner.instances {
            engine.take_changes(&mut changes.puts, &mut changes.deletes);
        }
        Some(changes)
    }

    /// Stops tracker `tracker` and frees its change sets. A no-op when
    /// another tracker has taken over since.
    pub fn untrack_changes(&self, tracker: u64) {
        let mut current = self.inner.tracker.lock();
        if *current != tracker {
            return;
        }
        *current = 0;
        for engine in &self.inner.instances {
            engine.track_changes(false);
        }
    }

    /// Whether a tracker records this store's changes (inspection / tests).
    pub fn tracks_changes(&self) -> bool {
        *self.inner.tracker.lock() != 0
    }

    /// Total number of live keys.
    pub fn len(&self) -> Result<usize, StoreError> {
        Ok(self.inner.instances.iter().map(MdbEngine::len).sum())
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> Result<bool, StoreError> {
        Ok(self.len()? == 0)
    }

    /// A no-op, kept for callers that mark a durable point: every write
    /// is applied when [`TdStore::modify`] returns, and durability across
    /// a process death comes from the checkpoint log, not from the store.
    pub fn sync(&self) {}

    /// Attaches this store's metric handles to `registry` so they appear
    /// in its exposition as `tdstore_ops_total{op=...}`. Idempotent; call
    /// once per registry.
    pub fn register_metrics(&self, registry: &obs::Registry) {
        let m = &self.inner.metrics;
        for (op, counter) in [
            ("get", &m.gets),
            ("write", &m.writes),
            ("delete", &m.deletes),
            ("unchanged", &m.unchanged),
        ] {
            registry.register_counter(
                "tdstore_ops_total",
                &[("op", op)],
                "Store operations by kind",
                counter,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> TdStore {
        TdStore::new(StoreConfig::default())
    }

    #[test]
    fn basic_round_trip() {
        let s = store();
        assert!(s.get(b"k").unwrap().is_none());
        s.put(b"k", vec![1, 2]).unwrap();
        assert_eq!(s.get(b"k").unwrap(), Some(vec![1, 2]));
        assert!(s.delete(b"k").unwrap());
        assert!(!s.delete(b"k").unwrap());
        assert!(s.is_empty().unwrap());
    }

    #[test]
    fn f64_helpers() {
        let s = store();
        assert_eq!(s.incr_f64(b"c", 2.5).unwrap(), 2.5);
        assert_eq!(s.incr_f64(b"c", -1.0).unwrap(), 1.5);
        assert_eq!(s.get_f64(b"c").unwrap(), Some(1.5));
        assert_eq!(s.get_f64(b"missing").unwrap(), None);
    }

    #[test]
    fn scan_prefix_spans_instances() {
        let s = store();
        for i in 0..64u32 {
            s.put(format!("item:{i}").as_bytes(), vec![i as u8])
                .unwrap();
            s.put(format!("pair:{i}").as_bytes(), vec![i as u8])
                .unwrap();
        }
        assert_eq!(s.scan_prefix(b"item:").unwrap().len(), 64);
        assert_eq!(s.len().unwrap(), 128);
    }

    /// Publishes every pair of `s` to the checkpoint log at `path`.
    fn checkpoint(s: &TdStore, path: &std::path::Path) {
        let mut state = s.scan_prefix(b"").unwrap();
        state.sort_unstable();
        SnapshotStore::open(path)
            .unwrap()
            .publish(0, &[], &state)
            .unwrap();
    }

    /// Fails over to a fresh store restored from the newest checkpoint
    /// at `path`: with one copy of the state, the checkpoint log is the
    /// only thing a lost store comes back from.
    fn fail_over(path: &std::path::Path) -> TdStore {
        let snap = SnapshotStore::open(path).unwrap().load_latest().unwrap();
        let fresh = store();
        fresh.batch_put(snap.state).unwrap();
        fresh
    }

    fn log_path(tag: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("tdstore-test-{}-{tag}.log", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn failover_after_sync_preserves_data() {
        let log = log_path("after-sync");
        let s = store();
        for i in 0..100u32 {
            s.put(format!("k{i}").as_bytes(), vec![i as u8]).unwrap();
        }
        s.sync();
        checkpoint(&s, &log);
        drop(s);
        let s = fail_over(&log);
        for i in 0..100u32 {
            assert_eq!(
                s.get(format!("k{i}").as_bytes()).unwrap(),
                Some(vec![i as u8]),
                "key k{i} lost after failover"
            );
        }
        let _ = std::fs::remove_file(&log);
    }

    #[test]
    fn failover_without_sync_loses_only_unsynced_writes() {
        let log = log_path("without-sync");
        let s = store();
        s.put(b"a", vec![1]).unwrap();
        checkpoint(&s, &log);
        // Written after the checkpoint: the store alone does not bring it
        // back (replaying the access log does).
        s.put(b"b", vec![2]).unwrap();
        drop(s);
        let s = fail_over(&log);
        assert_eq!(s.get(b"a").unwrap(), Some(vec![1]));
        assert_eq!(s.get(b"b").unwrap(), None);
        let _ = std::fs::remove_file(&log);
    }

    #[test]
    fn failover_reseeds_short_and_long_keys() {
        // Keys on both sides of MDB's inline limit (30 bytes) survive
        // three failovers, each re-seeding a fresh store from the log.
        let log = log_path("reseed");
        let mut s = store();
        let key = |len: usize, i: u8| {
            let mut key = vec![b'k'; len];
            key[len - 1] = i;
            key
        };
        let lens = [2, 12, 29, 30, 31, 64, 200];
        for len in lens {
            for i in 0..40u8 {
                s.put(&key(len, i), vec![i; len]).unwrap();
            }
        }
        checkpoint(&s, &log);
        for round in 0..3 {
            s = fail_over(&log);
            for len in lens {
                s.incr_f64(&key(len, 255), 1.0).unwrap();
            }
            checkpoint(&s, &log);
            for len in lens {
                for i in 0..40u8 {
                    assert_eq!(s.get(&key(len, i)).unwrap(), Some(vec![i; len]));
                }
                let count = s.get_f64(&key(len, 255)).unwrap();
                assert_eq!(count, Some(round as f64 + 1.0), "{len}-byte counter");
            }
        }
        assert_eq!(s.len().unwrap(), lens.len() * 41);
        let _ = std::fs::remove_file(&log);
    }

    #[test]
    fn batch_put_round_trip() {
        let s = store();
        s.batch_put(vec![(b"a".to_vec(), vec![1]), (b"b".to_vec(), vec![2])])
            .unwrap();
        assert_eq!(s.get(b"a").unwrap(), Some(vec![1]));
        assert_eq!(s.get(b"b").unwrap(), Some(vec![2]));
    }

    #[test]
    fn injected_write_fail_has_no_effect() {
        let plan = tchaos::FaultPlan::builder(7)
            .site(tchaos::FaultSite::WriteFail, 1.0, 1)
            .build();
        let s = TdStore::new(StoreConfig {
            fault_plan: plan,
            ..Default::default()
        });
        assert!(matches!(s.put(b"k", vec![1]), Err(StoreError::Injected)));
        assert!(s.get(b"k").unwrap().is_none(), "failed write must not land");
        s.put(b"k", vec![2]).unwrap(); // budget of 1 exhausted
        assert_eq!(s.get(b"k").unwrap(), Some(vec![2]));
    }

    #[test]
    fn registry_tracks_ops() {
        let s = store();
        let registry = obs::Registry::new();
        s.register_metrics(&registry);
        for i in 0..5u32 {
            s.put(format!("k{i}").as_bytes(), vec![i as u8]).unwrap();
        }
        s.get(b"k0").unwrap();
        s.delete(b"k4").unwrap();
        // Looked at, left alone: counted, but not as a write.
        assert!(!s.modify(b"k0", |slot| slot.is_none()).unwrap());
        assert!(!s.delete(b"k4").unwrap());
        for (op, want) in [("unchanged", 2), ("write", 5), ("get", 1), ("delete", 1)] {
            assert_eq!(
                registry.counter_value("tdstore_ops_total", &[("op", op)]),
                Some(want),
                "{op}"
            );
        }
        let text = registry.render();
        assert!(text.contains("tdstore_ops_total{op=\"write\"}"));
    }

    #[test]
    fn incr_f64_rewrites_a_count_and_replaces_anything_else() {
        let s = store();
        s.put(b"torn", vec![1, 2, 3]).unwrap();
        assert_eq!(s.incr_f64(b"torn", 2.0).unwrap(), 2.0);
        assert_eq!(s.get(b"torn").unwrap(), Some(2.0f64.to_le_bytes().to_vec()));
        // Missing reads as +0.0, so a -0.0 delta stores +0.0.
        assert_eq!(s.incr_f64(b"zero", -0.0).unwrap().to_bits(), 0);
        assert_eq!(s.incr_f64(b"torn", 0.5).unwrap(), 2.5);
        assert_eq!(s.incr_f64(b"torn", -3.0).unwrap(), -0.5);
        assert_eq!(s.get_f64(b"torn").unwrap(), Some(-0.5));
        assert_eq!(s.get_f64(b"zero").unwrap().map(f64::to_bits), Some(0));
    }

    #[test]
    fn changes_name_what_modify_changed_since_the_last_take() {
        let s = store();
        s.put(b"before", vec![1]).unwrap();
        assert!(!s.tracks_changes(), "a store starts untracked");
        let tracker = s.track_changes();
        s.put(b"kept", vec![1]).unwrap();
        s.incr_f64(b"count", 1.0).unwrap();
        s.put(b"brief", vec![2]).unwrap();
        s.delete(b"brief").unwrap();
        s.delete(b"before").unwrap();
        assert!(!s.delete(b"never").unwrap(), "unchanged: not recorded");
        let mut changes = s.take_changes(tracker).unwrap();
        changes.puts.sort();
        changes.deletes.sort();
        let count = 1.0f64.to_le_bytes().to_vec();
        let puts = [(b"count".to_vec(), count), (b"kept".to_vec(), vec![1])];
        assert_eq!(changes.puts, puts);
        assert_eq!(changes.deletes, [b"before".to_vec(), b"brief".to_vec()]);
        // Taken: the sets start again from empty.
        let changes = s.take_changes(tracker).unwrap();
        assert!(changes.puts.is_empty() && changes.deletes.is_empty());
        // A second tracker takes over; a stale one takes and stops nothing.
        let second = s.track_changes();
        assert!(s.take_changes(tracker).is_none());
        s.untrack_changes(tracker);
        assert!(s.take_changes(second).is_some());
        s.untrack_changes(second);
        assert!(!s.tracks_changes() && s.take_changes(second).is_none());
    }

    #[test]
    fn update_delete_via_none() {
        let s = store();
        s.put(b"k", vec![1]).unwrap();
        let new = s.update(b"k", |_| None).unwrap();
        assert!(new.is_none());
        assert!(s.get(b"k").unwrap().is_none());
    }
}
