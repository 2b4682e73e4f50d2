#![warn(missing_docs)]
//! # tdstore — Tencent Data Store
//!
//! Reproduction of the paper's TDStore (§3.3): a distributed memory-based
//! key-value store holding the recommendation *status data* (user
//! histories, `itemCount`s, `pairCount`s, similar-item lists), so that the
//! stream topology itself can stay state-free and fail fast.
//!
//! * A **config-server pair** owns the route table; clients fetch it once
//!   and then talk to data servers directly.
//! * The key space is split into **data instances**; each instance has a
//!   host replica and a slave replica on different data servers, so "almost
//!   all the data servers are providing service simultaneously".
//! * Hosts notify slaves after updates and the slave applies them "when
//!   idle" — reproduced as an explicit sync queue with configurable
//!   auto-sync, so the lazy-replication window is testable.
//! * Every replica is an [`engine::MdbEngine`] (sharded memory): status
//!   data lives in memory and survives a process death through the
//!   checkpoint log, which [`SnapshotStore`] keeps on an
//!   [`engine::FdbEngine`] (an append-only file).
//! * The client API is two primitives, on the engines and on
//!   [`TdStore`] alike: [`TdStore::read`] lends the stored bytes to a
//!   closure, and [`TdStore::modify`] is the one read-modify-write — in
//!   place and *conditional*: a closure that reports "unchanged" costs no
//!   write, no copy and no replication. `get`/`put`/`delete`/`update` are
//!   wrappers over them.
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
mod server;
pub mod snapshot;

pub use engine::{FdbEngine, MdbEngine, StorageEngine};
pub use error::StoreError;
pub use route::{ConfigServers, InstanceId, InstanceRoute, RouteTable, ServerId};
pub use server::DataServer;
pub use snapshot::{Snapshot, SnapshotKind, SnapshotMeta, SnapshotRecord, SnapshotStore};

use parking_lot::{Mutex, RwLock};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

/// Store construction parameters.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Number of data servers.
    pub servers: u32,
    /// Number of data instances (key-space shards).
    pub instances: u32,
    /// Keep a slave replica per instance.
    pub replicated: bool,
    /// Hand the replication queue to the background drainer thread after
    /// this many writes (0 = replicate only on explicit
    /// [`TdStore::sync`]). The drain happens off the write path; call
    /// [`TdStore::sync`] for a synchronous durable point.
    pub sync_every: usize,
    /// Apply every write to host *and* slave synchronously instead of
    /// queueing lazy replication. Slower, but failover is lossless: the
    /// surviving replica always holds every acknowledged write.
    pub write_through: bool,
    /// Fault-injection plan for chaos testing ([`tchaos::FaultPlan::none`]
    /// by default — zero cost when disabled). Sites: `WriteFail` makes a
    /// write return [`StoreError::Injected`] before touching any replica,
    /// `Failover` kills a live data server right after a write completes.
    pub fault_plan: tchaos::FaultPlan,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            servers: 4,
            instances: 16,
            replicated: true,
            sync_every: 256,
            write_through: false,
            fault_plan: tchaos::FaultPlan::none(),
        }
    }
}

struct SyncOp {
    instance: InstanceId,
    /// Route-table generation the write was recorded under; the op is
    /// dropped at drain time if the instance has since failed over (the
    /// re-seed already copied the host's state, so applying the stale op
    /// to the new slave could resurrect a lost write).
    generation: u64,
    key: Vec<u8>,
    /// `None` = delete.
    value: Option<Vec<u8>>,
}

/// Hand-off point between writers and the background replication
/// drainer. Writers push whole batches of [`SyncOp`]s (taken from
/// `pending` when the auto-sync threshold trips) and ring the condvar;
/// the drainer applies them to slave replicas off the write path, so a
/// writer never pays the drain inline — the paper's "the slave data
/// server will update its data when idle", taken literally.
struct DrainControl {
    // std sync primitives here (not the workspace parking_lot): the
    // drainer parks on a condvar, which parking_lot's vendored stub does
    // not provide.
    queue: std::sync::Mutex<DrainQueue>,
    cv: std::sync::Condvar,
}

struct DrainQueue {
    batches: VecDeque<Vec<SyncOp>>,
    shutdown: bool,
}

impl DrainControl {
    fn new() -> Self {
        DrainControl {
            queue: std::sync::Mutex::new(DrainQueue {
                batches: VecDeque::new(),
                shutdown: false,
            }),
            cv: std::sync::Condvar::new(),
        }
    }

    fn lock_queue(&self) -> std::sync::MutexGuard<'_, DrainQueue> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Free-standing metric handles; attached to an exposition registry via
/// [`TdStore::register_metrics`]. Kept as plain handles (not registry
/// lookups) so the hot paths never touch the registry lock.
struct StoreMetrics {
    gets: obs::Counter,
    writes: obs::Counter,
    deletes: obs::Counter,
    /// `modify` calls whose closure reported no change: nothing written,
    /// nothing replicated.
    unchanged: obs::Counter,
    failovers: obs::Counter,
    replication_queue: obs::Gauge,
}

impl StoreMetrics {
    fn new() -> Self {
        StoreMetrics {
            gets: obs::Counter::new(),
            writes: obs::Counter::new(),
            deletes: obs::Counter::new(),
            unchanged: obs::Counter::new(),
            failovers: obs::Counter::new(),
            replication_queue: obs::Gauge::new(),
        }
    }
}

/// Where one instance is served right now: what an operation needs from
/// the route table and the data servers, resolved once per placement
/// change instead of once per operation.
struct InstanceHosts {
    /// Route generation this entry was resolved under (see [`SyncOp`]).
    generation: u64,
    host: Arc<MdbEngine>,
    slave: Option<Arc<MdbEngine>>,
}

/// One entry per instance; an instance with no live host keeps the error
/// every operation on it returns.
type HostTable = Vec<Result<InstanceHosts, StoreError>>;

struct StoreInner {
    config_servers: ConfigServers,
    servers: Vec<Arc<DataServer>>,
    /// The client's cached routing, rebuilt by [`TdStore::kill_server`].
    /// Every operation holds it for reading while it touches a replica and
    /// a failover holds it for writing from the kill to the last re-seeded
    /// key, so no operation ever sees — or writes into — a placement that
    /// is being replaced.
    hosts: RwLock<HostTable>,
    pending: Mutex<Vec<SyncOp>>,
    writes_since_sync: AtomicUsize,
    /// Host writes recorded but not yet applied to a slave (pending +
    /// handed to the drainer); feeds the replication-queue gauge.
    unreplicated: AtomicUsize,
    /// Batches handed off to the background drainer thread.
    drain: Arc<DrainControl>,
    /// Serializes replication appliers (the drainer thread and explicit
    /// [`TdStore::sync`] calls), so ops land on slaves in FIFO order and
    /// `sync()` returning means every previously recorded op is applied.
    drain_lock: Mutex<()>,
    sync_every: usize,
    write_through: bool,
    /// One lock per instance, used only in write-through mode: a write
    /// holds its instance's lock across host apply + slave apply, so two
    /// writers of one key reach both replicas in the same order.
    write_locks: Vec<Mutex<()>>,
    fault_plan: tchaos::FaultPlan,
    metrics: StoreMetrics,
}

impl StoreInner {
    /// Resolves every instance's replicas from the route table and the
    /// data servers.
    fn resolve_hosts(&self) -> HostTable {
        (0..self.config_servers.instances())
            .map(|instance| {
                let route = self.config_servers.route(instance)?;
                Ok(InstanceHosts {
                    generation: route.generation,
                    host: self.servers[route.host as usize].replica(instance)?,
                    slave: route
                        .slave
                        .and_then(|s| self.servers[s as usize].replica(instance).ok()),
                })
            })
            .collect()
    }

    fn instance_for(&self, key: &[u8]) -> InstanceId {
        (route::key_hash(key) % self.write_locks.len() as u64) as InstanceId
    }

    /// Applies recorded host writes to their slave replicas. Callers hold
    /// `drain_lock` so concurrent appliers cannot reorder same-key ops.
    fn apply_ops(&self, ops: Vec<SyncOp>) {
        let applied = ops.len();
        let hosts = self.hosts.read();
        for op in ops {
            let Some(Ok(route)) = hosts.get(op.instance as usize) else {
                continue;
            };
            // Recorded under an older placement: the instance failed over
            // since, and the re-seed already copied the host's state to
            // the new slave. Applying the stale absolute value here could
            // resurrect a write that was legitimately lost with the old
            // host — drop it.
            if route.generation != op.generation {
                continue;
            }
            let Some(slave) = &route.slave else { continue };
            match op.value {
                Some(v) => slave.put(&op.key, v),
                None => {
                    slave.delete(&op.key);
                }
            }
        }
        drop(hosts);
        if applied > 0 {
            let depth = self
                .unreplicated
                .fetch_sub(applied, Ordering::Relaxed)
                .saturating_sub(applied);
            self.metrics.replication_queue.set(depth as f64);
        }
    }
}

impl Drop for StoreInner {
    fn drop(&mut self) {
        self.drain.lock_queue().shutdown = true;
        self.drain.cv.notify_all();
    }
}

/// A set of raw `(key, value)` pairs returned by scans.
pub type KvPairs = Vec<(Vec<u8>, Vec<u8>)>;

/// Client handle to a TDStore deployment. Cheap to clone.
#[derive(Clone)]
pub struct TdStore {
    inner: Arc<StoreInner>,
}

impl TdStore {
    /// Builds an in-process deployment per `config`.
    pub fn new(config: StoreConfig) -> Self {
        assert!(config.servers > 0 && config.instances > 0);
        let table = RouteTable::new(config.instances, config.servers, config.replicated);
        let servers: Vec<Arc<DataServer>> = (0..config.servers)
            .map(|i| Arc::new(DataServer::new(i)))
            .collect();
        for instance in 0..config.instances {
            let route = table.get(instance).expect("instance in table").clone();
            servers[route.host as usize].ensure_replica(instance);
            if let Some(slave) = route.slave {
                servers[slave as usize].ensure_replica(instance);
            }
        }
        let store = TdStore {
            inner: Arc::new(StoreInner {
                config_servers: ConfigServers::new(table),
                servers,
                hosts: RwLock::new(Vec::new()),
                pending: Mutex::new(Vec::new()),
                writes_since_sync: AtomicUsize::new(0),
                unreplicated: AtomicUsize::new(0),
                drain: Arc::new(DrainControl::new()),
                drain_lock: Mutex::new(()),
                sync_every: config.sync_every,
                write_through: config.write_through,
                write_locks: (0..config.instances).map(|_| Mutex::new(())).collect(),
                fault_plan: config.fault_plan,
                metrics: StoreMetrics::new(),
            }),
        };
        *store.inner.hosts.write() = store.inner.resolve_hosts();
        if config.sync_every > 0 {
            store.spawn_drainer();
        }
        store
    }

    /// Background replication applier. Holds only a weak reference so
    /// dropping the last client handle shuts the thread down (StoreInner's
    /// Drop rings the condvar with `shutdown` set).
    fn spawn_drainer(&self) {
        let weak: Weak<StoreInner> = Arc::downgrade(&self.inner);
        let ctl = Arc::clone(&self.inner.drain);
        std::thread::Builder::new()
            .name("tdstore-sync".into())
            .spawn(move || loop {
                {
                    let mut q = ctl.lock_queue();
                    while q.batches.is_empty() && !q.shutdown {
                        q = ctl.cv.wait(q).unwrap_or_else(|e| e.into_inner());
                    }
                    if q.shutdown {
                        return;
                    }
                }
                let Some(inner) = weak.upgrade() else { return };
                // Pop under the applier lock (not in the wait above) so a
                // concurrent `sync()` can never apply a newer batch while
                // an older one sits popped-but-unapplied here.
                let _applying = inner.drain_lock.lock();
                let batches: Vec<Vec<SyncOp>> =
                    inner.drain.lock_queue().batches.drain(..).collect();
                for batch in batches {
                    inner.apply_ops(batch);
                }
            })
            .expect("spawn tdstore-sync drainer");
    }

    fn record_write(
        &self,
        instance: InstanceId,
        generation: u64,
        key: &[u8],
        value: Option<Vec<u8>>,
    ) {
        {
            let mut pending = self.inner.pending.lock();
            pending.push(SyncOp {
                instance,
                generation,
                key: key.to_vec(),
                value,
            });
        }
        let depth = self.inner.unreplicated.fetch_add(1, Ordering::Relaxed) + 1;
        self.inner.metrics.replication_queue.set(depth as f64);
        if self.inner.sync_every > 0
            && self.inner.writes_since_sync.fetch_add(1, Ordering::Relaxed) + 1
                >= self.inner.sync_every
        {
            // Hand the accumulated batch to the background drainer instead
            // of draining inline: the old inline `sync()` here made every
            // `sync_every`-th write pay the whole queue's replication cost
            // (a multi-millisecond p99 spike under load).
            self.inner.writes_since_sync.store(0, Ordering::Relaxed);
            // The next batch fills to the same threshold: sized once, not
            // regrown from empty.
            let batch = std::mem::replace(
                &mut *self.inner.pending.lock(),
                Vec::with_capacity(self.inner.sync_every),
            );
            if !batch.is_empty() {
                let mut q = self.inner.drain.lock_queue();
                q.batches.push_back(batch);
                self.inner.drain.cv.notify_one();
            }
        }
    }

    /// Injected failover: kills the highest-numbered live data server
    /// (deterministic given the fault schedule), provided enough servers
    /// remain for every instance to keep a replicated home.
    fn maybe_inject_failover(&self) {
        if !self
            .inner
            .fault_plan
            .should_fault(tchaos::FaultSite::Failover)
        {
            return;
        }
        let alive: Vec<ServerId> = self
            .inner
            .servers
            .iter()
            .filter(|s| s.is_alive())
            .map(|s| s.id())
            .collect();
        if alive.len() >= 3 {
            let victim = *alive.iter().max().expect("non-empty");
            let _ = self.kill_server(victim);
        }
    }

    /// Calls `f` with the value of `key` borrowed from the host replica —
    /// no copy for the in-memory engines. `f` runs under the engine's lock
    /// for the key: keep it short and do not call the store from it.
    pub fn read<R>(&self, key: &[u8], f: impl FnOnce(Option<&[u8]>) -> R) -> Result<R, StoreError> {
        let hosts = self.inner.hosts.read();
        let route = hosts[self.inner.instance_for(key) as usize]
            .as_ref()
            .map_err(Clone::clone)?;
        self.inner.metrics.gets.inc();
        let mut f = Some(f);
        let mut out = None;
        route.host.read(key, &mut |raw| {
            out = f.take().map(|f| f(raw));
        });
        Ok(out.expect("engine read calls its closure"))
    }

    /// Atomic, conditional read-modify-write on one key, in place: `f`
    /// edits the stored value (`None` = absent; leave `None` to delete)
    /// and returns whether it changed anything. An unchanged value costs
    /// the lookup and `f`: no replica is touched, nothing is queued for
    /// replication, nothing is copied. A changed value is copied once, for
    /// the slave. `f` is called exactly once, under the engine's lock for
    /// the key: keep it short and do not call the store from it. Returns
    /// what `f` returned.
    pub fn modify(
        &self,
        key: &[u8],
        mut f: impl FnMut(&mut Option<Vec<u8>>) -> bool,
    ) -> Result<bool, StoreError> {
        // Injected write failure: checked before any replica is touched,
        // so a failed write has had *no* effect and a retry/replay is safe.
        if self
            .inner
            .fault_plan
            .should_fault(tchaos::FaultSite::WriteFail)
        {
            return Err(StoreError::Injected);
        }
        let instance = self.inner.instance_for(key);
        let deleted = {
            let _ordered = self
                .inner
                .write_through
                .then(|| self.inner.write_locks[instance as usize].lock());
            let hosts = self.inner.hosts.read();
            let route = hosts[instance as usize].as_ref().map_err(Clone::clone)?;
            // An instance without a slave (unreplicated, or its slave's
            // server gone) has nobody to copy for or queue to.
            let (mut deleted, mut for_slave) = (false, None);
            let changed = route.host.modify(key, &mut |slot| {
                let changed = f(slot);
                if changed {
                    deleted = slot.is_none();
                    if route.slave.is_some() {
                        for_slave = slot.clone();
                    }
                }
                changed
            });
            if !changed {
                self.inner.metrics.unchanged.inc();
                return Ok(false);
            }
            if let Some(slave) = &route.slave {
                if !self.inner.write_through {
                    self.record_write(instance, route.generation, key, for_slave);
                } else {
                    match for_slave {
                        Some(v) => slave.put(key, v),
                        None => {
                            slave.delete(key);
                        }
                    }
                }
            }
            deleted
        };
        if deleted {
            self.inner.metrics.deletes.inc();
        } else {
            self.inner.metrics.writes.inc();
        }
        self.maybe_inject_failover();
        Ok(true)
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
            let cur = slot
                .as_deref()
                .and_then(|v| v.try_into().ok().map(f64::from_le_bytes))
                .unwrap_or(0.0);
            new = cur + delta;
            *slot = Some(new.to_le_bytes().to_vec());
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
        for route in self.inner.hosts.read().iter() {
            let route = route.as_ref().map_err(Clone::clone)?;
            out.extend(route.host.scan_prefix(prefix));
        }
        Ok(out)
    }

    /// Total number of live keys (host replicas).
    pub fn len(&self) -> Result<usize, StoreError> {
        let mut total = 0;
        for route in self.inner.hosts.read().iter() {
            total += route.as_ref().map_err(Clone::clone)?.host.len();
        }
        Ok(total)
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> Result<bool, StoreError> {
        Ok(self.len()? == 0)
    }

    /// Drains the replication queue synchronously: applies every recorded
    /// host write — batches already handed to the background drainer and
    /// everything still pending — to the corresponding slave replicas
    /// ("the slave data server will update its data when idle"). When this
    /// returns, every write recorded before the call is on its slave.
    pub fn sync(&self) {
        let _applying = self.inner.drain_lock.lock();
        let batches: Vec<Vec<SyncOp>> = self.inner.drain.lock_queue().batches.drain(..).collect();
        for batch in batches {
            self.inner.apply_ops(batch);
        }
        self.inner.writes_since_sync.store(0, Ordering::Relaxed);
        let ops: Vec<SyncOp> = std::mem::take(&mut *self.inner.pending.lock());
        self.inner.apply_ops(ops);
    }

    /// Number of writes not yet handed to the replication drainer.
    pub fn pending_sync_ops(&self) -> usize {
        self.inner.pending.lock().len()
    }

    /// Host writes not yet applied to a slave replica, including batches
    /// queued at the background drainer.
    pub fn unreplicated_ops(&self) -> usize {
        self.inner.unreplicated.load(Ordering::Relaxed)
    }

    /// Kills data server `id` and fails over every instance it hosted to
    /// its slave; new slaves are provisioned and re-seeded from the new
    /// hosts. Writes that were never synced are lost — exactly the
    /// real-world lazy-replication window.
    pub fn kill_server(&self, id: ServerId) -> Result<(), StoreError> {
        // Held from the kill to the last re-seeded key: operations hold
        // `hosts` for reading while they touch a replica, so none is in
        // flight while the routes change and none straddles the failover
        // half-applied.
        let mut hosts = self.inner.hosts.write();
        let outcome = self.fail_over(id);
        *hosts = self.inner.resolve_hosts();
        outcome?;
        self.inner.metrics.failovers.inc();
        Ok(())
    }

    fn fail_over(&self, id: ServerId) -> Result<(), StoreError> {
        self.inner.servers[id as usize].kill();
        let alive: Vec<ServerId> = self
            .inner
            .servers
            .iter()
            .filter(|s| s.is_alive())
            .map(|s| s.id())
            .collect();
        if alive.is_empty() {
            return Err(StoreError::NoServers);
        }
        let changed = self.inner.config_servers.fail_server(id, &alive)?;
        // Re-seed new slaves from their (possibly just-promoted) hosts.
        for (instance, host, slave) in changed {
            let host_engine = self.inner.servers[host as usize].replica(instance)?;
            if let Some(slave) = slave {
                let server = &self.inner.servers[slave as usize];
                server.ensure_replica(instance);
                let slave_engine = server.replica(instance)?;
                for (k, v) in host_engine.scan_prefix(b"") {
                    slave_engine.put(&k, v);
                }
            }
        }
        Ok(())
    }

    /// Attaches this store's metric handles to `registry` so they appear
    /// in its exposition: `tdstore_ops_total{op=...}`,
    /// `tdstore_replication_queue_depth`, `tdstore_failovers_total`.
    /// Idempotent; call once per registry.
    pub fn register_metrics(&self, registry: &obs::Registry) {
        let m = &self.inner.metrics;
        registry.register_counter(
            "tdstore_ops_total",
            &[("op", "get")],
            "Store operations by kind",
            &m.gets,
        );
        registry.register_counter(
            "tdstore_ops_total",
            &[("op", "write")],
            "Store operations by kind",
            &m.writes,
        );
        registry.register_counter(
            "tdstore_ops_total",
            &[("op", "delete")],
            "Store operations by kind",
            &m.deletes,
        );
        registry.register_counter(
            "tdstore_ops_total",
            &[("op", "unchanged")],
            "Store operations by kind",
            &m.unchanged,
        );
        registry.register_gauge(
            "tdstore_replication_queue_depth",
            &[],
            "Host writes not yet applied to slave replicas",
            &m.replication_queue,
        );
        registry.register_counter(
            "tdstore_failovers_total",
            &[],
            "Data-server failovers (instances rerouted to slaves)",
            &m.failovers,
        );
    }

    /// Number of data servers (alive or dead).
    pub fn server_count(&self) -> usize {
        self.inner.servers.len()
    }

    /// Number of failovers this deployment has performed. Monotonic; a
    /// change tells caches layered over the store that unsynced writes may
    /// have been lost (the lazy-replication window) and their copies must
    /// be re-read.
    pub fn failover_count(&self) -> u64 {
        self.inner.metrics.failovers.get()
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

    #[test]
    fn failover_after_sync_preserves_data() {
        let cfg = StoreConfig {
            sync_every: 0, // manual sync
            ..Default::default()
        };
        let s = TdStore::new(cfg);
        for i in 0..100u32 {
            s.put(format!("k{i}").as_bytes(), vec![i as u8]).unwrap();
        }
        s.sync();
        s.kill_server(0).unwrap();
        for i in 0..100u32 {
            assert_eq!(
                s.get(format!("k{i}").as_bytes()).unwrap(),
                Some(vec![i as u8]),
                "key k{i} lost after failover"
            );
        }
    }

    #[test]
    fn failover_without_sync_loses_only_unsynced_writes() {
        let cfg = StoreConfig {
            sync_every: 0,
            ..Default::default()
        };
        let s = TdStore::new(cfg);
        s.put(b"a", vec![1]).unwrap();
        s.sync();
        s.put(b"b", vec![2]).unwrap(); // never synced
        s.kill_server(0).unwrap();
        assert_eq!(s.get(b"a").unwrap(), Some(vec![1]));
    }

    #[test]
    fn double_failover_with_enough_servers() {
        let s = TdStore::new(StoreConfig {
            servers: 4,
            instances: 8,
            replicated: true,
            sync_every: 1,
            ..Default::default()
        });
        for i in 0..50u32 {
            s.put(format!("k{i}").as_bytes(), vec![i as u8]).unwrap();
        }
        // Auto-sync hands batches to the background drainer; force a
        // synchronous durable point before pulling servers out.
        s.sync();
        s.kill_server(0).unwrap();
        s.sync();
        s.kill_server(1).unwrap();
        for i in 0..50u32 {
            assert_eq!(
                s.get(format!("k{i}").as_bytes()).unwrap(),
                Some(vec![i as u8])
            );
        }
    }

    #[test]
    fn auto_sync_triggers() {
        let s = TdStore::new(StoreConfig {
            sync_every: 10,
            ..Default::default()
        });
        for i in 0..25u32 {
            s.put(format!("k{i}").as_bytes(), vec![0]).unwrap();
        }
        assert!(s.pending_sync_ops() < 10);
    }

    #[test]
    fn background_drainer_replicates_without_explicit_sync() {
        let s = TdStore::new(StoreConfig {
            sync_every: 8,
            ..Default::default()
        });
        for i in 0..100u32 {
            s.put(format!("k{i}").as_bytes(), vec![i as u8]).unwrap();
        }
        // The drainer applies handed-off batches off the write path; wait
        // for it to catch up, then only the tail past the last threshold
        // crossing can still be unreplicated.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while s.unreplicated_ops() > s.pending_sync_ops() {
            assert!(
                std::time::Instant::now() < deadline,
                "drainer never caught up: {} unreplicated",
                s.unreplicated_ops()
            );
            std::thread::yield_now();
        }
        assert!(s.pending_sync_ops() < 8);
        s.sync();
        assert_eq!(s.unreplicated_ops(), 0);
        s.kill_server(0).unwrap();
        for i in 0..100u32 {
            assert_eq!(
                s.get(format!("k{i}").as_bytes()).unwrap(),
                Some(vec![i as u8]),
                "key k{i} lost after drained failover"
            );
        }
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
    fn stale_replication_op_dropped_after_failover() {
        // Regression: a queued replication op recorded before a failover
        // must not be applied after it. The unsynced write v2 is lost with
        // its host — draining the queue afterwards used to push v2 onto
        // the freshly seeded slave, resurrecting it on the *next* failover.
        let s = TdStore::new(StoreConfig {
            servers: 4,
            instances: 8,
            sync_every: 0, // manual drain
            ..Default::default()
        });
        s.put(b"k", vec![1]).unwrap();
        s.sync(); // host and slave both hold v1
        s.put(b"k", vec![2]).unwrap(); // host only; op queued
        let instance = s.inner.config_servers.instance_for(b"k");
        let host = s.inner.config_servers.route(instance).unwrap().host;
        s.kill_server(host).unwrap(); // v2 lost; slave promoted with v1
        s.sync(); // stale op must be dropped, not applied to the new slave
        let new_host = s.inner.config_servers.route(instance).unwrap().host;
        s.kill_server(new_host).unwrap(); // promote the re-seeded slave
        assert_eq!(
            s.get(b"k").unwrap(),
            Some(vec![1]),
            "lost write resurrected by a stale replication op"
        );
    }

    #[test]
    fn write_through_failover_is_lossless() {
        let s = TdStore::new(StoreConfig {
            sync_every: 0,
            write_through: true,
            ..Default::default()
        });
        for i in 0..100u32 {
            s.put(format!("k{i}").as_bytes(), vec![i as u8]).unwrap();
        }
        // Never synced — write-through replicated every write eagerly.
        assert_eq!(s.pending_sync_ops(), 0);
        s.kill_server(0).unwrap();
        s.kill_server(1).unwrap();
        for i in 0..100u32 {
            assert_eq!(
                s.get(format!("k{i}").as_bytes()).unwrap(),
                Some(vec![i as u8]),
                "key k{i} lost despite write-through"
            );
        }
    }

    #[test]
    fn write_through_survives_failover_mid_drain() {
        // Writers keep hammering while a server dies under them; every
        // acknowledged write must be readable afterwards.
        let s = TdStore::new(StoreConfig {
            write_through: true,
            ..Default::default()
        });
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for i in 0..200u32 {
                        s.put(format!("w{w}:{i}").as_bytes(), vec![w as u8, i as u8])
                            .unwrap();
                    }
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(1));
        s.kill_server(2).unwrap();
        for t in writers {
            t.join().unwrap();
        }
        for w in 0..4u32 {
            for i in 0..200u32 {
                assert_eq!(
                    s.get(format!("w{w}:{i}").as_bytes()).unwrap(),
                    Some(vec![w as u8, i as u8]),
                    "acknowledged write w{w}:{i} lost across mid-drain failover"
                );
            }
        }
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
    fn injected_failover_kills_one_server() {
        let plan = tchaos::FaultPlan::builder(7)
            .site(tchaos::FaultSite::Failover, 1.0, 1)
            .build();
        let s = TdStore::new(StoreConfig {
            write_through: true,
            fault_plan: plan,
            ..Default::default()
        });
        for i in 0..50u32 {
            s.put(format!("k{i}").as_bytes(), vec![i as u8]).unwrap();
        }
        let alive = s.inner.servers.iter().filter(|sv| sv.is_alive()).count();
        assert_eq!(alive, 3, "exactly one injected failover");
        for i in 0..50u32 {
            assert_eq!(
                s.get(format!("k{i}").as_bytes()).unwrap(),
                Some(vec![i as u8])
            );
        }
    }

    #[test]
    fn registry_tracks_ops_queue_and_failovers() {
        let s = TdStore::new(StoreConfig {
            sync_every: 0, // manual drain so the queue depth is observable
            ..Default::default()
        });
        let registry = obs::Registry::new();
        s.register_metrics(&registry);
        for i in 0..5u32 {
            s.put(format!("k{i}").as_bytes(), vec![i as u8]).unwrap();
        }
        s.get(b"k0").unwrap();
        s.delete(b"k4").unwrap();
        // Looked at, left alone: counted, but neither a write nor queued.
        assert!(!s.modify(b"k0", |slot| slot.is_none()).unwrap());
        assert!(!s.delete(b"k4").unwrap());
        assert_eq!(
            registry.counter_value("tdstore_ops_total", &[("op", "unchanged")]),
            Some(2)
        );
        assert_eq!(
            registry.counter_value("tdstore_ops_total", &[("op", "write")]),
            Some(5)
        );
        assert_eq!(
            registry.counter_value("tdstore_ops_total", &[("op", "get")]),
            Some(1)
        );
        assert_eq!(
            registry.counter_value("tdstore_ops_total", &[("op", "delete")]),
            Some(1)
        );
        assert_eq!(
            registry.gauge_value("tdstore_replication_queue_depth", &[]),
            Some(6.0),
            "5 puts + 1 delete queued for lazy replication"
        );
        s.sync();
        assert_eq!(
            registry.gauge_value("tdstore_replication_queue_depth", &[]),
            Some(0.0)
        );
        s.kill_server(0).unwrap();
        assert_eq!(
            registry.counter_value("tdstore_failovers_total", &[]),
            Some(1)
        );
        let text = registry.render();
        assert!(text.contains("tdstore_ops_total{op=\"write\"}"));
        assert!(text.contains("tdstore_replication_queue_depth"));
    }

    #[test]
    fn writes_without_a_slave_queue_nothing() {
        // Regression: every write used to clone key + value into the
        // replication queue and bump the depth gauge even when no slave
        // existed to apply it to; the drainer then threw each op away.
        let s = TdStore::new(StoreConfig {
            replicated: false,
            sync_every: 0,
            ..Default::default()
        });
        let registry = obs::Registry::new();
        s.register_metrics(&registry);
        for i in 0..50u32 {
            s.put(format!("k{i}").as_bytes(), vec![i as u8]).unwrap();
        }
        s.incr_f64(b"c", 1.0).unwrap();
        assert!(s.delete(b"k0").unwrap());
        assert_eq!(s.unreplicated_ops(), 0);
        assert_eq!(s.pending_sync_ops(), 0);
        assert_eq!(
            registry.gauge_value("tdstore_replication_queue_depth", &[]),
            Some(0.0)
        );
        assert_eq!(s.get(b"k7").unwrap(), Some(vec![7]));
        assert_eq!(s.len().unwrap(), 50);

        // The same holds for a replicated store's instances once their
        // slaves are gone: one server left means no slave anywhere.
        let s = TdStore::new(StoreConfig {
            servers: 2,
            sync_every: 0,
            ..Default::default()
        });
        s.kill_server(1).unwrap();
        s.put(b"k", vec![1]).unwrap();
        assert_eq!(s.unreplicated_ops(), 0);
        assert_eq!(s.pending_sync_ops(), 0);
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
