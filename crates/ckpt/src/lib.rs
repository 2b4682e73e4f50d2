#![warn(missing_docs)]
//! # ckpt — tsnap, durable asynchronous checkpoint/restore
//!
//! TencentRec's recovery story so far is *replay from offset zero*: the
//! topology is state-free by design (§3.3), so a restarted worker rebuilds
//! its TDStore state by re-consuming the whole TDAccess log. That is
//! correct (the chaos matrix proves byte-identical convergence) but the
//! time-to-recover grows linearly with log length — untenable once the
//! access log spans a day of traffic and has spilled to disk.
//!
//! `ckpt` adds the missing primitive: a **checkpoint coordinator** that
//! periodically captures
//!
//! 1. every stateful bolt's backing state (the full TDStore key space:
//!    the status-data families of `tencentrec::topology::state`, such as
//!    the `ic:`/`pc:` co-rating counts with their in-value dedup rings,
//!    `hist:` user histories and `sim:` similar-items lists), and
//! 2. a **consistent offset vector** over all replayable-spout partitions,
//!
//! inside one drain/seal barrier ([`tstorm::topology` handle
//! `with_barrier`]: deactivate spouts → wait for every in-flight tuple
//! tree to ack → seal → reactivate). Because capture happens with zero
//! tuples in flight, the offset vector and the state agree exactly: every
//! action at a committed offset is fully reflected in the state, and no
//! action past it has touched anything. Restart therefore equals
//! *load newest snapshot + replay only the tail*.
//!
//! The **asynchronous** half: only the in-memory read happens inside
//! the barrier (the state read + an offset-table encode). The durable
//! write — one record appended to the [`tdstore::SnapshotStore`] log,
//! then `fsync` — runs after the spouts have resumed, so the pipeline
//! stall is bounded by drain time, not disk time. A complete record is
//! its own commit, and reopening the log truncates a torn one, so a crash
//! *during* publication simply falls back to the previous checkpoint.
//!
//! The **incremental** half: from a store's first checkpoint until the
//! coordinator drops, the store records which keys its writes changed
//! ([`TdStore::track_changes`]). A steady-state epoch takes those keys
//! inside the barrier ([`TdStore::take_changes`]) and publishes a
//! [`delta record`](SnapshotStore::publish_delta): a present key is a
//! put, an absent one a delete. Every [`CheckpointConfig::rebase_every`]
//! epochs, past [`CheckpointConfig::max_delta_ratio`] of the chain's full
//! base, or when the changes since the newest epoch are not known, it
//! rebases to a self-contained full blob so restore chains stay short.

use obs::{Counter, Gauge, Registry};
use std::fmt;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};
use tdstore::snapshot::delta_payload_bytes;
use tdstore::{Changes, KvPairs, SnapshotMeta, SnapshotStore, StoreError, TdStore};
use tencentrec::topology::state::Family;
use tencentrec::topology::{OffsetTable, PartitionId};
use tstorm::executor::TopologyHandle;

/// Checkpoint cadence and retention policy.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// How long the barrier waits for in-flight tuple trees to drain
    /// before giving up on this checkpoint attempt (the pipeline resumes
    /// either way; a failed attempt just leaves the previous snapshot
    /// live).
    pub drain_timeout: Duration,
    /// Number of epochs kept restorable on disk (must be ≥ 1). Retention
    /// is chain-aware: a delta epoch keeps its full base alive, and the
    /// log is rewritten without the chains it cuts.
    pub retain: usize,
    /// Force a full (self-contained) blob at least every this many
    /// epochs (must be ≥ 1). `1` disables deltas entirely; `K` bounds a
    /// restore chain at one full blob + `K - 1` deltas.
    pub rebase_every: u64,
    /// Publish a full blob instead of a delta whenever the encoded delta
    /// would exceed this fraction of the chain's full base, as published
    /// — at that churn rate the delta saves nothing and only lengthens
    /// the restore chain.
    pub max_delta_ratio: f64,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            drain_timeout: Duration::from_secs(10),
            retain: 2,
            rebase_every: 8,
            max_delta_ratio: 0.5,
        }
    }
}

/// Why a checkpoint or restore attempt failed.
#[derive(Debug)]
pub enum CkptError {
    /// The drain/seal barrier timed out before the in-flight tuple trees
    /// settled; no snapshot was taken and the pipeline has resumed.
    BarrierTimeout,
    /// The state scan or snapshot-store write failed.
    Store(StoreError),
    /// A loaded snapshot failed to decode (corrupt offset vector, or a
    /// newest epoch with an unresolvable delta chain).
    Corrupt(&'static str),
    /// `restore_into` was handed a store that already holds keys.
    /// Restore must target a fresh store: stale keys from a partial
    /// earlier life would survive the insert-only load and break
    /// byte-identical convergence.
    DirtyStore,
    /// The [`CheckpointConfig`] is invalid (e.g. `retain == 0`, which
    /// would delete every snapshot right after publishing it).
    Config(&'static str),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::BarrierTimeout => write!(f, "checkpoint barrier timed out"),
            CkptError::Store(e) => write!(f, "snapshot store: {e}"),
            CkptError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            CkptError::DirtyStore => {
                write!(
                    f,
                    "restore target store is not empty (restore needs a fresh store)"
                )
            }
            CkptError::Config(what) => write!(f, "invalid checkpoint config: {what}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<StoreError> for CkptError {
    fn from(e: StoreError) -> Self {
        CkptError::Store(e)
    }
}

/// What a successful restore hands back: the snapshot's identity plus the
/// offsets every spout partition must seek to before replaying the tail.
#[derive(Debug, Clone)]
pub struct Restored {
    /// Identity of the snapshot that was loaded.
    pub meta: SnapshotMeta,
    /// Per-partition committed offsets at the seal — pass to
    /// `ReplayableSpout::with_start_offsets`.
    pub start_offsets: Vec<(PartitionId, u64)>,
}

/// Checkpoint metrics, held as plain handles so the checkpoint path never
/// touches the registry lock.
#[derive(Default)]
struct CkptMetrics {
    checkpoints: Counter,
    failures: Counter,
    barrier_ms: Gauge,
    publish_ms: Gauge,
    snapshot_bytes: Gauge,
    snapshot_entries: Gauge,
    last_epoch: Gauge,
    last_created_ms: Gauge,
    delta_bytes: Gauge,
    rebases: Counter,
    restored_epoch: Gauge,
    /// Keys and bytes per status-data family in the last full capture,
    /// indexed as [`family_label`].
    family_keys: [Gauge; FAMILY_GAUGES],
    family_bytes: [Gauge; FAMILY_GAUGES],
}

/// One gauge per [`Family`], and one for keys no family names.
const FAMILY_GAUGES: usize = Family::ALL.len() + 1;

/// The `family` label of gauge `at`: the family's tag without its colon,
/// and `other` last.
fn family_label(at: usize) -> &'static str {
    Family::ALL
        .get(at)
        .map_or("other", |f| f.tag().trim_end_matches(':'))
}

impl CkptMetrics {
    /// Sets the family gauges from a full capture, off the barrier.
    fn count_families(&self, pairs: &KvPairs) {
        let mut keys = [0usize; FAMILY_GAUGES];
        let mut bytes = [0usize; FAMILY_GAUGES];
        for (key, value) in pairs {
            let at = Family::of(key).map_or(Family::ALL.len(), |f| f as usize);
            keys[at] += 1;
            bytes[at] += key.len() + value.len();
        }
        for at in 0..FAMILY_GAUGES {
            self.family_keys[at].set(keys[at] as f64);
            self.family_bytes[at].set(bytes[at] as f64);
        }
    }
}

/// Sorts `pairs` by key for a deterministic blob layout: the store hands
/// them over in its own order. Keys compare first by their leading 16
/// bytes, held beside each index, so most comparisons read no key: 672K
/// pairs sort in 0.10–0.16 s that way on a shared 2-core box, against
/// 0.19–0.30 s comparing the keys alone.
fn sort_by_key(pairs: &mut KvPairs) {
    let lead = |key: &[u8]| {
        let mut lead = [0u8; 16];
        let n = key.len().min(16);
        lead[..n].copy_from_slice(&key[..n]);
        u128::from_be_bytes(lead)
    };
    let mut order: Vec<(u128, usize)> = pairs.iter().map(|(k, _)| lead(k)).zip(0..).collect();
    order.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| pairs[a.1].0.cmp(&pairs[b.1].0)));
    let sorted = order
        .iter()
        .map(|&(_, at)| std::mem::take(&mut pairs[at]))
        .collect();
    *pairs = sorted;
}

/// The delta chain this coordinator extends: what the next checkpoint
/// needs to publish a delta instead of a full blob. Dropping it stops
/// tracking the store's changes.
struct Chain {
    /// The store whose changes are tracked, and its tracker's id.
    store: TdStore,
    tracker: u64,
    /// Epoch and payload bytes of the chain's full base.
    base_epoch: u64,
    base_bytes: u64,
    /// Deltas published since the base.
    len: u64,
}

impl Chain {
    /// The newest epoch the chain published.
    fn head(&self) -> u64 {
        self.base_epoch + self.len
    }
}

impl Drop for Chain {
    fn drop(&mut self) {
        self.store.untrack_changes(self.tracker);
    }
}

/// What a checkpoint read inside the barrier.
enum Capture {
    /// The keys changed since the chain's head.
    Delta(Changes),
    /// The whole store, and the tracker started at the same cut.
    Full { pairs: KvPairs, tracker: u64 },
}

/// The checkpoint coordinator: owns the on-disk [`SnapshotStore`] and
/// drives barrier capture, durable publication, retention and restore.
pub struct Coordinator {
    snapshots: SnapshotStore,
    config: CheckpointConfig,
    metrics: CkptMetrics,
    /// The chain the next checkpoint extends. Its lock also serialises
    /// concurrent `checkpoint` callers (e.g. a timer thread racing a
    /// shutdown checkpoint): barriers must not nest.
    chain: Mutex<Option<Chain>>,
}

impl Coordinator {
    fn build(snapshots: SnapshotStore, config: CheckpointConfig) -> Result<Self, CkptError> {
        if config.retain == 0 {
            return Err(CkptError::Config(
                "retain must be >= 1 (0 would delete every snapshot right after publish)",
            ));
        }
        if config.rebase_every == 0 {
            return Err(CkptError::Config(
                "rebase_every must be >= 1 (1 = always publish full blobs)",
            ));
        }
        // NaN must fail too, so this is not a plain `<= 0.0` comparison.
        if config.max_delta_ratio.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(CkptError::Config("max_delta_ratio must be positive"));
        }
        Ok(Coordinator {
            snapshots,
            config,
            metrics: CkptMetrics::default(),
            chain: Mutex::new(None),
        })
    }

    /// Opens (or creates) the checkpoint log at `path`.
    pub fn open(
        path: impl Into<std::path::PathBuf>,
        config: CheckpointConfig,
    ) -> Result<Self, CkptError> {
        Self::build(SnapshotStore::open(path)?, config)
    }

    /// Opens the checkpoint log for restore/inspection only: every
    /// `checkpoint` attempt fails at the durable-publish step with a
    /// store error (and is counted in `ckpt_failures_total`).
    pub fn open_read_only(
        path: impl Into<std::path::PathBuf>,
        config: CheckpointConfig,
    ) -> Result<Self, CkptError> {
        Self::build(SnapshotStore::open_read_only(path)?, config)
    }

    /// The underlying snapshot repository (inspection / tests).
    pub fn snapshots(&self) -> &SnapshotStore {
        &self.snapshots
    }

    /// Takes one checkpoint of the running topology.
    ///
    /// Inside the barrier (spouts deactivated, zero tuples in flight) the
    /// committed offset vector is encoded and the state is read: for a
    /// delta epoch only the keys the store recorded as changed since this
    /// coordinator's newest epoch, for a full epoch every key, after which
    /// the store records changes from that cut. Sorting, encoding and the
    /// durable publish happen *after* the spouts resume.
    ///
    /// A full blob is published at the first checkpoint, every
    /// `rebase_every`-th epoch, when the delta would exceed
    /// `max_delta_ratio` of the chain's full base, and whenever the
    /// changes are not known relative to the newest epoch: a store this
    /// coordinator does not track, a checkpoint after `restore_into`, or
    /// after a failed attempt. `now_ms` is the coordinator's clock
    /// reading, stamped into the payload header so restore can report
    /// snapshot age for any epoch.
    pub fn checkpoint(
        &self,
        handle: &TopologyHandle,
        state: &TdStore,
        offsets: &OffsetTable,
        now_ms: u64,
    ) -> Result<SnapshotMeta, CkptError> {
        // A checkpoint that panicked left nothing half-made in the slot
        // (a chain changes only after a publish, and is checked against
        // the newest epoch before use), so a poisoned lock is taken as is.
        let mut chain = self.chain.lock().unwrap_or_else(PoisonError::into_inner);
        let latest_epoch = self.snapshots.latest().map_or(0, |m| m.epoch);
        // A chain that no longer ends at the newest epoch (another writer
        // published since) is of no use; one that is due for its rebase
        // still counts one.
        let usable = chain.as_ref().filter(|c| c.head() == latest_epoch);
        let extend = usable
            .filter(|c| c.len + 1 < self.config.rebase_every)
            .map(|c| (c.tracker, c.base_bytes));
        let rebase = usable.is_some();

        let barrier_start = Instant::now();
        let sealed = handle.with_barrier(self.config.drain_timeout, || {
            let offset_blob = offsets.encode();
            let delta = extend.and_then(|(tracker, base_bytes)| {
                let changes = state.take_changes(tracker)?;
                let bytes = delta_payload_bytes(offset_blob.len(), &changes.puts, &changes.deletes);
                (bytes as f64 <= self.config.max_delta_ratio * base_bytes as f64).then_some(changes)
            });
            // A rebase scans at the same cut as the offsets.
            let capture = match delta {
                Some(changes) => Ok(Capture::Delta(changes)),
                None => state.scan_prefix(b"").map(|pairs| Capture::Full {
                    pairs,
                    tracker: state.track_changes(),
                }),
            };
            (capture, offset_blob)
        });
        let barrier_ms = barrier_start.elapsed().as_secs_f64() * 1e3;

        let (capture, offset_blob) = match sealed {
            Some((Ok(capture), blob)) => (capture, blob),
            Some((Err(e), _)) => {
                self.metrics.failures.inc();
                *chain = None;
                return Err(e.into());
            }
            // The barrier never sealed, so no changes were taken.
            None => {
                self.metrics.failures.inc();
                return Err(CkptError::BarrierTimeout);
            }
        };

        let publish_start = Instant::now();
        let published = match capture {
            Capture::Delta(mut changes) => {
                sort_by_key(&mut changes.puts);
                changes.deletes.sort_unstable();
                self.snapshots
                    .publish_delta(
                        now_ms,
                        &offset_blob,
                        latest_epoch,
                        &changes.puts,
                        &changes.deletes,
                    )
                    .map(|meta| (meta, None))
            }
            Capture::Full { mut pairs, tracker } => {
                sort_by_key(&mut pairs);
                let published = self.snapshots.publish(now_ms, &offset_blob, &pairs);
                if published.is_err() {
                    state.untrack_changes(tracker);
                }
                published.map(|meta| (meta, Some((pairs, tracker))))
            }
        };
        let (meta, full) = match published {
            Ok(published) => published,
            Err(e) => {
                self.metrics.failures.inc();
                *chain = None;
                return Err(e.into());
            }
        };
        self.snapshots.retain(self.config.retain);

        let m = &self.metrics;
        m.checkpoints.inc();
        m.barrier_ms.set(barrier_ms);
        m.publish_ms
            .set(publish_start.elapsed().as_secs_f64() * 1e3);
        m.snapshot_bytes.set(meta.bytes as f64);
        m.snapshot_entries.set(meta.entries as f64);
        m.last_epoch.set(meta.epoch as f64);
        m.last_created_ms.set(meta.created_ms as f64);
        match full {
            Some((pairs, tracker)) => {
                if rebase {
                    m.rebases.inc();
                }
                m.count_families(&pairs);
                *chain = Some(Chain {
                    store: state.clone(),
                    tracker,
                    base_epoch: meta.epoch,
                    base_bytes: meta.bytes,
                    len: 0,
                });
            }
            None => {
                m.delta_bytes.set(meta.bytes as f64);
                if let Some(chain) = chain.as_mut() {
                    chain.len += 1;
                }
            }
        }
        Ok(meta)
    }

    /// Loads the newest snapshot into `state` — resolving its delta
    /// chain — and returns the offsets the spouts must seek to.
    /// `Ok(None)` means no snapshot exists yet — the caller falls back
    /// to a full replay from offset zero.
    ///
    /// `state` must be a *fresh* store: restore only inserts, so
    /// pre-existing keys from a partial earlier life would survive and
    /// break byte-identical convergence. A non-empty store is rejected
    /// with [`CkptError::DirtyStore`] before anything is written.
    pub fn restore_into(&self, state: &TdStore) -> Result<Option<Restored>, CkptError> {
        // The next checkpoint rebases: what changed since the newest epoch
        // is not known once a store has been reloaded from it.
        *self.chain.lock().unwrap_or_else(PoisonError::into_inner) = None;
        let Some(newest) = self.snapshots.latest() else {
            return Ok(None);
        };
        if !state.is_empty()? {
            return Err(CkptError::DirtyStore);
        }
        let snap = self
            .snapshots
            .load(newest.epoch)
            .ok_or(CkptError::Corrupt("snapshot chain"))?;
        let start_offsets =
            OffsetTable::decode(&snap.offsets).ok_or(CkptError::Corrupt("offset vector"))?;
        state.batch_put(snap.state)?;
        self.metrics.restored_epoch.set(snap.meta.epoch as f64);
        Ok(Some(Restored {
            meta: snap.meta,
            start_offsets,
        }))
    }

    /// The newest snapshot's identity without loading its payload.
    pub fn latest(&self) -> Option<SnapshotMeta> {
        self.snapshots.latest()
    }

    /// Registers checkpoint metrics with `registry`:
    /// `ckpt_checkpoints_total`, `ckpt_failures_total`,
    /// `ckpt_barrier_ms`, `ckpt_publish_ms`, `ckpt_snapshot_bytes`,
    /// `ckpt_snapshot_entries`, `ckpt_last_epoch`, `ckpt_last_created_ms`,
    /// `ckpt_delta_bytes`, `ckpt_rebase_total`, `tsnap_restored_epoch`, and
    /// per status-data family `tdstore_family_keys{family}` and
    /// `tdstore_family_bytes{family}`.
    pub fn register_metrics(&self, registry: &Registry) {
        let m = &self.metrics;
        for (name, help, counter) in [
            ("ckpt_checkpoints_total", "Checkpoints published", &m.checkpoints),
            (
                "ckpt_failures_total",
                "Checkpoint attempts that failed (barrier timeout or store error)",
                &m.failures,
            ),
            (
                "ckpt_rebase_total",
                "Delta chains rebased to a full blob (chain-length cap, churn ratio, or unknown changes)",
                &m.rebases,
            ),
        ] {
            registry.register_counter(name, &[], help, counter);
        }
        for (name, help, gauge) in [
            (
                "ckpt_barrier_ms",
                "Pipeline stall of the last checkpoint: drain + in-memory read",
                &m.barrier_ms,
            ),
            (
                "ckpt_publish_ms",
                "Durable publish time of the last checkpoint (off the hot path)",
                &m.publish_ms,
            ),
            (
                "ckpt_snapshot_bytes",
                "Payload size of the last checkpoint",
                &m.snapshot_bytes,
            ),
            (
                "ckpt_snapshot_entries",
                "Entries the last checkpoint published: state pairs for a full blob, changed keys for a delta",
                &m.snapshot_entries,
            ),
            (
                "ckpt_last_epoch",
                "Epoch of the newest published checkpoint",
                &m.last_epoch,
            ),
            (
                "ckpt_last_created_ms",
                "Coordinator clock at the newest checkpoint's seal (snapshot age = now - this)",
                &m.last_created_ms,
            ),
            (
                "ckpt_delta_bytes",
                "Payload size of the last delta checkpoint (vs ckpt_snapshot_bytes for the record actually published)",
                &m.delta_bytes,
            ),
            (
                "tsnap_restored_epoch",
                "Epoch this process last restored a store from (0 = never restored)",
                &m.restored_epoch,
            ),
        ] {
            registry.register_gauge(name, &[], help, gauge);
        }
        for at in 0..FAMILY_GAUGES {
            let labels = [("family", family_label(at))];
            registry.register_gauge(
                "tdstore_family_keys",
                &labels,
                "Keys of a status-data family in the last full checkpoint capture",
                &m.family_keys[at],
            );
            registry.register_gauge(
                "tdstore_family_bytes",
                &labels,
                "Key + value bytes of a status-data family in the last full checkpoint capture",
                &m.family_bytes[at],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn sort_by_key_orders_as_the_key_bytes_do() {
        let pc = b"pc:\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00";
        let keys: [&[u8]; 12] = [
            b"",
            b"a",
            b"a\0",
            b"ab",
            b"abcdefghijklmnop",
            b"abcdefghijklmnop\0",
            b"abcdefghijklmnopz",
            b"abcdefghijklmnoq",
            b"ic:\x01",
            pc,
            &[&pc[..], b"\x00\x00\x00\x01"].concat(),
            b"\xff",
        ];
        let mut pairs = keys
            .iter()
            .rev()
            .map(|k| (k.to_vec(), k.to_vec()))
            .collect();
        super::sort_by_key(&mut pairs);
        assert!(pairs
            .iter()
            .map(|(k, v)| (&k[..], &v[..]))
            .eq(keys.iter().map(|k| (*k, *k))));
    }
}
