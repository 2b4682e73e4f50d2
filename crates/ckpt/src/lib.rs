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
//! The **asynchronous** half: only the in-memory capture happens inside
//! the barrier (a scan + an offset-table encode). The durable write —
//! blob, `fsync`, manifest, `fsync` against [`tdstore::SnapshotStore`] —
//! runs after the spouts have resumed, so the pipeline stall is bounded by
//! drain time, not disk time. Manifest atomicity (write the blob first,
//! name it in the manifest last, let fdb's torn-tail truncation discard a
//! half-written manifest) guarantees a crash *during* publication simply
//! falls back to the previous checkpoint.
//!
//! The **incremental** half: the coordinator keeps the previous epoch's
//! sorted capture in memory and, still off the barrier, diffs the fresh
//! capture against it (a two-pointer merge over the sorted pairs).
//! Steady-state epochs publish a [`tdstore delta record`](SnapshotStore::
//! publish_delta) carrying only changed keys; every
//! [`CheckpointConfig::rebase_every`] epochs — or whenever the delta
//! would exceed [`CheckpointConfig::max_delta_ratio`] of the full blob —
//! it rebases to a self-contained full blob so restore chains stay short
//! and retention can reclaim old chains.

use obs::{Counter, Gauge, Registry};
use std::cmp::Ordering;
use std::fmt;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};
use tdstore::{SnapshotMeta, SnapshotStore, StoreError, TdStore};
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
    /// fdb engine's dead-bytes compaction reclaims reclaimed chains.
    pub retain: usize,
    /// Force a full (self-contained) blob at least every this many
    /// epochs (must be ≥ 1). `1` disables deltas entirely; `K` bounds a
    /// restore chain at one full blob + `K - 1` deltas.
    pub rebase_every: u64,
    /// Publish a full blob instead of a delta whenever the encoded delta
    /// would exceed this fraction of the full blob — at that churn rate
    /// the delta saves nothing and only lengthens the restore chain.
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
    /// manifest pointing at an unresolvable delta chain).
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
    fn count_families(&self, pairs: &Pairs) {
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

    fn new() -> Self {
        CkptMetrics {
            checkpoints: Counter::new(),
            failures: Counter::new(),
            barrier_ms: Gauge::new(),
            publish_ms: Gauge::new(),
            snapshot_bytes: Gauge::new(),
            snapshot_entries: Gauge::new(),
            last_epoch: Gauge::new(),
            last_created_ms: Gauge::new(),
            delta_bytes: Gauge::new(),
            rebases: Counter::new(),
            restored_epoch: Gauge::new(),
            family_keys: std::array::from_fn(|_| Gauge::new()),
            family_bytes: std::array::from_fn(|_| Gauge::new()),
        }
    }
}

/// Sorted state pairs, as captured inside the barrier.
type Pairs = Vec<(Vec<u8>, Vec<u8>)>;

/// The previous epoch's capture, kept in memory so the next epoch can
/// diff against it off the barrier.
struct PrevCapture {
    /// Epoch the capture was published as.
    epoch: u64,
    /// Sorted state pairs at that epoch.
    pairs: Pairs,
    /// Deltas published since the last full blob (0 right after a full).
    chain_len: u64,
}

/// Two-pointer merge of consecutive sorted captures → (puts, deletes).
fn diff_captures(prev: &Pairs, cur: &Pairs) -> (Pairs, Vec<Vec<u8>>) {
    let mut puts = Vec::new();
    let mut deletes = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < prev.len() && j < cur.len() {
        match prev[i].0.cmp(&cur[j].0) {
            Ordering::Less => {
                deletes.push(prev[i].0.clone());
                i += 1;
            }
            Ordering::Greater => {
                puts.push(cur[j].clone());
                j += 1;
            }
            Ordering::Equal => {
                if prev[i].1 != cur[j].1 {
                    puts.push(cur[j].clone());
                }
                i += 1;
                j += 1;
            }
        }
    }
    deletes.extend(prev[i..].iter().map(|(k, _)| k.clone()));
    puts.extend(cur[j..].iter().cloned());
    (puts, deletes)
}

/// Encoded-payload size estimates (kept in sync with the tdstore codec:
/// header + offset vector + length-prefixed entries).
fn full_payload_bytes(offsets: usize, pairs: &Pairs) -> u64 {
    21 + offsets as u64
        + pairs
            .iter()
            .map(|(k, v)| 8 + k.len() as u64 + v.len() as u64)
            .sum::<u64>()
}

fn delta_payload_bytes(offsets: usize, puts: &Pairs, deletes: &[Vec<u8>]) -> u64 {
    33 + offsets as u64
        + puts
            .iter()
            .map(|(k, v)| 8 + k.len() as u64 + v.len() as u64)
            .sum::<u64>()
        + deletes.iter().map(|k| 4 + k.len() as u64).sum::<u64>()
}

/// The checkpoint coordinator: owns the on-disk [`SnapshotStore`] and
/// drives barrier capture, diffing, durable publication, retention and
/// restore.
pub struct Coordinator {
    snapshots: SnapshotStore,
    config: CheckpointConfig,
    metrics: CkptMetrics,
    /// Serialises concurrent `checkpoint` callers (e.g. a timer thread
    /// racing a shutdown checkpoint): barriers must not nest.
    gate: Mutex<()>,
    /// Previous epoch's capture, diffed against off the barrier.
    prev: Mutex<Option<PrevCapture>>,
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
            metrics: CkptMetrics::new(),
            gate: Mutex::new(()),
            prev: Mutex::new(None),
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
    /// full bolt state and the committed offset vector are captured in
    /// memory; everything else — diffing against the previous epoch's
    /// retained capture, encoding, the durable publish — happens *after*
    /// the spouts resume. Steady-state epochs publish a delta of changed
    /// keys; the first epoch, every `rebase_every`-th epoch, and any
    /// epoch whose delta would exceed `max_delta_ratio` of the full blob
    /// publish a self-contained full blob instead. `now_ms` is the
    /// coordinator's clock reading, stamped into the payload header so
    /// restore can report snapshot age for any epoch.
    pub fn checkpoint(
        &self,
        handle: &TopologyHandle,
        state: &TdStore,
        offsets: &OffsetTable,
        now_ms: u64,
    ) -> Result<SnapshotMeta, CkptError> {
        // The gate guards no data, and the capture below is replaced only
        // whole, after a publish, and checked against the newest epoch
        // before use: a checkpoint that panicked left nothing half-made,
        // so a poisoned lock is taken as it is.
        let _gate = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        let barrier_start = Instant::now();
        let sealed = handle.with_barrier(self.config.drain_timeout, || {
            (state.scan_prefix(b""), offsets.encode())
        });
        let barrier_ms = barrier_start.elapsed().as_secs_f64() * 1e3;

        let (pairs, offset_blob) = match sealed {
            Some((Ok(pairs), blob)) => (pairs, blob),
            Some((Err(e), _)) => {
                self.metrics.failures.inc();
                return Err(e.into());
            }
            None => {
                self.metrics.failures.inc();
                return Err(CkptError::BarrierTimeout);
            }
        };

        // Sort for a deterministic blob layout; scan order is
        // engine-dependent.
        let mut pairs = pairs;
        pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0));

        // Decide full vs delta against the retained previous capture.
        // The capture is only usable if it still matches the newest
        // on-disk epoch (a restore or publish failure in between
        // invalidates it, and the next epoch rebases).
        let mut prev_slot = self.prev.lock().unwrap_or_else(PoisonError::into_inner);
        let latest_epoch = self.snapshots.latest().map_or(0, |m| m.epoch);
        let usable_prev = prev_slot
            .as_ref()
            .filter(|p| p.epoch == latest_epoch && latest_epoch > 0);
        let planned_delta = usable_prev.and_then(|p| {
            if p.chain_len + 1 >= self.config.rebase_every {
                return None; // chain-length rebase
            }
            let (puts, deletes) = diff_captures(&p.pairs, &pairs);
            let full = full_payload_bytes(offset_blob.len(), &pairs);
            let delta = delta_payload_bytes(offset_blob.len(), &puts, &deletes);
            if delta as f64 > self.config.max_delta_ratio * full as f64 {
                return None; // churn-ratio rebase
            }
            Some((puts, deletes, p.chain_len))
        });

        let publish_start = Instant::now();
        let had_chain = usable_prev.is_some();
        let published = match &planned_delta {
            Some((puts, deletes, _)) => {
                self.snapshots
                    .publish_delta(now_ms, &offset_blob, latest_epoch, puts, deletes)
            }
            None => self.snapshots.publish(now_ms, &offset_blob, &pairs),
        };
        let meta = match published {
            Ok(meta) => meta,
            Err(e) => {
                self.metrics.failures.inc();
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
        m.snapshot_entries.set(pairs.len() as f64);
        m.last_epoch.set(meta.epoch as f64);
        m.last_created_ms.set(meta.created_ms as f64);
        let chain_len = match &planned_delta {
            Some((_, _, prev_chain)) => {
                m.delta_bytes.set(meta.bytes as f64);
                prev_chain + 1
            }
            None => {
                if had_chain {
                    m.rebases.inc();
                }
                m.count_families(&pairs);
                0
            }
        };
        *prev_slot = Some(PrevCapture {
            epoch: meta.epoch,
            pairs,
            chain_len,
        });
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
        let Some(manifest) = self.snapshots.latest() else {
            return Ok(None);
        };
        if !state.is_empty()? {
            return Err(CkptError::DirtyStore);
        }
        let snap = self
            .snapshots
            .load(manifest.epoch)
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
        registry.register_counter(
            "ckpt_checkpoints_total",
            &[],
            "Checkpoints published",
            &m.checkpoints,
        );
        registry.register_counter(
            "ckpt_failures_total",
            &[],
            "Checkpoint attempts that failed (barrier timeout or store error)",
            &m.failures,
        );
        registry.register_gauge(
            "ckpt_barrier_ms",
            &[],
            "Pipeline stall of the last checkpoint: drain + in-memory capture",
            &m.barrier_ms,
        );
        registry.register_gauge(
            "ckpt_publish_ms",
            &[],
            "Durable publish time of the last checkpoint (off the hot path)",
            &m.publish_ms,
        );
        registry.register_gauge(
            "ckpt_snapshot_bytes",
            &[],
            "Payload size of the last checkpoint",
            &m.snapshot_bytes,
        );
        registry.register_gauge(
            "ckpt_snapshot_entries",
            &[],
            "State entries captured by the last checkpoint",
            &m.snapshot_entries,
        );
        registry.register_gauge(
            "ckpt_last_epoch",
            &[],
            "Epoch of the newest published checkpoint",
            &m.last_epoch,
        );
        registry.register_gauge(
            "ckpt_last_created_ms",
            &[],
            "Coordinator clock at the newest checkpoint's seal (snapshot age = now - this)",
            &m.last_created_ms,
        );
        registry.register_gauge(
            "ckpt_delta_bytes",
            &[],
            "Payload size of the last delta checkpoint (vs ckpt_snapshot_bytes for the record actually published)",
            &m.delta_bytes,
        );
        registry.register_counter(
            "ckpt_rebase_total",
            &[],
            "Delta chains rebased to a full blob (chain-length cap or churn-ratio trigger)",
            &m.rebases,
        );
        registry.register_gauge(
            "tsnap_restored_epoch",
            &[],
            "Epoch this process last restored a store from (0 = never restored)",
            &m.restored_epoch,
        );
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
