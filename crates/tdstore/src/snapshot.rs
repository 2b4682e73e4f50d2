//! The snapshot store: durable checkpoint blobs + manifest on one
//! [`FdbEngine`] log.
//!
//! Layout (all keys in one append-only fdb log):
//!
//! - `snap:<epoch:u64le>` → **full** snapshot payload: a versioned
//!   header (`created_ms` travels inside the blob, so every epoch
//!   reports a truthful timestamp), the consistent offset vector over
//!   every spout partition, then the full bolt-state key/value set
//!   captured inside the drain/seal barrier.
//! - `delta:<epoch:u64le>` → **delta** payload: the same header plus
//!   the base epoch it patches, the sealed offset vector, then only
//!   the keys that changed since the base (puts and deletes).
//! - `manifest` → `epoch | created_ms | entries | bytes` of the newest
//!   *complete* record (full or delta).
//!
//! A delta always patches the immediately preceding epoch, so the
//! records form a chain: full base → delta → delta → …. Resolving an
//! epoch walks back to the nearest full record and applies the deltas
//! oldest-first; a missing link (gap) makes the whole chain
//! unresolvable and `load` returns `None` rather than a partial state.
//!
//! Atomicity falls out of the engine's replay rules. `publish` and
//! `publish_delta` write the record, fsync, then write the manifest
//! record and fsync again. A crash before the manifest append leaves
//! the previous manifest as the latest key; a crash *during* it leaves
//! a torn tail record that replay truncates — again exposing the
//! previous manifest. A torn **delta** tail behaves identically: the
//! record never became complete, so the manifest still names the
//! previous epoch, whose chain is intact on disk. Either way restart
//! sees a manifest that points at a fully-written, fully-resolvable
//! record. Superseded chains are deleted by `retain`, and the engine's
//! dead-bytes compaction keeps the churned log near its live size.

use crate::engine::{FdbEngine, StorageEngine};
use crate::error::StoreError;
use std::collections::BTreeMap;
use std::path::PathBuf;
use wire::{ProtocolError, Reader};

/// Key of the manifest record.
const MANIFEST_KEY: &[u8] = b"manifest";
/// Prefix of full-snapshot payload keys.
const SNAP_PREFIX: &[u8] = b"snap:";
/// Prefix of delta payload keys.
const DELTA_PREFIX: &[u8] = b"delta:";
/// Payload format version (header `version:u32 | kind:u8 | created_ms:u64`).
const PAYLOAD_VERSION: u32 = 2;
/// Header `kind` byte of a full snapshot payload.
const KIND_FULL: u8 = 0;
/// Header `kind` byte of a delta payload.
const KIND_DELTA: u8 = 1;

/// Identity and size of one published record (full or delta).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Monotonic checkpoint epoch (1-based).
    pub epoch: u64,
    /// Coordinator clock time at the seal, in milliseconds.
    pub created_ms: u64,
    /// For a full record: state pairs captured. For a delta: changed
    /// keys (puts + deletes). For a resolved chain: resolved pairs.
    pub entries: u64,
    /// Payload size in bytes. For a resolved chain: total bytes read
    /// across base + deltas.
    pub bytes: u64,
}

/// Bolt-state key/value pairs as captured inside the barrier.
pub type StateEntries = Vec<(Vec<u8>, Vec<u8>)>;

/// What kind of record an epoch published.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotKind {
    /// Self-contained full state blob.
    Full,
    /// Patch against the named base epoch (always `epoch - 1`).
    Delta {
        /// The epoch this delta patches.
        base_epoch: u64,
    },
}

/// One raw on-disk record, as published (not chain-resolved).
#[derive(Debug, Clone)]
pub struct SnapshotRecord {
    /// Identity of this record.
    pub meta: SnapshotMeta,
    /// Full blob or delta against a base.
    pub kind: SnapshotKind,
    /// Opaque offset-vector blob sealed with this epoch.
    pub offsets: Vec<u8>,
    /// Full state (kind Full) or changed/inserted keys (kind Delta).
    pub puts: StateEntries,
    /// Keys removed since the base epoch (always empty for kind Full).
    pub deletes: Vec<Vec<u8>>,
}

/// One resolved snapshot: what a restore replays forward from. For a
/// delta epoch this is the base state with the whole delta chain
/// applied, byte-identical to what a full blob at that epoch would
/// have captured.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Identity of this snapshot (entries/bytes describe the resolved
    /// chain, see [`SnapshotMeta`]).
    pub meta: SnapshotMeta,
    /// Opaque offset-vector blob (the topology layer encodes/decodes it;
    /// the store only guarantees it was sealed with `state`).
    pub offsets: Vec<u8>,
    /// Bolt-state key/value pairs, sorted by key.
    pub state: StateEntries,
}

/// File-backed checkpoint repository.
pub struct SnapshotStore {
    engine: FdbEngine,
    read_only: bool,
}

fn snap_key(epoch: u64) -> Vec<u8> {
    let mut key = SNAP_PREFIX.to_vec();
    key.extend_from_slice(&epoch.to_le_bytes());
    key
}

fn delta_key(epoch: u64) -> Vec<u8> {
    let mut key = DELTA_PREFIX.to_vec();
    key.extend_from_slice(&epoch.to_le_bytes());
    key
}

fn checked_u32(n: usize, what: &str) -> Result<u32, StoreError> {
    u32::try_from(n).map_err(|_| StoreError::Io(format!("snapshot {what} {n} exceeds u32 range")))
}

fn push_u32(out: &mut Vec<u8>, n: u32) {
    out.extend_from_slice(&n.to_le_bytes());
}

fn push_pairs(out: &mut Vec<u8>, pairs: &[(Vec<u8>, Vec<u8>)]) -> Result<(), StoreError> {
    push_u32(out, checked_u32(pairs.len(), "entry count")?);
    for (k, v) in pairs {
        push_u32(out, checked_u32(k.len(), "key length")?);
        out.extend_from_slice(k);
        push_u32(out, checked_u32(v.len(), "value length")?);
        out.extend_from_slice(v);
    }
    Ok(())
}

fn encode_payload(
    created_ms: u64,
    offsets: &[u8],
    state: &[(Vec<u8>, Vec<u8>)],
) -> Result<Vec<u8>, StoreError> {
    let mut out = Vec::with_capacity(
        21 + offsets.len()
            + state
                .iter()
                .map(|(k, v)| 8 + k.len() + v.len())
                .sum::<usize>(),
    );
    push_u32(&mut out, PAYLOAD_VERSION);
    out.push(KIND_FULL);
    out.extend_from_slice(&created_ms.to_le_bytes());
    push_u32(
        &mut out,
        checked_u32(offsets.len(), "offset-vector length")?,
    );
    out.extend_from_slice(offsets);
    push_pairs(&mut out, state)?;
    Ok(out)
}

fn encode_delta(
    created_ms: u64,
    base_epoch: u64,
    offsets: &[u8],
    puts: &[(Vec<u8>, Vec<u8>)],
    deletes: &[Vec<u8>],
) -> Result<Vec<u8>, StoreError> {
    let mut out = Vec::with_capacity(
        33 + offsets.len()
            + puts
                .iter()
                .map(|(k, v)| 8 + k.len() + v.len())
                .sum::<usize>()
            + deletes.iter().map(|k| 4 + k.len()).sum::<usize>(),
    );
    push_u32(&mut out, PAYLOAD_VERSION);
    out.push(KIND_DELTA);
    out.extend_from_slice(&created_ms.to_le_bytes());
    out.extend_from_slice(&base_epoch.to_le_bytes());
    push_u32(
        &mut out,
        checked_u32(offsets.len(), "offset-vector length")?,
    );
    out.extend_from_slice(offsets);
    push_pairs(&mut out, puts)?;
    push_u32(&mut out, checked_u32(deletes.len(), "delete count")?);
    for k in deletes {
        push_u32(&mut out, checked_u32(k.len(), "key length")?);
        out.extend_from_slice(k);
    }
    Ok(out)
}

/// Decoded payload fields shared by both kinds.
struct Decoded {
    kind: SnapshotKind,
    created_ms: u64,
    offsets: Vec<u8>,
    puts: StateEntries,
    deletes: Vec<Vec<u8>>,
}

fn decode_record(bytes: &[u8]) -> Option<Decoded> {
    let mut r = Reader::new(bytes);
    let decoded = read_record(&mut r).ok()?;
    r.finish().ok()?;
    Some(decoded)
}

fn read_record(r: &mut Reader<'_>) -> Result<Decoded, ProtocolError> {
    if r.u32()? != PAYLOAD_VERSION {
        return Err(ProtocolError::BadPayload(
            "unknown snapshot payload version",
        ));
    }
    let kind_byte = r.u8()?;
    let created_ms = r.u64()?;
    let kind = match kind_byte {
        KIND_FULL => SnapshotKind::Full,
        KIND_DELTA => SnapshotKind::Delta {
            base_epoch: r.u64()?,
        },
        _ => return Err(ProtocolError::BadPayload("unknown snapshot payload kind")),
    };
    let offsets = r.bytes()?.to_vec();
    let puts = (0..r.count(8)?)
        .map(|_| Ok((r.bytes()?.to_vec(), r.bytes()?.to_vec())))
        .collect::<Result<_, ProtocolError>>()?;
    let deletes = match kind {
        SnapshotKind::Full => Vec::new(),
        SnapshotKind::Delta { .. } => (0..r.count(4)?)
            .map(|_| Ok(r.bytes()?.to_vec()))
            .collect::<Result<_, ProtocolError>>()?,
    };
    Ok(Decoded {
        kind,
        created_ms,
        offsets,
        puts,
        deletes,
    })
}

/// Decodes a full payload: `(created_ms, offsets, state)`. Rejects
/// deltas, truncation, trailing garbage, and unknown versions.
#[cfg_attr(not(test), allow(dead_code))]
fn decode_payload(bytes: &[u8]) -> Option<(u64, Vec<u8>, StateEntries)> {
    let d = decode_record(bytes)?;
    matches!(d.kind, SnapshotKind::Full).then_some((d.created_ms, d.offsets, d.puts))
}

/// Decoded delta payload: `(created_ms, base_epoch, offsets, puts, deletes)`.
type DeltaParts = (u64, u64, Vec<u8>, StateEntries, Vec<Vec<u8>>);

/// Decodes a delta payload. Rejects fulls, truncation, trailing garbage,
/// and unknown versions.
fn decode_delta(bytes: &[u8]) -> Option<DeltaParts> {
    let d = decode_record(bytes)?;
    match d.kind {
        SnapshotKind::Delta { base_epoch } => {
            Some((d.created_ms, base_epoch, d.offsets, d.puts, d.deletes))
        }
        SnapshotKind::Full => None,
    }
}

fn encode_manifest(meta: &SnapshotMeta) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.extend_from_slice(&meta.epoch.to_le_bytes());
    out.extend_from_slice(&meta.created_ms.to_le_bytes());
    out.extend_from_slice(&meta.entries.to_le_bytes());
    out.extend_from_slice(&meta.bytes.to_le_bytes());
    out
}

fn decode_manifest(bytes: &[u8]) -> Option<SnapshotMeta> {
    let mut r = Reader::new(bytes);
    let meta = SnapshotMeta {
        epoch: r.u64().ok()?,
        created_ms: r.u64().ok()?,
        entries: r.u64().ok()?,
        bytes: r.u64().ok()?,
    };
    r.finish().ok()?;
    Some(meta)
}

impl SnapshotStore {
    /// Opens (or creates) the checkpoint log at `path`.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, StoreError> {
        Ok(SnapshotStore {
            engine: FdbEngine::open(path.into())?,
            read_only: false,
        })
    }

    /// Opens the checkpoint log for inspection only: `publish`,
    /// `publish_delta` and `retain` fail with a store error instead of
    /// touching the log. Restore paths work normally.
    pub fn open_read_only(path: impl Into<PathBuf>) -> Result<Self, StoreError> {
        Ok(SnapshotStore {
            engine: FdbEngine::open(path.into())?,
            read_only: true,
        })
    }

    fn write_record(
        &self,
        key: &[u8],
        payload: Vec<u8>,
        meta: &SnapshotMeta,
    ) -> Result<(), StoreError> {
        if self.read_only {
            return Err(StoreError::Io("snapshot store is read-only".into()));
        }
        self.engine.put(key, payload);
        self.engine.sync()?;
        self.engine.put(MANIFEST_KEY, encode_manifest(meta));
        self.engine.sync()?;
        Ok(())
    }

    /// Publishes one sealed full snapshot and returns its identity. The
    /// blob is fully on disk before the manifest names it, so a crash at
    /// any point leaves the previous snapshot restorable.
    pub fn publish(
        &self,
        created_ms: u64,
        offsets: &[u8],
        state: &[(Vec<u8>, Vec<u8>)],
    ) -> Result<SnapshotMeta, StoreError> {
        let epoch = self.latest().map_or(1, |m| m.epoch + 1);
        let payload = encode_payload(created_ms, offsets, state)?;
        let meta = SnapshotMeta {
            epoch,
            created_ms,
            entries: state.len() as u64,
            bytes: payload.len() as u64,
        };
        self.write_record(&snap_key(epoch), payload, &meta)?;
        Ok(meta)
    }

    /// Publishes one sealed **delta** against `base_epoch`, which must be
    /// the newest published epoch (deltas always patch their immediate
    /// predecessor, so chains are contiguous by construction). `puts` are
    /// keys inserted or changed since the base, `deletes` keys removed.
    /// Same crash contract as `publish`: a torn delta tail is truncated
    /// on reopen and the manifest still names the base.
    pub fn publish_delta(
        &self,
        created_ms: u64,
        offsets: &[u8],
        base_epoch: u64,
        puts: &[(Vec<u8>, Vec<u8>)],
        deletes: &[Vec<u8>],
    ) -> Result<SnapshotMeta, StoreError> {
        let latest = self.latest().map_or(0, |m| m.epoch);
        if base_epoch != latest || latest == 0 {
            return Err(StoreError::Io(format!(
                "delta base epoch {base_epoch} is not the newest epoch {latest}"
            )));
        }
        let epoch = base_epoch + 1;
        let payload = encode_delta(created_ms, base_epoch, offsets, puts, deletes)?;
        let meta = SnapshotMeta {
            epoch,
            created_ms,
            entries: (puts.len() + deletes.len()) as u64,
            bytes: payload.len() as u64,
        };
        self.write_record(&delta_key(epoch), payload, &meta)?;
        Ok(meta)
    }

    /// The newest complete record's identity, if any.
    pub fn latest(&self) -> Option<SnapshotMeta> {
        decode_manifest(&self.engine.get(MANIFEST_KEY)?)
    }

    /// Loads the raw record of `epoch` without resolving its chain.
    /// `None` when missing (retained out) or undecodable.
    pub fn load_record(&self, epoch: u64) -> Option<SnapshotRecord> {
        if let Some(raw) = self.engine.get(&snap_key(epoch)) {
            let d = decode_record(&raw)?;
            if !matches!(d.kind, SnapshotKind::Full) {
                return None;
            }
            return Some(SnapshotRecord {
                meta: SnapshotMeta {
                    epoch,
                    created_ms: d.created_ms,
                    entries: d.puts.len() as u64,
                    bytes: raw.len() as u64,
                },
                kind: d.kind,
                offsets: d.offsets,
                puts: d.puts,
                deletes: d.deletes,
            });
        }
        let raw = self.engine.get(&delta_key(epoch))?;
        let d = decode_record(&raw)?;
        let SnapshotKind::Delta { .. } = d.kind else {
            return None;
        };
        Some(SnapshotRecord {
            meta: SnapshotMeta {
                epoch,
                created_ms: d.created_ms,
                entries: (d.puts.len() + d.deletes.len()) as u64,
                bytes: raw.len() as u64,
            },
            kind: d.kind,
            offsets: d.offsets,
            puts: d.puts,
            deletes: d.deletes,
        })
    }

    /// Loads the snapshot of `epoch`, resolving its delta chain: walks
    /// back to the nearest full record, then applies each delta
    /// oldest-first. `None` when any link is missing (retained out, gap)
    /// or undecodable — never a partial state. `created_ms` comes from
    /// the epoch's own payload header, so it is truthful for every
    /// epoch, not just the newest.
    pub fn load(&self, epoch: u64) -> Option<Snapshot> {
        // Walk back to the full base, newest link first.
        let mut chain = Vec::new();
        let mut at = epoch;
        loop {
            let rec = self.load_record(at)?;
            let kind = rec.kind;
            chain.push(rec);
            match kind {
                SnapshotKind::Full => break,
                SnapshotKind::Delta { base_epoch } => {
                    // Contiguity: a delta at E patches exactly E-1.
                    if base_epoch + 1 != at {
                        return None;
                    }
                    at = base_epoch;
                }
            }
        }
        let total_bytes: u64 = chain.iter().map(|r| r.meta.bytes).sum();
        let created_ms = chain[0].meta.created_ms;
        let offsets = chain[0].offsets.clone();
        // Apply base then deltas oldest-first.
        let mut state = BTreeMap::new();
        for rec in chain.into_iter().rev() {
            for (k, v) in rec.puts {
                state.insert(k, v);
            }
            for k in rec.deletes {
                state.remove(&k);
            }
        }
        let state: StateEntries = state.into_iter().collect();
        Some(Snapshot {
            meta: SnapshotMeta {
                epoch,
                created_ms,
                entries: state.len() as u64,
                bytes: total_bytes,
            },
            offsets,
            state,
        })
    }

    /// Loads the snapshot the manifest points at, resolving its delta
    /// chain. This is the restore entry point: manifest → full base →
    /// deltas → seek offsets → replay the tail.
    pub fn load_latest(&self) -> Option<Snapshot> {
        self.load(self.latest()?.epoch)
    }

    /// Published epochs (full and delta records), oldest first.
    pub fn epochs(&self) -> Vec<u64> {
        let decode = |prefix: &[u8], k: &[u8]| -> Option<u64> {
            Some(u64::from_le_bytes(
                k.get(prefix.len()..prefix.len() + 8)?.try_into().ok()?,
            ))
        };
        let mut out: Vec<u64> = self
            .engine
            .scan_prefix(SNAP_PREFIX)
            .into_iter()
            .filter_map(|(k, _)| decode(SNAP_PREFIX, &k))
            .chain(
                self.engine
                    .scan_prefix(DELTA_PREFIX)
                    .into_iter()
                    .filter_map(|(k, _)| decode(DELTA_PREFIX, &k)),
            )
            .collect();
        out.sort_unstable();
        out
    }

    /// The full-record epoch `epoch`'s chain resolves from, walking
    /// delta links backwards. `None` when the chain is broken.
    fn full_base(&self, epoch: u64) -> Option<u64> {
        let mut at = epoch;
        loop {
            if self.engine.get(&snap_key(at)).is_some() {
                return Some(at);
            }
            let raw = self.engine.get(&delta_key(at))?;
            let (_, base, ..) = decode_delta(&raw)?;
            if base + 1 != at {
                return None;
            }
            at = base;
        }
    }

    /// Deletes records so that only the newest `keep` epochs stay
    /// resolvable. Chain-aware: the cut point is the full base of the
    /// oldest epoch being kept, so no live delta loses its ancestry.
    /// `keep == 0` really deletes everything, including the manifest
    /// (the store is empty afterwards, as if freshly created). The
    /// deletes make superseded records dead weight, which the engine's
    /// dead-bytes compaction then reclaims.
    pub fn retain(&self, keep: usize) {
        if self.read_only {
            return;
        }
        let epochs = self.epochs();
        if keep == 0 {
            for &epoch in &epochs {
                self.engine.delete(&snap_key(epoch));
                self.engine.delete(&delta_key(epoch));
            }
            self.engine.delete(MANIFEST_KEY);
            return;
        }
        if epochs.len() <= keep {
            return;
        }
        let oldest_kept = epochs[epochs.len() - keep];
        let Some(base) = self.full_base(oldest_kept) else {
            return; // chain already broken; deleting more can't help
        };
        for &epoch in epochs.iter().filter(|&&e| e < base) {
            self.engine.delete(&snap_key(epoch));
            self.engine.delete(&delta_key(epoch));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn temp_store(tag: &str) -> (SnapshotStore, PathBuf) {
        let p = std::env::temp_dir().join(format!("tsnap-test-{}-{tag}.fdb", std::process::id()));
        let _ = std::fs::remove_file(&p);
        (SnapshotStore::open(p.clone()).unwrap(), p)
    }

    fn state(n: u64, round: u8) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n)
            .map(|i| (i.to_le_bytes().to_vec(), vec![round; 16]))
            .collect()
    }

    #[test]
    fn publish_load_round_trip() {
        let (s, p) = temp_store("roundtrip");
        assert!(s.latest().is_none());
        assert!(s.load_latest().is_none());
        let meta = s.publish(1_000, b"offsets-blob", &state(10, 1)).unwrap();
        assert_eq!(meta.epoch, 1);
        assert_eq!(meta.entries, 10);
        let snap = s.load_latest().unwrap();
        assert_eq!(snap.meta, meta);
        assert_eq!(snap.offsets, b"offsets-blob");
        assert_eq!(snap.state, state(10, 1));
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn epochs_advance_and_survive_reopen() {
        let (s, p) = temp_store("reopen");
        for round in 1..=3u8 {
            let meta = s
                .publish(u64::from(round) * 100, b"off", &state(4, round))
                .unwrap();
            assert_eq!(meta.epoch, u64::from(round));
        }
        drop(s);
        let s = SnapshotStore::open(p.clone()).unwrap();
        let latest = s.latest().unwrap();
        assert_eq!(latest.epoch, 3);
        assert_eq!(latest.created_ms, 300);
        assert_eq!(s.load_latest().unwrap().state, state(4, 3));
        assert_eq!(s.epochs(), vec![1, 2, 3]);
        // Older epochs remain loadable until retained out, and report
        // their own created_ms from the payload header.
        let older = s.load(2).unwrap();
        assert_eq!(older.state, state(4, 2));
        assert_eq!(older.meta.created_ms, 200);
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn retain_keeps_newest() {
        let (s, p) = temp_store("retain");
        for round in 1..=5u8 {
            s.publish(0, b"", &state(2, round)).unwrap();
        }
        s.retain(2);
        assert_eq!(s.epochs(), vec![4, 5]);
        assert!(s.load(1).is_none());
        assert_eq!(s.load_latest().unwrap().meta.epoch, 5);
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn retain_zero_really_deletes_everything() {
        let (s, p) = temp_store("retain0");
        for round in 1..=3u8 {
            s.publish(0, b"", &state(2, round)).unwrap();
        }
        s.retain(0);
        assert!(s.epochs().is_empty());
        assert!(s.latest().is_none());
        assert!(s.load_latest().is_none());
        // Publishing after a full wipe starts over at epoch 1.
        assert_eq!(s.publish(9, b"", &state(1, 9)).unwrap().epoch, 1);
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn delta_chain_resolves_byte_identical() {
        let (s, p) = temp_store("chain");
        // Base: keys 0..4 at round 1.
        s.publish(100, b"off-1", &state(4, 1)).unwrap();
        // Delta 2: rewrite key 0, insert key 9, delete key 3.
        let puts = vec![
            (0u64.to_le_bytes().to_vec(), vec![2u8; 16]),
            (9u64.to_le_bytes().to_vec(), vec![2u8; 16]),
        ];
        let dels = vec![3u64.to_le_bytes().to_vec()];
        let meta = s.publish_delta(200, b"off-2", 1, &puts, &dels).unwrap();
        assert_eq!(meta.epoch, 2);
        assert_eq!(meta.entries, 3);
        // Delta 3: delete key 9 again.
        let meta = s
            .publish_delta(300, b"off-3", 2, &[], &[9u64.to_le_bytes().to_vec()])
            .unwrap();
        assert_eq!(meta.epoch, 3);

        let snap = s.load_latest().unwrap();
        assert_eq!(snap.meta.epoch, 3);
        assert_eq!(snap.meta.created_ms, 300);
        assert_eq!(snap.offsets, b"off-3");
        let mut expect = state(4, 1);
        expect[0].1 = vec![2u8; 16]; // key 0 rewritten at epoch 2
        expect.remove(3); // key 3 deleted at epoch 2; key 9 gone again
        assert_eq!(snap.state, expect);

        // Mid-chain epoch resolves with its own offsets + timestamp.
        let mid = s.load(2).unwrap();
        assert_eq!(mid.offsets, b"off-2");
        assert_eq!(mid.meta.created_ms, 200);
        assert_eq!(mid.state.len(), 4); // 0,1,2,9 live; key 3 removed

        // Survives reopen.
        drop(s);
        let s = SnapshotStore::open(p.clone()).unwrap();
        assert_eq!(s.load_latest().unwrap().state, expect);
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn delta_requires_newest_base() {
        let (s, p) = temp_store("deltabase");
        // No epochs at all: nothing to base on.
        assert!(s.publish_delta(1, b"", 0, &[], &[]).is_err());
        s.publish(1, b"", &state(2, 1)).unwrap();
        s.publish(2, b"", &state(2, 2)).unwrap();
        // Basing on a non-newest epoch would fork the chain.
        assert!(s.publish_delta(3, b"", 1, &[], &[]).is_err());
        assert!(s.publish_delta(3, b"", 2, &[], &[]).is_ok());
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn chain_gap_is_rejected_not_partial() {
        let (s, p) = temp_store("gap");
        s.publish(1, b"off", &state(4, 1)).unwrap();
        s.publish_delta(2, b"off", 1, &state(1, 2), &[]).unwrap();
        s.publish_delta(3, b"off", 2, &state(1, 3), &[]).unwrap();
        // Punch a hole: delete the mid-chain delta directly.
        s.engine.delete(&delta_key(2));
        assert!(s.load(3).is_none(), "gap must not resolve partially");
        assert!(s.load_latest().is_none());
        // The base itself still resolves.
        assert_eq!(s.load(1).unwrap().state, state(4, 1));
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn retain_never_cuts_a_live_chain() {
        let (s, p) = temp_store("chainretain");
        s.publish(1, b"", &state(4, 1)).unwrap(); // epoch 1: full
        for e in 2..=4u64 {
            s.publish_delta(e, b"", e - 1, &state(1, e as u8), &[])
                .unwrap(); // epochs 2..4: deltas
        }
        // Keeping 2 epochs (3, 4) requires their full base (1), so the
        // whole chain survives.
        s.retain(2);
        assert_eq!(s.epochs(), vec![1, 2, 3, 4]);
        assert!(s.load_latest().is_some());
        // A rebase to full at epoch 5 doesn't free the chain yet: the
        // retain window (4, 5) still includes delta epoch 4, whose
        // ancestry reaches back to the full base at 1.
        s.publish(5, b"", &state(4, 5)).unwrap();
        s.retain(2);
        assert_eq!(s.epochs(), vec![1, 2, 3, 4, 5]);
        assert_eq!(s.load(4).unwrap().state.len(), 4);
        // Once the window moves wholly past the rebase, the old chain
        // is cut at the new full base.
        s.publish_delta(6, b"", 5, &state(1, 6), &[]).unwrap();
        s.retain(2);
        assert_eq!(s.epochs(), vec![5, 6]);
        assert!(s.load(4).is_none(), "pre-rebase chain reclaimed");
        assert!(s.load_latest().is_some());
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn torn_manifest_tail_falls_back_to_previous_snapshot() {
        // Simulate a crash mid-manifest-append: everything up to and
        // including snapshot 2's blob is intact, but the manifest record
        // naming epoch 2 is torn. Reopen must see epoch 1.
        let (s, p) = temp_store("torn");
        s.publish(100, b"off-1", &state(3, 1)).unwrap();
        let file_after_first = std::fs::metadata(&p).unwrap().len();
        s.publish(200, b"off-2", &state(3, 2)).unwrap();
        drop(s);
        // The last record in the log is epoch 2's manifest. Tear it by
        // chopping bytes off the file tail (the manifest record is
        // 8 + len("manifest") + 4 + 32 = 52 bytes).
        let full = std::fs::metadata(&p).unwrap().len();
        assert!(full > file_after_first + 52);
        let f = std::fs::OpenOptions::new().write(true).open(&p).unwrap();
        f.set_len(full - 20).unwrap();
        drop(f);
        let s = SnapshotStore::open(p.clone()).unwrap();
        let latest = s.latest().unwrap();
        assert_eq!(latest.epoch, 1, "torn manifest must expose epoch 1");
        assert_eq!(s.load_latest().unwrap().offsets, b"off-1");
        // And publishing after the fallback continues from the manifest.
        let meta = s.publish(300, b"off-2b", &state(3, 3)).unwrap();
        assert_eq!(meta.epoch, 2);
        assert_eq!(s.load_latest().unwrap().offsets, b"off-2b");
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn torn_delta_tail_falls_back_to_chain_base() {
        // Crash mid-delta-append: epoch 2's delta record itself is torn.
        // Reopen truncates it; the manifest (written after the delta
        // sync, so also gone) names epoch 1, whose chain is intact.
        let (s, p) = temp_store("torndelta");
        s.publish(100, b"off-1", &state(3, 1)).unwrap();
        let file_after_first = std::fs::metadata(&p).unwrap().len();
        s.publish_delta(200, b"off-2", 1, &state(2, 2), &[])
            .unwrap();
        drop(s);
        let full = std::fs::metadata(&p).unwrap().len();
        // Chop into the delta record itself (beyond the 52-byte
        // manifest record at the tail).
        let f = std::fs::OpenOptions::new().write(true).open(&p).unwrap();
        f.set_len(file_after_first + 10).unwrap();
        drop(f);
        assert!(full > file_after_first + 62);
        let s = SnapshotStore::open(p.clone()).unwrap();
        assert_eq!(s.latest().unwrap().epoch, 1);
        let snap = s.load_latest().unwrap();
        assert_eq!(snap.offsets, b"off-1");
        assert_eq!(snap.state, state(3, 1));
        // Re-publishing the delta continues the chain cleanly.
        let meta = s
            .publish_delta(201, b"off-2b", 1, &state(2, 2), &[])
            .unwrap();
        assert_eq!(meta.epoch, 2);
        assert_eq!(s.load_latest().unwrap().offsets, b"off-2b");
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn read_only_store_rejects_writes_but_loads() {
        let (s, p) = temp_store("readonly");
        s.publish(100, b"off", &state(3, 1)).unwrap();
        drop(s);
        let s = SnapshotStore::open_read_only(p.clone()).unwrap();
        assert_eq!(s.load_latest().unwrap().state, state(3, 1));
        assert!(s.publish(200, b"off", &state(3, 2)).is_err());
        assert!(s.publish_delta(200, b"off", 1, &[], &[]).is_err());
        s.retain(0); // no-op, must not delete anything
        drop(s);
        let s = SnapshotStore::open(p.clone()).unwrap();
        assert_eq!(s.latest().unwrap().epoch, 1);
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn payload_codec_rejects_malformed() {
        assert!(decode_payload(&[]).is_none());
        let good = encode_payload(77, b"off", &state(2, 7)).unwrap();
        let (created, off, st) = decode_payload(&good).unwrap();
        assert_eq!(created, 77);
        assert_eq!(off, b"off");
        assert_eq!(st, state(2, 7));
        assert!(decode_payload(&good[..good.len() - 1]).is_none());
        let mut padded = good.clone();
        padded.push(0);
        assert!(decode_payload(&padded).is_none());
        // Wrong version word.
        let mut vers = good.clone();
        vers[0] = 99;
        assert!(decode_payload(&vers).is_none());
        // A full payload is not a delta and vice versa.
        assert!(decode_delta(&good).is_none());
        let delta = encode_delta(1, 1, b"off", &state(1, 1), &[b"k".to_vec()]).unwrap();
        assert!(decode_payload(&delta).is_none());
        assert!(decode_delta(&delta).is_some());
    }

    #[test]
    fn decoder_rejects_huge_declared_counts_without_allocating() {
        // A crafted header declaring u32::MAX entries must error out
        // (truncation detected), not allocate 4 billion slots or
        // silently succeed.
        let mut evil = Vec::new();
        push_u32(&mut evil, PAYLOAD_VERSION);
        evil.push(KIND_FULL);
        evil.extend_from_slice(&7u64.to_le_bytes());
        push_u32(&mut evil, 0); // empty offsets
        push_u32(&mut evil, u32::MAX); // entry count
        assert!(decode_payload(&evil).is_none());
        // Same for a declared key length near u32::MAX.
        let mut evil = Vec::new();
        push_u32(&mut evil, PAYLOAD_VERSION);
        evil.push(KIND_FULL);
        evil.extend_from_slice(&7u64.to_le_bytes());
        push_u32(&mut evil, 0);
        push_u32(&mut evil, 1);
        push_u32(&mut evil, u32::MAX - 3); // klen
        evil.extend_from_slice(b"tiny");
        assert!(decode_payload(&evil).is_none());
        // Delta side: huge delete count.
        let mut evil = Vec::new();
        push_u32(&mut evil, PAYLOAD_VERSION);
        evil.push(KIND_DELTA);
        evil.extend_from_slice(&7u64.to_le_bytes());
        evil.extend_from_slice(&1u64.to_le_bytes());
        push_u32(&mut evil, 0);
        push_u32(&mut evil, 0);
        push_u32(&mut evil, u32::MAX);
        assert!(decode_delta(&evil).is_none());
    }

    fn arb_pairs() -> impl Strategy<Value = StateEntries> {
        proptest::collection::vec(
            (
                proptest::collection::vec(any::<u8>(), 0..24),
                proptest::collection::vec(any::<u8>(), 0..48),
            ),
            0..12,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn full_payload_roundtrips(
            created in any::<u64>(),
            offsets in proptest::collection::vec(any::<u8>(), 0..64),
            state in arb_pairs(),
        ) {
            let enc = encode_payload(created, &offsets, &state).unwrap();
            let (c, off, st) = decode_payload(&enc).unwrap();
            prop_assert_eq!(c, created);
            prop_assert_eq!(off, offsets);
            prop_assert_eq!(st, state);
        }

        #[test]
        fn delta_payload_roundtrips(
            created in any::<u64>(),
            base in 1u64..u64::MAX,
            offsets in proptest::collection::vec(any::<u8>(), 0..64),
            puts in arb_pairs(),
            deletes in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..24), 0..8),
        ) {
            let enc = encode_delta(created, base, &offsets, &puts, &deletes).unwrap();
            let (c, b, off, p, d) = decode_delta(&enc).unwrap();
            prop_assert_eq!(c, created);
            prop_assert_eq!(b, base);
            prop_assert_eq!(off, offsets);
            prop_assert_eq!(p, puts);
            prop_assert_eq!(d, deletes);
        }

        #[test]
        fn truncated_payloads_never_decode(
            offsets in proptest::collection::vec(any::<u8>(), 0..32),
            state in arb_pairs(),
            cut in 0usize..200,
        ) {
            let enc = encode_payload(5, &offsets, &state).unwrap();
            let cut = cut % enc.len();
            prop_assert!(decode_payload(&enc[..cut]).is_none());
        }

        #[test]
        fn truncated_deltas_never_decode(
            puts in arb_pairs(),
            deletes in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..24), 0..8),
            cut in 0usize..200,
        ) {
            let enc = encode_delta(5, 3, b"off", &puts, &deletes).unwrap();
            let cut = cut % enc.len();
            prop_assert!(decode_delta(&enc[..cut]).is_none());
        }

        #[test]
        fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_payload(&bytes);
            let _ = decode_delta(&bytes);
        }
    }
}
