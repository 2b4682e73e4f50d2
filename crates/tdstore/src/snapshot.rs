//! The snapshot store: the checkpoint log, one append-only file of epoch
//! records.
//!
//! Each record is `len:u32 | payload`, and every payload opens with the
//! header `version:u32 | kind:u8 | epoch:u64 | created_ms:u64 |
//! entries:u64`:
//!
//! - a **full** record then holds the consistent offset vector over every
//!   spout partition and the full bolt-state key/value set captured
//!   inside the drain/seal barrier;
//! - a **delta** record then holds the base epoch it patches, the sealed
//!   offset vector, and only the keys that changed since the base (puts,
//!   then deletes).
//!
//! `created_ms` travels in the header, so every epoch reports a truthful
//! timestamp; `entries` counts a full record's pairs or a delta's puts
//! and deletes, so opening the log reads each record's header and skips
//! its body.
//!
//! A delta always patches the immediately preceding epoch, so the records
//! form a chain: full base → delta → delta → …. Resolving an epoch walks
//! back to the nearest full record and applies the deltas oldest-first; a
//! missing or undecodable link makes the whole chain unresolvable and
//! `load` returns `None` rather than a partial state.
//!
//! A complete record is its own commit. `publish` and `publish_delta`
//! append one record and `fsync` it. A crash during the append leaves a
//! torn tail, which the next open truncates: the newest epoch is then the
//! previous one, whose chain is intact on disk. `retain` cuts superseded
//! chains by rewriting the log with only the kept records — beside the
//! log, synced, then renamed over it — so a failed rewrite leaves the old
//! log in use.

use crate::error::StoreError;
use parking_lot::{Mutex, MutexGuard};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use wire::{ProtocolError, Reader};

/// Payload format version.
const PAYLOAD_VERSION: u32 = 3;
/// Header `kind` byte of a full record.
const KIND_FULL: u8 = 0;
/// Header `kind` byte of a delta record.
const KIND_DELTA: u8 = 1;
/// The length prefix in front of every payload.
const FRAME: usize = 4;
/// The longest header: a delta's, which carries its base epoch.
const HEADER_MAX: usize = 4 + 1 + 8 + 8 + 8 + 8;

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
    /// The record's size in the log, length prefix included. For a
    /// resolved chain: total bytes read across base + deltas.
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

fn checked_u32(n: usize, what: &str) -> Result<u32, StoreError> {
    u32::try_from(n).map_err(|_| StoreError::Io(format!("snapshot {what} {n} exceeds u32 range")))
}

fn push_u32(out: &mut Vec<u8>, n: u32) {
    out.extend_from_slice(&n.to_le_bytes());
}

fn push_bytes(out: &mut Vec<u8>, bytes: &[u8]) -> Result<(), StoreError> {
    push_u32(out, checked_u32(bytes.len(), "field length")?);
    out.extend_from_slice(bytes);
    Ok(())
}

/// Encoded size of a record, length prefix included: the header, then the
/// offset vector and the pairs, each behind its u32 length or count; a
/// delta adds its base epoch to the header and its deletes behind theirs.
fn record_bytes(
    delta: bool,
    offsets: usize,
    puts: &[(Vec<u8>, Vec<u8>)],
    deletes: &[Vec<u8>],
) -> usize {
    let pairs: usize = puts.iter().map(|(k, v)| 8 + k.len() + v.len()).sum();
    let body = 4 + offsets + 4 + pairs;
    match delta {
        true => FRAME + HEADER_MAX + body + 4 + deletes.iter().map(|k| 4 + k.len()).sum::<usize>(),
        false => FRAME + HEADER_MAX - 8 + body,
    }
}

/// Encoded size of the delta record [`SnapshotStore::publish_delta`]
/// writes for an offset vector of `offsets` bytes, `puts` and `deletes`:
/// length prefix, header, offset vector, then length-prefixed entries.
pub fn delta_payload_bytes(
    offsets: usize,
    puts: &[(Vec<u8>, Vec<u8>)],
    deletes: &[Vec<u8>],
) -> usize {
    record_bytes(true, offsets, puts, deletes)
}

/// Encodes one record, length prefix included, and the identity it
/// publishes. A full record takes no `deletes`.
fn encode_record(
    epoch: u64,
    created_ms: u64,
    kind: SnapshotKind,
    offsets: &[u8],
    puts: &[(Vec<u8>, Vec<u8>)],
    deletes: &[Vec<u8>],
) -> Result<(Vec<u8>, SnapshotMeta), StoreError> {
    let (kind, base) = match kind {
        SnapshotKind::Full => (KIND_FULL, None),
        SnapshotKind::Delta { base_epoch } => (KIND_DELTA, Some(base_epoch)),
    };
    let deletes = if base.is_some() { deletes } else { &[] };
    let entries = (puts.len() + deletes.len()) as u64;
    let mut out = Vec::with_capacity(record_bytes(base.is_some(), offsets.len(), puts, deletes));
    out.extend_from_slice(&[0; FRAME]);
    push_u32(&mut out, PAYLOAD_VERSION);
    out.push(kind);
    for word in [Some(epoch), Some(created_ms), Some(entries), base]
        .into_iter()
        .flatten()
    {
        out.extend_from_slice(&word.to_le_bytes());
    }
    push_bytes(&mut out, offsets)?;
    push_u32(&mut out, checked_u32(puts.len(), "entry count")?);
    for (k, v) in puts {
        push_bytes(&mut out, k)?;
        push_bytes(&mut out, v)?;
    }
    if base.is_some() {
        push_u32(&mut out, checked_u32(deletes.len(), "delete count")?);
        for k in deletes {
            push_bytes(&mut out, k)?;
        }
    }
    let len = checked_u32(out.len() - FRAME, "record length")?;
    out[..FRAME].copy_from_slice(&len.to_le_bytes());
    let meta = SnapshotMeta {
        epoch,
        created_ms,
        entries,
        bytes: out.len() as u64,
    };
    Ok((out, meta))
}

/// Reads a payload's header; `bytes` is the record's size in the log.
fn read_header(
    r: &mut Reader<'_>,
    bytes: u64,
) -> Result<(SnapshotMeta, SnapshotKind), ProtocolError> {
    if r.u32()? != PAYLOAD_VERSION {
        return Err(ProtocolError::BadPayload(
            "unknown snapshot payload version",
        ));
    }
    let kind = r.u8()?;
    let meta = SnapshotMeta {
        epoch: r.u64()?,
        created_ms: r.u64()?,
        entries: r.u64()?,
        bytes,
    };
    let kind = match kind {
        KIND_FULL => SnapshotKind::Full,
        KIND_DELTA => SnapshotKind::Delta {
            base_epoch: r.u64()?,
        },
        _ => return Err(ProtocolError::BadPayload("unknown snapshot payload kind")),
    };
    Ok((meta, kind))
}

/// Decodes one record's payload. Rejects truncation, trailing bytes,
/// unknown versions and kinds, and a header whose `entries` disagrees
/// with the body.
fn decode_record(payload: &[u8]) -> Option<SnapshotRecord> {
    let mut r = Reader::new(payload);
    let (meta, kind) = read_header(&mut r, (FRAME + payload.len()) as u64).ok()?;
    let offsets = r.bytes().ok()?.to_vec();
    let puts: StateEntries = (0..r.count(8).ok()?)
        .map(|_| Some((r.bytes().ok()?.to_vec(), r.bytes().ok()?.to_vec())))
        .collect::<Option<_>>()?;
    let deletes: Vec<Vec<u8>> = match kind {
        SnapshotKind::Full => Vec::new(),
        SnapshotKind::Delta { .. } => (0..r.count(4).ok()?)
            .map(|_| Some(r.bytes().ok()?.to_vec()))
            .collect::<Option<_>>()?,
    };
    r.finish().ok()?;
    ((puts.len() + deletes.len()) as u64 == meta.entries).then_some(SnapshotRecord {
        meta,
        kind,
        offsets,
        puts,
        deletes,
    })
}

/// What the index knows of one record: its header and where it starts.
#[derive(Debug, Clone, Copy)]
struct Entry {
    meta: SnapshotMeta,
    kind: SnapshotKind,
    /// Offset of the record's length prefix in the file.
    at: u64,
}

/// Reads the header of the record at `at` in a file of `len` bytes.
/// `None` when no complete record with a readable header starts there.
fn read_entry(file: &File, at: u64, len: u64) -> io::Result<Option<Entry>> {
    let mut head = [0u8; FRAME + HEADER_MAX];
    let n = head.len().min((len - at) as usize);
    file.read_exact_at(&mut head[..n], at)?;
    let Ok(payload) = Reader::new(&head[..n]).u32() else {
        return Ok(None);
    };
    let bytes = FRAME as u64 + u64::from(payload);
    if bytes > len - at {
        return Ok(None);
    }
    let header = &mut Reader::new(&head[FRAME..n.min(bytes as usize)]);
    Ok(read_header(header, bytes)
        .ok()
        .map(|(meta, kind)| Entry { meta, kind, at }))
}

/// Syncs the directory holding `path`: a file created or renamed there
/// survives a crash of the machine only once its entry is on disk.
fn sync_dir(path: &Path) -> io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    File::open(dir.unwrap_or(Path::new("."))).and_then(|d| d.sync_all())
}

/// The open log: its file and one index entry per complete record,
/// oldest first, with contiguous epochs.
struct Log {
    file: File,
    index: Vec<Entry>,
}

impl Log {
    /// Walks the record headers of the file at `path`. The log ends after
    /// the last complete record whose header reads and whose epoch follows
    /// its predecessor's; a writable open truncates what follows, a tail
    /// torn by a crash mid-append, so the next append lands after it.
    fn open(path: &Path, read_only: bool) -> Result<Log, StoreError> {
        if let Some(dir) = path.parent().filter(|_| !read_only) {
            std::fs::create_dir_all(dir)?;
        }
        let file = OpenOptions::new()
            .read(true)
            .write(!read_only)
            .create(!read_only)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        let mut log = Log {
            file,
            index: Vec::new(),
        };
        while let Some(entry) = read_entry(&log.file, log.end(), len)? {
            let follows = |prev: &Entry| prev.meta.epoch.checked_add(1) == Some(entry.meta.epoch);
            if !log.index.last().is_none_or(follows) {
                break;
            }
            log.index.push(entry);
        }
        if !read_only {
            log.file.set_len(log.end())?;
            sync_dir(path)?;
        }
        Ok(log)
    }

    /// The end of the last complete record.
    fn end(&self) -> u64 {
        self.index.last().map_or(0, |e| e.at + e.meta.bytes)
    }

    fn find(&self, epoch: u64) -> Option<usize> {
        self.index
            .binary_search_by_key(&epoch, |e| e.meta.epoch)
            .ok()
    }

    /// The records epoch `epoch` resolves from, its full base first;
    /// `None` when the chain is broken.
    fn chain(&self, epoch: u64) -> Option<&[Entry]> {
        let last = self.find(epoch)?;
        let mut first = last;
        while let SnapshotKind::Delta { base_epoch } = self.index[first].kind {
            // A delta patches exactly the record before it.
            first = first
                .checked_sub(1)
                .filter(|&i| self.index[i].meta.epoch == base_epoch)?;
        }
        Some(&self.index[first..=last])
    }

    /// Reads and decodes one record's payload.
    fn read(&self, entry: &Entry) -> Option<SnapshotRecord> {
        let mut payload = vec![0; entry.meta.bytes as usize - FRAME];
        self.file
            .read_exact_at(&mut payload, entry.at + FRAME as u64)
            .ok()?;
        decode_record(&payload)
    }

    /// Appends the next epoch's record and syncs it. On an error the log
    /// is cut back to where it ended and the index is unchanged.
    fn append(
        &mut self,
        created_ms: u64,
        kind: SnapshotKind,
        offsets: &[u8],
        puts: &[(Vec<u8>, Vec<u8>)],
        deletes: &[Vec<u8>],
    ) -> Result<SnapshotMeta, StoreError> {
        let epoch = self
            .index
            .last()
            .map_or(Some(1), |e| e.meta.epoch.checked_add(1))
            .ok_or_else(|| StoreError::Io("snapshot epochs exhausted".into()))?;
        let (record, meta) = encode_record(epoch, created_ms, kind, offsets, puts, deletes)?;
        let at = self.end();
        let written = self
            .file
            .write_all_at(&record, at)
            .and_then(|()| self.file.sync_data());
        if let Err(e) = written {
            // Best effort: reopening truncates a torn tail too.
            let _ = self.file.set_len(at);
            return Err(e.into());
        }
        self.index.push(Entry { meta, kind, at });
        Ok(meta)
    }

    /// Rewrites the log keeping the records from index position `cut`
    /// on. The copy is written beside the log and synced, then renamed
    /// over it; only then do the file and the index switch to it, and
    /// the directory is synced. On an error before the rename the old
    /// log stays in use, unchanged.
    fn rewrite(&mut self, path: &Path, cut: usize) -> io::Result<()> {
        let from = self.index.get(cut).map_or(self.end(), |e| e.at);
        let tmp = path.with_extension("compact");
        let copied = copy_range(&self.file, from..self.end(), &tmp)
            .and_then(|file| std::fs::rename(&tmp, path).map(|()| file));
        match copied {
            Ok(file) => {
                self.file = file;
                self.index.drain(..cut);
                for entry in &mut self.index {
                    entry.at -= from;
                }
                sync_dir(path)
            }
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }
}

/// Copies `range` of `src` into a new file at `path` and syncs it.
fn copy_range(src: &File, range: std::ops::Range<u64>, path: &Path) -> io::Result<File> {
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)?;
    // The clone shares the file's cursor; every other read and write of
    // the log is positioned, so moving it disturbs nothing.
    let mut reader = src.try_clone()?;
    reader.seek(SeekFrom::Start(range.start))?;
    let want = range.end - range.start;
    if io::copy(&mut reader.take(want), &mut file)? != want {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    file.sync_all()?;
    Ok(file)
}

/// File-backed checkpoint repository.
pub struct SnapshotStore {
    path: PathBuf,
    log: Mutex<Log>,
    read_only: bool,
}

impl SnapshotStore {
    /// Opens (or creates) the checkpoint log at `path`, truncating a torn
    /// tail.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, StoreError> {
        Self::open_with(path.into(), false)
    }

    /// Opens an existing checkpoint log for inspection only: the file is
    /// never written, and `publish`, `publish_delta` and `retain` fail
    /// with a store error or do nothing. Restore paths work normally.
    pub fn open_read_only(path: impl Into<PathBuf>) -> Result<Self, StoreError> {
        Self::open_with(path.into(), true)
    }

    fn open_with(path: PathBuf, read_only: bool) -> Result<Self, StoreError> {
        Ok(SnapshotStore {
            log: Mutex::new(Log::open(&path, read_only)?),
            path,
            read_only,
        })
    }

    fn writable(&self) -> Result<MutexGuard<'_, Log>, StoreError> {
        if self.read_only {
            return Err(StoreError::Io("snapshot store is read-only".into()));
        }
        Ok(self.log.lock())
    }

    /// Publishes one sealed full snapshot and returns its identity. It
    /// becomes the newest epoch once its record is completely on disk, so
    /// a crash at any point leaves the previous snapshot restorable.
    pub fn publish(
        &self,
        created_ms: u64,
        offsets: &[u8],
        state: &[(Vec<u8>, Vec<u8>)],
    ) -> Result<SnapshotMeta, StoreError> {
        self.writable()?
            .append(created_ms, SnapshotKind::Full, offsets, state, &[])
    }

    /// Publishes one sealed **delta** against `base_epoch`, which must be
    /// the newest published epoch (deltas always patch their immediate
    /// predecessor, so chains are contiguous by construction). `puts` are
    /// keys inserted or changed since the base, `deletes` keys removed.
    /// Same crash contract as `publish`: a torn delta tail is truncated
    /// on reopen and the base is the newest epoch again.
    pub fn publish_delta(
        &self,
        created_ms: u64,
        offsets: &[u8],
        base_epoch: u64,
        puts: &[(Vec<u8>, Vec<u8>)],
        deletes: &[Vec<u8>],
    ) -> Result<SnapshotMeta, StoreError> {
        let mut log = self.writable()?;
        let latest = log.index.last().map_or(0, |e| e.meta.epoch);
        if base_epoch != latest || latest == 0 {
            return Err(StoreError::Io(format!(
                "delta base epoch {base_epoch} is not the newest epoch {latest}"
            )));
        }
        let kind = SnapshotKind::Delta { base_epoch };
        log.append(created_ms, kind, offsets, puts, deletes)
    }

    /// The newest complete record's identity, if any.
    pub fn latest(&self) -> Option<SnapshotMeta> {
        self.log.lock().index.last().map(|e| e.meta)
    }

    /// Loads the raw record of `epoch` without resolving its chain.
    /// `None` when missing (retained out) or undecodable.
    pub fn load_record(&self, epoch: u64) -> Option<SnapshotRecord> {
        let log = self.log.lock();
        log.read(&log.index[log.find(epoch)?])
    }

    /// Loads the snapshot of `epoch`, resolving its delta chain: from the
    /// nearest full record at or before it, applies each delta
    /// oldest-first. `None` when any link is missing (retained out, gap)
    /// or undecodable — never a partial state. `created_ms` comes from
    /// the epoch's own header, so it is truthful for every epoch, not
    /// just the newest.
    pub fn load(&self, epoch: u64) -> Option<Snapshot> {
        let log = self.log.lock();
        let chain = log.chain(epoch)?;
        let mut state = BTreeMap::new();
        let mut offsets = Vec::new();
        for entry in chain {
            let record = log.read(entry)?;
            state.extend(record.puts);
            for k in &record.deletes {
                state.remove(k);
            }
            offsets = record.offsets;
        }
        let state: StateEntries = state.into_iter().collect();
        Some(Snapshot {
            meta: SnapshotMeta {
                epoch,
                created_ms: chain.last()?.meta.created_ms,
                entries: state.len() as u64,
                bytes: chain.iter().map(|e| e.meta.bytes).sum(),
            },
            offsets,
            state,
        })
    }

    /// Loads the newest snapshot, resolving its delta chain. This is the
    /// restore entry point: newest record → full base → deltas → seek
    /// offsets → replay the tail.
    pub fn load_latest(&self) -> Option<Snapshot> {
        self.load(self.latest()?.epoch)
    }

    /// Published epochs (full and delta records), oldest first.
    pub fn epochs(&self) -> Vec<u64> {
        self.log.lock().index.iter().map(|e| e.meta.epoch).collect()
    }

    /// Cuts records so that only the newest `keep` epochs stay
    /// resolvable. Chain-aware: the cut point is the full base of the
    /// oldest epoch being kept, so no live delta loses its ancestry.
    /// `keep == 0` really deletes everything (the store is empty
    /// afterwards, as if freshly created). A cut rewrites the log with
    /// exactly the kept records; if the rewrite fails, the old log stays
    /// in use and the next `retain` tries again.
    pub fn retain(&self, keep: usize) {
        let Ok(mut log) = self.writable() else {
            return;
        };
        let cut = match log.index.len().checked_sub(keep) {
            None | Some(0) => return,
            Some(_) if keep == 0 => log.index.len(),
            // Keep the whole chain of the oldest kept epoch. A broken
            // chain cannot be helped by cutting more.
            Some(oldest) => match log.chain(log.index[oldest].meta.epoch) {
                Some(chain) => oldest + 1 - chain.len(),
                None => return,
            },
        };
        if cut > 0 {
            let _ = log.rewrite(&self.path, cut);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A log path, removed when the test ends.
    struct TempLog(PathBuf);

    impl Drop for TempLog {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn temp_store(tag: &str) -> (SnapshotStore, TempLog) {
        let p = std::env::temp_dir().join(format!("tsnap-test-{}-{tag}.log", std::process::id()));
        let _ = std::fs::remove_file(&p);
        (SnapshotStore::open(p.clone()).unwrap(), TempLog(p))
    }

    fn state(n: u64, round: u8) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n)
            .map(|i| (i.to_le_bytes().to_vec(), vec![round; 16]))
            .collect()
    }

    fn file_len(p: &Path) -> u64 {
        std::fs::metadata(p).unwrap().len()
    }

    /// The log holds exactly the records `epochs()` lists.
    fn assert_log_is_the_index(s: &SnapshotStore, p: &Path) {
        let epochs = s.epochs();
        let records = epochs.iter().map(|&e| s.load_record(e).unwrap().meta.bytes);
        assert_eq!(file_len(p), records.sum::<u64>(), "log of {epochs:?}");
    }

    /// One record's payload, without its length prefix.
    fn payload(
        kind: SnapshotKind,
        offsets: &[u8],
        puts: &[(Vec<u8>, Vec<u8>)],
        deletes: &[Vec<u8>],
    ) -> Vec<u8> {
        let (record, _) = encode_record(9, 77, kind, offsets, puts, deletes).unwrap();
        record[FRAME..].to_vec()
    }

    const DELTA: SnapshotKind = SnapshotKind::Delta { base_epoch: 8 };

    #[test]
    fn publish_load_round_trip() {
        let (s, p) = temp_store("roundtrip");
        assert!(s.latest().is_none());
        assert!(s.load_latest().is_none());
        let meta = s.publish(1_000, b"offsets-blob", &state(10, 1)).unwrap();
        assert_eq!(meta.epoch, 1);
        assert_eq!(meta.entries, 10);
        assert_eq!(meta.bytes, file_len(&p.0));
        let snap = s.load_latest().unwrap();
        assert_eq!(snap.meta, meta);
        assert_eq!(snap.offsets, b"offsets-blob");
        assert_eq!(snap.state, state(10, 1));
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
        let before = s.latest();
        drop(s);
        let s = SnapshotStore::open(p.0.clone()).unwrap();
        let latest = s.latest().unwrap();
        assert_eq!(Some(latest), before, "the header carries the whole meta");
        assert_eq!(latest.created_ms, 300);
        assert_eq!(s.load_latest().unwrap().state, state(4, 3));
        assert_eq!(s.epochs(), vec![1, 2, 3]);
        // Older epochs remain loadable until retained out, and report
        // their own created_ms from the header.
        let older = s.load(2).unwrap();
        assert_eq!(older.state, state(4, 2));
        assert_eq!(older.meta.created_ms, 200);
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
        assert_log_is_the_index(&s, &p.0);
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
        assert_eq!(file_len(&p.0), 0);
        // Publishing after a full wipe starts over at epoch 1.
        assert_eq!(s.publish(9, b"", &state(1, 9)).unwrap().epoch, 1);
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
        assert_eq!(meta.bytes as usize, delta_payload_bytes(5, &puts, &dels));
        // Delta 3: delete key 9 again.
        let meta = s
            .publish_delta(300, b"off-3", 2, &[], &[9u64.to_le_bytes().to_vec()])
            .unwrap();
        assert_eq!(meta.epoch, 3);

        let snap = s.load_latest().unwrap();
        assert_eq!(snap.meta.epoch, 3);
        assert_eq!(snap.meta.created_ms, 300);
        assert_eq!(snap.meta.bytes, file_len(&p.0), "the chain is the log");
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
        let s = SnapshotStore::open(p.0.clone()).unwrap();
        assert_eq!(s.load_latest().unwrap().state, expect);
    }

    #[test]
    fn delta_requires_newest_base() {
        let (s, _p) = temp_store("deltabase");
        // No epochs at all: nothing to base on.
        assert!(s.publish_delta(1, b"", 0, &[], &[]).is_err());
        s.publish(1, b"", &state(2, 1)).unwrap();
        s.publish(2, b"", &state(2, 2)).unwrap();
        // Basing on a non-newest epoch would fork the chain.
        assert!(s.publish_delta(3, b"", 1, &[], &[]).is_err());
        assert!(s.publish_delta(3, b"", 2, &[], &[]).is_ok());
    }

    #[test]
    fn chain_gap_is_rejected_not_partial() {
        let (s, p) = temp_store("gap");
        s.publish(1, b"off", &state(4, 1)).unwrap();
        let mid = s.publish_delta(2, b"off", 1, &state(1, 2), &[]).unwrap();
        s.publish_delta(3, b"off", 2, &state(1, 3), &[]).unwrap();
        // Break the mid-chain delta: its last word, the delete count,
        // now declares a key its record does not hold.
        let end = file_len(&p.0) - s.load_record(3).unwrap().meta.bytes;
        let f = OpenOptions::new().write(true).open(&p.0).unwrap();
        f.write_all_at(&1u32.to_le_bytes(), end - 4).unwrap();
        assert!(s.load_record(mid.epoch).is_none());
        assert!(s.load(3).is_none(), "gap must not resolve partially");
        assert!(s.load_latest().is_none());
        // The base itself still resolves.
        assert_eq!(s.load(1).unwrap().state, state(4, 1));
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
        assert_log_is_the_index(&s, &p.0);
    }

    #[test]
    fn torn_manifest_tail_falls_back_to_previous_snapshot() {
        // A complete record is the only manifest: a crash mid-append of
        // full snapshot 2 leaves its record torn, and reopening truncates
        // it and sees epoch 1.
        let (s, p) = temp_store("torn");
        s.publish(100, b"off-1", &state(3, 1)).unwrap();
        let file_after_first = file_len(&p.0);
        s.publish(200, b"off-2", &state(3, 2)).unwrap();
        drop(s);
        let f = OpenOptions::new().write(true).open(&p.0).unwrap();
        f.set_len(file_len(&p.0) - 20).unwrap();
        drop(f);
        let s = SnapshotStore::open(p.0.clone()).unwrap();
        assert_eq!(file_len(&p.0), file_after_first, "torn tail truncated");
        let latest = s.latest().unwrap();
        assert_eq!(latest.epoch, 1, "torn record must expose epoch 1");
        assert_eq!(s.load_latest().unwrap().offsets, b"off-1");
        // And publishing after the fallback continues from epoch 1.
        let meta = s.publish(300, b"off-2b", &state(3, 3)).unwrap();
        assert_eq!(meta.epoch, 2);
        assert_eq!(s.load_latest().unwrap().offsets, b"off-2b");
    }

    #[test]
    fn torn_delta_tail_falls_back_to_chain_base() {
        // Crash mid-delta-append: epoch 2's delta record is torn. Reopen
        // truncates it; epoch 1, whose chain is intact, is the newest.
        let (s, p) = temp_store("torndelta");
        s.publish(100, b"off-1", &state(3, 1)).unwrap();
        let file_after_first = file_len(&p.0);
        s.publish_delta(200, b"off-2", 1, &state(2, 2), &[])
            .unwrap();
        drop(s);
        let f = OpenOptions::new().write(true).open(&p.0).unwrap();
        f.set_len(file_after_first + 10).unwrap();
        drop(f);
        let s = SnapshotStore::open(p.0.clone()).unwrap();
        assert_eq!(file_len(&p.0), file_after_first, "torn tail truncated");
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
    }

    #[test]
    fn read_only_store_rejects_writes_but_loads() {
        let (s, p) = temp_store("readonly");
        s.publish(100, b"off", &state(3, 1)).unwrap();
        drop(s);
        // A torn tail is read past, not truncated.
        let torn = file_len(&p.0) + 3;
        let f = OpenOptions::new().write(true).open(&p.0).unwrap();
        f.set_len(torn).unwrap();
        let s = SnapshotStore::open_read_only(p.0.clone()).unwrap();
        assert_eq!(s.load_latest().unwrap().state, state(3, 1));
        assert!(s.publish(200, b"off", &state(3, 2)).is_err());
        assert!(s.publish_delta(200, b"off", 1, &[], &[]).is_err());
        s.retain(0); // no-op, must not delete anything
        assert_eq!(file_len(&p.0), torn, "a read-only store never writes");
        drop(s);
        let s = SnapshotStore::open(p.0.clone()).unwrap();
        assert_eq!(s.latest().unwrap().epoch, 1);
    }

    #[test]
    fn failed_append_changes_nothing_and_is_returned_by_that_publish() {
        // A read-only handle makes the append fail: that publish reports
        // it, the log and the index keep what they held, and with a
        // writable handle back the next publish lands where the failed
        // one would have.
        let (s, p) = temp_store("append-fails");
        s.publish(1, b"off", &state(2, 1)).unwrap();
        let before = file_len(&p.0);
        let writable = std::mem::replace(&mut s.log.lock().file, File::open(&p.0).unwrap());
        assert!(s.publish(2, b"off", &state(2, 2)).is_err());
        assert!(s.publish_delta(2, b"off", 1, &state(1, 2), &[]).is_err());
        assert_eq!(file_len(&p.0), before);
        assert_eq!(s.epochs(), vec![1]);
        s.log.lock().file = writable;
        assert_eq!(s.publish_delta(3, b"off", 1, &[], &[]).unwrap().epoch, 2);
        drop(s);
        let s = SnapshotStore::open(p.0.clone()).unwrap();
        assert_eq!(s.epochs(), vec![1, 2]);
        assert_eq!(s.load_latest().unwrap().state, state(2, 1));
    }

    #[test]
    fn failed_rewrite_keeps_the_old_log() {
        // A directory squatting on the rewrite's target makes `retain`'s
        // cut fail before anything is swapped: every epoch stays listed
        // and loadable, the log still takes publishes, and the next
        // `retain` after the squatter leaves makes the cut.
        let (s, p) = temp_store("squat");
        let squat = p.0.with_extension("compact");
        let _ = std::fs::remove_dir(&squat);
        for round in 1..=4u8 {
            s.publish(u64::from(round), b"off", &state(3, round))
                .unwrap();
        }
        let before = file_len(&p.0);
        std::fs::create_dir(&squat).unwrap();
        s.retain(1);
        assert_eq!(file_len(&p.0), before, "old log kept");
        assert_eq!(s.epochs(), vec![1, 2, 3, 4]);
        for round in 1..=4u8 {
            assert_eq!(s.load(u64::from(round)).unwrap().state, state(3, round));
        }
        s.publish(5, b"off", &state(3, 5)).unwrap();
        std::fs::remove_dir(&squat).unwrap();
        s.retain(1);
        assert_eq!(s.epochs(), vec![5]);
        assert_log_is_the_index(&s, &p.0);
        drop(s);
        let s = SnapshotStore::open(p.0.clone()).unwrap();
        assert_eq!(s.load_latest().unwrap().state, state(3, 5));
    }

    #[test]
    fn log_holds_exactly_the_retained_chains() {
        // A coordinator's cadence: every checkpoint publishes (a full
        // record every fourth epoch, else a delta), then retains 2. After
        // each one the file is exactly the records of the two newest
        // epochs' chains, across a reopen halfway.
        let (mut s, p) = temp_store("bound");
        for step in 0..30u64 {
            if step == 15 {
                drop(s);
                s = SnapshotStore::open(p.0.clone()).unwrap();
            }
            let latest = s.latest().map_or(0, |m| m.epoch);
            let puts = state(1 + step % 5, step as u8);
            if step % 4 == 0 {
                s.publish(step, b"off", &puts).unwrap();
            } else {
                s.publish_delta(step, b"off", latest, &puts, &[]).unwrap();
            }
            s.retain(2);
            let newest = latest + 1;
            // Full records sit at epochs 1, 5, 9, …: the chain of the
            // older kept epoch starts at the last one at or before it.
            let base = newest.saturating_sub(2) / 4 * 4 + 1;
            let want: Vec<u64> = (base..=newest).collect();
            assert_eq!(s.epochs(), want, "step {step}");
            assert_log_is_the_index(&s, &p.0);
            assert!(s.load(newest - 1).is_some() || newest == 1);
        }
    }

    #[test]
    fn payload_codec_rejects_malformed() {
        assert!(decode_record(&[]).is_none());
        let good = payload(SnapshotKind::Full, b"off", &state(2, 7), &[]);
        let rec = decode_record(&good).unwrap();
        assert_eq!((rec.meta.epoch, rec.meta.created_ms), (9, 77));
        assert_eq!(rec.kind, SnapshotKind::Full);
        assert_eq!(rec.offsets, b"off");
        assert_eq!(rec.puts, state(2, 7));
        assert!(decode_record(&good[..good.len() - 1]).is_none());
        let mut padded = good.clone();
        padded.push(0);
        assert!(decode_record(&padded).is_none());
        // Wrong version word.
        let mut vers = good.clone();
        vers[0] = 99;
        assert!(decode_record(&vers).is_none());
        // A header whose entry count disagrees with the body.
        let mut entries = good.clone();
        entries[4 + 1 + 8 + 8] ^= 1;
        assert!(decode_record(&entries).is_none());
        // A delta decodes as one, with its base and deletes.
        let delta = payload(DELTA, b"off", &state(1, 1), &[b"k".to_vec()]);
        let rec = decode_record(&delta).unwrap();
        assert_eq!(rec.kind, DELTA);
        assert_eq!(rec.deletes, [b"k".to_vec()]);
    }

    #[test]
    fn decoder_rejects_huge_declared_counts_without_allocating() {
        // A crafted header declaring u32::MAX entries must error out
        // (truncation detected), not allocate 4 billion slots or
        // silently succeed.
        let header = |kind: u8| {
            let mut evil = Vec::new();
            push_u32(&mut evil, PAYLOAD_VERSION);
            evil.push(kind);
            for word in [9u64, 7, u64::from(u32::MAX)] {
                evil.extend_from_slice(&word.to_le_bytes());
            }
            if kind == KIND_DELTA {
                evil.extend_from_slice(&8u64.to_le_bytes());
            }
            push_u32(&mut evil, 0); // empty offsets
            evil
        };
        let mut evil = header(KIND_FULL);
        push_u32(&mut evil, u32::MAX); // entry count
        assert!(decode_record(&evil).is_none());
        // Same for a declared key length near u32::MAX.
        let mut evil = header(KIND_FULL);
        push_u32(&mut evil, 1);
        push_u32(&mut evil, u32::MAX - 3); // klen
        evil.extend_from_slice(b"tiny");
        assert!(decode_record(&evil).is_none());
        // Delta side: huge delete count.
        let mut evil = header(KIND_DELTA);
        push_u32(&mut evil, 0);
        push_u32(&mut evil, u32::MAX);
        assert!(decode_record(&evil).is_none());
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
            let (enc, meta) =
                encode_record(3, created, SnapshotKind::Full, &offsets, &state, &[]).unwrap();
            let rec = decode_record(&enc[FRAME..]).unwrap();
            prop_assert_eq!(rec.meta, meta);
            prop_assert_eq!(rec.meta.created_ms, created);
            prop_assert_eq!(rec.offsets, offsets);
            prop_assert_eq!(rec.puts, state);
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
            let kind = SnapshotKind::Delta { base_epoch: base };
            let (enc, meta) =
                encode_record(base + 1, created, kind, &offsets, &puts, &deletes).unwrap();
            prop_assert_eq!(enc.len(), delta_payload_bytes(offsets.len(), &puts, &deletes));
            let rec = decode_record(&enc[FRAME..]).unwrap();
            prop_assert_eq!(rec.meta, meta);
            prop_assert_eq!(rec.kind, kind);
            prop_assert_eq!(rec.offsets, offsets);
            prop_assert_eq!(rec.puts, puts);
            prop_assert_eq!(rec.deletes, deletes);
        }

        #[test]
        fn truncated_payloads_never_decode(
            offsets in proptest::collection::vec(any::<u8>(), 0..32),
            state in arb_pairs(),
            cut in 0usize..200,
        ) {
            let enc = payload(SnapshotKind::Full, &offsets, &state, &[]);
            let cut = cut % enc.len();
            prop_assert!(decode_record(&enc[..cut]).is_none());
        }

        #[test]
        fn truncated_deltas_never_decode(
            puts in arb_pairs(),
            deletes in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..24), 0..8),
            cut in 0usize..200,
        ) {
            let enc = payload(DELTA, b"off", &puts, &deletes);
            let cut = cut % enc.len();
            prop_assert!(decode_record(&enc[..cut]).is_none());
        }

        #[test]
        fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_record(&bytes);
        }
    }
}
