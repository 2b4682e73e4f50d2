//! FDB: append-only log file with an in-memory index.
//!
//! Every put/delete appends a framed record to the log; an in-memory map
//! tracks the latest offset per key. Reopening replays the log, so data
//! survives process restarts. `flush` rewrites the log keeping only live
//! records (compaction); the same rewrite also runs automatically when
//! overwrites and deletes have made more than half the log dead weight
//! (checkpoint blobs churn the same keys every round, which would grow an
//! append-only log without bound).
//!
//! Record framing: `key_len:u32 | key | val_len:i32 | value` where
//! `val_len = -1` marks a delete.

use super::StorageEngine;
use crate::error::StoreError;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use wire::Reader;

/// Auto-compaction floor: logs smaller than this never compact on their
/// own (the rewrite would cost more than the bytes it reclaims).
const COMPACT_MIN_BYTES: u64 = 64 * 1024;

/// key → (value offset, value length) into the log file.
type Index = HashMap<Vec<u8>, (u64, u32)>;

struct FdbInner {
    file: File,
    index: Index,
    /// Current append position.
    end: u64,
    /// Bytes of the log occupied by *live* records (the latest put of each
    /// indexed key). `end - live` is dead weight: overwritten values and
    /// delete markers. Maintained incrementally on every append.
    live: u64,
    /// The first append that failed since the last [`FdbEngine::sync`],
    /// which reports it. A failed append leaves its key as it was.
    failed: Option<io::Error>,
}

/// Size on disk of one put record for `key` carrying `val_len` value bytes.
fn record_bytes(key: &[u8], val_len: u32) -> u64 {
    8 + key.len() as u64 + u64::from(val_len)
}

/// Appends one framed record to `out`; `None` is a delete marker.
fn push_record(out: &mut Vec<u8>, key: &[u8], value: Option<&[u8]>) {
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    match value {
        None => out.extend_from_slice(&(-1i32).to_le_bytes()),
        Some(v) => {
            out.extend_from_slice(&(v.len() as i32).to_le_bytes());
            out.extend_from_slice(v);
        }
    }
}

fn read_at(file: &File, offset: u64, len: u32) -> io::Result<Vec<u8>> {
    let mut buf = vec![0u8; len as usize];
    file.read_exact_at(&mut buf, offset)?;
    Ok(buf)
}

/// File-backed engine.
pub struct FdbEngine {
    path: PathBuf,
    inner: Mutex<FdbInner>,
}

impl FdbEngine {
    /// Opens (or creates) the log at `path`, replaying existing records.
    pub fn open(path: PathBuf) -> Result<Self, StoreError> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;
        let mut index = HashMap::new();
        // Replay ends after the last complete record: whatever follows is
        // a tail torn by a crash mid-append.
        let mut r = Reader::new(&raw);
        let mut end = 0;
        while let (Ok(key), Ok(val_len)) = (r.bytes(), r.u32()) {
            // `val_len` is an `i32` on disk; negative marks a delete.
            if (val_len as i32) < 0 {
                index.remove(key);
            } else {
                let at = raw.len() - r.remaining();
                if r.take(val_len as usize).is_err() {
                    break;
                }
                index.insert(key.to_vec(), (at as u64, val_len));
            }
            end = (raw.len() - r.remaining()) as u64;
        }
        // Drop any torn tail record so a shorter future append cannot
        // leave stale bytes that replay might misparse.
        file.set_len(end)?;
        let live = index
            .iter()
            .map(|(k, &(_, len))| record_bytes(k, len))
            .sum();
        Ok(FdbEngine {
            path,
            inner: Mutex::new(FdbInner {
                file,
                index,
                end,
                live,
                failed: None,
            }),
        })
    }

    /// Writes one record at the end of the log, then indexes it: a failed
    /// write changes neither the index nor the live-byte count.
    fn append(inner: &mut FdbInner, key: &[u8], value: Option<&[u8]>) -> io::Result<()> {
        let mut rec = Vec::with_capacity(8 + key.len() + value.map_or(0, <[u8]>::len));
        push_record(&mut rec, key, value);
        if let Err(e) = inner.file.write_all_at(&rec, inner.end) {
            // Cut whatever part of the record landed, so replay never
            // reads it as the start of the next one. Best effort: if the
            // cut fails too, the next append still writes from `end`.
            let _ = inner.file.set_len(inner.end);
            return Err(e);
        }
        let replaced = match value {
            Some(v) => {
                inner.live += record_bytes(key, v.len() as u32);
                let at = inner.end + 8 + key.len() as u64;
                inner.index.insert(key.to_vec(), (at, v.len() as u32))
            }
            None => inner.index.remove(key),
        };
        if let Some((_, old_len)) = replaced {
            inner.live -= record_bytes(key, old_len);
        }
        inner.end += rec.len() as u64;
        Ok(())
    }

    /// Compacts when dead records (overwrites + delete markers) outweigh
    /// live ones and the log is big enough for the rewrite to pay off. A
    /// failed compaction keeps the old log, which still holds every
    /// record; the next write past the threshold retries.
    fn maybe_compact(&self, inner: &mut FdbInner) {
        if inner.end >= COMPACT_MIN_BYTES && (inner.end - inner.live) * 2 > inner.end {
            let _ = self.compact(inner);
        }
    }

    /// Rewrites the log with only live records. The copy is built beside
    /// the log and renamed over it once it is on disk; only then do the
    /// file and the index switch to it. On any error the old log and its
    /// index stay in use, unchanged.
    fn compact(&self, inner: &mut FdbInner) -> io::Result<()> {
        let tmp = self.path.with_extension("compact");
        let compacted = Self::write_compacted(inner, &tmp)
            .and_then(|copy| std::fs::rename(&tmp, &self.path).map(|()| copy));
        match compacted {
            Ok((file, index, end)) => {
                inner.file = file;
                inner.index = index;
                inner.end = end;
                inner.live = end;
                Ok(())
            }
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Writes every live record of `inner` to a new file at `path` and
    /// syncs it; returns the file, its index and its length.
    fn write_compacted(inner: &FdbInner, path: &Path) -> io::Result<(File, Index, u64)> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut index = HashMap::with_capacity(inner.index.len());
        let (mut end, mut rec) = (0, Vec::new());
        for (key, &(offset, len)) in &inner.index {
            rec.clear();
            push_record(&mut rec, key, Some(&read_at(&inner.file, offset, len)?));
            file.write_all_at(&rec, end)?;
            index.insert(key.clone(), (end + 8 + key.len() as u64, len));
            end += rec.len() as u64;
        }
        file.sync_all()?;
        Ok((file, index, end))
    }

    /// Forces appended records to disk (`fsync`), or reports the first
    /// append that failed since the last call. The write path is
    /// OS-buffered — enough for process-kill durability — so only
    /// ordering-critical writers (the snapshot store's blob-before-
    /// manifest protocol) pay for this.
    pub fn sync(&self) -> io::Result<()> {
        let mut inner = self.inner.lock();
        match inner.failed.take() {
            Some(e) => Err(e),
            None => inner.file.sync_data(),
        }
    }

    /// Compacts now: rewrites the log with only live records. On error
    /// the old log stays in use and every key keeps its value.
    pub fn flush(&self) -> io::Result<()> {
        let mut inner = self.inner.lock();
        self.compact(&mut inner)
    }

    fn read_key(inner: &FdbInner, key: &[u8]) -> Option<Vec<u8>> {
        let &(offset, len) = inner.index.get(key)?;
        read_at(&inner.file, offset, len).ok()
    }
}

impl StorageEngine for FdbEngine {
    fn read(&self, key: &[u8], f: &mut super::ReadFn<'_>) {
        let value = Self::read_key(&self.inner.lock(), key);
        f(value.as_deref());
    }

    fn modify(&self, key: &[u8], f: &mut super::ModifyFn<'_>) -> bool {
        let mut inner = self.inner.lock();
        let mut slot = Self::read_key(&inner, key);
        let existed = slot.is_some();
        let changed = f(&mut slot);
        // A delete of an absent key appends nothing: the marker would be
        // pure dead weight.
        if changed && (existed || slot.is_some()) {
            match Self::append(&mut inner, key, slot.as_deref()) {
                Ok(()) => self.maybe_compact(&mut inner),
                Err(e) => {
                    inner.failed.get_or_insert(e);
                }
            }
        }
        changed
    }

    fn len(&self) -> usize {
        self.inner.lock().index.len()
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let inner = self.inner.lock();
        inner
            .index
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .filter_map(|(k, &(offset, len))| {
                read_at(&inner.file, offset, len)
                    .ok()
                    .map(|v| (k.clone(), v))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::conformance;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "fdb-test-{}-{}-{tag}.fdb",
            std::process::id(),
            std::thread::current()
                .name()
                .unwrap_or("t")
                .replace("::", "-")
        ))
    }

    fn open(tag: &str) -> FdbEngine {
        let p = temp_path(tag);
        let _ = std::fs::remove_file(&p);
        FdbEngine::open(p).unwrap()
    }

    #[test]
    fn conformance_suite() {
        conformance::basic_crud(&open("crud"));
        conformance::modify_semantics(&open("update"));
        conformance::prefix_scan(&open("scan"));
        conformance::many_keys(&open("many"));
    }

    #[test]
    fn conformance_over_key_lengths() {
        conformance::prefix_scan_key_lengths(&open("scan-lengths"));
        conformance::many_keys_key_lengths(&open("many-lengths"));
    }

    #[test]
    fn reopen_replays_log() {
        let p = temp_path("reopen");
        let _ = std::fs::remove_file(&p);
        {
            let e = FdbEngine::open(p.clone()).unwrap();
            e.put(b"a", vec![1]);
            e.put(b"b", vec![2]);
            e.delete(b"a");
            e.put(b"c", vec![3, 3]);
        }
        let e = FdbEngine::open(p.clone()).unwrap();
        assert!(e.get(b"a").is_none());
        assert_eq!(e.get(b"b"), Some(vec![2]));
        assert_eq!(e.get(b"c"), Some(vec![3, 3]));
        assert_eq!(e.len(), 2);
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn truncated_tail_record_is_ignored_on_reopen() {
        // A crash mid-append leaves a partial record at the log tail;
        // reopening must recover everything before it.
        let p = temp_path("torn");
        let _ = std::fs::remove_file(&p);
        {
            let e = FdbEngine::open(p.clone()).unwrap();
            e.put(b"a", vec![1]);
            e.put(b"b", vec![2, 2]);
        }
        // Simulate the torn write.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&p).unwrap();
            f.write_all(&(5u32).to_le_bytes()).unwrap(); // key_len
            f.write_all(b"par").unwrap(); // ...but only 3 key bytes
        }
        let e = FdbEngine::open(p.clone()).unwrap();
        assert_eq!(e.get(b"a"), Some(vec![1]));
        assert_eq!(e.get(b"b"), Some(vec![2, 2]));
        assert_eq!(e.len(), 2);
        // And the log remains appendable afterwards.
        e.put(b"c", vec![3]);
        drop(e);
        let e2 = FdbEngine::open(p.clone()).unwrap();
        assert_eq!(e2.get(b"c"), Some(vec![3]));
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn churn_triggers_auto_compaction() {
        // Overwriting the same keys forever must not grow the log without
        // bound: once dead bytes outweigh live ones past the floor, the
        // engine compacts by itself — no explicit flush() call.
        let p = temp_path("auto");
        let _ = std::fs::remove_file(&p);
        let e = FdbEngine::open(p.clone()).unwrap();
        let val = vec![0xCD; 1024];
        for round in 0..400u32 {
            for i in 0..16u32 {
                e.put(&i.to_le_bytes(), val.clone());
            }
            // Deletes churn too: their markers are pure dead weight.
            e.put(b"tmp", vec![round as u8; 512]);
            e.delete(b"tmp");
        }
        let size = std::fs::metadata(&p).unwrap().len();
        let live = 16 * (8 + 4 + 1024) as u64;
        assert!(
            size < live * 3 + COMPACT_MIN_BYTES,
            "log should stay near its live size, got {size} for {live} live"
        );
        for i in 0..16u32 {
            assert_eq!(e.get(&i.to_le_bytes()), Some(val.clone()));
        }
        assert!(e.get(b"tmp").is_none());
        // Replay after auto-compaction still sees the same data.
        drop(e);
        let e2 = FdbEngine::open(p.clone()).unwrap();
        assert_eq!(e2.len(), 16);
        assert_eq!(e2.get(&3u32.to_le_bytes()), Some(val));
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn compaction_shrinks_log_and_preserves_data() {
        let p = temp_path("compact");
        let _ = std::fs::remove_file(&p);
        let e = FdbEngine::open(p.clone()).unwrap();
        for round in 0..10u8 {
            for i in 0..20u32 {
                e.put(&i.to_le_bytes(), vec![round; 32]);
            }
        }
        let before = std::fs::metadata(&p).unwrap().len();
        e.flush().unwrap();
        let after = std::fs::metadata(&p).unwrap().len();
        assert!(after < before / 5, "compaction should drop dead records");
        for i in 0..20u32 {
            assert_eq!(e.get(&i.to_le_bytes()), Some(vec![9; 32]));
        }
        // Still writable after compaction, and replayable.
        e.put(b"post", vec![7]);
        drop(e);
        let e2 = FdbEngine::open(p.clone()).unwrap();
        assert_eq!(e2.get(b"post"), Some(vec![7]));
        assert_eq!(e2.len(), 21);
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn failed_compaction_keeps_the_old_log() {
        // A directory squatting on the compaction target makes the
        // rewrite fail before anything is swapped: `flush` reports it,
        // every key keeps its value, and the log still takes writes.
        let p = temp_path("squat");
        let squat = p.with_extension("compact");
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_dir(&squat);
        let e = FdbEngine::open(p.clone()).unwrap();
        for round in 0..3u8 {
            for i in 0..20u32 {
                e.put(&i.to_le_bytes(), vec![round; 32]);
            }
        }
        e.delete(&0u32.to_le_bytes());
        let before = std::fs::metadata(&p).unwrap().len();
        std::fs::create_dir(&squat).unwrap();
        assert!(e.flush().is_err());
        assert_eq!(std::fs::metadata(&p).unwrap().len(), before, "old log kept");
        assert_eq!(e.len(), 19);
        assert!(e.get(&0u32.to_le_bytes()).is_none());
        for i in 1..20u32 {
            assert_eq!(e.get(&i.to_le_bytes()), Some(vec![2; 32]));
        }
        e.put(b"post", vec![7]);
        e.sync().unwrap();
        assert_eq!(e.get(b"post"), Some(vec![7]));
        drop(e);
        std::fs::remove_dir(&squat).unwrap();
        let e = FdbEngine::open(p.clone()).unwrap();
        assert_eq!(e.len(), 20);
        assert_eq!(e.get(b"post"), Some(vec![7]));
        assert_eq!(e.get(&5u32.to_le_bytes()), Some(vec![2; 32]));
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn failed_append_changes_nothing_and_is_reported_by_sync() {
        // A read-only handle makes every append fail: the key keeps its
        // old value, the next `sync` reports the failure once, and with a
        // writable handle back the log takes writes again.
        let p = temp_path("append-fails");
        let _ = std::fs::remove_file(&p);
        let e = FdbEngine::open(p.clone()).unwrap();
        e.put(b"k", vec![1]);
        let writable = std::mem::replace(&mut e.inner.lock().file, File::open(&p).unwrap());
        e.put(b"k", vec![2]);
        e.put(b"new", vec![3]);
        assert_eq!(e.get(b"k"), Some(vec![1]));
        assert!(e.get(b"new").is_none());
        assert_eq!(e.len(), 1);
        assert!(e.sync().is_err());
        e.inner.lock().file = writable;
        e.sync().unwrap();
        e.put(b"k", vec![4]);
        drop(e);
        let e = FdbEngine::open(p.clone()).unwrap();
        assert_eq!(e.get(b"k"), Some(vec![4]));
        assert_eq!(e.len(), 1);
        let _ = std::fs::remove_file(p);
    }
}
