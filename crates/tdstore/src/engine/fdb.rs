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
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use wire::Reader;

/// Auto-compaction floor: logs smaller than this never compact on their
/// own (the rewrite would cost more than the bytes it reclaims).
const COMPACT_MIN_BYTES: u64 = 64 * 1024;

struct FdbInner {
    file: File,
    /// key → (value offset, value length) into the log file.
    index: HashMap<Vec<u8>, (u64, u32)>,
    /// Current append position.
    end: u64,
    /// Bytes of the log occupied by *live* records (the latest put of each
    /// indexed key). `end - live` is dead weight: overwritten values and
    /// delete markers. Maintained incrementally on every append.
    live: u64,
}

/// Size on disk of one put record for `key` carrying `val_len` value bytes.
fn record_bytes(key: &[u8], val_len: u32) -> u64 {
    8 + key.len() as u64 + u64::from(val_len)
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
        file.seek(SeekFrom::Start(end))?;
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
            }),
        })
    }

    fn append(inner: &mut FdbInner, key: &[u8], value: Option<&[u8]>) -> std::io::Result<()> {
        let mut rec = Vec::with_capacity(8 + key.len() + value.map_or(0, <[u8]>::len));
        rec.extend_from_slice(&(key.len() as u32).to_le_bytes());
        rec.extend_from_slice(key);
        match value {
            None => rec.extend_from_slice(&(-1i32).to_le_bytes()),
            Some(v) => {
                rec.extend_from_slice(&(v.len() as i32).to_le_bytes());
                let value_offset = inner.end + rec.len() as u64;
                rec.extend_from_slice(v);
                let prev = inner
                    .index
                    .insert(key.to_vec(), (value_offset, v.len() as u32));
                if let Some((_, old_len)) = prev {
                    inner.live -= record_bytes(key, old_len);
                }
                inner.live += record_bytes(key, v.len() as u32);
            }
        }
        if value.is_none() {
            if let Some((_, old_len)) = inner.index.remove(key) {
                inner.live -= record_bytes(key, old_len);
            }
        }
        inner.file.write_all(&rec)?;
        inner.end += rec.len() as u64;
        Ok(())
    }

    /// Compacts when dead records (overwrites + delete markers) outweigh
    /// live ones and the log is big enough for the rewrite to pay off.
    fn maybe_compact(&self, inner: &mut FdbInner) {
        if inner.end >= COMPACT_MIN_BYTES && (inner.end - inner.live) * 2 > inner.end {
            self.compact(inner);
        }
    }

    /// Rewrites the log with only live records and swaps it in atomically.
    fn compact(&self, inner: &mut FdbInner) {
        let live: Vec<(Vec<u8>, Vec<u8>)> = {
            let keys: Vec<(Vec<u8>, (u64, u32))> = inner
                .index
                .iter()
                .map(|(k, &loc)| (k.clone(), loc))
                .collect();
            keys.into_iter()
                .filter_map(|(k, (off, len))| Self::read_at(inner, off, len).ok().map(|v| (k, v)))
                .collect()
        };
        let tmp = self.path.with_extension("compact");
        {
            let file = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)
                .expect("create compact file");
            inner.file = file;
            inner.end = 0;
            inner.live = 0;
            inner.index.clear();
            for (k, v) in live {
                Self::append(inner, &k, Some(&v)).expect("fdb compact append");
            }
            inner.file.sync_all().ok();
        }
        std::fs::rename(&tmp, &self.path).expect("swap compacted log");
        // Reopen the renamed file for continued appends.
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.path)
            .expect("reopen compacted log");
        file.seek(SeekFrom::Start(inner.end)).expect("seek end");
        inner.file = file;
    }

    /// Forces appended records to disk (`fsync`). The write path is
    /// OS-buffered — enough for process-kill durability — so only
    /// ordering-critical writers (the snapshot store's blob-before-
    /// manifest protocol) pay for this.
    pub fn sync(&self) -> std::io::Result<()> {
        self.inner.lock().file.sync_data()
    }

    /// Compacts now: rewrites the log with only live records.
    pub fn flush(&self) {
        let mut inner = self.inner.lock();
        self.compact(&mut inner);
    }

    fn read_key(inner: &mut FdbInner, key: &[u8]) -> Option<Vec<u8>> {
        let (off, len) = *inner.index.get(key)?;
        Self::read_at(inner, off, len).ok()
    }

    fn read_at(inner: &mut FdbInner, offset: u64, len: u32) -> std::io::Result<Vec<u8>> {
        let mut buf = vec![0u8; len as usize];
        inner.file.seek(SeekFrom::Start(offset))?;
        inner.file.read_exact(&mut buf)?;
        inner.file.seek(SeekFrom::Start(inner.end))?;
        Ok(buf)
    }
}

impl StorageEngine for FdbEngine {
    fn read(&self, key: &[u8], f: &mut super::ReadFn<'_>) {
        let mut inner = self.inner.lock();
        let value = Self::read_key(&mut inner, key);
        f(value.as_deref());
    }

    fn modify(&self, key: &[u8], f: &mut super::ModifyFn<'_>) -> bool {
        let mut inner = self.inner.lock();
        let mut slot = Self::read_key(&mut inner, key);
        let existed = slot.is_some();
        let changed = f(&mut slot);
        // A delete of an absent key appends nothing: the marker would be
        // pure dead weight.
        if changed && (existed || slot.is_some()) {
            Self::append(&mut inner, key, slot.as_deref()).expect("fdb append");
            self.maybe_compact(&mut inner);
        }
        changed
    }

    fn len(&self) -> usize {
        self.inner.lock().index.len()
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut inner = self.inner.lock();
        let hits: Vec<(Vec<u8>, (u64, u32))> = inner
            .index
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(k, &loc)| (k.clone(), loc))
            .collect();
        hits.into_iter()
            .filter_map(|(k, (off, len))| Self::read_at(&mut inner, off, len).ok().map(|v| (k, v)))
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
        e.flush();
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
}
