//! String-id interning where actions enter the log.
//!
//! Production frontends key users and items by strings (cookies, QQ
//! numbers, content urls); the action log and everything that reads it —
//! fields groupings, TDStore keys, the counting layers — want dense `u64`
//! ids. An [`Interner`] maps each distinct string to the next dense id
//! exactly once, concurrently, so a producer translates an action's keys
//! before it logs the action and no later stage ever hashes or clones an
//! `Arc<str>`. A replay reads the ids back from the log, so they are the
//! ids the store already counts under.
//!
//! The *reverse* table (id → string) is only consulted at the serving
//! edge, to de-intern recommendation results for the caller. It is
//! therefore spillable: when the resident tail exceeds a configured
//! limit, the oldest entries are appended to a spill file and dropped
//! from memory; [`Interner::resolve`] reads them back on demand. Forward
//! interning never touches the file.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::Arc;

/// Interned string id: dense, starting at 0, in first-seen order.
pub type SymbolId = u64;

enum Slot {
    /// Resident string, shared with the forward map.
    Mem(Arc<str>),
    /// Spilled to the reverse file at `[offset, offset + len)`.
    Disk { offset: u64, len: u32 },
}

struct InternerState {
    forward: HashMap<Arc<str>, SymbolId>,
    slots: Vec<Slot>,
    /// Ids below this are spilled (spilling is strictly oldest-first).
    spilled_below: usize,
    /// Bytes appended to the spill file so far.
    spill_len: u64,
}

struct InternerInner {
    state: RwLock<InternerState>,
    /// Spill settings: the backing file and the resident-entry limit.
    /// `None` = fully in-memory reverse table.
    spill: Option<SpillFile>,
}

struct SpillFile {
    file: File,
    resident_limit: usize,
}

/// Concurrent string → dense-`u64` interner with a spillable reverse
/// table. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct Interner {
    inner: Arc<InternerInner>,
}

impl Default for Interner {
    fn default() -> Self {
        Self::new()
    }
}

impl Interner {
    /// Fully in-memory interner (reverse table never spills).
    pub fn new() -> Self {
        Interner {
            inner: Arc::new(InternerInner {
                state: RwLock::new(InternerState {
                    forward: HashMap::new(),
                    slots: Vec::new(),
                    spilled_below: 0,
                    spill_len: 0,
                }),
                spill: None,
            }),
        }
    }

    /// Interner whose reverse table keeps at most `resident_limit`
    /// entries in memory; older entries spill to an append-only file at
    /// `path` (created/truncated). The forward map stays in memory — only
    /// id → string lookups for old ids pay a file read.
    pub fn with_spill(path: impl AsRef<Path>, resident_limit: usize) -> io::Result<Self> {
        assert!(resident_limit > 0, "resident_limit must be positive");
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Interner {
            inner: Arc::new(InternerInner {
                state: RwLock::new(InternerState {
                    forward: HashMap::new(),
                    slots: Vec::new(),
                    spilled_below: 0,
                    spill_len: 0,
                }),
                spill: Some(SpillFile {
                    file,
                    resident_limit,
                }),
            }),
        })
    }

    /// The dense id for `s`, assigning the next one on first sight.
    /// Concurrent calls with the same string race to one insertion; every
    /// caller observes the same id.
    pub fn intern(&self, s: &str) -> SymbolId {
        {
            let state = self.inner.state.read();
            if let Some(&id) = state.forward.get(s) {
                return id;
            }
        }
        let mut state = self.inner.state.write();
        if let Some(&id) = state.forward.get(s) {
            return id; // lost the race to another writer
        }
        let id = state.slots.len() as SymbolId;
        let shared: Arc<str> = Arc::from(s);
        state.slots.push(Slot::Mem(Arc::clone(&shared)));
        state.forward.insert(shared, id);
        if let Some(spill) = &self.inner.spill {
            let resident = state.slots.len() - state.spilled_below;
            if resident > spill.resident_limit {
                // Spill the older half of the resident range so the cost
                // is paid once per batch, not once per intern.
                let keep = spill.resident_limit / 2 + 1;
                let upto = state.slots.len().saturating_sub(keep);
                Self::spill_range(&mut state, &spill.file, upto);
            }
        }
        id
    }

    /// Appends slots `[state.spilled_below, upto)` to the spill file and
    /// replaces them with their file coordinates.
    fn spill_range(state: &mut InternerState, mut file: &File, upto: usize) {
        let mut buf = Vec::new();
        let mut coords = Vec::with_capacity(upto - state.spilled_below);
        let mut offset = state.spill_len;
        for idx in state.spilled_below..upto {
            let Slot::Mem(s) = &state.slots[idx] else {
                unreachable!("resident range holds only Mem slots");
            };
            let bytes = s.as_bytes();
            coords.push((offset, bytes.len() as u32));
            offset += bytes.len() as u64;
            buf.extend_from_slice(bytes);
        }
        if file.write_all(&buf).is_err() {
            // Spill failed (disk full, ...): keep everything resident —
            // interning must stay correct even if bounding memory fails.
            return;
        }
        state.spill_len = offset;
        for (idx, (offset, len)) in (state.spilled_below..upto).zip(coords) {
            state.slots[idx] = Slot::Disk { offset, len };
        }
        state.spilled_below = upto;
    }

    /// The original string for `id` (`None` for an id never assigned).
    /// Resident ids are a map read; spilled ids read the spill file.
    pub fn resolve(&self, id: SymbolId) -> Option<String> {
        let state = self.inner.state.read();
        match state.slots.get(id as usize)? {
            Slot::Mem(s) => Some(s.to_string()),
            Slot::Disk { offset, len } => {
                let spill = self.inner.spill.as_ref()?;
                let mut buf = vec![0u8; *len as usize];
                use std::os::unix::fs::FileExt;
                spill.file.read_exact_at(&mut buf, *offset).ok()?;
                String::from_utf8(buf).ok()
            }
        }
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.inner.state.read().slots.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reverse-table entries currently resident in memory.
    pub fn resident(&self) -> usize {
        let state = self.inner.state.read();
        state.slots.len() - state.spilled_below
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_ids_in_first_seen_order() {
        let i = Interner::new();
        assert_eq!(i.intern("alice"), 0);
        assert_eq!(i.intern("bob"), 1);
        assert_eq!(i.intern("alice"), 0, "idempotent");
        assert_eq!(i.len(), 2);
        assert_eq!(i.resolve(0).as_deref(), Some("alice"));
        assert_eq!(i.resolve(1).as_deref(), Some("bob"));
        assert_eq!(i.resolve(2), None);
    }

    #[test]
    fn spill_keeps_resolve_exact() {
        let path =
            std::env::temp_dir().join(format!("interner-spill-test-{}.bin", std::process::id()));
        let i = Interner::with_spill(&path, 4).unwrap();
        let ids: Vec<SymbolId> = (0..100).map(|n| i.intern(&format!("user:{n}"))).collect();
        assert!(i.resident() <= 4 + 1, "resident bounded: {}", i.resident());
        for (n, id) in ids.iter().enumerate() {
            assert_eq!(*id, n as SymbolId);
            assert_eq!(i.resolve(*id), Some(format!("user:{n}")), "id {id}");
        }
        // Re-interning a spilled string still returns the original id
        // (the forward map never spills).
        assert_eq!(i.intern("user:0"), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_intern_agrees() {
        let i = Interner::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let i = i.clone();
                std::thread::spawn(move || {
                    (0..500)
                        .map(|n| i.intern(&format!("k{}", n % 97)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<SymbolId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results[1..] {
            assert_eq!(r, &results[0], "every thread sees the same ids");
        }
        assert_eq!(i.len(), 97);
    }
}
