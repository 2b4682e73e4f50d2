//! LDB: a log-structured engine (memtable + sorted immutable runs),
//! modelled after the LevelDB engine the paper's data servers support.
//!
//! Writes land in a sorted memtable; when it reaches its limit it is
//! frozen into an immutable sorted run. Deletes write tombstones. Reads
//! consult the memtable first, then runs newest-to-oldest. When the run
//! count exceeds a bound, a full compaction merges everything and drops
//! tombstones.

use super::StorageEngine;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Tuning knobs for [`LdbEngine`].
#[derive(Debug, Clone)]
pub struct LdbConfig {
    /// Freeze the memtable into a run at this many entries.
    pub memtable_limit: usize,
    /// Compact when the number of runs exceeds this.
    pub max_runs: usize,
}

impl Default for LdbConfig {
    fn default() -> Self {
        LdbConfig {
            memtable_limit: 1024,
            max_runs: 6,
        }
    }
}

type Entry = (Vec<u8>, Option<Vec<u8>>);

struct LdbInner {
    /// `None` value = tombstone.
    memtable: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    /// Immutable sorted runs, oldest first.
    runs: Vec<Arc<Vec<Entry>>>,
}

/// Log-structured merge engine.
pub struct LdbEngine {
    config: LdbConfig,
    inner: Mutex<LdbInner>,
}

impl LdbEngine {
    /// New empty engine.
    pub fn new(config: LdbConfig) -> Self {
        LdbEngine {
            config,
            inner: Mutex::new(LdbInner {
                memtable: BTreeMap::new(),
                runs: Vec::new(),
            }),
        }
    }

    /// Number of immutable runs currently held (for tests/inspection).
    pub fn run_count(&self) -> usize {
        self.inner.lock().runs.len()
    }

    /// Live value of `key`: its newest entry, unless that is a tombstone.
    fn lookup<'a>(inner: &'a LdbInner, key: &[u8]) -> Option<&'a [u8]> {
        if let Some(v) = inner.memtable.get(key) {
            return v.as_deref();
        }
        for run in inner.runs.iter().rev() {
            if let Ok(i) = run.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                return run[i].1.as_deref();
            }
        }
        None
    }

    fn maybe_freeze(&self, inner: &mut LdbInner) {
        if inner.memtable.len() < self.config.memtable_limit {
            return;
        }
        let run: Vec<Entry> = std::mem::take(&mut inner.memtable).into_iter().collect();
        inner.runs.push(Arc::new(run));
        if inner.runs.len() > self.config.max_runs {
            Self::compact(inner);
        }
    }

    /// Full compaction: newest-wins merge of every run, dropping
    /// tombstones (safe because all runs participate).
    fn compact(inner: &mut LdbInner) {
        let mut merged: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        for run in &inner.runs {
            // Later runs overwrite earlier entries.
            for (k, v) in run.iter() {
                merged.insert(k.clone(), v.clone());
            }
        }
        let compacted: Vec<Entry> = merged.into_iter().filter(|(_, v)| v.is_some()).collect();
        inner.runs.clear();
        if !compacted.is_empty() {
            inner.runs.push(Arc::new(compacted));
        }
    }

    /// Merged live view (memtable over runs), used by `len`/`scan_prefix`.
    fn merged(inner: &LdbInner) -> BTreeMap<Vec<u8>, Vec<u8>> {
        let mut out: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        for run in &inner.runs {
            for (k, v) in run.iter() {
                out.insert(k.clone(), v.clone());
            }
        }
        for (k, v) in &inner.memtable {
            out.insert(k.clone(), v.clone());
        }
        out.into_iter()
            .filter_map(|(k, v)| v.map(|v| (k, v)))
            .collect()
    }
}

impl StorageEngine for LdbEngine {
    fn read(&self, key: &[u8], f: &mut super::ReadFn<'_>) {
        let inner = self.inner.lock();
        f(Self::lookup(&inner, key));
    }

    fn modify(&self, key: &[u8], f: &mut super::ModifyFn<'_>) -> bool {
        let mut inner = self.inner.lock();
        let mut slot = Self::lookup(&inner, key).map(<[u8]>::to_vec);
        let changed = f(&mut slot);
        if changed {
            inner.memtable.insert(key.to_vec(), slot);
            self.maybe_freeze(&mut inner);
        }
        changed
    }

    fn len(&self) -> usize {
        let inner = self.inner.lock();
        Self::merged(&inner).len()
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let inner = self.inner.lock();
        Self::merged(&inner)
            .into_iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .collect()
    }

    fn flush(&self) {
        let mut inner = self.inner.lock();
        if !inner.memtable.is_empty() {
            let run: Vec<Entry> = std::mem::take(&mut inner.memtable).into_iter().collect();
            inner.runs.push(Arc::new(run));
        }
        Self::compact(&mut inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::conformance;

    fn tiny() -> LdbEngine {
        LdbEngine::new(LdbConfig {
            memtable_limit: 8,
            max_runs: 3,
        })
    }

    #[test]
    fn conformance_suite() {
        conformance::basic_crud(&tiny());
        conformance::modify_semantics(&tiny());
        conformance::prefix_scan(&tiny());
        conformance::many_keys(&tiny());
    }

    #[test]
    fn freezes_and_compacts() {
        let e = tiny();
        for i in 0..100u32 {
            e.put(&i.to_le_bytes(), vec![i as u8]);
        }
        assert!(e.run_count() <= 4, "compaction should bound run count");
        for i in 0..100u32 {
            assert_eq!(e.get(&i.to_le_bytes()), Some(vec![i as u8]));
        }
    }

    #[test]
    fn newest_run_wins() {
        let e = tiny();
        for round in 0..5u8 {
            for i in 0..10u32 {
                e.put(&i.to_le_bytes(), vec![round]);
            }
        }
        for i in 0..10u32 {
            assert_eq!(e.get(&i.to_le_bytes()), Some(vec![4]));
        }
        assert_eq!(e.len(), 10);
    }

    #[test]
    fn tombstones_survive_freezing() {
        let e = tiny();
        for i in 0..20u32 {
            e.put(&i.to_le_bytes(), vec![1]);
        }
        e.delete(&3u32.to_le_bytes());
        // Push the tombstone out of the memtable.
        for i in 100..130u32 {
            e.put(&i.to_le_bytes(), vec![2]);
        }
        assert!(e.get(&3u32.to_le_bytes()).is_none());
    }

    #[test]
    fn flush_compacts_to_single_run() {
        let e = tiny();
        for i in 0..50u32 {
            e.put(&i.to_le_bytes(), vec![0]);
        }
        e.delete(&1u32.to_le_bytes());
        e.flush();
        assert_eq!(e.run_count(), 1);
        assert_eq!(e.len(), 49);
    }
}
