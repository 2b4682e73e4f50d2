//! The combiner (§5.3) — the hot-item solution.
//!
//! "The combiner is a map that buffers the coming tuples [and does]
//! partial merging of the tuples with same key. [...] We will fetch the
//! tuples from the combiner and do the costly calculation like TDStore
//! writes at the predefined intervals." Under Zipf-skewed traffic, the
//! thousands of updates a hot item receives per interval collapse into a
//! single downstream write.

use crate::types::FxHashMap;
use std::hash::Hash;

/// How two buffered values for the same key merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombineOp {
    /// Sum the values (count/weight accumulation).
    Add,
    /// Keep the maximum (max-weight rating rule).
    Max,
    /// Count occurrences, ignoring the value.
    Count,
}

/// A keyed partial-aggregation buffer.
#[derive(Debug, Clone)]
pub struct Combiner<K: Eq + Hash + Clone> {
    op: CombineOp,
    buffer: FxHashMap<K, f64>,
    /// Flush when the buffer holds this many distinct keys (a size bound
    /// alongside the tick-driven interval flush).
    max_keys: usize,
    inputs: u64,
    flushed_entries: u64,
}

impl<K: Eq + Hash + Clone> Combiner<K> {
    /// Combiner flushing at `max_keys` distinct keys.
    pub fn new(op: CombineOp, max_keys: usize) -> Self {
        Combiner {
            op,
            buffer: FxHashMap::default(),
            max_keys: max_keys.max(1),
            inputs: 0,
            flushed_entries: 0,
        }
    }

    /// Buffers one tuple. Returns the full buffer when the size bound is
    /// hit (the caller writes those entries downstream).
    pub fn add(&mut self, key: K, value: f64) -> Option<Vec<(K, f64)>> {
        self.inputs += 1;
        let entry = self.buffer.entry(key);
        match self.op {
            CombineOp::Add => *entry.or_insert(0.0) += value,
            CombineOp::Max => {
                let slot = entry.or_insert(f64::NEG_INFINITY);
                *slot = slot.max(value);
            }
            CombineOp::Count => *entry.or_insert(0.0) += 1.0,
        }
        if self.buffer.len() >= self.max_keys {
            Some(self.flush())
        } else {
            None
        }
    }

    /// Drains the buffer (call on tick).
    pub fn flush(&mut self) -> Vec<(K, f64)> {
        self.flushed_entries += self.buffer.len() as u64;
        self.buffer.drain().collect()
    }

    /// Tuples buffered since construction.
    pub fn inputs(&self) -> u64 {
        self.inputs
    }

    /// Entries emitted downstream since construction.
    pub fn outputs(&self) -> u64 {
        self.flushed_entries
    }

    /// Write-reduction ratio achieved so far (inputs per output); the
    /// paper's hot-item win. 1.0 when nothing combined.
    pub fn reduction_ratio(&self) -> f64 {
        let pending = self.buffer.len() as u64;
        let outputs = self.flushed_entries + pending;
        if outputs == 0 {
            1.0
        } else {
            self.inputs as f64 / outputs as f64
        }
    }

    /// Keys currently buffered.
    pub fn pending(&self) -> usize {
        self.buffer.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_merges_same_key() {
        let mut c = Combiner::new(CombineOp::Add, 100);
        for _ in 0..10 {
            assert!(c.add("hot", 2.0).is_none());
        }
        let mut out = c.flush();
        assert_eq!(out.len(), 1);
        let (k, v) = out.pop().unwrap();
        assert_eq!(k, "hot");
        assert_eq!(v, 20.0);
    }

    #[test]
    fn max_keeps_largest() {
        let mut c = Combiner::new(CombineOp::Max, 100);
        c.add(1u64, 2.0);
        c.add(1u64, 5.0);
        c.add(1u64, 3.0);
        assert_eq!(c.flush(), vec![(1, 5.0)]);
    }

    #[test]
    fn count_ignores_value() {
        let mut c = Combiner::new(CombineOp::Count, 100);
        c.add(1u64, 99.0);
        c.add(1u64, -3.0);
        assert_eq!(c.flush(), vec![(1, 2.0)]);
    }

    #[test]
    fn size_bound_triggers_flush() {
        let mut c = Combiner::new(CombineOp::Add, 3);
        assert!(c.add(1u64, 1.0).is_none());
        assert!(c.add(2u64, 1.0).is_none());
        let flushed = c.add(3u64, 1.0).expect("third key hits the bound");
        assert_eq!(flushed.len(), 3);
        assert_eq!(c.pending(), 0);
    }

    #[test]
    fn reduction_ratio_reflects_skew() {
        let mut c = Combiner::new(CombineOp::Add, 1_000_000);
        // 1000 updates, all to one hot key.
        for _ in 0..1000 {
            c.add("hot", 1.0);
        }
        c.flush();
        assert_eq!(c.inputs(), 1000);
        assert_eq!(c.outputs(), 1);
        assert_eq!(c.reduction_ratio(), 1000.0);
    }

    #[test]
    fn uniform_keys_no_reduction() {
        let mut c = Combiner::new(CombineOp::Add, 1_000_000);
        for i in 0..100u64 {
            c.add(i, 1.0);
        }
        c.flush();
        assert_eq!(c.reduction_ratio(), 1.0);
    }

    #[test]
    fn flush_empties_buffer() {
        let mut c = Combiner::new(CombineOp::Add, 10);
        c.add(1u64, 1.0);
        assert_eq!(c.flush().len(), 1);
        assert!(c.flush().is_empty());
    }
}
