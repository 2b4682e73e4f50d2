//! Lightweight per-component runtime metrics.
//!
//! The latency histogram lives in the `obs` crate (re-exported here so
//! downstream crates keep importing it from `tstorm::metrics`); this
//! module keeps the per-component counter bundle and the topology's
//! registry of them, attaching every handle to the topology's
//! [`obs::Registry`] so the same counters show up in the text exposition.

pub use obs::{LatencyHistogram, LatencySnapshot};

use obs::Counter;
use std::sync::Arc;

/// Shared counters for one component (all of its tasks update the same
/// instance; contention is acceptable because these are plain relaxed
/// atomics).
#[derive(Debug, Default)]
pub struct ComponentMetrics {
    /// Tuples emitted on any stream.
    pub emitted: Counter,
    /// Tuples executed (bolts) or emitted root messages (spouts).
    pub executed: Counter,
    /// Completed tuple trees (spouts) / successful executes (bolts).
    pub acked: Counter,
    /// Failed tuple trees / failed executes.
    pub failed: Counter,
    /// Total nanoseconds spent inside `execute`.
    pub exec_nanos: Counter,
    /// Distribution of per-`execute` latency (mean alone hides tails).
    pub exec_latency: Arc<LatencyHistogram>,
}

/// One task's execute accounting between flushes. The runtime adds every
/// chunk (or spout poll burst) here and folds the lot into the component's
/// shared counters once per execute run, so a tuple pays no atomic. The
/// task keeps it across runs: its buffer allocates once.
#[derive(Debug, Default)]
pub(crate) struct ExecTally {
    executed: u64,
    acked: u64,
    failed: u64,
    nanos: u64,
    /// Per-tuple latency shares as `(nanos, tuples)`.
    latency: Vec<(u64, u64)>,
}

impl ExecTally {
    /// Adds one `execute_batch` invocation covering `count` tuples that
    /// took `total_nanos`, each tuple acked if `ok` and failed if not.
    pub(crate) fn add(&mut self, total_nanos: u64, count: u64, ok: bool) {
        self.add_polls(total_nanos, count);
        if ok {
            self.acked += count;
        } else {
            self.failed += count;
        }
    }

    /// Adds one spout poll burst of `count` polls that took
    /// `total_nanos`. A poll is executed but neither acked nor failed: a
    /// spout's `acked` and `failed` count its tuple trees, which the
    /// acker settles later. The histogram is fed the per-tuple share of
    /// the call, so its percentiles stay comparable between per-run and
    /// per-tuple bolts. The integer division's remainder is distributed
    /// over `total_nanos % count` tuples (one extra nanosecond each), so
    /// the histogram's sum equals `exec_nanos` exactly instead of
    /// drifting low on every batch.
    pub(crate) fn add_polls(&mut self, total_nanos: u64, count: u64) {
        if count == 0 {
            return;
        }
        self.executed += count;
        self.nanos += total_nanos;
        let share = total_nanos / count;
        let rem = total_nanos % count;
        self.latency.push((share, count - rem));
        if rem > 0 {
            self.latency.push((share + 1, rem));
        }
    }
}

impl ComponentMetrics {
    /// Folds `tally` into the shared counters — one atomic add per counter
    /// and per touched histogram bucket — and empties it.
    pub(crate) fn record(&self, tally: &mut ExecTally) {
        if tally.executed == 0 {
            return;
        }
        self.executed.add(tally.executed);
        self.exec_nanos.add(tally.nanos);
        if tally.acked > 0 {
            self.acked.add(tally.acked);
        }
        if tally.failed > 0 {
            self.failed.add(tally.failed);
        }
        self.exec_latency.record_batch(&mut tally.latency);
        tally.latency.clear();
        (tally.executed, tally.acked, tally.failed, tally.nanos) = (0, 0, 0, 0);
    }

    /// Point-in-time copy of the counters.
    pub fn snapshot(&self, component: &str) -> MetricsSnapshot {
        MetricsSnapshot {
            component: component.to_string(),
            emitted: self.emitted.get(),
            executed: self.executed.get(),
            acked: self.acked.get(),
            failed: self.failed.get(),
            exec_nanos: self.exec_nanos.get(),
            exec_latency: self.exec_latency.snapshot(),
        }
    }
}

/// Immutable snapshot of one component's metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Component name.
    pub component: String,
    /// Tuples emitted on any stream.
    pub emitted: u64,
    /// Tuples executed (bolts) / root messages emitted (spouts).
    pub executed: u64,
    /// Successful executes / completed trees.
    pub acked: u64,
    /// Failed executes / failed trees.
    pub failed: u64,
    /// Total nanoseconds spent in `execute`.
    pub exec_nanos: u64,
    /// Distribution of per-`execute` latency.
    pub exec_latency: LatencySnapshot,
}

impl MetricsSnapshot {
    /// Mean `execute` latency in microseconds, or 0 when nothing executed.
    pub fn mean_exec_micros(&self) -> f64 {
        if self.executed == 0 {
            0.0
        } else {
            self.exec_nanos as f64 / self.executed as f64 / 1_000.0
        }
    }
}

/// Registry of the metrics of every component in a topology.
#[derive(Debug, Default, Clone)]
pub struct MetricsRegistry {
    entries: Vec<(String, Arc<ComponentMetrics>)>,
}

impl MetricsRegistry {
    /// Creates the component's counter bundle and attaches each handle to
    /// the topology's exposition registry under a `component` label.
    pub(crate) fn register(
        &mut self,
        component: &str,
        obs: &obs::Registry,
    ) -> Arc<ComponentMetrics> {
        let m = Arc::new(ComponentMetrics::default());
        let labels: &[(&str, &str)] = &[("component", component)];
        obs.register_counter(
            "tstorm_emitted_total",
            labels,
            "Tuples emitted on any stream.",
            &m.emitted,
        );
        obs.register_counter(
            "tstorm_executed_total",
            labels,
            "Tuples executed (bolts) or root messages emitted (spouts).",
            &m.executed,
        );
        obs.register_counter(
            "tstorm_acked_total",
            labels,
            "Successful executes / completed tuple trees.",
            &m.acked,
        );
        obs.register_counter(
            "tstorm_failed_total",
            labels,
            "Failed executes / failed tuple trees.",
            &m.failed,
        );
        obs.register_histogram_nanos(
            "tstorm_exec_latency_seconds",
            labels,
            "Per-execute latency distribution.",
            &m.exec_latency,
        );
        self.entries.push((component.to_string(), Arc::clone(&m)));
        m
    }

    /// Snapshots all components.
    pub fn snapshot(&self) -> Vec<MetricsSnapshot> {
        self.entries
            .iter()
            .map(|(name, m)| m.snapshot(name))
            .collect()
    }

    /// Snapshot of one component, if it exists.
    pub fn component(&self, name: &str) -> Option<MetricsSnapshot> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(n, m)| m.snapshot(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let mut reg = MetricsRegistry::default();
        let obs = obs::Registry::new();
        let m = reg.register("bolt", &obs);
        let mut tally = ExecTally::default();
        tally.add(1_000, 1, true);
        tally.add(3_000, 1, false);
        m.record(&mut tally);
        let snap = reg.component("bolt").unwrap();
        assert_eq!(snap.executed, 2);
        assert_eq!(snap.acked, 1);
        assert_eq!(snap.failed, 1);
        assert!((snap.mean_exec_micros() - 2.0).abs() < 1e-9);
        assert!(reg.component("missing").is_none());
        // The same counters are visible through the exposition registry.
        assert_eq!(
            obs.counter_value("tstorm_executed_total", &[("component", "bolt")]),
            Some(2)
        );
        assert_eq!(
            obs.histogram_snapshot("tstorm_exec_latency_seconds", &[("component", "bolt")])
                .unwrap()
                .count(),
            2
        );
    }

    #[test]
    fn empty_snapshot_zero_latency() {
        let mut reg = MetricsRegistry::default();
        reg.register("a", &obs::Registry::new());
        assert_eq!(reg.snapshot()[0].mean_exec_micros(), 0.0);
    }

    #[test]
    fn batch_histogram_sum_matches_exec_nanos() {
        // 10 tuples sharing 1007ns: the naive per-tuple share (100ns) would
        // record 1000ns total, silently dropping 7ns per batch. The
        // remainder must be distributed so both sums agree exactly.
        let m = ComponentMetrics::default();
        let mut tally = ExecTally::default();
        tally.add(1_007, 10, true);
        tally.add(999, 4, false);
        m.record(&mut tally);
        // A tally is empty after a flush and fills again.
        tally.add(5, 7, true); // more tuples than nanos
        m.record(&mut tally);
        m.record(&mut tally);
        let snap = m.snapshot("b");
        assert_eq!(snap.exec_nanos, 1_007 + 999 + 5);
        assert_eq!(
            snap.exec_latency.sum_nanos(),
            snap.exec_nanos,
            "histogram sum must equal exec_nanos for non-divisible batches"
        );
        assert_eq!(snap.exec_latency.count(), 10 + 4 + 7);
        assert_eq!(snap.executed, 21);
        assert_eq!(snap.acked, 17);
        assert_eq!(snap.failed, 4);
    }
}
