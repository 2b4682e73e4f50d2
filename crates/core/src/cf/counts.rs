//! Incremental `itemCount` / `pairCount` accumulators (Eqs. 6–8), with the
//! per-session sliding window of Eq. 10.
//!
//! A count is the sum of per-session subtotals over the last `W` sessions:
//! `itemCount(ip) = Σ_{w ∈ W} itemCount_w(ip)`. Advancing the window drops
//! whole expired sessions from the totals, which makes "forgetting" O(keys
//! in the expired session) instead of O(all keys).

use crate::types::{FxHashMap, Timestamp};
use std::collections::VecDeque;
use std::hash::Hash;

/// Sliding-window shape: `sessions` sessions of `session_ms` each.
/// "Both the time interval of the overall time window and the small time
/// session can be specified by users."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Length of one session in stream milliseconds.
    pub session_ms: u64,
    /// Number of most-recent sessions kept (`W`).
    pub sessions: usize,
}

impl WindowConfig {
    /// Session index for a timestamp.
    pub fn session_of(&self, ts: Timestamp) -> u64 {
        ts / self.session_ms
    }
}

/// Keyed accumulator, optionally windowed. With `window: None` the counts
/// grow forever (the paper's non-windowed formulation, Eqs. 5–8).
#[derive(Debug, Clone)]
pub struct WindowedCounts<K: Eq + Hash + Copy> {
    window: Option<WindowConfig>,
    totals: FxHashMap<K, f64>,
    /// Per-session subtotals, oldest first. Empty when un-windowed.
    per_session: VecDeque<(u64, FxHashMap<K, f64>)>,
    /// Highest session observed; the window trails this watermark.
    max_session: u64,
}

impl<K: Eq + Hash + Copy> WindowedCounts<K> {
    /// New accumulator.
    pub fn new(window: Option<WindowConfig>) -> Self {
        WindowedCounts {
            window,
            totals: FxHashMap::default(),
            per_session: VecDeque::new(),
            max_session: 0,
        }
    }

    /// Adds `delta` to `key`'s count at time `ts`, expiring old sessions
    /// first. Deltas for timestamps older than the window are ignored.
    pub fn add(&mut self, key: K, delta: f64, ts: Timestamp) {
        let Some(window) = self.window else {
            *self.totals.entry(key).or_insert(0.0) += delta;
            return;
        };
        let session = window.session_of(ts);
        self.advance_to(session);
        // The window trails the highest session seen, so late events
        // within the window still count and events older than it drop.
        let oldest_kept = self.max_session.saturating_sub(window.sessions as u64 - 1);
        if session < oldest_kept {
            return;
        }
        // Locate or create the session bucket (out-of-order within the
        // window is allowed).
        let target = match self.per_session.binary_search_by_key(&session, |(s, _)| *s) {
            Ok(i) => i,
            Err(i) => {
                self.per_session.insert(i, (session, FxHashMap::default()));
                i
            }
        };
        *self.per_session[target].1.entry(key).or_insert(0.0) += delta;
        *self.totals.entry(key).or_insert(0.0) += delta;
    }

    /// Expires sessions older than `max(current, watermark) - W + 1`.
    pub fn advance_to(&mut self, current_session: u64) {
        let Some(window) = self.window else { return };
        self.max_session = self.max_session.max(current_session);
        let oldest_kept = self.max_session.saturating_sub(window.sessions as u64 - 1);
        while let Some(&(session, _)) = self.per_session.front() {
            if session >= oldest_kept {
                break;
            }
            let (_, counts) = self.per_session.pop_front().expect("front checked");
            for (key, value) in counts {
                if let Some(total) = self.totals.get_mut(&key) {
                    *total -= value;
                    if total.abs() < 1e-12 {
                        self.totals.remove(&key);
                    }
                }
            }
        }
    }

    /// Expires based on a timestamp rather than a session index.
    pub fn advance_to_ts(&mut self, ts: Timestamp) {
        if let Some(window) = self.window {
            self.advance_to(window.session_of(ts));
        }
    }

    /// Current windowed count for `key` (0 when absent).
    pub fn get(&self, key: &K) -> f64 {
        self.totals.get(key).copied().unwrap_or(0.0)
    }

    /// Number of keys with non-zero counts.
    pub fn len(&self) -> usize {
        self.totals.len()
    }

    /// Whether no key has a non-zero count.
    pub fn is_empty(&self) -> bool {
        self.totals.is_empty()
    }

    /// Iterates `(key, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &f64)> {
        self.totals.iter()
    }

    /// Number of sessions currently retained.
    pub fn session_count(&self) -> usize {
        self.per_session.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: WindowConfig = WindowConfig {
        session_ms: 100,
        sessions: 3,
    };

    #[test]
    fn unwindowed_accumulates_forever() {
        let mut c = WindowedCounts::new(None);
        c.add(1u64, 2.0, 0);
        c.add(1u64, 3.0, 1_000_000);
        assert_eq!(c.get(&1), 5.0);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn window_forgets_old_sessions() {
        let mut c = WindowedCounts::new(Some(W));
        c.add(1u64, 1.0, 0); // session 0
        c.add(1u64, 1.0, 150); // session 1
        assert_eq!(c.get(&1), 2.0);
        c.add(1u64, 1.0, 350); // session 3 -> session 0 expires
        assert_eq!(c.get(&1), 2.0);
        c.add(2u64, 1.0, 650); // session 6 -> everything older expires
        assert_eq!(c.get(&1), 0.0);
        assert_eq!(c.get(&2), 1.0);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn out_of_order_within_window_is_counted() {
        let mut c = WindowedCounts::new(Some(W));
        c.add(1u64, 1.0, 250); // session 2
        c.add(1u64, 1.0, 50); // session 0 — still within the 3-session window
        assert_eq!(c.get(&1), 2.0);
    }

    #[test]
    fn too_old_delta_is_dropped() {
        let mut c = WindowedCounts::new(Some(W));
        c.add(1u64, 1.0, 1_000); // session 10
        c.add(1u64, 5.0, 100); // session 1 — far outside the window
        assert_eq!(c.get(&1), 1.0);
    }

    #[test]
    fn expiry_matches_recompute() {
        // Windowed totals must equal a from-scratch recomputation over the
        // retained sessions at every step.
        let mut c = WindowedCounts::new(Some(W));
        let events: Vec<(u64, f64, u64)> = (0..200)
            .map(|i| ((i % 7), 1.0 + (i % 3) as f64, i * 37))
            .collect();
        for &(key, delta, ts) in &events {
            c.add(key, delta, ts);
            let current = W.session_of(ts);
            let oldest = current.saturating_sub(W.sessions as u64 - 1);
            for k in 0..7u64 {
                let expected: f64 = events
                    .iter()
                    .filter(|&&(ek, _, ets)| ek == k && ets <= ts && W.session_of(ets) >= oldest)
                    .map(|&(_, d, _)| d)
                    .sum();
                assert!(
                    (c.get(&k) - expected).abs() < 1e-9,
                    "key {k} at ts {ts}: got {}, want {expected}",
                    c.get(&k)
                );
            }
        }
    }

    #[test]
    fn negative_deltas_can_clear_entries() {
        let mut c = WindowedCounts::new(None);
        c.add(1u64, 2.0, 0);
        c.add(1u64, -2.0, 0);
        assert_eq!(c.get(&1), 0.0);
    }

    #[test]
    fn session_buckets_bounded_by_window() {
        let mut c = WindowedCounts::new(Some(W));
        for i in 0..100u64 {
            c.add(1u64, 1.0, i * 100);
        }
        assert!(c.session_count() <= 3);
    }
}
