//! Stream groupings: how tuples on an edge are partitioned over the
//! consumer's tasks.

use crate::tuple::Value;
use std::hash::Hasher;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Partitioning strategy for one subscription edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Grouping {
    /// Round-robin over the consumer's tasks (even load, no key affinity).
    Shuffle,
    /// Hash of the named fields decides the task: all tuples with equal key
    /// values reach the same task. This is what makes keyed state safe to
    /// scale (§4.1.3 of the paper: "by the key grouping, only a single
    /// worker node should operate over a specific item pair").
    Fields(Vec<String>),
    /// Every task receives a copy.
    All,
    /// All tuples go to task 0.
    Global,
}

impl Grouping {
    /// Convenience constructor for a fields grouping.
    pub fn fields<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Grouping::Fields(names.into_iter().map(Into::into).collect())
    }
}

/// Deterministic 64-bit FNV-1a, used for fields grouping so task placement
/// is stable across runs (unlike `DefaultHasher`, which is seeded).
#[derive(Default)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// Hasher seeded with the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The task out of `n_tasks` that a fields grouping sends a tuple whose
/// grouping fields hold `key` (in the grouping's field order): FNV-1a over
/// the values' [`Value::hash_into`], modulo the task count. This is the
/// rule the runtime routes by, exposed so a caller can check a placement.
pub fn fields_task<'a>(key: impl IntoIterator<Item = &'a Value>, n_tasks: usize) -> usize {
    let mut h = Fnv1a::new();
    for v in key {
        v.hash_into(&mut h);
    }
    (h.finish() % n_tasks as u64) as usize
}

/// Resolved grouping with cached field indices and round-robin state.
pub(crate) struct RoutingRule {
    grouping: Grouping,
    /// Pre-resolved positions of the grouping fields within the stream
    /// schema, so routing is index lookups, not string compares.
    field_indices: Vec<usize>,
    rr: AtomicUsize,
}

impl RoutingRule {
    /// `schema_index_of` resolves a field name to its position in the
    /// subscribed stream's schema.
    pub(crate) fn new(
        grouping: Grouping,
        schema_index_of: impl Fn(&str) -> Option<usize>,
    ) -> Result<Self, String> {
        let field_indices = match &grouping {
            Grouping::Fields(names) => names
                .iter()
                .map(|n| {
                    schema_index_of(n)
                        .ok_or_else(|| format!("grouping field `{n}` not in stream schema"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => Vec::new(),
        };
        Ok(RoutingRule {
            grouping,
            field_indices,
            rr: AtomicUsize::new(0),
        })
    }

    /// Chooses target task indices out of `n_tasks` for a tuple with the
    /// given `values`. Returns either a single task or, for `All`, a
    /// broadcast marker.
    pub(crate) fn route(&self, values: &[Value], n_tasks: usize) -> Route {
        debug_assert!(n_tasks > 0);
        match &self.grouping {
            Grouping::Shuffle => Route::One(self.rr.fetch_add(1, Ordering::Relaxed) % n_tasks),
            Grouping::All => Route::All,
            Grouping::Fields(_) | Grouping::Global => {
                Route::One(self.keyed_task(values, n_tasks).unwrap_or(0))
            }
        }
    }

    /// The task `values` lands on when the grouping picks it from the
    /// values alone (fields: the key's hash; global: task 0), without
    /// advancing any round-robin. `None` for shuffle and all, whose
    /// delivery does not depend on the values.
    pub(crate) fn keyed_task(&self, values: &[Value], n_tasks: usize) -> Option<usize> {
        match &self.grouping {
            Grouping::Fields(_) => Some(fields_task(
                self.field_indices.iter().map(|&idx| &values[idx]),
                n_tasks,
            )),
            Grouping::Global => Some(0),
            Grouping::Shuffle | Grouping::All => None,
        }
    }

    /// Batch-aware routing: identical to [`RoutingRule::route`] except that
    /// shuffle holds one round-robin pick (`sticky`) for a whole batch
    /// epoch, so consecutive tuples fill one downstream buffer instead of
    /// spraying singleton batches over every task. The emitter resets
    /// `sticky` whenever it flushes, advancing the round-robin by whole
    /// batches. Keyed, broadcast and global groupings are unaffected —
    /// per-key placement never depends on batching.
    pub(crate) fn route_buffered(
        &self,
        values: &[Value],
        n_tasks: usize,
        sticky: &mut Option<usize>,
    ) -> Route {
        match &self.grouping {
            Grouping::Shuffle => Route::One(
                *sticky.get_or_insert_with(|| self.rr.fetch_add(1, Ordering::Relaxed) % n_tasks),
            ),
            _ => self.route(values, n_tasks),
        }
    }
}

#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Route {
    One(usize),
    All,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Schema;

    fn make_tuple(user: u64, item: u64) -> Vec<Value> {
        vec![Value::U64(user), Value::U64(item)]
    }

    fn rule(g: Grouping) -> RoutingRule {
        let schema = Schema::new(["user", "item"]);
        RoutingRule::new(g, |n| schema.index_of(n)).unwrap()
    }

    #[test]
    fn shuffle_round_robins() {
        let r = rule(Grouping::Shuffle);
        let t = make_tuple(1, 2);
        let picks: Vec<_> = (0..6)
            .map(|_| match r.route(&t, 3) {
                Route::One(i) => i,
                Route::All => panic!(),
            })
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn buffered_shuffle_round_robins_whole_batches() {
        let r = rule(Grouping::Shuffle);
        let t = make_tuple(1, 2);
        let mut sticky = None;
        let mut picks = Vec::new();
        for epoch in 0..3 {
            for _ in 0..4 {
                match r.route_buffered(&t, 3, &mut sticky) {
                    Route::One(i) => picks.push(i),
                    Route::All => panic!(),
                }
            }
            sticky = None; // what the emitter does on flush
            let _ = epoch;
        }
        assert_eq!(picks, vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn buffered_fields_grouping_ignores_sticky() {
        let r = rule(Grouping::fields(["user"]));
        let mut sticky = Some(3); // a stale shuffle pick must never leak
        let direct = r.route(&make_tuple(7, 1), 4);
        let buffered = r.route_buffered(&make_tuple(7, 1), 4, &mut sticky);
        assert_eq!(direct, buffered);
    }

    #[test]
    fn fields_grouping_is_sticky_per_key() {
        let r = rule(Grouping::fields(["user"]));
        let a1 = r.route(&make_tuple(7, 1), 4);
        let a2 = r.route(&make_tuple(7, 999), 4);
        assert_eq!(a1, a2, "same user must route to same task");
    }

    #[test]
    fn fields_grouping_spreads_keys() {
        let r = rule(Grouping::fields(["user"]));
        let mut seen = std::collections::HashSet::new();
        for u in 0..64 {
            if let Route::One(i) = r.route(&make_tuple(u, 0), 8) {
                seen.insert(i);
            }
        }
        assert!(
            seen.len() >= 6,
            "64 keys over 8 tasks should hit most tasks"
        );
    }

    #[test]
    fn global_always_task_zero() {
        let r = rule(Grouping::Global);
        for u in 0..10 {
            assert_eq!(r.route(&make_tuple(u, 0), 5), Route::One(0));
        }
    }

    #[test]
    fn all_broadcasts() {
        let r = rule(Grouping::All);
        assert_eq!(r.route(&make_tuple(1, 1), 5), Route::All);
    }

    #[test]
    fn unknown_grouping_field_is_an_error() {
        let schema = Schema::new(["user"]);
        let err = RoutingRule::new(Grouping::fields(["nope"]), |n| schema.index_of(n));
        assert!(err.is_err());
    }

    #[test]
    fn keyed_task_matches_route_without_advancing_shuffle() {
        let r = rule(Grouping::fields(["item", "user"]));
        for u in 0..32 {
            let t = make_tuple(u, u * 7 + 1);
            let task = r.keyed_task(&t, 5).unwrap();
            assert_eq!(r.route(&t, 5), Route::One(task));
            assert_eq!(task, fields_task([&t[1], &t[0]], 5), "grouping field order");
        }
        assert_eq!(
            rule(Grouping::Global).keyed_task(&make_tuple(1, 2), 3),
            Some(0)
        );
        let shuffle = rule(Grouping::Shuffle);
        assert_eq!(shuffle.keyed_task(&make_tuple(1, 2), 3), None);
        assert_eq!(shuffle.route(&make_tuple(1, 2), 3), Route::One(0));
        assert_eq!(rule(Grouping::All).keyed_task(&make_tuple(1, 2), 3), None);
    }

    #[test]
    fn multi_field_key_combines_fields() {
        let r = rule(Grouping::fields(["user", "item"]));
        let same1 = r.route(&make_tuple(3, 4), 1024);
        let same2 = r.route(&make_tuple(3, 4), 1024);
        assert_eq!(same1, same2);
    }
}
