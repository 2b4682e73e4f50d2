//! The practical scalable item-based collaborative filtering of §4.1 —
//! the paper's core contribution.
//!
//! [`ItemCF`] composes the three layers of Fig. 4 in one in-process
//! object:
//!
//! 1. **user behaviour history** ([`history`]) turns raw implicit actions
//!    into rating / co-rating deltas (max-weight rule, Eq. 3);
//! 2. **itemCount / pairCount accumulators** ([`counts`]) apply the deltas
//!    incrementally (Eqs. 5–8), optionally over a sliding window of
//!    sessions (Eq. 10);
//! 3. **similar-items table** ([`similar`]) keeps per-item top-k lists,
//!    with **Hoeffding-bound pruning** ([`pruning`]) skipping pairs that
//!    provably cannot enter any list (Eq. 9, Algorithm 1).
//!
//! Recommendation (Eq. 2) applies the real-time personalised filtering of
//! §4.3: predictions are computed from the user's `recent_k` items only.
//!
//! The same logic is decomposed into bolts over the stream framework in
//! [`crate::topology`]; this in-process form is what simulations and
//! benchmarks drive directly.

pub mod basic;
pub mod counts;
pub mod history;
pub mod pruning;
pub mod similar;

pub use basic::ExplicitItemCF;
pub use counts::{WindowConfig, WindowedCounts};
pub use history::{HistoryStore, RatingUpdate, UserHistory};
pub use pruning::{hoeffding_epsilon, PruneState};
pub use similar::SimilarTable;

use crate::action::{ActionWeights, UserAction};
use crate::types::{FxHashMap, ItemId, ItemPair, UserId};

/// Configuration of the practical item-based CF.
#[derive(Debug, Clone)]
pub struct CfConfig {
    /// Implicit-feedback weights (§4.1.2).
    pub weights: ActionWeights,
    /// Two items pair only when rated together within this span (§4.1.4:
    /// six hours for news, three to seven days for e-commerce).
    pub linked_time_ms: u64,
    /// Sliding window (Eq. 10); `None` = grow forever.
    pub window: Option<WindowConfig>,
    /// Similar-items list size `k`.
    pub top_k: usize,
    /// Personalised-filtering depth: predictions use the user's most
    /// recent `recent_k` items (§4.3).
    pub recent_k: usize,
    /// Hoeffding pruning confidence `δ` (§4.1.4); `None` disables pruning.
    pub pruning_delta: Option<f64>,
    /// Cap on live pruning observation counts (see
    /// [`PruneState::with_cap`]); bounds the state a long-tailed stream
    /// can accumulate.
    pub pruning_max_tracked: usize,
}

impl Default for CfConfig {
    fn default() -> Self {
        CfConfig {
            weights: ActionWeights::default(),
            linked_time_ms: 6 * 60 * 60 * 1000, // the paper's news setting
            window: None,
            top_k: 20,
            recent_k: 10,
            pruning_delta: Some(1e-3),
            pruning_max_tracked: pruning::DEFAULT_MAX_TRACKED,
        }
    }
}

/// Work counters used by the evaluation (pruning ablation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CfStats {
    /// Actions processed.
    pub actions: u64,
    /// Pair-count updates actually applied.
    pub pair_updates: u64,
    /// Pair updates skipped because the pair was pruned.
    pub pruned_skips: u64,
}

/// A scored recommendation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recommendation {
    /// Recommended item.
    pub item: ItemId,
    /// Predicted rating (Eq. 2), in the action-weight scale.
    pub score: f64,
    /// Total similarity mass behind the prediction — low mass means the
    /// caller should fall back to the demographic complement (§4.3).
    pub confidence: f64,
}

/// The practical item-based CF engine.
#[derive(Debug, Clone)]
pub struct ItemCF {
    config: CfConfig,
    history: HistoryStore,
    item_counts: WindowedCounts<ItemId>,
    pair_counts: WindowedCounts<ItemPair>,
    similar: SimilarTable,
    pruning: Option<PruneState>,
    stats: CfStats,
}

impl ItemCF {
    /// New engine.
    pub fn new(config: CfConfig) -> Self {
        ItemCF {
            history: HistoryStore::new(config.recent_k.max(64)),
            item_counts: WindowedCounts::new(config.window),
            pair_counts: WindowedCounts::new(config.window),
            similar: SimilarTable::new(config.top_k),
            pruning: config
                .pruning_delta
                .map(|d| PruneState::with_cap(d, config.pruning_max_tracked)),
            config,
            stats: CfStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CfConfig {
        &self.config
    }

    /// Processes one user action through all three layers (Algorithm 1).
    pub fn process(&mut self, action: &UserAction) {
        self.stats.actions += 1;
        let update = self
            .history
            .apply(action, &self.config.weights, self.config.linked_time_ms);
        if update.delta_rating != 0.0 {
            self.item_counts
                .add(update.item, update.delta_rating, update.timestamp);
        }
        for &(pair, delta) in &update.pair_deltas {
            // Algorithm 1 line 3: skip pruned pairs entirely.
            if self.pruning.as_ref().is_some_and(|p| p.is_pruned(pair)) {
                self.stats.pruned_skips += 1;
                continue;
            }
            self.stats.pair_updates += 1;
            self.pair_counts.add(pair, delta, update.timestamp);
            let sim = self.similarity(pair.a, pair.b);
            self.similar.update_pair(pair.a, pair.b, sim);
            if let Some(pruning) = &mut self.pruning {
                let t = self
                    .similar
                    .threshold(pair.a)
                    .min(self.similar.threshold(pair.b));
                pruning.observe(pair, sim, t);
            }
        }
    }

    /// Current similarity of two items (Eq. 5 / Eq. 10):
    /// `pairCount / (√itemCount(p) · √itemCount(q))`.
    pub fn similarity(&self, p: ItemId, q: ItemId) -> f64 {
        if p == q {
            return 1.0;
        }
        let ip = self.item_counts.get(&p);
        let iq = self.item_counts.get(&q);
        if ip <= 0.0 || iq <= 0.0 {
            return 0.0;
        }
        let pc = self.pair_counts.get(&ItemPair::new(p, q));
        (pc / (ip.sqrt() * iq.sqrt())).max(0.0)
    }

    /// The similar-items list of `item`, best first.
    pub fn similar_items(&self, item: ItemId) -> &[(ItemId, f64)] {
        self.similar.similar(item)
    }

    /// `itemCount(item)` (windowed when configured).
    pub fn item_count(&self, item: ItemId) -> f64 {
        self.item_counts.get(&item)
    }

    /// `pairCount(p, q)` (windowed when configured).
    pub fn pair_count(&self, p: ItemId, q: ItemId) -> f64 {
        self.pair_counts.get(&ItemPair::new(p, q))
    }

    /// Top-`n` recommendations for `user` (Eq. 2 with the real-time
    /// personalised filtering of §4.3: candidates come from the similar
    /// items of the user's `recent_k` most recent items, and predictions
    /// are weighted by the user's ratings of those recent items).
    pub fn recommend(&self, user: UserId, n: usize) -> Vec<Recommendation> {
        let Some(history) = self.history.user(user) else {
            return Vec::new();
        };
        let mut num: FxHashMap<ItemId, f64> = FxHashMap::default();
        let mut den: FxHashMap<ItemId, f64> = FxHashMap::default();
        for (recent_item, rating) in history.recent(self.config.recent_k) {
            for &(candidate, sim) in self.similar.similar(recent_item) {
                if history.has_rated(candidate) {
                    continue;
                }
                *num.entry(candidate).or_insert(0.0) += sim * rating;
                *den.entry(candidate).or_insert(0.0) += sim;
            }
        }
        let mut recs: Vec<Recommendation> = num
            .into_iter()
            .map(|(item, numerator)| {
                let confidence = den[&item];
                Recommendation {
                    item,
                    score: numerator / confidence,
                    confidence,
                }
            })
            .collect();
        recs.sort_by(|a, b| {
            (b.score * b.confidence)
                .total_cmp(&(a.score * a.confidence))
                .then(a.item.cmp(&b.item))
        });
        recs.truncate(n);
        recs
    }

    /// Work counters.
    pub fn stats(&self) -> CfStats {
        self.stats
    }

    /// Number of users with history.
    pub fn user_count(&self) -> usize {
        self.history.user_count()
    }

    /// Read access to a user's history (for filtering and the engine).
    pub fn user_history(&self, user: UserId) -> Option<&UserHistory> {
        self.history.user(user)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionType;

    fn click(user: UserId, item: ItemId, ts: u64) -> UserAction {
        UserAction::new(user, item, ActionType::Click, ts)
    }

    fn cf() -> ItemCF {
        ItemCF::new(CfConfig {
            pruning_delta: None,
            ..Default::default()
        })
    }

    #[test]
    fn incremental_similarity_matches_batch_reference() {
        // Feed the same data into the incremental engine and the explicit
        // brute-force matrix; Eq. 5 must equal Eq. 4.
        let mut inc = cf();
        let mut batch = ExplicitItemCF::new();
        let weights = ActionWeights::default();
        let actions = [
            (1u64, 10u64, ActionType::Click),
            (1, 11, ActionType::Purchase),
            (2, 10, ActionType::Browse),
            (2, 11, ActionType::Click),
            (3, 10, ActionType::Purchase),
            (3, 12, ActionType::Click),
            (1, 12, ActionType::Browse),
        ];
        for (i, &(u, it, a)) in actions.iter().enumerate() {
            inc.process(&UserAction::new(u, it, a, i as u64));
        }
        // Batch: one rating per (user, item) = max weight.
        for &(u, it, a) in &actions {
            let r = batch.rating(u, it).max(weights.weight(a));
            batch.add_rating(u, it, r);
        }
        for &(p, q) in &[(10u64, 11u64), (10, 12), (11, 12)] {
            let got = inc.similarity(p, q);
            let want = batch.practical_similarity(p, q);
            assert!(
                (got - want).abs() < 1e-12,
                "sim({p},{q}): incremental {got} vs batch {want}"
            );
        }
    }

    #[test]
    fn similarity_in_unit_range() {
        let mut engine = cf();
        for u in 0..20u64 {
            engine.process(&click(u, 1, u));
            engine.process(&click(u, 2, u + 1));
        }
        let s = engine.similarity(1, 2);
        assert!(s > 0.0 && s <= 1.0, "sim = {s}");
    }

    #[test]
    fn self_similarity_is_one() {
        let engine = cf();
        assert_eq!(engine.similarity(7, 7), 1.0);
    }

    #[test]
    fn recommend_suggests_co_clicked_items() {
        let mut engine = cf();
        // Users 1..10 click both 100 and 200; user 99 clicks only 100.
        for u in 1..=10u64 {
            engine.process(&click(u, 100, u * 10));
            engine.process(&click(u, 200, u * 10 + 1));
        }
        engine.process(&click(99, 100, 500));
        let recs = engine.recommend(99, 5);
        assert!(!recs.is_empty());
        assert_eq!(recs[0].item, 200);
        assert!(recs[0].score > 0.0);
    }

    #[test]
    fn recommend_excludes_rated_items() {
        let mut engine = cf();
        for u in 1..=5u64 {
            engine.process(&click(u, 1, 0));
            engine.process(&click(u, 2, 1));
            engine.process(&click(u, 3, 2));
        }
        let recs = engine.recommend(1, 10);
        assert!(recs.is_empty(), "user 1 has rated everything: {recs:?}");
    }

    #[test]
    fn unknown_user_gets_no_recommendations() {
        let engine = cf();
        assert!(engine.recommend(12345, 5).is_empty());
    }

    #[test]
    fn pruning_reduces_pair_updates() {
        // Two strong clusters {A,B} and {T,T'} establish high thresholds;
        // a trickle of crossover users creates the weak pair (A,T) that
        // the Hoeffding bound prunes, after which further crossover
        // updates are skipped.
        let (a, b, t, t2) = (1u64, 2u64, 3u64, 4u64);
        let mk_actions = || {
            let mut actions = Vec::new();
            let mut ts = 0u64;
            for u in 0..200u64 {
                actions.push(click(u, a, ts));
                actions.push(click(u, b, ts + 1));
                actions.push(click(1000 + u, t, ts + 2));
                actions.push(click(1000 + u, t2, ts + 3));
                ts += 10;
            }
            for u in 0..30u64 {
                actions.push(click(5000 + u, a, ts));
                actions.push(click(5000 + u, t, ts + 1));
                ts += 10;
            }
            actions
        };
        let mut with = ItemCF::new(CfConfig {
            top_k: 1,
            pruning_delta: Some(0.05),
            ..Default::default()
        });
        let mut without = ItemCF::new(CfConfig {
            top_k: 1,
            pruning_delta: None,
            ..Default::default()
        });
        for action in mk_actions() {
            with.process(&action);
            without.process(&action);
        }
        assert_eq!(without.stats().pruned_skips, 0);
        assert!(
            with.stats().pruned_skips > 0,
            "pruning should skip crossover pair updates: {:?}",
            with.stats()
        );
        assert!(with.stats().pair_updates < without.stats().pair_updates);
        // Pruning must not distort the strong lists.
        assert_eq!(with.similar_items(a)[0].0, b);
        assert_eq!(with.similar_items(t)[0].0, t2);
    }

    #[test]
    fn sliding_window_forgets_old_interest() {
        let window = WindowConfig {
            session_ms: 1_000,
            sessions: 2,
        };
        let mut engine = ItemCF::new(CfConfig {
            window: Some(window),
            pruning_delta: None,
            ..Default::default()
        });
        for u in 1..=5u64 {
            engine.process(&click(u, 1, 0));
            engine.process(&click(u, 2, 10));
        }
        assert!(engine.similarity(1, 2) > 0.0);
        // Far in the future, the counts expired.
        engine.process(&click(100, 3, 100_000));
        assert_eq!(engine.similarity(1, 2), 0.0);
    }

    #[test]
    fn stats_count_actions() {
        let mut engine = cf();
        engine.process(&click(1, 1, 0));
        engine.process(&click(1, 2, 1));
        assert_eq!(engine.stats().actions, 2);
        assert_eq!(engine.stats().pair_updates, 1);
    }
}
