//! The recommend engine: algorithm blending as deployed (§6.1, §6.4).
//!
//! "After obtaining the candidate commodities generated by item-based CF,
//! we first check the user's real-time demands [...] If interested
//! candidates are not found, we rank the candidates based on the DB
//! algorithm" — and users with no usable signal at all get their
//! demographic group's hot items. [`RecommendEngine`] implements this
//! policy over a primary algorithm (CF or CB) plus the demographic
//! complement.

use crate::action::UserAction;
use crate::cb::ContentBased;
use crate::cf::{ItemCF, Recommendation};
use crate::db::{DemographicProfile, DemographicRec};
use crate::types::{FxHashSet, ItemId, UserId};

/// Anything that learns from an action stream and answers top-n queries.
/// Implemented by every algorithm and by the blended engine itself, so the
/// evaluation harness can drive them interchangeably.
pub trait StreamRecommender {
    /// Consumes one action.
    fn process(&mut self, action: &UserAction);

    /// Top-`n` items for `user` with scores.
    fn recommend(&self, user: UserId, n: usize) -> Vec<(ItemId, f64)>;

    /// Registers a user's demographics (default: ignored).
    fn set_profile(&mut self, _user: UserId, _profile: DemographicProfile) {}

    /// Notifies the recommender that a new item was published (default:
    /// ignored; content-based models register the item's tag vector).
    fn on_new_item(&mut self, _item: ItemId) {}

    /// Notifies the recommender that an item expired and must no longer
    /// be recommended (news dies fast; default: ignored).
    fn on_item_retired(&mut self, _item: ItemId) {}
}

impl StreamRecommender for ItemCF {
    fn process(&mut self, action: &UserAction) {
        ItemCF::process(self, action);
    }

    fn recommend(&self, user: UserId, n: usize) -> Vec<(ItemId, f64)> {
        ItemCF::recommend(self, user, n)
            .into_iter()
            .map(|r| (r.item, r.score))
            .collect()
    }
}

impl StreamRecommender for ContentBased {
    fn process(&mut self, action: &UserAction) {
        ContentBased::process(self, action);
    }

    fn recommend(&self, user: UserId, n: usize) -> Vec<(ItemId, f64)> {
        ContentBased::recommend(self, user, n)
    }

    fn on_new_item(&mut self, item: ItemId) {
        self.register_item(item);
    }

    fn on_item_retired(&mut self, item: ItemId) {
        self.retire_item(item);
    }
}

impl StreamRecommender for crate::ar::AssociationRules {
    fn process(&mut self, action: &UserAction) {
        // Impressions do not open shopping sessions.
        if action.action != crate::action::ActionType::Impression {
            crate::ar::AssociationRules::process(self, action.user, action.item, action.timestamp);
        }
    }

    fn recommend(&self, user: UserId, n: usize) -> Vec<(ItemId, f64)> {
        crate::ar::AssociationRules::recommend(self, user, n)
    }
}

/// Wraps any [`StreamRecommender`] with per-algorithm update and serve
/// counters attached to an exposition registry under an `algo` label
/// (families `tencentrec_algo_updates_total` and
/// `tencentrec_algo_serves_total`). Several tasks running the same
/// algorithm share one counter pair — the registry hands out the existing
/// handles for an already-known `(family, algo)` key.
pub struct Instrumented<R> {
    inner: R,
    updates: obs::Counter,
    serves: obs::Counter,
}

impl<R: StreamRecommender> Instrumented<R> {
    /// Wraps `inner`, registering its counters under `algo` (e.g. "cf",
    /// "cb", "db", "ar", "ctr").
    pub fn new(inner: R, algo: &str, registry: &obs::Registry) -> Self {
        let labels: &[(&str, &str)] = &[("algo", algo)];
        Instrumented {
            inner,
            updates: registry.counter(
                "tencentrec_algo_updates_total",
                labels,
                "Stream actions processed, per algorithm.",
            ),
            serves: registry.counter(
                "tencentrec_algo_serves_total",
                labels,
                "Top-n recommendation queries answered, per algorithm.",
            ),
        }
    }

    /// The wrapped recommender.
    pub fn inner(&self) -> &R {
        &self.inner
    }
}

impl<R: StreamRecommender> StreamRecommender for Instrumented<R> {
    fn process(&mut self, action: &UserAction) {
        self.updates.inc();
        self.inner.process(action);
    }

    fn recommend(&self, user: UserId, n: usize) -> Vec<(ItemId, f64)> {
        self.serves.inc();
        self.inner.recommend(user, n)
    }

    fn set_profile(&mut self, user: UserId, profile: DemographicProfile) {
        self.inner.set_profile(user, profile);
    }

    fn on_new_item(&mut self, item: ItemId) {
        self.inner.on_new_item(item);
    }

    fn on_item_retired(&mut self, item: ItemId) {
        self.inner.on_item_retired(item);
    }
}

/// The primary algorithm choice for an application ("the choice of
/// algorithms is done manually according to different applications'
/// characteristics").
#[allow(clippy::large_enum_variant)] // two long-lived variants, one per engine
pub enum Primary {
    /// Item-based CF (videos, e-commerce).
    Cf(ItemCF),
    /// Content-based (news).
    Cb(ContentBased),
}

/// The blended engine: primary algorithm + demographic complement.
pub struct RecommendEngine {
    primary: Primary,
    db: DemographicRec,
    /// Candidates with confidence below this are considered "not
    /// efficient" and re-ranked/complemented by DB.
    min_confidence: f64,
    /// Expired items, filtered from every list (the FilterBolt's job).
    retired: FxHashSet<ItemId>,
}

impl RecommendEngine {
    /// Engine over a primary algorithm and a demographic recommender.
    pub fn new(primary: Primary, db: DemographicRec, min_confidence: f64) -> Self {
        RecommendEngine {
            primary,
            db,
            min_confidence,
            retired: FxHashSet::default(),
        }
    }

    /// Items the user has already engaged with (to exclude from the
    /// complement).
    fn seen(&self, user: UserId) -> FxHashSet<ItemId> {
        match &self.primary {
            Primary::Cf(cf) => cf
                .user_history(user)
                .map(|h| h.items().map(|(&i, _)| i).collect())
                .unwrap_or_default(),
            Primary::Cb(cb) => cb.seen_items(user).collect(),
        }
    }

    /// Read access to the demographic recommender.
    pub fn demographics(&self) -> &DemographicRec {
        &self.db
    }

    /// Read access to the primary algorithm.
    pub fn primary(&self) -> &Primary {
        &self.primary
    }
}

impl StreamRecommender for RecommendEngine {
    fn process(&mut self, action: &UserAction) {
        match &mut self.primary {
            Primary::Cf(cf) => cf.process(action),
            Primary::Cb(cb) => cb.process(action),
        }
        self.db.process(action);
    }

    fn recommend(&self, user: UserId, n: usize) -> Vec<(ItemId, f64)> {
        // Primary candidates. Over-fetch so retirement filtering still
        // fills the page.
        let fetch = n + self.retired.len().min(n * 3);
        let mut recs: Vec<(ItemId, f64)> = match &self.primary {
            Primary::Cf(cf) => {
                let cands: Vec<Recommendation> = cf.recommend(user, fetch);
                cands
                    .into_iter()
                    .filter(|r| r.confidence >= self.min_confidence)
                    .map(|r| (r.item, r.score))
                    .collect()
            }
            Primary::Cb(cb) => cb.recommend(user, fetch),
        };
        recs.retain(|(item, _)| !self.retired.contains(item));
        recs.truncate(n);
        // Demographic complement fills the remainder.
        if recs.len() < n {
            let mut exclude = self.seen(user);
            for &(item, _) in &recs {
                exclude.insert(item);
            }
            exclude.extend(self.retired.iter().copied());
            let hot = self.db.hot_items(user, n - recs.len(), &exclude);
            // Complemented items rank below primary candidates: scale hot
            // counts into (0, min primary score).
            let floor = recs.last().map_or(1.0, |&(_, s)| s);
            let max_hot = hot.first().map_or(1.0, |&(_, c)| c.max(1.0));
            recs.extend(
                hot.into_iter()
                    .map(|(item, count)| (item, 0.9 * floor * count / max_hot)),
            );
        }
        recs.truncate(n);
        recs
    }

    fn set_profile(&mut self, user: UserId, profile: DemographicProfile) {
        self.db.set_profile(user, profile);
    }

    fn on_new_item(&mut self, item: ItemId) {
        if let Primary::Cb(cb) = &mut self.primary {
            cb.register_item(item);
        }
    }

    fn on_item_retired(&mut self, item: ItemId) {
        if let Primary::Cb(cb) = &mut self.primary {
            cb.retire_item(item);
        }
        self.retired.insert(item);
    }
}

/// A CF-primary engine with default configuration — the stock engine a
/// serving shard constructs on its worker thread (engines are `Send`, so
/// construction may happen on any thread).
pub fn default_cf_engine() -> RecommendEngine {
    use crate::action::ActionWeights;
    use crate::cf::CfConfig;
    use crate::db::GroupScheme;
    RecommendEngine::new(
        Primary::Cf(ItemCF::new(CfConfig::default())),
        DemographicRec::new(GroupScheme::default(), ActionWeights::default(), None),
        0.0,
    )
}

/// A CB-primary engine over `catalog` with default configuration (news
/// applications; the shared catalog supplies item tag vectors).
pub fn default_cb_engine(catalog: crate::catalog::ItemCatalog) -> RecommendEngine {
    use crate::action::ActionWeights;
    use crate::cb::CbConfig;
    use crate::db::GroupScheme;
    RecommendEngine::new(
        Primary::Cb(ContentBased::new(CbConfig::default(), catalog)),
        DemographicRec::new(GroupScheme::default(), ActionWeights::default(), None),
        0.0,
    )
}

// The serving layer moves engines onto shard worker threads.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<RecommendEngine>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionType, ActionWeights};
    use crate::cf::CfConfig;
    use crate::db::GroupScheme;

    fn engine() -> RecommendEngine {
        RecommendEngine::new(
            Primary::Cf(ItemCF::new(CfConfig {
                pruning_delta: None,
                ..Default::default()
            })),
            DemographicRec::new(GroupScheme::default(), ActionWeights::default(), None),
            0.0,
        )
    }

    fn click(user: UserId, item: ItemId, ts: u64) -> UserAction {
        UserAction::new(user, item, ActionType::Click, ts)
    }

    #[test]
    fn cf_candidates_come_first() {
        let mut e = engine();
        for u in 1..=10u64 {
            e.process(&click(u, 1, u));
            e.process(&click(u, 2, u + 1));
        }
        e.process(&click(99, 1, 100));
        let recs = e.recommend(99, 3);
        assert_eq!(recs[0].0, 2, "CF candidate leads: {recs:?}");
    }

    #[test]
    fn cold_user_gets_demographic_complement() {
        let mut e = engine();
        for u in 1..=10u64 {
            e.process(&click(u, 1, u));
        }
        // User 1234 never acted: CF has nothing, DB fills in the global
        // hot item.
        let recs = e.recommend(1234, 3);
        assert!(!recs.is_empty(), "complement must fill");
        assert_eq!(recs[0].0, 1);
    }

    #[test]
    fn complement_excludes_seen_items() {
        let mut e = engine();
        for u in 1..=10u64 {
            e.process(&click(u, 1, u));
            e.process(&click(u, 2, u + 1));
        }
        // User 5 saw both hot items; nothing to recommend beyond them.
        let recs = e.recommend(5, 5);
        assert!(
            recs.iter().all(|&(i, _)| i != 1 && i != 2),
            "seen items excluded: {recs:?}"
        );
    }

    #[test]
    fn cb_complement_excludes_seen_items() {
        // Mirror of `complement_excludes_seen_items` with a CB primary:
        // before `seen()` learned to read CB profiles, the demographic
        // complement recommended news a user had already read.
        use crate::catalog::{ItemCatalog, ItemMeta};
        let catalog = ItemCatalog::new();
        for item in [1u64, 2] {
            catalog.upsert(
                item,
                ItemMeta {
                    category: 0,
                    price: 0.0,
                    tags: vec![(1, 1.0)],
                },
            );
        }
        let mut e = default_cb_engine(catalog);
        e.on_new_item(1);
        e.on_new_item(2);
        for u in 1..=10u64 {
            e.process(&UserAction::new(u, 1, ActionType::Read, u));
            e.process(&UserAction::new(u, 2, ActionType::Read, u + 1));
        }
        // User 5 read both hot items; CB has nothing unseen to offer and
        // the complement must not resurface what they already read.
        let recs = e.recommend(5, 5);
        assert!(
            recs.iter().all(|&(i, _)| i != 1 && i != 2),
            "seen items excluded: {recs:?}"
        );
    }

    #[test]
    fn complemented_items_rank_below_primary() {
        let mut e = engine();
        for u in 1..=10u64 {
            e.process(&click(u, 1, u));
            e.process(&click(u, 2, u + 1));
            e.process(&click(u, 3, u + 2));
        }
        e.process(&click(99, 1, 100));
        let recs = e.recommend(99, 5);
        assert!(recs.len() >= 2);
        for pair in recs.windows(2) {
            assert!(pair[0].1 >= pair[1].1, "scores must be non-increasing");
        }
    }

    #[test]
    fn association_rules_drive_the_trait() {
        use crate::ar::{ArConfig, AssociationRules};
        let mut ar = AssociationRules::new(ArConfig {
            min_support: 2.0,
            min_confidence: 0.2,
            ..Default::default()
        });
        for u in 1..=5u64 {
            StreamRecommender::process(&mut ar, &click(u, 1, 0));
            StreamRecommender::process(&mut ar, &click(u, 2, 1));
        }
        StreamRecommender::process(&mut ar, &click(99, 1, 10));
        let recs = StreamRecommender::recommend(&ar, 99, 3);
        assert_eq!(recs.first().map(|r| r.0), Some(2));
        // Impressions are ignored.
        StreamRecommender::process(&mut ar, &UserAction::new(99, 7, ActionType::Impression, 11));
        assert_eq!(ar.item_support(7), 0.0);
    }

    #[test]
    fn instrumented_counts_updates_and_serves() {
        let registry = obs::Registry::new();
        let mut e = Instrumented::new(engine(), "cf", &registry);
        for u in 1..=5u64 {
            e.process(&click(u, 1, u));
        }
        e.recommend(1, 3);
        e.recommend(2, 3);
        assert_eq!(
            registry.counter_value("tencentrec_algo_updates_total", &[("algo", "cf")]),
            Some(5)
        );
        assert_eq!(
            registry.counter_value("tencentrec_algo_serves_total", &[("algo", "cf")]),
            Some(2)
        );
        // A second task of the same algorithm shares the counters.
        let mut e2 = Instrumented::new(engine(), "cf", &registry);
        e2.process(&click(9, 1, 9));
        assert_eq!(
            registry.counter_value("tencentrec_algo_updates_total", &[("algo", "cf")]),
            Some(6)
        );
    }

    #[test]
    fn high_min_confidence_forces_complement() {
        let mut e = RecommendEngine::new(
            Primary::Cf(ItemCF::new(CfConfig {
                pruning_delta: None,
                ..Default::default()
            })),
            DemographicRec::new(GroupScheme::default(), ActionWeights::default(), None),
            1e9, // nothing passes
        );
        for u in 1..=10u64 {
            e.process(&click(u, 1, u));
            e.process(&click(u, 2, u + 1));
        }
        e.process(&click(99, 1, 100));
        let recs = e.recommend(99, 1);
        assert_eq!(recs.len(), 1, "DB complement still serves");
    }
}
