//! The recommender engine of Fig. 9, distributed form: answers user
//! queries purely from TDStore state maintained by the topologies —
//! CF candidates (Eq. 2 + real-time personalised filtering) complemented
//! by the user's demographic group's hot items, mirroring
//! [`crate::engine::RecommendEngine`] but with no in-process model at all.
//!
//! "The recommender engine accepts user queries preprocessed by the front
//! end and utilizes the computing results in TDStore to generate the
//! recommendation results."

use crate::db::GroupScheme;
use crate::interner::Interner;
use crate::topology::bolts::CfPipelineConfig;
use crate::topology::demographic::{hot_items, DemographicPipelineConfig, ProfileRegistry};
use crate::topology::TopologyRecommender;
use crate::types::{ItemId, UserId};
use tdstore::TdStore;

/// Query-side configuration.
#[derive(Debug, Clone, Default)]
pub struct ServingConfig {
    /// CF pipeline parameters (must match the running CF topology).
    pub cf: CfPipelineConfig,
    /// Demographic pipeline parameters (must match the running DB
    /// topology).
    pub db: DemographicPipelineConfig,
    /// CF candidates with total similarity mass below this are dropped
    /// and backfilled by the demographic complement.
    pub min_confidence: f64,
}

/// The store-backed recommender front end.
pub struct RecommenderFrontEnd {
    store: TdStore,
    cf: TopologyRecommender,
    config: ServingConfig,
    profiles: ProfileRegistry,
    /// Present in a string-keyed deployment, whose producers interned the
    /// frontend keys before logging the actions: maps the dense ids back
    /// to the original string keys at the serving edge.
    interner: Option<Interner>,
}

impl RecommenderFrontEnd {
    /// Front end over the shared store and profile registry.
    pub fn new(store: TdStore, config: ServingConfig, profiles: ProfileRegistry) -> Self {
        RecommenderFrontEnd {
            cf: TopologyRecommender::new(store.clone(), config.cf.clone()),
            store,
            config,
            profiles,
            interner: None,
        }
    }

    /// Front end for a string-keyed deployment: queries arrive with the
    /// frontend's raw keys, get interned to the dense ids the topology
    /// counts under, and results de-intern on the way out
    /// ([`Self::recommend_raw`]).
    pub fn with_interner(
        store: TdStore,
        config: ServingConfig,
        profiles: ProfileRegistry,
        interner: Interner,
    ) -> Self {
        RecommenderFrontEnd {
            interner: Some(interner),
            ..Self::new(store, config, profiles)
        }
    }

    /// Top-`n` recommendations for `user` at stream time `now`: CF first,
    /// demographic hot items to fill the page.
    pub fn recommend(&self, user: UserId, n: usize, now: u64) -> Vec<(ItemId, f64)> {
        // The history is read once: the CF query hands back the items the
        // user has rated, which the backfill must skip too.
        let (mut recs, mut exclude) = self.cf.recommend_with_rated(user, n);
        if recs.len() < n {
            let scheme: &GroupScheme = &self.config.db.scheme;
            let group = scheme.group_of(&self.profiles.get(user));
            for &(item, _) in &recs {
                exclude.insert(item);
            }
            let hot = hot_items(
                &self.store,
                group,
                &self.config.db,
                now,
                n - recs.len(),
                &exclude,
            );
            // Complemented items rank below CF candidates: scale hot
            // counts into (0, min CF score), as the in-memory engine does.
            let floor = recs.last().map_or(1.0, |&(_, s)| s);
            let max_hot = hot.first().map_or(1.0, |&(_, c)| c.max(1.0));
            recs.extend(
                hot.into_iter()
                    .map(|(item, count)| (item, 0.9 * floor * count / max_hot)),
            );
        }
        recs
    }

    /// Top-`n` recommendations for a *string-keyed* user, de-interned
    /// back to the frontend's original item keys; an unknown user (never
    /// interned) has no history and gets only the demographic complement.
    /// `None` unless the front end was built [`Self::with_interner`].
    pub fn recommend_raw(&self, user: &str, n: usize, now: u64) -> Option<Vec<(String, f64)>> {
        let interner = self.interner.as_ref()?;
        let uid = interner.intern(user);
        let recs = self.recommend(uid, n, now).into_iter();
        Some(
            recs.filter_map(|(item, score)| interner.resolve(item).map(|key| (key, score)))
                .collect(),
        )
    }

    /// Direct access to the CF query engine.
    pub fn cf(&self) -> &TopologyRecommender {
        &self.cf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionType, UserAction};
    use crate::db::DemographicProfile;
    use crate::topology::demographic::build_demographic_topology;
    use crate::topology::replay::test_feed::TopicFeed;
    use crate::topology::{build_cf_topology_with_spout, CfParallelism};
    use tdstore::StoreConfig;

    fn profile(gender: u8, age: u8) -> DemographicProfile {
        DemographicProfile {
            gender,
            age,
            region: 0,
        }
    }

    /// Runs both the CF and demographic topologies over the same store,
    /// then serves queries from it.
    fn serve(actions: Vec<UserAction>, profiles: ProfileRegistry) -> RecommenderFrontEnd {
        serve_split(&actions, &actions, profiles)
    }

    /// [`serve`] with the CF topology fed `cf_actions` and the
    /// demographic one `db_actions`.
    fn serve_split(
        cf_actions: &[UserAction],
        db_actions: &[UserAction],
        profiles: ProfileRegistry,
    ) -> RecommenderFrontEnd {
        let store = TdStore::new(StoreConfig::default());
        let config = ServingConfig::default();

        let cf_feed = TopicFeed::new(4, cf_actions);
        let cf_handle = build_cf_topology_with_spout(
            cf_feed.spout(),
            store.clone(),
            config.cf.clone(),
            CfParallelism::default(),
            Default::default(),
        )
        .unwrap()
        .launch();

        let db_feed = TopicFeed::new(4, db_actions);
        let db_handle = build_demographic_topology(
            db_feed.spout(),
            profiles.clone(),
            store.clone(),
            config.db.clone(),
            2,
            2,
        )
        .unwrap()
        .launch();

        cf_feed.drain(cf_handle);
        db_feed.drain(db_handle);
        RecommenderFrontEnd::new(store, config, profiles)
    }

    fn click(user: UserId, item: ItemId, ts: u64) -> UserAction {
        UserAction::new(user, item, ActionType::Click, ts)
    }

    #[test]
    fn warm_user_gets_cf_candidates() {
        let profiles = ProfileRegistry::new();
        let mut actions = Vec::new();
        for u in 1..=20u64 {
            profiles.set(u, profile(0, 25));
            actions.push(click(u, 1, u * 10));
            actions.push(click(u, 2, u * 10 + 1));
        }
        actions.push(click(99, 1, 500));
        let front = serve(actions, profiles);
        let recs = front.recommend(99, 3, 1_000);
        assert_eq!(recs.first().map(|r| r.0), Some(2), "{recs:?}");
    }

    #[test]
    fn cold_user_gets_group_hot_items_from_store() {
        let profiles = ProfileRegistry::new();
        let mut actions = Vec::new();
        // Young women click item 7; older men click item 8.
        for u in 1..=10u64 {
            profiles.set(u, profile(0, 25));
            profiles.set(100 + u, profile(1, 45));
            actions.push(click(u, 7, u));
            actions.push(click(100 + u, 8, u));
        }
        // Cold users of each group.
        profiles.set(500, profile(0, 22));
        profiles.set(501, profile(1, 48));
        let front = serve(actions, profiles);
        let w = front.recommend(500, 2, 1_000);
        let m = front.recommend(501, 2, 1_000);
        assert_eq!(w.first().map(|r| r.0), Some(7), "women's group: {w:?}");
        assert_eq!(m.first().map(|r| r.0), Some(8), "men's group: {m:?}");
    }

    #[test]
    fn raw_feed_round_trips_string_keys() {
        // End-to-end over interning: the producer interns string keys as
        // it logs each action, every stage after it (the log, groupings,
        // store keys) runs on dense u64 ids, and the serving edge turns
        // the recommended ids back into the string keys.
        let interner = Interner::new();
        let clicked = |user: &str, item: &str, ts: u64| {
            UserAction::new(
                interner.intern(user),
                interner.intern(item),
                ActionType::Click,
                ts,
            )
        };
        let mut actions = Vec::new();
        for u in 1..=20u64 {
            for item in ["video/cats", "video/dogs"] {
                actions.push(clicked(&format!("cookie-{u}"), item, u * 10));
            }
        }
        actions.push(clicked("cookie-new", "video/cats", 500));

        let store = TdStore::new(StoreConfig::default());
        let config = ServingConfig::default();
        let feed = TopicFeed::new(4, &actions);
        let topo = build_cf_topology_with_spout(
            feed.spout(),
            store.clone(),
            config.cf.clone(),
            CfParallelism::default(),
            Default::default(),
        )
        .unwrap();
        feed.drain(topo.launch());

        let front =
            RecommenderFrontEnd::with_interner(store, config, ProfileRegistry::new(), interner);
        let recs = front.recommend_raw("cookie-new", 3, 1_000).unwrap();
        assert_eq!(
            recs.first().map(|r| r.0.as_str()),
            Some("video/dogs"),
            "{recs:?}"
        );
    }

    #[test]
    fn complement_fills_the_page_past_seen_hot_items() {
        // The group's items 1..=10 are hot in that order; user 99 has seen
        // the top four and has no CF candidate (its only co-rated items are
        // its own), so the whole page comes from the complement.
        let profiles = ProfileRegistry::new();
        let mut actions = Vec::new();
        for u in 1..=10u64 {
            profiles.set(u, profile(0, 25));
            for item in 1..=(11 - u) {
                actions.push(click(u, item, u * 20 + item));
            }
        }
        profiles.set(99, profile(0, 25));
        let seen: Vec<UserAction> = (1..=4).map(|item| click(99, item, 500 + item)).collect();
        actions.extend(&seen);
        let front = serve_split(&seen, &actions, profiles);
        let recs = front.recommend(99, 3, 1_000);
        let items: Vec<ItemId> = recs.iter().map(|r| r.0).collect();
        assert_eq!(items, vec![5, 6, 7], "{recs:?}");
        // Scaled by the first item kept, not by the excluded item 1.
        assert!((recs[0].1 - 0.9).abs() < 1e-12, "{recs:?}");
    }

    #[test]
    fn complement_excludes_seen_items() {
        let profiles = ProfileRegistry::new();
        let mut actions = Vec::new();
        for u in 1..=10u64 {
            profiles.set(u, profile(0, 25));
            actions.push(click(u, 7, u));
        }
        // User 3 already clicked the group's only hot item.
        let front = serve(actions, profiles);
        let recs = front.recommend(3, 3, 1_000);
        assert!(
            recs.iter().all(|&(i, _)| i != 7),
            "seen item must not come back: {recs:?}"
        );
    }
}
