//! The demographic-statistics pipeline, demonstrating the multi-hash
//! technique of §5.4 in a real dataflow.
//!
//! Group statistics cannot be updated by user-keyed workers: "actions of
//! users in one group may not be distributed to the same bolt \[so\] each
//! bolt will send an itemCount or pairCount update request to the
//! TDStore, resulting in multiple write requests from different workers,
//! i.e., the write confliction." The fix is hashing **twice**: stage 1
//! (by user) resolves the user's group and rating delta against their own
//! history; stage 2 (by group) is then the single writer for each group's
//! hot-item counters in TDStore, and of the hot list per session kept from
//! them, which answers queries without a scan of the group's counters.

use crate::action::{ActionType, ActionWeights};
use crate::db::{rank_hot, DemographicProfile, GroupId, GroupScheme, HOT_LIST_LEN};
use crate::topology::state::{
    apply_hot_entry, encode_sim_list, group_prefix, hot, hot_list, session_key, session_of,
    sim_records, window_sessions, windowed_sum, windowed_sum_with, Family,
};
use crate::types::{FxHashMap, FxHashSet, ItemId, UserId};
use parking_lot::RwLock;
use std::sync::Arc;
use tdstore::{StoreError, TdStore};
use tstorm::prelude::*;

/// Shared profile registry (in production this comes from the account
/// system; the topology reads it, never writes it).
#[derive(Clone, Default)]
pub struct ProfileRegistry {
    inner: Arc<RwLock<FxHashMap<UserId, DemographicProfile>>>,
}

impl ProfileRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a user's profile.
    pub fn set(&self, user: UserId, profile: DemographicProfile) {
        self.inner.write().insert(user, profile);
    }

    /// Profile of a user (unknown when unregistered).
    pub fn get(&self, user: UserId) -> DemographicProfile {
        self.inner
            .read()
            .get(&user)
            .copied()
            .unwrap_or_else(DemographicProfile::unknown)
    }
}

/// Demographic pipeline parameters.
#[derive(Debug, Clone, Default)]
pub struct DemographicPipelineConfig {
    /// Grouping scheme.
    pub scheme: GroupScheme,
    /// Implicit-feedback weights.
    pub weights: ActionWeights,
    /// Sliding window over the hot-item counts.
    pub window: Option<crate::cf::counts::WindowConfig>,
}

/// Stage-1 bolt (hashed by **user**): resolves the acting user's group
/// and the action's rating weight, then re-emits keyed by group — the
/// first hop of the multi-hash.
pub struct UserGroupBolt {
    profiles: ProfileRegistry,
    config: DemographicPipelineConfig,
}

impl UserGroupBolt {
    /// New stage-1 bolt.
    pub fn new(profiles: ProfileRegistry, config: DemographicPipelineConfig) -> Self {
        UserGroupBolt { profiles, config }
    }
}

impl Bolt for UserGroupBolt {
    fn execute(&mut self, tuple: &Tuple, collector: &mut BoltCollector) -> Result<(), String> {
        let user = tuple.u64("user");
        let item = tuple.u64("item");
        let code = tuple.u64("action") as u8;
        let ts = tuple.u64("ts");
        let action = ActionType::from_code(code).ok_or("bad action code")?;
        let weight = self.config.weights.weight(action);
        if weight <= 0.0 {
            return Ok(());
        }
        let group = self.config.scheme.group_of(&self.profiles.get(user));
        collector.emit_values(&[
            Value::U64(group),
            Value::U64(item),
            Value::F64(weight),
            Value::U64(ts),
        ]);
        Ok(())
    }

    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(
            DEFAULT_STREAM,
            ["group", "item", "weight", "ts"],
        )]
    }
}

/// Stage-2 bolt (hashed by **group**): the sole writer of each group's
/// hot-item counters and hot lists, so TDStore sees no conflicting
/// writers.
pub struct GroupCountBolt {
    store: TdStore,
    config: DemographicPipelineConfig,
}

impl GroupCountBolt {
    /// New stage-2 bolt.
    pub fn new(store: TdStore, config: DemographicPipelineConfig) -> Self {
        GroupCountBolt { store, config }
    }

    /// Adds `weight` to `item`'s count in `group` at `ts`, then folds the
    /// new count into every stored hot list whose window covers `ts`'s
    /// session, and builds that session's list when it has none. A
    /// positive weight only grows a count, so an edit in place keeps each
    /// list exact; any other weight rebuilds the lists instead.
    pub fn count(
        &self,
        group: GroupId,
        item: ItemId,
        weight: f64,
        ts: u64,
    ) -> Result<(), StoreError> {
        let base = hot(group, item);
        let session = session_of(self.config.window, ts);
        let bucket = self.store.incr_f64(&session_key(&base, session), weight)?;
        let windows = window_sessions(self.config.window);
        let last = session.saturating_add(windows.saturating_sub(1) as u64);
        for list_session in session..=last {
            let key = hot_list(group, list_session);
            let stored = self.store.read(&key, |raw| raw.is_some())?;
            if !stored && list_session != session {
                continue;
            }
            if !stored || weight <= 0.0 || weight.is_nan() {
                let list = rank_group(
                    &self.store,
                    group,
                    &self.config,
                    list_session,
                    &FxHashSet::default(),
                    HOT_LIST_LEN,
                )?;
                self.store.put(&key, encode_sim_list(&list))?;
                continue;
            }
            let count = windowed_sum_with(
                &self.store,
                &base,
                list_session,
                windows,
                &[(session, bucket)],
            )?;
            self.store.modify(&key, |slot| match slot {
                Some(list) => apply_hot_entry(list, item, count, HOT_LIST_LEN),
                None => false,
            })?;
        }
        Ok(())
    }
}

impl Bolt for GroupCountBolt {
    fn execute(&mut self, tuple: &Tuple, _collector: &mut BoltCollector) -> Result<(), String> {
        self.count(
            tuple.u64("group"),
            tuple.u64("item"),
            tuple.f64("weight"),
            tuple.u64("ts"),
        )
        .map_err(|e| e.to_string())
    }
}

/// Builds the two-stage demographic topology over the spouts `spout`
/// makes (a [`ReplayableSpout`](crate::topology::ReplayableSpout) reading
/// an action topic).
pub fn build_demographic_topology<S, F>(
    spout: F,
    profiles: ProfileRegistry,
    store: TdStore,
    config: DemographicPipelineConfig,
    stage1_tasks: usize,
    stage2_tasks: usize,
) -> Result<tstorm::topology::Topology, TopologyError>
where
    S: Spout + 'static,
    F: Fn() -> S + Send + Sync + 'static,
{
    let mut builder = TopologyBuilder::new();
    builder.set_spout("spout", spout, 1);
    {
        let config = config.clone();
        builder
            .set_bolt(
                "user_group",
                move || UserGroupBolt::new(profiles.clone(), config.clone()),
                stage1_tasks,
            )
            .fields_grouping("spout", ["user"]); // first hash: by user
    }
    builder
        .set_bolt(
            "group_count",
            move || GroupCountBolt::new(store.clone(), config.clone()),
            stage2_tasks,
        )
        .fields_grouping("user_group", ["group"]); // second hash: by group
    builder.build()
}

/// Query side: top-`n` hot items of `group` at `now`, excluding
/// `exclude`. Walks the group's hot list for `now`'s session, and ranks
/// the group's counters in full only when that session has no list yet,
/// or when the exclusions leave fewer than `n` items in a list that may
/// not hold every item.
pub fn hot_items(
    store: &TdStore,
    group: GroupId,
    config: &DemographicPipelineConfig,
    now: u64,
    n: usize,
    exclude: &FxHashSet<ItemId>,
) -> Vec<(ItemId, f64)> {
    let session = session_of(config.window, now);
    // Reserved before the read, so nothing allocates under the store lock.
    let mut page = Vec::with_capacity(n.min(HOT_LIST_LEN));
    let listed = store.read(&hot_list(group, session), |raw| {
        let list = sim_records(raw?);
        let len = list.len();
        page.extend(list.filter(|(item, _)| !exclude.contains(item)).take(n));
        Some(len)
    });
    match listed {
        // A list shorter than the cap holds every item with a count.
        Ok(Some(len)) if page.len() == n || len < HOT_LIST_LEN => page,
        _ => rank_group(store, group, config, session, exclude, n).unwrap_or_default(),
    }
}

/// The full ranking of `group`'s hot items at `session`: every counted
/// item's windowed count, by a scan of the group's counters. A hot list is
/// built from it, and a query its list cannot answer falls back to it.
fn rank_group(
    store: &TdStore,
    group: GroupId,
    config: &DemographicPipelineConfig,
    session: u64,
    exclude: &FxHashSet<ItemId>,
    n: usize,
) -> Result<Vec<(ItemId, f64)>, StoreError> {
    // Keys are `grp:<group><item>@<session>`; aggregate per item over the
    // window.
    let items: FxHashSet<ItemId> = store
        .scan_prefix(&group_prefix(group))?
        .iter()
        .filter_map(|(key, _)| Some(Family::GroupCount.parse(key)?.ids[1]))
        .collect();
    let windows = window_sessions(config.window);
    let mut counts = Vec::with_capacity(items.len());
    for item in items {
        counts.push((
            item,
            windowed_sum(store, &hot(group, item), session, windows)?,
        ));
    }
    Ok(rank_hot(
        counts.into_iter().filter(|&(_, c)| c > 0.0),
        exclude,
        n,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::UserAction;
    use crate::topology::replay::test_feed::TopicFeed;
    use tdstore::StoreConfig;

    fn profile(gender: u8, age: u8) -> DemographicProfile {
        DemographicProfile {
            gender,
            age,
            region: 0,
        }
    }

    #[test]
    fn two_stage_counts_are_correct_and_group_specific() {
        let store = TdStore::new(StoreConfig::default());
        let profiles = ProfileRegistry::new();
        let config = DemographicPipelineConfig::default();
        // Users 0..10 are young women (click item 1); 10..20 older men
        // (click item 2).
        for u in 0..10u64 {
            profiles.set(u, profile(0, 25));
            profiles.set(10 + u, profile(1, 45));
        }
        let mut actions = Vec::new();
        for u in 0..10u64 {
            actions.push(UserAction::new(u, 1, ActionType::Click, u));
            actions.push(UserAction::new(10 + u, 2, ActionType::Click, u));
        }
        let feed = TopicFeed::new(4, &actions);
        let topo =
            build_demographic_topology(feed.spout(), profiles, store.clone(), config.clone(), 4, 4)
                .expect("valid topology");
        feed.drain(topo.launch());

        let scheme = GroupScheme::default();
        let women = scheme.group_of(&profile(0, 25));
        let men = scheme.group_of(&profile(1, 45));
        let hot_women = hot_items(&store, women, &config, 1_000, 3, &FxHashSet::default());
        let hot_men = hot_items(&store, men, &config, 1_000, 3, &FxHashSet::default());
        assert_eq!(hot_women.first(), Some(&(1, 20.0)), "{hot_women:?}");
        assert_eq!(hot_men.first(), Some(&(2, 20.0)), "{hot_men:?}");
        assert!(!hot_women.iter().any(|&(i, _)| i == 2));
    }

    #[test]
    fn zero_weight_actions_ignored() {
        let store = TdStore::new(StoreConfig::default());
        let profiles = ProfileRegistry::new();
        profiles.set(1, profile(0, 25));
        let config = DemographicPipelineConfig::default();
        let feed = TopicFeed::new(4, &[UserAction::new(1, 9, ActionType::Impression, 0)]);
        let topo =
            build_demographic_topology(feed.spout(), profiles, store.clone(), config.clone(), 2, 2)
                .unwrap();
        feed.drain(topo.launch());
        let group = GroupScheme::default().group_of(&profile(0, 25));
        assert!(hot_items(&store, group, &config, 0, 5, &FxHashSet::default()).is_empty());
    }

    #[test]
    fn windowed_group_hotness_expires() {
        let store = TdStore::new(StoreConfig::default());
        let profiles = ProfileRegistry::new();
        profiles.set(1, profile(0, 25));
        let config = DemographicPipelineConfig {
            window: Some(crate::cf::counts::WindowConfig {
                session_ms: 1_000,
                sessions: 2,
            }),
            ..Default::default()
        };
        let feed = TopicFeed::new(4, &[UserAction::new(1, 9, ActionType::Click, 0)]);
        let topo =
            build_demographic_topology(feed.spout(), profiles, store.clone(), config.clone(), 1, 1)
                .unwrap();
        feed.drain(topo.launch());
        let group = GroupScheme::default().group_of(&profile(0, 25));
        assert!(!hot_items(&store, group, &config, 500, 5, &FxHashSet::default()).is_empty());
        // Far later the windowed count is zero.
        assert!(hot_items(&store, group, &config, 60_000, 5, &FxHashSet::default()).is_empty());
    }
}
