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
//! hot-item counters in TDStore.

use crate::action::{ActionType, ActionWeights};
use crate::db::{DemographicProfile, GroupId, GroupScheme};
use crate::topology::state::{session_key, windowed_sum};
use crate::types::{FxHashMap, ItemId, UserId};
use parking_lot::RwLock;
use std::sync::Arc;
use tdstore::TdStore;
use tstorm::prelude::*;

/// TDStore keys for demographic statistics.
pub mod group_keys {
    use crate::db::GroupId;
    use crate::types::ItemId;

    /// Hot-item count base key for `(group, item)`.
    pub fn hot(group: GroupId, item: ItemId) -> Vec<u8> {
        let mut k = Vec::with_capacity(20);
        k.extend_from_slice(b"grp:");
        k.extend_from_slice(&group.to_le_bytes());
        k.extend_from_slice(&item.to_le_bytes());
        k
    }

    /// Prefix of all hot-item keys of one group.
    pub fn group_prefix(group: GroupId) -> Vec<u8> {
        let mut k = Vec::with_capacity(12);
        k.extend_from_slice(b"grp:");
        k.extend_from_slice(&group.to_le_bytes());
        k
    }
}

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

impl DemographicPipelineConfig {
    fn session_of(&self, ts: u64) -> u64 {
        self.window.map_or(u64::MAX, |w| w.session_of(ts))
    }

    fn window_sessions(&self) -> usize {
        self.window.map_or(0, |w| w.sessions)
    }
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
        collector.emit(vec![
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
/// hot-item counters, so TDStore sees no conflicting writers.
pub struct GroupCountBolt {
    store: TdStore,
    config: DemographicPipelineConfig,
}

impl GroupCountBolt {
    /// New stage-2 bolt.
    pub fn new(store: TdStore, config: DemographicPipelineConfig) -> Self {
        GroupCountBolt { store, config }
    }
}

impl Bolt for GroupCountBolt {
    fn execute(&mut self, tuple: &Tuple, _collector: &mut BoltCollector) -> Result<(), String> {
        let group = tuple.u64("group");
        let item = tuple.u64("item");
        let weight = tuple.f64("weight");
        let ts = tuple.u64("ts");
        let session = self.config.session_of(ts);
        self.store
            .incr_f64(&session_key(&group_keys::hot(group, item), session), weight)
            .map_err(|e| e.to_string())?;
        Ok(())
    }
}

/// Builds the two-stage demographic topology over an action channel.
pub fn build_demographic_topology(
    source: crossbeam::channel::Receiver<crate::action::UserAction>,
    profiles: ProfileRegistry,
    store: TdStore,
    config: DemographicPipelineConfig,
    stage1_tasks: usize,
    stage2_tasks: usize,
) -> Result<tstorm::topology::Topology, TopologyError> {
    let mut builder = TopologyBuilder::new();
    {
        let source = source.clone();
        builder.set_spout(
            "spout",
            move || crate::topology::bolts::ActionSpout::new(source.clone()),
            1,
        );
    }
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

/// Query side: top-`n` hot items of `group` at `now`.
pub fn hot_items(
    store: &TdStore,
    group: GroupId,
    config: &DemographicPipelineConfig,
    now: u64,
    n: usize,
) -> Vec<(ItemId, f64)> {
    let prefix = group_keys::group_prefix(group);
    let Ok(entries) = store.scan_prefix(&prefix) else {
        return Vec::new();
    };
    // Keys are `grp:<group><item>@<session>`; aggregate per item over the
    // window.
    let mut items: FxHashMap<ItemId, ()> = FxHashMap::default();
    for (key, _) in &entries {
        if key.len() >= prefix.len() + 8 {
            let item = u64::from_le_bytes(key[prefix.len()..prefix.len() + 8].try_into().unwrap());
            items.insert(item, ());
        }
    }
    let windows = config.window_sessions();
    let session = if windows == 0 {
        0
    } else {
        config.session_of(now)
    };
    let mut scored: Vec<(ItemId, f64)> = items
        .into_keys()
        .map(|item| {
            let count =
                windowed_sum(store, &group_keys::hot(group, item), session, windows).unwrap_or(0.0);
            (item, count)
        })
        .filter(|&(_, c)| c > 0.0)
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(n);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::UserAction;
    use crossbeam::channel::unbounded;
    use std::time::Duration;
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
        let (tx, rx) = unbounded();
        for u in 0..10u64 {
            tx.send(UserAction::new(u, 1, ActionType::Click, u))
                .unwrap();
            tx.send(UserAction::new(10 + u, 2, ActionType::Click, u))
                .unwrap();
        }
        drop(tx);
        let topo = build_demographic_topology(rx, profiles, store.clone(), config.clone(), 4, 4)
            .expect("valid topology");
        let handle = topo.launch();
        assert!(handle.wait_idle(Duration::from_secs(20)));
        handle.shutdown(Duration::from_secs(5));

        let scheme = GroupScheme::default();
        let women = scheme.group_of(&profile(0, 25));
        let men = scheme.group_of(&profile(1, 45));
        let hot_women = hot_items(&store, women, &config, 1_000, 3);
        let hot_men = hot_items(&store, men, &config, 1_000, 3);
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
        let (tx, rx) = unbounded();
        tx.send(UserAction::new(1, 9, ActionType::Impression, 0))
            .unwrap();
        drop(tx);
        let topo =
            build_demographic_topology(rx, profiles, store.clone(), config.clone(), 2, 2).unwrap();
        let handle = topo.launch();
        assert!(handle.wait_idle(Duration::from_secs(20)));
        handle.shutdown(Duration::from_secs(5));
        let group = GroupScheme::default().group_of(&profile(0, 25));
        assert!(hot_items(&store, group, &config, 0, 5).is_empty());
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
        let (tx, rx) = unbounded();
        tx.send(UserAction::new(1, 9, ActionType::Click, 0))
            .unwrap();
        drop(tx);
        let topo =
            build_demographic_topology(rx, profiles, store.clone(), config.clone(), 1, 1).unwrap();
        let handle = topo.launch();
        assert!(handle.wait_idle(Duration::from_secs(20)));
        handle.shutdown(Duration::from_secs(5));
        let group = GroupScheme::default().group_of(&profile(0, 25));
        assert!(!hot_items(&store, group, &config, 500, 5).is_empty());
        // Far later the windowed count is zero.
        assert!(hot_items(&store, group, &config, 60_000, 5).is_empty());
    }
}
