//! The content-based pipeline (the `CBBolt` of Fig. 6).
//!
//! Grouped by `user`, the profile bolt folds each action's item tag
//! vector into the user's decayed interest profile held in TDStore
//! (`cbp:<user>`), alongside the user's seen-items set (`cbn:<user>`). The
//! query side scores live items against the stored profile through an
//! inverted tag index derived from the shared catalog — so a brand-new
//! item is recommendable the moment it is registered.

use crate::action::{ActionType, ActionWeights};
use crate::catalog::{ItemCatalog, TagId};
use crate::topology::state::{
    cb_profile, cb_seen, decode_ids, decode_profile, encode_ids, encode_profile,
};
use crate::types::{FxHashMap, FxHashSet, ItemId, UserId};
use parking_lot::RwLock;
use std::sync::Arc;
use tdstore::TdStore;
use tstorm::prelude::*;

/// CB pipeline parameters.
#[derive(Debug, Clone)]
pub struct CbPipelineConfig {
    /// Implicit-feedback weights.
    pub weights: ActionWeights,
    /// Profile half-life in stream ms.
    pub half_life_ms: u64,
    /// Profile size cap.
    pub max_profile_tags: usize,
}

impl Default for CbPipelineConfig {
    fn default() -> Self {
        CbPipelineConfig {
            weights: ActionWeights::default(),
            half_life_ms: 2 * 60 * 60 * 1000,
            max_profile_tags: 64,
        }
    }
}

/// The shared, registration-driven tag index (catalog infrastructure —
/// item publication makes an item scoreable instantly).
#[derive(Clone, Default)]
pub struct TagIndex {
    inner: Arc<RwLock<TagIndexInner>>,
}

#[derive(Default)]
struct TagIndexInner {
    /// item → L2-normalised tag vector.
    vectors: FxHashMap<ItemId, Vec<(TagId, f64)>>,
    /// tag → items carrying it.
    by_tag: FxHashMap<TagId, Vec<ItemId>>,
}

impl TagIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an item from the catalog (idempotent).
    pub fn register(&self, catalog: &ItemCatalog, item: ItemId) {
        let Some(meta) = catalog.get(item) else {
            return;
        };
        let norm: f64 = meta.tags.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
        if norm == 0.0 {
            return;
        }
        let vector: Vec<(TagId, f64)> = meta.tags.iter().map(|&(t, w)| (t, w / norm)).collect();
        let mut inner = self.inner.write();
        if inner.vectors.insert(item, vector.clone()).is_none() {
            for (tag, _) in vector {
                inner.by_tag.entry(tag).or_default().push(item);
            }
        }
    }

    /// Removes a retired item.
    pub fn retire(&self, item: ItemId) {
        let mut inner = self.inner.write();
        if let Some(vector) = inner.vectors.remove(&item) {
            for (tag, _) in vector {
                if let Some(items) = inner.by_tag.get_mut(&tag) {
                    items.retain(|&i| i != item);
                }
            }
        }
    }

    /// Number of live items.
    pub fn len(&self) -> usize {
        self.inner.read().vectors.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn item_tag_weight(&self, item: ItemId, tag: TagId) -> f64 {
        self.inner
            .read()
            .vectors
            .get(&item)
            .and_then(|v| v.iter().find(|&&(t, _)| t == tag).map(|&(_, w)| w))
            .unwrap_or(0.0)
    }

    /// Tag vector of an item (empty when unregistered).
    pub fn vector(&self, item: ItemId) -> Vec<(TagId, f64)> {
        self.inner
            .read()
            .vectors
            .get(&item)
            .cloned()
            .unwrap_or_default()
    }
}

/// The profile-maintenance bolt (grouped by `user`).
pub struct CbProfileBolt {
    store: TdStore,
    index: TagIndex,
    config: CbPipelineConfig,
}

impl CbProfileBolt {
    /// New bolt over the shared store and tag index.
    pub fn new(store: TdStore, index: TagIndex, config: CbPipelineConfig) -> Self {
        CbProfileBolt {
            store,
            index,
            config,
        }
    }
}

impl Bolt for CbProfileBolt {
    fn execute(&mut self, tuple: &Tuple, _c: &mut BoltCollector) -> Result<(), String> {
        let user = tuple.u64("user");
        let item = tuple.u64("item");
        let code = tuple.u64("action") as u8;
        let ts = tuple.u64("ts");
        let action = ActionType::from_code(code).ok_or("bad action code")?;
        let weight = self.config.weights.weight(action);
        let map_err = |e: tdstore::StoreError| e.to_string();

        // Mark seen.
        self.store
            .update(&cb_seen(user), |raw| {
                let mut items = raw.map(decode_ids).unwrap_or_default();
                if !items.contains(&item) {
                    items.push(item);
                }
                Some(encode_ids(&items))
            })
            .map_err(map_err)?;

        if weight <= 0.0 {
            return Ok(());
        }
        let vector = self.index.vector(item);
        if vector.is_empty() {
            return Ok(());
        }
        let half_life = self.config.half_life_ms as f64;
        let cap = self.config.max_profile_tags;
        self.store
            .update(&cb_profile(user), |raw| {
                let (last, mut tags) = raw.map(decode_profile).unwrap_or((0, Vec::new()));
                // Decay toward the new timestamp (a non-empty tag list
                // means `last` is a real observation time, even at 0).
                if !tags.is_empty() && ts > last {
                    let factor = 0.5f64.powf((ts - last) as f64 / half_life);
                    tags.retain_mut(|(_, w)| {
                        *w *= factor;
                        *w > 1e-6
                    });
                }
                for &(tag, w) in &vector {
                    match tags.iter_mut().find(|(t, _)| *t == tag) {
                        Some(slot) => slot.1 += weight * w,
                        None => tags.push((tag, weight * w)),
                    }
                }
                if tags.len() > cap {
                    tags.sort_by(|a, b| b.1.total_cmp(&a.1));
                    tags.truncate(cap);
                }
                Some(encode_profile(ts.max(last), &tags))
            })
            .map_err(map_err)?;
        Ok(())
    }
}

/// Builds the CB topology over the spouts `spout` makes (a
/// [`ReplayableSpout`](crate::topology::ReplayableSpout) reading an
/// action topic).
pub fn build_cb_topology<S, F>(
    spout: F,
    store: TdStore,
    index: TagIndex,
    config: CbPipelineConfig,
    parallelism: usize,
) -> Result<tstorm::topology::Topology, TopologyError>
where
    S: Spout + 'static,
    F: Fn() -> S + Send + Sync + 'static,
{
    let mut builder = TopologyBuilder::new();
    builder.set_spout("spout", spout, 1);
    builder
        .set_bolt(
            "cb_profile",
            move || CbProfileBolt::new(store.clone(), index.clone(), config.clone()),
            parallelism,
        )
        .fields_grouping("spout", ["user"]);
    builder.build()
}

/// Query side: scores live items against the stored profile.
pub struct CbQuery {
    store: TdStore,
    index: TagIndex,
}

impl CbQuery {
    /// New query engine.
    pub fn new(store: TdStore, index: TagIndex) -> Self {
        CbQuery { store, index }
    }

    /// Top-`n` unseen items by profile–item cosine.
    pub fn recommend(&self, user: UserId, n: usize) -> Vec<(ItemId, f64)> {
        let Ok(Some(raw)) = self.store.get(&cb_profile(user)) else {
            return Vec::new();
        };
        let (_, tags) = decode_profile(&raw);
        if tags.is_empty() {
            return Vec::new();
        }
        let seen: FxHashSet<ItemId> = self
            .store
            .get(&cb_seen(user))
            .ok()
            .flatten()
            .map(|raw| decode_ids(&raw).into_iter().collect())
            .unwrap_or_default();
        let norm: f64 = tags.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
        let mut dots: FxHashMap<ItemId, f64> = FxHashMap::default();
        {
            let inner = self.index.inner.read();
            for &(tag, weight) in &tags {
                if let Some(items) = inner.by_tag.get(&tag) {
                    for &item in items {
                        if seen.contains(&item) {
                            continue;
                        }
                        *dots.entry(item).or_insert(0.0) += weight;
                    }
                }
            }
        }
        // Second pass for exact item weights (kept simple and allocation
        // free in the hot loop above; exact dot uses per-item tag weight).
        let mut scored: Vec<(ItemId, f64)> = dots
            .into_keys()
            .map(|item| {
                let dot: f64 = tags
                    .iter()
                    .map(|&(tag, w)| w * self.index.item_tag_weight(item, tag))
                    .sum();
                (item, dot / norm)
            })
            .filter(|&(_, s)| s > 0.0)
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(n);
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::UserAction;
    use crate::catalog::ItemMeta;
    use crate::topology::replay::test_feed::TopicFeed;
    use tdstore::StoreConfig;

    fn catalog() -> ItemCatalog {
        let c = ItemCatalog::new();
        c.upsert(1, meta(vec![(10, 1.0)]));
        c.upsert(2, meta(vec![(10, 0.7), (11, 0.3)]));
        c.upsert(3, meta(vec![(20, 1.0)]));
        c
    }

    fn meta(tags: Vec<(TagId, f64)>) -> ItemMeta {
        ItemMeta {
            category: 0,
            price: 0.0,
            tags,
        }
    }

    fn run(actions: Vec<UserAction>) -> (TdStore, TagIndex) {
        let catalog = catalog();
        let index = TagIndex::new();
        for item in [1, 2, 3] {
            index.register(&catalog, item);
        }
        let store = TdStore::new(StoreConfig::default());
        let feed = TopicFeed::new(4, &actions);
        let topo = build_cb_topology(
            feed.spout(),
            store.clone(),
            index.clone(),
            CbPipelineConfig::default(),
            3,
        )
        .expect("valid topology");
        feed.drain(topo.launch());
        (store, index)
    }

    #[test]
    fn profile_drives_recommendations() {
        let (store, index) = run(vec![UserAction::new(7, 1, ActionType::Read, 100)]);
        let query = CbQuery::new(store, index);
        let recs = query.recommend(7, 5);
        assert_eq!(recs.first().map(|r| r.0), Some(2), "tag-10 item: {recs:?}");
        assert!(recs.iter().all(|&(i, _)| i != 1), "seen item excluded");
        assert!(recs.iter().all(|&(i, _)| i != 3), "unrelated tag excluded");
    }

    #[test]
    fn fresh_item_instantly_recommendable() {
        let (store, index) = run(vec![UserAction::new(7, 1, ActionType::Read, 100)]);
        let catalog = catalog();
        catalog.upsert(99, meta(vec![(10, 1.0)]));
        index.register(&catalog, 99);
        let query = CbQuery::new(store, index);
        let recs = query.recommend(7, 5);
        assert!(recs.iter().any(|&(i, _)| i == 99), "{recs:?}");
    }

    #[test]
    fn retired_item_disappears_from_results() {
        let (store, index) = run(vec![UserAction::new(7, 1, ActionType::Read, 100)]);
        index.retire(2);
        let query = CbQuery::new(store, index);
        assert!(query.recommend(7, 5).is_empty());
    }

    #[test]
    fn unknown_user_empty() {
        let (store, index) = run(vec![]);
        let query = CbQuery::new(store, index);
        assert!(query.recommend(4242, 5).is_empty());
    }

    #[test]
    fn profile_decays_in_store() {
        // Read politics at t0, then sports much later: sports must win.
        let half = CbPipelineConfig::default().half_life_ms;
        let (store, index) = run(vec![
            UserAction::new(7, 1, ActionType::Read, 0),
            UserAction::new(7, 3, ActionType::Read, half * 20),
        ]);
        let catalog = catalog();
        catalog.upsert(50, meta(vec![(10, 1.0)])); // politics-like
        catalog.upsert(51, meta(vec![(20, 1.0)])); // sports-like
        index.register(&catalog, 50);
        index.register(&catalog, 51);
        let query = CbQuery::new(store, index);
        let recs = query.recommend(7, 5);
        assert_eq!(recs.first().map(|r| r.0), Some(51), "{recs:?}");
    }
}
