//! Content-based recommendation (CB).
//!
//! The paper uses CB where "the new items keep appearing, and the life
//! span of items is short" — news — because CF needs co-occurrence data a
//! brand-new item does not have. Items are tag vectors; a user profile is
//! the exponentially decayed, rating-weighted sum of the tag vectors of
//! items the user engaged with. Scoring is cosine between profile and item
//! vector, served from an inverted tag index so fresh items are
//! recommendable the moment they are registered.

use crate::action::{ActionWeights, UserAction};
use crate::catalog::{ItemCatalog, TagId};
use crate::types::{FxHashMap, FxHashSet, ItemId, Timestamp, UserId};

/// One user's interest profile.
#[derive(Debug, Clone, Default)]
struct UserProfile {
    /// tag → interest weight.
    tags: FxHashMap<TagId, f64>,
    /// Items already engaged with (excluded from recommendation).
    seen: FxHashSet<ItemId>,
    /// Time of the last profile update, for decay (`None` = never).
    last_update: Option<Timestamp>,
}

/// Configuration of the content-based recommender.
#[derive(Debug, Clone)]
pub struct CbConfig {
    /// Implicit-feedback weights shared with CF.
    pub weights: ActionWeights,
    /// Profile half-life: after this long without activity a tag weight
    /// halves. Captures "users' real-time demands fade away as time goes
    /// on".
    pub half_life_ms: u64,
    /// Profile size cap: only the strongest tags are kept.
    pub max_profile_tags: usize,
}

impl Default for CbConfig {
    fn default() -> Self {
        CbConfig {
            weights: ActionWeights::default(),
            half_life_ms: 2 * 60 * 60 * 1000, // 2 hours: news-scale decay
            max_profile_tags: 64,
        }
    }
}

/// The content-based recommender.
pub struct ContentBased {
    config: CbConfig,
    catalog: ItemCatalog,
    /// item → L2-normalised tag vector.
    item_vectors: FxHashMap<ItemId, Vec<(TagId, f64)>>,
    /// tag → items carrying it (inverted index).
    tag_index: FxHashMap<TagId, Vec<ItemId>>,
    profiles: FxHashMap<UserId, UserProfile>,
}

impl ContentBased {
    /// New recommender over a shared catalog.
    pub fn new(config: CbConfig, catalog: ItemCatalog) -> Self {
        ContentBased {
            config,
            catalog,
            item_vectors: FxHashMap::default(),
            tag_index: FxHashMap::default(),
            profiles: FxHashMap::default(),
        }
    }

    /// Registers an item from its catalog metadata (call when the item is
    /// published). Items without tags are ignored.
    pub fn register_item(&mut self, item: ItemId) {
        let Some(meta) = self.catalog.get(item) else {
            return;
        };
        let norm: f64 = meta.tags.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
        if norm == 0.0 {
            return;
        }
        let vector: Vec<(TagId, f64)> = meta.tags.iter().map(|&(tag, w)| (tag, w / norm)).collect();
        if self.item_vectors.insert(item, vector.clone()).is_none() {
            for (tag, _) in vector {
                self.tag_index.entry(tag).or_default().push(item);
            }
        }
    }

    /// Removes an expired item (news dies fast).
    pub fn retire_item(&mut self, item: ItemId) {
        if let Some(vector) = self.item_vectors.remove(&item) {
            for (tag, _) in vector {
                if let Some(items) = self.tag_index.get_mut(&tag) {
                    items.retain(|&i| i != item);
                }
            }
        }
    }

    fn decay(profile: &mut UserProfile, now: Timestamp, half_life_ms: u64) {
        match profile.last_update {
            None => profile.last_update = Some(now),
            Some(last) if now <= last => {}
            Some(last) => {
                let dt = (now - last) as f64;
                let factor = 0.5f64.powf(dt / half_life_ms as f64);
                profile.tags.retain(|_, w| {
                    *w *= factor;
                    *w > 1e-6
                });
                profile.last_update = Some(now);
            }
        }
    }

    /// Feeds one action: decays the profile to `action.timestamp` and adds
    /// the item's tag vector scaled by the action weight.
    pub fn process(&mut self, action: &UserAction) {
        let weight = self.config.weights.weight(action.action);
        let profile = self.profiles.entry(action.user).or_default();
        Self::decay(profile, action.timestamp, self.config.half_life_ms);
        profile.seen.insert(action.item);
        if weight <= 0.0 {
            return;
        }
        let Some(vector) = self.item_vectors.get(&action.item) else {
            return;
        };
        for &(tag, w) in vector {
            *profile.tags.entry(tag).or_insert(0.0) += weight * w;
        }
        // Cap profile size: keep the strongest tags.
        if profile.tags.len() > self.config.max_profile_tags {
            let mut entries: Vec<(TagId, f64)> =
                profile.tags.iter().map(|(&t, &w)| (t, w)).collect();
            entries.sort_by(|a, b| b.1.total_cmp(&a.1));
            entries.truncate(self.config.max_profile_tags);
            profile.tags = entries.into_iter().collect();
        }
    }

    /// Top-`n` items by profile–item cosine, excluding items the user has
    /// already engaged with.
    pub fn recommend(&self, user: UserId, n: usize) -> Vec<(ItemId, f64)> {
        let Some(profile) = self.profiles.get(&user) else {
            return Vec::new();
        };
        if profile.tags.is_empty() {
            return Vec::new();
        }
        let profile_norm: f64 = profile.tags.values().map(|w| w * w).sum::<f64>().sqrt();
        // Gather candidates via the inverted index: dot products accumulate
        // per item; item vectors are unit length, so score = dot / |profile|.
        let mut dots: FxHashMap<ItemId, f64> = FxHashMap::default();
        for (&tag, &weight) in &profile.tags {
            if let Some(items) = self.tag_index.get(&tag) {
                for &item in items {
                    if profile.seen.contains(&item) {
                        continue;
                    }
                    let item_w = self.item_vectors[&item]
                        .iter()
                        .find(|&&(t, _)| t == tag)
                        .map(|&(_, w)| w)
                        .unwrap_or(0.0);
                    *dots.entry(item).or_insert(0.0) += weight * item_w;
                }
            }
        }
        let mut scored: Vec<(ItemId, f64)> = dots
            .into_iter()
            .map(|(item, dot)| (item, dot / profile_norm))
            .filter(|&(_, s)| s > 0.0)
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(n);
        scored
    }

    /// Items `user` has engaged with (empty for unknown users). The
    /// blended engine excludes these from its demographic complement.
    pub fn seen_items(&self, user: UserId) -> impl Iterator<Item = ItemId> + '_ {
        self.profiles
            .get(&user)
            .into_iter()
            .flat_map(|p| p.seen.iter().copied())
    }

    /// Number of registered (live) items.
    pub fn item_count(&self) -> usize {
        self.item_vectors.len()
    }

    /// Number of users with a profile.
    pub fn user_count(&self) -> usize {
        self.profiles.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionType;
    use crate::catalog::ItemMeta;

    fn setup() -> ContentBased {
        let catalog = ItemCatalog::new();
        // tags: 1 = politics, 2 = sports, 3 = tech
        catalog.upsert(10, meta(vec![(1, 1.0)]));
        catalog.upsert(11, meta(vec![(1, 0.8), (3, 0.2)]));
        catalog.upsert(20, meta(vec![(2, 1.0)]));
        let mut cb = ContentBased::new(CbConfig::default(), catalog);
        for item in [10, 11, 20] {
            cb.register_item(item);
        }
        cb
    }

    fn meta(tags: Vec<(TagId, f64)>) -> ItemMeta {
        ItemMeta {
            category: 0,
            price: 0.0,
            tags,
        }
    }

    fn read(user: UserId, item: ItemId, ts: u64) -> UserAction {
        UserAction::new(user, item, ActionType::Read, ts)
    }

    #[test]
    fn recommends_by_content_affinity() {
        let mut cb = setup();
        cb.process(&read(1, 10, 0)); // politics reader
        let recs = cb.recommend(1, 5);
        assert_eq!(recs[0].0, 11, "politics-tagged item first: {recs:?}");
        assert!(recs.iter().all(|&(i, _)| i != 10), "seen item excluded");
    }

    #[test]
    fn fresh_item_recommendable_immediately() {
        let mut cb = setup();
        cb.process(&read(1, 10, 0));
        // Breaking news arrives with a politics tag.
        cb.catalog.upsert(99, meta(vec![(1, 1.0)]));
        cb.register_item(99);
        let recs = cb.recommend(1, 5);
        assert!(
            recs.iter().any(|&(i, _)| i == 99),
            "new item missing: {recs:?}"
        );
    }

    #[test]
    fn retired_item_disappears() {
        let mut cb = setup();
        cb.process(&read(1, 10, 0));
        cb.retire_item(11);
        let recs = cb.recommend(1, 5);
        assert!(recs.iter().all(|&(i, _)| i != 11));
    }

    #[test]
    fn profile_decays_toward_recent_interest() {
        let mut cb = setup();
        let half_life = cb.config.half_life_ms;
        cb.process(&read(1, 10, 0)); // politics
                                     // Much later (many half-lives), the user reads sports.
        cb.process(&read(1, 20, half_life * 20));
        // Another politics item and another sports item compete.
        cb.catalog.upsert(30, meta(vec![(1, 1.0)]));
        cb.catalog.upsert(40, meta(vec![(2, 1.0)]));
        cb.register_item(30);
        cb.register_item(40);
        let recs = cb.recommend(1, 5);
        assert_eq!(recs[0].0, 40, "recent sports interest dominates: {recs:?}");
    }

    #[test]
    fn unknown_user_or_empty_profile_gives_nothing() {
        let cb = setup();
        assert!(cb.recommend(42, 5).is_empty());
    }

    #[test]
    fn impression_marks_seen_but_adds_no_interest() {
        let mut cb = setup();
        cb.process(&UserAction::new(1, 10, ActionType::Impression, 0));
        assert!(cb.recommend(1, 5).is_empty(), "no interest accumulated");
        cb.process(&read(1, 11, 1));
        let recs = cb.recommend(1, 5);
        assert!(recs.iter().all(|&(i, _)| i != 10), "impressed item is seen");
    }

    #[test]
    fn scores_bounded_by_one() {
        let mut cb = setup();
        for ts in 0..10 {
            cb.process(&read(1, 10, ts));
        }
        for (_, score) in cb.recommend(1, 5) {
            assert!(score <= 1.0 + 1e-9, "cosine must stay ≤ 1, got {score}");
        }
    }

    #[test]
    fn register_is_idempotent() {
        let mut cb = setup();
        cb.register_item(10);
        cb.register_item(10);
        assert_eq!(cb.item_count(), 3);
        assert_eq!(cb.tag_index[&1].iter().filter(|&&i| i == 10).count(), 1);
    }
}
