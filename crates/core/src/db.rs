//! Demographic-based recommendation (DB) and the data sparsity solution
//! (§4.2).
//!
//! Users are clustered into demographic groups by properties (gender, age
//! band, region); each group's user–item matrix is denser than the global
//! one. Per group the algorithm tracks **hot items** over a sliding
//! window; for cold or inactive users — or when CF/CB confidence is low —
//! the group's hot items complement the recommendation list. Users with no
//! demographic information fall back to the global group. Each group keeps
//! its [`HOT_LIST_LEN`] best items as its counts change, so a page does
//! not rank the catalog.

use crate::action::{ActionWeights, UserAction};
use crate::cf::counts::{WindowConfig, WindowedCounts};
use crate::types::{keep_least, FxHashMap, FxHashSet, ItemId, Timestamp, UserId};
use std::cmp::Ordering;

/// Demographic attributes of a user. Unknown attributes use the
/// `UNKNOWN_*` sentinels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DemographicProfile {
    /// 0 = female, 1 = male, `UNKNOWN_GENDER` = unknown.
    pub gender: u8,
    /// Age in years; `UNKNOWN_AGE` = unknown.
    pub age: u8,
    /// Region code; `UNKNOWN_REGION` = unknown.
    pub region: u16,
}

/// Sentinel for unknown gender.
pub const UNKNOWN_GENDER: u8 = u8::MAX;
/// Sentinel for unknown age.
pub const UNKNOWN_AGE: u8 = u8::MAX;
/// Sentinel for unknown region.
pub const UNKNOWN_REGION: u16 = u16::MAX;

impl DemographicProfile {
    /// A fully unknown profile (maps to the global group).
    pub fn unknown() -> Self {
        DemographicProfile {
            gender: UNKNOWN_GENDER,
            age: UNKNOWN_AGE,
            region: UNKNOWN_REGION,
        }
    }

    /// Age band: decade buckets (0–9 → 0, 10–19 → 1, ...).
    pub fn age_band(&self) -> u8 {
        if self.age == UNKNOWN_AGE {
            UNKNOWN_AGE
        } else {
            self.age / 10
        }
    }

    /// Whether any attribute is known.
    pub fn is_known(&self) -> bool {
        self.gender != UNKNOWN_GENDER || self.age != UNKNOWN_AGE || self.region != UNKNOWN_REGION
    }
}

/// Identifier of a demographic group (packed attributes).
pub type GroupId = u64;

/// The global (catch-all) group.
pub const GLOBAL_GROUP: GroupId = u64::MAX;

/// Which attributes define a group — the clustering granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupScheme {
    /// Split groups by gender.
    pub by_gender: bool,
    /// Split groups by age band.
    pub by_age_band: bool,
    /// Split groups by region.
    pub by_region: bool,
}

impl Default for GroupScheme {
    fn default() -> Self {
        GroupScheme {
            by_gender: true,
            by_age_band: true,
            by_region: false,
        }
    }
}

impl GroupScheme {
    /// Group of a profile under this scheme. Unknown profiles map to the
    /// global group.
    pub fn group_of(&self, profile: &DemographicProfile) -> GroupId {
        if !profile.is_known() {
            return GLOBAL_GROUP;
        }
        let g = if self.by_gender {
            profile.gender as u64
        } else {
            0
        };
        let a = if self.by_age_band {
            profile.age_band() as u64
        } else {
            0
        };
        let r = if self.by_region {
            profile.region as u64
        } else {
            0
        };
        (g << 40) | (a << 24) | r
    }
}

/// Length of the hot list each group keeps, in both DB forms: its
/// [`HOT_LIST_LEN`] best items by [`hot_order`]. A page of a few dozen
/// items is answered from it without ranking the catalog.
pub const HOT_LIST_LEN: usize = 64;

/// The order hot items rank in: count descending, then item ascending.
pub fn hot_order(a: &(ItemId, f64), b: &(ItemId, f64)) -> Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// The full ranking: the `n` best of `items` by [`hot_order`], skipping
/// `exclude`. A hot list is built from it, and a query its list cannot
/// answer falls back to it.
pub(crate) fn rank_hot(
    items: impl Iterator<Item = (ItemId, f64)>,
    exclude: &FxHashSet<ItemId>,
    n: usize,
) -> Vec<(ItemId, f64)> {
    let mut ranked: Vec<(ItemId, f64)> =
        items.filter(|(item, _)| !exclude.contains(item)).collect();
    keep_least(&mut ranked, n, hot_order);
    ranked
}

/// One group's windowed hot-item counts and the hot list kept from them:
/// the [`HOT_LIST_LEN`] best entries of `counts` in [`hot_order`]. A list
/// shorter than that holds every counted item.
#[derive(Debug, Clone)]
struct GroupHot {
    counts: WindowedCounts<ItemId>,
    list: Vec<(ItemId, f64)>,
}

impl GroupHot {
    fn new(window: Option<WindowConfig>) -> Self {
        GroupHot {
            counts: WindowedCounts::new(window),
            list: Vec::new(),
        }
    }

    /// Counts `weight > 0` for `item` and keeps the list exact: an expiry
    /// can lower any count, so it rebuilds the list; otherwise only
    /// `item`'s count grew, so only its entry can move, and only up.
    fn add(&mut self, item: ItemId, weight: f64, ts: Timestamp) {
        if self.counts.add(item, weight, ts) {
            self.list = rank_hot(self.iter(), &FxHashSet::default(), HOT_LIST_LEN);
            return;
        }
        // A count of 0 is an item whose delta fell outside the window.
        let entry = (item, self.counts.get(&item));
        if entry.1 == 0.0 {
            return;
        }
        // An entry that ranks below a full list's last was not listed
        // before either: its count only grew.
        if self.list.len() == HOT_LIST_LEN
            && self
                .list
                .last()
                .is_some_and(|last| hot_order(&entry, last).is_gt())
        {
            return;
        }
        if let Some(at) = self.list.iter().position(|&(listed, _)| listed == item) {
            self.list.remove(at);
        }
        let at = self
            .list
            .partition_point(|listed| hot_order(listed, &entry).is_lt());
        self.list.insert(at, entry);
        self.list.truncate(HOT_LIST_LEN);
    }

    fn iter(&self) -> impl Iterator<Item = (ItemId, f64)> + '_ {
        self.counts.iter().map(|(&item, &count)| (item, count))
    }

    /// The `n` best items not in `exclude`: a walk of the list, or the
    /// full ranking when the exclusions leave fewer than `n` in a list
    /// that does not hold every item.
    fn hot_items(&self, n: usize, exclude: &FxHashSet<ItemId>) -> Vec<(ItemId, f64)> {
        let page: Vec<(ItemId, f64)> = self
            .list
            .iter()
            .filter(|(item, _)| !exclude.contains(item))
            .take(n)
            .copied()
            .collect();
        if page.len() < n && self.list.len() < self.counts.len() {
            return rank_hot(self.iter(), exclude, n);
        }
        page
    }
}

/// The demographic-based recommender: per-group hot-item counts over a
/// sliding window, plus the global group.
#[derive(Debug, Clone)]
pub struct DemographicRec {
    scheme: GroupScheme,
    weights: ActionWeights,
    groups: FxHashMap<GroupId, GroupHot>,
    global: GroupHot,
    window: Option<WindowConfig>,
    profiles: FxHashMap<UserId, DemographicProfile>,
}

impl DemographicRec {
    /// New recommender with the given grouping scheme and window.
    pub fn new(scheme: GroupScheme, weights: ActionWeights, window: Option<WindowConfig>) -> Self {
        DemographicRec {
            scheme,
            weights,
            groups: FxHashMap::default(),
            global: GroupHot::new(window),
            window,
            profiles: FxHashMap::default(),
        }
    }

    /// Registers a user's demographic profile (from the account system).
    pub fn set_profile(&mut self, user: UserId, profile: DemographicProfile) {
        self.profiles.insert(user, profile);
    }

    /// The profile of a user (unknown when never registered).
    pub fn profile(&self, user: UserId) -> DemographicProfile {
        self.profiles
            .get(&user)
            .copied()
            .unwrap_or_else(DemographicProfile::unknown)
    }

    /// The group a user belongs to.
    pub fn group_of(&self, user: UserId) -> GroupId {
        self.scheme.group_of(&self.profile(user))
    }

    /// Feeds one action into the hot-item statistics of the user's group
    /// and the global group.
    pub fn process(&mut self, action: &UserAction) {
        let weight = self.weights.weight(action.action);
        if weight <= 0.0 {
            return;
        }
        let group = self.group_of(action.user);
        if group != GLOBAL_GROUP {
            self.groups
                .entry(group)
                .or_insert_with(|| GroupHot::new(self.window))
                .add(action.item, weight, action.timestamp);
        }
        self.global.add(action.item, weight, action.timestamp);
    }

    /// Top-`n` hot items of the user's group, excluding `exclude`. Falls
    /// back to the global group when the user's group is unknown or has no
    /// data — "for the user who does not have the information like gender
    /// or age, we will use the global demographic group".
    pub fn hot_items(
        &self,
        user: UserId,
        n: usize,
        exclude: &FxHashSet<ItemId>,
    ) -> Vec<(ItemId, f64)> {
        let group = self.group_of(user);
        let hot = match self.groups.get(&group) {
            Some(g) if group != GLOBAL_GROUP && !g.counts.is_empty() => g,
            _ => &self.global,
        };
        hot.hot_items(n, exclude)
    }

    /// Number of non-global groups with data.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionType;

    fn profile(gender: u8, age: u8) -> DemographicProfile {
        DemographicProfile {
            gender,
            age,
            region: 0,
        }
    }

    fn rec() -> DemographicRec {
        DemographicRec::new(GroupScheme::default(), ActionWeights::default(), None)
    }

    fn click(user: UserId, item: ItemId, ts: u64) -> UserAction {
        UserAction::new(user, item, ActionType::Click, ts)
    }

    #[test]
    fn groups_pack_distinctly() {
        let s = GroupScheme::default();
        let a = s.group_of(&profile(0, 25));
        let b = s.group_of(&profile(1, 25));
        let c = s.group_of(&profile(0, 35));
        assert!(a != b && a != c && b != c);
        // Same decade → same group.
        assert_eq!(a, s.group_of(&profile(0, 29)));
        assert_eq!(s.group_of(&DemographicProfile::unknown()), GLOBAL_GROUP);
    }

    #[test]
    fn hot_items_are_group_specific() {
        let mut r = rec();
        r.set_profile(1, profile(0, 25));
        r.set_profile(2, profile(1, 45));
        // Group A likes item 10, group B likes item 20.
        for ts in 0..5 {
            r.process(&click(1, 10, ts));
            r.process(&click(2, 20, ts));
        }
        let hot_a = r.hot_items(1, 1, &FxHashSet::default());
        let hot_b = r.hot_items(2, 1, &FxHashSet::default());
        assert_eq!(hot_a[0].0, 10);
        assert_eq!(hot_b[0].0, 20);
    }

    #[test]
    fn unknown_user_falls_back_to_global() {
        let mut r = rec();
        r.set_profile(1, profile(0, 25));
        for ts in 0..3 {
            r.process(&click(1, 10, ts));
        }
        // User 999 has no profile → global hot list.
        let hot = r.hot_items(999, 5, &FxHashSet::default());
        assert_eq!(hot[0].0, 10);
    }

    #[test]
    fn known_user_with_empty_group_falls_back_to_global() {
        let mut r = rec();
        r.set_profile(1, profile(0, 25));
        r.process(&click(1, 10, 0));
        // User 2 is in a different, empty group.
        r.set_profile(2, profile(1, 75));
        let hot = r.hot_items(2, 5, &FxHashSet::default());
        assert_eq!(hot[0].0, 10, "empty group falls back to global");
    }

    #[test]
    fn exclusion_respected() {
        let mut r = rec();
        r.set_profile(1, profile(0, 25));
        r.process(&click(1, 10, 0));
        r.process(&click(1, 11, 1));
        let mut exclude = FxHashSet::default();
        exclude.insert(10u64);
        let hot = r.hot_items(1, 5, &exclude);
        assert!(hot.iter().all(|&(i, _)| i != 10));
    }

    #[test]
    fn heavier_actions_rank_higher() {
        let mut r = rec();
        r.set_profile(1, profile(0, 25));
        r.process(&click(1, 10, 0));
        r.process(&UserAction::new(1, 11, ActionType::Purchase, 1));
        let hot = r.hot_items(1, 2, &FxHashSet::default());
        assert_eq!(hot[0].0, 11, "purchase outweighs click");
    }

    #[test]
    fn window_forgets_stale_hotness() {
        let mut r = DemographicRec::new(
            GroupScheme::default(),
            ActionWeights::default(),
            Some(WindowConfig {
                session_ms: 100,
                sessions: 2,
            }),
        );
        r.set_profile(1, profile(0, 25));
        r.process(&click(1, 10, 0));
        r.process(&click(1, 11, 1_000)); // session 10: item 10 expired
        let hot = r.hot_items(1, 5, &FxHashSet::default());
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].0, 11);
    }

    #[test]
    fn impressions_do_not_count_as_interest() {
        let mut r = rec();
        r.set_profile(1, profile(0, 25));
        r.process(&UserAction::new(1, 10, ActionType::Impression, 0));
        assert!(r.hot_items(1, 5, &FxHashSet::default()).is_empty());
    }
}
