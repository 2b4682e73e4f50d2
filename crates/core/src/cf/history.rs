//! The user-behaviour-history layer (first layer of Fig. 4).
//!
//! Grouped by user id in the topology, this layer turns raw actions into
//! *rating deltas* and *co-rating deltas*: "According to a user's behavior
//! history, we can calculate the new rating given by the user for the item
//! and co-ratings for related item pairs. [...] We can identify these
//! changed ratings or co-ratings [...] by comparing the new ratings or
//! co-ratings with the old ones."

use crate::action::{co_rating, ActionWeights, UserAction};
use crate::types::{FxHashMap, ItemId, ItemPair, Timestamp, UserId};
use std::collections::VecDeque;

/// Per-item state inside one user's history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistoryEntry {
    /// Current rating = max action weight seen (the max-weight rule).
    pub rating: f64,
    /// Timestamp of the most recent action on this item.
    pub last_ts: Timestamp,
}

/// One user's behaviour history.
#[derive(Debug, Clone, Default)]
pub struct UserHistory {
    entries: FxHashMap<ItemId, HistoryEntry>,
    /// Items in most-recent-first order (for real-time personalised
    /// filtering, §4.3).
    recent: VecDeque<ItemId>,
}

impl UserHistory {
    /// Rating for an item (0 when never acted on).
    pub fn rating(&self, item: ItemId) -> f64 {
        self.entries.get(&item).map_or(0.0, |e| e.rating)
    }

    /// Whether the user has acted on the item.
    pub fn has_rated(&self, item: ItemId) -> bool {
        self.entries.contains_key(&item)
    }

    /// Most recent `k` items with their ratings, newest first.
    pub fn recent(&self, k: usize) -> impl Iterator<Item = (ItemId, f64)> + '_ {
        self.recent
            .iter()
            .take(k)
            .map(|&item| (item, self.rating(item)))
    }

    /// All rated items.
    pub fn items(&self) -> impl Iterator<Item = (&ItemId, &HistoryEntry)> {
        self.entries.iter()
    }

    /// Number of rated items.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn touch_recent(&mut self, item: ItemId, cap: usize) {
        if let Some(pos) = self.recent.iter().position(|&i| i == item) {
            self.recent.remove(pos);
        }
        self.recent.push_front(item);
        self.recent.truncate(cap);
    }
}

/// The deltas one action produces: what the next layers (`ItemCount`,
/// `PairCount` bolts) must apply.
#[derive(Debug, Clone, PartialEq)]
pub struct RatingUpdate {
    /// The item acted on.
    pub item: ItemId,
    /// `Δr_up`: change in the user's rating of `item`.
    pub delta_rating: f64,
    /// `Δco-rating(ip, iq)` per linked pair.
    pub pair_deltas: Vec<(ItemPair, f64)>,
    /// Event time of the action.
    pub timestamp: Timestamp,
}

/// Histories of all users, with the bounded recent-items list used by
/// personalised filtering.
#[derive(Debug, Clone)]
pub struct HistoryStore {
    users: FxHashMap<UserId, UserHistory>,
    /// Cap for per-user recent lists.
    recent_cap: usize,
}

impl HistoryStore {
    /// New store keeping up to `recent_cap` recent items per user.
    pub fn new(recent_cap: usize) -> Self {
        HistoryStore {
            users: FxHashMap::default(),
            recent_cap: recent_cap.max(1),
        }
    }

    /// One user's history (empty default when unseen).
    pub fn user(&self, user: UserId) -> Option<&UserHistory> {
        self.users.get(&user)
    }

    /// Number of users with history.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// Applies an action: computes the new rating (max-weight rule), the
    /// rating delta, and co-rating deltas against every other item the
    /// user rated within `linked_time_ms` of this action (the "linked
    /// time" of §4.1.4).
    pub fn apply(
        &mut self,
        action: &UserAction,
        weights: &ActionWeights,
        linked_time_ms: u64,
    ) -> RatingUpdate {
        let history = self.users.entry(action.user).or_default();
        let weight = weights.weight(action.action);
        let old = history.rating(action.item);
        let new = old.max(weight);
        let delta_rating = new - old;

        let mut pair_deltas = Vec::new();
        for (&other, entry) in history.entries.iter() {
            if other == action.item {
                continue;
            }
            // Two items are related only when rated together within the
            // linked time.
            if action.timestamp.saturating_sub(entry.last_ts) > linked_time_ms {
                continue;
            }
            let delta = co_rating(new, entry.rating) - co_rating(old, entry.rating);
            if delta != 0.0 {
                pair_deltas.push((ItemPair::new(action.item, other), delta));
            }
        }

        history.entries.insert(
            action.item,
            HistoryEntry {
                rating: new,
                last_ts: action.timestamp,
            },
        );
        let cap = self.recent_cap;
        history.touch_recent(action.item, cap);

        RatingUpdate {
            item: action.item,
            delta_rating,
            pair_deltas,
            timestamp: action.timestamp,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionType;

    fn store() -> HistoryStore {
        HistoryStore::new(10)
    }

    fn act(user: UserId, item: ItemId, action: ActionType, ts: Timestamp) -> UserAction {
        UserAction::new(user, item, action, ts)
    }

    #[test]
    fn max_weight_rule() {
        let mut s = store();
        let w = ActionWeights::default();
        let up = s.apply(&act(1, 10, ActionType::Purchase, 0), &w, 1000);
        assert_eq!(up.delta_rating, 5.0);
        // A later weaker action must not lower the rating.
        let up = s.apply(&act(1, 10, ActionType::Browse, 10), &w, 1000);
        assert_eq!(up.delta_rating, 0.0);
        assert_eq!(s.user(1).unwrap().rating(10), 5.0);
        // A stronger action raises it by the difference.
        let mut w2 = ActionWeights::default();
        w2.set(ActionType::Share, 7.0);
        let up = s.apply(&act(1, 10, ActionType::Share, 20), &w2, 1000);
        assert_eq!(up.delta_rating, 2.0);
    }

    #[test]
    fn co_rating_deltas_for_linked_items() {
        let mut s = store();
        let w = ActionWeights::default();
        s.apply(&act(1, 10, ActionType::Click, 0), &w, 1000); // r=2
        let up = s.apply(&act(1, 11, ActionType::Purchase, 100), &w, 1000); // r=5
        assert_eq!(up.pair_deltas, vec![(ItemPair::new(10, 11), 2.0)]);
    }

    #[test]
    fn items_outside_linked_time_not_paired() {
        let mut s = store();
        let w = ActionWeights::default();
        s.apply(&act(1, 10, ActionType::Click, 0), &w, 1000);
        let up = s.apply(&act(1, 11, ActionType::Click, 5_000), &w, 1000);
        assert!(up.pair_deltas.is_empty());
    }

    #[test]
    fn rating_increase_propagates_to_co_ratings() {
        let mut s = store();
        let w = ActionWeights::default();
        s.apply(&act(1, 10, ActionType::Purchase, 0), &w, 1000); // r10=5
        s.apply(&act(1, 11, ActionType::Browse, 10), &w, 1000); // r11=1, co=1
                                                                // Upgrade item 11 to click: co-rating goes 1 -> 2.
        let up = s.apply(&act(1, 11, ActionType::Click, 20), &w, 1000);
        assert_eq!(up.delta_rating, 1.0);
        assert_eq!(up.pair_deltas, vec![(ItemPair::new(10, 11), 1.0)]);
    }

    #[test]
    fn unchanged_rating_produces_no_pair_deltas() {
        let mut s = store();
        let w = ActionWeights::default();
        s.apply(&act(1, 10, ActionType::Purchase, 0), &w, 1000);
        s.apply(&act(1, 11, ActionType::Purchase, 1), &w, 1000);
        let up = s.apply(&act(1, 11, ActionType::Click, 2), &w, 1000);
        assert!(up.pair_deltas.is_empty());
        assert_eq!(up.delta_rating, 0.0);
    }

    #[test]
    fn recent_list_dedups_and_caps() {
        let mut s = HistoryStore::new(3);
        let w = ActionWeights::default();
        for item in [1u64, 2, 3, 2, 4, 5] {
            s.apply(&act(1, item, ActionType::Click, 0), &w, 1000);
        }
        let recent: Vec<ItemId> = s.user(1).unwrap().recent(10).map(|(i, _)| i).collect();
        assert_eq!(recent, vec![5, 4, 2]);
    }

    #[test]
    fn histories_are_per_user() {
        let mut s = store();
        let w = ActionWeights::default();
        s.apply(&act(1, 10, ActionType::Click, 0), &w, 1000);
        let up = s.apply(&act(2, 11, ActionType::Click, 1), &w, 1000);
        assert!(up.pair_deltas.is_empty(), "different users never pair");
        assert_eq!(s.user_count(), 2);
    }
}
