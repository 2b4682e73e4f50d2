//! The similar-items table: per-item top-k neighbour lists.
//!
//! `Nk(ip)` in Eq. 2 — the k items most similar to `ip`. The list's
//! minimum score is the threshold `t` used by real-time pruning (§4.1.4).

use crate::types::{FxHashMap, ItemId};

/// Top-k similarity list of one item, sorted descending by score.
#[derive(Debug, Clone, Default)]
pub struct SimilarList {
    entries: Vec<(ItemId, f64)>,
}

impl SimilarList {
    /// Inserts or updates `other`'s score, keeping at most `k` entries.
    fn update(&mut self, other: ItemId, score: f64, k: usize) {
        if let Some(pos) = self.entries.iter().position(|&(i, _)| i == other) {
            self.entries.remove(pos);
        }
        if score > 0.0 {
            let pos = self.entries.partition_point(|&(_, s)| s >= score);
            self.entries.insert(pos, (other, score));
            self.entries.truncate(k);
        }
    }

    /// Entries, best first.
    pub fn entries(&self) -> &[(ItemId, f64)] {
        &self.entries
    }

    /// Minimum score required to enter a *full* list; 0 while the list has
    /// room (pruning is impossible then, because any pair could still make
    /// it in).
    pub fn threshold(&self, k: usize) -> f64 {
        if self.entries.len() < k {
            0.0
        } else {
            self.entries.last().map_or(0.0, |&(_, s)| s)
        }
    }
}

/// All items' similar-items lists.
#[derive(Debug, Clone)]
pub struct SimilarTable {
    k: usize,
    lists: FxHashMap<ItemId, SimilarList>,
}

impl SimilarTable {
    /// Table with `k` neighbours per item.
    pub fn new(k: usize) -> Self {
        SimilarTable {
            k: k.max(1),
            lists: FxHashMap::default(),
        }
    }

    /// Records a freshly computed similarity for a pair; both directions
    /// are updated ("the pruning is bidirectional" — so is the table).
    pub fn update_pair(&mut self, p: ItemId, q: ItemId, sim: f64) {
        let k = self.k;
        self.lists.entry(p).or_default().update(q, sim, k);
        self.lists.entry(q).or_default().update(p, sim, k);
    }

    /// Similar items of `item`, best first (empty when unknown).
    pub fn similar(&self, item: ItemId) -> &[(ItemId, f64)] {
        self.lists.get(&item).map(|l| l.entries()).unwrap_or(&[])
    }

    /// Pruning threshold `t` of `item`'s list.
    pub fn threshold(&self, item: ItemId) -> f64 {
        self.lists.get(&item).map_or(0.0, |l| l.threshold(self.k))
    }

    /// Number of items with a list.
    pub fn len(&self) -> usize {
        self.lists.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// Configured list size `k`.
    pub fn k(&self) -> usize {
        self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_top_k_sorted() {
        let mut t = SimilarTable::new(2);
        t.update_pair(1, 2, 0.5);
        t.update_pair(1, 3, 0.9);
        t.update_pair(1, 4, 0.7);
        assert_eq!(t.similar(1), &[(3, 0.9), (4, 0.7)]);
        // Symmetric direction exists too.
        assert_eq!(t.similar(3), &[(1, 0.9)]);
    }

    #[test]
    fn updating_existing_entry_reorders() {
        let mut t = SimilarTable::new(3);
        t.update_pair(1, 2, 0.5);
        t.update_pair(1, 3, 0.6);
        t.update_pair(1, 2, 0.9);
        assert_eq!(t.similar(1), &[(2, 0.9), (3, 0.6)]);
    }

    #[test]
    fn score_dropping_to_zero_removes_entry() {
        let mut t = SimilarTable::new(3);
        t.update_pair(1, 2, 0.5);
        t.update_pair(1, 2, 0.0);
        assert!(t.similar(1).is_empty());
    }

    #[test]
    fn threshold_zero_until_full() {
        let mut t = SimilarTable::new(2);
        assert_eq!(t.threshold(1), 0.0);
        t.update_pair(1, 2, 0.8);
        assert_eq!(t.threshold(1), 0.0, "list not full yet");
        t.update_pair(1, 3, 0.4);
        assert_eq!(t.threshold(1), 0.4);
    }

    #[test]
    fn unknown_item_has_empty_list() {
        let t = SimilarTable::new(2);
        assert!(t.similar(99).is_empty());
        assert_eq!(t.threshold(99), 0.0);
    }

    #[test]
    fn ties_keep_k_entries() {
        let mut t = SimilarTable::new(2);
        t.update_pair(1, 2, 0.5);
        t.update_pair(1, 3, 0.5);
        t.update_pair(1, 4, 0.5);
        assert_eq!(t.similar(1).len(), 2);
    }
}
