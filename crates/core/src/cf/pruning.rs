//! Real-time pruning with the Hoeffding bound (§4.1.4, Algorithm 1).
//!
//! Similarity scores of a pair observed at different times are treated as
//! draws of a random variable with range `R = 1`. After `n` updates, with
//! probability `1 − δ` the true mean is at most `x̂ + ε` where
//! `ε = sqrt(R² ln(1/δ) / 2n)` (Eq. 9). When `ε < t − sim` — with `t` the
//! minimum of the two items' list thresholds — the pair can never enter
//! either top-k list and is pruned from all future computation.

use crate::types::{FxHashMap, FxHashSet, ItemId, ItemPair};

/// Hoeffding bound ε for `n` observations at confidence `1 − δ` over a
/// variable with range `range` (Eq. 9). Returns `f64::INFINITY` for
/// `n = 0` (no observations ⇒ no confidence).
pub fn hoeffding_epsilon(n: u64, delta: f64, range: f64) -> f64 {
    assert!((0.0..1.0).contains(&delta) && delta > 0.0, "0 < δ < 1");
    if n == 0 {
        return f64::INFINITY;
    }
    (range * range * (1.0 / delta).ln() / (2.0 * n as f64)).sqrt()
}

/// Default cap on live observation counts (see [`PruneState::with_cap`]).
pub const DEFAULT_MAX_TRACKED: usize = 1 << 20;

/// Pruning state: per-pair observation counts `n_ij` and the pruned sets
/// `L_i` of Algorithm 1.
///
/// The observation map is bounded: a long-tailed stream mints new item
/// pairs forever, and without a cap the counts grow without limit (each
/// pair needs many observations before the Hoeffding bound can prune it,
/// so cold pairs linger). At the cap, the coldest pairs — lowest `n_ij` —
/// are evicted in batches. Eviction only forgets a count: the pair starts
/// over on its next observation, which can delay pruning but can never
/// prune wrongly, and pairs already pruned are never un-pruned.
#[derive(Debug, Clone)]
pub struct PruneState {
    delta: f64,
    max_tracked: usize,
    observations: FxHashMap<ItemPair, u64>,
    pruned: FxHashMap<ItemId, FxHashSet<ItemId>>,
    pruned_pairs: u64,
    evicted_pairs: u64,
}

impl PruneState {
    /// New state at confidence `1 − δ` with the default tracking cap.
    pub fn new(delta: f64) -> Self {
        Self::with_cap(delta, DEFAULT_MAX_TRACKED)
    }

    /// New state at confidence `1 − δ` tracking at most `max_tracked`
    /// pairs' observation counts.
    pub fn with_cap(delta: f64, max_tracked: usize) -> Self {
        assert!((0.0..1.0).contains(&delta) && delta > 0.0, "0 < δ < 1");
        PruneState {
            delta,
            max_tracked: max_tracked.max(1),
            observations: FxHashMap::default(),
            pruned: FxHashMap::default(),
            pruned_pairs: 0,
            evicted_pairs: 0,
        }
    }

    /// Drops the ~10% coldest observation counts in one pass (quickselect
    /// on `n_ij`), so the eviction cost amortises over many inserts
    /// instead of scanning the map once per new pair.
    fn evict_coldest(&mut self) {
        let target = (self.max_tracked / 10).max(1);
        let mut counts: Vec<(u64, ItemPair)> =
            self.observations.iter().map(|(&p, &n)| (n, p)).collect();
        let k = target.min(counts.len());
        if k == 0 {
            return;
        }
        if k < counts.len() {
            counts.select_nth_unstable_by_key(k - 1, |&(n, _)| n);
        }
        for &(_, p) in &counts[..k] {
            self.observations.remove(&p);
        }
        self.evicted_pairs += k as u64;
    }

    /// Whether the pair is pruned (Algorithm 1 line 3: skip if `j ∈ L_i`).
    pub fn is_pruned(&self, pair: ItemPair) -> bool {
        self.pruned
            .get(&pair.a)
            .is_some_and(|l| l.contains(&pair.b))
    }

    /// Records one similarity observation for the pair (Algorithm 1 lines
    /// 9–17): increments `n_ij`, computes ε, and prunes when
    /// `ε < t − sim`. `t` must be `min(t_i, t_j)` of the two similar-items
    /// lists. Returns `true` when the pair was pruned by this observation.
    pub fn observe(&mut self, pair: ItemPair, sim: f64, t: f64) -> bool {
        if self.observations.len() >= self.max_tracked && !self.observations.contains_key(&pair) {
            self.evict_coldest();
        }
        let n = self.observations.entry(pair).or_insert(0);
        *n += 1;
        let epsilon = hoeffding_epsilon(*n, self.delta, 1.0);
        if epsilon < t - sim {
            // Bidirectional: add j to L_i and i to L_j.
            self.pruned.entry(pair.a).or_default().insert(pair.b);
            self.pruned.entry(pair.b).or_default().insert(pair.a);
            self.observations.remove(&pair);
            self.pruned_pairs += 1;
            true
        } else {
            false
        }
    }

    /// Number of pairs pruned so far.
    pub fn pruned_pairs(&self) -> u64 {
        self.pruned_pairs
    }

    /// Number of pairs with live observation counts.
    pub fn tracked_pairs(&self) -> usize {
        self.observations.len()
    }

    /// Number of observation counts dropped by cap eviction.
    pub fn evicted_pairs(&self) -> u64 {
        self.evicted_pairs
    }

    /// The pair's current observation count `n_ij`.
    pub fn observed(&self, pair: ItemPair) -> u64 {
        self.observations.get(&pair).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_decreases_with_observations() {
        let e1 = hoeffding_epsilon(1, 0.001, 1.0);
        let e10 = hoeffding_epsilon(10, 0.001, 1.0);
        let e1000 = hoeffding_epsilon(1000, 0.001, 1.0);
        assert!(e1 > e10 && e10 > e1000);
        assert!(e1000 > 0.0);
    }

    #[test]
    fn epsilon_known_value() {
        // ε = sqrt(ln(1/δ) / (2n)); δ = e^-2, n = 2 → sqrt(2/4) = sqrt(0.5)
        let delta = (-2.0f64).exp();
        let e = hoeffding_epsilon(2, delta, 1.0);
        assert!((e - 0.5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn epsilon_scales_with_range() {
        assert!(
            (hoeffding_epsilon(5, 0.01, 2.0) - 2.0 * hoeffding_epsilon(5, 0.01, 1.0)).abs() < 1e-12
        );
    }

    #[test]
    fn zero_observations_never_prune() {
        assert_eq!(hoeffding_epsilon(0, 0.5, 1.0), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "0 < δ < 1")]
    fn invalid_delta_rejected() {
        hoeffding_epsilon(1, 0.0, 1.0);
    }

    #[test]
    fn dissimilar_pair_eventually_pruned() {
        let mut p = PruneState::new(0.001);
        let pair = ItemPair::new(1, 2);
        let mut pruned = false;
        // Similarity stays at 0.01 while the threshold is 0.9.
        for _ in 0..100 {
            if p.observe(pair, 0.01, 0.9) {
                pruned = true;
                break;
            }
        }
        assert!(pruned, "100 observations at gap 0.89 must prune");
        assert!(p.is_pruned(pair));
        assert!(p.is_pruned(ItemPair::new(2, 1)), "bidirectional");
        assert_eq!(p.pruned_pairs(), 1);
    }

    #[test]
    fn pair_above_threshold_never_pruned() {
        let mut p = PruneState::new(0.001);
        let pair = ItemPair::new(1, 2);
        for _ in 0..5_000 {
            assert!(
                !p.observe(pair, 0.95, 0.9),
                "sim above threshold: t − sim < 0 can never exceed ε"
            );
        }
        assert!(!p.is_pruned(pair));
    }

    #[test]
    fn pruning_needs_enough_observations() {
        let mut p = PruneState::new(0.001);
        let pair = ItemPair::new(1, 2);
        let gap = 0.05; // t - sim
        let needed = ((1.0f64 / 0.001).ln() / (2.0 * gap * gap)).ceil() as u64;
        let mut pruned_at = None;
        for n in 1..=needed + 10 {
            if p.observe(pair, 0.85, 0.90) {
                pruned_at = Some(n);
                break;
            }
        }
        let at = pruned_at.expect("must prune eventually");
        assert!(
            at >= needed,
            "pruned at {at} but the bound requires n > {needed}"
        );
        assert!(at <= needed + 1);
    }

    #[test]
    fn tracked_pairs_stay_bounded_under_skew() {
        // A long-tailed stream mints a fresh pair on every event while one
        // hot pair is observed throughout; nothing prunes (sim == t), so
        // without the cap the map would reach ~10k entries.
        let mut p = PruneState::with_cap(0.001, 100);
        let hot = ItemPair::new(0, 1);
        for i in 0..10_000u64 {
            p.observe(hot, 0.5, 0.5);
            p.observe(ItemPair::new(2 + i, 100_000 + i), 0.5, 0.5);
            assert!(
                p.tracked_pairs() <= 100,
                "cap exceeded at event {i}: {}",
                p.tracked_pairs()
            );
        }
        assert!(p.evicted_pairs() > 0);
        assert!(
            p.observed(hot) > 9_000,
            "the hot pair is never coldest, so its count survives evictions (got {})",
            p.observed(hot)
        );
    }

    #[test]
    fn eviction_never_unprunes() {
        let mut p = PruneState::with_cap(0.001, 10);
        let pair = ItemPair::new(1, 2);
        for _ in 0..100 {
            if p.observe(pair, 0.01, 0.9) {
                break;
            }
        }
        assert!(p.is_pruned(pair));
        // Flood with cold pairs to force many eviction rounds.
        for i in 0..1_000u64 {
            p.observe(ItemPair::new(10 + i, 100_000 + i), 0.5, 0.5);
        }
        assert!(p.is_pruned(pair), "cap eviction must not forget prunes");
    }

    #[test]
    fn zero_threshold_never_prunes() {
        let mut p = PruneState::new(0.001);
        let pair = ItemPair::new(3, 4);
        for _ in 0..1000 {
            assert!(!p.observe(pair, 0.0, 0.0), "t − sim = 0 can't exceed ε>0");
        }
    }
}
