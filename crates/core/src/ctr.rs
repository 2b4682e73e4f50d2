//! Situational CTR prediction (the paper's "CTR" algorithm).
//!
//! The motivating query of §1 — "during last ten seconds, what is the CTR
//! of an advertisement among the male users in Beijing, whose age is from
//! twenty to thirty" — is a windowed count over the cross product of
//! situation dimensions (region × age × gender × ad). This module keeps
//! impression/click counts at several granularities and predicts a
//! smoothed CTR with hierarchical back-off, so sparse fine-grained cells
//! borrow strength from coarser ones.

use crate::cf::counts::{WindowConfig, WindowedCounts};
use crate::db::DemographicProfile;
use crate::types::ItemId;

/// The situation of an impression: who saw the ad and where it was placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Situation {
    /// Viewer demographics.
    pub profile: DemographicProfile,
    /// Placement position (slot index on the page).
    pub position: u8,
}

/// Count cell granularities, coarse → fine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Cell {
    /// item only
    Item(ItemId),
    /// item × gender
    ItemGender(ItemId, u8),
    /// item × gender × age band
    ItemGenderAge(ItemId, u8, u8),
    /// item × gender × age band × region
    Full(ItemId, u8, u8, u16),
    /// item × position
    ItemPosition(ItemId, u8),
}

/// Configuration of the CTR model.
#[derive(Debug, Clone)]
pub struct CtrConfig {
    /// Sliding window over the counts (the "last ten seconds" dimension).
    pub window: Option<WindowConfig>,
    /// Smoothing strength: pseudo-impressions carried from the coarser
    /// level at each back-off step.
    pub smoothing: f64,
    /// Global prior CTR used above the coarsest level.
    pub prior_ctr: f64,
}

impl Default for CtrConfig {
    fn default() -> Self {
        CtrConfig {
            window: None,
            smoothing: 20.0,
            prior_ctr: 0.01,
        }
    }
}

/// The situational CTR predictor.
#[derive(Debug, Clone)]
pub struct SituationalCtr {
    config: CtrConfig,
    impressions: WindowedCounts<Cell>,
    clicks: WindowedCounts<Cell>,
}

impl SituationalCtr {
    /// New predictor.
    pub fn new(config: CtrConfig) -> Self {
        SituationalCtr {
            impressions: WindowedCounts::new(config.window),
            clicks: WindowedCounts::new(config.window),
            config,
        }
    }

    fn cells(item: ItemId, s: &Situation) -> [Cell; 5] {
        let p = &s.profile;
        [
            Cell::Item(item),
            Cell::ItemGender(item, p.gender),
            Cell::ItemGenderAge(item, p.gender, p.age_band()),
            Cell::Full(item, p.gender, p.age_band(), p.region),
            Cell::ItemPosition(item, s.position),
        ]
    }

    /// Records that `item` was shown in situation `s` at time `ts`.
    pub fn impression(&mut self, item: ItemId, s: &Situation, ts: u64) {
        self.clicks.advance_to_ts(ts); // keep both windows aligned
        for cell in Self::cells(item, s) {
            self.impressions.add(cell, 1.0, ts);
        }
    }

    /// Records that `item` was clicked in situation `s` at time `ts`.
    pub fn click(&mut self, item: ItemId, s: &Situation, ts: u64) {
        self.impressions.advance_to_ts(ts); // keep both windows aligned
        for cell in Self::cells(item, s) {
            self.clicks.add(cell, 1.0, ts);
        }
    }

    fn raw(&self, cell: Cell) -> (f64, f64) {
        (self.clicks.get(&cell), self.impressions.get(&cell))
    }

    /// Smoothed CTR for `item` in situation `s`: back-off chain
    /// global prior → item → item×gender → item×gender×age → full, with
    /// `smoothing` pseudo-counts carried at each step, blended at the end
    /// with the position cell.
    pub fn predict(&self, item: ItemId, s: &Situation) -> f64 {
        let p = &s.profile;
        let chain = [
            Cell::Item(item),
            Cell::ItemGender(item, p.gender),
            Cell::ItemGenderAge(item, p.gender, p.age_band()),
            Cell::Full(item, p.gender, p.age_band(), p.region),
        ];
        let mut estimate = self.config.prior_ctr;
        for cell in chain {
            let (clicks, imps) = self.raw(cell);
            estimate = (clicks + self.config.smoothing * estimate) / (imps + self.config.smoothing);
        }
        // Positional effect as a multiplicative correction, shrunk by the
        // same smoothing.
        let (pc, pi) = self.raw(Cell::ItemPosition(item, s.position));
        let (ic, ii) = self.raw(Cell::Item(item));
        let item_ctr =
            (ic + self.config.smoothing * self.config.prior_ctr) / (ii + self.config.smoothing);
        let pos_ctr = (pc + self.config.smoothing * item_ctr) / (pi + self.config.smoothing);
        let correction = if item_ctr > 0.0 {
            pos_ctr / item_ctr
        } else {
            1.0
        };
        (estimate * correction).clamp(0.0, 1.0)
    }

    /// Ranks candidate items for a situation by predicted CTR.
    pub fn rank(&self, candidates: &[ItemId], s: &Situation, n: usize) -> Vec<(ItemId, f64)> {
        let mut scored: Vec<(ItemId, f64)> = candidates
            .iter()
            .map(|&item| (item, self.predict(item, s)))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(n);
        scored
    }

    /// Raw windowed CTR of the finest matching cell (the §1 query),
    /// `None` when that cell has no impressions.
    pub fn situational_ctr(&self, item: ItemId, s: &Situation) -> Option<f64> {
        let p = &s.profile;
        let (clicks, imps) = self.raw(Cell::Full(item, p.gender, p.age_band(), p.region));
        (imps > 0.0).then(|| clicks / imps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn situation(gender: u8, age: u8, region: u16, position: u8) -> Situation {
        Situation {
            profile: DemographicProfile {
                gender,
                age,
                region,
            },
            position,
        }
    }

    fn show_and_click(
        model: &mut SituationalCtr,
        item: ItemId,
        s: &Situation,
        shows: u64,
        clicks: u64,
    ) {
        for t in 0..shows {
            model.impression(item, s, t);
        }
        for t in 0..clicks {
            model.click(item, s, t);
        }
    }

    #[test]
    fn cold_item_predicts_prior() {
        let model = SituationalCtr::new(CtrConfig::default());
        let s = situation(1, 25, 10, 0);
        let p = model.predict(99, &s);
        assert!((p - 0.01).abs() < 1e-9, "cold prediction = prior, got {p}");
    }

    #[test]
    fn observed_ctr_pulls_prediction() {
        let mut model = SituationalCtr::new(CtrConfig::default());
        let s = situation(1, 25, 10, 0);
        show_and_click(&mut model, 1, &s, 1000, 200); // true ctr 0.2
        let p = model.predict(1, &s);
        assert!((p - 0.2).abs() < 0.02, "prediction {p} should approach 0.2");
    }

    #[test]
    fn situational_difference_learned() {
        let mut model = SituationalCtr::new(CtrConfig::default());
        let men = situation(1, 25, 10, 0);
        let women = situation(0, 25, 10, 0);
        show_and_click(&mut model, 1, &men, 500, 150); // 30%
        show_and_click(&mut model, 1, &women, 500, 10); // 2%
        assert!(model.predict(1, &men) > 3.0 * model.predict(1, &women));
    }

    #[test]
    fn sparse_cell_backs_off_to_coarser() {
        let mut model = SituationalCtr::new(CtrConfig::default());
        let beijing = situation(1, 25, 1, 0);
        let shanghai = situation(1, 25, 2, 0);
        // Plenty of male/25 data in Beijing, none in Shanghai.
        show_and_click(&mut model, 1, &beijing, 1000, 100);
        let p = model.predict(1, &shanghai);
        assert!(
            p > 0.05,
            "Shanghai should inherit ~10% from gender/age level, got {p}"
        );
    }

    #[test]
    fn raw_situational_query() {
        let mut model = SituationalCtr::new(CtrConfig::default());
        let s = situation(1, 25, 1, 0);
        assert!(model.situational_ctr(1, &s).is_none());
        show_and_click(&mut model, 1, &s, 10, 3);
        assert_eq!(model.situational_ctr(1, &s), Some(0.3));
    }

    #[test]
    fn window_gives_last_n_seconds_semantics() {
        let mut model = SituationalCtr::new(CtrConfig {
            window: Some(WindowConfig {
                session_ms: 1_000,
                sessions: 10, // 10-second window
            }),
            ..Default::default()
        });
        let s = situation(1, 25, 1, 0);
        for t in 0..10u64 {
            model.impression(1, &s, t * 100);
            model.click(1, &s, t * 100);
        }
        assert_eq!(model.situational_ctr(1, &s), Some(1.0));
        // 60 seconds later everything expired.
        model.impression(1, &s, 60_000);
        assert_eq!(model.situational_ctr(1, &s), Some(0.0));
    }

    #[test]
    fn rank_orders_by_ctr() {
        let mut model = SituationalCtr::new(CtrConfig::default());
        let s = situation(1, 25, 1, 0);
        show_and_click(&mut model, 1, &s, 500, 5);
        show_and_click(&mut model, 2, &s, 500, 100);
        let ranked = model.rank(&[1, 2], &s, 2);
        assert_eq!(ranked[0].0, 2);
        assert!(ranked[0].1 > ranked[1].1);
    }

    #[test]
    fn position_effect_applies() {
        let mut model = SituationalCtr::new(CtrConfig::default());
        let top = situation(1, 25, 1, 0);
        let bottom = situation(1, 25, 1, 9);
        show_and_click(&mut model, 1, &top, 500, 100);
        show_and_click(&mut model, 1, &bottom, 500, 10);
        assert!(model.predict(1, &top) > model.predict(1, &bottom));
    }
}
