//! Application presets mirroring the paper's evaluated deployments
//! (Table 1): Tencent News (CB), Tencent Videos (CF), YiXun e-commerce
//! (CF), and QQ advertising (situational CTR) — plus constructors for the
//! TencentRec arm and the "Original" (periodically rebuilt) arm of each.

use crate::click::ClickModel;
use crate::metrics::DayMetrics;
use crate::sim::{Position, SimConfig};
use crate::world::WorldConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tencentrec::action::ActionWeights;
use tencentrec::baseline::PeriodicRebuild;
use tencentrec::catalog::ItemCatalog;
use tencentrec::cb::{CbConfig, ContentBased};
use tencentrec::cf::{CfConfig, ItemCF, WindowConfig};
use tencentrec::ctr::{CtrConfig, Situation, SituationalCtr};
use tencentrec::db::{DemographicProfile, DemographicRec, GroupScheme};
use tencentrec::engine::{Primary, RecommendEngine};

/// A complete scenario: world shape + click model + sim parameters.
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// Scenario name.
    pub name: &'static str,
    /// World generator configuration.
    pub world: WorldConfig,
    /// Ground-truth click model.
    pub clicks: ClickModel,
    /// Simulation parameters.
    pub sim: SimConfig,
}

/// Tencent News: items live hours, fresh items stream in continuously,
/// freshness matters, sessions drift fast.
pub fn news_app(seed: u64, days: usize) -> AppSpec {
    AppSpec {
        name: "news",
        world: WorldConfig {
            seed,
            users: 700,
            genres: 12,
            initial_items: 400,
            new_items_per_day: 300,
            item_lifetime_ms: 36 * 60 * 60 * 1000, // ~1.5 days on site
            sessions_per_user_per_day: 3,
            actions_per_session: 4,
            burst_session_prob: 0.45, // news interest is event-driven
            demand_persistence: 0.84, // stories stay interesting for a day
            ..Default::default()
        },
        clicks: ClickModel {
            freshness_half_life_ms: Some(12 * 60 * 60 * 1000),
            session_half_life_ms: 4 * 60 * 60 * 1000,
            ..Default::default()
        },
        sim: SimConfig {
            days,
            list_size: 8,
            ..Default::default()
        },
    }
}

/// Tencent Videos: long-lived catalog, strong co-consumption, CF-friendly.
pub fn video_app(seed: u64, days: usize) -> AppSpec {
    AppSpec {
        name: "videos",
        world: WorldConfig {
            seed,
            users: 800,
            genres: 10,
            initial_items: 500,
            new_items_per_day: 10,
            item_lifetime_ms: u64::MAX,
            sessions_per_user_per_day: 2,
            actions_per_session: 5,
            burst_session_prob: 0.40,
            demand_persistence: 0.78, // binge interest spans sessions
            ..Default::default()
        },
        clicks: ClickModel::default(),
        sim: SimConfig {
            days,
            list_size: 8,
            ..Default::default()
        },
    }
}

/// YiXun e-commerce: stable catalog with prices; `position` selects the
/// similar-price or similar-purchase recommendation slot of §6.4.
pub fn ecommerce_app(seed: u64, days: usize, position: Position) -> AppSpec {
    AppSpec {
        name: "yixun",
        world: WorldConfig {
            seed,
            users: 1200,
            genres: 14,
            initial_items: 700,
            new_items_per_day: 15,
            item_lifetime_ms: u64::MAX,
            sessions_per_user_per_day: 2,
            actions_per_session: 4,
            burst_session_prob: 0.5,  // shopping missions are bursty
            demand_persistence: 0.82, // ...and persist for days
            price_range: (5.0, 500.0),
            ..Default::default()
        },
        clicks: ClickModel::default(),
        sim: SimConfig {
            days,
            list_size: 8,
            position,
            ..Default::default()
        },
    }
}

fn db(window: Option<WindowConfig>) -> DemographicRec {
    DemographicRec::new(GroupScheme::default(), ActionWeights::default(), window)
}

/// Real-time window shared by the TencentRec arms: 1-hour sessions over
/// 7 days (recent enough to track trends, long enough to keep the stable
/// co-occurrence signal).
fn realtime_window() -> Option<WindowConfig> {
    Some(WindowConfig {
        session_ms: 60 * 60 * 1000,
        sessions: 168,
    })
}

/// Weights emphasising purchases over browsing — the signal mix of the
/// similar-purchase position ("based on users' purchase history, where we
/// have relatively explicit preferences about the user").
pub fn purchase_heavy_weights() -> ActionWeights {
    let mut w = ActionWeights::default();
    w.set(tencentrec::action::ActionType::Browse, 0.2)
        .set(tencentrec::action::ActionType::Click, 0.4)
        .set(tencentrec::action::ActionType::Read, 0.5)
        .set(tencentrec::action::ActionType::Purchase, 5.0);
    w
}

/// The TencentRec arm for CF applications (videos, e-commerce):
/// incremental windowed item-CF + real-time personalised filtering + DB
/// complement.
pub fn tencentrec_cf_arm() -> RecommendEngine {
    tencentrec_cf_arm_with(ActionWeights::default())
}

/// [`tencentrec_cf_arm`] with a custom implicit-feedback weight table.
pub fn tencentrec_cf_arm_with(weights: ActionWeights) -> RecommendEngine {
    RecommendEngine::new(
        Primary::Cf(ItemCF::new(CfConfig {
            weights: weights.clone(),
            linked_time_ms: 3 * 24 * 60 * 60 * 1000, // e-commerce linked time
            window: realtime_window(),
            top_k: 20,
            recent_k: 10,
            pruning_delta: Some(1e-3),
        })),
        DemographicRec::new(GroupScheme::default(), weights, realtime_window()),
        0.0,
    )
}

/// The Original arm for CF applications: the same algorithm rebuilt from
/// scratch once per `period_ms` (daily offline computation in the paper).
pub fn original_cf_arm(period_ms: u64) -> PeriodicRebuild<RecommendEngine> {
    original_cf_arm_with(period_ms, ActionWeights::default())
}

/// [`original_cf_arm`] with a custom implicit-feedback weight table.
pub fn original_cf_arm_with(
    period_ms: u64,
    weights: ActionWeights,
) -> PeriodicRebuild<RecommendEngine> {
    PeriodicRebuild::new(period_ms, move || {
        RecommendEngine::new(
            Primary::Cf(ItemCF::new(CfConfig {
                weights: weights.clone(),
                linked_time_ms: 3 * 24 * 60 * 60 * 1000,
                window: None, // offline models don't window
                top_k: 20,
                recent_k: 10,
                pruning_delta: None,
            })),
            DemographicRec::new(GroupScheme::default(), weights.clone(), None),
            0.0,
        )
    })
}

/// The TencentRec arm for news: real-time CB + DB complement.
pub fn tencentrec_news_arm(catalog: ItemCatalog) -> RecommendEngine {
    RecommendEngine::new(
        Primary::Cb(ContentBased::new(CbConfig::default(), catalog)),
        db(realtime_window()),
        0.0,
    )
}

/// The Original news arm: "the CB recommendation model is updated once an
/// hour" — semi-real-time.
pub fn original_news_arm(catalog: ItemCatalog, period_ms: u64) -> PeriodicRebuild<RecommendEngine> {
    PeriodicRebuild::new(period_ms, move || {
        RecommendEngine::new(
            Primary::Cb(ContentBased::new(CbConfig::default(), catalog.clone())),
            db(None),
            0.0,
        )
    })
}

// ---------------------------------------------------------------------
// Advertising (QQ) — situational CTR vs daily global ranking.
// ---------------------------------------------------------------------

/// Ad-scenario parameters.
#[derive(Debug, Clone)]
pub struct AdSimConfig {
    /// Days to simulate.
    pub days: usize,
    /// Number of candidate advertisements.
    pub ads: usize,
    /// Number of user demographic groups.
    pub groups: usize,
    /// Ad requests per day.
    pub requests_per_day: usize,
    /// Exploration rate for both arms.
    pub explore: f64,
    /// Days simulated before measurement starts.
    pub warmup_days: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AdSimConfig {
    fn default() -> Self {
        AdSimConfig {
            days: 30,
            ads: 40,
            groups: 12,
            requests_per_day: 6_000,
            explore: 0.1,
            warmup_days: 3,
            seed: 11,
        }
    }
}

/// Ground truth: `ctr(ad, group, day) = base(ad) · affinity(ad, group) ·
/// drift(ad, day)` with a per-day random-walk drift (ad fatigue and flash
/// campaigns — "advertisements usually have very short life cycles").
struct AdWorld {
    base: Vec<f64>,
    affinity: Vec<Vec<f64>>, // ad × group
    drift: Vec<f64>,         // ad (walked daily)
    profiles: Vec<DemographicProfile>,
}

impl AdWorld {
    fn new(config: &AdSimConfig, rng: &mut SmallRng) -> Self {
        let base = (0..config.ads).map(|_| rng.gen_range(0.01..0.08)).collect();
        let affinity = (0..config.ads)
            .map(|_| {
                (0..config.groups)
                    .map(|_| rng.gen_range(0.3..3.0))
                    .collect()
            })
            .collect();
        let drift = vec![1.0; config.ads];
        // One representative profile per group.
        let profiles = (0..config.groups)
            .map(|g| DemographicProfile {
                gender: (g % 2) as u8,
                age: (15 + (g / 2) * 10) as u8,
                region: 0,
            })
            .collect();
        AdWorld {
            base,
            affinity,
            drift,
            profiles,
        }
    }

    fn walk_drift(&mut self, rng: &mut SmallRng) {
        for d in &mut self.drift {
            *d = (*d * rng.gen_range(0.75f64..1.35)).clamp(0.4, 2.5);
        }
    }

    fn true_ctr(&self, ad: usize, group: usize) -> f64 {
        (self.base[ad] * self.affinity[ad][group] * self.drift[ad]).clamp(0.0, 0.9)
    }
}

/// Runs the ad scenario; returns `(tencentrec_days, original_days)`.
///
/// The TencentRec arm serves with the windowed situational-CTR model and
/// re-ranks per request; the Original arm keeps global per-ad counters and
/// refreshes its ranking once per day.
pub fn run_ad_simulation(config: &AdSimConfig) -> (Vec<DayMetrics>, Vec<DayMetrics>) {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut world = AdWorld::new(config, &mut rng);
    let candidates: Vec<u64> = (0..config.ads as u64).collect();

    // TencentRec: situational CTR with a sliding window of ~2 days.
    let mut model = SituationalCtr::new(CtrConfig {
        window: Some(WindowConfig {
            session_ms: 6 * 60 * 60 * 1000,
            sessions: 8,
        }),
        smoothing: 30.0,
        prior_ctr: 0.03,
    });
    // Original: the *same* situational learner, but un-windowed and with
    // its per-group decisions only refreshed once a day — isolating the
    // staleness difference, exactly like the paper's semi-real-time
    // comparators.
    let mut orig_model = SituationalCtr::new(CtrConfig {
        window: None,
        smoothing: 30.0,
        prior_ctr: 0.03,
    });
    let mut frozen_best: Vec<usize> = vec![0; config.groups];

    let day_ms = 86_400_000u64;
    let mut ours = Vec::new();
    let mut original = Vec::new();

    for day in 0..config.warmup_days + config.days {
        let measured = day >= config.warmup_days;
        world.walk_drift(&mut rng);
        // Daily refresh of the Original per-group choice (stale within
        // the day).
        for (g, slot) in frozen_best.iter_mut().enumerate() {
            let situation = Situation {
                profile: world.profiles[g],
                position: 0,
            };
            *slot = orig_model.rank(&candidates, &situation, 1)[0].0 as usize;
        }

        let mut ours_day = DayMetrics {
            day: day.saturating_sub(config.warmup_days),
            impressions: 0,
            clicks: 0,
            reads: 0,
            active_users: config.groups as u64,
        };
        let mut orig_day = ours_day;

        for r in 0..config.requests_per_day {
            let group = rng.gen_range(0..config.groups);
            let situation = Situation {
                profile: world.profiles[group],
                position: 0,
            };
            let ts = day as u64 * day_ms + (r as u64 * day_ms / config.requests_per_day as u64);
            let explore = rng.gen_bool(config.explore);
            let random_ad = rng.gen_range(0..config.ads);

            // --- TencentRec arm ---
            let ad = if explore {
                random_ad
            } else {
                model.rank(&candidates, &situation, 1)[0].0 as usize
            };
            let p = world.true_ctr(ad, group);
            let clicked = rng.gen_bool(p);
            model.impression(ad as u64, &situation, ts);
            ours_day.impressions += 1;
            if clicked {
                model.click(ad as u64, &situation, ts);
                ours_day.clicks += 1;
            }

            // --- Original arm (same request, same exploration coin) ---
            let ad = if explore {
                random_ad
            } else {
                frozen_best[group]
            };
            let p = world.true_ctr(ad, group);
            let clicked = rng.gen_bool(p);
            orig_model.impression(ad as u64, &situation, ts);
            orig_day.impressions += 1;
            if clicked {
                orig_model.click(ad as u64, &situation, ts);
                orig_day.clicks += 1;
            }
        }
        if measured {
            ours.push(ours_day);
            original.push(orig_day);
        }
    }
    (ours, original)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ad_simulation_runs_and_tencentrec_wins() {
        let config = AdSimConfig {
            days: 10,
            requests_per_day: 3_000,
            ..Default::default()
        };
        let (ours, orig) = run_ad_simulation(&config);
        assert_eq!(ours.len(), 10);
        let our_ctr: f64 = ours.iter().map(DayMetrics::ctr).sum::<f64>() / ours.len() as f64;
        let orig_ctr: f64 = orig.iter().map(DayMetrics::ctr).sum::<f64>() / orig.len() as f64;
        assert!(
            our_ctr > orig_ctr,
            "situational targeting should beat stale global ranking: {our_ctr} vs {orig_ctr}"
        );
    }

    #[test]
    fn ad_simulation_is_deterministic() {
        let config = AdSimConfig {
            days: 3,
            requests_per_day: 500,
            ..Default::default()
        };
        let (a1, o1) = run_ad_simulation(&config);
        let (a2, o2) = run_ad_simulation(&config);
        assert_eq!(a1, a2);
        assert_eq!(o1, o2);
    }

    #[test]
    fn purchase_weights_emphasise_purchases() {
        use tencentrec::action::ActionType;
        let w = purchase_heavy_weights();
        assert!(w.weight(ActionType::Purchase) > 10.0 * w.weight(ActionType::Browse));
        assert!(w.weight(ActionType::Purchase) >= 5.0);
    }

    #[test]
    fn arms_construct_and_process() {
        use tencentrec::action::{ActionType, UserAction};
        use tencentrec::engine::StreamRecommender;
        let mut ours = tencentrec_cf_arm();
        let mut orig = original_cf_arm(86_400_000);
        for u in 0..10u64 {
            let a = UserAction::new(u, 1, ActionType::Click, u);
            ours.process(&a);
            orig.process(&a);
        }
        // The real-time arm reflects data instantly; the daily one not yet.
        assert_eq!(ours.demographics().group_count(), 0, "no profiles set");
        assert!(orig.recommend(0, 3).len() <= 3);
    }

    #[test]
    fn app_specs_are_sane() {
        let news = news_app(1, 7);
        assert!(news.world.new_items_per_day > 100, "news churns items");
        assert!(news.world.item_lifetime_ms < u64::MAX);
        let videos = video_app(1, 7);
        assert_eq!(videos.world.item_lifetime_ms, u64::MAX);
        let shop = ecommerce_app(1, 7, Position::SimilarPrice { rel: 0.3 });
        assert!(matches!(shop.sim.position, Position::SimilarPrice { .. }));
    }
}
