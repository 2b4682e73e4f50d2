//! Each fast query path equals the slow path it replaced, over random
//! streams:
//!
//! 1. `DemographicRec::hot_items` walks a kept hot list; it must equal a
//!    full sort of the group's windowed counts, for any exclusion set —
//!    including sets that exhaust the list — with and without a window
//!    whose sessions expire mid-stream.
//! 2. `ItemCF::recommend` sums in one map and selects its top n; it must
//!    equal the two-map, full-sort ranking, bit for bit.
//! 3. The store-backed `hot_items` walks the `hot:` list the group's
//!    single writer keeps; it must equal a scan of the group's counters,
//!    with and without a window, at sessions the writer has passed, has
//!    not reached, or never wrote.
//!
//! Items come from a universe of twice the list length, most draws from
//! a small hot head, and weights from a small set, so counts tie often
//! and the item-id tie-break is at work.

use proptest::prelude::*;
use tdstore::{StoreConfig, TdStore};
use tencentrec::action::{ActionType, ActionWeights, UserAction};
use tencentrec::cf::{CfConfig, ItemCF, Recommendation, WindowConfig, WindowedCounts};
use tencentrec::db::{
    DemographicProfile, DemographicRec, GroupId, GroupScheme, GLOBAL_GROUP, HOT_LIST_LEN,
};
use tencentrec::topology::demographic::{hot_items, DemographicPipelineConfig, GroupCountBolt};
use tencentrec::topology::state::{self as group_keys, windowed_sum};
use tencentrec::types::{FxHashMap, FxHashSet, ItemId, UserId};

const ITEMS: u64 = 2 * HOT_LIST_LEN as u64;
fn item() -> impl Strategy<Value = ItemId> {
    prop_oneof![0..8u64, 0..ITEMS, 0..ITEMS]
}

/// Steps forward of up to 150 ms, one in five back by up to 400 ms: the
/// clock drifts forward ~20 ms a step, and late events land.
fn ts_step() -> impl Strategy<Value = i64> {
    prop_oneof![0i64..150, 0i64..150, 0i64..150, 0i64..150, -400i64..0]
}

fn advance(ts: u64, step: i64) -> u64 {
    ts.saturating_add_signed(step)
}

/// No window; short sessions that expire every few steps and hold short
/// lists; or long ones that expire a few times a stream and hold full
/// lists.
fn window() -> impl Strategy<Value = Option<WindowConfig>> {
    prop_oneof![
        Just(None),
        Just(Some(WindowConfig {
            session_ms: 100,
            sessions: 3
        })),
        Just(Some(WindowConfig {
            session_ms: 2_000,
            sessions: 3
        })),
    ]
}

fn n() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1),
        Just(10),
        Just(HOT_LIST_LEN),
        Just(100)
    ]
}

/// An exclusion set: random items, plus the first `top` of the full
/// ranking — past the list's length, that exhausts it.
#[derive(Debug, Clone)]
struct Exclude {
    top: usize,
    random: Vec<ItemId>,
}

fn exclude() -> impl Strategy<Value = Exclude> {
    (
        prop_oneof![
            Just(0usize),
            Just(5),
            Just(HOT_LIST_LEN - 1),
            Just(HOT_LIST_LEN),
            Just(HOT_LIST_LEN + 3)
        ],
        prop::collection::vec(0..ITEMS, 0..20),
    )
        .prop_map(|(top, random)| Exclude { top, random })
}

impl Exclude {
    fn set(&self, full: &[(ItemId, f64)]) -> FxHashSet<ItemId> {
        full.iter()
            .take(self.top)
            .map(|&(item, _)| item)
            .chain(self.random.iter().copied())
            .collect()
    }
}

/// The ranking `hot_items` returned before the hot list: collect,
/// sort by count descending then item, truncate.
fn full_sort(
    counts: impl Iterator<Item = (ItemId, f64)>,
    exclude: &FxHashSet<ItemId>,
    n: usize,
) -> Vec<(ItemId, f64)> {
    let mut items: Vec<(ItemId, f64)> = counts.filter(|(i, _)| !exclude.contains(i)).collect();
    items.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    items.truncate(n);
    items
}

fn bits(page: &[(ItemId, f64)]) -> Vec<(ItemId, u64)> {
    page.iter().map(|&(i, c)| (i, c.to_bits())).collect()
}

#[derive(Debug, Clone)]
enum Step {
    Act {
        user: UserId,
        item: ItemId,
        code: u8,
        dt: i64,
    },
    Query {
        user: UserId,
        n: usize,
        exclude: Exclude,
    },
}

/// One step in seven is a query.
fn step() -> impl Strategy<Value = Step> {
    (
        0..7u8,
        (0..12u64, item(), 0..8u8, ts_step()),
        (0..14u64, n(), exclude()),
    )
        .prop_map(|(pick, (user, item, code, dt), (quser, n, exclude))| {
            if pick == 0 {
                Step::Query {
                    user: quser,
                    n,
                    exclude,
                }
            } else {
                Step::Act {
                    user,
                    item,
                    code,
                    dt,
                }
            }
        })
}

/// Users 0..4 are in one group, 4..8 in another, 8..12 have no profile
/// (the global group); 12 and 13 are profiled but never act, so their
/// empty group falls back to the global one.
fn profile(user: UserId) -> Option<DemographicProfile> {
    let (gender, age) = match user {
        0..4 => (0, 25),
        4..8 => (1, 45),
        12 => (0, 25),
        13 => (0, 75),
        _ => return None,
    };
    Some(DemographicProfile {
        gender,
        age,
        region: 0,
    })
}

/// The in-memory DB recommender's counts, kept the way it kept them
/// before the hot list, and ranked in full at every query.
struct CountsReference {
    scheme: GroupScheme,
    weights: ActionWeights,
    window: Option<WindowConfig>,
    groups: FxHashMap<GroupId, WindowedCounts<ItemId>>,
    global: WindowedCounts<ItemId>,
}

impl CountsReference {
    fn group_of(&self, user: UserId) -> GroupId {
        self.scheme
            .group_of(&profile(user).unwrap_or_else(DemographicProfile::unknown))
    }

    fn process(&mut self, action: &UserAction) {
        let weight = self.weights.weight(action.action);
        if weight <= 0.0 {
            return;
        }
        let group = self.group_of(action.user);
        if group != GLOBAL_GROUP {
            let window = self.window;
            self.groups
                .entry(group)
                .or_insert_with(|| WindowedCounts::new(window))
                .add(action.item, weight, action.timestamp);
        }
        self.global.add(action.item, weight, action.timestamp);
    }

    fn ranking(&self, user: UserId, exclude: &FxHashSet<ItemId>, n: usize) -> Vec<(ItemId, f64)> {
        let group = self.group_of(user);
        let counts = match self.groups.get(&group) {
            Some(c) if group != GLOBAL_GROUP && !c.is_empty() => c,
            _ => &self.global,
        };
        full_sort(counts.iter().map(|(&i, &c)| (i, c)), exclude, n)
    }
}

/// `ItemCF::recommend` as it was: Eq. 2's numerator and denominator in
/// two maps, every candidate sorted.
fn cf_reference(cf: &ItemCF, user: UserId, n: usize) -> Vec<Recommendation> {
    let Some(history) = cf.user_history(user) else {
        return Vec::new();
    };
    let mut num: FxHashMap<ItemId, f64> = FxHashMap::default();
    let mut den: FxHashMap<ItemId, f64> = FxHashMap::default();
    for (recent_item, rating) in history.recent(cf.config().recent_k) {
        for &(candidate, sim) in cf.similar_items(recent_item) {
            if history.has_rated(candidate) {
                continue;
            }
            *num.entry(candidate).or_insert(0.0) += sim * rating;
            *den.entry(candidate).or_insert(0.0) += sim;
        }
    }
    let mut recs: Vec<Recommendation> = num
        .into_iter()
        .map(|(item, numerator)| {
            let confidence = den[&item];
            Recommendation {
                item,
                score: numerator / confidence,
                confidence,
            }
        })
        .collect();
    recs.sort_by(|a, b| {
        (b.score * b.confidence)
            .total_cmp(&(a.score * a.confidence))
            .then(a.item.cmp(&b.item))
    });
    recs.truncate(n);
    recs
}

fn rec_bits(recs: &[Recommendation]) -> Vec<(ItemId, u64, u64)> {
    recs.iter()
        .map(|r| (r.item, r.score.to_bits(), r.confidence.to_bits()))
        .collect()
}

/// The store-backed `hot_items` as it was: scan the group's counters,
/// sum each item's window, sort every item with a positive count.
fn scan_reference(
    store: &TdStore,
    group: GroupId,
    config: &DemographicPipelineConfig,
    now: u64,
    exclude: &FxHashSet<ItemId>,
    n: usize,
) -> Vec<(ItemId, f64)> {
    let prefix = group_keys::group_prefix(group);
    let items: FxHashSet<ItemId> = store
        .scan_prefix(&prefix)
        .unwrap()
        .into_iter()
        .map(|(key, _)| u64::from_le_bytes(key[prefix.len()..prefix.len() + 8].try_into().unwrap()))
        .collect();
    let windows = config.window.map_or(0, |w| w.sessions);
    let session = config.window.map_or(0, |w| w.session_of(now));
    let counts = items.into_iter().map(|item| {
        let count = windowed_sum(store, &group_keys::hot(group, item), session, windows).unwrap();
        (item, count)
    });
    full_sort(counts.filter(|&(_, c)| c > 0.0), exclude, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn memory_hot_items_equal_the_full_sort(
        window in window(),
        steps in prop::collection::vec(step(), 1..400),
    ) {
        let scheme = GroupScheme::default();
        let weights = ActionWeights::default();
        let mut rec = DemographicRec::new(scheme, weights.clone(), window);
        let mut reference = CountsReference {
            scheme,
            weights,
            window,
            groups: FxHashMap::default(),
            global: WindowedCounts::new(window),
        };
        for user in 0..14 {
            if let Some(p) = profile(user) {
                rec.set_profile(user, p);
            }
        }
        let mut ts = 0;
        for (at, step) in steps.iter().enumerate() {
            match step {
                &Step::Act { user, item, code, dt } => {
                    ts = advance(ts, dt);
                    let action = ActionType::from_code(code).expect("code in range");
                    let action = UserAction::new(user, item, action, ts);
                    rec.process(&action);
                    reference.process(&action);
                }
                Step::Query { user, n, exclude } => {
                    let full = reference.ranking(*user, &FxHashSet::default(), usize::MAX);
                    let exclude = exclude.set(&full);
                    let got = rec.hot_items(*user, *n, &exclude);
                    let want = reference.ranking(*user, &exclude, *n);
                    prop_assert_eq!(bits(&got), bits(&want), "step {} of {:?}", at, steps);
                }
            }
        }
    }

    #[test]
    fn cf_recommend_equals_the_two_map_sort(
        window in window(),
        pruning in prop_oneof![Just(None), Just(Some(1e-3))],
        top_k in prop_oneof![Just(3usize), Just(20)],
        actions in prop::collection::vec((0..10u64, 0..24u64, 0..8u8, ts_step()), 1..300),
        n in n(),
    ) {
        let mut cf = ItemCF::new(CfConfig {
            window,
            pruning_delta: pruning,
            top_k,
            recent_k: 5,
            ..CfConfig::default()
        });
        let mut ts = 0;
        for &(user, item, code, dt) in &actions {
            ts = advance(ts, dt);
            let action = ActionType::from_code(code).expect("code in range");
            cf.process(&UserAction::new(user, item, action, ts));
        }
        for user in 0..11 {
            let got = cf.recommend(user, n);
            let want = cf_reference(&cf, user, n);
            prop_assert_eq!(rec_bits(&got), rec_bits(&want), "user {} of {:?}", user, actions);
        }
    }

    #[test]
    fn store_hot_items_equal_the_scan(
        window in window(),
        steps in prop::collection::vec(
            (
                prop_oneof![Just(0u64), Just(0), Just(0), Just(1), Just(2)],
                item(),
                prop_oneof![Just(1.0f64), Just(2.0), Just(0.5), Just(3.0)],
                ts_step(),
            ),
            1..500,
        ),
        queries in prop::collection::vec((0..4u64, n(), exclude(), -500i64..1500), 1..12),
    ) {
        let store = TdStore::new(StoreConfig::default());
        let config = DemographicPipelineConfig { window, ..Default::default() };
        let bolt = GroupCountBolt::new(store.clone(), config.clone());
        let mut ts = 0;
        // Queries run between writes too, so lists are checked while the
        // writer is mid-stream as well as at its end.
        let every = steps.len() / queries.len() + 1;
        for (at, &(group, item, weight, dt)) in steps.iter().enumerate() {
            ts = advance(ts, dt);
            bolt.count(group, item, weight, ts).unwrap();
            if at % every != every - 1 && at + 1 != steps.len() {
                continue;
            }
            // Group 3 is never written; offsets from `ts` reach sessions
            // the writer has passed, is in, or has not reached.
            for (group, n, exclude, offset) in &queries {
                let now = advance(ts, *offset);
                let full = scan_reference(&store, *group, &config, now, &FxHashSet::default(), usize::MAX);
                let exclude = exclude.set(&full);
                let got = hot_items(&store, *group, &config, now, *n, &exclude);
                let want = scan_reference(&store, *group, &config, now, &exclude, *n);
                prop_assert_eq!(
                    bits(&got), bits(&want),
                    "group {} at {} after step {} of {:?}", group, now, at, steps
                );
            }
        }
    }
}
