//! Two drains of one stream through the default CF topology must store
//! the same state, and this measures how far the similar-items lists they
//! serve still wander.
//!
//! A TDAccess partition holds each user's actions in order, since
//! `produce_actions` keys by user, and the spout → pretreatment edge is
//! fields-grouped by user, so one task carries a user's actions to
//! `user_history` in that order. With the edge shuffled over the two
//! pretreatment tasks, two actions of one user could arrive swapped: a
//! different action's block then carried a pair, the history's replay log
//! differed, and so did the set of sources a `pc:` ring remembers.
//!
//! The `sim:` lists are not a function of the stream: each entry holds
//! the similarity computed at that pair's last update, from item counts
//! another bolt writes concurrently, and an entry is not revisited when
//! the counts grow later. So the second test only reports how far they
//! wander, against each other and against the exact top-10 of Eq. 5 over
//! the final counts, and asserts the readings at landing less a margin.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tdaccess::{AccessCluster, ClusterConfig};
use tdstore::{StoreConfig, TdStore};
use tencentrec::action::{ActionType, UserAction};
use tencentrec::topology::{
    build_cf_topology_with_spout, produce_actions, CfParallelism, CfPipelineConfig, ReplayProgress,
    ReplayableSpout, TopologyRecommender,
};
use tstorm::topology::TopologyConfig;

const USERS: u64 = 400;
const ITEMS: u64 = 300;
const CLICKS: u64 = 6_000;
const TOP: usize = 10;

/// A fixed stream: clicks of users drawn uniformly on items skewed
/// towards low ids (the square of a uniform draw), so users repeat within
/// the run and popular items share many pairs.
fn stream() -> Vec<UserAction> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..CLICKS)
        .map(|ts| {
            let user = 1 + next() % USERS;
            let u = (next() >> 11) as f64 / (1u64 << 53) as f64;
            let item = 1 + ((u * u) * ITEMS as f64) as u64;
            UserAction::new(user, item, ActionType::Click, ts + 1)
        })
        .collect()
}

/// Drains the stream once through the default topology.
fn drain(actions: &[UserAction]) -> TdStore {
    let store = TdStore::new(StoreConfig::default());
    let access = AccessCluster::new(ClusterConfig::default());
    access.create_topic("actions", 4).unwrap();
    produce_actions(&access.producer("actions").unwrap(), actions).unwrap();
    let progress = Arc::new(ReplayProgress::default());
    let spout = {
        let progress = Arc::clone(&progress);
        move || ReplayableSpout::new(access.clone(), "actions", "cf", Arc::clone(&progress))
    };
    let handle = build_cf_topology_with_spout(
        spout,
        store.clone(),
        CfPipelineConfig::default(),
        CfParallelism::default(),
        TopologyConfig::default(),
    )
    .expect("valid topology")
    .launch();
    let deadline = Instant::now() + Duration::from_secs(60);
    while progress.committed() < actions.len() as u64 {
        assert!(Instant::now() < deadline, "pipeline stalled");
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.shutdown(Duration::from_secs(5));
    store
}

fn values(store: &TdStore, prefix: &[u8]) -> BTreeMap<Vec<u8>, Vec<u8>> {
    store.scan_prefix(prefix).unwrap().into_iter().collect()
}

/// A counter value (`count:f64 | n:u32 | n × src:u64`) as its count's
/// bits and the set of sources its ring remembers, in whatever order.
fn ring_sets(store: &TdStore, prefix: &[u8]) -> BTreeMap<Vec<u8>, (u64, BTreeSet<u64>)> {
    let ring = |v: &[u8]| {
        let count = u64::from_le_bytes(v[..8].try_into().unwrap());
        let srcs = v[12..].chunks_exact(8);
        (
            count,
            srcs.map(|s| u64::from_le_bytes(s.try_into().unwrap()))
                .collect(),
        )
    };
    values(store, prefix)
        .into_iter()
        .map(|(k, v)| (k, ring(&v)))
        .collect()
}

/// How many keys of `a` and `b` differ, counting a key only one side has.
fn differing<V: PartialEq>(a: &BTreeMap<Vec<u8>, V>, b: &BTreeMap<Vec<u8>, V>) -> usize {
    let keys: BTreeSet<&Vec<u8>> = a.keys().chain(b.keys()).collect();
    keys.into_iter().filter(|k| a.get(*k) != b.get(*k)).count()
}

#[test]
fn two_drains_store_the_same_histories_and_ring_sets() {
    let actions = stream();
    let (a, b) = (drain(&actions), drain(&actions));
    let (hist_a, hist_b) = (values(&a, b"hist:"), values(&b, b"hist:"));
    assert_eq!(hist_a.len() as u64, USERS, "every user has a history");
    assert_eq!(
        differing(&hist_a, &hist_b),
        0,
        "histories differ between two drains of one stream"
    );
    for prefix in [&b"ic:"[..], b"pc:"] {
        let (rings_a, rings_b) = (ring_sets(&a, prefix), ring_sets(&b, prefix));
        assert!(!rings_a.is_empty());
        assert_eq!(
            differing(&rings_a, &rings_b),
            0,
            "{} counters differ in count or ring set",
            String::from_utf8_lossy(prefix)
        );
    }
}

/// The `TOP` most similar items of each list, as sets.
fn top_sets(lists: impl Iterator<Item = Vec<(u64, f64)>>) -> Vec<BTreeSet<u64>> {
    lists
        .map(|mut list| {
            list.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
            list.into_iter().take(TOP).map(|(item, _)| item).collect()
        })
        .collect()
}

/// Items shared by the paired sets over the larger set of each pair.
fn overlap(a: &[BTreeSet<u64>], b: &[BTreeSet<u64>]) -> f64 {
    let shared: usize = a
        .iter()
        .zip(b)
        .map(|(x, y)| x.intersection(y).count())
        .sum();
    let size: usize = a.iter().zip(b).map(|(x, y)| x.len().max(y.len())).sum();
    shared as f64 / size as f64
}

/// Twelve runs on a 2-core box (nine release builds, three debug) read
/// a top-10 overlap of 0.887-0.918 between the two drains' lists, and
/// 0.253-0.281 between a drain's lists and the exact top-10 of its own
/// counts: a rare item's list is topped by entries whose similarity was
/// computed while their other item was rare too (item 50 serves item 202
/// at 0.577, where the final counts give 0.087). The floors sit 0.05
/// under the lowest readings, so a loaded box does not trip them.
#[test]
fn served_lists_stay_near_each_other_and_the_exact_top_ten() {
    let actions = stream();
    let config = CfPipelineConfig::default();
    let items: Vec<u64> = (1..=ITEMS).collect();
    let runs: Vec<TopologyRecommender> = (0..2)
        .map(|_| TopologyRecommender::new(drain(&actions), config.clone()))
        .collect();
    let served: Vec<Vec<BTreeSet<u64>>> = runs
        .iter()
        .map(|run| top_sets(items.iter().map(|&p| run.similar_items(p))))
        .collect();
    // Eq. 5 over the run's own final counts, every other item a candidate.
    let exact: Vec<Vec<BTreeSet<u64>>> = runs
        .iter()
        .map(|run| {
            top_sets(items.iter().map(|&p| {
                let sims = items.iter().filter(|&&q| q != p);
                sims.map(|&q| (q, run.similarity(p, q, 0)))
                    .filter(|&(_, sim)| sim > 0.0)
                    .collect()
            }))
        })
        .collect();
    let between = overlap(&served[0], &served[1]);
    let to_exact = [
        overlap(&served[0], &exact[0]),
        overlap(&served[1], &exact[1]),
    ];
    println!("top-{TOP} overlap: between runs {between:.3}, with the exact lists {to_exact:.3?}");
    assert!(between >= 0.83, "served lists wander apart: {between:.3}");
    for reading in to_exact {
        assert!(reading >= 0.20, "served lists far from Eq. 5: {reading:.3}");
    }
}
