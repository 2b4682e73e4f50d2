//! `TopologyRecommender::recommend` reads the history and every
//! similar-items list in place and picks its top-n by selection. Its page
//! must be the one the decode-and-sort query it replaced
//! (`support::oracle_recommend`) returns, bit for bit: the same items, the
//! same `f64` bits, the same order — the chaos matrix compares pages, and
//! serving answers from this query.
//!
//! The states are written straight into a `TdStore`, so they include what
//! the pipeline never writes: histories longer than `max_history`,
//! similar-items lists longer than `top_k`, torn values and duplicates.

mod support;

use proptest::prelude::*;
use support::oracle_recommend;
use tdstore::{StoreConfig, TdStore};
use tencentrec::topology::state::{
    encode_history, encode_sim_list, HistoryRecord, ReplayLogEntry, SimRecord,
};
use tencentrec::topology::{CfPipelineConfig, TopologyRecommender};
use tencentrec::types::{keys, ItemId};

/// Items are drawn from a small universe so that candidates recur across
/// the recent items' lists and often are items the user rated.
const ITEMS: u64 = 24;
const USER: u64 = 7;

#[derive(Debug)]
struct Case {
    /// The pipeline's replay memory: the stored log keeps at most this
    /// many of `log`'s entries (none at 0).
    dedup_window: usize,
    history: Vec<HistoryRecord>,
    log: Vec<ReplayLogEntry>,
    /// Keep only this many bytes of the history value (a torn write).
    cut: Option<usize>,
    /// Per item of the universe: no list, or a list plus this many bytes
    /// of torn tail.
    sims: Vec<Option<(Vec<SimRecord>, usize)>>,
    n: usize,
    recent_k: usize,
    max_history: usize,
    top_k: usize,
}

/// Values from a small set tie often (a candidate's score is then exactly
/// its rating), which puts the final item-id tie-break to work.
fn weight() -> impl Strategy<Value = f64> {
    prop_oneof![Just(1.0), Just(0.5), Just(2.0), 0.0f64..1.0, -1.0f64..1.0]
}

fn case() -> impl Strategy<Value = Case> {
    // Timestamps in 0..6 over up to 40 records: ties straddle every
    // `recent_k` boundary.
    let record = (0..ITEMS, weight(), 0u64..6);
    let log_entry = (
        any::<u64>(),
        weight(),
        prop::collection::vec((0..ITEMS, 0..ITEMS, weight()), 0..3),
    )
        .prop_map(|(src, delta_rating, pair_deltas)| ReplayLogEntry {
            src,
            delta_rating,
            pair_deltas,
        });
    let sim_list = prop_oneof![
        Just(None),
        (
            prop::collection::vec((0..ITEMS, weight()), 0..30),
            0usize..16
        )
            .prop_map(Some),
    ];
    let history = (
        prop_oneof![Just(0usize), Just(8usize)],
        prop::collection::vec(record, 0..40),
        prop::collection::vec(log_entry, 0..3),
        prop_oneof![Just(None), (0usize..1200).prop_map(Some)],
    );
    let query = (
        prop_oneof![Just(0usize), Just(1), Just(10), Just(1000)],
        prop_oneof![Just(0usize), Just(1), Just(10)],
        prop_oneof![Just(4usize), Just(1024)],
        prop_oneof![Just(2usize), Just(20)],
    );
    (
        history,
        prop::collection::vec(sim_list, ITEMS as usize),
        query,
    )
        .prop_map(
            |((dedup_window, history, log, cut), sims, (n, recent_k, max_history, top_k))| Case {
                dedup_window,
                history,
                log,
                cut,
                sims,
                n,
                recent_k,
                max_history,
                top_k,
            },
        )
}

fn store_of(case: &Case) -> TdStore {
    let store = TdStore::new(StoreConfig::default());
    let kept = case.log.len().min(case.dedup_window);
    let mut hist = encode_history(&case.history, &case.log[..kept]);
    if let Some(cut) = case.cut {
        hist.truncate(cut);
    } else if case.dedup_window == 0 {
        hist.extend_from_slice(&[0xAB; 7]);
    }
    store.put(&keys::user_history(USER), hist).unwrap();
    for (item, list) in case.sims.iter().enumerate() {
        if let Some((list, torn)) = list {
            let mut raw = encode_sim_list(list);
            raw.extend(std::iter::repeat_n(0xCD, *torn));
            store
                .put(&keys::similar_items(item as ItemId), raw)
                .unwrap();
        }
    }
    store
}

/// A page as comparable bits.
fn bits(page: &[(ItemId, f64)]) -> Vec<(ItemId, u64)> {
    page.iter().map(|&(i, s)| (i, s.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn recommend_equals_the_decode_and_sort_oracle(case in case()) {
        let store = store_of(&case);
        let config = CfPipelineConfig {
            dedup_window: case.dedup_window,
            recent_k: case.recent_k,
            max_history: case.max_history,
            top_k: case.top_k,
            ..CfPipelineConfig::default()
        };
        let query = TopologyRecommender::new(store.clone(), config.clone());
        for user in [USER, USER + 1] {
            let got = query.recommend(user, case.n);
            let want = oracle_recommend(&store, &config, user, case.n);
            prop_assert_eq!(bits(&got), bits(&want), "user {} in {:?}", user, case);
        }
    }
}

/// Equal timestamps at the `recent_k` boundary: the record stored first
/// is the more recent one, as a stable newest-first sort leaves it.
#[test]
fn ts_ties_at_the_boundary_go_by_record_position() {
    let store = TdStore::new(StoreConfig::default());
    // Items 3 and 1 tie on ts; with recent_k = 1 only item 3 (stored
    // first) is expanded, so only its neighbour 13 is recommended.
    let history = [(3, 1.0, 5), (1, 1.0, 5), (2, 1.0, 4)];
    store
        .put(&keys::user_history(USER), encode_history(&history, &[]))
        .unwrap();
    store
        .put(&keys::similar_items(3), encode_sim_list(&[(13, 0.5)]))
        .unwrap();
    store
        .put(&keys::similar_items(1), encode_sim_list(&[(11, 0.5)]))
        .unwrap();
    let config = CfPipelineConfig {
        dedup_window: 0,
        recent_k: 1,
        ..CfPipelineConfig::default()
    };
    let query = TopologyRecommender::new(store.clone(), config.clone());
    assert_eq!(query.recommend(USER, 10), vec![(13, 1.0)]);
    assert_eq!(
        query.recommend(USER, 10),
        oracle_recommend(&store, &config, USER, 10)
    );
}
