//! Property tests: the incremental CF machinery is equivalent to
//! reference computations on arbitrary action sequences, and the
//! distributed (topology + TDStore) decomposition matches the in-memory
//! engine.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tdaccess::{AccessCluster, ClusterConfig};
use tdstore::{StoreConfig, TdStore};
use tencentrec::action::{ActionType, ActionWeights, UserAction};
use tencentrec::cf::{CfConfig, ExplicitItemCF, ItemCF};
use tencentrec::topology::{
    build_cf_topology_with_spout, produce_actions, CfParallelism, CfPipelineConfig, ReplayProgress,
    ReplayableSpout, TopologyRecommender,
};

fn arb_action() -> impl Strategy<Value = UserAction> {
    (
        0u64..8,   // user
        0u64..10,  // item
        0usize..8, // action kind
        0u64..50,  // timestamp slot
    )
        .prop_map(|(user, item, kind, ts)| {
            UserAction::new(user, item, ActionType::ALL[kind], ts * 100)
        })
}

fn unwindowed_config() -> CfConfig {
    CfConfig {
        linked_time_ms: u64::MAX, // every co-rated pair counts
        window: None,
        pruning_delta: None,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Eq. 5's incremental decomposition equals Eq. 4's batch formula on
    /// the final rating matrix, for any action sequence.
    #[test]
    fn incremental_similarity_equals_batch(actions in prop::collection::vec(arb_action(), 1..120)) {
        let weights = ActionWeights::default();
        let mut incremental = ItemCF::new(unwindowed_config());
        let mut matrix = ExplicitItemCF::new();
        for a in &actions {
            incremental.process(a);
            let r = matrix.rating(a.user, a.item).max(weights.weight(a.action));
            matrix.add_rating(a.user, a.item, r);
        }
        for p in 0u64..10 {
            for q in (p + 1)..10 {
                let inc = incremental.similarity(p, q);
                let batch = matrix.practical_similarity(p, q);
                prop_assert!(
                    (inc - batch).abs() < 1e-9,
                    "sim({p},{q}): incremental {inc} vs batch {batch}"
                );
            }
        }
    }

    /// Similarity always lies in [0, 1] and is symmetric.
    #[test]
    fn similarity_bounded_and_symmetric(actions in prop::collection::vec(arb_action(), 1..120)) {
        let mut cf = ItemCF::new(unwindowed_config());
        for a in &actions {
            cf.process(a);
        }
        for p in 0u64..10 {
            for q in 0u64..10 {
                let s = cf.similarity(p, q);
                prop_assert!((0.0..=1.0 + 1e-9).contains(&s), "sim({p},{q}) = {s}");
                prop_assert!((s - cf.similarity(q, p)).abs() < 1e-12);
            }
        }
    }

    /// Recommendations never include items the user has already rated.
    #[test]
    fn recommendations_exclude_rated(actions in prop::collection::vec(arb_action(), 1..120)) {
        let mut cf = ItemCF::new(unwindowed_config());
        for a in &actions {
            cf.process(a);
        }
        for user in 0u64..8 {
            let rated: Vec<u64> = cf
                .user_history(user)
                .map(|h| h.items().map(|(&i, _)| i).collect())
                .unwrap_or_default();
            for rec in cf.recommend(user, 10) {
                prop_assert!(!rated.contains(&rec.item), "recommended rated item {}", rec.item);
            }
        }
    }
}

proptest! {
    // The topology test spins up threads; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The distributed pipeline (keyed bolts + TDStore state) computes the
    /// same similarities as the sequential in-memory engine.
    #[test]
    fn topology_counts_match_in_memory(actions in prop::collection::vec(arb_action(), 1..60)) {
        let mut reference = ItemCF::new(CfConfig {
            pruning_delta: None,
            ..Default::default()
        });
        for a in &actions {
            reference.process(a);
        }

        let store = TdStore::new(StoreConfig::default());
        let access = AccessCluster::new(ClusterConfig::default());
        access.create_topic("actions", 4).unwrap();
        produce_actions(&access.producer("actions").unwrap(), &actions).unwrap();
        let progress = Arc::new(ReplayProgress::default());
        let spout = {
            let progress = Arc::clone(&progress);
            move || ReplayableSpout::new(access.clone(), "actions", "cf", Arc::clone(&progress))
        };
        let config = CfPipelineConfig::default();
        let topo = build_cf_topology_with_spout(
            spout,
            store.clone(),
            config.clone(),
            CfParallelism::default(),
            Default::default(),
        )
        .expect("valid topology");
        let handle = topo.launch();
        let deadline = Instant::now() + Duration::from_secs(30);
        while progress.committed() < actions.len() as u64 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        prop_assert_eq!(progress.committed(), actions.len() as u64, "pipeline stalled");
        handle.shutdown(Duration::from_secs(5));

        let query = TopologyRecommender::new(store, config);
        for p in 0u64..10 {
            for q in (p + 1)..10 {
                let dist = query.similarity(p, q, 1_000_000);
                let inc = reference.similarity(p, q);
                prop_assert!(
                    (dist - inc).abs() < 1e-9,
                    "sim({p},{q}): topology {dist} vs in-memory {inc}"
                );
            }
        }
    }
}
