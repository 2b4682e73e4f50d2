//! End-to-end integration: TDAccess → tstorm topology → TDStore → query,
//! including a store failure mid-stream, mirroring the deployment of Fig. 9.

use ckpt::{CheckpointConfig, Coordinator};
use crossbeam::channel::unbounded;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tdaccess::{AccessCluster, ClusterConfig};
use tdstore::{StoreConfig, TdStore};
use tencentrec::action::{ActionType, UserAction};
use tencentrec::topology::{
    build_cf_topology, build_cf_topology_with_spout, CfParallelism, CfPipelineConfig, OffsetTable,
    ReplayProgress, ReplayableSpout, TopologyRecommender,
};
use tstorm::prelude::TopologyHandle;

fn encode(action: &UserAction) -> Vec<u8> {
    let mut p = Vec::with_capacity(25);
    p.extend_from_slice(&action.user.to_le_bytes());
    p.extend_from_slice(&action.item.to_le_bytes());
    p.push(action.action.code());
    p.extend_from_slice(&action.timestamp.to_le_bytes());
    p
}

fn decode(p: &[u8]) -> UserAction {
    UserAction::new(
        u64::from_le_bytes(p[0..8].try_into().unwrap()),
        u64::from_le_bytes(p[8..16].try_into().unwrap()),
        ActionType::from_code(p[16]).expect("valid code"),
        u64::from_le_bytes(p[17..25].try_into().unwrap()),
    )
}

#[test]
fn actions_flow_from_access_to_recommendations() {
    let access = AccessCluster::new(ClusterConfig {
        brokers: 2,
        ..Default::default()
    });
    access.create_topic("actions", 3).unwrap();
    let producer = access.producer("actions").unwrap();
    for user in 0..100u64 {
        for (item, offset) in [(1u64, 0u64), (2, 1)] {
            let a = UserAction::new(user, item, ActionType::Click, user * 10 + offset);
            producer
                .send(Some(&user.to_le_bytes()), &encode(&a))
                .unwrap();
        }
    }

    let store = TdStore::new(StoreConfig::default());
    let (tx, rx) = unbounded();
    let config = CfPipelineConfig::default();
    let topo =
        build_cf_topology(rx, store.clone(), config.clone(), CfParallelism::default()).unwrap();
    let handle = topo.launch();

    let mut consumer = access.consumer("actions", "pipeline").unwrap();
    let mut delivered = 0;
    loop {
        let batch = consumer.poll(64).unwrap();
        if batch.is_empty() {
            break;
        }
        for msg in batch {
            tx.send(decode(&msg.payload)).unwrap();
            delivered += 1;
        }
    }
    assert_eq!(delivered, 200, "every published action must be consumed");
    drop(tx);
    assert!(handle.wait_idle(Duration::from_secs(30)));
    handle.shutdown(Duration::from_secs(5));

    let query = TopologyRecommender::new(store, config);
    let sim = query.similarity(1, 2, 10_000);
    assert!(sim > 0.9, "perfectly co-clicked items: sim = {sim}");
}

/// Launches the CF topology on `store`, reading the `actions` topic of
/// `cluster` from `start` (the offsets a checkpoint sealed; empty = from
/// the beginning).
fn launch_replayable(
    cluster: &AccessCluster,
    store: &TdStore,
    start: Vec<(u32, u64)>,
) -> (TopologyHandle, Arc<ReplayProgress>, Arc<OffsetTable>) {
    let progress = Arc::new(ReplayProgress::default());
    let offsets = Arc::new(OffsetTable::new());
    let topo = build_cf_topology_with_spout(
        {
            let cluster = cluster.clone();
            let progress = Arc::clone(&progress);
            let offsets = Arc::clone(&offsets);
            move || {
                ReplayableSpout::new(cluster.clone(), "actions", "cf", Arc::clone(&progress))
                    .with_offset_table(Arc::clone(&offsets))
                    .with_start_offsets(start.clone())
            }
        },
        store.clone(),
        CfPipelineConfig::default(),
        CfParallelism::default(),
        Default::default(),
    )
    .expect("valid topology");
    (topo.launch(), progress, offsets)
}

fn wait_committed(progress: &ReplayProgress, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while progress.committed() < n {
        assert!(
            Instant::now() < deadline,
            "stalled at {}/{n}",
            progress.committed()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn store_failover_mid_stream_preserves_results() {
    let publish = |cluster: &AccessCluster, users: std::ops::Range<u64>| {
        let producer = cluster.producer("actions").unwrap();
        for user in users {
            for (item, offset) in [(1u64, 0u64), (2, 1)] {
                let a = UserAction::new(user, item, ActionType::Click, user * 10 + offset);
                producer
                    .send(Some(&user.to_le_bytes()), &a.to_bytes())
                    .unwrap();
            }
        }
    };
    let topic = || {
        let cluster = AccessCluster::new(ClusterConfig::default());
        cluster.create_topic("actions", 3).unwrap();
        cluster
    };
    // Item and pair counts, without the replay memory kept beside them.
    let counts = |s: &TdStore| {
        let mut pairs = s.scan_prefix(b"ic:").unwrap();
        pairs.extend(s.scan_prefix(b"pc:").unwrap());
        let mut counts: Vec<_> = pairs
            .into_iter()
            .map(|(k, v)| (k, v[..8].to_vec()))
            .collect();
        counts.sort_unstable();
        counts
    };

    // The whole stream through a store that never fails.
    let cluster = topic();
    publish(&cluster, 0..100);
    let reference = TdStore::new(StoreConfig::default());
    let (handle, progress, _) = launch_replayable(&cluster, &reference, Vec::new());
    wait_committed(&progress, 200);
    handle.shutdown(Duration::from_secs(5));

    // First half, a checkpoint, then the store is lost with its process.
    let ckpt_path =
        std::env::temp_dir().join(format!("full-stack-failover-{}.fdb", std::process::id()));
    let _ = std::fs::remove_file(&ckpt_path);
    let coord = Coordinator::open(&ckpt_path, CheckpointConfig::default()).unwrap();
    let cluster = topic();
    publish(&cluster, 0..50);
    let store = TdStore::new(StoreConfig::default());
    let (handle, progress, offsets) = launch_replayable(&cluster, &store, Vec::new());
    wait_committed(&progress, 100);
    coord
        .checkpoint(&handle, &store, &offsets, 1_000)
        .expect("checkpoint publishes");
    handle.kill();
    drop(store);

    // The second half arrives; the replacement store is restored from the
    // checkpoint and the topology resumes from the offsets it sealed.
    publish(&cluster, 50..100);
    let store = TdStore::new(StoreConfig::default());
    let restored = coord
        .restore_into(&store)
        .unwrap()
        .expect("a checkpoint to fail over to");
    let (handle, progress, _) = launch_replayable(&cluster, &store, restored.start_offsets);
    wait_committed(&progress, 100);
    handle.shutdown(Duration::from_secs(5));
    let _ = std::fs::remove_file(&ckpt_path);

    assert!(!counts(&reference).is_empty());
    assert_eq!(
        counts(&store),
        counts(&reference),
        "counts must survive the store's failure"
    );
    let query = TopologyRecommender::new(store, CfPipelineConfig::default());
    let sim = query.similarity(1, 2, 10_000);
    assert!(sim > 0.9, "co-clicked items after failover: sim = {sim}");
}

#[test]
fn freshness_under_one_second() {
    // The paper's headline latency claim: "whenever an event occurs, it
    // costs less than one second for TencentRec to respond to this change
    // and update the recommendation results."
    let store = TdStore::new(StoreConfig::default());
    let (tx, rx) = unbounded();
    let config = CfPipelineConfig::default();
    let topo =
        build_cf_topology(rx, store.clone(), config.clone(), CfParallelism::default()).unwrap();
    let handle = topo.launch();
    let query = TopologyRecommender::new(store, config);

    for u in 0..30u64 {
        tx.send(UserAction::new(u, 7, ActionType::Click, u))
            .unwrap();
        tx.send(UserAction::new(u, 8, ActionType::Click, u + 1))
            .unwrap();
    }
    assert!(handle.wait_idle(Duration::from_secs(30)));

    let t0 = Instant::now();
    tx.send(UserAction::new(500, 7, ActionType::Click, 10_000))
        .unwrap();
    let mut fresh = false;
    while t0.elapsed() < Duration::from_secs(1) {
        if query.recommend(500, 1).first().map(|r| r.0) == Some(8) {
            fresh = true;
            break;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    drop(tx);
    handle.shutdown(Duration::from_secs(5));
    assert!(fresh, "recommendation must reflect the action within 1 s");
}
