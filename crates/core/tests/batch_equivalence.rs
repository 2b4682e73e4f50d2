//! Batched vs unbatched CF pipelines must agree byte-for-byte: the batch
//! transport (scatter buffers, `execute_batch` delta merging, folded acker
//! traffic) is an optimisation of *how* tuples move and state is written,
//! never of *what* the final similarity tables contain. Runs the same
//! action stream at batch size 1 and 64, with replay dedup off and on,
//! and compares the final `ic:`/`pc:` count tables byte-for-byte plus the
//! similarities recomputed from them over the whole item universe.
//!
//! The batched run must also cost the store no more: a run merges
//! same-key deltas into one update (§5.3's combiner) and reads each
//! item's count once (§5.2's cache), so it spends at most the store
//! operations its tuples would spend executing one at a time.
//!
//! The *stored* similar-items lists (and so `recommend`, which reads
//! them) are deliberately not compared: each list entry holds the sim
//! computed at that pair's last update, using item counts read from a
//! bolt running concurrently — two runs of the *unbatched* pipeline
//! already disagree on those bytes. The counts are the system of record;
//! everything derived from them deterministically must match.

use std::collections::BTreeMap;
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

fn workload() -> Vec<UserAction> {
    let mut actions = Vec::new();
    let mut ts = 0u64;
    for u in 1..=40u64 {
        for item in [1u64, 2, (u % 5) + 3] {
            ts += 1;
            actions.push(UserAction::new(u, item, ActionType::Click, ts));
        }
        if u % 3 == 0 {
            ts += 1;
            actions.push(UserAction::new(u, 1, ActionType::Click, ts));
        }
        if u % 4 == 0 {
            ts += 1;
            actions.push(UserAction::new(u, 2, ActionType::Share, ts));
        }
    }
    actions
}

/// Store operations one drain spent: `get`s, and `modify` calls
/// (`write` + `unchanged`).
struct StoreOps {
    gets: u64,
    modifies: u64,
}

fn run_pipeline(batch_size: usize, cf: CfPipelineConfig) -> (TdStore, StoreOps) {
    let store = TdStore::new(StoreConfig::default());
    let registry = obs::Registry::new();
    store.register_metrics(&registry);
    let access = AccessCluster::new(ClusterConfig::default());
    access.create_topic("actions", 4).unwrap();
    let actions = workload();
    produce_actions(&access.producer("actions").unwrap(), &actions).unwrap();
    let progress = Arc::new(ReplayProgress::default());
    let spout = {
        let progress = Arc::clone(&progress);
        move || ReplayableSpout::new(access.clone(), "actions", "cf", Arc::clone(&progress))
    };
    let topo = build_cf_topology_with_spout(
        spout,
        store.clone(),
        cf,
        CfParallelism::default(),
        TopologyConfig {
            batch_size,
            flush_interval: Duration::from_millis(1),
            ..Default::default()
        },
    )
    .expect("valid topology");
    let handle = topo.launch();
    let deadline = Instant::now() + Duration::from_secs(30);
    while progress.committed() < actions.len() as u64 {
        assert!(
            Instant::now() < deadline,
            "pipeline stalled at batch_size {batch_size}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.shutdown(Duration::from_secs(5));
    let op = |op| {
        registry
            .counter_value("tdstore_ops_total", &[("op", op)])
            .unwrap_or(0)
    };
    let ops = StoreOps {
        gets: op("get"),
        modifies: op("write") + op("unchanged"),
    };
    (store, ops)
}

/// Count tables as raw f64 bits (the value's first 8 bytes); the dedup
/// source ring after the count reflects arrival interleaving across
/// history tasks and legitimately differs between runs.
fn counts(store: &TdStore, prefix: &[u8]) -> BTreeMap<Vec<u8>, u64> {
    store
        .scan_prefix(prefix)
        .unwrap()
        .into_iter()
        .map(|(k, v)| {
            (
                k,
                u64::from_le_bytes(v[0..8].try_into().expect("count prefix")),
            )
        })
        .collect()
}

/// Runs the stream at batch size 1 and 64, checks both, and returns
/// their store operations, unbatched first.
fn assert_equivalent(cf: CfPipelineConfig, label: &str) -> (StoreOps, StoreOps) {
    let (unbatched, base_ops) = run_pipeline(1, cf.clone());
    let base_ic = counts(&unbatched, b"ic:");
    let base_pc = counts(&unbatched, b"pc:");
    assert!(
        !base_ic.is_empty() && !base_pc.is_empty(),
        "{label}: baseline produced no counts"
    );
    let base_query = TopologyRecommender::new(unbatched, cf.clone());

    let (batched, ops) = run_pipeline(64, cf.clone());
    assert!(
        ops.gets <= base_ops.gets,
        "{label}: batched run read more ({} gets vs {})",
        ops.gets,
        base_ops.gets
    );
    assert!(
        ops.modifies <= base_ops.modifies,
        "{label}: batched run wrote more ({} modifies vs {})",
        ops.modifies,
        base_ops.modifies
    );
    assert_eq!(
        counts(&batched, b"ic:"),
        base_ic,
        "{label}: itemCounts diverged under batching"
    );
    assert_eq!(
        counts(&batched, b"pc:"),
        base_pc,
        "{label}: pairCounts diverged under batching"
    );

    // The workload touches items 1..=7; compare every pair.
    let query = TopologyRecommender::new(batched, cf);
    for p in 1u64..=7 {
        for q in (p + 1)..=7 {
            assert_eq!(
                query.similarity(p, q, 1_000).to_bits(),
                base_query.similarity(p, q, 1_000).to_bits(),
                "{label}: sim({p},{q}) diverged under batching"
            );
        }
    }
    (base_ops, ops)
}

#[test]
fn batched_pipeline_matches_unbatched() {
    let (base_ops, ops) = assert_equivalent(CfPipelineConfig::default(), "plain");
    // Items 1 and 2 are in every user's history, so their counts and
    // pairs are hit by many tuples of one run: merging must save writes.
    assert!(
        ops.modifies < base_ops.modifies,
        "plain: batching merged no write ({} modifies vs {})",
        ops.modifies,
        base_ops.modifies
    );
}

#[test]
fn batched_pipeline_matches_unbatched_with_dedup() {
    assert_equivalent(
        CfPipelineConfig {
            dedup_window: 256,
            ..Default::default()
        },
        "dedup",
    );
}

#[test]
fn batched_pipeline_matches_unbatched_windowed() {
    // The per-session tables need each user's actions in order: the
    // max-based rating deltas of an action pair swapped in flight would
    // land in different session buckets. Pretreatment is fields-grouped
    // by user, so the default parallelism keeps that order.
    assert_equivalent(
        CfPipelineConfig {
            window: Some(tencentrec::cf::counts::WindowConfig {
                session_ms: 10,
                sessions: 4,
            }),
            ..Default::default()
        },
        "windowed",
    );
}
