//! End-to-end checkpoint/restore over the real CF pipeline: run, seal a
//! mid-run snapshot through the drain barrier, kill the topology without
//! draining, then restore a *fresh* store from the snapshot and replay
//! only the tail — the result must be byte-identical to an uninterrupted
//! run.

use ckpt::{CheckpointConfig, CkptError, Coordinator};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tdaccess::{AccessCluster, ClusterConfig};
use tdstore::{StoreConfig, TdStore};
use tencentrec::action::{ActionType, UserAction};
use tencentrec::topology::{
    build_cf_topology_with_spout, CfParallelism, CfPipelineConfig, OffsetTable, ReplayProgress,
    ReplayableSpout,
};
use tstorm::prelude::TopologyHandle;

const DEDUP_WINDOW: usize = 256;

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
    }
    actions
}

fn cf_config() -> CfPipelineConfig {
    CfPipelineConfig {
        dedup_window: DEDUP_WINDOW,
        ..Default::default()
    }
}

/// Deterministically rebuilds the action topic (the durable TDAccess log
/// in miniature: same records, same keys, same partitioning).
fn build_topic(actions: &[UserAction]) -> AccessCluster {
    let cluster = AccessCluster::new(ClusterConfig::default());
    cluster.create_topic("actions", 4).unwrap();
    let producer = cluster.producer("actions").unwrap();
    for a in actions {
        producer
            .send(Some(&a.user.to_le_bytes()[..]), &a.to_bytes())
            .unwrap();
    }
    cluster
}

fn fresh_store() -> TdStore {
    TdStore::new(StoreConfig::default())
}

struct Pipeline {
    handle: TopologyHandle,
    store: TdStore,
    progress: Arc<ReplayProgress>,
    offsets: Arc<OffsetTable>,
}

fn launch(cluster: &AccessCluster, start_offsets: Vec<(u32, u64)>) -> Pipeline {
    let store = fresh_store();
    let progress = Arc::new(ReplayProgress::default());
    let offsets = Arc::new(OffsetTable::new());
    let topo = build_cf_topology_with_spout(
        {
            let cluster = cluster.clone();
            let progress = Arc::clone(&progress);
            let offsets = Arc::clone(&offsets);
            let start = start_offsets.clone();
            move || {
                ReplayableSpout::new(cluster.clone(), "actions", "cf", Arc::clone(&progress))
                    .with_offset_table(Arc::clone(&offsets))
                    .with_start_offsets(start.clone())
            }
        },
        store.clone(),
        cf_config(),
        CfParallelism::default(),
        Default::default(),
    )
    .expect("valid topology");
    Pipeline {
        handle: topo.launch(),
        store,
        progress,
        offsets,
    }
}

fn wait_committed(progress: &ReplayProgress, at_least: u64, label: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while progress.committed() < at_least {
        assert!(
            Instant::now() < deadline,
            "{label}: stalled at {}/{} committed",
            progress.committed(),
            at_least
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn counts(store: &TdStore, prefix: &[u8]) -> BTreeMap<Vec<u8>, u64> {
    store
        .scan_prefix(prefix)
        .unwrap()
        .into_iter()
        .map(|(k, v)| (k, u64::from_le_bytes(v[0..8].try_into().unwrap())))
        .collect()
}

/// Per-user histories reduced to their deterministic content: the item
/// set with ratings. Entry order and each item's stored timestamp mirror
/// *arrival* order at the history bolt, which the shuffle-grouped stage
/// upstream (and at-least-once redelivery) legitimately permutes in any
/// run — baseline included — so byte-identity over `hist:` values would
/// be over-strict. Membership and ratings (a max, order-independent) are
/// exactly-once and must match. The embedded replay log is ephemeral
/// dedup state and is not compared; the count tables `ic:`/`pc:` are
/// compared byte-for-byte.
fn histories(store: &TdStore) -> BTreeMap<Vec<u8>, Vec<(u64, u64)>> {
    store
        .scan_prefix(b"hist:")
        .unwrap()
        .into_iter()
        .map(|(k, v)| {
            let (entries, _log) = tencentrec::topology::state::decode_history(&v);
            let mut records: Vec<(u64, u64)> = entries
                .into_iter()
                .map(|(item, rating, _ts)| (item, rating.to_bits()))
                .collect();
            records.sort_unstable();
            (k, records)
        })
        .collect()
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ckpt-test-{}-{tag}.fdb", std::process::id()))
}

#[test]
fn snapshot_plus_tail_replay_matches_uninterrupted_run() {
    let actions = workload();
    let n = actions.len() as u64;

    // Baseline: uninterrupted run to completion.
    let base = launch(&build_topic(&actions), Vec::new());
    wait_committed(&base.progress, n, "baseline");
    base.handle.shutdown(Duration::from_secs(5));
    let base_ic = counts(&base.store, b"ic:");
    let base_pc = counts(&base.store, b"pc:");
    let base_hist = histories(&base.store);
    assert!(!base_ic.is_empty() && !base_pc.is_empty(), "baseline ran");

    // Interrupted life: checkpoint mid-run, keep processing, then die
    // abruptly with uncheckpointed progress in flight.
    let ckpt_path = temp_path("tail-replay");
    let _ = std::fs::remove_file(&ckpt_path);
    let coord = Coordinator::open(&ckpt_path, CheckpointConfig::default()).unwrap();
    let first = launch(&build_topic(&actions), Vec::new());
    wait_committed(&first.progress, n / 2, "first life");
    let meta = coord
        .checkpoint(&first.handle, &first.store, &first.offsets, 1_000)
        .expect("mid-run checkpoint");
    assert_eq!(meta.epoch, 1);
    assert!(meta.entries > 0, "checkpoint captured state");
    // Progress past the snapshot and checkpoint again — steady-state
    // epochs publish deltas (or rebase if churn is high; either way the
    // restore below must resolve epoch 2 exactly). Then kill without
    // draining: everything after the second seal is the tail that
    // replay must reconstruct.
    wait_committed(&first.progress, n * 3 / 4, "first life, post-checkpoint");
    let meta2 = coord
        .checkpoint(&first.handle, &first.store, &first.offsets, 2_000)
        .expect("second checkpoint");
    assert_eq!(meta2.epoch, 2);
    first.handle.kill();

    // Second life: fresh store, snapshot + tail replay only.
    let coord = Coordinator::open(&ckpt_path, CheckpointConfig::default()).unwrap();
    let restored_store = fresh_store();
    let restored = coord
        .restore_into(&restored_store)
        .unwrap()
        .expect("snapshot exists");
    assert_eq!(restored.meta.epoch, 2);
    assert_eq!(restored.meta.created_ms, 2_000);
    let skipped: u64 = restored.start_offsets.iter().map(|&(_, off)| off).sum();
    assert!(
        skipped >= n / 2,
        "snapshot offsets cover the pre-checkpoint prefix ({skipped}/{n})"
    );

    let second = {
        let cluster = build_topic(&actions);
        let store = restored_store.clone();
        let progress = Arc::new(ReplayProgress::default());
        let offsets = Arc::new(OffsetTable::new());
        let start = restored.start_offsets.clone();
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
            cf_config(),
            CfParallelism::default(),
            Default::default(),
        )
        .expect("valid topology");
        Pipeline {
            handle: topo.launch(),
            store,
            progress,
            offsets,
        }
    };
    wait_committed(&second.progress, n - skipped, "tail replay");
    second.handle.shutdown(Duration::from_secs(5));

    assert_eq!(
        counts(&second.store, b"ic:"),
        base_ic,
        "itemCounts diverged"
    );
    assert_eq!(
        counts(&second.store, b"pc:"),
        base_pc,
        "pairCounts diverged"
    );
    assert_eq!(histories(&second.store), base_hist, "histories diverged");
    let _ = std::fs::remove_file(&ckpt_path);
}

#[test]
fn checkpoint_epochs_advance_and_metrics_register() {
    let actions = workload();
    let n = actions.len() as u64;
    let path = temp_path("epochs");
    let _ = std::fs::remove_file(&path);
    let coord = Coordinator::open(
        &path,
        CheckpointConfig {
            retain: 2,
            ..Default::default()
        },
    )
    .unwrap();

    let run = launch(&build_topic(&actions), Vec::new());
    wait_committed(&run.progress, n / 4, "first quarter");
    coord
        .checkpoint(&run.handle, &run.store, &run.offsets, 100)
        .unwrap();
    wait_committed(&run.progress, n / 2, "half");
    coord
        .checkpoint(&run.handle, &run.store, &run.offsets, 200)
        .unwrap();
    wait_committed(&run.progress, n, "full");
    let meta = coord
        .checkpoint(&run.handle, &run.store, &run.offsets, 300)
        .unwrap();
    run.handle.shutdown(Duration::from_secs(5));

    assert_eq!(meta.epoch, 3);
    assert_eq!(coord.latest().unwrap().epoch, 3);
    // retain = 2: epochs 2 and 3 survive. Whether epoch 1 does too
    // depends on the full/delta decision at epochs 2 and 3 (chain-aware
    // retention keeps a delta's full base alive), which varies with how
    // much state churned between barriers — so only the tail is exact.
    let epochs = coord.snapshots().epochs();
    assert!(epochs.ends_with(&[2, 3]), "unexpected epochs {epochs:?}");

    // After the final (drained) checkpoint the offset vector covers the
    // whole topic.
    let snap = coord.snapshots().load_latest().unwrap();
    let offs = OffsetTable::decode(&snap.offsets).unwrap();
    assert_eq!(offs.iter().map(|&(_, o)| o).sum::<u64>(), n);

    let registry = obs::Registry::new();
    coord.register_metrics(&registry);
    let rendered = registry.render();
    assert!(rendered.contains("ckpt_checkpoints_total 3"), "{rendered}");
    assert!(rendered.contains("ckpt_last_epoch 3"), "{rendered}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn steady_state_publishes_deltas_and_rebases_on_schedule() {
    let actions = workload();
    let n = actions.len() as u64;
    let path = temp_path("deltas");
    let _ = std::fs::remove_file(&path);
    let coord = Coordinator::open(
        &path,
        CheckpointConfig {
            rebase_every: 3,
            ..Default::default()
        },
    )
    .unwrap();

    // Drain the whole workload first so consecutive barriers capture an
    // identical, fully-settled state.
    let run = launch(&build_topic(&actions), Vec::new());
    wait_committed(&run.progress, n, "full run");
    let e1 = coord
        .checkpoint(&run.handle, &run.store, &run.offsets, 100)
        .unwrap();
    let e2 = coord
        .checkpoint(&run.handle, &run.store, &run.offsets, 200)
        .unwrap();
    let e3 = coord
        .checkpoint(&run.handle, &run.store, &run.offsets, 300)
        .unwrap();
    let e4 = coord
        .checkpoint(&run.handle, &run.store, &run.offsets, 400)
        .unwrap();

    // Epoch 1: the first epoch is always a full blob. Epochs 2-3: no
    // state changed, so the deltas are empty and tiny. Epoch 4: the
    // rebase_every = 3 cap forces a full blob again.
    assert!(e1.entries > 0 && e1.bytes > 1_000, "epoch 1 is full");
    for (e, full) in [(&e2, false), (&e3, false), (&e4, true)] {
        if full {
            assert_eq!(e.entries, e1.entries, "rebase republishes full state");
            assert!(e.bytes >= e1.bytes / 2, "rebase is blob-sized");
        } else {
            assert_eq!(e.entries, 0, "quiescent delta carries no pairs");
            assert!(
                e.bytes < e1.bytes / 10,
                "delta ({} bytes) must be far below the full blob ({} bytes)",
                e.bytes,
                e1.bytes
            );
        }
    }

    // The mid-chain epoch restores byte-identically to the full state.
    let chain_snap = coord.snapshots().load(3).unwrap();
    let full_snap = coord.snapshots().load_record(1).unwrap();
    assert_eq!(chain_snap.state, full_snap.puts, "chain == base state");

    // Restoring into the still-populated first-life store is the
    // documented footgun: it must be rejected, not silently merged.
    match coord.restore_into(&run.store) {
        Err(CkptError::DirtyStore) => {}
        other => panic!("expected DirtyStore, got {other:?}"),
    }

    let registry = obs::Registry::new();
    coord.register_metrics(&registry);
    let rendered = registry.render();
    assert!(rendered.contains("ckpt_rebase_total 1"), "{rendered}");
    assert!(rendered.contains("ckpt_delta_bytes"), "{rendered}");

    run.handle.shutdown(Duration::from_secs(5));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn publish_failure_increments_failures_counter() {
    // Regression for the ckpt_failures_total undercount: a store error
    // during the durable publish (not just barrier timeouts) must be
    // counted. A read-only snapshot path fails exactly there — after
    // the barrier succeeded, inside publish.
    let actions = workload();
    let n = actions.len() as u64;
    let path = temp_path("rofail");
    let _ = std::fs::remove_file(&path);
    // Seed the log so the read-only open has something to read.
    {
        let coord = Coordinator::open(&path, CheckpointConfig::default()).unwrap();
        coord.snapshots().publish(1, b"", &[]).unwrap();
    }
    let coord = Coordinator::open_read_only(&path, CheckpointConfig::default()).unwrap();
    let run = launch(&build_topic(&actions), Vec::new());
    wait_committed(&run.progress, n / 4, "quarter");
    match coord.checkpoint(&run.handle, &run.store, &run.offsets, 100) {
        Err(CkptError::Store(_)) => {}
        other => panic!("expected Store error from read-only publish, got {other:?}"),
    }
    run.handle.shutdown(Duration::from_secs(5));

    let registry = obs::Registry::new();
    coord.register_metrics(&registry);
    let rendered = registry.render();
    assert!(rendered.contains("ckpt_failures_total 1"), "{rendered}");
    assert!(rendered.contains("ckpt_checkpoints_total 0"), "{rendered}");
    // The read-only life also never disturbed the on-disk log.
    let coord = Coordinator::open(&path, CheckpointConfig::default()).unwrap();
    assert_eq!(coord.latest().unwrap().epoch, 1);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn zero_retain_config_is_rejected_at_open() {
    let path = temp_path("retain0");
    let _ = std::fs::remove_file(&path);
    match Coordinator::open(
        &path,
        CheckpointConfig {
            retain: 0,
            ..Default::default()
        },
    ) {
        Err(CkptError::Config(_)) => {}
        Err(other) => panic!("expected Config error, got {other:?}"),
        Ok(_) => panic!("expected Config error, got a coordinator"),
    }
    match Coordinator::open(
        &path,
        CheckpointConfig {
            rebase_every: 0,
            ..Default::default()
        },
    ) {
        Err(CkptError::Config(_)) => {}
        Err(other) => panic!("expected Config error, got {other:?}"),
        Ok(_) => panic!("expected Config error, got a coordinator"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn restore_into_empty_coordinator_reports_none_and_corrupt_offsets_error() {
    let path = temp_path("empty");
    let _ = std::fs::remove_file(&path);
    let coord = Coordinator::open(&path, CheckpointConfig::default()).unwrap();
    let store = fresh_store();
    assert!(coord.restore_into(&store).unwrap().is_none());

    // A manifest pointing at a snapshot whose offset vector does not
    // decode must surface Corrupt, not silently replay from zero.
    coord
        .snapshots()
        .publish(0, b"not-an-offset-table", &[])
        .unwrap();
    match coord.restore_into(&store) {
        Err(CkptError::Corrupt(_)) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}
