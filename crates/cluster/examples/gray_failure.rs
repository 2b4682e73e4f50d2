//! Gray-failure demo: the spout worker of a two-process CF pipeline is
//! SIGSTOPped mid-run — alive to the process reaper, dead to the
//! topology. The supervisor's lease detector expires it, the generation
//! fence shuts out the zombie, the respawn resumes from committed
//! offsets, and the run drains byte-identical to a fault-free baseline.
//!
//! Run with `cargo run --release -p tcluster --example gray_failure`.
//! `scripts/ci.sh` greps the `tguard:` markers printed below.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tcluster::{Cluster, ClusterApp, SupervisorConfig, WorkerContext, WorkerSpec};
use tdaccess::{AccessCluster, ClusterConfig};
use tdstore::{StoreConfig, TdStore};
use tencentrec::action::{ActionType, UserAction};
use tencentrec::topology::{
    build_cf_topology_with_spout, produce_actions, CfParallelism, CfPipelineConfig, OffsetTable,
    ReplayProgress, ReplayableSpout,
};
use tstorm::prelude::*;

const USERS: u64 = 400;

fn workload() -> Vec<UserAction> {
    let mut actions = Vec::new();
    let mut ts = 0u64;
    for u in 1..=USERS {
        for item in [1u64, 2, (u % 7) + 3] {
            ts += 1;
            actions.push(UserAction::new(u, item, ActionType::Click, ts));
        }
    }
    actions
}

fn cf_config() -> CfPipelineConfig {
    CfPipelineConfig {
        dedup_window: 256,
        ..Default::default()
    }
}

/// Sorted `ic:`/`pc:` keys with their 8-byte count prefix — the byte
/// string equivalent runs must agree on.
fn encode_counts(store: &TdStore) -> Vec<u8> {
    let mut out = Vec::new();
    for prefix in [b"ic:".as_slice(), b"pc:".as_slice()] {
        let sorted: BTreeMap<Vec<u8>, Vec<u8>> =
            store.scan_prefix(prefix).unwrap().into_iter().collect();
        for (k, v) in sorted {
            out.extend_from_slice(&(k.len() as u32).to_le_bytes());
            out.extend_from_slice(&k);
            out.extend_from_slice(&v[0..8]);
        }
    }
    out
}

/// Deterministic topic + CF topology, identical in every process; a
/// respawned worker 0 resumes its spout from recovered offsets.
fn app(ctx: &WorkerContext) -> ClusterApp {
    let access = AccessCluster::new(ClusterConfig::default());
    access.create_topic("actions", 4).unwrap();
    produce_actions(&access.producer("actions").unwrap(), &workload()).unwrap();
    let store = TdStore::new(StoreConfig::default());
    let progress = Arc::new(ReplayProgress::default());
    let table = Arc::new(OffsetTable::new());
    let start = ctx
        .recovered
        .as_deref()
        .and_then(OffsetTable::decode)
        .unwrap_or_default();
    let topology = build_cf_topology_with_spout(
        {
            let access = access.clone();
            let progress = Arc::clone(&progress);
            let table = Arc::clone(&table);
            move || {
                ReplayableSpout::new(access.clone(), "actions", "cf", Arc::clone(&progress))
                    .with_start_offsets(start.clone())
                    .with_offset_table(Arc::clone(&table))
            }
        },
        store.clone(),
        cf_config(),
        CfParallelism::default(),
        TopologyConfig::default(),
    )
    .expect("cf topology");
    let mut app = ClusterApp::new(topology);
    app.progress = Some(Arc::new({
        let table = Arc::clone(&table);
        move || table.snapshot().iter().map(|&(_, off)| off).sum()
    }));
    app.commit = Some(Arc::new(move || table.encode()));
    app.drain = Some(Arc::new(move || encode_counts(&store)));
    app
}

/// Fault-free single-process run over the identical workload.
fn baseline() -> Vec<u8> {
    let probe = app(&WorkerContext {
        worker_id: u32::MAX,
        recovered: None,
    });
    let drain = probe.drain.clone().unwrap();
    let progress = probe.progress.clone().unwrap();
    let n = workload().len() as u64;
    let handle = probe.topology.launch();
    let deadline = Instant::now() + Duration::from_secs(60);
    while progress() < n {
        assert!(Instant::now() < deadline, "baseline stalled");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(handle.wait_idle(Duration::from_secs(30)));
    handle.shutdown(Duration::from_secs(5));
    drain()
}

fn main() {
    if tcluster::maybe_run_worker(app) {
        unreachable!("maybe_run_worker exits the process in worker mode");
    }
    let expected = baseline();
    let n = workload().len() as u64;

    let mut config = SupervisorConfig::new(vec![
        WorkerSpec::new(["spout", "pretreatment"]),
        WorkerSpec::protected(["user_history", "item_count", "cf_pair"]),
    ]);
    config.message_timeout = Duration::from_millis(1500);
    config.lease_timeout = Duration::from_millis(700);
    let cluster = Cluster::launch(config, app).expect("launch cluster");
    println!("tguard: supervisor at {} with 2 workers", cluster.addr());

    // Freeze the spout worker as soon as tuples cross the process
    // boundary: SIGSTOP, not SIGKILL — the process stays alive, so only
    // the heartbeat lease can see the failure.
    let stall_deadline = Instant::now() + Duration::from_secs(60);
    while cluster.relayed_batches() == 0 {
        assert!(Instant::now() < stall_deadline, "no relay before the stall");
        std::thread::yield_now();
    }
    println!(
        "tguard: stalling worker 0 (SIGSTOP) at committed={} of {n}",
        cluster.progress(0)
    );
    cluster.stall_worker(0);

    let expiry_deadline = Instant::now() + Duration::from_secs(30);
    while cluster.lease_expiries() == 0 {
        assert!(
            Instant::now() < expiry_deadline,
            "lease never expired for the stalled worker"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let scrape_line = cluster
        .render_metrics()
        .lines()
        .find(|l| l.starts_with("tcluster_lease_expired") && !l.ends_with(" 0"))
        .map(str::to_string)
        .unwrap_or_default();
    println!("tguard: lease expired (scrape: {scrape_line})");

    assert!(
        cluster.wait_progress(0, n, Duration::from_secs(120)),
        "cluster stalled at {}/{n} after the gray failure",
        cluster.progress(0)
    );
    assert!(
        cluster.wait_idle(Duration::from_secs(60)),
        "cluster never went idle"
    );
    assert!(cluster.restarts() >= 1, "worker was never respawned");
    assert!(cluster.generation(0) >= 2, "generation was never bumped");
    println!(
        "tguard: worker 0 respawned (generation {}, restarts {}, fenced {})",
        cluster.generation(0),
        cluster.restarts(),
        cluster.fenced_frames()
    );

    let drained = cluster
        .drain(1, Duration::from_secs(10))
        .expect("drain worker 1");
    assert_eq!(
        drained, expected,
        "recovered counts diverged from the fault-free baseline"
    );
    println!(
        "tguard: converged after gray failure (drain verified, {} bytes)",
        drained.len()
    );

    cluster.shutdown(Duration::from_secs(10));
    println!("GRAY FAILURE OK");
}
