//! tguard integration tests: gray-failure detection (lease expiry over
//! heartbeats), generation fencing of zombie incarnations, and fail-fast
//! degradation while a worker's lease is down.
//!
//! Like `multiprocess.rs`, the supervisor re-executes THIS test binary
//! with `--exact <test_fn>`, so every test calls `maybe_run_worker` with
//! its own app builder before any assertion runs.

use bytes::BytesMut;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ckpt::{CheckpointConfig, Coordinator};
use tcluster::protocol::{self, Msg};
use tcluster::{
    maybe_run_worker, Cluster, ClusterApp, SupervisorConfig, WorkerContext, WorkerSpec,
};
use tdaccess::{AccessCluster, ClusterConfig};
use tdstore::{StoreConfig, TdStore};
use tencentrec::action::{ActionType, UserAction};
use tencentrec::topology::{
    build_cf_topology_with_spout, produce_actions, CfParallelism, CfPipelineConfig, OffsetTable,
    ReplayProgress, ReplayableSpout,
};
use tstorm::prelude::*;
use wire::split_frame;

/// Checkpoint path for the stalled-state-worker test, inherited by
/// respawned worker processes.
const ENV_SNAP: &str = "TGUARD_SNAP_PATH";

fn spawn_args(test_fn: &str) -> Vec<String> {
    vec!["--exact".into(), test_fn.into(), "--nocapture".into()]
}

/// The file whose existence lets the respawned bolt worker of the
/// stalled-downstream test run by process `supervisor` register.
fn respawn_gate(supervisor: u32) -> PathBuf {
    std::env::temp_dir().join(format!("tguard-gate-{supervisor}"))
}

/// In the stalled-downstream test's respawned bolt worker (slot 1,
/// generation above 1), waits for the gate file before registering. A
/// replacement registers within milliseconds of the lease expiry, and the
/// expiry-to-registration window is the only time a relay is failed fast;
/// held shut until the supervisor side has seen one, the window's traffic
/// no longer depends on scheduling. Bounded, so a failed run strands no
/// worker process for long.
fn hold_respawned_bolt_worker() {
    let var = |name| std::env::var(name).unwrap_or_default();
    if var(tcluster::ENV_WORKER_ID) == "1"
        && !matches!(var(tcluster::ENV_GENERATION).as_str(), "" | "1")
    {
        let gate = respawn_gate(std::os::unix::process::parent_id());
        poll_until(Duration::from_secs(60), || gate.exists());
    }
}

/// Polls `probe` until it returns true or `timeout` elapses.
fn poll_until(timeout: Duration, mut probe: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if probe() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

// ---------------------------------------------------------------------
// Paced smoke app: number spout on worker 0, set-dedup sum bolt on
// worker 1. The spout paces emission (~1 tuple/ms) so a mid-run SIGSTOP
// of the bolt worker lands while tuples are still flowing — the window
// in which fail-fast degradation is observable.
// ---------------------------------------------------------------------

const FLOW_LIMIT: u64 = 1500;

struct PacedSpout {
    next: u64,
    limit: u64,
    replay: VecDeque<u64>,
    acked: Arc<AtomicU64>,
}

impl Spout for PacedSpout {
    fn next_tuple(&mut self, collector: &mut SpoutCollector) -> bool {
        let value = self.replay.pop_front().or_else(|| {
            (self.next <= self.limit).then(|| {
                let v = self.next;
                self.next += 1;
                v
            })
        });
        match value {
            Some(v) => {
                // Pacing keeps emission (and the fail→replay churn while
                // the destination is down) alive across the lease window.
                std::thread::sleep(Duration::from_millis(1));
                collector.emit(vec![Value::U64(v)], Some(v));
                true
            }
            None => false,
        }
    }

    fn ack(&mut self, _msg_id: u64) {
        self.acked.fetch_add(1, Ordering::SeqCst);
    }

    fn fail(&mut self, msg_id: u64) {
        self.replay.push_back(msg_id);
    }

    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(DEFAULT_STREAM, ["n"])]
    }
}

struct DistinctSumBolt {
    seen: Arc<Mutex<HashSet<u64>>>,
}

impl Bolt for DistinctSumBolt {
    fn execute(&mut self, tuple: &Tuple, _collector: &mut BoltCollector) -> Result<(), String> {
        let Value::U64(n) = tuple.values()[0] else {
            return Err("non-u64 value".into());
        };
        self.seen.lock().unwrap().insert(n);
        Ok(())
    }
}

fn paced_app(limit: u64) -> impl Fn(&WorkerContext) -> ClusterApp {
    move |_ctx| {
        let acked = Arc::new(AtomicU64::new(0));
        let seen = Arc::new(Mutex::new(HashSet::new()));
        let mut builder = TopologyBuilder::new();
        builder.set_spout(
            "numbers",
            {
                let acked = Arc::clone(&acked);
                move || PacedSpout {
                    next: 1,
                    limit,
                    replay: VecDeque::new(),
                    acked: Arc::clone(&acked),
                }
            },
            1,
        );
        builder
            .set_bolt(
                "sum",
                {
                    let seen = Arc::clone(&seen);
                    move || DistinctSumBolt {
                        seen: Arc::clone(&seen),
                    }
                },
                2,
            )
            .shuffle_grouping("numbers");
        let mut app = ClusterApp::new(builder.build().expect("paced topology"));
        app.progress = Some(Arc::new(move || acked.load(Ordering::SeqCst)));
        app.drain = Some(Arc::new(move || {
            let seen = seen.lock().unwrap();
            (seen.len() as u64).to_le_bytes().to_vec()
        }));
        app
    }
}

/// Graceful degradation under a gray failure of a *downstream* worker:
/// SIGSTOP the bolt worker mid-stream. The lease detector (not process
/// reaping — the process is alive) must declare it failed; while the
/// lease is down, batches routed to it are failed fast at the acker
/// (bounded buffering, immediate replay) rather than buffered toward the
/// frozen socket; and after the respawn the run drains to idle. The
/// bolt's in-memory set is intentionally lost — this test proves
/// liveness and degradation accounting, not state recovery (that is
/// `stalled_state_owning_worker_recovers_via_lease_and_snapshot`). The
/// replacement is held at a gate until a batch has been failed fast (see
/// [`hold_respawned_bolt_worker`]).
#[test]
fn stalled_downstream_worker_fails_fast_and_unwedges() {
    let app = paced_app(FLOW_LIMIT);
    hold_respawned_bolt_worker();
    assert!(!maybe_run_worker(&app));
    let gate = respawn_gate(std::process::id());
    let _ = std::fs::remove_file(&gate);
    let mut config = SupervisorConfig::new(vec![
        WorkerSpec::protected(["numbers"]),
        WorkerSpec::new(["sum"]),
    ]);
    // Tree timeout below the lease: trees stuck toward the stalled
    // worker fail (and replay) while the lease clock is still running,
    // so the spout is actively emitting when the lease expires and the
    // fail-fast path deterministically sees traffic.
    config.message_timeout = Duration::from_millis(600);
    config.lease_timeout = Duration::from_millis(800);
    config.spawn_args = spawn_args("stalled_downstream_worker_fails_fast_and_unwedges");
    let cluster = Cluster::launch(config, &app).expect("launch");

    assert!(
        cluster.wait_progress(0, 10, Duration::from_secs(60)),
        "no progress before the stall"
    );
    cluster.stall_worker(1);
    assert!(
        poll_until(Duration::from_secs(30), || cluster.lease_expiries() >= 1),
        "lease never expired for the stalled worker (restarts {})",
        cluster.restarts()
    );
    assert!(
        poll_until(Duration::from_secs(30), || cluster.failed_fast_batches()
            >= 1),
        "no batch was failed fast while the lease was down (progress {}, relayed {}, \
         restarts {}, lease expiries {})",
        cluster.progress(0),
        cluster.relayed_batches(),
        cluster.restarts(),
        cluster.lease_expiries()
    );
    std::fs::write(&gate, b"").expect("open the respawn gate");
    assert!(
        poll_until(Duration::from_secs(30), || cluster.restarts() >= 1),
        "stalled worker was never respawned"
    );
    assert!(
        cluster.generation(1) >= 2,
        "respawn must bump the generation"
    );
    assert!(
        cluster.wait_progress(0, FLOW_LIMIT, Duration::from_secs(120)),
        "cluster wedged after the gray failure (progress {}, lease expiries {}, \
         failed fast {}, restarts {})",
        cluster.progress(0),
        cluster.lease_expiries(),
        cluster.failed_fast_batches(),
        cluster.restarts()
    );
    assert!(cluster.wait_idle(Duration::from_secs(60)), "never idle");
    let metrics = cluster.render_metrics();
    assert!(
        metrics.contains("tcluster_lease_expired"),
        "missing lease metric:\n{metrics}"
    );
    assert!(
        metrics.contains("tcluster_relay_failed_fast"),
        "missing fail-fast metric:\n{metrics}"
    );
    cluster.shutdown(Duration::from_secs(10));
    let _ = std::fs::remove_file(&gate);
}

/// Generation fencing, both surfaces. A zombie (stale-generation)
/// registration is rejected with a Shutdown frame; a connection that
/// registered legitimately but stamps frames with a stale generation has
/// those frames dropped and counted.
#[test]
fn stale_generation_frames_are_fenced() {
    let app = paced_app(100);
    assert!(!maybe_run_worker(&app));
    let mut config = SupervisorConfig::new(vec![
        WorkerSpec::protected(["numbers"]),
        WorkerSpec::new(["sum"]),
    ]);
    config.message_timeout = Duration::from_millis(1500);
    config.spawn_args = spawn_args("stale_generation_frames_are_fenced");
    let cluster = Cluster::launch(config, &app).expect("launch");
    assert!(
        cluster.wait_progress(0, 100, Duration::from_secs(60)),
        "cluster never converged"
    );
    assert!(cluster.wait_idle(Duration::from_secs(30)), "never idle");
    assert_eq!(cluster.fenced_frames(), 0, "no fencing before the zombies");

    // Surface 1: a zombie registers with a generation the supervisor has
    // never issued for the slot. It must be rejected, counted, and told
    // to exit — the reply is a Shutdown frame followed by a close.
    let mut zombie = TcpStream::connect(cluster.addr()).expect("connect zombie");
    let mut frame = BytesMut::new();
    protocol::encode(
        &mut frame,
        999,
        &Msg::Register {
            worker_id: 0,
            generation: 999,
        },
    );
    zombie.write_all(&frame).expect("zombie register");
    zombie
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut buf = BytesMut::new();
    let mut chunk = [0u8; 4096];
    let mut got_shutdown = false;
    'reply: loop {
        while let Ok(Some((_, tag, body))) = split_frame(&mut buf) {
            if matches!(protocol::decode(tag, &body), Ok(Msg::Shutdown)) {
                got_shutdown = true;
                break 'reply;
            }
        }
        match zombie.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
    assert!(
        got_shutdown,
        "fenced registration must be answered with Shutdown"
    );
    assert!(
        poll_until(Duration::from_secs(10), || cluster.fenced_frames() >= 1),
        "stale registration was not counted as fenced"
    );

    // Surface 2: register with the *current* generation (a legal
    // reconnect — it steals the mailbox, exactly like multiprocess.rs's
    // duplicate-join test), then send a data-plane frame stamped with a
    // stale generation. The frame must be dropped and counted, not
    // processed.
    let mut half_zombie = TcpStream::connect(cluster.addr()).expect("connect half-zombie");
    let mut frame = BytesMut::new();
    protocol::encode(
        &mut frame,
        1,
        &Msg::Register {
            worker_id: 0,
            generation: 1,
        },
    );
    protocol::encode(
        &mut frame,
        999, // stale stamp on an otherwise well-formed frame
        &Msg::Status {
            progress: u64::MAX,
            inflight: 0,
            spouts_idle: true,
        },
    );
    half_zombie.write_all(&frame).expect("half-zombie frames");
    assert!(
        poll_until(Duration::from_secs(10), || cluster.fenced_frames() >= 2),
        "stale data frame was not counted as fenced (fenced {})",
        cluster.fenced_frames()
    );
    assert_ne!(
        cluster.progress(0),
        u64::MAX,
        "a fenced Status frame must never reach the health record"
    );

    drop(zombie);
    drop(half_zombie);
    // Worker 0's real mailbox was stolen by the half-zombie, so its
    // Shutdown frame can't be delivered; the short timeout kills it.
    cluster.shutdown(Duration::from_millis(800));
}

// ---------------------------------------------------------------------
// Stalled state-owning worker: the full tguard recovery story. One
// worker owns the whole CF pipeline and its store, checkpointing to a
// durable snapshot file (the `snapshot_restore.rs` pattern). A SIGSTOP
// freezes it mid-run; only the lease can detect that. Recovery must
// fence the zombie, respawn, restore the snapshot, replay the tail, and
// drain byte-identical to a fault-free baseline.
// ---------------------------------------------------------------------

fn workload() -> Vec<UserAction> {
    let mut actions = Vec::new();
    let mut ts = 0u64;
    for u in 1..=160u64 {
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
        // Covers the replay horizon of a barrier sealed with acks still
        // in flight to the spout's own acker, relayed by the supervisor.
        dedup_window: 256,
        ..Default::default()
    }
}

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

fn build_topic() -> AccessCluster {
    let access = AccessCluster::new(ClusterConfig::default());
    access.create_topic("actions", 4).unwrap();
    produce_actions(&access.producer("actions").unwrap(), &workload()).unwrap();
    access
}

fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_millis() as u64
}

/// Checkpointing single-worker CF app (see `snapshot_restore.rs` for the
/// full rationale of the sealed-offsets commit discipline).
fn cf_guard_app(ctx: &WorkerContext) -> ClusterApp {
    let access = build_topic();
    let store = TdStore::new(StoreConfig::default());
    let progress = Arc::new(ReplayProgress::default());
    let table = Arc::new(OffsetTable::new());
    let coordinator = Arc::new(
        Coordinator::open(
            PathBuf::from(std::env::var(ENV_SNAP).expect("TGUARD_SNAP_PATH not set")),
            CheckpointConfig {
                drain_timeout: Duration::from_secs(30),
                retain: 2,
                ..Default::default()
            },
        )
        .expect("open checkpoint log"),
    );

    let restored = coordinator.restore_into(&store).expect("restore snapshot");
    let start_table = OffsetTable::new();
    if let Some(r) = &restored {
        start_table.merge(&r.start_offsets);
    }
    if let Some(rec) = ctx.recovered.as_deref().and_then(OffsetTable::decode) {
        start_table.merge(&rec);
    }
    let start = start_table.snapshot();
    let sealed = Arc::new(Mutex::new(start_table.encode()));

    let topology = build_cf_topology_with_spout(
        {
            let access = access.clone();
            let progress = Arc::clone(&progress);
            let table = Arc::clone(&table);
            let start = start.clone();
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
    app.commit = Some(Arc::new({
        let sealed = Arc::clone(&sealed);
        move || sealed.lock().unwrap().clone()
    }));
    app.drain = Some(Arc::new({
        let store = store.clone();
        move || encode_counts(&store)
    }));
    app.checkpoint = Some(Arc::new({
        let coordinator = Arc::clone(&coordinator);
        let store = store.clone();
        let table = Arc::clone(&table);
        move |handle| {
            if coordinator
                .checkpoint(handle, &store, &table, now_ms())
                .is_ok()
            {
                if let Some(snap) = coordinator.snapshots().load_latest() {
                    *sealed.lock().unwrap() = snap.offsets;
                }
            }
        }
    }));
    app.checkpoint_every = Duration::from_millis(100);
    app
}

fn baseline_counts() -> Vec<u8> {
    let access = build_topic();
    let store = TdStore::new(StoreConfig::default());
    let progress = Arc::new(ReplayProgress::default());
    let topology = build_cf_topology_with_spout(
        {
            let access = access.clone();
            let progress = Arc::clone(&progress);
            move || ReplayableSpout::new(access.clone(), "actions", "cf", Arc::clone(&progress))
        },
        store.clone(),
        cf_config(),
        CfParallelism::default(),
        TopologyConfig::default(),
    )
    .expect("baseline topology");
    let n = workload().len() as u64;
    let handle = topology.launch();
    let deadline = Instant::now() + Duration::from_secs(60);
    while progress.committed() < n {
        assert!(
            Instant::now() < deadline,
            "baseline stalled at {}/{n}",
            progress.committed()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(handle.wait_idle(Duration::from_secs(30)));
    handle.shutdown(Duration::from_secs(5));
    let bytes = encode_counts(&store);
    assert!(!bytes.is_empty(), "baseline produced no counts");
    bytes
}

/// The tentpole acceptance test: SIGSTOP the worker that owns *all*
/// state mid-run. Process reaping can never see it (the process is
/// alive); the lease must expire, the zombie must be fenced by
/// generation, the respawn must restore from the durable snapshot and
/// replay the tail — and the drained counts must match the fault-free
/// baseline byte for byte.
#[test]
fn stalled_state_owning_worker_recovers_via_lease_and_snapshot() {
    assert!(!maybe_run_worker(cf_guard_app));
    let dir = std::env::temp_dir().join(format!("tguard-snap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_var(ENV_SNAP, dir.join("ckpt.log"));

    let baseline = baseline_counts();
    let n = workload().len() as u64;
    let mut config = SupervisorConfig::new(vec![WorkerSpec::new([
        "spout",
        "pretreatment",
        "user_history",
        "item_count",
        "cf_pair",
    ])]);
    config.message_timeout = Duration::from_millis(1500);
    config.lease_timeout = Duration::from_millis(800);
    config.spawn_args = spawn_args("stalled_state_owning_worker_recovers_via_lease_and_snapshot");
    let cluster = Cluster::launch(config, cf_guard_app).expect("launch");

    // Let real progress (and at least a checkpoint or two) land, then
    // freeze the worker mid-flight.
    assert!(
        cluster.wait_progress(0, n / 3, Duration::from_secs(60)),
        "no progress before the stall"
    );
    cluster.stall_worker(0);
    assert!(
        poll_until(Duration::from_secs(30), || cluster.lease_expiries() >= 1),
        "lease never expired: a stalled-but-alive worker went undetected"
    );
    assert!(
        poll_until(Duration::from_secs(30), || cluster.restarts() >= 1),
        "lease expiry never produced a respawn"
    );
    assert!(
        cluster.generation(0) >= 2,
        "respawn must bump the slot generation (got {})",
        cluster.generation(0)
    );

    // Converge-and-drain with the snapshot_restore retry discipline: a
    // drain polled mid-recovery can be incomplete, so only a baseline
    // match (or the deadline) ends the loop.
    let mut drained = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(180);
    loop {
        if Instant::now() >= deadline {
            break;
        }
        if !cluster.wait_progress(0, n, Duration::from_secs(60))
            || !cluster.wait_idle(Duration::from_secs(30))
        {
            continue;
        }
        if let Some(bytes) = cluster.drain(0, Duration::from_secs(10)) {
            drained = bytes;
            if drained == baseline {
                break;
            }
        }
    }
    assert_eq!(
        drained,
        baseline,
        "recovered counts diverged from the fault-free baseline \
         (lease expiries {}, restarts {}, fenced {})",
        cluster.lease_expiries(),
        cluster.restarts(),
        cluster.fenced_frames()
    );
    let metrics = cluster.render_metrics();
    assert!(
        metrics.contains("tcluster_lease_expired"),
        "missing lease metric:\n{metrics}"
    );
    assert!(
        metrics.contains("tcluster_worker_generation"),
        "missing generation metric:\n{metrics}"
    );
    cluster.shutdown(Duration::from_secs(10));
    let _ = std::fs::remove_dir_all(&dir);
}
