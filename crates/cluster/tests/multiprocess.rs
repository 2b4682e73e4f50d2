//! Multi-process cluster tests: the supervisor re-executes THIS test
//! binary (`spawn_args = ["--exact", "<test_fn>", "--nocapture"]`) so
//! each worker process re-enters the same test fn, where
//! `maybe_run_worker` diverts it into the worker runtime before any test
//! assertions run.
//!
//! Covers the PR's acceptance criteria end to end:
//! - a topology split across ≥ 2 OS processes with tuples crossing
//!   worker boundaries over batched TCP frames;
//! - killing a worker mid-run triggers respawn + offset-resumed replay;
//! - the chaos matrix (WorkerKill + LinkPartition + WorkerStall +
//!   HeartbeatDrop over seeds) drains the CF pipeline to bytes identical
//!   to a fault-free single-process run;
//! - rebalance edge cases: zero spare slots, reassignment mid-batch
//!   (kill with tuples in flight), duplicate join of a restarted worker.

use bytes::BytesMut;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tchaos::{FaultPlan, FaultSite};
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

fn spawn_args(test_fn: &str) -> Vec<String> {
    vec!["--exact".into(), test_fn.into(), "--nocapture".into()]
}

// ---------------------------------------------------------------------
// Smoke app: number spout on worker 0, set-dedup sum bolt on worker 1.
// Replay-safe by construction (the bolt collects *distinct* values), so
// worker kills and duplicate deliveries cannot change the drained bytes.
// ---------------------------------------------------------------------

struct NumberSpout {
    next: u64,
    limit: u64,
    replay: VecDeque<u64>,
    acked: Arc<AtomicU64>,
}

impl Spout for NumberSpout {
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

const SMOKE_LIMIT: u64 = 100;

/// One number spout per `(name, first)`, emitting `first..first +
/// SMOKE_LIMIT`, all shuffled into the set-dedup sum bolt.
fn number_app(spouts: &[(&str, u64)]) -> ClusterApp {
    let acked = Arc::new(AtomicU64::new(0));
    let seen = Arc::new(Mutex::new(HashSet::new()));
    let mut builder = TopologyBuilder::new();
    for &(name, first) in spouts {
        let acked = Arc::clone(&acked);
        builder.set_spout(
            name,
            move || NumberSpout {
                next: first,
                limit: first + SMOKE_LIMIT - 1,
                replay: VecDeque::new(),
                acked: Arc::clone(&acked),
            },
            1,
        );
    }
    let mut sum = builder.set_bolt(
        "sum",
        {
            let seen = Arc::clone(&seen);
            move || DistinctSumBolt {
                seen: Arc::clone(&seen),
            }
        },
        2,
    );
    for &(name, _) in spouts {
        sum.shuffle_grouping(name);
    }
    let mut app = ClusterApp::new(builder.build().expect("smoke topology"));
    app.progress = Some(Arc::new(move || acked.load(Ordering::SeqCst)));
    app.drain = Some(Arc::new(move || {
        let seen = seen.lock().unwrap();
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(&(seen.len() as u64).to_le_bytes());
        out.extend_from_slice(&seen.iter().sum::<u64>().to_le_bytes());
        out
    }));
    app
}

fn smoke_app(_ctx: &WorkerContext) -> ClusterApp {
    number_app(&[("numbers", 1)])
}

fn smoke_config(test_fn: &str) -> SupervisorConfig {
    let mut config = SupervisorConfig::new(vec![
        WorkerSpec::new(["numbers"]),
        WorkerSpec::protected(["sum"]),
    ]);
    config.message_timeout = Duration::from_millis(1500);
    config.spawn_args = spawn_args(test_fn);
    config
}

/// Asserts worker 1's drained state is exactly {1..=SMOKE_LIMIT}.
fn assert_smoke_drain(cluster: &Cluster) {
    assert_drain(cluster, 1, SMOKE_LIMIT);
}

/// Asserts worker `w`'s drained state is exactly {1..=n}.
fn assert_drain(cluster: &Cluster, w: usize, n: u64) {
    let bytes = cluster
        .drain(w, Duration::from_secs(10))
        .expect("drain from the bolt worker");
    let count = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
    let sum = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    assert_eq!(count, n, "distinct values");
    assert_eq!(sum, n * (n + 1) / 2, "sum of 1..=n");
}

#[test]
fn tuples_cross_process_boundaries_and_drain() {
    assert!(!maybe_run_worker(smoke_app));
    let cluster = Cluster::launch(
        smoke_config("tuples_cross_process_boundaries_and_drain"),
        smoke_app,
    )
    .expect("launch");
    assert!(
        cluster.wait_progress(0, SMOKE_LIMIT, Duration::from_secs(60)),
        "spout never saw {SMOKE_LIMIT} acks (progress {})",
        cluster.progress(0)
    );
    assert!(cluster.wait_idle(Duration::from_secs(30)), "never idle");
    assert!(
        cluster.relayed_batches() > 0,
        "no tuple batch crossed the process boundary"
    );
    assert_smoke_drain(&cluster);

    // The merged scrape carries per-worker labelled series from both
    // worker processes plus aggregates.
    let metrics = cluster.render_metrics();
    assert!(metrics.contains("worker=\"w0\""), "missing w0:\n{metrics}");
    assert!(metrics.contains("worker=\"w1\""), "missing w1:\n{metrics}");
    assert!(
        metrics.contains("tstorm_emitted_total"),
        "missing runtime families:\n{metrics}"
    );
    assert_eq!(cluster.restarts(), 0, "no worker should have died");
    assert_eq!(cluster.pending_trees(), 0, "idle with trees pending");
    // The spout worker's acker tracks its trees, so their latency reaches
    // the scrape (metrics ship every 200 ms; wait for one after the acks).
    let deadline = Instant::now() + Duration::from_secs(10);
    while pipeline_latency_count(&cluster.render_metrics(), "w0") == 0 {
        assert!(
            Instant::now() < deadline,
            "no pipeline latency in w0's series:\n{}",
            cluster.render_metrics()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    cluster.shutdown(Duration::from_secs(10));
}

/// The sample count of `worker`'s `tstorm_pipeline_latency_seconds`
/// series in a rendered scrape (0 when absent).
fn pipeline_latency_count(metrics: &str, worker: &str) -> u64 {
    let series = format!("tstorm_pipeline_latency_seconds_count{{worker=\"{worker}\"}} ");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&series))
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or(0)
}

/// Two spouts, `low` (1..=limit) and `high` (limit+1..=2*limit), for
/// workers 0 and 1, and the shared sum bolt for worker 2: the bolt's
/// acker traffic goes to two different owners. Each worker runs one
/// spout, so a worker's progress is its spout's acks.
fn two_owner_app(_ctx: &WorkerContext) -> ClusterApp {
    number_app(&[("low", 1), ("high", SMOKE_LIMIT + 1)])
}

#[test]
fn acks_reach_two_owners_through_one_bolt_worker() {
    assert!(!maybe_run_worker(two_owner_app));
    let mut config = SupervisorConfig::new(vec![
        WorkerSpec::new(["low"]),
        WorkerSpec::new(["high"]),
        WorkerSpec::protected(["sum"]),
    ]);
    config.message_timeout = Duration::from_millis(1500);
    config.spawn_args = spawn_args("acks_reach_two_owners_through_one_bolt_worker");
    let cluster = Cluster::launch(config, two_owner_app).expect("launch");
    for w in [0, 1] {
        assert!(
            cluster.wait_progress(w, SMOKE_LIMIT, Duration::from_secs(60)),
            "worker {w}'s spout saw {} of {SMOKE_LIMIT} acks",
            cluster.progress(w)
        );
    }
    assert!(cluster.wait_idle(Duration::from_secs(30)), "never idle");
    assert_eq!(
        cluster.progress(0),
        SMOKE_LIMIT,
        "low acked exactly once each"
    );
    assert_eq!(
        cluster.progress(1),
        SMOKE_LIMIT,
        "high acked exactly once each"
    );
    assert_eq!(cluster.pending_trees(), 0);
    assert_drain(&cluster, 2, 2 * SMOKE_LIMIT);
    assert_eq!(cluster.restarts(), 0, "no worker should have died");
    cluster.shutdown(Duration::from_secs(10));
}

/// Accepts one connection on `listener` within ten seconds.
fn accept_within(listener: &TcpListener) -> TcpStream {
    listener.set_nonblocking(true).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                return stream;
            }
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => panic!("no worker connection within 10 s: {e}"),
        }
    }
}

/// Reads the next whole frame off `stream` and decodes it.
fn read_msg(stream: &mut TcpStream, buf: &mut BytesMut) -> Msg {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some((_, tag, body)) = wire::split_frame(buf).unwrap() {
            return protocol::decode(tag, &body).unwrap();
        }
        let n = stream.read(&mut chunk).expect("read from the worker");
        assert!(n > 0, "the worker closed the stream");
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// A `Start` with no `Assignment` before it is a broken stream, not a
/// panic: the worker re-dials and registers again, and exits cleanly
/// when told to.
#[test]
fn start_before_assignment_redials() {
    assert!(!maybe_run_worker(smoke_app));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut child = Command::new(std::env::current_exe().unwrap())
        .args(spawn_args("start_before_assignment_redials"))
        .env(tcluster::ENV_ROLE, "worker")
        .env(
            tcluster::ENV_SUPERVISOR,
            listener.local_addr().unwrap().to_string(),
        )
        .env(tcluster::ENV_WORKER_ID, "0")
        .spawn()
        .expect("spawn a worker");
    let frame = |msg: &Msg| {
        let mut out = BytesMut::new();
        protocol::encode(&mut out, 0, msg);
        out
    };
    let mut first = accept_within(&listener);
    assert!(matches!(
        read_msg(&mut first, &mut BytesMut::new()),
        Msg::Register { worker_id: 0, .. }
    ));
    first.write_all(&frame(&Msg::Start)).unwrap();
    let mut second = accept_within(&listener);
    assert!(matches!(
        read_msg(&mut second, &mut BytesMut::new()),
        Msg::Register { worker_id: 0, .. }
    ));
    second.write_all(&frame(&Msg::Shutdown)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("the worker did not exit on Shutdown");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(status.success(), "worker exited with {status}");
}

/// Reassignment mid-batch: the spout worker dies with tuples in flight;
/// the monitor respawns it with the same (sticky) assignment, timed-out
/// trees replay, and the drained state is unchanged.
#[test]
fn killed_worker_respawns_and_cluster_converges() {
    assert!(!maybe_run_worker(smoke_app));
    let cluster = Cluster::launch(
        smoke_config("killed_worker_respawns_and_cluster_converges"),
        smoke_app,
    )
    .expect("launch");
    // Let some (not all) trees complete so the kill lands mid-stream.
    assert!(
        cluster.wait_progress(0, SMOKE_LIMIT / 4, Duration::from_secs(60)),
        "no progress before kill"
    );
    cluster.kill_worker(0);
    // The respawned spout re-emits from scratch; set-dedup absorbs the
    // overlap and the acked counter reaches the limit again.
    assert!(
        cluster.wait_progress(0, SMOKE_LIMIT, Duration::from_secs(60)),
        "respawned worker never converged (progress {}, restarts {})",
        cluster.progress(0),
        cluster.restarts()
    );
    assert!(cluster.wait_idle(Duration::from_secs(30)), "never idle");
    assert!(
        cluster.restarts() >= 1,
        "monitor never respawned the worker"
    );
    assert_smoke_drain(&cluster);
    cluster.shutdown(Duration::from_secs(10));
}

/// Duplicate join: a stray connection registers as worker 0 (stealing
/// its mailbox — exactly what a half-dead incarnation would do), then
/// the real worker is killed. The respawned worker's re-registration
/// displaces the impostor and the cluster still converges.
#[test]
fn duplicate_join_of_restarted_worker_is_absorbed() {
    assert!(!maybe_run_worker(smoke_app));
    let cluster = Cluster::launch(
        smoke_config("duplicate_join_of_restarted_worker_is_absorbed"),
        smoke_app,
    )
    .expect("launch");
    assert!(
        cluster.wait_progress(0, 1, Duration::from_secs(60)),
        "no progress before the duplicate join"
    );
    let mut impostor = TcpStream::connect(cluster.addr()).expect("connect impostor");
    let mut frame = BytesMut::new();
    // Current generation (1): the fence admits it as a legal reconnect —
    // the respawn path below must still win the mailbox back. Stale
    // generations are rejected outright; see the tguard tests.
    protocol::encode(
        &mut frame,
        0,
        &Msg::Register {
            worker_id: 0,
            generation: 1,
        },
    );
    impostor.write_all(&frame).expect("impostor register");
    // Give the supervisor a beat to process the duplicate registration,
    // then kill the real worker: its respawn must win the mailbox back.
    std::thread::sleep(Duration::from_millis(100));
    cluster.kill_worker(0);
    assert!(
        cluster.wait_progress(0, SMOKE_LIMIT, Duration::from_secs(60)),
        "cluster never recovered from the duplicate join (progress {}, restarts {})",
        cluster.progress(0),
        cluster.restarts()
    );
    assert!(cluster.wait_idle(Duration::from_secs(30)), "never idle");
    assert_smoke_drain(&cluster);
    drop(impostor);
    cluster.shutdown(Duration::from_secs(10));
}

#[test]
fn placement_validation_rejects_bad_specs() {
    assert!(!maybe_run_worker(smoke_app));
    // Same component on two workers.
    let double = SupervisorConfig::new(vec![
        WorkerSpec::new(["numbers", "sum"]),
        WorkerSpec::new(["sum"]),
    ]);
    assert!(Cluster::launch(double, smoke_app).is_err());
    // A component nobody runs.
    let missing = SupervisorConfig::new(vec![WorkerSpec::new(["numbers"])]);
    assert!(Cluster::launch(missing, smoke_app).is_err());
    // A component the topology doesn't have.
    let unknown = SupervisorConfig::new(vec![
        WorkerSpec::new(["numbers", "sum"]),
        WorkerSpec::new(["ghost"]),
    ]);
    assert!(Cluster::launch(unknown, smoke_app).is_err());
    // And no workers at all.
    assert!(Cluster::launch(SupervisorConfig::new(vec![]), smoke_app).is_err());
}

// ---------------------------------------------------------------------
// CF convergence under chaos: spout + pretreatment on worker 0
// (kill-eligible), the stateful bolts + store on worker 1 (protected —
// the store lives in worker memory, so a kill there is data loss by
// design, not a recoverable fault). Every process rebuilds the same
// topic deterministically; a respawned worker 0 resumes its spout from
// the offsets the dead incarnation committed through the supervisor.
// ---------------------------------------------------------------------

/// The 160-user stream tguard's CF test also drives. WorkerKill and
/// WorkerStall draw once per worker-0 heartbeat (~20/s, about half of
/// them lost to HeartbeatDrop), so a seed injects only what its run lasts
/// long enough to draw: the stream is sized for runs that span enough
/// heartbeats for the matrix to kill and stall, not only to converge.
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
        // At least the spout's `max_pending` (256): replay memory then
        // forgets only sources that can no longer come back — and the
        // respawn path re-reads only from the recovered offsets, inside
        // the same span.
        dedup_window: 256,
        ..Default::default()
    }
}

/// `ic:`/`pc:` keys with their count prefix (the value's first 8 bytes),
/// serialized in sorted order — the byte string two equivalent runs must
/// agree on.
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

/// Builds the topic (deterministic: same workload, same FNV key
/// partitioning in every process) and the full CF topology over it.
fn cf_cluster_app(ctx: &WorkerContext) -> ClusterApp {
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
    // Progress = total committed source records, computed from the
    // offset table so it survives restarts (the table is seeded from the
    // recovered watermarks on respawn).
    app.progress = Some(Arc::new({
        let table = Arc::clone(&table);
        move || table.snapshot().iter().map(|&(_, off)| off).sum()
    }));
    app.commit = Some(Arc::new(move || table.encode()));
    app.drain = Some(Arc::new(move || encode_counts(&store)));
    app
}

/// Fault-free single-process baseline over the identical workload and
/// config, drained to the same byte encoding the cluster drain uses.
fn baseline_counts() -> Vec<u8> {
    let app = cf_cluster_app(&WorkerContext {
        worker_id: u32::MAX,
        recovered: None,
    });
    let drain = app.drain.clone().unwrap();
    let progress = app.progress.clone().unwrap();
    let n = workload().len() as u64;
    let handle = app.topology.launch();
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while progress() < n {
        assert!(
            std::time::Instant::now() < deadline,
            "baseline stalled at {}/{n}",
            progress()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(handle.wait_idle(Duration::from_secs(30)));
    handle.shutdown(Duration::from_secs(5));
    let bytes = drain();
    assert!(!bytes.is_empty(), "baseline produced no counts");
    bytes
}

fn seed_matrix() -> Vec<u64> {
    match std::env::var("CHAOS_SEEDS") {
        Ok(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => vec![3, 7, 11, 23, 42],
    }
}

/// The cluster acceptance test: for every seed, run the CF pipeline
/// split across two worker processes while chaos kills the spout worker,
/// SIGSTOPs it (a gray failure only the lease detector can see), drops
/// its heartbeats, and partitions the inter-worker link — then require
/// the drained counts to be byte-identical to the fault-free
/// single-process baseline.
#[test]
fn cf_cluster_converges_under_worker_kill_and_link_partition() {
    assert!(!maybe_run_worker(cf_cluster_app));
    let baseline = baseline_counts();
    let n = workload().len() as u64;
    let mut kills = 0u64;
    let mut drops = 0u64;
    let mut stalls = 0u64;
    let mut heartbeat_drops = 0u64;
    for seed in seed_matrix() {
        let mut config = SupervisorConfig::new(vec![
            WorkerSpec::new(["spout", "pretreatment"]),
            WorkerSpec::protected(["user_history", "item_count", "cf_pair"]),
        ]);
        // WorkerKill and WorkerStall draw once per status frame (~20/s)
        // from worker 0; LinkPartition draws once per relayed tuple
        // batch; HeartbeatDrop draws once per status frame from any
        // worker. max_faults 2 on kills exercises the double-kill
        // (duplicate replayed tail) path. HeartbeatDrop at 0.5 cannot
        // expire an 800 ms lease (that takes 16 consecutive losses) —
        // it proves lossy heartbeats alone don't cause spurious
        // respawns, while WorkerStall proves a real stall does.
        config.fault_plan = FaultPlan::builder(seed)
            .site(FaultSite::WorkerKill, 0.03, 2)
            .site(FaultSite::LinkPartition, 0.02, 5)
            .site(FaultSite::WorkerStall, 0.02, 1)
            .site(FaultSite::HeartbeatDrop, 0.5, 40)
            .build();
        config.message_timeout = Duration::from_millis(1500);
        config.lease_timeout = Duration::from_millis(800);
        config.spawn_args = spawn_args("cf_cluster_converges_under_worker_kill_and_link_partition");
        let cluster = Cluster::launch(config, cf_cluster_app).expect("launch");
        assert!(
            cluster.wait_progress(0, n, Duration::from_secs(180)),
            "seed {seed}: committed stalled at {}/{n} (restarts {}, dropped {})",
            cluster.progress(0),
            cluster.restarts(),
            cluster.dropped_batches()
        );
        assert!(
            cluster.wait_idle(Duration::from_secs(60)),
            "seed {seed}: cluster never went idle"
        );
        let drained = cluster
            .drain(1, Duration::from_secs(10))
            .expect("drain worker 1");
        assert_eq!(
            drained,
            baseline,
            "seed {seed}: cluster counts diverged from the fault-free baseline \
             (restarts {}, dropped batches {})",
            cluster.restarts(),
            cluster.dropped_batches()
        );
        kills += cluster.fault_plan().fired(FaultSite::WorkerKill);
        drops += cluster.dropped_batches();
        stalls += cluster.fault_plan().fired(FaultSite::WorkerStall);
        heartbeat_drops += cluster.fault_plan().fired(FaultSite::HeartbeatDrop);
        cluster.shutdown(Duration::from_secs(10));
    }
    // A chaos matrix that injects nothing proves nothing. (Only enforced
    // on the full default matrix; a CHAOS_SEEDS override narrows it.)
    if std::env::var("CHAOS_SEEDS").is_err() {
        assert!(kills > 0, "no worker kill fired across the seed matrix");
        assert!(drops > 0, "no link partition fired across the seed matrix");
        assert!(stalls > 0, "no worker stall fired across the seed matrix");
        assert!(
            heartbeat_drops > 0,
            "no heartbeat drop fired across the seed matrix"
        );
    }
    println!(
        "cluster chaos matrix: {kills} kills, {drops} dropped batches, \
         {stalls} stalls, {heartbeat_drops} dropped heartbeats"
    );
}
