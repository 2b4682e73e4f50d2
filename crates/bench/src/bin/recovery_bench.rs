//! Time-to-recover benchmark: snapshot-restore + tail replay versus
//! full-log replay on a day-scale, disk-spilled access log.
//!
//! A primary run processes the log with a checkpoint coordinator,
//! publishes one snapshot near the end (the "last snapshot before the
//! crash"), and is killed without drain. Recovery then races two arms
//! over identical fresh stores:
//!
//! - **restore**: reopen the checkpoint log, load the newest snapshot
//!   into the store, seek the spout to the sealed offset vector, replay
//!   only the tail;
//! - **full replay**: rebuild the whole state from offset zero.
//!
//! Writes its record to `BENCH_recovery.json`. Modes:
//!
//! - default: day-scale sizes.
//! - `--smoke`: small sizes (CI-friendly).
//! - `--check`: exits non-zero unless restore beats full replay by the
//!   committed floor (5x) — the durability acceptance gate.

use ckpt::{CheckpointConfig, Coordinator};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tdaccess::{AccessCluster, ClusterConfig, SegmentConfig};
use tdstore::SnapshotKind;
use tdstore::{StoreConfig, TdStore};
use tencentrec::action::{ActionType, UserAction};
use tencentrec::topology::{
    build_cf_topology_with_spout, CfParallelism, CfPipelineConfig, OffsetTable, ReplayProgress,
    ReplayableSpout,
};
use tstorm::prelude::TopologyHandle;
use tstorm::topology::TopologyConfig;

/// Restore must beat full replay by at least this factor.
const SPEEDUP_FLOOR: f64 = 5.0;
/// Snapshot position in the log: the crash loses the last 5%.
const SNAP_FRACTION: f64 = 0.95;
/// A steady-state delta checkpoint must stay under this fraction of the
/// full blob it patches — the incremental-checkpoint acceptance gate.
const DELTA_RATIO_CEIL: f64 = 0.3;
/// Checkpoint cadence as a fraction of the log: the delta is published
/// this many actions after its full base, so it carries exactly one
/// interval's churn — the steady state an operator actually runs at.
/// The log is produced in stages and each checkpoint is taken at a
/// quiescent point, so the interval is deterministic instead of racing
/// the pipeline against publish latency.
const CKPT_INTERVAL_FRACTION: f64 = 0.0005;

fn workload(n: u64, users: u64, items: u64) -> Vec<UserAction> {
    let mut actions = Vec::with_capacity(n as usize);
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for ts in 1..=n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let user = (state >> 33) % users + 1;
        let item = (state >> 17) % items + 1;
        actions.push(UserAction::new(user, item, ActionType::Click, ts));
    }
    actions
}

fn cf_config() -> CfPipelineConfig {
    CfPipelineConfig {
        dedup_window: 256,
        ..Default::default()
    }
}

/// Day-scale log shape: segments spill to disk, so replay-from-zero
/// pays real file reads, exactly like a restart against yesterday's log.
/// The topic starts empty; `produce` appends the staged slices.
fn build_spilled_topic(spill_dir: &Path) -> AccessCluster {
    let cluster = AccessCluster::new(ClusterConfig {
        segment: SegmentConfig {
            max_messages: 8_192,
            max_bytes: usize::MAX,
            spill_dir: Some(spill_dir.to_path_buf()),
        },
        ..Default::default()
    });
    cluster.create_topic("actions", 4).unwrap();
    cluster
}

fn produce(cluster: &AccessCluster, actions: &[UserAction]) {
    let producer = cluster.producer("actions").unwrap();
    for a in actions {
        producer
            .send(Some(&a.user.to_le_bytes()[..]), &a.to_bytes())
            .unwrap();
    }
}

struct Life {
    handle: TopologyHandle,
    store: TdStore,
    progress: Arc<ReplayProgress>,
    offsets: Arc<OffsetTable>,
}

fn launch(cluster: &AccessCluster, group: &str, store: TdStore, start: Vec<(u32, u64)>) -> Life {
    let progress = Arc::new(ReplayProgress::default());
    let offsets = Arc::new(OffsetTable::new());
    let topo = build_cf_topology_with_spout(
        {
            let cluster = cluster.clone();
            let group = group.to_string();
            let progress = Arc::clone(&progress);
            let offsets = Arc::clone(&offsets);
            move || {
                ReplayableSpout::new(cluster.clone(), "actions", &group, Arc::clone(&progress))
                    .with_offset_table(Arc::clone(&offsets))
                    .with_start_offsets(start.clone())
            }
        },
        store.clone(),
        cf_config(),
        CfParallelism::default(),
        TopologyConfig::default(),
    )
    .expect("valid topology");
    Life {
        handle: topo.launch(),
        store,
        progress,
        offsets,
    }
}

fn wait_committed(life: &Life, target: u64, what: &str) {
    // Scales with the arm size: the full sweep replays 600k actions
    // through the pair bolt at store speed, which overruns a fixed
    // 600 s budget on a single-core box without being stalled.
    let deadline = Instant::now() + Duration::from_secs(600.max(target / 300));
    while life.progress.committed() < target {
        assert!(
            Instant::now() < deadline,
            "{what} stalled at {}/{target}",
            life.progress.committed()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_millis() as u64
}

struct RecoveryResult {
    actions: u64,
    spilled_segments: usize,
    snapshot_entries: u64,
    snapshot_bytes: u64,
    delta_entries: u64,
    delta_bytes: u64,
    delta_ratio: f64,
    tail_records: u64,
    restore_ms: f64,
    tail_replay_ms: f64,
    time_to_recover_ms: f64,
    full_replay_ms: f64,
    speedup: f64,
}

fn run_recovery(n: u64, users: u64, items: u64) -> RecoveryResult {
    let tmp = std::env::temp_dir().join(format!("tsnap-recovery-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();
    let spill_dir = tmp.join("segments");
    std::fs::create_dir_all(&spill_dir).unwrap();
    let ckpt_path = tmp.join("ckpt.fdb");

    let actions = workload(n, users, items);
    let topic = build_spilled_topic(&spill_dir);

    // Primary life: publish a full blob one checkpoint interval before
    // the crash point, then a steady-state delta at the crash point —
    // recovery must walk the base + delta chain, and the delta's size
    // against its base is the incremental-checkpoint gate. The log is
    // fed in stages and each checkpoint lands on a quiescent pipeline,
    // so the delta carries exactly one interval of churn no matter how
    // fast this box drains the topic.
    let coord = Coordinator::open(
        &ckpt_path,
        CheckpointConfig {
            drain_timeout: Duration::from_secs(60),
            retain: 2,
            // The bench measures the real delta/full byte ratio; don't
            // let the coordinator fold a too-fat delta into a full blob
            // and mask a regression from the gate below.
            max_delta_ratio: f64::MAX,
            ..Default::default()
        },
    )
    .expect("open checkpoint log");
    let primary = launch(
        &topic,
        "cf",
        TdStore::new(StoreConfig::default()),
        Vec::new(),
    );
    let snap_at = (n as f64 * SNAP_FRACTION) as u64;
    let interval = ((n as f64 * CKPT_INTERVAL_FRACTION) as u64).max(1);
    let full_at = snap_at - interval;
    produce(&topic, &actions[..full_at as usize]);
    wait_committed(&primary, full_at, "primary");
    let full_meta = coord
        .checkpoint(&primary.handle, &primary.store, &primary.offsets, now_ms())
        .expect("publish full snapshot");
    produce(&topic, &actions[full_at as usize..snap_at as usize]);
    wait_committed(&primary, snap_at, "primary");
    let meta = coord
        .checkpoint(&primary.handle, &primary.store, &primary.offsets, now_ms())
        .expect("publish delta checkpoint");
    assert!(
        matches!(
            coord.snapshots().load_record(meta.epoch).map(|r| r.kind),
            Some(SnapshotKind::Delta { .. })
        ),
        "second checkpoint should ride the chain as a delta"
    );
    let delta_ratio = meta.bytes as f64 / full_meta.bytes as f64;
    primary.handle.kill(); // crash: no drain, no final checkpoint
    drop(coord); // recovery reopens the log cold, like a fresh process

    // The tail the crash loses: appended after the kill, so the sealed
    // offset vector is exactly `snap_at` and the two recovery arms race
    // over a log the dead primary never saw the end of.
    produce(&topic, &actions[snap_at as usize..]);
    let spilled_segments = std::fs::read_dir(&spill_dir).unwrap().count();

    // Arm 1: snapshot restore + tail replay.
    let recover_start = Instant::now();
    let coord = Coordinator::open(&ckpt_path, CheckpointConfig::default()).expect("reopen");
    let store = TdStore::new(StoreConfig::default());
    let restored = coord
        .restore_into(&store)
        .expect("restore")
        .expect("snapshot present");
    let restore_ms = recover_start.elapsed().as_secs_f64() * 1e3;
    let skipped: u64 = restored.start_offsets.iter().map(|&(_, off)| off).sum();
    let tail = n - skipped;
    let second = launch(&topic, "cf-restore", store, restored.start_offsets.clone());
    wait_committed(&second, tail, "tail replay");
    second.handle.shutdown(Duration::from_secs(10));
    let time_to_recover_ms = recover_start.elapsed().as_secs_f64() * 1e3;

    // Arm 2: full-log replay from offset zero.
    let full_start = Instant::now();
    let full = launch(
        &topic,
        "cf-full",
        TdStore::new(StoreConfig::default()),
        Vec::new(),
    );
    wait_committed(&full, n, "full replay");
    full.handle.shutdown(Duration::from_secs(10));
    let full_replay_ms = full_start.elapsed().as_secs_f64() * 1e3;

    let _ = std::fs::remove_dir_all(&tmp);
    RecoveryResult {
        actions: n,
        spilled_segments,
        snapshot_entries: full_meta.entries,
        snapshot_bytes: full_meta.bytes,
        delta_entries: meta.entries,
        delta_bytes: meta.bytes,
        delta_ratio,
        tail_records: tail,
        restore_ms,
        tail_replay_ms: time_to_recover_ms - restore_ms,
        time_to_recover_ms,
        full_replay_ms,
        speedup: full_replay_ms / time_to_recover_ms,
    }
}

fn recovery_json(r: &RecoveryResult) -> String {
    format!(
        concat!(
            "{{\n",
            "  \"actions\": {},\n",
            "  \"spilled_segments\": {},\n",
            "  \"snapshot_entries\": {},\n",
            "  \"snapshot_bytes\": {},\n",
            "  \"delta_entries\": {},\n",
            "  \"delta_bytes\": {},\n",
            "  \"delta_ratio\": {:.4},\n",
            "  \"tail_records\": {},\n",
            "  \"restore_ms\": {:.1},\n",
            "  \"tail_replay_ms\": {:.1},\n",
            "  \"time_to_recover_ms\": {:.1},\n",
            "  \"full_replay_ms\": {:.1},\n",
            "  \"speedup\": {:.2}\n",
            "}}\n"
        ),
        r.actions,
        r.spilled_segments,
        r.snapshot_entries,
        r.snapshot_bytes,
        r.delta_entries,
        r.delta_bytes,
        r.delta_ratio,
        r.tail_records,
        r.restore_ms,
        r.tail_replay_ms,
        r.time_to_recover_ms,
        r.full_replay_ms,
        r.speedup,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");

    // Full size is bounded by the full-replay arm (the slow side being
    // measured): ~600k actions over a cold spilled log keeps the sweep
    // in low minutes while the speedup ratio is already size-stable.
    let (n, users, items) = if smoke {
        (150_000u64, 500, 100)
    } else {
        (600_000u64, 2_000, 300)
    };
    eprintln!(
        "== recovery ({n} actions, snapshot at {:.0}%, disk-spilled log) ==",
        SNAP_FRACTION * 100.0
    );
    let r = run_recovery(n, users, items);
    eprintln!(
        "  snapshot: {} entries / {} bytes; log: {} spilled segments",
        r.snapshot_entries, r.snapshot_bytes, r.spilled_segments
    );
    eprintln!(
        "  delta: {} changed entries / {} bytes = {:.3}x of the full blob",
        r.delta_entries, r.delta_bytes, r.delta_ratio
    );
    eprintln!(
        "  restore {:.1} ms + tail replay {:.1} ms ({} records) = {:.1} ms",
        r.restore_ms, r.tail_replay_ms, r.tail_records, r.time_to_recover_ms
    );
    eprintln!(
        "  full replay {:.1} ms  ->  speedup {:.2}x",
        r.full_replay_ms, r.speedup
    );

    std::fs::write("BENCH_recovery.json", recovery_json(&r)).expect("write BENCH_recovery.json");
    eprintln!("wrote BENCH_recovery.json");

    if check && r.speedup < SPEEDUP_FLOOR {
        eprintln!(
            "FAIL: time-to-recover speedup {:.2}x is below the {SPEEDUP_FLOOR:.0}x floor",
            r.speedup
        );
        std::process::exit(1);
    }
    if check && r.delta_ratio > DELTA_RATIO_CEIL {
        eprintln!(
            "FAIL: steady-state delta is {:.3}x of the full blob, above the {DELTA_RATIO_CEIL}x ceiling",
            r.delta_ratio
        );
        std::process::exit(1);
    }
    if check {
        eprintln!(
            "gate: speedup {:.2}x >= {SPEEDUP_FLOOR:.0}x floor; delta ratio {:.3}x <= {DELTA_RATIO_CEIL}x ceiling",
            r.speedup, r.delta_ratio
        );
    }
}
