//! Whole-process kill + snapshot recovery: the CF pipeline runs under the
//! full chaos matrix while a checkpoint coordinator publishes periodic
//! snapshots; at a seeded point the *entire process* dies
//! ([`FaultSite::ProcessKill`] — executors, queues, in-flight trees and
//! any unpublished checkpoint all vanish). The second life restores a
//! fresh store from the newest durable snapshot and replays only the tail
//! of the access log from the sealed offset vector — and must still
//! converge byte-identically to the fault-free run, with the remaining
//! chaos budget firing throughout.

use ckpt::{CheckpointConfig, Coordinator};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tchaos::{Clock, FaultPlan, FaultSite};
use tdaccess::{AccessCluster, ClusterConfig};
use tdstore::SnapshotKind;
use tdstore::{StoreConfig, TdStore};
use tencentrec::action::{ActionType, UserAction};
use tencentrec::topology::{
    build_cf_topology_with_spout, produce_actions, CfParallelism, CfPipelineConfig, OffsetTable,
    ReplayProgress, ReplayableSpout,
};
use tstorm::prelude::TopologyHandle;
use tstorm::topology::TopologyConfig;

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

fn chaos_plan(seed: u64) -> FaultPlan {
    let builder = FaultPlan::builder(seed)
        .site(FaultSite::ExecutorPanic, 0.02, 10)
        .site(FaultSite::TupleDrop, 0.02, 10)
        .site(FaultSite::TupleDelay, 0.05, 20)
        .site(FaultSite::PollStall, 0.05, 10)
        .site(FaultSite::TornBatch, 0.2, 10)
        .site(FaultSite::WriteFail, 0.01, 10);
    // Split the matrix into two death styles. Even seeds die at an
    // arbitrary instant between steps (ProcessKill), recovering from
    // whatever snapshot happened to be newest. Odd seeds die right
    // after publishing a *delta* (MidChainCrash) — guaranteeing the
    // second life restores through a full base plus a delta chain —
    // and may additionally tear the delta's tail bytes off the log
    // (TornDeltaTail), forcing the chain to resolve one epoch short.
    if seed.is_multiple_of(2) {
        builder.site(FaultSite::ProcessKill, 0.05, 1).build()
    } else {
        builder
            .site(FaultSite::MidChainCrash, 1.0, 1)
            .site(FaultSite::TornDeltaTail, 0.75, 1)
            .build()
    }
}

fn build_topic(actions: &[UserAction]) -> AccessCluster {
    let cluster = AccessCluster::new(ClusterConfig::default());
    cluster.create_topic("actions", 4).unwrap();
    produce_actions(&cluster.producer("actions").unwrap(), actions).unwrap();
    cluster
}

fn fresh_store(plan: &FaultPlan) -> TdStore {
    TdStore::new(StoreConfig {
        fault_plan: plan.clone(),
        ..Default::default()
    })
}

struct Life {
    handle: TopologyHandle,
    store: TdStore,
    progress: Arc<ReplayProgress>,
    offsets: Arc<OffsetTable>,
}

#[allow(clippy::too_many_arguments)]
fn launch(
    cluster: &AccessCluster,
    group: &str,
    store: TdStore,
    start_offsets: Vec<(u32, u64)>,
    plan: &FaultPlan,
    clock: &Clock,
) -> Life {
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
                    .with_start_offsets(start_offsets.clone())
            }
        },
        store.clone(),
        cf_config(),
        CfParallelism::default(),
        TopologyConfig {
            message_timeout: Duration::from_millis(3_000),
            fault_plan: plan.clone(),
            clock: clock.clone(),
            ..Default::default()
        },
    )
    .expect("valid topology");
    Life {
        handle: topo.launch(),
        store,
        progress,
        offsets,
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

fn seed_matrix() -> (Vec<u64>, bool) {
    match std::env::var("CHAOS_SEEDS") {
        Ok(s) => (
            s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
            false,
        ),
        Err(_) => (vec![3, 7, 11, 23, 42], true),
    }
}

/// What kind of death (if any) a seed suffered in its first life.
#[derive(Default)]
struct KillStats {
    killed: bool,
    /// Died right after publishing a delta: restore walks a chain.
    mid_chain: bool,
    /// The newest delta's tail bytes were chopped off the log.
    torn_tail: bool,
}

fn ckpt_config() -> CheckpointConfig {
    CheckpointConfig {
        drain_timeout: Duration::from_secs(30),
        retain: 2,
        // Short rebase cadence + permissive churn ratio so the five
        // per-life checkpoints actually form base+delta chains even
        // though a fifth of the workload mutates between epochs.
        rebase_every: 3,
        max_delta_ratio: 1.0,
    }
}

/// One seed's full story: first life with periodic checkpoints, a
/// possible seeded process kill (between steps, or right after a delta
/// publish for odd seeds — optionally tearing the delta's tail bytes),
/// and after a kill a second life built from the newest durable
/// snapshot chain plus tail replay. Returns the final store and how the
/// first life died.
fn run_with_kill(seed: u64, ckpt_path: &PathBuf) -> (TdStore, KillStats) {
    let actions = workload();
    let n = actions.len() as u64;
    let plan = chaos_plan(seed);
    let cluster = build_topic(&actions);
    let clock = Clock::mock();
    let coord = Coordinator::open(ckpt_path, ckpt_config()).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let advancer = {
        let clock = clock.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                clock.advance(50);
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };

    // First life: checkpoint roughly every fifth of the workload; consult
    // the kill schedule between steps.
    let first = launch(
        &cluster,
        "cf",
        fresh_store(&plan),
        Vec::new(),
        &plan,
        &clock,
    );
    let mut next_ckpt = n / 5;
    let mut stats = KillStats::default();
    let mut published = 0u64;
    // Encoded length of the newest delta's record, the last record in
    // the log — the window a torn tail chops into.
    let mut delta_record_bytes: Option<u64> = None;
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let committed = first.progress.committed();
        // A fast life can outrun the n/5 cadence between two polls. Take
        // at least two checkpoints before declaring the life complete, so
        // every seed forms a base + delta pair (a quiesced pipeline just
        // publishes an empty delta) and the delta-coupled death styles
        // below always get their chance to fire.
        if committed >= n && published >= 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "seed {seed}: first life stalled at {committed}/{n}"
        );
        if committed >= next_ckpt || committed >= n {
            // A failed attempt (barrier timeout under heavy chaos) just
            // leaves the previous snapshot live — exactly the production
            // contract.
            if let Ok(meta) =
                coord.checkpoint(&first.handle, &first.store, &first.offsets, committed)
            {
                published += 1;
                let is_delta = matches!(
                    coord.snapshots().load_record(meta.epoch).map(|r| r.kind),
                    Some(SnapshotKind::Delta { .. })
                );
                if is_delta {
                    delta_record_bytes = Some(meta.bytes);
                    if plan.should_fault(FaultSite::MidChainCrash) {
                        stats.killed = true;
                        stats.mid_chain = true;
                    }
                }
            }
            next_ckpt += n / 5;
            if stats.killed {
                break;
            }
        }
        if plan.should_fault(FaultSite::ProcessKill) {
            stats.killed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    if !stats.killed {
        first.handle.shutdown(Duration::from_secs(10));
        stop.store(true, Ordering::Relaxed);
        advancer.join().unwrap();
        return (first.store, stats);
    }

    // The process dies: no drain, no final checkpoint, in-flight trees
    // and post-snapshot store writes are simply abandoned.
    first.handle.kill();

    // For a mid-chain death the crash may additionally land *during* the
    // delta append: chop the log midway through the last delta's record,
    // exactly what an interrupted write leaves behind. (A publish can
    // shrink the log, when `retain` rewrites it, so the record's own
    // length marks it, not the log's length before the publish.) The
    // reopened store truncates the torn record; the newest complete one
    // is an older epoch whose chain is intact.
    let coord = match delta_record_bytes {
        Some(record) if stats.mid_chain && plan.should_fault(FaultSite::TornDeltaTail) => {
            drop(coord);
            let len = std::fs::metadata(ckpt_path).unwrap().len();
            assert!(len >= record, "the delta's record must be in the log");
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(ckpt_path)
                .unwrap();
            file.set_len(len - record + record / 2).unwrap();
            file.sync_all().unwrap();
            drop(file);
            stats.torn_tail = true;
            Coordinator::open(ckpt_path, ckpt_config()).unwrap()
        }
        _ => coord,
    };

    // Second life. Durable artifacts only: the snapshot (if any was
    // published) and the access log. The store faces the remaining chaos
    // budget, so the restore write itself may need a retry with a fresh
    // store after an injected failure.
    let mut store;
    let mut restored;
    loop {
        store = fresh_store(&plan);
        match coord.restore_into(&store) {
            Ok(r) => {
                restored = r;
                break;
            }
            Err(_) => continue,
        }
    }
    let start_offsets = restored.take().map(|r| r.start_offsets).unwrap_or_default();
    let skipped: u64 = start_offsets.iter().map(|&(_, off)| off).sum();

    // The snapshot's offset vector carries the resume point: a consumer
    // keeps no group state, so the second life, under a group name of its
    // own, starts exactly there.
    let second = launch(&cluster, "cf-2", store, start_offsets, &plan, &clock);
    let deadline = Instant::now() + Duration::from_secs(120);
    while second.progress.committed() < n - skipped {
        assert!(
            Instant::now() < deadline,
            "seed {seed}: tail replay stalled at {}/{}",
            second.progress.committed(),
            n - skipped
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    second.handle.shutdown(Duration::from_secs(10));
    stop.store(true, Ordering::Relaxed);
    advancer.join().unwrap();
    (second.store, stats)
}

#[test]
fn process_kill_recovers_via_snapshot_and_tail_replay() {
    // Fault-free baseline.
    let actions = workload();
    let n = actions.len() as u64;
    let clock = Clock::mock();
    let baseline = launch(
        &build_topic(&actions),
        "cf",
        fresh_store(&FaultPlan::none()),
        Vec::new(),
        &FaultPlan::none(),
        &clock,
    );
    let deadline = Instant::now() + Duration::from_secs(60);
    while baseline.progress.committed() < n {
        assert!(Instant::now() < deadline, "baseline stalled");
        std::thread::sleep(Duration::from_millis(2));
    }
    baseline.handle.shutdown(Duration::from_secs(5));
    let base_ic = counts(&baseline.store, b"ic:");
    let base_pc = counts(&baseline.store, b"pc:");
    assert!(!base_ic.is_empty() && !base_pc.is_empty(), "baseline ran");

    let (seeds, full_matrix) = seed_matrix();
    let mut kills = 0u64;
    let mut mid_chain_kills = 0u64;
    let mut torn_tails = 0u64;
    for &seed in &seeds {
        let ckpt_path =
            std::env::temp_dir().join(format!("tsnap-chaos-{}-{seed}.log", std::process::id()));
        let _ = std::fs::remove_file(&ckpt_path);
        let (store, stats) = run_with_kill(seed, &ckpt_path);
        kills += u64::from(stats.killed);
        mid_chain_kills += u64::from(stats.mid_chain);
        torn_tails += u64::from(stats.torn_tail);

        assert_eq!(
            counts(&store, b"ic:"),
            base_ic,
            "seed {seed} (killed={}): itemCounts diverged",
            stats.killed
        );
        assert_eq!(
            counts(&store, b"pc:"),
            base_pc,
            "seed {seed} (killed={}): pairCounts diverged",
            stats.killed
        );
        let _ = std::fs::remove_file(&ckpt_path);
    }

    // A kill matrix that never kills proves nothing; the default matrix
    // must also exercise the incremental-checkpoint death modes — a kill
    // right after a delta publish (restore walks base + chain) and a
    // torn delta tail (restore falls back one epoch along the chain).
    if full_matrix {
        assert!(
            kills > 0,
            "no process kill fired across seeds {seeds:?} — raise the site probability"
        );
        assert!(
            mid_chain_kills > 0,
            "no mid-chain kill fired across seeds {seeds:?} — delta chains went untested"
        );
        assert!(
            torn_tails > 0,
            "no delta tail was torn across seeds {seeds:?} — raise TornDeltaTail probability"
        );
    }
    println!(
        "kills across seeds: {kills}/{} ({mid_chain_kills} mid-chain, {torn_tails} torn tails)",
        seeds.len()
    );
}
