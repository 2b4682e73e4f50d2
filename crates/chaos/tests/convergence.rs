//! Chaos convergence: the CF pipeline, run end-to-end from a TDAccess
//! topic through the replayable spout into TDStore, must produce final
//! similarity state **identical** to the fault-free run while executor
//! panics, tuple drops/delays, poll stalls, torn batches and write
//! failures are being injected.
//!
//! This is the acceptance test for the recovery design: at-least-once
//! replay (offset seek on fail/timeout) composed with per-(source, key)
//! dedup yields exactly-once count effects, so every fault schedule in
//! the seed matrix converges to the same bytes.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tchaos::{Clock, FaultPlan, FaultSite};
use tdaccess::{AccessCluster, ClusterConfig};
use tdstore::{StoreConfig, TdStore};
use tencentrec::action::{ActionType, UserAction};
use tencentrec::topology::replay::DEFAULT_MAX_PENDING;
use tencentrec::topology::{
    build_cf_topology_with_spout, CfParallelism, CfPipelineConfig, ReplayProgress, ReplayableSpout,
    TopologyRecommender,
};
use tstorm::topology::TopologyConfig;

/// Dedup depth. The spout emits nothing `max_pending` (64) or more
/// offsets past a partition's committed watermark — its span cap;
/// `max_pending` alone only counts trees in flight — so per partition
/// every redeliverable source lies within 64 offsets of the newest one.
/// Counter rings and history logs forget a source only once a newer one
/// of its partition lies 256 offsets past it, so they hold every
/// redeliverable source, whatever the keys' update rates.
const DEDUP_WINDOW: usize = 256;

/// What one run feeds the pipeline.
struct Load {
    actions: Vec<UserAction>,
    /// The spout's span cap ([`ReplayableSpout::with_max_pending`]).
    max_pending: usize,
    config: CfPipelineConfig,
}

/// The matrix's load: [`workload`] at the default span cap.
fn matrix_load() -> Load {
    Load {
        actions: workload(),
        max_pending: DEFAULT_MAX_PENDING,
        config: cf_config(),
    }
}

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
            actions.push(UserAction::new(u, 1, ActionType::Click, ts)); // repeat
        }
    }
    actions
}

fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::builder(seed)
        .site(FaultSite::ExecutorPanic, 0.02, 10)
        .site(FaultSite::TupleDrop, 0.02, 10)
        .site(FaultSite::TupleDelay, 0.05, 20)
        .site(FaultSite::PollStall, 0.05, 10)
        .site(FaultSite::TornBatch, 0.2, 10)
        .site(FaultSite::WriteFail, 0.01, 10)
        .build()
}

/// Runs the full pipeline (topic -> replayable spout -> bolts -> store)
/// on `load` under `plan`, waiting until every source offset is
/// committed, and returns the final store.
fn run_pipeline(plan: FaultPlan, label: &str, load: &Load, transport: TopologyConfig) -> TdStore {
    let actions = &load.actions;
    let n = actions.len() as u64;

    let cluster = AccessCluster::new(ClusterConfig {
        fault_plan: plan.clone(),
        ..Default::default()
    });
    cluster.create_topic("actions", 4).unwrap();
    let producer = cluster.producer("actions").unwrap();
    for a in actions {
        // Keyed by user: one partition (and so one history task order)
        // per user, matching the fields grouping downstream.
        producer
            .send(Some(&a.user.to_le_bytes()[..]), &a.to_bytes())
            .unwrap();
    }

    let store = TdStore::new(StoreConfig {
        fault_plan: plan.clone(),
        ..Default::default()
    });
    let clock = Clock::mock();
    let progress = Arc::new(ReplayProgress::default());
    let topo = build_cf_topology_with_spout(
        {
            let cluster = cluster.clone();
            let (progress, max_pending) = (Arc::clone(&progress), load.max_pending);
            move || {
                ReplayableSpout::new(cluster.clone(), "actions", "cf", Arc::clone(&progress))
                    .with_max_pending(max_pending)
            }
        },
        store.clone(),
        load.config.clone(),
        CfParallelism::default(),
        TopologyConfig {
            // Logical-time timeout: long enough that healthy trees never
            // expire, short enough that a dropped tuple replays quickly
            // under the advancer below.
            message_timeout: Duration::from_millis(3_000),
            fault_plan: plan.clone(),
            clock: clock.clone(),
            ..transport
        },
    )
    .expect("valid topology");
    let handle = topo.launch();

    // Drive logical time so timed-out (dropped) tuple trees fail back to
    // the spout: +50ms logical every 2ms real.
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

    // Queue idleness is not completion here — an injected poll stall
    // looks idle — so wait on the spout's committed-offset watermark.
    let deadline = Instant::now() + Duration::from_secs(120);
    while progress.committed() < n {
        assert!(
            Instant::now() < deadline,
            "{label}: only {}/{} offsets committed (emitted {}, acked {}, failed {})",
            progress.committed(),
            n,
            progress.emitted(),
            progress.acked(),
            progress.failed(),
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.shutdown(Duration::from_secs(5));
    stop.store(true, Ordering::Relaxed);
    advancer.join().unwrap();
    store
}

fn cf_config() -> CfPipelineConfig {
    CfPipelineConfig {
        dedup_window: DEDUP_WINDOW,
        ..Default::default()
    }
}

/// Final counts under `prefix`, as raw f64 bits for byte-exact
/// comparison (the count is the value's first 8 bytes; the dedup source
/// ring after it legitimately differs between schedules).
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

/// The seed matrix: overridable via `CHAOS_SEEDS=1,2,3` so CI can run
/// (and report) seeds one at a time.
fn seed_matrix() -> (Vec<u64>, bool) {
    match std::env::var("CHAOS_SEEDS") {
        Ok(s) => (
            s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
            false,
        ),
        Err(_) => (vec![3, 7, 11, 23, 42], true),
    }
}

/// Runs `load` fault-free, then under `plan(seed)` for every matrix seed,
/// and checks each seed against the fault-free run: byte-identical final
/// itemCount / pairCount tables, and so identical similarities. Returns
/// the fault-free run's recommender and, per seed, the plan and store.
fn converge(
    label: &str,
    load: &Load,
    transport: fn() -> TopologyConfig,
    plan: fn(u64) -> FaultPlan,
) -> (TopologyRecommender, Vec<(u64, FaultPlan, TdStore)>) {
    let baseline = run_pipeline(
        FaultPlan::none(),
        &format!("{label}fault-free"),
        load,
        transport(),
    );
    let base_ic = counts(&baseline, b"ic:");
    let base_pc = counts(&baseline, b"pc:");
    assert!(!base_ic.is_empty() && !base_pc.is_empty(), "baseline ran");
    let base_query = TopologyRecommender::new(baseline, load.config.clone());
    let mut runs = Vec::new();
    for seed in seed_matrix().0 {
        let plan = plan(seed);
        let store = run_pipeline(
            plan.clone(),
            &format!("{label}seed {seed}"),
            load,
            transport(),
        );
        assert_eq!(
            counts(&store, b"ic:"),
            base_ic,
            "{label}seed {seed}: itemCounts diverged from the fault-free run"
        );
        assert_eq!(
            counts(&store, b"pc:"),
            base_pc,
            "{label}seed {seed}: pairCounts diverged from the fault-free run"
        );
        let query = TopologyRecommender::new(store.clone(), load.config.clone());
        for &(p, q) in &[(1u64, 2u64), (1, 3), (2, 5)] {
            assert_eq!(
                query.similarity(p, q, 1_000).to_bits(),
                base_query.similarity(p, q, 1_000).to_bits(),
                "{label}seed {seed}: sim({p},{q}) diverged"
            );
        }
        runs.push((seed, plan, store));
    }
    (base_query, runs)
}

#[test]
fn chaos_runs_converge_to_fault_free_state() {
    let (base_query, runs) = converge("", &matrix_load(), TopologyConfig::default, chaos_plan);
    let mut fired_total: BTreeMap<&str, u64> = BTreeMap::new();
    for (seed, plan, store) in runs {
        for (name, site) in [
            ("executor_panic", FaultSite::ExecutorPanic),
            ("tuple_drop", FaultSite::TupleDrop),
            ("tuple_delay", FaultSite::TupleDelay),
            ("poll_stall", FaultSite::PollStall),
            ("torn_batch", FaultSite::TornBatch),
            ("write_fail", FaultSite::WriteFail),
        ] {
            *fired_total.entry(name).or_default() += plan.fired(site);
        }
        // Identical counts must yield identical recommendations.
        let query = TopologyRecommender::new(store, cf_config());
        for user in [1u64, 7, 30] {
            assert_eq!(
                query.recommend(user, 5),
                base_query.recommend(user, 5),
                "seed {seed}: recommendations diverged for user {user}"
            );
        }
    }

    // The full matrix must actually exercise the injection sites — a
    // chaos test that injects nothing proves nothing. (Skipped when a
    // CHAOS_SEEDS override narrows the run: one seed need not hit every
    // site.)
    if seed_matrix().1 {
        for site in ["executor_panic", "tuple_drop", "torn_batch", "write_fail"] {
            assert!(
                fired_total[site] > 0,
                "no {site} fault fired across the whole seed matrix: {fired_total:?}"
            );
        }
    }
    println!("faults fired across seeds: {fired_total:?}");
}

/// Transport settings for the batching matrix: real multi-tuple batches
/// (so `BatchDrop` kills several trees at once), a queue small enough
/// that `send_batch` must chunk under backpressure, and a short flush
/// interval so partially-filled buffers still move during replay lulls.
fn batched_transport() -> TopologyConfig {
    TopologyConfig {
        batch_size: 8,
        queue_capacity: 16,
        flush_interval: Duration::from_millis(2),
        ..Default::default()
    }
}

fn batching_chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::builder(seed)
        .site(FaultSite::ExecutorPanic, 0.02, 10)
        .site(FaultSite::TupleDrop, 0.02, 10)
        .site(FaultSite::TupleDelay, 0.05, 20)
        .site(FaultSite::PollStall, 0.05, 10)
        .site(FaultSite::TornBatch, 0.2, 10)
        .site(FaultSite::WriteFail, 0.01, 10)
        // A dropped batch fails every tree buffered for one downstream
        // task at once — the worst case for the folded acker traffic.
        .site(FaultSite::BatchDrop, 0.05, 6)
        .build()
}

/// The batching analogue of the main matrix: same seeds, but tuples move
/// in multi-tuple batches and whole in-flight batches are dropped at the
/// flush boundary. Exactly-once must still hold — every seed converges
/// to the fault-free batched run's bytes.
#[test]
fn chaos_runs_converge_with_batching_enabled() {
    let (_, runs) = converge(
        "batched ",
        &matrix_load(),
        batched_transport,
        batching_chaos_plan,
    );
    let batch_drops: u64 = runs
        .iter()
        .map(|(_, plan, _)| plan.fired(FaultSite::BatchDrop))
        .sum();
    if seed_matrix().1 {
        assert!(
            batch_drops > 0,
            "no whole-batch drop fired across the batching seed matrix"
        );
    }
    println!("batch drops fired across seeds: {batch_drops}");
}

/// A hot item in two of every three actions: its itemCount ring takes
/// an update from every partition, so at an 8-offset window it turns over
/// many times within one tuple tree's lifetime.
fn hot_item_load() -> Load {
    let mut actions = Vec::new();
    let mut ts = 0u64;
    for u in 1..=60u64 {
        for (item, action) in [
            (1, ActionType::Click),
            ((u % 7) + 2, ActionType::Click),
            (1, ActionType::Purchase),
        ] {
            ts += 1;
            actions.push(UserAction::new(u, item, action, ts));
        }
    }
    Load {
        actions,
        max_pending: 8,
        config: CfPipelineConfig {
            dedup_window: 8,
            ..Default::default()
        },
    }
}

/// Replay memory at the tightest window the span cap allows, under the
/// main matrix's faults: a redelivered source must still be in the hot
/// item's ring however many other partitions' updates went through it
/// since, so every seed converges to the fault-free bytes.
#[test]
fn chaos_runs_converge_when_a_hot_item_turns_its_rings_over() {
    converge(
        "hot item ",
        &hot_item_load(),
        TopologyConfig::default,
        chaos_plan,
    );
}

#[test]
fn same_seed_same_schedule() {
    // Two identical runs with one seed produce identical fired counts —
    // the per-site schedules are functions of (seed, site, call index),
    // not of thread timing. (Which *message* a fault lands on can differ;
    // the schedule itself cannot.)
    let a = chaos_plan(99);
    let b = chaos_plan(99);
    for site in [
        FaultSite::ExecutorPanic,
        FaultSite::TupleDrop,
        FaultSite::WriteFail,
    ] {
        let decisions_a: Vec<bool> = (0..500).map(|_| a.should_fault(site)).collect();
        let decisions_b: Vec<bool> = (0..500).map(|_| b.should_fault(site)).collect();
        assert_eq!(decisions_a, decisions_b, "schedule differs for {site:?}");
    }
}
