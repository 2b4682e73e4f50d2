//! §5.2/§5.3 ablation: what the CF topology's run merge saves the store.
//!
//! "There will be large number of records of the hot news generated for
//! the computation" (§5.3), and "the small portion of the items attract
//! the large portion of users' attention" (§5.2). The topology answers
//! both per run of tuples: `ItemCountBolt` merges a run's same-key deltas
//! into one store update (the combiner), and `CfPairBolt` reads each
//! item's count at most once per run (the cache). This ablation drains
//! one Zipf-skewed click stream per θ through the CF topology with runs
//! of 1 (every tuple executes alone) and of 64 (the default), and counts
//! the store operations each spends per action.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tdaccess::{AccessCluster, ClusterConfig};
use tdstore::{StoreConfig, TdStore};
use tencentrec::action::{ActionType, UserAction};
use tencentrec::topology::{
    build_cf_topology_with_spout, produce_actions, CfParallelism, CfPipelineConfig, ReplayProgress,
    ReplayableSpout,
};
use tstorm::topology::TopologyConfig;

const ACTIONS: usize = 20_000;
const USERS: u64 = 2_000;
const ITEMS: usize = 10_000;
const RUNS: usize = 3;

/// Zipf(θ) sampler over `n` keys (inverse-CDF on precomputed weights).
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, theta: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 1..=n {
            total += 1.0 / (i as f64).powf(theta);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut SmallRng) -> u64 {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

/// Clicks with users uniform and items Zipf(θ).
fn stream(theta: f64) -> Vec<UserAction> {
    let zipf = Zipf::new(ITEMS, theta);
    let mut rng = SmallRng::seed_from_u64(3);
    (0..ACTIONS as u64)
        .map(|ts| {
            let user = rng.gen_range(0..USERS);
            UserAction::new(user, zipf.sample(&mut rng), ActionType::Click, ts)
        })
        .collect()
}

/// `[get, write + unchanged]` store operations of one drain (every
/// modify call lands in one of the two), and the spout's failed trees.
fn drain(actions: &[UserAction], batch_size: usize) -> ([u64; 2], u64) {
    let store = TdStore::new(StoreConfig::default());
    let cf = CfPipelineConfig::default();
    let registry = cf.registry.clone();
    store.register_metrics(&registry);
    let access = AccessCluster::new(ClusterConfig::default());
    access.create_topic("actions", 4).expect("topic");
    produce_actions(&access.producer("actions").expect("producer"), actions).expect("produce");
    let progress = Arc::new(ReplayProgress::default());
    let spout = {
        let progress = Arc::clone(&progress);
        move || ReplayableSpout::new(access.clone(), "actions", "cf", Arc::clone(&progress))
    };
    let handle = build_cf_topology_with_spout(
        spout,
        store,
        cf,
        CfParallelism::default(),
        TopologyConfig {
            batch_size,
            flush_interval: Duration::from_millis(1),
            ..Default::default()
        },
    )
    .expect("valid topology")
    .launch();
    let deadline = Instant::now() + Duration::from_secs(120);
    while progress.committed() < actions.len() as u64 {
        assert!(
            Instant::now() < deadline,
            "drain stalled at batch {batch_size}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.shutdown(Duration::from_secs(5));
    let op = |op| {
        registry
            .counter_value("tdstore_ops_total", &[("op", op)])
            .unwrap_or(0)
    };
    (
        [op("get"), op("write") + op("unchanged")],
        progress.failed(),
    )
}

/// `(lo, hi)` of operation kind `k` over the runs.
fn span(runs: &[([u64; 2], u64)], k: usize) -> (u64, u64) {
    runs.iter()
        .map(|(ops, _)| ops[k])
        .fold((u64::MAX, 0), |(lo, hi), v| (lo.min(v), hi.max(v)))
}

fn main() {
    println!("== Ablation: the CF topology's run merge under Zipf skew ==");
    println!(
        "{ACTIONS} clicks, {USERS} users uniform, {ITEMS} items Zipf(θ), {RUNS} runs per batch size"
    );
    println!(
        "{:<6} {:>7} {:>4} {:>13} {:>11} {:>7} {:>4} {:>13} {:>11} {:>6}",
        "zipf θ", "get b1", "±", "get b64", "get ×", "mod b1", "±", "mod b64", "mod ×", "failed"
    );
    let per = |ops: u64| ops as f64 / ACTIONS as f64;
    for theta in [0.0, 0.6, 0.9, 1.1, 1.4] {
        let actions = stream(theta);
        let unmerged: Vec<_> = (0..RUNS).map(|_| drain(&actions, 1)).collect();
        let merged: Vec<_> = (0..RUNS).map(|_| drain(&actions, 64)).collect();
        let mut row = format!("{theta:<6}");
        for k in 0..2 {
            let ((lo1, hi1), (lo64, hi64)) = (span(&unmerged, k), span(&merged, k));
            let b64 = format!("{:.3}–{:.3}", per(lo64), per(hi64));
            // Unmerged over merged, worst pairing first.
            let factor = format!("{:.2}–{:.2}", per(lo1) / per(hi64), per(hi1) / per(lo64));
            row += &format!(" {:>7.3} {:>4} {b64:>13} {factor:>11}", per(lo1), hi1 - lo1);
        }
        let failed: u64 = unmerged.iter().chain(&merged).map(|(_, f)| f).sum();
        println!("{row} {failed:>6}");
    }
    println!(
        "ops per action; mod = write + unchanged; b1/b64 = batch_size 1/64, b1 the lowest run \
         and ± its spread in ops over the runs; failed = spout trees failed, all runs"
    );
}
