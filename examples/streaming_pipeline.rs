//! The full production stack in one process (Fig. 9's deployment):
//! producers publish actions to **TDAccess**, the **tstorm** topology's
//! replayable spout consumes them, the topology maintains CF state in
//! **TDStore**, and the recommender engine answers queries from the store.
//!
//! ```sh
//! cargo run --example streaming_pipeline
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};
use tdaccess::{AccessCluster, ClusterConfig};
use tdstore::{StoreConfig, TdStore};
use tencentrec::action::{ActionType, UserAction};
use tencentrec::topology::{
    build_cf_topology_with_spout, produce_actions, CfParallelism, CfPipelineConfig, ReplayProgress,
    ReplayableSpout, TopologyRecommender,
};

fn main() {
    // One registry spans the whole stack: TDAccess produce/consume and
    // lag, the topology's framework + CF metrics, and TDStore ops — a
    // single scrape shows the pipeline end to end.
    let registry = obs::Registry::new();
    let mut reporter = obs::MetricsReporter::new();
    reporter.add(&registry);

    // Periodic reporting while the pipeline runs (a deployment would
    // serve the same exposition over HTTP on each scrape).
    let progress = reporter
        .clone()
        .spawn(Duration::from_millis(250), |text| {
            let done = text
                .lines()
                .find_map(|l| l.strip_prefix("tstorm_pipeline_latency_seconds_count "))
                .unwrap_or("0");
            eprintln!("[obs] tuple trees completed: {done}");
        })
        .expect("spawn metrics reporter");

    // --- TDAccess: the data access layer -------------------------------
    let access = AccessCluster::new(ClusterConfig {
        brokers: 3,
        metrics: registry.clone(),
        ..Default::default()
    });
    access
        .create_topic("user_actions", 4)
        .expect("create topic");
    let producer = access.producer("user_actions").expect("producer");

    // Applications publish action records, keyed by user.
    println!("publishing ~1600 user actions to TDAccess...");
    let mut actions = Vec::new();
    let mut ts = 0u64;
    for user in 0..500u64 {
        ts += 500;
        // Viewers of show 10 also watch show 11; a minority add show 12.
        actions.push(UserAction::new(user, 10, ActionType::Click, ts));
        actions.push(UserAction::new(user, 11, ActionType::Read, ts + 10));
        if user % 3 == 0 {
            actions.push(UserAction::new(user, 12, ActionType::Click, ts + 20));
        }
    }
    // A long tail: 200 more viewers of show 10 each add one of 20 niche
    // shows. Show 10's list (top_k = 2) is already full with 11 and 12, so
    // a niche pair scores below its last entry and changes no stored byte
    // — the store counts that update as unchanged and writes nothing.
    for user in 500..700u64 {
        ts += 500;
        for (item, dt) in [(10, 0), (100 + user % 20, 10)] {
            actions.push(UserAction::new(user, item, ActionType::Click, ts + dt));
        }
    }
    produce_actions(&producer, &actions).expect("send");

    // --- TDProcess: the stream topology over TDStore --------------------
    let store = TdStore::new(StoreConfig {
        instances: 32,
        ..Default::default()
    });
    store.register_metrics(&registry);
    let config = CfPipelineConfig {
        top_k: 2,
        pruning_delta: Some(1e-3),
        registry: registry.clone(),
        ..Default::default()
    };
    // The spout holds a consumer of the topic: offsets commit when a
    // tuple tree is acked, and a failed tree is read again from the log.
    let committed = Arc::new(ReplayProgress::default());
    let spout = {
        let committed = Arc::clone(&committed);
        move || {
            ReplayableSpout::new(
                access.clone(),
                "user_actions",
                "tdprocess",
                Arc::clone(&committed),
            )
        }
    };
    let topology = build_cf_topology_with_spout(
        spout,
        store.clone(),
        config.clone(),
        CfParallelism::default(),
        Default::default(),
    )
    .expect("valid topology");
    let handle = topology.launch();
    let deadline = Instant::now() + Duration::from_secs(60);
    while committed.committed() < actions.len() as u64 {
        assert!(Instant::now() < deadline, "pipeline stalled");
        std::thread::sleep(Duration::from_millis(2));
    }
    println!(
        "committed {} actions through TDAccess -> topology",
        committed.committed()
    );

    // --- The recommender engine reads TDStore ---------------------------
    let query = TopologyRecommender::new(store, config);
    println!("\nsimilar to show 10: {:?}", query.similar_items(10));
    println!(
        "recommendations for viewer 43: {:?}",
        query.recommend(43, 2)
    );

    let metrics = handle.shutdown(Duration::from_secs(5));
    println!("\ntopology metrics:");
    for m in metrics {
        println!(
            "  {:<14} executed {:>6} emitted {:>6}",
            m.component, m.executed, m.emitted
        );
    }

    // --- Prometheus-style exposition ------------------------------------
    // Everything above — queue depths, execute/pipeline latency
    // percentiles, history replay-log size, pruning state, consumer lag,
    // store ops — in one scrape body.
    progress.stop();
    println!("\n=== metrics exposition ===");
    print!("{}", reporter.render());
}
