//! The full production stack in one process (Fig. 9's deployment):
//! producers publish raw actions to **TDAccess**, the **tstorm** topology
//! consumes them, maintains CF state in **TDStore**, and the recommender
//! engine answers queries from the store.
//!
//! ```sh
//! cargo run --example streaming_pipeline
//! ```

use crossbeam::channel::unbounded;
use std::time::Duration;
use tdaccess::{AccessCluster, ClusterConfig};
use tdstore::{StoreConfig, TdStore};
use tencentrec::action::{ActionType, UserAction};
use tencentrec::topology::{
    build_cf_topology, CfParallelism, CfPipelineConfig, TopologyRecommender,
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
    let progress = reporter.clone().spawn(Duration::from_millis(250), |text| {
        let done = text
            .lines()
            .find_map(|l| l.strip_prefix("tstorm_pipeline_latency_seconds_count "))
            .unwrap_or("0");
        eprintln!("[obs] tuple trees completed: {done}");
    });

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

    // Applications publish raw action records (user,item,action,ts).
    println!("publishing ~1600 user actions to TDAccess...");
    let wire = |user: u64, item: u64, action: ActionType, ts: u64| {
        let mut payload = Vec::with_capacity(25);
        payload.extend_from_slice(&user.to_le_bytes());
        payload.extend_from_slice(&item.to_le_bytes());
        payload.push(action.code());
        payload.extend_from_slice(&ts.to_le_bytes());
        payload
    };
    let mut ts = 0u64;
    for user in 0..500u64 {
        ts += 500;
        // Viewers of show 10 also watch show 11; a minority add show 12.
        producer
            .send(
                Some(&user.to_le_bytes()),
                &wire(user, 10, ActionType::Click, ts),
            )
            .expect("send");
        producer
            .send(
                Some(&user.to_le_bytes()),
                &wire(user, 11, ActionType::Read, ts + 10),
            )
            .expect("send");
        if user % 3 == 0 {
            producer
                .send(
                    Some(&user.to_le_bytes()),
                    &wire(user, 12, ActionType::Click, ts + 20),
                )
                .expect("send");
        }
    }
    // A long tail: 200 more viewers of show 10 each add one of 20 niche
    // shows. Show 10's list (top_k = 2) is already full with 11 and 12, so
    // a niche pair scores below its last entry and changes no stored byte
    // — the store counts that update as unchanged and writes nothing.
    for user in 500..700u64 {
        ts += 500;
        for (item, dt) in [(10, 0), (100 + user % 20, 10)] {
            producer
                .send(
                    Some(&user.to_le_bytes()),
                    &wire(user, item, ActionType::Click, ts + dt),
                )
                .expect("send");
        }
    }

    // --- TDProcess: the stream topology over TDStore --------------------
    let store = TdStore::new(StoreConfig {
        instances: 32,
        ..Default::default()
    });
    store.register_metrics(&registry);
    let (tx, rx) = unbounded();
    let config = CfPipelineConfig {
        top_k: 2,
        pruning_delta: Some(1e-3),
        registry: registry.clone(),
        ..Default::default()
    };
    let topology = build_cf_topology(rx, store.clone(), config.clone(), CfParallelism::default())
        .expect("valid topology");
    let handle = topology.launch();

    // Bridge: a consumer group drains TDAccess into the topology's spout
    // (in production the spout itself holds the consumer).
    let mut consumer = access
        .consumer("user_actions", "tdprocess")
        .expect("consumer");
    let mut delivered = 0usize;
    loop {
        let batch = consumer.poll(256).expect("poll");
        if batch.is_empty() {
            break;
        }
        for msg in batch {
            let p = &msg.payload;
            let action = UserAction::new(
                u64::from_le_bytes(p[0..8].try_into().unwrap()),
                u64::from_le_bytes(p[8..16].try_into().unwrap()),
                ActionType::from_code(p[16]).expect("valid code"),
                u64::from_le_bytes(p[17..25].try_into().unwrap()),
            );
            tx.send(action).expect("feed spout");
            delivered += 1;
        }
    }
    drop(tx);
    println!("delivered {delivered} actions through TDAccess -> topology");
    assert!(
        handle.wait_idle(Duration::from_secs(60)),
        "pipeline stalled"
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
