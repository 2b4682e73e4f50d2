//! The CF pipeline rig shared by `ingest_broad` and `fresh_hot`:
//! TDAccess topic → `ReplayableSpout` → pretreatment → user_history →
//! item_count / cf_pair → TDStore, in the shape `cluster_pipeline` and
//! the chaos matrix certify.
//!
//! Untraced, the topology is exactly `build_cf_topology_with_spout`.
//! Traced, the same graph is assembled from the public builder with
//! every spout and bolt inside a timing wrapper; [`same_components`]
//! proves the two graphs match.

use crate::sizes::{DEDUP_WINDOW, PARTITIONS};
use crate::stats::now_ns;
use crate::trace::{ProbeKey, Span, TimedBolt, TimedSpout, Tracer};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tdaccess::{AccessCluster, ClusterConfig, Producer};
use tdstore::{StoreConfig, TdStore};
use tencentrec::action::UserAction;
use tencentrec::topology::{
    build_cf_topology_with_spout, CfPairBolt, CfParallelism, CfPipelineConfig, ItemCountBolt,
    PretreatmentBolt, ReplayProgress, ReplayableSpout, TopologyRecommender, UserHistoryBolt,
    ITEM_DELTA, PAIR_DELTA,
};
use tstorm::prelude::*;
use tstorm::topology::Topology;

/// The topic every rig reads.
pub const TOPIC: &str = "actions";
const GROUP: &str = "cf";

/// Span names of the pipeline's layers, in hop order.
pub const SPOUT: &str = "tstorm.spout";
/// Pretreatment bolt calls.
pub const PRETREATMENT: &str = "core.pretreatment";
/// User-history bolt calls.
pub const USER_HISTORY: &str = "core.user_history";
/// Item-count bolt calls.
pub const ITEM_COUNT: &str = "core.item_count";
/// Pair bolt calls.
pub const CF_PAIR: &str = "core.cf_pair";

/// The pipeline configuration the benchmark freezes.
pub fn cf_config() -> CfPipelineConfig {
    CfPipelineConfig {
        dedup_window: DEDUP_WINDOW,
        ..Default::default()
    }
}

/// A built, not yet launched pipeline with its log and its store.
pub struct Rig {
    /// The TDAccess cluster holding [`TOPIC`].
    pub access: AccessCluster,
    /// The TDStore the bolts write and the query side reads.
    pub store: TdStore,
    /// The spout's progress counters.
    pub progress: Arc<ReplayProgress>,
    /// The frozen pipeline configuration.
    pub config: CfPipelineConfig,
    /// Present on a traced rig.
    pub tracer: Option<Arc<Tracer>>,
    topology: Option<Topology>,
}

fn spout_factory(
    access: &AccessCluster,
    progress: &Arc<ReplayProgress>,
) -> impl Fn() -> ReplayableSpout + Send + Sync + 'static {
    let access = access.clone();
    let progress = Arc::clone(progress);
    move || ReplayableSpout::new(access.clone(), TOPIC, GROUP, Arc::clone(&progress))
}

fn plain_topology(
    access: &AccessCluster,
    progress: &Arc<ReplayProgress>,
    store: &TdStore,
    config: &CfPipelineConfig,
) -> Topology {
    build_cf_topology_with_spout(
        spout_factory(access, progress),
        store.clone(),
        config.clone(),
        CfParallelism::default(),
        TopologyConfig::default(),
    )
    .expect("cf topology is valid")
}

fn traced_topology(
    access: &AccessCluster,
    progress: &Arc<ReplayProgress>,
    store: &TdStore,
    config: &CfPipelineConfig,
    tracer: &Arc<Tracer>,
) -> Topology {
    let par = CfParallelism::default();
    let mut builder = TopologyBuilder::new().with_config(TopologyConfig {
        registry: config.registry.clone(),
        ..Default::default()
    });
    {
        let make = spout_factory(access, progress);
        let tracer = Arc::clone(tracer);
        builder.set_spout(
            "spout",
            move || TimedSpout::new(make(), Arc::clone(&tracer)),
            par.spouts,
        );
    }
    {
        let tracer = Arc::clone(tracer);
        builder
            .set_bolt(
                "pretreatment",
                move || {
                    TimedBolt::new(
                        PretreatmentBolt::new(),
                        PRETREATMENT,
                        ProbeKey::User,
                        Arc::clone(&tracer),
                    )
                },
                par.pretreatment,
            )
            .shuffle_grouping("spout");
    }
    {
        let (store, config, tracer) = (store.clone(), config.clone(), Arc::clone(tracer));
        builder
            .set_bolt(
                "user_history",
                move || {
                    TimedBolt::new(
                        UserHistoryBolt::new(store.clone(), config.clone()),
                        USER_HISTORY,
                        ProbeKey::User,
                        Arc::clone(&tracer),
                    )
                },
                par.history,
            )
            .fields_grouping("pretreatment", ["user"]);
    }
    {
        let (store, config, tracer) = (store.clone(), config.clone(), Arc::clone(tracer));
        builder
            .set_bolt(
                "item_count",
                move || {
                    TimedBolt::new(
                        ItemCountBolt::new(store.clone(), config.clone()),
                        ITEM_COUNT,
                        ProbeKey::Item,
                        Arc::clone(&tracer),
                    )
                },
                par.item_count,
            )
            .grouping_on("user_history", ITEM_DELTA, Grouping::fields(["item"]));
    }
    {
        let (store, config, tracer) = (store.clone(), config.clone(), Arc::clone(tracer));
        builder
            .set_bolt(
                "cf_pair",
                move || {
                    TimedBolt::new(
                        CfPairBolt::new(store.clone(), config.clone()),
                        CF_PAIR,
                        ProbeKey::Pair,
                        Arc::clone(&tracer),
                    )
                },
                par.pair,
            )
            .grouping_on("user_history", PAIR_DELTA, Grouping::fields(["a", "b"]));
    }
    builder.build().expect("traced cf topology is valid")
}

/// Whether two topologies have the same components, in the same order,
/// with the same parallelism — the traced graph must be the real one.
pub fn same_components(a: &Topology, b: &Topology) -> bool {
    let list = |t: &Topology| -> Vec<(String, usize, bool)> {
        t.components()
            .into_iter()
            .map(|c| (c.name, c.parallelism, c.is_spout))
            .collect()
    };
    list(a) == list(b)
}

impl Rig {
    /// Builds the log (empty topic), the store and the topology. With a
    /// tracer the topology is the wrapped twin, checked against the plain
    /// one.
    pub fn build(tracer: Option<Arc<Tracer>>) -> Rig {
        let access = AccessCluster::new(ClusterConfig::default());
        access
            .create_topic(TOPIC, PARTITIONS)
            .expect("fresh cluster accepts the topic");
        let store = TdStore::new(StoreConfig::default());
        let progress = Arc::new(ReplayProgress::default());
        let config = cf_config();
        let topology = match &tracer {
            None => plain_topology(&access, &progress, &store, &config),
            Some(tracer) => {
                let traced = traced_topology(&access, &progress, &store, &config, tracer);
                // A throwaway twin over throwaway state, never launched.
                let twin = plain_topology(
                    &access,
                    &Arc::new(ReplayProgress::default()),
                    &TdStore::new(StoreConfig::default()),
                    &cf_config(),
                );
                assert!(
                    same_components(&traced, &twin),
                    "traced topology drifted from build_cf_topology_with_spout"
                );
                traced
            }
        };
        Rig {
            access,
            store,
            progress,
            config,
            tracer,
            topology: Some(topology),
        }
    }

    /// A producer for [`TOPIC`].
    pub fn producer(&self) -> Producer {
        self.access.producer(TOPIC).expect("topic exists")
    }

    /// Starts the pipeline's threads.
    pub fn launch(&mut self) -> TopologyHandle {
        self.topology.take().expect("launch once").launch()
    }

    /// The store-backed query side over this rig's store.
    pub fn recommender(&self) -> TopologyRecommender {
        TopologyRecommender::new(self.store.clone(), self.config.clone())
    }

    /// Records retained in the topic.
    pub fn topic_len(&self) -> u64 {
        self.access.topic_len(TOPIC).expect("topic exists")
    }

    /// Blocks until `n` source records are committed (every tuple tree
    /// below that watermark fully acked). `false` on timeout.
    pub fn wait_committed(&self, n: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.progress.committed() < n {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }
}

/// Appends one action, keyed by user: one partition — and so one arrival
/// order at the spout — per user. With a tracer the call is a span.
pub fn send(producer: &Producer, action: &UserAction, tracer: Option<&Tracer>) {
    let start = now_ns();
    producer
        .send(Some(&action.user.to_le_bytes()[..]), &action.to_bytes())
        .expect("in-memory append does not fail");
    if let Some(tracer) = tracer {
        let mut span = Span::call("tdaccess.produce", start);
        span.tuples = 1;
        if action.user >= crate::trace::PROBE_BASE {
            span.trace = action.user - crate::trace::PROBE_BASE + 1;
        }
        tracer.push(span);
    }
}
