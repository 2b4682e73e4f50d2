//! What the two restart smokes share: the deterministic workload, the
//! topic it fills, the CF pipeline over a store, and the count tables
//! they compare.

use std::collections::BTreeMap;
use std::sync::Arc;
use tdaccess::{AccessCluster, ClusterConfig};
use tdstore::TdStore;
use tencentrec::action::{ActionType, UserAction};
use tencentrec::topology::{
    build_cf_topology_with_spout, produce_actions, CfParallelism, CfPipelineConfig, OffsetTable,
    ReplayProgress, ReplayableSpout,
};
use tstorm::prelude::TopologyHandle;
use tstorm::topology::TopologyConfig;

/// 200,000 clicks of 500 users on 100 items, drawn by an LCG from
/// `seed`: every process (child, baseline, restore) rebuilds the
/// identical topic, so the access log is a pure function and only the
/// snapshot file crosses the kill.
pub fn workload(seed: u64) -> Vec<UserAction> {
    let mut actions = Vec::with_capacity(200_000);
    let mut state = seed;
    for ts in 1..=200_000u64 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let user = (state >> 33) % 500 + 1;
        let item = (state >> 17) % 100 + 1;
        actions.push(UserAction::new(user, item, ActionType::Click, ts));
    }
    actions
}

/// The `actions` topic over `config`, filled with `actions`.
pub fn build_topic(actions: &[UserAction], config: ClusterConfig) -> AccessCluster {
    let cluster = AccessCluster::new(config);
    cluster.create_topic("actions", 4).unwrap();
    produce_actions(&cluster.producer("actions").unwrap(), actions).unwrap();
    cluster
}

/// One life of the CF pipeline.
pub struct Life {
    pub handle: TopologyHandle,
    pub store: TdStore,
    pub progress: Arc<ReplayProgress>,
    pub offsets: Arc<OffsetTable>,
}

/// Launches the CF pipeline over `store`, its spouts reading `cluster`'s
/// topic as consumer group `group` from `start_offsets`.
pub fn launch(
    cluster: &AccessCluster,
    group: &str,
    store: TdStore,
    start_offsets: Vec<(u32, u64)>,
) -> Life {
    let progress = Arc::new(ReplayProgress::default());
    let offsets = Arc::new(OffsetTable::new());
    let cf = CfPipelineConfig {
        // Covers the replay horizon (the spout's `max_pending`, 64), so
        // restored dedup rings absorb the snapshot/offset overlap.
        dedup_window: 256,
        ..Default::default()
    };
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
        cf,
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

/// The `f64` counts under `prefix`, by key.
pub fn counts(store: &TdStore, prefix: &[u8]) -> BTreeMap<Vec<u8>, u64> {
    store
        .scan_prefix(prefix)
        .unwrap()
        .into_iter()
        .map(|(k, v)| (k, u64::from_le_bytes(v[0..8].try_into().unwrap())))
        .collect()
}

/// Wall-clock milliseconds, the checkpoints' `created_ms`.
pub fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_millis() as u64
}
