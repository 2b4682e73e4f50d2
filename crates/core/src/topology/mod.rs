//! The stream topology (Fig. 6): spouts and bolts over [`tstorm`] with
//! status data in [`tdstore`].
//!
//! ```text
//!  ActionSpout ──shuffle──▶ Pretreatment ──by user──▶ UserHistory
//!                                                       │        │
//!                                             item_delta│        │pair_delta
//!                                              (by item)▼        ▼(by pair)
//!                                               ItemCount        CfPairBolt
//!                                                   │                │
//!                                                   ▼                ▼
//!                                                  TDStore (ic:, pc:, sim:)
//! ```
//!
//! The query side ([`TopologyRecommender`]) answers recommendation
//! requests straight from the store — "the recommender engine [...]
//! utilizes the computing results in TDStore to generate the
//! recommendation results".

pub mod ar;
pub mod bolts;
pub mod cb;
pub mod ctr;
pub mod demographic;
pub mod replay;
pub mod serving;
pub mod state;

pub use bolts::{
    ActionSpout, CfPairBolt, CfPipelineConfig, ItemCountBolt, PretreatmentBolt, RawAction,
    RawActionSpout, UserHistoryBolt, ITEM_DELTA, PAIR_DELTA,
};
pub use replay::{OffsetTable, ReplayProgress, ReplayableSpout};
pub use tdaccess::PartitionId;

use crate::topology::state::{decode_sim_list, history_records, sim_records, windowed_sum};
use crate::types::{keys, FxHashMap, FxHashSet, ItemId, Timestamp, UserId};
use crossbeam::channel::Receiver;
use tdstore::TdStore;
use tstorm::prelude::*;
use tstorm::topology::Topology;

/// Per-component parallelism of the CF topology.
#[derive(Debug, Clone, Copy)]
pub struct CfParallelism {
    /// Spout tasks.
    pub spouts: usize,
    /// Pretreatment tasks.
    pub pretreatment: usize,
    /// User-history tasks.
    pub history: usize,
    /// Item-count tasks.
    pub item_count: usize,
    /// Pair bolt tasks.
    pub pair: usize,
}

impl Default for CfParallelism {
    fn default() -> Self {
        CfParallelism {
            spouts: 1,
            pretreatment: 2,
            history: 4,
            item_count: 4,
            pair: 4,
        }
    }
}

/// Builds the CF topology of Fig. 6 over an action channel and a store.
pub fn build_cf_topology(
    source: Receiver<crate::action::UserAction>,
    store: TdStore,
    config: CfPipelineConfig,
    parallelism: CfParallelism,
) -> Result<Topology, TopologyError> {
    build_cf_topology_with_spout(
        move || ActionSpout::new(source.clone()),
        store,
        config,
        parallelism,
        tstorm::topology::TopologyConfig::default(),
    )
}

/// Builds the CF topology over any action spout (e.g. a
/// [`ReplayableSpout`] reading a TDAccess topic) and an explicit runtime
/// config — the hook for chaos tests that need a fault plan, a mock
/// clock, or a short message timeout. The spout must declare the
/// five-field default stream `[user, item, action, ts, src]`.
pub fn build_cf_topology_with_spout<S, F>(
    spout: F,
    store: TdStore,
    config: CfPipelineConfig,
    parallelism: CfParallelism,
    mut topology_config: tstorm::topology::TopologyConfig,
) -> Result<Topology, TopologyError>
where
    S: Spout + 'static,
    F: Fn() -> S + Send + Sync + 'static,
{
    // One registry for the whole pipeline: the runtime's queue/latency
    // metrics and the bolts' history-log/pruning metrics land in the
    // same exposition, scrapeable from the topology handle.
    topology_config.registry = config.registry.clone();
    let mut builder = TopologyBuilder::new().with_config(topology_config);
    builder.set_spout("spout", spout, parallelism.spouts);
    builder
        .set_bolt(
            "pretreatment",
            PretreatmentBolt::new,
            parallelism.pretreatment,
        )
        .shuffle_grouping("spout");
    wire_cf_counting_layers(&mut builder, store, config, parallelism);
    builder.build()
}

/// Builds the CF topology over a *raw* string-keyed action feed: the
/// spout emits frontend keys verbatim and the pretreatment bolt interns
/// them to dense `u64` ids through `interner`, so every fields-grouped
/// edge and every TDStore key downstream is integer-only. Query results
/// de-intern through the same handle (see
/// [`serving::RecommenderFrontEnd::with_interner`]).
pub fn build_cf_topology_raw(
    source: Receiver<RawAction>,
    interner: crate::interner::Interner,
    store: TdStore,
    config: CfPipelineConfig,
    parallelism: CfParallelism,
) -> Result<Topology, TopologyError> {
    let topology_config = tstorm::topology::TopologyConfig {
        registry: config.registry.clone(),
        ..Default::default()
    };
    let mut builder = TopologyBuilder::new().with_config(topology_config);
    builder.set_spout(
        "spout",
        move || RawActionSpout::new(source.clone()),
        parallelism.spouts,
    );
    builder
        .set_bolt(
            "pretreatment",
            move || PretreatmentBolt::with_interner(interner.clone()),
            parallelism.pretreatment,
        )
        .shuffle_grouping("spout");
    wire_cf_counting_layers(&mut builder, store, config, parallelism);
    builder.build()
}

/// Wires the counting layers below pretreatment (user history, item
/// counts, pair similarity) — shared by every CF topology variant.
fn wire_cf_counting_layers(
    builder: &mut TopologyBuilder,
    store: TdStore,
    config: CfPipelineConfig,
    parallelism: CfParallelism,
) {
    {
        let store = store.clone();
        let config = config.clone();
        builder
            .set_bolt(
                "user_history",
                move || UserHistoryBolt::new(store.clone(), config.clone()),
                parallelism.history,
            )
            .fields_grouping("pretreatment", ["user"]);
    }
    {
        let store = store.clone();
        let config = config.clone();
        builder
            .set_bolt(
                "item_count",
                move || ItemCountBolt::new(store.clone(), config.clone()),
                parallelism.item_count,
            )
            .grouping_on("user_history", ITEM_DELTA, Grouping::fields(["item"]));
    }
    {
        let store = store.clone();
        let config = config.clone();
        builder
            .set_bolt(
                "cf_pair",
                move || CfPairBolt::new(store.clone(), config.clone()),
                parallelism.pair,
            )
            .grouping_on("user_history", PAIR_DELTA, Grouping::fields(["a", "b"]));
    }
}

/// Query-side engine over the state the topology maintains in TDStore.
pub struct TopologyRecommender {
    store: TdStore,
    config: CfPipelineConfig,
}

impl TopologyRecommender {
    /// Recommender reading the given store.
    pub fn new(store: TdStore, config: CfPipelineConfig) -> Self {
        TopologyRecommender { store, config }
    }

    /// Current similarity of two items, recomputed from the stored counts
    /// (Eq. 5 / Eq. 10). `now` selects the window position.
    pub fn similarity(&self, p: ItemId, q: ItemId, now: u64) -> f64 {
        if p == q {
            return 1.0;
        }
        let windows = self.config.window_sessions();
        let session = if windows == 0 {
            0
        } else {
            self.config.session_of(now)
        };
        let ic_p = windowed_sum(&self.store, &keys::item_count(p), session, windows).unwrap_or(0.0);
        let ic_q = windowed_sum(&self.store, &keys::item_count(q), session, windows).unwrap_or(0.0);
        if ic_p <= 0.0 || ic_q <= 0.0 {
            return 0.0;
        }
        let pc = windowed_sum(
            &self.store,
            &keys::pair_count(crate::types::ItemPair::new(p, q)),
            session,
            windows,
        )
        .unwrap_or(0.0);
        (pc / (ic_p.sqrt() * ic_q.sqrt())).max(0.0)
    }

    /// The stored similar-items list of `item`, decoded straight from the
    /// store's copy.
    pub fn similar_items(&self, item: ItemId) -> Vec<(ItemId, f64)> {
        self.store
            .read(&keys::similar_items(item), |raw| {
                raw.map(decode_sim_list).unwrap_or_default()
            })
            .unwrap_or_default()
    }

    /// Top-`n` recommendations (Eq. 2 over the user's `recent_k` items,
    /// as in [`crate::cf::ItemCF::recommend`]).
    pub fn recommend(&self, user: UserId, n: usize) -> Vec<(ItemId, f64)> {
        self.recommend_with_rated(user, n).0
    }

    /// [`Self::recommend`], and the items the user has rated (every item
    /// of the stored history), read in the same pass.
    ///
    /// Each key is read once, in place: the history records and every
    /// similar-items list are walked inside [`TdStore::read`], and nothing
    /// allocates while the store's lock is held — the buffers are reserved
    /// before each read, for the pipeline's `max_history` and `top_k`
    /// bounds, and a value past them is read again once they have grown.
    /// The `recent_k` newest records and the final `n` are picked by
    /// selection; ties break by record position and item id, and each
    /// candidate's sums add up in list order, so the result is the one a
    /// full stable sort of the decoded history would give, bit for bit.
    pub(crate) fn recommend_with_rated(
        &self,
        user: UserId,
        n: usize,
    ) -> (Vec<(ItemId, f64)>, FxHashSet<ItemId>) {
        let config = &self.config;
        let mut rated = FxHashSet::default();
        let mut recent: Vec<Recent> = Vec::new();
        let mut room = config.max_history;
        loop {
            rated.reserve(room);
            recent.reserve(room);
            let read = self.store.read(&keys::user_history(user), |raw| {
                let records = history_records(raw?);
                if records.len() > recent.capacity() || records.len() > rated.capacity() {
                    return Some(Err(records.len()));
                }
                for (pos, (item, rating, ts)) in records.enumerate() {
                    rated.insert(item);
                    recent.push(Recent {
                        ts,
                        pos,
                        item,
                        rating,
                    });
                }
                Some(Ok(()))
            });
            match read {
                Ok(Some(Ok(()))) => break,
                Ok(Some(Err(len))) => room = len,
                Ok(None) | Err(_) => return (Vec::new(), rated),
            }
        }
        keep_least(&mut recent, config.recent_k, |a, b| {
            b.ts.cmp(&a.ts).then(a.pos.cmp(&b.pos))
        });

        // Eq. 2: Σ sim·rating and Σ sim per candidate.
        let mut sums: FxHashMap<ItemId, (f64, f64)> = FxHashMap::default();
        sums.reserve(recent.len().saturating_mul(config.top_k));
        for r in &recent {
            loop {
                let room = sums.capacity() - sums.len();
                let read = self.store.read(&keys::similar_items(r.item), |raw| {
                    let list = sim_records(raw.unwrap_or_default());
                    if list.len() > room {
                        return Err(list.len());
                    }
                    for (candidate, sim) in list {
                        if rated.contains(&candidate) {
                            continue;
                        }
                        let (num, den) = sums.entry(candidate).or_insert((0.0, 0.0));
                        *num += sim * r.rating;
                        *den += sim;
                    }
                    Ok(())
                });
                match read {
                    Ok(Err(len)) => sums.reserve(len),
                    Ok(Ok(())) | Err(_) => break,
                }
            }
        }
        let mut recs: Vec<(ItemId, f64)> = sums
            .into_iter()
            .map(|(item, (num, den))| (item, num / den))
            .collect();
        keep_least(&mut recs, n, |a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        (recs, rated)
    }
}

/// A history record a query may expand, with its position in the stored
/// value (the tie-break among equal timestamps).
struct Recent {
    ts: Timestamp,
    pos: usize,
    item: ItemId,
    rating: f64,
}

/// Keeps the `k` least elements of `v` under the total order `cmp`, in
/// order: a selection, then a sort of only what is kept.
fn keep_least<T>(v: &mut Vec<T>, k: usize, cmp: impl Fn(&T, &T) -> std::cmp::Ordering) {
    if v.len() > k {
        v.select_nth_unstable_by(k, &cmp);
        v.truncate(k);
    }
    v.sort_unstable_by(cmp);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionType, UserAction};
    use crossbeam::channel::unbounded;
    use std::time::Duration;
    use tdstore::StoreConfig;

    fn run_pipeline(actions: Vec<UserAction>, config: CfPipelineConfig) -> TdStore {
        let store = TdStore::new(StoreConfig::default());
        let (tx, rx) = unbounded();
        for a in actions {
            tx.send(a).unwrap();
        }
        drop(tx);
        let topo = build_cf_topology(rx, store.clone(), config, CfParallelism::default())
            .expect("valid topology");
        let handle = topo.launch();
        assert!(
            handle.wait_idle(Duration::from_secs(20)),
            "pipeline stalled"
        );
        handle.shutdown(Duration::from_secs(2));
        store
    }

    fn click(user: u64, item: u64, ts: u64) -> UserAction {
        UserAction::new(user, item, ActionType::Click, ts)
    }

    #[test]
    fn pipeline_matches_in_memory_similarity() {
        let mut actions = Vec::new();
        for u in 1..=20u64 {
            actions.push(click(u, 1, u * 10));
            actions.push(click(u, 2, u * 10 + 1));
            if u % 2 == 0 {
                actions.push(click(u, 3, u * 10 + 2));
            }
        }
        let config = CfPipelineConfig::default();
        let store = run_pipeline(actions.clone(), config.clone());
        let query = TopologyRecommender::new(store, config);

        let mut reference = crate::cf::ItemCF::new(crate::cf::CfConfig {
            pruning_delta: None,
            ..Default::default()
        });
        for a in &actions {
            reference.process(a);
        }
        for &(p, q) in &[(1u64, 2u64), (1, 3), (2, 3)] {
            let got = query.similarity(p, q, 1_000);
            let want = reference.similarity(p, q);
            assert!(
                (got - want).abs() < 1e-9,
                "sim({p},{q}): topology {got} vs in-memory {want}"
            );
        }
    }

    #[test]
    fn pipeline_recommends_like_in_memory() {
        let mut actions = Vec::new();
        for u in 1..=30u64 {
            actions.push(click(u, 100, u * 10));
            actions.push(click(u, 200, u * 10 + 1));
        }
        actions.push(click(999, 100, 500));
        let config = CfPipelineConfig::default();
        let store = run_pipeline(actions, config.clone());
        let query = TopologyRecommender::new(store, config);
        let recs = query.recommend(999, 5);
        assert_eq!(recs.first().map(|r| r.0), Some(200), "recs: {recs:?}");
    }

    #[test]
    fn channel_spout_tasks_never_share_a_source() {
        // Two spout tasks, each draining its own channel of 100 distinct
        // users' clicks on one item. With replay memory on, an action
        // whose source id another task also emitted would be dropped as a
        // redelivery.
        let channels: Vec<_> = (0..2u64)
            .map(|task| {
                let (tx, rx) = unbounded();
                for u in 0..100 {
                    tx.send(click(task * 1_000 + u, 7, u)).unwrap();
                }
                rx
            })
            .collect();
        // `set_spout` calls the factory once as a probe before the two
        // tasks, so channels go out modulo 2.
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let spout = move || {
            let call = calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            ActionSpout::new(channels[call % 2].clone())
        };
        let store = TdStore::new(StoreConfig::default());
        let config = CfPipelineConfig {
            dedup_window: 256,
            ..Default::default()
        };
        let parallelism = CfParallelism {
            spouts: 2,
            ..Default::default()
        };
        let topology_config = tstorm::topology::TopologyConfig::default();
        let handle = build_cf_topology_with_spout(
            spout,
            store.clone(),
            config,
            parallelism,
            topology_config,
        )
        .expect("valid topology")
        .launch();
        assert!(handle.wait_idle(Duration::from_secs(20)), "stalled");
        handle.shutdown(Duration::from_secs(2));
        let count = windowed_sum(&store, &keys::item_count(7), 0, 0).unwrap();
        assert_eq!(count, 400.0, "200 clicks of weight 2");
    }

    #[test]
    fn registry_exposes_pipeline_metrics() {
        // One registry must cover both layers: the tstorm runtime metrics
        // and the bolts' history-log/pruning metrics, with non-zero values
        // after a run.
        let mut actions = Vec::new();
        for u in 1..=25u64 {
            actions.push(click(u, 1, u * 10));
            actions.push(click(u, 2, u * 10 + 1));
            actions.push(click(u, 1, u * 10 + 2));
        }
        let config = CfPipelineConfig {
            pruning_delta: Some(1e-3),
            ..Default::default()
        };
        let registry = config.registry.clone();
        run_pipeline(actions, config);

        assert!(
            registry
                .gauge_value(
                    "tencentrec_pruning_tracked_pairs",
                    &[("component", "cf_pair")]
                )
                .is_some(),
            "pruning gauge registered"
        );
        let pipeline = registry
            .histogram_snapshot("tstorm_pipeline_latency_seconds", &[])
            .expect("pipeline latency registered");
        assert!(pipeline.count() > 0, "no whole-pipeline samples");
        let text = registry.render();
        for family in [
            "tstorm_exec_latency_seconds",
            "tstorm_queue_depth",
            "tstorm_backpressure_stalls_total",
            "tencentrec_history_log_entries",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
    }

    #[test]
    fn pretreatment_filters_garbage() {
        // An out-of-range action code must be dropped, not crash the
        // pipeline. We inject it by constructing the tuple path directly:
        // codes above ALL.len() are unqualified.
        let store = TdStore::new(StoreConfig::default());
        let (tx, rx) = unbounded::<UserAction>();
        // Normal action followed by channel close.
        tx.send(click(1, 10, 5)).unwrap();
        drop(tx);
        let topo = build_cf_topology(
            rx,
            store.clone(),
            CfPipelineConfig::default(),
            CfParallelism::default(),
        )
        .unwrap();
        let handle = topo.launch();
        assert!(handle.wait_idle(Duration::from_secs(20)));
        let metrics = handle.shutdown(Duration::from_secs(2));
        let pre = metrics
            .iter()
            .find(|m| m.component == "pretreatment")
            .unwrap();
        assert_eq!(pre.executed, 1);
        assert_eq!(pre.failed, 0);
    }
}
