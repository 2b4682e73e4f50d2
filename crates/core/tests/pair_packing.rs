//! Pair deltas travel packed: the history bolt emits one `PAIR_DELTA`
//! block per action and `cf_pair` task. Two properties hold that packing
//! up.
//!
//! - Placement: every pair in a block routes, by tstorm's own fields
//!   rule ([`fields_task`]), to the task that received the block, and
//!   the blocks of one action hold exactly its pair deltas, each block
//!   in the action's order. This is checked for random actions with 1–8
//!   consumer tasks behind a fields, global or shuffle grouping.
//! - Outcome: one stream drained at pair parallelism 1 and 3 and at
//!   in-flight caps 8, 64 and 256 leaves identical `ic:`/`pc:` counts,
//!   and similarities within 1e-9 of the in-memory `ItemCF`. Counts are
//!   compared, not raw bytes: the replay sources a counter remembers
//!   depend on how runs were cut.

use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tdaccess::{AccessCluster, ClusterConfig};
use tdstore::{StoreConfig, TdStore};
use tencentrec::action::{ActionType, UserAction};
use tencentrec::cf::{CfConfig, ItemCF};
use tencentrec::topology::bolts::pair_block;
use tencentrec::topology::replay::encode_src;
use tencentrec::topology::state::{apply_action_in_place, HistoryAction, HistoryLimits};
use tencentrec::topology::{
    build_cf_topology_with_spout, produce_actions, CfParallelism, CfPipelineConfig, ReplayProgress,
    ReplayableSpout, TopologyRecommender, UserHistoryBolt, PAIR_DELTA,
};
use tstorm::grouping::fields_task;
use tstorm::prelude::*;
use tstorm::topology::TopologyConfig;

/// One pair entry, the delta as bits so entries compare exactly.
type Entry = (u64, u64, u64);

/// A block as its consumer task saw it.
#[derive(Debug, Clone)]
struct Block {
    task: usize,
    src: u64,
    key: (u64, u64),
    entries: Vec<Entry>,
}

/// Records every pair block with the task that received it.
struct Recorder {
    task: usize,
    blocks: Arc<Mutex<Vec<Block>>>,
}

impl Bolt for Recorder {
    fn prepare(&mut self, ctx: &TaskContext) {
        self.task = ctx.task_index;
    }

    fn execute(&mut self, tuple: &Tuple, _collector: &mut BoltCollector) -> Result<(), String> {
        let raw = tuple.get_by_name("pairs").and_then(Value::as_bytes);
        let entries = pair_block(raw.ok_or("pairs is not a block")?)
            .map(|(a, b, delta)| (a, b, delta.to_bits()))
            .collect();
        self.blocks.lock().unwrap().push(Block {
            task: self.task,
            src: tuple.u64("src"),
            key: (tuple.u64("a"), tuple.u64("b")),
            entries,
        });
        Ok(())
    }
}

/// Each action's pair deltas as the history layer computes them, keyed by
/// source: the actions are applied in log order to in-memory histories.
fn expected_pairs(actions: &[UserAction], config: &CfPipelineConfig) -> HashMap<u64, Vec<Entry>> {
    let limits = HistoryLimits {
        linked_time_ms: config.linked_time_ms,
        max_history: config.max_history,
        dedup_window: config.dedup_window,
    };
    let mut histories: HashMap<u64, Option<Vec<u8>>> = HashMap::new();
    let mut deltas = Vec::new();
    let mut out = HashMap::new();
    for (offset, action) in actions.iter().enumerate() {
        let src = encode_src(0, offset as u64);
        let applied = HistoryAction {
            item: action.item,
            weight: config.weights.weight(action.action),
            ts: action.timestamp,
            src,
        };
        let slot = histories.entry(action.user).or_default();
        apply_action_in_place(slot, &applied, &limits, &mut deltas);
        let entries = deltas.iter().map(|&(a, b, d)| (a, b, d.to_bits()));
        out.insert(src, entries.collect());
    }
    out
}

/// Drains `actions` (one partition, so a source is its offset) through a
/// history bolt into `tasks` recorders behind `grouping`, and returns the
/// blocks they received.
fn record_blocks(actions: &[UserAction], tasks: usize, grouping: Grouping) -> Vec<Block> {
    let access = AccessCluster::new(ClusterConfig::default());
    access.create_topic("t", 1).unwrap();
    produce_actions(&access.producer("t").unwrap(), actions).unwrap();
    let store = TdStore::new(StoreConfig::default());
    let config = CfPipelineConfig::default();
    let progress = Arc::new(ReplayProgress::default());
    let blocks = Arc::new(Mutex::new(Vec::new()));
    let mut builder = TopologyBuilder::new();
    {
        let progress = Arc::clone(&progress);
        builder.set_spout(
            "spout",
            move || ReplayableSpout::new(access.clone(), "t", "g", Arc::clone(&progress)),
            1,
        );
    }
    builder
        .set_bolt(
            "user_history",
            move || UserHistoryBolt::new(store.clone(), config.clone()),
            1,
        )
        .fields_grouping("spout", ["user"]);
    {
        let blocks = Arc::clone(&blocks);
        builder
            .set_bolt(
                "cf_pair",
                move || Recorder {
                    task: 0,
                    blocks: Arc::clone(&blocks),
                },
                tasks,
            )
            .grouping_on("user_history", PAIR_DELTA, grouping);
    }
    let handle = builder.build().expect("valid topology").launch();
    let deadline = Instant::now() + Duration::from_secs(30);
    while progress.committed() < actions.len() as u64 {
        assert!(Instant::now() < deadline, "stream never drained");
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.shutdown(Duration::from_secs(5));
    let blocks = blocks.lock().unwrap().clone();
    blocks
}

fn arb_action() -> impl Strategy<Value = UserAction> {
    (0u64..4, 0u64..40, 0usize..8)
        .prop_map(|(user, item, kind)| UserAction::new(user, item, ActionType::ALL[kind], 0))
}

proptest! {
    // Each case launches a topology; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn blocks_hold_each_actions_pairs_on_their_task(
        drawn in prop::collection::vec(arb_action(), 1..48),
        tasks in 1usize..9,
        rule in 0usize..3,
    ) {
        // Timestamps rise with the log, all within the linked time.
        let actions: Vec<UserAction> = drawn
            .iter()
            .enumerate()
            .map(|(i, a)| UserAction::new(a.user, a.item, a.action, 1_000 * i as u64))
            .collect();
        let grouping = [Grouping::fields(["a", "b"]), Grouping::Global, Grouping::Shuffle][rule].clone();
        let expected = expected_pairs(&actions, &CfPipelineConfig::default());
        let blocks = record_blocks(&actions, tasks, grouping.clone());

        let mut by_src: HashMap<u64, Vec<&Block>> = HashMap::new();
        for block in &blocks {
            by_src.entry(block.src).or_default().push(block);
        }
        for (src, want) in &expected {
            let got = by_src.remove(src).unwrap_or_default();
            let task_of = |&(a, b, _): &Entry| fields_task(&[Value::U64(a), Value::U64(b)], tasks);
            let mut want_tasks: Vec<usize> = match &grouping {
                Grouping::Fields(_) => want.iter().map(task_of).collect(),
                _ => want.iter().map(|_| 0).collect(),
            };
            want_tasks.sort_unstable();
            want_tasks.dedup();
            prop_assert_eq!(got.len(), want_tasks.len(), "src {}: one block per task", src);
            let mut held: Vec<Entry> = Vec::new();
            for block in &got {
                prop_assert!(!block.entries.is_empty(), "src {}: empty block", src);
                let (a, b, _) = block.entries[0];
                prop_assert_eq!(block.key, (a, b), "src {}: key is not the first pair", src);
                // The block's pairs keep the action's order.
                let at: Vec<Option<usize>> = block
                    .entries
                    .iter()
                    .map(|e| want.iter().position(|w| w == e))
                    .collect();
                prop_assert!(
                    at.iter().all(Option::is_some) && at.windows(2).all(|w| w[0] < w[1]),
                    "src {}: block {:?} out of the action's order {:?}", src, block.entries, want
                );
                match &grouping {
                    Grouping::Fields(_) => {
                        for entry in &block.entries {
                            prop_assert_eq!(task_of(entry), block.task, "src {}: misrouted", src);
                        }
                    }
                    Grouping::Global => prop_assert_eq!(block.task, 0),
                    _ => {}
                }
                held.extend_from_slice(&block.entries);
            }
            held.sort_unstable();
            let mut want = want.clone();
            want.sort_unstable();
            prop_assert_eq!(held, want, "src {}: blocks do not hold its pairs", src);
        }
        prop_assert!(by_src.is_empty(), "blocks for unknown sources: {:?}", by_src);
    }
}

/// A fixed stream of 600 actions by 30 users over 25 items, enough for
/// multi-pair blocks and hundreds of actions in flight.
fn stream() -> Vec<UserAction> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % n
    };
    (0..600)
        .map(|i| {
            let (user, item, kind) = (next(30), next(25), next(8) as usize);
            UserAction::new(user, item, ActionType::ALL[kind], 1_000 * i)
        })
        .collect()
}

/// A count table: key → the count's f64 bits (the value's first 8 bytes).
type Counts = BTreeMap<Vec<u8>, u64>;

fn counts(store: &TdStore, prefix: &[u8]) -> Counts {
    store
        .scan_prefix(prefix)
        .unwrap()
        .into_iter()
        .map(|(k, v)| (k, u64::from_le_bytes(v[..8].try_into().unwrap())))
        .collect()
}

fn drain(actions: &[UserAction], pair_tasks: usize, max_pending: usize) -> TdStore {
    let store = TdStore::new(StoreConfig::default());
    let access = AccessCluster::new(ClusterConfig::default());
    access.create_topic("actions", 4).unwrap();
    produce_actions(&access.producer("actions").unwrap(), actions).unwrap();
    let progress = Arc::new(ReplayProgress::default());
    let spout = {
        let progress = Arc::clone(&progress);
        move || {
            ReplayableSpout::new(access.clone(), "actions", "cf", Arc::clone(&progress))
                .with_max_pending(max_pending)
        }
    };
    let config = CfPipelineConfig {
        dedup_window: 256,
        ..Default::default()
    };
    let parallelism = CfParallelism {
        pair: pair_tasks,
        ..Default::default()
    };
    let topology = build_cf_topology_with_spout(
        spout,
        store.clone(),
        config,
        parallelism,
        TopologyConfig::default(),
    )
    .expect("valid topology");
    let handle = topology.launch();
    let deadline = Instant::now() + Duration::from_secs(30);
    while progress.committed() < actions.len() as u64 {
        assert!(
            Instant::now() < deadline,
            "stalled at {pair_tasks} pair tasks, max_pending {max_pending}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.shutdown(Duration::from_secs(5));
    store
}

#[test]
fn packed_pipeline_counts_agree_across_parallelism_and_in_flight_caps() {
    let actions = stream();
    let mut reference = ItemCF::new(CfConfig {
        pruning_delta: None,
        ..Default::default()
    });
    for a in &actions {
        reference.process(a);
    }
    let mut base: Option<(Counts, Counts)> = None;
    for pair_tasks in [1, 3] {
        for max_pending in [8, 64, 256] {
            let label = format!("{pair_tasks} pair tasks, max_pending {max_pending}");
            let store = drain(&actions, pair_tasks, max_pending);
            let tables = (counts(&store, b"ic:"), counts(&store, b"pc:"));
            assert!(!tables.1.is_empty(), "{label}: no pair counts");
            match &base {
                None => base = Some(tables),
                Some(base) => assert_eq!(&tables, base, "{label}: counts diverged"),
            }
            let query = TopologyRecommender::new(store, CfPipelineConfig::default());
            for p in 0u64..25 {
                for q in (p + 1)..25 {
                    let (got, want) = (
                        query.similarity(p, q, 1_000_000),
                        reference.similarity(p, q),
                    );
                    assert!(
                        (got - want).abs() < 1e-9,
                        "{label}: sim({p},{q}) {got} vs in-memory {want}"
                    );
                }
            }
        }
    }
}
