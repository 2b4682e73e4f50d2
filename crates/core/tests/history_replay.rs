//! Deterministic replays through the real history and item-count bolts,
//! at the tightest window the contract allows
//! (`dedup_window == max_pending`).
//!
//! One offset `s` of the only partition gets stuck: its tuple tree
//! completes, but the spout never hears (the wrapper below swallows the
//! ack, as a lost ack message would). The partition runs on until the
//! span cap refuses the record `max_pending` past `s`; then `s` "times
//! out", is failed and redelivered. By then the same user has acted three
//! more times — recomputing `s` against that history would emit nothing
//! at all — and every log entry older than `s` has been trimmed. The
//! redelivery must find `s` in the log, leave the stored value untouched
//! (an unchanged `modify`: no write, no replication) and emit the
//! original deltas again, bit for bit.
//!
//! The counter case: a partition-0 tree completes (its item count
//! applied) but its ack is lost, and then partition 1 commits three
//! windows' worth of actions on the same item. The redelivered source
//! must still be in that item's counter ring — only its own partition's
//! offsets can push it out — so the count equals the distinct actions.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tdaccess::{AccessCluster, ClusterConfig};
use tdstore::{StoreConfig, TdStore};
use tencentrec::action::{ActionType, UserAction};
use tencentrec::topology::replay::encode_src;
use tencentrec::topology::state::{counter_prefix, decode_history};
use tencentrec::topology::{
    CfPipelineConfig, ItemCountBolt, ReplayProgress, ReplayableSpout, UserHistoryBolt, ITEM_DELTA,
    PAIR_DELTA,
};
use tencentrec::types::keys;
use tstorm::prelude::*;
use tstorm::topology::TopologyConfig;

const MAX_PENDING: usize = 4;
const USER: u64 = 1;

/// A delta tuple as the capture bolt saw it: stream, then every value's
/// bits (floats compare bit for bit).
type Captured = (String, Vec<u64>);

/// What the wrapper saw at the moment it failed the stuck offset.
struct AtFailure {
    history: Vec<u8>,
    unchanged_ops: u64,
    deltas_of_stuck: Vec<Captured>,
}

struct Shared {
    captured: Mutex<Vec<Captured>>,
    at_failure: Mutex<Option<AtFailure>>,
}

/// [`ReplayableSpout`] whose first ack for `stuck` is lost; once `ready`
/// holds and `stuck` is the only thing outstanding, it fails it.
struct LostAckSpout {
    inner: ReplayableSpout,
    stuck: u64,
    stuck_tree_done: Arc<AtomicBool>,
    ready: fn(&ReplayableSpout) -> bool,
    failed: bool,
    store: TdStore,
    registry: obs::Registry,
    shared: Arc<Shared>,
}

impl LostAckSpout {
    fn deltas_of_stuck(&self) -> Vec<Captured> {
        let captured = self.shared.captured.lock().unwrap();
        captured
            .iter()
            .filter(|(_, values)| values.last() == Some(&self.stuck))
            .cloned()
            .collect()
    }
}

impl Spout for LostAckSpout {
    fn open(&mut self, ctx: &TaskContext) {
        self.inner.open(ctx);
    }

    fn next_tuple(&mut self, collector: &mut SpoutCollector) -> bool {
        if self.inner.next_tuple(collector) {
            return true;
        }
        if self.failed
            || !(self.ready)(&self.inner)
            || !self.stuck_tree_done.load(Ordering::SeqCst)
            || self.inner.tracker().outstanding() > 1
        {
            return false;
        }
        // Every other tree has completed, so the bolt is quiescent: what
        // the store holds now is what the redelivery must leave alone.
        *self.shared.at_failure.lock().unwrap() = Some(AtFailure {
            history: self
                .store
                .get(&keys::user_history(USER))
                .unwrap()
                .expect("history written"),
            unchanged_ops: self
                .registry
                .counter_value("tdstore_ops_total", &[("op", "unchanged")])
                .unwrap(),
            deltas_of_stuck: self.deltas_of_stuck(),
        });
        self.failed = true;
        self.inner.fail(self.stuck);
        self.inner.next_tuple(collector)
    }

    fn ack(&mut self, msg_id: u64) {
        if msg_id == self.stuck && !self.failed {
            self.stuck_tree_done.store(true, Ordering::SeqCst);
            return;
        }
        self.inner.ack(msg_id);
    }

    fn fail(&mut self, msg_id: u64) {
        self.inner.fail(msg_id);
    }

    fn declare_outputs(&self) -> Vec<StreamDef> {
        self.inner.declare_outputs()
    }
}

/// Records every delta the history bolt emits.
struct CaptureBolt(Arc<Shared>);

impl Bolt for CaptureBolt {
    fn execute(&mut self, tuple: &Tuple, _collector: &mut BoltCollector) -> Result<(), String> {
        let bits = |v: &Value| v.as_u64().or(v.as_f64().map(f64::to_bits)).expect("number");
        self.0.captured.lock().unwrap().push((
            tuple.stream().to_string(),
            tuple.values().iter().map(bits).collect(),
        ));
        Ok(())
    }
}

#[test]
fn stuck_offset_replays_its_original_deltas_and_leaves_history_alone() {
    // One partition; user 1 acts at offsets 0..=4, user 2 after. Offset 1
    // is the stuck one: it pairs item 11 with item 10.
    let actions = [
        UserAction::new(USER, 10, ActionType::Click, 100),
        UserAction::new(USER, 11, ActionType::Click, 101),
        UserAction::new(USER, 12, ActionType::Click, 102),
        UserAction::new(USER, 11, ActionType::Share, 103),
        UserAction::new(USER, 13, ActionType::Click, 104),
        UserAction::new(2, 10, ActionType::Click, 105),
        UserAction::new(2, 11, ActionType::Click, 106),
    ];
    let stuck = encode_src(0, 1);
    let access = AccessCluster::new(ClusterConfig::default());
    access.create_topic("t", 1).unwrap();
    let producer = access.producer("t").unwrap();
    for a in &actions {
        producer
            .send(Some(&a.user.to_le_bytes()[..]), &a.to_bytes())
            .unwrap();
    }

    let store = TdStore::new(StoreConfig::default());
    let config = CfPipelineConfig {
        dedup_window: MAX_PENDING,
        ..Default::default()
    };
    store.register_metrics(&config.registry);
    let progress = Arc::new(ReplayProgress::default());
    let shared = Arc::new(Shared {
        captured: Mutex::new(Vec::new()),
        at_failure: Mutex::new(None),
    });

    let mut builder = TopologyBuilder::new().with_config(TopologyConfig {
        registry: config.registry.clone(),
        ..Default::default()
    });
    {
        let (progress, store, shared) = (Arc::clone(&progress), store.clone(), Arc::clone(&shared));
        let registry = config.registry.clone();
        builder.set_spout(
            "spout",
            move || LostAckSpout {
                inner: ReplayableSpout::new(access.clone(), "t", "g", Arc::clone(&progress))
                    .with_max_pending(MAX_PENDING),
                stuck,
                stuck_tree_done: Arc::default(),
                ready: |spout| spout.progress().span_stalls() > 0,
                failed: false,
                store: store.clone(),
                registry: registry.clone(),
                shared: Arc::clone(&shared),
            },
            1,
        );
    }
    {
        let (store, config) = (store.clone(), config.clone());
        builder
            .set_bolt(
                "user_history",
                move || UserHistoryBolt::new(store.clone(), config.clone()),
                1,
            )
            .fields_grouping("spout", ["user"]);
    }
    {
        let shared = Arc::clone(&shared);
        builder
            .set_bolt("capture", move || CaptureBolt(Arc::clone(&shared)), 1)
            .grouping_on("user_history", ITEM_DELTA, Grouping::Global)
            .grouping_on("user_history", PAIR_DELTA, Grouping::Global);
    }
    let handle = builder.build().expect("valid topology").launch();
    let deadline = Instant::now() + Duration::from_secs(30);
    while progress.committed() < actions.len() as u64 {
        assert!(Instant::now() < deadline, "replay never drained");
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.shutdown(Duration::from_secs(5));

    assert!(progress.span_stalls() >= 1, "the cap never bound");
    assert_eq!(progress.failed(), 1);
    assert_eq!(progress.emitted(), actions.len() as u64 + 1);
    let at_failure = shared
        .at_failure
        .lock()
        .unwrap()
        .take()
        .expect("failed once");

    // The first delivery's deltas: the item delta and the (10, 11) pair.
    let mut original = at_failure.deltas_of_stuck;
    assert_eq!(original.len(), 2, "{original:?}");
    assert!(original
        .iter()
        .any(|(stream, values)| stream == PAIR_DELTA && values[..2] == [10, 11]));
    // The redelivery emitted exactly those again.
    let captured = shared.captured.lock().unwrap();
    let mut all_of_stuck: Vec<Captured> = captured
        .iter()
        .filter(|(_, values)| values.last() == Some(&stuck))
        .cloned()
        .collect();
    let mut replayed = all_of_stuck.split_off(original.len());
    original.sort();
    replayed.sort();
    assert_eq!(replayed, original, "the redelivery recomputed its deltas");

    // The stored history never moved: user 1 did nothing after the
    // failure, and the redelivery was an unchanged `modify`.
    let history = store.get(&keys::user_history(USER)).unwrap().unwrap();
    assert_eq!(history, at_failure.history);
    let unchanged = config
        .registry
        .counter_value("tdstore_ops_total", &[("op", "unchanged")])
        .unwrap();
    assert_eq!((at_failure.unchanged_ops, unchanged), (0, 1));
    // The log is horizon-trimmed — offset 0 left when offset 4 arrived —
    // and still held the stuck offset at the edge of the window.
    let (_, log) = decode_history(&history);
    let sources: Vec<u64> = log.iter().map(|e| e.src).collect();
    assert_eq!(
        sources,
        (1..=4).map(|o| encode_src(0, o)).collect::<Vec<_>>()
    );

    // The gauge tracks what the stored logs actually hold.
    let retained: usize = store
        .scan_prefix(b"hist:")
        .unwrap()
        .iter()
        .map(|(_, raw)| decode_history(raw).1.len())
        .sum();
    assert_eq!(retained, 4 + 2);
    assert_eq!(
        config.registry.gauge_value(
            "tencentrec_history_log_entries",
            &[("component", "user_history")]
        ),
        Some(retained as f64)
    );
}

#[test]
fn hot_item_counter_remembers_a_stuck_source_across_other_partitions() {
    const HOT: u64 = 7;
    const OTHERS: u64 = 3 * MAX_PENDING as u64;
    let browse = |user| UserAction::new(user, HOT, ActionType::Browse, 100 + user);
    let access = AccessCluster::new(ClusterConfig::default());
    access.create_topic("t", 2).unwrap();
    let producer = access.producer("t").unwrap();
    // Records are keyed for placement only (the spout reads the payload):
    // FNV-1a puts key [1] on partition 0 and key [0] on partition 1.
    let send = |key: u8, action: &UserAction| producer.send(Some(&[key]), &action.to_bytes());
    assert_eq!(send(1, &browse(USER)).unwrap(), (0, 0));
    let stuck = encode_src(0, 0);

    let store = TdStore::new(StoreConfig::default());
    let config = CfPipelineConfig {
        dedup_window: MAX_PENDING,
        ..Default::default()
    };
    store.register_metrics(&config.registry);
    let progress = Arc::new(ReplayProgress::default());
    let stuck_tree_done = Arc::new(AtomicBool::new(false));
    let mut builder = TopologyBuilder::new();
    {
        let (progress, store) = (Arc::clone(&progress), store.clone());
        let (access, done) = (access.clone(), Arc::clone(&stuck_tree_done));
        let registry = config.registry.clone();
        builder.set_spout(
            "spout",
            move || LostAckSpout {
                inner: ReplayableSpout::new(access.clone(), "t", "g", Arc::clone(&progress))
                    .with_max_pending(MAX_PENDING),
                stuck,
                stuck_tree_done: Arc::clone(&done),
                ready: |spout| spout.tracker().committed(1) == OTHERS,
                failed: false,
                store: store.clone(),
                registry: registry.clone(),
                shared: Arc::new(Shared {
                    captured: Mutex::new(Vec::new()),
                    at_failure: Mutex::new(None),
                }),
            },
            1,
        );
    }
    {
        let (store, config) = (store.clone(), config.clone());
        builder
            .set_bolt(
                "user_history",
                move || UserHistoryBolt::new(store.clone(), config.clone()),
                1,
            )
            .fields_grouping("spout", ["user"]);
    }
    {
        let (store, config) = (store.clone(), config.clone());
        builder
            .set_bolt(
                "item_count",
                move || ItemCountBolt::new(store.clone(), config.clone()),
                1,
            )
            .grouping_on("user_history", ITEM_DELTA, Grouping::fields(["item"]));
    }
    let handle = builder.build().expect("valid topology").launch();
    let wait = |what: &str, done: &dyn Fn() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !done() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    // Every partition-1 action lands after the stuck tree has applied, so
    // they all follow it into the hot item's counter ring.
    wait("the stuck tree never completed", &|| {
        stuck_tree_done.load(Ordering::SeqCst)
    });
    for user in 0..OTHERS {
        assert_eq!(send(0, &browse(USER + 1 + user)).unwrap(), (1, user));
    }
    wait("replay never drained", &|| {
        progress.committed() == 1 + OTHERS
    });
    handle.shutdown(Duration::from_secs(5));

    assert_eq!(progress.failed(), 1);
    assert_eq!(progress.emitted(), 2 + OTHERS, "the stuck source came back");
    let counts = store.scan_prefix(b"ic:").unwrap();
    assert_eq!(counts.len(), 1, "one un-windowed bucket of the hot item");
    assert_eq!(
        counter_prefix(&counts[0].1),
        (1 + OTHERS) as f64,
        "the redelivered source applied twice"
    );
}
