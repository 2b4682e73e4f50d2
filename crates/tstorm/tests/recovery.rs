//! Fault-tolerance tests: panicking bolts are rebuilt from their factory,
//! failed tuple trees are reported to the spout, and a replaying spout
//! achieves at-least-once processing — the Storm behaviour TencentRec's
//! state-free bolts rely on.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tstorm::prelude::*;

/// Spout that re-enqueues failed message ids (at-least-once source).
struct ReplaySpout {
    queue: Arc<Mutex<VecDeque<u64>>>,
    acked: Arc<AtomicU64>,
}

impl Spout for ReplaySpout {
    fn next_tuple(&mut self, collector: &mut SpoutCollector) -> bool {
        let next = self.queue.lock().unwrap().pop_front();
        match next {
            Some(v) => {
                collector.emit(vec![Value::U64(v)], Some(v));
                true
            }
            None => false,
        }
    }
    fn ack(&mut self, _id: u64) {
        self.acked.fetch_add(1, Ordering::Relaxed);
    }
    fn fail(&mut self, id: u64) {
        self.queue.lock().unwrap().push_back(id); // replay
    }
    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(DEFAULT_STREAM, ["key"])]
    }
}

/// Bolt that panics the first time it sees each key, then succeeds.
struct FlakyBolt {
    seen: Arc<Mutex<std::collections::HashSet<u64>>>,
    processed: Arc<AtomicU64>,
}

impl Bolt for FlakyBolt {
    fn execute(&mut self, tuple: &Tuple, _c: &mut BoltCollector) -> Result<(), String> {
        let key = tuple.u64("key");
        let first_time = self.seen.lock().unwrap().insert(key);
        if first_time {
            panic!("simulated worker crash on key {key}");
        }
        self.processed.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

#[test]
fn panicking_bolt_is_rebuilt_and_tuples_replay() {
    const N: u64 = 20;
    let queue = Arc::new(Mutex::new((0..N).collect::<VecDeque<u64>>()));
    let acked = Arc::new(AtomicU64::new(0));
    let seen = Arc::new(Mutex::new(std::collections::HashSet::new()));
    let processed = Arc::new(AtomicU64::new(0));
    let generation = Arc::new(AtomicU64::new(0));

    // Quiet the default panic hook: the simulated crashes are expected.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let mut builder = TopologyBuilder::new();
    {
        let queue = Arc::clone(&queue);
        let acked = Arc::clone(&acked);
        builder.set_spout(
            "spout",
            move || ReplaySpout {
                queue: Arc::clone(&queue),
                acked: Arc::clone(&acked),
            },
            1,
        );
    }
    {
        let seen = Arc::clone(&seen);
        let processed = Arc::clone(&processed);
        let generation = Arc::clone(&generation);
        builder
            .set_bolt(
                "flaky",
                move || {
                    // Generation counter: bumped every time the factory
                    // runs (initial tasks, the probe, and every rebuild).
                    generation.fetch_add(1, Ordering::Relaxed);
                    FlakyBolt {
                        seen: Arc::clone(&seen),
                        processed: Arc::clone(&processed),
                    }
                },
                2,
            )
            .fields_grouping("spout", ["key"]);
    }
    let handle = builder.build().unwrap().launch();

    // Every key panics once and is replayed once; eventually all N acks
    // arrive.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while acked.load(Ordering::Relaxed) < N && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.shutdown(Duration::from_secs(5));
    std::panic::set_hook(prev_hook);

    assert_eq!(acked.load(Ordering::Relaxed), N, "all trees complete");
    assert_eq!(
        processed.load(Ordering::Relaxed),
        N,
        "every tuple processed on its retry"
    );
    // Factory ran once per initial task (+1 probe at registration) plus
    // once per crash.
    let generations = generation.load(Ordering::Relaxed);
    assert!(
        generations >= 2 + N,
        "bolt should have been rebuilt after each crash: {generations}"
    );
}

/// A replay queue of message ids (each message's only value is its id)
/// and every ack and fail a [`TallySpout`] received for them.
#[derive(Default)]
struct Log {
    queue: VecDeque<u64>,
    acked: Vec<u64>,
    failed: Vec<u64>,
}

#[derive(Clone)]
struct Tally(Arc<Mutex<Log>>);

impl Tally {
    /// A builder with `config` and a spout named `spout` replaying message
    /// ids `0..n`.
    fn builder(n: u64, config: TopologyConfig) -> (Self, TopologyBuilder) {
        let tally = Tally(Arc::new(Mutex::new(Log {
            queue: (0..n).collect(),
            ..Log::default()
        })));
        let mut builder = TopologyBuilder::new().with_config(config);
        let log = Arc::clone(&tally.0);
        builder.set_spout("spout", move || TallySpout(Arc::clone(&log)), 1);
        (tally, builder)
    }

    /// Waits up to 30 s for `n` acks; true if they all arrived.
    fn wait_acked(&self, n: u64) -> bool {
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while (self.0.lock().unwrap().acked.len() as u64) < n {
            if std::time::Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        true
    }

    /// Sorted acked and failed ids.
    fn sorted(&self) -> (Vec<u64>, Vec<u64>) {
        let log = self.0.lock().unwrap();
        let (mut acked, mut failed) = (log.acked.clone(), log.failed.clone());
        acked.sort_unstable();
        failed.sort_unstable();
        (acked, failed)
    }
}

/// Replaying spout that records its acks and fails.
struct TallySpout(Arc<Mutex<Log>>);

impl Spout for TallySpout {
    fn next_tuple(&mut self, collector: &mut SpoutCollector) -> bool {
        let next = self.0.lock().unwrap().queue.pop_front();
        next.inspect(|&v| collector.emit(vec![Value::U64(v)], Some(v)))
            .is_some()
    }
    fn ack(&mut self, id: u64) {
        self.0.lock().unwrap().acked.push(id);
    }
    fn fail(&mut self, id: u64) {
        let mut log = self.0.lock().unwrap();
        log.failed.push(id);
        log.queue.push_back(id);
    }
    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(DEFAULT_STREAM, ["key"])]
    }
}

/// Per-tuple bolt emitting two anchored copies of each input.
struct Splitter;

impl Bolt for Splitter {
    fn execute(&mut self, tuple: &Tuple, collector: &mut BoltCollector) -> Result<(), String> {
        collector.emit(tuple.values().to_vec());
        collector.emit(tuple.values().to_vec());
        Ok(())
    }
    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(DEFAULT_STREAM, ["key"])]
    }
}

/// Batching bolt emitting one tuple per run (the run's first key). It
/// never calls `anchor_to`, so the emit carries the runtime's pre-anchor:
/// every anchor of the run, a root twice when both its copies are in it.
struct Joiner;

impl Bolt for Joiner {
    fn execute(&mut self, tuple: &Tuple, collector: &mut BoltCollector) -> Result<(), String> {
        self.execute_batch(std::slice::from_ref(tuple), collector)
    }
    fn supports_batch(&self) -> bool {
        true
    }
    fn execute_batch(&mut self, tuples: &[Tuple], c: &mut BoltCollector) -> Result<(), String> {
        c.emit(vec![Value::U64(tuples[0].u64("key"))]);
        Ok(())
    }
    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(DEFAULT_STREAM, ["key"])]
    }
}

/// Batching sink whose first run returns `Err` after recording its keys.
struct FailFirstRun(Arc<Mutex<Vec<u64>>>);

impl Bolt for FailFirstRun {
    fn execute(&mut self, tuple: &Tuple, collector: &mut BoltCollector) -> Result<(), String> {
        self.execute_batch(std::slice::from_ref(tuple), collector)
    }
    fn supports_batch(&self) -> bool {
        true
    }
    fn execute_batch(&mut self, tuples: &[Tuple], _c: &mut BoltCollector) -> Result<(), String> {
        let mut failed_run = self.0.lock().unwrap();
        if !failed_run.is_empty() {
            return Ok(());
        }
        failed_run.extend(tuples.iter().map(|t| t.u64("key")));
        Err("first run".into())
    }
}

/// Per-tuple sink that returns `Err` the first time it sees each key (or
/// only `fail_key`, when set) and counts successful executes per key.
#[derive(Clone, Default)]
struct FailFirstSink {
    fail_key: Option<u64>,
    seen: Arc<Mutex<std::collections::HashSet<u64>>>,
    processed: Arc<Mutex<std::collections::HashMap<u64, u64>>>,
}

impl Bolt for FailFirstSink {
    fn execute(&mut self, tuple: &Tuple, _c: &mut BoltCollector) -> Result<(), String> {
        let key = tuple.u64("key");
        let may_fail = self.fail_key.is_none_or(|k| k == key);
        if may_fail && self.seen.lock().unwrap().insert(key) {
            return Err(format!("first sight of key {key}"));
        }
        *self.processed.lock().unwrap().entry(key).or_default() += 1;
        Ok(())
    }
}

#[test]
fn failed_trees_leave_no_pending_acker_entries() {
    // A downstream failure races the upstream runs' XOR deltas for the
    // same roots, and the joiner's union anchors name a root twice. None
    // of those late messages may leave a pending acker entry behind: once
    // every root is acked the topology is idle, long before the 60-s
    // message timeout could sweep a stray entry away.
    const N: u64 = 200;
    let config = TopologyConfig {
        message_timeout: Duration::from_secs(60),
        ..Default::default()
    };
    let (tally, mut builder) = Tally::builder(N, config);
    builder
        .set_bolt("split", || Splitter, 1)
        .shuffle_grouping("spout");
    builder
        .set_bolt("join", || Joiner, 1)
        .shuffle_grouping("split");
    let sink = FailFirstSink::default();
    builder
        .set_bolt("sink", move || sink.clone(), 1)
        .shuffle_grouping("join");
    let handle = builder.build().unwrap().launch();

    assert!(tally.wait_acked(N), "every root is acked");
    let idle = handle.wait_idle(Duration::from_secs(2));
    let pending = handle.pending_trees();
    handle.shutdown(Duration::from_secs(5));
    assert!(
        idle,
        "{pending} acker entries pending after every root acked"
    );
    assert!(!tally.sorted().1.is_empty(), "the sink failed trees");
}

#[test]
fn per_tuple_error_fails_only_its_own_tree() {
    // One spout flush carries all N tuples, so the sink executes them as
    // one run. Its `Err` on key 7 fails only that tuple's tree: every
    // other tree of the run is acked once and never replayed, which the
    // non-idempotent per-key counter would show.
    const N: u64 = 20;
    let (tally, mut builder) = Tally::builder(N, TopologyConfig::default());
    let sink = FailFirstSink {
        fail_key: Some(7),
        ..FailFirstSink::default()
    };
    let processed = Arc::clone(&sink.processed);
    builder
        .set_bolt("sink", move || sink.clone(), 1)
        .shuffle_grouping("spout");
    let handle = builder.build().unwrap().launch();
    assert!(tally.wait_acked(N), "every root is acked");
    assert!(handle.wait_idle(Duration::from_secs(5)));
    handle.shutdown(Duration::from_secs(5));

    assert_eq!(tally.sorted(), ((0..N).collect(), vec![7]));
    let processed = processed.lock().unwrap();
    assert!(
        (0..N).all(|key| processed.get(&key) == Some(&1)),
        "{processed:?}"
    );
}

#[test]
fn batch_error_fails_each_root_of_the_run_once() {
    // The splitter sends both copies of every root into the batching
    // sink's run; its `Err` fails each distinct root exactly once.
    const N: u64 = 20;
    let (tally, mut builder) = Tally::builder(N, TopologyConfig::default());
    builder
        .set_bolt("split", || Splitter, 1)
        .shuffle_grouping("spout");
    let failed_run = Arc::new(Mutex::new(Vec::new()));
    let run = Arc::clone(&failed_run);
    builder
        .set_bolt("sink", move || FailFirstRun(Arc::clone(&run)), 1)
        .shuffle_grouping("split");
    let handle = builder.build().unwrap().launch();
    assert!(tally.wait_acked(N), "every root is acked");
    assert!(handle.wait_idle(Duration::from_secs(5)));
    handle.shutdown(Duration::from_secs(5));

    let mut roots = failed_run.lock().unwrap().clone();
    roots.sort_unstable();
    roots.dedup();
    assert!(!roots.is_empty(), "a run failed");
    assert_eq!(tally.sorted(), ((0..N).collect(), roots));
}
