//! Batched-transport equivalence: whatever the batch size, flush interval,
//! or tick cadence, fields grouping must deliver every tuple exactly once
//! and keep per-key order identical to unbatched execution. Batching is a
//! transport optimisation — it must be invisible to the dataflow.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tstorm::prelude::*;

/// Emits `(key, seq)` pairs in a fixed global order.
struct SeqSpout {
    pending: Vec<(u64, u64)>,
}

impl Spout for SeqSpout {
    fn next_tuple(&mut self, collector: &mut SpoutCollector) -> bool {
        match self.pending.pop() {
            Some((key, seq)) => {
                collector.emit(vec![Value::U64(key), Value::U64(seq)], Some(seq));
                true
            }
            None => false,
        }
    }
    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(DEFAULT_STREAM, ["key", "seq"])]
    }
}

#[derive(Clone, Default)]
struct Deliveries {
    /// (key, seq, task) in arrival order at each task.
    log: Arc<Mutex<Vec<(u64, u64, usize)>>>,
    count: Arc<AtomicU64>,
}

struct RecordBolt {
    seen: Deliveries,
    task: usize,
}

impl Bolt for RecordBolt {
    fn prepare(&mut self, ctx: &TaskContext) {
        self.task = ctx.task_index;
    }
    fn execute(&mut self, tuple: &Tuple, _c: &mut BoltCollector) -> Result<(), String> {
        self.seen.count.fetch_add(1, Ordering::Relaxed);
        self.seen
            .log
            .lock()
            .unwrap()
            .push((tuple.u64("key"), tuple.u64("seq"), self.task));
        Ok(())
    }
}

/// A middle bolt so the fields-grouped hop crosses a batched edge fed by
/// another bolt's scatter buffers, not just the spout's.
struct ForwardBolt;

impl Bolt for ForwardBolt {
    fn execute(&mut self, tuple: &Tuple, collector: &mut BoltCollector) -> Result<(), String> {
        collector.emit_values(tuple.values());
        Ok(())
    }
    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(DEFAULT_STREAM, ["key", "seq"])]
    }
}

fn run_batched(
    stream: &[(u64, u64)],
    batch_size: usize,
    flush_interval: Duration,
    tick: Option<Duration>,
    tasks: usize,
) -> Vec<(u64, u64, usize)> {
    let seen = Deliveries::default();
    let config = TopologyConfig {
        batch_size,
        flush_interval,
        ..Default::default()
    };
    let mut builder = TopologyBuilder::new().with_config(config);
    {
        // The spout pops from the back; reverse so emission order matches
        // `stream` order.
        let mut pending: Vec<(u64, u64)> = stream.to_vec();
        pending.reverse();
        builder.set_spout(
            "actions",
            move || SeqSpout {
                pending: pending.clone(),
            },
            1,
        );
    }
    {
        let mut decl = builder.set_bolt("forward", || ForwardBolt, 1);
        decl.shuffle_grouping("actions");
        if let Some(t) = tick {
            decl.tick_interval(t);
        }
    }
    {
        let seen = seen.clone();
        let mut decl = builder.set_bolt(
            "record",
            move || RecordBolt {
                seen: seen.clone(),
                task: 0,
            },
            tasks,
        );
        decl.fields_grouping("forward", ["key"]);
        if let Some(t) = tick {
            decl.tick_interval(t);
        }
    }
    let handle = builder.build().unwrap().launch();
    assert!(
        handle.wait_idle(Duration::from_secs(30)),
        "topology must drain"
    );
    handle.shutdown(Duration::from_secs(5));
    Arc::try_unwrap(seen.log).unwrap().into_inner().unwrap()
}

/// Per-key sequence lists from a delivery log, plus the key→task map.
fn per_key(log: &[(u64, u64, usize)]) -> std::collections::BTreeMap<u64, Vec<u64>> {
    let mut out: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
    for &(key, seq, _) in log {
        out.entry(key).or_default().push(seq);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Batched and unbatched runs of the same stream deliver the same
    /// multiset of tuples with identical per-key order — across flush-size
    /// boundaries (batch sizes that don't divide the stream), tick
    /// boundaries, and sub-batch flush intervals.
    #[test]
    fn per_key_order_survives_batching(
        keys in prop::collection::vec(0u64..8, 1..80),
        tasks in 1usize..4,
    ) {
        let stream: Vec<(u64, u64)> =
            keys.iter().enumerate().map(|(i, &k)| (k, i as u64)).collect();
        let baseline = run_batched(
            &stream, 1, Duration::from_millis(1), None, tasks);
        let base_keys = per_key(&baseline);

        for (batch, tick) in [
            (3, None),
            (64, None),
            (64, Some(Duration::from_millis(2))),
        ] {
            let log = run_batched(
                &stream, batch, Duration::from_millis(1), tick, tasks);
            prop_assert_eq!(log.len(), stream.len(), "exactly-once delivery");
            prop_assert_eq!(
                &per_key(&log), &base_keys,
                "per-key order diverged at batch={} tick={:?}", batch, tick
            );
            // Fields grouping still pins each key to one task.
            let mut assignment: std::collections::HashMap<u64, usize> = Default::default();
            for (key, _, task) in log {
                let t = *assignment.entry(key).or_insert(task);
                prop_assert_eq!(t, task, "key {} split across tasks", key);
            }
        }
    }
}

/// Deterministic spot-check: a stream shorter than one batch still flushes
/// promptly (end-of-execute + interval flush), and a batch size far larger
/// than the queue capacity cannot wedge the pipeline.
#[test]
fn short_streams_and_oversized_batches_drain() {
    let stream: Vec<(u64, u64)> = (0..5u64).map(|i| (i % 2, i)).collect();
    let log = run_batched(&stream, 4096, Duration::from_millis(1), None, 2);
    assert_eq!(log.len(), 5);
    assert_eq!(per_key(&log)[&0], vec![0, 2, 4]);
    assert_eq!(per_key(&log)[&1], vec![1, 3]);
}
