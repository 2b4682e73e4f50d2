//! Property tests for the stream framework: XML round-trips, grouping
//! partition laws, and at-least-once completion under the ack protocol.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tstorm::prelude::*;
use tstorm::xml::{parse, XmlNode};

// ---------------------------------------------------------------------
// XML round-trip
// ---------------------------------------------------------------------

fn arb_name() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9_-]{0,8}".prop_map(|s| s)
}

fn arb_text() -> impl Strategy<Value = String> {
    // Arbitrary printable text including characters that need escaping;
    // leading/trailing whitespace is trimmed by the parser, so exclude it.
    "[a-zA-Z0-9<>&\"' .,:_-]{0,16}".prop_map(|s| s.trim().to_string())
}

fn arb_node() -> impl Strategy<Value = XmlNode> {
    let leaf = (
        arb_name(),
        prop::collection::vec((arb_name(), arb_text()), 0..3),
        arb_text(),
    )
        .prop_map(|(name, attrs, text)| XmlNode {
            name,
            attrs,
            children: Vec::new(),
            text,
        });
    leaf.prop_recursive(3, 16, 4, |inner| {
        (
            arb_name(),
            prop::collection::vec((arb_name(), arb_text()), 0..3),
            prop::collection::vec(inner, 0..4),
        )
            .prop_map(|(name, attrs, children)| XmlNode {
                name,
                attrs,
                // Mixed content ordering is not preserved by Display, so
                // nodes with children carry no text in this generator.
                children,
                text: String::new(),
            })
    })
}

/// Attribute names must be unique for the round-trip comparison (the
/// parser keeps both but `attr()` returns the first).
fn dedup_attrs(node: &mut XmlNode) {
    node.attrs.sort_by(|a, b| a.0.cmp(&b.0));
    node.attrs.dedup_by(|a, b| a.0 == b.0);
    for child in &mut node.children {
        dedup_attrs(child);
    }
}

proptest! {
    #[test]
    fn xml_display_parse_round_trip(mut node in arb_node()) {
        dedup_attrs(&mut node);
        let serialized = node.to_string();
        let reparsed = parse(&serialized)
            .unwrap_or_else(|e| panic!("serialised XML must parse: {e}\n{serialized}"));
        prop_assert_eq!(reparsed, node);
    }
}

// ---------------------------------------------------------------------
// Grouping partition laws (via a live topology)
// ---------------------------------------------------------------------

struct VecSpout {
    values: Vec<u64>,
}

impl Spout for VecSpout {
    fn next_tuple(&mut self, collector: &mut SpoutCollector) -> bool {
        match self.values.pop() {
            Some(v) => {
                collector.emit(vec![Value::U64(v)], Some(v));
                true
            }
            None => false,
        }
    }
    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(DEFAULT_STREAM, ["key"])]
    }
}

#[derive(Clone, Default)]
struct Seen {
    /// (key, task) observations.
    log: Arc<Mutex<Vec<(u64, usize)>>>,
    count: Arc<AtomicU64>,
}

struct RecordBolt {
    seen: Seen,
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
            .push((tuple.u64("key"), self.task));
        Ok(())
    }
}

fn run_grouped(keys: Vec<u64>, grouping: Grouping, tasks: usize) -> Vec<(u64, usize)> {
    let seen = Seen::default();
    let mut builder = TopologyBuilder::new();
    {
        let keys = keys.clone();
        builder.set_spout(
            "spout",
            move || VecSpout {
                values: keys.clone(),
            },
            1,
        );
    }
    {
        let seen = seen.clone();
        builder
            .set_bolt(
                "record",
                move || RecordBolt {
                    seen: seen.clone(),
                    task: 0,
                },
                tasks,
            )
            .grouping_on("spout", DEFAULT_STREAM, grouping);
    }
    let handle = builder.build().unwrap().launch();
    assert!(handle.wait_idle(Duration::from_secs(20)));
    handle.shutdown(Duration::from_secs(5));
    Arc::try_unwrap(seen.log).unwrap().into_inner().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Fields grouping: every tuple delivered exactly once, and all tuples
    /// with equal keys land on the same task.
    #[test]
    fn fields_grouping_partitions_by_key(
        keys in prop::collection::vec(0u64..32, 1..60),
        tasks in 1usize..6,
    ) {
        let log = run_grouped(keys.clone(), Grouping::fields(["key"]), tasks);
        prop_assert_eq!(log.len(), keys.len(), "exactly-once delivery");
        let mut assignment: std::collections::HashMap<u64, usize> = Default::default();
        for (key, task) in log {
            if let Some(&existing) = assignment.get(&key) {
                prop_assert_eq!(existing, task, "key {} split across tasks", key);
            } else {
                assignment.insert(key, task);
            }
        }
    }

    /// All grouping: every task receives every tuple.
    #[test]
    fn all_grouping_broadcasts(
        keys in prop::collection::vec(0u64..32, 1..40),
        tasks in 1usize..5,
    ) {
        let log = run_grouped(keys.clone(), Grouping::All, tasks);
        prop_assert_eq!(log.len(), keys.len() * tasks);
        for t in 0..tasks {
            let per_task = log.iter().filter(|&&(_, task)| task == t).count();
            prop_assert_eq!(per_task, keys.len(), "task {} missed tuples", t);
        }
    }

    /// Global grouping: only task 0 receives tuples.
    #[test]
    fn global_grouping_single_task(
        keys in prop::collection::vec(0u64..32, 1..40),
        tasks in 1usize..5,
    ) {
        let log = run_grouped(keys.clone(), Grouping::Global, tasks);
        prop_assert_eq!(log.len(), keys.len());
        prop_assert!(log.iter().all(|&(_, task)| task == 0));
    }
}

// ---------------------------------------------------------------------
// Ack protocol: every tracked root completes through arbitrary fan-out.
// ---------------------------------------------------------------------

struct FanoutBolt {
    copies: usize,
}

impl Bolt for FanoutBolt {
    fn execute(&mut self, tuple: &Tuple, collector: &mut BoltCollector) -> Result<(), String> {
        for _ in 0..self.copies {
            collector.emit_values(tuple.values());
        }
        Ok(())
    }
    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(DEFAULT_STREAM, ["key"])]
    }
}

struct TrackingSpout {
    values: Vec<u64>,
    acked: Arc<AtomicU64>,
    failed: Arc<AtomicU64>,
}

impl Spout for TrackingSpout {
    fn next_tuple(&mut self, collector: &mut SpoutCollector) -> bool {
        match self.values.pop() {
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
    fn fail(&mut self, _id: u64) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }
    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(DEFAULT_STREAM, ["key"])]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every tracked tuple tree is acked exactly once regardless of
    /// fan-out depth and width.
    #[test]
    fn tuple_trees_complete(
        n_roots in 1u64..40,
        copies in 1usize..4,
        tasks in 1usize..4,
    ) {
        let acked = Arc::new(AtomicU64::new(0));
        let failed = Arc::new(AtomicU64::new(0));
        let mut builder = TopologyBuilder::new();
        {
            let acked = Arc::clone(&acked);
            let failed = Arc::clone(&failed);
            builder.set_spout("spout", move || TrackingSpout {
                values: (0..n_roots).collect(),
                acked: Arc::clone(&acked),
                failed: Arc::clone(&failed),
            }, 1);
        }
        builder
            .set_bolt("fan1", move || FanoutBolt { copies }, tasks)
            .shuffle_grouping("spout");
        builder
            .set_bolt("sink", || |_t: &Tuple, _c: &mut BoltCollector| Ok(()), tasks)
            .shuffle_grouping("fan1");
        let handle = builder.build().unwrap().launch();
        prop_assert!(handle.wait_idle(Duration::from_secs(30)));
        // Acks are delivered to the spout asynchronously after the tree
        // completes; poll briefly.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while acked.load(Ordering::Relaxed) + failed.load(Ordering::Relaxed) < n_roots
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        handle.shutdown(Duration::from_secs(5));
        prop_assert_eq!(acked.load(Ordering::Relaxed), n_roots);
        prop_assert_eq!(failed.load(Ordering::Relaxed), 0);
    }
}
