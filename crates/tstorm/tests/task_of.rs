//! `BoltCollector::task_of` names where an emit would land without
//! emitting it: two emits with equal answers reach the same task of every
//! consumer that groups by value, and different answers differ on at
//! least one of them. Checked with two fields-grouped consumers keyed on
//! different fields, next to a shuffle consumer that adds nothing.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tstorm::prelude::*;

const KEYS: u64 = 60;

/// Emits `(x, y)` for every key pair in `0..KEYS` × `0..3`.
struct Pairs {
    next: u64,
}

impl Spout for Pairs {
    fn next_tuple(&mut self, collector: &mut SpoutCollector) -> bool {
        if self.next == KEYS * 3 {
            return false;
        }
        let (x, y) = (self.next / 3, self.next % 3 + self.next / 7);
        collector.emit_values(&[Value::U64(x), Value::U64(y)], Some(self.next));
        self.next += 1;
        true
    }
    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(DEFAULT_STREAM, ["x", "y"])]
    }
}

/// Forwards each tuple with the answer `task_of` gave for it.
struct Place;

impl Bolt for Place {
    fn execute(&mut self, tuple: &Tuple, collector: &mut BoltCollector) -> Result<(), String> {
        let [x, y] = [tuple.get(0).clone(), tuple.get(1).clone()];
        let placement = collector.task_of(DEFAULT_STREAM, &[x.clone(), y.clone(), Value::Null]);
        collector.emit_values(&[x, y, Value::U64(placement as u64)]);
        Ok(())
    }
    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(DEFAULT_STREAM, ["x", "y", "placement"])]
    }
}

/// `(consumer, placement, task)` as each consumer task saw it.
type Seen = Arc<Mutex<Vec<(&'static str, u64, usize)>>>;

struct Record {
    name: &'static str,
    task: usize,
    seen: Seen,
}

impl Bolt for Record {
    fn prepare(&mut self, ctx: &TaskContext) {
        self.task = ctx.task_index;
    }
    fn execute(&mut self, tuple: &Tuple, _c: &mut BoltCollector) -> Result<(), String> {
        let entry = (self.name, tuple.u64("placement"), self.task);
        self.seen.lock().unwrap().push(entry);
        Ok(())
    }
}

#[test]
fn equal_answers_mean_the_same_task_on_every_keyed_consumer() {
    let seen: Seen = Arc::default();
    let mut builder = TopologyBuilder::new();
    builder.set_spout("pairs", || Pairs { next: 0 }, 1);
    builder
        .set_bolt("place", || Place, 1)
        .shuffle_grouping("pairs");
    for (name, tasks, grouping) in [
        ("by_x", 3, Grouping::fields(["x"])),
        ("by_y", 2, Grouping::fields(["y"])),
        ("any", 2, Grouping::Shuffle),
    ] {
        let seen = Arc::clone(&seen);
        builder
            .set_bolt(
                name,
                move || Record {
                    name,
                    task: 0,
                    seen: Arc::clone(&seen),
                },
                tasks,
            )
            .grouping_on("place", DEFAULT_STREAM, grouping);
    }
    let handle = builder.build().unwrap().launch();
    assert!(handle.wait_idle(Duration::from_secs(10)), "never drained");
    handle.shutdown(Duration::from_secs(5));

    let seen = seen.lock().unwrap();
    assert_eq!(
        seen.len() as u64,
        3 * KEYS * 3,
        "every tuple, every consumer"
    );
    // placement → (task on by_x, task on by_y): one pair of tasks per
    // answer, and one answer per pair of tasks.
    let mut tasks: HashMap<u64, [Option<usize>; 2]> = HashMap::new();
    for &(name, placement, task) in seen.iter() {
        let slot = match name {
            "by_x" => 0,
            "by_y" => 1,
            _ => continue,
        };
        let known = &mut tasks.entry(placement).or_default()[slot];
        assert_eq!(
            *known.get_or_insert(task),
            task,
            "{name}: answer {placement} split"
        );
    }
    let mut pairs: Vec<[Option<usize>; 2]> = tasks.values().copied().collect();
    pairs.sort_unstable();
    let distinct = pairs.len();
    pairs.dedup();
    assert_eq!(pairs.len(), distinct, "two answers for one pair of tasks");
    assert!(distinct > 1, "keys never spread");
}
