//! Integration of two operational pieces: profile a running topology and
//! derive a parallelism plan (§7 future work) from its live metrics.

use std::time::Duration;
use tstorm::planner::{plan_from_metrics, PlannerConfig};
use tstorm::prelude::*;

struct CountSpout(u64);

impl Spout for CountSpout {
    fn next_tuple(&mut self, collector: &mut SpoutCollector) -> bool {
        if self.0 == 0 {
            return false;
        }
        self.0 -= 1;
        collector.emit(vec![Value::U64(self.0)], Some(self.0));
        true
    }
    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(DEFAULT_STREAM, ["key"])]
    }
}

struct PassBolt;

impl Bolt for PassBolt {
    fn execute(&mut self, t: &Tuple, c: &mut BoltCollector) -> Result<(), String> {
        c.emit(t.values().to_vec());
        Ok(())
    }
    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(DEFAULT_STREAM, ["key"])]
    }
}

#[test]
fn profile_plan_schedule() {
    // 1. Profile a small run.
    let mut builder = TopologyBuilder::new();
    builder.set_spout("spout", || CountSpout(5_000), 1);
    builder
        .set_bolt("stage1", || PassBolt, 2)
        .shuffle_grouping("spout");
    builder
        .set_bolt("sink", || |_t: &Tuple, _c: &mut BoltCollector| Ok(()), 2)
        .fields_grouping("stage1", ["key"]);
    let handle = builder.build().unwrap().launch();
    assert!(handle.wait_idle(Duration::from_secs(30)));
    let metrics = handle.shutdown(Duration::from_secs(5));

    // 2. Plan for a production rate.
    let plan = plan_from_metrics(
        &metrics,
        "spout",
        250_000.0,
        &PlannerConfig {
            headroom: 1.5,
            min_tasks: 1,
            max_tasks: 32,
        },
    )
    .expect("plan");
    assert!(plan.total_tasks() >= 3, "at least one task per component");
}
