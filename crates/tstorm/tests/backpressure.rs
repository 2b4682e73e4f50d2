//! Backpressure: bounded task queues block fast producers instead of
//! dropping tuples, so a slow consumer still sees everything.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tstorm::prelude::*;
use tstorm::topology::TopologyConfig;

struct BurstSpout {
    left: u64,
}

impl Spout for BurstSpout {
    fn next_tuple(&mut self, collector: &mut SpoutCollector) -> bool {
        if self.left == 0 {
            return false;
        }
        self.left -= 1;
        collector.emit(vec![Value::U64(self.left)], Some(self.left));
        true
    }
    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(DEFAULT_STREAM, ["key"])]
    }
}

struct FanBolt;

impl Bolt for FanBolt {
    fn execute(&mut self, t: &Tuple, c: &mut BoltCollector) -> Result<(), String> {
        for _ in 0..3 {
            c.emit_values(t.values());
        }
        Ok(())
    }
    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(DEFAULT_STREAM, ["key"])]
    }
}

struct SlowBolt {
    processed: Arc<AtomicU64>,
}

impl Bolt for SlowBolt {
    fn execute(&mut self, _t: &Tuple, _c: &mut BoltCollector) -> Result<(), String> {
        std::thread::sleep(Duration::from_micros(300));
        self.processed.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

#[test]
fn tiny_queue_slow_consumer_loses_nothing() {
    const N: u64 = 2_000;
    let processed = Arc::new(AtomicU64::new(0));
    let mut builder = TopologyBuilder::new().with_config(TopologyConfig {
        queue_capacity: 4, // aggressive: producers must block constantly
        message_timeout: Duration::from_secs(60),
        ..Default::default()
    });
    builder.set_spout("burst", || BurstSpout { left: N }, 1);
    {
        let processed = Arc::clone(&processed);
        builder
            .set_bolt(
                "slow",
                move || SlowBolt {
                    processed: Arc::clone(&processed),
                },
                2,
            )
            .shuffle_grouping("burst");
    }
    let handle = builder.build().unwrap().launch();
    assert!(handle.wait_idle(Duration::from_secs(60)), "must drain");
    let metrics = handle.shutdown(Duration::from_secs(5));
    assert_eq!(processed.load(Ordering::Relaxed), N);
    let slow = metrics.iter().find(|m| m.component == "slow").unwrap();
    assert_eq!(slow.executed, N);
    assert_eq!(slow.failed, 0);
}

#[test]
fn deep_pipeline_with_fanout_drains_under_backpressure() {
    // Three stages, middle stage fans out 3×, queues of 8.
    const N: u64 = 500;
    let sink_count = Arc::new(AtomicU64::new(0));
    let mut builder = TopologyBuilder::new().with_config(TopologyConfig {
        queue_capacity: 8,
        message_timeout: Duration::from_secs(60),
        ..Default::default()
    });
    builder.set_spout("burst", || BurstSpout { left: N }, 1);
    builder
        .set_bolt("fan", || FanBolt, 2)
        .shuffle_grouping("burst");
    {
        let sink_count = Arc::clone(&sink_count);
        builder
            .set_bolt(
                "sink",
                move || {
                    let sink_count = Arc::clone(&sink_count);
                    move |_t: &Tuple, _c: &mut BoltCollector| {
                        sink_count.fetch_add(1, Ordering::Relaxed);
                        Ok(())
                    }
                },
                2,
            )
            .fields_grouping("fan", ["key"]);
    }
    let handle = builder.build().unwrap().launch();
    assert!(handle.wait_idle(Duration::from_secs(60)));
    handle.shutdown(Duration::from_secs(5));
    assert_eq!(sink_count.load(Ordering::Relaxed), N * 3);
}
