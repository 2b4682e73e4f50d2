//! Every `tstorm_*` family in the registry means what its help text says.
//! One small acked topology — a spout and two bolts, some of whose
//! executes return `Err` — runs to its drain, and each family is read
//! back against a count made by hand.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tstorm::prelude::*;

const TUPLES: u64 = 40;

/// Emits `0..TUPLES`, tracked; counts settled trees and replays nothing.
struct Numbers {
    next: u64,
    settled: Arc<AtomicU64>,
}

impl Spout for Numbers {
    fn next_tuple(&mut self, collector: &mut SpoutCollector) -> bool {
        if self.next == TUPLES {
            return false;
        }
        collector.emit_values(&[Value::U64(self.next)], Some(self.next));
        self.next += 1;
        true
    }
    fn ack(&mut self, _: u64) {
        self.settled.fetch_add(1, Ordering::Relaxed);
    }
    fn fail(&mut self, _: u64) {
        self.settled.fetch_add(1, Ordering::Relaxed);
    }
    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(DEFAULT_STREAM, ["n"])]
    }
}

/// Refuses every multiple of `modulus` and forwards the rest when `forward`.
struct Refuse {
    modulus: u64,
    forward: bool,
}

impl Bolt for Refuse {
    fn execute(&mut self, tuple: &Tuple, collector: &mut BoltCollector) -> Result<(), String> {
        if tuple.u64("n").is_multiple_of(self.modulus) {
            return Err("refused".into());
        }
        if self.forward {
            collector.emit_values(tuple.values());
        }
        Ok(())
    }
    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(DEFAULT_STREAM, ["n"])]
    }
}

#[test]
fn every_family_reads_its_hand_count() {
    let registry = obs::Registry::new();
    let settled = Arc::new(AtomicU64::new(0));
    let mut builder = TopologyBuilder::new().with_config(TopologyConfig {
        registry: registry.clone(),
        ..TopologyConfig::default()
    });
    {
        let settled = Arc::clone(&settled);
        builder.set_spout(
            "numbers",
            move || Numbers {
                next: 0,
                settled: Arc::clone(&settled),
            },
            1,
        );
    }
    // `first` refuses n % 5 == 0 (0, 5, .., 35: 8 tuples) and forwards
    // the other 32; `second` refuses the forwarded multiples of 7 (7, 14,
    // 21, 28: 4 tuples).
    builder
        .set_bolt(
            "first",
            || Refuse {
                modulus: 5,
                forward: true,
            },
            2,
        )
        .shuffle_grouping("numbers");
    builder
        .set_bolt(
            "second",
            || Refuse {
                modulus: 7,
                forward: false,
            },
            1,
        )
        .shuffle_grouping("first");
    let handle = builder.build().unwrap().launch();

    let gauge = |family: &str, labels: &[(&str, &str)]| {
        registry
            .gauge_value(family, labels)
            .unwrap_or_else(|| panic!("{family}{labels:?} not registered"))
    };
    let queues = [("first", "0"), ("first", "1"), ("second", "0")];
    let drained = || {
        settled.load(Ordering::Relaxed) == TUPLES
            && gauge("tstorm_inflight_tuples", &[]) == 0.0
            && gauge("tstorm_acker_pending_trees", &[]) == 0.0
            && queues.iter().all(|&(component, task)| {
                gauge(
                    "tstorm_queue_depth",
                    &[("component", component), ("task", task)],
                ) == 0.0
            })
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while !drained() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(
        settled.load(Ordering::Relaxed),
        TUPLES,
        "every tree settles"
    );
    assert_eq!(gauge("tstorm_inflight_tuples", &[]), 0.0);
    assert_eq!(gauge("tstorm_acker_pending_trees", &[]), 0.0);
    for (component, task) in queues {
        let labels = [("component", component), ("task", task)];
        assert_eq!(gauge("tstorm_queue_depth", &labels), 0.0, "{labels:?}");
    }
    // Counters are folded at the end of each run; after shutdown every
    // run has ended.
    handle.shutdown(Duration::from_secs(10));

    // A drain records its depth in tuples, so the depths sum to every
    // tuple the bolt received; the shutdown message carries none.
    for (component, received) in [("first", 40), ("second", 32)] {
        let drains = registry
            .histogram_snapshot("tstorm_batch_size", &[("component", component)])
            .unwrap();
        assert_eq!(drains.sum_nanos(), received, "{component}: tuples drained");
    }

    let counter = |family: &str, component: &str| {
        registry
            .counter_value(family, &[("component", component)])
            .unwrap_or_else(|| panic!("{family}{{component={component}}} not registered"))
    };
    let counts = |component: &str| {
        [
            "tstorm_emitted_total",
            "tstorm_executed_total",
            "tstorm_acked_total",
            "tstorm_failed_total",
        ]
        .map(|family| counter(family, component))
    };
    // [emitted, executed, acked, failed]. The spout executes one root
    // message per tuple and acks or fails whole trees: 12 of its 40 trees
    // hold a refused tuple.
    assert_eq!(counts("numbers"), [40, 40, 28, 12], "spout");
    assert_eq!(counts("first"), [32, 40, 32, 8], "first bolt");
    assert_eq!(counts("second"), [0, 32, 28, 4], "second bolt");

    for (component, executed) in [("first", 40), ("second", 32)] {
        let exec = registry
            .histogram_snapshot("tstorm_exec_latency_seconds", &[("component", component)])
            .unwrap();
        assert_eq!(
            exec.count(),
            executed,
            "{component}: one sample per execute"
        );
    }
    for (component, task) in queues {
        let labels = [("component", component), ("task", task)];
        assert_eq!(
            registry.counter_value("tstorm_backpressure_stalls_total", &labels),
            Some(0),
            "{labels:?}: 40 tuples never fill a queue"
        );
    }
    let pipeline = registry
        .histogram_snapshot("tstorm_pipeline_latency_seconds", &[])
        .unwrap();
    assert_eq!(pipeline.count(), 28, "one sample per completed tree");
}
