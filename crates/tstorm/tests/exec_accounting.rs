//! Execute accounting is folded once per run, and must count exactly what
//! per-chunk accounting counted. A per-tuple bolt gets one run that holds
//! good tuples, tuples whose execute returns `Err` and tuples whose
//! execute panics; its counters and its spout's must come out as one
//! record per tuple would have left them, and the exec histogram must sum
//! to `exec_nanos`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tstorm::prelude::*;

const TUPLES: u64 = 30;

/// Emits `0..TUPLES`, tracked, in one burst; counts what comes back and
/// replays nothing.
struct Burst {
    next: u64,
    settled: Arc<AtomicU64>,
}

impl Spout for Burst {
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

/// Fails `n % 10 == 3` with `Err`, panics on `n % 10 == 7`, acks the rest.
struct Picky;

impl Bolt for Picky {
    fn execute(&mut self, tuple: &Tuple, _: &mut BoltCollector) -> Result<(), String> {
        match tuple.u64("n") % 10 {
            3 => Err("refused".into()),
            7 => panic!("execute panics on purpose"),
            _ => Ok(()),
        }
    }
}

#[test]
fn a_mixed_run_counts_what_per_chunk_records_counted() {
    let settled = Arc::new(AtomicU64::new(0));
    let mut builder = TopologyBuilder::new().with_config(TopologyConfig {
        batch_size: 64,
        // Long enough that the burst ends at the spout's idle flush: all
        // thirty tuples travel in one batch and execute as one run.
        flush_interval: Duration::from_secs(1),
        ..TopologyConfig::default()
    });
    {
        let settled = Arc::clone(&settled);
        builder.set_spout(
            "numbers",
            move || Burst {
                next: 0,
                settled: Arc::clone(&settled),
            },
            1,
        );
    }
    builder
        .set_bolt("picky", || Picky, 1)
        .shuffle_grouping("numbers");
    let handle = builder.build().unwrap().launch();
    let deadline = Instant::now() + Duration::from_secs(10);
    while settled.load(Ordering::Relaxed) < TUPLES && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let drains = handle
        .registry()
        .histogram_snapshot("tstorm_batch_size", &[("component", "picky")])
        .unwrap();
    let metrics = handle.shutdown(Duration::from_secs(10));
    assert_eq!(settled.load(Ordering::Relaxed), TUPLES);
    assert_eq!(
        (drains.count(), drains.max_nanos()),
        (1, TUPLES),
        "the tuples arrive in one drain"
    );

    let of = |name: &str| metrics.iter().find(|m| m.component == name).unwrap();
    let (bolt, spout) = (of("picky"), of("numbers"));
    // Three `Err`s and three panics among thirty tuples.
    assert_eq!((bolt.executed, bolt.acked, bolt.failed), (30, 24, 6));
    // A spout executes its polls and acks or fails its trees: a poll
    // burst is not an ack.
    assert_eq!((spout.executed, spout.acked, spout.failed), (30, 24, 6));
    assert_eq!(bolt.exec_latency.count(), bolt.executed);
    assert_eq!(bolt.exec_latency.sum_nanos(), bolt.exec_nanos);
    assert!(bolt.exec_nanos > 0);
    assert_eq!(spout.exec_latency.sum_nanos(), spout.exec_nanos);
}
