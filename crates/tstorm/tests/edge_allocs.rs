//! Heap allocations per tuple on the batched shuffle edge. Tuple values
//! live in shared batch arenas and the acker protocol travels folded per
//! batch, so at batch size 64 a tracked tuple crossing spout → counting
//! bolt costs a sixth of an allocation, everything the run makes counted:
//! launch, threads, acker and shutdown. A `Vec` or `String` made per
//! emitted tuple anywhere on that path adds at least one per tuple.
//!
//! Counted process-wide, so this file holds one test: no other test's
//! allocations can land in the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tstorm::prelude::*;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded to `System` unchanged; counting is one
// relaxed atomic add, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const TUPLES: u64 = 20_000;

/// The batched edge reads 0.16 allocations per tuple, also with three
/// busy loops competing for two cores; the per-tuple transport it
/// replaced read 2.0 at batch size 1 and 3.1 before arena emit. Half an
/// allocation leaves three times the measured headroom for partial
/// batches, while one more allocation per tuple (1.16) trips it.
const MAX_ALLOCS_PER_TUPLE: f64 = 0.5;

/// Emits `0..TUPLES` as tracked `(key, seq)` tuples.
struct Numbers {
    next: u64,
}

impl Spout for Numbers {
    fn next_tuple(&mut self, collector: &mut SpoutCollector) -> bool {
        if self.next == TUPLES {
            return false;
        }
        let i = self.next;
        self.next += 1;
        collector.emit_values(&[Value::U64(i % 64), Value::U64(i)], Some(i));
        true
    }

    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(DEFAULT_STREAM, ["key", "seq"])]
    }
}

struct Count {
    seen: Arc<AtomicU64>,
}

impl Bolt for Count {
    fn execute(&mut self, _: &Tuple, _: &mut BoltCollector) -> Result<(), String> {
        self.seen.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

#[test]
fn the_batched_shuffle_edge_allocates_a_fraction_per_tuple() {
    let seen = Arc::new(AtomicU64::new(0));
    let mut builder = TopologyBuilder::new().with_config(TopologyConfig {
        batch_size: 64,
        flush_interval: Duration::from_millis(1),
        ..TopologyConfig::default()
    });
    builder.set_spout("numbers", || Numbers { next: 0 }, 1);
    {
        let seen = Arc::clone(&seen);
        builder
            .set_bolt(
                "count",
                move || Count {
                    seen: Arc::clone(&seen),
                },
                2,
            )
            .shuffle_grouping("numbers");
    }
    let topology = builder.build().unwrap();

    let before = ALLOCS.load(Ordering::Relaxed);
    let handle = topology.launch();
    assert!(handle.wait_idle(Duration::from_secs(60)), "edge stalled");
    let metrics = handle.shutdown(Duration::from_secs(10));
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    assert_eq!(seen.load(Ordering::Relaxed), TUPLES, "lost tuples");
    let spout = metrics.iter().find(|m| m.component == "numbers").unwrap();
    assert_eq!(spout.acked, TUPLES, "every tree completes");
    let per_tuple = allocs as f64 / TUPLES as f64;
    println!("{allocs} allocations for {TUPLES} tuples: {per_tuple:.2} per tuple");
    assert!(
        per_tuple <= MAX_ALLOCS_PER_TUPLE,
        "{allocs} allocations for {TUPLES} tuples: {per_tuple:.2} per tuple \
         (ceiling {MAX_ALLOCS_PER_TUPLE})"
    );
}
