//! Heap allocations per tuple frame on the worker data plane. Injecting
//! a frame reads it straight into one presized batch arena, and the
//! egress pump encodes it straight from that arena into a reused buffer,
//! so a 640-tuple frame costs exactly the allocations of a 64-tuple one.
//! A `String` or `Vec` made per tuple on either side shows up here as a
//! count that grows with the frame.
//!
//! Counted per thread: injection on the test thread, encoding on the
//! pump thread inside the egress callback.

mod support;

use crossbeam::channel::unbounded;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;
use tcluster::protocol;
use tstorm::remote::{EgressFn, TupleBatch, WireTuple};
use tstorm::{Value, DEFAULT_STREAM};

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded to `System` unchanged; counting touches
// only a const-initialised thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations an injected one-group frame may make: the group list,
/// the value arena, the meta list, the shared batch and the message list
/// handed to the queue (which may reuse the group list's buffer).
const MAX_INJECT_ALLOCS: usize = 5;

/// Allocations made by `f` on this thread.
fn allocs_in<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// A `cluster_edge`-shaped frame body: `n` two-field tuples from one
/// source task, each under one root.
fn edge_frame(n: u64) -> bytes::BytesMut {
    let tuples = (0..n)
        .map(|i| WireTuple {
            stream: DEFAULT_STREAM.to_string(),
            src_component: "numbers".to_string(),
            src_task: 0,
            values: vec![Value::U64(i % 64), Value::U64(i)],
            anchors: vec![(i, i ^ 0x9e37)],
        })
        .collect();
    support::body("sink", 1, tuples)
}

#[test]
fn frame_allocations_do_not_grow_with_the_frame() {
    let (tx, rx) = unbounded();
    let egress: EgressFn = Arc::new(
        move |buf: &mut Vec<u8>, dest: &str, task: usize, batches: &[TupleBatch]| {
            let (n, ()) = allocs_in(|| protocol::encode_tuple_frames(buf, 0, dest, task, batches));
            let _ = tx.send(n);
        },
    );
    let slice = support::launch(egress);
    let mut costs = Vec::new();
    for n in [64, 640] {
        let body = edge_frame(n);
        // The first frames of a size grow the pump's buffer and the
        // queue; only the steady state is measured.
        for _ in 0..3 {
            protocol::inject(&slice, &body).unwrap();
            rx.recv_timeout(Duration::from_secs(10))
                .expect("egress ran");
        }
        let (inject, result) = allocs_in(|| protocol::inject(&slice, &body));
        result.unwrap();
        let encode = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("egress ran");
        costs.push((n, inject, encode));
    }
    slice.kill();
    let (_, inject, encode) = costs[0];
    assert!(inject <= MAX_INJECT_ALLOCS, "{costs:?}");
    assert_eq!(
        encode, 0,
        "encoding into a warm buffer allocates: {costs:?}"
    );
    assert_eq!(
        (costs[1].1, costs[1].2),
        (inject, encode),
        "allocations grow with the frame: {costs:?}"
    );
}
