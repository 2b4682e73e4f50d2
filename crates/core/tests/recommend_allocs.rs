//! Heap allocations per store-backed query. `TopologyRecommender::recommend`
//! reads the history and each similar-items list in place and sizes its
//! buffers before it reads, so a call allocates a fixed handful of buffers
//! — the rated set, the history records, the candidate sums and the page —
//! however long the user's history is. A decoded copy per key, or a map
//! grown one rehash at a time, shows up here as a count that moves with
//! the history's length.
//!
//! Counted per thread, so the store's background threads do not count.

mod support;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use support::oracle_recommend;
use tdstore::{StoreConfig, TdStore};
use tencentrec::topology::state::{self as keys, encode_history, encode_sim_list, HistoryRecord};
use tencentrec::topology::{CfPipelineConfig, TopologyRecommender};
use tencentrec::types::{ItemId, UserId};

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

/// Allocations a query may make: rated set, records, sums, page.
const MAX_ALLOCS: usize = 4;

const ITEMS: u64 = 1_000;

/// Allocations made by `f` on this thread.
fn allocs_in<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

#[test]
fn recommend_allocates_the_same_handful_for_any_history_length() {
    let config = CfPipelineConfig {
        dedup_window: 8,
        ..CfPipelineConfig::default()
    };
    let store = TdStore::new(StoreConfig::default());
    for item in 0..ITEMS {
        let list: Vec<(ItemId, f64)> = (1..=config.top_k as u64)
            .map(|d| ((item * 7 + d * 13) % ITEMS, 1.0 / d as f64))
            .collect();
        store
            .put(&keys::similar_items(item), encode_sim_list(&list))
            .unwrap();
    }
    let users: [(UserId, u64); 2] = [(1, 10), (2, 500)];
    for &(user, len) in &users {
        let history: Vec<HistoryRecord> = (0..len)
            .map(|i| ((i * 37 + user) % ITEMS, 1.0 + (i % 3) as f64, i / 2))
            .collect();
        store
            .put(&keys::user_history(user), encode_history(&history, &[]))
            .unwrap();
    }
    let query = TopologyRecommender::new(store.clone(), config.clone());
    query.recommend(1, 10);

    let mut counts = Vec::new();
    for &(user, len) in &users {
        let (allocs, page) = allocs_in(|| query.recommend(user, 10));
        assert_eq!(page.len(), 10, "user with {len} records");
        assert_eq!(page, oracle_recommend(&store, &config, user, 10));
        assert!(
            allocs <= MAX_ALLOCS,
            "{allocs} allocations for a {len}-record history (at most {MAX_ALLOCS})"
        );
        counts.push(allocs);
    }
    assert_eq!(counts[0], counts[1], "allocations depend on history length");
}
