//! The frozen constants. Nothing here is probed or derived at run time:
//! sizes and rates were fixed once by measurement on the reference box
//! (`nproc` = 2; see README.md for the runs that chose them), so the
//! parent commit and a change always see the same load. `--seconds`
//! scales the amount of work linearly from the per-second figures.

use crate::gen::StreamShape;

/// `run_seconds` of `BENCHMARK.json`: the default `--seconds`.
pub const RUN_SECONDS: u64 = 10;
/// TDAccess topic partitions (the shape `cluster_pipeline` and the chaos
/// matrix certify).
pub const PARTITIONS: usize = 4;
/// `CfPipelineConfig::dedup_window` of that same shape.
pub const DEDUP_WINDOW: usize = 256;
/// A probe not reflected within this long has failed (the paper's
/// "under a second", §6.1).
pub const FRESHNESS_LIMIT_MS: u64 = 1_000;

/// `ingest_broad` stream: Zipf(1.0) items; users Zipf(1.0) with the head
/// flattened (offset 40) so the busiest user stays well under the
/// pipeline's `max_history` (1024) — past it, which record gets evicted
/// depends on arrival order and the sequential reference stops being one.
pub const BROAD_SHAPE: StreamShape = StreamShape {
    users: 20_000,
    user_zipf: (1.0, 40.0),
    items: 5_000,
    item_zipf: (1.0, 0.0),
};

/// How much work each workload does.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Milliseconds one second of `--seconds` lasts: 1000 for the
    /// benchmark, less in the smoke tests.
    pub ms_per_second: u64,
    /// `ingest_broad`: actions per second of `--seconds`.
    pub ingest_actions_per_s: u64,
    /// `ingest_broad`: period of the reader thread's store-backed queries.
    pub ingest_query_period_us: u64,
    /// `ingest_broad`: item pairs whose similarity is checked.
    pub ingest_checked_pairs: usize,
    /// `fresh_hot`: actions ingested before the measured phase.
    pub fresh_prewarm_actions: usize,
    /// `fresh_hot`: background rate R, actions per second.
    pub fresh_rate_per_s: u64,
    /// `fresh_hot`: one probe every this many milliseconds.
    pub fresh_probe_period_ms: u64,
    /// `fresh_hot`: distinct users / tail items of the hot-burst mix.
    pub fresh_users: u64,
    /// `fresh_hot`: tail catalogue of the hot-burst mix.
    pub fresh_items: usize,
    /// `serve_mixed`: actions seeded over the wire in set-up.
    pub serve_seed_actions: usize,
    /// `serve_mixed`: users / items of the seeded model.
    pub serve_users: u64,
    /// `serve_mixed`: item catalogue of the seeded model.
    pub serve_items: usize,
    /// `cluster_edge`: tuples per second of `--seconds`.
    pub edge_tuples_per_s: u64,
    /// Timed calls per store operation in the traced probes.
    pub probe_calls: usize,
    /// Times set-up runs; `setup_s` is the median.
    pub setup_repeats: usize,
}

/// The benchmark proper.
pub const FULL: Sizes = Sizes {
    ms_per_second: 1_000,
    ingest_actions_per_s: 9_000,
    ingest_query_period_us: 2_000,
    ingest_checked_pairs: 1_000,
    fresh_prewarm_actions: 10_000,
    fresh_rate_per_s: 3_000,
    fresh_probe_period_ms: 10,
    fresh_users: 2_000,
    fresh_items: 5_000,
    serve_seed_actions: 50_000,
    serve_users: 20_000,
    serve_items: 2_000,
    edge_tuples_per_s: 1_000_000,
    probe_calls: 10_000,
    setup_repeats: 5,
};

/// Compile-time tiny sizes for `tests/smoke.rs`: every workload end to
/// end in well under a second, so API drift in a layer breaks the build
/// and the test run, not the next benchmark run.
pub const TINY: Sizes = Sizes {
    ms_per_second: 250,
    ingest_actions_per_s: 16_000,
    ingest_query_period_us: 2_000,
    ingest_checked_pairs: 50,
    fresh_prewarm_actions: 200,
    fresh_rate_per_s: 500,
    fresh_probe_period_ms: 20,
    fresh_users: 100,
    fresh_items: 200,
    serve_seed_actions: 500,
    serve_users: 200,
    serve_items: 100,
    edge_tuples_per_s: 600_000,
    probe_calls: 200,
    setup_repeats: 1,
};
