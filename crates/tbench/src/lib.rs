#![warn(missing_docs)]
//! # tbench — the repo's benchmark
//!
//! Four workloads over the paths that exist today — the CF pipeline from
//! TDAccess to TDStore (`ingest_broad`, `fresh_hot`), the TCP serving
//! edge (`serve_mixed`) and the multi-process tuple relay
//! (`cluster_edge`) — measured end to end on an untraced run and layer by
//! layer on a traced one. `BENCHMARK.json` at the repo root is the
//! contract; `README.md` here explains every workload and metric.

pub mod compare;
pub mod gen;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod pipeline;
pub mod probes;
pub mod sizes;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
