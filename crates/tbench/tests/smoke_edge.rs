//! `cluster_edge` at the tiny compile-time size. The supervisor
//! re-executes THIS test binary as its workers (`--exact <test fn>
//! --nocapture`), so the test's first statement diverts a worker process
//! into the worker runtime. It is alone in its file: the workload hands
//! the tuple count to its workers through the environment, which is only
//! safe to set while no other test thread runs.

use tbench::metrics;
use tbench::sizes::TINY;
use tbench::workloads::{edge, Outcome, RunSpec};

#[test]
fn cluster_edge_runs_at_tiny_size() {
    if tcluster::maybe_run_worker(edge::app) {
        unreachable!("maybe_run_worker exits the process in worker mode");
    }
    let args = ["--exact", "cluster_edge_runs_at_tiny_size", "--nocapture"];
    for traced in [false, true] {
        let spec = RunSpec {
            seed: 7,
            seconds: 1,
            traced,
            sizes: TINY,
            scratch: std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("tbench-smoke"),
        };
        let outcome = edge::run_with(spec, &args);
        assert!(
            outcome.correct,
            "cluster_edge (traced: {traced}) failed its checks: {:?}",
            outcome.problems
        );
        assert_eq!(outcome.failed, 0);
        metrics::check_complete(Outcome::table(traced), &outcome.metrics).expect("complete result");
        let value = |name: &str| outcome.metrics.iter().find(|(n, _)| *n == name).unwrap().1;
        if traced {
            for name in [
                "cluster.remote_vs_local",
                "cluster.relayed_batches",
                "wire.frame_roundtrip_ns",
                "tstorm.remote.flatten_ns_per_tuple",
            ] {
                assert!(value(name) > 0.0, "{name} is not positive");
            }
        } else {
            for def in metrics::END_TO_END {
                assert!(value(def.name) > 0.0, "{} is not positive", def.name);
            }
        }
    }
}
