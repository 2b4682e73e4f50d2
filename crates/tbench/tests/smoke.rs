//! Every in-process workload end to end at the tiny compile-time sizes,
//! untraced and traced: API drift in a layer breaks this build and this
//! test, not the next benchmark run. Only correctness is asserted —
//! timings at this size mean nothing. One test runs them one after the
//! other: side by side on a small box they would starve each other's
//! probes and clients.

use tbench::metrics;
use tbench::sizes::TINY;
use tbench::workloads::{self, Outcome, RunSpec};

fn run(workload: &str, traced: bool) -> Outcome {
    let spec = RunSpec {
        seed: 7,
        seconds: 1,
        traced,
        sizes: TINY,
        scratch: std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("tbench-smoke"),
    };
    let outcome = workloads::run(workload, spec).expect("known workload");
    assert!(
        outcome.correct,
        "{workload} (traced: {traced}) failed its checks: {:?}",
        outcome.problems
    );
    assert!(outcome.attempted >= 1);
    assert_eq!(outcome.failed, 0, "{workload}: operations failed");
    metrics::check_complete(Outcome::table(traced), &outcome.metrics).expect("complete result");
    outcome
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .1
}

#[test]
fn in_process_workloads_run_at_tiny_size() {
    ingest_broad();
    fresh_hot();
    serve_mixed();
}

fn ingest_broad() {
    let plain = run("ingest_broad", false);
    for def in metrics::END_TO_END {
        assert!(
            value(&plain, def.name) > 0.0,
            "{} is not positive",
            def.name
        );
    }
    let traced = run("ingest_broad", true);
    for name in [
        "core.cf_pair.tuples_in",
        "core.user_history.busy_share",
        "core.mem_engine_actions_per_s",
        "tdstore.keys_end",
        "tdstore.get_p50_us",
        "ckpt.full_bytes",
        "ckpt.delta_bytes",
        "tdaccess.poll_ns_per_msg",
    ] {
        assert!(value(&traced, name) > 0.0, "{name} is not positive");
    }
    // A layer this workload never touches reads 0.
    assert_eq!(value(&traced, "serve.codec_ns_per_req"), 0.0);
}

fn fresh_hot() {
    let plain = run("fresh_hot", false);
    for def in metrics::END_TO_END {
        assert!(
            value(&plain, def.name) > 0.0,
            "{} is not positive",
            def.name
        );
    }
    let traced = run("fresh_hot", true);
    for name in [
        "gen.sent",
        "fresh.traced_p50_us",
        "tdaccess.poll_wait_p50_us",
        "tstorm.user_history-cf_pair.wait_p50_us",
        "core.freshness_hist_p50_ms",
        "tdstore.query_p50_us",
    ] {
        assert!(value(&traced, name) > 0.0, "{name} is not positive");
    }
    assert!(value(&traced, "fresh.budget_coverage") > 0.0);
}

fn serve_mixed() {
    let plain = run("serve_mixed", false);
    for def in metrics::END_TO_END {
        assert!(
            value(&plain, def.name) > 0.0,
            "{} is not positive",
            def.name
        );
    }
    let traced = run("serve_mixed", true);
    for name in [
        "serve.shard_query_p50_us",
        "serve.codec_ns_per_req",
        "serve.action_p50_us",
        "core.engine_recommend_p50_us",
        "core.engine_process_ns_per_action",
    ] {
        assert!(value(&traced, name) > 0.0, "{name} is not positive");
    }
    assert_eq!(value(&traced, "core.cf_pair.tuples_in"), 0.0);
}
