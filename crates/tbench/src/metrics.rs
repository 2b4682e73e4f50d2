//! The metric tables: every name and unit the benchmark prints. They
//! must equal `BENCHMARK.json` exactly (`tbench --validate` and the
//! crate's tests check it), and every run is checked against them before
//! its result line is printed.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The manifest's spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// The workloads, in manifest order.
pub const WORKLOADS: [&str; 4] = ["ingest_broad", "fresh_hot", "serve_mixed", "cluster_edge"];

/// End-to-end metrics: printed by every workload on an untraced run.
/// What each means per workload is in README.md.
pub const END_TO_END: &[MetricDef] = &[
    m("ops_per_s", "1/s", Higher),
    m("latency_p50_us", "us", Lower),
    m("latency_p95_us", "us", Lower),
    m("peak_rss_mib", "MiB", Lower),
    m("setup_s", "s", Lower),
];

/// Per-layer metrics: printed by every workload on a traced run; a layer
/// the workload does not touch reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // The load generator (validity of the open loop).
    m("gen.late_p99_ms", "ms", Lower),
    m("gen.sent", "count", Higher),
    // tdaccess
    m("tdaccess.produce_ns_per_msg", "ns", Lower),
    m("tdaccess.poll_ns_per_msg", "ns", Lower),
    m("tdaccess.lag_max", "count", Lower),
    m("tdaccess.lag_end", "count", Lower),
    m("tdaccess.poll_wait_p50_us", "us", Lower),
    // tstorm
    m("tstorm.spout.busy_share", "ratio", Lower),
    m("tstorm.spout-pretreatment.wait_p50_us", "us", Lower),
    m("tstorm.spout-pretreatment.wait_p95_us", "us", Lower),
    m("tstorm.pretreatment-user_history.wait_p50_us", "us", Lower),
    m("tstorm.pretreatment-user_history.wait_p95_us", "us", Lower),
    m("tstorm.user_history-item_count.wait_p50_us", "us", Lower),
    m("tstorm.user_history-item_count.wait_p95_us", "us", Lower),
    m("tstorm.user_history-cf_pair.wait_p50_us", "us", Lower),
    m("tstorm.user_history-cf_pair.wait_p95_us", "us", Lower),
    m("tstorm.ack_rtt_p50_us", "us", Lower),
    m("tstorm.backpressure_stalls", "count", Lower),
    m("tstorm.local_edge_tuples_per_s", "1/s", Higher),
    m("tstorm.remote.flatten_ns_per_tuple", "ns", Lower),
    // core: the four CF bolts, then the engines
    m("core.pretreatment.busy_share", "ratio", Lower),
    m("core.pretreatment.exec_p50_us", "us", Lower),
    m("core.pretreatment.exec_p95_us", "us", Lower),
    m("core.pretreatment.tuples_in", "count", Higher),
    m("core.pretreatment.tuples_out", "count", Higher),
    m("core.user_history.busy_share", "ratio", Lower),
    m("core.user_history.exec_p50_us", "us", Lower),
    m("core.user_history.exec_p95_us", "us", Lower),
    m("core.user_history.tuples_in", "count", Higher),
    m("core.user_history.tuples_out", "count", Higher),
    m("core.item_count.busy_share", "ratio", Lower),
    m("core.item_count.exec_p50_us", "us", Lower),
    m("core.item_count.exec_p95_us", "us", Lower),
    m("core.item_count.tuples_in", "count", Higher),
    m("core.item_count.tuples_out", "count", Higher),
    m("core.cf_pair.busy_share", "ratio", Lower),
    m("core.cf_pair.exec_p50_us", "us", Lower),
    m("core.cf_pair.exec_p95_us", "us", Lower),
    m("core.cf_pair.tuples_in", "count", Higher),
    m("core.cf_pair.tuples_out", "count", Higher),
    m("core.ingest_rate_decay", "ratio", Higher),
    m("core.mem_engine_actions_per_s", "1/s", Higher),
    m("core.freshness_hist_p50_ms", "ms", Lower),
    m("core.engine_recommend_p50_us", "us", Lower),
    m("core.engine_process_ns_per_action", "ns", Lower),
    // tdstore
    m("tdstore.get_p50_us", "us", Lower),
    m("tdstore.get_p95_us", "us", Lower),
    m("tdstore.put_p50_us", "us", Lower),
    m("tdstore.put_p95_us", "us", Lower),
    m("tdstore.update_p50_us", "us", Lower),
    m("tdstore.update_p95_us", "us", Lower),
    m("tdstore.query_p50_us", "us", Lower),
    m("tdstore.query_p95_us", "us", Lower),
    m("tdstore.visible_to_hit_p50_us", "us", Lower),
    m("tdstore.keys_end", "count", Lower),
    m("tdstore.bytes_end", "bytes", Lower),
    m("tdstore.sim_list_bytes_mean", "bytes", Lower),
    // ckpt
    m("ckpt.full_ms", "ms", Lower),
    m("ckpt.delta_ms", "ms", Lower),
    m("ckpt.restore_ms", "ms", Lower),
    m("ckpt.full_bytes", "bytes", Lower),
    m("ckpt.delta_bytes", "bytes", Lower),
    // serve
    m("serve.shard_query_p50_us", "us", Lower),
    m("serve.wire_overhead_p50_us", "us", Lower),
    m("serve.codec_ns_per_req", "ns", Lower),
    m("serve.action_p50_us", "us", Lower),
    m("serve.server_latency_p50_us", "us", Lower),
    m("serve.shed_share", "ratio", Lower),
    m("serve.expired_share", "ratio", Lower),
    // wire
    m("wire.frame_roundtrip_ns", "ns", Lower),
    m("wire.frame_mib_per_s", "MiB/s", Higher),
    // cluster
    m("cluster.remote_vs_local", "ratio", Higher),
    m("cluster.relayed_batches", "count", Lower),
    m("cluster.tuples_per_relayed_batch", "count", Higher),
    m("cluster.spawn_to_first_ack_ms", "ms", Lower),
    // the traced run itself
    m("fresh.traced_p50_us", "us", Lower),
    m("fresh.budget_coverage", "ratio", Higher),
    m("trace.overhead_share", "ratio", Lower),
];

/// Checks that `got` names exactly the metrics of `table`, each once.
pub fn check_complete(table: &[MetricDef], got: &[(&'static str, f64)]) -> Result<(), String> {
    for def in table {
        match got.iter().filter(|(n, _)| *n == def.name).count() {
            1 => {}
            0 => return Err(format!("metric {} missing from the result", def.name)),
            n => return Err(format!("metric {} printed {n} times", def.name)),
        }
    }
    match got
        .iter()
        .find(|(n, _)| !table.iter().any(|d| d.name == *n))
    {
        Some((extra, _)) => Err(format!("metric {extra} is not declared")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_fit_the_contract() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Lower));
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|d| d.name)
            .chain(WORKLOADS)
            .collect();
        for n in &names {
            assert!(crate::manifest::valid_name(n), "bad name {n}");
        }
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(crate::manifest::valid_unit(d.unit), "bad unit {}", d.unit);
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "a name is used twice");
    }

    #[test]
    fn completeness_check_flags_missing_extra_and_repeated() {
        let full: Vec<(&'static str, f64)> = END_TO_END.iter().map(|d| (d.name, 1.0)).collect();
        assert!(check_complete(END_TO_END, &full).is_ok());
        assert!(check_complete(END_TO_END, &full[1..]).is_err());
        let mut extra = full.clone();
        extra.push(("bogus", 1.0));
        assert!(check_complete(END_TO_END, &extra).is_err());
        let mut twice = full.clone();
        twice.push(full[0]);
        assert!(check_complete(END_TO_END, &twice).is_err());
    }
}
