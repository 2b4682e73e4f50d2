//! Per-layer numbers taken from outside a layer: timed calls on its
//! public API, and folds over the spans the wrappers recorded. Only
//! traced runs come here.

use crate::gen::Rng;
use crate::pipeline::{self, Rig};
use crate::stats::{now_ns, Samples};
use crate::trace::{self, Span};
use crate::workloads::Report;
use std::time::{Duration, Instant};
use tdaccess::AccessCluster;
use tdstore::{StoreConfig, TdStore};
use tencentrec::action::UserAction;
use tencentrec::topology::{CfParallelism, OffsetTable};
use tstorm::prelude::*;

/// Blocking sends that found a task queue full, over all tasks.
pub fn backpressure_stalls(registry: &obs::Registry) -> u64 {
    registry
        .export()
        .iter()
        .filter(|s| s.family == "tstorm_backpressure_stalls_total")
        .map(|s| match s.kind {
            obs::SampleKind::Counter(c) => c,
            _ => 0,
        })
        .sum()
}

/// Reads the first `n` records of the topic back through a consumer of
/// its own group in spout-sized polls; nanoseconds per record.
pub fn poll_ns_per_msg(access: &AccessCluster, n: u64) -> f64 {
    let mut consumer = access
        .consumer(pipeline::TOPIC, "tbench-poll-probe")
        .expect("topic exists");
    let t0 = Instant::now();
    let mut read = 0u64;
    while read < n {
        let batch = consumer.poll_records(32).expect("in-memory poll");
        if batch.is_empty() {
            break;
        }
        read += std::hint::black_box(batch).len() as u64;
    }
    t0.elapsed().as_nanos() as f64 / read.max(1) as f64
}

/// The spout as the wrappers saw it inside `window`: share of the time
/// spent in `next_tuple` and `ack`, the emit → ack round trip, and the
/// runtime's own count of sends that found a queue full.
pub fn spout_metrics(report: &mut Report, spans: &[Span], window: (u64, u64), stalls: u64) {
    let (from, to) = window;
    let busy_ns = trace::layer_calls(spans, pipeline::SPOUT, from, to).busy_ns
        + trace::layer_calls(spans, "tstorm.spout_ack", from, to).busy_ns;
    report.set(
        "tstorm.spout.busy_share",
        busy_ns as f64 / (to - from).max(1) as f64,
    );
    let rtt = trace::layer_calls(spans, "tstorm.ack_rtt", from, to);
    report.set(
        "tstorm.ack_rtt_p50_us",
        Samples::from_ns(&rtt.per_tuple_ns, 1e3).median(),
    );
    report.set("tstorm.backpressure_stalls", stalls as f64);
}

/// The four CF bolts: busy share, per-tuple execute time, tuples in/out.
/// Busy time and execute times come from the wrappers' call spans inside
/// `window`; the counts from tstorm's own component metrics.
pub fn bolt_metrics(
    report: &mut Report,
    spans: &[Span],
    components: &[MetricsSnapshot],
    window: (u64, u64),
) {
    let par = CfParallelism::default();
    let elapsed_ns = (window.1 - window.0).max(1) as f64;
    /// `(span name, component, tasks, the component's five metric names)`.
    macro_rules! bolt {
        ($span:expr, $name:literal, $tasks:expr) => {
            (
                $span,
                $name,
                $tasks,
                [
                    concat!("core.", $name, ".busy_share"),
                    concat!("core.", $name, ".exec_p50_us"),
                    concat!("core.", $name, ".exec_p95_us"),
                    concat!("core.", $name, ".tuples_in"),
                    concat!("core.", $name, ".tuples_out"),
                ],
            )
        };
    }
    let bolts = [
        bolt!(pipeline::PRETREATMENT, "pretreatment", par.pretreatment),
        bolt!(pipeline::USER_HISTORY, "user_history", par.history),
        bolt!(pipeline::ITEM_COUNT, "item_count", par.item_count),
        bolt!(pipeline::CF_PAIR, "cf_pair", par.pair),
    ];
    for (span_name, component, tasks, names) in bolts {
        let calls = trace::layer_calls(spans, span_name, window.0, window.1);
        let exec = Samples::from_ns(&calls.per_tuple_ns, 1e3);
        let counts = components.iter().find(|m| m.component == component);
        report.set(names[0], calls.busy_ns as f64 / (elapsed_ns * tasks as f64));
        report.set(names[1], exec.median());
        report.set(names[2], exec.p95());
        report.set(names[3], counts.map_or(0, |m| m.executed) as f64);
        report.set(names[4], counts.map_or(0, |m| m.emitted) as f64);
    }
}

/// Store size and timed `get` / `put` / `update` calls on keys sampled
/// from the store as the workload left it. Puts rewrite the value that
/// is already there and updates return it unchanged, so the probe leaves
/// the state as it found it.
pub fn store_metrics(report: &mut Report, store: &TdStore, seed: u64, calls: usize) {
    let pairs = store.scan_prefix(b"").expect("scan of a healthy store");
    let bytes: usize = pairs.iter().map(|(k, v)| k.len() + v.len()).sum();
    let sims: Vec<usize> = pairs
        .iter()
        .filter(|(k, _)| k.starts_with(b"sim:"))
        .map(|(_, v)| v.len())
        .collect();
    report.set(
        "tdstore.keys_end",
        store.len().expect("healthy store") as f64,
    );
    report.set("tdstore.bytes_end", bytes as f64);
    report.set(
        "tdstore.sim_list_bytes_mean",
        sims.iter().sum::<usize>() as f64 / sims.len().max(1) as f64,
    );
    if pairs.is_empty() {
        return;
    }

    let mut rng = Rng::new(seed, 0x5704e);
    let sample: Vec<&(Vec<u8>, Vec<u8>)> = (0..calls)
        .map(|_| &pairs[rng.below(pairs.len() as u64) as usize])
        .collect();
    let timed = |op: &mut dyn FnMut(&[u8], &[u8])| -> Samples {
        let ns: Vec<u64> = sample
            .iter()
            .map(|(k, v)| {
                let t0 = now_ns();
                op(k, v);
                now_ns() - t0
            })
            .collect();
        Samples::from_ns(&ns, 1e3)
    };
    let get = timed(&mut |k, _| {
        std::hint::black_box(store.get(k).expect("get"));
    });
    let put = timed(&mut |k, v| store.put(k, v.to_vec()).expect("put"));
    let update = timed(&mut |k, _| {
        std::hint::black_box(
            store
                .update(k, |old| old.map(<[u8]>::to_vec))
                .expect("update"),
        );
    });
    report.set("tdstore.get_p50_us", get.median());
    report.set("tdstore.get_p95_us", get.p95());
    report.set("tdstore.put_p50_us", put.median());
    report.set("tdstore.put_p95_us", put.p95());
    report.set("tdstore.update_p50_us", update.median());
    report.set("tdstore.update_p95_us", update.p95());
}

/// Times of a full checkpoint, a delta checkpoint and a restore.
#[derive(Debug, Clone, Copy)]
pub struct CkptProbe {
    full_ms: f64,
    delta_ms: f64,
    restore_ms: f64,
    full_bytes: u64,
    delta_bytes: u64,
}

impl CkptProbe {
    /// Writes the probe's five metrics.
    pub fn report(&self, report: &mut Report) {
        report.set("ckpt.full_ms", self.full_ms);
        report.set("ckpt.delta_ms", self.delta_ms);
        report.set("ckpt.restore_ms", self.restore_ms);
        report.set("ckpt.full_bytes", self.full_bytes as f64);
        report.set("ckpt.delta_bytes", self.delta_bytes as f64);
    }
}

/// Checkpoints the live pipeline (full), ingests `extra`, checkpoints
/// again (a delta of what `extra` changed), and restores the chain into a
/// fresh store. The log lives in `scratch` and is removed afterwards.
pub fn ckpt_probe(
    rig: &Rig,
    handle: &TopologyHandle,
    extra: &[UserAction],
    scratch: &std::path::Path,
) -> CkptProbe {
    let path = scratch.join(format!("ckpt-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let coordinator = ckpt::Coordinator::open(&path, ckpt::CheckpointConfig::default())
        .expect("open checkpoint log in the scratch directory");
    // The rig's spouts keep no offset table (the certified shape has
    // none); the probe times state capture and publish, not offsets.
    let offsets = OffsetTable::new();

    let t0 = Instant::now();
    let full = coordinator
        .checkpoint(handle, &rig.store, &offsets, 1)
        .expect("full checkpoint");
    let full_ms = t0.elapsed().as_secs_f64() * 1e3;

    let before = rig.progress.committed();
    let producer = rig.producer();
    for a in extra {
        pipeline::send(&producer, a, None);
    }
    assert!(
        rig.wait_committed(before + extra.len() as u64, Duration::from_secs(60)),
        "checkpoint probe: extra actions never committed"
    );
    let t0 = Instant::now();
    let delta = coordinator
        .checkpoint(handle, &rig.store, &offsets, 2)
        .expect("delta checkpoint");
    let delta_ms = t0.elapsed().as_secs_f64() * 1e3;

    let fresh = TdStore::new(StoreConfig::default());
    let t0 = Instant::now();
    let restored = coordinator.restore_into(&fresh).expect("restore");
    let restore_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(restored.is_some(), "checkpoint probe: nothing to restore");
    assert_eq!(
        fresh.len().expect("restored store"),
        rig.store.len().expect("live store"),
        "checkpoint probe: restored store differs in size"
    );
    drop(coordinator);
    let _ = std::fs::remove_file(&path);
    CkptProbe {
        full_ms,
        delta_ms,
        restore_ms,
        full_bytes: full.bytes,
        delta_bytes: delta.bytes,
    }
}
