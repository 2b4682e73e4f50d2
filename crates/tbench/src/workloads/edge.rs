//! `cluster_edge`: the acked `numbers → count` shuffle edge across a
//! supervisor and two worker OS processes (this binary re-executed).
//! Trivial bolts on purpose: with the CF bolts in the way the relay would
//! never be the bottleneck. Closed loop: the acker and the bounded queues
//! are the only throttle. The only workload where `cluster`, `wire` and
//! `tstorm::remote` do the work.

use super::{Outcome, Report, RunSpec};
use crate::stats::{median_of, now_ns, windowed_p50_p95};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tcluster::{Cluster, ClusterApp, SupervisorConfig, WorkerContext, WorkerSpec};
use tstorm::prelude::*;

/// Worker processes inherit this from the supervisor, so every process
/// builds the same-sized topology.
const ENV_TUPLES: &str = "TBENCH_EDGE_TUPLES";
/// One tuple in this many has its emit → ack time recorded. The samples
/// travel back in one drain frame, which must stay well under the wire's
/// 1 MiB frame limit.
const LATENCY_SAMPLE_EVERY: u64 = 512;
/// Tuples the spout keeps in flight (emitted, neither acked nor failed).
/// Without a cap the spout races ahead until every queue and socket
/// buffer on the way is full, and both the emit → ack time and the
/// memory held are whatever those buffers happen to add up to — numbers
/// that swing by a third from run to run. The cap is several times what
/// the relay needs to stay busy, so it does not throttle the rate.
const MAX_IN_FLIGHT: u64 = 16_384;
/// Upper bound on a run; a healthy one takes about `--seconds`.
const RUN_TIMEOUT: Duration = Duration::from_secs(150);

fn env_tuples() -> u64 {
    std::env::var(ENV_TUPLES)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Emits `0..total`, replays what fails, counts what is acked, and
/// samples the emit → ack time of one tuple in [`LATENCY_SAMPLE_EVERY`].
struct NumberSpout {
    next: u64,
    total: u64,
    in_flight: u64,
    replay: VecDeque<u64>,
    acked: Arc<AtomicU64>,
    emitted_at: HashMap<u64, u64>,
    latency_ns: Arc<Mutex<Vec<(u64, u64)>>>,
}

impl Spout for NumberSpout {
    fn next_tuple(&mut self, collector: &mut SpoutCollector) -> bool {
        if self.in_flight >= MAX_IN_FLIGHT {
            return false;
        }
        let value = self.replay.pop_front().or_else(|| {
            (self.next < self.total).then(|| {
                self.next += 1;
                self.next - 1
            })
        });
        let Some(v) = value else {
            return false;
        };
        collector.emit_values(&[Value::U64(v % 64), Value::U64(v)], Some(v));
        self.in_flight += 1;
        if v.is_multiple_of(LATENCY_SAMPLE_EVERY) {
            self.emitted_at.insert(v, now_ns());
        }
        true
    }

    fn ack(&mut self, msg_id: u64) {
        self.acked.fetch_add(1, Ordering::Relaxed);
        self.in_flight = self.in_flight.saturating_sub(1);
        if msg_id.is_multiple_of(LATENCY_SAMPLE_EVERY) {
            if let Some(at) = self.emitted_at.remove(&msg_id) {
                let mut samples = self.latency_ns.lock().unwrap_or_else(|e| e.into_inner());
                samples.push((at, now_ns() - at));
            }
        }
    }

    fn fail(&mut self, msg_id: u64) {
        self.emitted_at.remove(&msg_id);
        self.in_flight = self.in_flight.saturating_sub(1);
        self.replay.push_back(msg_id);
    }

    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(DEFAULT_STREAM, ["key", "seq"])]
    }
}

struct CountBolt {
    seen: Arc<AtomicU64>,
}

impl Bolt for CountBolt {
    fn execute(&mut self, _tuple: &Tuple, _c: &mut BoltCollector) -> Result<(), String> {
        self.seen.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// What a worker's drain hook ships back: `acked`, `seen`, then the
/// `(emitted at, latency)` samples, all little-endian `u64`s.
struct Drained {
    acked: u64,
    seen: u64,
    latency_ns: Vec<(u64, u64)>,
}

impl Drained {
    fn decode(bytes: &[u8]) -> Option<Drained> {
        let mut words = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")));
        if !bytes.len().is_multiple_of(8) {
            return None;
        }
        let (acked, seen) = (words.next()?, words.next()?);
        let flat: Vec<u64> = words.collect();
        Some(Drained {
            acked,
            seen,
            latency_ns: flat.chunks_exact(2).map(|c| (c[0], c[1])).collect(),
        })
    }
}

/// The app every process builds — supervisor probe, both workers, and
/// the in-process baseline: one spout task, two count tasks, batch 64.
pub fn app(_ctx: &WorkerContext) -> ClusterApp {
    let total = env_tuples();
    let acked = Arc::new(AtomicU64::new(0));
    let seen = Arc::new(AtomicU64::new(0));
    let latency_ns = Arc::new(Mutex::new(Vec::new()));
    let mut builder = TopologyBuilder::new().with_config(TopologyConfig {
        batch_size: 64,
        flush_interval: Duration::from_millis(1),
        ..Default::default()
    });
    {
        let (acked, latency_ns) = (Arc::clone(&acked), Arc::clone(&latency_ns));
        builder.set_spout(
            "numbers",
            move || NumberSpout {
                next: 0,
                total,
                in_flight: 0,
                replay: VecDeque::new(),
                acked: Arc::clone(&acked),
                emitted_at: HashMap::new(),
                latency_ns: Arc::clone(&latency_ns),
            },
            1,
        );
    }
    {
        let seen = Arc::clone(&seen);
        builder
            .set_bolt(
                "count",
                move || CountBolt {
                    seen: Arc::clone(&seen),
                },
                2,
            )
            .shuffle_grouping("numbers");
    }
    let mut app = ClusterApp::new(builder.build().expect("edge topology is valid"));
    app.progress = Some(Arc::new({
        let acked = Arc::clone(&acked);
        move || acked.load(Ordering::Relaxed)
    }));
    app.drain = Some(Arc::new(move || {
        let samples = latency_ns.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::with_capacity(16 + samples.len() * 16);
        out.extend_from_slice(&acked.load(Ordering::Relaxed).to_le_bytes());
        out.extend_from_slice(&seen.load(Ordering::Relaxed).to_le_bytes());
        for (at, took) in samples.iter() {
            out.extend_from_slice(&at.to_le_bytes());
            out.extend_from_slice(&took.to_le_bytes());
        }
        out
    }));
    app
}

fn launch_cluster(spawn_args: &[&str]) -> Cluster {
    let mut config = SupervisorConfig::new(vec![
        WorkerSpec::new(["numbers"]),
        WorkerSpec::new(["count"]),
    ]);
    // Nothing is lost on this edge; a tree that times out under load and
    // replays would only blur the rate.
    config.message_timeout = Duration::from_secs(60);
    config.spawn_args = spawn_args.iter().map(|a| a.to_string()).collect();
    Cluster::launch(config, app).expect("launch the edge cluster")
}

/// Launches the cluster and waits for the first non-zero progress
/// snapshot, returned as `(progress, when)`.
fn set_up(spawn_args: &[&str]) -> (Cluster, (u64, Instant)) {
    let t0 = Instant::now();
    let cluster = launch_cluster(spawn_args);
    loop {
        let p = cluster.progress(0);
        if p > 0 {
            return (cluster, (p, Instant::now()));
        }
        assert!(t0.elapsed() < RUN_TIMEOUT, "edge cluster made no progress");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The identical app in one process: the rate the remote edge is
/// compared with.
fn in_process_rate(total: u64) -> f64 {
    let probe = app(&WorkerContext {
        worker_id: u32::MAX,
        recovered: None,
    });
    let progress = probe.progress.clone().expect("app has a progress probe");
    let t0 = Instant::now();
    let handle = probe.topology.launch();
    while progress() < total {
        assert!(t0.elapsed() < RUN_TIMEOUT, "in-process edge stalled");
        std::thread::sleep(Duration::from_micros(200));
    }
    let rate = total as f64 / t0.elapsed().as_secs_f64();
    handle.shutdown(Duration::from_secs(5));
    rate
}

/// `WireTuple::from_tuple` on an edge-shaped tuple, nanoseconds each.
fn flatten_ns_per_tuple(calls: usize) -> f64 {
    let schema = Schema::new(["key", "seq"]);
    let tuple = Tuple::standalone(
        DEFAULT_STREAM,
        schema,
        "numbers",
        0,
        vec![Value::U64(7), Value::U64(12_345)],
    );
    let t0 = Instant::now();
    for _ in 0..calls {
        std::hint::black_box(tstorm::remote::WireTuple::from_tuple(std::hint::black_box(
            &tuple,
        )));
    }
    t0.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// `with_frame` + `split_frame` on the body of a real 64-tuple batch
/// frame: `(nanoseconds per round trip, MiB/s of body)`.
fn frame_round_trip(calls: usize) -> (f64, f64) {
    use bytes::BytesMut;
    let tuples = (0..64u64)
        .map(|i| tstorm::remote::WireTuple {
            stream: DEFAULT_STREAM.to_string(),
            src_component: "numbers".to_string(),
            src_task: 0,
            values: vec![Value::U64(i % 64), Value::U64(i)],
            anchors: vec![(i, i ^ 0x9e37)],
        })
        .collect();
    let mut buf = BytesMut::new();
    tcluster::protocol::encode(
        &mut buf,
        1,
        &tcluster::protocol::Msg::TupleBatch {
            dest_component: "count".to_string(),
            dest_task: 0,
            tuples,
        },
    );
    let (_, tag, body) = wire::split_frame(&mut buf)
        .expect("own frame parses")
        .expect("own frame is complete");
    let t0 = Instant::now();
    for i in 0..calls {
        wire::with_frame(&mut buf, i as u64, tag, |out| out.extend_from_slice(&body));
        std::hint::black_box(wire::split_frame(&mut buf).expect("frame parses"));
    }
    let ns = t0.elapsed().as_nanos() as f64 / calls.max(1) as f64;
    (ns, body.len() as f64 / (1024.0 * 1024.0) / (ns / 1e9))
}

/// Runs the workload.
pub fn run(spec: RunSpec) -> Outcome {
    run_with(spec, &[])
}

/// Runs the workload, passing `spawn_args` to the re-executed worker
/// processes. A test harness passes `["--exact", "<test fn>",
/// "--nocapture"]` so the re-executed test binary reaches the test body,
/// whose first statement hands over to `tcluster::maybe_run_worker`.
pub fn run_with(spec: RunSpec, spawn_args: &[&str]) -> Outcome {
    let total = spec.scaled(spec.sizes.edge_tuples_per_s);
    // Children inherit the size, so all three processes agree on it.
    std::env::set_var(ENV_TUPLES, total.to_string());
    let mut report = Report::default();

    let local_rate = spec.traced.then(|| in_process_rate(total));

    let ((cluster, (p0, t0)), setup_s) = super::repeat_set_up(
        spec.sizes.setup_repeats,
        || set_up(spawn_args),
        |(cluster, _)| Cluster::shutdown(cluster, Duration::from_secs(10)),
    );

    // Progress arrives on the workers' 50 ms status cadence: the clock
    // started at the first non-zero snapshot and only acks after it
    // count, so spawn and connect stay out of the rate.
    while cluster.progress(0) < total && t0.elapsed() < RUN_TIMEOUT {
        std::thread::sleep(Duration::from_millis(2));
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let acked = cluster.progress(0);
    let rss = crate::sys::peak_rss_mib() + crate::sys::children_peak_rss_mib();
    let relayed = cluster.relayed_batches();
    let drained = |w: usize| {
        cluster
            .drain(w, Duration::from_secs(10))
            .as_deref()
            .and_then(Drained::decode)
    };
    let (spout_side, bolt_side) = (drained(0), drained(1));
    cluster.shutdown(Duration::from_secs(10));

    report.check(acked == total, || {
        format!("acked {acked} of {total} tuples")
    });
    report.check(p0 < total, || {
        "the run finished within one status interval: no rate to report".into()
    });
    let seen = bolt_side.map_or(0, |d| d.seen);
    report.check(seen == total, || {
        format!("the count bolts saw {seen} of {total} tuples")
    });
    let spout_acked = spout_side.as_ref().map_or(0, |d| d.acked);
    report.check(spout_acked == total, || {
        format!("the spout counted {spout_acked} acks of {total}")
    });
    let latency = spout_side.map(|d| d.latency_ns).unwrap_or_default();
    report.check(!latency.is_empty(), || {
        "no latency samples came back".into()
    });
    let (p50, p95) = windowed_p50_p95(&latency, 1e3);
    let rate = total.saturating_sub(p0) as f64 / elapsed;
    let failed = total.saturating_sub(acked);

    if !spec.traced {
        report.set("ops_per_s", rate);
        report.set("latency_p50_us", p50);
        report.set("latency_p95_us", p95);
        report.set("peak_rss_mib", rss);
        report.set("setup_s", median_of(&setup_s));
        return report.finish(false, total, failed);
    }

    let local_rate = local_rate.expect("traced runs measure the baseline");
    report.set("tstorm.local_edge_tuples_per_s", local_rate);
    report.set("cluster.remote_vs_local", rate / local_rate);
    report.set("cluster.relayed_batches", relayed as f64);
    report.set(
        "cluster.tuples_per_relayed_batch",
        total as f64 / relayed.max(1) as f64,
    );
    report.set("cluster.spawn_to_first_ack_ms", median_of(&setup_s) * 1e3);
    report.set(
        "tstorm.remote.flatten_ns_per_tuple",
        flatten_ns_per_tuple(spec.sizes.probe_calls * 10),
    );
    let (frame_ns, frame_mib_s) = frame_round_trip(spec.sizes.probe_calls * 10);
    report.set("wire.frame_roundtrip_ns", frame_ns);
    report.set("wire.frame_mib_per_s", frame_mib_s);
    // The traced edge run adds no wrapper to the measured path (the
    // spout's own sampling is part of the workload in both modes).
    report.set("trace.overhead_share", 0.0);
    report.finish(true, total, failed)
}
