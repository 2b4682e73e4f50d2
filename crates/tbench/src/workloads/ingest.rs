//! `ingest_broad`: N Zipf actions over a broad user × item space,
//! produced into TDAccess in set-up, then drained through the whole CF
//! pipeline into TDStore. Closed loop: the spout's `max_pending` is the
//! only throttle. State grows for the whole run, so the bolts and the
//! store do most of the work; a reader thread queries the store-backed
//! recommender on a fixed cadence the whole time ("serving stays bounded
//! at peak").

use super::{Outcome, Report, RunSpec};
use crate::gen::{self, Rng};
use crate::pipeline::{self, Rig};
use crate::probes;
use crate::sizes::BROAD_SHAPE;
use crate::stats::{median_of, now_ns, sleep_until_ns, windowed_p50_p95};
use crate::trace::Tracer;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tencentrec::action::UserAction;
use tencentrec::cf::{CfConfig, ItemCF};

/// Generator streams of this workload (one seed, independent draws).
const STREAM_ACTIONS: u64 = 1;
const STREAM_QUERIES: u64 = 2;
const STREAM_PAIRS: u64 = 3;
const STREAM_EXTRA: u64 = 4;

/// Upper bound on draining; a healthy run takes about `--seconds`.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(150);
/// The users the reader thread asks about: user ids are popularity ranks
/// in the generated stream, and these are its moderately active users —
/// by the end of a run each has rated a few dozen to a hundred items. A
/// cohort of like users keeps the latency distribution narrow enough to
/// repeat: over all users it is a mixture of near-empty histories and a
/// handful of megabyte ones, and its p95 sits on the knee between them.
const QUERY_COHORT: std::ops::Range<u64> = 64..320;
/// Equal slices of the stream whose commit times are recorded.
const SLICES: usize = 20;

struct Pass {
    setup_s: Vec<f64>,
    produce_ns_per_msg: f64,
    elapsed_s: f64,
    committed: u64,
    acked: u64,
    failed_trees: u64,
    emitted: u64,
    lag_max: u64,
    lag_end: u64,
    rate_decay: f64,
    query_ns: Vec<(u64, u64)>,
    window: (u64, u64),
    components: Vec<tstorm::MetricsSnapshot>,
    stalls: u64,
    rig: Rig,
    ckpt: Option<probes::CkptProbe>,
}

/// Set-up: generate the stream, build the rig, fill the topic.
fn set_up(spec: &RunSpec, n: usize, tracer: Option<Arc<Tracer>>) -> (Vec<UserAction>, Rig, f64) {
    let actions = gen::actions(spec.seed, STREAM_ACTIONS, BROAD_SHAPE, n, 0);
    let rig = Rig::build(tracer);
    let producer = rig.producer();
    let t0 = Instant::now();
    for a in &actions {
        pipeline::send(&producer, a, None);
    }
    let produce_ns = t0.elapsed().as_nanos() as f64 / n.max(1) as f64;
    (actions, rig, produce_ns)
}

fn one_pass(
    spec: &RunSpec,
    n: usize,
    tracer: Option<Arc<Tracer>>,
    setups: usize,
    cf: &ItemCF,
    report: &mut Report,
) -> Pass {
    let ((actions, mut rig, produce_ns_per_msg), setup_s) =
        super::repeat_set_up(setups, || set_up(spec, n, tracer.clone()), drop);
    let n = n as u64;

    // The reader: store-backed recommendations, one every
    // `ingest_query_period_us`, for users of [`QUERY_COHORT`].
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let query = rig.recommender();
        let stop = Arc::clone(&stop);
        let mut rng = Rng::new(spec.seed, STREAM_QUERIES);
        let users: Vec<u64> = (0..4096)
            .map(|_| QUERY_COHORT.start + rng.below(QUERY_COHORT.end - QUERY_COHORT.start))
            .collect();
        let period_ns = spec.sizes.ingest_query_period_us * 1_000;
        std::thread::spawn(move || {
            let mut samples = Vec::new();
            let mut due = now_ns();
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let t0 = now_ns();
                std::hint::black_box(query.recommend(users[i % users.len()], 10));
                samples.push((t0, now_ns() - t0));
                i += 1;
                due += period_ns;
                sleep_until_ns(due);
            }
            samples
        })
    };

    let window_start = now_ns();
    let t0 = Instant::now();
    let handle = rig.launch();
    let (mut lag_max, mut next_lag_sample) = (0u64, Duration::ZERO);
    // When the committed count crossed each twentieth of the stream.
    let mut marks: Vec<Duration> = Vec::with_capacity(SLICES);
    while rig.progress.committed() < n && t0.elapsed() < DRAIN_TIMEOUT {
        let (done, now) = (rig.progress.committed(), t0.elapsed());
        while marks.len() < SLICES - 1 && done >= n * (marks.len() as u64 + 1) / SLICES as u64 {
            marks.push(now);
        }
        if now >= next_lag_sample {
            lag_max = lag_max.max(rig.topic_len().saturating_sub(rig.progress.emitted()));
            next_lag_sample = now + Duration::from_millis(100);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    rig.store.sync();
    let elapsed = t0.elapsed();
    let window = (window_start, now_ns());
    stop.store(true, Ordering::Relaxed);
    let query_ns = reader.join().expect("reader thread panicked");

    marks.resize(SLICES, elapsed);
    // Seconds each slice took; the slices are equal shares of the stream.
    let slice_s: Vec<f64> = std::iter::once(Duration::ZERO)
        .chain(marks.iter().copied())
        .zip(marks.iter().copied())
        .map(|(from, to)| (to.saturating_sub(from)).as_secs_f64().max(1e-9))
        .collect();
    let quarter_s = |slices: &[f64]| slices.iter().sum::<f64>();
    let rate_decay = quarter_s(&slice_s[..SLICES / 4]) / quarter_s(&slice_s[SLICES - SLICES / 4..]);
    let lag_end = rig.topic_len().saturating_sub(rig.progress.emitted());
    let stalls = probes::backpressure_stalls(&handle.registry());
    let components = handle.metrics();
    let mut pass = Pass {
        setup_s,
        produce_ns_per_msg,
        elapsed_s: elapsed.as_secs_f64(),
        committed: rig.progress.committed(),
        acked: rig.progress.acked(),
        failed_trees: rig.progress.failed(),
        emitted: rig.progress.emitted(),
        lag_max,
        lag_end,
        rate_decay,
        query_ns,
        window,
        components,
        stalls,
        rig,
        ckpt: None,
    };
    check(report, spec, &actions, &pass, cf);

    // The checkpoint probe needs the live topology (its barrier) and
    // changes the store, so it runs after the checks, before shutdown.
    if tracer.is_some() {
        let extra = gen::actions(spec.seed, STREAM_EXTRA, BROAD_SHAPE, (n / 50) as usize, n);
        pass.ckpt = Some(probes::ckpt_probe(
            &pass.rig,
            &handle,
            &extra,
            &spec.scratch,
        ));
    }
    handle.shutdown(Duration::from_secs(10));
    pass
}

/// The sequential reference: the in-memory engine over the same stream.
/// Returns it with the time it took (the single-thread baseline).
fn reference(actions: &[UserAction]) -> (ItemCF, f64) {
    let mut cf = ItemCF::new(CfConfig {
        pruning_delta: None,
        ..Default::default()
    });
    let t0 = Instant::now();
    for a in actions {
        cf.process(a);
    }
    (cf, t0.elapsed().as_secs_f64())
}

/// Output checks of one pass against the reference.
fn check(report: &mut Report, spec: &RunSpec, actions: &[UserAction], pass: &Pass, cf: &ItemCF) {
    let n = actions.len() as u64;
    report.check(pass.committed == n, || {
        format!("committed {} of {n} actions", pass.committed)
    });
    report.check(pass.failed_trees == 0 && pass.acked == n, || {
        format!(
            "acked {} of {n}, {} tuple trees failed",
            pass.acked, pass.failed_trees
        )
    });
    report.check(pass.lag_end == 0 && pass.emitted == n, || {
        format!(
            "lag {} at the end, {} emitted of {n}",
            pass.lag_end, pass.emitted
        )
    });
    let busiest = gen::max_distinct_items_per_user(actions);
    report.check(busiest < pass.rig.config.max_history, || {
        format!("a user rated {busiest} items: past max_history the reference is not one")
    });

    let query = pass.rig.recommender();
    let mut rng = Rng::new(spec.seed, STREAM_PAIRS);
    let items = gen::Zipf::new(BROAD_SHAPE.items, 1.0, 0.0);
    let (mut nonzero, mut worst) = (0usize, 0.0f64);
    for _ in 0..spec.sizes.ingest_checked_pairs {
        let p = items.sample(&mut rng) as u64;
        let q = items.sample(&mut rng) as u64;
        if p == q {
            continue;
        }
        let (got, want) = (query.similarity(p, q, n), cf.similarity(p, q));
        worst = worst.max((got - want).abs());
        nonzero += usize::from(want > 0.0);
    }
    report.check(worst < 1e-9, || {
        format!("similarity differs from the in-memory reference by {worst:e}")
    });
    report.check(nonzero > 0, || {
        "no checked pair has a non-zero similarity: the check is vacuous".into()
    });
}

/// Runs the workload.
pub fn run(spec: RunSpec) -> Outcome {
    let n = spec.scaled(spec.sizes.ingest_actions_per_s) as usize;
    let mut report = Report::default();

    let (cf, reference_s) = reference(&gen::actions(spec.seed, STREAM_ACTIONS, BROAD_SHAPE, n, 0));

    // The untraced pass: the end-to-end numbers, and on a traced run the
    // base the tracing overhead is measured against.
    let setups = if spec.traced {
        1
    } else {
        spec.sizes.setup_repeats
    };
    let plain = one_pass(&spec, n, None, setups, &cf, &mut report);
    let plain_rate = n as f64 / plain.elapsed_s;
    let failed = (n as u64).saturating_sub(plain.committed) + plain.failed_trees;

    if !spec.traced {
        let (p50, p95) = windowed_p50_p95(&plain.query_ns, 1e3);
        report.set("ops_per_s", plain_rate);
        report.set("latency_p50_us", p50);
        report.set("latency_p95_us", p95);
        report.set("peak_rss_mib", crate::sys::peak_rss_mib());
        report.set("setup_s", median_of(&plain.setup_s));
        return report.finish(false, n as u64, failed);
    }
    drop(plain);

    let tracer = Tracer::new();
    let traced = one_pass(&spec, n, Some(Arc::clone(&tracer)), 1, &cf, &mut report);
    let spans = tracer.take();
    report.set("tdaccess.produce_ns_per_msg", traced.produce_ns_per_msg);
    report.set(
        "tdaccess.poll_ns_per_msg",
        probes::poll_ns_per_msg(&traced.rig.access, n as u64),
    );
    report.set("tdaccess.lag_max", traced.lag_max as f64);
    report.set("tdaccess.lag_end", traced.lag_end as f64);

    probes::spout_metrics(&mut report, &spans, traced.window, traced.stalls);
    probes::bolt_metrics(&mut report, &spans, &traced.components, traced.window);
    report.set("core.ingest_rate_decay", traced.rate_decay);
    report.set("core.mem_engine_actions_per_s", n as f64 / reference_s);

    let (p50, p95) = windowed_p50_p95(&traced.query_ns, 1e3);
    report.set("tdstore.query_p50_us", p50);
    report.set("tdstore.query_p95_us", p95);
    probes::store_metrics(
        &mut report,
        &traced.rig.store,
        spec.seed,
        spec.sizes.probe_calls,
    );
    if let Some(ckpt) = &traced.ckpt {
        ckpt.report(&mut report);
    }
    report.set(
        "trace.overhead_share",
        1.0 - (n as f64 / traced.elapsed_s) / plain_rate,
    );
    super::write_trace(&spec.scratch, "ingest_broad", &spans);
    let failed = failed + (n as u64).saturating_sub(traced.committed) + traced.failed_trees;
    report.finish(true, 2 * n as u64, failed)
}
