//! `fresh_hot`: the latency workload on the CF pipeline. After a
//! pre-warm, one thread produces a hot-burst background mix at a fixed
//! rate R (open loop: the schedule does not slow when the system does)
//! and sends a probe every few milliseconds; a second thread polls the
//! store-backed query side until each probe is reflected. Freshness is
//! timed from the probe's *due* time to the first query that shows it.
//!
//! A *sim* probe is the full Fig. 6 path: a seeded user whose history is
//! a reserved anchor item A clicks a fresh item C; it is reflected when
//! `recommend(watcher, 10)` of a second seeded user holding only A
//! contains C (pair_delta → cf_pair → similar-items list → query). Every
//! probe has its own cold anchor, so top-K truncation and ties can never
//! hide C. A *hist* probe (every tenth) stops at user_history: a new user
//! clicks an anchor that already has a similar item, and is reflected
//! when `recommend(user, 1)` is non-empty.

use super::{Outcome, Report, RunSpec};
use crate::gen;
use crate::pipeline::{self, Rig};
use crate::probes;
use crate::sizes::FRESHNESS_LIMIT_MS;
use crate::stats::{median_of, now_ns, sleep_until_ns, windowed_p50_p95, OpenLoop, Samples};
use crate::trace::{self, Span, Tracer, PROBE_BASE};
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tencentrec::action::{ActionType, UserAction};
use tencentrec::topology::TopologyRecommender;
use tstorm::prelude::*;

/// Hot items of the background mix (half of all background actions).
const HOT_ITEMS: u64 = 5;
/// Reserved id ranges, all below [`PROBE_BASE`] so only a probe's own
/// user and fresh item mark its tuples: anchors and watchers, then the
/// seed users and companion items of the hist probes.
const ANCHOR_BASE: u64 = 1 << 39;
const SEED_BASE: u64 = 1 << 38;
/// The prober sleeps this long between sweeps over outstanding probes:
/// it bounds the resolution of a freshness sample and keeps the prober
/// from taking a whole core from the pipeline.
const SWEEP_PAUSE: Duration = Duration::from_micros(100);
/// A generator this late (p99) no longer offers the load the run claims.
const MAX_GENERATOR_LATE_MS: f64 = 100.0;

const STREAM_PREWARM: u64 = 1;
const STREAM_BACKGROUND: u64 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Sim,
    Hist,
}

fn kind_of(probe: u64) -> Kind {
    if probe % 10 == 9 {
        Kind::Hist
    } else {
        Kind::Sim
    }
}

/// The actions that prepare probe `i`, and the probe action itself.
fn seed_actions(i: u64, ts: u64) -> [UserAction; 2] {
    let click = |user, item, ts| UserAction::new(user, item, ActionType::Click, ts);
    match kind_of(i) {
        // Probe user and watcher both hold the anchor.
        Kind::Sim => [
            click(PROBE_BASE + i, ANCHOR_BASE + i, ts),
            click(ANCHOR_BASE + i, ANCHOR_BASE + i, ts + 1),
        ],
        // A seed user pairs the anchor with a companion item, so the
        // anchor has a similar item before the probe arrives.
        Kind::Hist => [
            click(SEED_BASE + i, ANCHOR_BASE + i, ts),
            click(SEED_BASE + i, SEED_BASE + i, ts + 1),
        ],
    }
}

fn probe_action(i: u64, ts: u64) -> UserAction {
    let item = match kind_of(i) {
        Kind::Sim => PROBE_BASE + i,
        Kind::Hist => ANCHOR_BASE + i,
    };
    UserAction::new(PROBE_BASE + i, item, ActionType::Click, ts)
}

fn reflected(query: &TopologyRecommender, i: u64) -> bool {
    match kind_of(i) {
        Kind::Sim => query
            .recommend(ANCHOR_BASE + i, 10)
            .iter()
            .any(|&(item, _)| item == PROBE_BASE + i),
        Kind::Hist => !query.recommend(PROBE_BASE + i, 1).is_empty(),
    }
}

struct Warm {
    rig: Rig,
    handle: TopologyHandle,
    produced: u64,
    next_ts: u64,
}

/// Set-up: launch the pipeline, ingest the pre-warm mix and every
/// probe's seeds, wait until all of it is committed, then prove the
/// probe mechanism with one dry probe.
fn set_up(spec: &RunSpec, probes: u64, tracer: Option<Arc<Tracer>>) -> Warm {
    let s = &spec.sizes;
    let mut stream = gen::hot_burst_actions(
        spec.seed,
        STREAM_PREWARM,
        s.fresh_users,
        s.fresh_items,
        HOT_ITEMS,
        s.fresh_prewarm_actions,
        0,
    );
    let mut ts = stream.len() as u64;
    // One probe past the measured ones is the dry probe.
    for i in 0..=probes {
        stream.extend(seed_actions(i, ts));
        ts += 2;
    }
    let mut rig = Rig::build(tracer);
    let handle = rig.launch();
    let producer = rig.producer();
    for a in &stream {
        pipeline::send(&producer, a, None);
    }
    let mut produced = stream.len() as u64;
    assert!(
        rig.wait_committed(produced, Duration::from_secs(120)),
        "fresh_hot set-up: pre-warm never committed"
    );
    let query = rig.recommender();
    pipeline::send(&producer, &probe_action(probes, ts), None);
    produced += 1;
    let t0 = Instant::now();
    while !reflected(&query, probes) {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "fresh_hot set-up: the dry probe was never reflected"
        );
        std::thread::sleep(SWEEP_PAUSE);
    }
    Warm {
        rig,
        handle,
        produced,
        next_ts: ts + 1,
    }
}

/// What the prober learned about one probe.
struct Landed {
    probe: u64,
    due_ns: u64,
    /// `None`: not reflected within the limit.
    hit_ns: Option<u64>,
}

struct Pass {
    setup_s: Vec<f64>,
    elapsed_s: f64,
    committed_in_phase: u64,
    landed: Vec<Landed>,
    query_ns: Vec<u64>,
    late_ns: Vec<u64>,
    sent: u64,
    lag_max: u64,
    lag_end: u64,
    window: (u64, u64),
    components: Vec<MetricsSnapshot>,
    stalls: u64,
}

fn one_pass(spec: &RunSpec, setups: usize, tracer: Option<Arc<Tracer>>) -> Pass {
    let s = spec.sizes;
    let probes = probe_count(spec);
    let background = spec.scaled(s.fresh_rate_per_s);

    let (warm, setup_s) = super::repeat_set_up(
        setups,
        || set_up(spec, probes, tracer.clone()),
        |warm: Warm| {
            warm.handle.shutdown(Duration::from_secs(10));
        },
    );
    let Warm {
        rig,
        handle,
        produced,
        next_ts,
    } = warm;
    let actions = gen::hot_burst_actions(
        spec.seed,
        STREAM_BACKGROUND,
        s.fresh_users,
        s.fresh_items,
        HOT_ITEMS,
        background as usize,
        next_ts,
    );
    let probe_ts = next_ts + background;

    let committed_before = rig.progress.committed();
    let start_ns = now_ns() + 1_000_000;
    let (tx, rx) = mpsc::channel::<(u64, u64)>();

    // The generator: one thread, two schedules.
    let generator = {
        let producer = rig.producer();
        let tracer = tracer.clone();
        let probe_period_ns = s.fresh_probe_period_ms * 1_000_000;
        std::thread::spawn(move || {
            let mut load = OpenLoop::new(start_ns, 1_000_000_000 / s.fresh_rate_per_s, background);
            let mut probe = OpenLoop::new(start_ns, probe_period_ns, probes);
            loop {
                let now = now_ns();
                for (i, _) in load.take_due(now) {
                    pipeline::send(&producer, &actions[i as usize], tracer.as_deref());
                }
                for (i, due) in probe.take_due(now) {
                    pipeline::send(&producer, &probe_action(i, probe_ts + i), tracer.as_deref());
                    // The prober outlives the generator; a send cannot fail.
                    let _ = tx.send((i, due));
                }
                match (load.next_due_ns(), probe.next_due_ns()) {
                    (None, None) => break,
                    (a, b) => sleep_until_ns(a.unwrap_or(u64::MAX).min(b.unwrap_or(u64::MAX))),
                }
            }
            let mut late = load.lateness_ns().to_vec();
            late.extend_from_slice(probe.lateness_ns());
            (late, load.sent() + probe.sent())
        })
    };

    // The prober: sweeps every outstanding probe until it is reflected or
    // over the limit; ends when the generator is done and none is left.
    let prober = {
        let query = rig.recommender();
        let tracer = tracer.clone();
        std::thread::spawn(move || {
            let limit_ns = FRESHNESS_LIMIT_MS * 1_000_000;
            let mut outstanding: Vec<(u64, u64)> = Vec::new();
            let mut landed = Vec::new();
            let mut query_ns = Vec::new();
            let mut spans = Vec::new();
            let mut generator_done = false;
            while !(generator_done && outstanding.is_empty()) {
                loop {
                    match rx.try_recv() {
                        Ok(p) => outstanding.push(p),
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            generator_done = true;
                            break;
                        }
                    }
                }
                outstanding.retain(|&(probe, due_ns)| {
                    let t0 = now_ns();
                    let hit = reflected(&query, probe);
                    let t1 = now_ns();
                    query_ns.push(t1 - t0);
                    if tracer.is_some() {
                        spans.push(Span {
                            trace: if hit { probe + 1 } else { 0 },
                            ..Span::between("tdstore.query", t0, t1)
                        });
                    }
                    let give_up = !hit && t1.saturating_sub(due_ns) > limit_ns;
                    if hit || give_up {
                        landed.push(Landed {
                            probe,
                            due_ns,
                            hit_ns: hit.then_some(t1),
                        });
                    }
                    !(hit || give_up)
                });
                std::thread::sleep(SWEEP_PAUSE);
            }
            if let Some(tracer) = tracer {
                tracer.extend(&mut spans);
            }
            (landed, query_ns)
        })
    };

    // Meanwhile: how far the spout lags the log.
    let mut lag_max = 0u64;
    while !generator.is_finished() {
        lag_max = lag_max.max(rig.topic_len().saturating_sub(rig.progress.emitted()));
        std::thread::sleep(Duration::from_millis(100));
    }
    let (late_ns, sent) = generator.join().expect("generator thread panicked");
    let (landed, query_ns) = prober.join().expect("prober thread panicked");
    let elapsed_s = (now_ns() - start_ns) as f64 / 1e9;
    let total = produced + background + probes;
    let drained = rig.wait_committed(total, Duration::from_secs(30));
    let window = (start_ns, now_ns());
    let committed_in_phase = rig.progress.committed() - committed_before;
    let lag_end = if drained {
        rig.topic_len().saturating_sub(rig.progress.emitted())
    } else {
        total - rig.progress.committed()
    };
    let stalls = probes::backpressure_stalls(&handle.registry());
    let components = handle.shutdown(Duration::from_secs(10));
    Pass {
        setup_s,
        elapsed_s,
        committed_in_phase,
        landed,
        query_ns,
        late_ns,
        sent,
        lag_max,
        lag_end,
        window,
        components,
        stalls,
    }
}

fn probe_count(spec: &RunSpec) -> u64 {
    spec.phase_ms() / spec.sizes.fresh_probe_period_ms
}

fn check(report: &mut Report, spec: &RunSpec, pass: &Pass) {
    let probes = probe_count(spec);
    report.check(pass.landed.len() as u64 == probes, || {
        format!(
            "{} of {probes} probes were either reflected or failed",
            pass.landed.len()
        )
    });
    report.check(pass.lag_end == 0, || {
        format!(
            "{} actions still unread or unacked after the run: R is above what the pipeline sustains",
            pass.lag_end
        )
    });
    let late_p99_ms = Samples::from_ns(&pass.late_ns, 1e6).quantile(0.99);
    report.check(late_p99_ms < MAX_GENERATOR_LATE_MS, || {
        format!("the generator ran {late_p99_ms:.1} ms late at p99: the offered load is not the claimed one")
    });
}

/// `(due, freshness)` of every reflected probe of `kind`.
fn freshness_ns(pass: &Pass, kind: Kind) -> Vec<(u64, u64)> {
    pass.landed
        .iter()
        .filter(|l| kind_of(l.probe) == kind)
        .filter_map(|l| l.hit_ns.map(|hit| (l.due_ns, hit - l.due_ns)))
        .collect()
}

/// One traced sim probe cut into contiguous parts from its due time to
/// the reflecting query: `gaps[k]` is the wait before hop `k` of
/// [`CHAIN`] and `execs[k]` the hop itself, so the parts of one probe sum
/// to its freshness exactly.
struct Parts {
    gaps: [u64; CHAIN.len()],
    execs: [u64; CHAIN.len()],
    total: u64,
}

/// The hops a sim probe passes, in order.
const CHAIN: [&str; 6] = [
    "tdaccess.produce",
    pipeline::SPOUT,
    pipeline::PRETREATMENT,
    pipeline::USER_HISTORY,
    pipeline::CF_PAIR,
    "tdstore.query",
];

/// The layer budget of the traced probes. The edge-wait metrics are
/// medians over all probes. The printed budget is that of the *median
/// probe*: medians of parts do not add up, so each part is averaged over
/// the fifth of the probes whose freshness is nearest the median — those
/// parts sum to their mean freshness, which sits at the median.
fn budget(report: &mut Report, spans: &[Span], pass: &Pass) {
    // First span of each (probe, layer) at or after the probe's due time
    // (a probe's seeds travel the same layers during set-up).
    let due: HashMap<u64, u64> = pass.landed.iter().map(|l| (l.probe, l.due_ns)).collect();
    let mut hop: HashMap<(u64, &str), (u64, u64)> = HashMap::new();
    for s in spans.iter().filter(|s| s.trace != 0) {
        let probe = s.trace - 1;
        if due.get(&probe).is_some_and(|&d| s.start_ns >= d) {
            let slot = hop.entry((probe, s.name)).or_insert((s.start_ns, s.end_ns));
            if s.start_ns < slot.0 {
                *slot = (s.start_ns, s.end_ns);
            }
        }
    }
    let mut sim: Vec<Parts> = Vec::new();
    let mut count_wait = Vec::new();
    // Hist probes stop at user_history: they add samples to the first
    // two edges' waits only.
    let mut hist_gaps: [Vec<u64>; 4] = Default::default();
    for l in &pass.landed {
        let Some(hit) = l.hit_ns else { continue };
        let at = |name: &'static str| hop.get(&(l.probe, name)).copied();
        if kind_of(l.probe) == Kind::Hist {
            let chain: Option<Vec<(u64, u64)>> = CHAIN[..4].iter().map(|n| at(n)).collect();
            if let Some(chain) = chain {
                for k in 1..4 {
                    hist_gaps[k].push(chain[k].0.saturating_sub(chain[k - 1].1));
                }
            }
            continue;
        }
        let chain: Option<Vec<(u64, u64)>> = CHAIN.iter().map(|n| at(n)).collect();
        let Some(mut chain) = chain else { continue };
        // The reflecting query is the last part: it ends at the hit.
        chain[5].1 = hit;
        let mut parts = Parts {
            gaps: [0; CHAIN.len()],
            execs: [0; CHAIN.len()],
            total: hit - l.due_ns,
        };
        let mut cursor = l.due_ns;
        for (k, &(start, end)) in chain.iter().enumerate() {
            parts.gaps[k] = start.saturating_sub(cursor);
            parts.execs[k] = end.saturating_sub(start.max(cursor));
            cursor = cursor.max(end);
        }
        sim.push(parts);
        if let (Some(uh), Some(ic)) = (at(pipeline::USER_HISTORY), at(pipeline::ITEM_COUNT)) {
            count_wait.push(ic.0.saturating_sub(uh.1));
        }
    }
    let us = |ns: Vec<u64>| Samples::from_ns(&ns, 1e3);
    let gap = |k: usize| -> Vec<u64> { sim.iter().map(|p| p.gaps[k]).collect() };
    let with_hist = |k: usize| {
        let mut all = gap(k);
        all.extend_from_slice(&hist_gaps[k]);
        us(all)
    };
    report.set("tdaccess.poll_wait_p50_us", us(gap(1)).median());
    for (k, p50, p95) in [
        (
            2,
            "tstorm.spout-pretreatment.wait_p50_us",
            "tstorm.spout-pretreatment.wait_p95_us",
        ),
        (
            3,
            "tstorm.pretreatment-user_history.wait_p50_us",
            "tstorm.pretreatment-user_history.wait_p95_us",
        ),
    ] {
        let w = with_hist(k);
        report.set(p50, w.median());
        report.set(p95, w.p95());
    }
    let pair_wait = us(gap(4));
    report.set(
        "tstorm.user_history-cf_pair.wait_p50_us",
        pair_wait.median(),
    );
    report.set("tstorm.user_history-cf_pair.wait_p95_us", pair_wait.p95());
    let count_wait = us(count_wait);
    report.set(
        "tstorm.user_history-item_count.wait_p50_us",
        count_wait.median(),
    );
    report.set(
        "tstorm.user_history-item_count.wait_p95_us",
        count_wait.p95(),
    );
    report.set(
        "tdstore.visible_to_hit_p50_us",
        us(sim.iter().map(|p| p.gaps[5] + p.execs[5]).collect()).median(),
    );
    let total = us(sim.iter().map(|p| p.total).collect());
    report.set("fresh.traced_p50_us", total.median());

    // The median probe: the middle fifth by freshness.
    sim.sort_by_key(|p| p.total);
    let middle = &sim[sim.len() * 2 / 5..(sim.len() * 3 / 5).max(sim.len().min(1))];
    let mean_us = |f: &dyn Fn(&Parts) -> u64| {
        middle.iter().map(f).sum::<u64>() as f64 / middle.len().max(1) as f64 / 1e3
    };
    let sum_of_parts: f64 = (0..CHAIN.len())
        .map(|k| mean_us(&|p| p.gaps[k]) + mean_us(&|p| p.execs[k]))
        .sum();
    let coverage = if total.median() > 0.0 {
        sum_of_parts / total.median()
    } else {
        0.0
    };
    report.set("fresh.budget_coverage", coverage);
    // Below a few dozen probes the middle fifth is two or three of them
    // and need not sit at the median.
    report.check((0.9..=1.1).contains(&coverage) || sim.len() < 50, || {
        format!(
            "the layer budget sums to {:.0} % of the traced freshness median",
            coverage * 100.0
        )
    });

    eprintln!(
        "fresh_hot layer budget of the median probe (µs; mean over the {} of {} traced sim probes nearest the median):",
        middle.len(),
        sim.len()
    );
    let labels = [
        "generator late",
        "produce → spout poll",
        "spout → pretreatment",
        "pretreatment → user_history",
        "user_history → cf_pair",
        "cf_pair → reflecting query",
    ];
    for k in 0..CHAIN.len() {
        eprintln!(
            "  wait {:<28} {:>9.1}   in {:<18} {:>9.1}",
            labels[k],
            mean_us(&|p| p.gaps[k]),
            CHAIN[k],
            mean_us(&|p| p.execs[k])
        );
    }
    eprintln!(
        "  sum of parts {sum_of_parts:.1} µs vs freshness median {:.1} µs ({:.1} %)",
        total.median(),
        coverage * 100.0
    );
}

/// Runs the workload.
pub fn run(spec: RunSpec) -> Outcome {
    let mut report = Report::default();
    let setups = if spec.traced {
        1
    } else {
        spec.sizes.setup_repeats
    };
    let plain = one_pass(&spec, setups, None);
    check(&mut report, &spec, &plain);
    let failed_of = |p: &Pass| p.landed.iter().filter(|l| l.hit_ns.is_none()).count() as u64;
    let plain_sim = freshness_ns(&plain, Kind::Sim);
    report.check(!plain_sim.is_empty(), || {
        "no sim probe was reflected".into()
    });
    let (plain_p50, plain_p95) = windowed_p50_p95(&plain_sim, 1e3);

    if !spec.traced {
        report.set(
            "ops_per_s",
            plain.committed_in_phase as f64 / plain.elapsed_s,
        );
        report.set("latency_p50_us", plain_p50);
        report.set("latency_p95_us", plain_p95);
        report.set("peak_rss_mib", crate::sys::peak_rss_mib());
        report.set("setup_s", median_of(&plain.setup_s));
        return report.finish(false, plain.landed.len() as u64, failed_of(&plain));
    }

    let tracer = Tracer::new();
    let traced = one_pass(&spec, 1, Some(Arc::clone(&tracer)));
    check(&mut report, &spec, &traced);
    let mut spans = tracer.take();
    for l in &traced.landed {
        if let Some(hit) = l.hit_ns {
            spans.push(Span {
                trace: l.probe + 1,
                ..Span::between("probe", l.due_ns, hit)
            });
        }
    }
    let spans = trace::link_probe_spans(spans, "probe");
    let (from, to) = traced.window;

    let late = Samples::from_ns(&traced.late_ns, 1e6);
    report.set("gen.late_p99_ms", late.quantile(0.99));
    report.set("gen.sent", traced.sent as f64);
    let produce = trace::layer_calls(&spans, "tdaccess.produce", from, to);
    report.set(
        "tdaccess.produce_ns_per_msg",
        produce.busy_ns as f64 / produce.calls.max(1) as f64,
    );
    report.set("tdaccess.lag_max", traced.lag_max as f64);
    report.set("tdaccess.lag_end", traced.lag_end as f64);
    probes::spout_metrics(&mut report, &spans, traced.window, traced.stalls);
    probes::bolt_metrics(&mut report, &spans, &traced.components, traced.window);
    report.set(
        "core.freshness_hist_p50_ms",
        windowed_p50_p95(&freshness_ns(&traced, Kind::Hist), 1e6).0,
    );
    let q = Samples::from_ns(&traced.query_ns, 1e3);
    report.set("tdstore.query_p50_us", q.median());
    report.set("tdstore.query_p95_us", q.p95());
    budget(&mut report, &spans, &traced);
    // Open loop: both passes ingest what is offered, so the overhead of
    // tracing shows in freshness, not in throughput.
    let traced_p50 = windowed_p50_p95(&freshness_ns(&traced, Kind::Sim), 1e3).0;
    report.set(
        "trace.overhead_share",
        if plain_p50 > 0.0 {
            traced_p50 / plain_p50 - 1.0
        } else {
            0.0
        },
    );
    super::write_trace(&spec.scratch, "fresh_hot", &spans);
    report.finish(
        true,
        (plain.landed.len() + traced.landed.len()) as u64,
        failed_of(&plain) + failed_of(&traced),
    )
}
