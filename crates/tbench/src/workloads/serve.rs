//! `serve_mixed`: a `tserve::Server` with two shards of the in-memory CF
//! engine, seeded over the wire in set-up, then driven by two client
//! threads that each keep eight requests in flight — 90 % `Recommend`,
//! 10 % `ReportAction`. Closed loop. This is the serving edge (`serve`,
//! `wire`, `core::cf`); it bypasses tstorm, tdaccess and tdstore, so
//! pipeline and store changes predict *no change* here.

use super::{Outcome, Report, RunSpec};
use crate::gen::{Rng, Zipf};
use crate::stats::{median_of, now_ns, windowed_p50_p95, Samples};
use crate::trace::{Span, Tracer};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tencentrec::action::{ActionType, UserAction};
use tencentrec::engine::{default_cf_engine, StreamRecommender};
use tserve::{Client, ClientConfig, Pending, Request, Response, Server, ServerConfig, ShardPool};

/// Server shards (and engines).
const SHARDS: usize = 2;
/// Client threads, one pooled connection each.
const CLIENTS: usize = 2;
/// Requests each client thread keeps in flight.
const DEPTH: usize = 8;
/// `Recommend` page size and latency budget.
const PAGE: u32 = 10;
const DEADLINE_MS: u32 = 50;
/// One `Recommend` reply in this many is checked against the user's
/// reported history.
const CHECK_EVERY: u64 = 100;

const STREAM_SEED_ACTIONS: u64 = 1;
const STREAM_CLIENT: u64 = 10;
const STREAM_PROBE: u64 = 20;

fn server_config() -> ServerConfig {
    ServerConfig {
        shards: SHARDS,
        ..Default::default()
    }
}

/// The model's seed: uniform users, Zipf items, clicks.
fn seed_actions(spec: &RunSpec) -> Vec<UserAction> {
    let mut rng = Rng::new(spec.seed, STREAM_SEED_ACTIONS);
    let items = Zipf::new(spec.sizes.serve_items, 1.0, 0.0);
    (0..spec.sizes.serve_seed_actions)
        .map(|i| {
            UserAction::new(
                rng.below(spec.sizes.serve_users),
                items.sample(&mut rng) as u64,
                ActionType::Click,
                i as u64,
            )
        })
        .collect()
}

struct Served {
    server: Server,
    client: Arc<Client>,
    seeded: Arc<HashMap<u64, Vec<u64>>>,
}

/// Set-up: bind the server, seed it over the wire (64 actions pipelined
/// at a time, resubmitting whatever a full shard queue sheds).
fn set_up(spec: &RunSpec) -> Served {
    let server = Server::bind(
        "127.0.0.1:0",
        server_config(),
        Arc::new(|_| default_cf_engine()),
    )
    .expect("bind tserve on loopback");
    let client = Client::connect(
        &server.local_addr().to_string(),
        ClientConfig {
            connections: CLIENTS,
            ..Default::default()
        },
    )
    .expect("connect to tserve");
    let mut seeded: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut pending: Vec<(UserAction, Pending)> = Vec::with_capacity(64);
    let settle = |pending: &mut Vec<(UserAction, Pending)>| {
        for (action, p) in pending.drain(..) {
            let mut response = p.wait().expect("seed action response");
            while response == Response::Overloaded {
                std::thread::sleep(Duration::from_micros(200));
                response = client
                    .submit(&Request::ReportAction { action })
                    .expect("resubmit seed action")
                    .wait()
                    .expect("seed action response");
            }
            assert_eq!(response, Response::Ack, "seeding");
        }
    };
    for action in seed_actions(spec) {
        seeded.entry(action.user).or_default().push(action.item);
        let p = client
            .submit(&Request::ReportAction { action })
            .expect("submit seed action");
        pending.push((action, p));
        if pending.len() == 64 {
            settle(&mut pending);
        }
    }
    settle(&mut pending);
    Served {
        server,
        client: Arc::new(client),
        seeded: Arc::new(seeded),
    }
}

#[derive(Default)]
struct ClientTally {
    sent: u64,
    replies: u64,
    recommends_sent: u64,
    failed: u64,
    checked: u64,
    seen_violations: u64,
    recommend_ns: Vec<(u64, u64)>,
    action_ns: Vec<u64>,
    spans: Vec<Span>,
}

enum Sent {
    Recommend { user: u64, check: bool },
    Report,
}

/// One client thread: keeps [`DEPTH`] requests in flight until `stop_at`,
/// then drains. Replies are awaited oldest first.
fn client_loop(
    spec: RunSpec,
    index: u64,
    served: (Arc<Client>, Arc<HashMap<u64, Vec<u64>>>),
    stop_at: Instant,
    traced: bool,
) -> ClientTally {
    let (client, seeded) = served;
    let mut rng = Rng::new(spec.seed, STREAM_CLIENT + index);
    let items = Zipf::new(spec.sizes.serve_items, 1.0, 0.0);
    let mut tally = ClientTally::default();
    // Items this thread reported and saw acked, per user: with the seed
    // they are what a later page for that user must not contain.
    let mut reported: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut inflight: VecDeque<(u64, Sent, Option<UserAction>, Pending)> = VecDeque::new();
    let mut ts = spec.sizes.serve_seed_actions as u64 + index;
    loop {
        while inflight.len() < DEPTH && Instant::now() < stop_at {
            let user = rng.below(spec.sizes.serve_users);
            let (request, sent, action) = if rng.below(10) == 0 {
                ts += CLIENTS as u64;
                let action =
                    UserAction::new(user, items.sample(&mut rng) as u64, ActionType::Click, ts);
                (Request::ReportAction { action }, Sent::Report, Some(action))
            } else {
                tally.recommends_sent += 1;
                let check = tally.recommends_sent % CHECK_EVERY == 0;
                (
                    Request::Recommend {
                        user,
                        n: PAGE,
                        deadline_ms: DEADLINE_MS,
                    },
                    Sent::Recommend { user, check },
                    None,
                )
            };
            let t0 = now_ns();
            match client.submit(&request) {
                Ok(p) => inflight.push_back((t0, sent, action, p)),
                Err(_) => tally.failed += 1,
            }
            tally.sent += 1;
        }
        let Some((t0, sent, action, pending)) = inflight.pop_front() else {
            break;
        };
        let response = pending.wait();
        let took = now_ns() - t0;
        tally.replies += u64::from(response.is_ok());
        match (sent, response) {
            (Sent::Recommend { user, check }, Ok(Response::Recommendations { items })) => {
                tally.recommend_ns.push((t0, took));
                if traced {
                    tally.spans.push(Span::call("serve.recommend", t0));
                }
                if check {
                    tally.checked += 1;
                    let known = |item: &u64| {
                        seeded.get(&user).is_some_and(|v| v.contains(item))
                            || reported.get(&user).is_some_and(|v| v.contains(item))
                    };
                    if items.iter().any(|(item, _)| known(item)) {
                        tally.seen_violations += 1;
                    }
                }
            }
            (Sent::Report, Ok(Response::Ack)) => {
                tally.action_ns.push(took);
                if traced {
                    tally.spans.push(Span::call("serve.report_action", t0));
                }
                let a = action.expect("reports carry their action");
                reported.entry(a.user).or_default().push(a.item);
            }
            // Shed, expired, errored, timed out or mismatched.
            _ => tally.failed += 1,
        }
    }
    tally
}

struct Pass {
    setup_s: Vec<f64>,
    elapsed_s: f64,
    tally: ClientTally,
    stats: tserve::protocol::StatsReport,
}

fn one_pass(spec: &RunSpec, setups: usize, tracer: Option<&Tracer>, report: &mut Report) -> Pass {
    let (served, setup_s) = super::repeat_set_up(
        setups,
        || set_up(spec),
        |Served { server, client, .. }| {
            drop(client);
            server.shutdown();
        },
    );
    let before = served.client.stats().expect("stats before the run");

    let t0 = Instant::now();
    let stop_at = t0 + Duration::from_millis(spec.phase_ms());
    let threads: Vec<_> = (0..CLIENTS as u64)
        .map(|i| {
            let spec = spec.clone();
            let handles = (Arc::clone(&served.client), Arc::clone(&served.seeded));
            let traced = tracer.is_some();
            std::thread::spawn(move || client_loop(spec, i, handles, stop_at, traced))
        })
        .collect();
    let mut tally = ClientTally::default();
    for t in threads {
        let mut part = t.join().expect("client thread panicked");
        tally.sent += part.sent;
        tally.replies += part.replies;
        tally.recommends_sent += part.recommends_sent;
        tally.failed += part.failed;
        tally.checked += part.checked;
        tally.seen_violations += part.seen_violations;
        tally.recommend_ns.append(&mut part.recommend_ns);
        tally.action_ns.append(&mut part.action_ns);
        if let Some(tracer) = tracer {
            tracer.extend(&mut part.spans);
        }
    }
    let elapsed_s = t0.elapsed().as_secs_f64();
    let mut stats = served.client.stats().expect("stats after the run");
    stats.served -= before.served;
    stats.shed -= before.shed;
    stats.expired -= before.expired;
    stats.actions -= before.actions;
    let Served { server, client, .. } = served;
    drop(client);
    server.shutdown();

    // Output checks.
    let accounted = stats.served + stats.shed + stats.expired;
    report.check(
        // Shed counts refused actions too, so it may only exceed.
        accounted >= tally.recommends_sent && stats.served <= tally.recommends_sent,
        || {
            format!(
                "served {} + shed {} + expired {} does not cover {} recommends sent",
                stats.served, stats.shed, stats.expired, tally.recommends_sent
            )
        },
    );
    report.check(stats.served == tally.recommend_ns.len() as u64, || {
        format!(
            "server served {} pages, clients received {}",
            stats.served,
            tally.recommend_ns.len()
        )
    });
    report.check(tally.seen_violations == 0, || {
        format!(
            "{} of {} checked pages recommend an item the user already reported",
            tally.seen_violations, tally.checked
        )
    });
    report.check(
        tally.checked > 0 || tally.recommends_sent < CHECK_EVERY,
        || "no page was checked".into(),
    );
    Pass {
        setup_s,
        elapsed_s,
        tally,
        stats,
    }
}

/// `ShardPool::submit_query` with no TCP in the way, on a pool seeded
/// with the same actions: microseconds per query.
fn shard_query_us(spec: &RunSpec) -> Samples {
    let pool = ShardPool::new(SHARDS, 256, Arc::new(|_| default_cf_engine()));
    for action in seed_actions(spec) {
        while !pool.submit_action(action) {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    while pool.queued() > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let (tx, rx) = crossbeam::channel::unbounded();
    let mut rng = Rng::new(spec.seed, STREAM_PROBE);
    let mut ns = Vec::with_capacity(spec.sizes.probe_calls);
    for id in 0..spec.sizes.probe_calls as u64 {
        let user = rng.below(spec.sizes.serve_users);
        let t0 = now_ns();
        let slot = tserve::shard::ReplySlot { id, tx: tx.clone() };
        pool.submit_query(
            user,
            PAGE as usize,
            Instant::now() + Duration::from_millis(DEADLINE_MS as u64),
            slot,
        );
        std::hint::black_box(rx.recv().expect("shard replies"));
        ns.push(now_ns() - t0);
    }
    Samples::from_ns(&ns, 1e3)
}

/// `encode_request` + `decode_request` of the workload's request mix:
/// nanoseconds per request.
fn codec_ns_per_req(spec: &RunSpec) -> f64 {
    use bytes::BytesMut;
    let mut rng = Rng::new(spec.seed, STREAM_PROBE + 1);
    let calls = spec.sizes.probe_calls * 10;
    let mut buf = BytesMut::new();
    let t0 = Instant::now();
    for id in 1..=calls as u64 {
        let request = if id % 10 == 0 {
            Request::ReportAction {
                action: UserAction::new(rng.below(1 << 20), id, ActionType::Click, id),
            }
        } else {
            Request::Recommend {
                user: rng.below(1 << 20),
                n: PAGE,
                deadline_ms: DEADLINE_MS,
            }
        };
        tserve::protocol::encode_request(id, &request, &mut buf);
        std::hint::black_box(
            tserve::protocol::decode_request(&mut buf)
                .expect("own frame decodes")
                .expect("own frame is complete"),
        );
    }
    t0.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// Direct calls on one engine holding the whole seed: `(process
/// nanoseconds per action, recommend microseconds)`.
fn engine_direct(spec: &RunSpec) -> (f64, Samples) {
    let actions = seed_actions(spec);
    let mut engine = default_cf_engine();
    let t0 = Instant::now();
    for a in &actions {
        engine.process(a);
    }
    let process_ns = t0.elapsed().as_nanos() as f64 / actions.len().max(1) as f64;
    let mut rng = Rng::new(spec.seed, STREAM_PROBE + 2);
    let ns: Vec<u64> = (0..spec.sizes.probe_calls)
        .map(|_| {
            let user = rng.below(spec.sizes.serve_users);
            let t0 = now_ns();
            std::hint::black_box(engine.recommend(user, PAGE as usize));
            now_ns() - t0
        })
        .collect();
    (process_ns, Samples::from_ns(&ns, 1e3))
}

/// Runs the workload.
pub fn run(spec: RunSpec) -> Outcome {
    let mut report = Report::default();
    let setups = if spec.traced {
        1
    } else {
        spec.sizes.setup_repeats
    };
    let plain = one_pass(&spec, setups, None, &mut report);
    let plain_rate = plain.tally.replies as f64 / plain.elapsed_s;

    if !spec.traced {
        let (p50, p95) = windowed_p50_p95(&plain.tally.recommend_ns, 1e3);
        report.set("ops_per_s", plain_rate);
        report.set("latency_p50_us", p50);
        report.set("latency_p95_us", p95);
        report.set("peak_rss_mib", crate::sys::peak_rss_mib());
        report.set("setup_s", median_of(&plain.setup_s));
        return report.finish(false, plain.tally.sent, plain.tally.failed);
    }

    let tracer = Tracer::new();
    let traced = one_pass(&spec, 1, Some(&tracer), &mut report);
    let rtt_p50 = windowed_p50_p95(&traced.tally.recommend_ns, 1e3).0;
    let shard = shard_query_us(&spec);
    let (process_ns, engine_recommend) = engine_direct(&spec);
    let asked = traced.tally.recommends_sent.max(1) as f64;
    report.set("serve.shard_query_p50_us", shard.median());
    report.set("serve.wire_overhead_p50_us", rtt_p50 - shard.median());
    report.set("serve.codec_ns_per_req", codec_ns_per_req(&spec));
    report.set(
        "serve.action_p50_us",
        Samples::from_ns(&traced.tally.action_ns, 1e3).median(),
    );
    report.set(
        "serve.server_latency_p50_us",
        traced.stats.latency.p50().as_nanos() as f64 / 1e3,
    );
    report.set("serve.shed_share", traced.stats.shed as f64 / asked);
    report.set("serve.expired_share", traced.stats.expired as f64 / asked);
    report.set("core.engine_recommend_p50_us", engine_recommend.median());
    report.set("core.engine_process_ns_per_action", process_ns);
    report.set(
        "trace.overhead_share",
        1.0 - (traced.tally.replies as f64 / traced.elapsed_s) / plain_rate,
    );
    super::write_trace(&spec.scratch, "serve_mixed", &tracer.take());
    report.finish(
        true,
        plain.tally.sent + traced.tally.sent,
        plain.tally.failed + traced.tally.failed,
    )
}
