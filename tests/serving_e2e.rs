//! End-to-end serving test: a real tserve TCP server and client in one
//! process, exercising the full wire path — freshness (an action is
//! reflected in recommendations in under a second) and overload
//! behaviour (admission control sheds with `Overloaded` while the
//! latency of admitted requests stays bounded).

use std::sync::Arc;
use std::time::{Duration, Instant};
use tencentrec::action::{ActionType, UserAction};
use tencentrec::engine::default_cf_engine;
use tserve::{Client, ClientConfig, ClientError, Request, Response, Server, ServerConfig};

fn server(shards: usize, queue_capacity: usize) -> Server {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            shards,
            queue_capacity,
            default_deadline: Duration::from_millis(250),
            max_page: 100,
            ..Default::default()
        },
        Arc::new(|_| default_cf_engine()),
    )
    .expect("bind server")
}

fn client(server: &Server, connections: usize) -> Client {
    Client::connect(
        &server.local_addr().to_string(),
        ClientConfig {
            connections,
            request_timeout: Duration::from_secs(10),
            ..Default::default()
        },
    )
    .expect("connect client")
}

#[test]
fn health_stats_and_basic_exchange() {
    let server = server(3, 64);
    let client = client(&server, 1);

    let (shards, queued) = client.health().expect("health");
    assert_eq!(shards, 3);
    assert_eq!(queued, 0);

    client
        .report_action(UserAction::new(7, 42, ActionType::Click, 1))
        .expect("action admitted");

    // A lone action yields no CF candidates and no demographic signal
    // beyond the item itself (which the user has seen): empty is valid.
    // What matters is a well-formed Recommendations reply.
    let recs = client.recommend(7, 5, 0).expect("recommend");
    assert!(recs.len() <= 5);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.actions, 1);
    assert!(stats.served >= 1);
    server.shutdown();
}

#[test]
fn action_reflected_in_recommendations_within_a_second() {
    let server = server(2, 256);
    let client = client(&server, 2);

    // Seed: 30 users co-click items 1 and 2 — but NOT the probe user.
    for u in 1..=30u64 {
        client
            .report_action(UserAction::new(u, 1, ActionType::Click, u))
            .expect("seed action");
        client
            .report_action(UserAction::new(u, 2, ActionType::Click, u + 1))
            .expect("seed action");
    }
    // Until the probe user acts, item 2 must not lead their list for
    // CF reasons (they may get demographic hot items; both 1 and 2 are
    // hot, with 1 first or tied — so just check the next step flips it).

    // The probe user clicks item 1; the co-click must surface item 2.
    let t0 = Instant::now();
    client
        .report_action(UserAction::new(999, 1, ActionType::Click, 100))
        .expect("probe action");
    let mut reflected = None;
    while t0.elapsed() < Duration::from_secs(1) {
        let recs = client.recommend(999, 3, 0).expect("recommend");
        // Item 1 is seen now; item 2 leads on CF similarity.
        if recs.first().map(|&(i, _)| i) == Some(2) {
            reflected = Some(t0.elapsed());
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let latency = reflected.expect("action not reflected within 1s");
    assert!(
        latency < Duration::from_secs(1),
        "freshness: took {latency:?}"
    );
    println!("action -> updated recommendation in {latency:?}");
    server.shutdown();
}

#[test]
fn overload_sheds_and_keeps_admitted_latency_bounded() {
    // One shard with a tiny queue: a deep pipelined burst must exceed
    // queue capacity, so admission has to shed with `Overloaded`.
    let deadline_ms = 100u32;
    let server = server(1, 8);
    let client = client(&server, 4);

    // Seed dense co-click structure so each query walks real similarity
    // lists — queries must cost more than frame decoding for the queue
    // to fill (1000 actions, 100 users × 10 overlapping items). Retry on
    // Overloaded: with the whole test binary sharing two cores, a
    // descheduled worker inflates the service EWMA and admission control
    // honestly refuses until it recovers.
    let mut ts = 0u64;
    for u in 1..=100u64 {
        for k in 0..10u64 {
            ts += 1;
            let action = UserAction::new(u, (u + k) % 40, ActionType::Click, ts);
            loop {
                match client.report_action(action) {
                    Ok(()) => break,
                    Err(ClientError::Overloaded) => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => panic!("seed: {e}"),
                }
            }
        }
    }

    // Fire a burst far deeper than the queue without waiting, then
    // collect. In-flight depth ~512 against queue capacity 8.
    let mut pending = Vec::new();
    for n in 0..512u64 {
        pending.push(
            client
                .submit(&Request::Recommend {
                    user: n % 100,
                    n: 50,
                    deadline_ms,
                })
                .expect("submit"),
        );
    }
    let mut served = 0u64;
    let mut shed = 0u64;
    for p in pending {
        match p.wait().expect("response") {
            Response::Recommendations { .. } => served += 1,
            Response::Overloaded => shed += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(
        shed > 0,
        "no shedding under 512-deep burst (served {served})"
    );
    assert!(served > 0, "everything shed — admission too aggressive");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.served, served);
    assert!(
        stats.shed >= shed,
        "stats.shed {} < observed {shed}",
        stats.shed
    );
    // The point of admission control: the latency of ADMITTED requests
    // is bounded near queue_capacity × service time — overload must not
    // stretch served latency arbitrarily. 3× deadline margin because the
    // test binary oversubscribes two cores and descheduling stretches
    // wall-clock service time; without shedding the 512-deep burst would
    // put the tail at seconds, orders of magnitude past this bound.
    let p99 = stats.latency.p99();
    assert!(
        p99 <= Duration::from_millis(3 * deadline_ms as u64),
        "admitted p99 {p99:?} far exceeds the {deadline_ms}ms deadline"
    );
    println!(
        "burst of 512: served {served}, shed {shed}, admitted {}",
        stats.latency.format_percentiles()
    );
    server.shutdown();
}

#[test]
fn per_user_read_your_writes_ordering() {
    // Actions and the query for one user traverse the same shard FIFO,
    // so a pipelined action burst followed by a recommend must observe
    // every prior action of that user (seen items never recommended).
    let server = server(4, 256);
    let client = client(&server, 1);
    for u in 1..=10u64 {
        client
            .report_action(UserAction::new(u, 1, ActionType::Click, u))
            .expect("seed");
        client
            .report_action(UserAction::new(u, 2, ActionType::Click, u + 1))
            .expect("seed");
    }
    // Pipelined: submit the probe user's actions and the query without
    // waiting in between.
    let a1 = client
        .submit(&Request::ReportAction {
            action: UserAction::new(555, 1, ActionType::Click, 50),
        })
        .expect("submit");
    let a2 = client
        .submit(&Request::ReportAction {
            action: UserAction::new(555, 2, ActionType::Click, 51),
        })
        .expect("submit");
    let q = client
        .submit(&Request::Recommend {
            user: 555,
            n: 5,
            deadline_ms: 0,
        })
        .expect("submit");
    assert_eq!(a1.wait().expect("ack"), Response::Ack);
    assert_eq!(a2.wait().expect("ack"), Response::Ack);
    match q.wait().expect("recs") {
        Response::Recommendations { items } => {
            assert!(
                items.iter().all(|&(i, _)| i != 1 && i != 2),
                "query ran before the user's own actions: {items:?}"
            );
        }
        other => panic!("unexpected {other:?}"),
    }
    server.shutdown();
}

#[test]
fn a_users_requests_keep_their_order_across_pooled_connections() {
    // Two pooled connections, each with its own server-side reader: a
    // user's query must not overtake that user's pipelined action by
    // leaving on the other connection.
    let server = server(1, 256);
    let client = client(&server, 2);
    for u in 1..=30u64 {
        client
            .report_action(UserAction::new(u, 1, ActionType::Click, u))
            .expect("seed");
        client
            .report_action(UserAction::new(u, 2, ActionType::Click, u + 1))
            .expect("seed");
    }
    let probes = 1_000..1_300u64;
    for user in probes.clone() {
        client
            .report_action(UserAction::new(user, 1, ActionType::Click, user))
            .expect("probe click");
    }
    let page = |user: u64| {
        client.submit(&Request::Recommend {
            user,
            n: 5,
            deadline_ms: 0,
        })
    };
    let items = |pending: tserve::Pending| match pending.wait().expect("recs") {
        Response::Recommendations { items } => items,
        other => panic!("unexpected {other:?}"),
    };
    // Control: having clicked item 1, a probe user is shown item 2, so
    // the check below can fire.
    let control = items(page(probes.start).expect("submit"));
    assert!(control.iter().any(|&(i, _)| i == 2), "{control:?}");

    // Each probe user reports item 2 and asks for a page right behind it,
    // 16 users' pairs in flight at a time.
    let mut overtaken = 0;
    let users: Vec<u64> = probes.collect();
    for chunk in users.chunks(16) {
        let pairs: Vec<_> = chunk
            .iter()
            .map(|&user| {
                let action = UserAction::new(user, 2, ActionType::Click, user + 1);
                let action = client.submit(&Request::ReportAction { action });
                (action.expect("submit"), page(user).expect("submit"))
            })
            .collect();
        for (action, query) in pairs {
            assert_eq!(action.wait().expect("ack"), Response::Ack);
            if items(query).iter().any(|&(i, _)| i == 2) {
                overtaken += 1;
            }
        }
    }
    assert_eq!(overtaken, 0, "queries overtook their user's action");
    server.shutdown();
}

#[test]
fn dead_connection_is_redialed() {
    let server = server(1, 64);
    let client = client(&server, 1);
    client.health().expect("health before");
    // Burn the connection by provoking a protocol error is intrusive;
    // instead verify repeated calls on one pooled connection stay
    // healthy across many sequential requests.
    for i in 0..100u64 {
        client
            .report_action(UserAction::new(i, i, ActionType::Browse, i))
            .expect("action");
    }
    client.health().expect("health after");
    server.shutdown();
}

#[test]
fn server_rejects_garbage_without_crashing() {
    use std::io::{Read, Write};
    let server = server(1, 8);
    // Raw socket sending garbage: the server must answer with an Error
    // frame or close the connection — and keep serving others.
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect raw");
    raw.write_all(&[0xFF; 64]).expect("write garbage");
    let mut buf = [0u8; 256];
    let _ = raw.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = raw.read(&mut buf); // Error frame or EOF — either is fine.
    drop(raw);

    let client = client(&server, 1);
    client.health().expect("server must survive garbage");
    server.shutdown();
}

#[test]
fn expired_deadline_is_refused() {
    let server = server(1, 64);
    let client = client(&server, 1);
    // A 1ms deadline with a cold EWMA (100µs estimate) is predicted
    // hopeless only when the queue is non-trivial; an immediate refusal
    // is not guaranteed — but a served answer must also be possible.
    // What IS guaranteed: the call either serves or sheds, never hangs.
    match client.recommend(1, 5, 1) {
        Ok(_) | Err(ClientError::Overloaded) => {}
        Err(e) => panic!("unexpected error: {e}"),
    }
    server.shutdown();
}

#[test]
fn client_retries_through_injected_connection_resets() {
    // The server hangs up on the first two decoded requests; the client's
    // retry loop must re-dial and succeed on the third attempt.
    let plan = tchaos::FaultPlan::builder(11)
        .site(tchaos::FaultSite::ConnReset, 1.0, 2)
        .build();
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            fault_plan: plan,
            ..Default::default()
        },
        Arc::new(|_| default_cf_engine()),
    )
    .expect("bind server");
    let client = Client::connect(
        &server.local_addr().to_string(),
        ClientConfig {
            connections: 1,
            request_timeout: Duration::from_secs(2),
            retries: 3,
            retry_backoff: Duration::from_millis(1),
        },
    )
    .expect("connect client");
    let (shards, _queued) = client.health().expect("health must survive resets");
    assert!(shards > 0);
    server.shutdown();
}

#[test]
fn report_action_is_never_retried() {
    // ReportAction is not idempotent: after an ambiguous failure (request
    // received, connection reset before the reply) the client must surface
    // the error rather than retry into a possible duplicate.
    let plan = tchaos::FaultPlan::builder(13)
        .site(tchaos::FaultSite::ConnReset, 1.0, 1)
        .build();
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            fault_plan: plan,
            ..Default::default()
        },
        Arc::new(|_| default_cf_engine()),
    )
    .expect("bind server");
    let client = Client::connect(
        &server.local_addr().to_string(),
        ClientConfig {
            connections: 1,
            request_timeout: Duration::from_secs(2),
            retries: 3,
            retry_backoff: Duration::from_millis(1),
        },
    )
    .expect("connect client");
    let err = client
        .report_action(UserAction::new(1, 2, ActionType::Click, 0))
        .expect_err("reset must surface, not silently retry");
    assert!(err.is_retriable(), "failure itself is transient: {err}");
    // The connection budget is spent; a fresh attempt goes through.
    client
        .report_action(UserAction::new(1, 2, ActionType::Click, 1))
        .expect("second report succeeds after re-dial");
    server.shutdown();
}
