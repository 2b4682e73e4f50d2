//! Sharded engine workers.
//!
//! Engine state is partitioned by `user % shards` — the same contract as
//! tstorm's fields grouping on the user id, so every action and every
//! query for one user lands on the one shard that owns that user's
//! history. Each shard is a single worker thread that exclusively owns a
//! [`RecommendEngine`]: no locks on the hot path, and per-user
//! read-your-writes ordering falls out of the per-shard FIFO queue.

use crate::admission::{AdmissionController, AdmissionVerdict};
use crate::protocol::Response;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tencentrec::action::UserAction;
use tencentrec::engine::{RecommendEngine, StreamRecommender};
use tencentrec::types::UserId;
use tstorm::metrics::{LatencyHistogram, LatencySnapshot};

/// Builds one engine per shard. Receives the shard index so factories
/// can vary capacity or seed data per shard; must be `Send + Sync`
/// because every worker thread constructs its engine on-thread.
pub type EngineFactory = Arc<dyn Fn(usize) -> RecommendEngine + Send + Sync>;

/// Where a query's answer goes: the connection writer channel plus the
/// request's correlation id.
#[derive(Clone)]
pub struct ReplySlot {
    /// Correlation id echoed to the client.
    pub id: u64,
    /// The connection's outbound queue.
    pub tx: Sender<(u64, Response)>,
}

impl ReplySlot {
    fn send(&self, response: Response) {
        // A dead connection just drops the reply; the shard must not
        // stall because one client went away.
        let _ = self.tx.send((self.id, response));
    }
}

/// One unit of shard work.
pub enum ShardJob {
    /// Answer a recommendation query.
    Query {
        /// User to recommend for.
        user: UserId,
        /// Page size.
        n: usize,
        /// Absolute drop-dead time; missing it sheds the request.
        deadline: Instant,
        /// When admission accepted the job (latency measurement origin).
        enqueued: Instant,
        /// Where the answer goes.
        reply: ReplySlot,
    },
    /// Ingest one action.
    Action {
        /// The action.
        action: UserAction,
    },
}

/// Shared counters across all shards of one server. The counters are
/// [`obs::Counter`] handles, so they can be attached to a metric registry
/// without double accounting (see [`ShardPool::register_metrics`]).
#[derive(Default)]
pub struct ServeCounters {
    /// Queries answered with a page.
    pub served: obs::Counter,
    /// Requests refused at admission.
    pub shed: obs::Counter,
    /// Queries dropped at dequeue because their deadline had passed.
    pub expired: obs::Counter,
    /// Actions ingested.
    pub actions: obs::Counter,
    /// Admission→reply latency of served queries, all shards merged.
    pub latency: LatencyHistogram,
}

struct Shard {
    tx: Sender<ShardJob>,
    admission: AdmissionController,
    /// Admission→reply latency of this shard only.
    latency: Arc<LatencyHistogram>,
    /// Jobs enqueued but not yet dequeued (mirrors `tx.len()`).
    depth: obs::Gauge,
    worker: Option<JoinHandle<()>>,
}

/// The worker pool: routes jobs to shards through admission control.
pub struct ShardPool {
    shards: Vec<Shard>,
    counters: Arc<ServeCounters>,
}

impl ShardPool {
    /// Spawns `shards` worker threads, each owning one engine from
    /// `factory`. `queue_capacity` bounds each shard's inbox — the knob
    /// admission control trades latency against under load. A shard whose
    /// thread the OS refuses sheds every job routed to it.
    pub fn new(shards: usize, queue_capacity: usize, factory: EngineFactory) -> Self {
        assert!(shards > 0, "at least one shard");
        assert!(queue_capacity > 0, "queue capacity must be positive");
        let counters = Arc::new(ServeCounters::default());
        let shards = (0..shards)
            .map(|index| {
                let (tx, rx) = bounded::<ShardJob>(queue_capacity);
                let admission = AdmissionController::new(queue_capacity);
                let latency = Arc::new(LatencyHistogram::new());
                let depth = obs::Gauge::new();
                // A worker thread the OS refuses leaves its shard closed:
                // the inbox's receiver drops with the closure, so every
                // job sent there is shed.
                let worker = spawn_worker(
                    index,
                    rx,
                    Arc::clone(&factory),
                    Arc::clone(&counters),
                    Arc::clone(&latency),
                    depth.clone(),
                    admission.clone(),
                )
                .ok();
                Shard {
                    tx,
                    admission,
                    latency,
                    depth,
                    worker,
                }
            })
            .collect();
        ShardPool { shards, counters }
    }

    /// Attaches the pool's counters, per-shard latency histograms and
    /// per-shard queue-depth gauges to `registry` under the `tserve_*`
    /// families.
    pub fn register_metrics(&self, registry: &obs::Registry) {
        registry.register_counter(
            "tserve_queries_served_total",
            &[],
            "Queries answered with a recommendation page.",
            &self.counters.served,
        );
        registry.register_counter(
            "tserve_requests_shed_total",
            &[],
            "Requests refused at admission or on a full shard queue.",
            &self.counters.shed,
        );
        registry.register_counter(
            "tserve_queries_expired_total",
            &[],
            "Queries dropped at dequeue because their deadline passed.",
            &self.counters.expired,
        );
        registry.register_counter(
            "tserve_actions_ingested_total",
            &[],
            "Actions applied to shard engines.",
            &self.counters.actions,
        );
        for (index, shard) in self.shards.iter().enumerate() {
            let shard_label = index.to_string();
            let labels: &[(&str, &str)] = &[("shard", &shard_label)];
            registry.register_histogram_nanos(
                "tserve_query_latency_seconds",
                labels,
                "Admission-to-reply latency of served queries.",
                &shard.latency,
            );
            // An explicit gauge rather than a gauge_fn over the channel: a
            // registry-held Sender clone would keep the inbox open past
            // Drop and stall worker shutdown.
            registry.register_gauge(
                "tserve_queue_depth",
                labels,
                "Jobs queued in the shard inbox.",
                &shard.depth,
            );
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Shared counters (served/shed/latency).
    pub fn counters(&self) -> &Arc<ServeCounters> {
        &self.counters
    }

    /// Jobs currently queued across all shards.
    pub fn queued(&self) -> usize {
        self.shards.iter().map(|s| s.tx.len()).sum()
    }

    /// Merged latency distribution of served queries.
    pub fn latency_snapshot(&self) -> LatencySnapshot {
        self.counters.latency.snapshot()
    }

    fn shard_for(&self, user: UserId) -> &Shard {
        &self.shards[(user % self.shards.len() as u64) as usize]
    }

    /// Routes a query through admission. On shedding, the `Overloaded`
    /// reply is sent here and `false` is returned.
    pub fn submit_query(
        &self,
        user: UserId,
        n: usize,
        deadline: Instant,
        reply: ReplySlot,
    ) -> bool {
        let shard = self.shard_for(user);
        let now = Instant::now();
        if let AdmissionVerdict::Shed { .. } = shard.admission.assess(shard.tx.len(), now, deadline)
        {
            self.counters.shed.inc();
            reply.send(Response::Overloaded);
            return false;
        }
        let job = ShardJob::Query {
            user,
            n,
            deadline,
            enqueued: now,
            reply: reply.clone(),
        };
        match shard.tx.try_send(job) {
            Ok(()) => {
                shard.depth.add(1.0);
                true
            }
            Err(_) => {
                // Queue filled between assessment and enqueue (or the
                // shard is gone) — shed instead of blocking the reader.
                self.counters.shed.inc();
                reply.send(Response::Overloaded);
                false
            }
        }
    }

    /// Routes an action to its owner shard; returns `false` (shed) when
    /// the shard's queue is full — under overload the server degrades
    /// ingestion too rather than queue unboundedly.
    pub fn submit_action(&self, action: UserAction) -> bool {
        let shard = self.shard_for(action.user);
        match shard.tx.try_send(ShardJob::Action { action }) {
            Ok(()) => {
                shard.depth.add(1.0);
                true
            }
            Err(_) => {
                self.counters.shed.inc();
                false
            }
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        // Close every inbox first so workers drain and exit, then join.
        for shard in &mut self.shards {
            let (closed_tx, _) = bounded(1);
            shard.tx = closed_tx;
        }
        for shard in &mut self.shards {
            if let Some(worker) = shard.worker.take() {
                let _ = worker.join();
            }
        }
    }
}

fn spawn_worker(
    index: usize,
    rx: Receiver<ShardJob>,
    factory: EngineFactory,
    counters: Arc<ServeCounters>,
    latency: Arc<LatencyHistogram>,
    depth: obs::Gauge,
    admission: AdmissionController,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(format!("tserve-shard-{index}"))
        .spawn(move || {
            let mut engine = factory(index);
            loop {
                let job = match rx.recv_timeout(Duration::from_millis(50)) {
                    Ok(job) => job,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break,
                };
                depth.add(-1.0);
                match job {
                    ShardJob::Query {
                        user,
                        n,
                        deadline,
                        enqueued,
                        reply,
                    } => {
                        let start = Instant::now();
                        if start > deadline {
                            // Too late to be useful: answering now would
                            // only add work behind other late requests.
                            counters.expired.inc();
                            reply.send(Response::Overloaded);
                            continue;
                        }
                        let items = engine.recommend(user, n);
                        let done = Instant::now();
                        admission.observe_query_service(done - start);
                        counters.latency.record(done - enqueued);
                        latency.record(done - enqueued);
                        counters.served.inc();
                        reply.send(Response::Recommendations { items });
                    }
                    ShardJob::Action { action } => {
                        let start = Instant::now();
                        engine.process(&action);
                        admission.observe_action_service(start.elapsed());
                        counters.actions.inc();
                    }
                }
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use tencentrec::action::ActionType;
    use tencentrec::engine::default_cf_engine;

    fn pool(shards: usize, cap: usize) -> ShardPool {
        ShardPool::new(shards, cap, Arc::new(|_| default_cf_engine()))
    }

    #[test]
    fn actions_then_query_same_user_are_ordered() {
        let p = pool(4, 64);
        for u in 1..=10u64 {
            assert!(p.submit_action(UserAction::new(u, 1, ActionType::Click, u)));
            assert!(p.submit_action(UserAction::new(u, 2, ActionType::Click, u + 1)));
        }
        let (tx, rx) = unbounded();
        let deadline = Instant::now() + Duration::from_secs(5);
        assert!(p.submit_query(5, 3, deadline, ReplySlot { id: 77, tx },));
        let (id, resp) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(id, 77);
        // The query ran after this user's actions (same FIFO queue), so
        // the engine knows user 5 and excludes their seen items.
        let Response::Recommendations { items } = resp else {
            panic!("expected recommendations, got {resp:?}");
        };
        assert!(items.iter().all(|&(i, _)| i != 1 && i != 2), "{items:?}");
        assert_eq!(p.counters().served.get(), 1);
    }

    #[test]
    fn users_partition_across_shards() {
        let p = pool(3, 8);
        assert_eq!(p.shards(), 3);
        // Saturate shard 0's queue only; other shards stay open.
        // (No worker is consuming user 0's shard fast enough to matter:
        // block it with a long queue of actions.)
        for _ in 0..200 {
            p.submit_action(UserAction::new(0, 1, ActionType::Click, 0));
        }
        // Shard 1 (user 1) still admits.
        assert!(p.submit_action(UserAction::new(1, 1, ActionType::Click, 0)));
    }

    #[test]
    fn expired_deadline_is_shed_at_dequeue() {
        let p = pool(1, 128);
        let (tx, rx) = unbounded();
        // Already-expired deadline: admission's predictive check sheds
        // it up front (estimated wait > 0 budget).
        let past = Instant::now() - Duration::from_millis(1);
        let admitted = p.submit_query(1, 5, past, ReplySlot { id: 1, tx });
        assert!(!admitted);
        let (_, resp) = rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(resp, Response::Overloaded);
        assert_eq!(p.counters().shed.get(), 1);
    }

    #[test]
    fn registry_exposes_shard_metrics() {
        let p = pool(2, 64);
        let registry = obs::Registry::new();
        p.register_metrics(&registry);
        for u in 1..=10u64 {
            assert!(p.submit_action(UserAction::new(u, 1, ActionType::Click, u)));
        }
        let (tx, rx) = unbounded();
        let deadline = Instant::now() + Duration::from_secs(5);
        assert!(p.submit_query(3, 2, deadline, ReplySlot { id: 1, tx }));
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            registry.counter_value("tserve_queries_served_total", &[]),
            Some(1)
        );
        // The query reply only proves its own shard drained; wait for the
        // other shard's actions too.
        let t0 = Instant::now();
        while p.counters().actions.get() < 10 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::yield_now();
        }
        assert_eq!(
            registry.counter_value("tserve_actions_ingested_total", &[]),
            Some(10)
        );
        // User 3 hashes to shard 3 % 2 = 1; its latency histogram holds
        // the one served query.
        let shard1 = registry
            .histogram_snapshot("tserve_query_latency_seconds", &[("shard", "1")])
            .expect("per-shard histogram registered");
        assert_eq!(shard1.count(), 1);
        assert!(registry
            .gauge_value("tserve_queue_depth", &[("shard", "0")])
            .is_some());
        let text = registry.render();
        assert!(text.contains("tserve_query_latency_seconds"), "{text}");
    }

    #[test]
    fn queue_depth_gauge_returns_to_zero_after_drain() {
        let p = pool(1, 256);
        let registry = obs::Registry::new();
        p.register_metrics(&registry);
        for u in 0..50u64 {
            assert!(p.submit_action(UserAction::new(u, 1, ActionType::Click, u)));
        }
        // Wait for the worker to drain its inbox.
        let t0 = Instant::now();
        while p.counters().actions.get() < 50 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::yield_now();
        }
        assert_eq!(p.counters().actions.get(), 50);
        assert_eq!(
            registry.gauge_value("tserve_queue_depth", &[("shard", "0")]),
            Some(0.0)
        );
    }
}
