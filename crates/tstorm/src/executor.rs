//! The runtime: turns a validated [`Topology`] into running threads.
//!
//! Each task (one unit of a component's parallelism) is a thread with a
//! bounded input queue. Producers block when a consumer queue is full, which
//! gives end-to-end backpressure. One extra thread runs the XOR acker.
//!
//! Transport is batched end to end and every runtime message is a batch:
//! bolt queues carry tuple batches drained up to `batch_size` tuples per
//! lock, spouts register roots in one `InitBatch` per flush, and the acker
//! answers with one `AckBatch` per spout per message. Consecutive tuples
//! execute as one *run* over one path: `execute_batch` once for the run
//! when the bolt opts in, once per tuple otherwise — the bolt's
//! `supports_batch` picks only the completion granularity. Emits coalesce
//! in the collector's scatter buffers, and each run ships one pre-folded
//! `XorBatch` to the acker and folds its execute accounting into the
//! component's metrics once: a tuple adds to no shared counter, and the
//! clock is read once per chunk. An egress pump drains a remote task's
//! whole queue at a time.

use crate::ack::{run_acker, AckRoute, AckerMsg, SpoutMsg};
use crate::channel::{
    batch_channel_with_stats, BatchReceiver, BatchSender, ChannelStats, RecvBatch,
};
use crate::collector::{
    BoltCollector, BoltMsg, ConsumerEdge, EmitterCore, OutputMap, SpoutCollector, StreamOutputs,
    TupleBatch,
};
use crate::component::{Bolt, Spout, SpoutWaker, TaskContext};
use crate::grouping::RoutingRule;
use crate::metrics::{ComponentMetrics, ExecTally, MetricsRegistry, MetricsSnapshot};
use crate::remote::{Injector, SliceSpec, SourceStream};
use crate::topology::{BoltFactory, Topology};
use crate::tuple::AnchorSet;
use crossbeam::channel::{unbounded, RecvTimeoutError, Sender};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Floor of the spout idle backoff: the first wait after going idle.
const IDLE_BACKOFF_MIN: Duration = Duration::from_millis(1);
/// Ceiling of the spout idle backoff. Control messages (acks, fails,
/// shutdown) and [`SpoutWaker`] wakes end the wait immediately; the
/// backoff is the fallback for data no waker announces (a source that
/// never calls `wake`, a poll that came back empty under an injected
/// stall), and this bounds how stale such data can find the poll loop.
const IDLE_BACKOFF_MAX: Duration = Duration::from_millis(20);

impl Topology {
    /// Starts every task thread and the acker; returns a handle for
    /// monitoring and shutdown.
    pub fn launch(self) -> TopologyHandle {
        self.launch_inner(None)
    }

    /// Starts only the slice of the topology named in `spec.local`, for a
    /// cluster worker process. Remote components get no task threads;
    /// tuples routed to them leave through `spec.egress` (and arrive from
    /// elsewhere through [`TopologyHandle::injector`]). The slice's acker
    /// tracks the trees its own spouts root; traffic for other workers'
    /// roots leaves through `spec.ack_route` and theirs arrives through
    /// [`TopologyHandle::ack_remote`].
    pub fn launch_slice(self, spec: SliceSpec) -> TopologyHandle {
        self.launch_inner(Some(spec))
    }

    fn launch_inner(self, spec: Option<SliceSpec>) -> TopologyHandle {
        let (local, route, egress) = match spec {
            None => (None, AckRoute::local(self.config.message_timeout), None),
            Some(s) => (Some(s.local), s.ack_route, Some(s.egress)),
        };
        let is_local = |name: &str| local.as_ref().is_none_or(|l| l.contains(name));
        let mut metrics = MetricsRegistry::default();
        let obs = self.config.registry.clone();
        let inflight = Arc::new(AtomicI64::new(0));
        let acker_pending = Arc::new(AtomicI64::new(0));
        let emitted_roots = Arc::new(AtomicU64::new(0));
        // Topology-wide gauges mirror the runtime's existing atomics at
        // render time; the histogram collects spout-emit -> tree-complete
        // latency recorded by the acker.
        {
            let inflight = Arc::clone(&inflight);
            obs.register_gauge_fn(
                "tstorm_inflight_tuples",
                &[],
                "Tuples currently queued, buffered or executing.",
                move || inflight.load(Ordering::Relaxed) as f64,
            );
            let pending = Arc::clone(&acker_pending);
            obs.register_gauge_fn(
                "tstorm_acker_pending_trees",
                &[],
                "Incomplete tracked tuple trees in the acker.",
                move || pending.load(Ordering::Relaxed) as f64,
            );
        }
        let pipeline = obs.histogram_nanos(
            "tstorm_pipeline_latency_seconds",
            &[],
            "Whole-pipeline latency from spout emit to tuple-tree completion.",
        );
        let batch_size = self.config.batch_size.max(1);
        let flush_interval = self.config.flush_interval;
        // In a slice only local spout tasks exist here.
        let total_spout_tasks: usize = self
            .spouts
            .iter()
            .filter(|s| is_local(&s.name))
            .map(|s| s.parallelism)
            .sum();
        // One flag per spout task: true once its most recent poll found
        // nothing to emit (or it was deactivated). `wait_idle` requires all
        // flags set, so it cannot return before a slow-starting spout has
        // even been polled.
        let spout_idle: Arc<Vec<std::sync::atomic::AtomicBool>> = Arc::new(
            (0..total_spout_tasks)
                .map(|_| std::sync::atomic::AtomicBool::new(false))
                .collect(),
        );

        // Input queues for every bolt task.
        let mut bolt_txs: HashMap<&str, Vec<BatchSender<BoltMsg>>> = HashMap::new();
        let mut bolt_rxs: HashMap<&str, Vec<BatchReceiver<BoltMsg>>> = HashMap::new();
        for b in &self.bolts {
            let (txs, rxs): (Vec<_>, Vec<_>) = (0..b.parallelism)
                .map(|i| {
                    let task = i.to_string();
                    let labels: &[(&str, &str)] = &[("component", &b.name), ("task", &task)];
                    let stats = ChannelStats {
                        depth: obs.gauge(
                            "tstorm_queue_depth",
                            labels,
                            "Tuples currently queued in this task's input queue.",
                        ),
                        stalls: obs.counter(
                            "tstorm_backpressure_stalls_total",
                            labels,
                            "Blocking sends that found this queue full (backpressure).",
                        ),
                    };
                    batch_channel_with_stats(self.config.queue_capacity, Some(stats))
                })
                .unzip();
            bolt_txs.insert(&b.name, txs);
            bolt_rxs.insert(&b.name, rxs);
        }

        let (acker_tx, acker_rx) = unbounded::<AckerMsg>();

        // Output maps: component -> stream -> consumers.
        let mut output_maps: HashMap<&str, Arc<OutputMap>> = HashMap::new();
        let all_outputs: Vec<(&str, &[crate::component::StreamDef])> = self
            .spouts
            .iter()
            .map(|s| (s.name.as_str(), s.outputs.as_slice()))
            .chain(
                self.bolts
                    .iter()
                    .map(|b| (b.name.as_str(), b.outputs.as_slice())),
            )
            .collect();
        for &(name, outputs) in &all_outputs {
            let mut map = OutputMap::default();
            for def in outputs {
                let mut consumers = Vec::new();
                for b in &self.bolts {
                    for sub in &b.subscriptions {
                        if sub.src == name && sub.stream == def.id {
                            let rule =
                                RoutingRule::new(sub.grouping.clone(), |f| def.schema.index_of(f))
                                    .expect("grouping validated at build time");
                            consumers.push(ConsumerEdge {
                                rule: Arc::new(rule),
                                senders: bolt_txs[b.name.as_str()].clone(),
                            });
                        }
                    }
                }
                map.push(StreamOutputs {
                    stream: Arc::from(def.id.as_str()),
                    schema: def.schema.clone(),
                    consumers,
                });
            }
            output_maps.insert(name, Arc::new(map));
        }

        // Every declared stream, for re-attaching schemas to tuples that
        // crossed a process boundary. Injected batches share the output
        // maps' interned stream names.
        let sources: Vec<SourceStream> = output_maps
            .iter()
            .flat_map(|(&name, map)| {
                let src_component: Arc<str> = Arc::from(name);
                map.streams.iter().map(move |out| SourceStream {
                    src_component: Arc::clone(&src_component),
                    stream: Arc::clone(&out.stream),
                    schema: out.schema.clone(),
                })
            })
            .collect();

        let mut threads: Vec<JoinHandle<()>> = Vec::new();

        // Remote bolts: their input queues exist (emitters route into them
        // exactly as if they were local) but are drained by egress pumps
        // that hand the drained batches, borrowed, to the cluster transport.
        // A pump takes everything queued, up to the queue's capacity, so a
        // backed-up edge leaves in a few large writes, not one per batch.
        let queue_capacity = self.config.queue_capacity;
        for b in &self.bolts {
            if is_local(&b.name) {
                continue;
            }
            let egress = Arc::clone(egress.as_ref().expect("remote bolt implies slice"));
            let mut rxs = bolt_rxs.remove(b.name.as_str()).expect("rx registered");
            for task_index in (0..b.parallelism).rev() {
                let rx = rxs.pop().expect("one rx per task");
                let egress = Arc::clone(&egress);
                let inflight = Arc::clone(&inflight);
                let name = b.name.clone();
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("tstorm-egress-{name}-{task_index}"))
                        .spawn(move || {
                            let mut inbox: Vec<BoltMsg> = Vec::new();
                            let mut batches: Vec<TupleBatch> = Vec::new();
                            let mut frame: Vec<u8> = Vec::new();
                            loop {
                                match rx.recv_batch(&mut inbox, queue_capacity, None) {
                                    RecvBatch::Msgs(_) => {}
                                    RecvBatch::TimedOut => continue,
                                    RecvBatch::Disconnected => break,
                                }
                                let mut shutdown = false;
                                for msg in inbox.drain(..) {
                                    match msg {
                                        BoltMsg::Batch(b) => batches.push(b),
                                        BoltMsg::Tick => {}
                                        BoltMsg::Shutdown => shutdown = true,
                                    }
                                }
                                if !batches.is_empty() {
                                    // The tuples leave this process: local
                                    // in-flight accounting ends at the
                                    // handoff, the destination re-adds them
                                    // on inject.
                                    let tuples: usize = batches.iter().map(TupleBatch::len).sum();
                                    inflight.fetch_sub(tuples as i64, Ordering::Relaxed);
                                    frame.clear();
                                    egress(&mut frame, &name, task_index, &batches);
                                    batches.clear();
                                }
                                if shutdown {
                                    break;
                                }
                            }
                        })
                        .expect("spawn egress pump"),
                );
            }
        }

        // Bolt tasks.
        for b in &self.bolts {
            if !is_local(&b.name) {
                continue;
            }
            let comp_metrics = metrics.register(&b.name, &obs);
            let batch_hist = obs.histogram_values(
                "tstorm_batch_size",
                &[("component", &b.name)],
                "Tuples drained per receive into this bolt's execute loop.",
            );
            let mut rxs = bolt_rxs.remove(b.name.as_str()).expect("rx registered");
            for task_index in (0..b.parallelism).rev() {
                let rx = rxs.pop().expect("one rx per task");
                let factory = Arc::clone(&b.factory);
                let bolt = factory();
                let ctx = TaskContext {
                    component: b.name.clone(),
                    task_index,
                    n_tasks: b.parallelism,
                };
                let collector = BoltCollector {
                    core: EmitterCore::new(
                        Arc::from(b.name.as_str()),
                        task_index,
                        Arc::clone(&output_maps[b.name.as_str()]),
                        acker_tx.clone(),
                        Arc::clone(&inflight),
                        Arc::clone(&comp_metrics),
                        self.config.fault_plan.clone(),
                        batch_size,
                    ),
                    current_anchors: AnchorSet::None,
                    tuple_pending: Vec::new(),
                    run_pending: Vec::new(),
                };
                let mut task = BoltTask {
                    bolt,
                    collector,
                    metrics: Arc::clone(&comp_metrics),
                    tally: ExecTally::default(),
                    inflight: Arc::clone(&inflight),
                    fault_plan: self.config.fault_plan.clone(),
                    factory,
                    ctx,
                    run: Vec::with_capacity(batch_size),
                };
                let tick = b.tick;
                let batch_hist = Arc::clone(&batch_hist);
                let name = b.name.clone();
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("tstorm-{name}-{task_index}"))
                        .spawn(move || {
                            task.bolt.prepare(&task.ctx);
                            let mut next_tick = tick.map(|d| Instant::now() + d);
                            let mut inbox: Vec<BoltMsg> = Vec::with_capacity(batch_size);
                            'main: loop {
                                match rx.recv_batch(&mut inbox, batch_size, next_tick) {
                                    RecvBatch::Msgs(n) => {
                                        debug_assert_eq!(n, inbox.len());
                                        // Depth of the drain in *tuples*, not
                                        // transport messages: a whole-arena
                                        // batch message counts its payload,
                                        // a tick or shutdown nothing, and a
                                        // drain of control messages alone is
                                        // no batch.
                                        let tuples: usize = inbox.iter().map(BoltMsg::tuples).sum();
                                        if tuples > 0 {
                                            batch_hist.record_nanos(tuples as u64);
                                        }
                                    }
                                    RecvBatch::TimedOut => {
                                        task.tick();
                                        next_tick =
                                            Some(Instant::now() + tick.expect("tick interval set"));
                                        continue;
                                    }
                                    RecvBatch::Disconnected => break,
                                }
                                for msg in inbox.drain(..) {
                                    match msg {
                                        BoltMsg::Batch(b) => b.extend_into(&mut task.run),
                                        BoltMsg::Tick => {
                                            // Flush the pending run first so
                                            // the tick observes every tuple
                                            // queued before it.
                                            task.execute_run();
                                            task.tick();
                                        }
                                        BoltMsg::Shutdown => {
                                            task.execute_run();
                                            task.bolt.cleanup();
                                            break 'main;
                                        }
                                    }
                                }
                                task.execute_run();
                                if let Some(deadline) = next_tick {
                                    // A long run can overshoot the tick
                                    // deadline; catch up before blocking.
                                    if Instant::now() >= deadline {
                                        task.tick();
                                        next_tick =
                                            Some(Instant::now() + tick.expect("tick interval set"));
                                    }
                                }
                            }
                        })
                        .expect("spawn bolt task"),
                );
            }
        }

        // Spout tasks. `slot` counts local spout tasks: the row of the
        // acker's notification table, which holds their control channels.
        let mut slot = 0usize;
        let mut spout_ctl_txs: Vec<Sender<SpoutMsg>> = Vec::new();
        let mut spout_threads: Vec<JoinHandle<()>> = Vec::new();
        for s in &self.spouts {
            if !is_local(&s.name) {
                continue;
            }
            let comp_metrics = metrics.register(&s.name, &obs);
            for task_index in 0..s.parallelism {
                let (ctl_tx, rx) = unbounded();
                spout_ctl_txs.push(ctl_tx.clone());
                let mut spout = (s.factory)();
                let ctx = TaskContext {
                    component: s.name.clone(),
                    task_index,
                    n_tasks: s.parallelism,
                };
                let mut collector = SpoutCollector {
                    core: EmitterCore::new(
                        Arc::from(s.name.as_str()),
                        task_index,
                        Arc::clone(&output_maps[s.name.as_str()]),
                        acker_tx.clone(),
                        Arc::clone(&inflight),
                        Arc::clone(&comp_metrics),
                        self.config.fault_plan.clone(),
                        batch_size,
                    ),
                    slot,
                    tag: route.tag,
                    emitted_roots: Arc::clone(&emitted_roots),
                    pending_inits: Vec::new(),
                    now_ms: self.config.clock.now_ms(),
                    clock: self.config.clock.clone(),
                };
                let metrics = Arc::clone(&comp_metrics);
                let name = s.name.clone();
                let idle_flags = Arc::clone(&spout_idle);
                let my_slot = slot;
                let waker = SpoutWaker::new(ctl_tx);
                spout_threads.push(
                    std::thread::Builder::new()
                        .name(format!("tstorm-{name}-{task_index}"))
                        .spawn(move || {
                            waker.install();
                            spout.open(&ctx);
                            let mut active = true;
                            let mut idle_wait = IDLE_BACKOFF_MIN;
                            let mut last_flush = Instant::now();
                            let mut emitted = false;
                            let mut tally = ExecTally::default();
                            loop {
                                // Drain control messages without blocking.
                                while let Ok(msg) = rx.try_recv() {
                                    if let Ctl::Shutdown =
                                        handle_ctl(msg, &mut spout, &metrics, &mut active)
                                    {
                                        return;
                                    }
                                }
                                // Re-arm the waker only before a burst that
                                // may end in an idle wait (the last one found
                                // nothing): a record appended after this point
                                // always queues a fresh `Wake`. A busy or
                                // deactivated task leaves it disarmed, so a
                                // producer feeding it pays one flag load.
                                let armed = active && !emitted;
                                if armed {
                                    waker.rearm();
                                }
                                // Poll the source in bursts of up to
                                // `batch_size` between control drains,
                                // metering the whole burst once: a second
                                // `Instant` pair plus a control-queue check
                                // per poll would dominate a cheap source at
                                // millions of tuples per second. The burst
                                // also ends at the flush deadline so a slow
                                // source (paced, I/O-bound) keeps the
                                // pre-batching flush cadence instead of
                                // stranding emits for `batch_size` polls.
                                let mut polled = 0u64;
                                if active {
                                    let start = Instant::now();
                                    let deadline = start + flush_interval;
                                    while (polled as usize) < batch_size
                                        && spout.next_tuple(&mut collector)
                                    {
                                        polled += 1;
                                        if Instant::now() >= deadline {
                                            break;
                                        }
                                    }
                                    if polled > 0 {
                                        tally.add_polls(start.elapsed().as_nanos() as u64, polled);
                                        metrics.record(&mut tally);
                                    }
                                }
                                emitted = polled > 0;
                                // Emit buffers flush on the interval while
                                // producing, and always before going idle —
                                // batching may not strand tuples locally.
                                if !emitted || last_flush.elapsed() >= flush_interval {
                                    collector.flush();
                                    last_flush = Instant::now();
                                }
                                idle_flags[my_slot].store(!emitted, Ordering::Release);
                                if emitted {
                                    idle_wait = IDLE_BACKOFF_MIN;
                                } else if active && !armed {
                                    // This burst ran disarmed: a record
                                    // appended during it may have found the
                                    // waker already woken and queued nothing.
                                    // Poll once more, armed, before sleeping.
                                    continue;
                                } else {
                                    // Idle or deactivated: block on control
                                    // traffic with exponential backoff. Acks,
                                    // fails, wakes and shutdown land on this
                                    // channel, so they interrupt the wait
                                    // immediately; only data no waker
                                    // announces pays the backoff.
                                    match rx.recv_timeout(idle_wait) {
                                        Ok(msg) => {
                                            idle_wait = IDLE_BACKOFF_MIN;
                                            if let Ctl::Shutdown =
                                                handle_ctl(msg, &mut spout, &metrics, &mut active)
                                            {
                                                return;
                                            }
                                        }
                                        Err(RecvTimeoutError::Timeout) => {
                                            idle_wait = (idle_wait * 2).min(IDLE_BACKOFF_MAX);
                                        }
                                        Err(RecvTimeoutError::Disconnected) => {}
                                    }
                                }
                            }
                        })
                        .expect("spawn spout task"),
                );
                slot += 1;
            }
        }

        let acker_handle = {
            let spouts = spout_ctl_txs.clone();
            let gauge = Arc::clone(&acker_pending);
            let clock = self.config.clock.clone();
            std::thread::Builder::new()
                .name("tstorm-acker".into())
                .spawn(move || run_acker(acker_rx, spouts, route, gauge, clock, pipeline))
                .expect("spawn acker")
        };

        TopologyHandle {
            metrics,
            registry: obs,
            inflight,
            acker_pending,
            emitted_roots,
            spout_idle,
            spout_ctl_txs,
            bolt_txs: bolt_txs
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            acker_tx,
            sources,
            threads,
            spout_threads,
            acker_handle,
        }
    }
}

use crate::tuple::Tuple;

enum Ctl {
    Continue,
    Shutdown,
}

fn handle_ctl(
    msg: SpoutMsg,
    spout: &mut Box<dyn Spout>,
    metrics: &ComponentMetrics,
    active: &mut bool,
) -> Ctl {
    match msg {
        SpoutMsg::AckBatch(ids) => {
            metrics.acked.add(ids.len() as u64);
            for id in ids {
                spout.ack(id);
            }
        }
        SpoutMsg::Fail(id) => {
            metrics.failed.inc();
            spout.fail(id);
        }
        SpoutMsg::Deactivate => *active = false,
        SpoutMsg::Activate => *active = true,
        // Receiving it ended the wait; the next poll does the rest. Never
        // `Activate`: a barrier's deactivation must hold through appends.
        SpoutMsg::Wake => {}
        SpoutMsg::Shutdown => {
            spout.close();
            return Ctl::Shutdown;
        }
    }
    Ctl::Continue
}

/// One bolt task: the bolt, its collector, and what an execute run needs
/// and keeps across runs.
struct BoltTask {
    bolt: Box<dyn Bolt>,
    collector: BoltCollector,
    metrics: Arc<ComponentMetrics>,
    /// The current run's execute accounting, folded into `metrics` once
    /// per run.
    tally: ExecTally,
    inflight: Arc<AtomicI64>,
    fault_plan: tchaos::FaultPlan,
    factory: BoltFactory,
    ctx: TaskContext,
    /// Tuples drained since the last run, in arrival order.
    run: Vec<Tuple>,
}

impl BoltTask {
    fn tick(&mut self) {
        self.collector.current_anchors = AnchorSet::None;
        self.bolt.tick(&mut self.collector);
        self.collector.flush_run();
    }

    /// Executes the pending run of consecutive tuples and completes it.
    /// The run is cut into chunks — the whole run when the bolt's
    /// [`Bolt::supports_batch`] is true, single tuples otherwise — and
    /// every chunk takes the same steps: pre-anchor, one `execute_batch`,
    /// then ack or fail of the chunk's trees. The run ends with one emit
    /// flush, one `XorBatch` and one fold of its accounting into the
    /// component's metrics.
    ///
    /// One clock read per chunk boundary times the chunks: a chunk's time
    /// runs from the previous chunk's end (the run's start for the first)
    /// to its own, so it includes its pre-anchor and the previous chunk's
    /// completion, a few nanoseconds next to any execute.
    ///
    /// Storm's supervisor restarts crashed workers; here a panicking
    /// execute fails the chunk's tuple trees (the spout will replay them)
    /// and the bolt is rebuilt from its factory — safe because bolts keep
    /// durable state in TDStore, not in themselves.
    fn execute_run(&mut self) {
        if self.run.is_empty() {
            return;
        }
        let chunk_len = if self.bolt.supports_batch() {
            self.run.len()
        } else {
            1
        };
        let collector = &mut self.collector;
        let mut mark = Instant::now();
        for chunk in self.run.chunks(chunk_len) {
            // Conservative pre-anchor: emits that no `anchor_to` narrows
            // attach to every root in the chunk.
            collector.current_anchors = chunk
                .iter()
                .flat_map(|t| t.anchors.pairs().iter().copied())
                .collect();
            let bolt = &mut self.bolt;
            let fault_plan = &self.fault_plan;
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // Injected before execute so a faulted chunk has had no
                // effect on durable state: the replay re-runs it from
                // scratch.
                if fault_plan.should_fault(tchaos::FaultSite::ExecutorPanic) {
                    panic!("tchaos: injected executor panic");
                }
                bolt.execute_batch(chunk, collector)
            }));
            let now = Instant::now();
            let nanos = now.duration_since(mark).as_nanos() as u64;
            mark = now;
            let ok = matches!(result, Ok(Ok(())));
            if ok {
                collector.complete_ok(chunk);
            } else {
                collector.fail_run(chunk);
            }
            self.tally.add(nanos, chunk.len() as u64, ok);
            if result.is_err() {
                self.bolt = (self.factory)();
                self.bolt.prepare(&self.ctx);
                // The rebuild is no chunk's execute time.
                mark = Instant::now();
            }
        }
        collector.flush_run();
        self.metrics.record(&mut self.tally);
        self.inflight
            .fetch_sub(self.run.len() as i64, Ordering::Relaxed);
        self.run.clear();
    }
}

/// Handle to a running topology.
pub struct TopologyHandle {
    metrics: MetricsRegistry,
    registry: obs::Registry,
    inflight: Arc<AtomicI64>,
    acker_pending: Arc<AtomicI64>,
    emitted_roots: Arc<AtomicU64>,
    spout_idle: Arc<Vec<std::sync::atomic::AtomicBool>>,
    spout_ctl_txs: Vec<Sender<SpoutMsg>>,
    bolt_txs: HashMap<String, Vec<BatchSender<BoltMsg>>>,
    acker_tx: Sender<AckerMsg>,
    /// Every declared stream, for re-attaching schemas to injected
    /// tuples.
    sources: Vec<SourceStream>,
    threads: Vec<JoinHandle<()>>,
    spout_threads: Vec<JoinHandle<()>>,
    acker_handle: JoinHandle<()>,
}

impl TopologyHandle {
    /// Metrics snapshots of all components.
    pub fn metrics(&self) -> Vec<MetricsSnapshot> {
        self.metrics.snapshot()
    }

    /// The exposition registry every runtime metric of this topology is
    /// attached to (a clone shares the underlying entries). Render it with
    /// [`obs::Registry::render`] or combine several registries with
    /// [`obs::render_registries`].
    pub fn registry(&self) -> obs::Registry {
        self.registry.clone()
    }

    /// Number of tuples currently queued, buffered or executing.
    pub fn inflight(&self) -> i64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Number of incomplete tracked tuple trees.
    pub fn pending_trees(&self) -> i64 {
        self.acker_pending.load(Ordering::Relaxed)
    }

    /// Total roots emitted by local spout tasks so far (tracked and
    /// untracked).
    pub fn emitted_roots(&self) -> u64 {
        self.emitted_roots.load(Ordering::Relaxed)
    }

    /// True when every local spout task's most recent poll found nothing
    /// to emit.
    pub fn spouts_idle(&self) -> bool {
        self.spout_idle.iter().all(|f| f.load(Ordering::Acquire))
    }

    /// A sink for one frame of `n_tuples` tuples that crossed a process
    /// boundary, bound for task `task` of `component`: the cluster codec
    /// reads the frame into it, then [`Injector::deliver`] hands the
    /// batches to the task's queue. Bytes off a socket reach this, so a
    /// destination this topology does not run is an error, not a panic.
    pub fn injector(
        &self,
        component: &str,
        task: usize,
        n_tuples: usize,
    ) -> Result<Injector<'_>, &'static str> {
        let txs = self
            .bolt_txs
            .get(component)
            .ok_or("unknown destination component")?;
        let tx = txs.get(task).ok_or("destination task out of range")?;
        Ok(Injector::new(tx, &self.sources, &self.inflight, n_tuples))
    }

    /// Hands this process's acker the `(root, xor)` deltas and failed
    /// roots another worker's acker shipped for trees rooted here (see
    /// [`crate::ack::AckRoute`]). A root no tree here has — one of a dead
    /// incarnation's — is swept after the message timeout.
    pub fn ack_remote(&self, xors: Vec<(u64, u64)>, fails: &[u64]) {
        if !xors.is_empty() {
            let _ = self.acker_tx.send(AckerMsg::XorBatch(xors));
        }
        for &root in fails {
            let _ = self.acker_tx.send(AckerMsg::Fail { root });
        }
    }

    /// Stops spouts from emitting new tuples; in-flight tuples continue to
    /// be processed.
    pub fn deactivate(&self) {
        for tx in &self.spout_ctl_txs {
            let _ = tx.send(SpoutMsg::Deactivate);
        }
    }

    /// Resumes spout emission after a [`TopologyHandle::deactivate`] (the
    /// tail of a checkpoint barrier: drain, seal, resume).
    pub fn activate(&self) {
        for tx in &self.spout_ctl_txs {
            let _ = tx.send(SpoutMsg::Activate);
        }
    }

    /// Runs `seal` inside a drain/seal barrier: deactivates the spouts,
    /// waits for every in-flight tuple tree to complete, invokes `seal` on
    /// the quiesced topology, then reactivates the spouts. With the
    /// pipeline drained, everything the spouts have emitted is fully
    /// reflected in bolt state and the replay trackers' committed offsets
    /// — exactly the consistency a checkpoint needs.
    ///
    /// Returns `None` (without calling `seal`) if the pipeline fails to
    /// drain within `timeout`. The spouts are reactivated either way.
    pub fn with_barrier<T>(&self, timeout: Duration, seal: impl FnOnce() -> T) -> Option<T> {
        self.deactivate();
        let drained = self.wait_idle(timeout);
        let out = if drained { Some(seal()) } else { None };
        self.activate();
        out
    }

    /// Blocks until no tuples are in flight and no tuple trees are pending,
    /// with the spouts quiescent across two consecutive checks. Returns
    /// `false` on timeout.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut last_roots = u64::MAX;
        let mut was_quiet = false;
        loop {
            let spouts_idle = self.spout_idle.iter().all(|f| f.load(Ordering::Acquire));
            let quiet = spouts_idle
                && self.inflight.load(Ordering::Relaxed) == 0
                && self.acker_pending.load(Ordering::Relaxed) == 0;
            let roots = self.emitted_roots.load(Ordering::Relaxed);
            // Two consecutive quiet observations with a stable root count
            // bridge the gap between a spout's emit and the acker seeing
            // its Init message.
            if quiet && was_quiet && roots == last_roots {
                return true;
            }
            was_quiet = quiet;
            last_roots = roots;
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Deactivates spouts then waits for the pipeline to drain.
    pub fn drain(&self, timeout: Duration) -> bool {
        self.deactivate();
        self.wait_idle(timeout)
    }

    /// Manually injects a tick to every task of `component` (mostly for
    /// tests; production ticks come from `tick_interval`).
    pub fn tick(&self, component: &str) {
        if let Some(txs) = self.bolt_txs.get(component) {
            for tx in txs {
                let _ = tx.send(BoltMsg::Tick);
            }
        }
    }

    /// Abrupt teardown: stops every task **without** draining. Queued and
    /// in-flight tuple trees are abandoned mid-flight, their offsets never
    /// commit, and whatever partial writes already landed stay as they
    /// are — the in-process analogue of a worker being SIGKILLed. Used by
    /// the process-kill recovery tests; production restarts should prefer
    /// [`TopologyHandle::shutdown`].
    pub fn kill(mut self) {
        for tx in &self.spout_ctl_txs {
            let _ = tx.send(SpoutMsg::Shutdown);
        }
        for txs in self.bolt_txs.values() {
            for tx in txs {
                let _ = tx.send(BoltMsg::Shutdown);
            }
        }
        let _ = self.acker_tx.send(AckerMsg::Shutdown);
        for t in self.spout_threads.drain(..) {
            let _ = t.join();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let _ = self.acker_handle.join();
    }

    /// Graceful shutdown: drain (bounded by `timeout`), then stop all tasks
    /// and join every thread. Returns final metrics.
    pub fn shutdown(mut self, timeout: Duration) -> Vec<MetricsSnapshot> {
        self.drain(timeout);
        for tx in &self.spout_ctl_txs {
            let _ = tx.send(SpoutMsg::Shutdown);
        }
        for t in self.spout_threads.drain(..) {
            let _ = t.join();
        }
        for txs in self.bolt_txs.values() {
            for tx in txs {
                let _ = tx.send(BoltMsg::Shutdown);
            }
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let _ = self.acker_tx.send(AckerMsg::Shutdown);
        let _ = self.acker_handle.join();
        self.metrics.snapshot()
    }
}
