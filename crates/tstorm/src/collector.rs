//! Output collectors: the emit path shared by spouts and bolts, including
//! routing, anchoring, in-flight accounting and batch coalescing.
//!
//! Emits do not go straight to the downstream queue. Each emitter keeps one
//! *value arena* per (stream, consumer edge, task): `dispatch` routes every
//! tuple individually (keyed placement never depends on batching) but only
//! copies its values into the target's arena and records a `(len, anchors)`
//! meta entry. Arenas flush — one shared `BatchShared` allocation, one
//! `send`, one wake for the whole batch — when they reach `batch_size`, and
//! are force-flushed at the end of every bolt execute run, on ticks, and
//! whenever a spout goes idle or its flush interval elapses. In-flight
//! accounting happens at arena-append time, so `wait_idle` counts buffered
//! tuples as in flight.
//!
//! The allocation budget per tuple on this path is ~zero amortized: values
//! are copied into a reused `Vec`, anchors are inline for the 0/1-root
//! cases ([`AnchorSet`]), and the per-flush cost (one arena, one meta list,
//! one `Arc`) is shared by up to `batch_size` tuples.

use crate::ack::{fold_per_root, AckerMsg, InitEntry, RootTag};
use crate::channel::{BatchSender, Weigh};
use crate::grouping::{Route, RoutingRule};
use crate::metrics::ComponentMetrics;
use crate::tuple::{AnchorSet, BatchShared, Schema, Tuple, Value, DEFAULT_STREAM};
use crossbeam::channel::Sender;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Per-tuple metadata inside a batch message: the tuple's width in the
/// shared value arena and its anchor set.
#[derive(Debug)]
pub(crate) struct TupleMeta {
    pub(crate) len: u32,
    pub(crate) anchors: AnchorSet,
}

/// A batch of tuples sharing one value arena, shipped as a single channel
/// message. The receiver materializes [`Tuple`] windows out of it (one
/// `Arc` bump each); the cluster transport reads it in place through the
/// accessors below.
#[derive(Debug)]
pub struct TupleBatch {
    pub(crate) shared: Arc<BatchShared>,
    pub(crate) metas: Vec<TupleMeta>,
}

impl TupleBatch {
    /// Number of tuples in the batch.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// True when the batch carries no tuple.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Stream every tuple of the batch was emitted on.
    pub fn stream(&self) -> &str {
        &self.shared.stream
    }

    /// Component that emitted the batch.
    pub fn src_component(&self) -> &str {
        &self.shared.src_component
    }

    /// Task index (within the source component) that emitted the batch.
    pub fn src_task(&self) -> usize {
        self.shared.src_task
    }

    /// Each tuple's values and `(root, edge)` anchor pairs, in batch
    /// order, borrowed from the arena.
    pub fn tuples(&self) -> impl Iterator<Item = (&[Value], &[(u64, u64)])> {
        let mut start = 0usize;
        self.metas.iter().map(move |meta| {
            let end = start + meta.len as usize;
            let values = &self.shared.values[start..end];
            start = end;
            (values, meta.anchors.pairs())
        })
    }

    /// Materializes every tuple of the batch into `run`.
    pub(crate) fn extend_into(self, run: &mut Vec<Tuple>) {
        let mut start = 0u32;
        for meta in self.metas {
            run.push(Tuple::from_batch(
                &self.shared,
                start,
                meta.len,
                meta.anchors,
            ));
            start += meta.len;
        }
    }
}

/// Messages delivered to bolt task queues.
#[derive(Debug)]
pub(crate) enum BoltMsg {
    Batch(TupleBatch),
    Tick,
    Shutdown,
}

impl BoltMsg {
    /// Tuples the message carries: a batch's length, 0 for control
    /// messages.
    pub(crate) fn tuples(&self) -> usize {
        match self {
            BoltMsg::Batch(b) => b.metas.len(),
            BoltMsg::Tick | BoltMsg::Shutdown => 0,
        }
    }
}

impl Weigh for BoltMsg {
    /// Channel capacity and drain budgets are counted in tuples, so a
    /// batch message weighs as many slots as it carries; a control
    /// message takes one slot.
    fn weight(&self) -> usize {
        self.tuples().max(1)
    }
}

/// One subscription edge from a producer stream to a consumer component.
pub(crate) struct ConsumerEdge {
    pub(crate) rule: Arc<RoutingRule>,
    pub(crate) senders: Vec<BatchSender<BoltMsg>>,
}

/// Per-producer-stream output spec: interned stream name, schema, consumers.
pub(crate) struct StreamOutputs {
    pub(crate) stream: Arc<str>,
    pub(crate) schema: Schema,
    pub(crate) consumers: Vec<ConsumerEdge>,
}

/// All output streams of one component. Streams are index-aligned and
/// resolved by a short linear name scan (components declare a handful of
/// streams at most), replacing the per-emit `HashMap` + SipHash lookup of
/// the name-keyed layout.
#[derive(Default)]
pub(crate) struct OutputMap {
    pub(crate) streams: Vec<StreamOutputs>,
}

impl OutputMap {
    /// Adds a stream; emit-time indices follow insertion order.
    pub(crate) fn push(&mut self, out: StreamOutputs) {
        self.streams.push(out);
    }

    /// Resolves a stream id to its index + spec.
    #[inline]
    pub(crate) fn get(&self, name: &str) -> Option<(usize, &StreamOutputs)> {
        self.streams
            .iter()
            .position(|s| &*s.stream == name)
            .map(|i| (i, &self.streams[i]))
    }
}

/// Pending-value arena for one consumer task: tuples appended since the
/// last flush, as concatenated values plus per-tuple metas.
#[derive(Default)]
struct ValueBuf {
    values: Vec<Value>,
    metas: Vec<TupleMeta>,
}

/// Scatter state for one consumer edge: the shuffle stickiness for the
/// current batch epoch and one value arena per consumer task.
struct EdgeBuffers {
    sticky: Option<usize>,
    bufs: Vec<ValueBuf>,
}

/// State shared by both collector kinds.
pub(crate) struct EmitterCore {
    pub(crate) component: Arc<str>,
    pub(crate) task_index: usize,
    pub(crate) outputs: Arc<OutputMap>,
    pub(crate) acker: Sender<AckerMsg>,
    pub(crate) inflight: Arc<AtomicI64>,
    pub(crate) metrics: Arc<ComponentMetrics>,
    pub(crate) rng: SmallRng,
    pub(crate) fault_plan: tchaos::FaultPlan,
    batch_size: usize,
    /// Index-aligned with `outputs.streams`: per-edge scatter arenas.
    scatter: Vec<Vec<EdgeBuffers>>,
    /// Emits since the last flush, folded into the `emitted` counter at
    /// flush time (one atomic add per batch instead of one per tuple).
    emitted_pending: u64,
}

impl EmitterCore {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        component: Arc<str>,
        task_index: usize,
        outputs: Arc<OutputMap>,
        acker: Sender<AckerMsg>,
        inflight: Arc<AtomicI64>,
        metrics: Arc<ComponentMetrics>,
        fault_plan: tchaos::FaultPlan,
        batch_size: usize,
    ) -> Self {
        let scatter = outputs
            .streams
            .iter()
            .map(|out| {
                out.consumers
                    .iter()
                    .map(|edge| EdgeBuffers {
                        sticky: None,
                        bufs: (0..edge.senders.len())
                            .map(|_| ValueBuf::default())
                            .collect(),
                    })
                    .collect()
            })
            .collect();
        EmitterCore {
            component,
            task_index,
            outputs,
            acker,
            inflight,
            metrics,
            rng: SmallRng::from_entropy(),
            fault_plan,
            batch_size: batch_size.max(1),
            scatter,
            emitted_pending: 0,
        }
    }

    /// Routes `values` on `stream` into the scatter arena of every
    /// subscribed consumer task, flushing any arena that reaches the batch
    /// size. `make_anchors` produces the per-delivery anchor set and lets
    /// the caller observe the generated edge ids.
    fn dispatch(
        &mut self,
        stream: &str,
        values: &[Value],
        mut make_anchors: impl FnMut(&mut SmallRng) -> AnchorSet,
    ) {
        // Split borrows: the output map is read while the scatter arenas,
        // the RNG and the anchor callback are written.
        let EmitterCore {
            component,
            task_index,
            outputs,
            inflight,
            rng,
            fault_plan,
            batch_size,
            scatter,
            ..
        } = self;
        let (stream_idx, out) = outputs.get(stream).unwrap_or_else(|| {
            panic!("component `{component}` emitted on undeclared stream `{stream}`")
        });
        assert_eq!(
            values.len(),
            out.schema.len(),
            "component `{component}` emitted {} values on stream `{stream}` which declares {} fields",
            values.len(),
            out.schema.len()
        );
        for (edge, ebuf) in out.consumers.iter().zip(scatter[stream_idx].iter_mut()) {
            let n_tasks = edge.senders.len();
            if n_tasks == 0 {
                continue;
            }
            let tasks = match edge.rule.route_buffered(values, n_tasks, &mut ebuf.sticky) {
                Route::One(task) => task..task + 1,
                Route::All => 0..n_tasks,
            };
            for task in tasks {
                buffer_one(
                    rng,
                    fault_plan,
                    inflight,
                    component,
                    *task_index,
                    out,
                    values,
                    &mut make_anchors,
                    *batch_size,
                    edge,
                    ebuf,
                    task,
                );
            }
        }
        self.emitted_pending += 1;
    }

    /// See [`BoltCollector::task_of`].
    fn task_of(&self, stream: &str, values: &[Value]) -> usize {
        let Some((_, out)) = self.outputs.get(stream) else {
            return 0;
        };
        out.consumers
            .iter()
            .filter(|edge| !edge.senders.is_empty())
            .fold(0, |placement, edge| {
                let n_tasks = edge.senders.len();
                match edge.rule.keyed_task(values, n_tasks) {
                    Some(task) => placement * n_tasks + task,
                    None => placement,
                }
            })
    }

    /// Flushes every non-empty scatter arena and resets shuffle
    /// stickiness, advancing the round-robin by whole batches.
    pub(crate) fn flush(&mut self) {
        if self.emitted_pending > 0 {
            self.metrics.emitted.add(self.emitted_pending);
            self.emitted_pending = 0;
        }
        for (out, ebufs) in self.outputs.streams.iter().zip(self.scatter.iter_mut()) {
            for (edge, ebuf) in out.consumers.iter().zip(ebufs.iter_mut()) {
                for (task, buf) in ebuf.bufs.iter_mut().enumerate() {
                    flush_buffer(
                        &self.fault_plan,
                        &self.inflight,
                        &self.component,
                        self.task_index,
                        out,
                        &edge.senders[task],
                        buf,
                    );
                }
                ebuf.sticky = None;
            }
        }
    }
}

/// Anchors and appends one delivery to its scatter arena, flushing the
/// arena if it reached the batch size. (A free function so `dispatch` can
/// borrow `rng` and the scatter buffers simultaneously.)
#[allow(clippy::too_many_arguments)]
fn buffer_one(
    rng: &mut SmallRng,
    fault_plan: &tchaos::FaultPlan,
    inflight: &AtomicI64,
    component: &Arc<str>,
    task_index: usize,
    out: &StreamOutputs,
    values: &[Value],
    make_anchors: &mut impl FnMut(&mut SmallRng) -> AnchorSet,
    batch_size: usize,
    edge: &ConsumerEdge,
    ebuf: &mut EdgeBuffers,
    task: usize,
) {
    let anchors = make_anchors(rng);
    // Fault injection sits after `make_anchors` so the edge id is already
    // folded into the tree: a dropped delivery can never be acked, the
    // tree times out, and the spout replays — exactly a lost message.
    if fault_plan.should_fault(tchaos::FaultSite::TupleDrop) {
        return;
    }
    if fault_plan.should_fault(tchaos::FaultSite::TupleDelay) {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let buf = &mut ebuf.bufs[task];
    buf.values.extend_from_slice(values);
    buf.metas.push(TupleMeta {
        len: values.len() as u32,
        anchors,
    });
    if buf.metas.len() >= batch_size {
        flush_buffer(
            fault_plan,
            inflight,
            component,
            task_index,
            out,
            &edge.senders[task],
            buf,
        );
        ebuf.sticky = None;
    }
}

/// Ships one scatter arena downstream as a single batch message. The
/// arena `Vec`s keep their capacity across flushes; the batch itself is
/// one exact-size value slab plus one meta list shared by every tuple in
/// it.
#[allow(clippy::too_many_arguments)]
fn flush_buffer(
    fault_plan: &tchaos::FaultPlan,
    inflight: &AtomicI64,
    component: &Arc<str>,
    task_index: usize,
    out: &StreamOutputs,
    sender: &BatchSender<BoltMsg>,
    buf: &mut ValueBuf,
) {
    if buf.metas.is_empty() {
        return;
    }
    // The whole in-flight batch vanishes at the transport boundary: every
    // tree in it can no longer complete, times out, and replays from the
    // spout — the batched analogue of TupleDrop. The batch was never
    // counted in flight (accounting happens just before the send below).
    if fault_plan.should_fault(tchaos::FaultSite::BatchDrop) {
        buf.values.clear();
        buf.metas.clear();
        return;
    }
    // Count the whole batch in flight in one add, *before* the send: the
    // consumer's matching subtract (after its execute run) must never be
    // observable first, or `wait_idle` could see a spuriously idle window.
    inflight.fetch_add(buf.metas.len() as i64, Ordering::Relaxed);
    let shared = Arc::new(BatchShared {
        values: buf.values.as_slice().into(),
        schema: out.schema.clone(),
        stream: Arc::clone(&out.stream),
        src_component: Arc::clone(component),
        src_task: task_index,
    });
    buf.values.clear();
    let cap = buf.metas.len();
    let metas = std::mem::replace(&mut buf.metas, Vec::with_capacity(cap));
    let msg = BoltMsg::Batch(TupleBatch { shared, metas });
    let weight = msg.weight();
    if sender.send(msg).is_err() {
        // Consumer already shut down; drop silently (only happens during
        // teardown).
        inflight.fetch_sub(weight as i64, Ordering::Relaxed);
    }
}

/// Folds `edge` into the per-root XOR accumulator `pending`.
fn fold_xor(pending: &mut Vec<(u64, u64)>, root: u64, edge: u64) {
    if let Some(slot) = pending.iter_mut().find(|(r, _)| *r == root) {
        slot.1 ^= edge;
    } else {
        pending.push((root, edge));
    }
}

/// Collector handed to [`crate::component::Spout::next_tuple`].
pub struct SpoutCollector {
    pub(crate) core: EmitterCore,
    /// This task's position among the process's spout tasks: the row its
    /// acker notifies.
    pub(crate) slot: usize,
    /// Written into every root id, so any worker can tell whose acker
    /// tracks the tree.
    pub(crate) tag: RootTag,
    pub(crate) emitted_roots: Arc<AtomicU64>,
    /// Root registrations accumulated since the last flush; shipped to the
    /// acker as one `InitBatch` alongside the flushed deliveries.
    pub(crate) pending_inits: Vec<InitEntry>,
    /// Stamps `emit_ms` on every tracked root so the acker can measure
    /// whole-pipeline latency (same clock as the timeout sweep).
    pub(crate) clock: tchaos::Clock,
    /// Cached `clock.now_ms()`, refreshed on every flush: reading the
    /// clock costs an `Instant::now` and emit batches span well under the
    /// 1 ms flush interval, so per-emit reads buy no extra precision.
    pub(crate) now_ms: u64,
}

impl SpoutCollector {
    /// Emits on the default stream. With `Some(msg_id)` the tuple tree is
    /// tracked and `ack`/`fail` will eventually be called with `msg_id`.
    /// A thin wrapper over [`SpoutCollector::emit_values`] for spouts that
    /// already own their values in a `Vec` (the benchmark's traced spout
    /// is one); bolts have only the slice form.
    pub fn emit(&mut self, values: Vec<Value>, msg_id: Option<u64>) {
        self.emit_values_on(DEFAULT_STREAM, &values, msg_id);
    }

    /// Emits on the default stream from a borrowed slice — the
    /// allocation-free fast path (values are copied into the batch arena;
    /// build them in a stack array or a reused buffer).
    pub fn emit_values(&mut self, values: &[Value], msg_id: Option<u64>) {
        self.emit_values_on(DEFAULT_STREAM, values, msg_id);
    }

    /// Emits on a named stream from a borrowed slice.
    pub fn emit_values_on(&mut self, stream: &str, values: &[Value], msg_id: Option<u64>) {
        self.emitted_roots.fetch_add(1, Ordering::Relaxed);
        match msg_id {
            None => {
                self.core.dispatch(stream, values, |_| AnchorSet::None);
            }
            Some(id) => {
                let root = self.tag.apply(self.core.rng.gen());
                let mut xor = 0u64;
                self.core.dispatch(stream, values, |rng| {
                    let edge: u64 = rng.gen();
                    xor ^= edge;
                    AnchorSet::One((root, edge))
                });
                // The Init is buffered and rides the next flush rather
                // than paying one acker send per emit. Deliveries can
                // therefore be executed (even XOR-acked) before their Init
                // arrives; that is safe for the same reason Xor-before-Init
                // is: the entry only completes once Init has named the
                // owning spout, and a batch lost before delivery leaves
                // its XOR non-zero until the timeout sweep fails it back
                // to the spout.
                self.pending_inits.push(InitEntry {
                    root,
                    xor,
                    slot: self.slot,
                    msg_id: id,
                    emit_ms: self.now_ms,
                });
            }
        }
    }

    /// Flushes buffered emits downstream and the root registrations
    /// accumulated since the last flush to the acker (runtime-driven: on
    /// idle and on the configured flush interval).
    pub(crate) fn flush(&mut self) {
        self.now_ms = self.clock.now_ms();
        self.core.flush();
        if !self.pending_inits.is_empty() {
            let batch = std::mem::take(&mut self.pending_inits);
            let _ = self.core.acker.send(AckerMsg::InitBatch(batch));
        }
    }
}

/// Collector handed to [`crate::component::Bolt::execute`] and `tick`.
pub struct BoltCollector {
    pub(crate) core: EmitterCore,
    /// Anchors emits attach to: the union of the executing chunk's
    /// anchors until [`BoltCollector::anchor_to`] narrows them (empty
    /// inside `tick`).
    pub(crate) current_anchors: AnchorSet,
    /// XOR accumulated by emits of the chunk currently executing. Folded
    /// into `run_pending` when the chunk completes, discarded when it
    /// fails (its deliveries become orphans).
    pub(crate) tuple_pending: Vec<(u64, u64)>,
    /// XOR deltas accumulated across the whole execute run; folded per
    /// root and shipped to the acker as one `XorBatch` when the run ends.
    pub(crate) run_pending: Vec<(u64, u64)>,
}

impl BoltCollector {
    /// Emits on the default stream from a borrowed slice, anchored to the
    /// input tuple. The values are copied into the batch arena: build them
    /// in a stack array or a reused buffer.
    pub fn emit_values(&mut self, values: &[Value]) {
        self.emit_values_on(DEFAULT_STREAM, values);
    }

    /// Emits on a named stream from a borrowed slice, anchored to the
    /// input tuple.
    pub fn emit_values_on(&mut self, stream: &str, values: &[Value]) {
        let anchors = self.current_anchors.clone();
        let tuple_pending = &mut self.tuple_pending;
        self.core.dispatch(stream, values, |rng| match &anchors {
            AnchorSet::None => AnchorSet::None,
            AnchorSet::One((root, _)) => {
                let edge: u64 = rng.gen();
                fold_xor(tuple_pending, *root, edge);
                AnchorSet::One((*root, edge))
            }
            AnchorSet::Many(pairs) => {
                let new: Vec<(u64, u64)> = pairs
                    .iter()
                    .map(|&(root, _)| {
                        let edge: u64 = rng.gen();
                        fold_xor(tuple_pending, root, edge);
                        (root, edge)
                    })
                    .collect();
                AnchorSet::Many(new.into())
            }
        });
    }

    /// The consumer task that an emit of `values` on `stream` would be
    /// routed to, without emitting anything: for a stream with one
    /// consumer that groups by fields, the task the key hashes to; for a
    /// global grouping, 0. Emits with equal results land on the same task
    /// of every consumer, which lets a bolt pack several keys bound for
    /// one task into one tuple that carries any one of them. A consumer
    /// whose pick does not depend on the values (shuffle, all) adds
    /// nothing; with several keyed consumers the tasks are combined into
    /// one number (mixed radix), equal exactly when every task is.
    pub fn task_of(&self, stream: &str, values: &[Value]) -> usize {
        self.core.task_of(stream, values)
    }

    /// Re-anchors subsequent emits to `tuple`. Only needed inside a custom
    /// [`crate::component::Bolt::execute_batch`] that emits per input
    /// tuple; the default `execute_batch` anchors each `execute` call.
    pub fn anchor_to(&mut self, tuple: &Tuple) {
        self.current_anchors = tuple.anchors.clone();
    }

    /// Called by the runtime when an execute chunk succeeds: appends its
    /// tuples' input edges and the edges it emitted to the run
    /// accumulator. Deltas are not folded per root here — a linear scan per
    /// tuple is quadratic in the run length — but sorted and coalesced once
    /// in `flush_run`.
    pub(crate) fn complete_ok(&mut self, tuples: &[Tuple]) {
        for t in tuples {
            self.run_pending.extend_from_slice(t.anchors.pairs());
        }
        self.run_pending.append(&mut self.tuple_pending);
    }

    /// Called by the runtime when an execute chunk fails (`Err` or panic):
    /// fails each distinct root across the chunk, once. Its emitted edges
    /// are discarded (any already-buffered children deliver as orphans).
    pub(crate) fn fail_run(&mut self, tuples: &[Tuple]) {
        self.tuple_pending.clear();
        let mut roots: Vec<u64> = tuples
            .iter()
            .flat_map(|t| t.anchors.pairs().iter().map(|&(root, _)| root))
            .collect();
        roots.sort_unstable();
        roots.dedup();
        for root in roots {
            let _ = self.core.acker.send(AckerMsg::Fail { root });
        }
    }

    /// Ends an execute run: flushes buffered emits downstream, folds the
    /// run's XOR deltas per root ([`fold_per_root`]) and ships them to the
    /// acker as a single message.
    pub(crate) fn flush_run(&mut self) {
        self.core.flush();
        if !self.run_pending.is_empty() {
            fold_per_root(&mut self.run_pending);
            let batch = std::mem::take(&mut self.run_pending);
            let _ = self.core.acker.send(AckerMsg::XorBatch(batch));
        }
    }
}
