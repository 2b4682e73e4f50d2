//! Process-boundary support: topology slicing and the two ends of a
//! remote edge.
//!
//! A cluster worker runs only a *slice* of the topology: components named
//! in [`SliceSpec::local`] get real task threads; every other component
//! is assumed to run in some other process. Tuples routed to a remote
//! component still travel as runtime [`TupleBatch`]es: an egress pump
//! drains everything queued for its task, up to the queue's capacity, and
//! hands the batches, borrowed, to the [`SliceSpec::egress`] callback,
//! which encodes frames straight from their arenas (the cluster layer
//! ships them over TCP). On the receiving side the cluster
//! codec reads a frame body tuple by tuple into a [`TupleSink`]; the
//! runtime's sink is the [`Injector`] from
//! [`crate::executor::TopologyHandle::injector`], which appends the
//! borrowed values into one batch arena per (source, stream, task) group
//! and delivers the groups to the destination task's queue. No tuple
//! becomes an owned [`WireTuple`] on either side; that form is the
//! codec's owned view for tests and probes.
//!
//! A slice runs its own acker, as a whole topology does, for the trees
//! its own spouts root. Its spouts write the worker's index into every
//! root id ([`crate::ack::RootTag`]), so a bolt anywhere in the cluster
//! can name the acker a tree belongs to: deltas and failures for roots
//! another worker owns leave through [`SliceSpec::ack_route`]'s egress
//! and re-enter the owner through
//! [`crate::executor::TopologyHandle::ack_remote`]. Trees span processes
//! with the single-process completion semantics: an edge lost on the
//! wire is an edge never acked, the tree times out at its owner's acker,
//! and the owning spout replays it.

use crate::ack::AckRoute;
use crate::channel::BatchSender;
use crate::collector::{BoltMsg, TupleMeta};
use crate::tuple::{AnchorSet, BatchShared, Schema, Tuple, Value};
use std::collections::HashSet;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

pub use crate::collector::TupleBatch;

/// Callback receiving the batches one egress pump drained for a remote
/// component, everything queued up to the queue's capacity:
/// `(frame, dest_component, dest_task, batches)`. `frame` is a
/// buffer the pump keeps across calls and hands over empty, so the
/// transport can encode without allocating per call. Invoked from per-task
/// egress pump threads, so implementations may block (backpressure
/// propagates into the topology's bounded queues).
pub type EgressFn = Arc<dyn Fn(&mut Vec<u8>, &str, usize, &[TupleBatch]) + Send + Sync>;

/// The owned form of one tuple on the wire, for tests and probes; the
/// runtime's remote edges never build it.
///
/// The schema is not carried: every process builds the same topology, so
/// the destination re-attaches the schema declared for the
/// `(src_component, stream)` pair. Anchors travel verbatim — the tuple
/// stays tied to its original trees, which is what makes remote loss
/// replayable.
#[derive(Debug, Clone, PartialEq)]
pub struct WireTuple {
    /// Stream the tuple was emitted on.
    pub stream: String,
    /// Component that emitted it.
    pub src_component: String,
    /// Task index within the source component.
    pub src_task: usize,
    /// Field values in schema order.
    pub values: Vec<Value>,
    /// `(root, edge)` anchor pairs from the XOR ack tracker.
    pub anchors: Vec<(u64, u64)>,
}

impl WireTuple {
    /// Copies a runtime tuple into the owned form.
    pub fn from_tuple(t: &Tuple) -> Self {
        WireTuple {
            stream: t.stream().to_string(),
            src_component: t.src_component().to_string(),
            src_task: t.src_task(),
            values: t.values().to_vec(),
            anchors: t.anchors.pairs().to_vec(),
        }
    }
}

/// Receives the tuples of a frame body as the cluster codec reads them,
/// borrowed from the bytes. For each tuple the reader calls
/// [`TupleSink::open`] with its header, appends its values to the buffer
/// `open` returned, then calls [`TupleSink::close`] with its anchors. An
/// error rejects the whole frame.
pub trait TupleSink {
    /// Starts the next tuple; returns the buffer its values are appended
    /// to.
    fn open(
        &mut self,
        stream: &str,
        src_component: &str,
        src_task: usize,
    ) -> Result<&mut Vec<Value>, &'static str>;

    /// Ends the tuple [`TupleSink::open`] started: `n_values` values were
    /// appended, and `anchors` yields its `(root, edge)` pairs.
    fn close(
        &mut self,
        n_values: usize,
        anchors: impl ExactSizeIterator<Item = (u64, u64)>,
    ) -> Result<(), &'static str>;
}

/// Collects every tuple in the owned form.
impl TupleSink for Vec<WireTuple> {
    fn open(
        &mut self,
        stream: &str,
        src_component: &str,
        src_task: usize,
    ) -> Result<&mut Vec<Value>, &'static str> {
        let at = self.len();
        self.push(WireTuple {
            stream: stream.to_string(),
            src_component: src_component.to_string(),
            src_task,
            values: Vec::new(),
            anchors: Vec::new(),
        });
        Ok(&mut self[at].values)
    }

    fn close(
        &mut self,
        _n_values: usize,
        anchors: impl ExactSizeIterator<Item = (u64, u64)>,
    ) -> Result<(), &'static str> {
        if let Some(t) = self.last_mut() {
            t.anchors = anchors.collect();
        }
        Ok(())
    }
}

/// One stream some component of the topology declares: what an injected
/// tuple's `(src_component, stream)` header must name.
pub(crate) struct SourceStream {
    pub(crate) src_component: Arc<str>,
    pub(crate) stream: Arc<str>,
    pub(crate) schema: Schema,
}

/// The tuples of one frame that share a source stream and task: one
/// value arena and its metas, delivered as one [`TupleBatch`].
struct Group<'h> {
    source: &'h SourceStream,
    src_task: usize,
    values: Vec<Value>,
    metas: Vec<TupleMeta>,
}

/// The runtime's [`TupleSink`]: reads one remote frame into batch arenas
/// for one local task queue. Made by
/// [`crate::executor::TopologyHandle::injector`]; nothing reaches the
/// queue until [`Injector::deliver`], so a frame the codec rejects
/// halfway leaves no trace.
///
/// Tuples are grouped by `(source component, stream, source task)` in
/// first-seen order, and each group keeps its tuples in frame order. A
/// tuple whose header names a stream the topology does not declare, or
/// whose width differs from that stream's schema, rejects the frame.
pub struct Injector<'h> {
    tx: &'h BatchSender<BoltMsg>,
    sources: &'h [SourceStream],
    inflight: &'h AtomicI64,
    groups: Vec<Group<'h>>,
    /// Index of the group the open tuple belongs to.
    current: usize,
    /// Tuples the frame has yet to hand over: sizes the first group's
    /// arena so a one-group frame fills it without regrowth.
    remaining: usize,
}

impl<'h> Injector<'h> {
    pub(crate) fn new(
        tx: &'h BatchSender<BoltMsg>,
        sources: &'h [SourceStream],
        inflight: &'h AtomicI64,
        n_tuples: usize,
    ) -> Self {
        Injector {
            tx,
            sources,
            inflight,
            groups: Vec::new(),
            current: 0,
            remaining: n_tuples,
        }
    }

    /// Sends every group to the destination queue as one batch each,
    /// blocking while it is full, so transport backpressure reaches the
    /// sender.
    pub fn deliver(self) {
        let tuples: usize = self.groups.iter().map(|g| g.metas.len()).sum();
        if tuples == 0 {
            return;
        }
        self.inflight.fetch_add(tuples as i64, Ordering::Relaxed);
        let msgs: Vec<BoltMsg> = self
            .groups
            .into_iter()
            .map(|g| {
                BoltMsg::Batch(TupleBatch {
                    shared: Arc::new(BatchShared {
                        values: g.values.into_boxed_slice(),
                        schema: g.source.schema.clone(),
                        stream: Arc::clone(&g.source.stream),
                        src_component: Arc::clone(&g.source.src_component),
                        src_task: g.src_task,
                    }),
                    metas: g.metas,
                })
            })
            .collect();
        if let Err(e) = self.tx.send_batch(msgs) {
            // `undelivered` is in weight units, i.e. tuples.
            self.inflight
                .fetch_sub(e.undelivered as i64, Ordering::Relaxed);
        }
    }
}

impl Group<'_> {
    fn is(&self, stream: &str, src_component: &str, src_task: usize) -> bool {
        self.src_task == src_task
            && *self.source.stream == *stream
            && *self.source.src_component == *src_component
    }
}

impl TupleSink for Injector<'_> {
    fn open(
        &mut self,
        stream: &str,
        src_component: &str,
        src_task: usize,
    ) -> Result<&mut Vec<Value>, &'static str> {
        let same = self
            .groups
            .get(self.current)
            .is_some_and(|g| g.is(stream, src_component, src_task));
        if !same {
            self.current = match self
                .groups
                .iter()
                .position(|g| g.is(stream, src_component, src_task))
            {
                Some(i) => i,
                None => {
                    let source = self
                        .sources
                        .iter()
                        .find(|s| *s.stream == *stream && *s.src_component == *src_component)
                        .ok_or("unknown source stream")?;
                    // Only the first group is presized: a frame is almost
                    // always one group, and sizing every group by the
                    // frame's remaining count could reserve it many times.
                    let n = if self.groups.is_empty() {
                        self.remaining
                    } else {
                        0
                    };
                    self.groups.push(Group {
                        source,
                        src_task,
                        values: Vec::with_capacity(n * source.schema.len()),
                        metas: Vec::with_capacity(n),
                    });
                    self.groups.len() - 1
                }
            };
        }
        self.remaining = self.remaining.saturating_sub(1);
        Ok(&mut self.groups[self.current].values)
    }

    fn close(
        &mut self,
        n_values: usize,
        anchors: impl ExactSizeIterator<Item = (u64, u64)>,
    ) -> Result<(), &'static str> {
        let g = &mut self.groups[self.current];
        if n_values != g.source.schema.len() {
            return Err("tuple width differs from its stream's schema");
        }
        g.metas.push(TupleMeta {
            len: n_values as u32,
            anchors: anchors.collect::<AnchorSet>(),
        });
        Ok(())
    }
}

/// Which part of a topology this process runs, and how the rest of the
/// cluster is reached. Passed to [`crate::topology::Topology::launch_slice`].
pub struct SliceSpec {
    /// Components that get real task threads in this process. Placement
    /// is component-granular — all tasks of a component stay together —
    /// so fields groupings keep their key→task contract without any
    /// cross-process coordination.
    pub local: HashSet<String>,
    /// This worker's root tag, its acker's tree timeout, and where acker
    /// traffic for other workers' roots goes.
    pub ack_route: AckRoute,
    /// Receives every batch routed to a non-local component.
    pub egress: EgressFn,
}
