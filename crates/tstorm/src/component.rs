//! Spout and bolt traits — the user-facing programming model.

use crate::ack::SpoutMsg;
use crate::collector::{BoltCollector, SpoutCollector};
use crate::tuple::{Schema, Tuple};
use crossbeam::channel::Sender;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Declaration of one output stream of a component.
#[derive(Debug, Clone)]
pub struct StreamDef {
    /// Stream id (`"default"` for the main stream).
    pub id: String,
    /// Field names of tuples emitted on this stream.
    pub schema: Schema,
}

impl StreamDef {
    /// Declares a stream `id` with the given field names.
    pub fn new<I, S>(id: &str, fields: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        StreamDef {
            id: id.to_string(),
            schema: Schema::new(fields),
        }
    }
}

/// Per-task information handed to `open`/`prepare`.
#[derive(Debug, Clone)]
pub struct TaskContext {
    /// Component name in the topology.
    pub component: String,
    /// Index of this task within the component, `0..n_tasks`.
    pub task_index: usize,
    /// Total parallelism of the component.
    pub n_tasks: usize,
}

/// A source of tuples. One instance is created per task via the registered
/// factory, so implementations may keep mutable per-task state freely.
pub trait Spout: Send {
    /// Called once before the first `next_tuple`.
    fn open(&mut self, _ctx: &TaskContext) {}

    /// Emits zero or more tuples. Returns `false` when there was nothing to
    /// emit, in which case the task sleeps until a control message (ack,
    /// fail, lifecycle) or a [`SpoutWaker::wake`] arrives. A source that
    /// never wakes its task is polled on a capped exponential backoff
    /// instead (1 ms doubling to 20 ms), so its data can wait that long.
    fn next_tuple(&mut self, collector: &mut SpoutCollector) -> bool;

    /// A tuple tree rooted at the message emitted with `msg_id` completed.
    fn ack(&mut self, _msg_id: u64) {}

    /// A tuple tree rooted at `msg_id` failed (explicitly or by timeout).
    fn fail(&mut self, _msg_id: u64) {}

    /// Called on shutdown.
    fn close(&mut self) {}

    /// Output stream declarations; consumers can only subscribe to declared
    /// streams.
    fn declare_outputs(&self) -> Vec<StreamDef>;
}

thread_local! {
    static CURRENT_WAKER: RefCell<Option<SpoutWaker>> = const { RefCell::new(None) };
}

/// Ends the idle wait of one spout task from any thread: a source hands
/// it to whatever learns of new data (a log append, a socket read), so
/// the record is polled now instead of when the idle backoff expires.
///
/// Wakes coalesce: at most one is queued on the task's control channel
/// at a time. The runtime re-arms the waker before every poll that may
/// end in an idle wait, so a wake after that point always reaches the
/// task; while the task is busy the waker stays disarmed and a wake costs
/// one atomic load. A wake only ends a wait — it never re-activates a
/// spout the runtime deactivated (a checkpoint barrier holds).
#[derive(Clone)]
pub struct SpoutWaker {
    ctl: Sender<SpoutMsg>,
    /// Set by the first wake after a re-arm, cleared by the next re-arm.
    /// The flag carries no data: a woken poll sees an appended record
    /// because the append and the poll are ordered by the source's own
    /// lock, and a wake that finds the flag set was preceded by one that
    /// queued a `Wake` after the task's latest re-arm.
    woken: Arc<AtomicBool>,
}

impl SpoutWaker {
    pub(crate) fn new(ctl: Sender<SpoutMsg>) -> Self {
        SpoutWaker {
            ctl,
            woken: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The waker of the spout task running on this thread — the runtime
    /// installs it before [`Spout::open`] — or `None` off a spout task
    /// (a test driving a spout by hand).
    pub fn current() -> Option<SpoutWaker> {
        CURRENT_WAKER.with(|w| w.borrow().clone())
    }

    /// Queues a `Wake` for the task unless a wake since its latest re-arm
    /// already did. Never blocks. Safe after the topology is gone.
    pub fn wake(&self) {
        if !self.woken.load(Ordering::SeqCst) && !self.woken.swap(true, Ordering::SeqCst) {
            // The task is gone once its channel is: nothing to wake.
            let _ = self.ctl.send(SpoutMsg::Wake);
        }
    }

    pub(crate) fn install(&self) {
        CURRENT_WAKER.with(|w| *w.borrow_mut() = Some(self.clone()));
    }

    /// Called by the task before a poll that may end in an idle wait:
    /// every wake from here on queues a fresh `Wake`.
    pub(crate) fn rearm(&self) {
        self.woken.store(false, Ordering::SeqCst);
    }
}

/// A processing node. `execute` is invoked for every incoming tuple; tuples
/// emitted from within `execute` are automatically anchored to the input
/// (at-least-once semantics), and the input is acked when `execute` returns
/// `Ok` and failed when it returns `Err`.
pub trait Bolt: Send {
    /// Called once before the first `execute`.
    fn prepare(&mut self, _ctx: &TaskContext) {}

    /// Processes one input tuple.
    fn execute(&mut self, tuple: &Tuple, collector: &mut BoltCollector) -> Result<(), String>;

    /// Picks the completion granularity of this bolt's one execute path.
    /// The runtime always calls [`Bolt::execute_batch`]: with the whole
    /// run when this returns `true`, with one tuple at a time otherwise
    /// (the default), each call acked or failed as a unit. Opt in when the
    /// bolt can merge same-key work across a batch (e.g. summing counter
    /// deltas before touching the store); completion then becomes
    /// all-or-nothing per run, which is safe under at-least-once replay
    /// and exact under the per-(source, key) dedup layer.
    fn supports_batch(&self) -> bool {
        false
    }

    /// Processes a chunk of input tuples in one call: the whole run when
    /// [`Bolt::supports_batch`] returns `true`, a single tuple otherwise.
    /// `Ok` acks every tuple in the chunk; `Err` (or a panic) fails each
    /// distinct root in it once and those tuples replay. The runtime
    /// pre-anchors the collector to the union of the chunk's anchors;
    /// implementations that emit per input tuple should call
    /// [`BoltCollector::anchor_to`] with the relevant input before each
    /// emit so the tuple tree stays precise. The default does exactly
    /// that around [`Bolt::execute`].
    fn execute_batch(
        &mut self,
        tuples: &[Tuple],
        collector: &mut BoltCollector,
    ) -> Result<(), String> {
        for t in tuples {
            collector.anchor_to(t);
            self.execute(t, collector)?;
        }
        Ok(())
    }

    /// Called at the configured tick interval (see
    /// [`crate::topology::BoltDeclarer::tick_interval`]); used by windowed
    /// state and combiners to flush on time rather than on data.
    fn tick(&mut self, _collector: &mut BoltCollector) {}

    /// Called on shutdown.
    fn cleanup(&mut self) {}

    /// Output stream declarations (empty for terminal bolts).
    fn declare_outputs(&self) -> Vec<StreamDef> {
        Vec::new()
    }
}

impl Spout for Box<dyn Spout> {
    fn open(&mut self, ctx: &TaskContext) {
        (**self).open(ctx)
    }
    fn next_tuple(&mut self, collector: &mut SpoutCollector) -> bool {
        (**self).next_tuple(collector)
    }
    fn ack(&mut self, msg_id: u64) {
        (**self).ack(msg_id)
    }
    fn fail(&mut self, msg_id: u64) {
        (**self).fail(msg_id)
    }
    fn close(&mut self) {
        (**self).close()
    }
    fn declare_outputs(&self) -> Vec<StreamDef> {
        (**self).declare_outputs()
    }
}

impl Bolt for Box<dyn Bolt> {
    fn prepare(&mut self, ctx: &TaskContext) {
        (**self).prepare(ctx)
    }
    fn execute(&mut self, tuple: &Tuple, collector: &mut BoltCollector) -> Result<(), String> {
        (**self).execute(tuple, collector)
    }
    fn supports_batch(&self) -> bool {
        (**self).supports_batch()
    }
    fn execute_batch(
        &mut self,
        tuples: &[Tuple],
        collector: &mut BoltCollector,
    ) -> Result<(), String> {
        (**self).execute_batch(tuples, collector)
    }
    fn tick(&mut self, collector: &mut BoltCollector) {
        (**self).tick(collector)
    }
    fn cleanup(&mut self) {
        (**self).cleanup()
    }
    fn declare_outputs(&self) -> Vec<StreamDef> {
        (**self).declare_outputs()
    }
}

impl<F> Bolt for F
where
    F: FnMut(&Tuple, &mut BoltCollector) -> Result<(), String> + Send,
{
    fn execute(&mut self, tuple: &Tuple, collector: &mut BoltCollector) -> Result<(), String> {
        self(tuple, collector)
    }
}
