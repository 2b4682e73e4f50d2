//! XOR ack tracking, after Storm's acker design.
//!
//! Every root message emitted by a spout with a message id owns an entry in
//! the acker. Each tuple-tree edge is a random 64-bit id; the entry keeps
//! the XOR of all edge ids seen so far. Creating an edge and acking it each
//! XOR the same id into the entry, so the entry reaches zero exactly when
//! every edge has been both created and acked — regardless of arrival
//! order. A sweep fails entries older than the message timeout.
//!
//! Every process runs one acker, for the trees its own spouts root. In a
//! cluster each spout writes its worker index into the root id
//! ([`RootTag`]), and an acker ships the deltas and failures of roots
//! another worker owns to that worker through an [`AckerEgressFn`]; the
//! owner's acker is the only place a tree is tracked. In one process the
//! tag is zero bits wide and nothing leaves.

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use obs::LatencyHistogram;
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tchaos::Clock;

/// Control messages delivered to a spout task by its process's acker and
/// runtime.
#[derive(Debug)]
pub(crate) enum SpoutMsg {
    /// Acks for every tree completed by one acker message: one channel
    /// message (one wake) instead of one per tree.
    AckBatch(Vec<u64>),
    /// The tree rooted at this message id failed or timed out.
    Fail(u64),
    /// Stop emitting new tuples but keep servicing acks.
    Deactivate,
    /// Resume emitting after a [`SpoutMsg::Deactivate`] (e.g. once a
    /// checkpoint has sealed its snapshot).
    Activate,
    /// New data may be waiting: end the idle wait and poll (sent by
    /// [`crate::component::SpoutWaker`]; a deactivated spout stays
    /// deactivated).
    Wake,
    /// Close the spout and exit the task thread.
    Shutdown,
}

/// One root registration carried by [`AckerMsg::InitBatch`].
#[derive(Debug)]
pub(crate) struct InitEntry {
    /// Random 64-bit root id of the tuple tree.
    pub(crate) root: u64,
    /// XOR of the edge ids of the initial deliveries.
    pub(crate) xor: u64,
    /// The owning spout task's position among this process's spout tasks.
    pub(crate) slot: usize,
    /// User-supplied message id, echoed in ack/fail notifications.
    pub(crate) msg_id: u64,
    /// Spout emit time in clock milliseconds; the acker measures whole-
    /// pipeline (spout emit -> tree complete) latency from this stamp.
    pub(crate) emit_ms: u64,
}

/// Messages consumed by the acker loop, from this process's spouts and
/// bolts (and, through [`crate::executor::TopologyHandle::ack_remote`],
/// from other processes' ackers).
#[derive(Debug)]
pub(crate) enum AckerMsg {
    /// Roots registered since the spout's last flush, shipped together with
    /// the flushed deliveries: one acker message per flush instead of one
    /// per emitted tuple. Always local: a spout's roots are its own
    /// process's to track.
    InitBatch(Vec<InitEntry>),
    /// Pre-folded XOR deltas for a whole execute run: one `(root, xor)`
    /// delta per root, one channel message for the lot (XOR folding is
    /// order-independent).
    XorBatch(Vec<(u64, u64)>),
    /// Explicit failure of a tree.
    Fail {
        /// Root id of the failed tree.
        root: u64,
    },
    /// Stop the acker loop.
    Shutdown,
}

/// First bit of a root's owner tag. The root map's hasher passes roots
/// through, and the map picks a bucket from the low bits and a control
/// byte from the top 7; 16 tag bits from bit 40 sit clear of both.
const TAG_SHIFT: u32 = 40;

/// Which worker's acker owns a root: the spouts of worker `i` of `n`
/// write `i` into ⌈log2 n⌉ bits of every root id they draw, from bit 40.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RootTag {
    worker: u64,
    mask: u64,
}

impl RootTag {
    /// One process: zero bits wide, so a root is its RNG draw unchanged
    /// and every root is owned here.
    pub const LOCAL: RootTag = RootTag { worker: 0, mask: 0 };

    /// The tag of worker `worker` of `n_workers`; an error unless
    /// `worker < n_workers <= 65,536`.
    pub fn new(worker: usize, n_workers: usize) -> Result<RootTag, &'static str> {
        if n_workers > 1 << 16 {
            return Err("more workers than a root tag can name");
        }
        if worker >= n_workers {
            return Err("worker index out of range");
        }
        let width = usize::BITS - (n_workers - 1).leading_zeros();
        Ok(RootTag {
            worker: worker as u64,
            mask: ((1 << width) - 1) << TAG_SHIFT,
        })
    }

    /// `raw` with this worker's index written into the tag bits.
    pub fn apply(self, raw: u64) -> u64 {
        (raw & !self.mask) | (self.worker << TAG_SHIFT)
    }

    /// The index of the worker whose acker owns `root`.
    pub fn owner(self, root: u64) -> usize {
        ((root & self.mask) >> TAG_SHIFT) as usize
    }
}

/// Ships acker traffic for roots another worker owns: `(owner, xors,
/// fails)`, one call per owner with the `(root, xor)` deltas and failed
/// roots queued since the last call. Called from the acker thread, so it
/// may block.
pub type AckerEgressFn = Arc<dyn Fn(usize, Vec<(u64, u64)>, Vec<u64>) + Send + Sync>;

/// How a slice's acker reaches the trees other workers own (see
/// [`crate::remote::SliceSpec`]).
pub struct AckRoute {
    /// This worker's tag, which its spouts write into their roots.
    pub tag: RootTag,
    /// Tree timeout of this worker's acker: trees pending longer are
    /// failed back to their spout for replay.
    pub message_timeout: Duration,
    /// Receives the deltas and failures of roots other workers own.
    pub egress: AckerEgressFn,
}

impl AckRoute {
    /// A single process's route: every root is owned here, so the egress
    /// is never called.
    pub fn local(message_timeout: Duration) -> AckRoute {
        AckRoute {
            tag: RootTag::LOCAL,
            message_timeout,
            egress: Arc::new(|_, _, _| {}),
        }
    }
}

/// Deltas and failures queued for one other worker's acker.
#[derive(Default)]
struct PeerQueue {
    xors: Vec<(u64, u64)>,
    fails: Vec<u64>,
}

/// The acker ships its peer queues when its channel runs dry, or sooner
/// once this many deltas and failures have queued (64 KiB of frame).
const PEER_BATCH: usize = 4096;

/// Pass-through hasher for the root-keyed entry map. Roots are uniform
/// random u64s drawn from the emitters' RNGs (but for the [`RootTag`]
/// bits, which the map never reads), so they need no further mixing —
/// SipHash here costs two hashes per tuple for nothing.
#[derive(Default)]
struct RootHasher(u64);

impl std::hash::Hasher for RootHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        // Only reached if the key type ever changes away from u64.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

type RootMap = HashMap<u64, Entry, std::hash::BuildHasherDefault<RootHasher>>;

/// Where a root stands. Every state but `Tombstone` counts as pending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Deltas or a `Fail` arrived before the spout's Init (Init rides the
    /// spout's next flush, after the deliveries). `failed` holds the
    /// failure until Init names the spout to notify — dropping it would
    /// strand the tree until the timeout sweep.
    AwaitingInit { failed: bool },
    /// Init seen: the tree completes when `pending` reaches zero.
    Live,
    /// Failed and notified. Absorbs the deltas and repeat `Fail`s still in
    /// flight for the root (an upstream run's `XorBatch`, a second
    /// downstream failure), which would otherwise re-create a pending
    /// entry that holds `wait_idle` until the timeout sweep. The first
    /// sweep marks it `swept`, the next removes it silently, so it lives
    /// at least one full sweep period.
    Tombstone { swept: bool },
}

struct Entry {
    pending: u64,
    state: State,
    slot: usize,
    msg_id: u64,
    /// Creation time in clock milliseconds (logical under a mock clock).
    created: u64,
    /// Spout emit time in clock milliseconds (set by Init; completion can
    /// only happen after Init, so a placeholder before that is harmless).
    emit_ms: u64,
}

/// Folds `deltas` to one `(root, xor)` entry per root: one sort, then a
/// merge of adjacent entries (XOR is order-independent, so reordering is
/// free).
pub(crate) fn fold_per_root(deltas: &mut Vec<(u64, u64)>) {
    deltas.sort_unstable_by_key(|&(root, _)| root);
    deltas.dedup_by(|a, b| {
        if a.0 == b.0 {
            b.1 ^= a.1;
            true
        } else {
            false
        }
    });
}

/// The acker loop's state: the root map, the pending-tree gauge, the
/// spout channels it notifies and the traffic queued for other workers.
///
/// A tree costs no clock read and no shared atomic of its own: the acker
/// reads the clock once per message ([`Acker::handle`]) and folds the
/// message's gauge changes and latency observations into one update each
/// ([`Acker::settle`]) before it blocks again.
struct Acker {
    entries: RootMap,
    spouts: Vec<Sender<SpoutMsg>>,
    pending_gauge: Arc<AtomicI64>,
    clock: Clock,
    pipeline: Arc<LatencyHistogram>,
    /// Clock reading, in milliseconds, taken when the message being
    /// processed arrived: the creation time of every entry it creates and
    /// the completion time of every tree it completes.
    now_ms: u64,
    /// Change to the pending count not yet applied to `pending_gauge`.
    pending_delta: i64,
    /// Pipeline latencies not yet recorded, as `(ms, trees)`: one entry
    /// per distinct millisecond.
    latencies: Vec<(u64, u64)>,
    /// (slot, msg_id) of trees completed by the message being processed;
    /// drained into one `AckBatch` per spout slot after each message.
    completed: Vec<(usize, u64)>,
    tag: RootTag,
    /// Indexed by worker; this worker's own queue stays empty.
    peers: Vec<PeerQueue>,
    /// Deltas and failures across `peers`.
    queued: usize,
    egress: AckerEgressFn,
}

impl Acker {
    fn new(
        spouts: Vec<Sender<SpoutMsg>>,
        route: AckRoute,
        pending_gauge: Arc<AtomicI64>,
        clock: Clock,
        pipeline: Arc<LatencyHistogram>,
    ) -> Acker {
        // One queue per index the tag bits can name.
        let n_peers = (route.tag.mask >> TAG_SHIFT) as usize + 1;
        Acker {
            entries: RootMap::default(),
            spouts,
            pending_gauge,
            clock,
            pipeline,
            now_ms: 0,
            pending_delta: 0,
            latencies: Vec::new(),
            completed: Vec::new(),
            tag: route.tag,
            peers: (0..n_peers).map(|_| PeerQueue::default()).collect(),
            queued: 0,
            egress: route.egress,
        }
    }

    /// Processes one message ([`AckerMsg::Shutdown`] is the caller's).
    fn handle(&mut self, msg: AckerMsg) {
        self.now_ms = self.clock.now_ms();
        match msg {
            AckerMsg::InitBatch(inits) => {
                for init in inits {
                    self.init(init);
                }
            }
            AckerMsg::XorBatch(pairs) => {
                for (root, xor) in pairs {
                    self.xor(root, xor);
                }
            }
            AckerMsg::Fail { root } => self.fail(root),
            AckerMsg::Shutdown => {}
        }
    }

    /// Publishes what the messages since the last call changed: the
    /// pending gauge in one add, the pipeline latencies in one
    /// `record_nanos_n` per distinct millisecond, then the acks, one
    /// `AckBatch` per spout slot.
    fn settle(&mut self) {
        if self.pending_delta != 0 {
            self.pending_gauge
                .fetch_add(self.pending_delta, Ordering::Relaxed);
            self.pending_delta = 0;
        }
        // The clock ticks in milliseconds, so the histogram's nanosecond
        // buckets see ms precision.
        for (ms, trees) in self.latencies.drain(..) {
            self.pipeline
                .record_nanos_n(ms.saturating_mul(1_000_000), trees);
        }
        self.flush_acks();
    }

    /// The queue of the worker that owns `root`, or `None` when this
    /// worker does.
    fn peer(&mut self, root: u64) -> Option<&mut PeerQueue> {
        let owner = self.tag.owner(root);
        if owner as u64 == self.tag.worker {
            return None;
        }
        self.peers.get_mut(owner)
    }

    /// Ships every peer's queue, one egress call per owner, with the
    /// deltas folded to one per root and the failures deduplicated.
    fn flush_peers(&mut self) {
        for (owner, q) in self.peers.iter_mut().enumerate() {
            if q.xors.is_empty() && q.fails.is_empty() {
                continue;
            }
            fold_per_root(&mut q.xors);
            q.fails.sort_unstable();
            q.fails.dedup();
            (self.egress)(
                owner,
                std::mem::take(&mut q.xors),
                std::mem::take(&mut q.fails),
            );
        }
        self.queued = 0;
    }

    /// The entry for `root`, created (and counted as pending) on first
    /// sight.
    fn entry(&mut self, root: u64) -> &mut Entry {
        let (delta, now) = (&mut self.pending_delta, self.now_ms);
        self.entries.entry(root).or_insert_with(|| {
            *delta += 1;
            Entry {
                pending: 0,
                state: State::AwaitingInit { failed: false },
                slot: 0,
                msg_id: 0,
                created: now,
                emit_ms: now,
            }
        })
    }

    /// Removes a live tree whose XOR reached zero and queues its ack.
    fn complete(&mut self, root: u64) {
        let Some(e) = self.entries.remove(&root) else {
            return;
        };
        self.pending_delta -= 1;
        let ms = self.now_ms.saturating_sub(e.emit_ms);
        match self.latencies.iter_mut().rev().find(|(m, _)| *m == ms) {
            Some((_, trees)) => *trees += 1,
            None => self.latencies.push((ms, 1)),
        }
        self.completed.push((e.slot, e.msg_id));
    }

    /// Tells the spout that a live tree failed; the caller has turned its
    /// entry into a tombstone.
    fn notify_fail(&mut self, slot: usize, msg_id: u64) {
        self.pending_delta -= 1;
        let _ = self.spouts[slot].send(SpoutMsg::Fail(msg_id));
    }

    fn init(&mut self, init: InitEntry) {
        let e = self.entry(init.root);
        // A second Init for a root (a random u64) cannot happen.
        let State::AwaitingInit { failed } = e.state else {
            return;
        };
        e.slot = init.slot;
        e.msg_id = init.msg_id;
        e.emit_ms = init.emit_ms;
        e.pending ^= init.xor;
        if failed {
            e.state = State::Tombstone { swept: false };
            self.notify_fail(init.slot, init.msg_id);
        } else if e.pending == 0 {
            self.complete(init.root);
        } else {
            e.state = State::Live;
        }
    }

    fn xor(&mut self, root: u64, xor: u64) {
        if let Some(q) = self.peer(root) {
            q.xors.push((root, xor));
            self.queued += 1;
            return;
        }
        let e = self.entry(root);
        e.pending ^= xor;
        if e.state == State::Live && e.pending == 0 {
            self.complete(root);
        }
    }

    fn fail(&mut self, root: u64) {
        if let Some(q) = self.peer(root) {
            q.fails.push(root);
            self.queued += 1;
            return;
        }
        let e = self.entry(root);
        match e.state {
            State::AwaitingInit { .. } => e.state = State::AwaitingInit { failed: true },
            State::Live => {
                e.state = State::Tombstone { swept: false };
                let (slot, msg_id) = (e.slot, e.msg_id);
                self.notify_fail(slot, msg_id);
            }
            State::Tombstone { .. } => {}
        }
    }

    /// Ships the acks accumulated while processing one acker message, one
    /// `AckBatch` per spout slot.
    fn flush_acks(&mut self) {
        let completed = &mut self.completed;
        while !completed.is_empty() {
            let slot = completed[0].0;
            let mut ids = Vec::with_capacity(completed.len());
            // `retain` keeps arrival order for the remaining slots.
            completed.retain(|&(s, id)| {
                if s == slot {
                    ids.push(id);
                    false
                } else {
                    true
                }
            });
            let _ = self.spouts[slot].send(SpoutMsg::AckBatch(ids));
        }
    }

    /// Fails live trees older than `timeout_ms` (leaving tombstones),
    /// drops stale entries that never saw Init, and ages tombstones out.
    fn sweep(&mut self, timeout_ms: u64) {
        let now_ms = self.clock.now_ms();
        let (delta, spouts) = (&mut self.pending_delta, &self.spouts);
        self.entries.retain(|_, e| match e.state {
            State::Tombstone { swept: false } => {
                e.state = State::Tombstone { swept: true };
                true
            }
            State::Tombstone { swept: true } => false,
            _ if now_ms.saturating_sub(e.created) <= timeout_ms => true,
            State::Live => {
                e.state = State::Tombstone { swept: false };
                *delta -= 1;
                let _ = spouts[e.slot].send(SpoutMsg::Fail(e.msg_id));
                true
            }
            State::AwaitingInit { .. } => {
                *delta -= 1;
                false
            }
        });
    }
}

/// Runs this process's acker loop until shutdown. `pending_gauge`
/// mirrors the number of pending entries so the topology can detect
/// quiescence. Entry ages are measured on `clock`, so a mock clock can
/// expire trees in logical time. `pipeline` collects spout-emit ->
/// tree-complete latencies. Traffic for roots `route` says another worker
/// owns leaves through its egress, one call per owner, once the channel
/// runs dry or [`PEER_BATCH`] deltas have queued.
pub(crate) fn run_acker(
    rx: Receiver<AckerMsg>,
    spouts: Vec<Sender<SpoutMsg>>,
    route: AckRoute,
    pending_gauge: Arc<AtomicI64>,
    clock: Clock,
    pipeline: Arc<LatencyHistogram>,
) {
    let timeout = route.message_timeout;
    let timeout_ms = timeout.as_millis() as u64;
    // The sweep wakes on real time even under a mock clock (something has
    // to poll); with mock time it polls fast so an `advance()` past the
    // timeout is noticed promptly without sleeping the timeout for real.
    let sweep_every = if clock.is_mock() {
        Duration::from_millis(5)
    } else {
        timeout
            .min(Duration::from_millis(500))
            .max(Duration::from_millis(10))
    };
    let mut acker = Acker::new(spouts, route, pending_gauge, clock, pipeline);
    let mut next_sweep = Instant::now() + sweep_every;
    loop {
        let wait = next_sweep.saturating_duration_since(Instant::now());
        match rx.recv_timeout(wait) {
            Ok(AckerMsg::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
            Ok(msg) => acker.handle(msg),
            Err(RecvTimeoutError::Timeout) => {}
        }
        let now = Instant::now();
        if now >= next_sweep {
            acker.sweep(timeout_ms);
            next_sweep = now + sweep_every;
        }
        acker.settle();
        if acker.queued > 0 && (acker.queued >= PEER_BATCH || rx.is_empty()) {
            acker.flush_peers();
        }
    }
    acker.flush_peers();
    let pending = acker
        .entries
        .values()
        .filter(|e| !matches!(e.state, State::Tombstone { .. }))
        .count();
    acker
        .pending_gauge
        .fetch_sub(pending as i64, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use rand::{Rng, SeedableRng};

    /// The acker's input, the spout's notifications, the pending gauge
    /// and the acker thread.
    type Harness = (
        Sender<AckerMsg>,
        Receiver<SpoutMsg>,
        Arc<AtomicI64>,
        std::thread::JoinHandle<()>,
    );

    fn spawn_acker(route: AckRoute, clock: Clock) -> Harness {
        let (tx, rx) = unbounded();
        let (stx, srx) = unbounded();
        let gauge = Arc::new(AtomicI64::new(0));
        let g = Arc::clone(&gauge);
        let pipeline = Arc::new(LatencyHistogram::new());
        let h = std::thread::spawn(move || run_acker(rx, vec![stx], route, g, clock, pipeline));
        (tx, srx, gauge, h)
    }

    fn setup_with_clock(timeout: Duration, clock: Clock) -> Harness {
        spawn_acker(AckRoute::local(timeout), clock)
    }

    fn setup(timeout: Duration) -> Harness {
        setup_with_clock(timeout, Clock::system())
    }

    /// Registers one root for spout slot 0, as a one-emit spout flush does.
    fn init(tx: &Sender<AckerMsg>, root: u64, xor: u64, msg_id: u64) {
        tx.send(AckerMsg::InitBatch(vec![InitEntry {
            root,
            xor,
            slot: 0,
            msg_id,
            emit_ms: 0,
        }]))
        .unwrap();
    }

    /// Sends one execute run's folded delta for a single root.
    fn xor(tx: &Sender<AckerMsg>, root: u64, xor: u64) {
        tx.send(AckerMsg::XorBatch(vec![(root, xor)])).unwrap();
    }

    /// The next notification, within two seconds.
    fn next(srx: &Receiver<SpoutMsg>) -> SpoutMsg {
        srx.recv_timeout(Duration::from_secs(2)).unwrap()
    }

    fn stop(tx: Sender<AckerMsg>, h: std::thread::JoinHandle<()>) {
        tx.send(AckerMsg::Shutdown).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn simple_tree_completes() {
        let (tx, srx, gauge, h) = setup(Duration::from_secs(5));
        // spout emits root 7 with one edge id 0xAB, msg id 42
        init(&tx, 7, 0xAB, 42);
        // bolt acks the edge (no children)
        xor(&tx, 7, 0xAB);
        match next(&srx) {
            SpoutMsg::AckBatch(ids) => assert_eq!(ids, vec![42]),
            other => panic!("expected AckBatch([42]), got {other:?}"),
        }
        stop(tx, h);
        assert_eq!(gauge.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn out_of_order_xor_before_init() {
        let (tx, srx, _g, h) = setup(Duration::from_secs(5));
        xor(&tx, 1, 0x10);
        init(&tx, 1, 0x10, 9);
        match next(&srx) {
            SpoutMsg::AckBatch(ids) => assert_eq!(ids, vec![9]),
            other => panic!("expected AckBatch([9]), got {other:?}"),
        }
        stop(tx, h);
    }

    #[test]
    fn multi_edge_tree() {
        let (tx, srx, _g, h) = setup(Duration::from_secs(5));
        // root with two initial edges
        init(&tx, 3, 0xA ^ 0xB, 1);
        // first bolt acks edge 0xA and creates child edge 0xC
        xor(&tx, 3, 0xA ^ 0xC);
        assert!(srx.try_recv().is_err(), "tree not complete yet");
        // second bolt acks 0xB; third acks 0xC
        xor(&tx, 3, 0xB);
        xor(&tx, 3, 0xC);
        match next(&srx) {
            SpoutMsg::AckBatch(ids) => assert_eq!(ids, vec![1]),
            other => panic!("expected AckBatch([1]), got {other:?}"),
        }
        stop(tx, h);
    }

    #[test]
    fn xor_batch_completes_trees() {
        // One XorBatch message carries the pre-folded deltas of a whole
        // execute run spanning two roots; both trees must complete.
        let (tx, srx, gauge, h) = setup(Duration::from_secs(5));
        init(&tx, 21, 0xEE, 1);
        init(&tx, 22, 0xEE, 2);
        tx.send(AckerMsg::XorBatch(vec![(21, 0xEE), (22, 0xEE)]))
            .unwrap();
        // Both trees complete while processing one message, so the spout
        // hears about them in one batched notification.
        let mut acked = match next(&srx) {
            SpoutMsg::AckBatch(ids) => ids,
            other => panic!("expected AckBatch, got {other:?}"),
        };
        acked.sort_unstable();
        assert_eq!(acked, vec![1, 2]);
        stop(tx, h);
        assert_eq!(gauge.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn init_batch_registers_all_roots() {
        // One InitBatch registers three roots (as a spout flush would);
        // XorBatch then completes them all in one AckBatch.
        let (tx, srx, gauge, h) = setup(Duration::from_secs(5));
        tx.send(AckerMsg::InitBatch(
            (0..3u64)
                .map(|i| InitEntry {
                    root: 30 + i,
                    xor: 0x40 + i,
                    slot: 0,
                    msg_id: 100 + i,
                    emit_ms: 0,
                })
                .collect(),
        ))
        .unwrap();
        tx.send(AckerMsg::XorBatch(
            (0..3u64).map(|i| (30 + i, 0x40 + i)).collect(),
        ))
        .unwrap();
        let mut acked = match next(&srx) {
            SpoutMsg::AckBatch(ids) => ids,
            other => panic!("expected AckBatch, got {other:?}"),
        };
        acked.sort_unstable();
        assert_eq!(acked, vec![100, 101, 102]);
        stop(tx, h);
        assert_eq!(gauge.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn explicit_fail_notifies_spout() {
        let (tx, srx, _g, h) = setup(Duration::from_secs(5));
        init(&tx, 5, 0x1, 77);
        tx.send(AckerMsg::Fail { root: 5 }).unwrap();
        match next(&srx) {
            SpoutMsg::Fail(77) => {}
            other => panic!("expected Fail(77), got {other:?}"),
        }
        stop(tx, h);
    }

    #[test]
    fn fail_before_init_notifies_spout() {
        // Init is sent after the tuple deliveries, so a fast bolt can fail
        // a tree before the acker ever saw its Init. The failure must be
        // held and delivered when Init arrives — not dropped (which would
        // strand the tree until the timeout sweep).
        let (tx, srx, gauge, h) = setup(Duration::from_secs(60));
        tx.send(AckerMsg::Fail { root: 12 }).unwrap();
        init(&tx, 12, 0x5, 33);
        match next(&srx) {
            SpoutMsg::Fail(33) => {}
            other => panic!("expected Fail(33), got {other:?}"),
        }
        stop(tx, h);
        assert_eq!(gauge.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn failed_tree_absorbs_late_deltas_and_repeat_fails() {
        // An upstream run's XorBatch can still be in flight when a
        // downstream bolt fails the root, and a second failure can name it
        // again. Both land on the failed tree's tombstone: nothing counts
        // as pending and the spout hears exactly one Fail.
        let (tx, srx, gauge, h) = setup(Duration::from_secs(60));
        init(&tx, 14, 0x3, 8);
        tx.send(AckerMsg::Fail { root: 14 }).unwrap();
        xor(&tx, 14, 0x3 ^ 0x9);
        tx.send(AckerMsg::Fail { root: 14 }).unwrap();
        match next(&srx) {
            SpoutMsg::Fail(8) => {}
            other => panic!("expected Fail(8), got {other:?}"),
        }
        // A zero-edge root acks at once; its ack proves the acker has
        // processed every message sent before it. (Read the gauge before
        // shutdown, which subtracts whatever is still pending.)
        init(&tx, 15, 0, 9);
        match next(&srx) {
            SpoutMsg::AckBatch(ids) => assert_eq!(ids, vec![9]),
            other => panic!("expected AckBatch([9]) after one Fail, got {other:?}"),
        }
        assert_eq!(gauge.load(Ordering::Relaxed), 0);
        stop(tx, h);
    }

    #[test]
    fn timeout_fails_stale_tree() {
        // A mock clock drives the expiry: the logical timeout is an hour,
        // but the test advances past it instantly instead of sleeping.
        let clock = Clock::mock();
        let (tx, srx, _g, h) = setup_with_clock(Duration::from_secs(3_600), clock.clone());
        init(&tx, 8, 0x2, 11);
        assert!(
            srx.recv_timeout(Duration::from_millis(30)).is_err(),
            "tree must not expire before the clock advances"
        );
        clock.advance(3_600_001);
        match next(&srx) {
            SpoutMsg::Fail(11) => {}
            other => panic!("expected timeout Fail(11), got {other:?}"),
        }
        stop(tx, h);
    }

    #[test]
    fn zero_edge_init_acks_immediately() {
        let (tx, srx, _g, h) = setup(Duration::from_secs(5));
        init(&tx, 9, 0, 5);
        match next(&srx) {
            SpoutMsg::AckBatch(ids) => assert_eq!(ids, vec![5]),
            other => panic!("expected AckBatch([5]), got {other:?}"),
        }
        stop(tx, h);
    }

    #[test]
    fn tag_round_trips_through_the_owner() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        for (n, width) in [(1usize, 0), (2, 1), (3, 2), (65_536, 16)] {
            for worker in [0, n / 2, n - 1] {
                let tag = RootTag::new(worker, n).unwrap();
                // The bits `apply` overwrites: ⌈log2 n⌉ of them.
                assert_eq!((tag.apply(0) ^ tag.apply(u64::MAX)).count_zeros(), width);
                for _ in 0..64 {
                    let raw: u64 = rng.gen();
                    let root = tag.apply(raw);
                    // Any worker of the cluster reads the same owner.
                    assert_eq!(tag.owner(root), worker, "n = {n}");
                    assert_eq!(RootTag::new(0, n).unwrap().owner(root), worker);
                    // Only bits 40..56 differ from the draw: clear of the
                    // low bits and the top 7.
                    assert_eq!((root ^ raw) & !(0xFFFF << 40), 0);
                }
            }
        }
    }

    #[test]
    fn a_zero_width_tag_leaves_the_draw_unchanged() {
        assert_eq!(RootTag::new(0, 1), Ok(RootTag::LOCAL));
        let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
        for _ in 0..1000 {
            let raw: u64 = rng.gen();
            assert_eq!(RootTag::LOCAL.apply(raw), raw);
            assert_eq!(RootTag::LOCAL.owner(raw), 0);
        }
    }

    #[test]
    fn tags_reject_what_they_cannot_name() {
        assert!(RootTag::new(65_535, 65_536).is_ok());
        assert!(RootTag::new(0, 65_537).is_err());
        assert!(RootTag::new(0, usize::MAX).is_err());
        assert!(RootTag::new(0, 0).is_err());
        assert!(RootTag::new(3, 3).is_err());
    }

    #[test]
    fn roots_another_worker_owns_leave_through_the_egress() {
        // Worker 1 of 3: deltas and fails for roots of workers 0 and 2
        // leave through the egress, its own complete here.
        type Shipped = (usize, Vec<(u64, u64)>, Vec<u64>);
        let shipped: Arc<std::sync::Mutex<Vec<Shipped>>> = Arc::default();
        let route = || {
            let sink = Arc::clone(&shipped);
            AckRoute {
                tag: RootTag::new(1, 3).unwrap(),
                message_timeout: Duration::from_secs(60),
                egress: Arc::new(move |owner, xors, fails| {
                    sink.lock().unwrap().push((owner, xors, fails));
                }),
            }
        };
        let of = |w: usize, raw: u64| RootTag::new(w, 3).unwrap().apply(raw);
        let (tx, srx, gauge, h) = spawn_acker(route(), Clock::system());
        tx.send(AckerMsg::XorBatch(vec![
            (of(0, 5), 0xA),
            (of(2, 6), 0xB),
            (of(0, 7), 0xC),
        ]))
        .unwrap();
        tx.send(AckerMsg::Fail { root: of(2, 8) }).unwrap();
        init(&tx, of(1, 9), 0xD, 4);
        xor(&tx, of(1, 9), 0xD);
        match next(&srx) {
            SpoutMsg::AckBatch(ids) => assert_eq!(ids, vec![4]),
            other => panic!("expected AckBatch([4]), got {other:?}"),
        }
        stop(tx, h);
        // The acker may ship between messages; gather its calls by owner.
        let mut by_owner = std::collections::BTreeMap::<_, (Vec<_>, Vec<_>)>::new();
        for (owner, xors, fails) in shipped.lock().unwrap().drain(..) {
            let q = by_owner.entry(owner).or_default();
            q.0.extend(xors);
            q.1.extend(fails);
        }
        let by_owner: Vec<_> = by_owner.into_iter().collect();
        assert_eq!(
            by_owner,
            vec![
                (0, (vec![(of(0, 5), 0xA), (of(0, 7), 0xC)], vec![])),
                (2, (vec![(of(2, 6), 0xB)], vec![of(2, 8)])),
            ]
        );
        assert_eq!(
            gauge.load(Ordering::Relaxed),
            0,
            "nothing foreign is pending here"
        );

        // Several runs' deltas for one root, queued between two flushes,
        // leave as one entry per root, and a repeated failure once.
        let mut acker = Acker::new(
            Vec::new(),
            route(),
            Arc::default(),
            Clock::system(),
            Arc::default(),
        );
        acker.handle(AckerMsg::XorBatch(vec![(of(0, 5), 0xA), (of(2, 6), 0xB)]));
        acker.handle(AckerMsg::XorBatch(vec![(of(0, 7), 0xC), (of(0, 5), 0x3)]));
        acker.handle(AckerMsg::XorBatch(vec![(of(2, 6), 0x4)]));
        acker.handle(AckerMsg::Fail { root: of(2, 8) });
        acker.handle(AckerMsg::Fail { root: of(2, 8) });
        assert_eq!(acker.queued, 7);
        acker.flush_peers();
        let calls = shipped.lock().unwrap().clone();
        assert_eq!(
            calls,
            vec![
                (0, vec![(of(0, 5), 0xA ^ 0x3), (of(0, 7), 0xC)], vec![]),
                (2, vec![(of(2, 6), 0xB ^ 0x4)], vec![of(2, 8)]),
            ],
            "one egress call per owner, one entry per root"
        );
        assert_eq!(acker.queued, 0);
        assert!(acker.entries.is_empty(), "nothing foreign is tracked here");
    }

    #[test]
    fn folded_accounting_matches_the_root_map_after_every_message() {
        // Random Init/Xor/Fail/sweep sequences over a few roots on a mock
        // clock. After every message the folded gauge must equal the
        // non-tombstone entries, and the pipeline histogram must hold one
        // observation per tree completed so far.
        const TIMEOUT_MS: u64 = 40;
        let pair =
            |rng: &mut rand::rngs::SmallRng| (rng.gen_range(0..12u64), rng.gen_range(0..4u64));
        for seed in 0..64u64 {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let clock = Clock::mock();
            let (stx, srx) = unbounded();
            let gauge = Arc::new(AtomicI64::new(0));
            let pipeline = Arc::new(LatencyHistogram::new());
            let mut acker = Acker::new(
                vec![stx],
                AckRoute::local(Duration::from_millis(TIMEOUT_MS)),
                Arc::clone(&gauge),
                clock.clone(),
                Arc::clone(&pipeline),
            );
            let mut completed = 0u64;
            for step in 0..400 {
                match rng.gen_range(0..10) {
                    0..=2 => {
                        let inits = (0..rng.gen_range(1..4))
                            .map(|_| {
                                let (root, xor) = pair(&mut rng);
                                InitEntry {
                                    root,
                                    xor,
                                    slot: 0,
                                    msg_id: root,
                                    emit_ms: clock.now_ms().saturating_sub(rng.gen_range(0..3)),
                                }
                            })
                            .collect();
                        acker.handle(AckerMsg::InitBatch(inits));
                    }
                    3..=6 => {
                        let pairs = (0..rng.gen_range(1..5)).map(|_| pair(&mut rng)).collect();
                        acker.handle(AckerMsg::XorBatch(pairs));
                    }
                    7 => acker.handle(AckerMsg::Fail {
                        root: pair(&mut rng).0,
                    }),
                    8 => acker.sweep(TIMEOUT_MS),
                    _ => clock.advance(rng.gen_range(1..20)),
                }
                acker.settle();
                for msg in srx.try_iter() {
                    if let SpoutMsg::AckBatch(ids) = msg {
                        completed += ids.len() as u64;
                    }
                }
                let pending = acker
                    .entries
                    .values()
                    .filter(|e| !matches!(e.state, State::Tombstone { .. }))
                    .count() as i64;
                assert_eq!(
                    gauge.load(Ordering::Relaxed),
                    pending,
                    "seed {seed}, step {step}: gauge against the root map"
                );
                assert_eq!(
                    pipeline.snapshot().count(),
                    completed,
                    "seed {seed}, step {step}: pipeline observations against completed trees"
                );
            }
            assert!(completed > 0, "seed {seed} completed no tree");
        }
    }
}
