//! XOR ack tracking, after Storm's acker design.
//!
//! Every root message emitted by a spout with a message id owns an entry in
//! the acker. Each tuple-tree edge is a random 64-bit id; the entry keeps
//! the XOR of all edge ids seen so far. Creating an edge and acking it each
//! XOR the same id into the entry, so the entry reaches zero exactly when
//! every edge has been both created and acked — regardless of arrival
//! order. A sweep fails entries older than the message timeout.

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use obs::LatencyHistogram;
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tchaos::Clock;

/// Control messages delivered to spout tasks.
///
/// Public because a cluster runtime hosts the acker in another process:
/// notifications come back over the wire and are re-injected through
/// [`crate::executor::TopologyHandle::spout_notify`].
#[derive(Debug)]
pub enum SpoutMsg {
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
pub struct InitEntry {
    /// Random 64-bit root id of the tuple tree.
    pub root: u64,
    /// XOR of the edge ids of the initial deliveries.
    pub xor: u64,
    /// Acker slot of the owning spout task (global across the cluster).
    pub slot: usize,
    /// User-supplied message id, echoed in ack/fail notifications.
    pub msg_id: u64,
    /// Spout emit time in clock milliseconds; the acker measures whole-
    /// pipeline (spout emit -> tree complete) latency from this stamp.
    pub emit_ms: u64,
}

/// Messages consumed by the acker loop. Public so a cluster worker can
/// forward its emitters' acker traffic to a supervisor-hosted acker.
#[derive(Debug)]
pub enum AckerMsg {
    /// Roots registered since the spout's last flush, shipped together with
    /// the flushed deliveries: one acker message per flush instead of one
    /// per emitted tuple.
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
    /// Stop the acker loop (or, on a forwarded channel, the forwarder).
    Shutdown,
}

/// Pass-through hasher for the root-keyed entry map. Roots are uniform
/// random u64s drawn from the emitters' RNGs, so they need no further
/// mixing — SipHash here costs two hashes per tuple for nothing.
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

/// The acker loop's state: the root map, the pending-tree gauge and the
/// spout channels it notifies.
struct Acker {
    entries: RootMap,
    spouts: Vec<Sender<SpoutMsg>>,
    pending_gauge: Arc<AtomicI64>,
    clock: Clock,
    pipeline: Arc<LatencyHistogram>,
    /// (slot, msg_id) of trees completed by the message being processed;
    /// drained into one `AckBatch` per spout slot after each message.
    completed: Vec<(usize, u64)>,
}

impl Acker {
    /// The entry for `root`, created (and gauged as pending) on first sight.
    fn entry(&mut self, root: u64) -> &mut Entry {
        let (gauge, clock) = (&self.pending_gauge, &self.clock);
        self.entries.entry(root).or_insert_with(|| {
            gauge.fetch_add(1, Ordering::Relaxed);
            let now = clock.now_ms();
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
        let e = self.entries.remove(&root).expect("completed entry exists");
        self.pending_gauge.fetch_sub(1, Ordering::Relaxed);
        // The clock ticks in milliseconds, so the histogram's nanosecond
        // buckets see ms precision.
        let ms = self.clock.now_ms().saturating_sub(e.emit_ms);
        self.pipeline.record_nanos(ms.saturating_mul(1_000_000));
        self.completed.push((e.slot, e.msg_id));
    }

    /// Tells the spout that a live tree failed; the caller has turned its
    /// entry into a tombstone.
    fn notify_fail(&self, slot: usize, msg_id: u64) {
        self.pending_gauge.fetch_sub(1, Ordering::Relaxed);
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
        let e = self.entry(root);
        e.pending ^= xor;
        if e.state == State::Live && e.pending == 0 {
            self.complete(root);
        }
    }

    fn fail(&mut self, root: u64) {
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
        self.entries.retain(|_, e| match e.state {
            State::Tombstone { swept: false } => {
                e.state = State::Tombstone { swept: true };
                true
            }
            State::Tombstone { swept: true } => false,
            _ if now_ms.saturating_sub(e.created) <= timeout_ms => true,
            State::Live => {
                e.state = State::Tombstone { swept: false };
                self.pending_gauge.fetch_sub(1, Ordering::Relaxed);
                let _ = self.spouts[e.slot].send(SpoutMsg::Fail(e.msg_id));
                true
            }
            State::AwaitingInit { .. } => {
                self.pending_gauge.fetch_sub(1, Ordering::Relaxed);
                false
            }
        });
    }
}

/// Runs the acker loop until shutdown. `pending_gauge` mirrors the number of
/// pending entries so the topology can detect quiescence. Entry ages are
/// measured on `clock`, so a mock clock can expire trees in logical time.
/// `pipeline` collects spout-emit -> tree-complete latencies.
///
/// Public so a cluster supervisor can host the one global acker for a
/// topology whose spouts and bolts are spread over worker processes:
/// `spouts` is then a vector of forwarding channels, one per global
/// spout slot.
pub fn run_acker(
    rx: Receiver<AckerMsg>,
    spouts: Vec<Sender<SpoutMsg>>,
    timeout: Duration,
    pending_gauge: Arc<AtomicI64>,
    clock: Clock,
    pipeline: Arc<LatencyHistogram>,
) {
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
    let mut acker = Acker {
        entries: RootMap::default(),
        spouts,
        pending_gauge,
        clock,
        pipeline,
        completed: Vec::new(),
    };
    let mut next_sweep = Instant::now() + sweep_every;
    loop {
        let wait = next_sweep.saturating_duration_since(Instant::now());
        match rx.recv_timeout(wait) {
            Ok(AckerMsg::InitBatch(inits)) => {
                for init in inits {
                    acker.init(init);
                }
            }
            Ok(AckerMsg::XorBatch(pairs)) => {
                for (root, xor) in pairs {
                    acker.xor(root, xor);
                }
            }
            Ok(AckerMsg::Fail { root }) => acker.fail(root),
            Ok(AckerMsg::Shutdown) => break,
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        acker.flush_acks();
        let now = Instant::now();
        if now >= next_sweep {
            acker.sweep(timeout_ms);
            next_sweep = now + sweep_every;
        }
    }
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

    /// The acker's input, the spout's notifications, the pending gauge
    /// and the acker thread.
    type Harness = (
        Sender<AckerMsg>,
        Receiver<SpoutMsg>,
        Arc<AtomicI64>,
        std::thread::JoinHandle<()>,
    );

    fn setup_with_clock(timeout: Duration, clock: Clock) -> Harness {
        let (tx, rx) = unbounded();
        let (stx, srx) = unbounded();
        let gauge = Arc::new(AtomicI64::new(0));
        let g = Arc::clone(&gauge);
        let pipeline = Arc::new(LatencyHistogram::new());
        let h = std::thread::spawn(move || run_acker(rx, vec![stx], timeout, g, clock, pipeline));
        (tx, srx, gauge, h)
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
}
