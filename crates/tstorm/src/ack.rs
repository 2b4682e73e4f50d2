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
    /// The tree rooted at this message id completed.
    Ack(u64),
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

/// One root registration: what `AckerMsg::Init` carries, batchable.
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
    /// Root created by spout `slot` with user message id `msg_id`;
    /// `xor` folds the edge ids of the initial deliveries and `emit_ms`
    /// stamps the spout emit time for pipeline-latency tracking.
    Init {
        /// Random 64-bit root id of the tuple tree.
        root: u64,
        /// XOR of the edge ids of the initial deliveries.
        xor: u64,
        /// Global acker slot of the owning spout task.
        slot: usize,
        /// User-supplied message id.
        msg_id: u64,
        /// Spout emit time in clock milliseconds.
        emit_ms: u64,
    },
    /// Roots registered since the spout's last flush, shipped together with
    /// the flushed deliveries: one acker message per flush instead of one
    /// per emitted tuple.
    InitBatch(Vec<InitEntry>),
    /// XOR delta from a bolt completing an execute.
    Xor {
        /// Root id the delta applies to.
        root: u64,
        /// XOR of the edge ids acked and created by the execute.
        xor: u64,
    },
    /// Pre-folded XOR deltas for a whole execute run: one delta per root,
    /// one channel message for the lot. Equivalent to sending each pair as
    /// an [`AckerMsg::Xor`] — XOR folding is order-independent — but the
    /// acker queue sees one message per batch instead of one per tuple.
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

struct Entry {
    pending: u64,
    init: bool,
    /// A `Fail` arrived before `Init` (a bolt can fail a tuple before the
    /// spout's Init message reaches the acker, since Init is sent after
    /// the deliveries). The failure is held until Init names the spout to
    /// notify — dropping it would strand the tree until the timeout sweep.
    failed: bool,
    slot: usize,
    msg_id: u64,
    /// Creation time in clock milliseconds (logical under a mock clock).
    created: u64,
    /// Spout emit time in clock milliseconds (set by Init; completion can
    /// only happen after Init, so a placeholder before that is harmless).
    emit_ms: u64,
}

/// Folds one XOR delta into `root`'s entry; a completed tree is pushed
/// onto `completed` instead of notified immediately, so all trees finished
/// by one incoming message ack the spout in one batched send (shared by
/// the single and batched delta messages).
fn apply_xor(
    entries: &mut RootMap,
    pending_gauge: &AtomicI64,
    clock: &Clock,
    pipeline: &LatencyHistogram,
    completed: &mut Vec<(usize, u64)>,
    root: u64,
    xor: u64,
) {
    let e = entries.entry(root).or_insert_with(|| {
        pending_gauge.fetch_add(1, Ordering::Relaxed);
        let now = clock.now_ms();
        Entry {
            pending: 0,
            init: false,
            failed: false,
            slot: 0,
            msg_id: 0,
            created: now,
            emit_ms: now,
        }
    });
    e.pending ^= xor;
    if e.init && !e.failed && e.pending == 0 {
        let e = entries.remove(&root).expect("entry just updated");
        pending_gauge.fetch_sub(1, Ordering::Relaxed);
        record_pipeline(pipeline, clock, e.emit_ms);
        completed.push((e.slot, e.msg_id));
    }
}

/// Records one spout-emit -> tree-complete latency. The clock ticks in
/// milliseconds, so the histogram's nanosecond buckets see ms precision.
fn record_pipeline(pipeline: &LatencyHistogram, clock: &Clock, emit_ms: u64) {
    let ms = clock.now_ms().saturating_sub(emit_ms);
    pipeline.record_nanos(ms.saturating_mul(1_000_000));
}

/// Registers one root (shared by the single and batched Init messages).
fn apply_init(
    entries: &mut RootMap,
    spouts: &[Sender<SpoutMsg>],
    pending_gauge: &AtomicI64,
    clock: &Clock,
    pipeline: &LatencyHistogram,
    completed: &mut Vec<(usize, u64)>,
    init: InitEntry,
) {
    let InitEntry {
        root,
        xor,
        slot,
        msg_id,
        emit_ms,
    } = init;
    let e = entries.entry(root).or_insert_with(|| {
        pending_gauge.fetch_add(1, Ordering::Relaxed);
        Entry {
            pending: 0,
            init: false,
            failed: false,
            slot,
            msg_id,
            created: clock.now_ms(),
            emit_ms,
        }
    });
    e.init = true;
    e.slot = slot;
    e.msg_id = msg_id;
    e.emit_ms = emit_ms;
    e.pending ^= xor;
    if e.failed {
        let e = entries.remove(&root).expect("entry just inserted");
        pending_gauge.fetch_sub(1, Ordering::Relaxed);
        let _ = spouts[e.slot].send(SpoutMsg::Fail(e.msg_id));
    } else if e.pending == 0 {
        let e = entries.remove(&root).expect("entry just inserted");
        pending_gauge.fetch_sub(1, Ordering::Relaxed);
        record_pipeline(pipeline, clock, e.emit_ms);
        completed.push((e.slot, e.msg_id));
    }
}

/// Ships the acks accumulated while processing one acker message: one
/// `Ack` for a lone completion, one `AckBatch` per spout slot otherwise.
fn flush_acks(completed: &mut Vec<(usize, u64)>, spouts: &[Sender<SpoutMsg>]) {
    if completed.len() == 1 {
        let (slot, msg_id) = completed.pop().expect("len checked");
        let _ = spouts[slot].send(SpoutMsg::Ack(msg_id));
        return;
    }
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
        let _ = spouts[slot].send(SpoutMsg::AckBatch(ids));
    }
}

/// Runs the acker loop until shutdown. `pending_gauge` mirrors the number of
/// live entries so the topology can detect quiescence. Entry ages are
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
    let mut entries = RootMap::default();
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
    let mut next_sweep = Instant::now() + sweep_every;
    // (slot, msg_id) of trees completed by the message being processed;
    // drained into batched spout notifications after each message.
    let mut completed: Vec<(usize, u64)> = Vec::new();
    loop {
        let wait = next_sweep.saturating_duration_since(Instant::now());
        match rx.recv_timeout(wait) {
            Ok(AckerMsg::Init {
                root,
                xor,
                slot,
                msg_id,
                emit_ms,
            }) => {
                apply_init(
                    &mut entries,
                    &spouts,
                    &pending_gauge,
                    &clock,
                    &pipeline,
                    &mut completed,
                    InitEntry {
                        root,
                        xor,
                        slot,
                        msg_id,
                        emit_ms,
                    },
                );
            }
            Ok(AckerMsg::InitBatch(inits)) => {
                for init in inits {
                    apply_init(
                        &mut entries,
                        &spouts,
                        &pending_gauge,
                        &clock,
                        &pipeline,
                        &mut completed,
                        init,
                    );
                }
            }
            Ok(AckerMsg::Xor { root, xor }) => {
                apply_xor(
                    &mut entries,
                    &pending_gauge,
                    &clock,
                    &pipeline,
                    &mut completed,
                    root,
                    xor,
                );
            }
            Ok(AckerMsg::XorBatch(pairs)) => {
                for (root, xor) in pairs {
                    apply_xor(
                        &mut entries,
                        &pending_gauge,
                        &clock,
                        &pipeline,
                        &mut completed,
                        root,
                        xor,
                    );
                }
            }
            Ok(AckerMsg::Fail { root }) => match entries.entry(root) {
                std::collections::hash_map::Entry::Occupied(o) => {
                    if o.get().init {
                        let e = o.remove();
                        pending_gauge.fetch_sub(1, Ordering::Relaxed);
                        let _ = spouts[e.slot].send(SpoutMsg::Fail(e.msg_id));
                    } else {
                        // Init not seen yet: hold the failure until it
                        // arrives and identifies the owning spout.
                        o.into_mut().failed = true;
                    }
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    pending_gauge.fetch_add(1, Ordering::Relaxed);
                    let now = clock.now_ms();
                    v.insert(Entry {
                        pending: 0,
                        init: false,
                        failed: true,
                        slot: 0,
                        msg_id: 0,
                        created: now,
                        emit_ms: now,
                    });
                }
            },
            Ok(AckerMsg::Shutdown) => break,
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        if !completed.is_empty() {
            flush_acks(&mut completed, &spouts);
        }
        if Instant::now() >= next_sweep {
            let now = Instant::now();
            let now_ms = clock.now_ms();
            let expired: Vec<u64> = entries
                .iter()
                .filter(|(_, e)| now_ms.saturating_sub(e.created) > timeout_ms)
                .map(|(&r, _)| r)
                .collect();
            for root in expired {
                if let Some(e) = entries.remove(&root) {
                    pending_gauge.fetch_sub(1, Ordering::Relaxed);
                    if e.init {
                        let _ = spouts[e.slot].send(SpoutMsg::Fail(e.msg_id));
                    }
                }
            }
            next_sweep = now + sweep_every;
        }
    }
    pending_gauge.fetch_sub(entries.len() as i64, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    fn setup_with_clock(
        timeout: Duration,
        clock: Clock,
    ) -> (
        Sender<AckerMsg>,
        Receiver<SpoutMsg>,
        Arc<AtomicI64>,
        std::thread::JoinHandle<()>,
    ) {
        let (tx, rx) = unbounded();
        let (stx, srx) = unbounded();
        let gauge = Arc::new(AtomicI64::new(0));
        let g = Arc::clone(&gauge);
        let pipeline = Arc::new(LatencyHistogram::new());
        let h = std::thread::spawn(move || run_acker(rx, vec![stx], timeout, g, clock, pipeline));
        (tx, srx, gauge, h)
    }

    fn setup(
        timeout: Duration,
    ) -> (
        Sender<AckerMsg>,
        Receiver<SpoutMsg>,
        Arc<AtomicI64>,
        std::thread::JoinHandle<()>,
    ) {
        setup_with_clock(timeout, Clock::system())
    }

    #[test]
    fn simple_tree_completes() {
        let (tx, srx, gauge, h) = setup(Duration::from_secs(5));
        // spout emits root 7 with one edge id 0xAB, msg id 42
        tx.send(AckerMsg::Init {
            root: 7,
            xor: 0xAB,
            slot: 0,
            msg_id: 42,
            emit_ms: 0,
        })
        .unwrap();
        // bolt acks the edge (no children)
        tx.send(AckerMsg::Xor { root: 7, xor: 0xAB }).unwrap();
        match srx.recv_timeout(Duration::from_secs(2)).unwrap() {
            SpoutMsg::Ack(42) => {}
            other => panic!("expected Ack(42), got {other:?}"),
        }
        tx.send(AckerMsg::Shutdown).unwrap();
        h.join().unwrap();
        assert_eq!(gauge.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn out_of_order_xor_before_init() {
        let (tx, srx, _g, h) = setup(Duration::from_secs(5));
        tx.send(AckerMsg::Xor { root: 1, xor: 0x10 }).unwrap();
        tx.send(AckerMsg::Init {
            root: 1,
            xor: 0x10,
            slot: 0,
            msg_id: 9,
            emit_ms: 0,
        })
        .unwrap();
        match srx.recv_timeout(Duration::from_secs(2)).unwrap() {
            SpoutMsg::Ack(9) => {}
            other => panic!("expected Ack(9), got {other:?}"),
        }
        tx.send(AckerMsg::Shutdown).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn multi_edge_tree() {
        let (tx, srx, _g, h) = setup(Duration::from_secs(5));
        // root with two initial edges
        tx.send(AckerMsg::Init {
            root: 3,
            xor: 0xA ^ 0xB,
            slot: 0,
            msg_id: 1,
            emit_ms: 0,
        })
        .unwrap();
        // first bolt acks edge 0xA and creates child edge 0xC
        tx.send(AckerMsg::Xor {
            root: 3,
            xor: 0xA ^ 0xC,
        })
        .unwrap();
        assert!(srx.try_recv().is_err(), "tree not complete yet");
        // second bolt acks 0xB; third acks 0xC
        tx.send(AckerMsg::Xor { root: 3, xor: 0xB }).unwrap();
        tx.send(AckerMsg::Xor { root: 3, xor: 0xC }).unwrap();
        match srx.recv_timeout(Duration::from_secs(2)).unwrap() {
            SpoutMsg::Ack(1) => {}
            other => panic!("expected Ack(1), got {other:?}"),
        }
        tx.send(AckerMsg::Shutdown).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn xor_batch_completes_trees() {
        // One XorBatch message carries the pre-folded deltas of a whole
        // execute run spanning two roots; both trees must complete.
        let (tx, srx, gauge, h) = setup(Duration::from_secs(5));
        for (root, msg_id) in [(21u64, 1u64), (22, 2)] {
            tx.send(AckerMsg::Init {
                root,
                xor: 0xEE,
                slot: 0,
                msg_id,
                emit_ms: 0,
            })
            .unwrap();
        }
        tx.send(AckerMsg::XorBatch(vec![(21, 0xEE), (22, 0xEE)]))
            .unwrap();
        // Both trees complete while processing one message, so the spout
        // hears about them in one batched notification.
        let mut acked = match srx.recv_timeout(Duration::from_secs(2)).unwrap() {
            SpoutMsg::AckBatch(ids) => ids,
            other => panic!("expected AckBatch, got {other:?}"),
        };
        acked.sort_unstable();
        assert_eq!(acked, vec![1, 2]);
        tx.send(AckerMsg::Shutdown).unwrap();
        h.join().unwrap();
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
        let mut acked = match srx.recv_timeout(Duration::from_secs(2)).unwrap() {
            SpoutMsg::AckBatch(ids) => ids,
            other => panic!("expected AckBatch, got {other:?}"),
        };
        acked.sort_unstable();
        assert_eq!(acked, vec![100, 101, 102]);
        tx.send(AckerMsg::Shutdown).unwrap();
        h.join().unwrap();
        assert_eq!(gauge.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn explicit_fail_notifies_spout() {
        let (tx, srx, _g, h) = setup(Duration::from_secs(5));
        tx.send(AckerMsg::Init {
            root: 5,
            xor: 0x1,
            slot: 0,
            msg_id: 77,
            emit_ms: 0,
        })
        .unwrap();
        tx.send(AckerMsg::Fail { root: 5 }).unwrap();
        match srx.recv_timeout(Duration::from_secs(2)).unwrap() {
            SpoutMsg::Fail(77) => {}
            other => panic!("expected Fail(77), got {other:?}"),
        }
        tx.send(AckerMsg::Shutdown).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn fail_before_init_notifies_spout() {
        // Init is sent after the tuple deliveries, so a fast bolt can fail
        // a tree before the acker ever saw its Init. The failure must be
        // held and delivered when Init arrives — not dropped (which would
        // strand the tree until the timeout sweep).
        let (tx, srx, gauge, h) = setup(Duration::from_secs(60));
        tx.send(AckerMsg::Fail { root: 12 }).unwrap();
        tx.send(AckerMsg::Init {
            root: 12,
            xor: 0x5,
            slot: 0,
            msg_id: 33,
            emit_ms: 0,
        })
        .unwrap();
        match srx.recv_timeout(Duration::from_secs(2)).unwrap() {
            SpoutMsg::Fail(33) => {}
            other => panic!("expected Fail(33), got {other:?}"),
        }
        tx.send(AckerMsg::Shutdown).unwrap();
        h.join().unwrap();
        assert_eq!(gauge.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn timeout_fails_stale_tree() {
        // A mock clock drives the expiry: the logical timeout is an hour,
        // but the test advances past it instantly instead of sleeping.
        let clock = Clock::mock();
        let (tx, srx, _g, h) = setup_with_clock(Duration::from_secs(3_600), clock.clone());
        tx.send(AckerMsg::Init {
            root: 8,
            xor: 0x2,
            slot: 0,
            msg_id: 11,
            emit_ms: 0,
        })
        .unwrap();
        assert!(
            srx.recv_timeout(Duration::from_millis(30)).is_err(),
            "tree must not expire before the clock advances"
        );
        clock.advance(3_600_001);
        match srx.recv_timeout(Duration::from_secs(2)).unwrap() {
            SpoutMsg::Fail(11) => {}
            other => panic!("expected timeout Fail(11), got {other:?}"),
        }
        tx.send(AckerMsg::Shutdown).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn zero_edge_init_acks_immediately() {
        let (tx, srx, _g, h) = setup(Duration::from_secs(5));
        tx.send(AckerMsg::Init {
            root: 9,
            xor: 0,
            slot: 0,
            msg_id: 5,
            emit_ms: 0,
        })
        .unwrap();
        match srx.recv_timeout(Duration::from_secs(2)).unwrap() {
            SpoutMsg::Ack(5) => {}
            other => panic!("expected Ack(5), got {other:?}"),
        }
        tx.send(AckerMsg::Shutdown).unwrap();
        h.join().unwrap();
    }
}
