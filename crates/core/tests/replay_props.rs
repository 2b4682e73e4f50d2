//! Property tests for the replayable spout's offset bookkeeping and the
//! history replay log that is sized by it. Under arbitrary interleavings
//! of deliver/ack/fail (fail = explicit failure or acker timeout — the
//! spout cannot tell them apart), the spout never double-delivers a
//! source to the dedup layer while a delivery is in flight or after it
//! acked, never skips a source, never emits `max_pending` or more offsets
//! past a partition's committed watermark, and drives every watermark to
//! the end of the log — from wherever the partition was resumed. And a
//! history log trimmed to `dedup_window = max_pending` offsets per
//! partition still holds every source such a spout can redeliver.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use tdaccess::{AccessCluster, ClusterConfig};
use tencentrec::action::{ActionType, ActionWeights, UserAction};
use tencentrec::topology::replay::{decode_src, ReplayableSpout};
use tencentrec::topology::state::{
    apply_action_in_place, decode_history, HistoryAction, HistoryLimits,
};

#[derive(Debug, Clone)]
enum Op {
    /// Poll the next emittable record.
    Next,
    /// Ack one in-flight delivery (picked by index).
    Ack(u8),
    /// Fail one in-flight delivery (explicitly or "by timeout").
    Fail(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Next),
        Just(Op::Next), // weight polling up so runs make progress
        any::<u8>().prop_map(Op::Ack),
        any::<u8>().prop_map(Op::Fail),
    ]
}

const RECORDS: u64 = 40;

/// A topic of [`RECORDS`] actions; `keyed_by_user` sends each user's
/// actions to one partition (as production does), otherwise records
/// spread by index. Returns each partition's end offset.
fn topic(partitions: usize, keyed_by_user: bool) -> (AccessCluster, HashMap<u32, u64>) {
    let cluster = AccessCluster::new(ClusterConfig::default());
    cluster.create_topic("t", partitions).unwrap();
    let producer = cluster.producer("t").unwrap();
    let mut ends: HashMap<u32, u64> = HashMap::new();
    for i in 0..RECORDS {
        let a = UserAction::new(i % 9, i % 5, ActionType::Click, i);
        let key = if keyed_by_user { a.user } else { i };
        let (pid, offset) = producer
            .send(Some(&key.to_le_bytes()[..]), &a.to_bytes())
            .unwrap();
        ends.insert(pid, offset + 1);
    }
    (cluster, ends)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn replay_never_skips_or_double_delivers(
        ops in prop::collection::vec(arb_op(), 1..300),
        partitions in 1usize..5,
        max_pending in 2usize..9,
        // Quarters of each partition already committed by a predecessor:
        // the spout resumes there, first seeing the partition mid-log.
        resumed in prop::collection::vec(0u64..4, 4),
    ) {
        let (cluster, ends) = topic(partitions, false);
        let starts: HashMap<u32, u64> =
            ends.iter().map(|(&pid, &end)| (pid, end * resumed[pid as usize] / 4)).collect();
        let mut spout = ReplayableSpout::new(cluster, "t", "g", Arc::default())
            .with_max_pending(max_pending)
            .with_start_offsets(starts.iter().map(|(&pid, &start)| (pid, start)).collect());
        spout.connect();

        let mut in_flight: Vec<u64> = Vec::new();
        let mut acked: HashSet<u64> = HashSet::new();
        let deliver = |spout: &mut ReplayableSpout,
                       in_flight: &mut Vec<u64>,
                       acked: &HashSet<u64>|
         -> bool {
            match spout.poll_next() {
                None => false,
                Some((src, _action)) => {
                    let (pid, offset) = decode_src(src);
                    prop_assert!(offset >= starts[&pid], "replayed below the resume point");
                    prop_assert!(
                        offset < spout.tracker().committed(pid) + max_pending as u64,
                        "offset {offset} of partition {pid} emitted {max_pending} or more \
                         past its watermark {}",
                        spout.tracker().committed(pid)
                    );
                    prop_assert!(in_flight.len() < max_pending, "count cap");
                    prop_assert!(
                        !in_flight.contains(&src),
                        "double delivery while {src:#x} is in flight"
                    );
                    prop_assert!(
                        !acked.contains(&src),
                        "redelivery of already-acked {src:#x}"
                    );
                    in_flight.push(src);
                    true
                }
            }
        };

        for op in &ops {
            match op {
                Op::Next => {
                    deliver(&mut spout, &mut in_flight, &acked);
                }
                Op::Ack(i) => {
                    if !in_flight.is_empty() {
                        let src = in_flight.remove(*i as usize % in_flight.len());
                        spout.on_ack(src);
                        prop_assert!(acked.insert(src), "acked {src:#x} twice");
                    }
                }
                Op::Fail(i) => {
                    if !in_flight.is_empty() {
                        let src = in_flight.remove(*i as usize % in_flight.len());
                        spout.on_fail(src);
                    }
                }
            }
        }

        // Drain: keep delivering and acking until the log is exhausted.
        // Bounded: every iteration acks everything in flight, so each
        // source can only be re-delivered after an explicit fail above.
        let mut rounds = 0;
        loop {
            while deliver(&mut spout, &mut in_flight, &acked) {}
            if in_flight.is_empty() {
                break;
            }
            for src in in_flight.drain(..) {
                spout.on_ack(src);
                prop_assert!(acked.insert(src), "acked {src:#x} twice in drain");
            }
            rounds += 1;
            prop_assert!(rounds < 1_000, "drain did not terminate");
        }

        // Every source past the resume points delivered (and acked)
        // exactly once; every partition's committed watermark reached the
        // end of its log.
        let expected: u64 = ends.iter().map(|(pid, end)| end - starts[pid]).sum();
        prop_assert_eq!(acked.len() as u64, expected, "a source was skipped");
        for (&pid, &end) in &ends {
            prop_assert_eq!(
                spout.tracker().committed(pid),
                end,
                "partition {} watermark short of the log end",
                pid
            );
        }
    }

    /// The horizon trim is exact: whatever the capped spout does, every
    /// source it can still redeliver is in its user's log when a tuple of
    /// that partition reaches the history layer, so a redelivery always
    /// finds its original deltas and changes nothing.
    #[test]
    fn trimmed_history_log_keeps_every_redeliverable_source(
        ops in prop::collection::vec(arb_op(), 1..400),
        partitions in 1usize..4,
        max_pending in 2usize..7,
    ) {
        let (cluster, _ends) = topic(partitions, true);
        let mut spout =
            ReplayableSpout::new(cluster, "t", "g", Arc::default()).with_max_pending(max_pending);
        spout.connect();
        // The tightest window the contract allows.
        let limits = HistoryLimits {
            linked_time_ms: u64::MAX,
            max_history: 1024,
            dedup_window: max_pending,
        };
        let weights = ActionWeights::default();

        type Deltas = (u64, Vec<(u64, u64, u64)>);
        let mut histories: HashMap<u64, Option<Vec<u8>>> = HashMap::new();
        let mut applied: HashMap<u64, (u64, Deltas)> = HashMap::new();
        let mut in_flight: Vec<u64> = Vec::new();
        let mut pair_deltas = Vec::new();
        let all_acks = (0..RECORDS as usize * 2).map(|_| Op::Ack(0));
        for op in ops.iter().cloned().chain(all_acks.flat_map(|ack| [Op::Next, ack])) {
            match op {
                Op::Next => {
                    let Some((src, action)) = spout.poll_next() else { continue };
                    in_flight.push(src);
                    let slot = histories.entry(action.user).or_default();
                    let edit = apply_action_in_place(
                        slot,
                        &HistoryAction {
                            item: action.item,
                            weight: weights.weight(action.action),
                            ts: action.timestamp,
                            src,
                        },
                        &limits,
                        &mut pair_deltas,
                    );
                    let deltas: Deltas = (
                        edit.delta_rating.to_bits(),
                        pair_deltas.iter().map(|&(a, b, d)| (a, b, d.to_bits())).collect(),
                    );
                    match applied.get(&src) {
                        Some((_, original)) => {
                            prop_assert!(!edit.changed, "a redelivery rewrote the history");
                            prop_assert_eq!(&deltas, original, "a redelivery recomputed");
                        }
                        None => {
                            applied.insert(src, (action.user, deltas));
                        }
                    }
                    let (pid, _) = decode_src(src);
                    let committed = spout.tracker().committed(pid);
                    for (&earlier, (user, _)) in &applied {
                        let (p, offset) = decode_src(earlier);
                        if p != pid || offset < committed {
                            continue;
                        }
                        let raw = histories[user].as_deref().expect("applied");
                        let (_, log) = decode_history(raw);
                        prop_assert!(
                            log.iter().any(|e| e.src == earlier),
                            "offset {offset} of partition {pid} is uncommitted \
                             (watermark {committed}) but trimmed from user {user}'s log"
                        );
                        prop_assert!(log.len() <= max_pending);
                    }
                }
                Op::Ack(i) if !in_flight.is_empty() => {
                    spout.on_ack(in_flight.remove(i as usize % in_flight.len()));
                }
                Op::Fail(i) if !in_flight.is_empty() => {
                    spout.on_fail(in_flight.remove(i as usize % in_flight.len()));
                }
                Op::Ack(_) | Op::Fail(_) => {}
            }
        }
        prop_assert_eq!(applied.len() as u64, RECORDS, "the drain reached every record");
    }
}
