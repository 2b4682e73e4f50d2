//! Same bytes, same tuples: the worker data plane against the owned
//! codec on random frames — several (source, stream, task) groups per
//! frame, every `Value` variant including non-ASCII strings, and 0, 1 or
//! many anchors per tuple.
//!
//! Each frame is written by `protocol::encode`, injected into a slice
//! and drained by the egress pump, which re-encodes the runtime batches
//! with `protocol::encode_tuple_batch`. The runtime encoder must write
//! exactly the bytes `encode` writes for the same tuples, the batches
//! must hold the `decode` result grouped by (source, stream, task) in
//! first-seen order, and a frame whose groups are already contiguous
//! must come back byte-identical.

mod support;

use crossbeam::channel::unbounded;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use support::{SINK_TASKS, SOURCES};
use tcluster::protocol::{self, Msg};
use tstorm::remote::{EgressFn, TupleBatch, WireTuple};
use tstorm::Value;

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::I64),
        any::<u64>().prop_map(Value::U64),
        (-1e12f64..1e12).prop_map(Value::F64),
        any::<String>().prop_map(|s| Value::Str(s.into())),
        Just(Value::Str("größe 中文 🦀".into())),
    ]
}

fn anchors() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop_oneof![
        Just(Vec::new()),
        (any::<u64>(), any::<u64>()).prop_map(|p| vec![p]),
        prop::collection::vec((any::<u64>(), any::<u64>()), 2..6),
    ]
}

/// `(source index, source task, tuples)`; each tuple's values are cut
/// to its stream's width when the frame is built.
type Group = (usize, usize, Vec<(Vec<Value>, Vec<(u64, u64)>)>);

fn group() -> impl Strategy<Value = Group> {
    (
        0..SOURCES.len(),
        0usize..3,
        prop::collection::vec((prop::collection::vec(value(), 3), anchors()), 1..12),
    )
}

/// `decode`'s tuples grouped by (source, stream, task), groups in
/// first-seen order and tuples in frame order within each.
fn grouped(tuples: &[WireTuple]) -> Vec<WireTuple> {
    let key = |t: &WireTuple| (t.src_component.clone(), t.stream.clone(), t.src_task);
    let mut keys = Vec::new();
    for t in tuples {
        if !keys.contains(&key(t)) {
            keys.push(key(t));
        }
    }
    keys.iter()
        .flat_map(|k| tuples.iter().filter(move |t| key(t) == *k).cloned())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn runtime_frames_match_the_owned_codec(
        groups in prop::collection::vec(group(), 1..5),
        task in 0..SINK_TASKS,
    ) {
        let frame: Vec<WireTuple> = groups
            .into_iter()
            .flat_map(|(source, src_task, tuples)| {
                let (src, stream, width) = SOURCES[source];
                tuples.into_iter().map(move |(mut values, anchors)| {
                    values.truncate(width);
                    WireTuple {
                        stream: stream.to_string(),
                        src_component: src.to_string(),
                        src_task,
                        values,
                        anchors,
                    }
                })
            })
            .collect();
        let (tx, rx) = unbounded();
        let egress: EgressFn = Arc::new(
            move |buf: &mut Vec<u8>, dest: &str, task: usize, batches: &[TupleBatch]| {
                protocol::encode_tuple_batch(buf, 0, dest, task, batches);
                let _ = tx.send((buf.clone(), dest.to_string(), task, support::owned(batches)));
            },
        );
        let slice = support::launch(egress);
        let body = support::body("sink", task, frame.clone());
        let decoded = match protocol::decode(protocol::TAG_TUPLE_BATCH, &body).unwrap() {
            Msg::TupleBatch { tuples, .. } => tuples,
            other => panic!("{other:?}"),
        };
        prop_assert_eq!(&decoded, &frame);
        protocol::inject(&slice, &body).unwrap();
        let (bytes, dest, out_task, injected) =
            rx.recv_timeout(Duration::from_secs(10)).expect("egress ran");
        slice.kill();
        prop_assert_eq!((dest.as_str(), out_task), ("sink", task));
        prop_assert_eq!(&injected, &grouped(&decoded));
        let owned_bytes = support::encode_owned(0, "sink", task, injected.clone());
        prop_assert_eq!(&bytes[..], &owned_bytes[..]);
        if injected == frame {
            prop_assert_eq!(&bytes[..], &support::encode_owned(0, "sink", task, frame)[..]);
        }
    }
}
