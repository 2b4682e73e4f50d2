//! A backed-up remote edge leaves in a few large frames, each within
//! `protocol::TUPLE_FRAME_BUDGET`, not one frame per batch. Batches of
//! 2 KiB strings are queued for one `sink` task while its egress pump is
//! held inside the egress callback; once released, the pump drains them
//! all at once and `protocol::encode_tuple_frames` cuts the drain into
//! frames. Injected into a second slice, those frames must yield the
//! same tuples, in the same order, as one frame per batch.

mod support;

use bytes::BytesMut;
use crossbeam::channel::{bounded, unbounded};
use std::sync::Arc;
use std::time::Duration;
use tcluster::protocol::{self, Msg, TUPLE_FRAME_BUDGET};
use tstorm::remote::{EgressFn, TupleBatch, WireTuple};
use tstorm::{Value, DEFAULT_STREAM};

/// Tuples of the batches the held pump finds queued: 1,024 tuples in 32
/// batches of about 68 KB, then one batch of 160 whose encoding alone is
/// over the budget.
fn batches() -> Vec<u64> {
    let mut sizes = vec![32; 32];
    sizes.push(160);
    sizes
}

/// `n` two-field tuples from `numbers`, each carrying a 2 KiB string and
/// one anchor; `first` numbers them across batches.
fn tuples(first: u64, n: u64) -> Vec<WireTuple> {
    (first..first + n)
        .map(|i| WireTuple {
            stream: DEFAULT_STREAM.to_string(),
            src_component: "numbers".to_string(),
            src_task: 0,
            values: vec![
                Value::U64(i),
                Value::Str(format!("{i:0>2048}").as_str().into()),
            ],
            anchors: vec![(i, !i)],
        })
        .collect()
}

/// Splits `bytes` into its frames' bodies.
fn frames(bytes: &[u8]) -> Vec<BytesMut> {
    let mut buf = BytesMut::new();
    buf.extend_from_slice(bytes);
    let mut bodies = Vec::new();
    while let Some((_, tag, body)) = wire::split_frame(&mut buf).unwrap() {
        assert_eq!(tag, protocol::TAG_TUPLE_BATCH);
        bodies.push(body);
    }
    assert!(buf.is_empty(), "trailing bytes after the last frame");
    bodies
}

fn decoded(body: &[u8]) -> Vec<WireTuple> {
    match protocol::decode(protocol::TAG_TUPLE_BATCH, body).unwrap() {
        Msg::TupleBatch { tuples, .. } => tuples,
        other => panic!("{other:?}"),
    }
}

#[test]
fn a_backed_up_edge_leaves_in_budgeted_frames() {
    // Every egress call announces itself and waits for `release`, then
    // reports the bytes it wrote and the batches it was handed.
    let (entered, entry) = unbounded::<()>();
    let (release, held) = bounded::<()>(2);
    let (tx, rx) = unbounded();
    let egress: EgressFn = Arc::new(
        move |buf: &mut Vec<u8>, dest: &str, task: usize, batches: &[TupleBatch]| {
            let _ = entered.send(());
            let _ = held.recv_timeout(Duration::from_secs(10));
            protocol::encode_tuple_frames(buf, 0, dest, task, batches);
            let per_batch: Vec<Vec<u8>> = batches
                .iter()
                .map(|b| {
                    let mut one = Vec::new();
                    protocol::encode_tuple_frames(&mut one, 0, dest, task, std::slice::from_ref(b));
                    one
                })
                .collect();
            let _ = tx.send((buf.clone(), per_batch, support::owned(batches)));
        },
    );
    let slice = support::launch(egress);
    // A one-tuple frame the pump takes alone and is then held on.
    protocol::inject(&slice, &support::body("sink", 0, tuples(0, 1))).unwrap();
    entry
        .recv_timeout(Duration::from_secs(10))
        .expect("pump took the first frame");
    let mut sent = tuples(0, 1);
    for n in batches() {
        let batch = tuples(sent.len() as u64, n);
        protocol::inject(&slice, &support::body("sink", 0, batch.clone())).unwrap();
        sent.extend(batch);
    }
    release.send(()).unwrap();
    release.send(()).unwrap();
    let mut calls = Vec::new();
    let mut seen = 0;
    while seen < sent.len() {
        let call = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("egress ran");
        seen += call.2.len();
        calls.push(call);
    }
    slice.kill();
    assert_eq!(calls.len(), 2, "the held pump drains the backlog at once");
    let (bytes, per_batch, owned) = &calls[1];
    assert_eq!(per_batch.len(), batches().len());

    // Several frames, each within the budget; the over-budget batch
    // alone in its frame.
    let bodies = frames(bytes);
    assert!(
        bodies.len() > 1 && bodies.len() < batches().len(),
        "{} frames",
        bodies.len()
    );
    for body in &bodies {
        let frame_len = 4 + wire::HEADER_LEN + body.len();
        let n = decoded(body).len();
        assert!(
            frame_len <= TUPLE_FRAME_BUDGET || n == 160,
            "a {frame_len}-byte frame of {n} tuples"
        );
    }
    let big = bodies.iter().map(|b| decoded(b).len());
    assert_eq!(big.filter(|&n| n == 160).count(), 1);
    assert!(bytes.len() > (1024 + 160) * 2048);

    // Same tuples, same order, as one frame per batch; and injected, the
    // frames deliver them in that order.
    let one_per_batch: Vec<WireTuple> = per_batch
        .iter()
        .flat_map(|b| frames(b).into_iter().flat_map(|body| decoded(&body)))
        .collect();
    let budgeted: Vec<WireTuple> = bodies.iter().flat_map(|b| decoded(b)).collect();
    assert_eq!(budgeted, one_per_batch);
    assert_eq!(&budgeted, owned);
    assert_eq!(budgeted[..], sent[1..]);

    let (tx, rx) = unbounded();
    let relay: EgressFn = Arc::new(
        move |_: &mut Vec<u8>, _: &str, _: usize, batches: &[TupleBatch]| {
            let _ = tx.send(support::owned(batches));
        },
    );
    let next = support::launch(relay);
    for body in &bodies {
        protocol::inject(&next, body).unwrap();
    }
    let mut delivered = Vec::new();
    while delivered.len() < budgeted.len() {
        delivered.extend(
            rx.recv_timeout(Duration::from_secs(10))
                .expect("egress ran"),
        );
    }
    next.kill();
    assert_eq!(delivered, one_per_batch);
}
