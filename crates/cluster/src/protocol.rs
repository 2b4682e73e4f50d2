//! Supervisor ↔ worker control-plane and data-plane frames.
//!
//! Every frame uses the shared [`wire`] length-prefixed layout
//! (`len:u32le | id:u64le tag:u8 body`). The supervisor relays
//! [`Msg::TupleBatch`] frames between workers without decoding the tuple
//! payload — [`peek_tuple_batch_dest`] reads only the destination
//! component from the body head — so the data plane stays one copy per
//! hop. Everything else is decoded with [`decode`].

use bytes::BytesMut;
use obs::{LatencySnapshot, Sample, SampleKind};
use tstorm::ack::{AckerMsg, InitEntry};
use tstorm::remote::WireTuple;
use tstorm::tuple::Value;
use wire::{with_frame, ProtocolError, Reader};

/// Worker → supervisor: first frame on a fresh connection.
pub const TAG_REGISTER: u8 = 0x01;
/// Supervisor → worker: which components to run and their spout slots.
pub const TAG_ASSIGNMENT: u8 = 0x02;
/// Supervisor → worker: all workers are registered, start the slice.
pub const TAG_START: u8 = 0x03;
/// Either direction: tuples bound for one task of one component.
pub const TAG_TUPLE_BATCH: u8 = 0x10;
/// Worker → supervisor: batched acker traffic for the global acker.
pub const TAG_ACKER_BATCH: u8 = 0x11;
/// Supervisor → worker: ack/fail notifications for one spout slot.
pub const TAG_SPOUT_NOTIFY: u8 = 0x12;
/// Worker → supervisor: periodic liveness/progress report.
pub const TAG_STATUS: u8 = 0x13;
/// Supervisor → worker: serialize app state and report it back.
pub const TAG_DRAIN_REQUEST: u8 = 0x14;
/// Worker → supervisor: the app state bytes from a drain request.
pub const TAG_DRAIN_REPORT: u8 = 0x15;
/// Supervisor → worker: stop the topology and exit the process.
pub const TAG_SHUTDOWN: u8 = 0x16;
/// Worker → supervisor: periodic metric samples for the cluster scrape.
pub const TAG_METRICS: u8 = 0x17;
/// Worker → supervisor: latest durable resume point (offset commits).
pub const TAG_COMMIT: u8 = 0x18;

/// Ack/fail discriminator carried by [`Msg::SpoutNotify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotifyKind {
    /// The tuple trees rooted at the carried message ids completed.
    Ack,
    /// The trees failed or timed out; the spout should replay them.
    Fail,
}

/// One decoded protocol message.
#[derive(Debug)]
pub enum Msg {
    /// Worker announces itself (first frame after connecting).
    Register {
        /// The worker's index in the supervisor's config.
        worker_id: u32,
        /// The incarnation generation the supervisor stamped into this
        /// worker's environment at spawn. Registration is fenced: only
        /// the generation the supervisor most recently spawned for this
        /// slot may join, so a zombie predecessor can never steal its
        /// replacement's mailbox. Every subsequent worker→supervisor
        /// frame carries the same generation as its wire id.
        generation: u64,
    },
    /// Supervisor tells a worker which topology slice it owns.
    Assignment {
        /// Components that get real task threads in this worker.
        components: Vec<String>,
        /// Global acker slot of each local spout task, in local order.
        slot_map: Vec<usize>,
        /// The worker's last offset-commit blob, when this assignment
        /// follows a restart (`None` on first launch).
        recovered: Option<Vec<u8>>,
    },
    /// Every worker is registered; launch the slice and start emitting.
    Start,
    /// Tuples for `dest_component`/`dest_task`, flattened for the wire.
    TupleBatch {
        /// Receiving component name.
        dest_component: String,
        /// Task index within the receiving component.
        dest_task: usize,
        /// The flattened tuples.
        tuples: Vec<WireTuple>,
    },
    /// Acker traffic drained from one worker's emitters.
    AckerBatch(
        /// The forwarded messages, in channel order.
        Vec<AckerMsg>,
    ),
    /// Tree completions/failures for one global spout slot.
    SpoutNotify {
        /// Global acker slot of the owning spout task.
        global_slot: usize,
        /// Whether the ids acked or failed.
        kind: NotifyKind,
        /// User-supplied message ids of the affected trees.
        ids: Vec<u64>,
    },
    /// Periodic worker health/progress report.
    Status {
        /// App-defined progress (e.g. records fully processed); 0 when
        /// the app declares no progress probe.
        progress: u64,
        /// Tuples queued/buffered/executing in the worker.
        inflight: i64,
        /// True when every local spout has nothing left to emit.
        spouts_idle: bool,
    },
    /// Ask the worker to serialize its app state.
    DrainRequest,
    /// The serialized app state.
    DrainReport(
        /// Opaque app-defined bytes (empty when the app has no drain fn).
        Vec<u8>,
    ),
    /// Stop the topology and exit.
    Shutdown,
    /// Metric samples exported from the worker's registries.
    MetricsReport(
        /// The samples, in registration order.
        Vec<Sample>,
    ),
    /// The worker's latest durable resume point. The supervisor stores
    /// only the newest blob per worker and replays it in the
    /// [`Msg::Assignment`] after a restart.
    OffsetCommit(
        /// Opaque app-defined bytes (e.g. an encoded
        /// per-partition offset table).
        Vec<u8>,
    ),
}

fn w_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn w_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

fn w_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn w_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn w_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(u8::from(*b));
        }
        Value::I64(i) => {
            out.push(2);
            w_u64(out, *i as u64);
        }
        Value::U64(u) => {
            out.push(3);
            w_u64(out, *u);
        }
        Value::F64(f) => {
            out.push(4);
            w_u64(out, f.to_bits());
        }
        Value::Str(s) => {
            out.push(5);
            w_str(out, s);
        }
    }
}

fn w_wire_tuple(out: &mut Vec<u8>, t: &WireTuple) {
    w_str(out, &t.stream);
    w_str(out, &t.src_component);
    w_u64(out, t.src_task as u64);
    w_u32(out, t.values.len() as u32);
    for v in &t.values {
        w_value(out, v);
    }
    w_u32(out, t.anchors.len() as u32);
    for &(root, edge) in &t.anchors {
        w_u64(out, root);
        w_u64(out, edge);
    }
}

fn w_acker_msg(out: &mut Vec<u8>, m: &AckerMsg) {
    match m {
        AckerMsg::Init {
            root,
            xor,
            slot,
            msg_id,
            emit_ms,
        } => {
            out.push(0);
            w_u64(out, *root);
            w_u64(out, *xor);
            w_u64(out, *slot as u64);
            w_u64(out, *msg_id);
            w_u64(out, *emit_ms);
        }
        AckerMsg::InitBatch(inits) => {
            out.push(1);
            w_u32(out, inits.len() as u32);
            for i in inits {
                w_u64(out, i.root);
                w_u64(out, i.xor);
                w_u64(out, i.slot as u64);
                w_u64(out, i.msg_id);
                w_u64(out, i.emit_ms);
            }
        }
        AckerMsg::Xor { root, xor } => {
            out.push(2);
            w_u64(out, *root);
            w_u64(out, *xor);
        }
        AckerMsg::XorBatch(pairs) => {
            out.push(3);
            w_u32(out, pairs.len() as u32);
            for &(root, xor) in pairs {
                w_u64(out, root);
                w_u64(out, xor);
            }
        }
        AckerMsg::Fail { root } => {
            out.push(4);
            w_u64(out, *root);
        }
        // Shutdown is process-local (end-of-stream marker for the
        // forwarder); it never crosses the wire.
        AckerMsg::Shutdown => out.push(5),
    }
}

fn w_sample(out: &mut Vec<u8>, s: &Sample) {
    w_str(out, &s.family);
    w_str(out, &s.help);
    w_u32(out, s.labels.len() as u32);
    for (k, v) in &s.labels {
        w_str(out, k);
        w_str(out, v);
    }
    match &s.kind {
        SampleKind::Counter(v) => {
            out.push(0);
            w_u64(out, *v);
        }
        SampleKind::Gauge(v) => {
            out.push(1);
            w_u64(out, v.to_bits());
        }
        SampleKind::Histogram { snapshot, is_nanos } => {
            out.push(2);
            out.push(u8::from(*is_nanos));
            w_u64(out, snapshot.sum_nanos());
            w_u64(out, snapshot.max_nanos());
            let sparse = snapshot.sparse_counts();
            w_u32(out, sparse.len() as u32);
            for (bucket, count) in sparse {
                w_u32(out, bucket);
                w_u64(out, count);
            }
        }
    }
}

type BodyWriter<'a> = Box<dyn Fn(&mut Vec<u8>) + 'a>;

/// Encodes `msg` as one frame with correlation id `id` into `buf`.
pub fn encode(buf: &mut BytesMut, id: u64, msg: &Msg) {
    let (tag, enc): (u8, BodyWriter<'_>) = match msg {
        Msg::Register {
            worker_id,
            generation,
        } => (
            TAG_REGISTER,
            Box::new(move |out| {
                w_u32(out, *worker_id);
                w_u64(out, *generation);
            }),
        ),
        Msg::Assignment {
            components,
            slot_map,
            recovered,
        } => (
            TAG_ASSIGNMENT,
            Box::new(move |out| {
                w_u32(out, components.len() as u32);
                for c in components {
                    w_str(out, c);
                }
                w_u32(out, slot_map.len() as u32);
                for &s in slot_map {
                    w_u64(out, s as u64);
                }
                match recovered {
                    None => out.push(0),
                    Some(b) => {
                        out.push(1);
                        w_bytes(out, b);
                    }
                }
            }),
        ),
        Msg::Start => (TAG_START, Box::new(|_| {})),
        Msg::TupleBatch {
            dest_component,
            dest_task,
            tuples,
        } => (
            TAG_TUPLE_BATCH,
            Box::new(move |out| {
                w_str(out, dest_component);
                w_u64(out, *dest_task as u64);
                w_u32(out, tuples.len() as u32);
                for t in tuples {
                    w_wire_tuple(out, t);
                }
            }),
        ),
        Msg::AckerBatch(msgs) => (
            TAG_ACKER_BATCH,
            Box::new(move |out| {
                w_u32(out, msgs.len() as u32);
                for m in msgs {
                    w_acker_msg(out, m);
                }
            }),
        ),
        Msg::SpoutNotify {
            global_slot,
            kind,
            ids,
        } => (
            TAG_SPOUT_NOTIFY,
            Box::new(move |out| {
                w_u64(out, *global_slot as u64);
                out.push(match kind {
                    NotifyKind::Ack => 0,
                    NotifyKind::Fail => 1,
                });
                w_u32(out, ids.len() as u32);
                for &i in ids {
                    w_u64(out, i);
                }
            }),
        ),
        Msg::Status {
            progress,
            inflight,
            spouts_idle,
        } => (
            TAG_STATUS,
            Box::new(move |out| {
                w_u64(out, *progress);
                w_u64(out, *inflight as u64);
                out.push(u8::from(*spouts_idle));
            }),
        ),
        Msg::DrainRequest => (TAG_DRAIN_REQUEST, Box::new(|_| {})),
        Msg::DrainReport(bytes) => (TAG_DRAIN_REPORT, Box::new(move |out| w_bytes(out, bytes))),
        Msg::Shutdown => (TAG_SHUTDOWN, Box::new(|_| {})),
        Msg::MetricsReport(samples) => (
            TAG_METRICS,
            Box::new(move |out| {
                w_u32(out, samples.len() as u32);
                for s in samples {
                    w_sample(out, s);
                }
            }),
        ),
        Msg::OffsetCommit(bytes) => (TAG_COMMIT, Box::new(move |out| w_bytes(out, bytes))),
    };
    with_frame(buf, id, tag, |out| enc(out));
}

fn r_str(r: &mut Reader<'_>) -> Result<String, ProtocolError> {
    String::from_utf8(r.bytes()?.to_vec()).map_err(|_| ProtocolError::BadPayload("invalid utf-8"))
}

fn r_value(r: &mut Reader<'_>) -> Result<Value, ProtocolError> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::Bool(r.u8()? != 0),
        2 => Value::I64(r.u64()? as i64),
        3 => Value::U64(r.u64()?),
        4 => Value::F64(f64::from_bits(r.u64()?)),
        5 => Value::Str(r_str(r)?.into()),
        _ => return Err(ProtocolError::BadPayload("unknown value tag")),
    })
}

fn r_wire_tuple(r: &mut Reader<'_>) -> Result<WireTuple, ProtocolError> {
    let stream = r_str(r)?;
    let src_component = r_str(r)?;
    let src_task = r.u64()? as usize;
    let n_values = r.count(1)?;
    let mut values = Vec::with_capacity(n_values);
    for _ in 0..n_values {
        values.push(r_value(r)?);
    }
    let n_anchors = r.count(16)?;
    let mut anchors = Vec::with_capacity(n_anchors);
    for _ in 0..n_anchors {
        anchors.push((r.u64()?, r.u64()?));
    }
    Ok(WireTuple {
        stream,
        src_component,
        src_task,
        values,
        anchors,
    })
}

fn r_acker_msg(r: &mut Reader<'_>) -> Result<AckerMsg, ProtocolError> {
    Ok(match r.u8()? {
        0 => AckerMsg::Init {
            root: r.u64()?,
            xor: r.u64()?,
            slot: r.u64()? as usize,
            msg_id: r.u64()?,
            emit_ms: r.u64()?,
        },
        1 => {
            let n = r.count(40)?;
            let mut inits = Vec::with_capacity(n);
            for _ in 0..n {
                inits.push(InitEntry {
                    root: r.u64()?,
                    xor: r.u64()?,
                    slot: r.u64()? as usize,
                    msg_id: r.u64()?,
                    emit_ms: r.u64()?,
                });
            }
            AckerMsg::InitBatch(inits)
        }
        2 => AckerMsg::Xor {
            root: r.u64()?,
            xor: r.u64()?,
        },
        3 => {
            let n = r.count(16)?;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                pairs.push((r.u64()?, r.u64()?));
            }
            AckerMsg::XorBatch(pairs)
        }
        4 => AckerMsg::Fail { root: r.u64()? },
        5 => AckerMsg::Shutdown,
        _ => return Err(ProtocolError::BadPayload("unknown acker tag")),
    })
}

fn r_sample(r: &mut Reader<'_>) -> Result<Sample, ProtocolError> {
    let family = r_str(r)?;
    let help = r_str(r)?;
    let n_labels = r.count(8)?;
    let mut labels = Vec::with_capacity(n_labels);
    for _ in 0..n_labels {
        labels.push((r_str(r)?, r_str(r)?));
    }
    let kind = match r.u8()? {
        0 => SampleKind::Counter(r.u64()?),
        1 => SampleKind::Gauge(f64::from_bits(r.u64()?)),
        2 => {
            let is_nanos = r.u8()? != 0;
            let sum = r.u64()?;
            let max = r.u64()?;
            let n = r.count(12)?;
            let mut sparse = Vec::with_capacity(n);
            for _ in 0..n {
                sparse.push((r.u32()?, r.u64()?));
            }
            SampleKind::Histogram {
                snapshot: LatencySnapshot::from_parts(&sparse, 0, sum, max),
                is_nanos,
            }
        }
        _ => return Err(ProtocolError::BadPayload("unknown sample kind")),
    };
    Ok(Sample {
        family,
        labels,
        help,
        kind,
    })
}

/// Decodes one frame body. `tag` and `body` come from
/// [`wire::split_frame`].
pub fn decode(tag: u8, body: &[u8]) -> Result<Msg, ProtocolError> {
    let mut r = Reader::new(body);
    let msg = match tag {
        TAG_REGISTER => Msg::Register {
            worker_id: r.u32()?,
            generation: r.u64()?,
        },
        TAG_ASSIGNMENT => {
            let n = r.count(4)?;
            let mut components = Vec::with_capacity(n);
            for _ in 0..n {
                components.push(r_str(&mut r)?);
            }
            let n = r.count(8)?;
            let mut slot_map = Vec::with_capacity(n);
            for _ in 0..n {
                slot_map.push(r.u64()? as usize);
            }
            let recovered = match r.u8()? {
                0 => None,
                1 => Some(r.bytes()?.to_vec()),
                _ => return Err(ProtocolError::BadPayload("bad recovered flag")),
            };
            Msg::Assignment {
                components,
                slot_map,
                recovered,
            }
        }
        TAG_START => Msg::Start,
        TAG_TUPLE_BATCH => {
            let dest_component = r_str(&mut r)?;
            let dest_task = r.u64()? as usize;
            let n = r.count(16)?;
            let mut tuples = Vec::with_capacity(n);
            for _ in 0..n {
                tuples.push(r_wire_tuple(&mut r)?);
            }
            Msg::TupleBatch {
                dest_component,
                dest_task,
                tuples,
            }
        }
        TAG_ACKER_BATCH => {
            let n = r.count(9)?;
            let mut msgs = Vec::with_capacity(n);
            for _ in 0..n {
                msgs.push(r_acker_msg(&mut r)?);
            }
            Msg::AckerBatch(msgs)
        }
        TAG_SPOUT_NOTIFY => {
            let global_slot = r.u64()? as usize;
            let kind = match r.u8()? {
                0 => NotifyKind::Ack,
                1 => NotifyKind::Fail,
                _ => return Err(ProtocolError::BadPayload("unknown notify kind")),
            };
            let n = r.count(8)?;
            let mut ids = Vec::with_capacity(n);
            for _ in 0..n {
                ids.push(r.u64()?);
            }
            Msg::SpoutNotify {
                global_slot,
                kind,
                ids,
            }
        }
        TAG_STATUS => Msg::Status {
            progress: r.u64()?,
            inflight: r.u64()? as i64,
            spouts_idle: r.u8()? != 0,
        },
        TAG_DRAIN_REQUEST => Msg::DrainRequest,
        TAG_DRAIN_REPORT => Msg::DrainReport(r.bytes()?.to_vec()),
        TAG_SHUTDOWN => Msg::Shutdown,
        TAG_METRICS => {
            let n = r.count(10)?;
            let mut samples = Vec::with_capacity(n);
            for _ in 0..n {
                samples.push(r_sample(&mut r)?);
            }
            Msg::MetricsReport(samples)
        }
        TAG_COMMIT => Msg::OffsetCommit(r.bytes()?.to_vec()),
        other => return Err(ProtocolError::UnknownTag(other)),
    };
    r.finish()?;
    Ok(msg)
}

/// Reads only the destination component from a [`Msg::TupleBatch`] body,
/// so the supervisor can route the frame without decoding the tuples.
pub fn peek_tuple_batch_dest(body: &[u8]) -> Result<String, ProtocolError> {
    let mut r = Reader::new(body);
    r_str(&mut r)
}

/// Extracts the distinct anchor roots from a [`Msg::TupleBatch`] body.
/// Used on the fail-fast degradation path — when the destination
/// worker's lease is expired the supervisor fails every tree in the
/// batch at the acker instead of buffering toward a frozen socket. This
/// walks the whole body (anchors are interleaved per tuple), which is
/// fine: it only runs while a worker is down, never on the relay hot
/// path.
pub fn peek_tuple_batch_roots(body: &[u8]) -> Result<Vec<u64>, ProtocolError> {
    let mut r = Reader::new(body);
    let _dest = r_str(&mut r)?;
    let _task = r.u64()?;
    let n = r.count(16)?;
    let mut roots: Vec<u64> = Vec::new();
    for _ in 0..n {
        let t = r_wire_tuple(&mut r)?;
        for (root, _) in t.anchors {
            if !roots.contains(&root) {
                roots.push(root);
            }
        }
    }
    Ok(roots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::split_frame;

    fn roundtrip(msg: &Msg) -> Msg {
        let mut buf = BytesMut::new();
        encode(&mut buf, 7, msg);
        let (id, tag, body) = split_frame(&mut buf).unwrap().unwrap();
        assert_eq!(id, 7);
        assert!(buf.is_empty(), "one frame per message");
        decode(tag, &body).unwrap()
    }

    #[test]
    fn control_frames_roundtrip() {
        match roundtrip(&Msg::Register {
            worker_id: 3,
            generation: 7,
        }) {
            Msg::Register {
                worker_id: 3,
                generation: 7,
            } => {}
            other => panic!("{other:?}"),
        }
        match roundtrip(&Msg::Assignment {
            components: vec!["spout".into(), "count".into()],
            slot_map: vec![2, 3],
            recovered: Some(vec![9, 9]),
        }) {
            Msg::Assignment {
                components,
                slot_map,
                recovered,
            } => {
                assert_eq!(components, vec!["spout", "count"]);
                assert_eq!(slot_map, vec![2, 3]);
                assert_eq!(recovered, Some(vec![9, 9]));
            }
            other => panic!("{other:?}"),
        }
        match roundtrip(&Msg::Assignment {
            components: vec![],
            slot_map: vec![],
            recovered: None,
        }) {
            Msg::Assignment {
                recovered: None, ..
            } => {}
            other => panic!("{other:?}"),
        }
        match roundtrip(&Msg::OffsetCommit(vec![4, 5])) {
            Msg::OffsetCommit(b) => assert_eq!(b, vec![4, 5]),
            other => panic!("{other:?}"),
        }
        assert!(matches!(roundtrip(&Msg::Start), Msg::Start));
        assert!(matches!(roundtrip(&Msg::Shutdown), Msg::Shutdown));
        assert!(matches!(roundtrip(&Msg::DrainRequest), Msg::DrainRequest));
        match roundtrip(&Msg::DrainReport(vec![1, 2, 3])) {
            Msg::DrainReport(b) => assert_eq!(b, vec![1, 2, 3]),
            other => panic!("{other:?}"),
        }
        match roundtrip(&Msg::Status {
            progress: 42,
            inflight: -1,
            spouts_idle: true,
        }) {
            Msg::Status {
                progress: 42,
                inflight: -1,
                spouts_idle: true,
            } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tuple_batch_roundtrips_and_peeks() {
        let t = WireTuple {
            stream: "default".into(),
            src_component: "spout".into(),
            src_task: 1,
            values: vec![
                Value::Null,
                Value::Bool(true),
                Value::I64(-5),
                Value::U64(9),
                Value::F64(1.5),
                Value::Str("hi".into()),
            ],
            anchors: vec![(10, 20), (30, 40)],
        };
        let msg = Msg::TupleBatch {
            dest_component: "count".into(),
            dest_task: 2,
            tuples: vec![t.clone()],
        };
        let mut buf = BytesMut::new();
        encode(&mut buf, 1, &msg);
        let (_, tag, body) = split_frame(&mut buf).unwrap().unwrap();
        assert_eq!(tag, TAG_TUPLE_BATCH);
        assert_eq!(peek_tuple_batch_dest(&body).unwrap(), "count");
        assert_eq!(
            peek_tuple_batch_roots(&body).unwrap(),
            vec![10, 30],
            "distinct anchor roots, in first-seen order"
        );
        match decode(tag, &body).unwrap() {
            Msg::TupleBatch {
                dest_component,
                dest_task,
                tuples,
            } => {
                assert_eq!(dest_component, "count");
                assert_eq!(dest_task, 2);
                assert_eq!(tuples, vec![t]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn acker_batch_roundtrips() {
        let msg = Msg::AckerBatch(vec![
            AckerMsg::Init {
                root: 1,
                xor: 2,
                slot: 3,
                msg_id: 4,
                emit_ms: 5,
            },
            AckerMsg::InitBatch(vec![InitEntry {
                root: 6,
                xor: 7,
                slot: 8,
                msg_id: 9,
                emit_ms: 10,
            }]),
            AckerMsg::Xor { root: 11, xor: 12 },
            AckerMsg::XorBatch(vec![(13, 14), (15, 16)]),
            AckerMsg::Fail { root: 17 },
        ]);
        match roundtrip(&msg) {
            Msg::AckerBatch(msgs) => {
                assert_eq!(msgs.len(), 5);
                assert!(matches!(
                    msgs[0],
                    AckerMsg::Init {
                        root: 1,
                        xor: 2,
                        slot: 3,
                        msg_id: 4,
                        emit_ms: 5
                    }
                ));
                match &msgs[1] {
                    AckerMsg::InitBatch(inits) => {
                        assert_eq!(inits.len(), 1);
                        assert_eq!(inits[0].root, 6);
                        assert_eq!(inits[0].emit_ms, 10);
                    }
                    other => panic!("{other:?}"),
                }
                assert!(matches!(msgs[2], AckerMsg::Xor { root: 11, xor: 12 }));
                match &msgs[3] {
                    AckerMsg::XorBatch(p) => assert_eq!(p, &vec![(13, 14), (15, 16)]),
                    other => panic!("{other:?}"),
                }
                assert!(matches!(msgs[4], AckerMsg::Fail { root: 17 }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn spout_notify_roundtrips() {
        match roundtrip(&Msg::SpoutNotify {
            global_slot: 2,
            kind: NotifyKind::Fail,
            ids: vec![100, 200],
        }) {
            Msg::SpoutNotify {
                global_slot,
                kind,
                ids,
            } => {
                assert_eq!(global_slot, 2);
                assert_eq!(kind, NotifyKind::Fail);
                assert_eq!(ids, vec![100, 200]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn metrics_report_roundtrips_histograms() {
        let reg = obs::Registry::new();
        reg.counter("c_total", &[("w", "1")], "c").add(3);
        let h = reg.histogram_nanos("lat", &[], "lat");
        h.record_nanos(1_000);
        h.record_nanos(2_000_000);
        match roundtrip(&Msg::MetricsReport(reg.export())) {
            Msg::MetricsReport(samples) => {
                assert_eq!(samples.len(), 2);
                assert!(matches!(samples[0].kind, SampleKind::Counter(3)));
                match &samples[1].kind {
                    SampleKind::Histogram { snapshot, is_nanos } => {
                        assert!(*is_nanos);
                        assert_eq!(snapshot.count(), 2);
                        assert_eq!(
                            snapshot.sum_nanos(),
                            reg.histogram_snapshot("lat", &[]).unwrap().sum_nanos()
                        );
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn garbage_bodies_error_without_panic() {
        for tag in [
            TAG_REGISTER,
            TAG_ASSIGNMENT,
            TAG_TUPLE_BATCH,
            TAG_ACKER_BATCH,
            TAG_SPOUT_NOTIFY,
            TAG_STATUS,
            TAG_DRAIN_REPORT,
            TAG_METRICS,
            0x77,
        ] {
            let _ = decode(tag, &[0xFF; 5]);
            let _ = decode(tag, &[]);
        }
    }
}
