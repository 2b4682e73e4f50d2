//! Supervisor ↔ worker control-plane and data-plane frames.
//!
//! Every frame uses the shared [`wire`] length-prefixed layout
//! (`len:u32le | id:u64le tag:u8 body`). The supervisor relays
//! [`Msg::TupleBatch`] and [`Msg::AckerBatch`] frames between workers
//! without decoding their payload — [`peek_tuple_batch_dest`] borrows
//! only the destination component from a tuple batch's head, and
//! [`peek_acker_batch_dest`] reads the owning worker from an acker
//! batch's — so the data plane stays one copy per hop. Everything else is
//! decoded with [`decode`].
//!
//! A tuple-batch body is one codec with several ends. One per-tuple
//! writer serves both [`encode`] of the owned [`Msg::TupleBatch`] and
//! [`encode_tuple_frames`], which a worker's egress runs straight over the
//! runtime's batch arenas into a reused buffer. One reader hands each
//! tuple, borrowed from the bytes, to a [`TupleSink`]: the owned
//! [`WireTuple`] list behind [`decode`], the root collector behind
//! [`peek_tuple_batch_roots`], and the runtime's injector behind
//! [`inject`], which reads the frame straight into batch arenas for the
//! destination task. The ends share the byte layout by construction.

use bytes::BytesMut;
use obs::{LatencySnapshot, Sample, SampleKind};
use std::sync::Arc;
use tstorm::remote::{TupleBatch, TupleSink, WireTuple};
use tstorm::tuple::Value;
use tstorm::TopologyHandle;
use wire::{frame_into, with_frame, ProtocolError, Reader};

/// Worker → supervisor: first frame on a fresh connection.
pub const TAG_REGISTER: u8 = 0x01;
/// Supervisor → worker: which components to run, the worker count and
/// the tree timeout.
pub const TAG_ASSIGNMENT: u8 = 0x02;
/// Supervisor → worker: all workers are registered, start the slice.
pub const TAG_START: u8 = 0x03;
/// Either direction: tuples bound for one task of one component.
pub const TAG_TUPLE_BATCH: u8 = 0x10;
/// Either direction: acker traffic for the roots one worker owns.
pub const TAG_ACKER_BATCH: u8 = 0x11;
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
/// Worker → supervisor: trees pending at the worker's acker, sent with
/// every status.
pub const TAG_PENDING_TREES: u8 = 0x19;

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
        /// Workers in the cluster: the width of the worker's root tag.
        n_workers: u32,
        /// Tree timeout of the worker's acker, in milliseconds.
        message_timeout_ms: u64,
        /// The worker's last offset-commit blob, when this assignment
        /// follows a restart (`None` on first launch).
        recovered: Option<Vec<u8>>,
    },
    /// Every worker is registered; launch the slice and start emitting.
    Start,
    /// Tuples for `dest_component`/`dest_task`, in the owned form (the
    /// workers' data plane reads and writes these frames in place; see
    /// [`encode_tuple_frames`] and [`inject`]).
    TupleBatch {
        /// Receiving component name.
        dest_component: String,
        /// Task index within the receiving component.
        dest_task: usize,
        /// The tuples, in frame order.
        tuples: Vec<WireTuple>,
    },
    /// Acker traffic for the roots `owner` tracks: what another worker's
    /// acker (or the supervisor's fail-fast path) ships to it. The owner
    /// leads the body, so the supervisor relays the frame unread (see
    /// [`peek_acker_batch_dest`]).
    AckerBatch {
        /// Worker whose acker owns every root in the frame.
        owner: u32,
        /// `(root, xor)` deltas.
        xors: Vec<(u64, u64)>,
        /// Failed roots.
        fails: Vec<u64>,
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
    /// Trees pending at the worker's acker, read with the preceding
    /// [`Msg::Status`].
    PendingTrees(
        /// The acker's pending-tree gauge.
        i64,
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
        Value::Bytes(b) => {
            out.push(6);
            w_bytes(out, b);
        }
    }
}

/// The one tuple-batch head writer.
fn w_batch_head(out: &mut Vec<u8>, dest: &str, task: usize, n_tuples: usize) {
    w_str(out, dest);
    w_u64(out, task as u64);
    w_u32(out, n_tuples as u32);
}

/// The one per-tuple writer, for owned and runtime tuples alike.
fn w_tuple(
    out: &mut Vec<u8>,
    stream: &str,
    src: &str,
    task: usize,
    values: &[Value],
    anchors: &[(u64, u64)],
) {
    w_str(out, stream);
    w_str(out, src);
    w_u64(out, task as u64);
    w_u32(out, values.len() as u32);
    for v in values {
        w_value(out, v);
    }
    w_u32(out, anchors.len() as u32);
    for &(root, edge) in anchors {
        w_u64(out, root);
        w_u64(out, edge);
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
            n_workers,
            message_timeout_ms,
            recovered,
        } => (
            TAG_ASSIGNMENT,
            Box::new(move |out| {
                w_u32(out, components.len() as u32);
                for c in components {
                    w_str(out, c);
                }
                w_u32(out, *n_workers);
                w_u64(out, *message_timeout_ms);
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
                w_batch_head(out, dest_component, *dest_task, tuples.len());
                for t in tuples {
                    w_tuple(
                        out,
                        &t.stream,
                        &t.src_component,
                        t.src_task,
                        &t.values,
                        &t.anchors,
                    );
                }
            }),
        ),
        Msg::AckerBatch { owner, xors, fails } => (
            TAG_ACKER_BATCH,
            Box::new(move |out| {
                w_u32(out, *owner);
                w_u32(out, xors.len() as u32);
                for &(root, xor) in xors {
                    w_u64(out, root);
                    w_u64(out, xor);
                }
                w_u32(out, fails.len() as u32);
                for &root in fails {
                    w_u64(out, root);
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
        Msg::PendingTrees(n) => (
            TAG_PENDING_TREES,
            Box::new(move |out| w_u64(out, *n as u64)),
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

/// Bytes one frame written by [`encode_tuple_frames`] may take, length
/// prefix included, unless a single batch is larger: a quarter of
/// [`wire::MAX_FRAME_LEN`], so a backed-up edge sends a few large frames
/// that stay far from the limit.
pub const TUPLE_FRAME_BUDGET: usize = wire::MAX_FRAME_LEN / 4;

/// Appends [`Msg::TupleBatch`] frames for `dest`/`task` to `frame`,
/// written straight from the runtime's batches in order. Frames are cut
/// between batches at [`TUPLE_FRAME_BUDGET`]; a batch larger than the
/// budget goes alone in its frame. Each tuple's bytes are exactly those
/// [`encode`] writes for it in the owned form; with `frame` reused across
/// calls, encoding allocates nothing once it has grown to the largest
/// drain.
pub fn encode_tuple_frames(
    frame: &mut Vec<u8>,
    id: u64,
    dest: &str,
    task: usize,
    batches: &[TupleBatch],
) {
    let mut rest = batches;
    while !rest.is_empty() {
        let start = frame.len();
        let mut taken = 0;
        frame_into(frame, id, TAG_TUPLE_BATCH, |out| {
            w_batch_head(out, dest, task, 0);
            let count_at = out.len() - 4;
            let mut n_tuples = 0;
            for b in rest {
                let mark = out.len();
                for (values, anchors) in b.tuples() {
                    w_tuple(
                        out,
                        b.stream(),
                        b.src_component(),
                        b.src_task(),
                        values,
                        anchors,
                    );
                }
                if taken > 0 && out.len() - start > TUPLE_FRAME_BUDGET {
                    // Over the budget: this batch opens the next frame.
                    out.truncate(mark);
                    break;
                }
                taken += 1;
                n_tuples += b.len();
            }
            out[count_at..count_at + 4].copy_from_slice(&(n_tuples as u32).to_le_bytes());
        });
        rest = &rest[taken..];
    }
}

fn r_str_ref<'b>(r: &mut Reader<'b>) -> Result<&'b str, ProtocolError> {
    std::str::from_utf8(r.bytes()?).map_err(|_| ProtocolError::BadPayload("invalid utf-8"))
}

fn r_str(r: &mut Reader<'_>) -> Result<String, ProtocolError> {
    r_str_ref(r).map(str::to_string)
}

fn r_value(r: &mut Reader<'_>) -> Result<Value, ProtocolError> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::Bool(r.u8()? != 0),
        2 => Value::I64(r.u64()? as i64),
        3 => Value::U64(r.u64()?),
        4 => Value::F64(f64::from_bits(r.u64()?)),
        5 => Value::Str(Arc::from(r_str_ref(r)?)),
        6 => {
            let len = r.count(1)?;
            Value::Bytes(Arc::from(r.take(len)?))
        }
        _ => return Err(ProtocolError::BadPayload("unknown value tag")),
    })
}

/// Reads a tuple-batch head: destination component, task, tuple count.
fn r_batch_head<'b>(r: &mut Reader<'b>) -> Result<(&'b str, usize, usize), ProtocolError> {
    let dest = r_str_ref(r)?;
    let task = r.u64()? as usize;
    let n_tuples = r.count(16)?;
    Ok((dest, task, n_tuples))
}

/// Little-endian `u64` from the first 8 bytes of `b`.
fn le_u64(b: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&b[..8]);
    u64::from_le_bytes(word)
}

/// The one tuple reader: hands each of the body's `n_tuples` tuples to
/// `sink`, header and anchors borrowed from the bytes.
fn r_tuples(
    r: &mut Reader<'_>,
    n_tuples: usize,
    sink: &mut impl TupleSink,
) -> Result<(), ProtocolError> {
    for _ in 0..n_tuples {
        let stream = r_str_ref(r)?;
        let src = r_str_ref(r)?;
        let task = r.u64()? as usize;
        let n_values = r.count(1)?;
        let values = sink
            .open(stream, src, task)
            .map_err(ProtocolError::BadPayload)?;
        values.reserve(n_values);
        for _ in 0..n_values {
            values.push(r_value(r)?);
        }
        let n_anchors = r.count(16)?;
        let anchors = r.take(n_anchors * 16)?;
        let pairs = anchors
            .chunks_exact(16)
            .map(|p| (le_u64(p), le_u64(&p[8..])));
        sink.close(n_values, pairs)
            .map_err(ProtocolError::BadPayload)?;
    }
    Ok(())
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
            let n_workers = r.u32()?;
            let message_timeout_ms = r.u64()?;
            let recovered = match r.u8()? {
                0 => None,
                1 => Some(r.bytes()?.to_vec()),
                _ => return Err(ProtocolError::BadPayload("bad recovered flag")),
            };
            Msg::Assignment {
                components,
                n_workers,
                message_timeout_ms,
                recovered,
            }
        }
        TAG_START => Msg::Start,
        TAG_TUPLE_BATCH => {
            let (dest, dest_task, n_tuples) = r_batch_head(&mut r)?;
            let mut tuples = Vec::with_capacity(n_tuples);
            r_tuples(&mut r, n_tuples, &mut tuples)?;
            Msg::TupleBatch {
                dest_component: dest.to_string(),
                dest_task,
                tuples,
            }
        }
        TAG_ACKER_BATCH => {
            let owner = r.u32()?;
            let n = r.count(16)?;
            let mut xors = Vec::with_capacity(n);
            for _ in 0..n {
                xors.push((r.u64()?, r.u64()?));
            }
            let n = r.count(8)?;
            let mut fails = Vec::with_capacity(n);
            for _ in 0..n {
                fails.push(r.u64()?);
            }
            Msg::AckerBatch { owner, xors, fails }
        }
        TAG_STATUS => Msg::Status {
            progress: r.u64()?,
            inflight: r.u64()? as i64,
            spouts_idle: r.u8()? != 0,
        },
        TAG_PENDING_TREES => Msg::PendingTrees(r.u64()? as i64),
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

/// Borrows only the destination component from a [`Msg::TupleBatch`]
/// body, so the supervisor can route the frame without decoding the
/// tuples.
pub fn peek_tuple_batch_dest(body: &[u8]) -> Result<&str, ProtocolError> {
    r_str_ref(&mut Reader::new(body))
}

/// Reads only the owning worker from a [`Msg::AckerBatch`] body, so the
/// supervisor can route the frame without decoding it.
pub fn peek_acker_batch_dest(body: &[u8]) -> Result<usize, ProtocolError> {
    Ok(Reader::new(body).u32()? as usize)
}

/// The sink behind [`peek_tuple_batch_roots`]: distinct anchor roots in
/// first-seen order.
#[derive(Default)]
struct Roots {
    roots: Vec<u64>,
    values: Vec<Value>,
}

impl TupleSink for Roots {
    fn open(&mut self, _: &str, _: &str, _: usize) -> Result<&mut Vec<Value>, &'static str> {
        self.values.clear();
        Ok(&mut self.values)
    }

    fn close(
        &mut self,
        _: usize,
        anchors: impl ExactSizeIterator<Item = (u64, u64)>,
    ) -> Result<(), &'static str> {
        for (root, _) in anchors {
            if !self.roots.contains(&root) {
                self.roots.push(root);
            }
        }
        Ok(())
    }
}

/// Extracts the distinct anchor roots from a [`Msg::TupleBatch`] body.
/// Used on the fail-fast degradation path — when the destination
/// worker's lease is expired the supervisor fails every tree in the
/// batch at its owner's acker instead of buffering toward a frozen
/// socket. This
/// walks the whole body (anchors are interleaved per tuple), which is
/// fine: it only runs while a worker is down, never on the relay hot
/// path.
pub fn peek_tuple_batch_roots(body: &[u8]) -> Result<Vec<u64>, ProtocolError> {
    let mut r = Reader::new(body);
    let (_, _, n_tuples) = r_batch_head(&mut r)?;
    let mut sink = Roots::default();
    r_tuples(&mut r, n_tuples, &mut sink)?;
    Ok(sink.roots)
}

/// Reads a [`Msg::TupleBatch`] body straight into `handle`'s batch
/// arenas and delivers them to the destination task's queue (blocking
/// while it is full). The frame is checked whole before anything is
/// delivered: a malformed body, or one naming a component, task or
/// stream the topology does not have, is an error and delivers nothing.
pub fn inject(handle: &TopologyHandle, body: &[u8]) -> Result<(), ProtocolError> {
    let mut r = Reader::new(body);
    let (dest, task, n_tuples) = r_batch_head(&mut r)?;
    let mut injector = handle
        .injector(dest, task, n_tuples)
        .map_err(ProtocolError::BadPayload)?;
    r_tuples(&mut r, n_tuples, &mut injector)?;
    r.finish()?;
    injector.deliver();
    Ok(())
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
            n_workers: 3,
            message_timeout_ms: 1500,
            recovered: Some(vec![9, 9]),
        }) {
            Msg::Assignment {
                components,
                n_workers,
                message_timeout_ms,
                recovered,
            } => {
                assert_eq!(components, vec!["spout", "count"]);
                assert_eq!((n_workers, message_timeout_ms), (3, 1500));
                assert_eq!(recovered, Some(vec![9, 9]));
            }
            other => panic!("{other:?}"),
        }
        match roundtrip(&Msg::Assignment {
            components: vec![],
            n_workers: 1,
            message_timeout_ms: 0,
            recovered: None,
        }) {
            Msg::Assignment {
                recovered: None, ..
            } => {}
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            roundtrip(&Msg::PendingTrees(-2)),
            Msg::PendingTrees(-2)
        ));
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
                Value::Bytes([7u8; 24].as_slice().into()),
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

    struct Silent;

    impl tstorm::Spout for Silent {
        fn next_tuple(&mut self, _: &mut tstorm::collector::SpoutCollector) -> bool {
            false
        }
        fn declare_outputs(&self) -> Vec<tstorm::StreamDef> {
            vec![tstorm::StreamDef::new("default", ["key", "seq"])]
        }
    }

    /// A slice running nothing locally: `numbers` emits `default`
    /// (two fields), `sum` has two tasks, and tuples injected for `sum`
    /// leave through an egress that drops them.
    fn slice() -> TopologyHandle {
        let mut builder = tstorm::TopologyBuilder::new();
        builder.set_spout("numbers", || Silent, 1);
        builder
            .set_bolt(
                "sum",
                || |_: &tstorm::Tuple, _: &mut tstorm::BoltCollector| Ok(()),
                2,
            )
            .shuffle_grouping("numbers");
        builder
            .build()
            .unwrap()
            .launch_slice(tstorm::remote::SliceSpec {
                local: Default::default(),
                ack_route: tstorm::ack::AckRoute::local(std::time::Duration::from_secs(30)),
                egress: Arc::new(|_: &mut Vec<u8>, _: &str, _: usize, _: &[TupleBatch]| {}),
            })
    }

    /// The body of a one-tuple frame for `dest`/`task` from
    /// `numbers`/`stream`.
    fn frame(dest: &str, task: usize, stream: &str, values: Vec<Value>) -> BytesMut {
        let mut buf = BytesMut::new();
        encode(
            &mut buf,
            1,
            &Msg::TupleBatch {
                dest_component: dest.into(),
                dest_task: task,
                tuples: vec![WireTuple {
                    stream: stream.into(),
                    src_component: "numbers".into(),
                    src_task: 0,
                    values,
                    anchors: vec![(1, 2)],
                }],
            },
        );
        split_frame(&mut buf).unwrap().unwrap().2
    }

    fn pair() -> Vec<Value> {
        vec![Value::U64(1), Value::U64(2)]
    }

    #[test]
    fn inject_accepts_a_frame_the_topology_declares() {
        let handle = slice();
        assert_eq!(inject(&handle, &frame("sum", 1, "default", pair())), Ok(()));
        handle.kill();
    }

    #[test]
    fn inject_rejects_an_unknown_destination() {
        let handle = slice();
        assert_eq!(
            inject(&handle, &frame("ghost", 0, "default", pair())),
            Err(ProtocolError::BadPayload("unknown destination component"))
        );
        handle.kill();
    }

    #[test]
    fn inject_rejects_a_task_beyond_the_parallelism() {
        let handle = slice();
        assert_eq!(
            inject(&handle, &frame("sum", 2, "default", pair())),
            Err(ProtocolError::BadPayload("destination task out of range"))
        );
        handle.kill();
    }

    #[test]
    fn inject_rejects_an_undeclared_stream_or_width() {
        let handle = slice();
        assert_eq!(
            inject(&handle, &frame("sum", 0, "other", pair())),
            Err(ProtocolError::BadPayload("unknown source stream"))
        );
        assert_eq!(
            inject(&handle, &frame("sum", 0, "default", vec![Value::U64(1)])),
            Err(ProtocolError::BadPayload(
                "tuple width differs from its stream's schema"
            ))
        );
        handle.kill();
    }

    #[test]
    fn acker_batch_roundtrips() {
        let msg = Msg::AckerBatch {
            owner: 2,
            xors: vec![(13, 14), (15, 16)],
            fails: vec![17],
        };
        let mut buf = BytesMut::new();
        encode(&mut buf, 7, &msg);
        let (_, tag, body) = split_frame(&mut buf).unwrap().unwrap();
        assert_eq!(tag, TAG_ACKER_BATCH);
        assert_eq!(peek_acker_batch_dest(&body), Ok(2));
        match decode(tag, &body).unwrap() {
            Msg::AckerBatch { owner, xors, fails } => {
                assert_eq!(owner, 2);
                assert_eq!(xors, vec![(13, 14), (15, 16)]);
                assert_eq!(fails, vec![17]);
            }
            other => panic!("{other:?}"),
        }
        // A body too short for its owner head is refused by the peek, and
        // every truncation by the decoder.
        for cut in 0..body.len() {
            assert_eq!(
                peek_acker_batch_dest(&body[..cut]).is_ok(),
                cut >= 4,
                "{cut}-byte body"
            );
            assert!(decode(tag, &body[..cut]).is_err(), "{cut}-byte body");
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
            TAG_PENDING_TREES,
            TAG_STATUS,
            TAG_DRAIN_REPORT,
            TAG_METRICS,
            0x77,
        ] {
            let _ = decode(tag, &[0xFF; 5]);
            let _ = decode(tag, &[]);
        }
        for body in [&[][..], &[0xFF; 3], &[0xFF; 5]] {
            let _ = peek_tuple_batch_dest(body);
            let _ = peek_tuple_batch_roots(body);
            let _ = peek_acker_batch_dest(body);
        }
    }
}
