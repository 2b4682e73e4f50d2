//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Every frame is `len:u32le` followed by `len` payload bytes; the
//! payload is `id:u64le tag:u8 body`. The `id` is chosen by the client
//! and echoed in the matching response, which is what makes request
//! pipelining possible: a client may have many frames in flight on one
//! connection and match responses out of order. All integers are
//! little-endian; scores travel as raw `f64` bits, so encode→decode is
//! bit-exact.
//!
//! Id 0 ([`CONNECTION_ERROR_ID`]) is reserved: when the server cannot
//! decode a frame it has no trustworthy id to echo, so it sends its
//! final `Error` under id 0 and hangs up. Clients must allocate request
//! ids starting at 1 (the shipped [`crate::client::Client`] does).
//!
//! The decoder is fed from a raw TCP byte stream, so it must treat the
//! buffer as hostile: a truncated buffer is "wait for more bytes"
//! (`Ok(None)`), a length prefix beyond [`MAX_FRAME_LEN`] or a body that
//! contradicts its own counts is a [`ProtocolError`] — never a panic.

use bytes::{BufMut, BytesMut};
use tencentrec::action::{ActionType, UserAction};
use tencentrec::types::{ItemId, UserId};
use tstorm::metrics::LatencySnapshot;
use wire::{split_frame, with_frame, Reader};

// The framing layer (length prefix, id+tag header, bounds-checked body
// reader) lives in the shared `wire` crate; this module keeps only the
// serving-protocol vocabulary. Re-exported so existing users of
// `tserve::protocol::{Frame, ProtocolError, ...}` keep compiling.
pub use wire::{Frame, ProtocolError, CONNECTION_ERROR_ID, MAX_FRAME_LEN};

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Top-`n` recommendations for `user`; the server sheds the request
    /// rather than answer it later than `deadline_ms` from receipt
    /// (0 = use the server's default deadline).
    Recommend {
        /// User to recommend for.
        user: UserId,
        /// Page size requested.
        n: u32,
        /// Client latency budget in milliseconds; 0 = server default.
        deadline_ms: u32,
    },
    /// Reports one user action into the model stream.
    ReportAction {
        /// The action.
        action: UserAction,
    },
    /// Liveness probe.
    Health,
    /// Requests a server statistics snapshot.
    Stats,
}

impl Request {
    /// Whether retrying this request cannot change server state.
    /// `ReportAction` is not idempotent: a retry after an ambiguous
    /// failure could feed the same action into the model twice.
    pub fn is_idempotent(&self) -> bool {
        match self {
            Request::Recommend { .. } | Request::Health | Request::Stats => true,
            Request::ReportAction { .. } => false,
        }
    }
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Ranked `(item, score)` page.
    Recommendations {
        /// Ranked items, best first.
        items: Vec<(ItemId, f64)>,
    },
    /// Action accepted into the owning shard's queue.
    Ack,
    /// Admission control refused the request: the owning shard could not
    /// meet the deadline (or its queue is full). Graceful degradation —
    /// the client gets an immediate, honest "no" instead of a late answer.
    Overloaded,
    /// Liveness reply.
    Health {
        /// Number of engine shards.
        shards: u32,
        /// Requests currently queued across all shards.
        queued: u32,
    },
    /// Statistics snapshot.
    Stats(StatsReport),
    /// Protocol-level failure description.
    Error {
        /// Human-readable cause.
        message: String,
    },
}

/// Live server counters plus the latency distribution of served
/// requests, as returned by [`Request::Stats`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsReport {
    /// Recommendation requests answered with a page.
    pub served: u64,
    /// Requests refused at admission (queue full or hopeless deadline).
    pub shed: u64,
    /// Requests dropped after queuing because their deadline expired.
    pub expired: u64,
    /// Actions ingested.
    pub actions: u64,
    /// End-to-end (admission → reply) latency of served requests.
    pub latency: LatencySnapshot,
}

const TAG_RECOMMEND: u8 = 0x01;
const TAG_REPORT_ACTION: u8 = 0x02;
const TAG_HEALTH: u8 = 0x03;
const TAG_STATS: u8 = 0x04;
const TAG_RECOMMENDATIONS: u8 = 0x81;
const TAG_ACK: u8 = 0x82;
const TAG_OVERLOADED: u8 = 0x83;
const TAG_HEALTH_OK: u8 = 0x84;
const TAG_STATS_OK: u8 = 0x85;
const TAG_ERROR: u8 = 0x86;

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Appends one request frame to `buf`.
pub fn encode_request(id: u64, request: &Request, buf: &mut BytesMut) {
    match request {
        Request::Recommend {
            user,
            n,
            deadline_ms,
        } => with_frame(buf, id, TAG_RECOMMEND, |b| {
            b.put_u64_le(*user);
            b.put_u32_le(*n);
            b.put_u32_le(*deadline_ms);
        }),
        Request::ReportAction { action } => with_frame(buf, id, TAG_REPORT_ACTION, |b| {
            b.put_u64_le(action.user);
            b.put_u64_le(action.item);
            b.put_u8(action.action.code());
            b.put_u64_le(action.timestamp);
        }),
        Request::Health => with_frame(buf, id, TAG_HEALTH, |_| {}),
        Request::Stats => with_frame(buf, id, TAG_STATS, |_| {}),
    }
}

/// Appends one response frame to `buf`.
pub fn encode_response(id: u64, response: &Response, buf: &mut BytesMut) {
    match response {
        Response::Recommendations { items } => with_frame(buf, id, TAG_RECOMMENDATIONS, |b| {
            b.put_u32_le(items.len() as u32);
            for (item, score) in items {
                b.put_u64_le(*item);
                b.put_u64_le(score.to_bits());
            }
        }),
        Response::Ack => with_frame(buf, id, TAG_ACK, |_| {}),
        Response::Overloaded => with_frame(buf, id, TAG_OVERLOADED, |_| {}),
        Response::Health { shards, queued } => with_frame(buf, id, TAG_HEALTH_OK, |b| {
            b.put_u32_le(*shards);
            b.put_u32_le(*queued);
        }),
        Response::Stats(report) => with_frame(buf, id, TAG_STATS_OK, |b| {
            b.put_u64_le(report.served);
            b.put_u64_le(report.shed);
            b.put_u64_le(report.expired);
            b.put_u64_le(report.actions);
            let sparse = report.latency.sparse_counts();
            b.put_u64_le(report.latency.count());
            b.put_u64_le(report.latency.sum_nanos());
            b.put_u64_le(report.latency.max_nanos());
            b.put_u32_le(sparse.len() as u32);
            for (bucket, count) in sparse {
                b.put_u32_le(bucket);
                b.put_u64_le(count);
            }
        }),
        Response::Error { message } => with_frame(buf, id, TAG_ERROR, |b| {
            let raw = message.as_bytes();
            let take = raw.len().min(4096);
            b.put_u32_le(take as u32);
            b.put_slice(&raw[..take]);
        }),
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Decodes one request frame off the front of `buf`. `Ok(None)` = need
/// more bytes; errors are fatal for the connection.
pub fn decode_request(buf: &mut BytesMut) -> Result<Option<Frame<Request>>, ProtocolError> {
    let Some((id, tag, body)) = split_frame(buf)? else {
        return Ok(None);
    };
    let mut r = Reader::new(&body);
    let msg = match tag {
        TAG_RECOMMEND => Request::Recommend {
            user: r.u64()?,
            n: r.u32()?,
            deadline_ms: r.u32()?,
        },
        TAG_REPORT_ACTION => {
            let user = r.u64()?;
            let item = r.u64()?;
            let code = r.u8()?;
            let timestamp = r.u64()?;
            let kind = ActionType::from_code(code)
                .ok_or(ProtocolError::BadPayload("unknown action type code"))?;
            Request::ReportAction {
                action: UserAction::new(user, item, kind, timestamp),
            }
        }
        TAG_HEALTH => Request::Health,
        TAG_STATS => Request::Stats,
        other => return Err(ProtocolError::UnknownTag(other)),
    };
    r.finish()?;
    Ok(Some(Frame { id, msg }))
}

/// Decodes one response frame off the front of `buf`. `Ok(None)` = need
/// more bytes; errors are fatal for the connection.
pub fn decode_response(buf: &mut BytesMut) -> Result<Option<Frame<Response>>, ProtocolError> {
    let Some((id, tag, body)) = split_frame(buf)? else {
        return Ok(None);
    };
    let mut r = Reader::new(&body);
    let msg = match tag {
        TAG_RECOMMENDATIONS => {
            let count = r.count(16)?;
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                let item = r.u64()?;
                let score = f64::from_bits(r.u64()?);
                items.push((item, score));
            }
            Response::Recommendations { items }
        }
        TAG_ACK => Response::Ack,
        TAG_OVERLOADED => Response::Overloaded,
        TAG_HEALTH_OK => Response::Health {
            shards: r.u32()?,
            queued: r.u32()?,
        },
        TAG_STATS_OK => {
            let served = r.u64()?;
            let shed = r.u64()?;
            let expired = r.u64()?;
            let actions = r.u64()?;
            let total = r.u64()?;
            let sum_nanos = r.u64()?;
            let max_nanos = r.u64()?;
            let buckets = r.count(12)?;
            let mut sparse = Vec::with_capacity(buckets);
            for _ in 0..buckets {
                let bucket = r.u32()?;
                let count = r.u64()?;
                sparse.push((bucket, count));
            }
            Response::Stats(StatsReport {
                served,
                shed,
                expired,
                actions,
                latency: LatencySnapshot::from_parts(&sparse, total, sum_nanos, max_nanos),
            })
        }
        TAG_ERROR => Response::Error {
            message: String::from_utf8_lossy(r.bytes()?).into_owned(),
        },
        other => return Err(ProtocolError::UnknownTag(other)),
    };
    r.finish()?;
    Ok(Some(Frame { id, msg }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(id: u64, req: Request) {
        let mut buf = BytesMut::new();
        encode_request(id, &req, &mut buf);
        let frame = decode_request(&mut buf).unwrap().unwrap();
        assert_eq!(frame.id, id);
        assert_eq!(frame.msg, req);
        assert!(buf.is_empty());
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(
            1,
            Request::Recommend {
                user: 42,
                n: 10,
                deadline_ms: 250,
            },
        );
        roundtrip_request(
            u64::MAX,
            Request::ReportAction {
                action: UserAction::new(7, 9, ActionType::Purchase, 123_456),
            },
        );
        roundtrip_request(0, Request::Health);
        roundtrip_request(3, Request::Stats);
    }

    #[test]
    fn response_roundtrips() {
        let mut buf = BytesMut::new();
        let resp = Response::Recommendations {
            items: vec![(1, 0.5), (2, 0.25), (99, 1e-12)],
        };
        encode_response(17, &resp, &mut buf);
        let frame = decode_response(&mut buf).unwrap().unwrap();
        assert_eq!(frame.id, 17);
        assert_eq!(frame.msg, resp);
    }

    #[test]
    fn stats_roundtrip_preserves_percentiles() {
        use tstorm::metrics::LatencyHistogram;
        let h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record_nanos(v * 1_000);
        }
        let report = StatsReport {
            served: 1000,
            shed: 17,
            expired: 3,
            actions: 5000,
            latency: h.snapshot(),
        };
        let mut buf = BytesMut::new();
        encode_response(5, &Response::Stats(report.clone()), &mut buf);
        let frame = decode_response(&mut buf).unwrap().unwrap();
        let Response::Stats(got) = frame.msg else {
            panic!("expected stats");
        };
        assert_eq!(got.served, 1000);
        assert_eq!(got.latency.p99(), report.latency.p99());
        assert_eq!(got.latency.max(), report.latency.max());
    }

    #[test]
    fn truncated_frames_wait_for_more() {
        let mut buf = BytesMut::new();
        encode_request(
            9,
            &Request::Recommend {
                user: 1,
                n: 5,
                deadline_ms: 0,
            },
            &mut buf,
        );
        let full: Vec<u8> = buf[..].to_vec();
        for cut in 0..full.len() {
            let mut partial = BytesMut::new();
            partial.put_slice(&full[..cut]);
            assert_eq!(
                decode_request(&mut partial).unwrap(),
                None,
                "cut at {cut} must wait for more bytes"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le((MAX_FRAME_LEN + 1) as u32);
        buf.put_slice(&[0u8; 32]);
        assert!(matches!(
            decode_request(&mut buf),
            Err(ProtocolError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn undersized_length_prefix_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(3);
        buf.put_slice(&[0u8; 3]);
        assert!(matches!(
            decode_request(&mut buf),
            Err(ProtocolError::FrameTooShort(3))
        ));
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut buf = BytesMut::new();
        let mut payload = Vec::new();
        payload.put_u64_le(1);
        payload.put_u8(0x7f);
        buf.put_u32_le(payload.len() as u32);
        buf.put_slice(&payload);
        assert_eq!(
            decode_request(&mut buf),
            Err(ProtocolError::UnknownTag(0x7f))
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = BytesMut::new();
        let mut payload = Vec::new();
        payload.put_u64_le(1);
        payload.put_u8(TAG_HEALTH);
        payload.put_u8(0xee);
        buf.put_u32_le(payload.len() as u32);
        buf.put_slice(&payload);
        assert!(matches!(
            decode_request(&mut buf),
            Err(ProtocolError::BadPayload(_))
        ));
    }
}
