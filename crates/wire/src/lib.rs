#![warn(missing_docs)]
//! Shared length-prefixed frame codec over TCP.
//!
//! Every frame is `len:u32le` followed by `len` payload bytes; the
//! payload is `id:u64le tag:u8 body`. All integers are little-endian.
//! The `id` is a correlation id chosen by the sender of a request and
//! echoed in the matching response, which is what makes pipelining
//! possible; point-to-point transports that don't pipeline (the cluster
//! tuple transport) simply carry 0.
//!
//! Id 0 ([`CONNECTION_ERROR_ID`]) is reserved for connection-level
//! errors: when a peer cannot decode a frame it has no trustworthy id to
//! echo, so it reports under id 0 and hangs up.
//!
//! The decoder is fed from a raw TCP byte stream, so it must treat the
//! buffer as hostile: a truncated buffer is "wait for more bytes"
//! (`Ok(None)`), a length prefix beyond [`MAX_FRAME_LEN`] or a body that
//! contradicts its own counts is a [`ProtocolError`] — never a panic.
//!
//! This crate owns only the framing layer — frame splitting, the
//! bounds-checked [`Reader`], and the [`with_frame`]/[`frame_into`] writer. Message
//! vocabularies (tags and body layouts) live with their protocols:
//! `tserve::protocol` for the serving API, `tcluster::protocol` for the
//! cluster control and tuple transport. Both share this one proptested
//! implementation instead of carrying copies.
//!
//! [`Reader`] is also the reader for bytes that come back from disk:
//! tdstore's checkpoint payloads, manifest and FDB log replay, and the
//! spout's offset table decode through it, so one piece of code checks
//! their lengths and counts against the bytes actually left.

mod backoff;

pub use backoff::Backoff;

use bytes::{BufMut, BytesMut};
use std::fmt;

/// Upper bound on one frame's payload; length prefixes above this are
/// corrupt by definition (stats and tuple-batch frames, the largest we
/// send, stay far below it).
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Frame header: id (8) + tag (1).
pub const HEADER_LEN: usize = 9;

/// Reserved correlation id for connection-level errors (a frame the
/// receiver could not decode has no id worth echoing). Never use it for
/// a request: a response carrying it refers to the connection, not to
/// any in-flight request.
pub const CONNECTION_ERROR_ID: u64 = 0;

/// Why a buffer failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Length prefix exceeds [`MAX_FRAME_LEN`] — corrupt or hostile.
    FrameTooLarge(usize),
    /// Frame shorter than the fixed header.
    FrameTooShort(usize),
    /// Unrecognised frame tag.
    UnknownTag(u8),
    /// Body contradicts its own length or counts.
    BadPayload(&'static str),
    /// The peer closed the connection mid-frame, leaving this many bytes
    /// of a partial frame behind (a half-open hang-up, not a clean
    /// between-frames EOF).
    TruncatedEof(usize),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::FrameTooLarge(len) => {
                write!(f, "frame length {len} exceeds {MAX_FRAME_LEN}")
            }
            ProtocolError::FrameTooShort(len) => write!(f, "frame length {len} below header"),
            ProtocolError::UnknownTag(tag) => write!(f, "unknown frame tag {tag:#04x}"),
            ProtocolError::BadPayload(why) => write!(f, "bad payload: {why}"),
            ProtocolError::TruncatedEof(len) => {
                write!(f, "connection closed mid-frame with {len} buffered bytes")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// A decoded frame: correlation id plus message.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame<T> {
    /// Correlation id (echoed by responses; 0 on one-way transports).
    pub id: u64,
    /// The message.
    pub msg: T,
}

/// Appends one frame to `buf`: writes the header, lets `body` append the
/// message payload, then stamps the length prefix.
pub fn with_frame(buf: &mut BytesMut, id: u64, tag: u8, body: impl FnOnce(&mut Vec<u8>)) {
    let mut frame = Vec::with_capacity(64);
    frame_into(&mut frame, id, tag, body);
    buf.put_slice(&frame);
}

/// Appends one frame to `out` in place — the allocation-free form of
/// [`with_frame`] for a caller that reuses `out` across frames: reserves
/// the length prefix, writes the header, lets `body` append the message
/// payload, then stamps the prefix.
pub fn frame_into(out: &mut Vec<u8>, id: u64, tag: u8, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.put_u32_le(0);
    out.put_u64_le(id);
    out.put_u8(tag);
    body(out);
    let len = out.len() - start - 4;
    debug_assert!(len <= MAX_FRAME_LEN, "oversized frame");
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// What [`Reader::count`] returns for a count the remaining bytes cannot
/// hold.
pub const COUNT_TOO_LARGE: ProtocolError =
    ProtocolError::BadPayload("count exceeds remaining bytes");

/// Bounds-checked little-endian reader over a byte slice (a frame body, a
/// checkpoint payload, a log): every accessor verifies the remaining
/// length, so corrupt input surfaces as an error, never a panic or an
/// allocation sized by a corrupt number.
pub struct Reader<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reader positioned at the start of `body`.
    pub fn new(body: &'a [u8]) -> Self {
        Reader { body, pos: 0 }
    }

    /// Takes the next `n` bytes, or errors if fewer remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if self.remaining() < n {
            return Err(ProtocolError::BadPayload("body shorter than declared"));
        }
        let slice = &self.body[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ProtocolError> {
        self.fixed().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ProtocolError> {
        self.fixed().map(u64::from_le_bytes)
    }

    /// Takes the next `N` bytes as an array, or errors as [`Self::take`].
    fn fixed<const N: usize>(&mut self) -> Result<[u8; N], ProtocolError> {
        let bytes = *self.body[self.pos..]
            .first_chunk::<N>()
            .ok_or(ProtocolError::BadPayload("body shorter than declared"))?;
        self.pos += N;
        Ok(bytes)
    }

    /// Reads a `u32`-length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], ProtocolError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a `u32` entry count and rejects it unless that many entries
    /// of at least `min_entry` bytes each fit in the bytes left. Checked
    /// before the caller sizes anything by it, so a corrupt count can
    /// cost at most the input's own size.
    pub fn count(&mut self, min_entry: usize) -> Result<usize, ProtocolError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_entry.max(1)) > self.remaining() {
            return Err(COUNT_TOO_LARGE);
        }
        Ok(n)
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.body.len() - self.pos
    }

    /// Asserts the body was consumed exactly; trailing bytes are corrupt.
    pub fn finish(self) -> Result<(), ProtocolError> {
        if self.pos == self.body.len() {
            Ok(())
        } else {
            Err(ProtocolError::BadPayload("trailing bytes after body"))
        }
    }
}

/// Splits one complete frame off `buf`, returning `(id, tag, body)`.
/// `Ok(None)` means the buffer holds only a partial frame.
pub fn split_frame(buf: &mut BytesMut) -> Result<Option<(u64, u8, BytesMut)>, ProtocolError> {
    let Some(prefix) = buf.first_chunk::<4>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(*prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLarge(len));
    }
    if len < HEADER_LEN {
        return Err(ProtocolError::FrameTooShort(len));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    // The header (`id:u64le tag:u8`) opens the frame's `len >= HEADER_LEN`
    // bytes, all in the buffer by now.
    let Some((id, [tag, ..])) = buf[4..].split_first_chunk::<8>() else {
        return Ok(None);
    };
    let (id, tag) = (u64::from_le_bytes(*id), *tag);
    let _ = buf.split_to(4 + HEADER_LEN);
    Ok(Some((id, tag, buf.split_to(len - HEADER_LEN))))
}

/// Classifies an EOF observed after [`split_frame`] returned `Ok(None)`:
/// a peer that hangs up *between* frames leaves an empty buffer (clean
/// end-of-stream); one that hangs up mid-frame — after a partial length
/// prefix or a truncated body — leaves residue, which is a half-open
/// failure the caller must surface instead of waiting for bytes that
/// will never arrive.
pub fn check_clean_eof(buf: &BytesMut) -> Result<(), ProtocolError> {
    if buf.is_empty() {
        Ok(())
    } else {
        Err(ProtocolError::TruncatedEof(buf.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn frame_roundtrips() {
        let mut buf = BytesMut::new();
        with_frame(&mut buf, 7, 0x42, |b| b.put_slice(b"hello"));
        let (id, tag, body) = split_frame(&mut buf).unwrap().unwrap();
        assert_eq!(id, 7);
        assert_eq!(tag, 0x42);
        assert_eq!(&body[..], b"hello");
        assert!(buf.is_empty());
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le((MAX_FRAME_LEN + 1) as u32);
        buf.put_slice(&[0u8; 32]);
        assert!(matches!(
            split_frame(&mut buf),
            Err(ProtocolError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn undersized_length_prefix_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(3);
        buf.put_slice(&[0u8; 3]);
        assert!(matches!(
            split_frame(&mut buf),
            Err(ProtocolError::FrameTooShort(3))
        ));
    }

    #[test]
    fn count_bounds_against_remaining_bytes() {
        // u32::MAX entries of 8 bytes each must fail before anything is
        // sized by it; a count that fits passes, one entry more does not.
        let mut r = Reader::new(&[0xff; 4]);
        assert_eq!(r.count(8), Err(COUNT_TOO_LARGE));
        let mut body = 2u32.to_le_bytes().to_vec();
        body.extend_from_slice(&[0; 16]);
        assert_eq!(Reader::new(&body).count(8), Ok(2));
        body[0] = 3;
        assert_eq!(Reader::new(&body).count(8), Err(COUNT_TOO_LARGE));
        // A zero-size entry is still bounded by one byte each.
        assert_eq!(Reader::new(&body).count(0), Ok(3));
    }

    #[test]
    fn bytes_reads_length_prefixed_slices() {
        let mut r = Reader::new(&[3, 0, 0, 0, b'a', b'b', b'c', 9, 0, 0, 0]);
        assert_eq!(r.bytes().unwrap(), b"abc");
        assert!(r.bytes().is_err(), "declared 9, 0 left");
    }

    #[test]
    fn reader_rejects_overrun_and_trailing() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(r.u32().is_err(), "only 3 bytes available");
        let mut r = Reader::new(&[1, 2, 3, 4, 5]);
        assert_eq!(r.u32().unwrap(), u32::from_le_bytes([1, 2, 3, 4]));
        assert!(r.finish().is_err(), "one byte left over");
    }

    proptest! {
        /// Every strict prefix of a valid frame is "wait for more bytes",
        /// and the frame decodes intact once the rest arrives.
        #[test]
        fn truncation_waits(id in any::<u64>(), tag in any::<u8>(),
                            body in prop::collection::vec(any::<u8>(), 0..200)) {
            let mut full = BytesMut::new();
            with_frame(&mut full, id, tag, |b| b.extend_from_slice(&body));
            let wire = full[..].to_vec();
            for cut in 0..wire.len() {
                let mut partial = BytesMut::new();
                partial.put_slice(&wire[..cut]);
                prop_assert_eq!(split_frame(&mut partial).unwrap(), None);
                partial.put_slice(&wire[cut..]);
                let (got_id, got_tag, got_body) =
                    split_frame(&mut partial).unwrap().expect("complete");
                prop_assert_eq!(got_id, id);
                prop_assert_eq!(got_tag, tag);
                prop_assert_eq!(&got_body[..], &body[..]);
            }
        }

        /// Back-to-back frames split in order with ids intact.
        #[test]
        fn pipelined_frames_split_in_order(
            bodies in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..12),
        ) {
            let mut buf = BytesMut::new();
            for (i, body) in bodies.iter().enumerate() {
                with_frame(&mut buf, i as u64, 0x10, |b| b.extend_from_slice(body));
            }
            for (i, body) in bodies.iter().enumerate() {
                let (id, _, got) = split_frame(&mut buf).unwrap().expect("complete");
                prop_assert_eq!(id, i as u64);
                prop_assert_eq!(&got[..], &body[..]);
            }
            prop_assert_eq!(split_frame(&mut buf).unwrap(), None);
        }

        /// Raw garbage never panics the splitter and always terminates.
        #[test]
        fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
            let mut buf = BytesMut::new();
            buf.put_slice(&bytes);
            for _ in 0..bytes.len() + 1 {
                match split_frame(&mut buf) {
                    Ok(Some(_)) => continue,
                    Ok(None) | Err(_) => break,
                }
            }
        }
    }
}
