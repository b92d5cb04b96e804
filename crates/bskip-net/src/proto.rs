//! The wire protocol: length-prefixed binary frames.
//!
//! Every message — request or response — travels as one **frame**:
//!
//! ```text
//! [ body length : u32 LE ][ body ]      body = [ opcode/tag : u8 ][ payload ]
//! ```
//!
//! The body length excludes the 4-byte prefix and must lie in
//! `1 ..= MAX_FRAME_LEN`; a peer announcing anything larger is rejected
//! *from the length prefix alone*, before any payload arrives, so a
//! malicious or corrupt stream can never drive the decoder's allocation
//! beyond [`MAX_FRAME_LEN`] plus one socket read.  All integers are
//! little-endian; keys and values are the workspace's `u64`s.
//!
//! # Requests and responses
//!
//! | opcode | request | payload |
//! |--------|---------|---------|
//! | `0x01` | `Ping`  | — |
//! | `0x02` | `Get`   | `key:u64` |
//! | `0x03` | `Put`   | `key:u64  value:u64` |
//! | `0x04` | `Del`   | `key:u64` |
//! | `0x06` | `Scan`  | `lo:u64  hi:u64  limit:u32` (`hi` exclusive) |
//! | `0x07` | `Stats` | — |
//!
//! | tag    | response  | payload |
//! |--------|-----------|---------|
//! | `0x81` | `Pong`    | — |
//! | `0x82` | `Found`   | `value:u64` |
//! | `0x83` | `Missing` | — |
//! | `0x85` | `Entries` | `count:u32` then `count × (key:u64 value:u64)` |
//! | `0x86` | `Stats`   | `count:u32` then `count × (nlen:u16 name value:u64)` |
//! | `0x87` | `Error`   | `code:u8  mlen:u16  message` |
//!
//! Every request carries one operation.  A client batches by pipelining:
//! the server runs each run of point requests a connection's window
//! delivers as one `execute` call.
//!
//! # The incremental decoder
//!
//! [`FrameDecoder`] consumes the stream *as it arrives*: feed it whatever
//! the socket produced ([`FrameDecoder::extend`]) and drain every complete
//! frame ([`FrameDecoder::decode_request`] /
//! [`FrameDecoder::decode_response`]); a partial trailing frame simply
//! stays buffered until more bytes arrive.  Parsing reads straight out of
//! the receive buffer (only multi-entry payloads allocate, with every
//! count validated against the bytes actually present before a vector is
//! sized), and the buffer
//! compacts itself once the consumed prefix grows past a threshold and
//! half the buffer.  A long-lived connection therefore holds at most the
//! threshold plus twice its unread bytes (one frame plus one read chunk),
//! and compaction moves no more bytes than decoding consumed.

use std::fmt;

/// Upper bound on a frame body, enforced on both encode and decode.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Upper bound on the entry count a `Scan` may request — what one
/// `Entries` frame can carry (tag, count, 16 bytes a pair), so decode
/// rejects the request encode could not answer; larger windows are
/// paginated by issuing the next scan from the last returned key.
pub const MAX_SCAN_LIMIT: u32 = ((MAX_FRAME_LEN - 5) / 16) as u32;

/// Consumed-prefix size past which the decoder's buffer is compacted.
const COMPACT_THRESHOLD: usize = 32 << 10;

/// Bytes one socket `read` may hand a [`FrameDecoder`], on the server's
/// connections and the client's alike.
pub(crate) const READ_CHUNK: usize = 16 << 10;

const OP_PING: u8 = 0x01;
const OP_GET: u8 = 0x02;
const OP_PUT: u8 = 0x03;
const OP_DEL: u8 = 0x04;
const OP_SCAN: u8 = 0x06;
const OP_STATS: u8 = 0x07;

const TAG_PONG: u8 = 0x81;
const TAG_FOUND: u8 = 0x82;
const TAG_MISSING: u8 = 0x83;
const TAG_ENTRIES: u8 = 0x85;
const TAG_STATS: u8 = 0x86;
const TAG_ERROR: u8 = 0x87;

/// Why a frame could not be encoded or decoded.
///
/// Every variant is a *protocol* fault: after a decode error the stream
/// position is no longer trustworthy and the connection should be closed
/// (the server sends one final [`Response::Error`] frame first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The length prefix announced a body larger than [`MAX_FRAME_LEN`].
    Oversized {
        /// The announced body length.
        len: usize,
    },
    /// The body ended before a field was complete.
    Truncated,
    /// The body continued past the last field of its message.
    TrailingBytes,
    /// The body's first byte is not a known opcode/tag.
    UnknownOpcode(u8),
    /// A field carried an out-of-range or malformed value.
    BadField(&'static str),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Oversized { len } => {
                write!(
                    f,
                    "frame body of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
                )
            }
            ProtoError::Truncated => write!(f, "frame body ended mid-field"),
            ProtoError::TrailingBytes => write!(f, "frame body has bytes past its last field"),
            ProtoError::UnknownOpcode(op) => write!(f, "unknown opcode/tag {op:#04x}"),
            ProtoError::BadField(what) => write!(f, "malformed field: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<ProtoError> for std::io::Error {
    fn from(error: ProtoError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, error)
    }
}

/// Error codes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// A frame exceeded [`MAX_FRAME_LEN`].
    Oversized,
    /// A frame failed to parse.
    Malformed,
    /// The server is at its connection cap.
    Busy,
    /// The backend index is degraded (read-only after an I/O failure):
    /// the mutation was rejected and the node should be drained.  Unlike
    /// the other codes this one is *not* a protocol fault — the
    /// connection stays healthy and reads keep being served.
    Unavailable,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Oversized => 1,
            ErrorCode::Malformed => 2,
            ErrorCode::Busy => 3,
            ErrorCode::Unavailable => 4,
        }
    }

    fn from_u8(code: u8) -> Result<Self, ProtoError> {
        match code {
            1 => Ok(ErrorCode::Oversized),
            2 => Ok(ErrorCode::Malformed),
            3 => Ok(ErrorCode::Busy),
            4 => Ok(ErrorCode::Unavailable),
            _ => Err(ProtoError::BadField("error code")),
        }
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Point lookup; answered with `Found`/`Missing`.
    Get {
        /// Key to look up.
        key: u64,
    },
    /// Upsert; answered with the displaced previous value
    /// (`Found`/`Missing`).
    Put {
        /// Key to store under.
        key: u64,
        /// Stored value.
        value: u64,
    },
    /// Removal; answered with the removed value (`Found`/`Missing`).
    Del {
        /// Key to remove.
        key: u64,
    },
    /// Range scan over `lo ..< hi`, at most `limit` entries; answered
    /// with [`Response::Entries`] in ascending key order.
    Scan {
        /// Inclusive lower bound.
        lo: u64,
        /// Exclusive upper bound.
        hi: u64,
        /// Entry cap, `1 ..= MAX_SCAN_LIMIT`.
        limit: u32,
    },
    /// Server + index statistics snapshot; answered with
    /// [`Response::Stats`].
    Stats,
}

impl Request {
    /// A `Put` of `value` under `key`.
    pub fn put(key: u64, value: u64) -> Self {
        Request::Put { key, value }
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// The operation observed this value (current for `Get`, displaced
    /// for `Put`, removed for `Del`).
    Found {
        /// The observed value.
        value: u64,
    },
    /// The key was absent.
    Missing,
    /// Answer to [`Request::Scan`]: the entries in ascending key order.
    Entries {
        /// `(key, value)` pairs.
        entries: Vec<(u64, u64)>,
    },
    /// Answer to [`Request::Stats`].
    Stats {
        /// Named counters: the server's own coalescing/connection stats
        /// followed by the backend index's [`bskip_index::IndexStats`].
        entries: Vec<(String, u64)>,
    },
    /// The request could not be served; the server closes the connection
    /// after protocol-level errors (`Oversized`, `Malformed`, `Busy`).
    Error {
        /// Machine-readable cause.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

fn push_u16(out: &mut Vec<u8>, value: u16) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn push_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Bounds-checked sequential reader over one frame body.
struct Reader<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(body: &'a [u8]) -> Self {
        Reader { body, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or(ProtoError::Truncated)?;
        if end > self.body.len() {
            return Err(ProtoError::Truncated);
        }
        let slice = &self.body[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn remaining(&self) -> usize {
        self.body.len() - self.pos
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes)
        }
    }
}

/// Encodes one frame around an already-encoded body producer.
fn encode_frame(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) -> Result<(), ProtoError> {
    let prefix_at = out.len();
    push_u32(out, 0);
    let body_at = out.len();
    body(out);
    let len = out.len() - body_at;
    if len == 0 || len > MAX_FRAME_LEN {
        out.truncate(prefix_at);
        return Err(ProtoError::Oversized { len });
    }
    out[prefix_at..body_at].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

/// Appends `request` to `out` as one frame.
///
/// Every request body is at most 21 bytes, so this never fails; it
/// returns a `Result` to share [`encode_response`]'s contract.
pub fn encode_request(request: &Request, out: &mut Vec<u8>) -> Result<(), ProtoError> {
    encode_frame(out, |out| match request {
        Request::Ping => out.push(OP_PING),
        Request::Get { key } => {
            out.push(OP_GET);
            push_u64(out, *key);
        }
        Request::Put { key, value } => {
            out.push(OP_PUT);
            push_u64(out, *key);
            push_u64(out, *value);
        }
        Request::Del { key } => {
            out.push(OP_DEL);
            push_u64(out, *key);
        }
        Request::Scan { lo, hi, limit } => {
            out.push(OP_SCAN);
            push_u64(out, *lo);
            push_u64(out, *hi);
            push_u32(out, *limit);
        }
        Request::Stats => out.push(OP_STATS),
    })
}

/// Appends `response` to `out` as one frame (same contract as
/// [`encode_request`]).
pub fn encode_response(response: &Response, out: &mut Vec<u8>) -> Result<(), ProtoError> {
    encode_frame(out, |out| match response {
        Response::Pong => out.push(TAG_PONG),
        Response::Found { value } => {
            out.push(TAG_FOUND);
            push_u64(out, *value);
        }
        Response::Missing => out.push(TAG_MISSING),
        Response::Entries { entries } => {
            push_entries(entries.iter().copied(), out);
        }
        Response::Stats { entries } => {
            out.push(TAG_STATS);
            push_u32(out, entries.len() as u32);
            for (name, value) in entries {
                let name = &name.as_bytes()[..name.len().min(u16::MAX as usize)];
                push_u16(out, name.len() as u16);
                out.extend_from_slice(name);
                push_u64(out, *value);
            }
        }
        Response::Error { code, message } => {
            out.push(TAG_ERROR);
            out.push(code.to_u8());
            let message = &message.as_bytes()[..message.len().min(u16::MAX as usize)];
            push_u16(out, message.len() as u16);
            out.extend_from_slice(message);
        }
    })
}

/// Appends an `Entries` frame holding every pair `entries` yields, in
/// order, and returns how many that was — the [`Response::Entries`]
/// encoding without the `Vec`: a scan's cursor streams straight into
/// `out`.
///
/// The caller bounds the pairs (the server takes at most the scan's
/// limit, and [`MAX_SCAN_LIMIT`] pairs fit a frame); a body past
/// [`MAX_FRAME_LEN`] is refused as for [`encode_response`], with `out`
/// left untouched.
pub fn encode_entries(
    entries: impl IntoIterator<Item = (u64, u64)>,
    out: &mut Vec<u8>,
) -> Result<u32, ProtoError> {
    let mut count = 0;
    encode_frame(out, |out| count = push_entries(entries, out))?;
    Ok(count)
}

/// The body of an `Entries` frame: the tag, a count placeholder, the
/// pairs, then the count patched in.  Returns the count.
fn push_entries(entries: impl IntoIterator<Item = (u64, u64)>, out: &mut Vec<u8>) -> u32 {
    out.push(TAG_ENTRIES);
    let count_at = out.len();
    push_u32(out, 0);
    let mut count = 0u32;
    for (key, value) in entries {
        push_u64(out, key);
        push_u64(out, value);
        count += 1;
    }
    out[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
    count
}

fn parse_request(body: &[u8]) -> Result<Request, ProtoError> {
    let mut r = Reader::new(body);
    let request = match r.u8()? {
        OP_PING => Request::Ping,
        OP_GET => Request::Get { key: r.u64()? },
        OP_PUT => Request::Put {
            key: r.u64()?,
            value: r.u64()?,
        },
        OP_DEL => Request::Del { key: r.u64()? },
        OP_SCAN => {
            let lo = r.u64()?;
            let hi = r.u64()?;
            let limit = r.u32()?;
            if limit == 0 || limit > MAX_SCAN_LIMIT {
                return Err(ProtoError::BadField("scan limit"));
            }
            Request::Scan { lo, hi, limit }
        }
        OP_STATS => Request::Stats,
        op => return Err(ProtoError::UnknownOpcode(op)),
    };
    r.finish()?;
    Ok(request)
}

fn parse_response(body: &[u8]) -> Result<Response, ProtoError> {
    let mut r = Reader::new(body);
    let response = match r.u8()? {
        TAG_PONG => Response::Pong,
        TAG_FOUND => Response::Found { value: r.u64()? },
        TAG_MISSING => Response::Missing,
        TAG_ENTRIES => {
            let count = r.u32()? as usize;
            if count > r.remaining() / 16 {
                return Err(ProtoError::BadField("entry count"));
            }
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                entries.push((r.u64()?, r.u64()?));
            }
            Response::Entries { entries }
        }
        TAG_STATS => {
            let count = r.u32()? as usize;
            // Minimal entry: empty name (2 bytes) + value (8 bytes).
            if count > r.remaining() / 10 {
                return Err(ProtoError::BadField("stat count"));
            }
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let nlen = r.u16()? as usize;
                let name = std::str::from_utf8(r.take(nlen)?)
                    .map_err(|_| ProtoError::BadField("stat name utf-8"))?
                    .to_string();
                entries.push((name, r.u64()?));
            }
            Response::Stats { entries }
        }
        TAG_ERROR => {
            let code = ErrorCode::from_u8(r.u8()?)?;
            let mlen = r.u16()? as usize;
            let message = std::str::from_utf8(r.take(mlen)?)
                .map_err(|_| ProtoError::BadField("error message utf-8"))?
                .to_string();
            Response::Error { code, message }
        }
        tag => return Err(ProtoError::UnknownOpcode(tag)),
    };
    r.finish()?;
    Ok(response)
}

/// Incremental frame decoder over a byte stream (see the module docs).
///
/// One decoder handles one direction of one connection; feed it raw
/// socket reads and drain complete frames.  After any `Err` the stream
/// position is unreliable and the connection should be torn down.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends freshly received bytes to the stream buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a decoded frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Locates the next complete frame body, without consuming it.
    fn next_body(&mut self) -> Result<Option<(usize, usize)>, ProtoError> {
        let available = self.buffered();
        if available < 4 {
            self.compact();
            return Ok(None);
        }
        let prefix: [u8; 4] = self.buf[self.pos..self.pos + 4].try_into().unwrap();
        let len = u32::from_le_bytes(prefix) as usize;
        if len == 0 {
            return Err(ProtoError::BadField("empty frame"));
        }
        if len > MAX_FRAME_LEN {
            return Err(ProtoError::Oversized { len });
        }
        if available < 4 + len {
            self.compact();
            return Ok(None);
        }
        let start = self.pos + 4;
        Ok(Some((start, start + len)))
    }

    fn consume(&mut self, end: usize) {
        self.pos = end;
        self.compact();
    }

    /// Drops the consumed prefix when it is the whole buffer, or when it
    /// has grown past the compaction threshold and is at least half the
    /// buffer.  The second condition keeps decoding linear: a compaction
    /// moves no more bytes than were consumed since the last one, where
    /// the threshold alone would move a large buffer's whole tail every
    /// time another threshold's worth was consumed.
    fn compact(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > COMPACT_THRESHOLD && self.pos >= self.buf.len() / 2 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Decodes the next complete request frame, or `Ok(None)` if the
    /// buffered bytes end mid-frame.
    pub fn decode_request(&mut self) -> Result<Option<Request>, ProtoError> {
        match self.next_body()? {
            None => Ok(None),
            Some((start, end)) => {
                let parsed = parse_request(&self.buf[start..end]);
                self.consume(end);
                parsed.map(Some)
            }
        }
    }

    /// Decodes the next complete response frame, or `Ok(None)` if the
    /// buffered bytes end mid-frame.
    pub fn decode_response(&mut self) -> Result<Option<Response>, ProtoError> {
        match self.next_body()? {
            None => Ok(None),
            Some((start, end)) => {
                let parsed = parse_response(&self.buf[start..end]);
                self.consume(end);
                parsed.map(Some)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::strategy::TestRng;

    fn roundtrip_request(request: &Request) -> Request {
        let mut wire = Vec::new();
        encode_request(request, &mut wire).expect("encode");
        let mut decoder = FrameDecoder::new();
        decoder.extend(&wire);
        let decoded = decoder.decode_request().expect("decode").expect("complete");
        assert_eq!(decoder.buffered(), 0);
        decoded
    }

    fn roundtrip_response(response: &Response) -> Response {
        let mut wire = Vec::new();
        encode_response(response, &mut wire).expect("encode");
        let mut decoder = FrameDecoder::new();
        decoder.extend(&wire);
        let decoded = decoder
            .decode_response()
            .expect("decode")
            .expect("complete");
        assert_eq!(decoder.buffered(), 0);
        decoded
    }

    #[test]
    fn every_request_shape_roundtrips() {
        let requests = vec![
            Request::Ping,
            Request::Get { key: 7 },
            Request::put(1, u64::MAX),
            Request::Del { key: u64::MAX },
            Request::Scan {
                lo: 10,
                hi: 20,
                limit: 100,
            },
            Request::Stats,
        ];
        for request in &requests {
            assert_eq!(&roundtrip_request(request), request);
        }
    }

    #[test]
    fn every_response_shape_roundtrips() {
        let responses = vec![
            Response::Pong,
            Response::Found { value: 42 },
            Response::Missing,
            Response::Entries {
                entries: vec![(1, 10), (2, 20)],
            },
            Response::Stats {
                entries: vec![("server_batches".into(), 3), ("live_nodes".into(), 77)],
            },
            Response::Error {
                code: ErrorCode::Busy,
                message: "connection cap reached".into(),
            },
            Response::Error {
                code: ErrorCode::Unavailable,
                message: "backend degraded".into(),
            },
        ];
        for response in &responses {
            assert_eq!(&roundtrip_response(response), response);
        }
    }

    #[test]
    fn partial_frames_stay_buffered_until_complete() {
        let mut wire = Vec::new();
        encode_request(&Request::put(9, 90), &mut wire).unwrap();
        let mut decoder = FrameDecoder::new();
        for byte in &wire[..wire.len() - 1] {
            decoder.extend(std::slice::from_ref(byte));
            assert_eq!(decoder.decode_request().unwrap(), None);
        }
        decoder.extend(&wire[wire.len() - 1..]);
        assert_eq!(decoder.decode_request().unwrap(), Some(Request::put(9, 90)));
        assert_eq!(decoder.decode_request().unwrap(), None);
    }

    #[test]
    fn pipelined_frames_drain_in_order() {
        let requests = vec![
            Request::Ping,
            Request::Get { key: 1 },
            Request::Del { key: 2 },
        ];
        let mut wire = Vec::new();
        for request in &requests {
            encode_request(request, &mut wire).unwrap();
        }
        let mut decoder = FrameDecoder::new();
        decoder.extend(&wire);
        for request in &requests {
            assert_eq!(decoder.decode_request().unwrap().as_ref(), Some(request));
        }
        assert_eq!(decoder.decode_request().unwrap(), None);
    }

    #[test]
    fn oversized_length_prefix_rejected_before_payload_arrives() {
        let mut decoder = FrameDecoder::new();
        decoder.extend(&((MAX_FRAME_LEN as u32 + 1).to_le_bytes()));
        assert_eq!(
            decoder.decode_request(),
            Err(ProtoError::Oversized {
                len: MAX_FRAME_LEN + 1
            })
        );
    }

    #[test]
    fn zero_length_frame_is_malformed() {
        let mut decoder = FrameDecoder::new();
        decoder.extend(&0u32.to_le_bytes());
        assert!(decoder.decode_request().is_err());
    }

    /// A decoder holding `body` behind its length prefix.
    fn decoder_over(body: &[u8]) -> FrameDecoder {
        let mut decoder = FrameDecoder::new();
        decoder.extend(&(body.len() as u32).to_le_bytes());
        decoder.extend(body);
        decoder
    }

    #[test]
    fn inflated_counts_and_bad_fields_are_rejected() {
        // An Entries frame whose count field promises more pairs than the
        // body could hold must be rejected before sizing an allocation.
        let mut body = vec![TAG_ENTRIES];
        push_u32(&mut body, u32::MAX);
        assert_eq!(
            decoder_over(&body).decode_response(),
            Err(ProtoError::BadField("entry count"))
        );

        // A Scan asking for no entries.
        let mut body = vec![OP_SCAN];
        push_u64(&mut body, 0);
        push_u64(&mut body, 10);
        push_u32(&mut body, 0);
        assert_eq!(
            decoder_over(&body).decode_request(),
            Err(ProtoError::BadField("scan limit"))
        );
    }

    /// Frames in the protocol's older, wider format are refused, never
    /// misread: a Put that still carries its value-length field, and the
    /// retired `Batch` opcode.
    #[test]
    fn old_format_frames_are_rejected() {
        let mut put = vec![OP_PUT];
        push_u64(&mut put, 7);
        push_u32(&mut put, 8);
        push_u64(&mut put, 70);
        assert_eq!(
            decoder_over(&put).decode_request(),
            Err(ProtoError::TrailingBytes)
        );

        let mut batch = vec![0x05];
        push_u32(&mut batch, 1);
        batch.push(0);
        push_u64(&mut batch, 7);
        assert_eq!(
            decoder_over(&batch).decode_request(),
            Err(ProtoError::UnknownOpcode(0x05))
        );
    }

    #[test]
    fn the_largest_admitted_answers_fit_a_frame() {
        let mut wire = Vec::new();
        let entries = vec![(u64::MAX, u64::MAX); MAX_SCAN_LIMIT as usize];
        let page = Response::Entries {
            entries: entries.clone(),
        };
        encode_response(&page, &mut wire).expect("a full scan page");
        assert!(wire.len() - 4 <= MAX_FRAME_LEN && wire.len() - 4 + 16 > MAX_FRAME_LEN);
        // The streamed page is the same frame; one pair more is refused
        // and leaves the buffer as it was.
        let mut streamed = Vec::new();
        let count = encode_entries(entries.iter().copied(), &mut streamed);
        assert_eq!((count, &streamed), (Ok(MAX_SCAN_LIMIT), &wire));
        let one_more = entries.iter().copied().chain([(0, 0)]);
        assert!(encode_entries(one_more, &mut streamed).is_err());
        assert_eq!(streamed, wire);
    }

    #[test]
    fn trailing_bytes_and_unknown_opcodes_are_rejected() {
        assert_eq!(
            decoder_over(&[OP_PING, 0xEE]).decode_request(),
            Err(ProtoError::TrailingBytes)
        );
        assert_eq!(
            decoder_over(&[0x55]).decode_request(),
            Err(ProtoError::UnknownOpcode(0x55))
        );
    }

    #[test]
    fn long_streams_compact_the_consumed_prefix() {
        let mut wire = Vec::new();
        encode_request(&Request::put(1, 1), &mut wire).unwrap();
        let mut decoder = FrameDecoder::new();
        for _ in 0..256 {
            decoder.extend(&wire);
            decoder.decode_request().unwrap().unwrap();
            // Fully drained: the buffer resets instead of growing.
            assert_eq!(decoder.buffered(), 0);
            assert!(decoder.buf.len() <= 2 * wire.len());
        }
    }

    /// A buffer holding many frames is not moved while more than half of
    /// it is unread, even with the consumed prefix past the threshold, and
    /// is compacted as soon as the consumed prefix reaches half.
    #[test]
    fn a_large_buffer_is_compacted_once_half_of_it_is_consumed() {
        let mut frame = Vec::new();
        encode_request(&Request::put(1, 1), &mut frame).unwrap();
        let frames = 4 * COMPACT_THRESHOLD / frame.len();
        let mut decoder = FrameDecoder::new();
        for _ in 0..frames {
            decoder.extend(&frame);
        }
        let total = decoder.buf.len();
        let mut consumed = 0;
        while consumed < total / 2 {
            assert_eq!((decoder.pos, decoder.buf.len()), (consumed, total));
            decoder.decode_request().unwrap().unwrap();
            consumed += frame.len();
        }
        assert!(consumed > COMPACT_THRESHOLD);
        assert_eq!((decoder.pos, decoder.buf.len()), (0, total - consumed));
        while decoder.decode_request().unwrap().is_some() {
            consumed += frame.len();
        }
        assert_eq!((consumed, decoder.buffered()), (total, 0));
    }

    /// Strategy for arbitrary (valid) requests.
    fn request_strategy() -> impl proptest::strategy::Strategy<Value = Request> {
        prop_oneof![
            (0u64..1).prop_map(|_| Request::Ping),
            any::<u64>().prop_map(|key| Request::Get { key }),
            (any::<u64>(), any::<u64>()).prop_map(|(key, value)| Request::put(key, value)),
            any::<u64>().prop_map(|key| Request::Del { key }),
            (any::<u64>(), any::<u64>(), 1u32..1000).prop_map(|(lo, hi, limit)| Request::Scan {
                lo,
                hi,
                limit
            }),
            (0u64..1).prop_map(|_| Request::Stats),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Any sequence of valid requests, concatenated and re-fed to the
        /// decoder in arbitrary chunk sizes, round-trips exactly.
        #[test]
        fn arbitrary_byte_splits_roundtrip(
            requests in proptest::collection::vec(request_strategy(), 1..8),
            seed in any::<u64>(),
        ) {
            let mut wire = Vec::new();
            for request in &requests {
                encode_request(request, &mut wire).expect("encode");
            }
            let mut rng = TestRng::for_test(&format!("chunks-{seed}"));
            let mut decoder = FrameDecoder::new();
            let mut decoded = Vec::new();
            let mut fed = 0;
            while fed < wire.len() {
                let chunk = rng.gen_range(1..64usize).min(wire.len() - fed);
                decoder.extend(&wire[fed..fed + chunk]);
                fed += chunk;
                while let Some(request) = decoder.decode_request().expect("valid stream") {
                    decoded.push(request);
                }
            }
            prop_assert_eq!(decoded, requests);
            prop_assert_eq!(decoder.buffered(), 0);
        }

        /// Garbage never panics: the decoder either waits for more bytes
        /// or reports a protocol error, on every prefix of the stream.
        #[test]
        fn garbage_streams_never_panic(
            bytes in proptest::collection::vec(proptest::strategy::any::<u8>(), 0..512),
        ) {
            let mut decoder = FrameDecoder::new();
            'stream: for byte in &bytes {
                decoder.extend(std::slice::from_ref(byte));
                loop {
                    match decoder.decode_request() {
                        Ok(Some(_)) => continue,
                        Ok(None) => break,
                        Err(_) => break 'stream, // poisoned stream: done
                    }
                }
            }
        }

        /// Valid frames survive being embedded after exact frame
        /// boundaries of other valid frames (no state leaks between
        /// frames).
        #[test]
        fn decoder_state_is_frame_local(request in request_strategy()) {
            let mut wire = Vec::new();
            encode_request(&Request::Ping, &mut wire).expect("encode");
            encode_request(&request, &mut wire).expect("encode");
            encode_request(&Request::Stats, &mut wire).expect("encode");
            let mut decoder = FrameDecoder::new();
            decoder.extend(&wire);
            prop_assert_eq!(decoder.decode_request().unwrap(), Some(Request::Ping));
            prop_assert_eq!(decoder.decode_request().unwrap(), Some(request));
            prop_assert_eq!(decoder.decode_request().unwrap(), Some(Request::Stats));
            prop_assert_eq!(decoder.decode_request().unwrap(), None);
        }
    }
}
