//! The widx wire protocol: compact length-prefixed binary frames with
//! explicit request ids, a versioned header, and a typed error frame.
//!
//! Every frame — request or reply — shares one envelope (all integers
//! little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     body_len  (u32; bytes after this field, >= 12)
//! 4       1     version   (WIRE_VERSION)
//! 5       1     opcode
//! 6       2     reserved  (must be zero)
//! 8       8     request id (echoed verbatim in the reply)
//! 16      n     payload   (body_len - 12 bytes, opcode-specific)
//! ```
//!
//! The 4-byte length prefix and 12-byte header are **invariant across
//! protocol versions** — that is the compat contract that lets a peer
//! skip a frame it cannot understand (unknown version or opcode) while
//! keeping the connection, replying with an [`ErrorReply`] instead of
//! hanging up. Only a violated envelope (a declared body shorter than
//! the header, or longer than [`MAX_BODY_LEN`]) loses framing and
//! forces the connection closed.
//!
//! Request ids are chosen by the client and echoed by the server, which
//! may answer **out of order** — ids are what make pipelining safe.
//! The protocol attaches no meaning to them beyond the echo.
//!
//! See `docs/wire-format.md` for the full payload layouts.

use widx_serve::{Request, Response};

/// The protocol version this build speaks.
pub const WIRE_VERSION: u8 = 1;

/// Hard ceiling on a frame body (header + payload), giving decoders a
/// bound to distrust: a length above this cannot be resynchronized and
/// closes the connection.
pub const MAX_BODY_LEN: usize = 1 << 24;

/// Envelope bytes after the length prefix, before the payload.
const HEADER_LEN: usize = 12;

/// The request id carried by *connection-level* error frames — ones
/// that answer no particular request (lost framing). Reserved: clients
/// never reach it (ids count up from 0, and 2^64 sends on one
/// connection is out of reach), so it cannot collide with a real
/// in-flight request the way id 0 would.
pub const CONNECTION_ERROR_ID: u64 = u64::MAX;

/// Request opcodes (high bit clear).
const OP_LOOKUP: u8 = 0x01;
const OP_MULTI_LOOKUP: u8 = 0x02;
const OP_JOIN_PROBE: u8 = 0x03;
const OP_RANGE_SCAN: u8 = 0x04;
/// `RangeScan` with a flags byte (bit 0: descending). Encoders keep
/// emitting the flagless `0x04` for plain ascending scans, so a
/// pre-streaming peer only sees an unknown opcode when the new
/// capability is actually used.
const OP_RANGE_SCAN2: u8 = 0x05;
/// A chunked range scan: answered with zero or more `RangeChunk`
/// frames followed by one `RangeEnd` (or a single error frame).
const OP_RANGE_STREAM: u8 = 0x06;
/// The scrape class (`0x07`–`0x09`, one opcode per [`ScrapeKind`]): an
/// empty-payload request answered immediately from the event loop — no
/// trip through the shard queues — with one reply frame (`0x87`–`0x89`)
/// whose payload is the remaining body, a UTF-8 JSON document. These
/// extend the opcode space without a version bump (rule 4): a server
/// that predates a kind answers `Unsupported` and the connection
/// survives.
const OP_STATS: u8 = 0x07;
const OP_TRACE: u8 = 0x08;
const OP_PROFILE: u8 = 0x09;
/// Insert `(key, payload)` pairs (payload: pair list). Rule-4 opcode
/// extension like the scrape class: a read-only peer answers `Unsupported`
/// and the connection survives. Answered with `OP_R_INSERT` carrying
/// one ack byte per pair, in request order.
const OP_INSERT: u8 = 0x0A;
/// Delete every entry under each key (payload: key list). Answered
/// with `OP_R_DELETE`; an ack byte is 1 when the key existed.
const OP_DELETE: u8 = 0x0B;
/// Update the payload under each key without inserting on miss
/// (payload: pair list). Answered with `OP_R_UPDATE`; an ack byte is
/// 1 when the key existed and was rewritten.
const OP_UPDATE: u8 = 0x0C;

/// Reply opcodes (high bit set) mirror their requests; `0xEE` is the
/// error frame.
const OP_R_LOOKUP: u8 = 0x81;
const OP_R_MULTI_LOOKUP: u8 = 0x82;
const OP_R_JOIN_PROBE: u8 = 0x83;
const OP_R_RANGE_SCAN: u8 = 0x84;
/// One key-ordered slice of a streaming scan's reply.
const OP_R_RANGE_CHUNK: u8 = 0x85;
/// End-of-stream marker carrying the total entry count.
const OP_R_RANGE_END: u8 = 0x86;
/// Scrape replies mirror their requests; see [`OP_STATS`].
const OP_R_STATS: u8 = 0x87;
const OP_R_TRACE: u8 = 0x88;
const OP_R_PROFILE: u8 = 0x89;
/// Per-key insert acks: `u32` count then one byte per submitted pair
/// (1 = applied), in request order.
const OP_R_INSERT: u8 = 0x8A;
/// Per-key delete acks: `u32` count then one byte per submitted key
/// (1 = the key existed and its entries were removed).
const OP_R_DELETE: u8 = 0x8B;
/// Per-key update acks: `u32` count then one byte per submitted pair
/// (1 = the key existed and its payload was rewritten; 0 = miss, no
/// insert happened).
const OP_R_UPDATE: u8 = 0x8C;
const OP_R_ERROR: u8 = 0xEE;

/// Scan-flag bits carried by [`OP_RANGE_SCAN2`] / [`OP_RANGE_STREAM`]
/// payloads. Undefined bits must be zero (the frame is `Malformed`
/// otherwise — they are reserved the same way header bits are).
const SCAN_FLAG_DESC: u8 = 0x01;

/// The most `(key, payload)` entries one `RangeChunk` (or buffered
/// `RangeScan` reply) frame can carry under [`MAX_BODY_LEN`]. Servers
/// split larger chunks; the serve tier's `stream_chunk` sits far below
/// this in practice.
pub const MAX_CHUNK_ENTRIES: usize = (MAX_BODY_LEN - HEADER_LEN - 4) / 16;

/// Which mutation opcode a request or reply frame travels under. A
/// `Response::Write` carries only the acks — not the verb — so the
/// server remembers the request's kind and passes it back to
/// [`encode_write_reply`] to pick the mirrored reply opcode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteKind {
    /// `OP_INSERT` / `OP_R_INSERT`.
    Insert,
    /// `OP_DELETE` / `OP_R_DELETE`.
    Delete,
    /// `OP_UPDATE` / `OP_R_UPDATE`.
    Update,
}

impl WriteKind {
    /// The kind of a write request, `None` for read requests. Servers
    /// call this at decode time so the completed `Response::Write` can
    /// be answered under the mirrored opcode.
    #[must_use]
    pub fn of(request: &Request) -> Option<WriteKind> {
        match request {
            Request::Insert { .. } => Some(WriteKind::Insert),
            Request::Delete { .. } => Some(WriteKind::Delete),
            Request::Update { .. } => Some(WriteKind::Update),
            _ => None,
        }
    }

    fn reply_opcode(self) -> u8 {
        match self {
            WriteKind::Insert => OP_R_INSERT,
            WriteKind::Delete => OP_R_DELETE,
            WriteKind::Update => OP_R_UPDATE,
        }
    }
}

/// Which observability document a scrape asks for. The three are one
/// exchange — empty request, JSON reply, answered inline by the event
/// loop — told apart only by their opcode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ScrapeKind {
    /// The live `ServiceStats` snapshot (`ServiceStats::to_json`).
    Stats = OP_STATS,
    /// The flight recorder: gauges plus recent traces, newest first
    /// (`ProbeService::traces_json`).
    Trace = OP_TRACE,
    /// The per-stage hardware-counter breakdown
    /// (`ProbeService::profile_json`).
    Profile = OP_PROFILE,
}

impl ScrapeKind {
    /// Every scrape kind, in opcode order.
    pub const ALL: [ScrapeKind; 3] = [ScrapeKind::Stats, ScrapeKind::Trace, ScrapeKind::Profile];

    /// The reply opcode mirrors the request's, high bit set.
    fn reply_opcode(self) -> u8 {
        self as u8 | 0x80
    }
}

/// Machine-readable reason carried by an error frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// Backpressure: a shard queue or the connection's in-flight window
    /// is at capacity. Retry later.
    Busy,
    /// The service has begun shutdown; no new work is accepted.
    Stopped,
    /// A `RangeScan` reached a service built without an ordered tier.
    NoOrderedIndex,
    /// The request frame could not be decoded (bad payload shape or
    /// reserved bits set).
    Malformed,
    /// Unknown protocol version or opcode — the frame was skipped.
    Unsupported,
    /// The request completed but its reply would exceed
    /// [`MAX_BODY_LEN`] — narrow the request (e.g. a smaller
    /// `RangeScan` limit) and retry.
    TooLarge,
    /// A code this build does not know (from a newer peer). Carried
    /// through verbatim so forward-compat peers can still classify.
    Other(u8),
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Busy => 1,
            ErrorCode::Stopped => 2,
            ErrorCode::NoOrderedIndex => 3,
            ErrorCode::Malformed => 4,
            ErrorCode::Unsupported => 5,
            ErrorCode::TooLarge => 6,
            ErrorCode::Other(code) => code,
        }
    }

    fn from_u8(code: u8) -> ErrorCode {
        match code {
            1 => ErrorCode::Busy,
            2 => ErrorCode::Stopped,
            3 => ErrorCode::NoOrderedIndex,
            4 => ErrorCode::Malformed,
            5 => ErrorCode::Unsupported,
            6 => ErrorCode::TooLarge,
            other => ErrorCode::Other(other),
        }
    }
}

/// A decoded request frame, as the server sees it: either a plain
/// request answered with one buffered reply frame, or a chunked range
/// scan whose reply is a *sequence* of frames (`RangeChunk*` then
/// `RangeEnd`, or one error frame).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireRequest {
    /// One of the buffered request kinds.
    Plain(Request),
    /// A chunked range scan (`OP_RANGE_STREAM`).
    Stream {
        /// Inclusive lower key bound.
        lo: u64,
        /// Inclusive upper key bound.
        hi: u64,
        /// Maximum entries streamed (`usize::MAX` for unbounded).
        limit: usize,
        /// Descending key order when set.
        desc: bool,
    },
    /// A scrape: answered from the event loop itself, never submitted
    /// to a shard queue.
    Scrape(ScrapeKind),
}

/// A decoded reply frame, as the client sees it: a buffered response,
/// or one piece of a chunked stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// A complete buffered response.
    Response(Response),
    /// One key-ordered slice of a streaming scan; slices concatenate,
    /// in arrival order, to exactly the buffered `RangeScan` reply.
    RangeChunk(Vec<(u64, u64)>),
    /// End of a stream: `entries` is the total streamed across every
    /// chunk (a client-side integrity check).
    RangeEnd {
        /// Total `(key, payload)` entries the stream carried.
        entries: u64,
    },
    /// The document answering a scrape.
    Scrape {
        /// Which document this is.
        kind: ScrapeKind,
        /// The document, as the server rendered it.
        json: String,
    },
}

/// The error frame's body: a code plus a short human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorReply {
    /// Machine-readable reason.
    pub code: ErrorCode,
    /// Diagnostic text (truncated to `u16::MAX` bytes on the wire).
    pub message: String,
}

impl ErrorReply {
    /// Convenience constructor.
    #[must_use]
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ErrorReply {
        ErrorReply {
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ErrorReply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

/// Why a well-framed body failed to decode. All of these are
/// *resynchronizable*: the envelope told us where the frame ends, so
/// the peer can skip it and keep the connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Unknown protocol version byte.
    Version(u8),
    /// Unknown (or wrong-direction) opcode for this decoder.
    Opcode(u8),
    /// Reserved header bits were set (a version-1 frame must zero them).
    Reserved(u16),
    /// The payload does not match the opcode's layout.
    Payload(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Version(v) => write!(f, "unsupported wire version {v}"),
            DecodeError::Opcode(op) => write!(f, "unknown opcode {op:#04x}"),
            DecodeError::Reserved(bits) => write!(f, "reserved header bits set: {bits:#06x}"),
            DecodeError::Payload(why) => write!(f, "malformed payload: {why}"),
        }
    }
}

/// A violated envelope: framing is lost and the connection must close.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Declared body length exceeds [`MAX_BODY_LEN`].
    Oversize(usize),
    /// Declared body length is shorter than the fixed header.
    Runt(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversize(len) => write!(f, "frame body of {len} bytes exceeds cap"),
            FrameError::Runt(len) => write!(f, "frame body of {len} bytes is under the header"),
        }
    }
}

/// The outcome of an incremental decode over a byte buffer.
#[derive(Debug)]
pub enum Decoded<T> {
    /// The buffer does not yet hold a complete frame — read more.
    Incomplete,
    /// A good frame: consume `consumed` bytes.
    Frame {
        /// Bytes the frame occupied (length prefix included).
        consumed: usize,
        /// The request id the peer chose.
        id: u64,
        /// The decoded body.
        value: T,
    },
    /// A well-framed but undecodable body: consume `consumed` bytes,
    /// report `error` (the connection survives).
    Corrupt {
        /// Bytes to skip (the whole frame).
        consumed: usize,
        /// The request id, so the error reply can still be matched.
        id: u64,
        /// What was wrong with the body.
        error: DecodeError,
    },
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends one frame: writes the envelope, lets `payload` append the
/// body, then backpatches the length prefix.
fn frame(buf: &mut Vec<u8>, opcode: u8, id: u64, payload: impl FnOnce(&mut Vec<u8>)) {
    let len_at = buf.len();
    put_u32(buf, 0); // placeholder
    buf.push(WIRE_VERSION);
    buf.push(opcode);
    put_u16(buf, 0); // reserved
    put_u64(buf, id);
    payload(buf);
    let body_len = buf.len() - len_at - 4;
    assert!(body_len <= MAX_BODY_LEN, "frame body exceeds MAX_BODY_LEN");
    let body_len = u32::try_from(body_len).expect("body length fits u32");
    buf[len_at..len_at + 4].copy_from_slice(&body_len.to_le_bytes());
}

/// Grows `buf` by `len` bytes once and hands back the new tail, for a
/// list body to be written through `chunks_exact_mut` — no capacity
/// check per element. These are the hot serialize loops: every probe
/// request, and every probe, chunk and range reply.
fn grow(buf: &mut Vec<u8>, len: usize) -> &mut [u8] {
    let at = buf.len();
    buf.resize(at + len, 0);
    &mut buf[at..]
}

fn put_keys(buf: &mut Vec<u8>, keys: &[u64]) {
    put_u32(buf, u32::try_from(keys.len()).expect("key count fits u32"));
    for (le, key) in grow(buf, keys.len() * 8).chunks_exact_mut(8).zip(keys) {
        le.copy_from_slice(&key.to_le_bytes());
    }
}

fn put_pairs(buf: &mut Vec<u8>, pairs: &[(u64, u64)]) {
    put_u32(
        buf,
        u32::try_from(pairs.len()).expect("pair count fits u32"),
    );
    for (le, (a, b)) in grow(buf, pairs.len() * 16).chunks_exact_mut(16).zip(pairs) {
        le[..8].copy_from_slice(&a.to_le_bytes());
        le[8..].copy_from_slice(&b.to_le_bytes());
    }
}

/// `usize::MAX` (the unbounded-limit sentinel) travels as `u64::MAX`.
fn limit_to_wire(limit: usize) -> u64 {
    if limit == usize::MAX {
        u64::MAX
    } else {
        limit as u64
    }
}

fn limit_from_wire(limit: u64) -> usize {
    usize::try_from(limit).unwrap_or(usize::MAX)
}

/// Encodes one request frame onto `buf`. Ascending range scans keep
/// the version-1 flagless `0x04` layout; descending ones use the
/// flag-bearing `0x05` a pre-streaming peer answers `Unsupported`.
pub fn encode_request(buf: &mut Vec<u8>, id: u64, request: &Request) {
    match request {
        Request::Lookup { key } => frame(buf, OP_LOOKUP, id, |b| put_u64(b, *key)),
        Request::MultiLookup { keys } => frame(buf, OP_MULTI_LOOKUP, id, |b| put_keys(b, keys)),
        Request::JoinProbe { keys } => frame(buf, OP_JOIN_PROBE, id, |b| put_keys(b, keys)),
        Request::RangeScan {
            lo,
            hi,
            limit,
            desc: false,
        } => frame(buf, OP_RANGE_SCAN, id, |b| {
            put_u64(b, *lo);
            put_u64(b, *hi);
            put_u64(b, limit_to_wire(*limit));
        }),
        Request::RangeScan {
            lo,
            hi,
            limit,
            desc: true,
        } => frame(buf, OP_RANGE_SCAN2, id, |b| {
            put_u64(b, *lo);
            put_u64(b, *hi);
            put_u64(b, limit_to_wire(*limit));
            b.push(SCAN_FLAG_DESC);
        }),
        Request::Insert { pairs } => frame(buf, OP_INSERT, id, |b| put_pairs(b, pairs)),
        Request::Delete { keys } => frame(buf, OP_DELETE, id, |b| put_keys(b, keys)),
        Request::Update { pairs } => frame(buf, OP_UPDATE, id, |b| put_pairs(b, pairs)),
    }
}

/// Encodes one write-ack reply frame onto `buf`, under the reply
/// opcode mirroring `kind` — one ack byte per submitted key/pair, in
/// request order.
pub fn encode_write_reply(buf: &mut Vec<u8>, id: u64, kind: WriteKind, acks: &[bool]) {
    frame(buf, kind.reply_opcode(), id, |b| {
        put_u32(b, u32::try_from(acks.len()).expect("ack count fits u32"));
        b.extend(acks.iter().map(|ack| u8::from(*ack)));
    });
}

/// Encodes one chunked-scan request frame onto `buf` — the client side
/// of `OP_RANGE_STREAM`.
pub fn encode_range_stream(buf: &mut Vec<u8>, id: u64, lo: u64, hi: u64, limit: usize, desc: bool) {
    frame(buf, OP_RANGE_STREAM, id, |b| {
        put_u64(b, lo);
        put_u64(b, hi);
        put_u64(b, limit_to_wire(limit));
        b.push(if desc { SCAN_FLAG_DESC } else { 0 });
    });
}

/// Encodes one scrape request frame onto `buf` — the client side of
/// the scrape class. The payload is empty; the reply carries the JSON.
pub fn encode_scrape_request(buf: &mut Vec<u8>, id: u64, kind: ScrapeKind) {
    frame(buf, kind as u8, id, |_| {});
}

/// Encodes one scrape reply frame onto `buf`: the body is the JSON
/// document, verbatim.
///
/// # Panics
///
/// Panics if the document does not satisfy [`scrape_fits`] (callers
/// check first and answer [`ErrorCode::TooLarge`] instead).
pub fn encode_scrape_reply(buf: &mut Vec<u8>, id: u64, kind: ScrapeKind, json: &str) {
    frame(buf, kind.reply_opcode(), id, |b| {
        b.extend_from_slice(json.as_bytes());
    });
}

/// Encodes one stream-chunk reply frame onto `buf`.
///
/// # Panics
///
/// Panics if `entries` exceeds [`MAX_CHUNK_ENTRIES`] (callers split
/// first).
pub fn encode_range_chunk(buf: &mut Vec<u8>, id: u64, entries: &[(u64, u64)]) {
    assert!(
        entries.len() <= MAX_CHUNK_ENTRIES,
        "chunk exceeds the frame cap; split it"
    );
    // Reserve the whole frame up front — the streaming fast path calls
    // this straight off the gather seam, so the append must not re-grow.
    buf.reserve(4 + HEADER_LEN + 4 + entries.len() * 16);
    frame(buf, OP_R_RANGE_CHUNK, id, |b| put_pairs(b, entries));
}

/// Encodes one end-of-stream reply frame onto `buf`.
pub fn encode_range_end(buf: &mut Vec<u8>, id: u64, entries: u64) {
    frame(buf, OP_R_RANGE_END, id, |b| put_u64(b, entries));
}

/// Encodes one response frame onto `buf`.
pub fn encode_response(buf: &mut Vec<u8>, id: u64, response: &Response) {
    match response {
        Response::Lookup { key, payloads } => frame(buf, OP_R_LOOKUP, id, |b| {
            put_u64(b, *key);
            put_keys(b, payloads);
        }),
        Response::MultiLookup { matches } => {
            frame(buf, OP_R_MULTI_LOOKUP, id, |b| put_pairs(b, matches));
        }
        Response::JoinProbe { pairs } => frame(buf, OP_R_JOIN_PROBE, id, |b| put_pairs(b, pairs)),
        Response::RangeScan { entries } => {
            frame(buf, OP_R_RANGE_SCAN, id, |b| put_pairs(b, entries));
        }
        Response::Write { .. } => {
            // The verb (insert/delete/update) is not recoverable from
            // the response alone, and the reply opcode must mirror it.
            panic!("write replies need their request kind; use encode_write_reply");
        }
    }
}

/// Whether a request's encoded body fits under [`MAX_BODY_LEN`].
/// Callers (the client's `send`) must check before encoding — `frame`
/// asserts the cap, and an oversized body would otherwise panic the
/// encoder's thread.
#[must_use]
pub fn request_fits(request: &Request) -> bool {
    let payload = match request {
        Request::Lookup { .. } => 8,
        Request::MultiLookup { keys } | Request::JoinProbe { keys } => {
            4 + keys.len().saturating_mul(8)
        }
        Request::RangeScan { .. } => 25,
        Request::Insert { pairs } | Request::Update { pairs } => 4 + pairs.len().saturating_mul(16),
        Request::Delete { keys } => 4 + keys.len().saturating_mul(8),
    };
    HEADER_LEN + payload <= MAX_BODY_LEN
}

/// Whether a response's encoded body fits under [`MAX_BODY_LEN`].
/// The server must check before encoding a completed reply: the limit
/// on a `RangeScan` is client-controlled, so a legal request can
/// produce a reply bigger than any frame — that answers
/// [`ErrorCode::TooLarge`] instead of panicking the event loop.
#[must_use]
pub fn response_fits(response: &Response) -> bool {
    let payload = match response {
        Response::Lookup { payloads, .. } => 8 + 4 + payloads.len().saturating_mul(8),
        Response::MultiLookup { matches } => 4 + matches.len().saturating_mul(16),
        Response::JoinProbe { pairs } => 4 + pairs.len().saturating_mul(16),
        Response::RangeScan { entries } => 4 + entries.len().saturating_mul(16),
        Response::Write { acks } => 4 + acks.len(),
    };
    HEADER_LEN + payload <= MAX_BODY_LEN
}

/// Whether a scrape document's reply body fits under [`MAX_BODY_LEN`].
/// The server must check before encoding: a flight recorder built with
/// a large enough capacity renders a document bigger than any frame,
/// and cutting it at a byte offset would ship invalid JSON — that
/// answers [`ErrorCode::TooLarge`] instead.
#[must_use]
pub fn scrape_fits(json: &str) -> bool {
    HEADER_LEN + json.len() <= MAX_BODY_LEN
}

/// Encodes one error frame onto `buf`.
pub fn encode_error(buf: &mut Vec<u8>, id: u64, error: &ErrorReply) {
    let msg = error.message.as_bytes();
    let msg = &msg[..msg.len().min(usize::from(u16::MAX))];
    frame(buf, OP_R_ERROR, id, |b| {
        b.push(error.code.to_u8());
        b.push(0); // reserved
        put_u16(b, msg.len() as u16);
        b.extend_from_slice(msg);
    });
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// One little-endian `u64` from exactly eight bytes.
fn le64(raw: &[u8]) -> u64 {
    u64::from_le_bytes(raw.try_into().expect("eight bytes"))
}

/// A little-endian cursor over one frame's payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, at: 0 }
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self
            .bytes
            .get(self.at)
            .ok_or(DecodeError::Payload("truncated payload"))?;
        self.at += 1;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        let raw = self.take(2)?;
        Ok(u16::from_le_bytes([raw[0], raw[1]]))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let raw = self.take(4)?;
        Ok(u32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(le64(self.take(8)?))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|end| *end <= self.bytes.len())
            .ok_or(DecodeError::Payload("truncated payload"))?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn keys(&mut self) -> Result<Vec<u64>, DecodeError> {
        let count = self.u32()? as usize;
        if count.saturating_mul(8) > self.bytes.len() - self.at {
            return Err(DecodeError::Payload("key count exceeds payload"));
        }
        // The guard above is the bounds check: one allocation, then a
        // straight conversion of the 8-byte chunks.
        Ok(self.take(count * 8)?.chunks_exact(8).map(le64).collect())
    }

    fn pairs(&mut self) -> Result<Vec<(u64, u64)>, DecodeError> {
        let count = self.u32()? as usize;
        if count.saturating_mul(16) > self.bytes.len() - self.at {
            return Err(DecodeError::Payload("pair count exceeds payload"));
        }
        let entries = self.take(count * 16)?.chunks_exact(16);
        Ok(entries.map(|le| (le64(&le[..8]), le64(&le[8..]))).collect())
    }

    fn acks(&mut self) -> Result<Vec<bool>, DecodeError> {
        let count = self.u32()? as usize;
        let raw = self.take(count)?;
        if raw.iter().any(|b| *b > 1) {
            // Ack bytes are reserved beyond 0/1, like header bits.
            return Err(DecodeError::Payload("ack byte is not 0 or 1"));
        }
        Ok(raw.iter().map(|b| *b == 1).collect())
    }

    /// Everything not yet consumed (used by opcodes whose payload is
    /// "the rest of the body", like the stats JSON).
    fn rest(&mut self) -> &'a [u8] {
        let slice = &self.bytes[self.at..];
        self.at = self.bytes.len();
        slice
    }

    fn finish(self) -> Result<(), DecodeError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(DecodeError::Payload("trailing bytes in payload"))
        }
    }
}

/// A parsed frame envelope: total size, opcode, id, payload slice, and
/// any header-level (but resynchronizable) problem.
struct Envelope<'a> {
    consumed: usize,
    opcode: u8,
    id: u64,
    payload: &'a [u8],
    header_error: Option<DecodeError>,
}

/// The envelope parse shared by both decode directions: yields the
/// frame's total size, id, opcode, and payload slice once the buffer
/// holds the whole frame.
fn envelope(buf: &[u8]) -> Result<Option<Envelope<'_>>, FrameError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let body_len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if body_len > MAX_BODY_LEN {
        return Err(FrameError::Oversize(body_len));
    }
    if body_len < HEADER_LEN {
        return Err(FrameError::Runt(body_len));
    }
    let total = 4 + body_len;
    if buf.len() < total {
        return Ok(None);
    }
    let version = buf[4];
    let opcode = buf[5];
    let reserved = u16::from_le_bytes([buf[6], buf[7]]);
    let id = u64::from_le_bytes(buf[8..16].try_into().expect("8 header bytes"));
    let payload = &buf[16..total];
    // Header-level problems are resynchronizable (the envelope held), so
    // they ride along for the caller to turn into `Decoded::Corrupt`.
    let header_error = if version != WIRE_VERSION {
        Some(DecodeError::Version(version))
    } else if reserved != 0 {
        Some(DecodeError::Reserved(reserved))
    } else {
        None
    };
    Ok(Some(Envelope {
        consumed: total,
        opcode,
        id,
        payload,
        header_error,
    }))
}

/// Whether `buf` starts with a whole frame (its length prefix is
/// satisfied): a decoder answers from `buf` alone — a frame, a corrupt
/// frame or a framing error, never `Incomplete`.
pub(crate) fn holds_frame(buf: &[u8]) -> bool {
    !matches!(envelope(buf), Ok(None))
}

/// Decodes a scan-flags byte; undefined bits are `Malformed` (they are
/// reserved for future meaning, like the header's reserved bits).
fn scan_flags(c: &mut Cursor<'_>) -> Result<bool, DecodeError> {
    let flags = c.u8()?;
    if flags & !SCAN_FLAG_DESC != 0 {
        return Err(DecodeError::Payload("reserved scan-flag bits set"));
    }
    Ok(flags & SCAN_FLAG_DESC != 0)
}

fn decode_request_payload(opcode: u8, payload: &[u8]) -> Result<WireRequest, DecodeError> {
    let mut c = Cursor::new(payload);
    let request = match opcode {
        OP_LOOKUP => WireRequest::Plain(Request::Lookup { key: c.u64()? }),
        OP_MULTI_LOOKUP => WireRequest::Plain(Request::MultiLookup { keys: c.keys()? }),
        OP_JOIN_PROBE => WireRequest::Plain(Request::JoinProbe { keys: c.keys()? }),
        OP_RANGE_SCAN => WireRequest::Plain(Request::RangeScan {
            lo: c.u64()?,
            hi: c.u64()?,
            limit: limit_from_wire(c.u64()?),
            desc: false,
        }),
        OP_RANGE_SCAN2 => {
            let (lo, hi, limit) = (c.u64()?, c.u64()?, limit_from_wire(c.u64()?));
            WireRequest::Plain(Request::RangeScan {
                lo,
                hi,
                limit,
                desc: scan_flags(&mut c)?,
            })
        }
        OP_RANGE_STREAM => {
            let (lo, hi, limit) = (c.u64()?, c.u64()?, limit_from_wire(c.u64()?));
            WireRequest::Stream {
                lo,
                hi,
                limit,
                desc: scan_flags(&mut c)?,
            }
        }
        OP_STATS => WireRequest::Scrape(ScrapeKind::Stats),
        OP_TRACE => WireRequest::Scrape(ScrapeKind::Trace),
        OP_PROFILE => WireRequest::Scrape(ScrapeKind::Profile),
        OP_INSERT => WireRequest::Plain(Request::Insert { pairs: c.pairs()? }),
        OP_DELETE => WireRequest::Plain(Request::Delete { keys: c.keys()? }),
        OP_UPDATE => WireRequest::Plain(Request::Update { pairs: c.pairs()? }),
        other => return Err(DecodeError::Opcode(other)),
    };
    c.finish()?;
    Ok(request)
}

fn scrape_reply(kind: ScrapeKind, c: &mut Cursor<'_>) -> Result<Reply, DecodeError> {
    let json = String::from_utf8(c.rest().to_vec())
        .map_err(|_| DecodeError::Payload("scrape payload is not UTF-8"))?;
    Ok(Reply::Scrape { kind, json })
}

fn decode_reply_payload(
    opcode: u8,
    payload: &[u8],
) -> Result<Result<Reply, ErrorReply>, DecodeError> {
    let mut c = Cursor::new(payload);
    let reply = match opcode {
        OP_R_LOOKUP => Ok(Reply::Response(Response::Lookup {
            key: c.u64()?,
            payloads: c.keys()?,
        })),
        OP_R_MULTI_LOOKUP => Ok(Reply::Response(Response::MultiLookup {
            matches: c.pairs()?,
        })),
        OP_R_JOIN_PROBE => Ok(Reply::Response(Response::JoinProbe { pairs: c.pairs()? })),
        OP_R_RANGE_SCAN => Ok(Reply::Response(Response::RangeScan {
            entries: c.pairs()?,
        })),
        OP_R_RANGE_CHUNK => Ok(Reply::RangeChunk(c.pairs()?)),
        OP_R_RANGE_END => Ok(Reply::RangeEnd { entries: c.u64()? }),
        OP_R_STATS => Ok(scrape_reply(ScrapeKind::Stats, &mut c)?),
        OP_R_TRACE => Ok(scrape_reply(ScrapeKind::Trace, &mut c)?),
        OP_R_PROFILE => Ok(scrape_reply(ScrapeKind::Profile, &mut c)?),
        OP_R_INSERT | OP_R_DELETE | OP_R_UPDATE => {
            Ok(Reply::Response(Response::Write { acks: c.acks()? }))
        }
        OP_R_ERROR => {
            let code = ErrorCode::from_u8(c.u8()?);
            let _reserved = c.u8()?;
            let msg_len = c.u16()? as usize;
            let message = String::from_utf8_lossy(c.take(msg_len)?).into_owned();
            Err(ErrorReply { code, message })
        }
        other => return Err(DecodeError::Opcode(other)),
    };
    c.finish()?;
    Ok(reply)
}

/// Incrementally decodes one *request* frame from the front of `buf`
/// (the server side).
///
/// # Errors
///
/// [`FrameError`] when the envelope itself is violated — framing is
/// lost and the connection must close.
pub fn decode_request(buf: &[u8]) -> Result<Decoded<WireRequest>, FrameError> {
    let Some(Envelope {
        consumed,
        opcode,
        id,
        payload,
        header_error,
    }) = envelope(buf)?
    else {
        return Ok(Decoded::Incomplete);
    };
    if let Some(error) = header_error {
        return Ok(Decoded::Corrupt {
            consumed,
            id,
            error,
        });
    }
    match decode_request_payload(opcode, payload) {
        Ok(value) => Ok(Decoded::Frame {
            consumed,
            id,
            value,
        }),
        Err(error) => Ok(Decoded::Corrupt {
            consumed,
            id,
            error,
        }),
    }
}

/// Incrementally decodes one *reply* frame — a response or an error —
/// from the front of `buf` (the client side).
///
/// # Errors
///
/// [`FrameError`] when the envelope itself is violated — framing is
/// lost and the connection must close.
pub fn decode_reply(buf: &[u8]) -> Result<Decoded<Result<Reply, ErrorReply>>, FrameError> {
    let Some(Envelope {
        consumed,
        opcode,
        id,
        payload,
        header_error,
    }) = envelope(buf)?
    else {
        return Ok(Decoded::Incomplete);
    };
    if let Some(error) = header_error {
        return Ok(Decoded::Corrupt {
            consumed,
            id,
            error,
        });
    }
    match decode_reply_payload(opcode, payload) {
        Ok(value) => Ok(Decoded::Frame {
            consumed,
            id,
            value,
        }),
        Err(error) => Ok(Decoded::Corrupt {
            consumed,
            id,
            error,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(request: &Request) {
        let mut buf = Vec::new();
        encode_request(&mut buf, 42, request);
        match decode_request(&buf).unwrap() {
            Decoded::Frame {
                consumed,
                id,
                value,
            } => {
                assert_eq!(consumed, buf.len());
                assert_eq!(id, 42);
                assert_eq!(value, WireRequest::Plain(request.clone()));
            }
            other => panic!("expected frame, got {other:?}"),
        }
    }

    fn roundtrip_reply(reply: &Result<Response, ErrorReply>, id: u64) {
        let mut buf = Vec::new();
        match reply {
            Ok(response) => encode_response(&mut buf, id, response),
            Err(error) => encode_error(&mut buf, id, error),
        }
        let want = reply.clone().map(Reply::Response);
        match decode_reply(&buf).unwrap() {
            Decoded::Frame {
                consumed,
                id: got_id,
                value,
            } => {
                assert_eq!(consumed, buf.len());
                assert_eq!(got_id, id);
                assert_eq!(value, want);
            }
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn request_frames_roundtrip() {
        roundtrip_request(&Request::Lookup { key: 7 });
        roundtrip_request(&Request::MultiLookup { keys: vec![] });
        roundtrip_request(&Request::MultiLookup {
            keys: vec![1, u64::MAX, 3],
        });
        roundtrip_request(&Request::JoinProbe {
            keys: vec![9, 9, 9],
        });
        roundtrip_request(&Request::RangeScan {
            lo: 5,
            hi: 500,
            limit: 17,
            desc: false,
        });
        roundtrip_request(&Request::RangeScan {
            lo: 0,
            hi: u64::MAX,
            limit: usize::MAX,
            desc: false,
        });
        roundtrip_request(&Request::RangeScan {
            lo: 3,
            hi: 9,
            limit: 2,
            desc: true,
        });
    }

    #[test]
    fn ascending_scans_keep_the_flagless_v1_opcode() {
        // Back-compat: a plain ascending scan must still encode as the
        // original 0x04 layout a pre-streaming peer understands.
        let mut buf = Vec::new();
        encode_request(
            &mut buf,
            1,
            &Request::RangeScan {
                lo: 0,
                hi: 10,
                limit: 5,
                desc: false,
            },
        );
        assert_eq!(buf[5], OP_RANGE_SCAN);
        assert_eq!(buf.len(), 4 + HEADER_LEN + 24, "no flags byte");
        let mut buf = Vec::new();
        encode_request(
            &mut buf,
            1,
            &Request::RangeScan {
                lo: 0,
                hi: 10,
                limit: 5,
                desc: true,
            },
        );
        assert_eq!(buf[5], OP_RANGE_SCAN2);
        assert_eq!(buf.len(), 4 + HEADER_LEN + 25, "flags byte present");
    }

    #[test]
    fn stream_request_frames_roundtrip() {
        for (limit, desc) in [(17usize, false), (usize::MAX, true)] {
            let mut buf = Vec::new();
            encode_range_stream(&mut buf, 9, 5, 500, limit, desc);
            match decode_request(&buf).unwrap() {
                Decoded::Frame {
                    consumed,
                    id,
                    value,
                } => {
                    assert_eq!((consumed, id), (buf.len(), 9));
                    assert_eq!(
                        value,
                        WireRequest::Stream {
                            lo: 5,
                            hi: 500,
                            limit,
                            desc,
                        }
                    );
                }
                other => panic!("expected frame, got {other:?}"),
            }
        }
    }

    #[test]
    fn chunk_and_end_frames_roundtrip() {
        let mut buf = Vec::new();
        encode_range_chunk(&mut buf, 7, &[(1, 10), (2, 20)]);
        let first_len = buf.len();
        encode_range_end(&mut buf, 7, 2);
        match decode_reply(&buf).unwrap() {
            Decoded::Frame {
                consumed,
                id,
                value,
            } => {
                assert_eq!((consumed, id), (first_len, 7));
                assert_eq!(value, Ok(Reply::RangeChunk(vec![(1, 10), (2, 20)])));
                match decode_reply(&buf[consumed..]).unwrap() {
                    Decoded::Frame { id, value, .. } => {
                        assert_eq!(id, 7);
                        assert_eq!(value, Ok(Reply::RangeEnd { entries: 2 }));
                    }
                    other => panic!("expected end frame, got {other:?}"),
                }
            }
            other => panic!("expected chunk frame, got {other:?}"),
        }
        // An empty chunk is legal on the wire (servers simply avoid
        // sending them).
        let mut buf = Vec::new();
        encode_range_chunk(&mut buf, 8, &[]);
        match decode_reply(&buf).unwrap() {
            Decoded::Frame { value, .. } => assert_eq!(value, Ok(Reply::RangeChunk(vec![]))),
            other => panic!("expected frame, got {other:?}"),
        }
    }

    /// One body for the whole scrape class; the three tests below keep
    /// the per-kind names the suite has always printed.
    fn scrape_frames_roundtrip(kind: ScrapeKind, json: &str) {
        // Request: empty payload under the kind's rule-4 opcode.
        let mut buf = Vec::new();
        encode_scrape_request(&mut buf, 21, kind);
        assert_eq!(buf[5], kind as u8);
        assert_eq!(buf.len(), 4 + HEADER_LEN, "empty payload");
        match decode_request(&buf).unwrap() {
            Decoded::Frame {
                consumed,
                id,
                value,
            } => {
                assert_eq!((consumed, id), (buf.len(), 21));
                assert_eq!(value, WireRequest::Scrape(kind));
            }
            other => panic!("expected frame, got {other:?}"),
        }
        // A scrape request with trailing bytes is malformed, not ignored.
        let mut buf = Vec::new();
        frame(&mut buf, kind as u8, 22, |b| b.push(1));
        match decode_request(&buf).unwrap() {
            Decoded::Corrupt { error, .. } => {
                assert_eq!(error, DecodeError::Payload("trailing bytes in payload"));
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
        // Reply: the body is the JSON, verbatim.
        assert!(scrape_fits(json));
        let mut buf = Vec::new();
        encode_scrape_reply(&mut buf, 21, kind, json);
        assert_eq!(buf[5], kind.reply_opcode());
        match decode_reply(&buf).unwrap() {
            Decoded::Frame { id, value, .. } => {
                assert_eq!(id, 21);
                let json = json.to_string();
                assert_eq!(value, Ok(Reply::Scrape { kind, json }));
            }
            other => panic!("expected frame, got {other:?}"),
        }
        // Non-UTF-8 scrape bodies are corrupt but resynchronizable.
        let mut buf = Vec::new();
        frame(&mut buf, kind.reply_opcode(), 23, |b| {
            b.extend_from_slice(&[0xFF, 0xFE])
        });
        match decode_reply(&buf).unwrap() {
            Decoded::Corrupt { id, error, .. } => {
                assert_eq!(id, 23);
                assert_eq!(error, DecodeError::Payload("scrape payload is not UTF-8"));
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn stats_frames_roundtrip() {
        let json = r#"{"total_keys":7,"latency":{"count":3}}"#;
        scrape_frames_roundtrip(ScrapeKind::Stats, json);
    }

    #[test]
    fn trace_frames_roundtrip() {
        let json = r#"{"capacity":256,"depth":1,"traces":[{"id":9,"kind":"lookup"}]}"#;
        scrape_frames_roundtrip(ScrapeKind::Trace, json);
    }

    #[test]
    fn profile_frames_roundtrip() {
        let json = r#"{"enabled":true,"prof":{"backend":"soft","hw":false}}"#;
        scrape_frames_roundtrip(ScrapeKind::Profile, json);
    }

    /// The scrape class's bytes on the wire, pinned to what the six
    /// per-opcode encoders produced before the fold into one
    /// `ScrapeKind` (captured from commit 0af7e90).
    #[test]
    fn scrape_frames_are_byte_identical_to_the_three_opcode_wire() {
        let id = 0x0102_0304_0506_0708u64;
        for (kind, request_op, reply_op) in [
            (ScrapeKind::Stats, 0x07u8, 0x87u8),
            (ScrapeKind::Trace, 0x08, 0x88),
            (ScrapeKind::Profile, 0x09, 0x89),
        ] {
            let mut buf = Vec::new();
            encode_scrape_request(&mut buf, id, kind);
            #[rustfmt::skip]
            assert_eq!(buf, [
                12, 0, 0, 0,            // body_len: header only
                1, request_op, 0, 0,    // version, opcode, reserved
                8, 7, 6, 5, 4, 3, 2, 1, // request id, little-endian
            ]);
            let mut buf = Vec::new();
            encode_scrape_reply(&mut buf, id, kind, "{\"a\":1}");
            #[rustfmt::skip]
            assert_eq!(buf, [
                19, 0, 0, 0,
                1, reply_op, 0, 0,
                8, 7, 6, 5, 4, 3, 2, 1,
                b'{', b'"', b'a', b'"', b':', b'1', b'}',
            ]);
        }
    }

    #[test]
    fn oversized_scrape_documents_do_not_fit() {
        // Exactly at the cap the document fits and encodes whole…
        let at_cap = "x".repeat(MAX_BODY_LEN - HEADER_LEN);
        assert!(scrape_fits(&at_cap));
        let mut buf = Vec::new();
        encode_scrape_reply(&mut buf, 1, ScrapeKind::Trace, &at_cap);
        assert_eq!(buf.len(), 4 + MAX_BODY_LEN);
        // …one byte more must be refused up front, never truncated into
        // invalid JSON: the server answers `TooLarge` on this verdict.
        let over_cap = "x".repeat(MAX_BODY_LEN - HEADER_LEN + 1);
        assert!(!scrape_fits(&over_cap));
        assert!(!scrape_fits(&"x".repeat(MAX_BODY_LEN)));
    }

    #[test]
    fn write_request_frames_roundtrip() {
        roundtrip_request(&Request::Insert {
            pairs: vec![(1, 10), (u64::MAX, 0)],
        });
        roundtrip_request(&Request::Insert { pairs: vec![] });
        roundtrip_request(&Request::Delete {
            keys: vec![3, 3, 9],
        });
        roundtrip_request(&Request::Update {
            pairs: vec![(7, 70)],
        });
        // Each verb travels under its own rule-4 opcode.
        for (request, opcode) in [
            (
                Request::Insert {
                    pairs: vec![(1, 2)],
                },
                OP_INSERT,
            ),
            (Request::Delete { keys: vec![1] }, OP_DELETE),
            (
                Request::Update {
                    pairs: vec![(1, 2)],
                },
                OP_UPDATE,
            ),
        ] {
            let mut buf = Vec::new();
            encode_request(&mut buf, 1, &request);
            assert_eq!(buf[5], opcode);
        }
    }

    #[test]
    fn write_reply_frames_roundtrip_under_mirrored_opcodes() {
        for (kind, opcode) in [
            (WriteKind::Insert, OP_R_INSERT),
            (WriteKind::Delete, OP_R_DELETE),
            (WriteKind::Update, OP_R_UPDATE),
        ] {
            let acks = vec![true, false, true];
            let mut buf = Vec::new();
            encode_write_reply(&mut buf, 17, kind, &acks);
            assert_eq!(buf[5], opcode);
            match decode_reply(&buf).unwrap() {
                Decoded::Frame {
                    consumed,
                    id,
                    value,
                } => {
                    assert_eq!((consumed, id), (buf.len(), 17));
                    assert_eq!(value, Ok(Reply::Response(Response::Write { acks })));
                }
                other => panic!("expected frame, got {other:?}"),
            }
        }
        // Empty ack lists are legal (an empty batch round-trips).
        let mut buf = Vec::new();
        encode_write_reply(&mut buf, 1, WriteKind::Insert, &[]);
        match decode_reply(&buf).unwrap() {
            Decoded::Frame { value, .. } => {
                assert_eq!(value, Ok(Reply::Response(Response::Write { acks: vec![] })));
            }
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn write_kind_maps_requests() {
        assert_eq!(
            WriteKind::of(&Request::Insert { pairs: vec![] }),
            Some(WriteKind::Insert)
        );
        assert_eq!(
            WriteKind::of(&Request::Delete { keys: vec![] }),
            Some(WriteKind::Delete)
        );
        assert_eq!(
            WriteKind::of(&Request::Update { pairs: vec![] }),
            Some(WriteKind::Update)
        );
        assert_eq!(WriteKind::of(&Request::Lookup { key: 1 }), None);
    }

    #[test]
    fn undefined_ack_bytes_are_malformed() {
        let mut buf = Vec::new();
        frame(&mut buf, OP_R_DELETE, 5, |b| {
            put_u32(b, 2);
            b.push(1);
            b.push(2); // reserved value
        });
        match decode_reply(&buf).unwrap() {
            Decoded::Corrupt { id, error, .. } => {
                assert_eq!(id, 5);
                assert_eq!(error, DecodeError::Payload("ack byte is not 0 or 1"));
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
        // An ack count past the payload is caught by the cursor.
        let mut buf = Vec::new();
        frame(&mut buf, OP_R_INSERT, 6, |b| {
            put_u32(b, 9);
            b.push(1);
        });
        match decode_reply(&buf).unwrap() {
            Decoded::Corrupt { error, .. } => {
                assert!(matches!(error, DecodeError::Payload(_)), "{error:?}");
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn write_fits_helpers_agree_with_the_cap() {
        let max_pairs = (MAX_BODY_LEN - HEADER_LEN - 4) / 16;
        assert!(request_fits(&Request::Insert {
            pairs: vec![(0, 0); max_pairs],
        }));
        assert!(!request_fits(&Request::Update {
            pairs: vec![(0, 0); max_pairs + 1],
        }));
        let max_keys = (MAX_BODY_LEN - HEADER_LEN - 4) / 8;
        assert!(request_fits(&Request::Delete {
            keys: vec![0; max_keys],
        }));
        assert!(!request_fits(&Request::Delete {
            keys: vec![0; max_keys + 1],
        }));
        assert!(response_fits(&Response::Write {
            acks: vec![true; 1024],
        }));
    }

    #[test]
    fn reserved_scan_flag_bits_are_malformed() {
        let mut buf = Vec::new();
        encode_range_stream(&mut buf, 3, 0, 10, 5, true);
        *buf.last_mut().unwrap() = 0x83; // desc plus two undefined bits
        match decode_request(&buf).unwrap() {
            Decoded::Corrupt { id, error, .. } => {
                assert_eq!(id, 3);
                assert!(matches!(error, DecodeError::Payload(_)), "{error:?}");
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn reply_frames_roundtrip() {
        roundtrip_reply(
            &Ok(Response::Lookup {
                key: 3,
                payloads: vec![1, 2],
            }),
            0,
        );
        roundtrip_reply(&Ok(Response::MultiLookup { matches: vec![] }), 1);
        roundtrip_reply(
            &Ok(Response::JoinProbe {
                pairs: vec![(0, 9), (7, 9)],
            }),
            u64::MAX,
        );
        roundtrip_reply(
            &Ok(Response::RangeScan {
                entries: vec![(1, 10), (2, 20)],
            }),
            5,
        );
        roundtrip_reply(&Err(ErrorReply::new(ErrorCode::Busy, "queue full")), 99);
        roundtrip_reply(&Err(ErrorReply::new(ErrorCode::Other(200), "")), 100);
    }

    #[test]
    fn incremental_decode_waits_for_whole_frame() {
        let mut buf = Vec::new();
        encode_request(&mut buf, 1, &Request::MultiLookup { keys: vec![1, 2] });
        for cut in 0..buf.len() {
            assert!(
                matches!(decode_request(&buf[..cut]).unwrap(), Decoded::Incomplete),
                "prefix of {cut} bytes must be incomplete"
            );
        }
        // Two frames back to back: the first decode consumes exactly one.
        let first_len = buf.len();
        encode_request(&mut buf, 2, &Request::Lookup { key: 5 });
        match decode_request(&buf).unwrap() {
            Decoded::Frame { consumed, id, .. } => {
                assert_eq!((consumed, id), (first_len, 1));
                match decode_request(&buf[consumed..]).unwrap() {
                    Decoded::Frame { id, .. } => assert_eq!(id, 2),
                    other => panic!("expected second frame, got {other:?}"),
                }
            }
            other => panic!("expected first frame, got {other:?}"),
        }
    }

    #[test]
    fn unknown_opcode_is_corrupt_but_resyncable() {
        let mut buf = Vec::new();
        frame(&mut buf, 0x5A, 77, |b| put_u64(b, 1234));
        match decode_request(&buf).unwrap() {
            Decoded::Corrupt {
                consumed,
                id,
                error,
            } => {
                assert_eq!(consumed, buf.len());
                assert_eq!(id, 77);
                assert_eq!(error, DecodeError::Opcode(0x5A));
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn unknown_version_is_corrupt_but_resyncable() {
        let mut buf = Vec::new();
        encode_request(&mut buf, 3, &Request::Lookup { key: 1 });
        buf[4] = 9; // future version
        match decode_request(&buf).unwrap() {
            Decoded::Corrupt { id, error, .. } => {
                assert_eq!(id, 3);
                assert_eq!(error, DecodeError::Version(9));
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn reserved_bits_are_rejected() {
        let mut buf = Vec::new();
        encode_request(&mut buf, 3, &Request::Lookup { key: 1 });
        buf[6] = 1;
        match decode_request(&buf).unwrap() {
            Decoded::Corrupt { error, .. } => assert_eq!(error, DecodeError::Reserved(1)),
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn payload_shape_violations_are_corrupt() {
        // A MultiLookup claiming more keys than the payload holds.
        let mut buf = Vec::new();
        frame(&mut buf, OP_MULTI_LOOKUP, 8, |b| {
            put_u32(b, 10); // claims 10 keys...
            put_u64(b, 1); // ...carries one
        });
        match decode_request(&buf).unwrap() {
            Decoded::Corrupt { error, .. } => {
                assert!(matches!(error, DecodeError::Payload(_)), "{error:?}");
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
        // Trailing garbage after a complete Lookup payload.
        let mut buf = Vec::new();
        frame(&mut buf, OP_LOOKUP, 9, |b| {
            put_u64(b, 1);
            b.push(0xAB);
        });
        match decode_request(&buf).unwrap() {
            Decoded::Corrupt { error, .. } => {
                assert_eq!(error, DecodeError::Payload("trailing bytes in payload"));
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    /// The bulk `keys` / `pairs` decoders answer every truncation of a
    /// 1 024-key `JoinProbe` frame and of its reply exactly as the
    /// element-at-a-time decoders did. Two cuts per length: the byte
    /// stream stopping short (nothing may be decoded yet), and a frame
    /// whose envelope is whole but whose payload stops short (the count
    /// word promises more than is there).
    #[test]
    fn bulk_list_decode_answers_every_truncation_as_before() {
        fn outcome<T: std::fmt::Debug + PartialEq>(
            decoded: Decoded<T>,
            whole: &T,
        ) -> Result<(), String> {
            match decoded {
                Decoded::Frame { id, value, .. } if id == 7 && value == *whole => Ok(()),
                Decoded::Corrupt { id: 7, error, .. } => Err(error.to_string()),
                other => panic!("unexpected decode: {other:?}"),
            }
        }
        /// Re-frames the first `payload` payload bytes of `frame` under a
        /// body length that matches, so the envelope holds.
        fn cut_payload(frame: &[u8], payload: usize) -> Vec<u8> {
            let mut cut = frame[..4 + HEADER_LEN + payload].to_vec();
            cut[..4].copy_from_slice(&((HEADER_LEN + payload) as u32).to_le_bytes());
            cut
        }

        let keys: Vec<u64> = (0..1024u64).map(|k| k.wrapping_mul(0x9E37_79B9)).collect();
        let pairs: Vec<(u64, u64)> = keys.iter().map(|k| (k % 1024, !k)).collect();
        let request = WireRequest::Plain(Request::JoinProbe { keys: keys.clone() });
        let reply = Ok(Reply::Response(Response::JoinProbe {
            pairs: pairs.clone(),
        }));
        let (mut request_frame, mut reply_frame) = (Vec::new(), Vec::new());
        encode_request(&mut request_frame, 7, &Request::JoinProbe { keys });
        encode_response(&mut reply_frame, 7, &Response::JoinProbe { pairs });
        assert_eq!(request_frame.len(), 4 + HEADER_LEN + 4 + 1024 * 8);
        assert_eq!(reply_frame.len(), 4 + HEADER_LEN + 4 + 1024 * 16);

        for cut in 0..request_frame.len() {
            let decoded = decode_request(&request_frame[..cut]).unwrap();
            assert!(matches!(decoded, Decoded::Incomplete), "request cut {cut}");
        }
        for cut in 0..reply_frame.len() {
            let decoded = decode_reply(&reply_frame[..cut]).unwrap();
            assert!(matches!(decoded, Decoded::Incomplete), "reply cut {cut}");
        }
        let expect = |payload: usize, whole: usize, list: &str| match payload {
            0..=3 => Err("malformed payload: truncated payload".to_string()),
            n if n < whole => Err(format!("malformed payload: {list} count exceeds payload")),
            _ => Ok(()),
        };
        for payload in 0..=4 + 1024 * 8 {
            let decoded = decode_request(&cut_payload(&request_frame, payload)).unwrap();
            let want = expect(payload, 4 + 1024 * 8, "key");
            assert_eq!(
                outcome(decoded, &request),
                want,
                "request payload {payload}"
            );
        }
        for payload in 0..=4 + 1024 * 16 {
            let decoded = decode_reply(&cut_payload(&reply_frame, payload)).unwrap();
            let want = expect(payload, 4 + 1024 * 16, "pair");
            assert_eq!(outcome(decoded, &reply), want, "reply payload {payload}");
        }
        // One byte too many is still refused, after the list decoded.
        request_frame.push(0);
        let long = cut_payload(&request_frame, 4 + 1024 * 8 + 1);
        assert_eq!(
            outcome(decode_request(&long).unwrap(), &request),
            Err("malformed payload: trailing bytes in payload".to_string())
        );
    }

    #[test]
    fn envelope_violations_are_hard_errors() {
        // Oversize: length prefix beyond the cap.
        let mut buf = ((MAX_BODY_LEN + 1) as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 32]);
        assert_eq!(
            decode_request(&buf).unwrap_err(),
            FrameError::Oversize(MAX_BODY_LEN + 1)
        );
        // Runt: body shorter than the header.
        let buf = 4u32.to_le_bytes().to_vec();
        assert_eq!(decode_request(&buf).unwrap_err(), FrameError::Runt(4));
    }

    #[test]
    fn request_and_reply_opcodes_do_not_cross_decode() {
        let mut buf = Vec::new();
        encode_request(&mut buf, 1, &Request::Lookup { key: 2 });
        match decode_reply(&buf).unwrap() {
            Decoded::Corrupt { error, .. } => assert_eq!(error, DecodeError::Opcode(OP_LOOKUP)),
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn fits_helpers_agree_with_the_cap() {
        // Exactly at the cap: (MAX_BODY_LEN - header - count word) / 16
        // pairs fit; one more does not.
        let max_pairs = (MAX_BODY_LEN - HEADER_LEN - 4) / 16;
        let at_cap = Response::RangeScan {
            entries: vec![(0, 0); max_pairs],
        };
        assert!(response_fits(&at_cap));
        let mut buf = Vec::new();
        encode_response(&mut buf, 1, &at_cap); // must not trip the encoder assert
        assert_eq!(buf.len(), 4 + MAX_BODY_LEN);
        let over_cap = Response::RangeScan {
            entries: vec![(0, 0); max_pairs + 1],
        };
        assert!(!response_fits(&over_cap));

        let max_keys = (MAX_BODY_LEN - HEADER_LEN - 4) / 8;
        assert!(request_fits(&Request::MultiLookup {
            keys: vec![0; max_keys],
        }));
        assert!(!request_fits(&Request::MultiLookup {
            keys: vec![0; max_keys + 1],
        }));
        assert!(request_fits(&Request::RangeScan {
            lo: 0,
            hi: u64::MAX,
            limit: usize::MAX,
            desc: true,
        }));
        assert_eq!(MAX_CHUNK_ENTRIES, (MAX_BODY_LEN - HEADER_LEN - 4) / 16);
    }

    #[test]
    fn holds_frame_is_true_exactly_when_decode_reply_needs_no_more_bytes() {
        let mut buf = Vec::new();
        encode_response(
            &mut buf,
            3,
            &Response::Lookup {
                key: 1,
                payloads: vec![2],
            },
        );
        let frame_len = buf.len();
        encode_response(&mut buf, 4, &Response::MultiLookup { matches: vec![] });
        for cut in 0..=buf.len() {
            let incomplete = matches!(decode_reply(&buf[..cut]), Ok(Decoded::Incomplete));
            assert_eq!(holds_frame(&buf[..cut]), !incomplete, "cut at {cut}");
            assert_eq!(incomplete, cut < frame_len, "cut at {cut}");
        }
        // A broken length prefix is whole too: decoding fails at once.
        assert!(holds_frame(&2u32.to_le_bytes()));
    }

    #[test]
    fn error_message_truncates_to_u16() {
        let long = "x".repeat(usize::from(u16::MAX) + 500);
        let mut buf = Vec::new();
        encode_error(&mut buf, 1, &ErrorReply::new(ErrorCode::Malformed, long));
        match decode_reply(&buf).unwrap() {
            Decoded::Frame { value: Err(e), .. } => {
                assert_eq!(e.message.len(), usize::from(u16::MAX));
            }
            other => panic!("expected error frame, got {other:?}"),
        }
    }
}
