//! The blocking client library: a pipelining `send`/`recv` split over
//! one TCP connection, plus a convenience synchronous `call` and a
//! chunk-streaming [`range_stream`](WidxClient::range_stream) iterator.
//!
//! The client assigns each request a fresh id and the server echoes it,
//! so replies may arrive in **any order**: [`WidxClient::recv`] stashes
//! frames for other ids until the requested one arrives, and
//! [`WidxClient::recv_any`] hands back whatever completes next. Chunked
//! replies route into per-stream stashes keyed by request id, so a
//! stream's chunks can interleave with other replies on the wire while
//! every consumer still sees its own frames in order. Keep the pipeline
//! depth bounded (the server's per-connection in-flight cap answers
//! `Busy` beyond its window, and unread replies eventually exert TCP
//! backpressure on `send`).
//!
//! Sends **coalesce** when that costs no wait: a send made while a
//! whole reply is already buffered (read, not yet returned) is held,
//! since the next `recv` returns that reply without the socket — a
//! closed loop that reads k replies at once sends its k follow-ups in
//! one write. Held frames leave together on
//! [`flush`](WidxClient::flush), a 64 KiB bound, drop, and before any
//! `recv` blocks on the wire, so holding never deadlocks a request
//! behind its own reply. Waiting for a send's effect by another
//! route (a second connection, say) needs a `flush` first.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use widx_serve::{Request, Response};

use crate::server::{advance_cursor, READ_CHUNK};
use crate::wire::{self, Decoded, ErrorReply, Reply, ScrapeKind};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection itself failed (or the peer broke framing).
    Io(std::io::Error),
    /// The server answered this request with a typed error frame — the
    /// connection is still usable.
    Remote(ErrorReply),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Remote(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

fn protocol_violation(what: &str) -> ClientError {
    ClientError::Io(std::io::Error::new(
        ErrorKind::InvalidData,
        what.to_string(),
    ))
}

/// Why a stream slot stopped accepting frames.
enum StreamFault {
    /// The server answered the stream's id with a typed error frame.
    Remote(ErrorReply),
    /// The per-stream stash cap was hit: the consumer let too many
    /// unread chunks pile up while reaping other ids. Buffered chunks
    /// were dropped; the stream is unrecoverable (but the connection
    /// survives).
    Overflow,
}

/// Client-side state of one in-flight chunked scan: chunks that arrived
/// while the consumer was reading other ids, stashed in arrival order.
struct StreamSlot {
    chunks: VecDeque<Vec<(u64, u64)>>,
    /// Entries received so far (checked against the `RangeEnd` total).
    received: u64,
    /// The `RangeEnd` total, once seen.
    ended: Option<u64>,
    fault: Option<StreamFault>,
    /// The consumer walked away (`RangeStream` dropped mid-stream):
    /// drop every further chunk on arrival and remove the slot when the
    /// stream's final frame lands — the drain that keeps an abandoned
    /// stream from growing the stash without bound.
    abandoned: bool,
}

impl StreamSlot {
    fn new() -> StreamSlot {
        StreamSlot {
            chunks: VecDeque::new(),
            received: 0,
            ended: None,
            fault: None,
            abandoned: false,
        }
    }

    /// A final frame (end or error) has arrived: nothing further will.
    fn terminated(&self) -> bool {
        self.ended.is_some() || self.fault.is_some()
    }
}

/// Hard bound on chunks stashed per *live* stream (abandoned streams
/// stash nothing). A consumer that pipelines streams but reads only
/// some of them cannot grow the client's memory without bound: past the
/// cap the stream faults with an overflow error and its stash is
/// dropped.
const STREAM_STASH_CAP: usize = 4096;

/// Held sends self-flush past this many buffered bytes — holding is a
/// batching opportunity, not permission to buffer a whole workload.
const HOLD_FLUSH_BYTES: usize = 64 << 10;

/// A blocking connection to a [`WidxServer`](crate::WidxServer).
pub struct WidxClient {
    stream: TcpStream,
    /// Unconsumed reply bytes; `rpos` is the decode cursor (moved by
    /// `advance_cursor`, not one memmove per frame) and `chunk` where
    /// `read` lands — all three as on the server's connections.
    rbuf: Vec<u8>,
    rpos: usize,
    chunk: Box<[u8]>,
    /// Buffered replies received while waiting for a different id, in
    /// arrival order.
    stash: VecDeque<(u64, Result<Response, ErrorReply>)>,
    /// Per-stream chunk stashes, keyed by request id.
    streams: HashMap<u64, StreamSlot>,
    /// Scratch encode buffer, reused across sends; while sends are held
    /// it accumulates whole frames awaiting one batched write.
    ebuf: Vec<u8>,
    next_id: u64,
}

impl WidxClient {
    /// Connects to a server (Nagle disabled — frames are the batching
    /// unit here, the service's own batcher does the rest).
    ///
    /// # Errors
    ///
    /// Any socket-level connect/configure failure.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<WidxClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(WidxClient {
            stream,
            rbuf: Vec::new(),
            rpos: 0,
            chunk: vec![0; READ_CHUNK].into(),
            stash: VecDeque::new(),
            streams: HashMap::new(),
            ebuf: Vec::new(),
            next_id: 0,
        })
    }

    /// Writes every held frame to the socket now. A no-op when nothing
    /// is held.
    ///
    /// # Errors
    ///
    /// Socket-level write failure.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if !self.ebuf.is_empty() {
            self.stream.write_all(&self.ebuf)?;
            self.ebuf.clear();
            if self.ebuf.capacity() > 4 * HOLD_FLUSH_BYTES {
                self.ebuf.shrink_to(HOLD_FLUSH_BYTES);
            }
        }
        Ok(())
    }

    /// Bytes currently held (encoded but unsent) — diagnostics for
    /// batching tests.
    #[must_use]
    pub fn held_bytes(&self) -> usize {
        self.ebuf.len()
    }

    /// Sends the frames just encoded into `ebuf`, or holds them while a
    /// whole reply is buffered (the next `recv` will not block, and
    /// flushes before any read that would), self-flushing past
    /// [`HOLD_FLUSH_BYTES`].
    fn dispatch_encoded(&mut self) -> std::io::Result<()> {
        if wire::holds_frame(&self.rbuf[self.rpos..]) && self.ebuf.len() < HOLD_FLUSH_BYTES {
            return Ok(());
        }
        self.flush()
    }

    /// Pipelines one request without waiting; returns the id to pass to
    /// [`recv`](WidxClient::recv). The frame is written now unless the
    /// client already holds a whole unread reply (the next `recv` needs
    /// no socket); a held frame leaves with the next write:
    /// before a `recv` blocks, on [`flush`](WidxClient::flush), past
    /// 64 KiB held, or on drop. Flush before waiting for its effect by
    /// another route.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when the request's key list is too large to frame
    /// (over [`wire::MAX_BODY_LEN`]; nothing was sent — split it), or a
    /// socket-level write failure.
    pub fn send(&mut self, request: &Request) -> std::io::Result<u64> {
        if !wire::request_fits(request) {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "request exceeds the maximum frame size; split the key list",
            ));
        }
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        wire::encode_request(&mut self.ebuf, id, request);
        self.dispatch_encoded()?;
        Ok(id)
    }

    /// Pipelines one chunked range scan without waiting; the reply
    /// arrives as `RangeChunk` frames reaped with
    /// [`recv_chunk`](WidxClient::recv_chunk) (or through the
    /// [`range_stream`](WidxClient::range_stream) iterator). Returns
    /// the stream's request id.
    ///
    /// # Errors
    ///
    /// Socket-level write failure.
    pub fn send_range_stream(
        &mut self,
        lo: u64,
        hi: u64,
        limit: usize,
        desc: bool,
    ) -> std::io::Result<u64> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        wire::encode_range_stream(&mut self.ebuf, id, lo, hi, limit, desc);
        self.dispatch_encoded()?;
        self.streams.insert(id, StreamSlot::new());
        Ok(id)
    }

    /// Blocks for the next chunk of stream `id`: `Ok(Some(chunk))`
    /// yields entries in stream order, `Ok(None)` is the clean end of
    /// the stream (the `RangeEnd` total verified). Replies to *other*
    /// ids arriving meanwhile are stashed for their own `recv` calls —
    /// the pipelining contract, stream or not.
    ///
    /// # Errors
    ///
    /// [`ClientError::Remote`] when the server ended this stream with a
    /// typed error frame; [`ClientError::Io`] on connection failure, a
    /// `RangeEnd` total that contradicts the received entries, an
    /// unknown stream id, or a stream whose stash overflowed.
    pub fn recv_chunk(&mut self, id: u64) -> Result<Option<Vec<(u64, u64)>>, ClientError> {
        loop {
            let Some(slot) = self.streams.get_mut(&id) else {
                return Err(protocol_violation("not an open stream id"));
            };
            if let Some(chunk) = slot.chunks.pop_front() {
                return Ok(Some(chunk));
            }
            match (&slot.fault, slot.ended) {
                (Some(StreamFault::Remote(_)), _) => {
                    // Surface the server's error once, then forget the
                    // stream.
                    let slot = self.streams.remove(&id).expect("slot just seen");
                    let Some(StreamFault::Remote(error)) = slot.fault else {
                        unreachable!("fault variant just matched");
                    };
                    return Err(ClientError::Remote(error));
                }
                (Some(StreamFault::Overflow), _) => {
                    self.streams.remove(&id);
                    return Err(protocol_violation(
                        "stream stash overflowed; chunks were dropped",
                    ));
                }
                (None, Some(total)) => {
                    let received = slot.received;
                    self.streams.remove(&id);
                    if received != total {
                        return Err(protocol_violation(
                            "stream end total disagrees with received entries",
                        ));
                    }
                    return Ok(None);
                }
                (None, None) => {
                    let frame = self.read_frame()?;
                    if let Some(reply) = self.route_frame(frame) {
                        self.stash.push_back(reply);
                    }
                }
            }
        }
    }

    /// Abandons stream `id`: buffered chunks are dropped now, and
    /// chunks still in flight are dropped on arrival until the stream's
    /// final frame lands — bounding what a walked-away consumer can
    /// cost. Dropping a [`RangeStream`] mid-stream does this
    /// automatically. No-op for unknown (or already finished) ids.
    pub fn abandon_stream(&mut self, id: u64) {
        if let Some(slot) = self.streams.get_mut(&id) {
            if slot.terminated() {
                self.streams.remove(&id);
            } else {
                slot.chunks.clear();
                slot.chunks.shrink_to_fit();
                slot.abandoned = true;
            }
        }
    }

    /// Chunks currently stashed across every open stream — diagnostics
    /// for stash-bounding tests and memory accounting.
    #[must_use]
    pub fn stashed_chunks(&self) -> usize {
        self.streams.values().map(|s| s.chunks.len()).sum()
    }

    /// Routes one decoded reply frame: stream frames land in their
    /// slot (respecting abandonment and the stash cap) and yield
    /// `None`; buffered replies come back to the caller.
    fn route_frame(
        &mut self,
        (id, reply): (u64, Result<Reply, ErrorReply>),
    ) -> Option<(u64, Result<Response, ErrorReply>)> {
        if let Some(slot) = self.streams.get_mut(&id) {
            match reply {
                Ok(Reply::RangeChunk(chunk)) => {
                    slot.received += chunk.len() as u64;
                    if slot.abandoned {
                        // Drained, not stashed.
                    } else if slot.chunks.len() >= STREAM_STASH_CAP {
                        slot.chunks.clear();
                        slot.chunks.shrink_to_fit();
                        slot.fault = Some(StreamFault::Overflow);
                    } else if slot.fault.is_none() {
                        slot.chunks.push_back(chunk);
                    }
                }
                Ok(Reply::RangeEnd { entries }) => {
                    slot.ended = Some(entries);
                    if slot.abandoned {
                        self.streams.remove(&id);
                    }
                }
                Ok(Reply::Response(_) | Reply::Scrape { .. }) => {
                    // A buffered reply on a stream id: protocol
                    // violation; fault the stream rather than lose sync.
                    slot.fault = Some(StreamFault::Remote(ErrorReply::new(
                        crate::wire::ErrorCode::Malformed,
                        "buffered reply frame on a stream id",
                    )));
                    if slot.abandoned {
                        self.streams.remove(&id);
                    }
                }
                Err(error) => {
                    slot.fault = Some(StreamFault::Remote(error));
                    if slot.abandoned {
                        self.streams.remove(&id);
                    }
                }
            }
            return None;
        }
        match reply {
            Ok(Reply::Response(response)) => Some((id, Ok(response))),
            // Stream frames for an id we never opened (or already
            // forgot), and scrape documents nobody is waiting on
            // ([`scrape`](WidxClient::scrape) reaps its own): dropping
            // them keeps the connection usable.
            Ok(Reply::RangeChunk(_) | Reply::RangeEnd { .. } | Reply::Scrape { .. }) => None,
            Err(error) => Some((id, Err(error))),
        }
    }

    /// Blocks for the reply to `id`, stashing replies to other ids for
    /// their own `recv`/[`recv_any`](WidxClient::recv_any) calls.
    ///
    /// # Errors
    ///
    /// [`ClientError::Remote`] when the server answered `id` with an
    /// error frame; [`ClientError::Io`] on connection failure.
    pub fn recv(&mut self, id: u64) -> Result<Response, ClientError> {
        if let Some(at) = self.stash.iter().position(|(got, _)| *got == id) {
            let (_, reply) = self.stash.remove(at).expect("position just found");
            return reply.map_err(ClientError::Remote);
        }
        loop {
            let frame = self.read_frame()?;
            let Some((got, reply)) = self.route_frame(frame) else {
                continue;
            };
            if got == id {
                return reply.map_err(ClientError::Remote);
            }
            self.stash.push_back((got, reply));
        }
    }

    /// Blocks for whichever *buffered* reply completes next (stashed
    /// frames first, in arrival order), returning `(id, reply)`.
    /// Chunked-stream frames are routed to their per-id stashes along
    /// the way — reap those with [`recv_chunk`](WidxClient::recv_chunk).
    ///
    /// # Errors
    ///
    /// Socket-level failure or broken framing.
    pub fn recv_any(&mut self) -> std::io::Result<(u64, Result<Response, ErrorReply>)> {
        if let Some(front) = self.stash.pop_front() {
            return Ok(front);
        }
        loop {
            let frame = self.read_frame().map_err(|e| match e {
                ClientError::Io(io) => io,
                ClientError::Remote(_) => unreachable!("read_frame yields io errors only"),
            })?;
            if let Some(reply) = self.route_frame(frame) {
                return Ok(reply);
            }
        }
    }

    /// Synchronous convenience: send one request and wait for its reply.
    ///
    /// # Errors
    ///
    /// As [`recv`](WidxClient::recv).
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        let id = self.send(request)?;
        self.recv(id)
    }

    /// Blocking convenience mirroring
    /// [`ProbeService::lookup`](widx_serve::ProbeService::lookup).
    ///
    /// # Errors
    ///
    /// As [`recv`](WidxClient::recv).
    pub fn lookup(&mut self, key: u64) -> Result<Vec<u64>, ClientError> {
        match self.call(&Request::Lookup { key })? {
            Response::Lookup { payloads, .. } => Ok(payloads),
            _ => Err(protocol_violation("mismatched reply variant for Lookup")),
        }
    }

    /// Blocking convenience mirroring
    /// [`ProbeService::multi_lookup`](widx_serve::ProbeService::multi_lookup).
    ///
    /// # Errors
    ///
    /// As [`recv`](WidxClient::recv).
    pub fn multi_lookup(&mut self, keys: &[u64]) -> Result<Vec<(u64, u64)>, ClientError> {
        match self.call(&Request::MultiLookup {
            keys: keys.to_vec(),
        })? {
            Response::MultiLookup { matches } => Ok(matches),
            _ => Err(protocol_violation(
                "mismatched reply variant for MultiLookup",
            )),
        }
    }

    /// Blocking convenience mirroring
    /// [`ProbeService::join_probe`](widx_serve::ProbeService::join_probe).
    ///
    /// # Errors
    ///
    /// As [`recv`](WidxClient::recv).
    pub fn join_probe(&mut self, keys: &[u64]) -> Result<Vec<(u64, u64)>, ClientError> {
        match self.call(&Request::JoinProbe {
            keys: keys.to_vec(),
        })? {
            Response::JoinProbe { pairs } => Ok(pairs),
            _ => Err(protocol_violation("mismatched reply variant for JoinProbe")),
        }
    }

    /// Blocking convenience mirroring
    /// [`ProbeService::range_scan`](widx_serve::ProbeService::range_scan).
    ///
    /// # Errors
    ///
    /// As [`recv`](WidxClient::recv).
    pub fn range_scan(
        &mut self,
        lo: u64,
        hi: u64,
        limit: usize,
    ) -> Result<Vec<(u64, u64)>, ClientError> {
        match self.call(&Request::RangeScan {
            lo,
            hi,
            limit,
            desc: false,
        })? {
            Response::RangeScan { entries } => Ok(entries),
            _ => Err(protocol_violation("mismatched reply variant for RangeScan")),
        }
    }

    /// Blocking convenience mirroring
    /// [`ProbeService::range_scan_desc`](widx_serve::ProbeService::range_scan_desc):
    /// the `ORDER BY key DESC` scan, buffered.
    ///
    /// # Errors
    ///
    /// As [`recv`](WidxClient::recv).
    pub fn range_scan_desc(
        &mut self,
        lo: u64,
        hi: u64,
        limit: usize,
    ) -> Result<Vec<(u64, u64)>, ClientError> {
        match self.call(&Request::RangeScan {
            lo,
            hi,
            limit,
            desc: true,
        })? {
            Response::RangeScan { entries } => Ok(entries),
            _ => Err(protocol_violation("mismatched reply variant for RangeScan")),
        }
    }

    /// Blocking convenience mirroring
    /// [`ProbeService::insert`](widx_serve::ProbeService::insert), batched:
    /// inserts every `(key, payload)` pair and returns one ack per pair
    /// in request order (always `true` — inserts cannot miss).
    ///
    /// # Errors
    ///
    /// As [`recv`](WidxClient::recv); an `Unsupported` remote error
    /// means a read-only (pre-writes) server.
    pub fn insert(&mut self, pairs: &[(u64, u64)]) -> Result<Vec<bool>, ClientError> {
        match self.call(&Request::Insert {
            pairs: pairs.to_vec(),
        })? {
            Response::Write { acks } => Ok(acks),
            _ => Err(protocol_violation("mismatched reply variant for Insert")),
        }
    }

    /// Blocking convenience mirroring
    /// [`ProbeService::delete`](widx_serve::ProbeService::delete), batched:
    /// removes every entry under each key and returns one ack per key
    /// (`true` when the key existed).
    ///
    /// # Errors
    ///
    /// As [`insert`](WidxClient::insert).
    pub fn delete(&mut self, keys: &[u64]) -> Result<Vec<bool>, ClientError> {
        match self.call(&Request::Delete {
            keys: keys.to_vec(),
        })? {
            Response::Write { acks } => Ok(acks),
            _ => Err(protocol_violation("mismatched reply variant for Delete")),
        }
    }

    /// Blocking convenience mirroring
    /// [`ProbeService::update`](widx_serve::ProbeService::update), batched:
    /// rewrites the payload under each existing key — a miss is acked
    /// `false` and never inserts.
    ///
    /// # Errors
    ///
    /// As [`insert`](WidxClient::insert).
    pub fn update(&mut self, pairs: &[(u64, u64)]) -> Result<Vec<bool>, ClientError> {
        match self.call(&Request::Update {
            pairs: pairs.to_vec(),
        })? {
            Response::Write { acks } => Ok(acks),
            _ => Err(protocol_violation("mismatched reply variant for Update")),
        }
    }

    /// Scrapes one observability document: sends one empty `kind`
    /// frame and blocks for its JSON reply (the server answers from the
    /// event loop, ahead of queued probe work). Replies to other
    /// pipelined ids arriving meanwhile are stashed for their own
    /// `recv` calls, as usual.
    ///
    /// # Errors
    ///
    /// [`ClientError::Remote`] when the server answered with an error
    /// frame — `Unsupported` means a server that predates `kind`,
    /// `TooLarge` a document bigger than any frame;
    /// [`ClientError::Io`] on connection failure or a reply of another
    /// kind on this id.
    pub fn scrape(&mut self, kind: ScrapeKind) -> Result<String, ClientError> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        wire::encode_scrape_request(&mut self.ebuf, id, kind);
        self.dispatch_encoded()?;
        loop {
            let (got, reply) = self.read_frame()?;
            if got != id {
                if let Some(stashed) = self.route_frame((got, reply)) {
                    self.stash.push_back(stashed);
                }
                continue;
            }
            return match reply {
                Ok(Reply::Scrape { kind: got, json }) if got == kind => Ok(json),
                Ok(_) => Err(protocol_violation("mismatched reply variant for a scrape")),
                Err(error) => Err(ClientError::Remote(error)),
            };
        }
    }

    /// Scrapes the server's live telemetry: sends one `Stats` frame and
    /// blocks for the JSON snapshot (the server answers it from the
    /// event loop, ahead of queued probe work). Replies to other
    /// pipelined ids arriving meanwhile are stashed for their own
    /// `recv` calls, as usual. Parse the document with `widx_obs::json`
    /// (or any real JSON parser).
    ///
    /// # Errors
    ///
    /// [`ClientError::Remote`] when the server answered with an error
    /// frame — an `Unsupported` code means a pre-telemetry server;
    /// [`ClientError::Io`] on connection failure or a non-stats reply
    /// on this id.
    pub fn stats_json(&mut self) -> Result<String, ClientError> {
        self.scrape(ScrapeKind::Stats)
    }

    /// Scrapes the server's flight recorder: sends one `Trace` frame
    /// and blocks for the JSON document of recorded per-request traces
    /// (answered inline from the event loop, like
    /// [`stats_json`](WidxClient::stats_json)). The scrape is
    /// non-destructive — the ring keeps its traces until newer ones
    /// evict them. Replies to other pipelined ids arriving meanwhile
    /// are stashed for their own `recv` calls.
    ///
    /// # Errors
    ///
    /// [`ClientError::Remote`] when the server answered with an error
    /// frame — an `Unsupported` code means a pre-tracing server;
    /// [`ClientError::Io`] on connection failure or a non-trace reply
    /// on this id.
    pub fn traces_json(&mut self) -> Result<String, ClientError> {
        self.scrape(ScrapeKind::Trace)
    }

    /// Scrapes the server's hardware-profiling counters: sends one
    /// `Profile` frame and blocks for the JSON document of per-stage
    /// counter totals and derived ratios (answered inline from the
    /// event loop, like [`stats_json`](WidxClient::stats_json)). A
    /// server built without `--profile` answers
    /// `{"enabled":false}` rather than an error. Replies to other
    /// pipelined ids arriving meanwhile are stashed for their own
    /// `recv` calls.
    ///
    /// # Errors
    ///
    /// [`ClientError::Remote`] when the server answered with an error
    /// frame — an `Unsupported` code means a pre-profiling server;
    /// [`ClientError::Io`] on connection failure or a non-profile reply
    /// on this id.
    pub fn profile_json(&mut self) -> Result<String, ClientError> {
        self.scrape(ScrapeKind::Profile)
    }

    /// Starts a chunked range scan and returns an iterator over its
    /// chunks: entries arrive in key order (descending when `desc`)
    /// *while the server is still scanning* — the first chunk lands
    /// long before a buffered [`range_scan`](WidxClient::range_scan)
    /// of the same interval would return. Requests pipelined before
    /// this call stay reapable afterwards; replies for them arriving
    /// mid-stream are stashed as usual. Dropping the iterator before
    /// the end abandons the stream (late chunks are drained, not
    /// stashed).
    ///
    /// # Errors
    ///
    /// Socket-level write failure.
    pub fn range_stream(
        &mut self,
        lo: u64,
        hi: u64,
        limit: usize,
        desc: bool,
    ) -> std::io::Result<RangeStream<'_>> {
        let id = self.send_range_stream(lo, hi, limit, desc)?;
        Ok(RangeStream {
            client: self,
            id,
            done: false,
        })
    }

    /// Reads exactly one reply frame off the wire (blocking).
    fn read_frame(&mut self) -> Result<(u64, Result<Reply, ErrorReply>), ClientError> {
        loop {
            match wire::decode_reply(&self.rbuf[self.rpos..]) {
                Ok(Decoded::Frame {
                    consumed,
                    id,
                    value,
                }) => {
                    advance_cursor(&mut self.rbuf, &mut self.rpos, consumed);
                    return Ok((id, value));
                }
                Ok(Decoded::Corrupt {
                    consumed, error, ..
                }) => {
                    // The envelope held, so skip the frame and keep the
                    // connection — the wire spec's resync contract. The
                    // caller loses this one reply (reported as an
                    // error); everything pipelined behind it survives.
                    advance_cursor(&mut self.rbuf, &mut self.rpos, consumed);
                    return Err(ClientError::Io(std::io::Error::new(
                        ErrorKind::InvalidData,
                        format!("undecodable reply frame (skipped): {error}"),
                    )));
                }
                Err(frame_error) => {
                    return Err(ClientError::Io(std::io::Error::new(
                        ErrorKind::InvalidData,
                        format!("reply framing lost: {frame_error}"),
                    )));
                }
                Ok(Decoded::Incomplete) => {
                    // About to block on the socket: held frames must
                    // go out first, or a request could deadlock behind
                    // its own unsent bytes.
                    self.flush()?;
                    match self.stream.read(&mut self.chunk) {
                        Ok(0) => {
                            return Err(ClientError::Io(std::io::Error::new(
                                ErrorKind::UnexpectedEof,
                                "server closed mid-frame",
                            )));
                        }
                        Ok(n) => self.rbuf.extend_from_slice(&self.chunk[..n]),
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(e) => return Err(ClientError::Io(e)),
                    }
                }
            }
        }
    }
}

impl Drop for WidxClient {
    /// Frames a send accepted but still holds leave on a best-effort,
    /// never-blocking write: whatever the socket will not take at once,
    /// and any error, is dropped with the client.
    fn drop(&mut self) {
        if self.ebuf.is_empty() || self.stream.set_nonblocking(true).is_err() {
            return;
        }
        let mut rest = &self.ebuf[..];
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return,
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }
}

/// An iterator over one chunked range scan's chunks (see
/// [`WidxClient::range_stream`]). Borrows the client: send other
/// requests *before* starting the stream, reap them after (or use the
/// [`send_range_stream`](WidxClient::send_range_stream) /
/// [`recv_chunk`](WidxClient::recv_chunk) split to drive several
/// streams at once). Dropping it mid-stream abandons the stream.
pub struct RangeStream<'a> {
    client: &'a mut WidxClient,
    id: u64,
    done: bool,
}

impl RangeStream<'_> {
    /// The stream's request id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks for the next chunk; `Ok(None)` is the clean end of the
    /// stream. After the end (or an error) the iterator is finished.
    ///
    /// # Errors
    ///
    /// As [`WidxClient::recv_chunk`].
    pub fn next_chunk(&mut self) -> Result<Option<Vec<(u64, u64)>>, ClientError> {
        if self.done {
            return Ok(None);
        }
        match self.client.recv_chunk(self.id) {
            Ok(Some(chunk)) => Ok(Some(chunk)),
            Ok(None) => {
                self.done = true;
                Ok(None)
            }
            Err(e) => {
                self.done = true;
                Err(e)
            }
        }
    }

    /// Blocks to the end of the stream, concatenating every remaining
    /// chunk.
    ///
    /// # Errors
    ///
    /// As [`WidxClient::recv_chunk`].
    pub fn collect_remaining(mut self) -> Result<Vec<(u64, u64)>, ClientError> {
        let mut out = Vec::new();
        while let Some(chunk) = self.next_chunk()? {
            out.extend(chunk);
        }
        Ok(out)
    }
}

impl Iterator for RangeStream<'_> {
    type Item = Result<Vec<(u64, u64)>, ClientError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_chunk().transpose()
    }
}

impl Drop for RangeStream<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.client.abandon_stream(self.id);
        }
    }
}
