//! Decoder fuzz tier: whatever bytes arrive — arbitrary ones, or a
//! valid frame cut short or with one bit flipped — `decode_request` and
//! `decode_reply` never panic, ask for more bytes only when the buffer
//! really is shorter than the frame it declares, always tell a resync
//! loop how far to advance, never hand back more data than the payload
//! could hold, and decode an undamaged frame to exactly what was
//! encoded.

use proptest::prelude::*;
use widx_net::wire::{
    self, Decoded, ErrorCode, ErrorReply, FrameError, Reply, ScrapeKind, WireRequest, WriteKind,
    MAX_BODY_LEN,
};
use widx_serve::{Request, Response};

/// Envelope bytes after the length prefix (version, opcode, reserved, id).
const HEADER_LEN: usize = 12;

/// Wire bytes the owned data of a decoded request stands for.
fn request_bytes(request: &WireRequest) -> usize {
    match request {
        WireRequest::Plain(Request::Insert { pairs } | Request::Update { pairs }) => {
            pairs.len() * 16
        }
        WireRequest::Plain(request) => request.keys().len() * 8,
        WireRequest::Stream { .. } | WireRequest::Scrape(_) => 0,
    }
}

/// Wire bytes the owned data of a decoded reply stands for. An error
/// message is decoded lossily (one invalid byte becomes a three-byte
/// replacement character), so it is measured in characters.
fn reply_bytes(reply: &Result<Reply, ErrorReply>) -> usize {
    match reply {
        Ok(Reply::Response(Response::Lookup { payloads, .. })) => payloads.len() * 8,
        Ok(Reply::Response(
            Response::MultiLookup { matches: pairs }
            | Response::JoinProbe { pairs }
            | Response::RangeScan { entries: pairs },
        ))
        | Ok(Reply::RangeChunk(pairs)) => pairs.len() * 16,
        Ok(Reply::Response(Response::Write { acks })) => acks.len(),
        Ok(Reply::RangeEnd { .. }) => 0,
        Ok(Reply::Scrape { json, .. }) => json.len(),
        Err(error) => error.message.chars().count(),
    }
}

/// The contract of one decode of `buf`, whatever `buf` holds. Returns
/// the decoded value when the frame was good.
fn check<T>(
    buf: &[u8],
    decoded: Result<Decoded<T>, FrameError>,
    owned_bytes: impl Fn(&T) -> usize,
) -> Option<T> {
    let declared = buf
        .first_chunk::<4>()
        .map(|len| u32::from_le_bytes(*len) as usize);
    let (consumed, value) = match decoded {
        Ok(Decoded::Incomplete) => {
            assert!(declared.is_none_or(|d| buf.len() < 4 + d), "complete");
            return None;
        }
        Err(FrameError::Oversize(len)) => {
            assert!(Some(len) == declared && len > MAX_BODY_LEN);
            return None;
        }
        Err(FrameError::Runt(len)) => {
            assert!(Some(len) == declared && len < HEADER_LEN);
            return None;
        }
        Ok(Decoded::Frame {
            consumed, value, ..
        }) => (consumed, Some(value)),
        Ok(Decoded::Corrupt { consumed, .. }) => (consumed, None),
    };
    assert_eq!(Some(consumed), declared.map(|d| 4 + d), "frame size");
    assert!(0 < consumed && consumed <= buf.len(), "resync must advance");
    let payload = consumed - 4 - HEADER_LEN;
    assert!(value.as_ref().is_none_or(|v| owned_bytes(v) <= payload));
    value
}

/// Runs both decoders over `buf`; each must hold its contract even on
/// the other direction's frames.
fn check_both(buf: &[u8]) -> (Option<WireRequest>, Option<Result<Reply, ErrorReply>>) {
    (
        check(buf, wire::decode_request(buf), request_bytes),
        check(buf, wire::decode_reply(buf), reply_bytes),
    )
}

/// Every strict prefix of a valid frame is incomplete — for both
/// decoders, since the envelope is shared — and every single-bit flip
/// still ends in a frame, a typed error or a resync.
fn check_damaged(frame: &[u8]) {
    for cut in 0..frame.len() {
        let cut = &frame[..cut];
        let both = (wire::decode_request(cut), wire::decode_reply(cut));
        assert!(matches!(
            both,
            (Ok(Decoded::Incomplete), Ok(Decoded::Incomplete))
        ));
    }
    let mut flipped = frame.to_vec();
    for bit in 0..frame.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        let _ = check_both(&flipped);
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
}

fn keys() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), 0..12)
}

fn pairs() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((any::<u64>(), any::<u64>()), 0..12)
}

fn scrape_kind() -> impl Strategy<Value = ScrapeKind> {
    (0..ScrapeKind::ALL.len()).prop_map(|i| ScrapeKind::ALL[i])
}

/// Printable ASCII: what an error message or a scrape document
/// round-trips byte for byte.
fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(0x20u8..0x7f, 0..40)
        .prop_map(|ascii| String::from_utf8(ascii).expect("printable ASCII"))
}

fn scan() -> impl Strategy<Value = (u64, u64, usize, bool)> {
    (
        any::<u64>(),
        any::<u64>(),
        prop_oneof![(0usize..1000).boxed(), Just(usize::MAX).boxed()],
        any::<bool>(),
    )
}

/// An encoded request frame and what it must decode to.
fn request_frame() -> impl Strategy<Value = (Vec<u8>, WireRequest)> {
    let plain = prop_oneof![
        any::<u64>().prop_map(|key| Request::Lookup { key }),
        keys().prop_map(|keys| Request::MultiLookup { keys }),
        keys().prop_map(|keys| Request::JoinProbe { keys }),
        keys().prop_map(|keys| Request::Delete { keys }),
        pairs().prop_map(|pairs| Request::Insert { pairs }),
        pairs().prop_map(|pairs| Request::Update { pairs }),
        scan().prop_map(|(lo, hi, limit, desc)| Request::RangeScan {
            lo,
            hi,
            limit,
            desc
        }),
    ];
    let any_request = prop_oneof![
        plain.prop_map(WireRequest::Plain),
        scan().prop_map(|(lo, hi, limit, desc)| WireRequest::Stream {
            lo,
            hi,
            limit,
            desc
        }),
        scrape_kind().prop_map(WireRequest::Scrape),
    ];
    (any::<u64>(), any_request).prop_map(|(id, request)| {
        let mut buf = Vec::new();
        match &request {
            WireRequest::Plain(plain) => wire::encode_request(&mut buf, id, plain),
            WireRequest::Stream {
                lo,
                hi,
                limit,
                desc,
            } => wire::encode_range_stream(&mut buf, id, *lo, *hi, *limit, *desc),
            WireRequest::Scrape(kind) => wire::encode_scrape_request(&mut buf, id, *kind),
        }
        (buf, request)
    })
}

/// An encoded reply frame and what it must decode to.
fn reply_frame() -> impl Strategy<Value = (Vec<u8>, Result<Reply, ErrorReply>)> {
    let response = prop_oneof![
        (any::<u64>(), keys()).prop_map(|(key, payloads)| Response::Lookup { key, payloads }),
        pairs().prop_map(|matches| Response::MultiLookup { matches }),
        pairs().prop_map(|pairs| Response::JoinProbe { pairs }),
        pairs().prop_map(|entries| Response::RangeScan { entries }),
    ];
    let write_kind =
        (0..3usize).prop_map(|i| [WriteKind::Insert, WriteKind::Delete, WriteKind::Update][i]);
    let code = prop_oneof![
        Just(ErrorCode::Busy),
        Just(ErrorCode::Stopped),
        Just(ErrorCode::NoOrderedIndex),
        Just(ErrorCode::Malformed),
        Just(ErrorCode::Unsupported),
        Just(ErrorCode::TooLarge),
        (7u8..=255).prop_map(ErrorCode::Other),
    ];
    // (frame body, the write verb when the body is a write ack)
    let body = prop_oneof![
        response.prop_map(|r| (Ok(Reply::Response(r)), None)),
        (write_kind, prop::collection::vec(any::<bool>(), 0..12))
            .prop_map(|(kind, acks)| (Ok(Reply::Response(Response::Write { acks })), Some(kind))),
        pairs().prop_map(|entries| (Ok(Reply::RangeChunk(entries)), None)),
        any::<u64>().prop_map(|entries| (Ok(Reply::RangeEnd { entries }), None)),
        (scrape_kind(), text()).prop_map(|(kind, json)| (Ok(Reply::Scrape { kind, json }), None)),
        (code, text()).prop_map(|(code, message)| (Err(ErrorReply { code, message }), None)),
    ];
    (any::<u64>(), body).prop_map(|(id, (reply, kind))| {
        let mut buf = Vec::new();
        match (&reply, kind) {
            (Ok(Reply::Response(Response::Write { acks })), Some(kind)) => {
                wire::encode_write_reply(&mut buf, id, kind, acks);
            }
            (Ok(Reply::Response(response)), _) => wire::encode_response(&mut buf, id, response),
            (Ok(Reply::RangeChunk(entries)), _) => wire::encode_range_chunk(&mut buf, id, entries),
            (Ok(Reply::RangeEnd { entries }), _) => wire::encode_range_end(&mut buf, id, *entries),
            (Ok(Reply::Scrape { kind, json }), _) => {
                wire::encode_scrape_reply(&mut buf, id, *kind, json);
            }
            (Err(error), _) => wire::encode_error(&mut buf, id, error),
        }
        (buf, reply)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_and_always_resync(
        noise in prop::collection::vec(any::<u8>(), 0..96),
        declared in 0u32..96,
    ) {
        let _ = check_both(&noise);
        // Random length prefixes are nearly all oversize; a plausible
        // one puts the same noise through the header and payload paths.
        let mut framed = declared.to_le_bytes().to_vec();
        framed.extend_from_slice(&noise);
        let _ = check_both(&framed);
    }

    #[test]
    fn request_frames_round_trip_and_survive_damage(sample in request_frame()) {
        let (frame, request) = sample;
        let (decoded, _) = check_both(&frame);
        prop_assert_eq!(decoded, Some(request));
        check_damaged(&frame);
    }

    #[test]
    fn reply_frames_round_trip_and_survive_damage(sample in reply_frame()) {
        let (frame, reply) = sample;
        let (_, decoded) = check_both(&frame);
        prop_assert_eq!(decoded, Some(reply));
        check_damaged(&frame);
    }
}
