//! Property tests for the GSSP wire protocol (`gss_server::protocol`).
//!
//! The decoder's contract mirrors the WAL's: arbitrary damage — truncation, bit
//! flips, lying length fields, outright garbage — must never panic the parser and
//! must always come back as a typed [`ProtocolError`].  Well-formed frames must
//! round-trip exactly, and the CRC must catch every single-bit flip anywhere in a
//! frame.  Last, pipelining against a live server: a burst of requests sent without
//! waiting comes back as that many answers in request order.

use gss_server::protocol::{
    decode_frame, decode_request, decode_response, encode_request, encode_request_into,
    encode_response, encode_response_into, ProtocolError, Request, Response, WireEdge, WireStats,
    HEADER_BYTES, MAX_PAYLOAD_BYTES,
};
use gss_server::{FrameConn, Server, ServerConfig};
use proptest::prelude::*;

fn arb_edge() -> impl Strategy<Value = WireEdge> {
    (any::<u64>(), any::<u64>(), any::<i64>()).prop_map(|(source, destination, weight)| WireEdge {
        source,
        destination,
        weight,
    })
}

/// Short strings over a tenant-ish alphabet (the shim has no regex strategies).
fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop::sample::select("abz059-_ $\u{e9}\u{4e16}".chars().collect::<Vec<_>>()),
        0..24,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (arb_string(), arb_string()).prop_map(|(tenant, token)| Request::Hello { tenant, token }),
        prop::collection::vec(arb_edge(), 0..64).prop_map(|items| Request::Ingest { items }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(source, destination)| Request::Edge { source, destination }),
        any::<u64>().prop_map(|vertex| Request::Successors { vertex }),
        any::<u64>().prop_map(|vertex| Request::Precursors { vertex }),
        (any::<u64>(), any::<u64>(), any::<u32>()).prop_map(|(source, destination, max_hops)| {
            Request::Reachable { source, destination, max_hops }
        }),
        Just(Request::Snapshot),
        Just(Request::Stats),
        Just(Request::Health),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Ok),
        (any::<u64>(), any::<u64>(), 0u8..2).prop_map(|(accepted, acked_total, durability)| {
            Response::Ingested { accepted, acked_total, durability }
        }),
        prop::option::of(any::<i64>()).prop_map(Response::EdgeWeight),
        prop::collection::vec(any::<u64>(), 0..64).prop_map(Response::Vertices),
        any::<bool>().prop_map(Response::Bool),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(a, b, c, d, e, f)| {
                Response::Stats(WireStats {
                    items_inserted: a,
                    matrix_edges: b,
                    buffered_edges: c,
                    shards: (d % 64) as u32,
                    poisoned: d % 2 == 0,
                    acked_items: e,
                    durable_items: f,
                    breached_items: e.saturating_sub(f),
                })
            }),
        (any::<u32>(), any::<u32>())
            .prop_map(|(namespaces, connections)| Response::Health { namespaces, connections }),
        (any::<u16>(), arb_string()).prop_map(|(code, message)| Response::Error { code, message }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every encodable request survives the wire byte-for-byte.
    #[test]
    fn requests_round_trip(request in arb_request()) {
        let frame = encode_request(&request);
        let (kind, payload, consumed) = decode_frame(&frame).unwrap();
        prop_assert_eq!(consumed, frame.len());
        prop_assert_eq!(decode_request(kind, payload).unwrap(), request);
    }

    /// Every encodable response survives the wire byte-for-byte.
    #[test]
    fn responses_round_trip(response in arb_response()) {
        let frame = encode_response(&response);
        let (kind, payload, consumed) = decode_frame(&frame).unwrap();
        prop_assert_eq!(consumed, frame.len());
        prop_assert_eq!(decode_response(kind, payload).unwrap(), response);
    }

    /// Encoding into a buffer appends exactly the frame the `Vec`-returning encoder
    /// builds, whatever the buffer already holds.
    #[test]
    fn encoding_in_place_appends_the_same_frame(
        request in arb_request(),
        response in arb_response(),
        held in prop::collection::vec(any::<u8>(), 0..40),
    ) {
        let mut out = held.clone();
        encode_request_into(&request, &mut out).unwrap();
        encode_response_into(&response, &mut out).unwrap();
        let expected = [held, encode_request(&request), encode_response(&response)].concat();
        prop_assert_eq!(out, expected);
    }

    /// Truncating a valid frame anywhere yields a typed error, never a panic and
    /// never a bogus success.
    #[test]
    fn truncations_are_typed_errors(request in arb_request(), cut in any::<prop::sample::Index>()) {
        let frame = encode_request(&request);
        let cut = cut.index(frame.len());
        prop_assert_eq!(decode_frame(&frame[..cut]), Err(ProtocolError::Truncated));
    }

    /// Flipping any single bit of a frame is always caught: by a header check when
    /// the flip lands in the preamble, by the CRC otherwise — and even a flip that
    /// decodes (a corrupted length that happens to re-frame) must not panic.
    #[test]
    fn single_bit_flips_never_pass_silently(
        request in arb_request(),
        position in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut frame = encode_request(&request);
        let position = position.index(frame.len());
        frame[position] ^= 1 << bit;
        match decode_frame(&frame) {
            // The flip must be *detected*; which typed error reports it depends on
            // where it landed.
            Err(_) => {}
            Ok((kind, payload, _)) => {
                // Same-length flips are caught by CRC-32's single-bit guarantee;
                // a flip in the length field changes the covered extent, where a
                // collision is merely 2^-32-improbable. Reaching here means the
                // checksum silently passed damage.
                prop_assert!(
                    false,
                    "1-bit flip at byte {position} bit {bit} decoded as kind {kind:#04x} \
                     ({} payload bytes)",
                    payload.len()
                );
            }
        }
    }

    /// Arbitrary garbage never panics the frame decoder and never yields a frame.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Random bytes essentially never contain the magic *and* a valid CRC; any
        // Ok here would be astronomically unlikely, so only absence-of-panic and
        // typed errors are asserted.
        let _ = decode_frame(&bytes);
    }

    /// Arbitrary payload bytes under every kind byte never panic the payload
    /// decoders, and a decode that succeeds must re-encode to a decodable frame.
    #[test]
    fn payload_decoders_never_panic(
        kind in any::<u8>(),
        payload in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        if let Ok(request) = decode_request(kind, &payload) {
            let frame = encode_request(&request);
            prop_assert!(decode_frame(&frame).is_ok());
        }
        if let Ok(response) = decode_response(kind, &payload) {
            let frame = encode_response(&response);
            prop_assert!(decode_frame(&frame).is_ok());
        }
    }

    /// A lying length field is rejected from the header alone — before the length
    /// can size an allocation.
    #[test]
    fn oversized_lengths_are_rejected_from_the_header(
        request in arb_request(),
        excess in (MAX_PAYLOAD_BYTES as u32 + 1)..=u32::MAX,
    ) {
        let mut frame = encode_request(&request);
        frame[6..10].copy_from_slice(&excess.to_le_bytes());
        prop_assert_eq!(decode_frame(&frame), Err(ProtocolError::Oversized(excess)));
        // The header prefix alone is enough to reject it.
        prop_assert_eq!(
            gss_server::protocol::decode_header(&frame[..HEADER_BYTES]),
            Err(ProtocolError::Oversized(excess))
        );
    }
}

/// A frame over the cap is refused by the encoder — every conforming reader would
/// refuse it as `Oversized` — and leaves nothing of itself in the buffer.
#[test]
fn a_request_over_the_frame_cap_is_refused_by_the_encoder() {
    let item = WireEdge { source: 1, destination: 2, weight: 3 };
    let mut out = b"kept".to_vec();
    let most = (MAX_PAYLOAD_BYTES - 4) / 24;
    assert_eq!(most, 349_525, "the item limit the client documents");
    encode_request_into(&Request::Ingest { items: vec![item; most] }, &mut out).unwrap();
    let (kind, payload, _) = decode_frame(&out[4..]).unwrap();
    assert!(
        matches!(decode_request(kind, payload), Ok(Request::Ingest { items }) if items.len() == most)
    );

    out.truncate(4);
    assert_eq!(
        encode_request_into(&Request::Ingest { items: vec![item; most + 1] }, &mut out),
        Err(ProtocolError::Oversized((4 + (most + 1) * 24) as u32))
    );
    assert_eq!(out, b"kept");
}

/// 512 requests of three kinds written in one piece, none of the answers read until
/// all are sent: 512 answers come back, each of its request's kind and value.
#[test]
fn a_pipelined_burst_is_answered_whole_and_in_order() {
    let dir = std::env::temp_dir().join(format!("gss-pipeline-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = ServerConfig::parse("tenant alpha token=secret shards=2 width=128").unwrap();
    let handle = Server::bind("127.0.0.1:0", dir.clone(), config, 4).unwrap().spawn().unwrap();
    let mut conn = FrameConn::new(std::net::TcpStream::connect(handle.addr()).unwrap()).unwrap();
    conn.set_read_timeout(Some(std::time::Duration::from_secs(30))).unwrap();

    // Set-up rides the same pipeline: HELLO and INGEST are queued, not awaited.
    let chain = (1..=512).map(|i| WireEdge { source: i, destination: i + 1, weight: i as i64 });
    let hello = Request::Hello { tenant: "alpha".into(), token: "secret".into() };
    conn.write_frame(&encode_request(&hello)).unwrap();
    conn.write_frame(&encode_request(&Request::Ingest { items: chain.collect() })).unwrap();

    let request = |i: u64| match i % 3 {
        0 => Request::Edge { source: i, destination: i + 1 },
        1 => Request::Successors { vertex: i },
        _ => Request::Health,
    };
    let burst: Vec<u8> = (1..=512).flat_map(|i| encode_request(&request(i))).collect();
    conn.write_raw(&burst).unwrap();

    let mut answer = || {
        let (kind, payload) = conn.read_frame().unwrap();
        decode_response(kind, &payload).unwrap()
    };
    assert_eq!(answer(), Response::Ok);
    assert!(matches!(answer(), Response::Ingested { accepted: 512, .. }));
    for i in 1..=512u64 {
        match (request(i), answer()) {
            // One-sided error: a sketch may over-count, never under-count or forget.
            (Request::Edge { .. }, Response::EdgeWeight(Some(weight))) => {
                assert!(weight >= i as i64, "answer {i} is not edge {i}'s: {weight}");
            }
            (Request::Successors { .. }, Response::Vertices(vertices)) => {
                assert!(vertices.contains(&(i + 1)), "answer {i} is not vertex {i}'s");
            }
            (Request::Health, Response::Health { connections: 1, .. }) => {}
            (request, response) => panic!("answer {i}: {request:?} got {response:?}"),
        }
    }
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
