//! The GSS wire protocol: versioned, CRC-framed, length-prefixed binary frames.
//!
//! The protocol is deliberately in the style of the write-ahead-log frame format
//! ([`gss_core::wal`]): a fixed header carrying magic, version, kind and payload
//! length, then the payload, with a CRC-32 sealing header and payload together.  A
//! frame is the unit of both directions — every request is one frame, every response
//! is one frame.
//!
//! ## Frame layout
//!
//! ```text
//! [0 .. 4)    magic "GSSP"
//! [4]         version (1)
//! [5]         kind — request opcode or response status (see below)
//! [6 .. 10)   payload length u32 (little-endian, ≤ 8 MiB)
//! [10 .. 14)  crc32 over bytes [0..10) ++ payload (the WAL's polynomial)
//! [14 .. )    payload
//! ```
//!
//! ## Pipelining
//!
//! A peer may send further requests before reading the answers to earlier ones;
//! answers are one frame each, in request order.  Nothing in a frame says where a
//! burst ends — the connection layer ([`crate::net::FrameConn`]) batches what has
//! arrived and writes out what is owed before it blocks.
//!
//! ## Robustness contract
//!
//! [`decode_frame`] and the payload decoders never panic: truncated, bit-flipped,
//! oversized-length and garbage inputs all yield a typed [`ProtocolError`] — the same
//! contract `tests/snapshot_robustness.rs` pins for snapshot decoding, pinned for the
//! wire by `tests/protocol_robustness.rs`.  The length field is bounds-checked
//! *before* any allocation, so a lying length cannot pre-allocate memory.
//!
//! ## Kinds
//!
//! Requests: `0x01` HELLO (tenant, token), `0x02` INGEST, `0x03` EDGE,
//! `0x04` SUCCESSORS, `0x05` PRECURSORS, `0x06` REACHABLE, `0x07` SNAPSHOT,
//! `0x08` STATS, `0x09` HEALTH.
//!
//! Responses: `0x80` OK (empty), `0x81` INGESTED, `0x82` EDGE_WEIGHT,
//! `0x83` VERTICES, `0x84` BOOL, `0x85` STATS, `0x86` HEALTH, `0xE0` ERROR
//! (code u16 + message; error codes below `0x0100` are server/protocol codes in
//! [`err`], codes `0x0100..0x02FF` carry [`gss_core::GssError::wire_code`]
//! unchanged, and `0x0300` marks a failed snapshot/checkpoint).

use gss_core::wal::Crc32;
use std::fmt;

/// Magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"GSSP";
/// Protocol version carried in byte 4.
pub const VERSION: u8 = 1;
/// Fixed header size (magic + version + kind + length + crc).
pub const HEADER_BYTES: usize = 14;
/// Upper bound on a frame payload; a length field beyond this is rejected before any
/// allocation happens.
pub const MAX_PAYLOAD_BYTES: usize = 8 << 20;

/// Server/protocol error codes carried by [`Response::Error`].  Codes at `0x0100` and
/// above are reserved for [`gss_core::GssError::wire_code`] passthrough (`0x0100`
/// config, `0x0200 | fault` store-failed) and [`err::SNAPSHOT_FAILED`].
pub mod err {
    /// Malformed frame or payload.
    pub const PROTOCOL: u16 = 0x0001;
    /// The connection has not completed a HELLO yet.
    pub const AUTH_REQUIRED: u16 = 0x0002;
    /// Tenant exists but the token does not match.
    pub const AUTH_FAILED: u16 = 0x0003;
    /// No tenant of that name is configured.
    pub const UNKNOWN_TENANT: u16 = 0x0004;
    /// The tenant's token bucket is empty; retry after the hinted delay.
    pub const RATE_LIMITED: u16 = 0x0005;
    /// The server's connection cap is reached.
    pub const BUSY: u16 = 0x0006;
    /// The tenant could not be opened (bad namespace name, unrecoverable files).
    pub const TENANT_UNAVAILABLE: u16 = 0x0007;
    /// The answer is larger than one frame may carry ([`super::MAX_PAYLOAD_BYTES`]).
    pub const ANSWER_TOO_LARGE: u16 = 0x0008;
    /// A snapshot/checkpoint request failed (persistence error; message has details).
    pub const SNAPSHOT_FAILED: u16 = 0x0300;
}

/// One stream item on the wire (timestamps are assigned server-side, in arrival
/// order, so clients do not fabricate them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireEdge {
    pub source: u64,
    pub destination: u64,
    pub weight: i64,
}

/// Tenant-level statistics returned by STATS: the sketch occupancy numbers a client
/// can see plus the honest durability account ([`gss_core::DurabilityReport`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireStats {
    pub items_inserted: u64,
    pub matrix_edges: u64,
    pub buffered_edges: u64,
    pub shards: u32,
    pub poisoned: bool,
    pub acked_items: u64,
    pub durable_items: u64,
    pub breached_items: u64,
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Binds the connection to a tenant namespace; must be the first frame on a
    /// connection (HEALTH excepted).
    Hello { tenant: String, token: String },
    /// Batch ingest into the bound tenant.
    Ingest { items: Vec<WireEdge> },
    /// Edge-weight query.
    Edge { source: u64, destination: u64 },
    /// 1-hop successor query.
    Successors { vertex: u64 },
    /// 1-hop precursor query (fans out across shards server-side).
    Precursors { vertex: u64 },
    /// Reachability query.  Despite its name `max_hops` is not a hop count: it is the
    /// search's visited-vertex budget (`0` = exhaustive).  `true` is always a path in
    /// the sketch; an exhaustive `false` means the sketch holds no path, hence the
    /// stream had none (one-sided error); a `false` under a budget only means the
    /// budget ran out, and promises nothing.
    Reachable { source: u64, destination: u64, max_hops: u32 },
    /// Checkpoint every shard of the bound tenant to disk.
    Snapshot,
    /// Tenant statistics and durability report.
    Stats,
    /// Server liveness (no authentication required).
    Health,
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success with no payload (HELLO, SNAPSHOT).
    Ok,
    /// Ingest acknowledgement: the accepted items are in the tenant's write-ahead log
    /// file — see the README's guarantee table.  The `durability` byte stays on the wire
    /// for format stability and is always [`DURABILITY_STRICT`].
    Ingested { accepted: u64, acked_total: u64, durability: u8 },
    /// Edge weight, or `None` for "no such edge reported".
    EdgeWeight(Option<i64>),
    /// Successor/precursor answer.
    Vertices(Vec<u64>),
    /// Reachability answer.
    Bool(bool),
    /// Tenant statistics.
    Stats(WireStats),
    /// Server liveness: open namespaces and active connections.
    Health { namespaces: u32, connections: u32 },
    /// Typed failure; the connection stays open.
    Error { code: u16, message: String },
}

/// The durability byte of [`Response::Ingested`] (value 1 named a mode that no longer
/// exists and is never sent).
pub const DURABILITY_STRICT: u8 = 0;

const REQ_HELLO: u8 = 0x01;
const REQ_INGEST: u8 = 0x02;
const REQ_EDGE: u8 = 0x03;
const REQ_SUCCESSORS: u8 = 0x04;
const REQ_PRECURSORS: u8 = 0x05;
const REQ_REACHABLE: u8 = 0x06;
const REQ_SNAPSHOT: u8 = 0x07;
const REQ_STATS: u8 = 0x08;
const REQ_HEALTH: u8 = 0x09;

const RESP_OK: u8 = 0x80;
const RESP_INGESTED: u8 = 0x81;
const RESP_EDGE: u8 = 0x82;
const RESP_VERTICES: u8 = 0x83;
const RESP_BOOL: u8 = 0x84;
const RESP_STATS: u8 = 0x85;
const RESP_HEALTH: u8 = 0x86;
const RESP_ERROR: u8 = 0xE0;

/// The typed decode failure: every way a frame can be damaged, none of them a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The frame does not start with `GSSP`.
    BadMagic,
    /// The version byte is not [`VERSION`].
    BadVersion(u8),
    /// Fewer bytes than the header (or the declared payload) requires.
    Truncated,
    /// The declared payload length exceeds [`MAX_PAYLOAD_BYTES`].
    Oversized(u32),
    /// The CRC does not match header + payload.
    BadCrc,
    /// The kind byte names no known request/response.
    UnknownKind(u8),
    /// The payload does not parse as its kind's layout.
    Malformed(&'static str),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic => write!(f, "bad frame magic"),
            Self::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            Self::Truncated => write!(f, "truncated frame"),
            Self::Oversized(len) => {
                write!(f, "payload length {len} exceeds the {MAX_PAYLOAD_BYTES}-byte cap")
            }
            Self::BadCrc => write!(f, "frame checksum mismatch"),
            Self::UnknownKind(kind) => write!(f, "unknown frame kind {kind:#04x}"),
            Self::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// The frame checksum: header bytes `[0..10)` then the payload, fed to the CRC in
/// place.
fn frame_crc(preamble: &[u8], payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(preamble);
    crc.update(payload);
    crc.finish()
}

/// Opens a frame at the end of `out` — its kind, length and checksum still blank — and
/// returns where it starts; the payload is appended next and [`seal_frame`] closes it.
fn open_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&[0; HEADER_BYTES - 5]);
    start
}

/// Fills in the kind, length and checksum of the frame opened at `start`.  A payload
/// over [`MAX_PAYLOAD_BYTES`] is one every conforming peer must refuse, so it is
/// refused here: `out` is cut back to `start` and nothing of the frame remains.
fn seal_frame(out: &mut Vec<u8>, start: usize, kind: u8) -> Result<(), ProtocolError> {
    let len = out.len() - start - HEADER_BYTES;
    if len > MAX_PAYLOAD_BYTES {
        out.truncate(start);
        return Err(ProtocolError::Oversized(u32::try_from(len).unwrap_or(u32::MAX)));
    }
    out[start + 5] = kind;
    out[start + 6..start + 10].copy_from_slice(&(len as u32).to_le_bytes());
    let (header, payload) = out[start..].split_at(HEADER_BYTES);
    let crc = frame_crc(&header[..10], payload);
    out[start + 10..start + HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Seals `kind` + `payload` into one encoded frame.
///
/// # Panics
/// If the payload is over [`MAX_PAYLOAD_BYTES`].
pub fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_BYTES + payload.len());
    let start = open_frame(&mut frame);
    frame.extend_from_slice(payload);
    seal_frame(&mut frame, start, kind).expect("payload within the frame cap");
    frame
}

/// Validates a header prefix (the first [`HEADER_BYTES`] bytes): magic, version and
/// length bounds — everything checkable *before* the payload arrives, so a reader
/// never allocates for a lying length.  Returns `(kind, payload_len)`.
pub fn decode_header(header: &[u8]) -> Result<(u8, usize), ProtocolError> {
    if header.len() < HEADER_BYTES {
        return Err(ProtocolError::Truncated);
    }
    if header[0..4] != MAGIC {
        return Err(ProtocolError::BadMagic);
    }
    if header[4] != VERSION {
        return Err(ProtocolError::BadVersion(header[4]));
    }
    let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]);
    if len as usize > MAX_PAYLOAD_BYTES {
        return Err(ProtocolError::Oversized(len));
    }
    Ok((header[5], len as usize))
}

/// Checks a complete frame's CRC given its header and payload.
pub fn check_crc(header: &[u8; HEADER_BYTES], payload: &[u8]) -> Result<(), ProtocolError> {
    let declared = u32::from_le_bytes([header[10], header[11], header[12], header[13]]);
    if frame_crc(&header[..10], payload) != declared {
        return Err(ProtocolError::BadCrc);
    }
    Ok(())
}

/// Decodes one whole frame from an in-memory buffer (header checks, CRC, then kind
/// dispatch is left to the caller).  Returns `(kind, payload, bytes_consumed)`.
pub fn decode_frame(buf: &[u8]) -> Result<(u8, &[u8], usize), ProtocolError> {
    let (kind, len) = decode_header(buf)?;
    let total = HEADER_BYTES + len;
    if buf.len() < total {
        return Err(ProtocolError::Truncated);
    }
    let header: &[u8; HEADER_BYTES] =
        buf[..HEADER_BYTES].try_into().map_err(|_| ProtocolError::Truncated)?;
    let payload = &buf[HEADER_BYTES..total];
    check_crc(header, payload)?;
    Ok((kind, payload, total))
}

/// Bounds-checked little-endian payload reader; every getter is a `Result`, so a
/// payload can end (or lie) anywhere without panicking the decoder.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self.at.checked_add(n).ok_or(ProtocolError::Malformed("length overflow"))?;
        if end > self.buf.len() {
            return Err(ProtocolError::Malformed("payload shorter than its fields"));
        }
        let slice = &self.buf[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn i64(&mut self) -> Result<i64, ProtocolError> {
        Ok(self.u64()? as i64)
    }

    fn string(&mut self) -> Result<String, ProtocolError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::Malformed("non-UTF-8 string"))
    }

    fn finish(self) -> Result<(), ProtocolError> {
        if self.at != self.buf.len() {
            return Err(ProtocolError::Malformed("trailing bytes after payload"));
        }
        Ok(())
    }
}

fn push_string(out: &mut Vec<u8>, s: &str) {
    let len = s.len().min(u16::MAX as usize) as u16;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&s.as_bytes()[..len as usize]);
}

/// Appends a request to `out` as one frame, the payload written in place behind its
/// header.  Fails with [`ProtocolError::Oversized`], leaving `out` as it was, when the
/// request does not fit one frame (an INGEST of more than 349 525 items).
pub fn encode_request_into(request: &Request, out: &mut Vec<u8>) -> Result<(), ProtocolError> {
    let start = open_frame(out);
    let kind = match request {
        Request::Hello { tenant, token } => {
            push_string(out, tenant);
            push_string(out, token);
            REQ_HELLO
        }
        Request::Ingest { items } => {
            out.reserve(4 + items.len().min(MAX_PAYLOAD_BYTES / 24) * 24);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for item in items {
                out.extend_from_slice(&item.source.to_le_bytes());
                out.extend_from_slice(&item.destination.to_le_bytes());
                out.extend_from_slice(&item.weight.to_le_bytes());
            }
            REQ_INGEST
        }
        Request::Edge { source, destination } => {
            out.extend_from_slice(&source.to_le_bytes());
            out.extend_from_slice(&destination.to_le_bytes());
            REQ_EDGE
        }
        Request::Successors { vertex } => {
            out.extend_from_slice(&vertex.to_le_bytes());
            REQ_SUCCESSORS
        }
        Request::Precursors { vertex } => {
            out.extend_from_slice(&vertex.to_le_bytes());
            REQ_PRECURSORS
        }
        Request::Reachable { source, destination, max_hops } => {
            out.extend_from_slice(&source.to_le_bytes());
            out.extend_from_slice(&destination.to_le_bytes());
            out.extend_from_slice(&max_hops.to_le_bytes());
            REQ_REACHABLE
        }
        Request::Snapshot => REQ_SNAPSHOT,
        Request::Stats => REQ_STATS,
        Request::Health => REQ_HEALTH,
    };
    seal_frame(out, start, kind)
}

/// Encodes a request as one frame.
///
/// # Panics
/// If the request does not fit one frame; [`encode_request_into`] returns that as an
/// error.
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_request_into(request, &mut frame).expect("request within the frame cap");
    frame
}

/// Decodes a request payload for `kind` (as returned by [`decode_frame`]).
pub fn decode_request(kind: u8, payload: &[u8]) -> Result<Request, ProtocolError> {
    let mut r = Reader::new(payload);
    let request = match kind {
        REQ_HELLO => Request::Hello { tenant: r.string()?, token: r.string()? },
        REQ_INGEST => {
            let count = r.u32()? as usize;
            // Each item is 24 bytes; the count must fit the remaining payload before
            // any allocation sized by it.
            if count.checked_mul(24).map_or(true, |bytes| bytes > payload.len()) {
                return Err(ProtocolError::Malformed("ingest count exceeds payload"));
            }
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(WireEdge { source: r.u64()?, destination: r.u64()?, weight: r.i64()? });
            }
            Request::Ingest { items }
        }
        REQ_EDGE => Request::Edge { source: r.u64()?, destination: r.u64()? },
        REQ_SUCCESSORS => Request::Successors { vertex: r.u64()? },
        REQ_PRECURSORS => Request::Precursors { vertex: r.u64()? },
        REQ_REACHABLE => {
            Request::Reachable { source: r.u64()?, destination: r.u64()?, max_hops: r.u32()? }
        }
        REQ_SNAPSHOT => Request::Snapshot,
        REQ_STATS => Request::Stats,
        REQ_HEALTH => Request::Health,
        other => return Err(ProtocolError::UnknownKind(other)),
    };
    r.finish()?;
    Ok(request)
}

/// Appends a response to `out` as one frame, the payload written in place behind its
/// header.  Fails with [`ProtocolError::Oversized`], leaving `out` as it was, when the
/// answer does not fit one frame (a VERTICES list of more than 1 048 575 vertices).
pub fn encode_response_into(response: &Response, out: &mut Vec<u8>) -> Result<(), ProtocolError> {
    let start = open_frame(out);
    let kind = match response {
        Response::Ok => RESP_OK,
        Response::Ingested { accepted, acked_total, durability } => {
            out.extend_from_slice(&accepted.to_le_bytes());
            out.extend_from_slice(&acked_total.to_le_bytes());
            out.push(*durability);
            RESP_INGESTED
        }
        Response::EdgeWeight(weight) => {
            match weight {
                Some(w) => {
                    out.push(1);
                    out.extend_from_slice(&w.to_le_bytes());
                }
                None => out.push(0),
            }
            RESP_EDGE
        }
        Response::Vertices(vertices) => {
            out.reserve(4 + vertices.len().min(MAX_PAYLOAD_BYTES / 8) * 8);
            out.extend_from_slice(&(vertices.len() as u32).to_le_bytes());
            for v in vertices {
                out.extend_from_slice(&v.to_le_bytes());
            }
            RESP_VERTICES
        }
        Response::Bool(b) => {
            out.push(u8::from(*b));
            RESP_BOOL
        }
        Response::Stats(stats) => {
            out.extend_from_slice(&stats.items_inserted.to_le_bytes());
            out.extend_from_slice(&stats.matrix_edges.to_le_bytes());
            out.extend_from_slice(&stats.buffered_edges.to_le_bytes());
            out.extend_from_slice(&stats.shards.to_le_bytes());
            out.push(u8::from(stats.poisoned));
            out.extend_from_slice(&stats.acked_items.to_le_bytes());
            out.extend_from_slice(&stats.durable_items.to_le_bytes());
            out.extend_from_slice(&stats.breached_items.to_le_bytes());
            RESP_STATS
        }
        Response::Health { namespaces, connections } => {
            out.extend_from_slice(&namespaces.to_le_bytes());
            out.extend_from_slice(&connections.to_le_bytes());
            RESP_HEALTH
        }
        Response::Error { code, message } => {
            out.extend_from_slice(&code.to_le_bytes());
            push_string(out, message);
            RESP_ERROR
        }
    };
    seal_frame(out, start, kind)
}

/// Encodes a response as one frame.
///
/// # Panics
/// If the response does not fit one frame; [`encode_response_into`] returns that as
/// an error.
pub fn encode_response(response: &Response) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_response_into(response, &mut frame).expect("response within the frame cap");
    frame
}

/// Decodes a response payload for `kind` (as returned by [`decode_frame`]).
pub fn decode_response(kind: u8, payload: &[u8]) -> Result<Response, ProtocolError> {
    let mut r = Reader::new(payload);
    let response = match kind {
        RESP_OK => Response::Ok,
        RESP_INGESTED => {
            Response::Ingested { accepted: r.u64()?, acked_total: r.u64()?, durability: r.u8()? }
        }
        RESP_EDGE => match r.u8()? {
            0 => Response::EdgeWeight(None),
            1 => Response::EdgeWeight(Some(r.i64()?)),
            _ => return Err(ProtocolError::Malformed("edge presence flag")),
        },
        RESP_VERTICES => {
            let count = r.u32()? as usize;
            if count.checked_mul(8).map_or(true, |bytes| bytes > payload.len()) {
                return Err(ProtocolError::Malformed("vertex count exceeds payload"));
            }
            let mut vertices = Vec::with_capacity(count);
            for _ in 0..count {
                vertices.push(r.u64()?);
            }
            Response::Vertices(vertices)
        }
        RESP_BOOL => Response::Bool(r.u8()? != 0),
        RESP_STATS => Response::Stats(WireStats {
            items_inserted: r.u64()?,
            matrix_edges: r.u64()?,
            buffered_edges: r.u64()?,
            shards: r.u32()?,
            poisoned: r.u8()? != 0,
            acked_items: r.u64()?,
            durable_items: r.u64()?,
            breached_items: r.u64()?,
        }),
        RESP_HEALTH => Response::Health { namespaces: r.u32()?, connections: r.u32()? },
        RESP_ERROR => Response::Error { code: r.u16()?, message: r.string()? },
        other => return Err(ProtocolError::UnknownKind(other)),
    };
    r.finish()?;
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_core::wal::crc32;

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Hello { tenant: "alpha".into(), token: "secret".into() },
            Request::Ingest {
                items: vec![
                    WireEdge { source: 1, destination: 2, weight: 3 },
                    WireEdge { source: u64::MAX, destination: 0, weight: -7 },
                ],
            },
            Request::Edge { source: 4, destination: 5 },
            Request::Successors { vertex: 6 },
            Request::Precursors { vertex: 7 },
            Request::Reachable { source: 8, destination: 9, max_hops: 0 },
            Request::Snapshot,
            Request::Stats,
            Request::Health,
        ]
    }

    fn all_responses() -> Vec<Response> {
        vec![
            Response::Ok,
            Response::Ingested { accepted: 10, acked_total: 100, durability: DURABILITY_STRICT },
            Response::EdgeWeight(None),
            Response::EdgeWeight(Some(-42)),
            Response::Vertices(vec![]),
            Response::Vertices(vec![1, 2, 3]),
            Response::Bool(true),
            Response::Stats(WireStats {
                items_inserted: 1,
                matrix_edges: 2,
                buffered_edges: 3,
                shards: 4,
                poisoned: true,
                acked_items: 5,
                durable_items: 6,
                breached_items: 7,
            }),
            Response::Health { namespaces: 2, connections: 9 },
            Response::Error { code: err::RATE_LIMITED, message: "slow down".into() },
        ]
    }

    #[test]
    fn every_request_round_trips() {
        for request in all_requests() {
            let frame = encode_request(&request);
            let (kind, payload, consumed) = decode_frame(&frame).unwrap();
            assert_eq!(consumed, frame.len());
            assert_eq!(decode_request(kind, payload).unwrap(), request);
        }
    }

    #[test]
    fn every_response_round_trips() {
        for response in all_responses() {
            let frame = encode_response(&response);
            let (kind, payload, consumed) = decode_frame(&frame).unwrap();
            assert_eq!(consumed, frame.len());
            assert_eq!(decode_response(kind, payload).unwrap(), response);
        }
    }

    #[test]
    fn golden_health_frame_bytes_are_pinned() {
        // The byte-level wire contract the CI smoke job re-asserts over a live
        // socket: HEALTH is an empty-payload frame, fully determined by the header.
        let frame = encode_request(&Request::Health);
        let crc = crc32(&[b'G', b'S', b'S', b'P', VERSION, 0x09, 0, 0, 0, 0]);
        let mut expected = vec![b'G', b'S', b'S', b'P', VERSION, 0x09, 0, 0, 0, 0];
        expected.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(frame, expected);
    }

    #[test]
    fn damaged_frames_yield_typed_errors() {
        let frame = encode_request(&Request::Edge { source: 1, destination: 2 });
        assert_eq!(decode_frame(&frame[..5]), Err(ProtocolError::Truncated));
        assert_eq!(decode_frame(&frame[..frame.len() - 1]), Err(ProtocolError::Truncated));

        let mut bad_magic = frame.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(decode_frame(&bad_magic), Err(ProtocolError::BadMagic));

        let mut bad_version = frame.clone();
        bad_version[4] = 9;
        assert_eq!(decode_frame(&bad_version), Err(ProtocolError::BadVersion(9)));

        let mut oversized = frame.clone();
        oversized[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_frame(&oversized), Err(ProtocolError::Oversized(_))));

        let mut flipped = frame.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x10;
        assert_eq!(decode_frame(&flipped), Err(ProtocolError::BadCrc));
    }

    #[test]
    fn unknown_kinds_and_malformed_payloads_are_typed() {
        let frame = encode_frame(0x55, b"");
        let (kind, payload, _) = decode_frame(&frame).unwrap();
        assert_eq!(decode_request(kind, payload), Err(ProtocolError::UnknownKind(0x55)));
        assert_eq!(decode_response(kind, payload), Err(ProtocolError::UnknownKind(0x55)));

        // An ingest count claiming more items than the payload can hold must be
        // rejected before the count sizes an allocation.
        let mut payload = Vec::new();
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        let frame = encode_frame(0x02, &payload);
        let (kind, payload, _) = decode_frame(&frame).unwrap();
        assert_eq!(
            decode_request(kind, payload),
            Err(ProtocolError::Malformed("ingest count exceeds payload"))
        );

        // Trailing bytes are rejected, not silently ignored.
        let frame = encode_frame(0x07, b"extra");
        let (kind, payload, _) = decode_frame(&frame).unwrap();
        assert!(decode_request(kind, payload).is_err());
    }
}
