//! The client half of the protocol: a typed, synchronous handle used by the
//! examples, the integration tests and the `gss-client` binary the CI smoke job
//! drives.

use crate::net::{FrameConn, FrameError};
use crate::protocol::{self, ProtocolError, Request, Response, WireEdge, WireStats};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// How a client call can fail.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, read, write, or server closed).
    Io(io::Error),
    /// The server's bytes did not form a valid frame, or the request does not fit one
    /// (`Oversized`; nothing was sent).
    Protocol(ProtocolError),
    /// The server answered with a typed error response.
    Server { code: u16, message: String },
    /// The server answered with a well-formed response of the wrong kind.
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "transport: {e}"),
            Self::Protocol(e) => write!(f, "protocol: {e}"),
            Self::Server { code, message } => write!(f, "server error {code:#06x}: {message}"),
            Self::Unexpected(what) => write!(f, "unexpected response kind (wanted {what})"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        Self::Protocol(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => Self::Io(e),
            FrameError::Protocol(e) => Self::Protocol(e),
        }
    }
}

/// The acknowledgement of a batch ingest: the accepted items are in the tenant's
/// write-ahead log file — see the README's guarantee table for the row-by-row contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestAck {
    /// Items accepted from this batch.
    pub accepted: u64,
    /// Items this tenant has accepted since its store was opened.
    pub acked_total: u64,
    /// Always [`protocol::DURABILITY_STRICT`].
    pub durability: u8,
}

/// A synchronous connection to a `gss-server`.
pub struct GssClient {
    conn: FrameConn,
}

impl GssClient {
    /// Connects.  Port 0 is never valid here — pass the resolved server address.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let conn = FrameConn::new(stream)?;
        conn.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self { conn })
    }

    /// One request/response exchange; a typed server error becomes `Err(Server)`.  A
    /// request over the frame cap fails here, before any byte is sent — the server
    /// would have to treat it as framing damage and close the connection.
    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        let mut frame = Vec::new();
        protocol::encode_request_into(request, &mut frame)?;
        self.conn.write_frame(&frame)?;
        let (kind, payload) = self.conn.read_frame()?;
        match protocol::decode_response(kind, &payload)? {
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            response => Ok(response),
        }
    }

    /// Binds this connection to a tenant.
    pub fn hello(&mut self, tenant: &str, token: &str) -> Result<(), ClientError> {
        match self.call(&Request::Hello { tenant: tenant.into(), token: token.into() })? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::Unexpected("OK")),
        }
    }

    /// Batch-ingests `(source, destination, weight)` items.  One call is one frame,
    /// which holds at most 349 525 items; a larger batch is an `Err` and sends nothing.
    pub fn ingest(&mut self, items: &[(u64, u64, i64)]) -> Result<IngestAck, ClientError> {
        let items = items
            .iter()
            .map(|&(source, destination, weight)| WireEdge { source, destination, weight })
            .collect();
        match self.call(&Request::Ingest { items })? {
            Response::Ingested { accepted, acked_total, durability } => {
                Ok(IngestAck { accepted, acked_total, durability })
            }
            _ => Err(ClientError::Unexpected("INGESTED")),
        }
    }

    /// Queries an edge's aggregated weight.
    pub fn edge(&mut self, source: u64, destination: u64) -> Result<Option<i64>, ClientError> {
        match self.call(&Request::Edge { source, destination })? {
            Response::EdgeWeight(weight) => Ok(weight),
            _ => Err(ClientError::Unexpected("EDGE_WEIGHT")),
        }
    }

    /// 1-hop successor query.
    pub fn successors(&mut self, vertex: u64) -> Result<Vec<u64>, ClientError> {
        match self.call(&Request::Successors { vertex })? {
            Response::Vertices(vertices) => Ok(vertices),
            _ => Err(ClientError::Unexpected("VERTICES")),
        }
    }

    /// 1-hop precursor query.
    pub fn precursors(&mut self, vertex: u64) -> Result<Vec<u64>, ClientError> {
        match self.call(&Request::Precursors { vertex })? {
            Response::Vertices(vertices) => Ok(vertices),
            _ => Err(ClientError::Unexpected("VERTICES")),
        }
    }

    /// Reachability query.  `max_hops` is the search's visited-vertex budget, not a
    /// hop count; `0` searches exhaustively.  Only an exhaustive `false` is the
    /// sketch's one-sided "no path": a `false` under a budget may just mean the
    /// budget ran out (see [`Request::Reachable`]).
    pub fn reachable(
        &mut self,
        source: u64,
        destination: u64,
        max_hops: u32,
    ) -> Result<bool, ClientError> {
        match self.call(&Request::Reachable { source, destination, max_hops })? {
            Response::Bool(answer) => Ok(answer),
            _ => Err(ClientError::Unexpected("BOOL")),
        }
    }

    /// Checkpoints the bound tenant's shards to disk.
    pub fn snapshot(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Snapshot)? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::Unexpected("OK")),
        }
    }

    /// The bound tenant's statistics and durability account.
    pub fn stats(&mut self) -> Result<WireStats, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            _ => Err(ClientError::Unexpected("STATS")),
        }
    }

    /// Server liveness: `(open namespaces, active connections)`.  Needs no HELLO.
    pub fn health(&mut self) -> Result<(u32, u32), ClientError> {
        match self.call(&Request::Health)? {
            Response::Health { namespaces, connections } => Ok((namespaces, connections)),
            _ => Err(ClientError::Unexpected("HEALTH")),
        }
    }

    /// Sends raw bytes and reads one frame back — the byte-level conformance hook
    /// `gss-client wirecheck` uses.  Not part of the normal API surface.
    pub fn raw_exchange(&mut self, bytes: &[u8]) -> Result<(u8, Vec<u8>), ClientError> {
        self.conn.write_raw(bytes)?;
        Ok(self.conn.read_frame()?)
    }
}
