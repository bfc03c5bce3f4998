//! The serving loop: a bounded thread-per-connection TCP accept loop dispatching
//! GSSP frames against the tenant registry.
//!
//! Failure discipline mirrors the core's fail-stop model on the wire: a poisoned
//! tenant store surfaces as a **typed error response** (`0x02xx`, carrying
//! [`gss_core::GssError::wire_code`]) and the connection stays open for queries —
//! it is never a dropped socket.  Only transport death and unrecoverable framing
//! damage close a connection.

use crate::namespace::{NamespaceRegistry, ServerConfig, ServiceError};
use crate::net::{FrameConn, FrameError};
use crate::protocol::{self, err, Request, Response};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Default cap on concurrent connections.
pub const DEFAULT_MAX_CONNECTIONS: usize = 64;
/// A connection that stays silent this long — sends nothing, or sends requests and
/// never reads the answers — is closed so it cannot pin a connection-cap slot forever.
pub const READ_TIMEOUT: Duration = Duration::from_secs(60);
/// The request-payload and response-frame buffers a connection keeps across frames
/// are cut back to this, so one 8 MiB exchange leaves no standing memory behind.
const RETAINED_BUFFER_BYTES: usize = 64 * 1024;

/// Shared server state: the registry plus the connection accounting.
struct Shared {
    registry: NamespaceRegistry,
    connections: AtomicUsize,
    max_connections: usize,
    shutdown: AtomicBool,
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// Handle to a server running on a background thread (integration tests); dropping
/// it does **not** stop the server — call [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the acceptor thread.  In-flight connection
    /// threads finish their current request and exit on their next read.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.thread.join();
    }
}

impl Server {
    /// Binds the listener and loads the tenant registry.  `addr` may use port 0 to
    /// let the OS pick (tests and the CI smoke job do).
    pub fn bind(
        addr: &str,
        data_dir: PathBuf,
        config: ServerConfig,
        max_connections: usize,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let shared = Arc::new(Shared {
            registry: NamespaceRegistry::new(data_dir, config),
            connections: AtomicUsize::new(0),
            max_connections: max_connections.max(1),
            shutdown: AtomicBool::new(false),
        });
        Ok(Self { listener, shared })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the accept loop on the current thread until shutdown is requested.
    pub fn run(self) {
        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(stream) => stream,
                // Transient accept errors (EMFILE pressure, aborted handshakes)
                // must not kill the acceptor.
                Err(_) => continue,
            };
            let shared = Arc::clone(&self.shared);
            let previous = shared.connections.fetch_add(1, Ordering::SeqCst);
            if previous >= shared.max_connections {
                shared.connections.fetch_sub(1, Ordering::SeqCst);
                // Best-effort BUSY frame; the client may also just see the close.
                if let Ok(mut conn) = FrameConn::new(stream) {
                    let busy = Response::Error {
                        code: err::BUSY,
                        message: "connection cap reached".to_string(),
                    };
                    if conn.write_frame(&protocol::encode_response(&busy)).is_ok() {
                        let _ = conn.flush();
                    }
                }
                continue;
            }
            thread::spawn(move || {
                let _guard = ConnectionGuard(&shared.connections);
                serve_connection(stream, &shared);
            });
        }
    }

    /// Runs the server on a background thread and returns a handle (tests).
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shared = Arc::clone(&self.shared);
        let thread = thread::spawn(move || self.run());
        Ok(ServerHandle { addr, shared, thread })
    }
}

/// Decrements the live-connection count when a connection thread exits, however it
/// exits.
struct ConnectionGuard<'a>(&'a AtomicUsize);

impl Drop for ConnectionGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One connection's lifetime: frames in, frames out, until EOF, timeout, framing
/// damage or shutdown.
fn serve_connection(stream: TcpStream, shared: &Shared) {
    let Ok(mut conn) = FrameConn::new(stream) else { return };
    let _ = conn.set_read_timeout(Some(READ_TIMEOUT));
    let _ = conn.set_write_timeout(Some(READ_TIMEOUT));
    serve_frames(&mut conn, shared);
    // Whatever ended the conversation, the answers already produced — the typed
    // PROTOCOL error among them — go out before the socket closes.
    let _ = conn.flush();
}

/// The frame loop of [`serve_connection`].  Answers are queued on the connection,
/// which writes them out before it next blocks on the client: a request at a time
/// costs one write per answer, a pipelined burst one write per few KiB of answers.
fn serve_frames(conn: &mut FrameConn, shared: &Shared) {
    // The tenant this connection is bound to after a successful HELLO.
    let mut bound: Option<Arc<crate::namespace::Namespace>> = None;
    let mut payload = Vec::new();
    let mut frame = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let response = match conn.read_frame_into(&mut payload) {
            Err(FrameError::Io(_)) => return,
            Err(FrameError::Protocol(damage)) => {
                // Framing damage means the byte stream can no longer be resynced:
                // answer with the typed error, then close.
                let response = Response::Error { code: err::PROTOCOL, message: damage.to_string() };
                encode_answer(&response, &mut frame);
                let _ = conn.write_frame(&frame);
                return;
            }
            Ok(kind) => match protocol::decode_request(kind, &payload) {
                // A malformed payload inside a well-framed message leaves the stream
                // intact, so the connection survives.
                Err(damage) => Response::Error { code: err::PROTOCOL, message: damage.to_string() },
                Ok(request) => dispatch(request, &mut bound, shared),
            },
        };
        encode_answer(&response, &mut frame);
        if conn.write_frame(&frame).is_err() {
            return;
        }
        for buffer in [&mut payload, &mut frame] {
            buffer.clear();
            buffer.shrink_to(RETAINED_BUFFER_BYTES);
        }
    }
}

/// Overwrites `frame` with `response` as one frame.  An answer over the frame cap (the
/// neighbour list of a hub with more than a million neighbours) would be refused by
/// every conforming client as framing damage, so it goes out as a typed error instead.
fn encode_answer(response: &Response, frame: &mut Vec<u8>) {
    frame.clear();
    if let Err(oversized) = protocol::encode_response_into(response, frame) {
        let refusal = Response::Error {
            code: err::ANSWER_TOO_LARGE,
            message: format!("the answer does not fit one frame: {oversized}"),
        };
        protocol::encode_response_into(&refusal, frame)
            .expect("an ERROR frame carries at most a 64 KiB message");
    }
}

/// Answers one decoded request against the connection's session state.
fn dispatch(
    request: Request,
    bound: &mut Option<Arc<crate::namespace::Namespace>>,
    shared: &Shared,
) -> Response {
    // HEALTH is the only unauthenticated request — load balancers and the CI smoke
    // job probe it before any tenant exists.
    if let Request::Health = request {
        return Response::Health {
            namespaces: shared.registry.open_count() as u32,
            connections: shared.connections.load(Ordering::SeqCst) as u32,
        };
    }
    if let Request::Hello { tenant, token } = &request {
        return match shared.registry.resolve(tenant, token) {
            Ok(namespace) => {
                *bound = Some(namespace);
                Response::Ok
            }
            Err(error) => error_response(error),
        };
    }
    let Some(namespace) = bound.as_ref() else {
        return Response::Error { code: err::AUTH_REQUIRED, message: "HELLO first".to_string() };
    };
    // Rate limiting: one token per request, one per ingested item.
    let cost = match &request {
        Request::Ingest { items } => (items.len() as u64).max(1),
        _ => 1,
    };
    if !namespace.admit(cost) {
        return Response::Error {
            code: err::RATE_LIMITED,
            message: format!("tenant `{}` is over its rate limit", namespace.name),
        };
    }
    match request {
        Request::Hello { .. } | Request::Health => unreachable!("handled above"),
        Request::Ingest { items } => match namespace.ingest(&items) {
            Ok((accepted, acked_total)) => Response::Ingested {
                accepted,
                acked_total,
                durability: protocol::DURABILITY_STRICT,
            },
            Err(error) => error_response(error),
        },
        Request::Edge { source, destination } => {
            Response::EdgeWeight(namespace.edge_weight(source, destination))
        }
        Request::Successors { vertex } => Response::Vertices(namespace.successors(vertex)),
        Request::Precursors { vertex } => Response::Vertices(namespace.precursors(vertex)),
        Request::Reachable { source, destination, max_hops } => {
            Response::Bool(namespace.reachable(source, destination, max_hops))
        }
        Request::Snapshot => match namespace.snapshot() {
            Ok(()) => Response::Ok,
            Err(error) => error_response(error),
        },
        Request::Stats => Response::Stats(namespace.stats()),
    }
}

fn error_response(error: ServiceError) -> Response {
    Response::Error { code: error.code, message: error.message }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientError, GssClient};

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gss-server-{tag}-{}", std::process::id()))
    }

    fn boot(tag: &str, config: &str, max_connections: usize) -> (ServerHandle, PathBuf) {
        let dir = temp_dir(tag);
        let config = ServerConfig::parse(config).unwrap();
        let server = Server::bind("127.0.0.1:0", dir.clone(), config, max_connections).unwrap();
        (server.spawn().unwrap(), dir)
    }

    #[test]
    fn hello_ingest_query_snapshot_round_trip() {
        let (handle, dir) = boot("rt", "tenant alpha token=secret shards=2 width=64", 8);
        let mut client = GssClient::connect(handle.addr()).unwrap();

        let health = client.health().unwrap();
        assert_eq!(health.0, 0, "no namespace opened before first HELLO");

        client.hello("alpha", "secret").unwrap();
        let ack = client.ingest(&[(1, 2, 3), (2, 3, 4), (1, 3, 9)]).unwrap();
        assert_eq!(ack.accepted, 3);
        assert_eq!(ack.acked_total, 3);

        assert_eq!(client.edge(1, 2).unwrap(), Some(3));
        assert_eq!(client.edge(9, 9).unwrap(), None);
        let mut successors = client.successors(1).unwrap();
        successors.sort_unstable();
        assert_eq!(successors, vec![2, 3]);
        assert!(client.reachable(1, 3, 0).unwrap());
        assert!(!client.reachable(3, 1, 0).unwrap());
        client.snapshot().unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.items_inserted, 3);
        assert!(!stats.poisoned);

        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn auth_failures_are_typed_and_do_not_open_stores() {
        let (handle, dir) = boot("auth", "tenant alpha token=secret", 8);
        let mut client = GssClient::connect(handle.addr()).unwrap();

        match client.ingest(&[(1, 2, 3)]) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, err::AUTH_REQUIRED),
            other => panic!("expected AUTH_REQUIRED, got {other:?}"),
        }
        match client.hello("alpha", "wrong") {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, err::AUTH_FAILED),
            other => panic!("expected AUTH_FAILED, got {other:?}"),
        }
        match client.hello("ghost", "secret") {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, err::UNKNOWN_TENANT),
            other => panic!("expected UNKNOWN_TENANT, got {other:?}"),
        }
        let health = client.health().unwrap();
        assert_eq!(health.0, 0, "failed auth must not open a namespace");

        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn connection_cap_answers_busy() {
        let (handle, dir) = boot("cap", "tenant alpha token=secret", 1);
        let mut first = GssClient::connect(handle.addr()).unwrap();
        first.health().unwrap(); // the first connection is established and counted
        let mut second = GssClient::connect(handle.addr()).unwrap();
        match second.health() {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, err::BUSY),
            // The server may close before the BUSY frame flushes; both are in-cap.
            Err(ClientError::Io(_)) => {}
            other => panic!("expected BUSY or close, got {other:?}"),
        }
        drop(second);
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_answer_over_the_frame_cap_goes_out_as_a_typed_error() {
        let mut frame = b"left over from the previous answer".to_vec();
        // 2^20 vertices are 8 MiB of payload plus the four-byte count: just over.
        encode_answer(&Response::Vertices(vec![7; 1 << 20]), &mut frame);
        let (kind, payload, consumed) = protocol::decode_frame(&frame).unwrap();
        assert_eq!(consumed, frame.len());
        match protocol::decode_response(kind, payload).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, err::ANSWER_TOO_LARGE),
            other => panic!("expected ANSWER_TOO_LARGE, got {other:?}"),
        }
        // One vertex fewer fits, and goes out as itself.
        encode_answer(&Response::Vertices(vec![7; (1 << 20) - 1]), &mut frame);
        let (kind, payload, _) = protocol::decode_frame(&frame).unwrap();
        assert_eq!(payload.len(), protocol::MAX_PAYLOAD_BYTES - 4);
        assert!(matches!(protocol::decode_response(kind, payload), Ok(Response::Vertices(_))));
    }

    #[test]
    fn an_ingest_over_the_frame_cap_fails_client_side_and_sends_nothing() {
        let (handle, dir) = boot("bigingest", "tenant alpha token=secret width=64", 8);
        let mut client = GssClient::connect(handle.addr()).unwrap();
        client.hello("alpha", "secret").unwrap();
        let too_many = vec![(1, 2, 1); (protocol::MAX_PAYLOAD_BYTES - 4) / 24 + 1];
        match client.ingest(&too_many) {
            Err(ClientError::Protocol(protocol::ProtocolError::Oversized(_))) => {}
            other => panic!("expected a client-side Oversized, got {other:?}"),
        }
        // Had any byte of it been sent, the server would have closed on framing damage.
        assert_eq!(client.ingest(&too_many[..3]).unwrap().acked_total, 3);
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rate_limited_tenant_gets_a_typed_error() {
        let (handle, dir) = boot("rate", "tenant alpha token=secret rate=5 burst=5", 8);
        let mut client = GssClient::connect(handle.addr()).unwrap();
        client.hello("alpha", "secret").unwrap();
        client.ingest(&[(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1)]).unwrap();
        match client.ingest(&[(6, 7, 1)]) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, err::RATE_LIMITED),
            other => panic!("expected RATE_LIMITED, got {other:?}"),
        }
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
