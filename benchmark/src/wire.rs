//! Driving the shipped `gss-server` binary: the child process (pinned, always reaped),
//! a framed connection, and the two timed units of rule 2 — the depth-1 ingest batch
//! and the pipelined query burst.

use crate::inputs::{Direction, Inputs, Stage};
use crate::machine::CpuSet;
use gss_server::protocol::{self, Request, Response, WireEdge};
use gss_server::FrameConn;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub const TENANT: &str = "bench";
pub const TOKEN: &str = "bench-token";
/// A burst's request bytes stay at or below this, so the single `write_raw` always fits
/// the socket buffers and can never block against responses nobody is reading yet.
pub const MAX_BURST_REQUEST_BYTES: usize = 16 * 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Edge,
    Succ,
    Prec,
    Reach,
}

impl Verb {
    pub const ALL: [Verb; 4] = [Verb::Edge, Verb::Succ, Verb::Prec, Verb::Reach];

    /// Position in [`Verb::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            Verb::Edge => "edge",
            Verb::Succ => "succ",
            Verb::Prec => "prec",
            Verb::Reach => "reach",
        }
    }

    /// Requests per pipelined burst on the wire.
    pub fn burst(self) -> usize {
        match self {
            Verb::Edge => 512,
            Verb::Succ => 64,
            Verb::Prec => 8,
            Verb::Reach => 64,
        }
    }

    /// Calls per timed block in-process (`lib_memory` and the rings).  Every block is a
    /// whole number of wire bursts, so a ring block and the wire span that replays the
    /// same queries cover exactly the same requests.
    pub fn block(self) -> usize {
        match self {
            Verb::Edge => 4096,
            Verb::Succ => 128,
            Verb::Prec => 64,
            Verb::Reach => 64,
        }
    }

    pub fn pool_len(self, inputs: &Inputs) -> usize {
        match self {
            Verb::Edge => inputs.edge_pool.len(),
            Verb::Succ => inputs.succ_pool.len(),
            Verb::Prec => inputs.prec_pool.len(),
            Verb::Reach => inputs.reach_pool.len(),
        }
    }

    /// The `slot`-th query of this verb's pool (pools are cycled).
    pub fn request(self, inputs: &Inputs, slot: usize) -> Request {
        let slot = slot % self.pool_len(inputs);
        match self {
            Verb::Edge => {
                let q = inputs.edge_pool[slot];
                Request::Edge { source: q.source, destination: q.destination }
            }
            Verb::Succ => Request::Successors { vertex: inputs.succ_pool[slot] },
            Verb::Prec => Request::Precursors { vertex: inputs.prec_pool[slot] },
            Verb::Reach => {
                let (source, destination) = inputs.reach_pool[slot];
                // 0 = exhaustive; see `Inputs::reach_pool` for why a cap cannot be checked.
                Request::Reachable { source, destination, max_hops: 0 }
            }
        }
    }

    /// Whether `response` honours the one-sided-error contract for the `slot`-th query.
    pub fn response_ok(self, inputs: &Inputs, slot: usize, response: &Response, at: Stage) -> bool {
        let slot = slot % self.pool_len(inputs);
        match (self, response) {
            (Verb::Edge, Response::EdgeWeight(weight)) => {
                inputs.edge_ok(&inputs.edge_pool[slot], *weight, at)
            }
            (Verb::Succ, Response::Vertices(answer)) => {
                inputs.neighbors_ok(inputs.succ_pool[slot], answer, at, Direction::Successors)
            }
            (Verb::Prec, Response::Vertices(answer)) => {
                inputs.neighbors_ok(inputs.prec_pool[slot], answer, at, Direction::Precursors)
            }
            (Verb::Reach, Response::Bool(reachable)) => *reachable,
            _ => false,
        }
    }
}

/// Requests sent and requests that failed (transport or server error, wrong answer).
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The stream items `indices` name, as the wire carries them (weight 1, rule 6).
pub fn wire_batch(inputs: &Inputs, indices: &[u32]) -> Vec<WireEdge> {
    indices
        .iter()
        .map(|&index| {
            let (source, destination) = inputs.universe[index as usize];
            WireEdge { source, destination, weight: 1 }
        })
        .collect()
}

/// The child server.  Dropping it kills and reaps the process, so no run — finished,
/// failed or panicking — leaves a server behind.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    /// Spawn until the first HEALTH reply.
    pub spawn_ready_s: f64,
}

impl ServerProc {
    pub fn spawn(
        binary: &Path,
        data_dir: &Path,
        config: &Path,
        cpus: Option<&CpuSet>,
    ) -> Result<Self, String> {
        let started = Instant::now();
        let mut command = Command::new(binary);
        command
            .args(["--listen", "127.0.0.1:0", "--data-dir"])
            .arg(data_dir)
            .arg("--config")
            .arg(config)
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        if let Some(cpus) = cpus.cloned() {
            // SAFETY: the closure runs in the forked child before exec and only makes
            // the `sched_setaffinity` syscall from stack data (`CpuSet::pin_current_thread`
            // allocates nothing and takes no lock), which is async-signal-safe.
            unsafe {
                command.pre_exec(move || {
                    cpus.pin_current_thread();
                    Ok(())
                });
            }
        }
        let mut child =
            command.spawn().map_err(|e| format!("cannot spawn {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|addr| addr.parse::<SocketAddr>().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server did not announce its address ({read:?}, `{line}`)"));
        };
        let mut server = Self { child, addr, spawn_ready_s: 0.0 };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let healthy = Conn::connect(addr)
                .and_then(|mut conn| conn.call(&Request::Health))
                .is_ok_and(|response| matches!(response, Response::Health { .. }));
            if healthy {
                break;
            }
            if Instant::now() > deadline {
                return Err("server never answered HEALTH".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        server.spawn_ready_s = started.elapsed().as_secs_f64();
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `SIGKILL`, then wait until the process is gone.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.reap();
    }
}

/// One connection, used both ping-pong (`call`) and pipelined (`burst`).
pub struct Conn {
    conn: FrameConn,
    request_bytes: Vec<u8>,
    responses: Vec<Response>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let conn = FrameConn::new(stream).map_err(|e| format!("socket setup: {e}"))?;
        // A dead server must fail the run, not hang it.
        conn.set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| format!("socket setup: {e}"))?;
        Ok(Self { conn, request_bytes: Vec::new(), responses: Vec::new() })
    }

    /// Connects and binds the connection to the benchmark tenant.
    pub fn hello(addr: SocketAddr, tenant: &str) -> Result<Self, String> {
        let mut conn = Self::connect(addr)?;
        match conn.call(&Request::Hello { tenant: tenant.into(), token: TOKEN.into() })? {
            Response::Ok => Ok(conn),
            other => Err(format!("HELLO {tenant} refused: {other:?}")),
        }
    }

    fn read_response(&mut self) -> Result<Response, String> {
        let (kind, payload) = self.conn.read_frame().map_err(|e| format!("read: {e}"))?;
        protocol::decode_response(kind, &payload).map_err(|e| format!("decode: {e}"))
    }

    /// One request, one response.
    pub fn call(&mut self, request: &Request) -> Result<Response, String> {
        self.conn
            .write_frame(&protocol::encode_request(request))
            .map_err(|e| format!("write: {e}"))?;
        self.read_response()
    }

    /// `call`, requiring the plain OK a SNAPSHOT answers with.
    pub fn snapshot(&mut self) -> Result<(), String> {
        match self.call(&Request::Snapshot)? {
            Response::Ok => Ok(()),
            other => Err(format!("SNAPSHOT failed: {other:?}")),
        }
    }

    /// Sends one INGEST batch at depth 1 and returns the send→ack time (encode and
    /// decode included: a client pays them, and the `protocol` ring subtracts them).
    /// An answer other than a full acknowledgement counts as a failed request.
    pub fn ingest(&mut self, items: Vec<WireEdge>, ops: &mut Ops) -> Result<Duration, String> {
        let count = items.len() as u64;
        let request = Request::Ingest { items };
        let started = Instant::now();
        let response = self.call(&request)?;
        let elapsed = started.elapsed();
        ops.attempted += 1;
        if !matches!(response, Response::Ingested { accepted, .. } if accepted == count) {
            ops.failed += 1;
        }
        Ok(elapsed)
    }

    /// Sends `items` in `batch`-sized INGEST frames; returns the per-batch ack times.
    pub fn ingest_all(
        &mut self,
        inputs: &Inputs,
        items: &[u32],
        batch: usize,
        ops: &mut Ops,
    ) -> Result<Vec<Duration>, String> {
        items.chunks(batch).map(|chunk| self.ingest(wire_batch(inputs, chunk), ops)).collect()
    }

    /// One pipelined burst of `count` queries starting at pool slot `first`: encode all
    /// frames, one `write_raw`, then `count` reads.  Returns the wall time of exactly
    /// that; answers are checked against the oracle after the clock has stopped.
    pub fn burst(
        &mut self,
        inputs: &Inputs,
        verb: Verb,
        first: usize,
        count: usize,
        at: Stage,
        ops: &mut Ops,
    ) -> Result<Duration, String> {
        let started = Instant::now();
        self.request_bytes.clear();
        for slot in first..first + count {
            self.request_bytes
                .extend_from_slice(&protocol::encode_request(&verb.request(inputs, slot)));
        }
        debug_assert!(self.request_bytes.len() <= MAX_BURST_REQUEST_BYTES);
        self.conn.write_raw(&self.request_bytes).map_err(|e| format!("write: {e}"))?;
        self.responses.clear();
        for _ in 0..count {
            let response = self.read_response()?;
            self.responses.push(response);
        }
        let elapsed = started.elapsed();
        ops.attempted += count as u64;
        for (offset, response) in self.responses.iter().enumerate() {
            if !verb.response_ok(inputs, first + offset, response, at) {
                ops.failed += 1;
            }
        }
        Ok(elapsed)
    }

    /// The responses of the last [`burst`](Self::burst) (the `protocol` ring re-encodes
    /// exactly these).
    pub fn last_responses(&self) -> &[Response] {
        &self.responses
    }
}

/// Where the shipped server binary is: `$GSS_SERVER_BIN`, else the root manifest's
/// release output under `$CARGO_TARGET_DIR` or `target/`.
pub fn server_binary() -> Result<PathBuf, String> {
    let path = std::env::var_os("GSS_SERVER_BIN").map(PathBuf::from).unwrap_or_else(|| {
        let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
        PathBuf::from(target).join("release/gss-server")
    });
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found — build it from the repo root with \
             `cargo build --release -p gss-server` (benchmark/run.sh does)",
            path.display()
        ))
    }
}

/// Total bytes of the regular files directly inside `dir` (a tenant directory is flat).
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("stat {}: {e}", dir.display()))? {
        let meta = entry.and_then(|e| e.metadata()).map_err(|e| format!("stat: {e}"))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_burst_exceeds_16_kib_of_requests() {
        // Frame sizes are a property of the verb, not of the values; encode one of each.
        let frames = [
            (Verb::Edge, Request::Edge { source: u64::MAX, destination: u64::MAX }),
            (Verb::Succ, Request::Successors { vertex: u64::MAX }),
            (Verb::Prec, Request::Precursors { vertex: u64::MAX }),
            (Verb::Reach, Request::Reachable { source: u64::MAX, destination: 0, max_hops: 0 }),
        ];
        for (verb, request) in frames {
            let frame = protocol::encode_request(&request).len();
            assert!(
                verb.burst() * frame <= MAX_BURST_REQUEST_BYTES,
                "{} burst is {} bytes",
                verb.name(),
                verb.burst() * frame
            );
            assert_eq!(verb.block() % verb.burst(), 0, "{} block is whole bursts", verb.name());
        }
    }
}
