//! The `gss-client` binary: a small command-line driver over [`gss_server::GssClient`],
//! built for the CI smoke job and for poking a live server by hand.
//!
//! ```text
//! gss-client --addr HOST:PORT [--tenant NAME --token TOKEN] COMMAND...
//!
//!   health                      liveness probe (no tenant needed)
//!   ingest N [--batch B]        ingest the deterministic chain 1→2→…→N in batches,
//!                               printing `acked K` after each acknowledged batch
//!   verify N                    re-derive the chain and check every edge weight
//!   edge SRC DST                print the edge weight or `absent`
//!   successors V                print the successor list
//!   reachable SRC DST [HOPS]    print `true`/`false`
//!   snapshot                    checkpoint the tenant's shards
//!   stats                       print tenant statistics and the durability account
//!   poison-check                expect ingest to fail with a 0x02xx store error
//!   wirecheck                   byte-level protocol conformance against the server
//! ```
//!
//! The deterministic chain for `ingest`/`verify` is edges `(i, i+1)` with weight
//! `i` for `i` in `1..=N`: a client that was killed mid-ingest can be re-verified
//! up to its last printed `acked K` line, which is exactly what the CI smoke job's
//! SIGKILL-and-restart pass does.

use gss_server::protocol::{self, Request, Response};
use gss_server::{ClientError, GssClient};
use std::io::Write;
use std::process::ExitCode;

fn chain_edge(i: u64) -> (u64, u64, i64) {
    (i, i + 1, i as i64)
}

struct Cli {
    addr: String,
    tenant: Option<String>,
    token: Option<String>,
    command: Vec<String>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli { addr: String::new(), tenant: None, token: None, command: Vec::new() };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.peek() {
        match flag.as_str() {
            "--addr" => {
                argv.next();
                cli.addr = argv.next().ok_or("--addr needs a value")?;
            }
            "--tenant" => {
                argv.next();
                cli.tenant = Some(argv.next().ok_or("--tenant needs a value")?);
            }
            "--token" => {
                argv.next();
                cli.token = Some(argv.next().ok_or("--token needs a value")?);
            }
            _ => break,
        }
    }
    cli.command = argv.collect();
    if cli.addr.is_empty() {
        return Err("--addr HOST:PORT is required".to_string());
    }
    if cli.command.is_empty() {
        return Err("a command is required".to_string());
    }
    Ok(cli)
}

fn connect(cli: &Cli, with_tenant: bool) -> Result<GssClient, String> {
    let mut client =
        GssClient::connect(&cli.addr).map_err(|e| format!("connect {}: {e}", cli.addr))?;
    if with_tenant {
        let tenant = cli.tenant.as_deref().ok_or("--tenant is required for this command")?;
        let token = cli.token.as_deref().ok_or("--token is required for this command")?;
        client.hello(tenant, token).map_err(|e| format!("hello: {e}"))?;
    }
    Ok(client)
}

fn parse<T: std::str::FromStr>(word: Option<&String>, what: &str) -> Result<T, String> {
    word.ok_or_else(|| format!("{what} is required"))?.parse().map_err(|_| format!("bad {what}"))
}

fn run(cli: &Cli) -> Result<(), String> {
    let command = &cli.command;
    match command[0].as_str() {
        "health" => {
            let (namespaces, connections) =
                connect(cli, false)?.health().map_err(|e| format!("health: {e}"))?;
            println!("namespaces {namespaces} connections {connections}");
        }
        "ingest" => {
            let count: u64 = parse(command.get(1), "count")?;
            let batch_size: u64 = match command.get(2).map(String::as_str) {
                Some("--batch") => parse(command.get(3), "batch size")?,
                _ => 50,
            };
            let mut client = connect(cli, true)?;
            let mut acked = 0u64;
            while acked < count {
                let upto = (acked + batch_size.max(1)).min(count);
                let batch: Vec<_> = (acked + 1..=upto).map(chain_edge).collect();
                client.ingest(&batch).map_err(|e| format!("ingest: {e}"))?;
                acked = upto;
                // One line per acknowledged batch: the smoke job's kill-and-restart
                // pass replays the last `acked K` line as its recovery floor.
                println!("acked {acked}");
                std::io::stdout().flush().ok();
            }
        }
        "verify" => {
            let count: u64 = parse(command.get(1), "count")?;
            let mut client = connect(cli, true)?;
            for i in 1..=count {
                let (source, destination, weight) = chain_edge(i);
                let got = client
                    .edge(source, destination)
                    .map_err(|e| format!("edge {source}->{destination}: {e}"))?;
                // A sketch may over-count under collisions but an acked chain edge
                // must never vanish or under-count.
                match got {
                    Some(w) if w >= weight => {}
                    other => {
                        return Err(format!(
                            "edge {source}->{destination}: expected >= {weight}, got {other:?}"
                        ))
                    }
                }
            }
            println!("verified {count}");
        }
        "edge" => {
            let source = parse(command.get(1), "source")?;
            let destination = parse(command.get(2), "destination")?;
            match connect(cli, true)?.edge(source, destination).map_err(|e| e.to_string())? {
                Some(weight) => println!("{weight}"),
                None => println!("absent"),
            }
        }
        "successors" => {
            let vertex = parse(command.get(1), "vertex")?;
            let mut vertices = connect(cli, true)?.successors(vertex).map_err(|e| e.to_string())?;
            vertices.sort_unstable();
            println!("{vertices:?}");
        }
        "reachable" => {
            let source = parse(command.get(1), "source")?;
            let destination = parse(command.get(2), "destination")?;
            let hops: u32 =
                command.get(3).map_or(Ok(0), |w| w.parse().map_err(|_| "bad hops".to_string()))?;
            let answer = connect(cli, true)?
                .reachable(source, destination, hops)
                .map_err(|e| e.to_string())?;
            println!("{answer}");
        }
        "snapshot" => {
            connect(cli, true)?.snapshot().map_err(|e| format!("snapshot: {e}"))?;
            println!("snapshot ok");
        }
        "stats" => {
            let stats = connect(cli, true)?.stats().map_err(|e| format!("stats: {e}"))?;
            println!(
                "items {} matrix_edges {} buffered_edges {} shards {} poisoned {} \
                 acked {} durable {} breached {}",
                stats.items_inserted,
                stats.matrix_edges,
                stats.buffered_edges,
                stats.shards,
                stats.poisoned,
                stats.acked_items,
                stats.durable_items,
                stats.breached_items,
            );
        }
        "poison-check" => poison_check(cli)?,
        "wirecheck" => wirecheck(cli)?,
        other => return Err(format!("unknown command `{other}`")),
    }
    Ok(())
}

/// Asserts the fail-stop contract over the wire: ingest into a poisoned tenant must
/// come back as a typed `0x02xx` store-failed error on a connection that stays
/// open and keeps answering queries.
fn poison_check(cli: &Cli) -> Result<(), String> {
    let mut client = connect(cli, true)?;
    match client.ingest(&[(1, 2, 1)]) {
        Err(ClientError::Server { code, message }) if code & 0xFF00 == 0x0200 => {
            println!("poisoned ok: {code:#06x} {message}");
        }
        other => return Err(format!("expected a 0x02xx store error, got {other:?}")),
    }
    // The error above must not have cost us the connection.
    client.edge(1, 2).map_err(|e| format!("query after poison error: {e}"))?;
    println!("connection survived");
    Ok(())
}

/// Byte-level protocol conformance against a live server: pinned frame layout,
/// typed rejection of garbage and of lying length fields, and liveness afterwards.
fn wirecheck(cli: &Cli) -> Result<(), String> {
    // 1. The HEALTH frame layout is pinned: build it byte-by-byte and require the
    //    library encoder to agree exactly, then require the server to answer it.
    let mut handmade = Vec::new();
    handmade.extend_from_slice(b"GSSP");
    handmade.push(protocol::VERSION);
    handmade.push(0x09); // HEALTH opcode
    handmade.extend_from_slice(&0u32.to_le_bytes());
    handmade.extend_from_slice(&gss_core::crc32(&handmade.clone()).to_le_bytes());
    let encoded = protocol::encode_request(&Request::Health);
    if handmade != encoded {
        return Err(format!("frame layout drifted: {handmade:02x?} vs {encoded:02x?}"));
    }
    let mut client = connect(cli, false)?;
    let (kind, payload) = client.raw_exchange(&handmade).map_err(|e| format!("raw health: {e}"))?;
    match protocol::decode_response(kind, &payload) {
        Ok(Response::Health { .. }) => println!("wirecheck: pinned health frame ok"),
        other => return Err(format!("raw health answered {other:?}")),
    }

    // 2. Garbage bytes must earn a typed PROTOCOL error frame, not a hang or crash.
    let mut client = connect(cli, false)?;
    let (kind, payload) = client
        .raw_exchange(b"HTTP/1.1 GET /metrics not a gss frame")
        .map_err(|e| format!("garbage exchange: {e}"))?;
    match protocol::decode_response(kind, &payload) {
        Ok(Response::Error { code, .. }) if code == protocol::err::PROTOCOL => {
            println!("wirecheck: garbage rejected with PROTOCOL error");
        }
        other => return Err(format!("garbage answered {other:?}")),
    }

    // 3. A lying length field (4 GiB payload) must be rejected from the header
    //    alone — before any allocation — with the same typed error.
    let mut oversized = Vec::new();
    oversized.extend_from_slice(b"GSSP");
    oversized.push(protocol::VERSION);
    oversized.push(0x09);
    oversized.extend_from_slice(&u32::MAX.to_le_bytes());
    oversized.extend_from_slice(&[0, 0, 0, 0]);
    let mut client = connect(cli, false)?;
    let (kind, payload) =
        client.raw_exchange(&oversized).map_err(|e| format!("oversized exchange: {e}"))?;
    match protocol::decode_response(kind, &payload) {
        Ok(Response::Error { code, .. }) if code == protocol::err::PROTOCOL => {
            println!("wirecheck: oversized length rejected with PROTOCOL error");
        }
        other => return Err(format!("oversized answered {other:?}")),
    }

    // 4. And the server is still alive for well-formed clients.
    connect(cli, false)?.health().map_err(|e| format!("health after abuse: {e}"))?;
    println!("wirecheck: server healthy after abuse");
    Ok(())
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("gss-client: {message}");
            return ExitCode::FAILURE;
        }
    };
    match run(&cli) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("gss-client: {message}");
            ExitCode::FAILURE
        }
    }
}
