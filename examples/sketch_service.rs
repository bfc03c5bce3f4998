//! A multi-tenant sketch service, end to end in one process.
//!
//! Boots a `gss-server` on a random port with two tenants — a rate-limited
//! `payments` namespace and a `telemetry` namespace on a wider sync window — then
//! drives both through `GssClient` over real TCP: batch ingest, edge / successor /
//! reachability queries, a snapshot, and the per-tenant statistics with their
//! honest durability account.
//!
//! Run with: `cargo run --example sketch_service`

use gss_server::{GssClient, Server, ServerConfig};

fn main() {
    let data_dir = std::env::temp_dir().join(format!("gss-service-demo-{}", std::process::id()));
    std::fs::remove_dir_all(&data_dir).ok();

    // Two tenants with independent knobs: `payments` is rate-limited, `telemetry` syncs
    // its logs on a wider group-commit window.  Both acknowledge only logged items.
    let config = ServerConfig::parse(
        "tenant payments  token=pay-secret durability=strict shards=2 width=128 rate=100000\n\
         tenant telemetry token=tel-secret durability=strict shards=2 width=128 \
         group_delay_us=50000",
    )
    .expect("valid tenant configuration");
    let server =
        Server::bind("127.0.0.1:0", data_dir.clone(), config, 16).expect("bind a loopback port");
    let handle = server.spawn().expect("spawn the accept loop");
    println!("serving on {}", handle.addr());

    // The payments tenant: a chain of transfers, strictly durable.
    let mut payments = GssClient::connect(handle.addr()).expect("connect");
    payments.hello("payments", "pay-secret").expect("authenticate");
    let transfers: Vec<(u64, u64, i64)> =
        (1..=500).map(|account| (account, account + 1, 100 * account as i64)).collect();
    let ack = payments.ingest(&transfers).expect("ingest transfers");
    println!(
        "payments: ingested {} transfers (ack durability mode {})",
        ack.accepted, ack.durability
    );
    println!(
        "payments: account 41 -> 42 moved {:?}, 42 reachable from 1: {}",
        payments.edge(41, 42).expect("edge query"),
        payments.reachable(1, 42, 0).expect("reachability query"),
    );
    payments.snapshot().expect("checkpoint payments to disk");

    // The telemetry tenant: a star of sensor readings.
    let mut telemetry = GssClient::connect(handle.addr()).expect("connect");
    telemetry.hello("telemetry", "tel-secret").expect("authenticate");
    let readings: Vec<(u64, u64, i64)> =
        (1..=1000).map(|sensor| (sensor % 50, 10_000 + sensor, 1)).collect();
    telemetry.ingest(&readings).expect("ingest readings");
    let mut fanout = telemetry.successors(7).expect("successor query");
    fanout.sort_unstable();
    println!("telemetry: sensor hub 7 feeds {} sinks", fanout.len());

    // Tenants are invisible to each other: payments edges do not exist in telemetry.
    assert_eq!(telemetry.edge(41, 42).expect("cross-tenant probe"), None);

    for (name, client) in [("payments", &mut payments), ("telemetry", &mut telemetry)] {
        let stats = client.stats().expect("stats");
        println!(
            "{name}: {} items over {} shards, {} matrix edges, poisoned={}, \
             acked={} durable={} breached={}",
            stats.items_inserted,
            stats.shards,
            stats.matrix_edges,
            stats.poisoned,
            stats.acked_items,
            stats.durable_items,
            stats.breached_items,
        );
    }

    drop((payments, telemetry));
    handle.shutdown();
    std::fs::remove_dir_all(&data_dir).ok();
    println!("done");
}
