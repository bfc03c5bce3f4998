//! The traced pass: the same inputs replayed ring by ring, from the outside in.
//!
//! A *ring* is one public entry point of the stack with everything beneath it:
//!
//! ```text
//! wire ⊃ namespace ⊃ sharded_file ⊃ sharded_mem ⊃ hashing        protocol (standalone)
//! ```
//!
//! Each ring starts from the same preloaded state and replays the same *blocks* — the
//! first `ring_items` measured items in batches, then a fixed number of queries per
//! verb — and records one span per block.  A layer's self time is the difference of two
//! neighbouring rings, so the six layers sum to the wire ring by construction; what a
//! difference cannot do is separate a layer from the children it calls (that needs
//! spans inside the program, ROADMAP item 1).
//!
//! The wire ring is run twice, on two tenants of one server: first untraced, then with
//! span recording on.  `bench.trace_overhead_pct` is the difference between the two.

use crate::inputs::{Direction, Inputs, Stage, Volumes};
use crate::json::Json;
use crate::machine;
use crate::metrics::{Report, OPS};
use crate::stats::{median, percentile};
use crate::wire::{self, Conn, Ops, Verb, TOKEN};
use crate::workloads::{
    self, memory_store, mixed_phase, query_block, snapshot_shards, store_ingest, stream_batch, Env,
    Options, Outcome, QueryTarget, INGEST_BATCH, SHARDS,
};
use gss_core::{
    Durability, FileStore, GroupCommit, GssBuilder, GssSketch, GssStats, NodeHasher, ShardedGss,
    MAX_SEQUENCE_LENGTH,
};
use gss_server::protocol::{self, Request, Response};
use gss_server::{GssClient, NamespaceRegistry, ServerConfig};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

const PLAIN: &str = "plain";
const TRACED: &str = "traced";
/// HEALTH ping-pongs behind `net.rtt_*`.
const RTT_SAMPLES: usize = 2_000;
/// Depth-1 `GssClient` calls per verb behind `server.*_depth1_*` (edge, succ, prec, reach).
const DEPTH1_SAMPLES: [usize; 4] = [2_000, 500, 100, 200];
/// Queries behind each accuracy figure.
const ACCURACY_SAMPLES: usize = 10_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Ingest,
    Query(Verb),
}

impl Op {
    const ALL: [Op; 5] = [
        Op::Ingest,
        Op::Query(Verb::Edge),
        Op::Query(Verb::Succ),
        Op::Query(Verb::Prec),
        Op::Query(Verb::Reach),
    ];

    fn index(self) -> usize {
        Op::ALL.iter().position(|&op| op == self).expect("ALL lists every op")
    }

    fn name(self) -> &'static str {
        OPS[self.index()]
    }
}

/// One replayed request: a batch of items or a block of queries.  Every ring replays
/// the same blocks, and the spans of one block share its `id`.
#[derive(Debug, Clone, Copy)]
struct Block {
    id: u32,
    op: Op,
    /// Offset into the measured items, or the first pool slot.
    first: usize,
    count: usize,
}

fn plan(options: &Options, inputs: &Inputs) -> Vec<Block> {
    let spec = options.spec;
    let mut blocks = Vec::new();
    let mut push = |op, first, count| {
        blocks.push(Block { id: blocks.len() as u32, op, first, count });
    };
    for first in (0..inputs.volumes.ingest).step_by(spec.batch) {
        push(Op::Ingest, first, spec.batch.min(inputs.volumes.ingest - first));
    }
    for (verb, &queries) in Verb::ALL.iter().zip(&spec.ring_queries) {
        let queries = options.scaled(queries, verb.block());
        for first in (0..queries).step_by(verb.block()) {
            push(Op::Query(*verb), first, verb.block());
        }
    }
    blocks
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Ring {
    Wire,
    Namespace,
    ShardedFile,
    ShardedMem,
    Hashing,
    Protocol,
}

impl Ring {
    fn name(self) -> &'static str {
        match self {
            Ring::Wire => "wire",
            Ring::Namespace => "namespace",
            Ring::ShardedFile => "sharded_file",
            Ring::ShardedMem => "sharded_mem",
            Ring::Hashing => "hashing",
            Ring::Protocol => "protocol",
        }
    }

    /// The next ring out, whose span of the same block is this ring's parent.
    fn outer(self) -> Option<Ring> {
        match self {
            Ring::Wire => None,
            Ring::Namespace | Ring::Protocol => Some(Ring::Wire),
            Ring::ShardedFile => Some(Ring::Namespace),
            Ring::ShardedMem => Some(Ring::ShardedFile),
            Ring::Hashing => Some(Ring::ShardedMem),
        }
    }
}

struct Span {
    ring: Ring,
    block: Block,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Named counter deltas over one op of one ring.
type Deltas = Vec<(&'static str, f64)>;

/// Spans and counter deltas, kept in memory and written out when the run ends.
struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    by_block: HashMap<(Ring, u32), usize>,
    counters: Vec<(Ring, Op, Deltas)>,
}

impl Trace {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            by_block: HashMap::new(),
            counters: Vec::new(),
        }
    }

    fn record(&mut self, ring: Ring, block: Block, started: Instant, busy: Duration) {
        let start_ns = started.duration_since(self.epoch).as_nanos() as u64;
        let parent = ring.outer().and_then(|outer| self.by_block.get(&(outer, block.id)).copied());
        self.by_block.insert((ring, block.id), self.spans.len());
        self.spans.push(Span {
            ring,
            block,
            parent,
            start_ns,
            end_ns: start_ns + busy.as_nanos() as u64,
        });
    }

    fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, span)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("workload", Json::str(workload)),
                    ("ring", Json::str(span.ring.name())),
                    ("op", Json::str(span.block.op.name())),
                    ("request_id", Json::Num(f64::from(span.block.id))),
                    ("requests", Json::Num(span.block.count as f64)),
                    ("parent", span.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("start_ns", Json::Num(span.start_ns as f64)),
                    ("end_ns", Json::Num(span.end_ns as f64)),
                ])
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(ring, op, deltas)| {
                Json::obj([
                    ("ring", Json::str(ring.name())),
                    ("op", Json::str(op.name())),
                    (
                        "deltas",
                        Json::Obj(
                            deltas.iter().map(|&(k, v)| (k.to_string(), Json::Num(v))).collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::obj([("spans", Json::Arr(spans)), ("counters", Json::Arr(counters))])
    }
}

/// Busy time and request count per op of one ring.
#[derive(Debug, Default, Clone, Copy)]
struct RingTimes {
    busy: [Duration; 5],
    requests: [usize; 5],
}

impl RingTimes {
    /// Nanoseconds per item / per query.
    fn ns(&self, op: Op) -> f64 {
        let i = op.index();
        self.busy[i].as_nanos() as f64 / self.requests[i].max(1) as f64
    }

    fn total(&self) -> Duration {
        self.busy.iter().sum()
    }
}

/// Replays `blocks` through `exec` (which returns the busy time of one block), recording
/// a span per block unless `trace` is `None`.
fn replay(
    ring: Ring,
    blocks: &[Block],
    mut trace: Option<&mut Trace>,
    times: &mut RingTimes,
    mut exec: impl FnMut(&Block) -> Result<Duration, String>,
) -> Result<(), String> {
    for block in blocks {
        let started = Instant::now();
        let busy = exec(block)?;
        if let Some(trace) = trace.as_deref_mut() {
            trace.record(ring, *block, started, busy);
        }
        times.busy[block.op.index()] += busy;
        times.requests[block.op.index()] += block.count;
    }
    Ok(())
}

/// The counters of `GssStats` the file-backed ring reports, as deltas over one op.
fn counter_deltas(before: &GssStats, after: &GssStats) -> Deltas {
    let d = |b: u64, a: u64| a.saturating_sub(b) as f64;
    vec![
        ("page_lookups", d(before.page_lookups, after.page_lookups)),
        ("page_faults", d(before.page_faults, after.page_faults)),
        ("page_latch_waits", d(before.page_latch_waits, after.page_latch_waits)),
        ("pages_flushed", d(before.pages_flushed, after.pages_flushed)),
        ("wal_bytes", d(before.wal_bytes, after.wal_bytes)),
        ("wal_flushes", d(before.wal_flushes, after.wal_flushes)),
        ("wal_group_commits", d(before.wal_group_commits, after.wal_group_commits)),
        ("wal_group_waits", d(before.wal_group_waits, after.wal_group_waits)),
        ("fsyncs", d(before.fsyncs, after.fsyncs)),
        ("checkpoints", d(before.checkpoints, after.checkpoints)),
    ]
}

fn delta(deltas: &[(&'static str, f64)], name: &str) -> f64 {
    deltas.iter().find(|(k, _)| *k == name).map_or(0.0, |&(_, v)| v)
}

fn micros(samples: &[Duration]) -> Vec<f64> {
    samples.iter().map(|d| d.as_secs_f64() * 1e6).collect()
}

/// Everything the wire ring hands to the rest of the pass.
struct WirePass {
    times: RingTimes,
    /// Responses per block id, as the server sent them (the `protocol` ring re-encodes them).
    responses: HashMap<u32, Vec<Response>>,
    ingest_acks: Vec<Duration>,
    solo_ingest_per_s: f64,
    solo_succ_qps: f64,
}

/// Preloads `tenant` (whose files HELLO creates under `data_dir`) and replays the plan
/// over one connection.
fn wire_replay(
    addr: std::net::SocketAddr,
    data_dir: &Path,
    tenant: &str,
    inputs: &Inputs,
    blocks: &[Block],
    trace: Option<&mut Trace>,
    ops: &mut Ops,
) -> Result<WirePass, String> {
    let mut conn = Conn::hello(addr, tenant)?;
    machine::settle_page_cache(&data_dir.join(tenant))?;
    conn.ingest_all(inputs, inputs.preload_items(), INGEST_BATCH, ops)?;
    conn.snapshot()?;

    let mut pass = WirePass {
        times: RingTimes::default(),
        responses: HashMap::new(),
        ingest_acks: Vec::new(),
        solo_ingest_per_s: 0.0,
        solo_succ_qps: 0.0,
    };
    let mut succ_rates = Vec::new();
    let measured = inputs.ingest_items();
    let ingest_started = Instant::now();
    let mut ingest_wall = Duration::ZERO;
    replay(Ring::Wire, blocks, trace, &mut pass.times, |block| match block.op {
        Op::Ingest => {
            let items = wire::wire_batch(inputs, &measured[block.first..block.first + block.count]);
            let ack = conn.ingest(items, ops)?;
            pass.ingest_acks.push(ack);
            ingest_wall = ingest_started.elapsed();
            Ok(ack)
        }
        Op::Query(verb) => {
            let mut busy = Duration::ZERO;
            let answers = pass.responses.entry(block.id).or_default();
            for offset in (0..block.count).step_by(verb.burst()) {
                let first = block.first + offset;
                busy += conn.burst(inputs, verb, first, verb.burst(), Stage::Ingested, ops)?;
                answers.extend_from_slice(conn.last_responses());
            }
            if verb == Verb::Succ {
                succ_rates.push(block.count as f64 / busy.as_secs_f64());
            }
            Ok(busy)
        }
    })?;
    pass.solo_ingest_per_s = measured.len() as f64 / ingest_wall.as_secs_f64();
    pass.solo_succ_qps = median(&succ_rates);
    Ok(pass)
}

/// Depth-1 latencies of one interactive caller through the shipped `GssClient`.
fn depth1_latencies(
    addr: std::net::SocketAddr,
    inputs: &Inputs,
    options: &Options,
    report: &mut Report,
    ops: &mut Ops,
) -> Result<(), String> {
    let mut client = GssClient::connect(addr).map_err(|e| format!("client connect: {e}"))?;
    client.hello(TRACED, TOKEN).map_err(|e| format!("client hello: {e}"))?;
    for (verb, samples) in Verb::ALL.iter().zip(DEPTH1_SAMPLES) {
        let samples = options.scaled(samples, 1);
        let mut latencies = Vec::with_capacity(samples);
        for slot in 0..samples {
            let request = verb.request(inputs, slot);
            let started = Instant::now();
            let response = match request {
                Request::Edge { source, destination } => {
                    client.edge(source, destination).map(Response::EdgeWeight)
                }
                Request::Successors { vertex } => client.successors(vertex).map(Response::Vertices),
                Request::Precursors { vertex } => client.precursors(vertex).map(Response::Vertices),
                Request::Reachable { source, destination, max_hops } => {
                    client.reachable(source, destination, max_hops).map(Response::Bool)
                }
                _ => unreachable!("verbs only build queries"),
            };
            latencies.push(started.elapsed());
            ops.attempted += 1;
            let ok = response.is_ok_and(|r| verb.response_ok(inputs, slot, &r, Stage::Ingested));
            ops.failed += u64::from(!ok);
        }
        let us = micros(&latencies);
        let name = verb.name();
        report.set(&format!("server.{name}_depth1_p50_us"), percentile(&us, 50.0), Some(us.len()));
        report.set(&format!("server.{name}_depth1_p99_us"), percentile(&us, 99.0), Some(us.len()));
    }
    Ok(())
}

/// `|answer ∩ truth| / |answer|` averaged over the queries with a non-empty answer.
fn neighbour_precision(
    store: &ShardedGss,
    inputs: &Inputs,
    pool: &[u64],
    direction: Direction,
) -> f64 {
    let mut sum = 0.0;
    let mut answered = 0usize;
    for &vertex in pool.iter().take(ACCURACY_SAMPLES) {
        let answer = match direction {
            Direction::Successors => store.successors(vertex),
            Direction::Precursors => store.precursors(vertex),
        };
        if answer.is_empty() {
            continue;
        }
        let hits = inputs
            .true_neighbors(vertex, Stage::Ingested, direction)
            .filter(|n| answer.binary_search(n).is_ok())
            .count();
        sum += hits as f64 / answer.len() as f64;
        answered += 1;
    }
    sum / answered.max(1) as f64
}

/// Average relative error of the reported weight over queried edges that exist.
fn edge_are(store: &ShardedGss, inputs: &Inputs) -> f64 {
    let mut sum = 0.0;
    let mut present = 0usize;
    for query in inputs.edge_pool.iter().take(ACCURACY_SAMPLES) {
        let truth = inputs.edge_truth(query, Stage::Ingested);
        if truth == 0 {
            continue;
        }
        let reported = store.edge_weight(query.source, query.destination).unwrap_or(0);
        sum += (reported - truth).abs() as f64 / truth as f64;
        present += 1;
    }
    sum / present.max(1) as f64
}

/// Median snapshot write and read speed of the in-memory store, MiB/s.
fn snapshot_speeds(store: &ShardedGss) -> (f64, f64) {
    let mib = |bytes: usize, time: Duration| bytes as f64 / (1 << 20) as f64 / time.as_secs_f64();
    let (mut write, mut read) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let started = Instant::now();
        let snapshots = snapshot_shards(store);
        let bytes = snapshots.iter().map(Vec::len).sum();
        write.push(mib(bytes, started.elapsed()));
        let started = Instant::now();
        for snapshot in &snapshots {
            black_box(GssSketch::from_snapshot(snapshot).is_ok());
        }
        read.push(mib(bytes, started.elapsed()));
    }
    (median(&write), median(&read))
}

pub fn run(options: &Options) -> Result<Outcome, String> {
    let env = Env::new()?;
    env.placement.pin_generator();
    let spec = options.spec;
    // The pass ingests preload + the replayed slice, so that is the oracle's "ingested"
    // stage here; the tail feeds the writer of the concurrent phase.
    let slice = options.scaled(spec.ring_items, spec.batch);
    let volumes = Volumes {
        preload: options.volumes().preload,
        ingest: slice,
        tail: (slice * 6 / 5 / 1024).max(1) * 1024,
    };
    let inputs = Inputs::generate(spec.shape, volumes, Stage::Ingested, options.seed);
    let blocks = plan(options, &inputs);
    let blocks_of =
        |op: Op| -> Vec<Block> { blocks.iter().filter(|block| block.op == op).copied().collect() };
    let measured = inputs.ingest_items();
    let mut trace = Trace::new();
    let mut ops = Ops::default();
    let mut report = Report::default();

    // ── wire: the shipped server, two identically preloaded tenants ─────────────────
    let dir = env.dir("wire")?;
    let server = env.spawn_server(&dir, &[PLAIN, TRACED], spec.width)?;
    report.set("server.spawn_ready_s", server.spawn_ready_s, None);
    let mut pinger = Conn::connect(server.addr)?;
    let mut rtt = Vec::with_capacity(RTT_SAMPLES);
    for _ in 0..options.scaled(RTT_SAMPLES, 1) {
        let started = Instant::now();
        let healthy = matches!(pinger.call(&Request::Health)?, Response::Health { .. });
        rtt.push(started.elapsed());
        ops.attempted += 1;
        ops.failed += u64::from(!healthy);
    }
    drop(pinger);
    let rtt = micros(&rtt);
    report.set("net.rtt_p50_us", percentile(&rtt, 50.0), Some(rtt.len()));
    report.set("net.rtt_p99_us", percentile(&rtt, 99.0), Some(rtt.len()));

    let data = dir.join("data");
    let plain = wire_replay(server.addr, &data, PLAIN, &inputs, &blocks, None, &mut ops)?;
    let wire =
        wire_replay(server.addr, &data, TRACED, &inputs, &blocks, Some(&mut trace), &mut ops)?;
    let (plain_s, traced_s) = (plain.times.total().as_secs_f64(), wire.times.total().as_secs_f64());
    report.set(
        "bench.trace_overhead_pct",
        (traced_s - plain_s) / plain_s * 100.0,
        Some(blocks.len()),
    );
    let acks = micros(&wire.ingest_acks);
    report.set("server.ingest_ack_p99_ms", percentile(&acks, 99.0) / 1e3, Some(acks.len()));
    depth1_latencies(server.addr, &inputs, options, &mut report, &mut ops)?;
    // Reads beside writes: a 1024-batch writer over the tail and a successor-query
    // reader on the traced tenant at once, against the solo rates of the ring above.
    let mixed = mixed_phase(
        &mut Conn::hello(server.addr, TRACED)?,
        server.addr,
        TRACED,
        &inputs,
        inputs.tail_items(),
        1024,
        &[Verb::Succ],
        &mut ops,
    )?;
    let mixed_succ = median(&mixed.rates[Verb::Succ.index()]);
    let mixed_ingest = volumes.tail as f64 / mixed.wall.as_secs_f64();
    report.set("concurrent.read_slowdown", wire.solo_succ_qps / mixed_succ, None);
    report.set("concurrent.write_slowdown", wire.solo_ingest_per_s / mixed_ingest, None);
    server.kill();

    // The in-process rings run where the server ran.
    env.placement.pin_like_server();
    let mut responses = Vec::new();

    // ── namespace: the server's tenant object, no socket ────────────────────────────
    let dir = env.dir("namespace")?;
    let config = ServerConfig::parse(&format!(
        "tenant {TRACED} token={TOKEN} durability=strict shards={SHARDS} width={}",
        spec.width
    ))?;
    let registry = NamespaceRegistry::new(dir.join("data"), config);
    let namespace =
        registry.resolve(TRACED, TOKEN).map_err(|e| format!("open namespace: {}", e.message))?;
    machine::settle_page_cache(&dir.join("data").join(TRACED))?;
    for chunk in inputs.preload_items().chunks(INGEST_BATCH) {
        namespace.ingest(&wire::wire_batch(&inputs, chunk)).map_err(|e| e.message)?;
    }
    namespace.snapshot().map_err(|e| e.message)?;
    let mut namespace_times = RingTimes::default();
    replay(Ring::Namespace, &blocks, Some(&mut trace), &mut namespace_times, |block| {
        Ok(match block.op {
            Op::Ingest => {
                let items =
                    wire::wire_batch(&inputs, &measured[block.first..block.first + block.count]);
                let started = Instant::now();
                let result = namespace.ingest(&items);
                let busy = started.elapsed();
                ops.attempted += 1;
                ops.failed += u64::from(result.is_err());
                busy
            }
            Op::Query(verb) => query_block(
                &*namespace,
                &inputs,
                verb,
                block.first,
                block.count,
                Stage::Ingested,
                &mut ops,
                &mut responses,
            ),
        })
    })?;
    drop(namespace);
    drop(registry);

    // ── sharded_file: the store built exactly as `namespace.rs` builds it ───────────
    let dir = env.dir("sharded_file")?;
    let file_store = GssBuilder::new()
        .width(spec.width)
        .track_node_ids(true)
        .storage_dir(&dir, TRACED)
        .durability(Durability::Strict)
        .group_commit(GroupCommit::default())
        .build_sharded(SHARDS)
        .map_err(|e| format!("build file-backed store: {e}"))?;
    machine::settle_page_cache(&dir)?;
    store_ingest(&file_store, &inputs, inputs.preload_items(), 0, INGEST_BATCH, &mut ops);
    file_store.sync().map_err(|e| format!("checkpoint: {e}"))?;
    let mut file_times = RingTimes::default();
    // Counter deltas per op, in `Op::ALL` order.
    let mut deltas_of: Vec<Deltas> = Vec::new();
    for op in Op::ALL {
        let before = file_store.detailed_stats();
        store_ring(
            Ring::ShardedFile,
            &file_store,
            &inputs,
            &blocks_of(op),
            &mut trace,
            &mut file_times,
            &mut ops,
            &mut responses,
        )?;
        let deltas = counter_deltas(&before, &file_store.detailed_stats());
        trace.counters.push((Ring::ShardedFile, op, deltas.clone()));
        deltas_of.push(deltas);
    }
    // Recovery of exactly the replayed slice: drop the store as a kill would leave it,
    // reopen it in place the way a restarted server does.
    file_store.abandon().map_err(|_| "store handle still shared")?;
    let started = Instant::now();
    let reopened = ShardedGss::open_sharded(
        dir.join(format!("{TRACED}.gss")),
        SHARDS,
        FileStore::DEFAULT_CACHE_PAGES,
        Durability::Strict,
        GroupCommit::default(),
    )
    .map_err(|e| format!("reopen after abandon: {e}"))?;
    let replay_time = started.elapsed();
    ops.attempted += 1;
    let recovered = reopened.detailed_stats().items_inserted;
    ops.failed += recovered.abs_diff((volumes.preload + slice) as u64);
    drop(reopened);

    let ingest = &deltas_of[Op::Ingest.index()];
    let (succ, prec) =
        (&deltas_of[Op::Query(Verb::Succ).index()], &deltas_of[Op::Query(Verb::Prec).index()]);
    let items = slice as f64;
    let per = |deltas: &[(&'static str, f64)], name: &str, op: Op| {
        delta(deltas, name) / file_times.requests[op.index()].max(1) as f64
    };
    report.set("pager.lookups_per_item", delta(ingest, "page_lookups") / items, None);
    report.set("pager.faults_per_item", delta(ingest, "page_faults") / items, None);
    report.set(
        "pager.hit_ratio",
        1.0 - delta(ingest, "page_faults") / delta(ingest, "page_lookups").max(1.0),
        None,
    );
    report.set("pager.flushed_pages_per_kitem", delta(ingest, "pages_flushed") / items * 1e3, None);
    report.set(
        "pager.latch_waits",
        deltas_of.iter().map(|deltas| delta(deltas, "page_latch_waits")).sum(),
        None,
    );
    report.set("pager.lookups_per_succ", per(succ, "page_lookups", Op::Query(Verb::Succ)), None);
    report.set("pager.faults_per_succ", per(succ, "page_faults", Op::Query(Verb::Succ)), None);
    report.set("pager.lookups_per_prec", per(prec, "page_lookups", Op::Query(Verb::Prec)), None);
    report.set("pager.faults_per_prec", per(prec, "page_faults", Op::Query(Verb::Prec)), None);
    report.set("wal.bytes_per_item", delta(ingest, "wal_bytes") / items, None);
    report.set("wal.flushes_per_kitem", delta(ingest, "wal_flushes") / items * 1e3, None);
    report.set(
        "group_commit.commits_per_kitem",
        delta(ingest, "wal_group_commits") / items * 1e3,
        None,
    );
    report.set(
        "group_commit.waits_per_kitem",
        delta(ingest, "wal_group_waits") / items * 1e3,
        None,
    );
    report.set("file_store.fsyncs", delta(ingest, "fsyncs"), None);
    report.set("file_store.checkpoints", delta(ingest, "checkpoints"), None);
    report.set("file_store.replay_us_per_item", replay_time.as_secs_f64() * 1e6 / items, None);

    // ── sharded_mem: the paper's structure alone ─────────────────────────────────────
    let mem_store = memory_store(spec.width)?;
    store_ingest(&mem_store, &inputs, inputs.preload_items(), 0, INGEST_BATCH, &mut ops);
    let mut mem_times = RingTimes::default();
    store_ring(
        Ring::ShardedMem,
        &mem_store,
        &inputs,
        &blocks,
        &mut trace,
        &mut mem_times,
        &mut ops,
        &mut responses,
    )?;
    let stats = mem_store.detailed_stats();
    report.set("sketch.load_factor", stats.matrix_load_factor, None);
    report.set("sketch.buffer_pct", stats.buffer_percentage * 100.0, None);
    report.set("sketch.node_collision_rate", stats.node_collision_rate(), None);
    report.set("sketch.edge_are", edge_are(&mem_store, &inputs), Some(ACCURACY_SAMPLES));
    report.set(
        "sketch.succ_precision",
        neighbour_precision(&mem_store, &inputs, &inputs.succ_pool, Direction::Successors),
        Some(inputs.succ_pool.len().min(ACCURACY_SAMPLES)),
    );
    report.set(
        "sketch.prec_precision",
        neighbour_precision(&mem_store, &inputs, &inputs.prec_pool, Direction::Precursors),
        Some(inputs.prec_pool.len().min(ACCURACY_SAMPLES)),
    );
    let (snapshot_write, snapshot_read) = snapshot_speeds(&mem_store);
    report.set("persistence.snapshot_write_mb_per_s", snapshot_write, Some(5));
    report.set("persistence.snapshot_read_mb_per_s", snapshot_read, Some(5));
    let config = *mem_store.config();
    drop(mem_store);

    // ── hashing: node hash, address sequences and candidate pairs per request ───────
    let hasher = NodeHasher::new(&config);
    let mut hashing_times = RingTimes::default();
    let mut rows = [0usize; MAX_SEQUENCE_LENGTH];
    let mut pairs = [(0usize, 0usize); MAX_SEQUENCE_LENGTH * MAX_SEQUENCE_LENGTH];
    let mut hash_pair = |rows: &mut [usize], source: u64, destination: u64| {
        let (s, d) = (hasher.hashed_node(source), hasher.hashed_node(destination));
        black_box(hasher.address_sequence_into(s, rows));
        black_box(hasher.address_sequence_into(d, rows));
        let sampled = hasher.candidate_pairs_into(
            s.fingerprint,
            d.fingerprint,
            config.candidates,
            &mut pairs,
        );
        black_box((&*rows, &pairs[..sampled]));
    };
    replay(Ring::Hashing, &blocks, Some(&mut trace), &mut hashing_times, |block| {
        let started = Instant::now();
        match block.op {
            Op::Ingest => {
                for &index in &measured[block.first..block.first + block.count] {
                    let (source, destination) = inputs.universe[index as usize];
                    hash_pair(&mut rows, source, destination);
                }
            }
            Op::Query(verb) => {
                for slot in block.first..block.first + block.count {
                    match verb.request(&inputs, slot) {
                        Request::Edge { source, destination }
                        | Request::Reachable { source, destination, .. } => {
                            hash_pair(&mut rows, source, destination)
                        }
                        Request::Successors { vertex } | Request::Precursors { vertex } => {
                            let node = hasher.hashed_node(vertex);
                            black_box(hasher.address_sequence_into(node, &mut rows));
                        }
                        _ => unreachable!("verbs only build queries"),
                    }
                }
            }
        }
        Ok(started.elapsed())
    })?;

    // ── protocol: both codecs, both directions, on this workload's own frames ───────
    let mut protocol_times = RingTimes::default();
    let mut acked_total = volumes.preload as u64;
    replay(Ring::Protocol, &blocks, Some(&mut trace), &mut protocol_times, |block| {
        let codec = |request: &Request, response: &Response| -> Result<(), String> {
            let frame = protocol::encode_request(request);
            let (kind, payload, _) = protocol::decode_frame(&frame).map_err(|e| e.to_string())?;
            black_box(protocol::decode_request(kind, payload).map_err(|e| e.to_string())?);
            let frame = protocol::encode_response(response);
            let (kind, payload, _) = protocol::decode_frame(&frame).map_err(|e| e.to_string())?;
            black_box(protocol::decode_response(kind, payload).map_err(|e| e.to_string())?);
            Ok(())
        };
        match block.op {
            Op::Ingest => {
                let items =
                    wire::wire_batch(&inputs, &measured[block.first..block.first + block.count]);
                acked_total += block.count as u64;
                let request = Request::Ingest { items };
                let response = Response::Ingested {
                    accepted: block.count as u64,
                    acked_total,
                    durability: protocol::DURABILITY_STRICT,
                };
                let started = Instant::now();
                codec(&request, &response)?;
                Ok(started.elapsed())
            }
            Op::Query(verb) => {
                let answers = &wire.responses[&block.id];
                let started = Instant::now();
                for (offset, response) in answers.iter().enumerate() {
                    codec(&verb.request(&inputs, block.first + offset), response)?;
                }
                Ok(started.elapsed())
            }
        }
    })?;

    // ── self times: neighbouring rings subtracted, outside in ───────────────────────
    for op in Op::ALL {
        let wire_ns = wire.times.ns(op);
        let (namespace_ns, file_ns, mem_ns) =
            (namespace_times.ns(op), file_times.ns(op), mem_times.ns(op));
        let (hashing_ns, protocol_ns) = (hashing_times.ns(op), protocol_times.ns(op));
        let layers = [
            ("hashing", hashing_ns),
            ("sketch", mem_ns - hashing_ns),
            ("file_store", file_ns - mem_ns),
            ("namespace", namespace_ns - file_ns),
            ("protocol", protocol_ns),
            ("net", wire_ns - namespace_ns - protocol_ns),
        ];
        let requests = Some(wire.times.requests[op.index()]);
        for (layer, ns) in layers {
            report.set(&format!("{layer}.{}_ns", op.name()), ns, requests);
        }
        report.set(&format!("wire.{}_ns", op.name()), wire_ns, requests);
    }
    report.set("bench.gen_s", inputs.gen_s, None);

    let file = workloads::out_dir().join(format!("trace-{}.json", spec.name));
    std::fs::write(&file, trace.to_json(spec.name).render_pretty())
        .map_err(|e| format!("write {}: {e}", file.display()))?;
    env.cleanup();
    let mut context = workloads::workload_context(options, &inputs);
    context.push(("trace_file".into(), Json::str(file.display().to_string())));
    context.push(("trace_spans".into(), Json::Num(trace.spans.len() as f64)));
    Ok(Outcome { report, ops, context })
}

/// Replays blocks against a `ShardedGss` through its public API.
#[allow(clippy::too_many_arguments)]
fn store_ring(
    ring: Ring,
    store: &ShardedGss,
    inputs: &Inputs,
    blocks: &[Block],
    trace: &mut Trace,
    times: &mut RingTimes,
    ops: &mut Ops,
    responses: &mut Vec<Response>,
) -> Result<(), String> {
    let measured = inputs.ingest_items();
    let preload = inputs.volumes.preload;
    replay(ring, blocks, Some(trace), times, |block| {
        Ok(match block.op {
            Op::Ingest => {
                let edges = stream_batch(
                    inputs,
                    &measured[block.first..block.first + block.count],
                    (preload + block.first) as u64,
                );
                let started = Instant::now();
                let result = store.try_insert_batch(&edges);
                let busy = started.elapsed();
                ops.attempted += 1;
                ops.failed += u64::from(result.is_err());
                busy
            }
            Op::Query(verb) => query_block(
                store as &dyn QueryTarget,
                inputs,
                verb,
                block.first,
                block.count,
                Stage::Ingested,
                ops,
                responses,
            ),
        })
    })
}
