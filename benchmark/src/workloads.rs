//! The four workloads and their untraced end-to-end runs.
//!
//! Sizes are given for [`REFERENCE_SECONDS`] of measurement and scale linearly with
//! `--seconds` (item counts and time boxes by the same factor), so the driver's
//! `run_seconds` is the one knob.  Ingest volumes are fixed *counts*, not time boxes:
//! the sketch state entering the query and durability phases is then identical run to
//! run, which is what lets `disk_bytes_per_edge` and `wal_bytes_per_item` carry a 1 %
//! bound.  Query phases are time boxes over fixed, cycled pools.

use crate::inputs::{Direction, Inputs, Shape, Stage, Volumes};
use crate::json::Json;
use crate::machine::{self, Placement};
use crate::metrics::Report;
use crate::stats::median;
use crate::wire::{self, Conn, Ops, ServerProc, Verb, TENANT};
use gss_core::{GssBuilder, GssSketch, ShardedGss};
use gss_graph::{StreamEdge, SummaryRead};
use gss_server::protocol::{Request, Response};
use gss_server::Namespace;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The `--seconds` the volumes below are sized for; also `run_seconds` in BENCHMARK.json.
pub const REFERENCE_SECONDS: f64 = 20.0;
/// Share of `--seconds` each of the four query phases runs for (3 s at the reference).
const QUERY_PHASE_SHARE: f64 = 0.15;
/// Slices each query phase is cut into; the four verbs take their slices in turn, so a
/// verb's spans are spread over the whole query period and a few loud seconds on the
/// host touch a minority of every verb's spans instead of one verb's whole phase.
const QUERY_ROUNDS: u32 = 12;
/// Batch size of every preload and of measured ingest unless the workload says otherwise.
pub const INGEST_BATCH: usize = 4096;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Kill-and-recover cycles per `wire_*` run; `recover_s` is their median.
const RECOVERIES: usize = 5;
/// Snapshot loads behind `lib_memory`'s `recover_s`.
const LIB_RESTORES: usize = 51;
pub const SHARDS: usize = 2;

pub const HOT_SHAPE: Shape = Shape { vertices: 15_000, draws: 60_000 };
pub const COLD_SHAPE: Shape = Shape { vertices: 200_000, draws: 1_000_000 };

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Phases one after another against the server.
    Wire,
    /// A writer and a reader against the server at once.
    WireMixed,
    /// The library in-process, memory backend.
    Lib,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub shape: Shape,
    /// Matrix width per shard: 128 (0.5 MiB) fits the 1024-page cache and the core's
    /// private L2, 512 (8 MiB) is twice the page cache.
    pub width: usize,
    pub volumes: Volumes,
    /// Items per measured INGEST frame.
    pub batch: usize,
    /// Measured items the rings replay.
    pub ring_items: usize,
    /// Queries per verb the rings replay (edge, succ, prec, reach).
    pub ring_queries: [usize; 4],
}

pub const SPECS: &[Spec] = &[
    Spec {
        name: "wire_hot",
        why: "server tenant whose matrix fits the page cache: protocol, net, namespace, sketch and WAL dominate, the pager only hits",
        kind: Kind::Wire,
        shape: HOT_SHAPE,
        width: 128,
        volumes: Volumes { preload: 1_000_000, ingest: 3_000_000, tail: 3_500_000 },
        batch: INGEST_BATCH,
        ring_items: 1_000_000,
        ring_queries: [16_384, 2_048, 512, 1_024],
    },
    Spec {
        name: "wire_cold",
        why: "server tenant whose matrix is twice the page cache: pager and file_store do most of the work, sketch and protocol gains barely show",
        kind: Kind::Wire,
        shape: COLD_SHAPE,
        width: 512,
        volumes: Volumes { preload: 300_000, ingest: 900_000, tail: 335_000 },
        batch: INGEST_BATCH,
        ring_items: 300_000,
        ring_queries: [8_192, 512, 64, 128],
    },
    Spec {
        name: "wire_mixed",
        why: "hot tenant with a writer (1024-item batches) and a reader at once: shard lock, latch and CPU contention between reads and writes",
        kind: Kind::WireMixed,
        shape: HOT_SHAPE,
        width: 128,
        volumes: Volumes { preload: 1_000_000, ingest: 4_000_000, tail: 3_500_000 },
        batch: 1024,
        ring_items: 1_000_000,
        ring_queries: [16_384, 2_048, 512, 1_024],
    },
    Spec {
        name: "lib_memory",
        why: "the in-process sharded sketch on the memory backend: hashing and sketch alone, bypassing server, WAL and pager",
        kind: Kind::Lib,
        shape: HOT_SHAPE,
        width: 128,
        volumes: Volumes { preload: 3_000_000, ingest: 9_000_000, tail: 2_000_000 },
        batch: INGEST_BATCH,
        ring_items: 1_000_000,
        ring_queries: [16_384, 2_048, 512, 1_024],
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|spec| spec.name == name)
    }

    /// The stage the query answers of the end-to-end run are held to.  `wire_mixed`
    /// queries while the writer runs, so only the preload is a certain lower bound.
    pub fn truth_stage(&self) -> Stage {
        match self.kind {
            Kind::WireMixed => Stage::Preload,
            Kind::Wire | Kind::Lib => Stage::Ingested,
        }
    }
}

pub struct Options {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
}

impl Options {
    /// The one factor all volumes and time boxes are multiplied by.
    pub fn scale(&self) -> f64 {
        self.seconds / REFERENCE_SECONDS * if self.quick { 0.1 } else { 1.0 }
    }

    /// `count` scaled, as a whole number of `batch`es (at least one).
    pub fn scaled(&self, count: usize, batch: usize) -> usize {
        (((count as f64 * self.scale()) as usize) / batch).max(1) * batch
    }

    pub fn volumes(&self) -> Volumes {
        let v = self.spec.volumes;
        Volumes {
            preload: self.scaled(v.preload, INGEST_BATCH),
            ingest: self.scaled(v.ingest, self.spec.batch),
            tail: self.scaled(v.tail, self.spec.batch),
        }
    }

    pub fn query_phase(&self) -> Duration {
        Duration::from_secs_f64(REFERENCE_SECONDS * QUERY_PHASE_SHARE * self.scale())
    }

    pub fn generate(&self, truth_stage: Stage) -> Inputs {
        Inputs::generate(self.spec.shape, self.volumes(), truth_stage, self.seed)
    }
}

/// Where a run lives: CPU placement, the server binary and a private data directory
/// under `benchmark/out/` that is removed on success and kept on failure.
pub struct Env {
    pub placement: &'static Placement,
    pub server_binary: PathBuf,
    root: PathBuf,
}

pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

impl Env {
    pub fn new() -> Result<Self, String> {
        let root = out_dir().join(format!("data-{}", std::process::id()));
        std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
        Ok(Self { placement: Placement::get(), server_binary: wire::server_binary()?, root })
    }

    /// A fresh, empty directory under this run's data root.
    pub fn dir(&self, label: &str) -> Result<PathBuf, String> {
        let dir = self.root.join(label);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// Removes the data root; called only when the run succeeded.
    pub fn cleanup(&self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }

    /// Writes `tenants.conf` for tenants of `width` and spawns the pinned server on
    /// `dir/data` (existing data there is reopened, which is how recovery is driven).
    pub fn spawn_server(
        &self,
        dir: &Path,
        tenants: &[&str],
        width: usize,
    ) -> Result<ServerProc, String> {
        let config = dir.join("tenants.conf");
        let text: String = tenants
            .iter()
            .map(|name| {
                format!(
                    "tenant {name} token={} durability=strict shards={SHARDS} width={width}\n",
                    wire::TOKEN
                )
            })
            .collect();
        std::fs::write(&config, text).map_err(|e| format!("write {}: {e}", config.display()))?;
        ServerProc::spawn(
            &self.server_binary,
            &dir.join("data"),
            &config,
            self.placement.server.as_ref(),
        )
    }
}

/// What a run hands back for printing.
pub struct Outcome {
    pub report: Report,
    pub ops: Ops,
    /// Workload half of the context block: seed, sizes, input digest.
    pub context: Vec<(String, Json)>,
}

pub fn workload_context(options: &Options, inputs: &Inputs) -> Vec<(String, Json)> {
    let n = |v: usize| Json::Num(v as f64);
    vec![
        ("workload".into(), Json::str(options.spec.name)),
        ("why".into(), Json::str(options.spec.why)),
        ("seed".into(), n(options.seed as usize)),
        ("seconds".into(), Json::Num(options.seconds)),
        ("quick".into(), Json::Bool(options.quick)),
        (
            "sizes".into(),
            Json::obj([
                ("vertices", n(inputs.shape.vertices)),
                ("generator_draws", n(inputs.shape.draws)),
                ("universe_edges", n(inputs.universe.len())),
                ("shards", n(SHARDS)),
                ("width", n(options.spec.width)),
                ("preload_items", n(inputs.volumes.preload)),
                ("ingest_items", n(inputs.volumes.ingest)),
                ("tail_items", n(inputs.volumes.tail)),
                ("ingest_batch", n(options.spec.batch)),
                ("distinct_edges_ingested", n(inputs.distinct_edges(Stage::Ingested))),
            ]),
        ),
        ("input_digest".into(), Json::str(format!("{:016x}", inputs.digest()))),
        ("gen_s".into(), Json::Num(inputs.gen_s)),
    ]
}

/// Batches per window of [`ack_p50_ms`].
const ACK_WINDOW: usize = 16;

/// `ingest_ack_p50_ms`: the median, over windows of [`ACK_WINDOW`] consecutive batches,
/// of the window's mean send→ack time.  A plain per-batch p50 is ill-conditioned on
/// `wire_mixed`, where an ack either waits behind a reader burst on the server's CPU or
/// does not: measured p40 = 1.8 ms, p60 = 3.3 ms, so the p50 sits on the cliff between
/// the two modes and moved 2.2–3.3 ms between identical runs.  Where acks are unimodal
/// (every other workload) the two definitions agree.
fn ack_p50_ms(acks: &[Duration]) -> (f64, usize) {
    let windows: Vec<f64> = acks
        .chunks(ACK_WINDOW)
        .map(|window| {
            window.iter().map(Duration::as_secs_f64).sum::<f64>() / window.len() as f64 * 1e3
        })
        .collect();
    (median(&windows), windows.len())
}

/// Answers a decoded request in-process the way the server's dispatch does; the rings
/// and `lib_memory` run the same queries through this as the wire runs carry.
pub trait QueryTarget {
    fn answer(&self, request: &Request) -> Response;
}

impl QueryTarget for ShardedGss {
    fn answer(&self, request: &Request) -> Response {
        match *request {
            Request::Edge { source, destination } => {
                Response::EdgeWeight(self.edge_weight(source, destination))
            }
            Request::Successors { vertex } => Response::Vertices(self.successors(vertex)),
            Request::Precursors { vertex } => Response::Vertices(self.precursors(vertex)),
            Request::Reachable { source, destination, .. } => {
                Response::Bool(gss_graph::algorithms::is_reachable(self, source, destination))
            }
            _ => unreachable!("only queries are replayed"),
        }
    }
}

impl QueryTarget for Namespace {
    fn answer(&self, request: &Request) -> Response {
        match *request {
            Request::Edge { source, destination } => {
                Response::EdgeWeight(self.edge_weight(source, destination))
            }
            Request::Successors { vertex } => Response::Vertices(self.successors(vertex)),
            Request::Precursors { vertex } => Response::Vertices(self.precursors(vertex)),
            Request::Reachable { source, destination, max_hops } => {
                Response::Bool(self.reachable(source, destination, max_hops))
            }
            _ => unreachable!("only queries are replayed"),
        }
    }
}

/// One timed in-process block: `count` queries from pool slot `first`, answers checked
/// after the clock stops.  `responses` is scratch the caller may read afterwards.
#[allow(clippy::too_many_arguments)]
pub fn query_block(
    target: &dyn QueryTarget,
    inputs: &Inputs,
    verb: Verb,
    first: usize,
    count: usize,
    at: Stage,
    ops: &mut Ops,
    responses: &mut Vec<Response>,
) -> Duration {
    responses.clear();
    let started = Instant::now();
    for slot in first..first + count {
        responses.push(target.answer(&verb.request(inputs, slot)));
    }
    let elapsed = started.elapsed();
    ops.attempted += count as u64;
    for (offset, response) in responses.iter().enumerate() {
        if !verb.response_ok(inputs, first + offset, response, at) {
            ops.failed += 1;
        }
    }
    elapsed
}

/// The stream items `indices` name as library items, timestamps counting from `first`.
pub fn stream_batch(inputs: &Inputs, indices: &[u32], first: u64) -> Vec<StreamEdge> {
    indices
        .iter()
        .enumerate()
        .map(|(offset, &index)| {
            let (source, destination) = inputs.universe[index as usize];
            StreamEdge::new(source, destination, first + offset as u64, 1)
        })
        .collect()
}

/// Inserts `items` in `batch`-sized `try_insert_batch` calls; returns per-call times.
pub fn store_ingest(
    store: &ShardedGss,
    inputs: &Inputs,
    items: &[u32],
    first_timestamp: u64,
    batch: usize,
    ops: &mut Ops,
) -> Vec<Duration> {
    let mut timestamp = first_timestamp;
    items
        .chunks(batch)
        .map(|chunk| {
            let edges = stream_batch(inputs, chunk, timestamp);
            timestamp += chunk.len() as u64;
            let started = Instant::now();
            let result = store.try_insert_batch(&edges);
            let elapsed = started.elapsed();
            ops.attempted += 1;
            ops.failed += u64::from(result.is_err());
            elapsed
        })
        .collect()
}

pub fn memory_store(width: usize) -> Result<ShardedGss, String> {
    GssBuilder::new()
        .width(width)
        .track_node_ids(true)
        .build_sharded(SHARDS)
        .map_err(|e| format!("build in-memory store: {e}"))
}

pub fn run(options: &Options) -> Result<Outcome, String> {
    match options.spec.kind {
        Kind::Wire | Kind::WireMixed => run_wire(options),
        Kind::Lib => run_lib(options),
    }
}

struct WireSetup {
    server: ServerProc,
    conn: Conn,
    dir: PathBuf,
}

/// spawn → ready → HELLO → preload at depth 1 → SNAPSHOT.  HELLO creates the tenant's
/// files; their page-cache layout is settled there, outside the clock (see
/// [`machine::settle_page_cache`]), so the time returned is the two spans around it.
fn wire_setup(
    env: &Env,
    options: &Options,
    inputs: &Inputs,
    label: &str,
    ops: &mut Ops,
) -> Result<(WireSetup, f64), String> {
    let dir = env.dir(label)?;
    let started = Instant::now();
    let server = env.spawn_server(&dir, &[TENANT], options.spec.width)?;
    let mut conn = Conn::hello(server.addr, TENANT)?;
    let opened = started.elapsed();
    machine::settle_page_cache(&dir.join("data").join(TENANT))?;
    let started = Instant::now();
    conn.ingest_all(inputs, inputs.preload_items(), INGEST_BATCH, ops)?;
    conn.snapshot()?;
    let seconds = (opened + started.elapsed()).as_secs_f64();
    Ok((WireSetup { server, conn, dir }, seconds))
}

/// What a writer and a reader measured while running side by side.
pub struct Mixed {
    pub acks: Vec<Duration>,
    /// The writer's wall time over all its batches.
    pub wall: Duration,
    /// Per-burst query rates, indexed like [`Verb::ALL`].
    pub rates: [Vec<f64>; 4],
}

/// Writer and reader at once against one tenant, both closed-loop, one connection
/// each: the writer sends `items` in `batch`-sized frames on a connection of its own,
/// the reader cycles bursts of `verbs` on `reader` until the writer is done.  Answers
/// are held to the inputs' truth stage, which the live sketch must dominate.
#[allow(clippy::too_many_arguments)]
pub fn mixed_phase(
    reader: &mut Conn,
    addr: SocketAddr,
    tenant: &str,
    inputs: &Inputs,
    items: &[u32],
    batch: usize,
    verbs: &[Verb],
    ops: &mut Ops,
) -> Result<Mixed, String> {
    let done = AtomicBool::new(false);
    let mut rates: [Vec<f64>; 4] = Default::default();
    let (written, read) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut ops = Ops::default();
            let result = Conn::hello(addr, tenant).and_then(|mut conn| {
                let started = Instant::now();
                let acks = conn.ingest_all(inputs, items, batch, &mut ops)?;
                Ok((acks, started.elapsed()))
            });
            // Set on every path, or a failed writer would leave the reader spinning.
            done.store(true, Ordering::SeqCst);
            result.map(|(acks, wall)| (acks, wall, ops))
        });
        let mut reader_ops = Ops::default();
        let read = (|| {
            while !done.load(Ordering::SeqCst) {
                for &verb in verbs {
                    let rates = &mut rates[verb.index()];
                    let first = rates.len() * verb.burst();
                    let elapsed = reader.burst(
                        inputs,
                        verb,
                        first,
                        verb.burst(),
                        inputs.truth_stage,
                        &mut reader_ops,
                    )?;
                    rates.push(verb.burst() as f64 / elapsed.as_secs_f64());
                }
            }
            Ok::<_, String>(reader_ops)
        })();
        (writer.join().expect("writer thread panicked"), read)
    });
    let (acks, wall, writer_ops) = written?;
    ops.add(writer_ops);
    ops.add(read?);
    Ok(Mixed { acks, wall, rates })
}

/// The four query phases: [`QUERY_ROUNDS`] rounds of one slice per verb, every slice a
/// run of timed spans (at least one).  `span(verb, n)` runs that verb's `n`-th span and
/// returns its query rate; the rates come back indexed like [`Verb::ALL`].
fn query_rounds(
    phase: Duration,
    mut span: impl FnMut(Verb, usize) -> Result<f64, String>,
) -> Result<[Vec<f64>; 4], String> {
    let mut rates: [Vec<f64>; 4] = Default::default();
    for _ in 0..QUERY_ROUNDS {
        for verb in Verb::ALL {
            let rates = &mut rates[verb.index()];
            let deadline = Instant::now() + phase / QUERY_ROUNDS;
            loop {
                rates.push(span(verb, rates.len())?);
                if Instant::now() >= deadline {
                    break;
                }
            }
        }
    }
    Ok(rates)
}

fn set_rates(report: &mut Report, rates: &[Vec<f64>; 4]) {
    for (verb, rates) in Verb::ALL.iter().zip(rates) {
        report.set(&format!("{}_qps", verb.name()), median(rates), Some(rates.len()));
    }
}

fn run_wire(options: &Options) -> Result<Outcome, String> {
    let env = Env::new()?;
    env.placement.pin_generator();
    let spec = options.spec;
    let inputs = options.generate(spec.truth_stage());
    let mut ops = Ops::default();
    let mut report = Report::default();

    // Set-up, several times over: the first ones are torn down again, the last is kept.
    let mut setup_times = Vec::new();
    let mut kept = None;
    for round in 0..SETUPS {
        if let Some(WireSetup { server, conn, dir }) = kept.take() {
            drop(conn);
            server.kill();
            let _ = std::fs::remove_dir_all(dir);
        }
        let (setup, seconds) =
            wire_setup(&env, options, &inputs, &format!("setup{round}"), &mut ops)?;
        setup_times.push(seconds);
        kept = Some(setup);
    }
    let WireSetup { mut server, mut conn, dir } = kept.expect("SETUPS is at least one");
    report.set("setup_s", median(&setup_times), Some(setup_times.len()));

    let (acks, ingest_wall, rates) = if spec.kind == Kind::WireMixed {
        let mixed = mixed_phase(
            &mut conn,
            server.addr,
            TENANT,
            &inputs,
            inputs.ingest_items(),
            spec.batch,
            &Verb::ALL,
            &mut ops,
        )?;
        (mixed.acks, mixed.wall, mixed.rates)
    } else {
        let started = Instant::now();
        let acks = conn.ingest_all(&inputs, inputs.ingest_items(), spec.batch, &mut ops)?;
        let wall = started.elapsed();
        let rates = query_rounds(options.query_phase(), |verb, n| {
            let first = n * verb.burst();
            let elapsed =
                conn.burst(&inputs, verb, first, verb.burst(), inputs.truth_stage, &mut ops)?;
            Ok(verb.burst() as f64 / elapsed.as_secs_f64())
        })?;
        (acks, wall, rates)
    };
    report.set(
        "ingest_items_per_s",
        inputs.volumes.ingest as f64 / ingest_wall.as_secs_f64(),
        Some(acks.len()),
    );
    let (ack_ms, windows) = ack_p50_ms(&acks);
    report.set("ingest_ack_p50_ms", ack_ms, Some(windows));
    set_rates(&mut report, &rates);

    // Durability.  The explicit SNAPSHOT truncates the log, so recovery replays exactly
    // the tail instead of wherever an automatic checkpoint happened to fall.
    conn.snapshot()?;
    let tenant_dir = dir.join("data").join(TENANT);
    let checkpointed = wire::dir_bytes(&tenant_dir)?;
    report.set(
        "disk_bytes_per_edge",
        checkpointed as f64 / inputs.distinct_edges(Stage::Ingested) as f64,
        None,
    );
    // The tail goes in as RECOVERIES equal parts, each followed by SIGKILL → respawn →
    // first STATS reply; `recover_s` is the median, and every cycle checks that no
    // acknowledged item was lost.  (A recovery checkpoints, so each replays one part.)
    let mut acked = (inputs.volumes.preload + inputs.volumes.ingest) as u64;
    let mut recoveries = Vec::new();
    let part = inputs.volumes.tail.div_ceil(RECOVERIES);
    for (cycle, items) in inputs.tail_items().chunks(part).enumerate() {
        conn.ingest_all(&inputs, items, spec.batch, &mut ops)?;
        acked += items.len() as u64;
        if cycle == 0 {
            let grown = wire::dir_bytes(&tenant_dir)?;
            report.set(
                "wal_bytes_per_item",
                grown.saturating_sub(checkpointed) as f64 / items.len() as f64,
                None,
            );
            let memory =
                machine::peak_rss_mib(server.pid()).ok_or("cannot read the server's VmHWM")?;
            report.set("memory_mb", memory, None);
        }
        drop(conn);
        server.kill();

        let started = Instant::now();
        server = env.spawn_server(&dir, &[TENANT], spec.width)?;
        conn = Conn::hello(server.addr, TENANT)?;
        let stats = conn.call(&Request::Stats)?;
        recoveries.push(started.elapsed().as_secs_f64());
        ops.attempted += 1;
        match stats {
            Response::Stats(stats) => ops.failed += stats.items_inserted.abs_diff(acked),
            _ => ops.failed += 1,
        }
    }
    report.set("recover_s", median(&recoveries), Some(recoveries.len()));
    for (verb, count) in [(Verb::Edge, 640), (Verb::Succ, 256), (Verb::Reach, 64), (Verb::Prec, 40)]
    {
        for first in (0..count).step_by(verb.burst()) {
            let burst = verb.burst().min(count - first);
            conn.burst(&inputs, verb, first, burst, Stage::Final, &mut ops)?;
        }
    }
    drop(conn);
    server.kill();

    env.cleanup();
    Ok(Outcome { report, ops, context: workload_context(options, &inputs) })
}

/// Restores every shard from its snapshot and checks 1 000 answers against the final
/// oracle.  An edge lives in exactly one shard and shards only over-report, so the sum
/// (union) over the restored shards must dominate the truth.
fn verify_restored(shards: &[GssSketch], inputs: &Inputs, ops: &mut Ops) {
    for query in inputs.edge_pool.iter().take(640) {
        let total: i64 = shards
            .iter()
            .filter_map(|shard| shard.edge_weight(query.source, query.destination))
            .sum();
        ops.attempted += 1;
        ops.failed += u64::from(!inputs.edge_ok(query, Some(total), Stage::Final));
    }
    let neighbours = [
        (&inputs.succ_pool, Direction::Successors, 256),
        (&inputs.prec_pool, Direction::Precursors, 104),
    ];
    for (pool, direction, count) in neighbours {
        for &vertex in pool.iter().take(count) {
            let mut answer: Vec<u64> = shards
                .iter()
                .flat_map(|shard| match direction {
                    Direction::Successors => shard.successors(vertex),
                    Direction::Precursors => shard.precursors(vertex),
                })
                .collect();
            answer.sort_unstable();
            ops.attempted += 1;
            ops.failed += u64::from(!inputs.neighbors_ok(vertex, &answer, Stage::Final, direction));
        }
    }
}

pub fn snapshot_shards(store: &ShardedGss) -> Vec<Vec<u8>> {
    (0..store.shard_count())
        .map(|index| store.with_shard_read(index, GssSketch::to_snapshot))
        .collect()
}

fn run_lib(options: &Options) -> Result<Outcome, String> {
    // The library runs where the server would, so its numbers line up with the
    // `sharded_mem` ring of `wire_hot`.
    Placement::get().pin_like_server();
    let spec = options.spec;
    let inputs = options.generate(spec.truth_stage());
    let mut ops = Ops::default();
    let mut report = Report::default();

    let mut setup_times = Vec::new();
    let mut store = None;
    for _ in 0..SETUPS {
        drop(store.take());
        let started = Instant::now();
        let built = memory_store(spec.width)?;
        store_ingest(&built, &inputs, inputs.preload_items(), 0, INGEST_BATCH, &mut ops);
        setup_times.push(started.elapsed().as_secs_f64());
        store = Some(built);
    }
    let store = store.expect("SETUPS is at least one");
    report.set("setup_s", median(&setup_times), Some(setup_times.len()));

    let started = Instant::now();
    let calls = store_ingest(
        &store,
        &inputs,
        inputs.ingest_items(),
        inputs.volumes.preload as u64,
        spec.batch,
        &mut ops,
    );
    let wall = started.elapsed();
    report.set(
        "ingest_items_per_s",
        inputs.volumes.ingest as f64 / wall.as_secs_f64(),
        Some(calls.len()),
    );
    let (ack_ms, windows) = ack_p50_ms(&calls);
    report.set("ingest_ack_p50_ms", ack_ms, Some(windows));

    let mut responses = Vec::new();
    let rates = query_rounds(options.query_phase(), |verb, n| {
        let elapsed = query_block(
            &store,
            &inputs,
            verb,
            n * verb.block(),
            verb.block(),
            inputs.truth_stage,
            &mut ops,
            &mut responses,
        );
        Ok(verb.block() as f64 / elapsed.as_secs_f64())
    })?;
    set_rates(&mut report, &rates);

    // The library's counterpart of the durability phase: its durable form is the
    // snapshot, its recovery is loading one.
    let checkpointed: usize = snapshot_shards(&store).iter().map(Vec::len).sum();
    report.set(
        "disk_bytes_per_edge",
        checkpointed as f64 / inputs.distinct_edges(Stage::Ingested) as f64,
        None,
    );
    store_ingest(
        &store,
        &inputs,
        inputs.tail_items(),
        (inputs.volumes.preload + inputs.volumes.ingest) as u64,
        spec.batch,
        &mut ops,
    );
    // Without a log, making the tail durable means writing a whole new snapshot.
    let snapshots = snapshot_shards(&store);
    let rewritten: usize = snapshots.iter().map(Vec::len).sum();
    report.set("wal_bytes_per_item", rewritten as f64 / inputs.volumes.tail as f64, None);
    let stats = store.detailed_stats();
    report.set("memory_mb", stats.total_bytes() as f64 / (1 << 20) as f64, None);
    drop(store);

    // Loading takes milliseconds, so it is repeated and the median reported.
    let mut load_times = Vec::new();
    let mut restored = Vec::new();
    for _ in 0..LIB_RESTORES {
        let started = Instant::now();
        let loaded: Result<Vec<GssSketch>, _> =
            snapshots.iter().map(|bytes| GssSketch::from_snapshot(bytes)).collect();
        load_times.push(started.elapsed().as_secs_f64());
        restored = loaded.map_err(|e| format!("snapshot does not load: {e}"))?;
    }
    report.set("recover_s", median(&load_times), Some(load_times.len()));
    let recovered: u64 = restored.iter().map(GssSketch::items_inserted).sum();
    ops.attempted += 1;
    ops.failed += recovered.abs_diff(inputs.volumes.total() as u64);
    verify_restored(&restored, &inputs, &mut ops);

    Ok(Outcome { report, ops, context: workload_context(options, &inputs) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_median_is_taken_over_window_means() {
        let ms = |v: u64| Duration::from_millis(v);
        // Two modes, 1 ms and 3 ms, alternating: every window of 16 averages 2 ms, which
        // is what the metric reports; a per-batch p50 would report one of the modes.
        let bimodal: Vec<Duration> = (0..64).map(|i| ms(1 + 2 * (i % 2))).collect();
        assert_eq!(ack_p50_ms(&bimodal), (2.0, 4));
        // A short last window still counts, with its own mean.
        let uneven: Vec<Duration> = (0..20).map(|i| ms(if i < 16 { 2 } else { 6 })).collect();
        assert_eq!(ack_p50_ms(&uneven), (4.0, 2));
        assert_eq!(ack_p50_ms(&[]), (0.0, 0));
    }

    #[test]
    fn volumes_scale_with_seconds_in_whole_batches() {
        let spec = Spec::by_name("wire_mixed").unwrap();
        let at = |seconds, quick| Options { spec, seed: 1, seconds, quick }.volumes();
        assert_eq!(at(REFERENCE_SECONDS, false).ingest, 4_000_000 / 1024 * 1024);
        assert_eq!(at(REFERENCE_SECONDS / 2.0, false).ingest, 2_000_000 / 1024 * 1024);
        let quick = at(REFERENCE_SECONDS, true);
        assert_eq!(quick.ingest, 400_000 / 1024 * 1024);
        assert_eq!(quick.preload % INGEST_BATCH, 0);
        // Never less than one batch, however small the scale.
        assert_eq!(at(1.0, true).tail, 17_500 / 1024 * 1024);
    }
}
