//! Deterministic inputs and the exact oracle every answer is checked against.
//!
//! Everything here is a pure function of `(shape, volumes, seed)`: the edge universe is
//! the de-duplicated, shuffled output of `PreferentialAttachmentGenerator`, the stream
//! is Zipf(0.5) draws over that universe with weight 1, and the query pools are drawn
//! from a second generator keyed by the same seed.  The program under test only ever
//! sees the generated items and queries.
//!
//! The oracle is exact and cheap because the stream is stored as universe indices: the
//! true weight of an edge after any prefix of the stream is a counter, and the true
//! neighbourhoods are the universe's adjacency lists filtered by "seen so far".

use gss_datasets::{PreferentialAttachmentGenerator, Xoshiro256, ZipfSampler};
use std::collections::{HashSet, VecDeque};
use std::time::Instant;

/// Zipf exponent of the item stream (rule 6).  Skewed enough that popular edges repeat
/// within a batch, flat enough that cost does not hinge on which handful of edges a seed
/// makes popular: at 0.9 the ten most popular edges carry a tenth of the stream, and six
/// seeds of `wire_cold` read 284–359 k items/s of ingest and 0.19–0.23 s of recovery; at
/// 0.5 the same seeds read 222–237 k and 0.29–0.30 s.
pub const ZIPF_EXPONENT: f64 = 0.5;
/// A reachability pair is kept only if an exact breadth-first search discovers the
/// target within this many vertex expansions and this many neighbours scanned — see
/// [`Inputs::reach_pool`].  The second cap keeps hubs out: one pair through a
/// 10 000-successor vertex costs as much as hundreds of ordinary ones, and whether a
/// seed's pool drew such a pair moved `reach_qps` threefold.
pub const REACH_MAX_EXPANSIONS: usize = 16;
pub const REACH_MAX_SCANNED: usize = 128;

pub const EDGE_POOL: usize = 65_536;
pub const SUCC_POOL: usize = 8_192;
pub const PREC_POOL: usize = 4_096;
pub const REACH_POOL: usize = 1_024;

/// `PreferentialAttachmentGenerator::new(vertices, draws, seed)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub vertices: usize,
    pub draws: usize,
}

/// Stream segments, in items.  The stream is `preload ++ ingest ++ tail`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Volumes {
    pub preload: usize,
    pub ingest: usize,
    pub tail: usize,
}

impl Volumes {
    pub fn total(&self) -> usize {
        self.preload + self.ingest + self.tail
    }
}

/// A prefix of the stream the oracle can answer for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// After the preload only.
    Preload = 0,
    /// After preload and the measured ingest.
    Ingested = 1,
    /// After the tail as well — everything ever acknowledged.
    Final = 2,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    Successors,
    Precursors,
}

/// An edge-weight query; `index` is the universe slot when the pair is a universe edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeQuery {
    pub source: u64,
    pub destination: u64,
    pub index: Option<u32>,
}

/// Adjacency in compressed-sparse-row form: `(neighbour, universe index)` per vertex,
/// sorted by neighbour.
struct Csr {
    start: Vec<u32>,
    entries: Vec<(u32, u32)>,
}

impl Csr {
    fn build(vertices: usize, pairs: impl Iterator<Item = (u64, u64, u32)> + Clone) -> Self {
        let mut start = vec![0u32; vertices + 1];
        for (from, _, _) in pairs.clone() {
            start[from as usize + 1] += 1;
        }
        for v in 0..vertices {
            start[v + 1] += start[v];
        }
        let mut cursor = start.clone();
        let mut entries = vec![(0u32, 0u32); start[vertices] as usize];
        for (from, to, index) in pairs {
            let slot = &mut cursor[from as usize];
            entries[*slot as usize] = (to as u32, index);
            *slot += 1;
        }
        for v in 0..vertices {
            entries[start[v] as usize..start[v + 1] as usize].sort_unstable();
        }
        Self { start, entries }
    }

    fn of(&self, vertex: u64) -> &[(u32, u32)] {
        let v = vertex as usize;
        if v + 1 >= self.start.len() {
            return &[];
        }
        &self.entries[self.start[v] as usize..self.start[v + 1] as usize]
    }
}

pub struct Inputs {
    pub shape: Shape,
    pub volumes: Volumes,
    /// Distinct directed edges, shuffled; Zipf rank `r` is `universe[r - 1]`.
    pub universe: Vec<(u64, u64)>,
    /// The stream, as universe indices.
    pub items: Vec<u32>,
    /// `counts[stage][index]`: true weight of a universe edge after that stage.
    counts: [Vec<u32>; 3],
    out_adj: Csr,
    in_adj: Csr,
    /// Three quarters universe edges (seen or not), one quarter random vertex pairs.
    pub edge_pool: Vec<EdgeQuery>,
    /// Uniform over the vertex range.
    pub succ_pool: Vec<u64>,
    pub prec_pool: Vec<u64>,
    /// Pairs at true distance 1–3 at `truth_stage`, each discovered by an exact
    /// breadth-first search within [`REACH_MAX_EXPANSIONS`] expansions and
    /// [`REACH_MAX_SCANNED`] neighbours.  Sent with
    /// `max_hops = 0` (exhaustive), so a sketch — whose successor sets contain the
    /// true ones — must answer `true` for every one of them at that stage or later.
    pub reach_pool: Vec<(u64, u64)>,
    /// The stage the reach pool was drawn against and query answers are held to.
    pub truth_stage: Stage,
    /// Seconds spent generating (reported as `bench.gen_s`, never part of `setup_s`).
    pub gen_s: f64,
}

impl Inputs {
    pub fn generate(shape: Shape, volumes: Volumes, truth_stage: Stage, seed: u64) -> Self {
        let started = Instant::now();
        let universe = universe(shape, seed);
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x5EED_0001);
        let zipf = ZipfSampler::new(universe.len(), ZIPF_EXPONENT);
        let items: Vec<u32> =
            (0..volumes.total()).map(|_| (zipf.sample(&mut rng) - 1) as u32).collect();

        let mut running = vec![0u32; universe.len()];
        let mut counts: [Vec<u32>; 3] = Default::default();
        let ends = [volumes.preload, volumes.preload + volumes.ingest, volumes.total()];
        let mut from = 0;
        for (stage, &end) in ends.iter().enumerate() {
            for &index in &items[from..end] {
                running[index as usize] += 1;
            }
            counts[stage] = running.clone();
            from = end;
        }

        let indexed = universe.iter().enumerate().map(|(i, &(s, d))| (s, d, i as u32));
        let out_adj = Csr::build(shape.vertices, indexed.clone());
        let in_adj = Csr::build(shape.vertices, indexed.map(|(s, d, i)| (d, s, i)));

        let mut inputs = Self {
            shape,
            volumes,
            universe,
            items,
            counts,
            out_adj,
            in_adj,
            edge_pool: Vec::new(),
            succ_pool: Vec::new(),
            prec_pool: Vec::new(),
            reach_pool: Vec::new(),
            truth_stage,
            gen_s: 0.0,
        };
        inputs.draw_pools(seed ^ 0x5EED_0002);
        inputs.gen_s = started.elapsed().as_secs_f64();
        inputs
    }

    fn draw_pools(&mut self, seed: u64) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let vertices = self.shape.vertices as u64;
        self.edge_pool = (0..EDGE_POOL)
            .map(|i| {
                if i % 4 == 3 {
                    let (source, destination) =
                        (rng.next_below(vertices), rng.next_below(vertices));
                    let index = self
                        .out_adj
                        .of(source)
                        .binary_search_by_key(&(destination as u32), |&(to, _)| to)
                        .ok()
                        .map(|slot| self.out_adj.of(source)[slot].1);
                    EdgeQuery { source, destination, index }
                } else {
                    let index = rng.next_index(self.universe.len());
                    let (source, destination) = self.universe[index];
                    EdgeQuery { source, destination, index: Some(index as u32) }
                }
            })
            .collect();
        self.succ_pool = (0..SUCC_POOL).map(|_| rng.next_below(vertices)).collect();
        self.prec_pool = (0..PREC_POOL).map(|_| rng.next_below(vertices)).collect();

        let stage = self.truth_stage;
        let mut pool = Vec::with_capacity(REACH_POOL);
        // A stream this long always leaves seen edges, so the rejection loops end; the
        // attempt cap only turns an impossible input into a short pool instead of a hang.
        let mut attempts = 0usize;
        while pool.len() < REACH_POOL && attempts < REACH_POOL * 1000 {
            attempts += 1;
            let start = rng.next_index(self.universe.len());
            if self.counts[stage as usize][start] == 0 {
                continue;
            }
            let source = self.universe[start].0;
            let mut at = source;
            for _ in 0..1 + rng.next_index(3) {
                let seen: Vec<u64> =
                    self.true_neighbors(at, stage, Direction::Successors).collect();
                if seen.is_empty() {
                    break;
                }
                at = seen[rng.next_index(seen.len())];
            }
            if at != source && self.exact_reach_cost(source, at, stage).is_some() {
                pool.push((source, at));
            }
        }
        self.reach_pool = pool;
    }

    /// Vertex expansions an exact level-order search needs to discover `destination`,
    /// or `None` beyond [`REACH_MAX_EXPANSIONS`] / [`REACH_MAX_SCANNED`] (or if
    /// unreachable).
    fn exact_reach_cost(&self, source: u64, destination: u64, stage: Stage) -> Option<usize> {
        let mut visited: HashSet<u64> = HashSet::from([source]);
        let mut queue = VecDeque::from([source]);
        let (mut expansions, mut scanned) = (0, 0);
        while let Some(v) = queue.pop_front() {
            expansions += 1;
            if expansions > REACH_MAX_EXPANSIONS {
                return None;
            }
            for next in self.true_neighbors(v, stage, Direction::Successors) {
                scanned += 1;
                if scanned > REACH_MAX_SCANNED {
                    return None;
                }
                if next == destination {
                    return Some(expansions);
                }
                if visited.insert(next) {
                    queue.push_back(next);
                }
            }
        }
        None
    }

    /// The slice of the stream a phase sends.
    pub fn preload_items(&self) -> &[u32] {
        &self.items[..self.volumes.preload]
    }

    pub fn ingest_items(&self) -> &[u32] {
        &self.items[self.volumes.preload..self.volumes.preload + self.volumes.ingest]
    }

    pub fn tail_items(&self) -> &[u32] {
        &self.items[self.volumes.preload + self.volumes.ingest..]
    }

    /// Distinct edges the oracle holds after `stage`.
    pub fn distinct_edges(&self, stage: Stage) -> usize {
        self.counts[stage as usize].iter().filter(|&&count| count > 0).count()
    }

    /// True weight of a queried pair after `stage` (0 = never seen).
    pub fn edge_truth(&self, query: &EdgeQuery, stage: Stage) -> i64 {
        query.index.map_or(0, |index| i64::from(self.counts[stage as usize][index as usize]))
    }

    /// One-sided error, edges: the reported weight is never below the truth.
    pub fn edge_ok(&self, query: &EdgeQuery, answer: Option<i64>, stage: Stage) -> bool {
        answer.unwrap_or(0) >= self.edge_truth(query, stage)
    }

    pub fn true_neighbors(
        &self,
        vertex: u64,
        stage: Stage,
        direction: Direction,
    ) -> impl Iterator<Item = u64> + '_ {
        let adjacency = match direction {
            Direction::Successors => &self.out_adj,
            Direction::Precursors => &self.in_adj,
        };
        let counts = &self.counts[stage as usize];
        adjacency
            .of(vertex)
            .iter()
            .filter(move |&&(_, index)| counts[index as usize] > 0)
            .map(|&(neighbor, _)| u64::from(neighbor))
    }

    /// One-sided error, neighbourhoods: no true neighbour is missing from the answer.
    pub fn neighbors_ok(
        &self,
        vertex: u64,
        answer: &[u64],
        stage: Stage,
        direction: Direction,
    ) -> bool {
        let sorted;
        let answer = if answer.windows(2).all(|pair| pair[0] <= pair[1]) {
            answer
        } else {
            sorted = {
                let mut copy = answer.to_vec();
                copy.sort_unstable();
                copy
            };
            &sorted
        };
        self.true_neighbors(vertex, stage, direction)
            .all(|neighbor| answer.binary_search(&neighbor).is_ok())
    }

    /// A 64-bit multiply-xor fold (FNV-1a's step, a word at a time) over the universe,
    /// the stream and the pools: two runs with one digest were given identical inputs.
    pub fn digest(&self) -> u64 {
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        let mut feed = |value: u64| hash = (hash ^ value).wrapping_mul(0x0000_0100_0000_01B3);
        for &(s, d) in &self.universe {
            feed(s);
            feed(d);
        }
        self.items.iter().for_each(|&i| feed(u64::from(i)));
        for q in &self.edge_pool {
            feed(q.source);
            feed(q.destination);
        }
        self.succ_pool.iter().chain(&self.prec_pool).for_each(|&v| feed(v));
        for &(s, d) in &self.reach_pool {
            feed(s);
            feed(d);
        }
        hash
    }
}

/// De-duplicated preferential-attachment edges in a seed-determined shuffle.
pub fn universe(shape: Shape, seed: u64) -> Vec<(u64, u64)> {
    let mut edges: Vec<(u64, u64)> =
        PreferentialAttachmentGenerator::new(shape.vertices, shape.draws, seed)
            .generate()
            .iter()
            .map(|item| (item.source, item.destination))
            .collect();
    edges.sort_unstable();
    edges.dedup();
    Xoshiro256::seed_from_u64(seed ^ 0x5EED_0003).shuffle(&mut edges);
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_graph::{AdjacencyListGraph, SummaryRead, SummaryWrite};

    const SMALL: Shape = Shape { vertices: 300, draws: 1_500 };
    const SMALL_VOLUMES: Volumes = Volumes { preload: 2_000, ingest: 3_000, tail: 1_000 };

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        let a = Inputs::generate(SMALL, SMALL_VOLUMES, Stage::Ingested, 42);
        let b = Inputs::generate(SMALL, SMALL_VOLUMES, Stage::Ingested, 42);
        let c = Inputs::generate(SMALL, SMALL_VOLUMES, Stage::Ingested, 43);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_eq!(a.items.len(), SMALL_VOLUMES.total());
        assert_eq!(a.reach_pool.len(), REACH_POOL);
    }

    #[test]
    fn shipped_shapes_have_the_documented_universe_sizes() {
        // The README's load factors are computed from these; seed 42 is the default.
        assert_eq!(universe(crate::workloads::HOT_SHAPE, 42).len(), 48_128);
        assert_eq!(universe(crate::workloads::COLD_SHAPE, 42).len(), 799_803);
    }

    #[test]
    fn oracle_agrees_with_the_exact_adjacency_list_graph() {
        let inputs = Inputs::generate(SMALL, SMALL_VOLUMES, Stage::Ingested, 7);
        let ends = [
            (Stage::Preload, SMALL_VOLUMES.preload),
            (Stage::Ingested, SMALL_VOLUMES.preload + SMALL_VOLUMES.ingest),
            (Stage::Final, SMALL_VOLUMES.total()),
        ];
        for (stage, end) in ends {
            let mut graph = AdjacencyListGraph::new();
            for &index in &inputs.items[..end] {
                let (s, d) = inputs.universe[index as usize];
                graph.insert(s, d, 1);
            }
            assert_eq!(inputs.distinct_edges(stage), graph.edge_count());
            for query in &inputs.edge_pool[..4_096] {
                let exact = graph.edge_weight(query.source, query.destination).unwrap_or(0);
                assert_eq!(inputs.edge_truth(query, stage), exact);
                assert!(inputs.edge_ok(query, Some(exact), stage));
                assert!(!inputs.edge_ok(query, Some(exact - 1), stage));
                assert_eq!(inputs.edge_ok(query, None, stage), exact == 0);
            }
            for vertex in 0..SMALL.vertices as u64 {
                for direction in [Direction::Successors, Direction::Precursors] {
                    let mut exact = match direction {
                        Direction::Successors => graph.successors(vertex),
                        Direction::Precursors => graph.precursors(vertex),
                    };
                    exact.sort_unstable();
                    let ours: Vec<u64> = inputs.true_neighbors(vertex, stage, direction).collect();
                    assert_eq!(ours, exact);
                    assert!(inputs.neighbors_ok(vertex, &exact, stage, direction));
                    if let Some((_, rest)) = exact.split_first() {
                        assert!(!inputs.neighbors_ok(vertex, rest, stage, direction));
                    }
                }
            }
            if stage == inputs.truth_stage {
                for &(s, d) in &inputs.reach_pool {
                    assert!(graph.is_reachable(s, d), "{s} -> {d} is not a true path");
                }
            }
        }
    }

    #[test]
    fn unsorted_answers_are_checked_as_sets() {
        let inputs = Inputs::generate(SMALL, SMALL_VOLUMES, Stage::Ingested, 7);
        let vertex = (0..SMALL.vertices as u64)
            .find(|&v| inputs.true_neighbors(v, Stage::Final, Direction::Successors).count() >= 2)
            .expect("some vertex has two successors");
        let mut answer: Vec<u64> =
            inputs.true_neighbors(vertex, Stage::Final, Direction::Successors).collect();
        answer.reverse();
        answer.push(u64::MAX); // a false positive is allowed
        assert!(inputs.neighbors_ok(vertex, &answer, Stage::Final, Direction::Successors));
    }
}
