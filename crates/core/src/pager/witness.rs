//! Debug-only runtime lock-order witness.
//!
//! `gss-lint` rule L001 checks the pager's lock order *statically* and
//! intra-procedurally; this module checks it *dynamically* and across call chains.
//! Every instrumented acquisition pushes its [`LockClass`] onto a thread-local
//! held-lock stack and records a `held → acquired` edge in a global lock-class graph.
//! Inserting an edge whose reverse path already exists means two threads can acquire
//! the same pair of classes in opposite orders — the precondition for deadlock — and
//! the witness panics at the acquisition site *before* the program can actually
//! deadlock, naming both classes.
//!
//! The witness works over observed edges with cycle detection rather than a fixed
//! total order, because the real hierarchy is a DAG, not a chain: the eviction path
//! legitimately holds a stripe mutex and a page latch while draining the WAL.  The one
//! deliberate inversion — `PageCache::lookup`'s error path takes a stripe mutex while
//! the *fresh, pinned* slot's latch is held — is registered through
//! [`acquire_declared`], which records the edge for reporting but excludes it from the
//! cycle check (mirroring the static `gss-lint: allow(L001, ...)` waiver at the same
//! site).  Same-class nesting is a self-edge and flags immediately.
//!
//! Everything compiles to nothing without `debug_assertions`: [`Held`] becomes a ZST
//! and [`acquire`] a no-op, so release builds pay zero cost.  The crash matrix runs
//! under the `release-witness` profile (release + `debug-assertions = true`) so the
//! witness also rides through the SIGKILL kill-matrix.

/// The lock classes the pager family distinguishes, in rough top-down order of the
/// observed DAG.  `gss-lint` L001 enforces the stripe/latch/WAL core of this order
/// statically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum LockClass {
    /// A `ShardedGss` shard `RwLock` (outermost: user-facing operations).
    Shard = 0,
    /// `FileStore`'s checkpoint `sync_state` mutex.
    CheckpointState = 1,
    /// A page-table stripe mutex (`PageCache` stripe `slots`).
    StripeMap = 2,
    /// A page-slot `RwLock` latch (`PageSlot::data`).
    PageLatch = 3,
    /// The WAL append mutex (`Wal::wal`).
    WalAppend = 4,
    /// The flush-hook mutex (leaf: user callbacks fire outside all store locks).
    Hook = 5,
    /// A group-commit mutex: a log's drain token (`Wal::group_token`) or the cadence's
    /// member list (`Cadence::group`).  Sits between the stripe/checkpoint layer and the
    /// WAL append mutex in the DAG: the eviction barrier takes the token under a stripe
    /// guard, and a leader releases it *before* touching the append mutex, so no
    /// Group → Wal edge exists at runtime.
    GroupCommit = 6,
    /// The `gss-server` namespace-registry `RwLock` (tenant name → open tenant map).
    /// Sits *above* [`LockClass::Shard`] at the very top of the DAG: a request handler
    /// resolves its tenant under the registry lock (holding it across lazy tenant
    /// construction, which opens sketch files but acquires no shard lock), and every
    /// sketch operation afterwards takes shard locks with the registry lock already
    /// released — or still held read-side, making `NamespaceRegistry → Shard` the only
    /// legal direction.  Sketch code must never call back up into the registry.
    NamespaceRegistry = 7,
}

pub const CLASS_COUNT: usize = 8;

impl LockClass {
    pub fn name(self) -> &'static str {
        match self {
            LockClass::Shard => "Shard",
            LockClass::CheckpointState => "CheckpointState",
            LockClass::StripeMap => "StripeMap",
            LockClass::PageLatch => "PageLatch",
            LockClass::WalAppend => "WalAppend",
            LockClass::Hook => "Hook",
            LockClass::GroupCommit => "GroupCommit",
            LockClass::NamespaceRegistry => "NamespaceRegistry",
        }
    }

    fn from_index(i: usize) -> LockClass {
        match i {
            0 => LockClass::Shard,
            1 => LockClass::CheckpointState,
            2 => LockClass::StripeMap,
            3 => LockClass::PageLatch,
            4 => LockClass::WalAppend,
            5 => LockClass::Hook,
            6 => LockClass::GroupCommit,
            _ => LockClass::NamespaceRegistry,
        }
    }
}

/// Proof of an instrumented acquisition; dropping it pops the thread-local stack.
/// A ZST in release builds.
#[must_use = "dropping the token immediately unregisters the acquisition"]
#[derive(Debug)]
pub struct Held {
    #[cfg(debug_assertions)]
    class: LockClass,
}

/// Wraps a real lock guard together with its witness token so functions can hand both
/// back as one value; dereferences to the guard's target.
#[derive(Debug)]
pub struct Tracked<G> {
    _held: Held,
    guard: G,
}

impl<G> Tracked<G> {
    pub fn new(held: Held, guard: G) -> Self {
        Self { _held: held, guard }
    }
}

impl<G: std::ops::Deref> std::ops::Deref for Tracked<G> {
    type Target = G::Target;

    fn deref(&self) -> &Self::Target {
        &self.guard
    }
}

impl<G: std::ops::DerefMut> std::ops::DerefMut for Tracked<G> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.guard
    }
}

/// Snapshot of what the witness has seen; empty in release builds.
#[derive(Debug, Default, Clone)]
pub struct WitnessReport {
    /// Observed (and declared) `held → acquired` edges, by class.
    pub edges: Vec<(LockClass, LockClass)>,
    /// Total acquisitions per class, indexed by `LockClass as usize`.
    pub acquisitions: [u64; CLASS_COUNT],
}

impl WitnessReport {
    /// True when the *checked* edges (declared-safe ones excluded) form a DAG — i.e.
    /// no two lock classes were ever taken in both orders.
    pub fn is_acyclic(&self) -> bool {
        self.cycle().is_none()
    }

    /// A witness cycle through the checked edges, if any.
    pub fn cycle(&self) -> Option<Vec<LockClass>> {
        // The panic in `acquire` makes a cycle unreachable in practice; re-deriving it
        // here keeps the report honest if panics were caught (as the tests do).
        let mut adj = [[false; CLASS_COUNT]; CLASS_COUNT];
        for &(from, to) in &self.edges {
            adj[from as usize][to as usize] = true;
        }
        // Colors: 0 unvisited, 1 on stack, 2 done.
        let mut color = [0u8; CLASS_COUNT];
        let mut stack = Vec::new();
        for start in 0..CLASS_COUNT {
            if color[start] == 0 && dfs(start, &adj, &mut color, &mut stack) {
                return Some(stack.into_iter().map(LockClass::from_index).collect());
            }
        }
        None
    }

    pub fn acquisitions_of(&self, class: LockClass) -> u64 {
        self.acquisitions[class as usize]
    }
}

fn dfs(
    node: usize,
    adj: &[[bool; CLASS_COUNT]; CLASS_COUNT],
    color: &mut [u8; CLASS_COUNT],
    stack: &mut Vec<usize>,
) -> bool {
    color[node] = 1;
    stack.push(node);
    for (next, &edge) in adj[node].iter().enumerate() {
        if !edge {
            continue;
        }
        if color[next] == 1 {
            stack.push(next);
            return true;
        }
        if color[next] == 0 && dfs(next, adj, color, stack) {
            return true;
        }
    }
    color[node] = 2;
    stack.pop();
    false
}

/// Registers an acquisition of `class` on this thread, panicking if the implied
/// `held → class` edge creates an order cycle with edges observed anywhere in the
/// process.  Call it immediately *before* the blocking lock call so the witness fires
/// even when the program would otherwise deadlock.
#[inline]
pub fn acquire(class: LockClass) -> Held {
    imp::register(class, false)
}

/// Like [`acquire`], but the edges this acquisition introduces are recorded as
/// declared-safe: visible in [`WitnessReport::edges`]' diagnostics yet excluded from
/// the cycle check.  The only in-tree caller is `PageCache::lookup`'s error path,
/// where the held latch belongs to a freshly inserted slot that is pinned by a strong
/// reference and therefore can never be the eviction victim on another thread.
#[inline]
pub fn acquire_declared(class: LockClass) -> Held {
    imp::register(class, true)
}

/// Snapshot of observed edges and acquisition counts; empty in release builds.
pub fn report() -> WitnessReport {
    imp::report()
}

#[cfg(debug_assertions)]
mod imp {
    use super::{Held, LockClass, WitnessReport, CLASS_COUNT};
    use std::cell::RefCell;
    use std::sync::Mutex;

    /// Edge states: absent, observed (checked), declared-safe (unchecked).
    const ABSENT: u8 = 0;
    const OBSERVED: u8 = 1;
    const DECLARED: u8 = 2;

    struct Graph {
        edges: [[u8; CLASS_COUNT]; CLASS_COUNT],
        acquisitions: [u64; CLASS_COUNT],
    }

    static GRAPH: Mutex<Graph> = Mutex::new(Graph {
        edges: [[ABSENT; CLASS_COUNT]; CLASS_COUNT],
        acquisitions: [0; CLASS_COUNT],
    });

    thread_local! {
        static HELD: RefCell<Vec<LockClass>> = const { RefCell::new(Vec::new()) };
    }

    /// Locks the graph, riding through poison: a witness panic on one thread must not
    /// blind the witness on every other thread.
    fn graph() -> std::sync::MutexGuard<'static, Graph> {
        GRAPH.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub(super) fn register(class: LockClass, declared: bool) -> Held {
        let held_snapshot: Vec<LockClass> = HELD.with(|held| held.borrow().clone());
        {
            let mut graph = graph();
            graph.acquisitions[class as usize] += 1;
            for &held in &held_snapshot {
                let current = graph.edges[held as usize][class as usize];
                if declared {
                    if current == ABSENT {
                        graph.edges[held as usize][class as usize] = DECLARED;
                    }
                    continue;
                }
                if current == OBSERVED {
                    continue; // already checked the first time it was observed
                }
                // Check BEFORE inserting: a violating edge is reported, not recorded,
                // so a caught panic leaves the graph uncorrupted for other threads.
                if let Some(cycle) = cycle_with(&graph.edges, held, class) {
                    let path: Vec<&str> = cycle.iter().map(|c| c.name()).collect();
                    drop(graph);
                    panic!(
                        "lock-order witness: acquiring {} while holding {} closes a \
                         cycle [{}] — two threads can deadlock on these classes \
                         (see gss-lint rule L001)",
                        class.name(),
                        held.name(),
                        path.join(" -> ")
                    );
                }
                graph.edges[held as usize][class as usize] = OBSERVED;
            }
        }
        HELD.with(|held| held.borrow_mut().push(class));
        Held { class }
    }

    /// Would adding checked edge `from → to` close a cycle?  Self-edges (same-class
    /// nesting) count.  Only `OBSERVED` edges participate.
    fn cycle_with(
        edges: &[[u8; CLASS_COUNT]; CLASS_COUNT],
        from: LockClass,
        to: LockClass,
    ) -> Option<Vec<LockClass>> {
        if from == to {
            return Some(vec![from, to]);
        }
        // The new edge closes a cycle iff `from` is already reachable from `to`.
        let mut visited = [false; CLASS_COUNT];
        let mut path = vec![to];
        if reach(edges, to as usize, from as usize, &mut visited, &mut path) {
            path.push(to);
            Some(path)
        } else {
            None
        }
    }

    fn reach(
        edges: &[[u8; CLASS_COUNT]; CLASS_COUNT],
        at: usize,
        goal: usize,
        visited: &mut [bool; CLASS_COUNT],
        path: &mut Vec<LockClass>,
    ) -> bool {
        if at == goal {
            return true;
        }
        visited[at] = true;
        for next in 0..CLASS_COUNT {
            if edges[at][next] == OBSERVED && !visited[next] {
                path.push(LockClass::from_index(next));
                if reach(edges, next, goal, visited, path) {
                    return true;
                }
                path.pop();
            }
        }
        false
    }

    pub(super) fn report() -> WitnessReport {
        let graph = graph();
        let mut edges = Vec::new();
        for from in 0..CLASS_COUNT {
            for to in 0..CLASS_COUNT {
                if graph.edges[from][to] == OBSERVED {
                    edges.push((LockClass::from_index(from), LockClass::from_index(to)));
                }
            }
        }
        WitnessReport { edges, acquisitions: graph.acquisitions }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                // Remove the last occurrence: tokens usually drop LIFO, but `Tracked`
                // guards stored in structs may outlive later acquisitions.
                if let Some(at) = held.iter().rposition(|&c| c == self.class) {
                    held.remove(at);
                }
            });
        }
    }
}

#[cfg(not(debug_assertions))]
mod imp {
    use super::{Held, LockClass, WitnessReport};

    #[inline(always)]
    pub(super) fn register(_class: LockClass, _declared: bool) -> Held {
        Held {}
    }

    #[inline(always)]
    pub(super) fn report() -> WitnessReport {
        WitnessReport::default()
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    // The witness graph is process-global and these tests run concurrently with the
    // rest of the suite, which exercises the real pager edges.  Each test therefore
    // only asserts properties of the edges it introduces itself, and the
    // deliberately-inverted acquisitions run on classes in an order the real code
    // never contradicts (the real DAG plus the tested reverse edge forms the cycle).

    #[test]
    fn nested_acquisition_in_dag_order_is_silent() {
        let outer = acquire(LockClass::Shard);
        let inner = acquire(LockClass::CheckpointState);
        drop(inner);
        drop(outer);
        let report = report();
        assert!(report.edges.contains(&(LockClass::Shard, LockClass::CheckpointState)));
        assert!(report.is_acyclic());
        assert!(report.acquisitions_of(LockClass::Shard) >= 1);
    }

    #[test]
    fn inverted_order_across_threads_is_detected() {
        // Forward direction first: CheckpointState -> WalAppend (a real edge: the
        // checkpoint path logs its tail image under the sync_state mutex).
        let result = std::thread::spawn(|| {
            let chk = acquire(LockClass::CheckpointState);
            let wal = acquire(LockClass::WalAppend);
            drop(wal);
            drop(chk);
            // Reverse direction on the same thread later — exactly what a refactor
            // that calls checkpoint() from under the WAL append mutex would do.
            let wal = acquire(LockClass::WalAppend);
            let _chk = acquire(LockClass::CheckpointState); // must panic here
            drop(wal);
        })
        .join();
        let panic = result.expect_err("the witness must panic on the inverted acquisition");
        let message = panic
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()).unwrap());
        assert!(message.contains("lock-order witness"), "unexpected panic: {message}");
        assert!(message.contains("CheckpointState") && message.contains("WalAppend"));
        // The violating edge was never inserted, so the global graph stays acyclic.
        assert!(report().is_acyclic());
    }

    #[test]
    fn same_class_nesting_is_a_self_cycle() {
        let result = std::thread::spawn(|| {
            let first = acquire(LockClass::Hook);
            let _second = acquire(LockClass::Hook); // must panic: self-edge
            drop(first);
        })
        .join();
        assert!(result.is_err(), "nesting two locks of one class must be flagged");
        assert!(report().is_acyclic());
    }

    #[test]
    fn declared_edges_are_reported_but_not_checked() {
        // The page-cache error path's latch -> stripe edge: declared safe because the
        // latch belongs to a pinned fresh slot.  The reverse (stripe -> latch) is a
        // real observed edge, so without the declaration this would be a cycle.
        let stripe = acquire(LockClass::StripeMap);
        let latch = acquire(LockClass::PageLatch);
        drop(latch);
        drop(stripe);
        let latch = acquire(LockClass::PageLatch);
        let declared = acquire_declared(LockClass::StripeMap); // no panic: declared
        drop(declared);
        drop(latch);
        let report = report();
        assert!(report.edges.contains(&(LockClass::StripeMap, LockClass::PageLatch)));
        assert!(
            !report.edges.contains(&(LockClass::PageLatch, LockClass::StripeMap)),
            "declared edges stay out of the checked set"
        );
        assert!(report.is_acyclic());
    }

    #[test]
    fn namespace_registry_sits_above_the_shard_class() {
        // The server's request path: resolve the tenant under the registry lock, then
        // take shard locks.  The forward edge must record silently; the reverse
        // (sketch code calling back up into the registry) would close a cycle.
        let registry = acquire(LockClass::NamespaceRegistry);
        let shard = acquire(LockClass::Shard);
        drop(shard);
        drop(registry);
        let report = report();
        assert!(report.edges.contains(&(LockClass::NamespaceRegistry, LockClass::Shard)));
        assert!(report.is_acyclic());
    }

    #[test]
    fn dropping_the_token_ends_the_hold() {
        let first = acquire(LockClass::WalAppend);
        drop(first);
        // WalAppend is no longer held, so re-acquiring it is nesting-free.
        let second = acquire(LockClass::WalAppend);
        drop(second);
        assert!(report().is_acyclic());
    }

    #[test]
    fn tracked_derefs_to_the_guard_target() {
        let lock = std::sync::Mutex::new(41);
        let mut tracked = Tracked::new(acquire(LockClass::Hook), lock.lock().unwrap());
        *tracked += 1;
        assert_eq!(*tracked, 42);
    }
}
