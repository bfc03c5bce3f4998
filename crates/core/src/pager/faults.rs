//! Deterministic I/O fault injection beneath [`PageFile`](crate::pager::page_file):
//! [`FaultPlan`].
//!
//! Crash testing (the kill matrix) proves consistency against exactly one fault:
//! process death.  Real disks fail differently — `EIO` on write-back, `ENOSPC`
//! mid-checkpoint, short reads, torn writes, and failed `fsync` — and each must
//! surface as a *typed, fail-stop* error rather than a lie about durability.  This
//! module provides the deterministic scheduler those tests script.
//!
//! A [`FaultPlan`] names a set of [`FaultSite`]s: *the Nth occurrence of op class C
//! fails with kind K*.  Plans are injected beneath every [`PageFile`](super::page_file::PageFile) the store stack
//! opens (the sketch file **and** the write-ahead log, so group-commit drains and
//! cadence syncs are covered), in one of two ways:
//!
//! * **Programmatic** ([`install`]): a test builds a plan with a `path_token` matching
//!   its unique temp-file name and holds the returned [`FaultGuard`]; dropping the
//!   guard removes the plan.  Token matching keeps parallel tests isolated.
//! * **Environment** (`GSS_FAULT_PLAN`): the crash/fault harness sets a spec string
//!   (see [`FaultPlan::parse`]) before spawning the ingest process; the plan then
//!   applies to every file the process opens.
//!
//! ## Zero cost when disabled
//!
//! Plans are resolved once per *file open* ([`plan_for`]), not per I/O call: an
//! unfaulted `PageFile` carries `None` and every I/O pays exactly one `Option`
//! branch.  `plan_for` itself short-circuits on a global armed flag, so production
//! opens never take the registry lock.
//!
//! ## Spec grammar
//!
//! ```text
//! spec  := segment (';' segment)*
//! segment := site | scope
//! site  := op ':' kind '@' n         — the n-th occurrence (1-based) of op fails
//! scope := 'path=' token             — plan applies only to files whose name
//!                                      contains token (last scope segment wins)
//! op    := read | write | sync_data | sync_all | set_len
//! kind  := eio | enospc | eintr | short | torn
//! ```
//!
//! Example: `write:torn@120;sync_data:eio@3` tears the 120th positioned write and
//! fails the third `fdatasync`; `path=gamma;write:eio@10` fails the 10th write of
//! files whose name contains `gamma` only (how the server smoke test poisons one
//! tenant of a multi-tenant `gss-server` while its neighbours keep serving).
//! `eintr`/`short` are *transient* (the page layer retries them, bounded);
//! `eio`/`enospc`/`torn` are hard faults that poison the store (see
//! [`crate::error::StoreHealth`]).

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// The I/O operation classes a plan can target, matching [`PageFile`]'s surface.
///
/// [`PageFile`]: crate::pager::page_file::PageFile
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// Positioned reads (`read_exact_at`).
    Read,
    /// Positioned writes (`write_all_at`).
    Write,
    /// `fdatasync` (`sync_data`).
    SyncData,
    /// `fsync` (`sync_all`).
    SyncAll,
    /// Truncation/extension (`set_len`).
    SetLen,
}

/// Number of [`FaultOp`] classes (the per-plan counter array size).
pub const FAULT_OP_CLASSES: usize = 5;

impl FaultOp {
    pub(crate) fn index(self) -> usize {
        match self {
            FaultOp::Read => 0,
            FaultOp::Write => 1,
            FaultOp::SyncData => 2,
            FaultOp::SyncAll => 3,
            FaultOp::SetLen => 4,
        }
    }

    fn parse(text: &str) -> Option<Self> {
        match text {
            "read" => Some(FaultOp::Read),
            "write" => Some(FaultOp::Write),
            "sync_data" => Some(FaultOp::SyncData),
            "sync_all" => Some(FaultOp::SyncAll),
            "set_len" => Some(FaultOp::SetLen),
            _ => None,
        }
    }
}

/// How a scheduled occurrence fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Hard I/O error (`EIO`); poisons the store when it hits a write/sync path.
    Eio,
    /// Disk full (`ENOSPC` / [`std::io::ErrorKind::StorageFull`]); hard.
    Enospc,
    /// Interrupted call (`EINTR`); transient, the page layer retries it.
    Eintr,
    /// Short read: only part of the requested range arrives before an interrupt;
    /// transient, the retry re-reads the full range.
    ShortRead,
    /// Torn write: the first half of the buffer reaches the file, then `EIO`.  Hard,
    /// and the on-disk state is now a *partial* image — exactly what WAL replay's
    /// longest-valid-prefix rule must absorb.
    TornWrite,
}

impl FaultKind {
    fn parse(text: &str) -> Option<Self> {
        match text {
            "eio" => Some(FaultKind::Eio),
            "enospc" => Some(FaultKind::Enospc),
            "eintr" => Some(FaultKind::Eintr),
            "short" => Some(FaultKind::ShortRead),
            "torn" => Some(FaultKind::TornWrite),
            _ => None,
        }
    }

    /// Whether the page layer may retry the operation (bounded) instead of failing.
    pub fn is_transient(self) -> bool {
        matches!(self, FaultKind::Eintr | FaultKind::ShortRead)
    }
}

/// One scheduled failure: the `at`-th occurrence (1-based) of `op` fails with `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSite {
    /// The operation class the site counts.
    pub op: FaultOp,
    /// How the matched occurrence fails.
    pub kind: FaultKind,
    /// 1-based occurrence number within the plan's shared counters.
    pub at: u64,
}

/// A deterministic fault schedule, shared by every [`PageFile`](super::page_file::PageFile) it matched at open
/// time.  Occurrence counters are *plan-global*: a plan matching both the sketch file
/// and its log counts their operations together, which keeps single-threaded harness
/// runs deterministic.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Substring the target file's name must contain; `None` matches every file.
    path_token: Option<String>,
    sites: Vec<FaultSite>,
    counts: [AtomicU64; FAULT_OP_CLASSES],
    injected: AtomicU64,
}

impl FaultPlan {
    /// A plan applying to every file opened while it is installed.
    pub fn new(sites: Vec<FaultSite>) -> Self {
        Self { path_token: None, sites, ..Self::default() }
    }

    /// A plan applying only to files whose name contains `token` (tests use their
    /// unique temp-file name, isolating parallel tests sharing the registry).
    pub fn for_path_token(token: impl Into<String>, sites: Vec<FaultSite>) -> Self {
        Self { path_token: Some(token.into()), sites, ..Self::default() }
    }

    /// Restricts a parsed plan to files whose name contains `token` (the spec-string
    /// counterpart of [`Self::for_path_token`]).
    pub fn with_path_token(mut self, token: impl Into<String>) -> Self {
        self.path_token = Some(token.into());
        self
    }

    /// Parses the `GSS_FAULT_PLAN` spec grammar (see the module docs).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut sites = Vec::new();
        let mut path_token = None;
        for part in spec.split(';').map(str::trim).filter(|p| !p.is_empty()) {
            if let Some(token) = part.strip_prefix("path=") {
                let token = token.trim();
                if token.is_empty() {
                    return Err(format!("empty path token in `{part}`"));
                }
                path_token = Some(token.to_string());
                continue;
            }
            let (op_text, rest) =
                part.split_once(':').ok_or_else(|| format!("missing ':' in `{part}`"))?;
            let (kind_text, at_text) =
                rest.split_once('@').ok_or_else(|| format!("missing '@' in `{part}`"))?;
            let op = FaultOp::parse(op_text.trim())
                .ok_or_else(|| format!("unknown op `{op_text}` in `{part}`"))?;
            let kind = FaultKind::parse(kind_text.trim())
                .ok_or_else(|| format!("unknown kind `{kind_text}` in `{part}`"))?;
            let at: u64 = at_text
                .trim()
                .parse()
                .map_err(|_| format!("bad occurrence number `{at_text}` in `{part}`"))?;
            if at == 0 {
                return Err(format!("occurrence numbers are 1-based, got 0 in `{part}`"));
            }
            sites.push(FaultSite { op, kind, at });
        }
        let plan = Self::new(sites);
        Ok(match path_token {
            Some(token) => plan.with_path_token(token),
            None => plan,
        })
    }

    /// Counts one occurrence of `op` and returns the fault scheduled for it, if any.
    pub fn next(&self, op: FaultOp) -> Option<FaultKind> {
        // relaxed: the counter orders nothing; determinism comes from the caller's
        // own operation order (single fetch_add per I/O call).
        let occurrence = self.counts[op.index()].fetch_add(1, Ordering::Relaxed) + 1;
        let hit = self
            .sites
            .iter()
            .find(|site| site.op == op && site.at == occurrence)
            .map(|site| site.kind);
        if hit.is_some() {
            crate::metrics::add(&self.injected, 1);
        }
        hit
    }

    /// Faults injected so far (hard and transient).
    pub fn injected(&self) -> u64 {
        crate::metrics::get(&self.injected)
    }

    #[allow(clippy::unnecessary_map_or)] // `is_none_or` lands after the declared MSRV (1.75)
    fn matches(&self, file_name: &str) -> bool {
        self.path_token.as_deref().map_or(true, |token| file_name.contains(token))
    }
}

/// Fast-path arm switch: `plan_for` returns `None` without touching the registry or
/// environment cache unless a plan has ever been installed (or `GSS_FAULT_PLAN` was
/// present at first resolution).
static ARMED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<Vec<Arc<FaultPlan>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<FaultPlan>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// The plan parsed from `GSS_FAULT_PLAN`, resolved once per process.  A malformed
/// spec is ignored (the harness validates its own specs; a library must not panic on
/// an inherited environment variable).
fn env_plan() -> Option<&'static Arc<FaultPlan>> {
    static ENV_PLAN: OnceLock<Option<Arc<FaultPlan>>> = OnceLock::new();
    ENV_PLAN
        .get_or_init(|| {
            let spec = std::env::var("GSS_FAULT_PLAN").ok()?;
            let plan = FaultPlan::parse(&spec).ok()?;
            ARMED.store(true, Ordering::Release);
            Some(Arc::new(plan))
        })
        .as_ref()
}

/// Removes its plan from the registry on drop (RAII for test installs).
#[derive(Debug)]
pub struct FaultGuard {
    plan: Arc<FaultPlan>,
}

impl FaultGuard {
    /// The installed plan, for reading its counters after the faulted run.
    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        let mut plans = registry().lock().unwrap_or_else(PoisonError::into_inner);
        plans.retain(|installed| !Arc::ptr_eq(installed, &self.plan));
        // ARMED stays set: disarming would race a concurrent install, and the residual
        // cost is one registry probe per *file open*, not per I/O.
    }
}

/// Installs a plan for subsequent file opens; the plan applies until the returned
/// guard drops.  Already-open files are unaffected (they resolved their plan at open).
pub fn install(plan: FaultPlan) -> FaultGuard {
    let plan = Arc::new(plan);
    let mut plans = registry().lock().unwrap_or_else(PoisonError::into_inner);
    plans.push(Arc::clone(&plan));
    drop(plans);
    ARMED.store(true, Ordering::Release);
    FaultGuard { plan }
}

/// Resolves the fault plan covering a file about to be opened at `path`: the most
/// recently installed registry plan whose token matches wins, then the environment
/// plan — which honours its own `path=` token, so an env spec scoped to one
/// tenant's files leaves every other file on healthy I/O.  Returns `None` (one
/// atomic load) when fault injection was never armed.
pub fn plan_for(path: &Path) -> Option<Arc<FaultPlan>> {
    // The environment cache must initialize before the armed check: a process started
    // with GSS_FAULT_PLAN arms itself on its first open.
    let env = env_plan();
    if !ARMED.load(Ordering::Acquire) {
        return None;
    }
    let name = path.file_name()?.to_string_lossy();
    let plans = registry().lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(plan) = plans.iter().rev().find(|plan| plan.matches(&name)) {
        return Some(Arc::clone(plan));
    }
    drop(plans);
    env.filter(|plan| plan.matches(&name)).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn parse_accepts_the_grammar_and_rejects_junk() {
        let plan = FaultPlan::parse("write:torn@120; sync_data:eio@3").unwrap();
        assert_eq!(plan.sites.len(), 2);
        assert_eq!(
            plan.sites[0],
            FaultSite { op: FaultOp::Write, kind: FaultKind::TornWrite, at: 120 }
        );
        assert_eq!(plan.sites[1], FaultSite { op: FaultOp::SyncData, kind: FaultKind::Eio, at: 3 });
        assert!(FaultPlan::parse("write:eio").is_err(), "missing occurrence");
        assert!(FaultPlan::parse("write:bogus@1").is_err(), "unknown kind");
        assert!(FaultPlan::parse("chmod:eio@1").is_err(), "unknown op");
        assert!(FaultPlan::parse("write:eio@0").is_err(), "occurrences are 1-based");
        assert!(FaultPlan::parse("").unwrap().sites.is_empty(), "empty plan is valid");
    }

    #[test]
    fn parse_accepts_a_path_scope_segment() {
        let plan = FaultPlan::parse("path=gamma;write:eio@10").unwrap();
        assert_eq!(plan.sites.len(), 1);
        assert!(plan.matches("gamma.gss.shard0"));
        assert!(!plan.matches("alpha.gss.shard0"));
        // Last scope segment wins; an empty token is rejected.
        let plan = FaultPlan::parse("path=alpha; write:eio@1; path=beta").unwrap();
        assert!(plan.matches("beta.gss") && !plan.matches("alpha.gss"));
        assert!(FaultPlan::parse("path=").is_err());
        // Unscoped plans keep matching everything.
        assert!(FaultPlan::parse("write:eio@1").unwrap().matches("anything.gss"));
    }

    #[test]
    fn next_fires_at_the_scheduled_occurrence_only() {
        let plan = FaultPlan::parse("write:eio@3;read:eintr@1").unwrap();
        assert_eq!(plan.next(FaultOp::Read), Some(FaultKind::Eintr));
        assert_eq!(plan.next(FaultOp::Read), None);
        assert_eq!(plan.next(FaultOp::Write), None);
        assert_eq!(plan.next(FaultOp::Write), None);
        assert_eq!(plan.next(FaultOp::Write), Some(FaultKind::Eio));
        assert_eq!(plan.next(FaultOp::Write), None);
        assert_eq!(plan.injected(), 2);
        assert!(FaultKind::Eintr.is_transient());
        assert!(!FaultKind::TornWrite.is_transient());
    }

    #[test]
    fn registry_plans_match_by_token_and_uninstall_on_drop() {
        let token = format!("faults-registry-{}", std::process::id());
        let matching = PathBuf::from(format!("/tmp/{token}.gss"));
        let other = PathBuf::from("/tmp/unrelated-file.gss");
        {
            let guard = install(FaultPlan::for_path_token(
                &token,
                vec![FaultSite { op: FaultOp::Write, kind: FaultKind::Eio, at: 1 }],
            ));
            let resolved = plan_for(&matching).expect("token matches");
            assert!(Arc::ptr_eq(&resolved, guard.plan()));
            assert!(plan_for(&other).is_none(), "foreign files resolve no plan");
        }
        assert!(plan_for(&matching).is_none(), "dropping the guard uninstalls");
    }
}
