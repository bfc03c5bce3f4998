//! Multi-tenant namespaces: each tenant name maps to its own [`ShardedGss`] and
//! sketch-file directory, with its own group-commit cadence.
//!
//! Tenants are declared up front in the server configuration but **opened lazily**:
//! the first authenticated request for a tenant builds (first boot) or reopens
//! (restart, via per-shard WAL recovery) its sharded sketch under
//! `<data_dir>/<name>/<name>.gss.shard*`.  Placing the tenant's *name* in every
//! file name is deliberate — the deterministic fault injector scopes plans by path
//! token (`path=<name>` in `GSS_FAULT_PLAN`), so one tenant's storage can be failed
//! while its neighbours stay healthy, and the isolation tests do exactly that.
//!
//! The registry map is guarded by the `NamespaceRegistry` witness lock class, which
//! sits **above** every sketch-internal class: resolving a tenant (and opening its
//! store, which takes shard/WAL locks) happens while the registry lock is held, and
//! nothing inside a sketch ever calls back up into the registry.

use crate::net;
use crate::protocol::{err, WireEdge, WireStats};
use crate::rate_limit::TokenBucket;
use gss_core::pager::witness::{self, LockClass};
use gss_core::{Durability, FileStore, GroupCommit, GssBuilder, GssError, ShardedGss};
use gss_graph::StreamEdge;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A typed service failure: the wire error code plus a human-readable message.
/// Codes below `0x0100` are server codes ([`err`]); `0x0100` and up pass
/// [`GssError::wire_code`] through unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError {
    pub code: u16,
    pub message: String,
}

impl ServiceError {
    pub fn new(code: u16, message: impl Into<String>) -> Self {
        Self { code, message: message.into() }
    }
}

impl From<GssError> for ServiceError {
    fn from(e: GssError) -> Self {
        Self { code: e.wire_code(), message: e.to_string() }
    }
}

/// Per-tenant configuration, parsed from the server's config file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// Shared-secret token presented in HELLO.
    pub token: String,
    /// Group-commit cadence of the tenant's write-ahead logs.
    pub group_commit: GroupCommit,
    /// Writer shards of the tenant's store.
    pub shards: usize,
    /// Sketch matrix width per shard.
    pub width: usize,
    /// Token-bucket burst capacity; `rate_per_sec == 0` disables limiting.
    pub rate_capacity: u64,
    /// Sustained tokens per second (1 per query, 1 per ingested item).
    pub rate_per_sec: u64,
}

impl Default for TenantSpec {
    fn default() -> Self {
        Self {
            token: String::new(),
            group_commit: GroupCommit::default(),
            shards: 2,
            width: 256,
            rate_capacity: 0,
            rate_per_sec: 0,
        }
    }
}

/// Tenant names become directory and file names, so they are restricted to a safe
/// alphabet — no separators, no dots, nothing a path could interpret.
pub fn valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-' || b == b'_')
}

/// The server configuration: where tenant data lives and which tenants exist.
///
/// The config file is a line-based format, one tenant per line:
///
/// ```text
/// # comment
/// tenant alpha token=alpha-secret durability=strict shards=2 width=256 rate=0 burst=0
/// tenant beta  token=beta-secret  group_delay_us=5000
/// ```
///
/// Unspecified keys take [`TenantSpec::default`]; `rate` is sustained tokens per
/// second (0 = unlimited) and `burst` the bucket capacity (defaults to `rate`; 0 only
/// with `rate=0`).
/// `durability` accepts only `strict`, the one mode there is.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    pub tenants: HashMap<String, TenantSpec>,
}

impl ServerConfig {
    /// Parses the config text.  Errors name the offending line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut tenants = HashMap::new();
        for (number, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut words = line.split_whitespace();
            match words.next() {
                Some("tenant") => {}
                Some(other) => {
                    return Err(format!("line {}: unknown directive `{other}`", number + 1))
                }
                None => continue,
            }
            let name = words
                .next()
                .ok_or_else(|| format!("line {}: tenant needs a name", number + 1))?
                .to_string();
            if !valid_tenant_name(&name) {
                return Err(format!(
                    "line {}: tenant name `{name}` must be 1-64 chars of [a-z0-9_-]",
                    number + 1
                ));
            }
            let mut spec = TenantSpec::default();
            let mut burst: Option<u64> = None;
            for word in words {
                let (key, value) = word.split_once('=').ok_or_else(|| {
                    format!("line {}: expected key=value, got `{word}`", number + 1)
                })?;
                let bad = |what: &str| format!("line {}: bad {what} `{value}`", number + 1);
                match key {
                    "token" => spec.token = value.to_string(),
                    // Existing configs spell the one durability mode out.
                    "durability" => match value {
                        "strict" => {}
                        "buffered" => {
                            return Err(format!(
                                "line {}: durability=buffered was removed — write \
                                 durability=strict (or drop the key): strict is both \
                                 faster and lossless",
                                number + 1
                            ))
                        }
                        _ => return Err(bad("durability")),
                    },
                    "shards" => {
                        spec.shards = value.parse().map_err(|_| bad("shards"))?;
                        if spec.shards == 0 {
                            return Err(bad("shards"));
                        }
                    }
                    "width" => spec.width = value.parse().map_err(|_| bad("width"))?,
                    "rate" => spec.rate_per_sec = value.parse().map_err(|_| bad("rate"))?,
                    "burst" => burst = Some(value.parse().map_err(|_| bad("burst"))?),
                    "group_delay_us" => {
                        spec.group_commit.max_delay_us =
                            value.parse().map_err(|_| bad("group_delay_us"))?
                    }
                    "group_bytes" => {
                        spec.group_commit.max_bytes =
                            value.parse().map_err(|_| bad("group_bytes"))?
                    }
                    _ => return Err(format!("line {}: unknown key `{key}`", number + 1)),
                }
            }
            if spec.token.is_empty() {
                return Err(format!("line {}: tenant `{name}` has no token", number + 1));
            }
            spec.rate_capacity = burst.unwrap_or(spec.rate_per_sec);
            // A zero-capacity bucket admits every request as "oversized": rate limiting
            // would silently be off.
            if spec.rate_per_sec > 0 && spec.rate_capacity == 0 {
                return Err(format!(
                    "line {}: burst=0 cannot limit rate={} — give burst ≥ 1, or rate=0 for \
                     no limit",
                    number + 1,
                    spec.rate_per_sec
                ));
            }
            if tenants.insert(name.clone(), spec).is_some() {
                return Err(format!("line {}: tenant `{name}` declared twice", number + 1));
            }
        }
        Ok(Self { tenants })
    }
}

/// One opened tenant: its sharded store, rate limiter and ingest clock.
pub struct Namespace {
    pub name: String,
    store: ShardedGss,
    bucket: Mutex<TokenBucket>,
    /// Server-assigned stream timestamps, monotone per tenant in arrival order.
    clock: AtomicU64,
    /// Items this namespace has accepted over the wire since it was opened.
    accepted: AtomicU64,
}

impl std::fmt::Debug for Namespace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Namespace").field("name", &self.name).finish_non_exhaustive()
    }
}

impl Namespace {
    /// Drains `cost` rate-limit tokens; `false` means the caller must answer
    /// `RATE_LIMITED`.
    pub fn admit(&self, cost: u64) -> bool {
        self.bucket.lock().try_take(cost, Instant::now())
    }

    /// Whether the tenant's backing store has fail-stopped.
    pub fn is_poisoned(&self) -> bool {
        self.store.is_poisoned()
    }

    /// Batch-ingests wire items, assigning timestamps in arrival order, and returns
    /// `(accepted, acked_total)` for the INGESTED response.
    pub fn ingest(&self, items: &[WireEdge]) -> Result<(u64, u64), ServiceError> {
        // relaxed: the clock only needs per-tenant uniqueness and monotonicity of
        // the values it hands out; fetch_add provides both under any ordering.
        let first = self.clock.fetch_add(items.len() as u64, Ordering::Relaxed);
        let batch: Vec<StreamEdge> = items
            .iter()
            .enumerate()
            .map(|(offset, item)| {
                StreamEdge::new(item.source, item.destination, first + offset as u64, item.weight)
            })
            .collect();
        self.store.try_insert_batch(&batch)?;
        // relaxed: pure statistics counter, no memory is published under it.
        let total =
            self.accepted.fetch_add(items.len() as u64, Ordering::Relaxed) + items.len() as u64;
        Ok((items.len() as u64, total))
    }

    pub fn edge_weight(&self, source: u64, destination: u64) -> Option<i64> {
        self.store.edge_weight(source, destination)
    }

    pub fn successors(&self, vertex: u64) -> Vec<u64> {
        self.store.successors(vertex)
    }

    pub fn precursors(&self, vertex: u64) -> Vec<u64> {
        self.store.precursors(vertex)
    }

    pub fn reachable(&self, source: u64, destination: u64, max_hops: u32) -> bool {
        if max_hops == 0 {
            gss_graph::algorithms::is_reachable(&self.store, source, destination)
        } else {
            gss_graph::algorithms::is_reachable_bounded(
                &self.store,
                source,
                destination,
                max_hops as usize,
            )
        }
    }

    /// Checkpoints every shard to disk.
    pub fn snapshot(&self) -> Result<(), ServiceError> {
        self.store
            .sync()
            .map_err(|e| ServiceError::new(err::SNAPSHOT_FAILED, format!("snapshot failed: {e}")))
    }

    /// Tenant statistics plus the honest durability account.
    pub fn stats(&self) -> WireStats {
        let detailed = self.store.detailed_stats();
        let report = self.store.durability_report();
        WireStats {
            items_inserted: detailed.items_inserted,
            matrix_edges: detailed.matrix_edges as u64,
            buffered_edges: detailed.buffered_edges as u64,
            shards: self.store.shard_count() as u32,
            poisoned: report.poisoned,
            acked_items: report.acked_items,
            durable_items: report.durable_items,
            breached_items: report.breached_items,
        }
    }
}

/// The tenant registry: declared specs plus the lazily-opened namespaces.
pub struct NamespaceRegistry {
    data_dir: PathBuf,
    specs: HashMap<String, TenantSpec>,
    open: RwLock<HashMap<String, Arc<Namespace>>>,
}

impl NamespaceRegistry {
    pub fn new(data_dir: PathBuf, config: ServerConfig) -> Self {
        Self { data_dir, specs: config.tenants, open: RwLock::new(HashMap::new()) }
    }

    /// Number of namespaces opened so far (HEALTH).
    pub fn open_count(&self) -> usize {
        let _registry_held = witness::acquire(LockClass::NamespaceRegistry);
        self.open.read().len()
    }

    /// Authenticates and resolves a tenant, opening its store on first use.
    ///
    /// Witness order: the registry lock is taken first, and opening the store takes
    /// shard/WAL/pager locks *under* it — the `NamespaceRegistry → Shard` edge, the
    /// only direction the witness permits for this class.
    pub fn resolve(&self, tenant: &str, token: &str) -> Result<Arc<Namespace>, ServiceError> {
        let spec = self.specs.get(tenant).ok_or_else(|| {
            ServiceError::new(err::UNKNOWN_TENANT, format!("no tenant `{tenant}`"))
        })?;
        if !crate::auth::token_matches(token, &spec.token) {
            return Err(ServiceError::new(err::AUTH_FAILED, "token mismatch"));
        }
        {
            let _registry_held = witness::acquire(LockClass::NamespaceRegistry);
            if let Some(namespace) = self.open.read().get(tenant) {
                return Ok(Arc::clone(namespace));
            }
        }
        let _registry_held = witness::acquire(LockClass::NamespaceRegistry);
        let mut open = self.open.write();
        // Double-checked under the write lock: another connection may have opened
        // the tenant while we dropped the read lock.
        if let Some(namespace) = open.get(tenant) {
            return Ok(Arc::clone(namespace));
        }
        let namespace = Arc::new(self.open_namespace(tenant, spec)?);
        open.insert(tenant.to_string(), Arc::clone(&namespace));
        Ok(namespace)
    }

    /// Builds (first boot) or reopens (restart) a tenant's store under
    /// `<data_dir>/<tenant>/<tenant>.gss.shard*`.
    fn open_namespace(&self, tenant: &str, spec: &TenantSpec) -> Result<Namespace, ServiceError> {
        let unavailable = |message: String| ServiceError::new(err::TENANT_UNAVAILABLE, message);
        let dir = self.data_dir.join(tenant);
        net::ensure_dir(&dir)
            .map_err(|e| unavailable(format!("cannot create tenant directory: {e}")))?;
        let base = dir.join(format!("{tenant}.gss"));
        let shard0 = dir.join(format!("{tenant}.gss.shard0"));
        let store = if net::path_exists(&shard0) {
            ShardedGss::open_sharded(
                &base,
                spec.shards,
                FileStore::DEFAULT_CACHE_PAGES,
                Durability::Strict,
                spec.group_commit,
            )
            .map_err(|e| unavailable(format!("cannot reopen tenant store: {e}")))?
        } else {
            GssBuilder::new()
                .width(spec.width)
                .track_node_ids(true)
                .storage_dir(&dir, tenant)
                .group_commit(spec.group_commit)
                .build_sharded(spec.shards)
                .map_err(|e| unavailable(format!("cannot create tenant store: {e}")))?
        };
        // Resume the ingest clock past anything already persisted so restarted
        // servers never reuse timestamps.
        let clock = store.detailed_stats().items_inserted;
        Ok(Namespace {
            name: tenant.to_string(),
            store,
            bucket: Mutex::new(TokenBucket::new(
                spec.rate_capacity,
                spec.rate_per_sec,
                Instant::now(),
            )),
            clock: AtomicU64::new(clock),
            accepted: AtomicU64::new(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_parses_tenants_with_defaults_and_overrides() {
        let text = "\n# fleet\ntenant alpha token=a-secret durability=strict shards=2 rate=100\n\
                    tenant beta token=b-secret group_delay_us=5000 width=128 burst=7\n";
        let config = ServerConfig::parse(text).unwrap();
        let alpha = &config.tenants["alpha"];
        assert_eq!(alpha.group_commit, GroupCommit::default());
        assert_eq!(alpha.shards, 2);
        assert_eq!(alpha.rate_per_sec, 100);
        assert_eq!(alpha.rate_capacity, 100, "burst defaults to rate");
        let beta = &config.tenants["beta"];
        assert_eq!(beta.group_commit.max_delay_us, 5000);
        assert_eq!(beta.width, 128);
        assert_eq!(beta.rate_capacity, 7);
        assert_eq!(beta.rate_per_sec, 0);
    }

    #[test]
    fn config_rejects_damage_with_line_numbers() {
        for (text, needle) in [
            ("tenant", "needs a name"),
            ("tenant Bad/name token=x", "must be 1-64 chars"),
            ("tenant a token=x durability=eventual", "bad durability"),
            ("tenant a token=x durability=buffered", "was removed"),
            ("tenant a token=x durability=buffered", "strict is both faster and lossless"),
            ("tenant a token=x shards=0", "bad shards"),
            ("tenant a token=x rate=5 burst=0", "burst=0 cannot limit rate=5"),
            ("tenant a token=x burst=0 rate=5", "line 1: burst=0"),
            ("tenant a", "has no token"),
            ("tenant a token=x\ntenant a token=y", "declared twice"),
            ("server a", "unknown directive"),
            ("tenant a token=x nonsense", "expected key=value"),
        ] {
            let error = ServerConfig::parse(text).unwrap_err();
            assert!(error.contains(needle), "{text:?} -> {error}");
        }
    }

    #[test]
    fn tenant_names_that_could_escape_the_data_dir_are_invalid() {
        for bad in ["", "..", "a/b", "a\\b", "a.b", "UPPER", "x y", &"n".repeat(65)] {
            assert!(!valid_tenant_name(bad), "{bad:?} should be rejected");
        }
        assert!(valid_tenant_name("alpha-2_test"));
    }

    #[test]
    fn resolve_authenticates_then_lazily_opens_and_caches() {
        let dir = std::env::temp_dir().join(format!("gss-ns-{}", std::process::id()));
        let config = ServerConfig::parse("tenant alpha token=right shards=1 width=64").unwrap();
        let registry = NamespaceRegistry::new(dir.clone(), config);

        let missing = registry.resolve("ghost", "right").unwrap_err();
        assert_eq!(missing.code, err::UNKNOWN_TENANT);
        let denied = registry.resolve("alpha", "wrong").unwrap_err();
        assert_eq!(denied.code, err::AUTH_FAILED);
        assert_eq!(registry.open_count(), 0, "failed auth must not open a store");

        let namespace = registry.resolve("alpha", "right").unwrap();
        assert_eq!(registry.open_count(), 1);
        let (accepted, total) =
            namespace.ingest(&[WireEdge { source: 1, destination: 2, weight: 3 }]).unwrap();
        assert_eq!((accepted, total), (1, 1));
        assert_eq!(namespace.edge_weight(1, 2), Some(3));

        let again = registry.resolve("alpha", "right").unwrap();
        assert!(Arc::ptr_eq(&namespace, &again), "second resolve reuses the open store");

        drop((namespace, again, registry));
        std::fs::remove_dir_all(&dir).ok();
    }
}
