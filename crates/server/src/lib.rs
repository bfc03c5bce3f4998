//! `gss-server`: a networked, multi-tenant ingest/query service over GSS sketches.
//!
//! The crate is std-only — no HTTP stack, no async runtime.  Clients speak a
//! hand-rolled length-prefixed binary protocol ([`protocol`]) whose frames carry a
//! versioned, CRC-sealed header in the style of the core's write-ahead-log frame
//! format, over plain TCP with one thread per connection ([`server`], bounded by a
//! connection cap).
//!
//! Tenancy ([`namespace`]): each tenant name maps to its own [`gss_core::ShardedGss`]
//! and sketch-file directory with its own group-commit cadence, opened
//! lazily on first authenticated use and guarded by the existing single-opener
//! lock.  Static per-tenant tokens ([`auth`]) and a token-bucket rate limiter
//! ([`rate_limit`]) keep tenants from reading — or starving — each other.
//!
//! Failure discipline: a poisoned store (`GssError::StoreFailed`) surfaces as a
//! typed `0x02xx` error response carrying [`gss_core::GssError::wire_code`]; the
//! connection stays open and queries keep serving.  All raw I/O — sockets and the
//! few file touches — is contained in [`net`], the crate's single L004-exempt
//! module.
//!
//! The client half ([`client`]) is shipped in the same crate and used by the
//! examples, the integration tests and the CI smoke job (`ci/server_smoke.sh`).

pub mod auth;
pub mod client;
pub mod namespace;
pub mod net;
pub mod protocol;
pub mod rate_limit;
pub mod server;

pub use client::{ClientError, GssClient, IngestAck};
pub use namespace::{Namespace, NamespaceRegistry, ServerConfig, ServiceError, TenantSpec};
pub use net::{FrameConn, FrameError};
pub use protocol::{ProtocolError, Request, Response, WireEdge, WireStats};
pub use server::{Server, ServerHandle, DEFAULT_MAX_CONNECTIONS};
