//! Error types for sketch construction and fail-stop storage:
//! [`ConfigError`], [`StoreFault`], [`GssError`], [`StoreHealth`],
//! [`DurabilityReport`].
//!
//! ## Fail-stop semantics
//!
//! The first failed fsync or unrecoverable write-back flips a store's sticky
//! [`StoreHealth`] to poisoned.  From then on every write path — they are all fallible;
//! only the infallible `SummaryWrite` wrappers turn the error into a panic — returns
//! [`GssError::StoreFailed`] carrying the *original* [`StoreFault`] (first cause
//! wins), reads keep serving from cache, and no sync/ack path retries a failed
//! fsync — retrying an fsync whose dirty pages the kernel already dropped and
//! acknowledging on the retry's success silently loses data (the "fsyncgate"
//! hazard).  [`DurabilityReport`] quantifies the damage honestly: how many
//! acknowledged items are covered by a durable log image and how many are not.

use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

/// An invalid [`GssConfig`](crate::GssConfig) was supplied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    /// Creates a new configuration error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        Self { message: message.into() }
    }

    /// The human-readable description of the problem.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid GSS configuration: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

/// The typed, clonable record of a storage failure: what failed
/// ([`io::ErrorKind`] preserved for programmatic matching) and a human-readable
/// description of where.  Clonable so one sticky cause can surface through every
/// subsequent write attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreFault {
    kind: io::ErrorKind,
    message: String,
}

impl StoreFault {
    /// Creates a fault record.
    pub fn new(kind: io::ErrorKind, message: impl Into<String>) -> Self {
        Self { kind, message: message.into() }
    }

    /// Captures an [`io::Error`] with added context about the failing operation.
    pub fn from_io(context: &str, error: &io::Error) -> Self {
        Self { kind: error.kind(), message: format!("{context}: {error}") }
    }

    /// The preserved [`io::ErrorKind`] of the original failure.
    pub fn kind(&self) -> io::ErrorKind {
        self.kind
    }

    /// The human-readable description.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Re-materializes the fault as an [`io::Error`] (same kind) for `io::Result`
    /// plumbing.
    pub fn to_io(&self) -> io::Error {
        io::Error::new(self.kind, self.message.clone())
    }

    /// The stable wire code of this fault's [`io::ErrorKind`] for network protocols
    /// (`gss-server` sends it in `STORE_FAILED` responses).  `io::ErrorKind` has no
    /// stable discriminant of its own, so the mapping here is the contract: codes are
    /// append-only and never reused.  Kinds without an entry collapse to `0` (other).
    pub fn wire_code(&self) -> u16 {
        match self.kind {
            io::ErrorKind::NotFound => 1,
            io::ErrorKind::PermissionDenied => 2,
            io::ErrorKind::WriteZero => 3,
            io::ErrorKind::UnexpectedEof => 4,
            k if k == storage_full_kind() => 5,
            io::ErrorKind::Interrupted => 6,
            io::ErrorKind::InvalidData => 7,
            io::ErrorKind::TimedOut => 8,
            _ => 0,
        }
    }

    /// Rebuilds a fault from a wire code and message (the client half of
    /// [`wire_code`](Self::wire_code)).  Unknown codes collapse to
    /// [`io::ErrorKind::Other`], mirroring the forward map.
    pub fn from_wire(code: u16, message: impl Into<String>) -> Self {
        let kind = match code {
            1 => io::ErrorKind::NotFound,
            2 => io::ErrorKind::PermissionDenied,
            3 => io::ErrorKind::WriteZero,
            4 => io::ErrorKind::UnexpectedEof,
            5 => storage_full_kind(),
            6 => io::ErrorKind::Interrupted,
            7 => io::ErrorKind::InvalidData,
            8 => io::ErrorKind::TimedOut,
            _ => io::ErrorKind::Other,
        };
        Self { kind, message: message.into() }
    }
}

/// `io::ErrorKind::StorageFull` without naming it: the variant was stabilized in Rust
/// 1.83, after this workspace's MSRV (1.75), but the kernel's `ENOSPC` has decoded to
/// it in std for far longer — so derive the kind from the errno value instead.
fn storage_full_kind() -> io::ErrorKind {
    io::Error::from_raw_os_error(28).kind() // 28 = ENOSPC on every Unix this targets
}

impl fmt::Display for StoreFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "store failed ({:?}): {}", self.kind, self.message)
    }
}

impl std::error::Error for StoreFault {}

/// The unified typed error of the fallible sketch API (`try_insert` and friends).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GssError {
    /// An invalid configuration was supplied.
    Config(ConfigError),
    /// The backing store fail-stopped; the fault names the original cause (sticky —
    /// every write after the first failure reports the same cause).
    StoreFailed(StoreFault),
}

impl fmt::Display for GssError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GssError::Config(error) => error.fmt(f),
            GssError::StoreFailed(fault) => fault.fmt(f),
        }
    }
}

impl std::error::Error for GssError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GssError::Config(error) => Some(error),
            GssError::StoreFailed(fault) => Some(fault),
        }
    }
}

impl From<ConfigError> for GssError {
    fn from(error: ConfigError) -> Self {
        GssError::Config(error)
    }
}

impl From<StoreFault> for GssError {
    fn from(fault: StoreFault) -> Self {
        GssError::StoreFailed(fault)
    }
}

impl GssError {
    /// The stable wire code of this error for network protocols: the high byte selects
    /// the variant (`0x01` config, `0x02` store-failed), the low byte carries the
    /// fault's [`StoreFault::wire_code`] (0 for config errors).  Append-only, like the
    /// fault codes.
    pub fn wire_code(&self) -> u16 {
        match self {
            GssError::Config(_) => 0x0100,
            GssError::StoreFailed(fault) => 0x0200 | fault.wire_code(),
        }
    }

    /// Rebuilds an error from a wire code and message (the client half of
    /// [`wire_code`](Self::wire_code)).  Codes outside the known variants rebuild as a
    /// store failure with an unknown kind, the conservative reading for a caller
    /// deciding whether to retry.
    pub fn from_wire(code: u16, message: impl Into<String>) -> Self {
        match code & 0xFF00 {
            0x0100 => GssError::Config(ConfigError::new(message)),
            _ => GssError::StoreFailed(StoreFault::from_wire(code & 0x00FF, message)),
        }
    }
}

/// The sticky per-store poison state: flipped by the first failed fsync or
/// unrecoverable write-back, never cleared for the store's lifetime (a clean reopen
/// builds a fresh store with fresh health).  Shared by the store and its write-ahead-log
/// membership, so a failure on either path — page write-back or log drain/sync —
/// fail-stops all writes at once while reads keep serving from cache.
#[derive(Debug, Default)]
pub struct StoreHealth {
    poisoned: AtomicBool,
    cause: Mutex<Option<StoreFault>>,
}

impl StoreHealth {
    /// Creates healthy state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a failure, first cause wins; returns the sticky cause (the argument on
    /// the first call, the original fault on every later one).  The poison flag is
    /// published with release ordering *after* the cause is stored, so any thread that
    /// observes the flag can read the cause.
    pub fn poison(&self, fault: StoreFault) -> StoreFault {
        let mut cause = self.cause.lock().unwrap_or_else(PoisonError::into_inner);
        let sticky = cause.get_or_insert(fault).clone();
        drop(cause);
        self.poisoned.store(true, Ordering::Release);
        sticky
    }

    /// Whether the store has fail-stopped.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// The original failure, if any.
    pub fn cause(&self) -> Option<StoreFault> {
        if !self.is_poisoned() {
            return None;
        }
        self.cause.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// `Err(original fault)` once poisoned — the gate every fallible write path
    /// checks first.
    pub fn check(&self) -> Result<(), StoreFault> {
        if !self.is_poisoned() {
            return Ok(());
        }
        Err(self.cause().unwrap_or_else(|| {
            StoreFault::new(io::ErrorKind::Other, "store poisoned (cause unavailable)")
        }))
    }
}

/// An honest account of acknowledged-versus-durable items, surfaced by
/// [`FileStore::durability_report`](crate::FileStore) and the sketch layer: after a
/// fault, callers learn exactly how many acknowledged items may not survive a crash
/// instead of discovering it on reopen.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DurabilityReport {
    /// Whether the store has fail-stopped.
    pub poisoned: bool,
    /// The original failure when poisoned.
    pub cause: Option<StoreFault>,
    /// Stream items whose insert was acknowledged to the caller.
    pub acked_items: u64,
    /// Acknowledged items whose commit frames are known to have reached the log file
    /// image (they replay on reopen after a fail-stop or kill).
    pub durable_items: u64,
    /// Acknowledged items *not* covered by the log image — possibly lost.  Zero on a
    /// healthy store (pending bytes drain on the policy's schedule); on a poisoned
    /// store this is the breach the acknowledgements overstated.
    pub breached_items: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_message() {
        let err = ConfigError::new("width must be positive");
        assert!(err.to_string().contains("width must be positive"));
        assert_eq!(err.message(), "width must be positive");
    }

    #[test]
    fn error_trait_is_implemented() {
        let err = ConfigError::new("boom");
        let as_dyn: &dyn std::error::Error = &err;
        assert!(as_dyn.source().is_none());
    }

    #[test]
    fn store_fault_preserves_the_error_kind_through_round_trips() {
        let io_error = io::Error::new(io::ErrorKind::StorageFull, "disk full");
        let fault = StoreFault::from_io("writing tail", &io_error);
        assert_eq!(fault.kind(), io::ErrorKind::StorageFull);
        assert!(fault.message().contains("writing tail"));
        assert_eq!(fault.to_io().kind(), io::ErrorKind::StorageFull);
        let error: GssError = fault.clone().into();
        assert!(matches!(&error, GssError::StoreFailed(f) if *f == fault));
        assert!(error.to_string().contains("disk full"));
    }

    #[test]
    fn wire_codes_round_trip_per_kind() {
        for kind in [
            io::ErrorKind::NotFound,
            io::ErrorKind::PermissionDenied,
            io::ErrorKind::WriteZero,
            io::ErrorKind::UnexpectedEof,
            io::ErrorKind::StorageFull,
            io::ErrorKind::Interrupted,
            io::ErrorKind::InvalidData,
            io::ErrorKind::TimedOut,
        ] {
            let fault = StoreFault::new(kind, "x");
            let back = StoreFault::from_wire(fault.wire_code(), "x");
            assert_eq!(back.kind(), kind, "wire round-trip must preserve {kind:?}");
        }
        // Unmapped kinds collapse to code 0 and rebuild as Other.
        let fault = StoreFault::new(io::ErrorKind::BrokenPipe, "x");
        assert_eq!(fault.wire_code(), 0);
        assert_eq!(StoreFault::from_wire(0, "x").kind(), io::ErrorKind::Other);
    }

    #[test]
    fn gss_error_wire_codes_select_the_variant() {
        let config: GssError = ConfigError::new("bad width").into();
        assert_eq!(config.wire_code(), 0x0100);
        assert!(matches!(GssError::from_wire(0x0100, "bad width"), GssError::Config(_)));

        let store: GssError = StoreFault::new(io::ErrorKind::StorageFull, "disk full").into();
        assert_eq!(store.wire_code(), 0x0205);
        match GssError::from_wire(store.wire_code(), "disk full") {
            GssError::StoreFailed(fault) => {
                assert_eq!(fault.kind(), io::ErrorKind::StorageFull);
            }
            other => panic!("expected StoreFailed, got {other:?}"),
        }
        // Unknown variant bytes rebuild conservatively as a store failure.
        assert!(matches!(GssError::from_wire(0x7700, "?"), GssError::StoreFailed(_)));
    }

    #[test]
    fn health_poisons_sticky_with_the_first_cause() {
        let health = StoreHealth::new();
        assert!(!health.is_poisoned());
        assert!(health.check().is_ok());
        assert!(health.cause().is_none());
        let first = StoreFault::new(io::ErrorKind::Other, "first failure");
        let sticky = health.poison(first.clone());
        assert_eq!(sticky, first);
        let second = StoreFault::new(io::ErrorKind::StorageFull, "second failure");
        assert_eq!(health.poison(second), first, "first cause wins");
        assert!(health.is_poisoned());
        assert_eq!(health.check().unwrap_err(), first);
        assert_eq!(health.cause(), Some(first));
    }
}
