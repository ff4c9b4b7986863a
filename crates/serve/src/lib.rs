//! `dynfd-serve`: a multi-tenant concurrent serve layer over the DynFD
//! engine.
//!
//! Every tenant is one independent relation with its own WAL directory
//! and [`dynfd_persist::FdEngine`]; a sharded worker pool applies
//! interleaved batch streams with per-tenant FIFO order, bounded
//! admission (backpressure or load-shedding), and typed wire errors
//! drawn from the [`dynfd_core::DynFdError`] taxonomy. The wire format
//! is a length-prefixed binary framing over any byte stream
//! (stdin/stdout, unix socket); see [`wire`] and DESIGN.md §6g.
//!
//! The load-bearing properties — per-tenant determinism at any worker
//! count, cross-tenant isolation under faults, exactly-once response
//! discipline under wire damage, and drain-then-sync shutdown — are
//! each pinned by a dedicated test suite (`tests/serve_determinism.rs`,
//! `tests/tenant_isolation.rs`, the `wire-*` fuzz injections, and the
//! `serve-drain` crash-harness case).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod metrics;
mod queue;
pub mod resume;
mod server;
mod session;
mod tenant;
pub mod transport;
pub mod wire;

pub use client::{submit_with_retry, RetryPolicy, RetryReport, SessionClient, SessionClientReport};
pub use metrics::{GlobalSnapshot, MetricsSnapshot};
pub use resume::{SessionHandle, SessionRegistry};
pub use server::{
    AdmissionPolicy, ApplySummary, BatchReply, CloseReport, EvictKillPoint, OpenReport,
    ServeConfig, ServeEngine, ShutdownReport, TenantQuota,
};
pub use session::{
    serve_connection, serve_connection_with, ChannelReader, ConnOptions, ConnectionReport,
    ResponseSink,
};
pub use tenant::valid_tenant_name;
pub use transport::{serve_listener, ListenAddr, TransportConfig, TransportReport};

use dynfd_core::DynFdError;
use std::fmt;

/// Wire error code for a full tenant queue under the shed policy.
pub const CODE_OVERLOADED: u32 = 13;
/// Wire error code for a batch addressed to an unregistered tenant.
pub const CODE_UNKNOWN_TENANT: u32 = 14;
/// Wire error code for opening a tenant name that is already live.
pub const CODE_TENANT_EXISTS: u32 = 15;
/// Wire error code for submissions after shutdown began.
pub const CODE_SHUTTING_DOWN: u32 = 16;
/// Wire error code for a tenant over its resource quota.
pub const CODE_QUOTA_EXCEEDED: u32 = 17;
/// Wire error code for a job whose deadline passed before it reached
/// the engine (rejected pre-apply; the batch was never started).
pub const CODE_DEADLINE_EXCEEDED: u32 = 18;
/// Wire error code for submissions landing inside a tenant's eviction
/// window (drain → persist → release in progress).
pub const CODE_EVICTED: u32 = 19;
/// Wire error code for a session-protocol violation: a sessioned apply
/// before `Hello`, a sequence gap, or a re-send older than the
/// ack-replay window.
pub const CODE_SESSION: u32 = 20;
/// Wire error code for a connection shed because the client consumed
/// responses too slowly (bounded outbox overflow or write/idle deadline
/// hit); sent best-effort, then the connection is closed.
pub const CODE_SLOW_CLIENT: u32 = 21;

/// Which resource a [`ServeError::QuotaExceeded`] rejection meters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuotaKind {
    /// Resident bytes: relation arena + dictionaries + PLIs + the
    /// PLI-intersection cache, per
    /// [`DynFd::resident_bytes`](dynfd_core::DynFd::resident_bytes).
    Bytes,
    /// Cumulative batch-apply CPU (wall) time.
    Cpu,
}

impl fmt::Display for QuotaKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuotaKind::Bytes => write!(f, "resident-bytes"),
            QuotaKind::Cpu => write!(f, "cpu-time"),
        }
    }
}

/// A typed serve-layer failure. Engine failures pass through with their
/// PR 3 exit codes; the serve layer adds admission/lifecycle codes in
/// the 13–21 range (engine codes stop at 12).
#[derive(Debug)]
pub enum ServeError {
    /// The tenant's engine rejected or failed the batch.
    Engine(DynFdError),
    /// Admission refused: the tenant's queue is at capacity (shed
    /// policy only — the block policy waits instead).
    Overloaded {
        /// The tenant whose queue is full.
        tenant: String,
        /// In-flight batches at refusal time.
        depth: usize,
        /// The configured per-tenant bound.
        capacity: usize,
        /// Machine-readable hint: how long a compliant client should
        /// wait before retrying (grows with the tenant's consecutive
        /// rejection streak, resets on admission).
        retry_after_ms: u64,
    },
    /// Admission refused: the tenant is over a resource quota
    /// ([`TenantQuota`]). The governor degrades the tenant's cache
    /// before this fires; only a tenant over quota even uncached is
    /// rejected.
    QuotaExceeded {
        /// The over-quota tenant.
        tenant: String,
        /// Which resource tripped.
        kind: QuotaKind,
        /// Measured usage (bytes, or CPU milliseconds).
        used: u64,
        /// The configured limit in the same unit.
        limit: u64,
        /// Retry hint, as in [`ServeError::Overloaded`].
        retry_after_ms: u64,
    },
    /// The job's deadline passed before a worker reached it; the batch
    /// was rejected *before* apply, so the tenant's state is untouched
    /// (the PR 3 transactional guarantee holds trivially).
    DeadlineExceeded {
        /// The tenant the job targeted.
        tenant: String,
        /// The deadline budget the job carried.
        deadline_ms: u64,
        /// How long the job actually waited before a worker saw it.
        waited_ms: u64,
    },
    /// Admission refused: the tenant is mid-eviction (drain → persist →
    /// release). Once the window closes the name answers
    /// [`ServeError::UnknownTenant`] until re-opened.
    Evicted {
        /// The tenant being evicted.
        tenant: String,
        /// Retry hint: once elapsed, re-`Open` re-admits the tenant
        /// from its durable state.
        retry_after_ms: u64,
    },
    /// The named tenant is not registered.
    UnknownTenant(String),
    /// An `Open` named a tenant that is already live.
    TenantExists(String),
    /// The server is draining; no new work is admitted.
    ShuttingDown,
    /// The request was syntactically invalid (bad frame payload or
    /// tenant name).
    Malformed(String),
    /// A sessioned request broke the exactly-once resume protocol (see
    /// `crate::resume`): apply before `Hello`, a sequence gap, or a
    /// re-send that fell off the bounded ack-replay window.
    SessionViolation {
        /// The client session the request rode on (empty when the
        /// violation is "no session bound").
        session: String,
        /// The tenant the request targeted (empty for `Hello` errors).
        tenant: String,
        /// What exactly was violated.
        detail: String,
    },
    /// The connection's bounded outbox overflowed: the client is not
    /// reading responses fast enough and is disconnected so worker
    /// threads never block on a dead socket.
    SlowClient {
        /// The configured outbox capacity that was exhausted.
        capacity: usize,
    },
}

impl ServeError {
    /// The stable wire error code (also the CLI exit code for fatal
    /// serve errors): engine errors keep their exit codes (3–12),
    /// serve-layer conditions use 13–21, malformed input maps to the
    /// parse code 4.
    pub fn wire_code(&self) -> u32 {
        match self {
            ServeError::Engine(e) => u32::from(e.exit_code()),
            ServeError::Overloaded { .. } => CODE_OVERLOADED,
            ServeError::QuotaExceeded { .. } => CODE_QUOTA_EXCEEDED,
            ServeError::DeadlineExceeded { .. } => CODE_DEADLINE_EXCEEDED,
            ServeError::Evicted { .. } => CODE_EVICTED,
            ServeError::UnknownTenant(_) => CODE_UNKNOWN_TENANT,
            ServeError::TenantExists(_) => CODE_TENANT_EXISTS,
            ServeError::ShuttingDown => CODE_SHUTTING_DOWN,
            ServeError::Malformed(_) => 4,
            ServeError::SessionViolation { .. } => CODE_SESSION,
            ServeError::SlowClient { .. } => CODE_SLOW_CLIENT,
        }
    }

    /// Whether this is an orderly per-request rejection (the tenant and
    /// server remain healthy) rather than an internal fault.
    pub fn is_rejection(&self) -> bool {
        match self {
            ServeError::Engine(e) => e.is_rejection(),
            _ => true,
        }
    }

    /// The machine-readable retry hint carried by governance
    /// rejections, if any: milliseconds a compliant client should back
    /// off before retrying (or, for [`ServeError::Evicted`], before
    /// re-opening the tenant).
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            ServeError::Overloaded { retry_after_ms, .. }
            | ServeError::QuotaExceeded { retry_after_ms, .. }
            | ServeError::Evicted { retry_after_ms, .. } => Some(*retry_after_ms),
            _ => None,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Engine(e) => write!(f, "engine: {e}"),
            ServeError::Overloaded {
                tenant,
                depth,
                capacity,
                retry_after_ms,
            } => write!(
                f,
                "tenant {tenant:?} overloaded: {depth} in flight (capacity {capacity}); \
                 retry after {retry_after_ms}ms"
            ),
            ServeError::QuotaExceeded {
                tenant,
                kind,
                used,
                limit,
                retry_after_ms,
            } => write!(
                f,
                "tenant {tenant:?} over {kind} quota: {used} of {limit}; \
                 retry after {retry_after_ms}ms"
            ),
            ServeError::DeadlineExceeded {
                tenant,
                deadline_ms,
                waited_ms,
            } => write!(
                f,
                "tenant {tenant:?} job missed its {deadline_ms}ms deadline \
                 (waited {waited_ms}ms); rejected before apply"
            ),
            ServeError::Evicted {
                tenant,
                retry_after_ms,
            } => write!(
                f,
                "tenant {tenant:?} is being evicted; re-open after {retry_after_ms}ms"
            ),
            ServeError::UnknownTenant(name) => write!(f, "unknown tenant {name:?}"),
            ServeError::TenantExists(name) => write!(f, "tenant {name:?} already exists"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Malformed(detail) => write!(f, "malformed request: {detail}"),
            ServeError::SessionViolation {
                session,
                tenant,
                detail,
            } => write!(
                f,
                "session {session:?} violation on tenant {tenant:?}: {detail}"
            ),
            ServeError::SlowClient { capacity } => write!(
                f,
                "client reads too slowly: outbox full ({capacity} responses buffered); \
                 disconnecting"
            ),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_codes_extend_the_engine_taxonomy_without_collision() {
        // Engine exit codes end at 12 (SnapshotCorrupt); serve-layer
        // codes must stay clear of them so a wire code is unambiguous.
        let serve_codes = [
            CODE_OVERLOADED,
            CODE_UNKNOWN_TENANT,
            CODE_TENANT_EXISTS,
            CODE_SHUTTING_DOWN,
            CODE_QUOTA_EXCEEDED,
            CODE_DEADLINE_EXCEEDED,
            CODE_EVICTED,
            CODE_SESSION,
            CODE_SLOW_CLIENT,
        ];
        assert_eq!(serve_codes, [13, 14, 15, 16, 17, 18, 19, 20, 21]);
        assert_eq!(
            ServeError::Overloaded {
                tenant: "t".into(),
                depth: 4,
                capacity: 4,
                retry_after_ms: 10,
            }
            .wire_code(),
            13
        );
        assert_eq!(ServeError::UnknownTenant("t".into()).wire_code(), 14);
        assert_eq!(ServeError::TenantExists("t".into()).wire_code(), 15);
        assert_eq!(ServeError::ShuttingDown.wire_code(), 16);
        assert_eq!(
            ServeError::QuotaExceeded {
                tenant: "t".into(),
                kind: QuotaKind::Bytes,
                used: 2048,
                limit: 1024,
                retry_after_ms: 20,
            }
            .wire_code(),
            17
        );
        assert_eq!(
            ServeError::DeadlineExceeded {
                tenant: "t".into(),
                deadline_ms: 5,
                waited_ms: 9,
            }
            .wire_code(),
            18
        );
        assert_eq!(
            ServeError::Evicted {
                tenant: "t".into(),
                retry_after_ms: 40,
            }
            .wire_code(),
            19
        );
        assert_eq!(
            ServeError::SessionViolation {
                session: "s".into(),
                tenant: "t".into(),
                detail: "gap".into(),
            }
            .wire_code(),
            20
        );
        assert_eq!(ServeError::SlowClient { capacity: 8 }.wire_code(), 21);
        assert!(ServeError::SlowClient { capacity: 8 }.is_rejection());
        assert_eq!(
            ServeError::SlowClient { capacity: 8 }.retry_after_ms(),
            None
        );
        assert_eq!(ServeError::Malformed("x".into()).wire_code(), 4);
        assert_eq!(
            ServeError::Engine(DynFdError::ArityMismatch {
                expected: 3,
                actual: 2
            })
            .wire_code(),
            7
        );
        assert!(ServeError::ShuttingDown.is_rejection());
    }

    #[test]
    fn retry_hints_ride_only_governance_rejections() {
        assert_eq!(
            ServeError::Overloaded {
                tenant: "t".into(),
                depth: 1,
                capacity: 1,
                retry_after_ms: 80,
            }
            .retry_after_ms(),
            Some(80)
        );
        assert_eq!(
            ServeError::QuotaExceeded {
                tenant: "t".into(),
                kind: QuotaKind::Cpu,
                used: 900,
                limit: 500,
                retry_after_ms: 160,
            }
            .retry_after_ms(),
            Some(160)
        );
        assert_eq!(
            ServeError::Evicted {
                tenant: "t".into(),
                retry_after_ms: 10,
            }
            .retry_after_ms(),
            Some(10)
        );
        assert_eq!(ServeError::ShuttingDown.retry_after_ms(), None);
        assert_eq!(
            ServeError::DeadlineExceeded {
                tenant: "t".into(),
                deadline_ms: 1,
                waited_ms: 2,
            }
            .retry_after_ms(),
            None,
            "a missed deadline is the client's clock problem, not backpressure"
        );
        assert!(ServeError::Evicted {
            tenant: "t".into(),
            retry_after_ms: 0
        }
        .is_rejection());
    }
}
