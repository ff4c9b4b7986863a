//! A tenant: one independent relation with its own engine and queue
//! accounting.
//!
//! Tenants come in two backends. **Durable** tenants own an
//! [`FdEngine`] rooted in their own WAL directory (`<root>/<name>/`) —
//! re-opening a tenant recovers and resumes, and a server crash loses
//! at most batches never acknowledged. **Memory** tenants wrap a plain
//! [`DynFd`] for pure-throughput workloads (`dynfd serve --multi`
//! without `--root`, and the test harnesses); they track their own
//! sequence number so replies look the same either way.
//!
//! The backend sits behind a `Mutex`, but it is not contended in steady
//! state: a tenant maps to exactly one worker shard, so only that shard
//! ever applies batches to it. The lock's real job is *poisoning* — a
//! panic that escapes the engine's own transactional boundary poisons
//! this tenant's lock only, and every later batch for the tenant is
//! answered with a typed error while all other tenants keep serving
//! (the isolation property `tests/tenant_isolation.rs` pins).

use crate::metrics::TenantMetrics;
use crate::queue::Gate;
use crate::ServeError;
use dynfd_core::{BatchResult, DynFd, DynFdError, DynFdResult};
use dynfd_persist::{CrashPlan, FdEngine};
use dynfd_relation::Batch;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// The engine behind a tenant (see module docs).
pub(crate) enum Backend {
    /// Durable: WAL + snapshots in the tenant's own directory.
    Durable(FdEngine),
    /// In-memory engine plus its applied-batch counter.
    Memory(DynFd, u64),
}

impl Backend {
    /// Applies one batch and advances the sequence number.
    pub fn apply(&mut self, batch: &Batch) -> DynFdResult<BatchResult> {
        match self {
            Backend::Durable(engine) => engine.apply_batch(batch),
            Backend::Memory(engine, seq) => {
                let result = engine.apply_batch(batch)?;
                *seq += 1;
                Ok(result)
            }
        }
    }

    /// The wrapped in-memory engine.
    pub fn dynfd(&self) -> &DynFd {
        match self {
            Backend::Durable(engine) => engine.dynfd(),
            Backend::Memory(engine, _) => engine,
        }
    }

    /// Mutable access to the wrapped engine (failpoint arming).
    pub fn dynfd_mut(&mut self) -> &mut DynFd {
        match self {
            Backend::Durable(engine) => engine.dynfd_mut(),
            Backend::Memory(engine, _) => engine,
        }
    }

    /// Sequence number of the last applied batch.
    pub fn seq(&self) -> u64 {
        match self {
            Backend::Durable(engine) => engine.seq(),
            Backend::Memory(_, seq) => *seq,
        }
    }

    /// Fsyncs the WAL tail (no-op for memory tenants).
    pub fn sync(&mut self) -> std::io::Result<()> {
        match self {
            Backend::Durable(engine) => engine.sync_all(),
            Backend::Memory(..) => Ok(()),
        }
    }

    /// Persists the tenant for release: snapshot + WAL fsync, so the
    /// next `recover_or_create` restores from the snapshot instead of a
    /// long replay. No-op for memory tenants (their state dies with
    /// them by design).
    pub fn persist_for_release(&mut self) -> std::io::Result<()> {
        match self {
            Backend::Durable(engine) => {
                engine.snapshot()?;
                engine.sync_all()
            }
            Backend::Memory(..) => Ok(()),
        }
    }

    /// Arms a deterministic crash plan on the durable engine (crash
    /// harness; no-op for memory tenants).
    pub fn set_crash_plan(&mut self, plan: CrashPlan) {
        if let Backend::Durable(engine) = self {
            engine.set_crash_plan(plan);
        }
    }
}

/// One registered tenant.
pub(crate) struct Tenant {
    /// The tenant's wire name.
    pub name: String,
    /// Index of the worker shard that owns this tenant.
    pub shard: usize,
    /// The engine, locked per batch by the owning shard.
    pub backend: Mutex<Backend>,
    /// Admission gate bounding in-flight batches.
    pub gate: Gate,
    /// Telemetry.
    pub metrics: TenantMetrics,
    /// Set while an eviction drains this tenant; admissions are
    /// answered with [`ServeError::Evicted`] until the registry entry
    /// is gone (then they get `UnknownTenant`).
    pub closing: AtomicBool,
    /// Resident-byte estimate after the last applied batch
    /// (`DynFd::resident_bytes`), cached here so admission-time quota
    /// checks never touch the engine lock.
    pub resident_bytes: AtomicU64,
    /// Cumulative wall-clock nanoseconds spent inside `apply` — the
    /// meter behind the CPU quota.
    pub cpu_nanos: AtomicU64,
    /// Engine-wide admission tick of the last admitted batch; the LRU
    /// key for global-budget auto-eviction.
    pub last_admitted: AtomicU64,
    /// Consecutive governance rejections since the last admission;
    /// drives the exponential retry-after hint.
    pub reject_streak: AtomicU64,
}

impl Tenant {
    pub fn new(name: String, shard: usize, backend: Backend) -> Tenant {
        let resident = backend.dynfd().resident_bytes() as u64;
        Tenant {
            name,
            shard,
            backend: Mutex::new(backend),
            gate: Gate::new(),
            metrics: TenantMetrics::default(),
            closing: AtomicBool::new(false),
            resident_bytes: AtomicU64::new(resident),
            cpu_nanos: AtomicU64::new(0),
            last_admitted: AtomicU64::new(0),
            reject_streak: AtomicU64::new(0),
        }
    }

    /// Base retry-after hint in milliseconds.
    const RETRY_BASE_MS: u64 = 10;
    /// Cap exponent: hints stop doubling at `base << CAP` (1280 ms).
    const RETRY_CAP: u32 = 7;

    /// Bumps the rejection streak and returns the retry-after hint for
    /// this rejection: `base × 2^min(streak-1, cap)`. Deterministic
    /// given the admission/rejection sequence, monotone while the
    /// streak grows, reset by [`Tenant::note_admitted`].
    pub fn next_retry_after_ms(&self) -> u64 {
        let streak = self.reject_streak.fetch_add(1, Ordering::Relaxed) + 1;
        let exp = (streak - 1).min(Self::RETRY_CAP as u64) as u32;
        Self::RETRY_BASE_MS << exp
    }

    /// Records a successful admission: resets the rejection streak and
    /// stamps the LRU tick.
    pub fn note_admitted(&self, tick: u64) {
        self.reject_streak.store(0, Ordering::Relaxed);
        self.last_admitted.store(tick, Ordering::Relaxed);
    }

    /// Runs `f` on the tenant's engine, turning a poisoned lock (an
    /// earlier escaped panic) into the typed per-tenant error instead of
    /// propagating the poison.
    pub fn with_backend<R>(&self, f: impl FnOnce(&mut Backend) -> R) -> Result<R, ServeError> {
        match self.backend.lock() {
            Ok(mut backend) => Ok(f(&mut backend)),
            Err(_) => Err(ServeError::Engine(DynFdError::PhasePanicked {
                phase: "serve-worker",
                detail: format!("tenant {:?} is poisoned by an earlier panic", self.name),
            })),
        }
    }
}

/// Validates a tenant name for use as a directory component: non-empty,
/// at most 128 bytes, `[A-Za-z0-9_.-]` only, and not `.`/`..`. Keeps
/// wire-supplied names from escaping the durable root.
pub fn valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && name != "."
        && name != ".."
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_names_cannot_traverse_paths() {
        for good in ["t0", "orders-2026", "a.b_c", "X"] {
            assert!(valid_tenant_name(good), "{good:?} should be valid");
        }
        for bad in ["", ".", "..", "a/b", "a\\b", "a b", "é", &"x".repeat(129)] {
            assert!(!valid_tenant_name(bad), "{bad:?} should be rejected");
        }
    }
}
