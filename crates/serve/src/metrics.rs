//! Per-tenant and aggregate serve metrics.
//!
//! All counters are relaxed atomics: they are operator telemetry, not
//! synchronization. The one consistency property tests rely on — after
//! a quiesce, `submitted` equals `applied + rejected + shed +
//! quota_rejected + closed_rejected` — holds because every submit path
//! increments exactly one of the outcome counters before the batch's
//! completion fires. (Deadline rejections happen on the worker, so they count in
//! `rejected` for the partition and in `deadline_rejected` as the
//! informational breakdown.)
//!
//! The same [`TenantMetrics`] struct backs the engine-wide aggregate:
//! every per-tenant increment also lands on the engine's aggregate
//! instance, so shed/quota/deadline rejections survive the eviction of
//! the tenant that suffered them — the property
//! `ServeEngine::global_metrics` and the CLI's `--stats` aggregate line
//! depend on.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Live counters for one tenant (see the module docs).
#[derive(Debug, Default)]
pub struct TenantMetrics {
    submitted: AtomicU64,
    applied: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    quota_rejected: AtomicU64,
    deadline_rejected: AtomicU64,
    closed_rejected: AtomicU64,
    degrades: AtomicU64,
    degraded_batches: AtomicU64,
    session_replays: AtomicU64,
    session_dedups: AtomicU64,
    fds_added: AtomicU64,
    fds_removed: AtomicU64,
    max_depth: AtomicU64,
    latency_total_nanos: AtomicU64,
    latency_max_nanos: AtomicU64,
}

/// A point-in-time copy of a tenant's counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Batches offered to this tenant (every outcome).
    pub submitted: u64,
    /// Batches durably applied.
    pub applied: u64,
    /// Batches the engine rejected (typed `DynFdError` rejections,
    /// rolled-back internal faults, and pre-apply deadline misses).
    pub rejected: u64,
    /// Batches shed at admission (queue full under the shed policy).
    pub shed: u64,
    /// Batches refused at admission because the tenant was over a
    /// resource quota (wire code 17).
    pub quota_rejected: u64,
    /// Jobs rejected pre-apply because their deadline passed (wire code
    /// 18). Also counted in `rejected` — this is the breakdown, not a
    /// fourth outcome.
    pub deadline_rejected: u64,
    /// Submissions refused because they landed inside the tenant's
    /// eviction window (wire code 19).
    pub closed_rejected: u64,
    /// Governance degradation steps applied to this tenant (PLI-cache
    /// squeeze or disable under memory pressure).
    pub degrades: u64,
    /// Batches applied while the tenant's cache was degraded (the serve
    /// face of `BatchMetrics::degraded_batches`).
    pub degraded_batches: u64,
    /// Sessioned applies answered from the ack-replay window (a re-sent
    /// frame whose batch was already settled — nothing re-applied).
    /// Outside the `submitted` partition: a replay is not a submission.
    pub session_replays: u64,
    /// Duplicate sessioned applies absorbed while the original was
    /// still in flight. Also outside the `submitted` partition.
    pub session_dedups: u64,
    /// Minimal FDs added across all applied batches.
    pub fds_added: u64,
    /// Minimal FDs removed across all applied batches.
    pub fds_removed: u64,
    /// High-water mark of the tenant's in-flight queue depth.
    pub max_depth: u64,
    /// Sum of submit→completion latency over applied + rejected batches.
    pub latency_total: Duration,
    /// Worst single submit→completion latency.
    pub latency_max: Duration,
}

impl MetricsSnapshot {
    /// All rejections issued on behalf of resource governance (shed +
    /// quota + eviction-window; deadline misses are already inside
    /// `rejected`).
    pub fn governance_rejections(&self) -> u64 {
        self.shed + self.quota_rejected + self.closed_rejected
    }
}

impl TenantMetrics {
    /// Records an admission attempt reaching depth `depth`.
    pub fn note_submitted(&self, depth: usize) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.max_depth.fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// Records a load-shed (admission refused).
    pub fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a quota rejection at admission (wire code 17).
    pub fn note_quota_rejected(&self) {
        self.quota_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a pre-apply deadline rejection (wire code 18). The
    /// completion path also calls [`TenantMetrics::note_completed`] with
    /// `applied = false`, which keeps the outcome partition intact.
    pub fn note_deadline_rejected(&self) {
        self.deadline_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a submission refused inside the eviction window (wire
    /// code 19).
    pub fn note_closed_rejected(&self) {
        self.closed_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one governance degradation step (cache squeeze/disable).
    pub fn note_degrade(&self) {
        self.degrades.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a sessioned apply answered from the replay window.
    pub fn note_session_replay(&self) {
        self.session_replays.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a duplicate sessioned apply absorbed in flight.
    pub fn note_session_dedup(&self) {
        self.session_dedups.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a completed batch: applied or rejected, with its
    /// submit→completion latency and (when applied) the FD delta sizes.
    /// `degraded` marks a batch applied under cache pressure.
    pub fn note_completed(
        &self,
        applied: bool,
        added: u64,
        removed: u64,
        latency: Duration,
        degraded: bool,
    ) {
        if applied {
            self.applied.fetch_add(1, Ordering::Relaxed);
            self.fds_added.fetch_add(added, Ordering::Relaxed);
            self.fds_removed.fetch_add(removed, Ordering::Relaxed);
            if degraded {
                self.degraded_batches.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            self.rejected.fetch_add(1, Ordering::Relaxed);
        }
        let nanos = latency.as_nanos().min(u64::MAX as u128) as u64;
        self.latency_total_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.latency_max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Copies the counters out.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            applied: self.applied.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            quota_rejected: self.quota_rejected.load(Ordering::Relaxed),
            deadline_rejected: self.deadline_rejected.load(Ordering::Relaxed),
            closed_rejected: self.closed_rejected.load(Ordering::Relaxed),
            degrades: self.degrades.load(Ordering::Relaxed),
            degraded_batches: self.degraded_batches.load(Ordering::Relaxed),
            session_replays: self.session_replays.load(Ordering::Relaxed),
            session_dedups: self.session_dedups.load(Ordering::Relaxed),
            fds_added: self.fds_added.load(Ordering::Relaxed),
            fds_removed: self.fds_removed.load(Ordering::Relaxed),
            max_depth: self.max_depth.load(Ordering::Relaxed),
            latency_total: Duration::from_nanos(self.latency_total_nanos.load(Ordering::Relaxed)),
            latency_max: Duration::from_nanos(self.latency_max_nanos.load(Ordering::Relaxed)),
        }
    }
}

/// Engine-wide aggregate: the same counters as one tenant, summed over
/// every tenant that ever lived on the engine, plus lifecycle counts
/// that only make sense globally. Unlike per-tenant metrics, this
/// survives eviction — a rejected batch stays counted after its tenant
/// is released.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GlobalSnapshot {
    /// Summed per-tenant counters (see [`MetricsSnapshot`]).
    pub totals: MetricsSnapshot,
    /// Tenants evicted or closed over the engine's lifetime.
    pub evictions: u64,
    /// Tenants currently registered.
    pub live_tenants: u64,
    /// Sum of every live tenant's resident-byte estimate at snapshot
    /// time.
    pub resident_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcomes_partition_submissions() {
        let m = TenantMetrics::default();
        m.note_submitted(1);
        m.note_completed(true, 2, 1, Duration::from_micros(5), false);
        m.note_submitted(2);
        m.note_completed(false, 0, 0, Duration::from_micros(9), false);
        m.note_submitted(3);
        m.note_shed();
        m.note_submitted(3);
        m.note_quota_rejected();
        m.note_submitted(3);
        m.note_closed_rejected();
        let s = m.snapshot();
        assert_eq!(s.submitted, 5);
        assert_eq!(
            s.applied + s.rejected + s.shed + s.quota_rejected + s.closed_rejected,
            5
        );
        assert_eq!(s.governance_rejections(), 3);
        assert_eq!((s.fds_added, s.fds_removed), (2, 1));
        assert_eq!(s.max_depth, 3);
        assert_eq!(s.latency_max, Duration::from_micros(9));
        assert_eq!(s.latency_total, Duration::from_micros(14));
    }

    #[test]
    fn deadline_misses_break_down_rejected_without_double_counting() {
        let m = TenantMetrics::default();
        m.note_submitted(1);
        m.note_deadline_rejected();
        m.note_completed(false, 0, 0, Duration::from_micros(3), false);
        let s = m.snapshot();
        assert_eq!(s.submitted, 1);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.deadline_rejected, 1);
        assert_eq!(
            s.applied + s.rejected + s.shed + s.quota_rejected + s.closed_rejected,
            1,
            "deadline misses live inside rejected, not beside it"
        );
    }

    #[test]
    fn degraded_batches_count_only_applied_work() {
        let m = TenantMetrics::default();
        m.note_submitted(1);
        m.note_completed(true, 0, 0, Duration::from_micros(1), true);
        m.note_submitted(1);
        m.note_completed(false, 0, 0, Duration::from_micros(1), true);
        let s = m.snapshot();
        assert_eq!(s.degraded_batches, 1);
    }
}
