//! Per-batch work metrics.

use std::time::Duration;

/// Counters describing the work one
/// [`DynFd::apply_batch`](crate::DynFd::apply_batch) call performed.
/// The §6.5 ablation experiments read these to attribute runtime to the
/// individual pruning strategies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchMetrics {
    /// Wall-clock time of the whole batch (structure updates + both
    /// maintenance phases).
    pub wall_time: Duration,
    /// Wall-clock time of the delete phase (Algorithm 4) alone.
    pub delete_phase_time: Duration,
    /// Wall-clock time of the insert phase (Algorithm 2) alone,
    /// including any triggered violation search.
    pub insert_phase_time: Duration,
    /// Worker threads the validation engine was allowed to use for this
    /// batch (the resolved value of `DynFdConfig::parallelism`). Under
    /// `absorb` this is the maximum across batches, not a sum.
    pub threads_used: usize,
    /// Records inserted (updates count once here and once in `deletes`).
    pub inserts: usize,
    /// Records deleted.
    pub deletes: usize,
    /// FD candidate validations in the insert phase (Algorithm 2).
    pub fd_validations: usize,
    /// Non-FD candidate validations in the delete phase (Algorithm 4),
    /// including those issued by depth-first searches.
    pub non_fd_validations: usize,
    /// Non-FD validations skipped because the cached violating record
    /// pair survived the batch (§5.2 validation pruning).
    pub validations_skipped: usize,
    /// Insert-phase FD validations skipped because the LHS contains a
    /// declared key (§8 extension: key-constraint pruning).
    pub skipped_by_key_constraint: usize,
    /// Candidate validations (both phases) skipped because a pure-update
    /// batch touched none of the candidate's attributes (§8 extension:
    /// update pruning).
    pub skipped_by_update_pruning: usize,
    /// PLI clusters skipped by cluster pruning (§4.2).
    pub clusters_pruned: usize,
    /// PLI clusters actually grouped and checked.
    pub clusters_visited: usize,
    /// Record-pair comparisons performed by the violation search (§4.3).
    pub comparisons: usize,
    /// Violation-search window rounds executed.
    pub search_rounds: usize,
    /// Depth-first searches launched (§5.3 seeds).
    pub dfs_seeds: usize,
    /// Minimal FDs that appeared in this batch.
    pub added_fds: usize,
    /// Minimal FDs that disappeared in this batch.
    pub removed_fds: usize,
    /// Degraded-mode cover rebuilds: the post-batch consistency check
    /// (see `DynFdConfig::consistency`) found the covers corrupted and
    /// both were rebuilt from scratch via a static HyFD run. Always 0
    /// with checking off; nonzero values are an operator signal that
    /// incremental maintenance went wrong.
    pub cover_rebuilds: usize,
    /// Validations that pivoted on a memoized PLI intersection (see
    /// `DynFdConfig::pli_cache_bytes`). Always 0 with the cache off.
    pub cache_hits: usize,
    /// Arity ≥ 2 validations that probed the cache and found no usable
    /// subset of their LHS.
    pub cache_misses: usize,
    /// Cache entries evicted (byte budget) or invalidated (patch
    /// failure) during this batch.
    pub cache_evictions: usize,
    /// Approximate resident bytes of the PLI-intersection cache after
    /// the batch. Under `absorb` this is the maximum across batches,
    /// like `threads_used`.
    pub cache_bytes: usize,
    /// Bytes the durable engine (`dynfd-persist`) appended to the
    /// write-ahead batch log for this batch (frame header + payload).
    /// Always 0 for the purely in-memory engine.
    pub wal_bytes: usize,
    /// `fsync`/`fdatasync` calls the durable engine issued for this
    /// batch: one for the WAL append, plus the snapshot-file, directory,
    /// and log-truncation syncs when the batch triggered a snapshot.
    pub fsyncs: usize,
    /// Wall-clock time spent writing a snapshot after this batch
    /// (zero when the snapshot cadence did not fire).
    pub snapshot_time: Duration,
    /// Batches this engine applied while resource governance had
    /// degraded its PLI cache (budget shrunk or cache disabled by
    /// [`DynFd::set_cache_pressure`](crate::DynFd::set_cache_pressure)).
    /// Validation verdicts and covers are unaffected — only the
    /// acceleration layer runs squeezed — but operators watching batch
    /// latency need to know the engine was under memory pressure.
    pub degraded_batches: usize,
    /// WAL frames replayed by the `FdEngine::recover` call that
    /// preceded this batch. The durable engine stamps the count into
    /// the first batch applied after a recovery, so totals built with
    /// [`BatchMetrics::absorb`] count it once; 0 otherwise.
    pub recovery_replayed_batches: usize,
    /// Highest batch sequence number the durable engine has rewound out
    /// of the WAL — a rejected or rolled-back batch whose pre-logged
    /// frame was truncated so it can never reappear after recovery, or
    /// the first frame dropped by corruption truncation. 0 = never.
    /// Under `absorb` this is the maximum across batches.
    pub last_truncated_seq: u64,
    /// Always 0. Counted insert-phase jobs probed by the removed
    /// sampling-guided validation ordering; kept only so existing
    /// readers of the field still compile.
    pub sampling_probes: usize,
    /// Always 0. Counted insert-phase jobs the removed sampling-guided
    /// validation ordering skipped; kept only so existing readers of
    /// the field still compile.
    pub sampling_skipped: usize,
}

impl BatchMetrics {
    /// Total candidate validations the batch issued across both phases
    /// (`fd_validations + non_fd_validations`) — the job count of the
    /// parallel validation engine. Determinism tests compare this across
    /// thread counts: the engine must produce the identical job stream
    /// regardless of how many workers execute it.
    pub fn validation_jobs(&self) -> usize {
        self.fd_validations + self.non_fd_validations
    }

    /// Accumulates another batch's counters (used by the experiment
    /// harness to report per-run totals).
    pub fn absorb(&mut self, other: &BatchMetrics) {
        self.wall_time += other.wall_time;
        self.delete_phase_time += other.delete_phase_time;
        self.insert_phase_time += other.insert_phase_time;
        self.threads_used = self.threads_used.max(other.threads_used);
        self.inserts += other.inserts;
        self.deletes += other.deletes;
        self.fd_validations += other.fd_validations;
        self.non_fd_validations += other.non_fd_validations;
        self.validations_skipped += other.validations_skipped;
        self.skipped_by_key_constraint += other.skipped_by_key_constraint;
        self.skipped_by_update_pruning += other.skipped_by_update_pruning;
        self.clusters_pruned += other.clusters_pruned;
        self.clusters_visited += other.clusters_visited;
        self.comparisons += other.comparisons;
        self.search_rounds += other.search_rounds;
        self.dfs_seeds += other.dfs_seeds;
        self.added_fds += other.added_fds;
        self.removed_fds += other.removed_fds;
        self.cover_rebuilds += other.cover_rebuilds;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.cache_bytes = self.cache_bytes.max(other.cache_bytes);
        self.wal_bytes += other.wal_bytes;
        self.fsyncs += other.fsyncs;
        self.snapshot_time += other.snapshot_time;
        self.degraded_batches += other.degraded_batches;
        self.recovery_replayed_batches += other.recovery_replayed_batches;
        self.last_truncated_seq = self.last_truncated_seq.max(other.last_truncated_seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut a = BatchMetrics {
            inserts: 2,
            comparisons: 10,
            ..Default::default()
        };
        let b = BatchMetrics {
            inserts: 3,
            comparisons: 5,
            wall_time: Duration::from_millis(7),
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.inserts, 5);
        assert_eq!(a.comparisons, 15);
        assert_eq!(a.wall_time, Duration::from_millis(7));
    }

    #[test]
    fn absorb_takes_max_threads_and_sums_phase_times() {
        let mut a = BatchMetrics {
            threads_used: 4,
            insert_phase_time: Duration::from_millis(3),
            ..Default::default()
        };
        let b = BatchMetrics {
            threads_used: 2,
            insert_phase_time: Duration::from_millis(4),
            delete_phase_time: Duration::from_millis(1),
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.threads_used, 4);
        assert_eq!(a.insert_phase_time, Duration::from_millis(7));
        assert_eq!(a.delete_phase_time, Duration::from_millis(1));
    }

    #[test]
    fn absorb_wal_counters() {
        let mut a = BatchMetrics {
            wal_bytes: 100,
            fsyncs: 1,
            last_truncated_seq: 5,
            ..Default::default()
        };
        let b = BatchMetrics {
            wal_bytes: 50,
            fsyncs: 4,
            snapshot_time: Duration::from_millis(2),
            recovery_replayed_batches: 3,
            last_truncated_seq: 2,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.wal_bytes, 150);
        assert_eq!(a.fsyncs, 5);
        assert_eq!(a.snapshot_time, Duration::from_millis(2));
        assert_eq!(a.recovery_replayed_batches, 3);
        assert_eq!(a.last_truncated_seq, 5, "truncation watermark is a max");
    }
}
