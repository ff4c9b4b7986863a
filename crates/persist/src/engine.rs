//! The durable engine: `DynFd` + WAL + snapshots + crash recovery.
//!
//! [`FdEngine`] wraps an in-memory [`DynFd`] with redo-log durability:
//!
//! 1. **Log before apply.** Each batch is appended to the WAL as a
//!    checksummed frame and `fdatasync`ed *before* [`DynFd::apply_batch`]
//!    mutates anything. A crash at any instant therefore loses at most
//!    work the caller was never told succeeded.
//! 2. **Rewind on rejection.** When `apply_batch` rejects a batch (and
//!    rolls the in-memory state back), the engine durably truncates the
//!    just-written frame out of the WAL — a rolled-back batch must
//!    never reappear after recovery. If the process dies *between* the
//!    log and the rewind, replay re-rejects the batch deterministically
//!    and truncates it then.
//! 3. **Snapshot to bound replay.** Every `snapshot_every` applied
//!    batches (see [`DynFdConfig::snapshot_every`]) the full state is
//!    written atomically and the WAL is emptied.
//! 4. **Recover by replay.** [`FdEngine::recover`] loads the newest
//!    valid snapshot and replays the WAL tail. Torn or corrupt frames
//!    truncate the log at the last valid frame and surface as a typed
//!    [`DynFdError::WalCorrupt`] in the [`RecoveryReport`] — never a
//!    panic. The recovered state is oracle-identical to replaying the
//!    same batch prefix on a fresh engine: relation and covers are
//!    equal, and the §5.2 violation annotations are valid
//!    witnessing pairs (the exact pairs are surrogate accelerators
//!    whose choice depends on the PLI-intersection cache path — see
//!    [`DynFd::logical_divergence`]).

use crate::snapshot::{self, SNAP_TMP};
use crate::wal::{Wal, WAL_FILE};
use dynfd_core::{BatchResult, DynFd, DynFdConfig, DynFdError, DynFdResult};
use dynfd_relation::{Batch, DynamicRelation};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Deterministic crash-injection plan for the child-process harness.
/// All fields are byte/count triggers; when one fires the process
/// `abort()`s with the partial write durably on disk — the closest
/// userspace approximation of a power cut.
#[derive(Clone, Copy, Debug, Default)]
pub struct CrashPlan {
    /// Abort mid-append once the WAL would grow past this absolute byte
    /// offset, leaving a torn frame.
    pub wal_kill_at_byte: Option<u64>,
    /// Abort after this many more frames have been appended and
    /// `fdatasync`ed — the crash lands *between* the durable log write
    /// and the in-memory apply (or the rejection rewind).
    pub kill_after_frames: Option<u64>,
    /// Abort once this many bytes of `snapshot.tmp` have been written,
    /// leaving a partial temp file behind (the rename never happens).
    pub snapshot_kill_at_byte: Option<u64>,
}

/// What [`FdEngine::recover`] found and did.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Sequence number of the snapshot the recovery started from.
    pub snapshot_seq: u64,
    /// WAL frames replayed on top of the snapshot.
    pub replayed_batches: usize,
    /// Frames skipped because their sequence number was at or below the
    /// snapshot's (a crash between snapshot rename and WAL truncation
    /// leaves such frames behind; they are already in the snapshot).
    pub stale_frames: usize,
    /// Corrupt snapshot files that had to be skipped before a valid one
    /// loaded (newest first), with the reason each failed.
    pub snapshots_skipped: Vec<String>,
    /// The [`DynFdError::WalCorrupt`] describing a torn/corrupt WAL
    /// tail that was truncated, if one was found.
    pub corruption: Option<DynFdError>,
    /// A logged batch that replay *rejected* — the crash happened
    /// between the WAL append and the rejection rewind. The frame was
    /// truncated; the error is the deterministic rejection reason.
    pub rejected: Option<(u64, DynFdError)>,
}

/// A [`DynFd`] with durable, crash-recoverable state in a directory.
pub struct FdEngine {
    dir: PathBuf,
    wal: Wal,
    engine: DynFd,
    /// Sequence number of the last successfully applied batch.
    seq: u64,
    batches_since_snapshot: usize,
    crash: CrashPlan,
    /// Stamped into the next successful batch's metrics (then cleared):
    /// frames the preceding recovery replayed.
    pending_replayed: usize,
    /// Highest sequence number ever rewound out of the WAL (rejected
    /// batch or corruption truncation); stamped into every batch's
    /// metrics as a watermark. 0 = never.
    truncated_seq_watermark: u64,
}

fn io_err(e: io::Error) -> DynFdError {
    DynFdError::Io(e.to_string())
}

/// Path of the WAL file inside an engine directory (exposed so tests
/// and the fuzz harness can corrupt it between runs).
pub fn wal_path(dir: &Path) -> PathBuf {
    dir.join(WAL_FILE)
}

impl FdEngine {
    /// Creates a fresh durable engine in `dir` (created if missing),
    /// discarding any state a previous engine left there. The initial
    /// state is snapshotted immediately (sequence 0) so recovery always
    /// has a floor to replay from.
    pub fn create(dir: &Path, rel: DynamicRelation, config: DynFdConfig) -> DynFdResult<Self> {
        fs::create_dir_all(dir).map_err(io_err)?;
        // Clear leftovers from any prior engine in this directory.
        for entry in fs::read_dir(dir).map_err(io_err)? {
            let entry = entry.map_err(io_err)?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".snap") || name == SNAP_TMP {
                fs::remove_file(entry.path()).map_err(io_err)?;
            }
        }
        let wal = Wal::create(&wal_path(dir)).map_err(io_err)?;
        let engine = DynFd::new(rel, config);
        snapshot::write_snapshot(dir, 0, &engine, None).map_err(io_err)?;
        Ok(FdEngine {
            dir: dir.to_path_buf(),
            wal,
            engine,
            seq: 0,
            batches_since_snapshot: 0,
            crash: CrashPlan::default(),
            pending_replayed: 0,
            truncated_seq_watermark: 0,
        })
    }

    /// Recovers the engine persisted in `dir` with the default
    /// configuration. See [`FdEngine::recover_with_config`].
    pub fn recover(dir: &Path) -> DynFdResult<(Self, RecoveryReport)> {
        Self::recover_with_config(dir, DynFdConfig::default())
    }

    /// Opens a durable engine in `dir`: recovers the existing state when
    /// a WAL is present, creates a fresh engine from `rel` otherwise.
    /// This is the tenant-open path of the multi-tenant serve layer —
    /// re-opening a tenant directory must resume, never start over.
    /// Returns the recovery report when state was recovered (`None` for
    /// a fresh engine).
    pub fn recover_or_create(
        dir: &Path,
        rel: DynamicRelation,
        config: DynFdConfig,
    ) -> DynFdResult<(Self, Option<RecoveryReport>)> {
        if wal_path(dir).exists() {
            let (engine, report) = Self::recover_with_config(dir, config)?;
            Ok((engine, Some(report)))
        } else {
            Ok((Self::create(dir, rel, config)?, None))
        }
    }

    /// Recovers from the newest valid snapshot plus the WAL tail.
    ///
    /// The FD covers are configuration-invariant, but the §5.2
    /// violation *annotations* are not — pass the same configuration
    /// the crashed engine ran with to get a state logically identical
    /// (relation and covers bit-for-bit; annotations valid, see
    /// [`DynFd::logical_divergence`]) to a fresh replay under that
    /// configuration.
    ///
    /// Robustness guarantees:
    /// - a torn or corrupt WAL tail (bad magic, short header, impossible
    ///   length, CRC mismatch, undecodable payload, sequence jump) is
    ///   durably truncated at the last valid frame and reported as
    ///   [`DynFdError::WalCorrupt`] in the [`RecoveryReport`] — the
    ///   recovery itself still succeeds;
    /// - a logged frame whose batch replay *rejects* (crash between log
    ///   and rewind) is truncated the same way and reported in
    ///   [`RecoveryReport::rejected`];
    /// - corrupt snapshot files are skipped in favor of older valid
    ///   ones; a leftover `snapshot.tmp` is removed;
    /// - stale frames at or below the snapshot sequence (crash between
    ///   snapshot rename and WAL truncation) are skipped.
    ///
    /// Fails only when no valid snapshot exists
    /// ([`DynFdError::SnapshotCorrupt`]) or on real I/O errors.
    pub fn recover_with_config(
        dir: &Path,
        config: DynFdConfig,
    ) -> DynFdResult<(Self, RecoveryReport)> {
        let (state, snapshots_skipped) = snapshot::load_latest(dir).map_err(io_err)?;
        let state = state.ok_or_else(|| DynFdError::SnapshotCorrupt {
            detail: if snapshots_skipped.is_empty() {
                format!("no snapshot found in {}", dir.display())
            } else {
                format!(
                    "every snapshot in {} is corrupt: {}",
                    dir.display(),
                    snapshots_skipped.join("; ")
                )
            },
        })?;
        let snapshot_seq = state.seq;
        let mut engine = DynFd::from_saved_state(state.rel, state.fds, &state.annotations, config);

        let path = wal_path(dir);
        let scan = if path.exists() {
            Wal::scan(&path).map_err(io_err)?
        } else {
            // No WAL at all (e.g. deleted out from under us): treat as
            // empty — the snapshot alone is the state.
            crate::wal::WalScan {
                frames: Vec::new(),
                valid_end: 0,
                corruption: None,
            }
        };

        let mut replayed = 0usize;
        let mut stale = 0usize;
        let mut rejected: Option<(u64, DynFdError)> = None;
        let mut truncate_to = scan.valid_end;
        for frame in &scan.frames {
            if frame.seq <= snapshot_seq {
                stale += 1;
                continue;
            }
            match engine.apply_batch(&frame.batch) {
                Ok(_) => replayed += 1,
                Err(e) => {
                    // Deterministic re-rejection: the crash interrupted
                    // the rewind. Drop this frame and everything after.
                    rejected = Some((frame.seq, e));
                    truncate_to = frame.start;
                    break;
                }
            }
        }

        let corruption = scan.corruption.map(|c| DynFdError::WalCorrupt {
            seq: c.last_seq.map_or(snapshot_seq + 1, |s| s + 1),
            offset: c.offset,
        });

        // Make the truncation durable and position the WAL for append.
        let wal = if scan.valid_end == 0 && path.exists() {
            // Magic itself was damaged (or the file predates it):
            // nothing in the file is trustworthy; start a fresh log.
            Wal::create(&path).map_err(io_err)?
        } else if path.exists() {
            Wal::open(&path, truncate_to).map_err(io_err)?
        } else {
            Wal::create(&path).map_err(io_err)?
        };

        let seq = snapshot_seq + replayed as u64;
        let mut truncated_watermark = 0u64;
        if let Some(DynFdError::WalCorrupt { seq: s, .. }) = &corruption {
            truncated_watermark = truncated_watermark.max(*s);
        }
        if let Some((s, _)) = &rejected {
            truncated_watermark = truncated_watermark.max(*s);
        }

        let report = RecoveryReport {
            snapshot_seq,
            replayed_batches: replayed,
            stale_frames: stale,
            snapshots_skipped,
            corruption,
            rejected,
        };
        Ok((
            FdEngine {
                dir: dir.to_path_buf(),
                wal,
                engine,
                seq,
                batches_since_snapshot: replayed,
                crash: CrashPlan::default(),
                pending_replayed: replayed,
                truncated_seq_watermark: truncated_watermark,
            },
            report,
        ))
    }

    /// Durably logs and applies one batch.
    ///
    /// The frame is appended and `fdatasync`ed first; only then does the
    /// in-memory engine mutate. On rejection the in-memory state is
    /// rolled back by [`DynFd::apply_batch`] and the frame is durably
    /// rewound out of the WAL, so the failed batch can never replay.
    /// Successful batches trigger a snapshot every
    /// [`DynFdConfig::snapshot_every`] batches.
    ///
    /// The returned metrics carry the durability counters: `wal_bytes`,
    /// `fsyncs`, `snapshot_time`, `recovery_replayed_batches` (first
    /// batch after a recovery only), and `last_truncated_seq`.
    pub fn apply_batch(&mut self, batch: &Batch) -> DynFdResult<BatchResult> {
        let fsyncs_before = self.wal.fsync_count();
        let offset_before = self.wal.end_offset();
        let next_seq = self.seq + 1;
        let frame_len = self
            .wal
            .append(next_seq, batch, self.crash.wal_kill_at_byte)
            .map_err(io_err)?;
        self.note_frame_appended();
        match self.engine.apply_batch(batch) {
            Ok(mut result) => {
                self.seq = next_seq;
                self.batches_since_snapshot += 1;
                result.metrics.wal_bytes = frame_len as usize;
                let cadence = self.engine.config().snapshot_every;
                let mut snapshot_fsyncs = 0;
                if cadence > 0 && self.batches_since_snapshot >= cadence {
                    let start = Instant::now();
                    snapshot_fsyncs = self.snapshot().map_err(io_err)?;
                    result.metrics.snapshot_time = start.elapsed();
                }
                result.metrics.fsyncs =
                    (self.wal.fsync_count() - fsyncs_before + snapshot_fsyncs) as usize;
                result.metrics.recovery_replayed_batches =
                    std::mem::take(&mut self.pending_replayed);
                result.metrics.last_truncated_seq = self.truncated_seq_watermark;
                Ok(result)
            }
            Err(e) => {
                self.wal.rewind_to(offset_before).map_err(io_err)?;
                self.truncated_seq_watermark = self.truncated_seq_watermark.max(next_seq);
                Err(e)
            }
        }
    }

    /// Writes a snapshot of the current state and empties the WAL.
    /// Returns the `fsync` calls the snapshot write issued (the WAL
    /// truncation's sync is counted by the WAL handle itself).
    pub fn snapshot(&mut self) -> io::Result<u64> {
        let kill = self.crash.snapshot_kill_at_byte;
        let fsyncs = snapshot::write_snapshot(&self.dir, self.seq, &self.engine, kill)?;
        self.wal.truncate_all()?;
        self.batches_since_snapshot = 0;
        Ok(fsyncs)
    }

    /// Appends and syncs a frame for `batch` *without* applying it —
    /// the crash-simulation hook for "process died between the WAL
    /// append and the apply/rewind". The next [`FdEngine::recover`]
    /// either replays the batch (it was valid) or re-rejects and
    /// truncates it (it was not); continuing to use *this* instance
    /// after calling this is a logic error.
    pub fn log_without_apply(&mut self, batch: &Batch) -> DynFdResult<u64> {
        self.wal.append(self.seq + 1, batch, None).map_err(io_err)
    }

    /// Installs (or clears) the deterministic crash plan.
    pub fn set_crash_plan(&mut self, plan: CrashPlan) {
        self.crash = plan;
    }

    /// The wrapped in-memory engine (covers, annotations, relation).
    pub fn dynfd(&self) -> &DynFd {
        &self.engine
    }

    /// Mutable access to the wrapped in-memory engine. For harnesses
    /// that arm failpoints ([`DynFd::arm_failpoint`]) on a durable
    /// engine; mutating maintained *state* through this handle without
    /// going through [`FdEngine::apply_batch`] breaks the durability
    /// contract (the WAL would no longer replay to the same state).
    pub fn dynfd_mut(&mut self) -> &mut DynFd {
        &mut self.engine
    }

    /// Flushes and fsyncs the WAL tail (data + metadata). Appends are
    /// already `fdatasync`ed per batch; the clean-shutdown path calls
    /// this once more so file-length metadata after any rewind is
    /// durable too before the process exits.
    pub fn sync_all(&mut self) -> io::Result<()> {
        self.wal.sync()
    }

    /// Sequence number of the last successfully applied batch.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The engine directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current WAL size in bytes (magic + durable frames).
    pub fn wal_end_offset(&self) -> u64 {
        self.wal.end_offset()
    }

    /// Counts a frame against [`CrashPlan::kill_after_frames`], aborting
    /// when the budget reaches zero — after the durable append, before
    /// the apply.
    fn note_frame_appended(&mut self) {
        if let Some(n) = self.crash.kill_after_frames {
            if n <= 1 {
                std::process::abort(); // simulated crash post-fsync
            }
            self.crash.kill_after_frames = Some(n - 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynfd_common::{RecordId, Schema};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dynfd-engine-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn seed_relation() -> DynamicRelation {
        DynamicRelation::from_rows(
            Schema::of("t", &["a", "b", "c"]),
            &[
                vec!["x", "1", "p"],
                vec!["x", "1", "q"],
                vec!["y", "2", "p"],
                vec!["z", "2", "q"],
            ],
        )
        .unwrap()
    }

    fn batches() -> Vec<Batch> {
        let mut b1 = Batch::new();
        b1.insert(vec!["w", "3", "p"]).delete(RecordId(0));
        let mut b2 = Batch::new();
        b2.update(RecordId(2), vec!["y", "2", "q"])
            .insert(vec!["x", "1", "p"]);
        let mut b3 = Batch::new();
        b3.delete(RecordId(1)).insert(vec!["v", "4", "r"]);
        vec![b1, b2, b3]
    }

    /// Fresh in-memory engine with the same batch prefix applied — the
    /// oracle recovery must match bit-for-bit.
    fn oracle(prefix: usize, config: DynFdConfig) -> DynFd {
        let mut engine = DynFd::new(seed_relation(), config);
        for batch in batches().iter().take(prefix) {
            engine.apply_batch(batch).unwrap();
        }
        engine
    }

    #[test]
    fn recover_after_clean_run_is_bit_identical() {
        let dir = tmp_dir("clean");
        let config = DynFdConfig::default();
        let mut engine = FdEngine::create(&dir, seed_relation(), config).unwrap();
        for batch in &batches() {
            engine.apply_batch(batch).unwrap();
        }
        drop(engine);
        let (recovered, report) = FdEngine::recover_with_config(&dir, config).unwrap();
        assert_eq!(report.snapshot_seq, 0);
        assert_eq!(report.replayed_batches, 3);
        assert!(report.corruption.is_none() && report.rejected.is_none());
        assert_eq!(recovered.seq(), 3);
        assert_eq!(
            oracle(3, config).logical_divergence(recovered.dynfd()),
            None,
            "recovered state must equal a fresh replay"
        );
        recovered.dynfd().verify_annotations().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_metrics_are_stamped() {
        let dir = tmp_dir("metrics");
        let mut engine = FdEngine::create(&dir, seed_relation(), DynFdConfig::default()).unwrap();
        let result = engine.apply_batch(&batches()[0]).unwrap();
        assert!(result.metrics.wal_bytes > 16, "frame bytes recorded");
        assert_eq!(result.metrics.fsyncs, 1, "one fdatasync per append");
        assert_eq!(result.metrics.last_truncated_seq, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_cadence_truncates_wal() {
        let dir = tmp_dir("cadence");
        let config = DynFdConfig {
            snapshot_every: 2,
            ..DynFdConfig::default()
        };
        let mut engine = FdEngine::create(&dir, seed_relation(), config).unwrap();
        let all = batches();
        engine.apply_batch(&all[0]).unwrap();
        assert!(engine.wal_end_offset() > 8);
        let result = engine.apply_batch(&all[1]).unwrap();
        assert_eq!(engine.wal_end_offset(), 8, "WAL emptied at snapshot");
        assert!(result.metrics.fsyncs > 1, "snapshot syncs counted");
        assert!(result.metrics.snapshot_time > std::time::Duration::ZERO);
        engine.apply_batch(&all[2]).unwrap();
        drop(engine);
        let (recovered, report) = FdEngine::recover_with_config(&dir, config).unwrap();
        assert_eq!(report.snapshot_seq, 2);
        assert_eq!(report.replayed_batches, 1);
        assert_eq!(
            oracle(3, config).logical_divergence(recovered.dynfd()),
            None
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejected_batch_is_rewound_and_never_replays() {
        let dir = tmp_dir("reject");
        let config = DynFdConfig::default();
        let mut engine = FdEngine::create(&dir, seed_relation(), config).unwrap();
        engine.apply_batch(&batches()[0]).unwrap();
        let wal_after_good = engine.wal_end_offset();
        let mut poison = Batch::new();
        poison.delete(RecordId(999)); // unknown record → rejection
        let err = engine.apply_batch(&poison).unwrap_err();
        assert!(err.is_rejection());
        assert_eq!(
            engine.wal_end_offset(),
            wal_after_good,
            "rejected frame rewound out of the log"
        );
        // The watermark surfaces in the next successful batch.
        let result = engine.apply_batch(&batches()[1]).unwrap();
        assert_eq!(result.metrics.last_truncated_seq, 2);
        drop(engine);
        let (recovered, report) = FdEngine::recover_with_config(&dir, config).unwrap();
        assert_eq!(report.replayed_batches, 2);
        assert!(report.rejected.is_none(), "rewound frame is simply gone");
        assert_eq!(
            oracle(2, config).logical_divergence(recovered.dynfd()),
            None
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_between_log_and_rewind_truncates_on_recovery() {
        let dir = tmp_dir("log-no-apply");
        let config = DynFdConfig::default();
        let mut engine = FdEngine::create(&dir, seed_relation(), config).unwrap();
        engine.apply_batch(&batches()[0]).unwrap();
        let mut poison = Batch::new();
        poison.delete(RecordId(999));
        engine.log_without_apply(&poison).unwrap();
        drop(engine); // simulated crash before apply/rewind
        let (recovered, report) = FdEngine::recover_with_config(&dir, config).unwrap();
        assert_eq!(report.replayed_batches, 1);
        let (seq, err) = report.rejected.expect("poison frame re-rejected");
        assert_eq!(seq, 2);
        assert!(err.is_rejection());
        assert_eq!(
            oracle(1, config).logical_divergence(recovered.dynfd()),
            None,
            "poison batch left no trace"
        );
        // The frame is durably gone: recovering again is clean.
        drop(recovered);
        let (recovered, report) = FdEngine::recover_with_config(&dir, config).unwrap();
        assert!(report.rejected.is_none());
        assert_eq!(
            oracle(1, config).logical_divergence(recovered.dynfd()),
            None
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_tail_truncates_with_typed_error() {
        let dir = tmp_dir("corrupt-tail");
        let config = DynFdConfig::default();
        let mut engine = FdEngine::create(&dir, seed_relation(), config).unwrap();
        let all = batches();
        engine.apply_batch(&all[0]).unwrap();
        let boundary = engine.wal_end_offset();
        engine.apply_batch(&all[1]).unwrap();
        drop(engine);
        // Flip one byte inside the second frame's payload.
        let path = wal_path(&dir);
        let mut bytes = fs::read(&path).unwrap();
        let target = boundary as usize + 12;
        bytes[target] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let (recovered, report) = FdEngine::recover_with_config(&dir, config).unwrap();
        assert_eq!(report.replayed_batches, 1);
        match report.corruption {
            Some(DynFdError::WalCorrupt { seq, offset }) => {
                assert_eq!(seq, 2);
                assert_eq!(offset, boundary);
            }
            other => panic!("expected WalCorrupt, got {other:?}"),
        }
        assert_eq!(
            oracle(1, config).logical_divergence(recovered.dynfd()),
            None,
            "state equals fresh replay of the surviving prefix"
        );
        assert_eq!(recovered.wal_end_offset(), boundary, "tail truncated");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_metrics_stamp_first_batch() {
        let dir = tmp_dir("recovery-metrics");
        let config = DynFdConfig::default();
        let mut engine = FdEngine::create(&dir, seed_relation(), config).unwrap();
        let all = batches();
        engine.apply_batch(&all[0]).unwrap();
        engine.apply_batch(&all[1]).unwrap();
        drop(engine);
        let (mut recovered, _) = FdEngine::recover_with_config(&dir, config).unwrap();
        let result = recovered.apply_batch(&all[2]).unwrap();
        assert_eq!(result.metrics.recovery_replayed_batches, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_missing_dir_is_a_typed_error() {
        let dir = tmp_dir("missing");
        let err = FdEngine::recover(&dir).err().expect("missing dir fails");
        assert_eq!(err.exit_code(), 3, "missing directory is an I/O error");
        // An existing but empty directory is SnapshotCorrupt instead.
        fs::create_dir_all(&dir).unwrap();
        let err = FdEngine::recover(&dir).err().expect("empty dir fails");
        assert!(matches!(err, DynFdError::SnapshotCorrupt { .. }));
        fs::remove_dir_all(&dir).unwrap();
    }
}
