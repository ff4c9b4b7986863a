//! Property tests for the durable engine's crash-recovery contract
//! (`dynfd::persist`), driven by testkit traces:
//!
//! * whatever point a crash interrupts a run at — mid-WAL-frame, between
//!   the durable append and the apply, mid-snapshot-write — recovery
//!   must come back without panicking, with a relation and covers
//!   bit-identical to a fresh in-memory replay of the surviving batch
//!   prefix, and resuming must land on the same final covers as an
//!   uninterrupted run (checked by `check_trace_durable`, the same
//!   oracle the fuzz binary uses);
//! * a *rejected* batch is durably rewound out of the WAL: recovery
//!   never replays it, even when the crash lands between the rejected
//!   frame's fsync and the rewind;
//! * snapshots hold the logical state, not the arena's slot layout, and
//!   nothing depends on the layout: with the PLI cache off, a recovered
//!   engine equals a fresh replay including its violation annotations,
//!   at the recovery point and after every later batch;
//! * corruption surfaces as typed errors with the documented CLI exit
//!   codes, never as a panic.
//!
//! The property bodies live in plain helper functions (they panic on
//! violation) so the `proptest!` block stays within the macro's
//! recursion budget.

#![recursion_limit = "256"]

use dynfd::common::RecordId;
use dynfd::core::{DynFd, DynFdConfig, DynFdError};
use dynfd::persist::{wal_path, FdEngine, SNAP_TMP};
use dynfd::relation::Batch;
use dynfd_testkit::{check_trace_durable, Trace, WalFault};
use proptest::prelude::*;
use std::path::PathBuf;

/// A scratch directory under the system temp dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("dynfd-crash-recovery-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Replays `trace`'s first `prefix` batches on a fresh in-memory engine.
fn fresh_prefix(trace: &Trace, prefix: usize, config: DynFdConfig) -> DynFd {
    let mut oracle = DynFd::new(trace.to_relation(), config);
    for batch in trace.to_batches().iter().take(prefix) {
        oracle.apply_batch(batch).expect("valid trace batch");
    }
    oracle
}

/// Rejected batches never reappear: log → reject → rewind, then crash
/// and recover. The recovered engine must equal a replay of only the
/// *accepted* batches, and the WAL rewind must be durable even when the
/// crash lands between the rejected frame's fsync and the rewind
/// (simulated via `log_without_apply`).
fn check_rejected_batch_rewind(seed: u64, case: u64, crash_before_rewind: bool) {
    let trace = Trace::for_case(seed, case);
    let batches = trace.to_batches();
    if batches.is_empty() {
        return;
    }
    let config = DynFdConfig::default();
    let scratch = Scratch::new(&format!("reject-{seed}-{case}-{crash_before_rewind}"));

    let mut engine =
        FdEngine::create(&scratch.0, trace.to_relation(), config).expect("engine creation");
    let applied = batches.len() / 2;
    for batch in &batches[..applied] {
        engine.apply_batch(batch).expect("valid trace batch");
    }
    // A delete of a record id beyond anything assignable is always
    // rejected as a whole-batch validation failure.
    let unknown = RecordId(engine.dynfd().relation().next_id().0 + 10_000);
    let mut poison = Batch::new();
    poison.delete(unknown);
    if crash_before_rewind {
        // Crash window: the poison frame is durable, the rejection (and
        // with it the rewind) never ran.
        engine.log_without_apply(&poison).expect("log-only append");
    } else {
        let err = engine
            .apply_batch(&poison)
            .expect_err("poison must be rejected");
        assert!(err.is_rejection(), "unexpected error class: {err}");
    }
    drop(engine);

    let (recovered, report) =
        FdEngine::recover_with_config(&scratch.0, config).expect("recovery after rejection");
    assert_eq!(recovered.seq() as usize, applied, "rejected batch replayed");
    if crash_before_rewind {
        let (seq, err) = report.rejected.expect("poison frame re-rejected on replay");
        assert_eq!(seq as usize, applied + 1);
        assert!(err.is_rejection());
    } else {
        assert!(report.rejected.is_none(), "rewound frame resurfaced");
    }

    let oracle = fresh_prefix(&trace, applied, config);
    assert_eq!(oracle.logical_divergence(recovered.dynfd()), None);

    // The rewind is durable: a second recovery finds a clean log.
    drop(recovered);
    let (recovered, report) =
        FdEngine::recover_with_config(&scratch.0, config).expect("second recovery");
    assert!(
        report.rejected.is_none(),
        "rejected frame survived the rewind"
    );
    assert_eq!(recovered.seq() as usize, applied);
}

/// A crash mid-snapshot leaves `snapshot.tmp` behind; recovery must
/// discard it and come back from the previous snapshot plus the WAL
/// tail, bit-identical on relation and covers.
fn check_snapshot_tmp_leftover(seed: u64, case: u64, garbage_len: usize) {
    let trace = Trace::for_case(seed, case);
    let batches = trace.to_batches();
    if batches.is_empty() {
        return;
    }
    let config = DynFdConfig {
        snapshot_every: 0,
        ..DynFdConfig::default()
    };
    let scratch = Scratch::new(&format!("snap-tmp-{seed}-{case}-{garbage_len}"));

    let mut engine =
        FdEngine::create(&scratch.0, trace.to_relation(), config).expect("engine creation");
    for batch in &batches {
        engine.apply_batch(batch).expect("valid trace batch");
    }
    drop(engine);
    // Simulate a kill partway through the temp-file write: a
    // half-written snapshot.tmp that never got renamed.
    std::fs::write(scratch.0.join(SNAP_TMP), vec![0xA5u8; garbage_len])
        .expect("plant snapshot.tmp");

    let (recovered, report) = FdEngine::recover_with_config(&scratch.0, config)
        .expect("recovery with leftover snapshot.tmp");
    assert!(report.corruption.is_none());
    assert_eq!(recovered.seq() as usize, batches.len());
    assert!(
        !scratch.0.join(SNAP_TMP).exists(),
        "leftover temp snapshot must be cleaned up"
    );

    let oracle = fresh_prefix(&trace, batches.len(), config);
    assert_eq!(oracle.logical_divergence(recovered.dynfd()), None);
    recovered
        .dynfd()
        .verify_annotations()
        .expect("valid annotations");
}

/// Recovery restores the logical state — records in id order, the
/// positive cover, the annotations — so the recovered arena's slots
/// differ from the crashed engine's whenever deletes left free slots.
/// Nothing observable may depend on that layout. With the PLI cache off
/// (the only other source of witness-pair differences) the recovered
/// engine must equal a fresh in-memory replay in full
/// (`state_divergence`, annotations included) at the cut and after
/// every later batch.
fn check_layout_independent_recovery(seed: u64, case: u64, cut_pick: usize) {
    let trace = Trace::for_case(seed, case);
    let batches = trace.to_batches();
    let config = DynFdConfig {
        pli_cache_bytes: 0,
        snapshot_every: 2,
        ..DynFdConfig::default()
    };
    let cut = cut_pick % (batches.len() + 1);
    let scratch = Scratch::new(&format!("layout-{seed}-{case}-{cut}"));

    let mut engine =
        FdEngine::create(&scratch.0, trace.to_relation(), config).expect("engine creation");
    for batch in &batches[..cut] {
        engine.apply_batch(batch).expect("valid trace batch");
    }
    drop(engine);

    let (mut recovered, _) = FdEngine::recover_with_config(&scratch.0, config).expect("recovery");
    let mut oracle = fresh_prefix(&trace, cut, config);
    assert_eq!(
        oracle.state_divergence(recovered.dynfd()),
        None,
        "at the cut after {cut} batches"
    );
    for (i, batch) in batches.iter().enumerate().skip(cut) {
        oracle.apply_batch(batch).expect("valid trace batch");
        recovered.apply_batch(batch).expect("valid trace batch");
        assert_eq!(
            oracle.state_divergence(recovered.dynfd()),
            None,
            "after batch {i} (cut {cut})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // The full durable contract over random traces × damage modes ×
    // seeded crash offsets. check_trace_durable internally seeds the
    // crash point, the snapshot cadence, and the damage offset from
    // the trace seed, so varying (seed, case) sweeps all three.
    #[test]
    fn any_crash_recovers_to_a_replayable_prefix(
        seed in 0u64..500,
        case in 0u64..8,
        fault_idx in 0usize..3,
    ) {
        let trace = Trace::for_case(seed, case);
        if let Err(failure) = check_trace_durable(&trace, WalFault::ALL[fault_idx]) {
            prop_assert!(false, "durable check failed: {failure}");
        }
    }

    #[test]
    fn rejected_batches_never_reappear_after_recovery(
        seed in 0u64..300,
        case in 0u64..6,
        crash_before_rewind in any::<bool>(),
    ) {
        check_rejected_batch_rewind(seed, case, crash_before_rewind);
    }

    #[test]
    fn snapshot_mid_write_kill_recovers_from_previous_state(
        seed in 0u64..200,
        case in 0u64..6,
        garbage_len in 1usize..512,
    ) {
        check_snapshot_tmp_leftover(seed, case, garbage_len);
    }

    // `case` spans all six trace profiles, slot-churn included.
    #[test]
    fn recovery_is_layout_independent(
        seed in 0u64..300,
        case in 0u64..6,
        cut_pick in 0usize..64,
    ) {
        check_layout_independent_recovery(seed, case, cut_pick);
    }
}

/// Corruption surfaces as the documented typed errors with stable CLI
/// exit codes — the contract the `recover` subcommand relies on.
#[test]
fn corruption_errors_carry_the_documented_exit_codes() {
    assert_eq!(DynFdError::WalCorrupt { seq: 1, offset: 8 }.exit_code(), 11);
    assert_eq!(
        DynFdError::SnapshotCorrupt { detail: "x".into() }.exit_code(),
        12
    );
    assert!(!DynFdError::WalCorrupt { seq: 1, offset: 8 }.is_rejection());
    assert!(!DynFdError::SnapshotCorrupt { detail: "x".into() }.is_rejection());
}

/// A torn WAL tail is reported as `WalCorrupt` with the offset of the
/// truncation point, and the next recovery is clean (the truncation is
/// durable).
#[test]
fn torn_tail_reports_wal_corrupt_then_recovers_clean() {
    let trace = Trace::for_case(9, 1);
    let batches = trace.to_batches();
    assert!(batches.len() >= 2, "trace too short for the scenario");
    let config = DynFdConfig {
        snapshot_every: 0,
        ..DynFdConfig::default()
    };
    let scratch = Scratch::new("torn-tail-typed");
    let mut engine = FdEngine::create(&scratch.0, trace.to_relation(), config).unwrap();
    engine.apply_batch(&batches[0]).unwrap();
    let boundary = engine.wal_end_offset();
    engine.apply_batch(&batches[1]).unwrap();
    let end = engine.wal_end_offset();
    drop(engine);

    // Tear the log in the middle of the second frame.
    let path = wal_path(&scratch.0);
    let bytes = std::fs::read(&path).unwrap();
    let cut = (boundary as usize + end as usize) / 2;
    std::fs::write(&path, &bytes[..cut]).unwrap();

    let (recovered, report) = FdEngine::recover_with_config(&scratch.0, config).unwrap();
    match report.corruption {
        Some(DynFdError::WalCorrupt { seq, offset }) => {
            assert_eq!(seq, 2);
            assert_eq!(offset, boundary);
        }
        other => panic!("expected WalCorrupt, got {other:?}"),
    }
    assert_eq!(recovered.seq(), 1);
    drop(recovered);

    let (recovered, report) = FdEngine::recover_with_config(&scratch.0, config).unwrap();
    assert!(report.corruption.is_none(), "truncation must be durable");
    assert_eq!(recovered.seq(), 1);
}
