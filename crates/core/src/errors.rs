//! The engine-level error taxonomy.
//!
//! [`DynFdError`] is what [`DynFd::apply_batch`](crate::DynFd::apply_batch)
//! returns: the batch-validation failures of the relation substrate
//! (mirrored flat from [`DynError`] so callers can match without
//! unwrapping a nested enum) plus the two engine-level failures that can
//! only arise *inside* the maintenance pipeline — a panic caught at the
//! transactional boundary and an internal invariant breach. Every error
//! is returned only after the engine has rolled itself back to the
//! pre-batch state, so callers may retry or skip the offending batch.

use dynfd_common::{DynError, RecordId};
use std::fmt;

/// Convenience alias for results with [`DynFdError`].
pub type DynFdResult<T> = std::result::Result<T, DynFdError>;

/// Errors surfaced by [`DynFd::apply_batch`](crate::DynFd::apply_batch)
/// and the CLI built on top of it.
///
/// The first six variants mirror [`DynError`] (batch validation and
/// input handling); the last two are engine-internal failures. All of
/// them leave the engine in its pre-batch state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DynFdError {
    /// A change operation referenced a record id that is not (or no
    /// longer) present in the relation.
    UnknownRecord(RecordId),
    /// A batch referenced the same record id twice in a way that cannot
    /// be satisfied (e.g. two deletes of one record).
    DuplicateRecord(RecordId),
    /// A row's value count does not match the schema arity.
    ArityMismatch {
        /// Number of columns the schema defines.
        expected: usize,
        /// Number of values the offending row carried.
        actual: usize,
    },
    /// Encoding a batch's values would push a column dictionary past its
    /// configured capacity.
    DictionaryOverflow {
        /// The column whose dictionary would overflow.
        attr: usize,
        /// The configured distinct-value capacity.
        capacity: usize,
    },
    /// Input data could not be parsed (CSV reader, change-log reader).
    Parse(String),
    /// An I/O error, stringified (keeps the error type `Clone + Eq`).
    Io(String),
    /// A maintenance phase panicked; the panic was caught at the
    /// transactional boundary and the batch was rolled back.
    PhasePanicked {
        /// The pipeline phase that panicked ("delete-phase",
        /// "insert-phase", ...).
        phase: &'static str,
        /// The panic payload, stringified when it was a string payload.
        detail: String,
    },
    /// An internal invariant did not hold; the batch was rolled back.
    InvariantBreach {
        /// The pipeline phase that detected the breach.
        phase: &'static str,
        /// What was expected and what was found.
        detail: String,
    },
    /// The write-ahead batch log held a torn or corrupt frame — a bad
    /// length, a CRC mismatch, a short read, or a sequence-number gap.
    /// Recovery truncates the log at the last valid frame and reports
    /// this instead of panicking; the state before the bad frame is
    /// intact.
    WalCorrupt {
        /// The batch sequence number the bad frame was expected to
        /// carry (one past the last valid frame).
        seq: u64,
        /// Byte offset of the bad frame within the log file.
        offset: u64,
    },
    /// A snapshot file failed validation (bad magic, length mismatch,
    /// CRC mismatch, or undecodable payload). Recovery falls back to an
    /// older snapshot when one exists.
    SnapshotCorrupt {
        /// What failed to validate.
        detail: String,
    },
}

impl DynFdError {
    /// Builds an [`DynFdError::InvariantBreach`].
    pub(crate) fn invariant(phase: &'static str, detail: impl Into<String>) -> Self {
        DynFdError::InvariantBreach {
            phase,
            detail: detail.into(),
        }
    }

    /// A stable process exit code per variant, for scripting against the
    /// CLI: `3` I/O, `4` parse, `5` unknown record, `6` duplicate record,
    /// `7` arity mismatch, `8` dictionary overflow, `10` internal
    /// failure (panic or invariant breach), `11` corrupt write-ahead log,
    /// `12` corrupt snapshot. Code `2` is reserved for CLI usage errors
    /// and `1` for generic failures; `9` is unassigned.
    pub fn exit_code(&self) -> u8 {
        match self {
            DynFdError::Io(_) => 3,
            DynFdError::Parse(_) => 4,
            DynFdError::UnknownRecord(_) => 5,
            DynFdError::DuplicateRecord(_) => 6,
            DynFdError::ArityMismatch { .. } => 7,
            DynFdError::DictionaryOverflow { .. } => 8,
            DynFdError::PhasePanicked { .. } | DynFdError::InvariantBreach { .. } => 10,
            DynFdError::WalCorrupt { .. } => 11,
            DynFdError::SnapshotCorrupt { .. } => 12,
        }
    }

    /// Whether the error is a batch-validation rejection (the batch was
    /// never applied) as opposed to an internal failure that was rolled
    /// back mid-application or a durability-layer fault found during
    /// recovery.
    pub fn is_rejection(&self) -> bool {
        !matches!(
            self,
            DynFdError::PhasePanicked { .. }
                | DynFdError::InvariantBreach { .. }
                | DynFdError::WalCorrupt { .. }
                | DynFdError::SnapshotCorrupt { .. }
        )
    }
}

impl fmt::Display for DynFdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DynFdError::UnknownRecord(id) => {
                write!(f, "record {id} does not exist in the relation")
            }
            DynFdError::DuplicateRecord(id) => {
                write!(f, "record {id} is referenced twice in one batch")
            }
            DynFdError::ArityMismatch { expected, actual } => {
                write!(
                    f,
                    "row has {actual} values but the schema has {expected} columns"
                )
            }
            DynFdError::DictionaryOverflow { attr, capacity } => {
                write!(
                    f,
                    "column {attr} dictionary would exceed its capacity of {capacity} distinct values"
                )
            }
            DynFdError::Parse(msg) => write!(f, "parse error: {msg}"),
            DynFdError::Io(msg) => write!(f, "i/o error: {msg}"),
            DynFdError::PhasePanicked { phase, detail } => {
                write!(f, "{phase} panicked (batch rolled back): {detail}")
            }
            DynFdError::InvariantBreach { phase, detail } => {
                write!(f, "{phase} invariant breach (batch rolled back): {detail}")
            }
            DynFdError::WalCorrupt { seq, offset } => {
                write!(
                    f,
                    "write-ahead log corrupt at byte {offset} (expected frame seq {seq}); \
                     truncated to the last valid frame"
                )
            }
            DynFdError::SnapshotCorrupt { detail } => {
                write!(f, "snapshot corrupt: {detail}")
            }
        }
    }
}

impl std::error::Error for DynFdError {}

impl From<DynError> for DynFdError {
    fn from(e: DynError) -> Self {
        match e {
            DynError::UnknownRecord(id) => DynFdError::UnknownRecord(id),
            DynError::DuplicateRecord(id) => DynFdError::DuplicateRecord(id),
            DynError::ArityMismatch { expected, actual } => {
                DynFdError::ArityMismatch { expected, actual }
            }
            DynError::DictionaryOverflow { attr, capacity } => {
                DynFdError::DictionaryOverflow { attr, capacity }
            }
            DynError::Parse(msg) => DynFdError::Parse(msg),
            DynError::Io(msg) => DynFdError::Io(msg),
        }
    }
}

/// Renders a `catch_unwind` payload: string payloads (the overwhelmingly
/// common case — `panic!("...")`) are passed through, everything else is
/// summarized by type.
pub(crate) fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_per_family() {
        let errors = [
            DynFdError::Io("x".into()),
            DynFdError::Parse("x".into()),
            DynFdError::UnknownRecord(RecordId(1)),
            DynFdError::DuplicateRecord(RecordId(1)),
            DynFdError::ArityMismatch {
                expected: 2,
                actual: 3,
            },
            DynFdError::DictionaryOverflow {
                attr: 0,
                capacity: 4,
            },
            DynFdError::PhasePanicked {
                phase: "insert-phase",
                detail: "x".into(),
            },
            DynFdError::WalCorrupt { seq: 3, offset: 96 },
            DynFdError::SnapshotCorrupt { detail: "x".into() },
        ];
        let codes: std::collections::BTreeSet<u8> =
            errors.iter().map(DynFdError::exit_code).collect();
        assert_eq!(codes.len(), errors.len(), "codes collide: {errors:?}");
        // Codes 0 (success), 1 (generic), and 2 (usage) stay reserved.
        assert!(codes.iter().all(|&c| c >= 3));
    }

    #[test]
    fn relation_errors_map_flat() {
        let e: DynFdError = DynError::DuplicateRecord(RecordId(7)).into();
        assert_eq!(e, DynFdError::DuplicateRecord(RecordId(7)));
        assert!(e.is_rejection());
        let internal = DynFdError::invariant("delete-phase", "oops");
        assert!(!internal.is_rejection());
        assert_eq!(internal.exit_code(), 10);
    }

    #[test]
    fn durability_errors_are_not_rejections() {
        let wal = DynFdError::WalCorrupt {
            seq: 7,
            offset: 128,
        };
        assert!(!wal.is_rejection());
        assert_eq!(wal.exit_code(), 11);
        assert!(wal.to_string().contains("byte 128"));
        assert!(wal.to_string().contains("seq 7"));
        let snap = DynFdError::SnapshotCorrupt {
            detail: "crc mismatch".into(),
        };
        assert!(!snap.is_rejection());
        assert_eq!(snap.exit_code(), 12);
    }

    #[test]
    fn panic_detail_extracts_strings() {
        let s: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_detail(s.as_ref()), "boom");
        let s: Box<dyn std::any::Any + Send> = Box::new(String::from("owned boom"));
        assert_eq!(panic_detail(s.as_ref()), "owned boom");
        let s: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_detail(s.as_ref()), "non-string panic payload");
    }
}
