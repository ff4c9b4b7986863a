//! Error type shared by the DynFD crate family.

use crate::RecordId;
use std::fmt;

/// Convenience alias for results with [`DynError`].
pub type Result<T> = std::result::Result<T, DynError>;

/// Errors surfaced by the DynFD crates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DynError {
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
}

impl fmt::Display for DynError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DynError::UnknownRecord(id) => {
                write!(f, "record {id} does not exist in the relation")
            }
            DynError::DuplicateRecord(id) => {
                write!(f, "record {id} is referenced twice in one batch")
            }
            DynError::ArityMismatch { expected, actual } => {
                write!(
                    f,
                    "row has {actual} values but the schema has {expected} columns"
                )
            }
            DynError::DictionaryOverflow { attr, capacity } => {
                write!(
                    f,
                    "column {attr} dictionary would exceed its capacity of {capacity} distinct values"
                )
            }
            DynError::Parse(msg) => write!(f, "parse error: {msg}"),
            DynError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for DynError {}

impl From<std::io::Error> for DynError {
    fn from(e: std::io::Error) -> Self {
        DynError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        assert_eq!(
            DynError::UnknownRecord(RecordId(5)).to_string(),
            "record r5 does not exist in the relation"
        );
        assert_eq!(
            DynError::ArityMismatch {
                expected: 3,
                actual: 2
            }
            .to_string(),
            "row has 2 values but the schema has 3 columns"
        );
        assert!(DynError::Parse("bad quote".into())
            .to_string()
            .contains("bad quote"));
    }

    #[test]
    fn io_errors_convert() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: DynError = io.into();
        assert!(matches!(e, DynError::Io(_)));
    }
}
