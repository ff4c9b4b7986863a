//! # dynfd-relation
//!
//! The dynamic-relation substrate of the DynFD reproduction (paper
//! Section 3.1). A profiled relation is represented *compactly*: actual
//! values are irrelevant for FD validation, only which tuple pairs agree
//! on which attributes matters. The substrate therefore maintains:
//!
//! * a per-column **dictionary** mapping values to dense integer codes
//!   ([`Dictionary`]);
//! * **dictionary-compressed records** laid out *columnar*: one
//!   contiguous `Vec<ValueId>` per attribute, indexed by arena slot. A
//!   dense slot map ties each surrogate
//!   [`RecordId`](dynfd_common::RecordId) to its slot (freed slots are
//!   reused), so a validation job streams a column instead of chasing
//!   one heap allocation per row. The layout is bookkeeping only: a
//!   relation is saved and restored by its logical state, the
//!   dictionaries plus the records in id order
//!   ([`DynamicRelation::from_parts`]), and every index is rebuilt from
//!   those;
//! * per-column **position list indexes** ([`Pli`]) — for every value
//!   code, the rid-ordered list of arena slots holding that value, packed
//!   into a single backing arena (no per-cluster allocations). The
//!   code-to-cluster head table doubles as the paper's *inverted index*;
//! * the **batch** machinery ([`Batch`], [`ChangeOp`]) applying groups of
//!   inserts/updates/deletes to all structures incrementally, deletes
//!   first (Section 2 explains why);
//! * the PLI-based **FD validator** with early termination,
//!   simultaneous-RHS checking, and the *cluster pruning* hook of
//!   Section 4.2 ([`validate`](mod@validate)).
//!
//! A deliberate deviation from the paper, documented in `DESIGN.md`: the
//! paper replaces globally unique values by `-1` in compressed records.
//! Uniqueness is not stable under inserts, so we instead keep the real
//! dictionary code everywhere and let the validator skip *singleton
//! clusters* — the same comparisons are avoided without ever rewriting a
//! compressed record retroactively.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod changelog;
mod csv;
mod dictionary;
pub mod parallel;
mod pli;
pub mod pli_cache;
mod relation;
pub mod rowstore;
pub mod validate;

pub use batch::{AppliedBatch, Batch, ChangeOp};
pub use changelog::{parse_changelog, write_changelog, Batcher, WindowBatcher};
pub use csv::{parse_csv, read_csv_file, CsvTable};
pub use dictionary::{Dictionary, ValueId, DICTIONARY_CAPACITY};
pub use parallel::{
    adaptive_workers, par_map, resolve_parallelism, validate_many, validate_many_cached,
    ValidationJob,
};
pub use pli::Pli;
pub use pli_cache::{CacheEffects, CacheStats, CachedPartition, PliCache, PliCacheSnapshot};
pub use relation::{DynamicRelation, NullPolicy, RowRef, UndoLog};
pub use rowstore::{validate_rowstore, RowStoreRelation};
pub use validate::{
    agree_set, validate, validate_cached, validate_fd, validate_with, RhsOutcome,
    ValidationOptions, ValidationResult, ValidationStats, ValidatorScratch,
};
