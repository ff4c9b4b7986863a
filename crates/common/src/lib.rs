//! # dynfd-common
//!
//! Shared primitives for the DynFD reproduction:
//!
//! * [`AttrSet`] — a fixed-width, `Copy` bitset over attribute (column)
//!   indices. Every left-hand side of a functional dependency in the
//!   system is an `AttrSet`.
//! * [`Fd`] — a functional dependency `lhs -> rhs` with a single
//!   right-hand-side attribute, following the paper's Definition 1.1.
//! * [`Schema`] — column names and arity of a relation.
//! * [`RecordId`] — the monotonically increasing surrogate key DynFD
//!   assigns to records (Section 3.1 of the paper): row positions are not
//!   stable in a dynamic relation, so records are identified by ids that
//!   never get reused.
//! * [`DynError`] — the crate family's error type.
//!
//! The crate is dependency-light on purpose: everything above it
//! (relation substrate, lattice, static discovery, DynFD itself) shares
//! these vocabulary types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attrset;
mod error;
mod fd;
mod ids;
mod schema;

pub use attrset::{AttrSet, AttrSetIter, MAX_ATTRS};
pub use error::{DynError, Result};
pub use fd::{AttrId, Fd};
pub use ids::RecordId;
pub use schema::Schema;
