//! # dynfd-lattice
//!
//! FD search-space machinery (paper Section 3.2):
//!
//! * [`FdTree`] — an *FD prefix tree*: a trie over ascending attribute
//!   indices whose node annotations mark right-hand sides. Each
//!   annotation on the path `X` represents the FD `X -> A`. The tree
//!   offers the generalization / specialization / level lookups that
//!   DynFD calls constantly.
//! * Cover semantics: the **positive cover** stores all *minimal* FDs,
//!   the **negative cover** all *maximal* non-FDs. Both are `FdTree`s;
//!   helper methods ([`FdTree::add_minimal`], [`FdTree::add_maximal`])
//!   maintain the antichain invariants.
//! * [`invert_positive_cover`] — Algorithm 1 of the paper: the first
//!   published algorithm deriving the negative cover from a positive
//!   cover (the opposite direction of classic *dependency induction*).
//! * [`specialize_into`] / [`generalize_into`] — the shared kernels of
//!   dependency induction (Algorithms 3 and 6) also used by the static
//!   algorithms.
//! * [`NaiveCover`] — an O(n²) reference implementation of the same
//!   interface, used by the property-test suites as an oracle for
//!   `FdTree`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod closure;
mod induction;
mod inversion;
pub mod io;
mod naive;
mod tree;

pub use induction::{generalize_into, induce_from_negative_cover, specialize_into};
pub use inversion::invert_positive_cover;
pub use naive::NaiveCover;
pub use tree::FdTree;
