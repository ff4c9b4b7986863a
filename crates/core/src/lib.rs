//! # dynfd-core
//!
//! **DynFD** — the first algorithm to discover *and maintain* the
//! complete, exact set of minimal, non-trivial functional dependencies
//! of a dynamic dataset (Schirmer et al., EDBT 2019).
//!
//! A [`DynFd`] instance owns a
//! [`DynamicRelation`](dynfd_relation::DynamicRelation) together with a
//! **positive cover** (all minimal FDs) and a **negative cover** (all
//! maximal non-FDs), both stored as FD prefix trees. Each call to
//! [`DynFd::apply_batch`] executes the four-step pipeline of the paper's
//! Figure 1:
//!
//! 1. update the indexed data structures (dictionaries, PLIs,
//!    compressed records) with the batch's deletes and inserts;
//! 2. process **deletes** against the negative cover — resolved
//!    violations promote non-FDs to FDs, generalizing bottom-up
//!    (Algorithm 4), accelerated by *validation pruning* (cached
//!    violating record pairs, Section 5.2) and optimistic *depth-first
//!    searches* (Algorithm 5, Section 5.3);
//! 3. process **inserts** against the positive cover — new violations
//!    demote FDs to non-FDs, specializing top-down (Algorithm 2),
//!    accelerated by *cluster pruning* (Section 4.2) and the progressive
//!    *violation search* (Section 4.3);
//! 4. signal the changed FDs to the caller ([`BatchResult`]).
//!
//! All four pruning strategies can be toggled independently through
//! [`DynFdConfig`], which is how the ablation experiments of Section 6.5
//! (Figures 8–11) are reproduced.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod deletes;
mod depth_first;
mod diff;
mod errors;
mod failpoint;
mod induction;
mod inserts;
mod metrics;
mod monitor;
mod pipeline;
mod violation_search;
mod violations;

pub use config::{ConsistencyLevel, DynFdConfig, SearchMode};
pub use diff::{BatchResult, FdChange};
pub use errors::{DynFdError, DynFdResult};
pub use failpoint::{FailAction, FailPhase, FailPoint};
pub use metrics::BatchMetrics;
pub use monitor::{FdMonitor, MonitorReport};
pub use pipeline::DynFd;
pub use violations::ViolationStore;

#[cfg(test)]
mod tests;
