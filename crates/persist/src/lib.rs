//! # dynfd-persist — durable engine state for DynFD
//!
//! The in-memory [`DynFd`](dynfd_core::DynFd) engine loses everything
//! at process exit; re-profiling a large relation from scratch defeats
//! the point of incremental maintenance. This crate adds classic
//! database durability around it (DESIGN.md §6e):
//!
//! - **[`wal`]** — a write-ahead batch log of length-prefixed,
//!   CRC-32-checksummed frames, appended and `fdatasync`ed *before*
//!   any in-memory mutation;
//! - **[`snapshot`]** — atomic full-state snapshots (write to temp,
//!   fsync, rename, fsync directory) that bound WAL replay;
//! - **[`FdEngine`]** — the wrapper tying both to `DynFd`:
//!   log-before-apply, durable rewind of rejected batches, periodic
//!   snapshots, and [`FdEngine::recover`], which reconstructs a
//!   relation and covers *equal* to a fresh replay of the
//!   surviving batch prefix (violation annotations stay valid; their
//!   exact witness pairs are cache-path-dependent — see
//!   `DynFd::logical_divergence`)
//!   and turns every form of file damage into a typed
//!   [`DynFdError`](dynfd_core::DynFdError) instead of a panic.
//!
//! No serde, no external crates: the formats are hand-rolled binary
//! (see [`codec`]) plus the established `lattice::io` cover text.

#![forbid(unsafe_code)]

pub mod codec;
pub mod crc;
pub mod engine;
pub mod snapshot;
pub mod wal;

pub use engine::{wal_path, CrashPlan, FdEngine, RecoveryReport};
pub use snapshot::{SnapshotState, SNAP_TMP};
pub use wal::{Wal, WalScan, WAL_FILE, WAL_MAGIC};
