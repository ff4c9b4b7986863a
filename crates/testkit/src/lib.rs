//! # dynfd-testkit
//!
//! Deterministic differential fuzzing for the DynFD workspace.
//!
//! DynFD's whole value proposition is that its maintained covers are
//! *exactly* what a static re-run would discover (paper §1, §6). This
//! crate turns that claim into a reusable correctness subsystem:
//!
//! * [`Trace`] / [`TraceProfile`] — a seeded **trace generator** layered
//!   on `dynfd-datagen`: randomized insert/delete/update scripts over
//!   schemas of width 2–12, with adversarial data shapes (Zipf-skewed,
//!   all-duplicates, key-heavy, null-heavy);
//! * [`check_trace`] — a **differential runner** that replays a trace
//!   under every pruning configuration and compares the maintained
//!   positive cover after every batch against all three static oracles
//!   (TANE, FDEP, HyFD), plus four **metamorphic invariants** that need
//!   no oracle (cover-inversion round-trip, batch-splitting equivalence,
//!   row-permutation invariance, insert-then-delete round-trip);
//! * [`shrink_trace`] — a **delta-debugging shrinker** that minimizes a
//!   failing trace to a near-minimal op script;
//! * [`Repro`] — self-contained JSON **repro files** (seed + schema +
//!   ops + expected/actual covers) that tests replay directly;
//! * [`EngineFault`] — a **fault-injection mode** that attacks the
//!   engine itself while the differential checks keep running: poisoned
//!   batches that must be rejected atomically, mid-batch panics armed at
//!   seeded failpoints that must roll back bit-identically and succeed
//!   on retry, and silent cover corruption the degraded-mode rebuild
//!   must repair before the oracles look;
//! * [`WalFault`] / [`check_trace_durable`] — **durable-engine crash
//!   fuzzing**: replay a trace through a `dynfd-persist`
//!   [`FdEngine`](dynfd_persist::FdEngine), damage its WAL at a seeded point
//!   (torn tail, bit flip, crash-between-log-and-apply), recover, and
//!   verify the recovered state is bit-identical to a fresh replay of
//!   the surviving batch prefix — with a `crash_child` binary and a
//!   child-process harness (`tests/crash_harness.rs`) that exercise the
//!   real `abort()`-mid-write kill paths;
//! * [`check_concurrent_serve`] — **concurrent serve replay**: push the
//!   interleaved batch streams of N tenants through a `dynfd-serve`
//!   worker pool and verify every tenant's final state (covers,
//!   violation annotations, and — durably — WAL bytes) is bit-identical
//!   to a sequential per-tenant replay, at any worker count;
//! * [`WireFault`] / [`check_wire`] — **wire-protocol fuzzing**: replay
//!   a trace as a framed request stream with seeded damage
//!   (truncated/garbage/oversized frames) and hold the server to the
//!   exactly-once typed-response contract;
//! * [`NetFault`] / [`check_net`] — **network fault injection**: a
//!   deterministic man-in-the-middle proxy ([`NetProxy`]) between a
//!   reconnecting session client and the real socket transport injects
//!   delays, torn writes, duplicated frames, half-open FINs, and
//!   reconnect storms; the oracle asserts every batch still applies
//!   **exactly once** (state and WAL bytes bit-identical to a
//!   sequential replay, served sequence equal to the batch count);
//! * [`ChaosFault`] / [`check_chaos`] — **governance chaos**: quota
//!   storms (a hog inflating past a byte quota beside bystanders whose
//!   covers must stay bit-identical to a no-hog replay), deadline
//!   storms (zero-deadline twins that must be refused before apply),
//!   and evict-during-apply (a live close that must drain, persist,
//!   and recover to its exact durable prefix on re-open);
//! * a `fuzz` **binary** (`cargo run -p dynfd-testkit --bin fuzz`) with
//!   `--seed`, `--cases`, `--budget-secs`, and `--inject` flags, run in
//!   CI as a fixed-seed smoke job.
//!
//! Everything is seeded; a `(seed, case)` pair regenerates the identical
//! trace bit for bit, on every machine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod concurrent;
mod crash;
mod json;
mod netproxy;
mod repro;
mod runner;
mod shrink;
mod trace;
mod wirefuzz;

pub use chaos::{
    check_chaos, check_deadline_storm, check_evict_during_apply, check_quota_storm, ChaosFault,
    ChaosStats,
};
pub use concurrent::{check_concurrent_serve, sequential_oracle, tenant_traces, ConcurrentStats};
pub use crash::{check_trace_durable, CrashStats, WalFault};
pub use json::Json;
pub use netproxy::{check_net, NetFault, NetProxy, NetStats};
pub use repro::Repro;
pub use runner::{
    check_trace, silence_injected_panics, CoverFault, EngineFault, RunnerOptions, TraceFailure,
    TraceStats,
};
pub use shrink::shrink_trace;
pub use trace::{Trace, TraceOp, TraceProfile};
pub use wirefuzz::{check_wire, WireFault, WireStats};
