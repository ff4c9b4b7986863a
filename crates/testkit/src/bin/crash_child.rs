//! Child process for the crash-recovery harness.
//!
//! `tests/crash_harness.rs` spawns this binary with a deterministic
//! [`CrashPlan`] and expects it to die mid-write (`abort()`, a
//! userspace power cut) at exactly the planned byte/frame. The parent
//! then recovers the directory in-process and checks the recovered
//! state against a fresh replay oracle.
//!
//! ```text
//! crash_child <dir> <seed> <case> <snapshot_every> [<mode> <value>]
//! ```
//!
//! `mode` is one of:
//! - `wal-byte N` — abort once the WAL would grow past absolute byte N
//!   (torn frame on disk);
//! - `frames N` — abort after the Nth frame append + fsync, before the
//!   in-memory apply (the log-but-not-applied window);
//! - `snapshot-byte N` — abort once N bytes of `snapshot.tmp` are
//!   written (partial temp file, no rename);
//! - `serve-drain N` — run a **multi-tenant serve engine** instead
//!   (tenants `t0..t2` from `dynfd_testkit::tenant_traces(seed, 3)`,
//!   each durable under `<dir>/<name>/`), queue every batch with
//!   delivery paused, then shut down and abort after N jobs complete
//!   inside the drain window — the queue-drain kill point. The parent
//!   recovers every tenant directory and compares each against a fresh
//!   replay of its acknowledged prefix.
//! - `evict-drain N` / `evict-persist N` — multi-tenant serve engine
//!   again, but the kill lands inside a **live tenant eviction**: apply
//!   the victim's first N batches (bystanders run their full streams),
//!   quiesce, then `close_tenant` the victim with
//!   [`EvictKillPoint::AfterDrain`] or `AfterPersist` armed — the
//!   abort fires after the victim's FIFO drained (its snapshot never
//!   written) or after its release snapshot synced (the registry
//!   removal never happens). Either way the victim must recover to
//!   exactly its N applied batches and bystander durable state must be
//!   untouched.
//! - `evict-snap N` — like the above, but the kill is a
//!   [`CrashPlan`] `snapshot_kill_at_byte` armed on the victim before
//!   the close: the abort lands N bytes into the *eviction's own*
//!   release snapshot, leaving a torn `snapshot.tmp` behind. The
//!   victim applies half its trace before the close.
//!
//! Without a mode the run completes cleanly (exit 0) — the baseline
//! the harness uses for uninterrupted comparisons. If a plan is given
//! but never fires, the run also completes and exits 0; the parent
//! treats that as "scenario vacuous for this trace" and skips it.

use dynfd_core::DynFdConfig;
use dynfd_persist::{CrashPlan, FdEngine};
use dynfd_serve::{AdmissionPolicy, EvictKillPoint, ServeConfig, ServeEngine};
use dynfd_testkit::{tenant_traces, Trace};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: crash_child <dir> <seed> <case> <snapshot_every> \
         [wal-byte|frames|snapshot-byte|serve-drain|evict-drain|evict-persist|evict-snap N]"
    );
    std::process::exit(2);
}

/// The `serve-drain` mode: queue every tenant's batches with delivery
/// paused, then shut down with the drain-kill budget armed. The abort
/// fires on a worker thread after `kill_after` jobs of the drain window
/// complete; if the budget exceeds the queued work the run completes
/// cleanly (exit 0) and the parent treats the scenario as vacuous.
fn run_serve_drain(dir: &std::path::Path, seed: u64, snapshot_every: usize, kill_after: u64) -> ! {
    let traces = tenant_traces(seed, 3);
    let total: usize = traces.iter().map(|(_, t)| t.to_batches().len()).sum();
    let engine = ServeEngine::new(ServeConfig {
        workers: 2,
        queue_capacity: total.max(1),
        policy: AdmissionPolicy::Block,
        root: Some(dir.to_path_buf()),
        engine: DynFdConfig {
            snapshot_every,
            ..DynFdConfig::default()
        },
        drain_kill_after: Some(kill_after),
        ..ServeConfig::default()
    });
    engine.pause();
    for (name, trace) in &traces {
        if let Err(e) = engine.open_tenant(name, trace.schema.clone(), &trace.initial_rows) {
            eprintln!("crash_child: open {name}: {e}");
            std::process::exit(1);
        }
    }
    // Round-robin interleave, same order as check_concurrent_serve, so
    // the drain window holds a mixed multi-tenant backlog.
    let mut streams: Vec<(&str, std::vec::IntoIter<dynfd_relation::Batch>)> = traces
        .iter()
        .map(|(name, trace)| (name.as_str(), trace.to_batches().into_iter()))
        .collect();
    let mut request_id = 0u64;
    loop {
        let mut any = false;
        for (name, stream) in &mut streams {
            let Some(batch) = stream.next() else { continue };
            any = true;
            request_id += 1;
            if let Err(e) = engine.submit(name, request_id, batch, |_| {}) {
                eprintln!("crash_child: submit to {name}: {e}");
                std::process::exit(1);
            }
        }
        if !any {
            break;
        }
    }
    // Everything is queued, nothing has run. Shutdown resumes delivery
    // with the kill budget armed: the abort lands mid-drain, between a
    // completed (durable) job and the still-queued remainder.
    let report = engine.shutdown();
    let _ = report;
    std::process::exit(0);
}

/// The eviction kill points: apply a deterministic per-tenant workload
/// (the victim `t0` gets a prefix, bystanders their full streams),
/// quiesce so every applied batch is durable, then close the victim
/// with the planned kill armed. `evict-drain`/`evict-persist` abort at
/// the lifecycle kill points unconditionally; `evict-snap` aborts once
/// the release snapshot grows past `value` bytes (vacuous — clean exit
/// 0 — if it never does).
fn run_evict_crash(
    dir: &std::path::Path,
    seed: u64,
    snapshot_every: usize,
    mode: &str,
    value: u64,
) -> ! {
    let kill_point = match mode {
        "evict-drain" => Some(EvictKillPoint::AfterDrain),
        "evict-persist" => Some(EvictKillPoint::AfterPersist),
        _ => None, // evict-snap: the kill is a CrashPlan on the victim.
    };
    let traces = tenant_traces(seed, 3);
    let engine = ServeEngine::new(ServeConfig {
        workers: 2,
        queue_capacity: 64,
        policy: AdmissionPolicy::Block,
        root: Some(dir.to_path_buf()),
        engine: DynFdConfig {
            snapshot_every,
            ..DynFdConfig::default()
        },
        evict_kill_point: kill_point,
        ..ServeConfig::default()
    });
    for (name, trace) in &traces {
        if let Err(e) = engine.open_tenant(name, trace.schema.clone(), &trace.initial_rows) {
            eprintln!("crash_child: open {name}: {e}");
            std::process::exit(1);
        }
    }
    let victim = traces[0].0.clone();
    let mut request_id = 0u64;
    for (i, (name, trace)) in traces.iter().enumerate() {
        let batches = trace.to_batches();
        let prefix = if i == 0 {
            if kill_point.is_some() {
                (value as usize).min(batches.len())
            } else {
                batches.len() / 2
            }
        } else {
            batches.len()
        };
        for batch in batches.into_iter().take(prefix) {
            request_id += 1;
            if let Err(e) = engine.submit(name, request_id, batch, |_| {}) {
                eprintln!("crash_child: submit to {name}: {e}");
                std::process::exit(1);
            }
        }
    }
    // Every submitted job completes — and is therefore durable — before
    // the close begins, so the parent can assert an exact prefix.
    engine.quiesce();
    if kill_point.is_none() {
        if let Err(e) = engine.arm_crash_plan(
            &victim,
            CrashPlan {
                snapshot_kill_at_byte: Some(value),
                ..CrashPlan::default()
            },
        ) {
            eprintln!("crash_child: arm plan on {victim}: {e}");
            std::process::exit(1);
        }
    }
    // The abort fires inside this call (drain / persist kill points, or
    // mid-release-snapshot for evict-snap). Reaching the other side
    // means the plan was vacuous: the close completed cleanly.
    if let Err(e) = engine.close_tenant(&victim) {
        eprintln!("crash_child: close {victim}: {e}");
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() != 4 && args.len() != 6 {
        usage();
    }
    let dir = PathBuf::from(&args[0]);
    let seed: u64 = args[1].parse().unwrap_or_else(|_| usage());
    let case: u64 = args[2].parse().unwrap_or_else(|_| usage());
    let snapshot_every: usize = args[3].parse().unwrap_or_else(|_| usage());
    let plan = if args.len() == 6 {
        let value: u64 = args[5].parse().unwrap_or_else(|_| usage());
        match args[4].as_str() {
            "serve-drain" => run_serve_drain(&dir, seed, snapshot_every, value),
            mode @ ("evict-drain" | "evict-persist" | "evict-snap") => {
                run_evict_crash(&dir, seed, snapshot_every, mode, value)
            }
            "wal-byte" => CrashPlan {
                wal_kill_at_byte: Some(value),
                ..CrashPlan::default()
            },
            "frames" => CrashPlan {
                kill_after_frames: Some(value),
                ..CrashPlan::default()
            },
            "snapshot-byte" => CrashPlan {
                snapshot_kill_at_byte: Some(value),
                ..CrashPlan::default()
            },
            _ => usage(),
        }
    } else {
        CrashPlan::default()
    };

    let trace = Trace::for_case(seed, case);
    let config = DynFdConfig {
        snapshot_every,
        ..DynFdConfig::default()
    };
    let mut engine = match FdEngine::create(&dir, trace.to_relation(), config) {
        Ok(engine) => engine,
        Err(e) => {
            eprintln!("crash_child: engine creation failed: {e}");
            std::process::exit(1);
        }
    };
    engine.set_crash_plan(plan);
    for batch in trace.to_batches() {
        // A planned crash aborts inside this call; a real rejection in a
        // generated trace would be a bug worth failing loudly on.
        if let Err(e) = engine.apply_batch(&batch) {
            eprintln!("crash_child: batch rejected: {e}");
            std::process::exit(1);
        }
    }
    // Plan never fired (or no plan): clean completion.
    std::process::exit(0);
}
