//! `dynfd` — command-line FD profiling and maintenance.
//!
//! ```text
//! dynfd profile <data.csv>                         discover minimal FDs
//! dynfd keys    <data.csv>                         candidate keys + BCNF check
//! dynfd maintain <data.csv> <changes.log> [opts]   replay a change log
//! dynfd serve    <data.csv> <changes.log> --wal-dir <dir> [opts]
//!                                                  replay durably (WAL + snapshots)
//! dynfd serve    --multi [--root <dir>] [opts]     multi-tenant framed server on
//!                                                  stdin/stdout, or on a socket
//!                                                  with --listen
//! dynfd recover  <dir> [--save <f>] [--stats]      recover a WAL directory
//!
//! options for maintain and serve:
//!   --batch <n>     operations per batch (default 100)
//!   --cover <file>  bootstrap from a persisted cover instead of HyFD
//!                   (maintain only)
//!   --save <file>   persist the final cover
//!   --quiet         suppress per-batch FD deltas
//!   --stats         print aggregate work metrics (validations, pruning
//!                   counters, PLI-cache hits/misses/evictions/bytes;
//!                   serve adds WAL bytes, fsyncs, snapshot time, and
//!                   recovery counters)
//!
//! options for serve only:
//!   --wal-dir <dir>       durable state directory (required)
//!   --snapshot-every <n>  batches between snapshots (default 64,
//!                         0 = never snapshot after the initial one)
//!
//! options for serve --multi:
//!   --root <dir>          durable root: each tenant persists under
//!                         <dir>/<name>/ (omit for in-memory tenants)
//!   --workers <n>         worker threads / shards (default: one per core)
//!   --queue <n>           per-tenant in-flight bound (default 64)
//!   --block               block full queues (backpressure) instead of
//!                         shedding with error code 13
//!   --snapshot-every <n>  as above, applied to every tenant
//!   --tenant-bytes <n>    per-tenant resident-byte quota; a tenant over
//!                         it is cache-degraded, then refused with code
//!                         17 and a retry-after hint
//!   --tenant-cpu-ms <n>   per-tenant cumulative batch-CPU quota (code 17)
//!   --global-bytes <n>    pool-wide byte budget: over it, the fattest
//!                         tenant degrades and idle tenants are
//!                         LRU-evicted (snapshot + release)
//!   --deadline-ms <n>     default per-job deadline, refused with code 18
//!                         before apply (an Apply frame's own deadline
//!                         field overrides it)
//!   --listen <addr>       serve the same protocol over a socket instead
//!                         of stdin/stdout: a unix path (`/run/dynfd.sock`
//!                         or `unix:path`) or a TCP address
//!                         (`127.0.0.1:7333`); connections get session
//!                         resume (Hello + ack-replay window) and
//!                         slow-client shedding (code 21)
//!   --idle-ms <n>         per-connection idle budget: a connection that
//!                         sends nothing for this long is closed with a
//!                         typed notice (code 21 at a frame boundary,
//!                         code 4 mid-frame); on stdin this also arms the
//!                         read-deadline pump
//!   --max-frame <n>       per-connection frame-size bound in bytes
//!                         (default 16 MiB, the protocol ceiling)
//!   --stats               per-tenant + aggregate metrics on stderr at
//!                         exit (includes quota/deadline/eviction
//!                         counters)
//! ```
//!
//! `serve --multi` speaks the length-prefixed binary protocol of
//! [`dynfd::serve::wire`] on stdin/stdout (DESIGN.md §6g has the frame
//! and error-code tables), or over a socket with `--listen` (DESIGN.md
//! §6j). The run ends on stdin EOF, a shutdown frame, or ctrl-c — all
//! three stop accepting, notify connected clients with typed
//! `ShuttingDown` replies (code 16), drain every queued batch, and
//! fsync every tenant's WAL tail before the process exits.
//!
//! `serve` is crash-safe `maintain`: every batch is appended to a
//! checksummed write-ahead log and fsynced *before* it mutates the
//! engine, and the full state is snapshotted periodically. Rerunning
//! `serve` on a directory that already holds durable state *resumes*:
//! it recovers (snapshot + WAL tail), skips the batches already applied,
//! and replays only the remainder. `recover` performs the same recovery
//! standalone and prints the recovered cover.
//!
//! The change log uses the line format of
//! [`dynfd::relation::parse_changelog`]: `I|v1|v2|…`, `D|<id>`,
//! `U|<id>|v1|…`. Record ids are assigned in row order starting at 0.
//!
//! Every failure prints a one-line `dynfd: …` diagnostic to stderr and
//! exits nonzero with a code that identifies the error family: `2` for
//! usage errors, and the [`DynFdError::exit_code`] mapping for engine
//! errors (`3` I/O, `4` parse, `5` unknown record, `6` duplicate
//! record, `7` arity mismatch, `8` dictionary overflow, `9` null-policy
//! violation, `10` internal fault, `11` WAL corruption, `12` snapshot
//! corruption).

use dynfd::common::{DynError, Schema};
use dynfd::core::{DynFd, DynFdConfig, DynFdError, FdMonitor};
use dynfd::lattice::closure::{bcnf_violations, candidate_keys};
use dynfd::lattice::io::{read_cover, write_cover, write_cover_file};
use dynfd::persist::{wal_path, FdEngine, RecoveryReport};
use dynfd::relation::{parse_changelog, read_csv_file, Batch, DynamicRelation};
use dynfd::serve::{
    serve_connection_with, serve_listener, AdmissionPolicy, ChannelReader, ConnOptions, ListenAddr,
    ServeConfig, ServeEngine, SessionRegistry, TransportConfig,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// SIGINT-to-flag plumbing: the handler only sets an atomic; the serve
/// loops poll it at batch/frame boundaries so the WAL tail can be
/// drained and fsynced before the process exits (exit code 130).
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};

    static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_sigint(_signum: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }

    /// Installs the handler (no libc dependency: `signal(2)` directly).
    pub fn install() {
        #[cfg(unix)]
        unsafe {
            extern "C" {
                fn signal(signum: i32, handler: usize) -> usize;
            }
            let _ = signal(
                2, /* SIGINT */
                on_sigint as extern "C" fn(i32) as usize,
            );
        }
    }

    /// Whether SIGINT has arrived since [`install`].
    pub fn received() -> bool {
        INTERRUPTED.load(Ordering::SeqCst)
    }
}

/// Exit code for an orderly SIGINT shutdown (128 + signal 2).
const EXIT_INTERRUPTED: u8 = 130;

/// A CLI failure: a one-line diagnostic plus the process exit code.
/// Usage errors exit 2 (and reprint the usage text); engine errors
/// carry the distinct per-family code of [`DynFdError::exit_code`].
struct CliError {
    code: u8,
    message: String,
    show_usage: bool,
}

impl CliError {
    /// A bad-invocation error: exit 2, usage text follows the
    /// diagnostic.
    fn usage(message: impl Into<String>) -> CliError {
        CliError {
            code: 2,
            message: message.into(),
            show_usage: true,
        }
    }

    /// An engine error with a context prefix (a path, a batch index).
    fn engine(context: impl std::fmt::Display, error: DynFdError) -> CliError {
        CliError {
            code: error.exit_code(),
            message: format!("{context}: {error}"),
            show_usage: false,
        }
    }
}

impl From<DynFdError> for CliError {
    fn from(error: DynFdError) -> CliError {
        CliError {
            code: error.exit_code(),
            message: error.to_string(),
            show_usage: false,
        }
    }
}

/// Wraps a relation-layer error from reading/parsing `path` with the
/// path as context, preserving the error family for the exit code.
fn with_path(path: &str, error: DynError) -> CliError {
    CliError::engine(path, DynFdError::from(error))
}

/// An `std::io::Error` while touching `path` → exit code 3.
fn io_error(path: &str, error: std::io::Error) -> CliError {
    CliError::engine(path, DynFdError::Io(error.to_string()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("profile") => cmd_profile(&args[1..]),
        Some("keys") => cmd_keys(&args[1..]),
        Some("maintain") => cmd_maintain(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("recover") => cmd_recover(&args[1..]),
        Some("--help" | "-h") | None => {
            eprintln!("{}", USAGE);
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(CliError::usage(format!("unknown command {other:?}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dynfd: {}", e.message);
            if e.show_usage {
                eprintln!("{}", USAGE);
            }
            ExitCode::from(e.code)
        }
    }
}

const USAGE: &str = "usage: dynfd profile <data.csv>
       dynfd keys <data.csv>
       dynfd maintain <data.csv> <changes.log> [--batch <n>] [--cover <f>] [--save <f>] [--quiet] [--stats]
       dynfd serve <data.csv> <changes.log> --wal-dir <dir> [--batch <n>] [--snapshot-every <n>] [--save <f>] [--quiet] [--stats]
       dynfd serve --multi [--listen <addr>] [--root <dir>] [--workers <n>] [--queue <n>] [--block] [--snapshot-every <n>] [--tenant-bytes <n>] [--tenant-cpu-ms <n>] [--global-bytes <n>] [--deadline-ms <n>] [--idle-ms <n>] [--max-frame <n>] [--stats]
       dynfd recover <dir> [--save <f>] [--stats]";

fn load(path: &str) -> Result<(Schema, DynamicRelation), CliError> {
    let table = read_csv_file(path).map_err(|e| with_path(path, e))?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("relation")
        .to_string();
    let schema = Schema::new(name, table.header.clone());
    let rel =
        DynamicRelation::from_rows(schema.clone(), &table.rows).map_err(|e| with_path(path, e))?;
    Ok((schema, rel))
}

fn cmd_profile(args: &[String]) -> Result<(), CliError> {
    let [path] = args else {
        return Err(CliError::usage("profile takes one CSV path"));
    };
    let (schema, rel) = load(path)?;
    let fds = dynfd::staticfd::hyfd::discover(&rel);
    eprintln!(
        "# {} rows, {} columns, {} minimal FDs",
        rel.len(),
        rel.arity(),
        fds.len()
    );
    print!("{}", write_cover(&fds, &schema));
    Ok(())
}

fn cmd_keys(args: &[String]) -> Result<(), CliError> {
    let [path] = args else {
        return Err(CliError::usage("keys takes one CSV path"));
    };
    let (schema, rel) = load(path)?;
    if rel.arity() > 24 {
        return Err(CliError::usage(format!(
            "key enumeration is exponential; {} columns is too wide (max 24)",
            rel.arity()
        )));
    }
    let fds = dynfd::staticfd::hyfd::discover(&rel);
    let arity = schema.arity();
    let names = |set: dynfd::common::AttrSet| -> String {
        let v: Vec<&str> = set.iter().map(|a| schema.column_name(a)).collect();
        if v.is_empty() {
            "∅".into()
        } else {
            v.join(",")
        }
    };
    for key in candidate_keys(&fds, arity) {
        println!("key: {{{}}}", names(key));
    }
    let violations = bcnf_violations(&fds, arity);
    if violations.is_empty() {
        println!("BCNF: ok");
    } else {
        println!("BCNF violations:");
        for fd in violations {
            println!("  {}", fd.display(&schema));
        }
    }
    Ok(())
}

fn cmd_maintain(args: &[String]) -> Result<(), CliError> {
    let mut positional: Vec<&String> = Vec::new();
    let mut batch_size = 100usize;
    let mut cover_path: Option<String> = None;
    let mut save_path: Option<String> = None;
    let mut quiet = false;
    let mut stats = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--batch" => {
                batch_size = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| CliError::usage("--batch needs a positive integer"))?;
            }
            "--cover" => {
                cover_path = Some(
                    it.next()
                        .ok_or_else(|| CliError::usage("--cover needs a path"))?
                        .clone(),
                )
            }
            "--save" => {
                save_path = Some(
                    it.next()
                        .ok_or_else(|| CliError::usage("--save needs a path"))?
                        .clone(),
                )
            }
            "--quiet" => quiet = true,
            "--stats" => stats = true,
            other if !other.starts_with('-') => positional.push(arg),
            other => return Err(CliError::usage(format!("unknown option {other:?}"))),
        }
    }
    let [data_path, log_path] = positional[..] else {
        return Err(CliError::usage("maintain takes a CSV and a change log"));
    };

    let (schema, rel) = load(data_path)?;
    let log_text = std::fs::read_to_string(log_path).map_err(|e| io_error(log_path, e))?;
    let ops = parse_changelog(&log_text, schema.arity()).map_err(|e| with_path(log_path, e))?;

    let mut dynfd = match &cover_path {
        Some(p) => {
            let text = std::fs::read_to_string(p).map_err(|e| io_error(p, e))?;
            let cover = read_cover(&text, &schema).map_err(|e| with_path(p, e))?;
            DynFd::with_cover(rel, cover, DynFdConfig::default())
        }
        None => DynFd::new(rel, DynFdConfig::default()),
    };
    eprintln!(
        "# bootstrapped: {} rows, {} minimal FDs; replaying {} changes in batches of {batch_size}",
        dynfd.relation().len(),
        dynfd.minimal_fds().len(),
        ops.len()
    );

    let mut monitor = FdMonitor::new(&dynfd.minimal_fds());
    let mut totals = dynfd::core::BatchMetrics::default();
    let total_batches = ops.len().div_ceil(batch_size);
    for (i, batch) in Batch::chunk(ops, batch_size).into_iter().enumerate() {
        let result = dynfd
            .apply_batch(&batch)
            .map_err(|e| CliError::engine(format_args!("batch {i}"), e))?;
        totals.absorb(&result.metrics);
        monitor.observe(&result);
        if !quiet && !result.is_unchanged() {
            println!("batch {i}/{total_batches}:");
            for fd in &result.removed {
                println!("  - {}", fd.display(&schema));
            }
            for fd in &result.added {
                println!("  + {}", fd.display(&schema));
            }
        }
    }

    eprintln!(
        "# done: {} rows, {} minimal FDs, {} robust over the whole run",
        dynfd.relation().len(),
        dynfd.minimal_fds().len(),
        monitor.robust_fds(monitor.batches_observed()).len()
    );
    if stats {
        eprintln!(
            "# stats: {total_batches} batches in {:?} (delete {:?}, insert {:?}), {} worker thread(s)",
            totals.wall_time, totals.delete_phase_time, totals.insert_phase_time, totals.threads_used,
        );
        eprintln!(
            "# stats: {} FD + {} non-FD validations ({} skipped by §5.2, {} clusters pruned, {} visited)",
            totals.fd_validations,
            totals.non_fd_validations,
            totals.validations_skipped,
            totals.clusters_pruned,
            totals.clusters_visited,
        );
        eprintln!(
            "# stats: pli-cache {} hits, {} misses, {} evictions, {} bytes resident",
            totals.cache_hits, totals.cache_misses, totals.cache_evictions, totals.cache_bytes,
        );
        eprintln!(
            "# stats: kernel {} ({} lanes)",
            dynfd_relation::kernel::active_kernel().name(),
            totals.kernel_lanes,
        );
    }
    if let Some(p) = save_path {
        std::fs::write(&p, write_cover(dynfd.positive_cover(), &schema))
            .map_err(|e| io_error(&p, e))?;
        eprintln!("# cover saved to {p}");
    }
    Ok(())
}

/// Prints the recovery report's interesting lines to stderr.
fn report_recovery(dir: &str, report: &RecoveryReport) {
    eprintln!(
        "# recovered {dir}: snapshot seq {}, {} WAL batches replayed{}",
        report.snapshot_seq,
        report.replayed_batches,
        if report.stale_frames > 0 {
            format!(", {} stale frames skipped", report.stale_frames)
        } else {
            String::new()
        }
    );
    for reason in &report.snapshots_skipped {
        eprintln!("# warning: skipped corrupt snapshot: {reason}");
    }
    if let Some(corruption) = &report.corruption {
        eprintln!("# warning: {corruption}");
    }
    if let Some((seq, err)) = &report.rejected {
        eprintln!("# warning: WAL frame {seq} re-rejected on replay ({err}) — truncated");
    }
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    if args.iter().any(|a| a == "--multi") {
        return cmd_serve_multi(args);
    }
    let mut positional: Vec<&String> = Vec::new();
    let mut wal_dir: Option<String> = None;
    let mut batch_size = 100usize;
    let mut snapshot_every = DynFdConfig::default().snapshot_every;
    let mut save_path: Option<String> = None;
    let mut quiet = false;
    let mut stats = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--wal-dir" => {
                wal_dir = Some(
                    it.next()
                        .ok_or_else(|| CliError::usage("--wal-dir needs a path"))?
                        .clone(),
                )
            }
            "--batch" => {
                batch_size = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| CliError::usage("--batch needs a positive integer"))?;
            }
            "--snapshot-every" => {
                snapshot_every = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| CliError::usage("--snapshot-every needs an integer"))?;
            }
            "--save" => {
                save_path = Some(
                    it.next()
                        .ok_or_else(|| CliError::usage("--save needs a path"))?
                        .clone(),
                )
            }
            "--quiet" => quiet = true,
            "--stats" => stats = true,
            other if !other.starts_with('-') => positional.push(arg),
            other => return Err(CliError::usage(format!("unknown option {other:?}"))),
        }
    }
    let [data_path, log_path] = positional[..] else {
        return Err(CliError::usage("serve takes a CSV and a change log"));
    };
    let Some(dir) = wal_dir else {
        return Err(CliError::usage("serve requires --wal-dir"));
    };

    let (schema, rel) = load(data_path)?;
    let log_text = std::fs::read_to_string(log_path).map_err(|e| io_error(log_path, e))?;
    let ops = parse_changelog(&log_text, schema.arity()).map_err(|e| with_path(log_path, e))?;
    let config = DynFdConfig {
        snapshot_every,
        ..DynFdConfig::default()
    };

    // A WAL file in the directory means durable state from an earlier
    // run: recover and resume instead of starting over.
    let mut engine = if wal_path(Path::new(&dir)).exists() {
        let (engine, report) = FdEngine::recover_with_config(Path::new(&dir), config)
            .map_err(|e| CliError::engine(&dir, e))?;
        report_recovery(&dir, &report);
        let durable = engine.dynfd().relation().schema();
        if durable.columns() != schema.columns() {
            return Err(CliError::engine(
                &dir,
                DynFdError::Parse(format!(
                    "durable state is for columns {:?}, the CSV has {:?}",
                    durable.columns(),
                    schema.columns()
                )),
            ));
        }
        engine
    } else {
        FdEngine::create(Path::new(&dir), rel, config).map_err(|e| CliError::engine(&dir, e))?
    };

    let batches = Batch::chunk(ops, batch_size);
    let total_batches = batches.len();
    let already_applied = (engine.seq() as usize).min(total_batches);
    if already_applied > 0 {
        eprintln!(
            "# resuming: {already_applied} of {total_batches} batches already durable, replaying the rest"
        );
    }
    eprintln!(
        "# serving: {} rows, {} minimal FDs; {} batches of {batch_size} into {dir}",
        engine.dynfd().relation().len(),
        engine.dynfd().minimal_fds().len(),
        total_batches - already_applied,
    );

    sigint::install();
    let mut monitor = FdMonitor::new(&engine.dynfd().minimal_fds());
    let mut totals = dynfd::core::BatchMetrics::default();
    for (i, batch) in batches.iter().enumerate().skip(already_applied) {
        if sigint::received() {
            // Ctrl-c between batches: make the applied prefix durable
            // (data *and* metadata) before exiting, so a recovery sees
            // exactly the batches we acknowledged.
            engine.sync_all().map_err(|e| io_error(&dir, e))?;
            eprintln!(
                "# interrupted: WAL tail synced, durable through seq {}",
                engine.seq()
            );
            return Err(CliError {
                code: EXIT_INTERRUPTED,
                message: "interrupted (SIGINT); durable state is consistent".into(),
                show_usage: false,
            });
        }
        let result = engine
            .apply_batch(batch)
            .map_err(|e| CliError::engine(format_args!("batch {i}"), e))?;
        totals.absorb(&result.metrics);
        monitor.observe(&result);
        if !quiet && !result.is_unchanged() {
            println!("batch {i}/{total_batches}:");
            for fd in &result.removed {
                println!("  - {}", fd.display(&schema));
            }
            for fd in &result.added {
                println!("  + {}", fd.display(&schema));
            }
        }
    }

    // End-of-log is an exit path too: force the WAL tail (including
    // file metadata) down before reporting success.
    engine.sync_all().map_err(|e| io_error(&dir, e))?;
    eprintln!(
        "# done: {} rows, {} minimal FDs, durable through seq {}",
        engine.dynfd().relation().len(),
        engine.dynfd().minimal_fds().len(),
        engine.seq(),
    );
    if stats {
        eprintln!(
            "# stats: {} batches in {:?} (delete {:?}, insert {:?}), {} worker thread(s)",
            total_batches - already_applied,
            totals.wall_time,
            totals.delete_phase_time,
            totals.insert_phase_time,
            totals.threads_used,
        );
        eprintln!(
            "# stats: wal {} bytes appended, {} fsyncs, snapshots {} ms, \
             {} batches replayed on recovery, last truncated seq {}",
            totals.wal_bytes,
            totals.fsyncs,
            totals.snapshot_time.as_millis(),
            totals.recovery_replayed_batches,
            totals.last_truncated_seq,
        );
        eprintln!(
            "# stats: pli-cache {} hits, {} misses, {} evictions, {} bytes resident",
            totals.cache_hits, totals.cache_misses, totals.cache_evictions, totals.cache_bytes,
        );
        eprintln!(
            "# stats: kernel {} ({} lanes)",
            dynfd_relation::kernel::active_kernel().name(),
            totals.kernel_lanes,
        );
    }
    if let Some(p) = save_path {
        write_cover_file(Path::new(&p), engine.dynfd().positive_cover(), &schema)
            .map_err(|e| with_path(&p, e))?;
        eprintln!("# cover saved to {p}");
    }
    Ok(())
}

/// `serve --multi`: the multi-tenant framed server on stdin/stdout.
fn cmd_serve_multi(args: &[String]) -> Result<(), CliError> {
    let mut root: Option<PathBuf> = None;
    let mut workers = 0usize;
    let mut queue_capacity = 64usize;
    let mut policy = AdmissionPolicy::Shed;
    let mut snapshot_every = DynFdConfig::default().snapshot_every;
    let mut stats = false;
    let mut tenant_bytes: Option<u64> = None;
    let mut tenant_cpu_ms: Option<u64> = None;
    let mut global_bytes: Option<u64> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut listen: Option<String> = None;
    let mut idle_ms: Option<u64> = None;
    let mut max_frame: Option<u32> = None;
    let mut start_paused = false;
    let mut drain_kill_after: Option<u64> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--multi" => {}
            "--listen" => {
                listen = Some(
                    it.next()
                        .ok_or_else(|| CliError::usage("--listen needs an address"))?
                        .clone(),
                );
            }
            "--idle-ms" => {
                idle_ms = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .ok_or_else(|| CliError::usage("--idle-ms needs a positive integer"))?,
                );
            }
            "--max-frame" => {
                max_frame = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .ok_or_else(|| CliError::usage("--max-frame needs a positive integer"))?,
                );
            }
            // Hidden crash-harness hooks (tests/serve_socket.rs): start
            // with delivery paused, and abort the process after N more
            // jobs complete inside shutdown's drain window.
            "--start-paused" => start_paused = true,
            "--drain-kill-after" => {
                drain_kill_after = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| CliError::usage("--drain-kill-after needs an integer"))?,
                );
            }
            "--tenant-bytes" => {
                tenant_bytes = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .ok_or_else(|| {
                            CliError::usage("--tenant-bytes needs a positive integer")
                        })?,
                );
            }
            "--tenant-cpu-ms" => {
                tenant_cpu_ms = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .ok_or_else(|| {
                            CliError::usage("--tenant-cpu-ms needs a positive integer")
                        })?,
                );
            }
            "--global-bytes" => {
                global_bytes = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .ok_or_else(|| {
                            CliError::usage("--global-bytes needs a positive integer")
                        })?,
                );
            }
            "--deadline-ms" => {
                deadline_ms = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .ok_or_else(|| CliError::usage("--deadline-ms needs a positive integer"))?,
                );
            }
            "--root" => {
                root = Some(PathBuf::from(
                    it.next()
                        .ok_or_else(|| CliError::usage("--root needs a path"))?,
                ))
            }
            "--workers" => {
                workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| CliError::usage("--workers needs a positive integer"))?;
            }
            "--queue" => {
                queue_capacity = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| CliError::usage("--queue needs a positive integer"))?;
            }
            "--block" => policy = AdmissionPolicy::Block,
            "--snapshot-every" => {
                snapshot_every = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| CliError::usage("--snapshot-every needs an integer"))?;
            }
            "--stats" => stats = true,
            other => {
                return Err(CliError::usage(format!(
                    "unknown serve --multi option {other:?}"
                )))
            }
        }
    }

    if let Some(dir) = &root {
        std::fs::create_dir_all(dir).map_err(|e| io_error(&dir.display().to_string(), e))?;
    }
    sigint::install();
    let engine = Arc::new(ServeEngine::new(ServeConfig {
        workers,
        queue_capacity,
        policy,
        root: root.clone(),
        engine: DynFdConfig {
            snapshot_every,
            ..DynFdConfig::default()
        },
        quota: dynfd::serve::TenantQuota {
            max_resident_bytes: tenant_bytes,
            max_cpu: tenant_cpu_ms.map(Duration::from_millis),
        },
        global_bytes_budget: global_bytes,
        default_deadline: deadline_ms.map(Duration::from_millis),
        start_paused,
        drain_kill_after,
        ..ServeConfig::default()
    }));
    eprintln!(
        "# serve --multi: {} workers, per-tenant queue {queue_capacity} ({}), root {}{}",
        engine.worker_count(),
        match policy {
            AdmissionPolicy::Shed => "shed",
            AdmissionPolicy::Block => "block",
        },
        root.as_deref().map_or_else(
            || "none (in-memory tenants)".to_string(),
            |d| d.display().to_string()
        ),
        listen
            .as_deref()
            .map_or_else(String::new, |a| format!(", listening on {a}")),
    );

    // Session resume (Hello + ack-replay window) is available on both
    // transports; connection options are shared.
    let options = ConnOptions {
        max_frame: max_frame.unwrap_or(dynfd::serve::wire::MAX_FRAME),
        idle: idle_ms.map(Duration::from_millis),
        sessions: Some(Arc::new(SessionRegistry::default())),
    };
    let report = if let Some(addr) = &listen {
        let addr = ListenAddr::parse(addr);
        let transport = serve_listener(
            &engine,
            &addr,
            TransportConfig {
                options,
                ..TransportConfig::default()
            },
            sigint::received,
        )
        .map_err(|e| io_error(&addr.to_string(), e))?;
        eprintln!(
            "# transport: {} connections, {} sessions ({} resumed), \
             {} slow-client sheds, {} idle kills",
            transport.connections,
            transport.sessions,
            transport.sessions_resumed,
            transport.slow_client_sheds,
            transport.idle_kills,
        );
        (transport.frames, transport.responses)
    } else if idle_ms.is_some() {
        // The idle budget needs read deadlines; stdin gets them from the
        // pump thread (a plain stdin read cannot time out).
        let reader = ChannelReader::spawn(std::io::stdin(), Duration::from_millis(25));
        let report = serve_connection_with(
            &engine,
            reader,
            std::io::stdout(),
            options,
            sigint::received,
        );
        (report.frames, report.responses)
    } else {
        let report = serve_connection_with(
            &engine,
            std::io::stdin().lock(),
            std::io::stdout(),
            options,
            sigint::received,
        );
        (report.frames, report.responses)
    };

    let interrupted = sigint::received();
    // Connection threads drop their engine clones as they unwind; a
    // straggler past the transport's drain deadline gets a short grace
    // before we give up.
    let mut engine = engine;
    let engine = {
        let mut tries = 0u32;
        loop {
            match Arc::try_unwrap(engine) {
                Ok(e) => break e,
                Err(shared) if tries < 200 => {
                    engine = shared;
                    tries += 1;
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => {
                    return Err(CliError::engine(
                        "serve --multi",
                        DynFdError::InvariantBreach {
                            phase: "shutdown",
                            detail: "engine still shared after connection end".into(),
                        },
                    ));
                }
            }
        }
    };
    if stats {
        for name in engine.tenant_names() {
            if let Ok(m) = engine.metrics(&name) {
                eprintln!(
                    "# tenant {name}: {} submitted, {} applied, {} rejected, {} shed, \
                     {} quota-rejected, {} deadline-rejected, {} degraded, \
                     +{}/-{} FDs, max depth {}, latency mean {:?} max {:?}",
                    m.submitted,
                    m.applied,
                    m.rejected,
                    m.shed,
                    m.quota_rejected,
                    m.deadline_rejected,
                    m.degraded_batches,
                    m.fds_added,
                    m.fds_removed,
                    m.max_depth,
                    m.latency_total
                        .checked_div((m.applied + m.rejected).max(1) as u32)
                        .unwrap_or_default(),
                    m.latency_max,
                );
            }
        }
        // The aggregate survives tenant eviction: it is the sum over
        // every tenant the engine ever served, not just the live set.
        let g = engine.global_metrics();
        eprintln!(
            "# global: {} submitted, {} applied, {} shed, {} quota-rejected, \
             {} deadline-rejected, {} closed-rejected, {} evictions, \
             {} live tenants, {} bytes resident",
            g.totals.submitted,
            g.totals.applied,
            g.totals.shed,
            g.totals.quota_rejected,
            g.totals.deadline_rejected,
            g.totals.closed_rejected,
            g.evictions,
            g.live_tenants,
            g.resident_bytes,
        );
    }
    let (frames, responses) = report;
    let shutdown = engine.shutdown();
    eprintln!(
        "# shutdown: {frames} frames, {responses} responses, {} tenants, {} WAL tails synced",
        shutdown.tenants, shutdown.synced
    );
    for (tenant, err) in &shutdown.sync_errors {
        eprintln!("# warning: tenant {tenant}: final sync failed: {err}");
    }
    for tenant in &shutdown.poisoned {
        eprintln!("# warning: tenant {tenant}: poisoned by an earlier panic, not synced");
    }
    if !shutdown.sync_errors.is_empty() {
        return Err(CliError {
            code: 3,
            message: format!(
                "{} tenant WAL tail(s) failed to sync",
                shutdown.sync_errors.len()
            ),
            show_usage: false,
        });
    }
    if interrupted {
        return Err(CliError {
            code: EXIT_INTERRUPTED,
            message: "interrupted (SIGINT); queues drained, WAL tails synced".into(),
            show_usage: false,
        });
    }
    Ok(())
}

fn cmd_recover(args: &[String]) -> Result<(), CliError> {
    let mut positional: Vec<&String> = Vec::new();
    let mut save_path: Option<String> = None;
    let mut stats = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--save" => {
                save_path = Some(
                    it.next()
                        .ok_or_else(|| CliError::usage("--save needs a path"))?
                        .clone(),
                )
            }
            "--stats" => stats = true,
            other if !other.starts_with('-') => positional.push(arg),
            other => return Err(CliError::usage(format!("unknown option {other:?}"))),
        }
    }
    let [dir] = positional[..] else {
        return Err(CliError::usage("recover takes one WAL directory"));
    };

    let (engine, report) =
        FdEngine::recover(Path::new(dir)).map_err(|e| CliError::engine(dir, e))?;
    report_recovery(dir, &report);
    let schema = engine.dynfd().relation().schema().clone();
    eprintln!(
        "# state: {} rows, {} columns, {} minimal FDs, durable through seq {}",
        engine.dynfd().relation().len(),
        engine.dynfd().relation().arity(),
        engine.dynfd().minimal_fds().len(),
        engine.seq(),
    );
    if stats {
        eprintln!(
            "# stats: wal ends at byte {}, {} snapshots skipped, corruption: {}",
            engine.wal_end_offset(),
            report.snapshots_skipped.len(),
            report
                .corruption
                .as_ref()
                .map_or("none".to_string(), |c| c.to_string()),
        );
    }
    print!("{}", write_cover(engine.dynfd().positive_cover(), &schema));
    if let Some(p) = save_path {
        write_cover_file(Path::new(&p), engine.dynfd().positive_cover(), &schema)
            .map_err(|e| with_path(&p, e))?;
        eprintln!("# cover saved to {p}");
    }
    Ok(())
}
