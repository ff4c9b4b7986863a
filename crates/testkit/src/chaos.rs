//! Governance chaos harness for the serve layer.
//!
//! PR 8's resource-governance claims are behavioral, not structural:
//! under quota pressure the hog — and *only* the hog — is degraded and
//! refused; a missed deadline never starts its batch; an eviction
//! mid-backlog drains cleanly, persists, and recovers to its exact
//! durable prefix on re-open. Each [`ChaosFault`] mode turns one of
//! those claims into a deterministic checkable property:
//!
//! * [`ChaosFault::QuotaStorm`] — one hog tenant inflating its
//!   resident footprint with unique-value inserts beside well-behaved
//!   bystanders, under a byte quota calibrated (by a standalone replay)
//!   to trip roughly half-way through the hog's stream. Oracles: the
//!   hog is degraded before it is refused (code 17), its retry-after
//!   hints are monotone while pressure persists, every bystander's
//!   final state is bit-identical to a no-hog sequential replay, and
//!   the hog's own state equals a replay of exactly its accepted
//!   prefix — governance rejections are rollback-clean by construction
//!   (they never reach the engine).
//! * [`ChaosFault::DeadlineStorm`] — every real batch is preceded by a
//!   doomed duplicate carrying a zero deadline. The duplicate must be
//!   rejected by the worker *before* apply (code 18), so the final
//!   state must equal a plain replay of the real batches alone, and
//!   the metrics partition (`submitted == applied + rejected + …`)
//!   must hold with every doom accounted in `deadline_rejected`.
//! * [`ChaosFault::EvictDuringApply`] — a durable tenant is closed
//!   while a paused backlog of its batches sits queued. The close must
//!   drain the backlog (never abandon it), refuse racing submissions
//!   with code 19, persist, and release; a re-open must recover to
//!   exactly the accepted prefix and accept the remainder, ending
//!   bit-identical to an uninterrupted replay — while bystander
//!   tenants' durable state never diverges.
//!
//! Everything derives from the `(seed, workers)` pair; the workloads
//! reuse [`tenant_traces`](crate::tenant_traces) so the bystander
//! streams are the same ones every other serve harness replays.

use crate::concurrent::{sequential_oracle, tenant_traces};
use dynfd_common::Schema;
use dynfd_core::{DynFd, DynFdConfig};
use dynfd_persist::FdEngine;
use dynfd_relation::{Batch, DynamicRelation};
use dynfd_serve::{AdmissionPolicy, ServeConfig, ServeEngine, ServeError, TenantQuota};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The governance chaos modes `fuzz --inject` can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosFault {
    /// One hog inflates its footprint past a byte quota beside
    /// well-behaved bystanders.
    QuotaStorm,
    /// Every real batch is shadowed by a doomed zero-deadline twin.
    DeadlineStorm,
    /// A durable tenant is closed while its backlog is still queued.
    EvictDuringApply,
}

impl ChaosFault {
    /// All chaos modes, in the order the fuzz binary cycles them.
    pub const ALL: [ChaosFault; 3] = [
        ChaosFault::QuotaStorm,
        ChaosFault::DeadlineStorm,
        ChaosFault::EvictDuringApply,
    ];

    /// The mode's `--inject` name.
    pub fn name(self) -> &'static str {
        match self {
            ChaosFault::QuotaStorm => "quota-storm",
            ChaosFault::DeadlineStorm => "deadline-storm",
            ChaosFault::EvictDuringApply => "evict-during-apply",
        }
    }

    /// Looks a mode up by its [`ChaosFault::name`].
    pub fn by_name(name: &str) -> Option<ChaosFault> {
        ChaosFault::ALL.iter().copied().find(|f| f.name() == name)
    }
}

/// Counters from one chaos run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaosStats {
    /// Tenants in the run (hog included).
    pub tenants: usize,
    /// Worker threads the serve engine ran.
    pub workers: usize,
    /// Batches applied across all tenants.
    pub applied: u64,
    /// Quota rejections observed (wire code 17).
    pub quota_rejections: u64,
    /// Deadline rejections observed (wire code 18).
    pub deadline_rejections: u64,
    /// Eviction-window rejections observed (wire code 19).
    pub evict_rejections: u64,
    /// Cache-degradation steps governance applied.
    pub degrades: u64,
    /// Tenants evicted/closed.
    pub evictions: u64,
}

impl ChaosStats {
    /// Accumulates another run's counters.
    pub fn absorb(&mut self, other: &ChaosStats) {
        self.tenants += other.tenants;
        self.workers += other.workers;
        self.applied += other.applied;
        self.quota_rejections += other.quota_rejections;
        self.deadline_rejections += other.deadline_rejections;
        self.evict_rejections += other.evict_rejections;
        self.degrades += other.degrades;
        self.evictions += other.evictions;
    }
}

/// Dispatches one chaos mode. `root` is only used by
/// [`ChaosFault::EvictDuringApply`] (the one mode that needs durable
/// state to recover).
pub fn check_chaos(
    fault: ChaosFault,
    seed: u64,
    workers: usize,
    root: &Path,
) -> Result<ChaosStats, String> {
    match fault {
        ChaosFault::QuotaStorm => check_quota_storm(seed, workers),
        ChaosFault::DeadlineStorm => check_deadline_storm(seed, workers),
        ChaosFault::EvictDuringApply => check_evict_during_apply(seed, workers, root),
    }
}

/// The hog's workload: batches of wide unique-value inserts, padded so
/// dictionaries and PLIs grow fast and monotonically.
fn hog_batches() -> (Schema, Vec<Batch>) {
    let schema = Schema::new("hog", vec!["a".into(), "b".into(), "c".into(), "d".into()]);
    let batches = (0..40u64)
        .map(|b| {
            let mut batch = Batch::new();
            for r in 0..64u64 {
                let v = b * 64 + r;
                batch.insert(vec![
                    format!("hog-a-{v:012}"),
                    format!("hog-b-{:012}", v.wrapping_mul(7)),
                    format!("hog-c-{:012}", v.wrapping_mul(13)),
                    format!("hog-d-{v:012}"),
                ]);
            }
            batch
        })
        .collect();
    (schema, batches)
}

/// See [`ChaosFault::QuotaStorm`].
pub fn check_quota_storm(seed: u64, workers: usize) -> Result<ChaosStats, String> {
    let config = DynFdConfig::default();
    let bystanders = tenant_traces(seed, 3);
    let (hog_schema, hog_stream) = hog_batches();

    // Calibrate the quota from a standalone replay: the ceiling sits at
    // the hog's half-way footprint (so the back half must be refused),
    // but never below twice the fattest bystander (so no bystander can
    // trip it).
    let no_rows: &[Vec<String>] = &[];
    let hog_relation = || {
        DynamicRelation::from_rows(hog_schema.clone(), no_rows)
            .map_err(|e| format!("hog relation: {e}"))
    };
    let mut probe = DynFd::new(hog_relation()?, config);
    let mut footprint_at = Vec::with_capacity(hog_stream.len());
    for (i, batch) in hog_stream.iter().enumerate() {
        probe
            .apply_batch(batch)
            .map_err(|e| format!("hog calibration batch {i}: {e}"))?;
        footprint_at.push(probe.resident_bytes() as u64);
    }
    let mut bystander_peak = 0u64;
    for (name, trace) in &bystanders {
        let oracle = sequential_oracle(trace, config)?;
        let bytes = oracle.resident_bytes() as u64;
        if bytes > bystander_peak {
            bystander_peak = bytes;
        }
        let _ = name;
    }
    let quota = footprint_at[hog_stream.len() / 2].max(bystander_peak * 2);
    let hog_final = *footprint_at.last().ok_or("hog stream is empty")?;
    if hog_final <= quota {
        return Err(format!(
            "calibration failed: hog final footprint {hog_final} never exceeds quota {quota}"
        ));
    }

    let engine = Arc::new(ServeEngine::new(ServeConfig {
        workers,
        queue_capacity: 1024,
        policy: AdmissionPolicy::Block,
        engine: config,
        quota: TenantQuota {
            max_resident_bytes: Some(quota),
            max_cpu: None,
        },
        ..ServeConfig::default()
    }));
    for (name, trace) in &bystanders {
        engine
            .open_tenant(name, trace.schema.clone(), &trace.initial_rows)
            .map_err(|e| format!("open {name}: {e}"))?;
    }
    engine
        .open_tenant("hog", hog_schema.clone(), &[])
        .map_err(|e| format!("open hog: {e}"))?;

    // Round-robin with a quiesce per round: every admission decision
    // sees the footprint of everything already applied, so the round
    // where the quota trips is a pure function of (seed, quota).
    let bystander_failures = Arc::new(AtomicU64::new(0));
    let mut streams: Vec<(&str, std::vec::IntoIter<Batch>)> = bystanders
        .iter()
        .map(|(name, trace)| (name.as_str(), trace.to_batches().into_iter()))
        .collect();
    let mut hog_iter = hog_stream.iter();
    let mut hog_accepted = 0usize;
    let mut hints: Vec<u64> = Vec::new();
    let mut quota_rejections = 0u64;
    let mut request_id = 0u64;
    loop {
        let mut any = false;
        for (name, stream) in &mut streams {
            let Some(batch) = stream.next() else { continue };
            any = true;
            request_id += 1;
            let failures = Arc::clone(&bystander_failures);
            engine
                .submit(name, request_id, batch, move |reply| {
                    if reply.outcome.is_err() {
                        failures.fetch_add(1, Ordering::SeqCst);
                    }
                })
                .map_err(|e| format!("bystander {name} refused admission: {e}"))?;
        }
        if let Some(batch) = hog_iter.next() {
            any = true;
            request_id += 1;
            match engine.submit("hog", request_id, batch.clone(), |_| {}) {
                Ok(()) => hog_accepted += 1,
                Err(err @ ServeError::QuotaExceeded { .. }) => {
                    quota_rejections += 1;
                    hints.push(err.retry_after_ms().unwrap_or(0));
                }
                Err(other) => return Err(format!("hog: expected code 17, got: {other}")),
            }
        }
        if !any {
            break;
        }
        engine.quiesce();
    }
    engine.quiesce();

    if bystander_failures.load(Ordering::SeqCst) != 0 {
        return Err("bystander batches failed under the hog's quota storm".into());
    }
    if quota_rejections == 0 {
        return Err("the hog was never quota-rejected".into());
    }
    if hints.windows(2).any(|w| w[1] < w[0]) {
        return Err(format!(
            "retry-after hints not monotone under sustained pressure: {hints:?}"
        ));
    }

    // Bystanders: bit-identical to a no-hog sequential replay.
    for (name, trace) in &bystanders {
        let oracle = sequential_oracle(trace, config)?;
        let divergence = engine
            .with_tenant(name, |served| oracle.state_divergence(served))
            .map_err(|e| format!("inspect {name}: {e}"))?;
        if let Some(d) = divergence {
            return Err(format!("bystander {name} diverged under quota storm: {d}"));
        }
    }
    // The hog: exactly its accepted prefix, nothing of the refused tail.
    let mut hog_oracle = DynFd::new(hog_relation()?, config);
    for (i, batch) in hog_stream[..hog_accepted].iter().enumerate() {
        hog_oracle
            .apply_batch(batch)
            .map_err(|e| format!("hog prefix oracle batch {i}: {e}"))?;
    }
    let divergence = engine
        .with_tenant("hog", |served| hog_oracle.state_divergence(served))
        .map_err(|e| format!("inspect hog: {e}"))?;
    if let Some(d) = divergence {
        return Err(format!(
            "hog state is not the replay of its accepted prefix ({hog_accepted} batches): {d}"
        ));
    }

    // Governance telemetry: the hog was degraded before it was refused,
    // and the engine-wide aggregate carries the rejections (the counters
    // `ServeEngine::global_metrics` reports).
    let hog_metrics = engine.metrics("hog").map_err(|e| e.to_string())?;
    if hog_metrics.degrades == 0 {
        return Err("quota governor refused the hog without degrading it first".into());
    }
    if hog_metrics.quota_rejected != quota_rejections {
        return Err(format!(
            "hog metrics counted {} quota rejections, the client saw {quota_rejections}",
            hog_metrics.quota_rejected
        ));
    }
    let global = engine.global_metrics();
    if global.totals.quota_rejected != quota_rejections {
        return Err(format!(
            "aggregate metrics counted {} quota rejections, the client saw {quota_rejections}",
            global.totals.quota_rejected
        ));
    }
    let s = &global.totals;
    if s.submitted != s.applied + s.rejected + s.shed + s.quota_rejected + s.closed_rejected {
        return Err(format!("aggregate outcome partition broken: {s:?}"));
    }

    Ok(ChaosStats {
        tenants: bystanders.len() + 1,
        workers: engine.worker_count(),
        applied: global.totals.applied,
        quota_rejections,
        degrades: global.totals.degrades,
        ..ChaosStats::default()
    })
}

/// See [`ChaosFault::DeadlineStorm`].
pub fn check_deadline_storm(seed: u64, workers: usize) -> Result<ChaosStats, String> {
    let config = DynFdConfig::default();
    let traces = tenant_traces(seed, 2);
    let engine = Arc::new(ServeEngine::new(ServeConfig {
        workers,
        queue_capacity: 1024,
        policy: AdmissionPolicy::Block,
        engine: config,
        ..ServeConfig::default()
    }));
    for (name, trace) in &traces {
        engine
            .open_tenant(name, trace.schema.clone(), &trace.initial_rows)
            .map_err(|e| format!("open {name}: {e}"))?;
    }

    let doomed_rejected = Arc::new(AtomicU64::new(0));
    let doomed_wrong = Arc::new(AtomicU64::new(0));
    let real_failed = Arc::new(AtomicU64::new(0));
    let mut doomed_submitted = 0u64;
    let mut real_submitted = 0u64;
    let mut streams: Vec<(&str, std::vec::IntoIter<Batch>)> = traces
        .iter()
        .map(|(name, trace)| (name.as_str(), trace.to_batches().into_iter()))
        .collect();
    let mut request_id = 0u64;
    loop {
        let mut any = false;
        for (name, stream) in &mut streams {
            let Some(batch) = stream.next() else { continue };
            any = true;
            // The doomed twin: a zero deadline has always expired by the
            // time a worker sees the job, so the rejection — and the
            // fact that the batch never touches the engine — is
            // deterministic at any worker count.
            request_id += 1;
            doomed_submitted += 1;
            let rejected = Arc::clone(&doomed_rejected);
            let wrong = Arc::clone(&doomed_wrong);
            engine
                .submit_with_deadline(
                    name,
                    request_id,
                    batch.clone(),
                    Some(Duration::ZERO),
                    move |reply| {
                        match reply.outcome {
                            Err(ServeError::DeadlineExceeded { .. }) => {
                                rejected.fetch_add(1, Ordering::SeqCst)
                            }
                            _ => wrong.fetch_add(1, Ordering::SeqCst),
                        };
                    },
                )
                .map_err(|e| format!("doomed twin for {name} refused admission: {e}"))?;
            // The real batch, unbounded.
            request_id += 1;
            real_submitted += 1;
            let failed = Arc::clone(&real_failed);
            engine
                .submit(name, request_id, batch, move |reply| {
                    if reply.outcome.is_err() {
                        failed.fetch_add(1, Ordering::SeqCst);
                    }
                })
                .map_err(|e| format!("real batch for {name} refused admission: {e}"))?;
        }
        if !any {
            break;
        }
    }
    engine.quiesce();

    if doomed_wrong.load(Ordering::SeqCst) != 0 {
        return Err("a zero-deadline job completed with something other than code 18".into());
    }
    if doomed_rejected.load(Ordering::SeqCst) != doomed_submitted {
        return Err(format!(
            "{} doomed jobs submitted, {} rejected with code 18",
            doomed_submitted,
            doomed_rejected.load(Ordering::SeqCst)
        ));
    }
    if real_failed.load(Ordering::SeqCst) != 0 {
        return Err("real batches failed in the deadline storm".into());
    }

    // Doomed twins must be invisible: final state == plain replay.
    for (name, trace) in &traces {
        let oracle = sequential_oracle(trace, config)?;
        let divergence = engine
            .with_tenant(name, |served| oracle.state_divergence(served))
            .map_err(|e| format!("inspect {name}: {e}"))?;
        if let Some(d) = divergence {
            return Err(format!(
                "tenant {name} diverged — a past-deadline job touched the engine: {d}"
            ));
        }
        let m = engine.metrics(name).map_err(|e| e.to_string())?;
        if m.deadline_rejected == 0 || m.deadline_rejected != m.rejected {
            return Err(format!(
                "tenant {name}: deadline breakdown {} must equal rejected {}",
                m.deadline_rejected, m.rejected
            ));
        }
        if m.submitted != m.applied + m.rejected + m.shed + m.quota_rejected + m.closed_rejected {
            return Err(format!("tenant {name}: outcome partition broken: {m:?}"));
        }
    }
    let global = engine.global_metrics();
    if global.totals.deadline_rejected != doomed_submitted {
        return Err(format!(
            "aggregate deadline_rejected {} != doomed jobs {doomed_submitted}",
            global.totals.deadline_rejected
        ));
    }

    Ok(ChaosStats {
        tenants: traces.len(),
        workers: engine.worker_count(),
        applied: real_submitted,
        deadline_rejections: doomed_submitted,
        ..ChaosStats::default()
    })
}

/// See [`ChaosFault::EvictDuringApply`]. `root` must be an empty scratch
/// directory; the run leaves its durable state there for inspection.
pub fn check_evict_during_apply(
    seed: u64,
    workers: usize,
    root: &Path,
) -> Result<ChaosStats, String> {
    let config = DynFdConfig::default();
    let traces = tenant_traces(seed, 3);
    let (victim_name, victim_trace) = &traces[0];
    let victim_batches = victim_trace.to_batches();
    let backlog = (victim_batches.len() / 2).max(1);

    let engine = Arc::new(ServeEngine::new(ServeConfig {
        workers,
        queue_capacity: 4096,
        policy: AdmissionPolicy::Block,
        root: Some(root.to_path_buf()),
        engine: config,
        ..ServeConfig::default()
    }));
    engine.pause();
    for (name, trace) in &traces {
        engine
            .open_tenant(name, trace.schema.clone(), &trace.initial_rows)
            .map_err(|e| format!("open {name}: {e}"))?;
    }

    // Queue the bystanders' full streams and the victim's first half —
    // with delivery paused, all of it sits in the shard FIFOs.
    let failures = Arc::new(AtomicU64::new(0));
    let next_id = std::cell::Cell::new(0u64);
    let submit = |name: &str, batch: Batch| -> Result<(), String> {
        next_id.set(next_id.get() + 1);
        let failures = Arc::clone(&failures);
        engine
            .submit(name, next_id.get(), batch, move |reply| {
                if reply.outcome.is_err() {
                    failures.fetch_add(1, Ordering::SeqCst);
                }
            })
            .map_err(|e| format!("submit to {name}: {e}"))
    };
    for (name, trace) in traces.iter().skip(1) {
        for batch in trace.to_batches() {
            submit(name, batch)?;
        }
    }
    for batch in &victim_batches[..backlog] {
        submit(victim_name, batch.clone())?;
    }

    // Close the victim from another thread: it flips the closing flag,
    // then blocks draining the paused backlog — the eviction window is
    // held open for as long as we keep delivery paused.
    let closer = {
        let engine = Arc::clone(&engine);
        let name = victim_name.clone();
        std::thread::spawn(move || engine.close_tenant(&name))
    };
    // Give the closer time to set the flag (it takes two locks and one
    // atomic swap to get there; it then blocks for as long as we pause).
    std::thread::sleep(Duration::from_millis(50));

    // Submissions racing the eviction: each must either be admitted
    // (it beat the flag and joins the drained backlog) or get code 19.
    let mut accepted = backlog;
    let mut evict_rejections = 0u64;
    for batch in &victim_batches[backlog..] {
        next_id.set(next_id.get() + 1);
        match engine.submit(victim_name, next_id.get(), batch.clone(), |_| {}) {
            Ok(()) => accepted += 1,
            Err(ServeError::Evicted { .. }) => {
                evict_rejections += 1;
                break;
            }
            Err(other) => return Err(format!("racing submit: expected code 19, got: {other}")),
        }
    }
    if evict_rejections == 0 && accepted < victim_batches.len() {
        return Err("racing submissions never hit the eviction window".into());
    }

    // Release the drain: the backlog applies, the closer persists and
    // removes the tenant.
    engine.resume();
    let report = closer
        .join()
        .map_err(|_| "closer thread panicked".to_string())?
        .map_err(|e| format!("close_tenant: {e}"))?;
    engine.quiesce();
    if failures.load(Ordering::SeqCst) != 0 {
        return Err("queued batches failed during the eviction drain".into());
    }
    if !report.persisted {
        return Err(format!("eviction did not persist: {:?}", report.detail));
    }
    if report.seq != Some(accepted as u64) {
        return Err(format!(
            "eviction drained to seq {:?}, accepted prefix is {accepted}",
            report.seq
        ));
    }

    // The name is gone until re-opened.
    next_id.set(next_id.get() + 1);
    match engine.submit(
        victim_name,
        next_id.get(),
        victim_batches[0].clone(),
        |_| {},
    ) {
        Err(ServeError::UnknownTenant(_)) => {}
        other => {
            return Err(format!(
                "evicted tenant must answer code 14 before re-open, got: {other:?}"
            ))
        }
    }

    // Transparent re-admission: recover to exactly the accepted prefix,
    // then serve the remainder.
    let reopened = engine
        .open_tenant(
            victim_name,
            victim_trace.schema.clone(),
            &victim_trace.initial_rows,
        )
        .map_err(|e| format!("re-open {victim_name}: {e}"))?;
    if reopened.recovered.is_none() {
        return Err("re-open did not recover durable state".into());
    }
    if reopened.seq != accepted as u64 {
        return Err(format!(
            "re-open recovered seq {}, eviction persisted {accepted}",
            reopened.seq
        ));
    }
    for batch in &victim_batches[accepted..] {
        submit(victim_name, batch.clone())?;
    }
    engine.quiesce();
    if failures.load(Ordering::SeqCst) != 0 {
        return Err("post-recovery batches failed".into());
    }

    let global = engine.global_metrics();
    if global.evictions != 1 {
        return Err(format!("expected 1 eviction, counted {}", global.evictions));
    }
    if global.totals.closed_rejected != evict_rejections {
        return Err(format!(
            "aggregate closed_rejected {} != observed code-19 rejections {evict_rejections}",
            global.totals.closed_rejected
        ));
    }

    // Final durable truth: shut down and recover every tenant fresh;
    // each must be logically identical to an uninterrupted sequential
    // replay (exact violation-annotation pairs are cache-path-dependent
    // after a snapshot recovery — see `DynFd::logical_divergence` — so
    // annotations are checked for validity, not bit-equality).
    let total_applied = global.totals.applied;
    let engine =
        Arc::try_unwrap(engine).map_err(|_| "engine still shared after quiesce".to_string())?;
    let report = engine.shutdown();
    if !report.sync_errors.is_empty() || !report.poisoned.is_empty() {
        return Err(format!(
            "shutdown left damage: {:?} {:?}",
            report.sync_errors, report.poisoned
        ));
    }
    for (name, trace) in &traces {
        let oracle = sequential_oracle(trace, config)?;
        let (recovered, _) =
            FdEngine::recover_or_create(&root.join(name), trace.to_relation(), config)
                .map_err(|e| format!("recover {name}: {e}"))?;
        if recovered.seq() != trace.to_batches().len() as u64 {
            return Err(format!(
                "tenant {name} recovered to seq {}, expected the full {} batches",
                recovered.seq(),
                trace.to_batches().len()
            ));
        }
        if let Some(d) = oracle.logical_divergence(recovered.dynfd()) {
            return Err(format!(
                "tenant {name} durable state diverged from an uninterrupted replay: {d}"
            ));
        }
        recovered
            .dynfd()
            .verify_annotations()
            .map_err(|e| format!("tenant {name} recovered annotations invalid: {e}"))?;
    }

    Ok(ChaosStats {
        tenants: traces.len(),
        workers,
        applied: total_applied,
        evict_rejections,
        evictions: 1,
        ..ChaosStats::default()
    })
}
