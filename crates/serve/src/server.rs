//! The sharded multi-tenant engine server.
//!
//! One [`ServeEngine`] owns a tenant registry and a pool of worker
//! threads. Every tenant is pinned to exactly one worker shard (FNV of
//! its name modulo the pool size), each shard consumes its own FIFO
//! queue, and admission happens against the tenant's bounded gate
//! before a job is ever enqueued. The combination yields the layer's
//! two load-bearing properties:
//!
//! * **determinism** — a tenant's batches are applied in submission
//!   order at any worker count, because only its one shard ever touches
//!   its engine and the shard queue is FIFO (pinned by
//!   `tests/serve_determinism.rs`);
//! * **isolation** — a tenant that floods, rejects, or panics affects
//!   only its own gate, metrics, and (on an escaped panic) its own
//!   poisoned engine lock; every other tenant's state and throughput
//!   are untouched (pinned by `tests/tenant_isolation.rs`).
//!
//! On top of admission sits **resource governance** (DESIGN.md §6h):
//! per-tenant quotas over resident bytes and cumulative apply CPU time
//! ([`TenantQuota`], wire code 17 with a retry-after hint), per-job
//! deadlines enforced on the worker *before* apply (code 18 — a
//! past-deadline job never starts, so the PR 3 transactional guarantee
//! is preserved), live tenant eviction/close
//! ([`ServeEngine::close_tenant`]: drain → snapshot+fsync → release,
//! code 19 inside the window), and a global byte budget that degrades
//! the fattest tenant's PLI cache before LRU-evicting idle tenants.
//! Every governance rejection is deterministic given the admission
//! sequence — the chaos harness replays them across worker counts.
//!
//! Shutdown is drain-then-sync: the intake closes (new submissions get
//! [`ServeError::ShuttingDown`]), every queued job still completes,
//! workers join, and each durable tenant's WAL tail is fsynced. The
//! `drain_kill_after` hook aborts the process mid-drain — the crash
//! harness uses it to prove recovery works from inside that window.
//! The analogous `evict_kill_point` hook aborts inside the eviction
//! window instead.

use crate::metrics::{GlobalSnapshot, TenantMetrics};
use crate::queue::ShardQueue;
use crate::tenant::{valid_tenant_name, Backend, Tenant};
use crate::{QuotaKind, ServeError};
use dynfd_common::Schema;
use dynfd_core::{DynFd, DynFdConfig, DynFdError, FailPoint};
use dynfd_persist::{CrashPlan, FdEngine, RecoveryReport};
use dynfd_relation::{Batch, DynamicRelation};
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What happens when a tenant's queue is full at submit time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Reject immediately with [`ServeError::Overloaded`] (wire code
    /// 13) — the production load-shedding default.
    #[default]
    Shed,
    /// Block the submitter until a slot frees up — lossless
    /// backpressure, used by the deterministic replay harnesses and by
    /// clients that prefer latency over errors.
    Block,
}

/// Per-tenant resource quotas, checked at admission. `None` fields are
/// unlimited (the default).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantQuota {
    /// Ceiling on a tenant's resident-byte estimate (relation arena +
    /// dictionaries + PLIs + PLI-intersection cache, per
    /// `DynFd::resident_bytes`). A tenant over the ceiling is first
    /// *degraded* (cache squeezed, then dropped); only if it stays over
    /// uncached is the submission rejected with wire code 17. A tenant
    /// configured without a cache is rejected at once.
    pub max_resident_bytes: Option<u64>,
    /// Ceiling on a tenant's cumulative wall-clock time spent inside
    /// `apply`. Once crossed, further submissions are rejected with
    /// wire code 17 — the tenant keeps its state and can be read, but
    /// may not burn more compute.
    pub max_cpu: Option<Duration>,
}

/// Where inside [`ServeEngine::close_tenant`] the chaos harness aborts
/// the process (see [`ServeConfig::evict_kill_point`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictKillPoint {
    /// After the tenant's queue drained, before snapshot + fsync: the
    /// WAL holds every applied batch, the final snapshot does not exist.
    AfterDrain,
    /// After snapshot + fsync, before the registry entry is removed.
    AfterPersist,
}

/// Configuration of a [`ServeEngine`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads (= shards). `0` means one per available core.
    pub workers: usize,
    /// Per-tenant bound on in-flight batches (admission gate capacity).
    pub queue_capacity: usize,
    /// Full-queue behavior.
    pub policy: AdmissionPolicy,
    /// Durable root: each tenant gets `<root>/<name>/` as its WAL
    /// directory. `None` serves purely in-memory tenants.
    pub root: Option<PathBuf>,
    /// Engine configuration shared by every tenant.
    pub engine: DynFdConfig,
    /// Crash-harness hook: during shutdown's drain, abort the process
    /// after this many more jobs complete (`>= 1`; `None` disables).
    pub drain_kill_after: Option<u64>,
    /// Per-tenant resource quotas (unlimited by default).
    pub quota: TenantQuota,
    /// Engine-wide ceiling on the summed resident-byte estimates. When
    /// a submission finds the pool over budget, the governor degrades
    /// the fattest tenant's cache one step, then LRU-evicts *idle*
    /// tenants (never the submitter) until back under. `None` disables.
    pub global_bytes_budget: Option<u64>,
    /// Deadline applied to submissions that do not carry their own: a
    /// job still queued when its deadline elapses is rejected by the
    /// worker before apply (wire code 18). `None` = no default.
    pub default_deadline: Option<Duration>,
    /// Crash-harness hook: abort the process at this point inside the
    /// next [`ServeEngine::close_tenant`] call (`None` disables).
    pub evict_kill_point: Option<EvictKillPoint>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            queue_capacity: 64,
            policy: AdmissionPolicy::Shed,
            root: None,
            engine: DynFdConfig::default(),
            drain_kill_after: None,
            quota: TenantQuota::default(),
            global_bytes_budget: None,
            default_deadline: None,
            evict_kill_point: None,
        }
    }
}

/// The outcome of one applied (or failed) batch, delivered to the
/// submitter's completion callback.
#[derive(Debug)]
pub struct BatchReply {
    /// The tenant the batch targeted.
    pub tenant: String,
    /// The submitter's correlation id (wire request id).
    pub request_id: u64,
    /// Success summary, or the typed failure.
    pub outcome: Result<ApplySummary, ServeError>,
    /// Submit→completion latency.
    pub latency: Duration,
}

/// Success details of one applied batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ApplySummary {
    /// The tenant's sequence number after this batch.
    pub seq: u64,
    /// Minimal FDs the batch added.
    pub added: u32,
    /// Minimal FDs the batch removed.
    pub removed: u32,
    /// Live rows after the batch.
    pub rows: u64,
}

/// What [`ServeEngine::shutdown`] drained and synced.
#[derive(Debug, Default)]
pub struct ShutdownReport {
    /// Registered tenants at shutdown.
    pub tenants: usize,
    /// Tenants whose WAL tail was fsynced cleanly.
    pub synced: usize,
    /// Tenants whose final sync failed, with the I/O error.
    pub sync_errors: Vec<(String, String)>,
    /// Tenants skipped because an earlier panic poisoned their engine.
    pub poisoned: Vec<String>,
}

/// Result of opening a tenant: its durable sequence number and, when
/// the tenant resumed from an existing WAL directory, the recovery
/// report.
#[derive(Debug)]
pub struct OpenReport {
    /// Sequence number the tenant starts serving from (0 when fresh).
    pub seq: u64,
    /// Present when the tenant recovered durable state.
    pub recovered: Option<RecoveryReport>,
}

/// What [`ServeEngine::close_tenant`] drained, persisted, and released.
#[derive(Clone, Debug)]
pub struct CloseReport {
    /// The released tenant's name.
    pub tenant: String,
    /// Durable sequence number at release (`None` when the engine was
    /// poisoned and could not report one).
    pub seq: Option<u64>,
    /// Whether snapshot + WAL fsync succeeded before release. Memory
    /// tenants report `true` (there is nothing to persist).
    pub persisted: bool,
    /// The I/O or poisoning detail when `persisted` is false.
    pub detail: Option<String>,
}

type Completion = Box<dyn FnOnce(BatchReply) + Send>;

struct Job {
    tenant: Arc<Tenant>,
    batch: Batch,
    request_id: u64,
    submitted: Instant,
    /// Deadline budget measured from `submitted`; `None` = no deadline.
    deadline: Option<Duration>,
    /// The engine-wide aggregate the job's outcome is mirrored onto.
    aggregate: Arc<TenantMetrics>,
    done: Completion,
}

/// Mid-drain abort hook (see [`ServeConfig::drain_kill_after`]).
#[derive(Default)]
struct DrainKill {
    armed: AtomicBool,
    budget: AtomicU64,
}

/// The multi-tenant serve engine (see the module docs).
pub struct ServeEngine {
    shards: Vec<Arc<ShardQueue<Job>>>,
    workers: Vec<JoinHandle<()>>,
    tenants: Mutex<HashMap<String, Arc<Tenant>>>,
    config: ServeConfig,
    closed: AtomicBool,
    drain: Arc<DrainKill>,
    /// Engine-wide aggregate of every tenant's counters; survives
    /// tenant eviction (see [`ServeEngine::global_metrics`]).
    aggregate: Arc<TenantMetrics>,
    /// Tenants evicted/closed over the engine's lifetime.
    evictions: AtomicU64,
    /// Monotone admission counter — the LRU clock.
    admission_tick: AtomicU64,
}

/// FNV-1a, hand-rolled so the tenant→shard map is stable across
/// platforms and std versions (std's `DefaultHasher` promises nothing).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// Renders a caught panic payload for the typed reply.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Applies one job to its tenant and fires the completion. Runs on a
/// worker thread; never unwinds (panics become typed replies).
fn run_job(job: Job) {
    let Job {
        tenant,
        batch,
        request_id,
        submitted,
        deadline,
        aggregate,
        done,
    } = job;
    // Deadline gate: a job past its budget is rejected *before* the
    // engine is touched, so the tenant's state, WAL, and covers are
    // exactly as if the batch was never submitted.
    let expired = deadline.filter(|d| submitted.elapsed() >= *d);
    let mut degraded = false;
    let outcome: Result<ApplySummary, ServeError> = if let Some(deadline) = expired {
        tenant.metrics.note_deadline_rejected();
        aggregate.note_deadline_rejected();
        Err(ServeError::DeadlineExceeded {
            tenant: tenant.name.clone(),
            deadline_ms: deadline.as_millis().min(u64::MAX as u128) as u64,
            waited_ms: submitted.elapsed().as_millis().min(u64::MAX as u128) as u64,
        })
    } else {
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            tenant.with_backend(|backend| {
                let apply_start = Instant::now();
                let applied = backend.apply(&batch);
                let spent = apply_start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                tenant.cpu_nanos.fetch_add(spent, Ordering::Relaxed);
                tenant
                    .resident_bytes
                    .store(backend.dynfd().resident_bytes() as u64, Ordering::Relaxed);
                applied.map(|result| {
                    (
                        ApplySummary {
                            seq: backend.seq(),
                            added: result.added.len() as u32,
                            removed: result.removed.len() as u32,
                            rows: backend.dynfd().relation().len() as u64,
                        },
                        result.metrics.degraded_batches > 0,
                    )
                })
            })
        }));
        match caught {
            Ok(Ok(Ok((summary, was_degraded)))) => {
                degraded = was_degraded;
                Ok(summary)
            }
            Ok(Ok(Err(engine_err))) => Err(ServeError::Engine(engine_err)),
            // Poisoned lock from an earlier escaped panic.
            Ok(Err(poisoned)) => Err(poisoned),
            // A panic that escaped the engine's own transactional
            // boundary: the unwind poisoned this tenant's lock on the
            // way out, so the damage is contained to this tenant (later
            // batches get the poisoned-tenant error above); the worker
            // itself survives.
            Err(payload) => Err(ServeError::Engine(DynFdError::PhasePanicked {
                phase: "serve-worker",
                detail: panic_text(payload.as_ref()),
            })),
        }
    };
    let latency = submitted.elapsed();
    let (applied, added, removed) = match &outcome {
        Ok(s) => (true, s.added as u64, s.removed as u64),
        Err(_) => (false, 0, 0),
    };
    tenant
        .metrics
        .note_completed(applied, added, removed, latency, degraded);
    aggregate.note_completed(applied, added, removed, latency, degraded);
    // Completion fires *before* the gate slot is released: quiesce
    // (gate idle) must imply every reply has been delivered.
    done(BatchReply {
        tenant: tenant.name.clone(),
        request_id,
        outcome,
        latency,
    });
    tenant.gate.release();
}

fn worker_loop(queue: Arc<ShardQueue<Job>>, drain: Arc<DrainKill>) {
    while let Some(job) = queue.pop() {
        run_job(job);
        if drain.armed.load(Ordering::SeqCst) && drain.budget.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Simulated crash inside the queue-drain window: the job
            // just completed is durable, everything still queued is not.
            std::process::abort();
        }
    }
}

impl ServeEngine {
    /// Starts the worker pool (no tenants yet).
    pub fn new(config: ServeConfig) -> ServeEngine {
        let n = if config.workers == 0 {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        } else {
            config.workers
        };
        let drain = Arc::new(DrainKill {
            armed: AtomicBool::new(false),
            budget: AtomicU64::new(config.drain_kill_after.unwrap_or(0)),
        });
        // Arm at shutdown only: workers check the flag per job, and the
        // engine flips it right before closing the queues.
        let shards: Vec<Arc<ShardQueue<Job>>> =
            (0..n).map(|_| Arc::new(ShardQueue::new())).collect();
        let workers = shards
            .iter()
            .map(|shard| {
                let shard = Arc::clone(shard);
                let drain = Arc::clone(&drain);
                std::thread::spawn(move || worker_loop(shard, drain))
            })
            .collect();
        ServeEngine {
            shards,
            workers,
            tenants: Mutex::new(HashMap::new()),
            config,
            closed: AtomicBool::new(false),
            drain,
            aggregate: Arc::new(TenantMetrics::default()),
            evictions: AtomicU64::new(0),
            admission_tick: AtomicU64::new(0),
        }
    }

    /// The resolved worker/shard count.
    pub fn worker_count(&self) -> usize {
        self.shards.len()
    }

    /// The engine configuration tenants run with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The durable directory of `name`, when serving durably.
    pub fn tenant_dir(&self, name: &str) -> Option<PathBuf> {
        self.config.root.as_ref().map(|root| root.join(name))
    }

    fn lookup(&self, name: &str) -> Result<Arc<Tenant>, ServeError> {
        let tenants = self
            .tenants
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        tenants
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownTenant(name.to_string()))
    }

    fn tenant_arcs(&self) -> Vec<Arc<Tenant>> {
        let tenants = self
            .tenants
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut arcs: Vec<Arc<Tenant>> = tenants.values().cloned().collect();
        arcs.sort_by(|a, b| a.name.cmp(&b.name));
        arcs
    }

    /// Opens tenant `name` with the given schema and initial rows, or
    /// recovers it from `<root>/<name>/` when durable state exists
    /// there (the rows are then ignored; the schema must match). An
    /// evicted tenant re-opened here resumes from its persisted state —
    /// the transparent re-admission path.
    pub fn open_tenant(
        &self,
        name: &str,
        schema: Schema,
        rows: &[Vec<String>],
    ) -> Result<OpenReport, ServeError> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        if !valid_tenant_name(name) {
            return Err(ServeError::Malformed(format!(
                "invalid tenant name {name:?} (want [A-Za-z0-9_.-]{{1,128}})"
            )));
        }
        {
            let tenants = self
                .tenants
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if tenants.contains_key(name) {
                return Err(ServeError::TenantExists(name.to_string()));
            }
        }
        // Build the backend outside the registry lock: recovery can
        // replay an arbitrarily long WAL and must not stall the others.
        let rel = DynamicRelation::from_rows(schema.clone(), rows)
            .map_err(|e| ServeError::Engine(DynFdError::from(e)))?;
        let (backend, recovered) = match self.tenant_dir(name) {
            Some(dir) => {
                let (engine, report) = FdEngine::recover_or_create(&dir, rel, self.config.engine)
                    .map_err(ServeError::Engine)?;
                if let Some(report) = &report {
                    let durable = engine.dynfd().relation().schema();
                    if durable.columns() != schema.columns() {
                        return Err(ServeError::Engine(DynFdError::Parse(format!(
                            "tenant {name:?} durable state is for columns {:?}, the open asked for {:?}",
                            durable.columns(),
                            schema.columns()
                        ))));
                    }
                    let _ = report; // report returned to the caller below
                }
                (Backend::Durable(engine), report)
            }
            None => (
                Backend::Memory(DynFd::new(rel, self.config.engine), 0),
                None,
            ),
        };
        let shard = (fnv1a(name.as_bytes()) % self.shards.len() as u64) as usize;
        let tenant = Arc::new(Tenant::new(name.to_string(), shard, backend));
        let seq = tenant.with_backend(|b| b.seq()).unwrap_or_default();
        let mut tenants = self
            .tenants
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Two concurrent opens of the same name: first insert wins.
        if tenants.contains_key(name) {
            return Err(ServeError::TenantExists(name.to_string()));
        }
        tenants.insert(name.to_string(), tenant);
        Ok(OpenReport { seq, recovered })
    }

    /// Steps a tenant's cache budget one notch down (`pli_cache_bytes`
    /// → a quarter of it → 0, i.e. uncached), refreshes its resident
    /// estimate, and returns it. A tenant whose budget is already 0 —
    /// including one configured without a cache — has nothing to
    /// degrade and takes no step. Waits for the engine lock, so the
    /// cost lands on the submitter that triggered governance.
    fn degrade_tenant(&self, tenant: &Arc<Tenant>) -> u64 {
        let stepped = tenant.with_backend(|b| {
            let engine = b.dynfd_mut();
            let configured = engine.config().pli_cache_bytes;
            let next = match engine.cache_budget() {
                0 => None,
                budget if budget == configured => Some(configured / 4),
                _ => Some(0),
            };
            if let Some(bytes) = next {
                engine.limit_cache(bytes);
            }
            (next.is_some(), engine.resident_bytes() as u64)
        });
        match stepped {
            Ok((true, bytes)) => {
                tenant.metrics.note_degrade();
                self.aggregate.note_degrade();
                tenant.resident_bytes.store(bytes, Ordering::Relaxed);
                bytes
            }
            Ok((false, bytes)) => {
                tenant.resident_bytes.store(bytes, Ordering::Relaxed);
                bytes
            }
            // Poisoned engine: keep the stale estimate; the tenant is
            // already unable to apply anything.
            Err(_) => tenant.resident_bytes.load(Ordering::Relaxed),
        }
    }

    /// Checks the per-tenant quotas for one submission, degrading the
    /// tenant's cache before giving up on the byte quota.
    fn check_quota(&self, tenant: &Arc<Tenant>) -> Result<(), ServeError> {
        if let Some(limit) = self.config.quota.max_resident_bytes {
            let mut used = tenant.resident_bytes.load(Ordering::Relaxed);
            if used > limit {
                // Graceful degradation first: squeezing (then dropping)
                // the PLI cache may bring the tenant back under quota
                // without refusing work.
                used = self.degrade_tenant(tenant);
            }
            if used > limit {
                tenant.metrics.note_submitted(tenant.gate.depth());
                self.aggregate.note_submitted(tenant.gate.depth());
                tenant.metrics.note_quota_rejected();
                self.aggregate.note_quota_rejected();
                return Err(ServeError::QuotaExceeded {
                    tenant: tenant.name.clone(),
                    kind: QuotaKind::Bytes,
                    used,
                    limit,
                    retry_after_ms: tenant.next_retry_after_ms(),
                });
            }
        }
        if let Some(max_cpu) = self.config.quota.max_cpu {
            let used = Duration::from_nanos(tenant.cpu_nanos.load(Ordering::Relaxed));
            if used > max_cpu {
                tenant.metrics.note_submitted(tenant.gate.depth());
                self.aggregate.note_submitted(tenant.gate.depth());
                tenant.metrics.note_quota_rejected();
                self.aggregate.note_quota_rejected();
                return Err(ServeError::QuotaExceeded {
                    tenant: tenant.name.clone(),
                    kind: QuotaKind::Cpu,
                    used: used.as_millis().min(u64::MAX as u128) as u64,
                    limit: max_cpu.as_millis().min(u64::MAX as u128) as u64,
                    retry_after_ms: tenant.next_retry_after_ms(),
                });
            }
        }
        Ok(())
    }

    /// Enforces the global byte budget: degrade the fattest tenant one
    /// step, then LRU-evict idle tenants (never the submitter, never a
    /// tenant with work in flight) until back under budget or out of
    /// candidates. Best-effort — a pool where every tenant is busy
    /// simply stays over budget until one goes idle.
    fn enforce_global_budget(&self, protect: &Arc<Tenant>) {
        let Some(budget) = self.config.global_bytes_budget else {
            return;
        };
        let total: u64 = self
            .tenant_arcs()
            .iter()
            .map(|t| t.resident_bytes.load(Ordering::Relaxed))
            .sum();
        if total <= budget {
            return;
        }
        // Degrade before evicting: squeeze the fattest tenant's cache
        // (deterministic tie-break on name via the sorted arcs).
        if let Some(fattest) = self
            .tenant_arcs()
            .into_iter()
            .max_by_key(|t| t.resident_bytes.load(Ordering::Relaxed))
        {
            self.degrade_tenant(&fattest);
        }
        let mut total: u64 = self
            .tenant_arcs()
            .iter()
            .map(|t| t.resident_bytes.load(Ordering::Relaxed))
            .sum();
        while total > budget {
            // LRU victim: idle, not closing, not the submitter; oldest
            // admission tick, name as the deterministic tie-break
            // (tenant_arcs is name-sorted and min_by_key keeps the
            // first minimum).
            let victim = self
                .tenant_arcs()
                .into_iter()
                .filter(|t| {
                    !Arc::ptr_eq(t, protect)
                        && !t.closing.load(Ordering::SeqCst)
                        && t.gate.depth() == 0
                })
                .min_by_key(|t| t.last_admitted.load(Ordering::Relaxed));
            let Some(victim) = victim else { break };
            let freed = victim.resident_bytes.load(Ordering::Relaxed);
            if self.close_tenant_inner(&victim).is_err() {
                break;
            }
            total = total.saturating_sub(freed);
        }
    }

    /// Submits one batch for `tenant` with no explicit deadline (the
    /// configured [`ServeConfig::default_deadline`] still applies). See
    /// [`ServeEngine::submit_with_deadline`].
    pub fn submit(
        &self,
        tenant: &str,
        request_id: u64,
        batch: Batch,
        done: impl FnOnce(BatchReply) + Send + 'static,
    ) -> Result<(), ServeError> {
        self.submit_with_deadline(tenant, request_id, batch, None, done)
    }

    /// Submits one batch for `tenant`. On success the batch is queued
    /// and `done` fires exactly once from a worker thread; on error the
    /// batch was *not* queued (`done` never fires) and the caller owns
    /// the typed rejection — admission failures are synchronous by
    /// design so the wire layer can shed load without waiting.
    ///
    /// `deadline` bounds how long the job may sit in the queue: a
    /// worker that reaches it past the budget rejects it *before*
    /// apply. Governance runs here too: the eviction window (code 19),
    /// the global byte budget, and the per-tenant quotas (code 17) are
    /// all checked before the admission gate.
    pub fn submit_with_deadline(
        &self,
        tenant: &str,
        request_id: u64,
        batch: Batch,
        deadline: Option<Duration>,
        done: impl FnOnce(BatchReply) + Send + 'static,
    ) -> Result<(), ServeError> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        let tenant = self.lookup(tenant)?;
        if tenant.closing.load(Ordering::SeqCst) {
            tenant.metrics.note_submitted(tenant.gate.depth());
            self.aggregate.note_submitted(tenant.gate.depth());
            tenant.metrics.note_closed_rejected();
            self.aggregate.note_closed_rejected();
            return Err(ServeError::Evicted {
                tenant: tenant.name.clone(),
                retry_after_ms: tenant.next_retry_after_ms(),
            });
        }
        self.enforce_global_budget(&tenant);
        self.check_quota(&tenant)?;
        let capacity = self.config.queue_capacity.max(1);
        let depth = match self.config.policy {
            AdmissionPolicy::Shed => match tenant.gate.try_acquire(capacity) {
                Ok(depth) => depth,
                Err(depth) => {
                    tenant.metrics.note_submitted(depth);
                    self.aggregate.note_submitted(depth);
                    tenant.metrics.note_shed();
                    self.aggregate.note_shed();
                    return Err(ServeError::Overloaded {
                        tenant: tenant.name.clone(),
                        depth,
                        capacity,
                        retry_after_ms: tenant.next_retry_after_ms(),
                    });
                }
            },
            AdmissionPolicy::Block => tenant.gate.acquire_blocking(capacity),
        };
        tenant.metrics.note_submitted(depth);
        self.aggregate.note_submitted(depth);
        tenant.note_admitted(self.admission_tick.fetch_add(1, Ordering::Relaxed) + 1);
        let shard = tenant.shard;
        let job = Job {
            tenant: Arc::clone(&tenant),
            batch,
            request_id,
            submitted: Instant::now(),
            deadline: deadline.or(self.config.default_deadline),
            aggregate: Arc::clone(&self.aggregate),
            done: Box::new(done),
        };
        match self.shards[shard].push(job) {
            Ok(()) => Ok(()),
            Err(_job) => {
                // Raced with shutdown: un-admit and report.
                tenant.gate.release();
                Err(ServeError::ShuttingDown)
            }
        }
    }

    /// Closes (or evicts — same operation, different initiator) a live
    /// tenant: marks it closing (submissions get wire code 19), drains
    /// its in-flight and queued batches, snapshots and fsyncs its
    /// durable state, and releases the registry entry and its memory.
    /// The next `Open` of the name re-admits it via `recover_or_create`.
    ///
    /// Do not call from a worker thread — the drain would wait on the
    /// calling thread's own queue.
    pub fn close_tenant(&self, name: &str) -> Result<CloseReport, ServeError> {
        let tenant = self.lookup(name)?;
        self.close_tenant_inner(&tenant)
    }

    fn close_tenant_inner(&self, tenant: &Arc<Tenant>) -> Result<CloseReport, ServeError> {
        if tenant.closing.swap(true, Ordering::SeqCst) {
            // A second closer lost the race; the first owns the drain.
            return Err(ServeError::Evicted {
                tenant: tenant.name.clone(),
                retry_after_ms: tenant.next_retry_after_ms(),
            });
        }
        // Drain: queued jobs hold gate slots until their completion
        // fires, so an idle gate means the shard FIFO holds nothing of
        // this tenant's and no apply is mid-flight.
        tenant.gate.wait_idle();
        if self.config.evict_kill_point == Some(EvictKillPoint::AfterDrain) {
            // Chaos harness: die between drain and persist — the WAL
            // already holds every applied batch, the snapshot does not.
            std::process::abort();
        }
        let persisted = tenant.with_backend(|b| {
            let seq = b.seq();
            (seq, b.persist_for_release())
        });
        let report = match persisted {
            Ok((seq, Ok(()))) => CloseReport {
                tenant: tenant.name.clone(),
                seq: Some(seq),
                persisted: true,
                detail: None,
            },
            Ok((seq, Err(io))) => CloseReport {
                tenant: tenant.name.clone(),
                seq: Some(seq),
                persisted: false,
                detail: Some(io.to_string()),
            },
            // Poisoned by an earlier panic: release it anyway — its WAL
            // holds everything acknowledged (log-before-apply), so
            // recovery on re-open is still exact.
            Err(e) => CloseReport {
                tenant: tenant.name.clone(),
                seq: None,
                persisted: false,
                detail: Some(e.to_string()),
            },
        };
        if self.config.evict_kill_point == Some(EvictKillPoint::AfterPersist) {
            // Chaos harness: die between persist and release.
            std::process::abort();
        }
        let mut tenants = self
            .tenants
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        tenants.remove(&tenant.name);
        drop(tenants);
        self.evictions.fetch_add(1, Ordering::SeqCst);
        Ok(report)
    }

    /// Blocks until every tenant's queue is idle (no batch in flight).
    /// Meaningful only once the submitters have stopped.
    pub fn quiesce(&self) {
        for tenant in self.tenant_arcs() {
            tenant.gate.wait_idle();
        }
    }

    /// Whether every shard currently has delivery paused (see
    /// [`ServeEngine::pause`]). A paused engine with a backlog never
    /// goes idle, so teardown paths must not [`ServeEngine::quiesce`] it.
    pub fn is_paused(&self) -> bool {
        !self.shards.is_empty() && self.shards.iter().all(|s| s.is_paused())
    }

    /// Pauses delivery on every shard (queued jobs are retained). Called
    /// before the first submission, it makes the whole backlog queue up
    /// before any worker runs — the deterministic-burst test hook.
    pub fn pause(&self) {
        for shard in &self.shards {
            shard.set_paused(true);
        }
    }

    /// Resumes delivery on every shard.
    pub fn resume(&self) {
        for shard in &self.shards {
            shard.set_paused(false);
        }
    }

    /// Runs `f` against a tenant's engine (read-only view). Waits for
    /// the engine lock, so call it quiesced unless racy reads are fine.
    pub fn with_tenant<R>(&self, name: &str, f: impl FnOnce(&DynFd) -> R) -> Result<R, ServeError> {
        let tenant = self.lookup(name)?;
        tenant.with_backend(|b| f(b.dynfd()))
    }

    /// Arms a deterministic failpoint on a tenant's engine (fault
    /// injection harnesses; see [`DynFd::arm_failpoint`]).
    pub fn arm_failpoint(&self, name: &str, fp: FailPoint) -> Result<(), ServeError> {
        let tenant = self.lookup(name)?;
        tenant.with_backend(|b| b.dynfd_mut().arm_failpoint(fp))
    }

    /// Arms a deterministic crash plan on a tenant's durable engine
    /// (crash harness; no-op for memory tenants).
    pub fn arm_crash_plan(&self, name: &str, plan: CrashPlan) -> Result<(), ServeError> {
        let tenant = self.lookup(name)?;
        tenant.with_backend(|b| b.set_crash_plan(plan))
    }

    /// A tenant's durable sequence number.
    pub fn tenant_seq(&self, name: &str) -> Result<u64, ServeError> {
        let tenant = self.lookup(name)?;
        tenant.with_backend(|b| b.seq())
    }

    /// A tenant's metrics snapshot.
    pub fn metrics(&self, name: &str) -> Result<crate::MetricsSnapshot, ServeError> {
        Ok(self.lookup(name)?.metrics.snapshot())
    }

    /// Records a sessioned apply answered from the ack-replay window
    /// (the batch was settled earlier; nothing re-applied). Counted
    /// even when the tenant has since been evicted — the aggregate
    /// keeps it.
    pub fn note_session_replay(&self, name: &str) {
        if let Ok(tenant) = self.lookup(name) {
            tenant.metrics.note_session_replay();
        }
        self.aggregate.note_session_replay();
    }

    /// Records a duplicate sessioned apply absorbed while the original
    /// was still in flight (no second apply, no second response).
    pub fn note_session_dedup(&self, name: &str) {
        if let Ok(tenant) = self.lookup(name) {
            tenant.metrics.note_session_dedup();
        }
        self.aggregate.note_session_dedup();
    }

    /// The engine-wide aggregate: every tenant's counters summed (and
    /// retained past eviction), lifetime eviction count, live tenant
    /// count, and the pool's resident-byte estimate.
    pub fn global_metrics(&self) -> GlobalSnapshot {
        let tenants = self.tenant_arcs();
        GlobalSnapshot {
            totals: self.aggregate.snapshot(),
            evictions: self.evictions.load(Ordering::SeqCst),
            live_tenants: tenants.len() as u64,
            resident_bytes: tenants
                .iter()
                .map(|t| t.resident_bytes.load(Ordering::Relaxed))
                .sum(),
        }
    }

    /// A tenant's current in-flight batch count.
    pub fn queue_depth(&self, name: &str) -> Result<usize, ServeError> {
        Ok(self.lookup(name)?.gate.depth())
    }

    /// All tenant names, sorted.
    pub fn tenant_names(&self) -> Vec<String> {
        self.tenant_arcs().iter().map(|t| t.name.clone()).collect()
    }

    /// Drains and stops the pool: closes the intake, lets every queued
    /// job complete (resuming paused shards), joins the workers, then
    /// fsyncs each durable tenant's WAL tail. With
    /// [`ServeConfig::drain_kill_after`] armed, the process aborts
    /// mid-drain instead — the crash-harness window.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.closed.store(true, Ordering::SeqCst);
        if self.config.drain_kill_after.is_some() {
            // Budget was pre-loaded at construction; arm the check only
            // now so that jobs completed *before* the drain window never
            // count against it.
            self.drain.armed.store(true, Ordering::SeqCst);
        }
        self.resume();
        for shard in &self.shards {
            shard.close();
        }
        for handle in std::mem::take(&mut self.workers) {
            let _ = handle.join();
        }
        let mut report = ShutdownReport::default();
        for tenant in self.tenant_arcs() {
            report.tenants += 1;
            match tenant.with_backend(|b| b.sync()) {
                Ok(Ok(())) => report.synced += 1,
                Ok(Err(e)) => report
                    .sync_errors
                    .push((tenant.name.clone(), e.to_string())),
                Err(_) => report.poisoned.push(tenant.name.clone()),
            }
        }
        report
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        // A dropped engine (shutdown not called, or called — both reach
        // here) must not leave workers blocked forever on open queues.
        self.closed.store(true, Ordering::SeqCst);
        for shard in &self.shards {
            shard.close();
        }
        for handle in std::mem::take(&mut self.workers) {
            let _ = handle.join();
        }
    }
}
