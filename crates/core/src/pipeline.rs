//! The DynFD maintenance pipeline (paper Figure 1).

use crate::config::ConsistencyLevel;
use crate::diff::diff_covers;
use crate::errors::{panic_detail, DynFdError, DynFdResult};
use crate::failpoint::FailPoint;
use crate::{BatchMetrics, BatchResult, DynFdConfig, ViolationStore};
use dynfd_common::Fd;
use dynfd_lattice::{invert_positive_cover, FdTree};
use dynfd_relation::{
    adaptive_workers, validate_fd, validate_many, validate_many_cached, Batch, DynamicRelation,
    PliCache, ValidationJob, ValidationOptions, ValidationResult,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Memory-pressure level a resource governor may impose on the
/// acceleration layer (the PLI-intersection cache).
///
/// Pressure is *observationally invisible* to the FD semantics: covers,
/// verdicts, and annotation validity are identical at any level (the
/// cache-equivalence guarantee) — only wall-clock time and resident
/// bytes change. Governors (the serve layer's global byte budget) step
/// an engine down through [`Squeezed`](CachePressure::Squeezed) to
/// [`Uncached`](CachePressure::Uncached) before resorting to eviction,
/// and back to [`Normal`](CachePressure::Normal) when pressure clears.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CachePressure {
    /// No pressure: the configured `pli_cache_bytes` applies.
    #[default]
    Normal,
    /// Cache budget clamped to `min(configured, given)` bytes; excess
    /// entries are evicted immediately.
    Squeezed(usize),
    /// Cache dropped entirely; validation runs uncached until pressure
    /// lifts.
    Uncached,
}

/// Maintains the minimal, non-trivial FDs of a relation under batches of
/// inserts, updates, and deletes.
///
/// Construction bootstraps the covers: the positive cover comes from a
/// static HyFD run over the initial tuples (paper Section 2); the
/// negative cover is derived from it by cover inversion (Algorithm 1).
/// From then on, [`DynFd::apply_batch`] *evolves* the covers instead of
/// recomputing them.
///
/// ```
/// use dynfd_core::{DynFd, DynFdConfig};
/// use dynfd_relation::{Batch, DynamicRelation};
/// use dynfd_common::{RecordId, Schema};
///
/// let schema = Schema::of("people", &["firstname", "lastname", "zip", "city"]);
/// let rel = DynamicRelation::from_rows(schema, &[
///     vec!["Max", "Jones", "14482", "Potsdam"],
///     vec!["Max", "Miller", "14482", "Potsdam"],
///     vec!["Max", "Jones", "10115", "Berlin"],
///     vec!["Anna", "Scott", "13591", "Berlin"],
/// ]).unwrap();
/// let mut dynfd = DynFd::new(rel, DynFdConfig::default());
/// assert_eq!(dynfd.minimal_fds().len(), 5); // Figure 2 of the paper
///
/// // The batch of Table 1: delete tuple 3, insert tuples 5 and 6.
/// let mut batch = Batch::new();
/// batch.delete(RecordId(2))
///      .insert(vec!["Marie", "Scott", "14467", "Potsdam"])
///      .insert(vec!["Marie", "Gray", "14469", "Potsdam"]);
/// let result = dynfd.apply_batch(&batch).unwrap();
/// assert!(!result.is_unchanged());
/// ```
#[derive(Clone, Debug)]
pub struct DynFd {
    pub(crate) rel: DynamicRelation,
    /// Positive cover: all minimal, non-trivial FDs.
    pub(crate) fds: FdTree,
    /// Negative cover: all maximal non-FDs.
    pub(crate) non_fds: FdTree,
    /// §5.2 surrogate violations for the negative cover.
    pub(crate) violations: ViolationStore,
    pub(crate) config: DynFdConfig,
    /// One-shot injected fault for the next batch (fault-injection
    /// testing; see `failpoint.rs`). Not part of the engine *state*:
    /// [`DynFd::state_divergence`] ignores it.
    pub(crate) failpoint: Option<FailPoint>,
    /// Memoized PLI intersections reused across candidates and batches
    /// (`DynFdConfig::pli_cache_bytes`). Pure acceleration state derived
    /// from the relation: [`DynFd::state_divergence`] deliberately
    /// ignores it, and it is cleared whenever a batch rolls back.
    pub(crate) pli_cache: PliCache,
    /// Governor-imposed memory pressure on the acceleration layer (see
    /// [`CachePressure`]). Operator bookkeeping like `failpoint`:
    /// [`DynFd::state_divergence`] ignores it.
    cache_pressure: CachePressure,
    /// Lifetime count of degraded-mode cover rebuilds.
    recoveries: u64,
    /// Human-readable description of the most recent consistency breach
    /// that triggered a rebuild.
    last_breach: Option<String>,
}

impl DynFd {
    /// Bootstraps DynFD over `rel`: runs HyFD for the positive cover and
    /// inverts it into the negative cover.
    pub fn new(rel: DynamicRelation, config: DynFdConfig) -> Self {
        let fds = dynfd_static::hyfd::discover(&rel);
        Self::with_cover(rel, fds, config)
    }

    /// Bootstraps DynFD from a pre-profiled positive cover (e.g. loaded
    /// from a metadata store). The cover must be the *exact* set of
    /// minimal, non-trivial FDs of `rel`; the negative cover is derived
    /// via cover inversion (Algorithm 1).
    pub fn with_cover(rel: DynamicRelation, fds: FdTree, config: DynFdConfig) -> Self {
        let non_fds = invert_positive_cover(&fds, rel.arity());
        DynFd {
            rel,
            fds,
            non_fds,
            violations: ViolationStore::new(),
            config,
            failpoint: None,
            pli_cache: PliCache::new(config.pli_cache_bytes),
            cache_pressure: CachePressure::Normal,
            recoveries: 0,
            last_breach: None,
        }
    }

    /// Reassembles an engine from previously saved state: the relation,
    /// the positive cover, and the §5.2 violation annotations. The
    /// negative cover is derived by inversion (Algorithm 1), as in
    /// [`DynFd::with_cover`]; since the maintained negative cover always
    /// equals that inversion, the result is structurally identical
    /// ([`DynFd::state_eq`]) to the instance the state was read from.
    /// This is the restore path of the durable engine (`dynfd-persist`);
    /// the caller vouches that the parts belong together (snapshot
    /// checksums guard the transport).
    ///
    /// Acceleration state (the PLI-intersection cache) and recovery
    /// statistics start empty — they are derived/operator data that
    /// [`DynFd::state_divergence`] deliberately ignores.
    pub fn from_saved_state(
        rel: DynamicRelation,
        fds: FdTree,
        annotations: &[(Fd, (dynfd_common::RecordId, dynfd_common::RecordId))],
        config: DynFdConfig,
    ) -> Self {
        let mut engine = Self::with_cover(rel, fds, config);
        for &(fd, pair) in annotations {
            engine.violations.attach(fd, pair);
        }
        engine
    }

    /// The maintained relation.
    pub fn relation(&self) -> &DynamicRelation {
        &self.rel
    }

    /// The current minimal, non-trivial FDs, sorted deterministically.
    pub fn minimal_fds(&self) -> Vec<Fd> {
        self.fds.all_fds()
    }

    /// The positive cover (all minimal FDs) as a prefix tree.
    pub fn positive_cover(&self) -> &FdTree {
        &self.fds
    }

    /// The negative cover (all maximal non-FDs) as a prefix tree.
    pub fn negative_cover(&self) -> &FdTree {
        &self.non_fds
    }

    /// The active configuration.
    pub fn config(&self) -> &DynFdConfig {
        &self.config
    }

    /// Approximate resident bytes of this engine: the relation's
    /// columnar arena, dictionaries, and PLIs plus the PLI-intersection
    /// cache. The estimate is monotone in the real footprint (see
    /// `DynamicRelation::approx_bytes`), which is what byte quotas need.
    pub fn resident_bytes(&self) -> usize {
        self.rel.approx_bytes() + self.pli_cache.bytes()
    }

    /// The memory pressure currently imposed on the acceleration layer.
    pub fn cache_pressure(&self) -> CachePressure {
        self.cache_pressure
    }

    /// Imposes (or lifts) memory pressure on the acceleration layer.
    /// Takes effect immediately — a squeeze evicts down to the clamped
    /// budget, [`CachePressure::Uncached`] drops the cache — and stays
    /// in force for subsequent batches until reset to
    /// [`CachePressure::Normal`]. Covers and verdicts are unaffected;
    /// batches applied under pressure stamp
    /// [`BatchMetrics::degraded_batches`].
    pub fn set_cache_pressure(&mut self, pressure: CachePressure) {
        self.cache_pressure = pressure;
        match pressure {
            CachePressure::Normal => {
                self.pli_cache.set_budget(self.config.pli_cache_bytes);
            }
            CachePressure::Squeezed(bytes) => {
                self.pli_cache
                    .set_budget(bytes.min(self.config.pli_cache_bytes));
            }
            CachePressure::Uncached => self.pli_cache.clear(),
        }
    }

    /// Whether the PLI-intersection cache is active for the next batch:
    /// configured with a non-zero budget *and* not suppressed by
    /// governor pressure.
    pub fn cache_enabled(&self) -> bool {
        self.config.pli_cache_bytes > 0 && self.cache_pressure != CachePressure::Uncached
    }

    /// The cache byte budget the next batch will run under (the
    /// configured budget clamped by any squeeze).
    fn effective_cache_budget(&self) -> usize {
        match self.cache_pressure {
            CachePressure::Squeezed(bytes) => bytes.min(self.config.pli_cache_bytes),
            _ => self.config.pli_cache_bytes,
        }
    }

    /// Number of §5.2 violation annotations currently cached.
    pub fn annotation_count(&self) -> usize {
        self.violations.len()
    }

    /// The §5.2 violation annotations, deterministically sorted (used by
    /// the parallel-determinism tests to compare runs).
    pub fn violation_annotations(
        &self,
    ) -> Vec<(Fd, (dynfd_common::RecordId, dynfd_common::RecordId))> {
        self.violations.sorted_annotations()
    }

    /// Processes one batch of change operations and returns the delta of
    /// the minimal FD set (paper Figure 1, steps 1–4).
    ///
    /// The call is **transactional**: on any error — a batch-validation
    /// rejection (unknown or duplicate record, arity mismatch, null
    /// value, dictionary overflow), an internal invariant breach, or a
    /// panic inside a maintenance phase (caught at this boundary) — the
    /// relation, both covers, and the violation annotations are rolled
    /// back to their exact pre-batch state, and the typed
    /// [`DynFdError`] tells the caller why. The engine stays fully
    /// usable; retrying or skipping the batch are both sound.
    pub fn apply_batch(&mut self, batch: &Batch) -> DynFdResult<BatchResult> {
        let start = Instant::now();
        let before = self.fds.all_fds();

        // Step 1: update the data structures. Pre-validation inside the
        // relation makes this atomic on rejection; the undo log makes it
        // reversible if steps 2–3 fail later.
        let (applied, undo) = self.rel.apply_batch_logged(batch)?;
        let mut metrics = BatchMetrics {
            inserts: applied.inserted.len(),
            deletes: applied.deleted.len(),
            ..BatchMetrics::default()
        };

        // Keep the memoized PLI intersections aligned with the post-batch
        // relation before any phase probes them; counters are read as a
        // delta at the end so patch-time evictions are included.
        let cache_stats_before = self.pli_cache.stats();
        if self.cache_enabled() {
            self.pli_cache.set_budget(self.effective_cache_budget());
            self.pli_cache
                .apply_batch(&self.rel, &applied.deleted, &applied.inserted);
        } else if !self.pli_cache.is_empty() {
            self.pli_cache.clear();
        }
        if self.config.pli_cache_bytes > 0 && self.cache_pressure != CachePressure::Normal {
            metrics.degraded_batches = 1;
        }

        if applied.has_deletes() || applied.has_inserts() {
            // Snapshot the cover state the maintenance phases mutate.
            let fds_snapshot = self.fds.clone();
            let non_fds_snapshot = self.non_fds.clone();
            let violations_snapshot = self.violations.clone();

            // Deleted records invalidate their §5.2 annotations; the
            // affected non-FDs will answer "needs validation" in the
            // delete phase.
            self.violations.purge_records(&applied.deleted);

            // Step 2: deletes first (Section 2 explains the ordering),
            // then Step 3: inserts. Both phases fan their candidate
            // validations out over the configured worker budget; each is
            // guarded so that a panic anywhere inside it — including in
            // a validation worker, whose payload the join re-raises on
            // this thread — becomes a typed error.
            metrics.threads_used = self.config.effective_parallelism();
            let mut outcome: DynFdResult<()> = Ok(());
            if applied.has_deletes() {
                let phase = Instant::now();
                outcome = guard_phase("delete-phase", || {
                    self.process_deletes(&applied, &mut metrics)
                });
                metrics.delete_phase_time = phase.elapsed();
            }
            if outcome.is_ok() && applied.has_inserts() {
                let phase = Instant::now();
                outcome = guard_phase("insert-phase", || {
                    self.process_inserts(&applied, &mut metrics)
                });
                metrics.insert_phase_time = phase.elapsed();
            }

            if let Err(e) = outcome {
                self.fds = fds_snapshot;
                self.non_fds = non_fds_snapshot;
                self.violations = violations_snapshot;
                self.rel.rollback(undo);
                // The cache was already patched to the state this
                // rollback just threw away; drop it rather than trying
                // to un-patch.
                self.pli_cache.clear();
                return Err(e);
            }
        }

        // Degraded mode: if the configured self-check finds the covers
        // corrupted, fall back to a from-scratch rebuild rather than
        // serving wrong metadata. The batch itself still succeeded — the
        // relation is correct — so this surfaces through metrics, not an
        // error.
        if let Some(breach) = self.consistency_breach() {
            self.rebuild_covers();
            metrics.cover_rebuilds += 1;
            self.recoveries += 1;
            self.last_breach = Some(breach);
        }

        // Step 4: signal the changed FDs.
        let after = self.fds.all_fds();
        let (added, removed) = diff_covers(&before, &after);
        metrics.added_fds = added.len();
        metrics.removed_fds = removed.len();
        let cache_delta = self.pli_cache.stats().delta_since(&cache_stats_before);
        metrics.cache_hits = cache_delta.hits;
        metrics.cache_misses = cache_delta.misses;
        metrics.cache_evictions = cache_delta.evictions;
        metrics.cache_bytes = self.pli_cache.bytes();
        metrics.wall_time = start.elapsed();
        Ok(BatchResult {
            added,
            removed,
            metrics,
        })
    }

    /// Runs one lattice level's validation jobs — the single executor
    /// both phases use. The worker count is resolved once from the
    /// configured budget and the small-level sequential fallback
    /// (`DynFdConfig::parallel_min_jobs`); the jobs then run through the
    /// PLI-intersection cache when enabled
    /// (`DynFdConfig::pli_cache_bytes` > 0), plain otherwise. Results
    /// come back in job order.
    pub(crate) fn run_level_validations(
        &mut self,
        jobs: &[ValidationJob],
        opts: &ValidationOptions,
    ) -> Vec<ValidationResult> {
        let workers = adaptive_workers(
            self.config.effective_parallelism(),
            jobs.len(),
            self.config.parallel_min_jobs,
        );
        if self.cache_enabled() {
            validate_many_cached(&self.rel, jobs, opts, workers, &mut self.pli_cache)
        } else {
            validate_many(&self.rel, jobs, opts, workers)
        }
    }

    /// Lifetime count of degraded-mode cover rebuilds (see
    /// [`BatchMetrics::cover_rebuilds`] for the per-batch view).
    pub fn recovery_count(&self) -> u64 {
        self.recoveries
    }

    /// Description of the most recent consistency breach that triggered
    /// a degraded-mode rebuild, if any.
    pub fn last_breach(&self) -> Option<&str> {
        self.last_breach.as_deref()
    }

    /// Rebuilds both covers from scratch: a static HyFD run over the
    /// current relation for the positive cover, inversion (Algorithm 1)
    /// for the negative cover, and a cleared annotation store. This is
    /// the degraded-mode fallback — expensive but always correct.
    pub fn rebuild_covers(&mut self) {
        self.fds = dynfd_static::hyfd::discover(&self.rel);
        self.non_fds = invert_positive_cover(&self.fds, self.rel.arity());
        self.violations.clear();
    }

    /// Runs the configured post-batch self-check and describes the first
    /// breach found, if any.
    fn consistency_breach(&self) -> Option<String> {
        match self.config.consistency {
            ConsistencyLevel::Off => None,
            ConsistencyLevel::Cheap => {
                if !self.fds.is_antichain() {
                    return Some("positive cover is not an antichain".into());
                }
                if !self.non_fds.is_antichain() {
                    return Some("negative cover is not an antichain".into());
                }
                if invert_positive_cover(&self.fds, self.rel.arity()) != self.non_fds {
                    return Some(
                        "negative cover diverged from the inversion of the positive cover".into(),
                    );
                }
                None
            }
            ConsistencyLevel::Full => self.verify_consistency().err(),
        }
    }

    /// Compares the *engine state* of two instances — relation (PLIs,
    /// dictionaries, record index, id counter), both covers, and the
    /// violation annotations — and describes the first divergence found.
    /// Configuration, armed failpoints, and recovery statistics are
    /// deliberately excluded: they are operator-facing bookkeeping, not
    /// maintained state. This is the structural oracle behind the
    /// rollback-atomicity guarantees.
    pub fn state_divergence(&self, other: &DynFd) -> Option<String> {
        if self.rel != other.rel {
            return Some("relation diverged (PLIs, dictionaries, records, or id counter)".into());
        }
        if self.fds != other.fds {
            return Some("positive cover diverged".into());
        }
        if self.non_fds != other.non_fds {
            return Some("negative cover diverged".into());
        }
        if self.violations != other.violations {
            return Some("violation annotations diverged".into());
        }
        None
    }

    /// Whether two instances hold structurally identical engine state
    /// (see [`DynFd::state_divergence`]).
    pub fn state_eq(&self, other: &DynFd) -> bool {
        self.state_divergence(other).is_none()
    }

    /// Compares the *logical* state of two instances — relation and both
    /// covers — and describes the first divergence found.
    ///
    /// Unlike [`DynFd::state_divergence`] this deliberately excludes the
    /// §5.2 violation annotations: witness pairs are surrogate
    /// accelerators whose exact choice depends on pivot order and the
    /// PLI-intersection cache state (see `dynfd_relation::validate`), so
    /// two engines that took different paths to the same logical state —
    /// e.g. a crash-recovered engine with a cold cache versus an
    /// uninterrupted run — may hold different (equally valid) pairs.
    /// Pair validity is checked separately by
    /// [`DynFd::verify_annotations`].
    pub fn logical_divergence(&self, other: &DynFd) -> Option<String> {
        if self.rel != other.rel {
            return Some("relation diverged (PLIs, dictionaries, records, or id counter)".into());
        }
        if self.fds != other.fds {
            return Some("positive cover diverged".into());
        }
        if self.non_fds != other.non_fds {
            return Some("negative cover diverged".into());
        }
        None
    }

    /// Checks that every cached §5.2 violation annotation references two
    /// live records that genuinely violate their non-FD. O(annotations)
    /// — cheap enough for production assertions, unlike
    /// [`DynFd::verify_consistency`].
    pub fn verify_annotations(&self) -> std::result::Result<(), String> {
        for nf in self.non_fds.all_fds() {
            if let Some((a, b)) = crate::ViolationStore::get(&self.violations, &nf) {
                let (Some(ra), Some(rb)) = (self.rel.compressed(a), self.rel.compressed(b)) else {
                    return Err(format!("annotation of {nf:?} references dead records"));
                };
                let agrees_on_lhs = nf.lhs.iter().all(|x| ra[x] == rb[x]);
                if !agrees_on_lhs || ra[nf.rhs] == rb[nf.rhs] {
                    return Err(format!("annotation of {nf:?} is not a violating pair"));
                }
            }
        }
        Ok(())
    }

    /// Exhaustively checks the internal invariants against the current
    /// relation state (test oracle; exponential in arity — never call on
    /// wide relations):
    ///
    /// * every positive-cover FD is valid and minimal;
    /// * every negative-cover non-FD is invalid and maximal;
    /// * the negative cover equals the inversion of the positive cover;
    /// * every cached violation annotation references two live records
    ///   that genuinely violate their non-FD.
    pub fn verify_consistency(&self) -> std::result::Result<(), String> {
        let full = ValidationOptions::full();
        if !self.fds.is_antichain() {
            return Err("positive cover is not an antichain".into());
        }
        if !self.non_fds.is_antichain() {
            return Err("negative cover is not an antichain".into());
        }
        for fd in self.fds.all_fds() {
            if !validate_fd(&self.rel, &fd, &full).is_valid() {
                return Err(format!("positive cover holds invalid FD {fd:?}"));
            }
            for gen in fd.direct_generalizations() {
                if validate_fd(&self.rel, &gen, &full).is_valid() {
                    return Err(format!("{fd:?} is not minimal: {gen:?} holds"));
                }
            }
        }
        for nf in self.non_fds.all_fds() {
            if validate_fd(&self.rel, &nf, &full).is_valid() {
                return Err(format!("negative cover holds valid FD {nf:?}"));
            }
            for spec in nf.direct_specializations(self.rel.arity()) {
                if !validate_fd(&self.rel, &spec, &full).is_valid() {
                    return Err(format!("{nf:?} is not maximal: {spec:?} is also invalid"));
                }
            }
        }
        let inverted = invert_positive_cover(&self.fds, self.rel.arity());
        if inverted != self.non_fds {
            return Err(format!(
                "negative cover diverged from inversion: have {:?}, want {:?}",
                self.non_fds.all_fds(),
                inverted.all_fds()
            ));
        }
        self.verify_annotations()
    }
}

/// Runs one maintenance phase with a panic boundary: a panic anywhere
/// inside `f` — the coordinating thread or a validation worker (whose
/// payload `parallel.rs` re-raises on join) — is converted into
/// [`DynFdError::PhasePanicked`] so `apply_batch` can roll back.
///
/// `AssertUnwindSafe` is justified by what the caller does with an
/// `Err`: every structure the closure may have half-mutated (covers,
/// violation store, relation) is discarded and restored from the
/// snapshot/undo log, so no broken invariant survives the unwind.
fn guard_phase<F>(phase: &'static str, f: F) -> DynFdResult<()>
where
    F: FnOnce() -> DynFdResult<()>,
{
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(DynFdError::PhasePanicked {
            phase,
            detail: panic_detail(payload.as_ref()),
        }),
    }
}
