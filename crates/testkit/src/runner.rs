//! The differential runner.
//!
//! For each pruning configuration, the runner replays a [`Trace`]
//! through [`DynFd`] and checks, after the bootstrap and after every
//! batch, that the maintained positive cover equals what every static
//! oracle (TANE, FDEP, HyFD) discovers from scratch on the materialized
//! relation — the paper's central claim (§1: maintained covers are
//! *exactly* what a static re-run would find).
//!
//! On top of the oracle checks it verifies four **metamorphic
//! invariants** that need no oracle at all:
//!
//! 1. **cover-inversion round-trip** (Algorithm 1): the maintained
//!    negative cover equals the inversion of the positive cover, and
//!    inducing a positive cover back from it returns the original;
//! 2. **batch-splitting equivalence**: replaying the same resolved op
//!    stream in batches of 1 (and of `2 × batch_size`) lands on the
//!    identical covers;
//! 3. **row-permutation invariance**: FD covers are a function of the
//!    row *multiset* — bootstrapping a fresh instance over the final
//!    rows in permuted order reproduces the maintained cover;
//! 4. **insert-then-delete round-trip**: inserting a wave of rows and
//!    deleting exactly those rows again restores both covers.
//!
//! A [`CoverFault`] can be injected to perturb the cover the checks
//! observe — the test suite uses this to demonstrate end to end that a
//! cover bug is caught and shrunk to a minimal repro.
//!
//! An [`EngineFault`] goes further and attacks the *engine itself* while
//! the differential checks keep running: poisoned batches that must be
//! rejected atomically, mid-batch panics injected at seeded points via
//! the engine's failpoints (the batch must roll back bit-identically and
//! succeed on retry), and silent cover corruption that the degraded-mode
//! consistency check must detect and repair before the oracles look.

use crate::Trace;
use dynfd_core::{ConsistencyLevel, DynFd, DynFdConfig, FailAction, FailPhase, FailPoint};
use dynfd_lattice::{induce_from_negative_cover, invert_positive_cover, FdTree};
use dynfd_relation::{Batch, ChangeOp, DynamicRelation};
use dynfd_static::Oracle;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt;

/// A deliberate perturbation of the observed positive cover, used to
/// prove the harness catches cover bugs (and to exercise the shrinker).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoverFault {
    /// Drop the deterministically-first FD from every non-empty cover
    /// observation — models a lost minimal FD.
    DropFirstFd,
    /// Add a fabricated specialization of the first FD — models a
    /// non-minimal (or plain wrong) FD surviving in the cover.
    AddBogusFd,
}

impl CoverFault {
    /// Applies the fault to an observed cover.
    pub fn apply(self, cover: &FdTree, arity: usize) -> FdTree {
        let fds = cover.all_fds();
        let Some(first) = fds.first() else {
            return cover.clone();
        };
        let mut faulted = cover.clone();
        match self {
            CoverFault::DropFirstFd => {
                faulted.remove(first.lhs, first.rhs);
            }
            CoverFault::AddBogusFd => {
                if let Some(extra) = (0..arity).find(|&a| a != first.rhs && !first.lhs.contains(a))
                {
                    faulted.add(first.lhs.with(extra), first.rhs);
                }
            }
        }
        faulted
    }
}

/// A fault-injection mode that attacks the engine itself while the
/// differential checks keep running (see the module docs). Injection
/// points are drawn from a ChaCha8 stream keyed on the trace seed, so a
/// `(trace, mode)` pair always injects at the same batches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineFault {
    /// Before selected batches, first submit a *poisoned* variant (an
    /// unknown-record delete, an arity-mismatched insert, or a
    /// double-delete appended to the real ops). The engine must reject
    /// it with a typed [`DynFdError`](dynfd_core::DynFdError) rejection
    /// and leave the instance structurally identical to a pre-batch
    /// clone; the clean batch then applies normally.
    PoisonedBatches,
    /// Arm a [`FailAction::Panic`] failpoint at a seeded validation
    /// count before selected batches. If it trips, the error must be
    /// `PhasePanicked`, the instance must equal its pre-batch clone, and
    /// the retried batch must succeed — after which the ordinary oracle
    /// checks take over.
    MidBatchPanic,
    /// Arm a [`FailAction::DropCoverFd`] failpoint before selected
    /// batches and force [`ConsistencyLevel::Cheap`] on every replay
    /// config: the degraded-mode rebuild must repair the planted
    /// corruption before the oracles look (a surviving corruption fails
    /// the very next oracle comparison).
    CoverCorruption,
}

impl EngineFault {
    /// All modes, in the order the fuzz binary cycles through them.
    pub const ALL: [EngineFault; 3] = [
        EngineFault::PoisonedBatches,
        EngineFault::MidBatchPanic,
        EngineFault::CoverCorruption,
    ];

    /// The mode's name as used on the fuzz CLI and in reports.
    pub fn name(self) -> &'static str {
        match self {
            EngineFault::PoisonedBatches => "poisoned-batches",
            EngineFault::MidBatchPanic => "mid-batch-panic",
            EngineFault::CoverCorruption => "cover-corruption",
        }
    }

    /// Looks a mode up by its [`EngineFault::name`].
    pub fn by_name(name: &str) -> Option<EngineFault> {
        EngineFault::ALL.iter().copied().find(|m| m.name() == name)
    }
}

/// What the runner checks and under which configurations.
#[derive(Clone, Debug)]
pub struct RunnerOptions {
    /// Pruning configurations to replay under (default: the full §6.5
    /// ablation matrix crossed with the PLI-cache axis, 32
    /// configurations).
    pub configs: Vec<DynFdConfig>,
    /// Static oracles to compare against (default: all three).
    pub oracles: Vec<Oracle>,
    /// Whether to run the replay-based metamorphic checks (batch
    /// splitting, permutation, insert/delete round-trip). The
    /// cover-inversion round-trip is cheap and always on.
    pub metamorphic: bool,
    /// Optional injected cover fault (see [`CoverFault`]).
    pub fault: Option<CoverFault>,
    /// Optional engine fault-injection mode (see [`EngineFault`]).
    pub engine_fault: Option<EngineFault>,
}

impl Default for RunnerOptions {
    fn default() -> Self {
        RunnerOptions {
            configs: DynFdConfig::ablation_matrix(),
            oracles: Oracle::ALL.to_vec(),
            metamorphic: true,
            fault: None,
            engine_fault: None,
        }
    }
}

impl RunnerOptions {
    /// A reduced-cost variant for shrinking: one config (the one that
    /// failed), all oracles, metamorphic checks on.
    pub fn focused(config: DynFdConfig, fault: Option<CoverFault>) -> Self {
        RunnerOptions {
            configs: vec![config],
            oracles: Oracle::ALL.to_vec(),
            metamorphic: true,
            fault,
            engine_fault: None,
        }
    }
}

/// Work counters for one fully-checked trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Configurations replayed.
    pub configs: usize,
    /// Batches applied across all primary replays.
    pub batches: usize,
    /// Static-oracle cover comparisons performed.
    pub oracle_checks: usize,
    /// Metamorphic invariant checks performed (all four kinds).
    pub metamorphic_checks: usize,
    /// Engine faults injected (poisoned batches submitted, failpoints
    /// armed).
    pub faults_injected: usize,
    /// Failed or rejected batches verified to have rolled back to a
    /// structurally identical pre-batch state.
    pub rollbacks_verified: usize,
    /// Degraded-mode cover rebuilds observed (from
    /// `BatchMetrics::cover_rebuilds`).
    pub cover_rebuilds: usize,
}

impl TraceStats {
    /// Accumulates another trace's counters.
    pub fn absorb(&mut self, other: &TraceStats) {
        self.configs += other.configs;
        self.batches += other.batches;
        self.oracle_checks += other.oracle_checks;
        self.metamorphic_checks += other.metamorphic_checks;
        self.faults_injected += other.faults_injected;
        self.rollbacks_verified += other.rollbacks_verified;
        self.cover_rebuilds += other.cover_rebuilds;
    }
}

/// A failed check, with enough context to report and reproduce it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceFailure {
    /// Check identifier, e.g. `oracle:tane`,
    /// `metamorphic:batch-splitting`, `consistency`.
    pub check: String,
    /// Strategy label of the configuration that failed.
    pub config: String,
    /// Batch index after which the check failed (`None` = bootstrap or
    /// end-of-trace check).
    pub batch: Option<usize>,
    /// Expected cover (or invariant side), rendered FDs.
    pub expected: Vec<String>,
    /// Actual cover, rendered FDs.
    pub actual: Vec<String>,
}

impl fmt::Display for TraceFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} failed (config {}, batch {}): expected {:?}, got {:?}",
            self.check,
            self.config,
            self.batch.map_or("-".to_string(), |b| b.to_string()),
            self.expected,
            self.actual
        )
    }
}

fn render(tree: &FdTree) -> Vec<String> {
    tree.all_fds().iter().map(|fd| fd.to_string()).collect()
}

fn fail(
    check: impl Into<String>,
    config: &DynFdConfig,
    batch: Option<usize>,
    expected: &FdTree,
    actual: &FdTree,
) -> Box<TraceFailure> {
    Box::new(TraceFailure {
        check: check.into(),
        config: config.strategy_label(),
        batch,
        expected: render(expected),
        actual: render(actual),
    })
}

/// Replays `trace` under every configuration in `opts` and runs the
/// differential and metamorphic checks. Returns work counters on success
/// and the first failure otherwise.
pub fn check_trace(trace: &Trace, opts: &RunnerOptions) -> Result<TraceStats, Box<TraceFailure>> {
    if opts.engine_fault == Some(EngineFault::MidBatchPanic) {
        silence_injected_panics();
    }
    let mut stats = TraceStats::default();
    let ops = trace.to_change_ops();
    let batches = Batch::chunk(ops.clone(), trace.batch_size);
    let arity = trace.arity();

    for config in &opts.configs {
        stats.configs += 1;
        let mut config = *config;
        if opts.engine_fault == Some(EngineFault::CoverCorruption) {
            // The degraded-mode repair path only runs when a per-batch
            // consistency check is on; the cheap one suffices to detect
            // the planted antichain/inversion drift.
            config.consistency = ConsistencyLevel::Cheap;
        }
        let mut dynfd = DynFd::new(trace.to_relation(), config);
        // Injection points are a deterministic function of the trace
        // seed: the same trace injects at the same batches on replay.
        let mut frng = ChaCha8Rng::seed_from_u64(trace.seed ^ 0xFA01_7BAD);

        // Bootstrap check, then one check per batch.
        check_covers(&dynfd, &config, None, opts, arity, &mut stats)?;
        for (i, batch) in batches.iter().enumerate() {
            let result =
                apply_with_faults(&mut dynfd, &config, batch, i, opts, &mut frng, &mut stats)?;
            stats.cover_rebuilds += result.metrics.cover_rebuilds;
            stats.batches += 1;
            // Arena bookkeeping check: slot↔rid maps, the free-list
            // partition, and rid-sorted PLI clusters must survive every
            // batch. Cheap at fuzz sizes, and the only check that sees
            // the *physical* layout (slot-churn traces exist to hammer
            // this).
            if let Err(e) = dynfd.relation().check_arena_invariants() {
                return Err(Box::new(TraceFailure {
                    check: format!("arena-invariants:{e}"),
                    config: config.strategy_label(),
                    batch: Some(i),
                    expected: Vec::new(),
                    actual: Vec::new(),
                }));
            }
            check_covers(&dynfd, &config, Some(i), opts, arity, &mut stats)?;
        }
        // An armed failpoint whose condition was never reached must not
        // leak into the metamorphic replays below.
        dynfd.disarm_failpoint();

        // Deep invariant check on the final state (exponential in arity,
        // fine at fuzzing sizes). Skipped under an injected cover fault:
        // the fault perturbs observations, not internal state.
        if opts.fault.is_none() {
            if let Err(e) = dynfd.verify_consistency() {
                return Err(Box::new(TraceFailure {
                    check: format!("consistency:{e}"),
                    config: config.strategy_label(),
                    batch: None,
                    expected: Vec::new(),
                    actual: render(dynfd.positive_cover()),
                }));
            }
        }

        if opts.metamorphic {
            metamorphic_checks(trace, &dynfd, &config, &ops, opts, &mut stats)?;
        }
    }
    Ok(stats)
}

/// Installs (once, process-wide) a panic hook that suppresses the
/// default backtrace printing for *injected failpoint* panics — they are
/// expected, caught at the engine's transactional boundary, and would
/// otherwise flood fuzz logs — while delegating every other panic to the
/// previous hook unchanged.
pub fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .is_some_and(|s| s.starts_with("injected failpoint"));
            if !injected {
                prev(info);
            }
        }));
    });
}

/// One failure report for a violated fault-injection contract.
fn fault_failure(
    check: impl Into<String>,
    config: &DynFdConfig,
    batch: usize,
    detail: String,
) -> Box<TraceFailure> {
    Box::new(TraceFailure {
        check: check.into(),
        config: config.strategy_label(),
        batch: Some(batch),
        expected: Vec::new(),
        actual: vec![detail],
    })
}

/// Applies one batch, optionally preceded by an engine-fault injection
/// (see [`EngineFault`]); verifies the rejection/rollback contracts and
/// returns the clean application's result.
fn apply_with_faults(
    dynfd: &mut DynFd,
    config: &DynFdConfig,
    batch: &Batch,
    i: usize,
    opts: &RunnerOptions,
    frng: &mut ChaCha8Rng,
    stats: &mut TraceStats,
) -> Result<dynfd_core::BatchResult, Box<TraceFailure>> {
    use dynfd_core::DynFdError;

    let inject = opts.engine_fault.is_some() && frng.gen_bool(0.6);
    match opts.engine_fault {
        Some(EngineFault::PoisonedBatches) if inject => {
            stats.faults_injected += 1;
            let pre = dynfd.clone();
            let poisoned = poison_batch(batch, dynfd, frng);
            match dynfd.apply_batch(&poisoned) {
                Err(e) if e.is_rejection() => {}
                Err(e) => {
                    return Err(fault_failure(
                        "fault:poison-wrong-error",
                        config,
                        i,
                        e.to_string(),
                    ))
                }
                Ok(_) => {
                    return Err(fault_failure(
                        "fault:poison-accepted",
                        config,
                        i,
                        "poisoned batch applied without error".into(),
                    ))
                }
            }
            if let Some(divergence) = dynfd.state_divergence(&pre) {
                return Err(fault_failure(
                    "fault:poison-rollback",
                    config,
                    i,
                    divergence,
                ));
            }
            stats.rollbacks_verified += 1;
        }
        Some(EngineFault::MidBatchPanic) if inject => {
            stats.faults_injected += 1;
            let pre = dynfd.clone();
            let phase = if frng.gen_bool(0.5) {
                FailPhase::DeletePhase
            } else {
                FailPhase::InsertPhase
            };
            dynfd.arm_failpoint(FailPoint {
                phase,
                after_validations: frng.gen_range(0usize..6),
                action: FailAction::Panic,
            });
            match dynfd.apply_batch(batch) {
                Ok(result) => {
                    // The seeded point lay beyond the phase's validation
                    // count — the failpoint never tripped and the batch
                    // applied cleanly on the first try.
                    dynfd.disarm_failpoint();
                    return Ok(result);
                }
                Err(DynFdError::PhasePanicked { .. }) => {
                    if let Some(divergence) = dynfd.state_divergence(&pre) {
                        return Err(fault_failure("fault:panic-rollback", config, i, divergence));
                    }
                    stats.rollbacks_verified += 1;
                    // Fall through: the retry below must succeed.
                }
                Err(e) => {
                    return Err(fault_failure(
                        "fault:panic-wrong-error",
                        config,
                        i,
                        e.to_string(),
                    ))
                }
            }
        }
        Some(EngineFault::CoverCorruption) if inject => {
            stats.faults_injected += 1;
            let phase = if frng.gen_bool(0.5) {
                FailPhase::DeletePhase
            } else {
                FailPhase::InsertPhase
            };
            dynfd.arm_failpoint(FailPoint {
                phase,
                after_validations: 0,
                action: FailAction::DropCoverFd,
            });
            // The corruption (if the phase runs) is detected and repaired
            // inside apply_batch by the per-batch consistency check; the
            // oracle comparison right after the apply catches anything
            // that slips through.
        }
        _ => {}
    }

    let result = dynfd.apply_batch(batch).map_err(|e| {
        Box::new(TraceFailure {
            check: format!("apply:{e}"),
            config: config.strategy_label(),
            batch: Some(i),
            expected: Vec::new(),
            actual: Vec::new(),
        })
    })?;
    // A CoverCorruption failpoint targeting a phase this batch never ran
    // stays armed; drop it so it cannot fire at an unchecked moment.
    dynfd.disarm_failpoint();
    Ok(result)
}

/// Builds a copy of `batch` with one invalid op appended — an
/// unknown-record delete, an arity-mismatched insert, or a duplicate
/// delete of a live record already deleted by the same batch.
fn poison_batch(batch: &Batch, dynfd: &DynFd, frng: &mut ChaCha8Rng) -> Batch {
    let mut ops = batch.ops().to_vec();
    let arity = dynfd.relation().arity();
    // Past every id this batch's own inserts could create — a delete of
    // an id the batch itself assigns would be a *legal* deferred delete.
    let unknown = dynfd_common::RecordId(
        dynfd.relation().next_id().0 + batch.len() as u64 + 1 + frng.gen_range(0u64..1000),
    );
    match frng.gen_range(0u32..3) {
        0 => ops.push(ChangeOp::Delete(unknown)),
        1 => ops.push(ChangeOp::Insert(vec!["x".to_string(); arity + 1])),
        _ => match dynfd.relation().record_ids().next() {
            Some(rid) => {
                ops.push(ChangeOp::Delete(rid));
                ops.push(ChangeOp::Delete(rid));
            }
            // Empty relation: fall back to an unknown-record delete.
            None => ops.push(ChangeOp::Delete(unknown)),
        },
    }
    Batch::from_ops(ops)
}

/// The per-state checks: oracle comparisons plus the cover-inversion
/// round-trip (metamorphic invariant 1).
fn check_covers(
    dynfd: &DynFd,
    config: &DynFdConfig,
    batch: Option<usize>,
    opts: &RunnerOptions,
    arity: usize,
    stats: &mut TraceStats,
) -> Result<(), Box<TraceFailure>> {
    let observed = match opts.fault {
        Some(fault) => fault.apply(dynfd.positive_cover(), arity),
        None => dynfd.positive_cover().clone(),
    };

    for oracle in &opts.oracles {
        stats.oracle_checks += 1;
        let want = oracle.discover(dynfd.relation());
        if observed != want {
            return Err(fail(
                format!("oracle:{}", oracle.name()),
                config,
                batch,
                &want,
                &observed,
            ));
        }
    }

    // Invariant 1: positive ↔ negative cover inversion round-trip
    // (Algorithm 1 forward, classic dependency induction backward).
    stats.metamorphic_checks += 1;
    let inverted = invert_positive_cover(&observed, arity);
    if &inverted != dynfd.negative_cover() {
        return Err(fail(
            "metamorphic:inversion",
            config,
            batch,
            &inverted,
            dynfd.negative_cover(),
        ));
    }
    let induced = induce_from_negative_cover(&inverted, arity);
    if induced != observed {
        return Err(fail(
            "metamorphic:inversion-roundtrip",
            config,
            batch,
            &observed,
            &induced,
        ));
    }
    Ok(())
}

/// Metamorphic invariants 2–4 (replay-based).
fn metamorphic_checks(
    trace: &Trace,
    dynfd: &DynFd,
    config: &DynFdConfig,
    ops: &[dynfd_relation::ChangeOp],
    opts: &RunnerOptions,
    stats: &mut TraceStats,
) -> Result<(), Box<TraceFailure>> {
    let arity = trace.arity();
    let observe = |tree: &FdTree| match opts.fault {
        Some(fault) => fault.apply(tree, arity),
        None => tree.clone(),
    };
    let final_pos = observe(dynfd.positive_cover());
    let final_neg = dynfd.negative_cover();

    // Invariant 2: batch-splitting equivalence. The resolved op stream is
    // batching-invariant by construction, so any re-chunking must land on
    // the same covers.
    for split in [1, (trace.batch_size * 2).max(2)] {
        if split == trace.batch_size {
            continue;
        }
        stats.metamorphic_checks += 1;
        let mut alt = DynFd::new(trace.to_relation(), *config);
        for batch in Batch::chunk(ops.to_vec(), split) {
            alt.apply_batch(&batch).expect("re-chunked trace replays");
        }
        let alt_pos = observe(alt.positive_cover());
        if alt_pos != final_pos {
            return Err(fail(
                format!("metamorphic:batch-splitting(k={split})"),
                config,
                None,
                &final_pos,
                &alt_pos,
            ));
        }
        if alt.negative_cover() != final_neg {
            return Err(fail(
                format!("metamorphic:batch-splitting-negative(k={split})"),
                config,
                None,
                final_neg,
                alt.negative_cover(),
            ));
        }
    }

    // Invariant 3: row-permutation invariance. Covers are a function of
    // the row multiset; bootstrap a fresh instance over the final rows in
    // a different order.
    stats.metamorphic_checks += 1;
    let rel = dynfd.relation();
    let mut rows: Vec<Vec<String>> = rel
        .record_ids()
        .map(|rid| rel.materialize(rid).expect("live record materializes"))
        .collect();
    rows.reverse();
    let third = rows.len() / 3;
    if rows.len() > 2 {
        rows.rotate_left(third);
    }
    let permuted = DynamicRelation::from_rows(trace.schema.clone(), &rows)
        .expect("permuted rows match the schema");
    let fresh = observe(DynFd::new(permuted, *config).positive_cover());
    if fresh != final_pos {
        return Err(fail(
            "metamorphic:row-permutation",
            config,
            None,
            &final_pos,
            &fresh,
        ));
    }

    // Invariant 4: insert-then-delete round-trip identity.
    stats.metamorphic_checks += 1;
    let mut rt = dynfd.clone();
    let wave = trace.roundtrip_rows(4);
    let first_new = rt.relation().next_id();
    let mut insert_wave = Batch::new();
    for row in &wave {
        insert_wave.insert(row.clone());
    }
    rt.apply_batch(&insert_wave).expect("insert wave applies");
    let mut delete_wave = Batch::new();
    for k in 0..wave.len() as u64 {
        delete_wave.delete(dynfd_common::RecordId(first_new.0 + k));
    }
    rt.apply_batch(&delete_wave).expect("delete wave applies");
    let rt_pos = observe(rt.positive_cover());
    if rt_pos != final_pos {
        return Err(fail(
            "metamorphic:insert-delete-roundtrip",
            config,
            None,
            &final_pos,
            &rt_pos,
        ));
    }
    if rt.negative_cover() != final_neg {
        return Err(fail(
            "metamorphic:insert-delete-roundtrip-negative",
            config,
            None,
            final_neg,
            rt.negative_cover(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceProfile;

    #[test]
    fn clean_traces_pass_every_check() {
        let trace = Trace::generate(TraceProfile::Uniform, 42);
        let opts = RunnerOptions {
            configs: vec![DynFdConfig::default(), DynFdConfig::baseline()],
            ..RunnerOptions::default()
        };
        let stats = check_trace(&trace, &opts).expect("clean trace");
        assert_eq!(stats.configs, 2);
        assert!(stats.oracle_checks > 0);
        assert!(stats.metamorphic_checks > 0);
    }

    #[test]
    fn injected_drop_fault_is_caught() {
        let trace = Trace::generate(TraceProfile::AllDuplicates, 1);
        let opts = RunnerOptions {
            configs: vec![DynFdConfig::default()],
            fault: Some(CoverFault::DropFirstFd),
            ..RunnerOptions::default()
        };
        let failure = check_trace(&trace, &opts).expect_err("fault must be caught");
        assert!(
            failure.check.starts_with("oracle:") || failure.check.starts_with("metamorphic:"),
            "{}",
            failure.check
        );
    }

    #[test]
    fn injected_bogus_fd_fault_is_caught() {
        let trace = Trace::generate(TraceProfile::KeyHeavy, 2);
        let opts = RunnerOptions {
            configs: vec![DynFdConfig::default()],
            fault: Some(CoverFault::AddBogusFd),
            ..RunnerOptions::default()
        };
        check_trace(&trace, &opts).expect_err("fault must be caught");
    }

    #[test]
    fn poisoned_batches_are_rejected_and_rolled_back() {
        // Across profiles and seeds: every poisoned batch draws a typed
        // rejection, rolls back structurally, and the clean replay still
        // matches every oracle on every batch boundary.
        let mut totals = TraceStats::default();
        for (case, profile) in TraceProfile::ALL.into_iter().enumerate() {
            let trace = Trace::generate(profile, 100 + case as u64);
            let opts = RunnerOptions {
                configs: vec![DynFdConfig::default()],
                engine_fault: Some(EngineFault::PoisonedBatches),
                metamorphic: false,
                ..RunnerOptions::default()
            };
            let stats = check_trace(&trace, &opts).expect("poison mode must stay green");
            totals.absorb(&stats);
        }
        assert!(totals.faults_injected > 0, "no faults injected");
        assert_eq!(
            totals.rollbacks_verified, totals.faults_injected,
            "every poisoned batch verifies its rollback"
        );
    }

    #[test]
    fn mid_batch_panics_roll_back_and_retry_clean() {
        let mut totals = TraceStats::default();
        for (case, profile) in TraceProfile::ALL.into_iter().enumerate() {
            let trace = Trace::generate(profile, 200 + case as u64);
            let opts = RunnerOptions {
                configs: vec![DynFdConfig::default(), DynFdConfig::baseline()],
                engine_fault: Some(EngineFault::MidBatchPanic),
                metamorphic: false,
                ..RunnerOptions::default()
            };
            let stats = check_trace(&trace, &opts).expect("panic mode must stay green");
            totals.absorb(&stats);
        }
        assert!(totals.faults_injected > 0, "no failpoints armed");
        assert!(
            totals.rollbacks_verified > 0,
            "no failpoint ever tripped across {} armings",
            totals.faults_injected
        );
    }

    #[test]
    fn cover_corruption_is_repaired_before_the_oracles_look() {
        let mut totals = TraceStats::default();
        for (case, profile) in TraceProfile::ALL.into_iter().enumerate() {
            let trace = Trace::generate(profile, 300 + case as u64);
            let opts = RunnerOptions {
                configs: vec![DynFdConfig::default()],
                engine_fault: Some(EngineFault::CoverCorruption),
                metamorphic: false,
                ..RunnerOptions::default()
            };
            let stats = check_trace(&trace, &opts).expect("corruption mode must stay green");
            totals.absorb(&stats);
        }
        assert!(totals.faults_injected > 0, "no corruption planted");
        assert!(
            totals.cover_rebuilds > 0,
            "no degraded-mode rebuild across {} plantings",
            totals.faults_injected
        );
    }

    #[test]
    fn engine_fault_names_round_trip() {
        for mode in EngineFault::ALL {
            assert_eq!(EngineFault::by_name(mode.name()), Some(mode));
        }
        assert_eq!(EngineFault::by_name("nonsense"), None);
    }

    #[test]
    fn failure_reports_carry_context() {
        let trace = Trace::generate(TraceProfile::Uniform, 3);
        let opts = RunnerOptions {
            configs: vec![DynFdConfig::default()],
            fault: Some(CoverFault::DropFirstFd),
            ..RunnerOptions::default()
        };
        let failure = check_trace(&trace, &opts).unwrap_err();
        assert_eq!(failure.config, "4.3+5.3+4.2+5.2");
        assert_ne!(failure.expected, failure.actual);
        let rendered = failure.to_string();
        assert!(rendered.contains("failed"), "{rendered}");
    }
}
