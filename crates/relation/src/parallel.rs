//! Parallel fan-out over independent validation jobs.
//!
//! Both DynFD lattice phases validate the candidates of a level strictly
//! against a *frozen* relation: within one level no validation depends
//! on another's verdict, so the jobs are embarrassingly parallel. This
//! module shards a job list across scoped std worker threads (no
//! thread-pool dependency) with a shared atomic cursor for load
//! balancing, and reassembles results **by job index**, so the output
//! is bit-identical to running the jobs sequentially no matter how the
//! scheduler interleaves the workers.
//!
//! Each worker owns its own state — for validation, one
//! [`ValidatorScratch`] — so per-job working memory is still
//! allocation-free in the steady state.

use crate::pli_cache::PliCache;
use crate::relation::DynamicRelation;
use crate::validate::{
    validate_cached, validate_with, ValidationOptions, ValidationResult, ValidatorScratch,
};
use dynfd_common::AttrSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One validation job: all candidates `lhs -> r` for `r ∈ rhs_set`.
pub type ValidationJob = (AttrSet, AttrSet);

/// Resolves a parallelism knob (`0` = auto) against the machine.
pub fn resolve_parallelism(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Caps the worker count for one level: levels with fewer than
/// `min_jobs` jobs run sequentially regardless of `requested`.
///
/// Spawning OS threads costs tens of microseconds each — more than a
/// whole small level's validation work, which is why the validator
/// sweep in EXPERIMENTS.md showed `threads/{2,4,8}` *slower* than
/// `threads/1` on arity-1 levels (6 jobs). `min_jobs = 0` disables the
/// fallback.
pub fn adaptive_workers(requested: usize, job_count: usize, min_jobs: usize) -> usize {
    if job_count < min_jobs {
        1
    } else {
        requested
    }
}

/// Maps `f` over `items` with up to `threads` worker threads, returning
/// the results **in item order** regardless of scheduling.
///
/// The one scoped worker loop behind [`validate_many`],
/// [`validate_many_cached`], and the parallel pieces of the violation
/// search: each worker owns one `S::default()` state (a
/// [`ValidatorScratch`] for validation, `()` where none is needed) and
/// passes it to every `f` call it makes, a shared atomic cursor hands
/// out items for load balancing, each worker records `(index, result)`
/// pairs, and the coordinator reassembles them by index. With
/// `threads <= 1` or fewer than two items, `f` runs inline on the
/// calling thread with a single state.
pub fn par_map<T, S, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    S: Default,
    R: Send,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let workers = threads.min(items.len());
    if workers <= 1 {
        let mut state = S::default();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (cursor, f) = (&cursor, &f);
                scope.spawn(move || {
                    let mut state = S::default();
                    let mut produced: Vec<(usize, R)> = Vec::new();
                    loop {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(idx) else {
                            break;
                        };
                        produced.push((idx, f(&mut state, item)));
                    }
                    produced
                })
            })
            .collect();
        for handle in handles {
            // A panicking worker re-raises its payload on the calling
            // thread so the transactional boundary in `dynfd_core` can
            // catch it and roll the batch back.
            let produced = handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            for (idx, result) in produced {
                slots[idx] = Some(result);
            }
        }
    });

    // Invariant: the cursor hands out every index in 0..len exactly
    // once, so every slot was written before the scope joined.
    slots
        .into_iter()
        .map(|slot| slot.expect("every item produced a result"))
        .collect()
}

/// Validates every job in `jobs` against `rel` using up to `workers`
/// threads and returns the results in job order.
///
/// With `workers <= 1` (or fewer than two jobs) no thread is spawned and
/// the jobs run inline — this is the exact sequential code path. The
/// result vector is independent of the actual worker count.
pub fn validate_many(
    rel: &DynamicRelation,
    jobs: &[ValidationJob],
    opts: &ValidationOptions,
    workers: usize,
) -> Vec<ValidationResult> {
    par_map(
        jobs,
        workers,
        |scratch: &mut ValidatorScratch, &(lhs, rhs)| validate_with(rel, lhs, rhs, opts, scratch),
    )
}

/// [`validate_many`] through the PLI-intersection cache.
///
/// Workers validate against an immutable snapshot of `cache` taken at
/// the level start, recording per-job
/// [`CacheEffects`](crate::CacheEffects); the effects are merged back
/// **in job order** at the level barrier, so cache contents, LRU order,
/// and hit/miss counters are a pure function of the job list — identical
/// for every worker count, like the validation results themselves.
pub fn validate_many_cached(
    rel: &DynamicRelation,
    jobs: &[ValidationJob],
    opts: &ValidationOptions,
    workers: usize,
    cache: &mut PliCache,
) -> Vec<ValidationResult> {
    let snapshot = cache.snapshot();
    let (results, effects): (Vec<_>, Vec<_>) = par_map(
        jobs,
        workers,
        |scratch: &mut ValidatorScratch, &(lhs, rhs)| {
            validate_cached(rel, lhs, rhs, opts, scratch, &snapshot)
        },
    )
    .into_iter()
    .unzip();
    cache.merge(&effects);
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;
    use dynfd_common::Schema;

    fn wide_relation(rows: usize) -> DynamicRelation {
        let rows: Vec<Vec<String>> = (0..rows)
            .map(|i| {
                vec![
                    format!("a{}", i % 7),
                    format!("b{}", i % 5),
                    format!("c{}", i % 3),
                    format!("d{}", i % 11),
                    format!("e{}", i % 2),
                ]
            })
            .collect();
        DynamicRelation::from_rows(Schema::anonymous("t", 5), &rows).unwrap()
    }

    fn all_jobs(arity: usize) -> Vec<ValidationJob> {
        // Every single-attribute LHS against all other attributes, plus
        // a few two-attribute LHS groups.
        let mut jobs = Vec::new();
        for a in 0..arity {
            let lhs = AttrSet::single(a);
            let rhs: AttrSet = (0..arity).filter(|&r| r != a).collect();
            jobs.push((lhs, rhs));
        }
        for a in 0..arity {
            for b in (a + 1)..arity {
                let lhs: AttrSet = [a, b].into_iter().collect();
                let rhs: AttrSet = (0..arity).filter(|&r| r != a && r != b).collect();
                jobs.push((lhs, rhs));
            }
        }
        jobs
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let rel = wide_relation(300);
        let jobs = all_jobs(5);
        let opts = ValidationOptions::full();
        let sequential = validate_many(&rel, &jobs, &opts, 1);
        for threads in [2, 3, 4, 8] {
            let parallel = validate_many(&rel, &jobs, &opts, threads);
            assert_eq!(sequential.len(), parallel.len());
            for (s, p) in sequential.iter().zip(&parallel) {
                assert_eq!(s.lhs, p.lhs);
                assert_eq!(
                    s.outcomes, p.outcomes,
                    "outcomes diverged at {threads} threads"
                );
                assert_eq!(s.stats, p.stats, "stats diverged at {threads} threads");
            }
        }
    }

    #[test]
    fn matches_single_job_validate() {
        let rel = wide_relation(100);
        let jobs = all_jobs(5);
        let opts = ValidationOptions::full();
        let batched = validate_many(&rel, &jobs, &opts, 4);
        for (job, got) in jobs.iter().zip(&batched) {
            let lone = validate(&rel, job.0, job.1, &opts);
            assert_eq!(lone.outcomes, got.outcomes);
            assert_eq!(lone.stats, got.stats);
        }
    }

    #[test]
    fn empty_and_single_job_lists() {
        let rel = wide_relation(10);
        let opts = ValidationOptions::full();
        assert!(validate_many(&rel, &[], &opts, 4).is_empty());
        let jobs = vec![(AttrSet::single(0), AttrSet::single(1))];
        let got = validate_many(&rel, &jobs, &opts, 4);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        let expect: Vec<usize> = items.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 5, 16] {
            assert_eq!(par_map(&items, threads, |_: &mut (), &x| x * x), expect);
        }
        assert!(par_map(&[] as &[usize], 4, |_: &mut (), &x| x).is_empty());
    }

    #[test]
    fn resolve_parallelism_contract() {
        assert!(resolve_parallelism(0) >= 1);
        assert_eq!(resolve_parallelism(1), 1);
        assert_eq!(resolve_parallelism(6), 6);
    }

    #[test]
    fn adaptive_workers_contract() {
        // Below the threshold → sequential.
        assert_eq!(adaptive_workers(8, 6, 16), 1);
        assert_eq!(adaptive_workers(8, 15, 16), 1);
        // At or above → the requested width.
        assert_eq!(adaptive_workers(8, 16, 16), 8);
        assert_eq!(adaptive_workers(8, 20, 16), 8);
        // 0 disables the fallback entirely.
        assert_eq!(adaptive_workers(8, 1, 0), 8);
    }

    /// Cached fan-out: results, cache contents, and counters are
    /// identical for every worker count (the determinism contract of
    /// the snapshot + job-order merge).
    #[test]
    fn cached_parallel_matches_sequential_bit_for_bit() {
        let rel = wide_relation(300);
        let jobs = all_jobs(5);
        let opts = ValidationOptions::full();

        let run = |threads: usize| {
            let mut cache = PliCache::new(usize::MAX);
            // Two passes: the first populates, the second hits.
            let _ = validate_many_cached(&rel, &jobs, &opts, threads, &mut cache);
            let results = validate_many_cached(&rel, &jobs, &opts, threads, &mut cache);
            (results, cache)
        };

        let (seq_results, seq_cache) = run(1);
        assert!(seq_cache.stats().hits > 0, "warm pass must hit");
        for threads in [2, 3, 4, 8] {
            let (par_results, par_cache) = run(threads);
            assert_eq!(seq_results.len(), par_results.len());
            for (s, p) in seq_results.iter().zip(&par_results) {
                assert_eq!(s.lhs, p.lhs);
                assert_eq!(
                    s.outcomes, p.outcomes,
                    "outcomes diverged at {threads} threads"
                );
                assert_eq!(s.stats, p.stats, "stats diverged at {threads} threads");
            }
            assert_eq!(
                seq_cache.stats(),
                par_cache.stats(),
                "cache counters diverged at {threads} threads"
            );
            assert_eq!(seq_cache.len(), par_cache.len());
            assert_eq!(seq_cache.bytes(), par_cache.bytes());
        }
    }

    /// Cached and plain engines agree on verdicts for every job.
    #[test]
    fn cached_fanout_matches_plain_verdicts() {
        let rel = wide_relation(200);
        let jobs = all_jobs(5);
        let opts = ValidationOptions::full();
        let plain = validate_many(&rel, &jobs, &opts, 1);
        let mut cache = PliCache::new(usize::MAX);
        for _ in 0..2 {
            let cached = validate_many_cached(&rel, &jobs, &opts, 2, &mut cache);
            for (s, p) in plain.iter().zip(&cached) {
                assert_eq!(s.lhs, p.lhs);
                for (attr, out) in &s.outcomes {
                    assert_eq!(
                        p.outcome(*attr).is_valid(),
                        out.is_valid(),
                        "{:?} -> {attr} verdict diverged",
                        s.lhs
                    );
                }
            }
        }
    }
}
