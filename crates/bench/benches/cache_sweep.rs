//! Steady-state cost of one lattice level of validations with the PLI
//! intersection cache on versus off — the headline measurement for the
//! memoized-cache PR.
//!
//! The sweep crosses LHS arity (1/2/3) with worker count (1/2) over the
//! uniform 5,000-row relation of the validator benches. The cache-off
//! arm is the engine's plain path (`validate_many` behind the adaptive
//! small-level fallback); the cache-on arm runs `validate_many_cached`
//! against a warmed cache, i.e. the cost of every level after the first
//! visit. Results land in `BENCH_pr4.json` at the workspace root with
//! numeric context values and `"oversubscribed": true` annotations on
//! thread counts wider than the machine. `DYNFD_BENCH_SAMPLES`
//! overrides the sample count for CI smoke runs.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use dynfd_common::{AttrSet, Schema};
use dynfd_relation::{
    adaptive_workers, validate_many, validate_many_cached, DynamicRelation, PliCache,
    ValidationJob, ValidationOptions,
};

/// Cache budget for the sweep: large enough that the 6-column job lists
/// never evict, so the cache-on arm measures pure hit-path cost.
const BUDGET: usize = 64 << 20;

/// Mirrors `DynFdConfig::default().parallel_min_jobs`: levels smaller
/// than this run sequentially regardless of the requested thread count.
const MIN_JOBS: usize = 16;

/// 5,000 rows, 6 columns, evenly sized clusters on every column — the
/// uniform shape of the validator parallel sweep.
fn build_relation() -> DynamicRelation {
    let rows: Vec<Vec<String>> = (0..5_000)
        .map(|i| {
            vec![
                format!("g{}", i % 50),
                format!("h{}", i % 97),
                format!("p{}", i % 11),
                format!("q{}", i % 7),
                format!("r{}", i % 13),
                format!("m{}", i % 49),
            ]
        })
        .collect();
    DynamicRelation::from_rows(Schema::anonymous("cache_bench", 6), &rows)
        .expect("static bench rows are well-formed")
}

/// All `lhs -> rhs` validation jobs of the given LHS arity over a
/// 6-attribute schema — the shape of one lattice level.
fn level_jobs(arity: usize) -> Vec<ValidationJob> {
    let n = 6usize;
    let mut jobs = Vec::new();
    let mut emit = |lhs: AttrSet| {
        let rhs: AttrSet = (0..n).filter(|r| !lhs.contains(*r)).collect();
        jobs.push((lhs, rhs));
    };
    match arity {
        1 => (0..n).for_each(|a| emit(AttrSet::single(a))),
        2 => {
            for a in 0..n {
                for b in (a + 1)..n {
                    emit([a, b].into_iter().collect());
                }
            }
        }
        _ => {
            for a in 0..n {
                for b in (a + 1)..n {
                    for c in (b + 1)..n {
                        emit([a, b, c].into_iter().collect());
                    }
                }
            }
        }
    }
    jobs
}

fn bench_cache_sweep(c: &mut Criterion) {
    c.sample_size(dynfd_bench::bench_samples(15));
    let rel = build_relation();
    let full = ValidationOptions::full();
    for arity in [1usize, 2, 3] {
        let jobs = level_jobs(arity);
        let mut group = c.benchmark_group(format!("cache_level/uniform/arity{arity}"));

        // Warm the cache once outside the timer: the steady state of
        // revisiting a level across batches is all hits.
        let mut cache = PliCache::new(BUDGET);
        let _ = validate_many_cached(&rel, &jobs, &full, 1, &mut cache);

        for threads in [1usize, 2] {
            group.bench_with_input(
                BenchmarkId::new("nocache/threads", threads),
                &threads,
                |b, &threads| {
                    let workers = adaptive_workers(threads, jobs.len(), MIN_JOBS);
                    b.iter(|| {
                        validate_many(&rel, black_box(&jobs), &full, workers)
                            .iter()
                            .map(|r| r.outcomes.len())
                            .sum::<usize>()
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new("cache/threads", threads),
                &threads,
                |b, &threads| {
                    let workers = adaptive_workers(threads, jobs.len(), MIN_JOBS);
                    b.iter(|| {
                        validate_many_cached(&rel, black_box(&jobs), &full, workers, &mut cache)
                            .iter()
                            .map(|r| r.outcomes.len())
                            .sum::<usize>()
                    })
                },
            );
        }
        group.finish();

        let stats = cache.stats();
        println!(
            "cache_level/uniform/arity{arity}: {} entries, {} bytes, {} hits / {} misses / {} evictions",
            cache.len(),
            cache.bytes(),
            stats.hits,
            stats.misses,
            stats.evictions,
        );
    }
}

criterion_group!(benches, bench_cache_sweep);

fn main() {
    // Core count is sampled once at runner start, before any benchmark
    // executes — the oversubscription annotations describe the machine
    // the samples ran on, not the one visible at report-write time.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    benches();
    criterion::write_json_report(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr4.json"),
        &[
            ("bench", "PLI-cache level sweep".into()),
            ("rows", 5_000usize.into()),
            ("cache_budget_bytes", BUDGET.into()),
            ("available_cores", cores.into()),
        ],
        &|r| match criterion::requested_threads(&r.id) {
            Some(n) if n > cores => vec![("oversubscribed".into(), true.into())],
            _ => Vec::new(),
        },
    )
    .expect("write BENCH_pr4.json");
}
