//! Paper-scale layout benchmark: the six Table 3 dataset shapes pushed
//! to one million rows each, with the columnar arena measured against
//! the retained row-oriented reference store *in the same process on
//! the same generated rows* — the headline numbers for the
//! columnar-store PR.
//!
//! Three sweeps land in `BENCH_scale.json` at the workspace root:
//!
//! * `layout/<shape>/arity{2,3}/{columnar,rowstore}` — a fixed list of
//!   arity-2/arity-3 validation jobs over the busiest attributes of
//!   each shape, run through [`validate`] (dense PLIs, open-addressed
//!   group tables) and [`validate_rowstore`] (BTreeMap PLIs, HashMap
//!   group tables). The acceptance bar for the PR is a ≥2× columnar
//!   advantage on the medians.
//! * `batch_sweep/<shape>/size/{100,1000,10000}` — fig-5-style
//!   substrate cost per batch: apply one generated batch, run the
//!   delta-pruned arity-2 candidates, roll back. Rollback restores the
//!   arena bit-for-bit (including the id watermark), so every sample
//!   measures the identical transition.
//! * `pr4_shape/arity{1,2,3}/{nocache,cache}/threads/{1,2}` — the exact
//!   5,000-row shape of `BENCH_pr4.json` (PR 4's cache sweep), rerun on
//!   the columnar store for a direct before/after comparison.
//!
//! `DYNFD_SCALE_ROWS` overrides the per-shape row count (CI smoke runs
//! use 100,000); `DYNFD_BENCH_SAMPLES` overrides the sample count.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use dynfd_common::{AttrSet, Schema};
use dynfd_datagen::{GeneratedDataset, PAPER_PROFILES};
use dynfd_relation::{
    adaptive_workers, validate, validate_many, validate_many_cached, validate_rowstore,
    DynamicRelation, PliCache, RowStoreRelation, ValidationJob, ValidationOptions,
};

/// Change-stream prefix retained per shape: enough to carve the batch
/// sweep's largest batch with slack, without generating the profile's
/// full scaled history (tens of millions of ops for the update-heavy
/// shapes).
const MAX_CHANGES: usize = 40_000;

/// Fig-5-style batch sizes (the paper sweeps 1 to 10,000; the sub-100
/// points are dominated by fixed per-batch cost already visible at 100).
const BATCH_SIZES: [usize; 3] = [100, 1_000, 10_000];

/// Cache budget and sequential-fallback floor of the PR 4 sweep,
/// replicated verbatim so the before/after rows compare directly.
const BUDGET: usize = 64 << 20;
const MIN_JOBS: usize = 16;

fn scale_rows() -> usize {
    std::env::var("DYNFD_SCALE_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000)
}

/// Attributes ranked by non-singleton cluster count, descending — the
/// attributes whose PLIs carry the validation work. Ties break toward
/// the lower attribute index, so the ranking (and with it the job list)
/// is deterministic for a given generated dataset.
fn busy_attrs(rel: &DynamicRelation) -> Vec<usize> {
    let mut ranked: Vec<(usize, usize)> = (0..rel.arity())
        .map(|a| (rel.pli(a).non_singleton_count(), a))
        .collect();
    ranked.sort_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)));
    ranked.into_iter().map(|(_, a)| a).collect()
}

/// Up to three LHS sets of the given arity drawn from the busiest
/// attributes, each with the two busiest remaining attributes as RHS
/// (multi-RHS exercises the grouped agree-set tables the way the engine
/// does).
fn jobs_for(busy: &[usize], lhs_arity: usize) -> Vec<(AttrSet, AttrSet)> {
    let mut jobs = Vec::new();
    for start in 0..3usize {
        if start + lhs_arity > busy.len() {
            break;
        }
        let lhs: AttrSet = busy[start..start + lhs_arity].iter().copied().collect();
        let rhs: AttrSet = busy
            .iter()
            .copied()
            .filter(|a| !lhs.contains(*a))
            .take(2)
            .collect();
        if !rhs.is_empty() {
            jobs.push((lhs, rhs));
        }
    }
    jobs
}

fn bench_layout_scale(c: &mut Criterion) {
    c.sample_size(dynfd_bench::bench_samples(9));
    let rows = scale_rows();
    let full = ValidationOptions::full();

    for profile in PAPER_PROFILES {
        let mut p = profile.scaled_to_rows(rows);
        p.changes = p.changes.min(MAX_CHANGES);
        eprintln!(
            "[scale] generating {} at {} rows...",
            p.name, p.initial_rows
        );
        let data = GeneratedDataset::generate(&p);
        let mut columnar = data.to_relation();
        let reference = RowStoreRelation::from_rows(data.schema.clone(), &data.initial_rows)
            .expect("generated rows match the schema");
        let busy = busy_attrs(&columnar);

        for lhs_arity in [2usize, 3] {
            let jobs = jobs_for(&busy, lhs_arity);
            if jobs.is_empty() {
                continue;
            }
            let mut group = c.benchmark_group(format!("layout/{}/arity{lhs_arity}", p.name));
            group.bench_function("columnar", |b| {
                b.iter(|| {
                    jobs.iter()
                        .map(|&(lhs, rhs)| {
                            validate(&columnar, black_box(lhs), rhs, &full)
                                .outcomes
                                .len()
                        })
                        .sum::<usize>()
                })
            });
            group.bench_function("rowstore", |b| {
                b.iter(|| {
                    jobs.iter()
                        .map(|&(lhs, rhs)| {
                            validate_rowstore(&reference, black_box(lhs), rhs, &full)
                                .outcomes
                                .len()
                        })
                        .sum::<usize>()
                })
            });
            group.finish();
        }

        // Fig-5-style batch sweep: per-batch substrate cost (apply +
        // delta-pruned validations + rollback) across batch sizes. The
        // row store sits out — the sweep tracks how the *shipping*
        // layout's per-batch cost scales with batch size.
        let delta_jobs = jobs_for(&busy, 2);
        let mut group = c.benchmark_group(format!("batch_sweep/{}", p.name));
        for &size in &BATCH_SIZES {
            let Some(batch) = data.batches(size, Some(size)).into_iter().next() else {
                continue;
            };
            group.bench_with_input(BenchmarkId::new("size", size), &size, |b, _| {
                b.iter(|| {
                    let (applied, undo) = columnar
                        .apply_batch_logged(black_box(&batch))
                        .expect("generated stream replays");
                    let opts = applied
                        .first_new_id
                        .map(ValidationOptions::delta)
                        .unwrap_or_else(ValidationOptions::full);
                    let n: usize = delta_jobs
                        .iter()
                        .map(|&(lhs, rhs)| validate(&columnar, lhs, rhs, &opts).outcomes.len())
                        .sum();
                    columnar.rollback(undo);
                    n
                })
            });
        }
        group.finish();
    }
}

/// All `lhs -> rhs` jobs of one lattice level over the 6-attribute PR 4
/// shape (duplicated from `cache_sweep.rs` so the two reports stay
/// independently runnable).
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

fn bench_pr4_shape(c: &mut Criterion) {
    c.sample_size(dynfd_bench::bench_samples(9));
    // Identical rows, budget, and job lists to BENCH_pr4.json's sweep:
    // any delta between that report and these rows is the layout change.
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
    let rel = DynamicRelation::from_rows(Schema::anonymous("pr4_shape", 6), &rows)
        .expect("static bench rows are well-formed");
    let full = ValidationOptions::full();
    for arity in [1usize, 2, 3] {
        let jobs = level_jobs(arity);
        let mut cache = PliCache::new(BUDGET);
        let _ = validate_many_cached(&rel, &jobs, &full, 1, &mut cache);
        let mut group = c.benchmark_group(format!("pr4_shape/arity{arity}"));
        for threads in [1usize, 2] {
            group.bench_with_input(
                BenchmarkId::new("nocache/threads", threads),
                &threads,
                |b, &threads| {
                    b.iter(|| {
                        validate_many(&rel, black_box(&jobs), &full, threads)
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
    }
}

criterion_group!(benches, bench_layout_scale, bench_pr4_shape);

fn main() {
    // Core count is sampled once at runner start, before any benchmark
    // executes — the oversubscription annotations describe the machine
    // the samples ran on, not the one visible at report-write time.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let rows = scale_rows();
    benches();
    let shapes = PAPER_PROFILES
        .iter()
        .map(|p| p.name)
        .collect::<Vec<_>>()
        .join(",");
    criterion::write_json_report(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json"),
        &[
            ("bench", "paper-scale layout sweep".into()),
            ("rows_per_shape", rows.into()),
            ("max_changes", MAX_CHANGES.into()),
            ("shapes", shapes.into()),
            ("available_cores", cores.into()),
        ],
        &|r| match criterion::requested_threads(&r.id) {
            Some(n) if n > cores => vec![("oversubscribed".into(), true.into())],
            _ => Vec::new(),
        },
    )
    .expect("write BENCH_scale.json");
}
