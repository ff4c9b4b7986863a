//! The parallel validation engine must be invisible in the results: for
//! any batch trace, running DynFD with `parallelism = 1` (the sequential
//! code path, i.e. the pre-parallelism behavior) and with `parallelism =
//! n > 1` must produce identical covers, identical per-batch FD deltas,
//! and identical §5.2 violation annotations. Only wall-clock time may
//! differ.

use dynfd::common::{Fd, RecordId, Schema};
use dynfd::core::{BatchResult, DynFd, DynFdConfig, SearchMode};
use dynfd::relation::{Batch, ChangeOp, DynamicRelation};
use proptest::prelude::*;

const COLS: usize = 4;

/// The §5.2 annotation dump: one violating record pair per non-FD.
type Annotations = Vec<(Fd, (RecordId, RecordId))>;

/// Everything observable about one replayed trace.
type Replay = (Vec<BatchResult>, Annotations, DynFd);

/// Replays `batches` over a fresh DynFD instance with the given config,
/// asserting internal consistency at the end, and returns the per-batch
/// deltas plus the final annotation dump.
fn replay(initial: &[Vec<String>], batches: &[Batch], config: DynFdConfig) -> Replay {
    let rel = DynamicRelation::from_rows(Schema::anonymous("p", COLS), initial).unwrap();
    let mut dynfd = DynFd::new(rel, config);
    let results = batches
        .iter()
        .map(|b| dynfd.apply_batch(b).unwrap())
        .collect();
    let annotations = dynfd.violation_annotations();
    (results, annotations, dynfd)
}

/// Asserts the observable outputs of two replays are identical.
fn assert_replays_match(seq: &Replay, par: &Replay, label: &str) {
    assert_eq!(seq.0.len(), par.0.len());
    for (i, (s, p)) in seq.0.iter().zip(&par.0).enumerate() {
        assert_eq!(s.added, p.added, "{label}: added FDs diverged at batch {i}");
        assert_eq!(
            s.removed, p.removed,
            "{label}: removed FDs diverged at batch {i}"
        );
    }
    assert_eq!(seq.1, par.1, "{label}: violation annotations diverged");
    assert_eq!(
        seq.2.positive_cover(),
        par.2.positive_cover(),
        "{label}: positive covers diverged"
    );
    assert_eq!(
        seq.2.negative_cover(),
        par.2.negative_cover(),
        "{label}: negative covers diverged"
    );
}

/// A hand-built trace with enough churn to trigger the violation search
/// and the depth-first search: a skewed relation, a delete wave, then an
/// insert wave re-introducing near-duplicates.
fn churny_trace() -> (Vec<Vec<String>>, Vec<Batch>) {
    let row = |a: u64, b: u64, c: u64, d: u64| {
        vec![
            format!("a{a}"),
            format!("b{b}"),
            format!("c{c}"),
            format!("d{d}"),
        ]
    };
    let initial: Vec<Vec<String>> = (0..40).map(|i| row(i % 7, i % 5, i % 3, i % 2)).collect();

    let mut batches = Vec::new();
    let mut b = Batch::new();
    for i in 0..12u64 {
        b.delete(RecordId(i * 3));
    }
    for i in 0..10u64 {
        b.insert(row(i % 2, i % 2, i % 2, i));
    }
    batches.push(b);

    let mut b = Batch::new();
    for i in 0..8u64 {
        b.insert(row(9, i, i % 3, i % 2));
    }
    for rid in [1u64, 2, 4, 5, 7, 8] {
        b.delete(RecordId(rid));
    }
    batches.push(b);

    let mut b = Batch::new();
    b.update(RecordId(40), row(0, 0, 0, 0));
    for i in 0..6u64 {
        b.insert(row(i, 0, 0, 0));
    }
    batches.push(b);

    (initial, batches)
}

#[test]
fn parallel_replay_is_bit_identical() {
    let (initial, batches) = churny_trace();
    let seq = replay(
        &initial,
        &batches,
        DynFdConfig {
            parallelism: 1,
            ..DynFdConfig::default()
        },
    );
    for threads in [2, 4, 8] {
        let par = replay(
            &initial,
            &batches,
            DynFdConfig {
                parallelism: threads,
                ..DynFdConfig::default()
            },
        );
        assert_replays_match(&seq, &par, &format!("{threads} threads"));
        assert_eq!(par.0.last().unwrap().metrics.threads_used, threads);
    }
    seq.2
        .verify_consistency()
        .expect("sequential run consistent");
}

#[test]
fn auto_parallelism_matches_sequential() {
    let (initial, batches) = churny_trace();
    let seq = replay(
        &initial,
        &batches,
        DynFdConfig {
            parallelism: 1,
            ..DynFdConfig::default()
        },
    );
    // parallelism = 0 resolves to the machine's core count.
    let auto = replay(&initial, &batches, DynFdConfig::default());
    assert_replays_match(&seq, &auto, "auto parallelism");
    assert!(auto.0.last().unwrap().metrics.threads_used >= 1);
    auto.2
        .verify_consistency()
        .expect("parallel run consistent");
}

#[test]
fn parallel_replay_matches_under_baseline_config() {
    // The baseline (naive search, no pruning) exercises different code
    // paths — they must be thread-count-invariant too.
    let (initial, batches) = churny_trace();
    let seq = replay(
        &initial,
        &batches,
        DynFdConfig {
            parallelism: 1,
            ..DynFdConfig::baseline()
        },
    );
    let par = replay(
        &initial,
        &batches,
        DynFdConfig {
            parallelism: 4,
            ..DynFdConfig::baseline()
        },
    );
    assert_replays_match(&seq, &par, "baseline config");
}

#[test]
fn testkit_traces_are_thread_count_invariant() {
    // Adversarial testkit traces (Zipf-skewed, all-duplicates,
    // null-heavy, ...) must replay bit-identically at every thread
    // count — and dispatch the *same validation jobs*: the per-batch
    // `BatchMetrics` job counts are part of the deterministic contract,
    // not just the covers.
    use dynfd_testkit::Trace;

    let replay_trace = |trace: &Trace, threads: usize| -> Replay {
        let config = DynFdConfig {
            parallelism: threads,
            ..DynFdConfig::default()
        };
        let mut dynfd = DynFd::new(trace.to_relation(), config);
        let results: Vec<BatchResult> = trace
            .to_batches()
            .iter()
            .map(|b| dynfd.apply_batch(b).unwrap())
            .collect();
        let annotations = dynfd.violation_annotations();
        (results, annotations, dynfd)
    };

    for case in 0..5 {
        let trace = Trace::for_case(11, case);
        let seq = replay_trace(&trace, 1);
        for threads in [2, 8] {
            let par = replay_trace(&trace, threads);
            let label = format!("case {case} ({}), {threads} threads", trace.profile);
            assert_replays_match(&seq, &par, &label);
            for (i, (s, p)) in seq.0.iter().zip(&par.0).enumerate() {
                assert_eq!(
                    s.metrics.validation_jobs(),
                    p.metrics.validation_jobs(),
                    "{label}: validation job count diverged at batch {i}"
                );
                assert_eq!(
                    s.metrics.fd_validations, p.metrics.fd_validations,
                    "{label}: FD validation count diverged at batch {i}"
                );
                assert_eq!(
                    s.metrics.non_fd_validations, p.metrics.non_fd_validations,
                    "{label}: non-FD validation count diverged at batch {i}"
                );
            }
        }
        seq.2.verify_consistency().expect("replay consistent");
    }
}

// ---------------------------------------------------------------------------
// Property-based variant: random traces, random strategy configurations.
// ---------------------------------------------------------------------------

fn arb_row() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec((0u8..3).prop_map(|v| format!("v{v}")), COLS)
}

#[derive(Clone, Debug)]
enum ScriptOp {
    Insert(Vec<String>),
    DeleteNth(usize),
    UpdateNth(usize, Vec<String>),
}

fn arb_script() -> impl Strategy<Value = Vec<ScriptOp>> {
    proptest::collection::vec(
        prop_oneof![
            2 => arb_row().prop_map(ScriptOp::Insert),
            1 => (0usize..32).prop_map(ScriptOp::DeleteNth),
            1 => ((0usize..32), arb_row()).prop_map(|(i, r)| ScriptOp::UpdateNth(i, r)),
        ],
        1..25,
    )
}

/// A random strategy set with the cache on or off. `parallel_min_jobs:
/// 1` lets every level fan out: at the default threshold of 16 the
/// small levels of a 4-column relation would all run inline, and the
/// n-thread replay would never reach a worker thread.
fn arb_config() -> impl Strategy<Value = DynFdConfig> {
    (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(cluster, progressive, validation, dfs, cache)| DynFdConfig {
                cluster_pruning: cluster,
                violation_search: if progressive {
                    SearchMode::Progressive
                } else {
                    SearchMode::Naive
                },
                validation_pruning: validation,
                depth_first_search: dfs,
                pli_cache: cache,
                parallel_min_jobs: 1,
                ..DynFdConfig::default()
            },
        )
}

fn to_batches(script: &[ScriptOp], initial: usize, batch_size: usize) -> Vec<Batch> {
    let mut live: Vec<RecordId> = (0..initial as u64).map(RecordId).collect();
    let mut next_id = initial as u64;
    let mut ops = Vec::new();
    for op in script {
        match op {
            ScriptOp::Insert(row) => {
                ops.push(ChangeOp::Insert(row.clone()));
                live.push(RecordId(next_id));
                next_id += 1;
            }
            ScriptOp::DeleteNth(i) => {
                if live.is_empty() {
                    continue;
                }
                let rid = live.remove(i % live.len());
                ops.push(ChangeOp::Delete(rid));
            }
            ScriptOp::UpdateNth(i, row) => {
                if live.is_empty() {
                    continue;
                }
                let rid = live.remove(i % live.len());
                ops.push(ChangeOp::Update(rid, row.clone()));
                live.push(RecordId(next_id));
                next_id += 1;
            }
        }
    }
    Batch::chunk(ops, batch_size)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_traces_are_thread_count_invariant(
        initial in proptest::collection::vec(arb_row(), 0..10),
        script in arb_script(),
        batch_size in 1usize..7,
        config in arb_config(),
        threads in 2usize..6,
    ) {
        let batches = to_batches(&script, initial.len(), batch_size);
        let seq = replay(&initial, &batches, DynFdConfig { parallelism: 1, ..config });
        let par = replay(&initial, &batches, DynFdConfig { parallelism: threads, ..config });
        prop_assert_eq!(seq.0.len(), par.0.len());
        for (i, (s, p)) in seq.0.iter().zip(&par.0).enumerate() {
            prop_assert_eq!(&s.added, &p.added);
            prop_assert_eq!(&s.removed, &p.removed);
            // Cache state is a pure function of the job list: one
            // snapshot per level, effects merged in job order.
            let (sm, pm) = (&s.metrics, &p.metrics);
            prop_assert_eq!(sm.cache_hits, pm.cache_hits, "cache hits diverged at batch {}", i);
            prop_assert_eq!(sm.cache_misses, pm.cache_misses, "cache misses diverged at batch {}", i);
            prop_assert_eq!(
                sm.cache_evictions,
                pm.cache_evictions,
                "cache evictions diverged at batch {}",
                i
            );
            prop_assert_eq!(sm.cache_bytes, pm.cache_bytes, "cache bytes diverged at batch {}", i);
        }
        prop_assert_eq!(&seq.1, &par.1, "annotations diverged ({} threads)", threads);
        prop_assert_eq!(seq.2.positive_cover(), par.2.positive_cover());
        prop_assert_eq!(seq.2.negative_cover(), par.2.negative_cover());
        prop_assert!(seq.2.state_eq(&par.2), "engine state diverged ({} threads)", threads);
        if let Err(e) = par.2.verify_consistency() {
            return Err(TestCaseError::fail(format!("parallel run inconsistent: {e}")));
        }
    }
}
