//! Crate-level tests for the DynFD maintenance algorithm: the paper's
//! worked example (Figures 2 → 3 → 4) and oracle cross-validation
//! against static rediscovery under every pruning configuration.

use crate::{
    ConsistencyLevel, DynFd, DynFdConfig, DynFdError, FailAction, FailPhase, FailPoint, FdMonitor,
    SearchMode,
};
use dynfd_common::{AttrSet, Fd, RecordId, Schema};
use dynfd_lattice::FdTree;
use dynfd_relation::{agree_set, Batch, DynamicRelation};

fn s(attrs: &[usize]) -> AttrSet {
    attrs.iter().copied().collect()
}

fn fd(lhs: &[usize], rhs: usize) -> Fd {
    Fd::new(s(lhs), rhs)
}

fn tree(fds: &[(&[usize], usize)]) -> FdTree {
    fds.iter().map(|&(l, r)| fd(l, r)).collect()
}

/// Table 1, initial tuples (f=0, l=1, z=2, c=3), ids 0-3.
fn paper_relation() -> DynamicRelation {
    let schema = Schema::of("people", &["firstname", "lastname", "zip", "city"]);
    DynamicRelation::from_rows(
        schema,
        &[
            vec!["Max", "Jones", "14482", "Potsdam"],
            vec!["Max", "Miller", "14482", "Potsdam"],
            vec!["Max", "Jones", "10115", "Berlin"],
            vec!["Anna", "Scott", "13591", "Berlin"],
        ],
    )
    .unwrap()
}

/// All 16 strategy combinations of §6.5.
fn all_configs() -> Vec<DynFdConfig> {
    let mut configs = Vec::new();
    for cluster in [false, true] {
        for search in [SearchMode::Naive, SearchMode::Progressive] {
            for validation in [false, true] {
                for dfs in [false, true] {
                    configs.push(DynFdConfig {
                        cluster_pruning: cluster,
                        violation_search: search,
                        validation_pruning: validation,
                        depth_first_search: dfs,
                        ..DynFdConfig::default()
                    });
                }
            }
        }
    }
    configs
}

#[test]
fn bootstrap_matches_figure_2() {
    let dynfd = DynFd::new(paper_relation(), DynFdConfig::default());
    // Minimal FDs: l→f, z→f, z→c, fc→z, lc→z.
    let expect = tree(&[(&[1], 0), (&[2], 0), (&[2], 3), (&[0, 3], 2), (&[1, 3], 2)]);
    assert_eq!(dynfd.positive_cover(), &expect);
    // Maximal non-FDs (Section 3.2): fzc→l, fl→z, fl→c, c→f, c→z.
    let expect_neg = tree(&[
        (&[0, 2, 3], 1),
        (&[0, 1], 2),
        (&[0, 1], 3),
        (&[3], 0),
        (&[3], 2),
    ]);
    assert_eq!(dynfd.negative_cover(), &expect_neg);
    dynfd.verify_consistency().unwrap();
}

#[test]
fn insert_scenario_matches_figure_3() {
    // Section 4.1's worked example: insert tuples 5 and 6 (no delete).
    // Afterwards l→f and fc→z are invalid; minimal FDs become
    // z→f, z→c, lc→f, lc→z  ... per Figure 3: the dark green cells are
    // z→f, z→c, lc→z, lc→f? The text says: "l → f is not valid anymore";
    // "the only new candidate is lc → f"; "f c → z is also invalid",
    // no new candidates. So minimal FDs: z→f, z→c, lc→z, lc→f.
    let mut dynfd = DynFd::new(paper_relation(), DynFdConfig::default());
    let mut batch = Batch::new();
    batch
        .insert(vec!["Marie", "Scott", "14467", "Potsdam"])
        .insert(vec!["Marie", "Gray", "14469", "Potsdam"]);
    let result = dynfd.apply_batch(&batch).unwrap();

    let expect = tree(&[(&[2], 0), (&[2], 3), (&[1, 3], 0), (&[1, 3], 2)]);
    assert_eq!(dynfd.positive_cover(), &expect, "Figure 3 lattice");
    assert!(result.removed.contains(&fd(&[1], 0)), "l→f invalidated");
    assert!(result.removed.contains(&fd(&[0, 3], 2)), "fc→z invalidated");
    assert!(
        result.added.contains(&fd(&[1, 3], 0)),
        "lc→f new minimal FD"
    );
    dynfd.verify_consistency().unwrap();
}

#[test]
fn full_paper_batch_table_1() {
    // The complete batch of Table 1: delete tuple 3 (id 2), insert
    // tuples 5 and 6. Section 2: "while the FD z → c continues to be a
    // minimal FD ... f → c becomes a new minimal FD and f c → z ceases
    // to be a (minimal) FD."
    let mut dynfd = DynFd::new(paper_relation(), DynFdConfig::default());
    let mut batch = Batch::new();
    batch
        .delete(RecordId(2))
        .insert(vec!["Marie", "Scott", "14467", "Potsdam"])
        .insert(vec!["Marie", "Gray", "14469", "Potsdam"]);
    dynfd.apply_batch(&batch).unwrap();

    let fds = dynfd.minimal_fds();
    assert!(fds.contains(&fd(&[2], 3)), "z→c still minimal");
    assert!(fds.contains(&fd(&[0], 3)), "f→c newly minimal");
    assert!(!fds.contains(&fd(&[0, 3], 2)), "fc→z no longer an FD");
    dynfd.verify_consistency().unwrap();
    // Oracle: static rediscovery on the final state.
    let oracle = dynfd_static::tane::discover(dynfd.relation());
    assert_eq!(dynfd.positive_cover(), &oracle);
}

#[test]
fn delete_scenario_matches_figure_4() {
    // Section 5.1's worked example operates on the *post-insert* state
    // (Figure 3) and then validates non-FDs bottom-up after deleting a
    // violating record. The paper walks the lattice abstractly; here we
    // reproduce the concrete end state: starting from Figure 3 (after
    // the two inserts), delete record 2 ("Max Jones 10115 Berlin") and
    // record 3 ("Anna Scott ..."): fl→z, fl→c, f→c become relevant.
    let mut dynfd = DynFd::new(paper_relation(), DynFdConfig::default());
    let mut batch = Batch::new();
    batch
        .insert(vec!["Marie", "Scott", "14467", "Potsdam"])
        .insert(vec!["Marie", "Gray", "14469", "Potsdam"]);
    dynfd.apply_batch(&batch).unwrap();

    let mut batch = Batch::new();
    batch.delete(RecordId(2));
    dynfd.apply_batch(&batch).unwrap();
    dynfd.verify_consistency().unwrap();
    // Figure 4's minimal FD set (after the paper's delete walk-through):
    // six minimal FDs including the new f→c and fl→z / fl→c outcomes.
    let oracle = dynfd_static::tane::discover(dynfd.relation());
    assert_eq!(dynfd.positive_cover(), &oracle);
    assert_eq!(
        dynfd.minimal_fds().len(),
        6,
        "six minimal FDs per Section 5.1"
    );
}

#[test]
fn deletes_only_batch() {
    let mut dynfd = DynFd::new(paper_relation(), DynFdConfig::default());
    let mut batch = Batch::new();
    batch.delete(RecordId(0)).delete(RecordId(1));
    dynfd.apply_batch(&batch).unwrap();
    dynfd.verify_consistency().unwrap();
    assert_eq!(
        dynfd.positive_cover(),
        &dynfd_static::tane::discover(dynfd.relation())
    );
}

#[test]
fn delete_everything_then_reinsert() {
    let mut dynfd = DynFd::new(paper_relation(), DynFdConfig::default());
    let mut batch = Batch::new();
    for i in 0..4 {
        batch.delete(RecordId(i));
    }
    dynfd.apply_batch(&batch).unwrap();
    assert!(dynfd.relation().is_empty());
    // Empty relation: every FD holds; minimal cover is ∅→A for all A.
    assert_eq!(
        dynfd.minimal_fds(),
        (0..4)
            .map(|a| Fd::new(AttrSet::empty(), a))
            .collect::<Vec<_>>()
    );
    dynfd.verify_consistency().unwrap();

    let mut batch = Batch::new();
    batch
        .insert(vec!["a", "b", "c", "d"])
        .insert(vec!["a", "x", "c", "y"]);
    dynfd.apply_batch(&batch).unwrap();
    dynfd.verify_consistency().unwrap();
    assert_eq!(
        dynfd.positive_cover(),
        &dynfd_static::tane::discover(dynfd.relation())
    );
}

#[test]
fn update_heavy_batch() {
    let mut dynfd = DynFd::new(paper_relation(), DynFdConfig::default());
    let mut batch = Batch::new();
    batch
        .update(RecordId(0), vec!["Max", "Jones", "14482", "Golm"])
        .update(RecordId(3), vec!["Anna", "Scott", "14482", "Golm"]);
    dynfd.apply_batch(&batch).unwrap();
    dynfd.verify_consistency().unwrap();
    assert_eq!(
        dynfd.positive_cover(),
        &dynfd_static::tane::discover(dynfd.relation())
    );
}

#[test]
fn empty_batch_changes_nothing() {
    let mut dynfd = DynFd::new(paper_relation(), DynFdConfig::default());
    let before = dynfd.minimal_fds();
    let result = dynfd.apply_batch(&Batch::new()).unwrap();
    assert!(result.is_unchanged());
    assert_eq!(dynfd.minimal_fds(), before);
}

#[test]
fn failed_batch_leaves_state_intact() {
    let mut dynfd = DynFd::new(paper_relation(), DynFdConfig::default());
    let before = dynfd.minimal_fds();
    let mut batch = Batch::new();
    batch.insert(vec!["X", "Y", "Z", "W"]).delete(RecordId(77));
    assert!(dynfd.apply_batch(&batch).is_err());
    assert_eq!(dynfd.minimal_fds(), before);
    assert_eq!(dynfd.relation().len(), 4);
    dynfd.verify_consistency().unwrap();
}

#[test]
fn all_sixteen_configs_agree_on_the_paper_example() {
    for config in all_configs() {
        let mut dynfd = DynFd::new(paper_relation(), config);
        let mut batch = Batch::new();
        batch
            .delete(RecordId(2))
            .insert(vec!["Marie", "Scott", "14467", "Potsdam"])
            .insert(vec!["Marie", "Gray", "14469", "Potsdam"]);
        dynfd.apply_batch(&batch).unwrap();
        dynfd
            .verify_consistency()
            .unwrap_or_else(|e| panic!("config {}: {e}", config.strategy_label()));
        let oracle = dynfd_static::tane::discover(dynfd.relation());
        assert_eq!(
            dynfd.positive_cover(),
            &oracle,
            "config {} diverged from oracle",
            config.strategy_label()
        );
    }
}

/// Deterministic pseudo-random change stream over a 5-column relation,
/// cross-validated against static rediscovery after every batch for
/// every pruning configuration.
#[test]
fn random_change_streams_match_static_rediscovery() {
    for config in [
        DynFdConfig::default(),
        DynFdConfig::baseline(),
        DynFdConfig {
            validation_pruning: false,
            ..DynFdConfig::default()
        },
        DynFdConfig {
            cluster_pruning: false,
            ..DynFdConfig::default()
        },
    ] {
        for seed in 0..4u64 {
            run_random_stream(seed, config);
        }
    }
}

fn run_random_stream(seed: u64, config: DynFdConfig) {
    let cols = 5usize;
    let mut x = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(0xD1B54A32D192ED03);
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 16
    };
    let row = |next: &mut dyn FnMut() -> u64| -> Vec<String> {
        (0..cols)
            .map(|c| format!("v{}", next() % (2 + c as u64 * 2)))
            .collect()
    };

    // Initial relation: 25 rows.
    let rows: Vec<Vec<String>> = (0..25).map(|_| row(&mut next)).collect();
    let rel = DynamicRelation::from_rows(Schema::anonymous("rand", cols), &rows).unwrap();
    let mut dynfd = DynFd::new(rel, config);
    let mut live: Vec<RecordId> = (0..25).map(RecordId).collect();
    let mut next_id = 25u64;

    for batch_no in 0..6 {
        let mut batch = Batch::new();
        for _ in 0..5 {
            match next() % 3 {
                0 => {
                    batch.insert(row(&mut next));
                    live.push(RecordId(next_id));
                    next_id += 1;
                }
                1 if !live.is_empty() => {
                    let idx = (next() as usize) % live.len();
                    batch.delete(live.swap_remove(idx));
                }
                _ if !live.is_empty() => {
                    let idx = (next() as usize) % live.len();
                    batch.update(live.swap_remove(idx), row(&mut next));
                    live.push(RecordId(next_id));
                    next_id += 1;
                }
                _ => {
                    batch.insert(row(&mut next));
                    live.push(RecordId(next_id));
                    next_id += 1;
                }
            }
        }
        dynfd.apply_batch(&batch).unwrap();
        dynfd.verify_consistency().unwrap_or_else(|e| {
            panic!(
                "seed {seed} batch {batch_no} config {}: {e}",
                config.strategy_label()
            )
        });
        let oracle = dynfd_static::fdep::discover(dynfd.relation());
        assert_eq!(
            dynfd.positive_cover(),
            &oracle,
            "seed {seed} batch {batch_no} config {}",
            config.strategy_label()
        );
    }
}

#[test]
fn validation_pruning_actually_skips_work() {
    // Two delete batches: the second should skip validations thanks to
    // annotations collected during the first.
    let schema = Schema::anonymous("t", 3);
    let rows: Vec<Vec<String>> = (0..30)
        .map(|i| {
            vec![
                format!("a{}", i % 3),
                format!("b{}", i % 5),
                format!("c{i}"),
            ]
        })
        .collect();
    let rel = DynamicRelation::from_rows(schema, &rows).unwrap();
    let mut dynfd = DynFd::new(rel, DynFdConfig::default());

    let mut batch = Batch::new();
    batch.delete(RecordId(0));
    let r1 = dynfd.apply_batch(&batch).unwrap();
    assert!(
        r1.metrics.non_fd_validations > 0,
        "first batch collects annotations"
    );
    assert!(dynfd.annotation_count() > 0);

    let mut batch = Batch::new();
    batch.delete(RecordId(1));
    let r2 = dynfd.apply_batch(&batch).unwrap();
    assert!(
        r2.metrics.validations_skipped > 0,
        "second batch must skip annotated non-FDs"
    );
    dynfd.verify_consistency().unwrap();
}

#[test]
fn cluster_pruning_skips_clusters() {
    let schema = Schema::anonymous("t", 3);
    let rows: Vec<Vec<String>> = (0..40)
        .map(|i| {
            vec![
                format!("g{}", i % 8),
                format!("h{}", i % 8),
                format!("u{i}"),
            ]
        })
        .collect();
    let rel = DynamicRelation::from_rows(schema, &rows).unwrap();
    let mut dynfd = DynFd::new(rel, DynFdConfig::default());
    let mut batch = Batch::new();
    batch.insert(vec!["g0".into(), "h0".into(), "fresh".to_string()]);
    let result = dynfd.apply_batch(&batch).unwrap();
    assert!(
        result.metrics.clusters_pruned > 0,
        "old clusters must be pruned"
    );
    dynfd.verify_consistency().unwrap();
}

#[test]
fn with_cover_accepts_preprofiled_fds() {
    let rel = paper_relation();
    let fds = dynfd_static::hyfd::discover(&rel);
    let dynfd = DynFd::with_cover(rel, fds.clone(), DynFdConfig::default());
    assert_eq!(dynfd.positive_cover(), &fds);
    dynfd.verify_consistency().unwrap();
}

#[test]
fn single_column_relation() {
    let rel = DynamicRelation::from_rows(
        Schema::anonymous("one", 1),
        &[vec!["a"], vec!["a"], vec!["b"]],
    )
    .unwrap();
    let mut dynfd = DynFd::new(rel, DynFdConfig::default());
    assert!(
        dynfd.minimal_fds().is_empty(),
        "nothing determines the only column"
    );
    // Delete "b": the column becomes constant → ∅ -> 0 appears.
    let mut batch = Batch::new();
    batch.delete(RecordId(2));
    let result = dynfd.apply_batch(&batch).unwrap();
    assert_eq!(result.added, vec![Fd::new(AttrSet::empty(), 0)]);
    dynfd.verify_consistency().unwrap();
}

#[test]
fn violation_search_triggers_on_noisy_insert_batches() {
    // A relation with many valid FDs, then a batch of inserts that
    // violates most of them: the per-level invalid ratio exceeds 10 %
    // and the progressive violation search must kick in.
    let schema = Schema::anonymous("t", 5);
    let rows: Vec<Vec<String>> = (0..30)
        .map(|i| {
            let g = i % 3;
            vec![
                format!("a{g}"),
                format!("b{g}"),
                format!("c{g}"),
                format!("d{g}"),
                format!("u{i}"),
            ]
        })
        .collect();
    let rel = DynamicRelation::from_rows(schema, &rows).unwrap();
    let mut dynfd = DynFd::new(rel, DynFdConfig::default());
    let mut batch = Batch::new();
    for i in 0..6 {
        // Same `a` group as existing rows, scrambled everywhere else.
        batch.insert(vec![
            format!("a{}", i % 3),
            format!("B{i}"),
            format!("C{}", 5 - i),
            format!("D{}", i * 7 % 5),
            format!("u{}", 100 + i),
        ]);
    }
    let result = dynfd.apply_batch(&batch).unwrap();
    assert!(
        result.metrics.search_rounds > 0,
        "violation search must trigger"
    );
    assert!(result.metrics.comparisons > 0);
    dynfd.verify_consistency().unwrap();
    assert_eq!(
        dynfd.positive_cover(),
        &dynfd_static::tane::discover(dynfd.relation())
    );
}

#[test]
fn naive_search_runs_exactly_one_round_per_trigger() {
    let schema = Schema::anonymous("t", 4);
    let rows: Vec<Vec<String>> = (0..24)
        .map(|i| {
            vec![
                format!("a{}", i % 2),
                format!("b{}", i % 2),
                format!("c{}", i % 2),
                format!("u{i}"),
            ]
        })
        .collect();
    let rel = DynamicRelation::from_rows(schema, &rows).unwrap();
    let config = DynFdConfig {
        violation_search: SearchMode::Naive,
        ..DynFdConfig::default()
    };
    let mut dynfd = DynFd::new(rel, config);
    let mut batch = Batch::new();
    for i in 0..5 {
        batch.insert(vec![
            format!("a{}", i % 2),
            format!("B{i}"),
            format!("C{i}"),
            format!("u{}", 50 + i),
        ]);
    }
    let result = dynfd.apply_batch(&batch).unwrap();
    // Naive mode: each trigger runs exactly one window round, so rounds
    // equal the number of triggering levels.
    if result.metrics.search_rounds > 0 {
        assert!(
            result.metrics.search_rounds <= 4,
            "one round per triggering level"
        );
    }
    dynfd.verify_consistency().unwrap();
    assert_eq!(
        dynfd.positive_cover(),
        &dynfd_static::tane::discover(dynfd.relation())
    );
}

#[test]
fn reapplying_a_witness_agree_set_is_a_no_op() {
    // The violation search applies each distinct agree set once per
    // search. That is exact only because, on a frozen relation, a second
    // application of an agree set changes nothing — not even with
    // another pair that has the same agree set.
    let mut dynfd = DynFd::new(paper_relation(), DynFdConfig::default());
    let rid = dynfd
        .rel
        .insert_row(&["Max", "Gray", "99999", "Potsdam"])
        .unwrap();
    let agree = s(&[0, 3]);
    for partner in [RecordId(0), RecordId(1)] {
        assert_eq!(agree_set(&dynfd.rel, partner, rid), Some(agree));
    }
    assert!(dynfd.apply_non_fd_witness(agree, (RecordId(0), rid)));
    let once = dynfd.clone();
    assert!(!dynfd.apply_non_fd_witness(agree, (RecordId(0), rid)));
    assert!(!dynfd.apply_non_fd_witness(agree, (RecordId(1), rid)));
    assert!(dynfd.state_eq(&once), "{:?}", dynfd.state_divergence(&once));
}

#[test]
fn depth_first_search_triggers_on_resolving_deletes() {
    // Construct data where a handful of "dirty" rows carry all the
    // violations; deleting them validates many non-FDs at once, pushing
    // the per-level valid ratio over 10 % and launching DFS seeds.
    let schema = Schema::anonymous("t", 5);
    let mut rows: Vec<Vec<String>> = (0..20)
        .map(|i| {
            let g = i % 4;
            vec![
                format!("a{g}"),
                format!("b{g}"),
                format!("c{g}"),
                format!("d{g}"),
                format!("u{i}"),
            ]
        })
        .collect();
    // Dirty rows: share `a` groups but scramble b/c/d.
    rows.push(vec![
        "a0".into(),
        "bX".into(),
        "cY".into(),
        "dZ".into(),
        "u100".into(),
    ]);
    rows.push(vec![
        "a1".into(),
        "bY".into(),
        "cZ".into(),
        "dX".into(),
        "u101".into(),
    ]);
    rows.push(vec![
        "a2".into(),
        "bZ".into(),
        "cX".into(),
        "dY".into(),
        "u102".into(),
    ]);
    let rel = DynamicRelation::from_rows(schema, &rows).unwrap();
    let mut dynfd = DynFd::new(rel, DynFdConfig::default());

    let mut batch = Batch::new();
    batch
        .delete(RecordId(20))
        .delete(RecordId(21))
        .delete(RecordId(22));
    let result = dynfd.apply_batch(&batch).unwrap();
    assert!(!result.added.is_empty(), "deletes must resolve some FDs");
    assert!(
        result.metrics.dfs_seeds > 0,
        "DFS must trigger: {:?}",
        result.metrics
    );
    dynfd.verify_consistency().unwrap();
    assert_eq!(
        dynfd.positive_cover(),
        &dynfd_static::tane::discover(dynfd.relation())
    );
}

#[test]
fn dfs_disabled_config_never_launches_seeds() {
    let schema = Schema::anonymous("t", 4);
    let mut rows: Vec<Vec<String>> = (0..16)
        .map(|i| {
            vec![
                format!("a{}", i % 4),
                format!("b{}", i % 4),
                format!("c{}", i % 4),
                format!("u{i}"),
            ]
        })
        .collect();
    rows.push(vec!["a0".into(), "bX".into(), "cY".into(), "u50".into()]);
    let rel = DynamicRelation::from_rows(schema, &rows).unwrap();
    let config = DynFdConfig {
        depth_first_search: false,
        ..DynFdConfig::default()
    };
    let mut dynfd = DynFd::new(rel, config);
    let mut batch = Batch::new();
    batch.delete(RecordId(16));
    let result = dynfd.apply_batch(&batch).unwrap();
    assert_eq!(result.metrics.dfs_seeds, 0);
    dynfd.verify_consistency().unwrap();
}

#[test]
fn key_constraint_pruning_skips_key_lhs_fds() {
    // Column 0 is a genuine key in this data and declared as such.
    let schema = Schema::anonymous("t", 4);
    let rows: Vec<Vec<String>> = (0..20)
        .map(|i| {
            vec![
                format!("k{i}"),
                format!("a{}", i % 3),
                format!("b{}", i % 4),
                format!("c{}", i % 2),
            ]
        })
        .collect();
    let rel = DynamicRelation::from_rows(schema, &rows).unwrap();
    let config = DynFdConfig {
        known_keys: AttrSet::single(0),
        ..DynFdConfig::default()
    };
    let mut dynfd = DynFd::new(rel, config);

    let mut batch = Batch::new();
    batch.insert(vec![
        "k99".into(),
        "a1".into(),
        "b2".to_string(),
        "c0".into(),
    ]);
    let result = dynfd.apply_batch(&batch).unwrap();
    assert!(
        result.metrics.skipped_by_key_constraint > 0,
        "key-LHS FDs must be skipped, metrics: {:?}",
        result.metrics
    );
    // The optimization must not change the result.
    dynfd.verify_consistency().unwrap();
    assert_eq!(
        dynfd.positive_cover(),
        &dynfd_static::tane::discover(dynfd.relation())
    );
}

#[test]
fn update_pruning_skips_untouched_candidates() {
    let schema = Schema::anonymous("t", 4);
    let rows: Vec<Vec<String>> = (0..20)
        .map(|i| {
            vec![
                format!("a{}", i % 3),
                format!("b{}", i % 4),
                format!("c{}", i % 2),
                format!("d{}", i % 5),
            ]
        })
        .collect();
    let rel = DynamicRelation::from_rows(schema, &rows).unwrap();
    let config = DynFdConfig {
        update_pruning: true,
        ..DynFdConfig::default()
    };
    let mut dynfd = DynFd::new(rel, config);

    // A pure-update batch touching only column 3.
    let mut batch = Batch::new();
    batch.update(RecordId(0), vec!["a0", "b0", "c0", "dX"]);
    batch.update(RecordId(1), vec!["a1", "b1", "c1", "dY"]);
    let result = dynfd.apply_batch(&batch).unwrap();
    assert!(
        result.metrics.skipped_by_update_pruning > 0,
        "untouched candidates must be skipped, metrics: {:?}",
        result.metrics
    );
    dynfd.verify_consistency().unwrap();
    assert_eq!(
        dynfd.positive_cover(),
        &dynfd_static::tane::discover(dynfd.relation())
    );
}

#[test]
fn update_pruning_disabled_for_mixed_batches() {
    let schema = Schema::anonymous("t", 3);
    let rows: Vec<Vec<String>> = (0..10)
        .map(|i| {
            vec![
                format!("a{}", i % 2),
                format!("b{}", i % 3),
                format!("c{i}"),
            ]
        })
        .collect();
    let rel = DynamicRelation::from_rows(schema, &rows).unwrap();
    let config = DynFdConfig {
        update_pruning: true,
        ..DynFdConfig::default()
    };
    let mut dynfd = DynFd::new(rel, config);

    // Mixed batch: the pure insert makes update pruning inapplicable.
    let mut batch = Batch::new();
    batch
        .update(RecordId(0), vec!["a0", "b0", "cX"])
        .insert(vec!["a1", "b1", "cY"]);
    let result = dynfd.apply_batch(&batch).unwrap();
    assert_eq!(result.metrics.skipped_by_update_pruning, 0);
    dynfd.verify_consistency().unwrap();
    assert_eq!(
        dynfd.positive_cover(),
        &dynfd_static::tane::discover(dynfd.relation())
    );
}

#[test]
fn update_pruning_random_streams_stay_exact() {
    // Same oracle harness as the main random test, update-only batches.
    let cols = 4usize;
    let mut x = 0xFEED_u64;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 16
    };
    let rows: Vec<Vec<String>> = (0..20)
        .map(|_| {
            (0..cols)
                .map(|c| format!("v{}", next() % (2 + c as u64)))
                .collect()
        })
        .collect();
    let rel = DynamicRelation::from_rows(Schema::anonymous("u", cols), &rows).unwrap();
    let config = DynFdConfig {
        update_pruning: true,
        ..DynFdConfig::default()
    };
    let mut dynfd = DynFd::new(rel, config);
    let mut live: Vec<RecordId> = (0..20).map(RecordId).collect();
    let mut next_id = 20u64;
    for _ in 0..6 {
        let mut batch = Batch::new();
        let mut created = Vec::new();
        for _ in 0..3 {
            let idx = (next() as usize) % live.len();
            let rid = live.swap_remove(idx);
            // Touch one column only.
            let mut row = dynfd.relation().materialize(rid).unwrap();
            let c = (next() as usize) % cols;
            row[c] = format!("v{}", next() % (2 + c as u64));
            batch.update(rid, row);
            created.push(RecordId(next_id));
            next_id += 1;
        }
        live.extend(created);
        dynfd.apply_batch(&batch).unwrap();
        dynfd.verify_consistency().unwrap();
        assert_eq!(
            dynfd.positive_cover(),
            &dynfd_static::fdep::discover(dynfd.relation())
        );
    }
}

#[test]
fn limited_cache_leaves_covers_unchanged() {
    // One seeded stream of mixed batches. After a few batches warm an
    // unlimited engine's PLI cache, clones of it are limited above the
    // configured budget (clamped back to it), to a quarter of it (LRU
    // evictions) and to 0 (uncached), and all of them replay the rest
    // of the stream. Covers, relation and FD deltas must agree after
    // every batch; only the cache and its degradation stamp may differ.
    const BUDGET: usize = 4096;
    const WARM: usize = 3;
    let cols = 5usize;
    let mut x = 0xCAC4E_u64;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 16
    };
    let row = |next: &mut dyn FnMut() -> u64| -> Vec<String> {
        (0..cols)
            .map(|c| format!("v{}", next() % (2 + c as u64)))
            .collect()
    };
    let rows: Vec<Vec<String>> = (0..30).map(|_| row(&mut next)).collect();
    let rel = DynamicRelation::from_rows(Schema::anonymous("c", cols), &rows).unwrap();
    let config = DynFdConfig {
        pli_cache_bytes: BUDGET,
        ..DynFdConfig::default()
    };
    let mut unlimited = DynFd::new(rel, config);
    let mut limited: Vec<(usize, DynFd)> = Vec::new();
    let mut live: Vec<RecordId> = (0..30).map(RecordId).collect();
    let mut next_id = 30u64;
    let (mut full_hits, mut quarter_evictions) = (0, 0);
    for i in 0..WARM + 10 {
        if i == WARM {
            assert!(!unlimited.pli_cache.is_empty(), "warm-up cached nothing");
            for limit in [2 * BUDGET, BUDGET / 4, 0] {
                let mut engine = unlimited.clone();
                let evictions = engine.pli_cache.stats().evictions;
                engine.limit_cache(limit);
                if limit == 0 {
                    assert!(engine.pli_cache.is_empty());
                    assert_eq!(engine.pli_cache.stats().evictions, evictions);
                }
                limited.push((limit.min(BUDGET), engine));
            }
        }
        let mut batch = Batch::new();
        for _ in 0..2 {
            let rid = live.swap_remove((next() as usize) % live.len());
            batch.delete(rid);
        }
        for _ in 0..2 {
            let rid = live.swap_remove((next() as usize) % live.len());
            batch.update(rid, row(&mut next));
            live.push(RecordId(next_id));
            next_id += 1;
        }
        for _ in 0..3 {
            batch.insert(row(&mut next));
            live.push(RecordId(next_id));
            next_id += 1;
        }
        let reference = unlimited.apply_batch(&batch).unwrap();
        assert_eq!(reference.metrics.degraded_batches, 0);
        for (budget, engine) in &mut limited {
            let result = engine.apply_batch(&batch).unwrap();
            assert_eq!(
                engine.logical_divergence(&unlimited),
                None,
                "budget {budget}"
            );
            assert_eq!(result.added, reference.added, "budget {budget}");
            assert_eq!(result.removed, reference.removed, "budget {budget}");
            assert_eq!(engine.cache_budget(), *budget);
            let degraded = usize::from(*budget < BUDGET);
            assert_eq!(result.metrics.degraded_batches, degraded, "budget {budget}");
            if *budget == BUDGET {
                full_hits += result.metrics.cache_hits;
            }
            if *budget == BUDGET / 4 {
                quarter_evictions += result.metrics.cache_evictions;
            }
            if *budget == 0 {
                assert!(!engine.cache_enabled());
                assert_eq!(result.metrics.cache_hits + result.metrics.cache_misses, 0);
                assert_eq!(engine.resident_bytes(), engine.relation().approx_bytes());
            }
        }
    }
    assert!(full_hits > 0, "the stream never reused a cached partition");
    assert!(quarter_evictions > 0, "the quarter budget never evicted");
}

#[test]
fn a_partition_built_in_a_level_serves_the_rest_of_it() {
    // Two non-FDs with the same LHS, as the delete phase validates them:
    // the first job misses and builds {f, c}; the second pivots on it.
    let mut dynfd = DynFd::new(paper_relation(), DynFdConfig::default());
    let before = dynfd.pli_cache.stats();
    let jobs = [(s(&[0, 3]), s(&[1])), (s(&[0, 3]), s(&[2]))];
    let results = dynfd.run_level_validations(&jobs, &dynfd_relation::ValidationOptions::full());
    assert_eq!(results.len(), 2);
    let delta = dynfd.pli_cache.stats().delta_since(&before);
    assert_eq!((delta.misses, delta.hits), (1, 1));
    assert_eq!(dynfd.pli_cache.len(), 1);
}

#[test]
fn metrics_report_batch_composition() {
    let mut dynfd = DynFd::new(paper_relation(), DynFdConfig::default());
    let mut batch = Batch::new();
    batch
        .update(RecordId(0), vec!["Max", "Jones", "14482", "Golm"])
        .delete(RecordId(1));
    let result = dynfd.apply_batch(&batch).unwrap();
    assert_eq!(result.metrics.inserts, 1);
    assert_eq!(result.metrics.deletes, 2);
    assert!(result.metrics.wall_time.as_nanos() > 0);
}

// ---------------------------------------------------------------------------
// Transactional apply_batch: fault injection, rollback, degraded recovery.
// ---------------------------------------------------------------------------

fn insert_batch() -> Batch {
    let mut batch = Batch::new();
    batch
        .insert(vec!["Marie", "Scott", "14467", "Potsdam"])
        .insert(vec!["Marie", "Gray", "14469", "Potsdam"]);
    batch
}

#[test]
fn insert_phase_panic_rolls_back_to_pre_batch_state() {
    let mut dynfd = DynFd::new(paper_relation(), DynFdConfig::default());
    let pristine = dynfd.clone();
    dynfd.arm_failpoint(FailPoint {
        phase: FailPhase::InsertPhase,
        after_validations: 0,
        action: FailAction::Panic,
    });

    let err = dynfd.apply_batch(&insert_batch()).unwrap_err();
    match &err {
        DynFdError::PhasePanicked { phase, detail } => {
            assert_eq!(*phase, "insert-phase");
            assert!(detail.contains("injected failpoint"), "payload: {detail}");
        }
        other => panic!("expected PhasePanicked, got {other:?}"),
    }
    assert!(!err.is_rejection(), "a panic is an internal fault");
    assert_eq!(err.exit_code(), 10);

    assert_eq!(
        dynfd.state_divergence(&pristine),
        None,
        "failed batch must leave no trace"
    );
    assert!(
        dynfd.armed_failpoint().is_none(),
        "failpoint disarms on trip"
    );
    dynfd.verify_consistency().unwrap();

    // The very same batch succeeds on retry and matches the oracle.
    dynfd.apply_batch(&insert_batch()).unwrap();
    dynfd.verify_consistency().unwrap();
    assert_eq!(
        dynfd.positive_cover(),
        &dynfd_static::tane::discover(dynfd.relation())
    );
}

#[test]
fn delete_phase_panic_rolls_back_to_pre_batch_state() {
    let mut dynfd = DynFd::new(paper_relation(), DynFdConfig::default());
    let pristine = dynfd.clone();
    dynfd.arm_failpoint(FailPoint {
        phase: FailPhase::DeletePhase,
        after_validations: 0,
        action: FailAction::Panic,
    });

    let mut batch = Batch::new();
    batch.delete(RecordId(2)).delete(RecordId(3));
    let err = dynfd.apply_batch(&batch).unwrap_err();
    assert!(matches!(
        err,
        DynFdError::PhasePanicked {
            phase: "delete-phase",
            ..
        }
    ));
    assert!(dynfd.state_eq(&pristine));
    dynfd.verify_consistency().unwrap();

    dynfd.apply_batch(&batch).unwrap();
    dynfd.verify_consistency().unwrap();
    assert_eq!(
        dynfd.positive_cover(),
        &dynfd_static::tane::discover(dynfd.relation())
    );
}

#[test]
fn mixed_batch_panic_restores_relation_and_covers_bit_identically() {
    // A batch with deletes, inserts and an update, panicking in the
    // insert phase: the delete phase already mutated the covers, so the
    // rollback must restore both the relation (undo log) and the covers
    // (snapshots).
    let mut dynfd = DynFd::new(paper_relation(), DynFdConfig::default());
    let pristine = dynfd.clone();
    dynfd.arm_failpoint(FailPoint {
        phase: FailPhase::InsertPhase,
        after_validations: 0,
        action: FailAction::Panic,
    });

    let mut batch = Batch::new();
    batch
        .delete(RecordId(2))
        .update(RecordId(0), vec!["Max", "Jones", "10115", "Berlin"])
        .insert(vec!["Marie", "Gray", "14469", "Potsdam"]);
    dynfd.apply_batch(&batch).unwrap_err();
    assert_eq!(dynfd.state_divergence(&pristine), None);

    dynfd.apply_batch(&batch).unwrap();
    dynfd.verify_consistency().unwrap();
    assert_eq!(
        dynfd.positive_cover(),
        &dynfd_static::tane::discover(dynfd.relation())
    );
}

#[test]
fn cover_corruption_triggers_degraded_rebuild_under_cheap_consistency() {
    let config = DynFdConfig {
        consistency: ConsistencyLevel::Cheap,
        ..DynFdConfig::default()
    };
    let mut dynfd = DynFd::new(paper_relation(), config);
    let mut monitor = FdMonitor::new(&dynfd.minimal_fds());
    dynfd.arm_failpoint(FailPoint {
        phase: FailPhase::InsertPhase,
        after_validations: 0,
        action: FailAction::DropCoverFd,
    });

    let result = dynfd.apply_batch(&insert_batch()).unwrap();
    assert_eq!(result.metrics.cover_rebuilds, 1, "corruption was repaired");
    assert_eq!(dynfd.recovery_count(), 1);
    assert!(dynfd.last_breach().is_some());
    dynfd.verify_consistency().unwrap();
    assert_eq!(
        dynfd.positive_cover(),
        &dynfd_static::tane::discover(dynfd.relation())
    );

    let report = monitor.observe(&result);
    assert!(report.recovered, "monitor surfaces the rebuild");
}

#[test]
fn cover_corruption_triggers_degraded_rebuild_under_full_consistency() {
    let config = DynFdConfig {
        consistency: ConsistencyLevel::Full,
        ..DynFdConfig::default()
    };
    let mut dynfd = DynFd::new(paper_relation(), config);
    dynfd.arm_failpoint(FailPoint {
        phase: FailPhase::InsertPhase,
        after_validations: 0,
        action: FailAction::DropCoverFd,
    });

    let result = dynfd.apply_batch(&insert_batch()).unwrap();
    assert_eq!(result.metrics.cover_rebuilds, 1);
    assert_eq!(dynfd.recovery_count(), 1);
    dynfd.verify_consistency().unwrap();
    assert_eq!(
        dynfd.positive_cover(),
        &dynfd_static::tane::discover(dynfd.relation())
    );
}

#[test]
fn delete_phase_corruption_ends_consistent_either_way() {
    // Corruption planted mid-delete-phase may be swept coincidentally:
    // a later promotion's `add_minimal` prunes specializations, which
    // can include the planted redundant FD. Either way the batch must
    // end consistent — repaired by the degraded-mode rebuild if the
    // corruption survived, untouched-correct if it was swept.
    let config = DynFdConfig {
        consistency: ConsistencyLevel::Cheap,
        ..DynFdConfig::default()
    };
    let mut dynfd = DynFd::new(paper_relation(), config);
    dynfd.arm_failpoint(FailPoint {
        phase: FailPhase::DeletePhase,
        after_validations: 0,
        action: FailAction::DropCoverFd,
    });

    let mut batch = Batch::new();
    batch.delete(RecordId(3));
    dynfd.apply_batch(&batch).unwrap();
    assert!(dynfd.armed_failpoint().is_none(), "failpoint tripped");
    dynfd.verify_consistency().unwrap();
    assert_eq!(
        dynfd.positive_cover(),
        &dynfd_static::tane::discover(dynfd.relation())
    );
}

#[test]
fn consistency_off_lets_corruption_persist_until_manual_rebuild() {
    // Default mode pays no per-batch consistency cost, so an injected
    // corruption survives the batch; rebuild_covers() repairs on demand.
    let mut dynfd = DynFd::new(paper_relation(), DynFdConfig::default());
    dynfd.arm_failpoint(FailPoint {
        phase: FailPhase::InsertPhase,
        after_validations: 0,
        action: FailAction::DropCoverFd,
    });

    let result = dynfd.apply_batch(&insert_batch()).unwrap();
    assert_eq!(result.metrics.cover_rebuilds, 0);
    assert!(
        dynfd.verify_consistency().is_err(),
        "corruption goes undetected with consistency checks off"
    );

    dynfd.rebuild_covers();
    dynfd.verify_consistency().unwrap();
    assert_eq!(
        dynfd.positive_cover(),
        &dynfd_static::tane::discover(dynfd.relation())
    );
}

#[test]
fn failpoint_only_fires_in_its_phase() {
    // An insert-phase failpoint must not trip on a delete-only batch.
    let mut dynfd = DynFd::new(paper_relation(), DynFdConfig::default());
    dynfd.arm_failpoint(FailPoint {
        phase: FailPhase::InsertPhase,
        after_validations: 0,
        action: FailAction::Panic,
    });
    let mut batch = Batch::new();
    batch.delete(RecordId(1));
    dynfd.apply_batch(&batch).unwrap();
    dynfd.verify_consistency().unwrap();
    assert!(
        dynfd.armed_failpoint().is_some(),
        "untripped failpoint stays armed"
    );
}

#[test]
fn rejected_batch_reports_no_divergence_from_clone() {
    let mut dynfd = DynFd::new(paper_relation(), DynFdConfig::default());
    let pristine = dynfd.clone();
    let mut batch = Batch::new();
    batch
        .insert(vec!["Eve", "Stone", "10999", "Berlin"])
        .delete(RecordId(4711));
    assert!(matches!(
        dynfd.apply_batch(&batch),
        Err(DynFdError::UnknownRecord(RecordId(4711)))
    ));
    assert_eq!(dynfd.state_divergence(&pristine), None);
}

#[test]
fn state_divergence_pinpoints_differences() {
    let a = DynFd::new(paper_relation(), DynFdConfig::default());
    let b = a.clone();
    assert_eq!(a.state_divergence(&b), None);
    assert!(a.state_eq(&b));

    let mut c = a.clone();
    let mut batch = Batch::new();
    batch.delete(RecordId(0));
    c.apply_batch(&batch).unwrap();
    let divergence = a.state_divergence(&c).expect("states differ");
    assert!(divergence.contains("relation"), "got: {divergence}");
}
