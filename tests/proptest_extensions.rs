//! Property tests for the extension surface: change-log round-trips,
//! Armstrong-closure laws, batch chunking, and the soundness of
//! the §8 prunings (results identical with and without them).

use dynfd::common::{AttrSet, Fd, RecordId, Schema};
use dynfd::core::{DynFd, DynFdConfig};
use dynfd::lattice::closure::{attribute_closure, implies, is_superkey};
use dynfd::lattice::FdTree;
use dynfd::relation::{parse_changelog, write_changelog, Batch, ChangeOp, DynamicRelation};
use proptest::prelude::*;

const ARITY: usize = 5;

fn arb_value() -> impl Strategy<Value = String> {
    // Values including the separator and escape characters, to stress
    // the change-log escaping.
    proptest::collection::vec(
        prop_oneof![
            Just('a'),
            Just('b'),
            Just('|'),
            Just('\\'),
            Just(','),
            Just(' ')
        ],
        0..6,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

fn arb_op() -> impl Strategy<Value = ChangeOp> {
    prop_oneof![
        proptest::collection::vec(arb_value(), ARITY).prop_map(ChangeOp::Insert),
        (0u64..100).prop_map(|i| ChangeOp::Delete(RecordId(i))),
        ((0u64..100), proptest::collection::vec(arb_value(), ARITY))
            .prop_map(|(i, row)| ChangeOp::Update(RecordId(i), row)),
    ]
}

fn arb_fd() -> impl Strategy<Value = Fd> {
    (0usize..ARITY, 0u32..(1 << ARITY)).prop_map(|(rhs, mask)| {
        let lhs: AttrSet = (0..ARITY)
            .filter(|&a| a != rhs && mask >> a & 1 == 1)
            .collect();
        Fd::new(lhs, rhs)
    })
}

fn arb_set() -> impl Strategy<Value = AttrSet> {
    (0u32..(1 << ARITY)).prop_map(|mask| (0..ARITY).filter(|&a| mask >> a & 1 == 1).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn changelog_roundtrip(ops in proptest::collection::vec(arb_op(), 0..25)) {
        // Values containing '#' at line start or newlines are out of
        // scope for the format; the generator avoids them.
        let text = write_changelog(&ops);
        let back = parse_changelog(&text, ARITY).unwrap();
        prop_assert_eq!(back, ops);
    }

    #[test]
    fn chunking_conserves_operations(
        ops in proptest::collection::vec(arb_op(), 0..40),
        capacity in 1usize..9,
    ) {
        let batches = Batch::chunk(ops.clone(), capacity);
        let mut emitted: Vec<ChangeOp> = Vec::new();
        for (i, batch) in batches.iter().enumerate() {
            prop_assert!(!batch.is_empty(), "no empty batch");
            if i + 1 < batches.len() {
                prop_assert_eq!(batch.len(), capacity, "only full batches mid-stream");
            } else {
                prop_assert!(batch.len() <= capacity);
            }
            emitted.extend(batch.ops().iter().cloned());
        }
        prop_assert_eq!(emitted, ops, "order and content preserved");
    }

    #[test]
    fn closure_laws(
        fds in proptest::collection::vec(arb_fd(), 0..12),
        x in arb_set(),
        y in arb_set(),
    ) {
        let cover: FdTree = fds.iter().copied().collect();
        let cx = attribute_closure(&cover, x, ARITY);
        // Extensive: X ⊆ X⁺.
        prop_assert!(x.is_subset_of(&cx));
        // Idempotent: (X⁺)⁺ = X⁺.
        prop_assert_eq!(attribute_closure(&cover, cx, ARITY), cx);
        // Monotone: X ⊆ Y ⇒ X⁺ ⊆ Y⁺.
        if x.is_subset_of(&y) {
            prop_assert!(cx.is_subset_of(&attribute_closure(&cover, y, ARITY)));
        }
        // Every stored FD is implied, and implication matches closures.
        for fd in &fds {
            prop_assert!(implies(&cover, fd, ARITY));
        }
        for rhs in 0..ARITY {
            let fd = Fd { lhs: x, rhs };
            prop_assert_eq!(
                implies(&cover, &fd, ARITY),
                cx.contains(rhs),
                "implication must equal closure membership"
            );
        }
        // Superkey iff closure is everything.
        prop_assert_eq!(is_superkey(&cover, x, ARITY), cx == AttrSet::full(ARITY));
    }

    #[test]
    fn update_pruning_is_invisible_in_results(
        rows in proptest::collection::vec(
            proptest::collection::vec((0u8..3).prop_map(|v| format!("v{v}")), ARITY),
            3..10,
        ),
        touches in proptest::collection::vec((0usize..8, 0usize..ARITY, 0u8..3), 1..12),
    ) {
        // Build identical relations; drive both with the same pure-update
        // batches; covers must match exactly at every step.
        let schema = Schema::anonymous("u", ARITY);
        let rel = DynamicRelation::from_rows(schema, &rows).unwrap();
        let mut plain = DynFd::new(rel.clone(), DynFdConfig::default());
        let mut pruned = DynFd::new(
            rel,
            DynFdConfig { update_pruning: true, ..DynFdConfig::default() },
        );
        let mut live: Vec<RecordId> = (0..rows.len() as u64).map(RecordId).collect();
        let mut next_id = rows.len() as u64;
        for chunk in touches.chunks(3) {
            let mut batch = Batch::new();
            let mut fresh = Vec::new();
            for &(pick, col, val) in chunk {
                let rid = live[pick % live.len()];
                if batch.ops().iter().any(|op| matches!(op, ChangeOp::Update(r, _) if *r == rid)) {
                    continue; // one update per record per batch
                }
                let mut row = plain.relation().materialize(rid).unwrap();
                row[col] = format!("v{val}");
                batch.update(rid, row);
                live.retain(|&r| r != rid);
                fresh.push(RecordId(next_id));
                next_id += 1;
            }
            live.extend(fresh);
            if batch.is_empty() { continue; }
            plain.apply_batch(&batch).unwrap();
            pruned.apply_batch(&batch).unwrap();
            prop_assert_eq!(plain.positive_cover(), pruned.positive_cover());
            prop_assert_eq!(plain.negative_cover(), pruned.negative_cover());
        }
        pruned.verify_consistency().map_err(TestCaseError::fail)?;
    }
}

#[test]
fn key_pruning_is_invisible_in_results() {
    // Column 0 is unique by construction and declared as a key; results
    // must match the undeclared run batch for batch.
    let schema = Schema::anonymous("k", 4);
    let rows: Vec<Vec<String>> = (0..25)
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
    let mut plain = DynFd::new(rel.clone(), DynFdConfig::default());
    let mut keyed = DynFd::new(
        rel,
        DynFdConfig {
            known_keys: AttrSet::single(0),
            ..DynFdConfig::default()
        },
    );
    let mut key_counter = 25u64;
    for round in 0..6 {
        let mut batch = Batch::new();
        for j in 0..4 {
            batch.insert(vec![
                format!("k{key_counter}"),
                format!("a{}", (round + j) % 3),
                format!("b{}", (round * j) % 4),
                format!("c{}", j % 2),
            ]);
            key_counter += 1;
        }
        if round % 2 == 1 {
            batch.delete(RecordId(round as u64));
        }
        plain.apply_batch(&batch).unwrap();
        keyed.apply_batch(&batch).unwrap();
        assert_eq!(
            plain.positive_cover(),
            keyed.positive_cover(),
            "round {round}"
        );
        assert_eq!(
            plain.negative_cover(),
            keyed.negative_cover(),
            "round {round}"
        );
    }
    keyed.verify_consistency().unwrap();
}
