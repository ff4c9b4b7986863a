//! The columnar arena must be invisible in the results: replaying any
//! change trace through the columnar [`DynamicRelation`] and through the
//! retained row-oriented reference store
//! ([`RowStoreRelation`](dynfd::relation::RowStoreRelation)) must yield
//! bit-identical records, validation verdicts, *and violation
//! witnesses*.
//!
//! This is the gate for the columnar-store PR: slot reuse, free-list
//! order, and dense-PLI iteration order may differ internally, but
//! nothing observable may move.

use dynfd::common::{AttrSet, RecordId, Schema};
use dynfd::relation::{
    validate, validate_rowstore, Batch, ChangeOp, DynamicRelation, RowStoreRelation,
    ValidationOptions,
};
use dynfd_testkit::Trace;
use proptest::prelude::*;

const COLS: usize = 4;

/// Both stores replayed batch by batch; verdicts and witnesses compared
/// after every batch under the full and (where applicable) delta-pruned
/// validation options.
fn assert_layouts_agree(initial: &[Vec<String>], batches: &[Batch], schema: Schema, label: &str) {
    let mut reference = RowStoreRelation::from_rows(schema.clone(), initial)
        .expect("reference store accepts the trace");
    let mut columnar =
        DynamicRelation::from_rows(schema, initial).expect("columnar store accepts the trace");
    let arity = columnar.arity();

    // Every 1-ary LHS with all remaining attributes as simultaneous
    // RHS (exercises the multi-RHS group tables), plus every 2-ary LHS.
    let mut candidates: Vec<(AttrSet, AttrSet)> = Vec::new();
    for a in 0..arity {
        let lhs = AttrSet::single(a);
        let rhs: AttrSet = (0..arity).filter(|&r| r != a).collect();
        candidates.push((lhs, rhs));
        for b in (a + 1)..arity {
            let lhs: AttrSet = [a, b].into_iter().collect();
            let rhs: AttrSet = (0..arity).filter(|&r| r != a && r != b).collect();
            if !rhs.is_empty() {
                candidates.push((lhs, rhs));
            }
        }
    }

    for (i, batch) in batches.iter().enumerate() {
        let (ins, del, first_new) = reference
            .apply_batch(batch)
            .expect("reference batch application");
        let applied = columnar
            .apply_batch(batch)
            .expect("columnar batch application");
        assert_eq!(ins, applied.inserted, "{label}: batch {i} inserted set");
        assert_eq!(del, applied.deleted, "{label}: batch {i} deleted set");
        assert_eq!(
            first_new, applied.first_new_id,
            "{label}: batch {i} id watermark"
        );
        assert_eq!(
            applied.inserted.len(),
            applied.inserted_slots.len(),
            "{label}: batch {i} slot list not aligned with inserts"
        );
        for (rid, &slot) in applied.inserted.iter().zip(&applied.inserted_slots) {
            assert_eq!(
                columnar.slot_of(*rid),
                Some(slot),
                "{label}: batch {i} reported a stale slot for {rid}"
            );
        }

        // Record-level equality, id by id.
        assert_eq!(reference.len(), columnar.len(), "{label}: batch {i} len");
        for rid in columnar.record_ids() {
            assert_eq!(
                reference.compressed(rid),
                columnar.compressed(rid).map(|r| r.to_vec()).as_deref(),
                "{label}: batch {i}: record {rid} diverged"
            );
        }

        // Verdict + witness equality under both pruning regimes.
        let mut option_sets = vec![ValidationOptions::full()];
        if let Some(first) = first_new {
            option_sets.push(ValidationOptions::delta(first));
        }
        for opts in &option_sets {
            for &(lhs, rhs) in &candidates {
                let old = validate_rowstore(&reference, lhs, rhs, opts);
                let new = validate(&columnar, lhs, rhs, opts);
                assert_eq!(
                    old.outcomes, new.outcomes,
                    "{label}: batch {i}: layouts diverged on {lhs:?} -> {rhs:?} ({opts:?})"
                );
            }
        }
        columnar
            .check_arena_invariants()
            .unwrap_or_else(|e| panic!("{label}: batch {i}: arena invariants: {e}"));
    }
}

#[test]
fn testkit_traces_replay_identically_across_layouts() {
    for case in 0..6 {
        let trace = Trace::for_case(23, case);
        let label = format!("case {case} ({})", trace.profile);
        assert_layouts_agree(
            &trace.initial_rows,
            &trace.to_batches(),
            trace.schema.clone(),
            &label,
        );
    }
}

// ---------------------------------------------------------------------------
// Property-based variant: random churn scripts, random batch sizes.
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
            // Deletes weighted up: slot reuse is the hazard this gate
            // exists for.
            2 => (0usize..32).prop_map(ScriptOp::DeleteNth),
            1 => ((0usize..32), arb_row()).prop_map(|(i, r)| ScriptOp::UpdateNth(i, r)),
        ],
        1..30,
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_churn_replays_identically_across_layouts(
        initial in proptest::collection::vec(arb_row(), 0..12),
        script in arb_script(),
        batch_size in 1usize..8,
    ) {
        let batches = to_batches(&script, initial.len(), batch_size);
        assert_layouts_agree(
            &initial,
            &batches,
            Schema::anonymous("p", COLS),
            "random script",
        );
    }
}
