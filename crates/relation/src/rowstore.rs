//! Reference row-oriented record store and validator.
//!
//! This module preserves the pre-columnar layout of the engine — records
//! as `HashMap<RecordId, Box<[ValueId]>>`, PLIs as
//! `BTreeMap<ValueId, Vec<RecordId>>`, validation through `HashMap`
//! group tables — as an executable specification:
//! `tests/layout_equivalence.rs` replays change traces through this
//! store and the columnar [`DynamicRelation`](crate::DynamicRelation)
//! side by side, asserting bit-identical verdicts *and witnesses*. (Its
//! speed against the columnar store, which backed the layout decision,
//! is recorded in DESIGN.md §6f.)
//!
//! It is deliberately a faithful copy of the old semantics, not a
//! maintained engine: no undo log, no cache integration. Do not grow
//! features here — fidelity is the point.

use crate::batch::{Batch, ChangeOp};
use crate::dictionary::{Dictionary, ValueId};
use crate::validate::{RhsOutcome, ValidationOptions, ValidationResult, ValidationStats};
use dynfd_common::{AttrId, AttrSet, DynError, RecordId, Result, Schema};
use std::collections::{BTreeMap, HashMap};

/// The row-oriented reference relation: one boxed code slice per record,
/// rid-keyed PLI clusters, value-ordered `BTreeMap` cluster maps.
#[derive(Clone, Debug)]
pub struct RowStoreRelation {
    schema: Schema,
    dictionaries: Vec<Dictionary>,
    plis: Vec<BTreeMap<ValueId, Vec<RecordId>>>,
    records: HashMap<RecordId, Box<[ValueId]>>,
    next_id: RecordId,
}

impl RowStoreRelation {
    /// Creates an empty reference relation for `schema`.
    pub fn new(schema: Schema) -> Self {
        let arity = schema.arity();
        RowStoreRelation {
            schema,
            dictionaries: (0..arity).map(|_| Dictionary::new()).collect(),
            plis: (0..arity).map(|_| BTreeMap::new()).collect(),
            records: HashMap::new(),
            next_id: RecordId(0),
        }
    }

    /// Creates and bulk-loads a reference relation.
    pub fn from_rows<S: AsRef<str>>(schema: Schema, rows: &[Vec<S>]) -> Result<Self> {
        let mut rel = RowStoreRelation::new(schema);
        for row in rows {
            rel.insert_row(row)?;
        }
        Ok(rel)
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the relation holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The next surrogate id to be assigned.
    pub fn next_id(&self) -> RecordId {
        self.next_id
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// The compressed record for `rid`, if live.
    pub fn compressed(&self, rid: RecordId) -> Option<&[ValueId]> {
        self.records.get(&rid).map(|r| &**r)
    }

    /// Inserts one row, returning the assigned id (old-layout insert
    /// path: encode per column, push to rid-sorted clusters, box the
    /// code row).
    pub fn insert_row<S: AsRef<str>>(&mut self, row: &[S]) -> Result<RecordId> {
        if row.len() != self.arity() {
            return Err(DynError::ArityMismatch {
                expected: self.arity(),
                actual: row.len(),
            });
        }
        let rid = self.next_id;
        self.next_id = self.next_id.next();
        let codes: Box<[ValueId]> = row
            .iter()
            .enumerate()
            .map(|(attr, value)| {
                let code = self.dictionaries[attr].encode(value.as_ref());
                self.plis[attr].entry(code).or_default().push(rid);
                code
            })
            .collect();
        self.records.insert(rid, codes);
        Ok(rid)
    }

    /// Deletes a record from the map and every PLI cluster.
    pub fn delete_record(&mut self, rid: RecordId) -> Result<()> {
        let codes = self
            .records
            .remove(&rid)
            .ok_or(DynError::UnknownRecord(rid))?;
        for (attr, &code) in codes.iter().enumerate() {
            let cluster = self.plis[attr]
                .get_mut(&code)
                .expect("record's value has a cluster");
            if let Ok(pos) = cluster.binary_search(&rid) {
                cluster.remove(pos);
            }
            if cluster.is_empty() {
                self.plis[attr].remove(&code);
            }
        }
        Ok(())
    }

    /// Applies a batch with the engine's phase ordering (pre-existing
    /// deletes, then inserts, then deletes of same-batch inserts) and
    /// returns `(inserted, deleted, first_new_id)`.
    pub fn apply_batch(
        &mut self,
        batch: &Batch,
    ) -> Result<(Vec<RecordId>, Vec<RecordId>, Option<RecordId>)> {
        let mut deferred: Vec<RecordId> = Vec::new();
        let mut inserted = Vec::new();
        let mut deleted = Vec::new();
        let mut first_new = None;
        for op in batch.ops() {
            let rid = match op {
                ChangeOp::Delete(rid) | ChangeOp::Update(rid, _) => *rid,
                ChangeOp::Insert(_) => continue,
            };
            if self.records.contains_key(&rid) {
                self.delete_record(rid)?;
                deleted.push(rid);
            } else {
                deferred.push(rid);
            }
        }
        for op in batch.ops() {
            let row = match op {
                ChangeOp::Insert(row) | ChangeOp::Update(_, row) => row,
                ChangeOp::Delete(_) => continue,
            };
            let rid = self.insert_row(row)?;
            first_new.get_or_insert(rid);
            inserted.push(rid);
        }
        for rid in deferred {
            self.delete_record(rid)?;
            inserted.retain(|&r| r != rid);
        }
        Ok((inserted, deleted, first_new))
    }
}

/// Validates `lhs -> r` for every `r ∈ rhs_set` with the old
/// row-oriented algorithm: pivot on the PLI with the smallest maximal
/// cluster, group each cluster through `HashMap` tables keyed by the
/// remaining-LHS codes, compare members against their group
/// representative record (member-major), terminate each RHS at its first
/// violation.
///
/// Outcome order, verdicts, and witness pairs are the layout-equivalence
/// contract: the columnar validator must reproduce them bit for bit.
pub fn validate_rowstore(
    rel: &RowStoreRelation,
    lhs: AttrSet,
    rhs_set: AttrSet,
    opts: &ValidationOptions,
) -> ValidationResult {
    assert!(!rhs_set.is_empty(), "validate called with no RHS");
    assert!(lhs.is_disjoint(&rhs_set), "trivial candidate: rhs ∈ lhs");
    let mut stats = ValidationStats::default();
    let mut outcomes: Vec<(AttrId, RhsOutcome)> =
        rhs_set.iter().map(|r| (r, RhsOutcome::Valid)).collect();
    let mut active = rhs_set;

    if lhs.is_empty() {
        for (r, outcome) in outcomes.iter_mut() {
            let pli = &rel.plis[*r];
            if pli.len() > 1 {
                let mut it = pli.values();
                let c1 = it.next().expect("first cluster");
                let c2 = it.next().expect("second cluster");
                *outcome = RhsOutcome::Violated(c1[0], c2[0]);
            }
        }
        return ValidationResult {
            lhs,
            outcomes,
            stats,
        };
    }

    let pivot = lhs
        .iter()
        .min_by_key(|&a| (rel.plis[a].values().map(Vec::len).max().unwrap_or(0), a))
        .expect("non-empty lhs");
    let rest: Vec<AttrId> = lhs.iter().filter(|&a| a != pivot).collect();
    let rhs_attrs: Vec<AttrId> = active.to_vec();
    let slot_of_attr: HashMap<AttrId, usize> = outcomes
        .iter()
        .enumerate()
        .map(|(i, &(r, _))| (r, i))
        .collect();

    let mut groups: HashMap<Vec<ValueId>, RecordId> = HashMap::new();
    'clusters: for cluster in rel.plis[pivot].values() {
        if cluster.len() < 2 {
            stats.singletons_skipped += 1;
            continue;
        }
        if let Some(min_new) = opts.min_new_id {
            if *cluster.last().expect("non-empty cluster") < min_new {
                stats.clusters_pruned += 1;
                continue;
            }
        }
        stats.clusters_visited += 1;
        groups.clear();
        for &rid in cluster {
            let rec = rel.compressed(rid).expect("PLI references live record");
            let key: Vec<ValueId> = rest.iter().map(|&a| rec[a]).collect();
            if let Some(&rep) = groups.get(&key) {
                let rep_rec = rel.compressed(rep).expect("live representative");
                stats.comparisons += 1;
                for &r in &rhs_attrs {
                    if active.contains(r) && rep_rec[r] != rec[r] {
                        active.remove(r);
                        outcomes[slot_of_attr[&r]].1 = RhsOutcome::Violated(rep, rid);
                        if active.is_empty() {
                            break 'clusters;
                        }
                    }
                }
            } else {
                groups.insert(key, rid);
            }
        }
    }

    ValidationResult {
        lhs,
        outcomes,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::DynamicRelation;
    use crate::validate::{validate, validate_fd};
    use dynfd_common::Fd;

    fn rows() -> Vec<Vec<String>> {
        vec![
            vec!["Max", "Jones", "14482", "Potsdam"],
            vec!["Max", "Miller", "14482", "Potsdam"],
            vec!["Max", "Jones", "10115", "Berlin"],
            vec!["Anna", "Scott", "13591", "Berlin"],
        ]
        .into_iter()
        .map(|r| r.into_iter().map(String::from).collect())
        .collect()
    }

    #[test]
    fn rowstore_matches_columnar_verdicts_and_witnesses() {
        let schema = Schema::anonymous("t", 4);
        let reference = RowStoreRelation::from_rows(schema.clone(), &rows()).unwrap();
        let columnar = DynamicRelation::from_rows(schema, &rows()).unwrap();
        let full = ValidationOptions::full();
        for a in 0..4usize {
            for b in 0..4usize {
                if a == b {
                    continue;
                }
                for extra in 0..4usize {
                    let lhs: AttrSet = if extra == a || extra == b {
                        AttrSet::single(a)
                    } else {
                        [a, extra].into_iter().collect()
                    };
                    if lhs.contains(b) {
                        continue;
                    }
                    let old = validate_rowstore(&reference, lhs, AttrSet::single(b), &full);
                    let new = validate(&columnar, lhs, AttrSet::single(b), &full);
                    assert_eq!(
                        old.outcomes, new.outcomes,
                        "layouts diverged on {lhs:?} -> {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn rowstore_batch_application_matches() {
        let schema = Schema::anonymous("t", 4);
        let mut reference = RowStoreRelation::from_rows(schema.clone(), &rows()).unwrap();
        let mut columnar = DynamicRelation::from_rows(schema, &rows()).unwrap();
        let mut batch = Batch::new();
        batch
            .delete(RecordId(2))
            .insert(vec!["Marie", "Scott", "14467", "Potsdam"])
            .update(RecordId(0), vec!["Max", "Jones", "14482", "Golm"]);
        let (ins, del, first) = reference.apply_batch(&batch).unwrap();
        let applied = columnar.apply_batch(&batch).unwrap();
        assert_eq!(ins, applied.inserted);
        assert_eq!(del, applied.deleted);
        assert_eq!(first, applied.first_new_id);
        assert_eq!(reference.len(), columnar.len());
        for (&rid, codes) in &reference.records {
            assert_eq!(
                columnar.compressed(rid).map(|r| r.to_vec()),
                Some(codes.to_vec()),
                "record {rid} diverged"
            );
        }
        // Post-batch validation still agrees, including delta pruning.
        let delta = ValidationOptions::delta(first.unwrap());
        for (lhs, rhs) in [(AttrSet::single(0), 3), (AttrSet::single(2), 0)] {
            let old = validate_rowstore(&reference, lhs, AttrSet::single(rhs), &delta);
            let new = validate(&columnar, lhs, AttrSet::single(rhs), &delta);
            assert_eq!(old.outcomes, new.outcomes);
        }
        let _ = validate_fd(
            &columnar,
            &Fd::new(AttrSet::single(0), 3),
            &ValidationOptions::full(),
        );
    }
}
