//! Insert handling — the lattice-based FD validation of Algorithm 2.
//!
//! Inserts can only *invalidate* FDs (Definition 1.1: violations are
//! introduced, never removed), so the positive cover is the right place
//! to look. The traversal starts at the most general minimal FDs and
//! descends: an invalidated FD moves to the negative cover and its
//! minimal specializations become the new candidates, automatically
//! validated on the next level. Two accelerations apply:
//!
//! * **cluster pruning** (§4.2): only PLI clusters containing at least
//!   one newly inserted record can hide a new violation — sound because
//!   every validated FD held over the pre-batch records;
//! * **violation search** (§4.3): when >10 % of a level invalidates,
//!   per-candidate validation is losing to the churn, and cheap record
//!   pair comparisons find the remaining violations faster.

use crate::config::INEFFICIENCY_THRESHOLD;
use crate::errors::{DynFdError, DynFdResult};
use crate::failpoint::FailPhase;
use crate::{BatchMetrics, DynFd};
use dynfd_common::{AttrSet, Fd, RecordId};
use dynfd_relation::{agree_set, AppliedBatch, ValidationJob, ValidationOptions};
use std::collections::BTreeMap;

impl DynFd {
    /// Processes the batch's inserts (Algorithm 2).
    pub(crate) fn process_inserts(
        &mut self,
        applied: &AppliedBatch,
        metrics: &mut BatchMetrics,
    ) -> DynFdResult<()> {
        let first_new = applied.first_new_id.ok_or_else(|| {
            DynFdError::invariant(
                "insert-phase",
                "batch reports surviving inserts but no first_new_id watermark",
            )
        })?;
        let opts = if self.config.cluster_pruning {
            ValidationOptions::delta(first_new)
        } else {
            ValidationOptions::full()
        };

        let mut level = 0usize;
        while self.fds.max_level().is_some_and(|max| level <= max) {
            // Lines 2-5: validate the level, collecting invalid FDs. All
            // cover-dependent filtering happens first; the resulting pure
            // validation jobs then run through the level executor.
            let snapshot = self.fds.get_level(level);
            let mut groups: BTreeMap<AttrSet, AttrSet> = BTreeMap::new();
            for fd in &snapshot {
                groups
                    .entry(fd.lhs)
                    .or_insert_with(AttrSet::empty)
                    .insert(fd.rhs);
            }
            let mut total = 0usize;
            let mut jobs: Vec<ValidationJob> = Vec::with_capacity(groups.len());
            for (lhs, rhs_set) in groups {
                // §8 extension, key-constraint pruning: a declared key in
                // the LHS makes the FD unfalsifiable — skip it outright.
                if !lhs.is_disjoint(&self.config.known_keys) {
                    metrics.skipped_by_key_constraint += rhs_set.len();
                    continue;
                }
                // A violation search triggered at an earlier level may
                // have evicted parts of this snapshot already.
                let mut live: AttrSet = rhs_set
                    .iter()
                    .filter(|&r| self.fds.contains(lhs, r))
                    .collect();
                // §8 extension, update pruning: in a pure-update batch,
                // candidates none of whose attributes changed in any
                // update cannot change status.
                if self.config.update_pruning
                    && applied.update_only
                    && lhs.is_disjoint(&applied.touched_attrs)
                {
                    let affected = live.intersect(&applied.touched_attrs);
                    metrics.skipped_by_update_pruning += live.len() - affected.len();
                    live = affected;
                }
                if live.is_empty() {
                    continue;
                }
                metrics.fd_validations += 1;
                total += live.len();
                jobs.push((lhs, live));
            }

            // The level's jobs are independent: the relation is frozen and
            // verdicts are applied only after all of them return, in job
            // order.
            let mut invalid: Vec<(Fd, (RecordId, RecordId))> = Vec::new();
            let results = self.run_level_validations(&jobs, &opts);
            for (&(lhs, _), result) in jobs.iter().zip(&results) {
                metrics.clusters_pruned += result.stats.clusters_pruned;
                metrics.clusters_visited += result.stats.clusters_visited;
                for (r, a, b) in result.violations() {
                    invalid.push((Fd::new(lhs, r), (a, b)));
                }
            }

            // Lines 6-15, strengthened to full dependency induction
            // (Algorithm 3): the violating pair refutes not just the
            // failed candidate but everything its agree set covers, so
            // induce from the agree set — evicting every cover FD the
            // pair refutes at once and specializing along *escape*
            // attributes only. Specializing along all attributes (the
            // literal lines 10-15) regenerates children the same pair
            // still violates; on wide relations those guaranteed-invalid
            // candidates snowball level over level into millions of
            // useless validations.
            let invalid_count = invalid.len();
            for (fd, pair) in invalid {
                if !self.fds.contains(fd.lhs, fd.rhs) {
                    continue; // an earlier witness this wave evicted it
                }
                let agree = agree_set(&self.rel, pair.0, pair.1).ok_or_else(|| {
                    DynFdError::invariant(
                        "insert-phase",
                        format!(
                            "violating pair ({}, {}) references dead records",
                            pair.0, pair.1
                        ),
                    )
                })?;
                // `fd.lhs ⊆ agree` and `fd.rhs ∉ agree` by construction,
                // so the induction always evicts `fd` itself.
                self.apply_non_fd_witness(agree, pair);
            }

            // Fault-injection check point: after this level's witnesses
            // are applied (where a real corruption bug would bite).
            self.failpoint_check(FailPhase::InsertPhase, metrics);

            // Lines 16-17: progressive violation search when the lattice
            // traversal became inefficient.
            if total > 0 && invalid_count as f64 / total as f64 > INEFFICIENCY_THRESHOLD {
                self.violation_search(&applied.inserted_slots, first_new, metrics)?;
            }
            level += 1;
        }
        Ok(())
    }
}
