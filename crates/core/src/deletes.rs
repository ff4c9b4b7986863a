//! Delete handling — the lattice-based non-FD validation of Algorithm 4.
//!
//! Deletes can only *resolve* violations, i.e. turn non-FDs into FDs, so
//! the negative cover is the right place to look. The traversal mirrors
//! the insert phase upside down: it starts at the most specific maximal
//! non-FDs and ascends; a non-FD found valid moves to the positive cover
//! and its direct generalizations become new negative-cover candidates,
//! validated on the next (lower) level. Two accelerations apply:
//!
//! * **validation pruning** (§5.2): each maximal non-FD carries a cached
//!   violating record pair; while both records live, the non-FD cannot
//!   have become valid and its validation is skipped;
//! * **depth-first searches** (§5.3): when >10 % of a level validates,
//!   optimistic depth-first probes hunt for small-LHS maximal non-FDs
//!   that prune whole swaths of candidates.

use crate::config::INEFFICIENCY_THRESHOLD;
use crate::errors::DynFdResult;
use crate::failpoint::FailPhase;
use crate::{BatchMetrics, DynFd};
use dynfd_common::{AttrSet, Fd};
use dynfd_relation::{AppliedBatch, RhsOutcome, ValidationJob, ValidationOptions};

impl DynFd {
    /// Processes the batch's deletes (Algorithm 4).
    pub(crate) fn process_deletes(
        &mut self,
        applied: &AppliedBatch,
        metrics: &mut BatchMetrics,
    ) -> DynFdResult<()> {
        let Some(max_level) = self.non_fds.max_level() else {
            return Ok(()); // no non-FDs at all: every candidate already valid
        };
        let full = ValidationOptions::full();

        // Line 1: from the most specific level towards the most general.
        for level in (0..=max_level).rev() {
            let snapshot = self.non_fds.get_level(level);
            let total = snapshot.len();
            let mut valid_fds: Vec<Fd> = Vec::new();

            // Lines 2-5: decide which of the level's (still live) non-FDs
            // need a validation at all. All three skip checks — liveness,
            // update pruning, and the §5.2 needsValidation() probe — stay
            // on the coordinating thread: they read (and §5.2 logically
            // belongs with code that later *writes*) the violation store,
            // which is not shared with workers. Only the pure PLI
            // validations of the survivors fan out.
            let mut survivors: Vec<Fd> = Vec::new();
            for non_fd in snapshot {
                if !self.non_fds.contains(non_fd.lhs, non_fd.rhs) {
                    continue; // evicted by an earlier depth-first search
                }
                // §8 extension, update pruning: a pure-update batch that
                // touched none of the candidate's attributes cannot have
                // resolved its violations.
                if self.config.update_pruning
                    && applied.update_only
                    && non_fd.lhs.is_disjoint(&applied.touched_attrs)
                    && !applied.touched_attrs.contains(non_fd.rhs)
                {
                    metrics.skipped_by_update_pruning += 1;
                    continue;
                }
                // needsValidation() — §5.2: a cached violating pair that
                // survived this batch's deletes proves the non-FD.
                if self.config.validation_pruning && self.violations.get(&non_fd).is_some() {
                    metrics.validations_skipped += 1;
                    continue;
                }
                metrics.non_fd_validations += 1;
                survivors.push(non_fd);
            }

            // Fan out the survivors' validations, then apply the verdicts
            // in snapshot order — identical to the sequential loop.
            let jobs: Vec<ValidationJob> = survivors
                .iter()
                .map(|fd| (fd.lhs, AttrSet::single(fd.rhs)))
                .collect();
            let results = self.run_level_validations(&jobs, &full);
            for (&non_fd, result) in survivors.iter().zip(results) {
                metrics.clusters_visited += result.stats.clusters_visited;
                match result.outcome(non_fd.rhs) {
                    RhsOutcome::Valid => valid_fds.push(non_fd),
                    RhsOutcome::Violated(a, b) => {
                        // Re-attach a fresh surrogate violation.
                        if self.config.validation_pruning {
                            self.violations.attach(non_fd, (a, b));
                        }
                    }
                }
            }

            // Lines 6-12: promote newly valid FDs — remove from the
            // negative cover, generalize into candidates for the next
            // level, and install as minimal FDs in the positive cover.
            for &fd in &valid_fds {
                self.violations.detach(&fd);
                self.apply_valid_fd(fd);
            }

            // Fault-injection check point: after this level's verdicts
            // are applied (where a real corruption bug would bite).
            self.failpoint_check(FailPhase::DeletePhase, metrics);

            // Lines 15-16: optimistic depth-first searches when many
            // non-FDs of this level turned valid.
            if self.config.depth_first_search
                && total > 0
                && valid_fds.len() as f64 / total as f64 > INEFFICIENCY_THRESHOLD
            {
                self.depth_first_from_seeds(&valid_fds, metrics);
            }
        }
        Ok(())
    }
}
