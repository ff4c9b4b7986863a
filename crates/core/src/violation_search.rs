//! The progressive violation search (§4.3).
//!
//! When the insert-phase lattice traversal invalidates more than the
//! threshold share of a level, most of the remaining candidates are
//! probably invalid too — and record-pair comparisons expose violations
//! far cheaper than per-candidate validations. A newly inserted record
//! can only violate FDs together with *partner* records sharing at least
//! one value, i.e. records in one of its PLI clusters. Comparing against
//! all of them is quadratic, so the search compares only near neighbors
//! under a similarity sort, widening the window while the yield (new
//! non-FDs per comparison) stays above the efficiency threshold.
//!
//! The §6.5 baseline keeps a *naive* variant — window 1 only — because
//! dropping the violation search entirely cripples the algorithm.
//!
//! Many witness pairs share an agree set (a burst batch yields thousands
//! of pairs over a few dozen sets), and each distinct set is applied
//! only once per search, with its first pair in (cluster,
//! window-position) order. This is exact: the relation is frozen during
//! the search and the only cover changes are witness applications, so
//! once an agree set `X` has been applied the positive cover holds no
//! `Z -> y` with `Z ⊆ X`, `y ∉ X`, and the negative cover holds `X -> y`
//! or a specialization of it for every such `y`. A re-application
//! would evict nothing, add nothing, attach no annotation, and count as
//! nothing learned, so skipping it leaves the covers, the §5.2
//! annotations, `comparisons` and the yield cut-off unchanged.

use crate::config::{SearchMode, INEFFICIENCY_THRESHOLD};
use crate::errors::{DynFdError, DynFdResult};
use crate::{BatchMetrics, DynFd};
use dynfd_common::{AttrSet, RecordId};
use dynfd_relation::agree_set_at;
use std::collections::{BTreeSet, HashSet};

/// A PLI cluster prepared for windowed comparisons.
struct SortedCluster {
    /// Cluster members (arena slots), similarity-sorted
    /// (lexicographically by compressed signature).
    members: Vec<u32>,
    /// `is_new[i]` marks members inserted by the current batch.
    is_new: Vec<bool>,
}

impl DynFd {
    /// Runs the violation search for the batch's surviving inserts
    /// (Algorithm 2 line 17), given by their arena slots
    /// ([`AppliedBatch::inserted_slots`](dynfd_relation::AppliedBatch::inserted_slots))
    /// and the batch's first record id. The search sorts and compares
    /// slots; a pair becomes record ids only when it is recorded as a
    /// witness. Discovered agree sets update both covers via
    /// Algorithm 3.
    pub(crate) fn violation_search(
        &mut self,
        inserted_slots: &[u32],
        first_new: RecordId,
        metrics: &mut BatchMetrics,
    ) -> DynFdResult<()> {
        let arity = self.rel.arity();
        if inserted_slots.is_empty() {
            return Ok(());
        }

        // Collect each inserted record's partner clusters: for every
        // attribute, the cluster holding the record's value. The same
        // (attr, value) cluster is collected once even if several new
        // records share it.
        let rel = &self.rel;
        let slot_rids = rel.slot_rids();
        let mut clusters: Vec<SortedCluster> = Vec::new();
        for attr in 0..arity {
            let column = rel.column(attr);
            let values: BTreeSet<u32> = inserted_slots
                .iter()
                .map(|&slot| column[slot as usize])
                .collect();
            for value in values {
                let cluster = rel.pli(attr).cluster(value).ok_or_else(|| {
                    DynFdError::invariant(
                        "violation-search",
                        format!("inverted index misses cluster ({attr}, {value}) of a live record"),
                    )
                })?;
                if cluster.len() < 2 {
                    continue;
                }
                // A stable sort of the rid-ordered cluster: members with
                // equal rows stay in rid order. Ids are assigned
                // monotonically, so the batch's records are those at or
                // past its first id.
                let mut members = cluster.to_vec();
                members.sort_by(|&x, &y| rel.row_at_slot(x).cmp(&rel.row_at_slot(y)));
                let is_new = members
                    .iter()
                    .map(|&m| slot_rids[m as usize] >= first_new)
                    .collect();
                clusters.push(SortedCluster { members, is_new });
            }
        }
        if clusters.is_empty() {
            return Ok(());
        }

        let max_dist = match self.config.violation_search {
            SearchMode::Naive => 1,
            SearchMode::Progressive => usize::MAX,
        };

        // Agree sets already applied in this search (module docs).
        let mut applied: HashSet<AttrSet> = HashSet::new();
        let mut dist = 1usize;
        loop {
            let mut any_window_applied = false;
            let mut comparisons = 0usize;
            let mut learned = 0usize;
            for c in &clusters {
                if c.members.len() <= dist {
                    continue;
                }
                any_window_applied = true;
                for i in 0..c.members.len() - dist {
                    // Only pairs touching an inserted record can carry
                    // *new* violations.
                    if !c.is_new[i] && !c.is_new[i + dist] {
                        continue;
                    }
                    let (a, b) = (c.members[i], c.members[i + dist]);
                    comparisons += 1;
                    let agree = agree_set_at(&self.rel, a, b);
                    if agree.len() == arity {
                        continue; // duplicates witness nothing
                    }
                    if applied.insert(agree) {
                        let pair = (self.rel.rid_at_slot(a), self.rel.rid_at_slot(b));
                        if self.apply_non_fd_witness(agree, pair) {
                            learned += 1;
                        }
                    }
                }
            }
            metrics.comparisons += comparisons;
            metrics.search_rounds += 1;

            if !any_window_applied || dist >= max_dist {
                break;
            }
            // Progressive efficiency cut-off: stop once fewer than the
            // threshold share of comparisons reveal something new.
            if comparisons > 0 && (learned as f64 / comparisons as f64) < INEFFICIENCY_THRESHOLD {
                break;
            }
            dist += 1;
        }
        Ok(())
    }
}
