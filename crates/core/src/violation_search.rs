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

use crate::config::{SearchMode, INEFFICIENCY_THRESHOLD};
use crate::errors::{DynFdError, DynFdResult};
use crate::{BatchMetrics, DynFd};
use dynfd_common::{AttrSet, RecordId};
use dynfd_relation::{agree_set, par_map};
use std::collections::BTreeSet;

/// One cluster's window-scan output: pair comparisons performed and the
/// non-trivial agree-set witnesses found, in window-position order.
type ClusterScan = (usize, Vec<(AttrSet, RecordId, RecordId)>);

/// A PLI cluster prepared for windowed comparisons.
struct SortedCluster {
    /// Cluster members, similarity-sorted (lexicographically by
    /// compressed signature).
    members: Vec<RecordId>,
    /// `is_new[i]` marks members inserted by the current batch.
    is_new: Vec<bool>,
}

impl DynFd {
    /// Runs the violation search for the given batch of inserted records
    /// (Algorithm 2 line 17), addressed by record id *and* arena slot —
    /// the slot-based delta of [`AppliedBatch`](dynfd_relation::AppliedBatch)
    /// lets the value collection below read each new row straight out of
    /// the columnar arena instead of resolving rid → slot per attribute.
    /// Discovered agree sets update both covers via Algorithm 3.
    pub(crate) fn violation_search(
        &mut self,
        inserted: &[RecordId],
        inserted_slots: &[u32],
        metrics: &mut BatchMetrics,
    ) -> DynFdResult<()> {
        let arity = self.rel.arity();
        // A slot is taken only while its rid still maps to it — same
        // tolerance the rid-based filter had for records that vanished
        // between batch application and the search.
        let new_slots: Vec<u32> = inserted
            .iter()
            .zip(inserted_slots)
            .filter(|&(&rid, &slot)| self.rel.slot_of(rid) == Some(slot))
            .map(|(_, &slot)| slot)
            .collect();
        let new_ids: BTreeSet<RecordId> = inserted
            .iter()
            .copied()
            .filter(|&r| self.rel.contains(r))
            .collect();
        if new_ids.is_empty() {
            return Ok(());
        }

        // Collect each inserted record's partner clusters: for every
        // attribute, the cluster holding the record's value. The same
        // (attr, value) cluster is collected once even if several new
        // records share it. The (attr, value) job list is assembled in
        // deterministic order on the coordinating thread; the expensive
        // part — the per-cluster similarity sort — fans out.
        let threads = self.config.effective_parallelism();
        let mut cluster_jobs: Vec<(usize, u32)> = Vec::new();
        for attr in 0..arity {
            let mut values: BTreeSet<u32> = BTreeSet::new();
            for &slot in &new_slots {
                values.insert(self.rel.row_at_slot(slot).get(attr));
            }
            for value in values {
                let cluster = self.rel.pli(attr).cluster(value).ok_or_else(|| {
                    DynFdError::invariant(
                        "violation-search",
                        format!("inverted index misses cluster ({attr}, {value}) of a live record"),
                    )
                })?;
                if cluster.len() >= 2 {
                    cluster_jobs.push((attr, value));
                }
            }
        }
        let rel = &self.rel;
        let clusters = par_map(&cluster_jobs, threads, |_: &mut (), &(attr, value)| {
            // Invariant expects inside the worker closure: the job list
            // above proved each (attr, value) cluster exists and every
            // member id is live, and the relation is frozen while the
            // workers run. A panic here crosses the par_map join and is
            // converted to `PhasePanicked` at the transactional boundary.
            let cluster = rel.pli(attr).cluster(value).expect("cluster vetted above");
            // Clusters hold arena slots; the windowed scan wants record
            // ids (agree sets and witnesses are rid-level artifacts).
            let mut members: Vec<RecordId> = cluster.iter().map(|&s| rel.rid_at_slot(s)).collect();
            members.sort_by(|&x, &y| {
                rel.compressed(x)
                    .expect("cluster member is live")
                    .cmp(&rel.compressed(y).expect("cluster member is live"))
            });
            let is_new = members.iter().map(|m| new_ids.contains(m)).collect();
            SortedCluster { members, is_new }
        });
        if clusters.is_empty() {
            return Ok(());
        }

        let max_dist = match self.config.violation_search {
            SearchMode::Naive => 1,
            SearchMode::Progressive => usize::MAX,
        };

        let mut dist = 1usize;
        loop {
            // The window scan splits into a read-only half (pair
            // selection + agree-set computation against the frozen
            // relation) that fans out per cluster, and a mutating half
            // (witness application to the covers) that runs on the
            // coordinating thread in (cluster, window-position) order —
            // the exact order of the sequential scan, so the covers and
            // the `learned` yield driving the cut-off are bit-identical.
            let mut any_window_applied = false;
            let rel = &self.rel;
            let scans: Vec<ClusterScan> = par_map(&clusters, threads, |_: &mut (), c| {
                let mut comparisons = 0usize;
                let mut witnesses: Vec<(AttrSet, RecordId, RecordId)> = Vec::new();
                if c.members.len() <= dist {
                    return (comparisons, witnesses);
                }
                for i in 0..c.members.len() - dist {
                    // Only pairs touching an inserted record can carry
                    // *new* violations.
                    if !c.is_new[i] && !c.is_new[i + dist] {
                        continue;
                    }
                    let (a, b) = (c.members[i], c.members[i + dist]);
                    comparisons += 1;
                    // Worker-closure invariant (see the sort above): both
                    // ids came from a live cluster of the frozen relation.
                    let agree = agree_set(rel, a, b).expect("cluster members are live");
                    if agree.len() == arity {
                        continue; // duplicates witness nothing
                    }
                    witnesses.push((agree, a, b));
                }
                (comparisons, witnesses)
            });

            let mut comparisons = 0usize;
            let mut learned = 0usize;
            for (c, (cluster_comparisons, witnesses)) in clusters.iter().zip(scans) {
                if c.members.len() > dist {
                    any_window_applied = true;
                }
                comparisons += cluster_comparisons;
                for (agree, a, b) in witnesses {
                    if self.apply_non_fd_witness(agree, (a, b)) {
                        learned += 1;
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
