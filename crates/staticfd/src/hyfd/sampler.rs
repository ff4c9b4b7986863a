//! HyFD's progressive record-pair sampler.
//!
//! Comparing all record pairs is quadratic; HyFD instead compares only
//! *promising* pairs: records that share a PLI cluster (they agree on at
//! least that attribute) and are close under a similarity sort (records
//! sorted by their full compressed signature, so near neighbors tend to
//! share many values). Windows over the sorted clusters grow
//! progressively — distance 1 first, then 2, … — and attributes compete:
//! the attribute whose last round produced the most new non-FDs per
//! comparison runs next, until the best efficiency falls below a
//! threshold.

use super::HyFdStats;
use dynfd_common::AttrSet;
use dynfd_lattice::FdTree;
use dynfd_relation::{agree_set_at, DynamicRelation};

/// Progressive cluster-window sampler over one unchanging relation.
#[derive(Clone, Debug)]
pub struct Sampler {
    /// Per attribute: its non-singleton clusters, members (arena slots)
    /// sorted by compressed signature (similarity sort).
    clusters: Vec<Vec<Vec<u32>>>,
    /// Per attribute: the next window distance to run (1-based).
    window: Vec<usize>,
    /// Per attribute: efficiency of the last round (`f64::INFINITY`
    /// before the first round, `-1.0` when exhausted).
    efficiency: Vec<f64>,
}

impl Sampler {
    /// Prepares the sampler: snapshots and similarity-sorts the PLI
    /// clusters of every attribute. [`Sampler::run`] must be given the
    /// same, unchanged relation.
    pub fn new(rel: &DynamicRelation) -> Self {
        let arity = rel.arity();
        let mut clusters = Vec::with_capacity(arity);
        for a in 0..arity {
            let mut per_attr: Vec<Vec<u32>> = Vec::new();
            for (_, cluster) in rel.pli(a).iter_non_singleton() {
                // Similarity sort: lexicographic by compressed record
                // brings records with many common values next to each
                // other, making window-1 neighbors high-yield pairs.
                let mut c = cluster.to_vec();
                c.sort_by(|&x, &y| rel.row_at_slot(x).cmp(&rel.row_at_slot(y)));
                per_attr.push(c);
            }
            clusters.push(per_attr);
        }
        Sampler {
            window: vec![1; arity],
            efficiency: vec![f64::INFINITY; arity],
            clusters,
        }
    }

    /// Whether any attribute still has rounds to run.
    pub fn exhausted(&self) -> bool {
        self.efficiency.iter().all(|&e| e < 0.0)
    }

    /// Runs sampling rounds until the best attribute's efficiency drops
    /// below `threshold` (or everything is exhausted). Newly discovered
    /// non-FDs are inserted into `neg`; the distinct agree sets that
    /// contributed at least one new cover entry are returned so the
    /// caller can mirror them into a positive cover under maintenance.
    pub fn run(
        &mut self,
        rel: &DynamicRelation,
        neg: &mut FdTree,
        threshold: f64,
        stats: &mut HyFdStats,
    ) -> Vec<AttrSet> {
        let arity = rel.arity();
        let mut fresh: Vec<AttrSet> = Vec::new();
        // An infinite threshold disables sampling outright (used to force
        // validation-only discovery in tests and ablations).
        while threshold.is_finite() {
            // Best attribute by last efficiency; ties break to the
            // smaller index for determinism.
            let Some(attr) = (0..arity)
                .filter(|&a| self.efficiency[a] >= 0.0)
                .max_by(|&a, &b| {
                    self.efficiency[a]
                        .partial_cmp(&self.efficiency[b])
                        .expect("efficiencies are never NaN")
                        .then(b.cmp(&a))
                })
            else {
                break; // all attributes exhausted
            };
            if self.efficiency[attr] < threshold {
                break; // even the best candidate is not worth a round
            }
            let dist = self.window[attr];
            self.window[attr] += 1;

            let mut comparisons = 0usize;
            let mut new_non_fds = 0usize;
            let mut window_applies = false;
            for cluster in &self.clusters[attr] {
                if cluster.len() <= dist {
                    continue;
                }
                window_applies = true;
                for i in 0..cluster.len() - dist {
                    let (x, y) = (cluster[i], cluster[i + dist]);
                    comparisons += 1;
                    let agree = agree_set_at(rel, x, y);
                    if agree.len() == arity {
                        continue; // duplicate records witness nothing
                    }
                    let mut contributed = false;
                    for rhs in 0..arity {
                        if !agree.contains(rhs) && neg.add_maximal_evicting(agree, rhs) {
                            new_non_fds += 1;
                            contributed = true;
                        }
                    }
                    if contributed {
                        fresh.push(agree);
                    }
                }
            }
            stats.comparisons += comparisons;
            stats.sampling_rounds += 1;
            // Exhausted when no cluster is large enough any more (and
            // hence no comparison happened).
            self.efficiency[attr] = if !window_applies || comparisons == 0 {
                -1.0
            } else {
                new_non_fds as f64 / comparisons as f64
            };
        }
        fresh.sort_unstable();
        fresh.dedup();
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{paper_relation, random_relation};
    use dynfd_common::Fd;
    use dynfd_relation::validate_fd;
    use dynfd_relation::ValidationOptions;

    #[test]
    fn sampler_finds_real_non_fds() {
        let rel = paper_relation();
        let mut sampler = Sampler::new(&rel);
        let mut neg = FdTree::new();
        let mut stats = HyFdStats::default();
        sampler.run(&rel, &mut neg, 0.0, &mut stats);
        assert!(stats.comparisons > 0);
        assert!(!neg.is_empty());
        // Every entry of the negative cover must be a genuine non-FD.
        for nf in neg.all_fds() {
            assert!(
                !validate_fd(&rel, &nf, &ValidationOptions::full()).is_valid(),
                "sampler produced a false non-FD {nf:?}"
            );
        }
    }

    #[test]
    fn threshold_zero_exhausts_all_windows() {
        let rel = paper_relation();
        let mut sampler = Sampler::new(&rel);
        let mut neg = FdTree::new();
        let mut stats = HyFdStats::default();
        sampler.run(&rel, &mut neg, 0.0, &mut stats);
        assert!(sampler.exhausted());
        // With every in-cluster pair compared, the negative cover is the
        // full FDEP cover restricted to pairs sharing a value — for this
        // dataset that is all violating pairs, so it equals FDEP's.
        let fdep_neg = crate::fdep::negative_cover(&rel);
        for nf in neg.all_fds() {
            assert!(
                fdep_neg.contains_specialization(nf.lhs, nf.rhs),
                "{nf:?} not implied by the exhaustive cover"
            );
        }
    }

    #[test]
    fn infinite_threshold_runs_nothing() {
        let rel = random_relation(1, 30, 4, 3);
        let mut sampler = Sampler::new(&rel);
        let mut neg = FdTree::new();
        let mut stats = HyFdStats::default();
        let fresh = sampler.run(&rel, &mut neg, f64::INFINITY, &mut stats);
        assert_eq!(stats.comparisons, 0);
        assert!(neg.is_empty());
        assert!(fresh.is_empty());
    }

    #[test]
    fn fresh_agree_sets_are_reported_once() {
        let rel = paper_relation();
        let mut sampler = Sampler::new(&rel);
        let mut neg = FdTree::new();
        let mut stats = HyFdStats::default();
        let fresh = sampler.run(&rel, &mut neg, 0.0, &mut stats);
        let mut dedup = fresh.clone();
        dedup.dedup();
        assert_eq!(fresh, dedup);
        for x in &fresh {
            // Each reported agree set must be a real agree set of some
            // record pair — verify it is consistent with the relation by
            // checking the corresponding non-FDs exist or are implied.
            for rhs in 0..rel.arity() {
                if !x.contains(rhs) {
                    assert!(
                        !validate_fd(&rel, &Fd::new(*x, rhs), &ValidationOptions::full())
                            .is_valid(),
                        "reported agree set {x:?} -> {rhs} is not a non-FD"
                    );
                }
            }
        }
    }
}
