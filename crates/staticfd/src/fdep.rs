//! FDEP: row-based FD discovery \[6\].
//!
//! FDEP compares **all pairs of records**, computes each pair's agree
//! set, and accumulates the *negative cover*: for an agree set `X`,
//! every candidate `X -> y` with `y ∉ X` is witnessed invalid. The
//! maximal elements of this cover are then turned into the minimal FDs
//! by classic dependency induction (paper Section 7.1).
//!
//! The pair comparison is Θ(n²·m); FDEP is therefore the oracle of
//! choice for small relations and the row-based representative in the
//! algorithm comparison benches. DynFD inherits FDEP's negative-cover
//! idea but uses it to process deletions instead of deriving the
//! positive cover.

use dynfd_common::{AttrSet, RecordId};
use dynfd_lattice::{induce_from_negative_cover, FdTree};
use dynfd_relation::{agree_set, DynamicRelation};

/// Discovers all minimal, non-trivial FDs of `rel` by exhaustive pair
/// comparison and dependency induction.
pub fn discover(rel: &DynamicRelation) -> FdTree {
    if rel.len() < 2 {
        return crate::trivial_cover(rel);
    }
    let neg = negative_cover(rel);
    induce_from_negative_cover(&neg, rel.arity())
}

/// Computes the maximal negative cover of `rel` from all record pairs.
///
/// Agree sets are deduplicated before entering the cover — with `n`
/// records there are `n(n-1)/2` pairs but usually far fewer distinct
/// agree sets.
pub fn negative_cover(rel: &DynamicRelation) -> FdTree {
    let arity = rel.arity();
    let mut ids: Vec<RecordId> = rel.record_ids().collect();
    ids.sort_unstable();

    // Distinct agree sets, deduplicated via sort.
    let mut agrees: Vec<AttrSet> = Vec::new();
    for (i, &a) in ids.iter().enumerate() {
        for &b in &ids[i + 1..] {
            let x = agree_set(rel, a, b).expect("live records");
            if x.len() < arity {
                // A full agree set (duplicate records) witnesses nothing.
                agrees.push(x);
            }
        }
    }
    agrees.sort_unstable();
    agrees.dedup();
    // Keep only maximal agree sets: a non-maximal agree set's non-FDs
    // are all implied by the larger one... per RHS, so filter per RHS
    // inside the tree instead: add_maximal_evicting handles it.
    let mut neg = FdTree::new();
    // Process larger agree sets first so most smaller ones are rejected
    // by the cheap specialization check instead of evicting.
    agrees.sort_by_key(|x| std::cmp::Reverse(x.len()));
    for x in agrees {
        for y in 0..arity {
            if !x.contains(y) {
                neg.add_maximal_evicting(x, y);
            }
        }
    }
    neg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{paper_relation, random_relation, rel};
    use dynfd_common::Fd;

    fn s(attrs: &[usize]) -> AttrSet {
        attrs.iter().copied().collect()
    }

    #[test]
    fn paper_example_negative_cover() {
        // The maximal non-FDs of Table 1 (initial): fzc→l, fl→z, fl→c,
        // c→f, c→z (Section 3.2).
        let neg = negative_cover(&paper_relation());
        let expect: FdTree = [
            (s(&[0, 2, 3]), 1),
            (s(&[0, 1]), 2),
            (s(&[0, 1]), 3),
            (s(&[3]), 0),
            (s(&[3]), 2),
        ]
        .into_iter()
        .map(|(l, r)| Fd::new(l, r))
        .collect();
        assert_eq!(neg, expect);
    }

    #[test]
    fn paper_example_positive_cover() {
        let fds = discover(&paper_relation());
        let expect: FdTree = [
            (s(&[1]), 0),
            (s(&[2]), 0),
            (s(&[2]), 3),
            (s(&[0, 3]), 2),
            (s(&[1, 3]), 2),
        ]
        .into_iter()
        .map(|(l, r)| Fd::new(l, r))
        .collect();
        assert_eq!(fds, expect);
    }

    #[test]
    fn duplicate_records_do_not_poison_the_cover() {
        let r = rel(&[&["a", "b"], &["a", "b"], &["a", "c"]]);
        let fds = discover(&r);
        // ∅ -> 0 holds (constant column); 0 -> 1 does not (b vs c).
        assert!(fds.contains(AttrSet::empty(), 0));
        assert!(!fds.contains_generalization(s(&[0]), 1));
    }

    #[test]
    fn agrees_with_tane_on_random_relations() {
        for seed in 0..8u64 {
            let r = random_relation(seed, 40, 5, 3);
            let a = discover(&r);
            let b = crate::tane::discover(&r);
            assert_eq!(a, b, "FDEP and TANE disagree on seed {seed}");
        }
    }

    #[test]
    fn tiny_relations() {
        assert_eq!(discover(&rel(&[])).len(), 2);
        assert_eq!(discover(&rel(&[&["x", "y", "z"]])).len(), 3);
        // Two identical records: still every FD holds.
        let twin = rel(&[&["x", "y"], &["x", "y"]]);
        let fds = discover(&twin);
        assert!(fds.contains(AttrSet::empty(), 0));
        assert!(fds.contains(AttrSet::empty(), 1));
    }
}
