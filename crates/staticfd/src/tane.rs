//! TANE-style level-wise FD discovery \[8\].
//!
//! The search space is the powerset lattice of attribute sets, traversed
//! bottom-up level by level (paper Section 7.1). For every LHS at the
//! current level the plausible RHS candidates — those without an
//! already-valid generalization — are validated simultaneously against
//! the stripped partitions (PLIs). Valid candidates enter the positive
//! cover; branches whose RHS candidate set becomes empty are pruned.
//!
//! This implementation reuses the shared PLI validator (its lazy
//! partition intersection is the modern formulation of TANE's partition
//! refinement) and the `FdTree` cover. It is exponential in the number
//! of attributes, as all complete lattice algorithms are; within this
//! workspace it serves as a correctness oracle and as the column-based
//! representative in the algorithm comparison benches.

use dynfd_common::AttrSet;
use dynfd_lattice::FdTree;
use dynfd_relation::{validate, DynamicRelation, ValidationOptions};

/// Discovers all minimal, non-trivial FDs of `rel` via level-wise
/// lattice traversal.
pub fn discover(rel: &DynamicRelation) -> FdTree {
    if rel.len() < 2 {
        return crate::trivial_cover(rel);
    }
    let arity = rel.arity();
    let mut fds = FdTree::new();
    let full = ValidationOptions::full();

    // Level 0: the empty LHS.
    let mut level: Vec<AttrSet> = vec![AttrSet::empty()];
    let mut level_no = 0usize;

    while !level.is_empty() && level_no < arity {
        let mut next: Vec<AttrSet> = Vec::new();
        for lhs in level {
            // RHS candidates: non-trivial and not implied by an already
            // valid (hence more general, hence earlier-validated) FD.
            let mut rhs_candidates = AttrSet::empty();
            for r in 0..arity {
                if !lhs.contains(r) && !fds.contains_generalization(lhs, r) {
                    rhs_candidates.insert(r);
                }
            }
            let mut undetermined = 0usize;
            if !rhs_candidates.is_empty() {
                let result = validate(rel, lhs, rhs_candidates, &full);
                for (r, outcome) in &result.outcomes {
                    if outcome.is_valid() {
                        fds.add(lhs, *r);
                    } else {
                        undetermined += 1;
                    }
                }
            }
            // Extension pruning: a branch only matters while some RHS is
            // still undetermined for it (an invalid candidate might turn
            // valid with a larger LHS). Key pruning falls out for free:
            // a key LHS validates every RHS, leaving nothing undetermined.
            if undetermined > 0 {
                let start = lhs.last().map_or(0, |a| a + 1);
                for b in start..arity {
                    next.push(lhs.with(b));
                }
            }
        }
        level = next;
        level_no += 1;
    }
    fds
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
    fn paper_example_minimal_fds() {
        // Figure 2: exactly l→f, z→f, z→c, fc→z, lc→z.
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
    fn empty_and_single_row_relations() {
        let empty = rel(&[]);
        assert_eq!(discover(&empty).len(), 2); // ∅ -> A for both columns
        let one = rel(&[&["a", "b", "c"]]);
        let fds = discover(&one);
        assert_eq!(fds.len(), 3);
        assert!(fds.contains(AttrSet::empty(), 0));
    }

    #[test]
    fn constant_column_gives_empty_lhs_fd() {
        let r = rel(&[&["k", "1"], &["k", "2"], &["k", "3"]]);
        let fds = discover(&r);
        assert!(fds.contains(AttrSet::empty(), 0));
        // Column 1 is a key, so 1 -> 0 holds but is subsumed by ∅ -> 0;
        // the only other minimal FD is... none for rhs 1 (nothing
        // determines the key but itself — and {0} is constant).
        assert!(!fds.contains_generalization(s(&[0]), 1));
    }

    #[test]
    fn key_column_determines_everything() {
        let r = rel(&[&["1", "x", "p"], &["2", "x", "q"], &["3", "y", "p"]]);
        let fds = discover(&r);
        assert!(fds.contains(s(&[0]), 1));
        assert!(fds.contains(s(&[0]), 2));
    }

    #[test]
    fn output_is_minimal_and_valid() {
        for seed in 0..5u64 {
            let r = random_relation(seed, 60, 5, 3);
            let fds = discover(&r);
            assert!(fds.is_antichain(), "non-minimal cover for seed {seed}");
            for fd in fds.all_fds() {
                assert!(
                    dynfd_relation::validate_fd(&r, &fd, &ValidationOptions::full()).is_valid(),
                    "seed {seed}: discovered fd {fd:?} does not hold"
                );
            }
        }
    }

    #[test]
    fn completeness_against_brute_force() {
        // Exhaustively check every candidate on small random relations.
        for seed in 0..3u64 {
            let r = random_relation(seed + 100, 30, 4, 3);
            let fds = discover(&r);
            let arity = r.arity();
            for rhs in 0..arity {
                for mask in 0..(1u32 << arity) {
                    let lhs: AttrSet = (0..arity).filter(|&a| mask >> a & 1 == 1).collect();
                    if lhs.contains(rhs) {
                        continue;
                    }
                    let holds = dynfd_relation::validate_fd(
                        &r,
                        &Fd::new(lhs, rhs),
                        &ValidationOptions::full(),
                    )
                    .is_valid();
                    assert_eq!(
                        fds.contains_generalization(lhs, rhs),
                        holds,
                        "seed {seed}: cover disagrees on {lhs:?} -> {rhs}"
                    );
                }
            }
        }
    }
}
