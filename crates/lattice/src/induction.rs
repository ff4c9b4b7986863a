//! Shared dependency-induction kernels.
//!
//! Both directions of cover maintenance reduce to the same two moves:
//!
//! * an observed **non-FD** `X -> a` invalidates every stored FD
//!   `Y -> a` with `Y ⊆ X`; each such FD is *specialized* into its
//!   minimal children ([`specialize_into`], the positive-cover half of
//!   paper Algorithm 3, also the core of classic dependency induction
//!   used by FDEP and HyFD);
//! * an observed **FD** `X -> a` validates every stored non-FD `Y -> a`
//!   with `Y ⊇ X`; each such non-FD is *generalized* into its maximal
//!   parents ([`generalize_into`], the negative-cover half of paper
//!   Algorithm 6).

use crate::FdTree;
use dynfd_common::{AttrId, AttrSet};

/// Incorporates the observed non-FD `x -> rhs` into a positive cover of
/// minimal FDs over an `arity`-column relation.
///
/// Every stored generalization `Y ⊆ x` with the same RHS is violated by
/// the same witness and is removed; for each, all direct specializations
/// `Y ∪ {r}` that can escape the witness (`r ∉ x ∪ {rhs}`, per
/// Algorithm 3 line 5) are added back when minimal.
///
/// Returns the LHSs of the invalidated FDs (the caller typically mirrors
/// them into a negative cover).
pub fn specialize_into(fds: &mut FdTree, x: AttrSet, rhs: AttrId, arity: usize) -> Vec<AttrSet> {
    let invalid = fds.remove_generalizations(x, rhs);
    for &lhs in &invalid {
        for r in 0..arity {
            if r == rhs || x.contains(r) {
                // r ∈ x: the specialization would still be ⊆ x-extended
                // by an attribute the witness pair agrees on, i.e. still
                // violated by the same pair — skip (Algorithm 3 line 5).
                continue;
            }
            fds.add_minimal(lhs.with(r), rhs);
        }
    }
    invalid
}

/// Incorporates the observed (valid) FD `x -> rhs` into a negative cover
/// of maximal non-FDs.
///
/// Every stored specialization `Y ⊇ x` with the same RHS is now valid
/// and is removed; for each, the direct generalizations `Y \ {r}` for
/// `r ∈ x` (only those can dodge the new FD, per Algorithm 6 line 5) are
/// added back when maximal.
///
/// Returns the LHSs of the removed non-FDs (the caller typically mirrors
/// them into a positive cover).
pub fn generalize_into(non_fds: &mut FdTree, x: AttrSet, rhs: AttrId) -> Vec<AttrSet> {
    let valid = non_fds.remove_specializations(x, rhs);
    for &nf_lhs in &valid {
        for r in x.iter() {
            // r ∈ x ⊆ nf_lhs, so the removal is always effective.
            non_fds.add_maximal(nf_lhs.without(r), rhs);
        }
    }
    valid
}

/// Classic dependency induction ("cover inversion" in \[6\], "dependency
/// induction" in \[13\]): derives the positive cover of minimal FDs from a
/// negative cover of (maximal) non-FDs over an `arity`-column relation.
///
/// For each RHS a level-wise search ascends from `∅`: a candidate LHS
/// that has a specialization in the negative cover is violated and is
/// extended by every attribute that *escapes* the violating maximal
/// non-FD; a candidate with no such specialization is valid, and —
/// because levels are processed in order — minimal.
///
/// This is the inverse of
/// [`invert_positive_cover`](crate::invert_positive_cover); the two
/// functions round-trip, which the integration tests exercise.
pub fn induce_from_negative_cover(non_fds: &FdTree, arity: usize) -> FdTree {
    let mut fds = FdTree::new();
    for rhs in 0..arity {
        let mut level: Vec<AttrSet> = vec![AttrSet::empty()];
        while !level.is_empty() {
            let mut next: Vec<AttrSet> = Vec::new();
            for lhs in level {
                if fds.contains_generalization(lhs, rhs) {
                    continue; // already implied by a (minimal) valid FD
                }
                match non_fds.find_specialization(lhs, rhs) {
                    None => {
                        // No maximal non-FD covers this LHS: it is valid,
                        // and minimal w.r.t. all smaller levels.
                        fds.add(lhs, rhs);
                    }
                    Some(witness) => {
                        // Violated: extend by attributes escaping the witness.
                        for b in 0..arity {
                            if b != rhs && !witness.contains(b) {
                                next.push(lhs.with(b));
                            }
                        }
                    }
                }
            }
            next.sort_unstable();
            next.dedup();
            level = next;
        }
    }
    fds
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynfd_common::Fd;

    fn s(attrs: &[usize]) -> AttrSet {
        attrs.iter().copied().collect()
    }

    fn tree(fds: &[(&[usize], usize)]) -> FdTree {
        fds.iter().map(|&(l, r)| Fd::new(s(l), r)).collect()
    }

    #[test]
    fn specialize_removes_violated_and_adds_minimal_children() {
        // Cover over 4 attrs: {1} -> 0 is stored; the non-FD {1,2} -> 0
        // invalidates it. Only attr 3 can extend (2 ∈ x, 0 = rhs).
        let mut fds = tree(&[(&[1], 0)]);
        let invalid = specialize_into(&mut fds, s(&[1, 2]), 0, 4);
        assert_eq!(invalid, vec![s(&[1])]);
        assert_eq!(fds.all_fds(), vec![Fd::new(s(&[1, 3]), 0)]);
    }

    #[test]
    fn specialize_respects_minimality_of_survivors() {
        // {3} -> 0 survives (not ⊆ {1,2}); the child {1,3} of the
        // invalidated {1} -> 0 is NOT minimal because {3} -> 0 holds.
        let mut fds = tree(&[(&[1], 0), (&[3], 0)]);
        specialize_into(&mut fds, s(&[1, 2]), 0, 4);
        assert_eq!(fds.all_fds(), vec![Fd::new(s(&[3]), 0)]);
        assert!(fds.is_antichain());
    }

    #[test]
    fn specialize_with_no_violated_fd_is_a_noop() {
        let mut fds = tree(&[(&[3], 0)]);
        let invalid = specialize_into(&mut fds, s(&[1, 2]), 0, 4);
        assert!(invalid.is_empty());
        assert_eq!(fds.len(), 1);
    }

    #[test]
    fn specialize_empty_lhs_fd() {
        // ∅ -> 0 invalidated by the non-FD {1} -> 0 over 3 attrs:
        // children are {2} -> 0 only (1 ∈ x, 0 = rhs).
        let mut fds = tree(&[(&[], 0)]);
        specialize_into(&mut fds, s(&[1]), 0, 3);
        assert_eq!(fds.all_fds(), vec![Fd::new(s(&[2]), 0)]);
    }

    #[test]
    fn specialize_can_empty_the_rhs_entirely() {
        // Non-FD over all other attributes: no escape attribute exists.
        let mut fds = tree(&[(&[1], 0), (&[2], 0)]);
        specialize_into(&mut fds, s(&[1, 2]), 0, 3);
        assert!(fds.is_empty(), "no attribute left to specialize with");
    }

    #[test]
    fn generalize_removes_valid_and_adds_maximal_parents() {
        // Negative cover: {1,2,3} -> 0 stored; the FD {2} -> 0 becomes
        // valid, so that non-FD is gone; parents drop an attr of x={2}:
        // {1,3} -> 0.
        let mut non_fds = tree(&[(&[1, 2, 3], 0)]);
        let valid = generalize_into(&mut non_fds, s(&[2]), 0);
        assert_eq!(valid, vec![s(&[1, 2, 3])]);
        assert_eq!(non_fds.all_fds(), vec![Fd::new(s(&[1, 3]), 0)]);
    }

    #[test]
    fn generalize_respects_maximality() {
        // {1,2} -> 0 and {1,2,3} -> 0 can't coexist (antichain), so use
        // two incomparable non-FDs where one generated parent is already
        // covered: x = {2,3}; specializations of x: {1,2,3} and {2,3,4}.
        let mut non_fds = tree(&[(&[1, 2, 3], 0), (&[2, 3, 4], 0), (&[1, 4], 0)]);
        generalize_into(&mut non_fds, s(&[2, 3]), 0);
        // Parents: {1,3},{1,2} from the first; {3,4},{2,4} from the second.
        let got = non_fds.all_fds();
        assert!(got.contains(&Fd::new(s(&[1, 2]), 0)));
        assert!(got.contains(&Fd::new(s(&[1, 3]), 0)));
        assert!(got.contains(&Fd::new(s(&[2, 4]), 0)));
        assert!(got.contains(&Fd::new(s(&[3, 4]), 0)));
        assert!(
            got.contains(&Fd::new(s(&[1, 4]), 0)),
            "untouched non-FD survives"
        );
        assert!(non_fds.is_antichain());
    }

    #[test]
    fn generalize_with_empty_x_clears_the_rhs() {
        // ∅ -> 0 valid means no non-FD with RHS 0 can exist; there are
        // no parents to add.
        let mut non_fds = tree(&[(&[1, 2], 0), (&[3], 0), (&[1], 2)]);
        let valid = generalize_into(&mut non_fds, AttrSet::empty(), 0);
        assert_eq!(valid.len(), 2);
        assert_eq!(non_fds.all_fds(), vec![Fd::new(s(&[1]), 2)]);
    }

    #[test]
    fn induce_paper_example() {
        // Negative cover from the paper's Section 3.2 worked example:
        // fzc→l, fl→z, fl→c, c→f, c→z  (f=0, l=1, z=2, c=3).
        let non_fds = tree(&[
            (&[0, 2, 3], 1),
            (&[0, 1], 2),
            (&[0, 1], 3),
            (&[3], 0),
            (&[3], 2),
        ]);
        let fds = induce_from_negative_cover(&non_fds, 4);
        // Expected minimal FDs: l→f, z→f, z→c, fc→z, lc→z.
        let expect = tree(&[(&[1], 0), (&[2], 0), (&[2], 3), (&[0, 3], 2), (&[1, 3], 2)]);
        assert_eq!(fds, expect);
    }

    #[test]
    fn induce_from_empty_negative_cover_gives_empty_lhs_fds() {
        let fds = induce_from_negative_cover(&FdTree::new(), 3);
        let expect = tree(&[(&[], 0), (&[], 1), (&[], 2)]);
        assert_eq!(fds, expect);
    }

    #[test]
    fn induce_inverts_inversion() {
        // invert_positive_cover ∘ induce_from_negative_cover = identity
        // on antichain covers.
        use crate::invert_positive_cover;
        let covers = [
            tree(&[(&[1], 0), (&[2], 0), (&[2], 3), (&[0, 3], 2), (&[1, 3], 2)]),
            tree(&[(&[0], 1), (&[0], 2), (&[0], 3)]),
            tree(&[(&[], 0), (&[1, 2], 0)]), // {} -> 0 subsumes; add ignored? kept minimal:
        ];
        for fds in &covers {
            // Normalize: only antichain covers round-trip; skip covers
            // that are not antichains.
            if !fds.is_antichain() {
                continue;
            }
            let neg = invert_positive_cover(fds, 4);
            let back = induce_from_negative_cover(&neg, 4);
            assert_eq!(&back, fds);
        }
    }

    #[test]
    fn roundtrip_specialize_then_generalize() {
        // Invalidate {1} -> 0 via non-FD {1} -> 0 itself, then validate
        // it again: the covers must return to a consistent antichain.
        let mut fds = tree(&[(&[1], 0)]);
        let mut non_fds = FdTree::new();
        let invalid = specialize_into(&mut fds, s(&[1]), 0, 3);
        for lhs in invalid {
            non_fds.add_maximal_evicting(lhs, 0);
        }
        assert!(non_fds.contains(s(&[1]), 0));
        // fds now holds {1,2} -> 0 (attr 2 is the only escape).
        assert_eq!(fds.all_fds(), vec![Fd::new(s(&[1, 2]), 0)]);

        let valid = generalize_into(&mut non_fds, s(&[1]), 0);
        assert_eq!(valid, vec![s(&[1])]);
        for lhs in valid {
            fds.remove_specializations(lhs, 0);
            fds.add_minimal(lhs, 0);
        }
        assert_eq!(fds.all_fds(), vec![Fd::new(s(&[1]), 0)]);
        // The generalization ∅ -> 0 enters the negative cover as a
        // *candidate*: Algorithm 6 does not validate the parents it
        // generates — the bottom-up lattice traversal (Algorithm 4)
        // checks them when it reaches their level.
        assert_eq!(non_fds.all_fds(), vec![Fd::new(AttrSet::empty(), 0)]);
    }
}
