//! Armstrong-closure reasoning over a positive cover.
//!
//! The applications the paper motivates — schema normalization \[4\],
//! query optimization \[14\] — consume the discovered FDs through
//! implication queries: *does `X -> A` follow?*, *what does `X`
//! determine?*, *which attribute sets are keys?*. This module answers
//! them directly on the maintained [`FdTree`] cover.

use crate::FdTree;
use dynfd_common::{AttrSet, Fd};

/// The attribute closure `X⁺`: all attributes functionally determined
/// by `X` under the FDs in `cover` (including `X` itself).
///
/// Classic fixpoint computation; each pass scans the cover once, and at
/// most `arity` passes run, so the cost is `O(arity · |cover|)`.
pub fn attribute_closure(cover: &FdTree, x: AttrSet, arity: usize) -> AttrSet {
    let mut closure = x;
    loop {
        let mut grew = false;
        for rhs in 0..arity {
            if !closure.contains(rhs) && cover.contains_generalization(closure, rhs) {
                closure.insert(rhs);
                grew = true;
            }
        }
        if !grew {
            return closure;
        }
    }
}

/// Whether `fd` is implied by `cover` (Armstrong implication). For a
/// positive cover of minimal FDs this is a single generalization lookup;
/// the closure-based fallback also accepts non-minimal covers.
pub fn implies(cover: &FdTree, fd: &Fd, arity: usize) -> bool {
    fd.lhs.contains(fd.rhs)
        || cover.contains_generalization(fd.lhs, fd.rhs)
        || attribute_closure(cover, fd.lhs, arity).contains(fd.rhs)
}

/// Whether `x` is a *superkey*: it determines every attribute.
pub fn is_superkey(cover: &FdTree, x: AttrSet, arity: usize) -> bool {
    attribute_closure(cover, x, arity) == AttrSet::full(arity)
}

/// Whether `x` is a *candidate key*: a superkey no proper subset of
/// which is a superkey.
pub fn is_candidate_key(cover: &FdTree, x: AttrSet, arity: usize) -> bool {
    is_superkey(cover, x, arity) && x.iter().all(|a| !is_superkey(cover, x.without(a), arity))
}

/// Enumerates all candidate keys of an `arity`-column relation.
///
/// Uses the textbook reduction: every candidate key must contain the
/// attributes that appear in no FD's RHS (they are underivable), and the
/// search expands LHS attributes only. Worst case exponential in
/// `arity` — like key discovery itself — but heavily pruned in
/// practice. Intended for the narrow relations where key enumeration is
/// meaningful; guard the call on `arity` if unsure.
pub fn candidate_keys(cover: &FdTree, arity: usize) -> Vec<AttrSet> {
    // Attributes never determined by anything: part of every key.
    let mut underivable = AttrSet::empty();
    for a in 0..arity {
        let others = AttrSet::full(arity).without(a);
        if !attribute_closure(cover, others, arity).contains(a) {
            // Nothing (not even everything else) determines `a`.
            underivable.insert(a);
        }
    }
    let mut keys: Vec<AttrSet> = Vec::new();
    // BFS from the seed, level-synchronized so minimality is by level.
    let mut frontier: Vec<AttrSet> = vec![underivable];
    while !frontier.is_empty() {
        let mut next: Vec<AttrSet> = Vec::new();
        for x in frontier {
            if keys.iter().any(|k| k.is_subset_of(&x)) {
                continue; // contains a smaller key: not a candidate
            }
            if is_superkey(cover, x, arity) {
                keys.push(x);
                continue;
            }
            let start = x.last().map_or(0, |a| a + 1);
            // Ascending extension enumerates each superset once; only
            // attributes beyond the seed matter.
            for b in start..arity {
                if !x.contains(b) {
                    next.push(x.with(b));
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        frontier = next;
    }
    keys.sort_unstable();
    keys
}

/// Minimal FDs of `cover` that violate Boyce–Codd normal form: their
/// LHS is not a superkey (and the FD is non-trivial by construction).
/// An empty result means the schema is in BCNF w.r.t. the current data.
pub fn bcnf_violations(cover: &FdTree, arity: usize) -> Vec<Fd> {
    cover
        .all_fds()
        .into_iter()
        .filter(|fd| !is_superkey(cover, fd.lhs, arity))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(attrs: &[usize]) -> AttrSet {
        attrs.iter().copied().collect()
    }

    fn tree(fds: &[(&[usize], usize)]) -> FdTree {
        fds.iter().map(|&(l, r)| Fd::new(s(l), r)).collect()
    }

    #[test]
    fn closure_fixpoint() {
        // 0 -> 1, 1 -> 2: closure of {0} is {0,1,2}; of {2} just {2}.
        let cover = tree(&[(&[0], 1), (&[1], 2)]);
        assert_eq!(attribute_closure(&cover, s(&[0]), 4), s(&[0, 1, 2]));
        assert_eq!(attribute_closure(&cover, s(&[2]), 4), s(&[2]));
        assert_eq!(
            attribute_closure(&cover, AttrSet::empty(), 4),
            AttrSet::empty()
        );
    }

    #[test]
    fn closure_uses_composite_lhs() {
        // {0,1} -> 2, {2} -> 3.
        let cover = tree(&[(&[0, 1], 2), (&[2], 3)]);
        assert_eq!(attribute_closure(&cover, s(&[0]), 4), s(&[0]));
        assert_eq!(attribute_closure(&cover, s(&[0, 1]), 4), s(&[0, 1, 2, 3]));
    }

    #[test]
    fn implication() {
        let cover = tree(&[(&[0], 1), (&[1], 2)]);
        // Transitivity: 0 -> 2 follows though it is not stored.
        assert!(implies(&cover, &Fd::new(s(&[0]), 2), 3));
        // Trivial FDs always follow.
        assert!(implies(
            &cover,
            &Fd {
                lhs: s(&[1, 2]),
                rhs: 2
            },
            3
        ));
        assert!(!implies(&cover, &Fd::new(s(&[2]), 0), 3));
    }

    #[test]
    fn keys_single() {
        // 0 -> 1, 0 -> 2: {0} is the only candidate key.
        let cover = tree(&[(&[0], 1), (&[0], 2)]);
        assert!(is_superkey(&cover, s(&[0]), 3));
        assert!(is_candidate_key(&cover, s(&[0]), 3));
        assert!(is_superkey(&cover, s(&[0, 1]), 3));
        assert!(!is_candidate_key(&cover, s(&[0, 1]), 3), "not minimal");
        assert_eq!(candidate_keys(&cover, 3), vec![s(&[0])]);
    }

    #[test]
    fn keys_multiple() {
        // Cyclic: 0 -> 1 and 1 -> 0, plus {0} -> 2. Keys: {0} and {1}.
        let cover = tree(&[(&[0], 1), (&[1], 0), (&[0], 2)]);
        assert_eq!(candidate_keys(&cover, 3), vec![s(&[0]), s(&[1])]);
    }

    #[test]
    fn keys_composite() {
        // Nothing determines 0 or 1; {0,1} -> 2. Key: {0,1}.
        let cover = tree(&[(&[0, 1], 2)]);
        assert_eq!(candidate_keys(&cover, 3), vec![s(&[0, 1])]);
    }

    #[test]
    fn keys_with_no_fds() {
        // No FDs at all: the only key is the full attribute set.
        assert_eq!(candidate_keys(&FdTree::new(), 3), vec![s(&[0, 1, 2])]);
    }

    #[test]
    fn keys_with_constant_column() {
        // ∅ -> 2 (constant), 0 -> 1: key is {0}.
        let cover = tree(&[(&[], 2), (&[0], 1)]);
        assert_eq!(candidate_keys(&cover, 3), vec![s(&[0])]);
        // Degenerate: everything constant → the empty set is the key.
        let all_const = tree(&[(&[], 0), (&[], 1)]);
        assert_eq!(candidate_keys(&all_const, 2), vec![AttrSet::empty()]);
    }

    #[test]
    fn bcnf_detection() {
        // zip -> city in people(first, zip, city): {zip} is no superkey
        // → BCNF violation. With a key FD only, no violation.
        let cover = tree(&[(&[1], 2)]);
        assert_eq!(bcnf_violations(&cover, 3), vec![Fd::new(s(&[1]), 2)]);

        let keyed = tree(&[(&[0], 1), (&[0], 2)]);
        assert!(bcnf_violations(&keyed, 3).is_empty());
    }
}
