//! The FD prefix tree.

use dynfd_common::{AttrId, AttrSet, Fd};
use std::collections::BTreeMap;

/// A prefix tree over attribute sets with RHS annotations — the storage
/// format DynFD uses for both the positive cover (minimal FDs) and the
/// negative cover (maximal non-FDs), following \[6\] and paper Section 3.2.
///
/// A path from the root along strictly increasing attribute indices
/// spells out an LHS; the [`AttrSet`] annotation at the final node lists
/// the right-hand sides for which `lhs -> rhs` is stored. The tree
/// supports the lookups the maintenance algorithms hammer on:
/// generalizations (`lhs' ⊆ lhs`, same RHS), specializations
/// (`lhs' ⊇ lhs`, same RHS), and per-level enumeration.
///
/// Children are kept in a `BTreeMap` so every traversal — and therefore
/// every experiment output — is deterministic.
#[derive(Clone, Debug, Default)]
pub struct FdTree {
    root: Node,
    len: usize,
}

#[derive(Clone, Debug, Default)]
struct Node {
    /// RHS attributes annotated at this node: for the path `X` leading
    /// here, the FDs `X -> r` for every `r` in this set.
    rhs: AttrSet,
    /// Children keyed by attribute index; keys are strictly greater than
    /// every attribute on the path to this node.
    children: BTreeMap<AttrId, Node>,
}

impl Node {
    fn is_empty(&self) -> bool {
        self.rhs.is_empty() && self.children.is_empty()
    }
}

impl FdTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        FdTree::default()
    }

    /// Number of stored `(lhs, rhs)` annotations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree stores no FD.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds `lhs -> rhs`. Returns `false` if it was already present.
    pub fn add(&mut self, lhs: AttrSet, rhs: AttrId) -> bool {
        debug_assert!(!lhs.contains(rhs), "trivial FD");
        let mut node = &mut self.root;
        for a in lhs.iter() {
            node = node.children.entry(a).or_default();
        }
        if node.rhs.contains(rhs) {
            return false;
        }
        node.rhs.insert(rhs);
        self.len += 1;
        true
    }

    /// Removes `lhs -> rhs`, pruning nodes left empty. Returns `false`
    /// if it was not present.
    pub fn remove(&mut self, lhs: AttrSet, rhs: AttrId) -> bool {
        fn rec(node: &mut Node, attrs: &[AttrId], rhs: AttrId) -> bool {
            match attrs.split_first() {
                None => {
                    if node.rhs.contains(rhs) {
                        node.rhs.remove(rhs);
                        true
                    } else {
                        false
                    }
                }
                Some((&a, rest)) => {
                    let Some(child) = node.children.get_mut(&a) else {
                        return false;
                    };
                    let removed = rec(child, rest, rhs);
                    if removed && child.is_empty() {
                        node.children.remove(&a);
                    }
                    removed
                }
            }
        }
        let attrs = lhs.to_vec();
        let removed = rec(&mut self.root, &attrs, rhs);
        if removed {
            self.len -= 1;
        }
        removed
    }

    /// Whether exactly `lhs -> rhs` is stored.
    pub fn contains(&self, lhs: AttrSet, rhs: AttrId) -> bool {
        let mut node = &self.root;
        for a in lhs.iter() {
            match node.children.get(&a) {
                Some(child) => node = child,
                None => return false,
            }
        }
        node.rhs.contains(rhs)
    }

    /// Whether some stored FD `lhs' -> rhs` has `lhs' ⊆ lhs` (equality
    /// included).
    pub fn contains_generalization(&self, lhs: AttrSet, rhs: AttrId) -> bool {
        fn rec(node: &Node, lhs: &AttrSet, rhs: AttrId) -> bool {
            if node.rhs.contains(rhs) {
                return true;
            }
            // Only descend along attributes of `lhs`; child keys are
            // strictly increasing along any path, so passing the whole
            // set down never revisits an attribute.
            node.children
                .iter()
                .any(|(&a, child)| lhs.contains(a) && rec(child, lhs, rhs))
        }
        rec(&self.root, &lhs, rhs)
    }

    /// All stored `lhs' ⊆ lhs` with the given RHS (equality included),
    /// in deterministic order.
    pub fn get_generalizations(&self, lhs: AttrSet, rhs: AttrId) -> Vec<AttrSet> {
        fn rec(node: &Node, lhs: &AttrSet, rhs: AttrId, path: AttrSet, out: &mut Vec<AttrSet>) {
            if node.rhs.contains(rhs) {
                out.push(path);
            }
            for (&a, child) in &node.children {
                if lhs.contains(a) {
                    rec(child, lhs, rhs, path.with(a), out);
                }
            }
        }
        let mut out = Vec::new();
        rec(&self.root, &lhs, rhs, AttrSet::empty(), &mut out);
        out
    }

    /// Whether some stored FD `lhs' -> rhs` has `lhs' ⊇ lhs` (equality
    /// included).
    pub fn contains_specialization(&self, lhs: AttrSet, rhs: AttrId) -> bool {
        // `needed` tracks the lhs attributes the path still has to cover.
        fn rec(node: &Node, needed: AttrSet, rhs: AttrId) -> bool {
            if needed.is_empty() {
                if node.rhs.contains(rhs) {
                    return true;
                }
                return node.children.values().any(|c| rec(c, needed, rhs));
            }
            let next_needed = needed.first().expect("non-empty");
            // Paths are ascending: a child key beyond the smallest still-
            // needed attribute can never cover it.
            node.children
                .range(..=next_needed)
                .any(|(&a, child)| rec(child, needed.without(a), rhs))
        }
        rec(&self.root, lhs, rhs)
    }

    /// Some stored `lhs' ⊇ lhs` with the given RHS (equality included),
    /// if one exists. Cheaper than [`FdTree::get_specializations`] when
    /// only a witness is needed.
    pub fn find_specialization(&self, lhs: AttrSet, rhs: AttrId) -> Option<AttrSet> {
        fn rec(node: &Node, needed: AttrSet, rhs: AttrId, path: AttrSet) -> Option<AttrSet> {
            if needed.is_empty() {
                if node.rhs.contains(rhs) {
                    return Some(path);
                }
                return node
                    .children
                    .iter()
                    .find_map(|(&a, c)| rec(c, needed, rhs, path.with(a)));
            }
            let next_needed = needed.first().expect("non-empty");
            node.children
                .range(..=next_needed)
                .find_map(|(&a, c)| rec(c, needed.without(a), rhs, path.with(a)))
        }
        rec(&self.root, lhs, rhs, AttrSet::empty())
    }

    /// All stored `lhs' ⊇ lhs` with the given RHS (equality included).
    pub fn get_specializations(&self, lhs: AttrSet, rhs: AttrId) -> Vec<AttrSet> {
        fn rec(node: &Node, needed: AttrSet, rhs: AttrId, path: AttrSet, out: &mut Vec<AttrSet>) {
            if needed.is_empty() {
                if node.rhs.contains(rhs) {
                    out.push(path);
                }
                for (&a, child) in &node.children {
                    rec(child, needed, rhs, path.with(a), out);
                }
                return;
            }
            let next_needed = needed.first().expect("non-empty");
            for (&a, child) in node.children.range(..=next_needed) {
                rec(child, needed.without(a), rhs, path.with(a), out);
            }
        }
        let mut out = Vec::new();
        rec(&self.root, lhs, rhs, AttrSet::empty(), &mut out);
        out
    }

    /// Removes every stored `lhs' ⊇ lhs` with the given RHS (equality
    /// included) and returns the removed LHSs.
    pub fn remove_specializations(&mut self, lhs: AttrSet, rhs: AttrId) -> Vec<AttrSet> {
        let specs = self.get_specializations(lhs, rhs);
        for &s in &specs {
            let removed = self.remove(s, rhs);
            debug_assert!(removed);
        }
        specs
    }

    /// Removes every stored `lhs' ⊆ lhs` with the given RHS (equality
    /// included) and returns the removed LHSs.
    pub fn remove_generalizations(&mut self, lhs: AttrSet, rhs: AttrId) -> Vec<AttrSet> {
        let gens = self.get_generalizations(lhs, rhs);
        for &g in &gens {
            let removed = self.remove(g, rhs);
            debug_assert!(removed);
        }
        gens
    }

    /// All FDs whose LHS has exactly `level` attributes, in deterministic
    /// order. The lattice-traversal algorithms (paper Algorithms 2 and 4)
    /// walk the covers level by level through this.
    pub fn get_level(&self, level: usize) -> Vec<Fd> {
        fn rec(node: &Node, remaining: usize, path: AttrSet, out: &mut Vec<Fd>) {
            if remaining == 0 {
                out.extend(node.rhs.iter().map(|r| Fd::new(path, r)));
                return;
            }
            for (&a, child) in &node.children {
                rec(child, remaining - 1, path.with(a), out);
            }
        }
        let mut out = Vec::new();
        rec(&self.root, level, AttrSet::empty(), &mut out);
        out
    }

    /// The deepest level holding any FD, or `None` if empty.
    pub fn max_level(&self) -> Option<usize> {
        fn rec(node: &Node, depth: usize) -> Option<usize> {
            let mut best = if node.rhs.is_empty() {
                None
            } else {
                Some(depth)
            };
            for child in node.children.values() {
                best = best.max(rec(child, depth + 1));
            }
            best
        }
        rec(&self.root, 0)
    }

    /// All stored FDs in deterministic (path) order.
    pub fn all_fds(&self) -> Vec<Fd> {
        fn rec(node: &Node, path: AttrSet, out: &mut Vec<Fd>) {
            out.extend(node.rhs.iter().map(|r| Fd::new(path, r)));
            for (&a, child) in &node.children {
                rec(child, path.with(a), out);
            }
        }
        let mut out = Vec::with_capacity(self.len);
        rec(&self.root, AttrSet::empty(), &mut out);
        out
    }

    /// Positive-cover insertion: adds `lhs -> rhs` only if no
    /// generalization (or the FD itself) is already stored — the
    /// *minimality pruning* used whenever a specialization is generated
    /// (paper Algorithm 2 lines 14–15, Algorithm 3 lines 8–9).
    ///
    /// Returns `true` if the FD was added.
    pub fn add_minimal(&mut self, lhs: AttrSet, rhs: AttrId) -> bool {
        if self.contains_generalization(lhs, rhs) {
            return false;
        }
        self.add(lhs, rhs)
    }

    /// Negative-cover insertion of an observed non-FD: if no
    /// specialization is stored (the non-FD is maximal w.r.t. the cover),
    /// removes all generalizations — they are no longer maximal — and
    /// adds it. This is the two-step update of paper Section 4 ("first
    /// remove all generalizations of the new non-FD from the cover, then
    /// add it"), with the maximality guard Algorithm 3 applies to
    /// sampling-discovered non-FDs.
    ///
    /// Returns `true` if the non-FD entered the cover.
    pub fn add_maximal_evicting(&mut self, lhs: AttrSet, rhs: AttrId) -> bool {
        if self.contains_specialization(lhs, rhs) {
            return false;
        }
        self.remove_generalizations(lhs, rhs);
        let added = self.add(lhs, rhs);
        debug_assert!(added);
        true
    }

    /// Negative-cover insertion with maximality check: adds `lhs -> rhs`
    /// only if no specialization (or the FD itself) is stored (paper
    /// Algorithm 1 lines 12–13, Algorithm 3 lines 13–14).
    ///
    /// Returns `true` if the FD was added.
    pub fn add_maximal(&mut self, lhs: AttrSet, rhs: AttrId) -> bool {
        if self.contains_specialization(lhs, rhs) {
            return false;
        }
        self.add(lhs, rhs)
    }

    /// Debug check: no stored FD is a proper generalization of another —
    /// both covers must be antichains per RHS. O(n·lookup); tests only.
    pub fn is_antichain(&self) -> bool {
        let fds = self.all_fds();
        fds.iter()
            .all(|fd| self.get_generalizations(fd.lhs, fd.rhs).len() == 1)
    }
}

impl FromIterator<Fd> for FdTree {
    fn from_iter<T: IntoIterator<Item = Fd>>(iter: T) -> Self {
        let mut tree = FdTree::new();
        for fd in iter {
            tree.add(fd.lhs, fd.rhs);
        }
        tree
    }
}

impl PartialEq for FdTree {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.all_fds() == other.all_fds()
    }
}

impl Eq for FdTree {}

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
    fn add_remove_contains() {
        let mut t = FdTree::new();
        assert!(t.add(s(&[1, 3]), 0));
        assert!(!t.add(s(&[1, 3]), 0), "duplicate add");
        assert!(t.contains(s(&[1, 3]), 0));
        assert!(!t.contains(s(&[1]), 0));
        assert!(!t.contains(s(&[1, 3]), 2));
        assert_eq!(t.len(), 1);
        assert!(t.remove(s(&[1, 3]), 0));
        assert!(!t.remove(s(&[1, 3]), 0), "double remove");
        assert!(t.is_empty());
    }

    #[test]
    fn empty_lhs_annotations_live_at_root() {
        let mut t = FdTree::new();
        t.add(AttrSet::empty(), 2);
        assert!(t.contains(AttrSet::empty(), 2));
        assert_eq!(t.get_level(0), vec![Fd::new(AttrSet::empty(), 2)]);
        assert!(t.contains_generalization(s(&[0, 1]), 2));
        assert!(t.contains_specialization(AttrSet::empty(), 2));
    }

    #[test]
    fn generalization_queries() {
        let t = tree(&[(&[1], 0), (&[2, 3], 0), (&[1], 4)]);
        // {1,2,3} ⊇ {1} and ⊇ {2,3}
        assert!(t.contains_generalization(s(&[1, 2, 3]), 0));
        assert_eq!(
            t.get_generalizations(s(&[1, 2, 3]), 0),
            vec![s(&[1]), s(&[2, 3])]
        );
        // rhs must match
        assert!(!t.contains_generalization(s(&[1, 2, 3]), 5));
        // {2} alone covers neither lhs
        assert!(!t.contains_generalization(s(&[2]), 0));
        // equality counts as generalization
        assert!(t.contains_generalization(s(&[1]), 0));
    }

    #[test]
    fn specialization_queries() {
        let t = tree(&[(&[1, 2, 3], 0), (&[2, 4], 0), (&[1], 5)]);
        assert!(t.contains_specialization(s(&[2]), 0));
        assert_eq!(
            t.get_specializations(s(&[2]), 0),
            vec![s(&[1, 2, 3]), s(&[2, 4])]
        );
        assert_eq!(t.get_specializations(s(&[1, 3]), 0), vec![s(&[1, 2, 3])]);
        assert!(!t.contains_specialization(s(&[5]), 0));
        // equality counts as specialization
        assert!(t.contains_specialization(s(&[2, 4]), 0));
        // empty lhs matches everything with the right rhs
        assert_eq!(t.get_specializations(AttrSet::empty(), 0).len(), 2);
    }

    #[test]
    fn find_specialization_returns_a_witness() {
        let t = tree(&[(&[1, 2, 3], 0), (&[2, 4], 0)]);
        let w = t.find_specialization(s(&[2]), 0).unwrap();
        assert!(s(&[2]).is_subset_of(&w));
        assert!(t.contains(w, 0));
        assert_eq!(t.find_specialization(s(&[5]), 0), None);
        assert_eq!(t.find_specialization(s(&[2]), 7), None);
    }

    #[test]
    fn specialization_pruning_respects_ascending_paths() {
        // Regression guard: a specialization of {3} must not be missed
        // when the path visits smaller attributes first.
        let t = tree(&[(&[0, 3], 1)]);
        assert!(t.contains_specialization(s(&[3]), 1));
        assert!(t.contains_specialization(s(&[0]), 1));
        assert!(!t.contains_specialization(s(&[2]), 1));
    }

    #[test]
    fn remove_specializations_returns_removed() {
        let mut t = tree(&[(&[1, 2], 0), (&[1, 2, 3], 0), (&[2], 0), (&[1, 2], 4)]);
        let removed = t.remove_specializations(s(&[1, 2]), 0);
        assert_eq!(removed, vec![s(&[1, 2]), s(&[1, 2, 3])]);
        assert_eq!(t.len(), 2);
        assert!(t.contains(s(&[2]), 0));
        assert!(t.contains(s(&[1, 2]), 4), "other rhs untouched");
    }

    #[test]
    fn remove_generalizations_returns_removed() {
        let mut t = tree(&[(&[1], 0), (&[1, 2], 0), (&[1, 2, 3], 0), (&[3], 0)]);
        let removed = t.remove_generalizations(s(&[1, 2]), 0);
        assert_eq!(removed, vec![s(&[1]), s(&[1, 2])]);
        assert!(t.contains(s(&[1, 2, 3]), 0));
        assert!(t.contains(s(&[3]), 0));
    }

    #[test]
    fn level_enumeration() {
        let t = tree(&[
            (&[], 0),
            (&[1], 0),
            (&[2], 3),
            (&[1, 2], 4),
            (&[0, 1, 3], 2),
        ]);
        assert_eq!(t.get_level(0), vec![Fd::new(s(&[]), 0)]);
        assert_eq!(t.get_level(1).len(), 2);
        assert_eq!(t.get_level(2), vec![Fd::new(s(&[1, 2]), 4)]);
        assert_eq!(t.get_level(3), vec![Fd::new(s(&[0, 1, 3]), 2)]);
        assert!(t.get_level(4).is_empty());
        assert_eq!(t.max_level(), Some(3));
        assert_eq!(FdTree::new().max_level(), None);
    }

    #[test]
    fn all_fds_roundtrip() {
        let fds = vec![
            Fd::new(s(&[]), 1),
            Fd::new(s(&[0]), 2),
            Fd::new(s(&[0, 2]), 1),
            Fd::new(s(&[1, 3]), 0),
        ];
        let t: FdTree = fds.iter().copied().collect();
        assert_eq!(t.len(), 4);
        let mut got = t.all_fds();
        got.sort();
        let mut want = fds;
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn add_minimal_enforces_minimality() {
        let mut t = tree(&[(&[1], 0)]);
        assert!(!t.add_minimal(s(&[1, 2]), 0), "specialization of stored fd");
        assert!(!t.add_minimal(s(&[1]), 0), "exact duplicate");
        assert!(t.add_minimal(s(&[2]), 0), "incomparable lhs");
        assert!(t.add_minimal(s(&[1, 2]), 3), "different rhs");
        assert!(t.is_antichain());
    }

    #[test]
    fn add_maximal_enforces_maximality() {
        let mut t = tree(&[(&[1, 2], 0)]);
        assert!(
            !t.add_maximal(s(&[1]), 0),
            "generalization of stored non-fd"
        );
        assert!(!t.add_maximal(s(&[1, 2]), 0), "exact duplicate");
        assert!(t.add_maximal(s(&[1, 3]), 0), "incomparable lhs");
    }

    #[test]
    fn add_maximal_evicting_evicts_generalizations() {
        let mut t = tree(&[(&[1], 0), (&[2], 0), (&[3], 1)]);
        assert!(t.add_maximal_evicting(s(&[1, 2]), 0));
        assert!(t.contains(s(&[1, 2]), 0));
        assert!(!t.contains(s(&[1]), 0));
        assert!(!t.contains(s(&[2]), 0));
        assert!(t.contains(s(&[3]), 1));
        assert!(t.is_antichain());
    }

    #[test]
    fn add_maximal_evicting_refuses_non_maximal() {
        let mut t = tree(&[(&[1, 2, 3], 0)]);
        assert!(!t.add_maximal_evicting(s(&[1, 2]), 0));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn tree_equality_ignores_insertion_order() {
        let a = tree(&[(&[1], 0), (&[2, 3], 4)]);
        let b = tree(&[(&[2, 3], 4), (&[1], 0)]);
        assert_eq!(a, b);
        assert_ne!(a, tree(&[(&[1], 0)]));
    }
}
