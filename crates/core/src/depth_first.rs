//! Optimistic depth-first searches (§5.3, Algorithm 5).
//!
//! When a delete batch turns many non-FDs valid, their generalizations
//! cascade for several lattice levels — an exponential number of
//! candidates in the worst case. The new non-FD frontier is, however,
//! often covered by a few *small-LHS* maximal non-FDs. The optimistic
//! depth-first search races ahead of the level-wise traversal: starting
//! from a sample of the newly valid FDs it recursively validates their
//! generalizations, and every valid FD found deduces covers via
//! Algorithm 6 — deepest first, because a more general FD deduces
//! strictly more.

use crate::config::DFS_SEED_FRACTION;
use crate::{BatchMetrics, DynFd};
use dynfd_common::{AttrSet, Fd};
use dynfd_relation::{validate_with, ValidationOptions, ValidatorScratch};
use std::collections::HashSet;

impl DynFd {
    /// Launches depth-first searches from a deterministic
    /// [`DFS_SEED_FRACTION`] sample of the newly valid FDs (at least one).
    ///
    /// The paper samples 10 % of the seeds because the searches are "an
    /// optimistic optimization attempt and should not change the search
    /// strategy entirely" — breadth-first remains the backbone. We take
    /// evenly strided seeds so runs are reproducible.
    pub(crate) fn depth_first_from_seeds(&mut self, seeds: &[Fd], metrics: &mut BatchMetrics) {
        if seeds.is_empty() {
            return;
        }
        let n = seeds.len();
        let k = ((n as f64 * DFS_SEED_FRACTION).ceil() as usize).clamp(1, n);
        let stride = n.div_ceil(k);
        let mut visited: HashSet<Fd> = HashSet::new();
        // One scratch serves the whole search (each validation depends on
        // the verdicts before it), so the steady state allocates nothing.
        let mut scratch = ValidatorScratch::new();
        for idx in (0..n).step_by(stride) {
            metrics.dfs_seeds += 1;
            self.depth_first(seeds[idx], &mut visited, &mut scratch, metrics);
        }
    }

    /// Algorithm 5: recursive depth-first traversal from the valid FD
    /// `fd`. Every direct generalization that is implied by the positive
    /// cover or validates successfully is explored; afterwards `fd`
    /// deduces both covers (Algorithm 6).
    ///
    /// The `visited` memo is an implementation addition: different
    /// recursion paths reach the same generalization (the lattice is not
    /// a tree), and re-validating it would only repeat work.
    fn depth_first(
        &mut self,
        fd: Fd,
        visited: &mut HashSet<Fd>,
        scratch: &mut ValidatorScratch,
        metrics: &mut BatchMetrics,
    ) {
        if !visited.insert(fd) {
            return;
        }
        for r in fd.lhs.iter() {
            let new_fd = Fd::new(fd.lhs.without(r), fd.rhs);
            // Line 4: an FD implied by the positive cover is true without
            // validation; otherwise validate against the full relation.
            let proceed = if self.fds.contains_generalization(new_fd.lhs, new_fd.rhs) {
                true
            } else if visited.contains(&new_fd) {
                false // already explored (and deduced) via another path
            } else {
                metrics.non_fd_validations += 1;
                validate_with(
                    &self.rel,
                    new_fd.lhs,
                    AttrSet::single(new_fd.rhs),
                    &ValidationOptions::full(),
                    scratch,
                )
                .all_valid()
            };
            if proceed {
                self.depth_first(new_fd, visited, scratch, metrics);
            }
        }
        // Line 6: deduction last — generalizations processed above have
        // already deduced the lion's share.
        self.apply_valid_fd(fd);
    }
}
