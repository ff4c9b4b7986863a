//! # dynfd-static
//!
//! Static FD discovery algorithms built on the same substrate as DynFD:
//!
//! * [`hyfd`] — a from-scratch Rust implementation of HyFD [13], the
//!   hybrid (row + column) state of the art. DynFD uses it to bootstrap
//!   its covers from an initial relation (paper Section 2), and the
//!   competitive evaluation (Section 6.4, Figure 7) re-runs it per batch
//!   as the baseline.
//! * [`tane`] — a TANE-style level-wise lattice traversal [8] with
//!   minimality pruning, the canonical column-based algorithm.
//! * [`fdep`] — FDEP [6], the canonical row-based algorithm: all record
//!   pairs → maximal negative cover → dependency induction.
//!
//! All three return the complete set of minimal, non-trivial FDs as an
//! [`FdTree`](dynfd_lattice::FdTree). Three independent implementations
//! exist so the test suite can cross-validate them (and DynFD) against
//! each other on random relations — the strongest correctness oracle
//! available without the original authors' code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fdep;
pub mod hyfd;
pub mod tane;

use dynfd_common::AttrSet;
use dynfd_lattice::FdTree;
use dynfd_relation::DynamicRelation;

/// The trivial positive cover for relations with fewer than two records:
/// every FD holds, so the minimal ones are `∅ -> A` for every attribute.
pub(crate) fn trivial_cover(rel: &DynamicRelation) -> FdTree {
    let mut fds = FdTree::new();
    for a in 0..rel.arity() {
        fds.add(AttrSet::empty(), a);
    }
    fds
}

/// A static discovery algorithm usable as a from-scratch correctness
/// oracle. The three algorithms share no discovery code (column-based,
/// row-based, and hybrid), so agreement between all of them and DynFD's
/// maintained cover is strong evidence of correctness — the differential
/// runner in `dynfd-testkit` iterates [`Oracle::ALL`] after every batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Oracle {
    /// Level-wise lattice traversal (column-based).
    Tane,
    /// All record pairs → negative cover → induction (row-based).
    Fdep,
    /// Hybrid row- and column-based discovery.
    Hyfd,
}

impl Oracle {
    /// All three oracles, in a fixed order.
    pub const ALL: [Oracle; 3] = [Oracle::Tane, Oracle::Fdep, Oracle::Hyfd];

    /// The oracle's name as used in failure reports.
    pub fn name(self) -> &'static str {
        match self {
            Oracle::Tane => "tane",
            Oracle::Fdep => "fdep",
            Oracle::Hyfd => "hyfd",
        }
    }

    /// Runs the algorithm from scratch on `rel`, returning the complete
    /// set of minimal, non-trivial FDs.
    pub fn discover(self, rel: &DynamicRelation) -> FdTree {
        match self {
            Oracle::Tane => tane::discover(rel),
            Oracle::Fdep => fdep::discover(rel),
            Oracle::Hyfd => hyfd::discover(rel),
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use dynfd_common::Schema;
    use dynfd_relation::DynamicRelation;

    /// Builds a relation from string rows with an anonymous schema.
    pub fn rel(rows: &[&[&str]]) -> DynamicRelation {
        let arity = rows.first().map_or(2, |r| r.len());
        let rows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| r.iter().map(|s| s.to_string()).collect())
            .collect();
        DynamicRelation::from_rows(Schema::anonymous("t", arity), &rows).unwrap()
    }

    /// The paper's running example, Table 1 tuples 1-4.
    pub fn paper_relation() -> DynamicRelation {
        rel(&[
            &["Max", "Jones", "14482", "Potsdam"],
            &["Max", "Miller", "14482", "Potsdam"],
            &["Max", "Jones", "10115", "Berlin"],
            &["Anna", "Scott", "13591", "Berlin"],
        ])
    }

    /// Deterministic random relation: `rows` rows, `cols` columns, each
    /// value drawn from a per-column domain of size `domain` with a
    /// simple LCG — enough structure for interesting FD sets.
    pub fn random_relation(seed: u64, rows: usize, cols: usize, domain: u64) -> DynamicRelation {
        let mut x = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        let mut data = Vec::with_capacity(rows);
        for _ in 0..rows {
            let mut row = Vec::with_capacity(cols);
            for c in 0..cols {
                x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                // Vary domain per column so some columns are near-keys
                // and some near-constant.
                let d = 1 + (domain + c as u64) % (domain * 2);
                row.push(format!("v{}", (x >> 16) % d));
            }
            data.push(row);
        }
        DynamicRelation::from_rows(Schema::anonymous("rand", cols), &data).unwrap()
    }
}
