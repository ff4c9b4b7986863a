//! The six evaluation-dataset profiles (paper Table 3).

use crate::{ColumnModel, TableSpec};

/// Shape parameters of one evaluation dataset, mirroring Table 3 of the
/// paper: width, length, change-history length, and change mix.
///
/// The column *contents* are synthesized (see crate docs and DESIGN.md);
/// the FD landscape per dataset is controlled by a deterministic column
/// mix derived from the profile seed: one key-ish column, Zipf
/// categoricals of varying cardinality, derived hierarchy columns
/// (zip→city style), and noisily correlated columns that churn.
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetProfile {
    /// Dataset name as used in the paper ("cpu", "disease", …).
    pub name: &'static str,
    /// Column count (#Columns in Table 3).
    pub columns: usize,
    /// Initial row count (#Rows in Table 3; `artist` is scaled — see
    /// [`DatasetProfile::artist_full`]).
    pub initial_rows: usize,
    /// Change-history length (#Changes in Table 3).
    pub changes: usize,
    /// Insert share of the change mix, percent.
    pub insert_pct: f64,
    /// Delete share, percent.
    pub delete_pct: f64,
    /// Update share, percent.
    pub update_pct: f64,
    /// Maximum attributes an update regenerates (real updates touch few).
    pub update_columns: usize,
    /// RNG seed; every run of a profile regenerates identical data.
    pub seed: u64,
    /// Number of *dirty bursts* injected into the change history: short
    /// stretches of operations whose correlated leaf columns are
    /// scrambled (a faulty import, a misbehaving writer). Bursts are
    /// what give real histories their spiky per-batch cost profile
    /// (paper Figure 5): most batches change no FDs, a burst batch
    /// invalidates several at once. `0` disables.
    pub bursts: usize,
    /// Length of each burst, in change operations.
    pub burst_len: usize,
}

impl DatasetProfile {
    /// The deterministic column mix for this profile.
    ///
    /// Real relational data keeps its minimal-FD count small — Table 3
    /// reports 347 FDs for the 83-column `actor` — because its columns
    /// are *hierarchically nested*, not independent. Mutually
    /// independent columns (even low-cardinality ones, even exact
    /// functions of a shared root with independent group assignments)
    /// jointly refine towards a key, and the minimal FDs of such data
    /// are the minimal separating subsets: combinatorially many.
    ///
    /// The mix therefore builds **chains of nested coarsenings**: one
    /// surrogate key, one categorical root, and a few chains in which
    /// every column is an exact coarsening of its chain predecessor
    /// (zip → city → state → country). Within a chain, any column
    /// subset's joint partition equals its finest member's, so combos
    /// never sharpen — the valid FDs are essentially the chain edges
    /// plus key→everything, O(columns) of them. A handful of noisily
    /// [`Correlated`](ColumnModel::Correlated) leaf columns provide the
    /// violations that appear and disappear under changes — the churn
    /// DynFD exists to track.
    pub fn table_spec(&self) -> TableSpec {
        assert!(self.columns >= 1);
        let mut cols: Vec<ColumnModel> = Vec::with_capacity(self.columns);
        // Splitmix-ish stream for per-column parameters.
        let mut state = self.seed ^ 0x9E3779B97F4A7C15;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 17
        };

        let root_card = (self.initial_rows / 8).clamp(6, 60);
        // Wide tables use a single coarsening chain: with k chains the
        // minimal FDs live on the k-dimensional coarse/fine boundary
        // surface of the chain product, which grows like (chain length)^k
        // — only k=1 keeps an 83-column table at the paper's order of
        // a few hundred to a few thousand minimal FDs.
        let n_chains = if self.columns > 20 { 1 } else { 2 };
        // Roughly one in five columns is a noisy leaf.
        let noisy_leaves = (self.columns / 5).clamp(1, 8);

        // col 0: key; col 1: the root everything descends from.
        cols.push(ColumnModel::Key);
        if self.columns == 1 {
            return TableSpec::new(
                self.name,
                vec![ColumnModel::Categorical {
                    cardinality: root_card,
                    skew: 1.0,
                }],
            );
        }
        cols.push(ColumnModel::Categorical {
            cardinality: root_card,
            skew: 1.0,
        });

        // Chain state: (tail column index, tail partition size).
        let mut chains: Vec<(usize, usize)> = vec![(1, root_card); n_chains];
        let mut leaves_left = noisy_leaves;
        for i in 2..self.columns {
            let remaining = self.columns - i;
            // Sprinkle the noisy leaves across the tail of the layout.
            let make_leaf = leaves_left > 0
                && (remaining <= leaves_left || next() % (self.columns as u64 / 5 + 1) == 0);
            if make_leaf {
                leaves_left -= 1;
                let (src, src_card) = chains[(next() as usize) % chains.len()];
                cols.push(ColumnModel::Correlated {
                    source: src,
                    groups: src_card.max(2),
                    noise: 0.005 + (next() % 4) as f64 / 100.0,
                });
                continue;
            }
            // Extend the currently finest chain with a coarsening step.
            let c = (next() as usize) % chains.len();
            let (src, src_card) = chains[c];
            let groups = (src_card * 3 / 4).max(2);
            cols.push(ColumnModel::Derived {
                source: src,
                groups,
            });
            chains[c] = (i, groups);
        }
        TableSpec::new(self.name, cols)
    }

    /// The `artist` profile at its original 1,122,887 rows (Table 3).
    /// The default [`PAPER_PROFILES`] entry scales it to 120,000 rows so
    /// the full harness stays runnable; pass this one for a faithful —
    /// and slow — reproduction.
    pub fn artist_full() -> Self {
        DatasetProfile {
            initial_rows: 1_122_887,
            ..ARTIST
        }
    }

    /// A copy with rows/changes scaled by `factor` (used by the harness's
    /// `--scale` flag to shrink every experiment proportionally).
    pub fn scaled(&self, factor: f64) -> Self {
        // Burst lengths scale with the history so the *dirty fraction*
        // of the change stream — which drives per-batch cost far more
        // than the stream's length — stays what the full-size profile
        // specifies.
        let burst_len = if self.burst_len == 0 {
            0
        } else {
            ((self.burst_len as f64 * factor) as usize).max(4)
        };
        DatasetProfile {
            initial_rows: ((self.initial_rows as f64 * factor) as usize).max(8),
            changes: ((self.changes as f64 * factor) as usize).max(10),
            burst_len,
            ..self.clone()
        }
    }
}

const CPU: DatasetProfile = DatasetProfile {
    name: "cpu",
    columns: 15,
    initial_rows: 62,
    changes: 1_463,
    insert_pct: 4.3,
    delete_pct: 0.2,
    update_pct: 95.5,
    update_columns: 3,
    seed: 0xC9D1,
    bursts: 2,
    burst_len: 40,
};

const DISEASE: DatasetProfile = DatasetProfile {
    name: "disease",
    columns: 13,
    initial_rows: 1_600,
    changes: 361_828,
    insert_pct: 1.0,
    delete_pct: 0.6,
    update_pct: 98.4,
    update_columns: 2,
    seed: 0xD15E,
    bursts: 8,
    burst_len: 150,
};

const ACTOR: DatasetProfile = DatasetProfile {
    name: "actor",
    columns: 83,
    initial_rows: 3_655,
    changes: 5_647,
    insert_pct: 64.9,
    delete_pct: 0.5,
    update_pct: 34.6,
    update_columns: 4,
    seed: 0xAC70,
    bursts: 3,
    burst_len: 80,
};

const SINGLE: DatasetProfile = DatasetProfile {
    name: "single",
    columns: 26,
    initial_rows: 12_451,
    changes: 12_614,
    insert_pct: 96.1,
    delete_pct: 0.0,
    update_pct: 3.9,
    update_columns: 3,
    seed: 0x51E6,
    bursts: 6,
    burst_len: 120,
};

/// `artist` scaled to 120k initial rows (10.7 % of the original size);
/// see [`DatasetProfile::artist_full`] and DESIGN.md.
const ARTIST: DatasetProfile = DatasetProfile {
    name: "artist",
    columns: 18,
    initial_rows: 120_000,
    changes: 25_470,
    insert_pct: 61.8,
    delete_pct: 3.7,
    update_pct: 34.5,
    update_columns: 3,
    seed: 0xA271,
    bursts: 5,
    burst_len: 200,
};

const CLAIMS: DatasetProfile = DatasetProfile {
    name: "claims",
    columns: 8,
    initial_rows: 1_054,
    changes: 202_913,
    insert_pct: 100.0,
    delete_pct: 0.0,
    update_pct: 0.0,
    update_columns: 1,
    seed: 0xC1A1,
    bursts: 4,
    burst_len: 150,
};

/// The six evaluation datasets of Table 3, in the paper's order.
pub const PAPER_PROFILES: &[DatasetProfile] = &[CPU, DISEASE, ACTOR, SINGLE, ARTIST, CLAIMS];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_3_shapes() {
        let by_name = |n: &str| PAPER_PROFILES.iter().find(|p| p.name == n).unwrap();
        assert_eq!(by_name("cpu").columns, 15);
        assert_eq!(by_name("cpu").initial_rows, 62);
        assert_eq!(by_name("disease").changes, 361_828);
        assert_eq!(by_name("actor").columns, 83);
        assert_eq!(by_name("single").initial_rows, 12_451);
        assert_eq!(by_name("claims").insert_pct, 100.0);
        assert_eq!(DatasetProfile::artist_full().initial_rows, 1_122_887);
    }

    #[test]
    fn change_mixes_sum_to_100() {
        for p in PAPER_PROFILES {
            let sum = p.insert_pct + p.delete_pct + p.update_pct;
            assert!((sum - 100.0).abs() < 0.01, "{}: {sum}", p.name);
        }
    }

    #[test]
    fn specs_are_valid_and_wide_enough() {
        for p in PAPER_PROFILES {
            let spec = p.table_spec();
            assert_eq!(spec.arity(), p.columns, "{}", p.name);
        }
    }

    #[test]
    fn scaling_shrinks_rows_and_changes() {
        let p = DatasetProfile::artist_full().scaled(0.01);
        assert_eq!(p.initial_rows, 11_228);
        assert_eq!(p.changes, 254);
        assert_eq!(p.columns, 18, "width unchanged");
        // Bursts keep their share of the stream: 200 ops at 25,470
        // changes → 4 ops (the floor) at 254.
        assert_eq!(p.burst_len, 4);
        assert_eq!(p.bursts, 5, "burst count unchanged");
    }
}
