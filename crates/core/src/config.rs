//! DynFD configuration.

use dynfd_common::AttrSet;

/// Fraction of invalid (resp. valid) outcomes per lattice level beyond
/// which the traversal is considered inefficient and the violation
/// search (resp. depth-first search) starts; the progressive violation
/// search also stops once fewer than this share of its comparisons
/// reveal something new. 0.1, hard-coded in the paper, which cites
/// \[13\] for why it is a good value.
pub(crate) const INEFFICIENCY_THRESHOLD: f64 = 0.1;

/// Fraction of newly valid FDs used to seed depth-first searches (0.1
/// in the paper).
pub(crate) const DFS_SEED_FRACTION: f64 = 0.1;

/// How the insert-phase violation search compares record pairs
/// (Section 4.3 / the §6.5 ablation baseline).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchMode {
    /// The paper's optimized strategy: progressively growing windows
    /// over similarity-sorted PLI clusters, stopping when fewer than the
    /// efficiency threshold of comparisons reveal new violations.
    Progressive,
    /// The §6.5 baseline: changed records are compared only to their
    /// direct neighbors (window 1) under the same sorting. The paper
    /// keeps this minimal form even in the no-pruning baseline because
    /// performance collapses without *any* violation search.
    Naive,
}

/// How much post-batch self-checking [`DynFd`](crate::DynFd) performs
/// before reporting a batch as applied.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ConsistencyLevel {
    /// No checking (default): trust the incremental maintenance. This is
    /// the paper's configuration and the right choice on hot paths.
    #[default]
    Off,
    /// Cheap structural checks after every batch: both covers are
    /// antichains and the negative cover equals the inversion of the
    /// positive cover. O(cover size) — catches lost/duplicated cover
    /// entries without validating any FD against the data.
    Cheap,
    /// Full semantic verification after every batch
    /// ([`DynFd::verify_consistency`](crate::DynFd::verify_consistency)).
    /// Exponential in arity; test harnesses only.
    Full,
}

/// Tuning and ablation knobs for [`DynFd`](crate::DynFd).
///
/// The defaults enable all four pruning strategies; their thresholds
/// are the paper's hard-coded 10 % (the constants
/// `INEFFICIENCY_THRESHOLD` and `DFS_SEED_FRACTION`). The §6.5
/// experiments toggle each strategy independently;
/// [`DynFdConfig::baseline`] reproduces the paper's "-" row (no strategy
/// beyond naive sampling).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DynFdConfig {
    /// §4.2 cluster pruning: insert-phase validations skip PLI clusters
    /// that contain no newly inserted record.
    pub cluster_pruning: bool,
    /// §4.3 violation search mode: progressive windows (strategy on) or
    /// the naive direct-neighbor sampling (strategy off / baseline).
    pub violation_search: SearchMode,
    /// §5.2 validation pruning: cache a violating record pair per
    /// maximal non-FD and revalidate only when one of the two records
    /// was deleted.
    pub validation_pruning: bool,
    /// §5.3 optimistic depth-first searches when a delete batch
    /// validates many non-FDs.
    pub depth_first_search: bool,
    /// **Extension** (paper Section 8, item 2): attributes the user
    /// declares to be keys *for the lifetime of the relation*. An FD
    /// whose LHS contains a declared key can never be invalidated, so
    /// the insert phase skips its validation entirely. Declaring a
    /// column that can stop being unique is unsound — this encodes a
    /// database `UNIQUE` constraint, not an observation.
    pub known_keys: AttrSet,
    /// **Extension** (paper Section 8, item 3): exploit that updates
    /// usually change only a few attribute values. For a batch that
    /// consists purely of updates, an FD or non-FD none of whose
    /// attributes were touched by any update cannot change status and
    /// is skipped in both phases. Off by default (the paper's evaluated
    /// configuration).
    pub update_pruning: bool,
    /// Post-batch self-check level. When a check detects cover
    /// corruption, the engine enters degraded mode for that batch:
    /// both covers are rebuilt from scratch via a static HyFD run, the
    /// rebuild is counted in
    /// [`BatchMetrics::cover_rebuilds`](crate::BatchMetrics), and the
    /// batch still reports success.
    pub consistency: ConsistencyLevel,
    /// **Extension**: byte budget of the cache that memoizes
    /// two-attribute PLI intersections across candidates and batches
    /// (the EAIFD-lineage partition reuse; see
    /// `dynfd_relation::pli_cache`). Least-recently-used entries are
    /// evicted beyond it; `0` turns the cache off. Covers and deltas are
    /// identical either way; only violation witness pairs and wall-clock
    /// time may differ.
    pub pli_cache_bytes: usize,
    /// Snapshot cadence of the durable engine (`dynfd-persist`): after
    /// every `snapshot_every` applied batches, full engine state is
    /// written to a snapshot file and the write-ahead batch log is
    /// truncated. `0` disables periodic snapshots (the WAL then grows
    /// until an explicit snapshot). Ignored by the purely in-memory
    /// [`DynFd`](crate::DynFd); covers and deltas never depend on it.
    pub snapshot_every: usize,
}

impl Default for DynFdConfig {
    fn default() -> Self {
        DynFdConfig {
            cluster_pruning: true,
            violation_search: SearchMode::Progressive,
            validation_pruning: true,
            depth_first_search: true,
            known_keys: AttrSet::empty(),
            update_pruning: false,
            consistency: ConsistencyLevel::Off,
            pli_cache_bytes: 16 << 20,
            snapshot_every: 64,
        }
    }
}

impl DynFdConfig {
    /// The §6.5 baseline: all four strategies disabled. (The violation
    /// search degrades to its naive direct-neighbor form rather than
    /// vanishing entirely, exactly as the paper's baseline does.)
    pub fn baseline() -> Self {
        DynFdConfig {
            cluster_pruning: false,
            violation_search: SearchMode::Naive,
            validation_pruning: false,
            depth_first_search: false,
            ..DynFdConfig::default()
        }
    }

    /// Every combination of the four §6.5 ablation toggles crossed with
    /// the PLI-cache axis (`pli_cache_bytes` 0 or the default budget;
    /// 32 configs), in a fixed deterministic order from
    /// [`DynFdConfig::baseline`]-without-cache to the cached default. The cross-validation tests and the testkit's
    /// differential runner iterate this matrix so that each pruning
    /// strategy — and the cache — is exercised both alone and in
    /// combination. The cache must never change covers or deltas, so
    /// every row of this matrix is required to produce the identical
    /// result.
    pub fn ablation_matrix() -> Vec<DynFdConfig> {
        let mut configs = Vec::with_capacity(32);
        for cache_bytes in [0, DynFdConfig::default().pli_cache_bytes] {
            for cluster in [false, true] {
                for search in [SearchMode::Naive, SearchMode::Progressive] {
                    for validation in [false, true] {
                        for dfs in [false, true] {
                            configs.push(DynFdConfig {
                                cluster_pruning: cluster,
                                violation_search: search,
                                validation_pruning: validation,
                                depth_first_search: dfs,
                                pli_cache_bytes: cache_bytes,
                                ..DynFdConfig::default()
                            });
                        }
                    }
                }
            }
        }
        configs
    }

    /// Short human-readable label of the enabled strategy set, matching
    /// the row labels of Figures 8/9 ("4.3+5.3+4.2+5.2" etc.).
    pub fn strategy_label(&self) -> String {
        let mut parts = Vec::new();
        if self.violation_search == SearchMode::Progressive {
            parts.push("4.3");
        }
        if self.depth_first_search {
            parts.push("5.3");
        }
        if self.cluster_pruning {
            parts.push("4.2");
        }
        if self.validation_pruning {
            parts.push("5.2");
        }
        let mut label = if parts.is_empty() {
            "-".to_string()
        } else {
            parts.join("+")
        };
        // The cache is on by default, so only its absence is marked —
        // the paper-figure labels ("4.3+5.3+4.2+5.2", "-") stay intact.
        if self.pli_cache_bytes == 0 {
            label.push_str(" (no-cache)");
        }
        label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_everything() {
        let c = DynFdConfig::default();
        assert!(c.cluster_pruning && c.validation_pruning && c.depth_first_search);
        assert_eq!(c.violation_search, SearchMode::Progressive);
        assert_eq!(c.strategy_label(), "4.3+5.3+4.2+5.2");
    }

    #[test]
    fn baseline_disables_everything() {
        let c = DynFdConfig::baseline();
        assert!(!c.cluster_pruning && !c.validation_pruning && !c.depth_first_search);
        assert_eq!(c.violation_search, SearchMode::Naive);
        assert_eq!(c.strategy_label(), "-");
    }

    #[test]
    fn ablation_matrix_covers_all_toggle_combinations() {
        let matrix = DynFdConfig::ablation_matrix();
        assert_eq!(matrix.len(), 32);
        let labels: std::collections::BTreeSet<String> =
            matrix.iter().map(|c| c.strategy_label()).collect();
        assert_eq!(labels.len(), 32, "labels are distinct");
        assert!(labels.contains("-"));
        assert!(labels.contains("- (no-cache)"));
        assert!(labels.contains("4.3+5.3+4.2+5.2"));
        assert!(labels.contains("4.3+5.3+4.2+5.2 (no-cache)"));
        // The cache axis appears in both settings for every toggle
        // combination.
        assert_eq!(matrix.iter().filter(|c| c.pli_cache_bytes > 0).count(), 16);
    }

    #[test]
    fn cache_defaults() {
        let c = DynFdConfig::default();
        assert_eq!(c.pli_cache_bytes, 16 << 20, "cache is on by default");
        assert_eq!(c.snapshot_every, 64, "periodic snapshots on by default");
        // The default label is unchanged by the cache being on.
        assert_eq!(c.strategy_label(), "4.3+5.3+4.2+5.2");
    }

    #[test]
    fn labels_match_figure_8_rows() {
        let mut c = DynFdConfig::baseline();
        c.violation_search = SearchMode::Progressive;
        assert_eq!(c.strategy_label(), "4.3");
        c.depth_first_search = true;
        assert_eq!(c.strategy_label(), "4.3+5.3");
        c.cluster_pruning = true;
        assert_eq!(c.strategy_label(), "4.3+5.3+4.2");
    }
}
