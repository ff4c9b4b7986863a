//! Memoized PLI intersections shared across candidates and batches.
//!
//! Both lattice phases validate many candidates per level whose LHS
//! attribute sets overlap heavily, and the underlying PLIs barely change
//! between batches — yet the validator recomputes the same lazy
//! intersections from scratch for every candidate. This module caches
//! *two-attribute* intersected partitions keyed by their [`AttrSet`]:
//!
//! * Single-attribute partitions already exist as the relation's PLIs,
//!   so caching them would duplicate state.
//! * Two-attribute intersections are the shared prefixes of the arity-2
//!   and arity-3 lattice levels, where validation spends most of its
//!   time. A candidate `{a,b,c} -> r` that finds `{a,b}` cached only has
//!   to refine by `c` inside the cached (mostly singleton-free)
//!   clusters.
//! * Two value codes pack exactly into one `u64` — the same packed
//!   cluster-signature scheme as the validator's
//!   [`ValidatorScratch`](crate::ValidatorScratch) group maps — so
//!   cluster membership is exact (codes, not hashes) and patching is
//!   O(1) per touched record.
//!
//! # Maintenance
//!
//! Entries are **patched in place** per batch: a deleted record is
//! removed from its cluster (clusters demote to singletons at size 1),
//! an inserted record joins the cluster of its signature (singletons
//! promote to clusters at size 2). Only when a record referenced by the
//! patch cannot be resolved against the relation — which indicates the
//! entry and the relation have diverged, e.g. after an external rebuild
//! — is the entry **invalidated** instead. A rolled-back batch clears
//! the whole cache: entries were already patched to the state the
//! rollback threw away.
//!
//! # Sharing and determinism
//!
//! Validation workers never lock the cache. Each level takes an
//! immutable [`PliCacheSnapshot`] (cheap: `Arc` clones per entry),
//! workers record their probes and newly built partitions as
//! [`CacheEffects`], and the coordinator merges the effects back **in
//! job order** at the level barrier. Hit/miss counters, LRU ticks, and
//! evictions are therefore a pure function of the job list — identical
//! for every worker count, preserving the engine's bit-for-bit
//! parallel-determinism contract.
//!
//! # Eviction
//!
//! The cache holds a configurable byte budget (approximate, counted
//! from cluster/index sizes). When the budget is exceeded, entries are
//! evicted least-recently-used first; ties break on the key's total
//! order so eviction is deterministic.

use crate::relation::DynamicRelation;
use dynfd_common::{AttrSet, RecordId};
use std::collections::HashMap;
use std::sync::Arc;

/// One memoized two-attribute intersected partition.
///
/// Holds every live record of the relation at build time, split into
/// non-singleton *clusters* (records sharing both value codes) and
/// *singletons*. The packed `u64` signature — code of the smaller
/// attribute in the high half — indexes both, so per-record patches are
/// O(log cluster) without touching the relation's PLIs.
#[derive(Clone, Debug)]
pub struct CachedPartition {
    /// Smaller attribute of the key (high half of the signature).
    a: usize,
    /// Larger attribute of the key (low half of the signature).
    b: usize,
    /// Non-singleton clusters with their signature, in deterministic
    /// build/creation order; members sorted ascending.
    clusters: Vec<(u64, Vec<RecordId>)>,
    /// Signature → slot in `clusters`.
    index: HashMap<u64, u32>,
    /// Signature → the single record carrying it.
    singletons: HashMap<u64, RecordId>,
    /// Record → its signature, for patching deletes without the (already
    /// removed) record's values.
    member_sig: HashMap<RecordId, u64>,
    /// Size of the largest cluster, maintained exactly.
    max_len: usize,
}

impl CachedPartition {
    /// Builds the partition for `{a, b}` (with `a < b`) over all live
    /// records of `rel`.
    ///
    /// Iterates the PLI of `a` — clusters in value order, ids ascending
    /// — so the cluster creation order is deterministic and independent
    /// of any hash-map iteration order.
    ///
    /// # Panics
    ///
    /// Panics if `a >= b` or either attribute is out of range.
    pub fn build(rel: &DynamicRelation, a: usize, b: usize) -> CachedPartition {
        assert!(a < b, "cache keys are canonical: a < b");
        let mut part = CachedPartition {
            a,
            b,
            clusters: Vec::new(),
            index: HashMap::new(),
            singletons: HashMap::new(),
            member_sig: HashMap::new(),
            max_len: 0,
        };
        let col_b = rel.column(b);
        let slot_rids = rel.slot_rids();
        for (va, cluster) in rel.pli(a).iter() {
            let hi = (va as u64) << 32;
            for &slot in cluster {
                // Streams two flat arrays per member (the b-column and
                // the slot→rid table); clusters iterate in rid order, so
                // creation order matches the row-store build exactly.
                part.add_member(hi | col_b[slot as usize] as u64, slot_rids[slot as usize]);
            }
        }
        part
    }

    /// The two-attribute key this partition was built for.
    pub fn key(&self) -> AttrSet {
        let mut key = AttrSet::single(self.a);
        key.insert(self.b);
        key
    }

    /// Iterates the non-singleton clusters (members ascending by id) in
    /// deterministic creation order.
    pub fn clusters(&self) -> impl Iterator<Item = &[RecordId]> {
        self.clusters.iter().map(|(_, c)| c.as_slice())
    }

    /// Number of non-singleton clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Number of records that are alone in their cluster.
    pub fn singleton_count(&self) -> usize {
        self.singletons.len()
    }

    /// Total records tracked (clustered + singleton).
    pub fn member_count(&self) -> usize {
        self.member_sig.len()
    }

    /// Size of the largest cluster (1 if only singletons, 0 if empty).
    pub fn max_cluster_len(&self) -> usize {
        self.max_len
    }

    /// Approximate resident size in bytes, for budget accounting. Counts
    /// the id payloads plus amortized hash-map and `Vec` overheads; the
    /// exact allocator numbers don't matter as long as the measure is
    /// monotone in the real footprint.
    pub fn approx_bytes(&self) -> usize {
        let clustered = self.member_count() - self.singleton_count();
        128 + self.member_sig.len() * 24
            + self.singletons.len() * 24
            + self.index.len() * 16
            + self.clusters.len() * 56
            + clustered * 8
    }

    /// Adds `rid` with signature `sig`: joins its cluster, promotes a
    /// matching singleton, or starts a new singleton.
    fn add_member(&mut self, sig: u64, rid: RecordId) {
        self.member_sig.insert(rid, sig);
        if let Some(&slot) = self.index.get(&sig) {
            let cluster = &mut self.clusters[slot as usize].1;
            // New ids are assigned monotonically, so this is a push in
            // the common case; the binary search keeps re-builds after
            // out-of-order restores correct too.
            if let Err(pos) = cluster.binary_search(&rid) {
                cluster.insert(pos, rid);
            }
            self.max_len = self.max_len.max(cluster.len());
        } else if let Some(prev) = self.singletons.remove(&sig) {
            let slot = self.clusters.len() as u32;
            let pair = if prev < rid {
                vec![prev, rid]
            } else {
                vec![rid, prev]
            };
            self.clusters.push((sig, pair));
            self.index.insert(sig, slot);
            self.max_len = self.max_len.max(2);
        } else {
            self.singletons.insert(sig, rid);
            self.max_len = self.max_len.max(1);
        }
    }

    /// Removes `rid`, demoting its cluster to a singleton when only one
    /// member remains. Returns `false` if the record was not tracked.
    fn remove_member(&mut self, rid: RecordId) -> bool {
        let Some(sig) = self.member_sig.remove(&rid) else {
            return false;
        };
        if let Some(&slot) = self.index.get(&sig) {
            let slot = slot as usize;
            let cluster = &mut self.clusters[slot].1;
            let was_max = cluster.len() == self.max_len;
            if let Ok(pos) = cluster.binary_search(&rid) {
                cluster.remove(pos);
            }
            if cluster.len() == 1 {
                let survivor = cluster[0];
                self.index.remove(&sig);
                self.singletons.insert(sig, survivor);
                self.clusters.swap_remove(slot);
                if slot < self.clusters.len() {
                    // Re-point the slot of the cluster that swap_remove
                    // moved into the vacated position.
                    let moved_sig = self.clusters[slot].0;
                    self.index.insert(moved_sig, slot as u32);
                }
            }
            if was_max {
                self.recompute_max();
            }
        } else {
            self.singletons.remove(&sig);
            if self.clusters.is_empty() && self.singletons.is_empty() {
                self.max_len = 0;
            }
        }
        true
    }

    fn recompute_max(&mut self) {
        let clustered = self.clusters.iter().map(|(_, c)| c.len()).max();
        self.max_len = clustered
            .unwrap_or(0)
            .max(usize::from(!self.singletons.is_empty()));
    }
}

/// Lifetime counters of a [`PliCache`]. Per-batch deltas are taken by
/// subtracting two snapshots ([`CacheStats::delta_since`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Validations that found a cached subset of their LHS.
    pub hits: usize,
    /// Validations (arity ≥ 2) that probed and found nothing.
    pub misses: usize,
    /// Entries evicted by the byte budget or invalidated by a patch
    /// failure.
    pub evictions: usize,
}

impl CacheStats {
    /// The counters accumulated since `earlier` was captured.
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }
}

/// What one cache-aware validation did to (or wants from) the cache.
/// Collected per job and merged back in job order at the level barrier,
/// keeping cache state and counters independent of the worker count.
#[derive(Clone, Debug, Default)]
pub struct CacheEffects {
    /// The cached key the validation pivoted on, if any.
    pub hit: Option<AttrSet>,
    /// Whether an arity ≥ 2 candidate probed the snapshot and found no
    /// usable subset.
    pub miss: bool,
    /// A partition the validation built for itself, offered to the cache
    /// for future levels. The first offer for a key wins; duplicates
    /// (parallel jobs missing the same key against the same frozen
    /// snapshot) are dropped.
    pub built: Option<(AttrSet, Arc<CachedPartition>)>,
}

impl CacheEffects {
    /// Whether the validation interacted with the cache at all.
    pub fn is_empty(&self) -> bool {
        self.hit.is_none() && !self.miss && self.built.is_none()
    }
}

/// An immutable view of the cache taken at a level barrier. Cloning the
/// snapshot (or handing `&PliCacheSnapshot` to scoped workers) shares
/// the partitions by `Arc` — no copies, no locks.
#[derive(Clone, Debug)]
pub struct PliCacheSnapshot {
    entries: HashMap<AttrSet, Arc<CachedPartition>>,
}

impl PliCacheSnapshot {
    /// The cached partition for `key`, if resident.
    pub fn get(&self, key: &AttrSet) -> Option<&Arc<CachedPartition>> {
        self.entries.get(key)
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[derive(Clone, Debug)]
struct CacheEntry {
    part: Arc<CachedPartition>,
    /// LRU tick of the last hit (or the insertion), strictly increasing
    /// across all touches, so eviction order is total.
    last_used: u64,
}

/// The [`AttrSet`]-keyed store of memoized PLI intersections.
///
/// See the module docs for the key scheme, maintenance, sharing, and
/// eviction rules.
#[derive(Clone, Debug)]
pub struct PliCache {
    entries: HashMap<AttrSet, CacheEntry>,
    budget: usize,
    tick: u64,
    stats: CacheStats,
}

impl PliCache {
    /// An empty cache with the given byte budget.
    pub fn new(budget_bytes: usize) -> Self {
        PliCache {
            entries: HashMap::new(),
            budget: budget_bytes,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Replaces the byte budget, evicting immediately if the cache is
    /// now over it.
    pub fn set_budget(&mut self, budget_bytes: usize) {
        self.budget = budget_bytes;
        self.evict_to_budget();
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Approximate resident bytes across all entries.
    pub fn bytes(&self) -> usize {
        self.entries.values().map(|e| e.part.approx_bytes()).sum()
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `key` is resident.
    pub fn contains(&self, key: &AttrSet) -> bool {
        self.entries.contains_key(key)
    }

    /// Lifetime hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drops every entry (used when the relation state the entries were
    /// patched against is rolled back or rebuilt).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Takes the immutable per-level view handed to validation workers.
    pub fn snapshot(&self) -> PliCacheSnapshot {
        PliCacheSnapshot {
            entries: self
                .entries
                .iter()
                .map(|(k, e)| (*k, Arc::clone(&e.part)))
                .collect(),
        }
    }

    /// Merges the per-job effects of one level back, **in job order**:
    /// hits refresh LRU ticks, misses count, and built partitions are
    /// inserted first-offer-wins. Ends with an eviction pass down to the
    /// budget. Deterministic for a given job list regardless of how many
    /// workers produced the effects.
    pub fn merge(&mut self, effects: &[CacheEffects]) {
        for e in effects {
            if let Some(key) = e.hit {
                self.stats.hits += 1;
                self.touch(&key);
            }
            if e.miss {
                self.stats.misses += 1;
            }
            if let Some((key, part)) = &e.built {
                if self.entries.contains_key(key) {
                    // An earlier job (in job order) already offered this
                    // key; treat the duplicate as a touch.
                    self.touch(key);
                } else {
                    self.tick += 1;
                    self.entries.insert(
                        *key,
                        CacheEntry {
                            part: Arc::clone(part),
                            last_used: self.tick,
                        },
                    );
                }
            }
        }
        self.evict_to_budget();
    }

    /// Patches every entry for one applied batch: `deleted` records
    /// leave their clusters, `inserted` records (still live in `rel`)
    /// join the cluster of their signature. An entry whose patch cannot
    /// resolve a record against the relation is invalidated. Ends with
    /// an eviction pass (inserts grow entries).
    pub fn apply_batch(
        &mut self,
        rel: &DynamicRelation,
        deleted: &[RecordId],
        inserted: &[RecordId],
    ) {
        let mut dead: Vec<AttrSet> = Vec::new();
        for (key, entry) in self.entries.iter_mut() {
            let part = Arc::make_mut(&mut entry.part);
            for &rid in deleted {
                part.remove_member(rid);
            }
            let mut patched = true;
            for &rid in inserted {
                match rel.packed_sig(rid, part.a, part.b) {
                    Some(sig) => part.add_member(sig, rid),
                    None => {
                        // The "inserted" record is not live: the entry
                        // and the relation have diverged — invalidate.
                        patched = false;
                        break;
                    }
                }
            }
            if !patched {
                dead.push(*key);
            }
        }
        dead.sort_unstable();
        for key in dead {
            self.entries.remove(&key);
            self.stats.evictions += 1;
        }
        self.evict_to_budget();
    }

    fn touch(&mut self, key: &AttrSet) {
        self.tick += 1;
        if let Some(e) = self.entries.get_mut(key) {
            e.last_used = self.tick;
        }
    }

    /// Evicts least-recently-used entries (ties broken by key order)
    /// until the resident size fits the budget.
    fn evict_to_budget(&mut self) {
        let mut total = self.bytes();
        while total > self.budget && !self.entries.is_empty() {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(k, e)| (e.last_used, **k))
                .map(|(k, _)| *k)
                .expect("non-empty cache has a minimum");
            if let Some(entry) = self.entries.remove(&victim) {
                total -= entry.part.approx_bytes().min(total);
                self.stats.evictions += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynfd_common::Schema;

    fn rel(rows: &[&[&str]]) -> DynamicRelation {
        let arity = rows.first().map_or(2, |r| r.len());
        let schema = Schema::anonymous("t", arity);
        let rows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| r.iter().map(|s| s.to_string()).collect())
            .collect();
        DynamicRelation::from_rows(schema, &rows).unwrap()
    }

    fn key(a: usize, b: usize) -> AttrSet {
        [a, b].into_iter().collect()
    }

    fn paper() -> DynamicRelation {
        rel(&[
            &["Max", "Jones", "14482", "Potsdam"],
            &["Max", "Miller", "14482", "Potsdam"],
            &["Max", "Jones", "10115", "Berlin"],
            &["Anna", "Scott", "13591", "Berlin"],
        ])
    }

    #[test]
    fn build_groups_by_both_attributes() {
        let r = paper();
        // {firstname, zip}: records 0 and 1 share (Max, 14482).
        let p = CachedPartition::build(&r, 0, 2);
        assert_eq!(p.key(), key(0, 2));
        assert_eq!(p.cluster_count(), 1);
        assert_eq!(p.clusters().next().unwrap(), &[RecordId(0), RecordId(1)]);
        assert_eq!(p.singleton_count(), 2);
        assert_eq!(p.member_count(), 4);
        assert_eq!(p.max_cluster_len(), 2);
    }

    #[test]
    fn patch_insert_promotes_and_extends() {
        let mut r = paper();
        let p = CachedPartition::build(&r, 0, 3);
        // {firstname, city}: cluster (Max, Potsdam) = {0,1}; singletons 2, 3.
        assert_eq!(p.cluster_count(), 1);

        let mut cache = PliCache::new(usize::MAX);
        cache.merge(&[CacheEffects {
            built: Some((key(0, 3), Arc::new(p))),
            ..CacheEffects::default()
        }]);

        // New (Anna, Berlin) record joins record 3's singleton.
        let rid = r.insert_row(&["Anna", "Gray", "13591", "Berlin"]).unwrap();
        cache.apply_batch(&r, &[], &[rid]);
        let snap = cache.snapshot();
        let p = snap.get(&key(0, 3)).unwrap();
        assert_eq!(p.cluster_count(), 2);
        assert_eq!(p.singleton_count(), 1);
        assert!(p.clusters().any(|c| c == [RecordId(3), rid]));
    }

    #[test]
    fn patch_delete_demotes_clusters() {
        let mut r = paper();
        let p = CachedPartition::build(&r, 0, 3);
        let mut cache = PliCache::new(usize::MAX);
        cache.merge(&[CacheEffects {
            built: Some((key(0, 3), Arc::new(p))),
            ..CacheEffects::default()
        }]);
        r.delete_record(RecordId(0)).unwrap();
        cache.apply_batch(&r, &[RecordId(0)], &[]);
        let snap = cache.snapshot();
        let p = snap.get(&key(0, 3)).unwrap();
        assert_eq!(p.cluster_count(), 0, "cluster {{0,1}} demoted");
        assert_eq!(p.singleton_count(), 3);
        assert_eq!(p.member_count(), 3);
        assert_eq!(p.max_cluster_len(), 1);
    }

    #[test]
    fn patched_partition_matches_fresh_build() {
        let mut r = paper();
        let mut cache = PliCache::new(usize::MAX);
        cache.merge(&[CacheEffects {
            built: Some((key(1, 3), Arc::new(CachedPartition::build(&r, 1, 3)))),
            ..CacheEffects::default()
        }]);
        // A batch that deletes, updates (delete+insert), and inserts.
        r.delete_record(RecordId(2)).unwrap();
        let new1 = r.insert_row(&["Eve", "Jones", "14482", "Berlin"]).unwrap();
        let new2 = r.insert_row(&["Ana", "Jones", "10115", "Berlin"]).unwrap();
        cache.apply_batch(&r, &[RecordId(2)], &[new1, new2]);

        let fresh = CachedPartition::build(&r, 1, 3);
        let snap = cache.snapshot();
        let patched = snap.get(&key(1, 3)).unwrap();
        let mut a: Vec<&[RecordId]> = patched.clusters().collect();
        let mut b: Vec<&[RecordId]> = fresh.clusters().collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "same clusters regardless of patch vs rebuild");
        assert_eq!(patched.singleton_count(), fresh.singleton_count());
        assert_eq!(patched.max_cluster_len(), fresh.max_cluster_len());
    }

    #[test]
    fn lru_eviction_is_deterministic_and_budgeted() {
        let r = paper();
        let parts: Vec<(AttrSet, Arc<CachedPartition>)> = [(0, 1), (0, 2), (1, 2)]
            .iter()
            .map(|&(a, b)| (key(a, b), Arc::new(CachedPartition::build(&r, a, b))))
            .collect();
        let one_entry = parts[0].1.approx_bytes();

        let mut cache = PliCache::new(one_entry * 2 + 64);
        for (k, p) in &parts {
            cache.merge(&[CacheEffects {
                built: Some((*k, Arc::clone(p))),
                ..CacheEffects::default()
            }]);
        }
        // Budget fits two entries: the least recently inserted ({0,1})
        // was evicted.
        assert_eq!(cache.len(), 2);
        assert!(!cache.contains(&key(0, 1)));
        assert!(cache.contains(&key(0, 2)) && cache.contains(&key(1, 2)));
        assert_eq!(cache.stats().evictions, 1);

        // A hit refreshes the tick: {0,2} survives the next insertion.
        cache.merge(&[CacheEffects {
            hit: Some(key(0, 2)),
            ..CacheEffects::default()
        }]);
        cache.merge(&[CacheEffects {
            built: Some((key(0, 1), Arc::clone(&parts[0].1))),
            ..CacheEffects::default()
        }]);
        assert!(cache.contains(&key(0, 2)), "recently hit entry survives");
        assert!(!cache.contains(&key(1, 2)), "LRU entry evicted");
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn merge_is_first_offer_wins_and_counts() {
        let r = paper();
        let p1 = Arc::new(CachedPartition::build(&r, 0, 1));
        let p2 = Arc::new(CachedPartition::build(&r, 0, 1));
        let mut cache = PliCache::new(usize::MAX);
        cache.merge(&[
            CacheEffects {
                miss: true,
                built: Some((key(0, 1), Arc::clone(&p1))),
                ..CacheEffects::default()
            },
            CacheEffects {
                miss: true,
                built: Some((key(0, 1), Arc::clone(&p2))),
                ..CacheEffects::default()
            },
        ]);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().misses, 2);
        let snap = cache.snapshot();
        assert!(Arc::ptr_eq(snap.get(&key(0, 1)).unwrap(), &p1));
    }

    #[test]
    fn zero_budget_keeps_nothing() {
        let r = paper();
        let mut cache = PliCache::new(0);
        cache.merge(&[CacheEffects {
            built: Some((key(0, 1), Arc::new(CachedPartition::build(&r, 0, 1)))),
            ..CacheEffects::default()
        }]);
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn snapshot_is_isolated_from_later_patches() {
        let mut r = paper();
        let mut cache = PliCache::new(usize::MAX);
        cache.merge(&[CacheEffects {
            built: Some((key(0, 3), Arc::new(CachedPartition::build(&r, 0, 3)))),
            ..CacheEffects::default()
        }]);
        let snap = cache.snapshot();
        let before = snap.get(&key(0, 3)).unwrap().member_count();
        let rid = r.insert_row(&["New", "Row", "00000", "Nowhere"]).unwrap();
        cache.apply_batch(&r, &[], &[rid]);
        // The old snapshot still sees the pre-patch partition (the patch
        // copied on write); a fresh snapshot sees the new member.
        assert_eq!(snap.get(&key(0, 3)).unwrap().member_count(), before);
        let fresh = cache.snapshot();
        assert_eq!(fresh.get(&key(0, 3)).unwrap().member_count(), before + 1);
    }

    #[test]
    fn stats_delta() {
        let a = CacheStats {
            hits: 10,
            misses: 4,
            evictions: 2,
        };
        let b = CacheStats {
            hits: 7,
            misses: 4,
            evictions: 1,
        };
        assert_eq!(
            a.delta_since(&b),
            CacheStats {
                hits: 3,
                misses: 0,
                evictions: 1,
            }
        );
    }
}
