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
//!   cluster membership is exact (codes, not hashes) and a record's
//!   group is found with one signature-map probe.
//! * A cluster is a run of arena slots in record-id order, exactly like
//!   a [`Pli`](crate::Pli) cluster, so the validator scans a cached
//!   pivot with the same loop and the same last-member pruning test.
//!
//! # Maintenance
//!
//! Entries are **patched in place** per batch: a deleted record's slot
//! is removed from its cluster (clusters demote to singletons at size
//! 1), an inserted record's slot joins the cluster of its signature
//! (singletons promote to clusters at size 2). A deleted record is no
//! longer in the relation, so its slot and signature come from the
//! batch's [`UndoLog`](crate::UndoLog)
//! ([`UndoLog::deleted_rows`](crate::UndoLog::deleted_rows)); the slot
//! is found by value, because an insert of the same batch may already
//! have reused it. Inserted records are newer than every tracked one,
//! so they are appended and clusters stay in record-id order. The
//! largest-cluster size is recomputed at most once per entry per patch,
//! after the deletes. Only when a deleted slot is not in the group of
//! its signature — the entry and the relation have diverged, e.g.
//! after an external rebuild — is the entry **invalidated** instead. A
//! rolled-back batch clears the whole cache: entries were already
//! patched to the state the rollback threw away.
//!
//! # Probing
//!
//! A level's jobs run one after another and probe the cache in place
//! ([`validate_cached`](crate::validate_cached)): a job that pivots on
//! an entry counts a hit ([`PliCache::record_hit`]) and refreshes its
//! LRU tick, and a job that finds no 2-subset of its LHS counts a miss
//! ([`PliCache::record_miss`]) and inserts the partition it built
//! ([`PliCache::insert`]), so the next job of the same level can pivot
//! on it. Counters, LRU ticks and evictions are a pure function of the
//! job order.
//!
//! # Eviction
//!
//! The cache holds a configurable byte budget (approximate, counted
//! from cluster/index sizes). When the budget is exceeded, entries are
//! evicted least-recently-used first; ties break on the key's total
//! order so eviction is deterministic.

use crate::dictionary::ValueId;
use crate::relation::DynamicRelation;
use dynfd_common::AttrSet;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Where the records of one signature live in a [`CachedPartition`].
#[derive(Clone, Copy, Debug)]
enum Group {
    /// A non-singleton cluster: its index in `clusters`.
    Cluster(u32),
    /// The arena slot of the one record carrying the signature.
    Single(u32),
}

/// One memoized two-attribute intersected partition.
///
/// Holds the arena slot of every live record, split into non-singleton
/// *clusters* (records sharing both value codes) and *singletons*. One
/// map from the packed `u64` signature — code of the smaller attribute
/// in the high half — to the signature's cluster or single slot indexes
/// both, so a per-record patch is one map probe plus a scan of one
/// cluster, without touching the relation's PLIs.
#[derive(Clone, Debug)]
pub struct CachedPartition {
    /// Smaller attribute of the key (high half of the signature).
    a: usize,
    /// Larger attribute of the key (low half of the signature).
    b: usize,
    /// Non-singleton clusters with their signature, in deterministic
    /// build/creation order; members are arena slots in record-id order.
    clusters: Vec<(u64, Vec<u32>)>,
    /// Signature → its cluster or its single slot.
    groups: HashMap<u64, Group>,
    /// Total records tracked (clustered + singleton).
    members: usize,
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
            groups: HashMap::new(),
            members: 0,
            max_len: 0,
        };
        let col_b = rel.column(b);
        for (va, cluster) in rel.pli(a).iter() {
            let hi = (va as u64) << 32;
            // PLI clusters iterate in rid order, so every group receives
            // its slots in rid order too.
            for &slot in cluster {
                part.add_member(hi | col_b[slot as usize] as u64, slot);
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

    /// Iterates the non-singleton clusters — arena slots in record-id
    /// order, like a [`Pli`](crate::Pli) cluster — in deterministic
    /// creation order.
    pub fn clusters(&self) -> impl Iterator<Item = &[u32]> {
        self.clusters.iter().map(|(_, c)| c.as_slice())
    }

    /// Number of non-singleton clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Number of records that are alone in their cluster.
    pub fn singleton_count(&self) -> usize {
        self.groups.len() - self.clusters.len()
    }

    /// Total records tracked (clustered + singleton).
    pub fn member_count(&self) -> usize {
        self.members
    }

    /// Size of the largest cluster (1 if only singletons, 0 if empty).
    pub fn max_cluster_len(&self) -> usize {
        self.max_len
    }

    /// Approximate resident size in bytes, for budget accounting. Counts
    /// the member payloads plus amortized hash-map and `Vec` overheads;
    /// the exact allocator numbers don't matter as long as the measure is
    /// monotone in the real footprint. A clustered member counts 8 B
    /// though a slot takes 4 B: budgets, evictions and quota trips are
    /// tuned against this estimate.
    pub fn approx_bytes(&self) -> usize {
        let clustered = self.member_count() - self.singleton_count();
        128 + self.groups.len() * 24 + self.clusters.len() * 56 + clustered * 8
    }

    /// The packed `{a, b}` signature of a record's full code row.
    fn sig_of(&self, codes: &[ValueId]) -> u64 {
        (codes[self.a] as u64) << 32 | codes[self.b] as u64
    }

    /// Adds the record at `slot` with signature `sig`: joins its
    /// cluster, promotes a matching singleton, or starts a new
    /// singleton. The record must be newer than every tracked record of
    /// its group, so appending keeps the group in record-id order.
    fn add_member(&mut self, sig: u64, slot: u32) {
        self.members += 1;
        let len = match self.groups.entry(sig) {
            Entry::Occupied(mut group) => match *group.get() {
                Group::Cluster(idx) => {
                    let cluster = &mut self.clusters[idx as usize].1;
                    cluster.push(slot);
                    cluster.len()
                }
                Group::Single(prev) => {
                    group.insert(Group::Cluster(self.clusters.len() as u32));
                    self.clusters.push((sig, vec![prev, slot]));
                    2
                }
            },
            Entry::Vacant(group) => {
                group.insert(Group::Single(slot));
                1
            }
        };
        self.max_len = self.max_len.max(len);
    }

    /// Removes `slot` from the group of `sig`, demoting its cluster to a
    /// singleton when only one member remains. Returns the size the
    /// group had before the removal, or `None` if the slot was not
    /// tracked under `sig`. Leaves `max_len` to the caller, which
    /// recomputes it once after a run of removals.
    fn remove_member(&mut self, sig: u64, slot: u32) -> Option<usize> {
        let Entry::Occupied(mut group) = self.groups.entry(sig) else {
            return None;
        };
        let idx = match *group.get() {
            Group::Single(single) if single == slot => {
                group.remove();
                self.members -= 1;
                return Some(1);
            }
            Group::Single(_) => return None,
            Group::Cluster(idx) => idx as usize,
        };
        let cluster = &mut self.clusters[idx].1;
        // By value: the slot may already hold a newer record, so its
        // record id no longer says where it sits.
        let pos = cluster.iter().position(|&s| s == slot)?;
        cluster.remove(pos);
        self.members -= 1;
        if cluster.len() > 1 {
            return Some(cluster.len() + 1);
        }
        group.insert(Group::Single(cluster[0]));
        self.clusters.swap_remove(idx);
        if let Some(&(moved_sig, _)) = self.clusters.get(idx) {
            // Re-point the cluster that swap_remove moved into the
            // vacated index.
            self.groups.insert(moved_sig, Group::Cluster(idx as u32));
        }
        Some(2)
    }

    fn recompute_max(&mut self) {
        let clustered = self.clusters.iter().map(|(_, c)| c.len()).max();
        self.max_len = clustered
            .unwrap_or(0)
            .max(usize::from(self.singleton_count() > 0));
    }

    /// Patches the partition for one applied batch: the slots of
    /// `deleted` records (with their pre-batch codes) leave their
    /// groups, then the `inserted` slots (live in `rel`) join the group
    /// of their signature. Returns `false` — leaving the partition
    /// half-patched, for the caller to drop — when a deleted slot is not
    /// in the group of its signature.
    fn patch(
        &mut self,
        rel: &DynamicRelation,
        deleted: &[(u32, &[ValueId])],
        inserted: &[u32],
    ) -> bool {
        let mut max_shrunk = false;
        for &(slot, codes) in deleted {
            match self.remove_member(self.sig_of(codes), slot) {
                Some(len) => max_shrunk |= len == self.max_len,
                None => return false,
            }
        }
        if max_shrunk {
            self.recompute_max();
        }
        let (col_a, col_b) = (rel.column(self.a), rel.column(self.b));
        for &slot in inserted {
            let s = slot as usize;
            self.add_member((col_a[s] as u64) << 32 | col_b[s] as u64, slot);
        }
        true
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

#[derive(Clone, Debug)]
struct CacheEntry {
    part: CachedPartition,
    /// LRU tick of the last hit (or the insertion), strictly increasing
    /// across all touches, so eviction order is total.
    last_used: u64,
}

/// The [`AttrSet`]-keyed store of memoized PLI intersections.
///
/// See the module docs for the key scheme, maintenance, probing, and
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

    /// The resident partition for `key`, if any. A lookup alone counts
    /// nothing: the caller reports what it did with the entry through
    /// [`PliCache::record_hit`] or [`PliCache::record_miss`].
    pub fn get(&self, key: &AttrSet) -> Option<&CachedPartition> {
        self.entries.get(key).map(|e| &e.part)
    }

    /// Counts a validation that pivoted on `key` and makes the entry the
    /// most recently used.
    pub fn record_hit(&mut self, key: &AttrSet) {
        self.stats.hits += 1;
        self.tick += 1;
        if let Some(e) = self.entries.get_mut(key) {
            e.last_used = self.tick;
        }
    }

    /// Counts an arity ≥ 2 validation that found no resident 2-subset of
    /// its LHS.
    pub fn record_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Makes `part` resident under its key as the most recently used
    /// entry (replacing any entry of that key), then evicts down to the
    /// budget.
    pub fn insert(&mut self, part: CachedPartition) {
        self.tick += 1;
        self.entries.insert(
            part.key(),
            CacheEntry {
                part,
                last_used: self.tick,
            },
        );
        self.evict_to_budget();
    }

    /// Patches every entry for one applied batch: `deleted` records
    /// (the slots pre-batch records were deleted from, with their codes,
    /// as [`UndoLog::deleted_rows`](crate::UndoLog::deleted_rows) yields
    /// them) leave their clusters, then the `inserted` slots
    /// ([`AppliedBatch::inserted_slots`](crate::AppliedBatch::inserted_slots),
    /// live in `rel`) join the cluster of their signature. An entry that
    /// does not hold a deleted slot under its signature is invalidated.
    /// Ends with an eviction pass (inserts grow entries).
    pub fn apply_batch(
        &mut self,
        rel: &DynamicRelation,
        deleted: &[(u32, &[ValueId])],
        inserted: &[u32],
    ) {
        let mut dead: Vec<AttrSet> = Vec::new();
        for (key, entry) in self.entries.iter_mut() {
            if !entry.part.patch(rel, deleted, inserted) {
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
    use crate::{AppliedBatch, Batch};
    use dynfd_common::{RecordId, Schema};
    use proptest::prelude::*;

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
        // {firstname, zip}: records 0 and 1 share (Max, 14482); a bulk
        // load puts record i in slot i.
        let p = CachedPartition::build(&r, 0, 2);
        assert_eq!(p.key(), key(0, 2));
        assert_eq!(p.cluster_count(), 1);
        assert_eq!(p.clusters().next().unwrap(), &[0, 1]);
        assert_eq!(p.singleton_count(), 2);
        assert_eq!(p.member_count(), 4);
        assert_eq!(p.max_cluster_len(), 2);
    }

    /// A cache holding `{a, b}` for every given pair, built over `r`.
    fn cache_with(r: &DynamicRelation, pairs: &[(usize, usize)]) -> PliCache {
        let mut cache = PliCache::new(usize::MAX);
        for &(a, b) in pairs {
            cache.insert(CachedPartition::build(r, a, b));
        }
        cache
    }

    /// Applies `batch` to `r` and patches `cache` for it, the way the
    /// engine does: deletes resolve through the undo log's slots and
    /// codes.
    fn apply(r: &mut DynamicRelation, cache: &mut PliCache, batch: &Batch) -> AppliedBatch {
        let (applied, undo) = r.apply_batch_logged(batch).unwrap();
        let deleted: Vec<_> = undo.deleted_rows().collect();
        cache.apply_batch(r, &deleted, &applied.inserted_slots);
        applied
    }

    /// The records of a cluster, in member order.
    fn rids(r: &DynamicRelation, cluster: &[u32]) -> Vec<RecordId> {
        cluster.iter().map(|&s| r.rid_at_slot(s)).collect()
    }

    /// Clusters as record-id sequences in member order (the list of
    /// clusters sorted), singleton count, member count and largest
    /// cluster: everything a patch must keep equal to a fresh build.
    /// Member order matters: cluster pruning reads the last member.
    type Shape = (Vec<Vec<RecordId>>, usize, usize, usize);

    fn shape(r: &DynamicRelation, p: &CachedPartition) -> Shape {
        let mut clusters: Vec<Vec<RecordId>> = p.clusters().map(|c| rids(r, c)).collect();
        clusters.sort();
        (
            clusters,
            p.singleton_count(),
            p.member_count(),
            p.max_cluster_len(),
        )
    }

    #[test]
    fn patch_insert_promotes_and_extends() {
        let mut r = paper();
        // {firstname, city}: cluster (Max, Potsdam) = {0,1}; singletons 2, 3.
        let mut cache = cache_with(&r, &[(0, 3)]);
        assert_eq!(cache.get(&key(0, 3)).unwrap().cluster_count(), 1);

        // New (Anna, Berlin) record joins record 3's singleton.
        let mut batch = Batch::new();
        batch.insert(vec!["Anna", "Gray", "13591", "Berlin"]);
        let rid = apply(&mut r, &mut cache, &batch).inserted[0];
        let p = cache.get(&key(0, 3)).unwrap();
        assert_eq!(p.cluster_count(), 2);
        assert_eq!(p.singleton_count(), 1);
        assert!(p.clusters().any(|c| rids(&r, c) == [RecordId(3), rid]));
    }

    #[test]
    fn patch_delete_demotes_clusters() {
        let mut r = paper();
        let mut cache = cache_with(&r, &[(0, 3)]);
        let mut batch = Batch::new();
        batch.delete(RecordId(0));
        apply(&mut r, &mut cache, &batch);
        let p = cache.get(&key(0, 3)).unwrap();
        assert_eq!(p.cluster_count(), 0, "cluster {{0,1}} demoted");
        assert_eq!(p.singleton_count(), 3);
        assert_eq!(p.member_count(), 3);
        assert_eq!(p.max_cluster_len(), 1);
    }

    #[test]
    fn patched_partition_matches_fresh_build() {
        let mut r = paper();
        let mut cache = cache_with(&r, &[(1, 3)]);
        // A batch that deletes, updates (delete+insert), and inserts.
        let mut batch = Batch::new();
        batch
            .delete(RecordId(2))
            .update(RecordId(3), vec!["Eve", "Jones", "14482", "Berlin"])
            .insert(vec!["Ana", "Jones", "10115", "Berlin"]);
        apply(&mut r, &mut cache, &batch);

        assert_eq!(
            shape(&r, cache.get(&key(1, 3)).unwrap()),
            shape(&r, &CachedPartition::build(&r, 1, 3)),
            "same partition regardless of patch vs rebuild"
        );
    }

    #[test]
    fn unresolvable_delete_invalidates_the_entry() {
        let r = paper();
        let mut cache = cache_with(&r, &[(0, 3)]);
        // Record 0's codes, but a slot the entry never held: the entry
        // and the relation have diverged.
        let codes = r.compressed(RecordId(0)).unwrap().to_vec();
        cache.apply_batch(&r, &[(9, &codes)], &[]);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().evictions, 1);
    }

    /// One change of a generated batch; record positions are taken
    /// modulo the live (or same-batch) records, so every script applies.
    #[derive(Clone, Debug)]
    enum PatchOp {
        Insert(Vec<String>),
        Delete(usize),
        Update(usize, Vec<String>),
        /// Deletes a record an earlier op of the same batch inserted.
        DeleteFresh(usize),
    }

    fn arb_row() -> impl Strategy<Value = Vec<String>> {
        proptest::collection::vec((0..3u8).prop_map(|v| format!("v{v}")), 4)
    }

    fn arb_batches() -> impl Strategy<Value = Vec<Vec<PatchOp>>> {
        let op = prop_oneof![
            arb_row().prop_map(PatchOp::Insert),
            (0usize..64).prop_map(PatchOp::Delete),
            ((0usize..64), arb_row()).prop_map(|(i, row)| PatchOp::Update(i, row)),
            (0usize..64).prop_map(PatchOp::DeleteFresh),
        ];
        proptest::collection::vec(proptest::collection::vec(op, 1..12), 1..8)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A cache holding every 2-attribute entry, patched batch by
        /// batch, equals a fresh build after every batch, and no patch
        /// invalidates an entry.
        #[test]
        fn patched_cache_equals_fresh_build(
            initial in proptest::collection::vec(arb_row(), 0..16),
            batches in arb_batches(),
        ) {
            let mut r = DynamicRelation::from_rows(Schema::anonymous("t", 4), &initial).unwrap();
            let pairs: Vec<(usize, usize)> =
                (0..4).flat_map(|a| (a + 1..4).map(move |b| (a, b))).collect();
            let mut cache = cache_with(&r, &pairs);
            let mut live: Vec<RecordId> = r.record_ids().collect();
            for script in &batches {
                let mut batch = Batch::new();
                let mut fresh: Vec<RecordId> = Vec::new();
                let mut next = r.next_id().raw();
                for op in script {
                    match op {
                        PatchOp::Insert(row) => {
                            batch.insert(row.clone());
                            fresh.push(RecordId(next));
                            next += 1;
                        }
                        PatchOp::Delete(i) if !live.is_empty() => {
                            batch.delete(live.remove(i % live.len()));
                        }
                        PatchOp::Update(i, row) if !live.is_empty() => {
                            batch.update(live.remove(i % live.len()), row.clone());
                            fresh.push(RecordId(next));
                            next += 1;
                        }
                        PatchOp::DeleteFresh(i) if !fresh.is_empty() => {
                            batch.delete(fresh.remove(i % fresh.len()));
                        }
                        _ => {}
                    }
                }
                live.extend(fresh);
                apply(&mut r, &mut cache, &batch);
                prop_assert_eq!(cache.stats().evictions, 0, "a patch invalidated an entry");
                for &(a, b) in &pairs {
                    let patched = cache.get(&key(a, b)).unwrap();
                    prop_assert_eq!(
                        shape(&r, patched),
                        shape(&r, &CachedPartition::build(&r, a, b)),
                        "entry {{{}, {}}} diverged from a fresh build", a, b
                    );
                }
            }
        }
    }

    #[test]
    fn lru_eviction_is_deterministic_and_budgeted() {
        let r = paper();
        let build = |(a, b)| CachedPartition::build(&r, a, b);
        let one_entry = build((0, 1)).approx_bytes();

        let mut cache = PliCache::new(one_entry * 2 + 64);
        for pair in [(0, 1), (0, 2), (1, 2)] {
            cache.insert(build(pair));
        }
        // Budget fits two entries: the least recently inserted ({0,1})
        // was evicted.
        assert_eq!(cache.len(), 2);
        assert!(!cache.contains(&key(0, 1)));
        assert!(cache.contains(&key(0, 2)) && cache.contains(&key(1, 2)));
        assert_eq!(cache.stats().evictions, 1);

        // A hit refreshes the tick: {0,2} survives the next insertion.
        cache.record_hit(&key(0, 2));
        cache.insert(build((0, 1)));
        assert!(cache.contains(&key(0, 2)), "recently hit entry survives");
        assert!(!cache.contains(&key(1, 2)), "LRU entry evicted");
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn zero_budget_keeps_nothing() {
        let r = paper();
        let mut cache = PliCache::new(0);
        cache.insert(CachedPartition::build(&r, 0, 1));
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
        assert_eq!(cache.stats().evictions, 1);
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
