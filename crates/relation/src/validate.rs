//! PLI-based FD candidate validation (paper Sections 3.1 and 4.2).
//!
//! The validator implements the classic HyFD validation scheme on top of
//! the incremental substrate:
//!
//! * the PLI of one *pivot* LHS attribute indexes sets of tuples;
//! * within each pivot cluster, records are grouped by their remaining
//!   LHS value codes (a lazy PLI intersection);
//! * members of a group are checked against the RHS attribute codes —
//!   two group members with different RHS codes are a violation;
//! * all RHS candidates sharing the LHS are validated **simultaneously**
//!   in one pass;
//! * validation of an RHS **terminates early** at its first violation.
//!
//! On top of this, the dynamic setting adds *cluster pruning*
//! (Section 4.2): when validating a previously-valid FD after a batch of
//! inserts, every pair of old records still satisfies the FD, so only
//! pivot clusters containing at least one newly inserted record need to
//! be checked. Because surrogate ids increase monotonically and clusters
//! are sorted by record id, "contains a new record" is the O(1) test
//! `rid(cluster.last()) >= first id of the batch`.
//!
//! # Memory shape
//!
//! The scan works directly on the columnar arena: a cluster is a
//! contiguous `u32` slot slice, and checking an RHS streams
//! `column[slot]` — flat `u32` gathers instead of a boxed-slice
//! dereference per record. Grouping runs through open-addressed tables
//! keyed by packed `u64` signatures (no `HashMap`, no per-record
//! allocation, no SipHash), and every grouped cluster first takes an
//! EAIFD-style **constancy pre-pass**: each still-active RHS column is
//! streamed over the cluster and abandoned the moment a second distinct
//! value appears. A cluster whose active RHS columns are all constant
//! cannot contain a violation under *any* LHS refinement, so the group
//! table is skipped entirely — on mostly-valid covers (the steady state)
//! validation degenerates to sequential column scans.

use crate::dictionary::ValueId;
use crate::pli_cache::{CacheEffects, CachedPartition, PliCacheSnapshot};
use crate::relation::DynamicRelation;
use dynfd_common::{AttrId, AttrSet, Fd, RecordId};
use std::sync::Arc;

/// Knobs for a validation call.
#[derive(Clone, Copy, Debug, Default)]
pub struct ValidationOptions {
    /// Cluster-pruning watermark: if set, pivot clusters whose largest
    /// record id is below this are skipped. **Only sound when every
    /// record pair below the watermark is known to satisfy the candidate
    /// already** — i.e. when re-validating FDs that were valid before the
    /// current batch of inserts (Section 4.2).
    pub min_new_id: Option<RecordId>,
}

impl ValidationOptions {
    /// No pruning: validate against the entire relation.
    pub fn full() -> Self {
        ValidationOptions { min_new_id: None }
    }

    /// Cluster pruning against records inserted at or after `first_new`.
    pub fn delta(first_new: RecordId) -> Self {
        ValidationOptions {
            min_new_id: Some(first_new),
        }
    }
}

/// Per-RHS validation verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RhsOutcome {
    /// No violating pair found: `lhs -> rhs` holds.
    Valid,
    /// The two records disagree on the RHS while agreeing on the LHS.
    /// The pair doubles as the *surrogate violation* cached by DynFD's
    /// validation pruning (Section 5.2).
    Violated(RecordId, RecordId),
}

impl RhsOutcome {
    /// Whether the candidate was found valid.
    pub fn is_valid(&self) -> bool {
        matches!(self, RhsOutcome::Valid)
    }
}

/// Counters describing the work one validation call performed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ValidationStats {
    /// Pivot clusters actually grouped and checked.
    pub clusters_visited: usize,
    /// Pivot clusters skipped by cluster pruning.
    pub clusters_pruned: usize,
    /// Pivot clusters skipped because they were singletons.
    pub singletons_skipped: usize,
    /// Record-to-representative comparisons performed.
    pub comparisons: usize,
}

impl ValidationStats {
    /// Accumulates another call's counters into this one.
    pub fn absorb(&mut self, other: &ValidationStats) {
        self.clusters_visited += other.clusters_visited;
        self.clusters_pruned += other.clusters_pruned;
        self.singletons_skipped += other.singletons_skipped;
        self.comparisons += other.comparisons;
    }
}

/// Result of validating all FDs `lhs -> r` for `r ∈ rhs_set`.
#[derive(Clone, Debug)]
pub struct ValidationResult {
    /// The shared left-hand side.
    pub lhs: AttrSet,
    /// One verdict per requested RHS, ascending by attribute id.
    pub outcomes: Vec<(AttrId, RhsOutcome)>,
    /// Work counters.
    pub stats: ValidationStats,
}

impl ValidationResult {
    /// The verdict for a specific RHS.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` was not part of the validated set.
    pub fn outcome(&self, rhs: AttrId) -> RhsOutcome {
        self.outcomes
            .iter()
            .find(|(r, _)| *r == rhs)
            .map(|(_, o)| *o)
            .expect("rhs was not validated")
    }

    /// Whether every requested RHS turned out valid.
    pub fn all_valid(&self) -> bool {
        self.outcomes.iter().all(|(_, o)| o.is_valid())
    }

    /// Iterates the RHS attributes that were found violated, with their
    /// violating pairs.
    pub fn violations(&self) -> impl Iterator<Item = (AttrId, RecordId, RecordId)> + '_ {
        self.outcomes.iter().filter_map(|(r, o)| match o {
            RhsOutcome::Violated(a, b) => Some((*r, *a, *b)),
            RhsOutcome::Valid => None,
        })
    }
}

/// Sentinel representative in [`GroupTable`] marking an empty bucket.
const EMPTY_REP: u32 = u32::MAX;

/// Open-addressed group table: flat `(signature, representative-slot)`
/// buckets with linear probing at ≤50% load. Replaces the former
/// `HashMap` group maps — no SipHash, no per-record heap key, one
/// contiguous allocation reused across clusters and calls.
///
/// Two keying modes share the table:
/// * **packed** — the signature *is* the remaining-LHS codes packed into
///   one `u64`, so signature equality is group equality;
/// * **wide** — the signature is a hash of ≥3 codes, so a signature
///   match additionally verifies the codes through the columns.
#[derive(Clone, Debug, Default)]
struct GroupTable {
    buckets: Vec<(u64, u32)>,
    mask: usize,
}

impl GroupTable {
    /// Mixes a key into a bucket index.
    #[inline]
    fn index_of(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & self.mask
    }

    /// Clears and resizes for a cluster of `members` records.
    fn reset(&mut self, members: usize) {
        let cap = (members * 2).next_power_of_two().max(8);
        self.buckets.clear();
        self.buckets.resize(cap, (0, EMPTY_REP));
        self.mask = cap - 1;
    }

    /// Looks up `key`'s group, inserting `slot` as representative when
    /// the group is new. Returns the existing representative otherwise.
    /// `same(rep_slot)` confirms a candidate bucket really is this
    /// record's group (always true in packed mode, a code check in wide
    /// mode).
    #[inline]
    fn probe(&mut self, key: u64, slot: u32, mut same: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut idx = self.index_of(key);
        loop {
            let bucket = &mut self.buckets[idx];
            if bucket.1 == EMPTY_REP {
                *bucket = (key, slot);
                return None;
            }
            if bucket.0 == key && same(bucket.1) {
                return Some(bucket.1);
            }
            idx = (idx + 1) & self.mask;
        }
    }
}

/// Reusable working memory for [`validate_with`].
///
/// A validation call needs a group table (the lazy PLI intersection), a
/// slot-translation buffer for cached partitions, and an
/// attribute→outcome-slot index. Allocating these per call dominates the
/// cost of validating the many small candidates of a lattice level;
/// threading one scratch through a whole level (or one per worker
/// thread) makes the steady state allocation-free.
#[derive(Clone, Debug, Default)]
pub struct ValidatorScratch {
    /// Open-addressed group table shared by the packed and wide paths.
    table: GroupTable,
    /// Slot buffer: cached partitions store record ids; their clusters
    /// are translated to arena slots here before the columnar scan.
    slot_buf: Vec<u32>,
    /// Per-cluster list of active RHS attributes that are *not* constant
    /// over the cluster (the survivors of the constancy pre-pass).
    live_rhs: Vec<AttrId>,
    /// `slot_of_attr[r]` is the index of RHS attribute `r` in the
    /// current call's `outcomes`, replacing linear scans per violation.
    slot_of_attr: Vec<u32>,
}

impl ValidatorScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        ValidatorScratch::default()
    }
}

/// Packs the remaining-LHS value codes of the record at `slot` into one
/// `u64` key (callable only when at most two attributes remain).
#[inline]
fn packed_key(rest: &[AttrId], columns: &[Vec<ValueId>], slot: u32) -> u64 {
    debug_assert!((1..=2).contains(&rest.len()));
    let hi = columns[rest[0]][slot as usize] as u64;
    let lo = if rest.len() == 2 {
        columns[rest[1]][slot as usize] as u64
    } else {
        0
    };
    hi << 32 | lo
}

/// FNV-1a over the remaining-LHS codes of the record at `slot` (wide
/// path: ≥3 remaining attributes, code vector does not fit a `u64`).
#[inline]
fn wide_key(rest: &[AttrId], columns: &[Vec<ValueId>], slot: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &a in rest {
        h = (h ^ columns[a][slot as usize] as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Validates the FD candidates `lhs -> r` for every `r ∈ rhs_set`
/// simultaneously against `rel`.
///
/// Convenience wrapper over [`validate_with`] that allocates a fresh
/// [`ValidatorScratch`]; hot paths validating many candidates should
/// reuse one scratch instead.
///
/// # Panics
///
/// Panics if `rhs_set` intersects `lhs` (trivial candidates) or is empty.
pub fn validate(
    rel: &DynamicRelation,
    lhs: AttrSet,
    rhs_set: AttrSet,
    opts: &ValidationOptions,
) -> ValidationResult {
    validate_with(rel, lhs, rhs_set, opts, &mut ValidatorScratch::new())
}

/// [`validate`] with caller-provided working memory.
///
/// Behaviour and outputs are identical to [`validate`]; only the
/// allocation profile differs.
///
/// # Panics
///
/// Panics if `rhs_set` intersects `lhs` (trivial candidates) or is empty.
pub fn validate_with(
    rel: &DynamicRelation,
    lhs: AttrSet,
    rhs_set: AttrSet,
    opts: &ValidationOptions,
    scratch: &mut ValidatorScratch,
) -> ValidationResult {
    assert!(!rhs_set.is_empty(), "validate called with no RHS");
    assert!(lhs.is_disjoint(&rhs_set), "trivial candidate: rhs ∈ lhs");

    if lhs.is_empty() {
        return validate_empty_lhs(rel, rhs_set);
    }

    let mut stats = ValidationStats::default();
    let mut outcomes: Vec<(AttrId, RhsOutcome)> =
        rhs_set.iter().map(|r| (r, RhsOutcome::Valid)).collect();
    let mut active = rhs_set;
    prepare_slots(scratch, rel.arity(), &outcomes);

    // Pivot: the LHS attribute whose PLI has the smallest maximal
    // cluster — the most refined single-attribute partition, giving the
    // smallest groups to intersect. Ties break towards the smaller
    // attribute id for determinism.
    let pivot = lhs
        .iter()
        .min_by_key(|&a| (rel.pli(a).max_cluster_len(), a))
        .expect("non-empty lhs");
    let rest: Vec<AttrId> = lhs.iter().filter(|&a| a != pivot).collect();
    let rhs_attrs: Vec<AttrId> = rhs_set.to_vec();
    let slot_rids = rel.slot_rids();

    for (_, cluster) in rel.pli(pivot).iter() {
        if cluster.len() < 2 {
            stats.singletons_skipped += 1;
            continue;
        }
        if let Some(min_new) = opts.min_new_id {
            // Rid-sorted cluster: the last slot holds the newest record.
            let last = *cluster.last().expect("non-empty cluster");
            if slot_rids[last as usize] < min_new {
                stats.clusters_pruned += 1;
                continue;
            }
        }
        stats.clusters_visited += 1;
        if scan_one_cluster(
            rel,
            cluster,
            &rest,
            &rhs_attrs,
            scratch,
            &mut outcomes,
            &mut active,
            &mut stats,
        ) {
            break;
        }
    }

    ValidationResult {
        lhs,
        outcomes,
        stats,
    }
}

/// Validates `lhs -> r` for every `r ∈ rhs_set`, pivoting on the most
/// refined *available* partition: the best cached intersection from
/// `cache` covering a 2-subset of the LHS, or the best single-attribute
/// PLI when no cached entry beats it (paper-lineage heuristic; see the
/// [`crate::pli_cache`] module docs).
///
/// Returns the validation result plus the [`CacheEffects`] the caller
/// must merge back into the owning [`crate::PliCache`] at the level
/// barrier:
///
/// * probing the snapshot and pivoting on a cached entry records a
///   *hit*;
/// * probing with no cached subset records a *miss* — and, when the
///   validation is unpruned, the intersection the validator builds for
///   the LHS's two most refined attributes is handed back for caching.
///   Cluster-pruned calls ([`ValidationOptions::delta`]) never build:
///   they touch only clusters containing new records, so paying a full
///   O(n) build there would invert the optimization.
///
/// Verdicts are identical to [`validate_with`] per RHS; only the
/// violating *witness pairs* (and the work counters) may differ, because
/// a different pivot scans clusters in a different order and early
/// termination stops at the first violation it meets.
///
/// # Panics
///
/// Panics if `rhs_set` intersects `lhs` (trivial candidates) or is empty.
pub fn validate_cached(
    rel: &DynamicRelation,
    lhs: AttrSet,
    rhs_set: AttrSet,
    opts: &ValidationOptions,
    scratch: &mut ValidatorScratch,
    cache: &PliCacheSnapshot,
) -> (ValidationResult, CacheEffects) {
    let mut effects = CacheEffects::default();
    if lhs.len() < 2 {
        // Single-attribute (or empty) LHS: the PLI itself is the
        // partition; the cache stores only 2-attribute intersections.
        return (validate_with(rel, lhs, rhs_set, opts, scratch), effects);
    }
    assert!(!rhs_set.is_empty(), "validate called with no RHS");
    assert!(lhs.is_disjoint(&rhs_set), "trivial candidate: rhs ∈ lhs");

    // Probe every 2-subset of the LHS, keeping the most refined cached
    // partition (smallest maximal cluster, key order breaking ties),
    // then compare it against the best single-attribute PLI.
    let attrs = lhs.to_vec();
    let mut best: Option<(AttrSet, &Arc<CachedPartition>)> = None;
    for (i, &a) in attrs.iter().enumerate() {
        for &b in &attrs[i + 1..] {
            let key = AttrSet::from_iter([a, b]);
            if let Some(part) = cache.get(&key) {
                let better = match best {
                    None => true,
                    Some((bk, bp)) => (part.max_cluster_len(), key) < (bp.max_cluster_len(), bk),
                };
                if better {
                    best = Some((key, part));
                }
            }
        }
    }
    let best_single = attrs
        .iter()
        .map(|&a| rel.pli(a).max_cluster_len())
        .min()
        .expect("non-empty lhs");

    match best {
        // The most refined resident 2-subset beats every single-attribute
        // PLI of the LHS: pivot on it (a cache hit).
        Some((key, part)) if part.max_cluster_len() <= best_single => {
            effects.hit = Some(key);
            let result = validate_on_partition(rel, lhs, rhs_set, key, part, opts, scratch);
            (result, effects)
        }
        // A cached subset exists but some single-attribute PLI is more
        // refined: the plain pivot heuristic wins; neither hit nor miss.
        Some(_) => (validate_with(rel, lhs, rhs_set, opts, scratch), effects),
        // No 2-subset of the LHS is resident (a miss).
        None => {
            effects.miss = true;
            if opts.min_new_id.is_some() {
                return (validate_with(rel, lhs, rhs_set, opts, scratch), effects);
            }
            // Build the intersection of the LHS's two most refined
            // attributes, validate on it directly (the build *is* the
            // grouping work), and offer it to the cache.
            let mut pair = attrs;
            pair.sort_unstable_by_key(|&a| (rel.pli(a).max_cluster_len(), a));
            let (a, b) = (pair[0].min(pair[1]), pair[0].max(pair[1]));
            let part = Arc::new(CachedPartition::build(rel, a, b));
            let key = part.key();
            let result = validate_on_partition(rel, lhs, rhs_set, key, &part, opts, scratch);
            effects.built = Some((key, part));
            (result, effects)
        }
    }
}

/// Shared core of [`validate_cached`]'s hit/build paths: scan the
/// cached partition's clusters, refining by the LHS attributes outside
/// the cached key. Cached clusters store record ids (they must survive
/// slot reuse between patches); each is translated to arena slots before
/// the columnar scan.
fn validate_on_partition(
    rel: &DynamicRelation,
    lhs: AttrSet,
    rhs_set: AttrSet,
    key: AttrSet,
    part: &CachedPartition,
    opts: &ValidationOptions,
    scratch: &mut ValidatorScratch,
) -> ValidationResult {
    let mut stats = ValidationStats::default();
    let mut outcomes: Vec<(AttrId, RhsOutcome)> =
        rhs_set.iter().map(|r| (r, RhsOutcome::Valid)).collect();
    let mut active = rhs_set;
    prepare_slots(scratch, rel.arity(), &outcomes);

    // Singletons were stripped at build/patch time; account for them
    // without iterating (each is one skipped one-record cluster).
    stats.singletons_skipped += part.singleton_count();
    let rest: Vec<AttrId> = lhs.difference(&key).to_vec();
    let rhs_attrs: Vec<AttrId> = rhs_set.to_vec();

    let mut slot_buf = std::mem::take(&mut scratch.slot_buf);
    for cluster in part.clusters() {
        if cluster.len() < 2 {
            stats.singletons_skipped += 1;
            continue;
        }
        if let Some(min_new) = opts.min_new_id {
            if *cluster.last().expect("non-empty cluster") < min_new {
                stats.clusters_pruned += 1;
                continue;
            }
        }
        stats.clusters_visited += 1;
        slot_buf.clear();
        slot_buf.extend(cluster.iter().map(|&rid| {
            rel.slot_of(rid)
                .expect("cached partition references live record")
        }));
        if scan_one_cluster(
            rel,
            &slot_buf,
            &rest,
            &rhs_attrs,
            scratch,
            &mut outcomes,
            &mut active,
            &mut stats,
        ) {
            break;
        }
    }
    scratch.slot_buf = slot_buf;

    ValidationResult {
        lhs,
        outcomes,
        stats,
    }
}

/// Sizes and fills `scratch.slot_of_attr` so that violations resolve
/// their outcome slot in O(1) (`outcomes` is ascending by attribute id).
fn prepare_slots(scratch: &mut ValidatorScratch, arity: usize, outcomes: &[(AttrId, RhsOutcome)]) {
    if scratch.slot_of_attr.len() < arity {
        scratch.slot_of_attr.resize(arity, u32::MAX);
    }
    for (i, &(r, _)) in outcomes.iter().enumerate() {
        scratch.slot_of_attr[r] = i as u32;
    }
}

/// The validation inner loop for one pivot cluster (a rid-sorted slice
/// of arena slots): group the cluster by the `rest` value codes — the
/// lazy PLI intersection — and compare group members against their
/// representative on every still-active RHS. Returns `true` when every
/// RHS has been resolved, letting the caller stop scanning entirely.
///
/// Witness pairs are deterministic and layout-independent: the
/// representative of a group is its first member in cluster order, and
/// the reported violator of an RHS is the first member that disagrees
/// with its representative — both invariant under the open-addressed
/// table and the constancy pre-pass (a constant RHS column can produce
/// no violation, so skipping it never changes which pair is found).
#[allow(clippy::too_many_arguments)]
fn scan_one_cluster(
    rel: &DynamicRelation,
    cluster: &[u32],
    rest: &[AttrId],
    rhs_attrs: &[AttrId],
    scratch: &mut ValidatorScratch,
    outcomes: &mut [(AttrId, RhsOutcome)],
    active: &mut AttrSet,
    stats: &mut ValidationStats,
) -> bool {
    let columns = rel.columns();
    let slot_rids = rel.slot_rids();
    let ValidatorScratch {
        table,
        live_rhs,
        slot_of_attr,
        ..
    } = scratch;

    if rest.is_empty() {
        // Single-attribute LHS — the bulk of a typical positive cover:
        // every cluster member is one group, so each active RHS is a
        // straight column stream over the cluster, abandoned at the first
        // disagreement with the representative (EAIFD early exit).
        let rep_slot = cluster[0];
        for &r in rhs_attrs {
            if !active.contains(r) {
                continue;
            }
            let col: &[ValueId] = &columns[r];
            let rep_code = col[rep_slot as usize];
            for &slot in &cluster[1..] {
                stats.comparisons += 1;
                if col[slot as usize] != rep_code {
                    active.remove(r);
                    outcomes[slot_of_attr[r] as usize].1 = RhsOutcome::Violated(
                        slot_rids[rep_slot as usize],
                        slot_rids[slot as usize],
                    );
                    break;
                }
            }
            if active.is_empty() {
                return true;
            }
        }
        return false;
    }

    // Constancy pre-pass: an RHS whose column is constant over the whole
    // cluster cannot be violated inside it, whatever the grouping. Each
    // scan is a contiguous gather abandoned at the first second value.
    live_rhs.clear();
    for &r in rhs_attrs {
        if !active.contains(r) {
            continue;
        }
        let col: &[ValueId] = &columns[r];
        let first = col[cluster[0] as usize];
        if cluster[1..].iter().any(|&s| col[s as usize] != first) {
            live_rhs.push(r);
        }
    }
    if live_rhs.is_empty() {
        return false;
    }

    table.reset(cluster.len());
    // Compares the record at `slot` against its group representative on
    // every surviving RHS; returns true when all RHS are resolved.
    macro_rules! compare {
        ($rep_slot:expr, $slot:expr) => {{
            stats.comparisons += 1;
            let mut done = false;
            for &r in live_rhs.iter() {
                if active.contains(r)
                    && columns[r][$rep_slot as usize] != columns[r][$slot as usize]
                {
                    active.remove(r);
                    outcomes[slot_of_attr[r] as usize].1 = RhsOutcome::Violated(
                        slot_rids[$rep_slot as usize],
                        slot_rids[$slot as usize],
                    );
                    if active.is_empty() {
                        done = true;
                        break;
                    }
                }
            }
            done
        }};
    }

    if rest.len() <= 2 {
        // Packed path: the remaining-LHS key fits one u64 exactly, so a
        // signature match *is* group membership.
        for &slot in cluster {
            let key = packed_key(rest, columns, slot);
            if let Some(rep_slot) = table.probe(key, slot, |_| true) {
                if compare!(rep_slot, slot) {
                    return true;
                }
            }
        }
    } else {
        // Wide path: the signature is a hash of the remaining-LHS codes;
        // a match verifies the codes through the columns.
        for &slot in cluster {
            let key = wide_key(rest, columns, slot);
            let found = table.probe(key, slot, |rep_slot| {
                rest.iter()
                    .all(|&a| columns[a][rep_slot as usize] == columns[a][slot as usize])
            });
            if let Some(rep_slot) = found {
                if compare!(rep_slot, slot) {
                    return true;
                }
            }
        }
    }
    false
}

/// `∅ -> A` holds iff column A is constant over the live records; the
/// per-column PLI answers this in O(1) via its cluster count.
fn validate_empty_lhs(rel: &DynamicRelation, rhs_set: AttrSet) -> ValidationResult {
    let outcomes = rhs_set
        .iter()
        .map(|r| {
            let pli = rel.pli(r);
            let outcome = if pli.cluster_count() <= 1 {
                RhsOutcome::Valid
            } else {
                // At least two clusters exist: pick one witness from each.
                let mut it = pli.iter();
                let (_, c1) = it.next().expect("first cluster");
                let (_, c2) = it.next().expect("second cluster");
                RhsOutcome::Violated(rel.rid_at_slot(c1[0]), rel.rid_at_slot(c2[0]))
            };
            (r, outcome)
        })
        .collect();
    ValidationResult {
        lhs: AttrSet::empty(),
        outcomes,
        stats: ValidationStats::default(),
    }
}

/// Convenience wrapper validating a single [`Fd`].
pub fn validate_fd(rel: &DynamicRelation, fd: &Fd, opts: &ValidationOptions) -> RhsOutcome {
    validate(rel, fd.lhs, AttrSet::single(fd.rhs), opts).outcome(fd.rhs)
}

/// The *agree set* of two records: all attributes on which they hold the
/// same value. For any attribute `y` outside the agree set `X`, the pair
/// witnesses the non-FD `X -> y` (paper Section 4.3).
pub fn agree_set(rel: &DynamicRelation, a: RecordId, b: RecordId) -> Option<AttrSet> {
    let ra = rel.compressed(a)?;
    let rb = rel.compressed(b)?;
    let mut set = AttrSet::empty();
    for (attr, (x, y)) in ra.iter().zip(rb.iter()).enumerate() {
        if x == y {
            set.insert(attr);
        }
    }
    Some(set)
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

    fn paper() -> DynamicRelation {
        rel(&[
            &["Max", "Jones", "14482", "Potsdam"],
            &["Max", "Miller", "14482", "Potsdam"],
            &["Max", "Jones", "10115", "Berlin"],
            &["Anna", "Scott", "13591", "Berlin"],
        ])
    }

    fn lhs(attrs: &[usize]) -> AttrSet {
        attrs.iter().copied().collect()
    }

    #[test]
    fn paper_minimal_fds_hold_initially() {
        // Figure 2: l→f, z→f, z→c, fc→z, lc→z are the minimal FDs.
        let r = paper();
        let full = ValidationOptions::full();
        for (x, a) in [
            (lhs(&[1]), 0),    // l -> f
            (lhs(&[2]), 0),    // z -> f
            (lhs(&[2]), 3),    // z -> c
            (lhs(&[0, 3]), 2), // fc -> z
            (lhs(&[1, 3]), 2), // lc -> z
        ] {
            assert!(
                validate_fd(&r, &Fd::new(x, a), &full).is_valid(),
                "{x:?}->{a} should hold"
            );
        }
    }

    #[test]
    fn paper_non_fds_are_violated() {
        // Figure 2 red cells: f→c, c→f, fl→z, ... are invalid initially.
        let r = paper();
        let full = ValidationOptions::full();
        for (x, a) in [
            (lhs(&[0]), 3),       // f -> c
            (lhs(&[3]), 0),       // c -> f
            (lhs(&[0, 1]), 2),    // fl -> z
            (lhs(&[0, 1]), 3),    // fl -> c
            (lhs(&[0, 2, 3]), 1), // fzc -> l
        ] {
            let out = validate_fd(&r, &Fd::new(x, a), &full);
            assert!(!out.is_valid(), "{x:?}->{a} should be violated");
        }
    }

    #[test]
    fn violating_pair_actually_violates() {
        let r = paper();
        let out = validate_fd(&r, &Fd::new(lhs(&[0]), 3), &ValidationOptions::full());
        let RhsOutcome::Violated(a, b) = out else {
            panic!("expected violation")
        };
        let ra = r.compressed(a).unwrap();
        let rb = r.compressed(b).unwrap();
        assert_eq!(ra[0], rb[0], "pair must agree on lhs");
        assert_ne!(ra[3], rb[3], "pair must disagree on rhs");
    }

    #[test]
    fn simultaneous_rhs_validation() {
        let r = paper();
        // lhs = {zip}: zip -> firstname valid, zip -> lastname invalid,
        // zip -> city valid.
        let res = validate(&r, lhs(&[2]), lhs(&[0, 1, 3]), &ValidationOptions::full());
        assert!(res.outcome(0).is_valid());
        assert!(!res.outcome(1).is_valid());
        assert!(res.outcome(3).is_valid());
        assert_eq!(res.violations().count(), 1);
    }

    #[test]
    fn empty_lhs_constant_column() {
        let r = rel(&[&["x", "1"], &["x", "2"], &["x", "2"]]);
        let res = validate(
            &r,
            AttrSet::empty(),
            lhs(&[0, 1]),
            &ValidationOptions::full(),
        );
        assert!(res.outcome(0).is_valid(), "column 0 constant");
        assert!(!res.outcome(1).is_valid(), "column 1 varies");
        let RhsOutcome::Violated(a, b) = res.outcome(1) else {
            panic!()
        };
        assert_ne!(r.compressed(a).unwrap()[1], r.compressed(b).unwrap()[1]);
    }

    #[test]
    fn tiny_relations_satisfy_everything() {
        let empty = DynamicRelation::new(Schema::anonymous("t", 3));
        let res = validate(&empty, lhs(&[0]), lhs(&[1, 2]), &ValidationOptions::full());
        assert!(res.all_valid());

        let one = rel(&[&["a", "b", "c"]]);
        assert!(validate(&one, lhs(&[0]), lhs(&[1]), &ValidationOptions::full()).all_valid());
        assert!(validate(
            &one,
            AttrSet::empty(),
            lhs(&[0]),
            &ValidationOptions::full()
        )
        .all_valid());
    }

    #[test]
    fn cluster_pruning_skips_old_clusters() {
        let mut r = paper();
        // Insert a record whose firstname "Anna" joins record 3's cluster.
        r.insert_row(&["Anna", "Scott", "13591", "Berlin"]).unwrap();
        // Validate f -> c with pruning: the Max cluster {0,1,2} is old
        // (max id 2 < 4) and must be skipped even though it violates.
        let res = validate(
            &r,
            lhs(&[0]),
            AttrSet::single(3),
            &ValidationOptions::delta(RecordId(4)),
        );
        assert_eq!(res.stats.clusters_pruned, 1);
        assert_eq!(res.stats.clusters_visited, 1);
        // The Anna cluster is consistent, so under pruning the FD looks
        // valid — which is the *intended* semantics: pruning is only used
        // on candidates known valid over the old records.
        assert!(res.outcome(3).is_valid());
    }

    #[test]
    fn cluster_pruning_still_sees_new_violations() {
        let mut r = paper();
        let first_new = r.next_id();
        // New record violates z -> c: shares zip 14482 with ids 0,1 but
        // has a different city.
        r.insert_row(&["Eve", "Stone", "14482", "Leipzig"]).unwrap();
        let res = validate(
            &r,
            lhs(&[2]),
            AttrSet::single(3),
            &ValidationOptions::delta(first_new),
        );
        let RhsOutcome::Violated(a, b) = res.outcome(3) else {
            panic!("z -> c must be violated by the insert")
        };
        assert!(
            a == RecordId(4) || b == RecordId(4),
            "violation involves the new record"
        );
    }

    #[test]
    fn early_termination_counts_less_work() {
        // Column 1 mirrors column 0 except everywhere-different column 2.
        let rows: Vec<Vec<String>> = (0..100)
            .map(|i| {
                vec![
                    format!("g{}", i / 10),
                    format!("h{}", i / 10),
                    format!("u{i}"),
                ]
            })
            .collect();
        let r = DynamicRelation::from_rows(Schema::anonymous("t", 3), &rows).unwrap();
        // lhs {0} -> rhs {2}: every cluster violates immediately.
        let res = validate(
            &r,
            lhs(&[0]),
            AttrSet::single(2),
            &ValidationOptions::full(),
        );
        assert!(!res.outcome(2).is_valid());
        // Early termination: at most one comparison needed.
        assert_eq!(res.stats.comparisons, 1);
    }

    #[test]
    fn constancy_pre_pass_matches_grouped_verdicts() {
        // Mixed clusters: some all-constant on the RHS (pre-pass skips
        // the group table), some not (grouped scan finds the violation).
        let rows: Vec<Vec<String>> = (0..60)
            .map(|i| {
                vec![
                    format!("p{}", i / 12), // pivot: clusters of 12
                    format!("q{}", i / 4),  // rest attr
                    format!("r{}", i % 2),  // rest attr
                    if i / 12 == 3 {
                        format!("x{i}") // cluster 3: RHS varies per record
                    } else {
                        format!("c{}", i / 12) // constant per pivot cluster
                    },
                ]
            })
            .collect();
        let r = DynamicRelation::from_rows(Schema::anonymous("t", 4), &rows).unwrap();
        let res = validate(
            &r,
            lhs(&[0, 1, 2]),
            AttrSet::single(3),
            &ValidationOptions::full(),
        );
        // Cluster 3 groups records agreeing on all of q, r — e.g. rows
        // 36 and 38 share (p3, q9, r0) but differ on column 3.
        assert!(!res.outcome(3).is_valid());
        let RhsOutcome::Violated(a, b) = res.outcome(3) else {
            panic!()
        };
        let (ra, rb) = (r.compressed(a).unwrap(), r.compressed(b).unwrap());
        for l in [0, 1, 2] {
            assert_eq!(ra[l], rb[l]);
        }
        assert_ne!(ra[3], rb[3]);

        // All-constant RHS per group: valid, and the pre-pass means no
        // comparisons at all were needed in fully-constant clusters.
        let res = validate(
            &r,
            lhs(&[0, 1]),
            AttrSet::single(2),
            &ValidationOptions::full(),
        );
        assert!(!res.outcome(2).is_valid());
    }

    #[test]
    fn agree_sets() {
        let r = paper();
        // Records 0 and 1: agree on firstname, zip, city; differ lastname.
        assert_eq!(
            agree_set(&r, RecordId(0), RecordId(1)).unwrap().to_vec(),
            vec![0, 2, 3]
        );
        // Records 0 and 3 share nothing.
        assert!(agree_set(&r, RecordId(0), RecordId(3)).unwrap().is_empty());
        // Self-agreement is everything.
        assert_eq!(agree_set(&r, RecordId(2), RecordId(2)).unwrap().len(), 4);
        // Dead record → None.
        assert_eq!(agree_set(&r, RecordId(0), RecordId(42)), None);
    }

    #[test]
    #[should_panic(expected = "trivial candidate")]
    fn trivial_candidate_panics() {
        let r = paper();
        let _ = validate(
            &r,
            lhs(&[0, 1]),
            AttrSet::single(0),
            &ValidationOptions::full(),
        );
    }

    /// Every arity-2/3 candidate over the paper relation gets the same
    /// verdicts from the cached path — on a cold snapshot (miss+build)
    /// and on the warm snapshot the merge produced (hit).
    #[test]
    fn cached_path_matches_plain_verdicts() {
        use crate::pli_cache::PliCache;

        let r = paper();
        let full = ValidationOptions::full();
        let mut scratch = ValidatorScratch::new();
        let mut cache = PliCache::new(usize::MAX);

        let mut candidates = Vec::new();
        for a in 0..4usize {
            for b in a + 1..4 {
                let x: AttrSet = [a, b].into_iter().collect();
                for c in 0..4 {
                    if !x.contains(c) {
                        candidates.push((x, AttrSet::single(c)));
                        candidates.push((x.with(c), AttrSet::full(4).difference(&x.with(c))));
                    }
                }
            }
        }
        let candidates: Vec<_> = candidates
            .into_iter()
            .filter(|(_, rhs)| !rhs.is_empty())
            .collect();

        for round in 0..2 {
            let snap = cache.snapshot();
            let mut effects = Vec::new();
            for &(x, rhs) in &candidates {
                let plain = validate_with(&r, x, rhs, &full, &mut scratch);
                let (cached, eff) = validate_cached(&r, x, rhs, &full, &mut scratch, &snap);
                for (attr, out) in &plain.outcomes {
                    assert_eq!(
                        cached.outcome(*attr).is_valid(),
                        out.is_valid(),
                        "round {round}: {x:?} -> {attr} verdict diverged"
                    );
                }
                // Any reported witness must genuinely violate.
                for (attr, a, b) in cached.violations() {
                    let ra = r.compressed(a).expect("live witness");
                    let rb = r.compressed(b).expect("live witness");
                    assert!(x.iter().all(|l| ra[l] == rb[l]), "witness agrees on lhs");
                    assert_ne!(ra[attr], rb[attr], "witness disagrees on rhs");
                }
                effects.push(eff);
            }
            if round == 0 {
                assert!(
                    effects.iter().any(|e| e.built.is_some()),
                    "cold run builds partitions"
                );
            } else {
                assert!(
                    effects.iter().any(|e| e.hit.is_some()),
                    "warm run hits the cache"
                );
                assert!(
                    effects.iter().all(|e| e.built.is_none()),
                    "warm run rebuilds nothing"
                );
            }
            cache.merge(&effects);
        }
        assert!(cache.stats().hits > 0 && cache.stats().misses > 0);
    }

    /// Cluster-pruned (insert-phase) validations probe but never build:
    /// the effects record a miss and no partition.
    #[test]
    fn cached_path_skips_build_under_pruning() {
        use crate::pli_cache::PliCache;

        let mut r = paper();
        let first_new = r.next_id();
        r.insert_row(&["Eve", "Stone", "14482", "Leipzig"]).unwrap();
        let cache = PliCache::new(usize::MAX);
        let snap = cache.snapshot();
        let (res, eff) = validate_cached(
            &r,
            lhs(&[0, 2]),
            AttrSet::single(3),
            &ValidationOptions::delta(first_new),
            &mut ValidatorScratch::new(),
            &snap,
        );
        assert!(eff.miss && eff.built.is_none() && eff.hit.is_none());
        // Same verdict as the plain pruned validation.
        let plain = validate(
            &r,
            lhs(&[0, 2]),
            AttrSet::single(3),
            &ValidationOptions::delta(first_new),
        );
        assert_eq!(res.outcome(3).is_valid(), plain.outcome(3).is_valid());
    }

    #[test]
    fn validation_after_deletes() {
        let mut r = paper();
        // f -> c is violated by (0,2). Delete record 2 → Max cluster all
        // Potsdam → f -> c becomes valid.
        r.delete_record(RecordId(2)).unwrap();
        assert!(validate_fd(&r, &Fd::new(lhs(&[0]), 3), &ValidationOptions::full()).is_valid());
    }

    #[test]
    fn validation_survives_slot_churn() {
        // Verdicts and witnesses key on record ids even when slot reuse
        // scrambles the arena relative to rid order.
        let mut r = paper();
        r.delete_record(RecordId(0)).unwrap();
        r.delete_record(RecordId(2)).unwrap();
        // Reuses slots LIFO: rid 4 takes record 2's slot, rid 5 record 0's.
        r.insert_row(&["Max", "Jones", "10115", "Berlin"]).unwrap();
        r.insert_row(&["Max", "Jones", "14482", "Potsdam"]).unwrap();
        r.check_arena_invariants().unwrap();
        // Same logical content as the paper relation (ids shifted):
        // f -> c still violated, z -> c still valid.
        let out = validate_fd(&r, &Fd::new(lhs(&[0]), 3), &ValidationOptions::full());
        let RhsOutcome::Violated(a, b) = out else {
            panic!("f -> c must stay violated")
        };
        let (ra, rb) = (r.compressed(a).unwrap(), r.compressed(b).unwrap());
        assert_eq!(ra[0], rb[0]);
        assert_ne!(ra[3], rb[3]);
        assert!(a < b, "witness pair ordered by scan order (rid order)");
        assert!(validate_fd(&r, &Fd::new(lhs(&[2]), 3), &ValidationOptions::full()).is_valid());
    }
}
