//! The PLI-intersection cache is pure acceleration: with an
//! eviction-heavy budget squeezing the cache on every merge, the cached
//! validator must return the same verdicts as the plain one, and the
//! engine with the cache on must maintain the same covers as with it
//! off. Witness pairs are allowed to differ (the cached path may pick a
//! different pivot and therefore meet a different violating pair first),
//! so violations are checked for *soundness* against the relation
//! instead of bit-equality.

use dynfd::common::{AttrSet, RecordId, Schema};
use dynfd::core::{DynFd, DynFdConfig};
use dynfd::relation::{
    validate_many, validate_many_cached, Batch, ChangeOp, DynamicRelation, PliCache, RhsOutcome,
    ValidationJob, ValidationOptions,
};
use proptest::prelude::*;

const COLS: usize = 5;
const DOMAIN: u8 = 3;

/// A budget small enough that a handful of 2-attribute partitions
/// overflows it: every level merge evicts, so the proptests exercise
/// the build/evict/rebuild churn path rather than the steady state.
const TINY_BUDGET: usize = 2_048;

fn arb_row() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec((0..DOMAIN).prop_map(|v| format!("v{v}")), COLS)
}

/// All `lhs -> rhs` jobs of the given LHS arity over `COLS` attributes,
/// with the full complement as RHS — the shape the engine's lattice
/// levels emit.
fn level_jobs(arity: usize) -> Vec<ValidationJob> {
    let mut jobs = Vec::new();
    let mut emit = |lhs: AttrSet| {
        let rhs: AttrSet = (0..COLS).filter(|r| !lhs.contains(*r)).collect();
        jobs.push((lhs, rhs));
    };
    match arity {
        2 => {
            for a in 0..COLS {
                for b in (a + 1)..COLS {
                    emit([a, b].into_iter().collect());
                }
            }
        }
        _ => {
            for a in 0..COLS {
                for b in (a + 1)..COLS {
                    for c in (b + 1)..COLS {
                        emit([a, b, c].into_iter().collect());
                    }
                }
            }
        }
    }
    jobs
}

/// Panics unless `(a, b)` is a genuine violation of `lhs -> rhs` in
/// `rel`: both alive, agreeing on every LHS attribute, differing on the
/// RHS.
fn assert_witness_sound(rel: &DynamicRelation, lhs: AttrSet, rhs: usize, a: RecordId, b: RecordId) {
    let ra = rel.compressed(a).expect("witness record is alive");
    let rb = rel.compressed(b).expect("witness record is alive");
    for attr in lhs.iter() {
        assert_eq!(ra[attr], rb[attr], "witness disagrees on LHS attr {attr}");
    }
    assert_ne!(ra[rhs], rb[rhs], "witness agrees on RHS attr {rhs}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Verdict equivalence at the validator layer: plain `validate_many`
    /// versus `validate_many_cached` under an eviction-heavy budget,
    /// both cold (building entries) and warm (hitting / re-building
    /// whatever survived eviction).
    #[test]
    fn cached_validation_matches_plain_under_eviction(
        rows in proptest::collection::vec(arb_row(), 1..40),
    ) {
        let rel = DynamicRelation::from_rows(Schema::anonymous("c", COLS), &rows).unwrap();
        let full = ValidationOptions::full();
        let mut cache = PliCache::new(TINY_BUDGET);
        for arity in [2usize, 3] {
            let jobs = level_jobs(arity);
            let plain = validate_many(&rel, &jobs, &full, 1);
            for round in 0..2 {
                let cached = validate_many_cached(&rel, &jobs, &full, 1, &mut cache);
                prop_assert_eq!(plain.len(), cached.len());
                for (p, c) in plain.iter().zip(&cached) {
                    prop_assert_eq!(p.lhs, c.lhs);
                    for ((pr, po), (cr, co)) in p.outcomes.iter().zip(&c.outcomes) {
                        prop_assert_eq!(pr, cr);
                        prop_assert_eq!(
                            po.is_valid(),
                            co.is_valid(),
                            "arity {} round {}: {:?} -> {} disagrees",
                            arity,
                            round,
                            p.lhs,
                            pr
                        );
                        if let RhsOutcome::Violated(a, b) = *co {
                            assert_witness_sound(&rel, c.lhs, *cr, a, b);
                        }
                    }
                }
            }
        }
        // The eviction pass runs at every merge, so the cache can never
        // settle above its budget.
        prop_assert!(cache.bytes() <= TINY_BUDGET);
    }

    /// Cover equivalence at the engine layer: the default configuration
    /// with the cache squeezed by a tiny budget versus the cache turned
    /// off entirely, across a random batch script.
    #[test]
    fn engine_covers_match_with_cache_on_and_off(
        initial in proptest::collection::vec(arb_row(), 0..10),
        inserts in proptest::collection::vec(arb_row(), 1..20),
        batch_size in 1usize..6,
    ) {
        let rel = DynamicRelation::from_rows(Schema::anonymous("c", COLS), &initial).unwrap();
        let squeezed = DynFdConfig {
            pli_cache: true,
            pli_cache_bytes: TINY_BUDGET,
            ..DynFdConfig::default()
        };
        let disabled = DynFdConfig {
            pli_cache: false,
            ..DynFdConfig::default()
        };
        let mut on = DynFd::new(rel.clone(), squeezed);
        let mut off = DynFd::new(rel, disabled);

        // Interleave inserts with deletes of every third live record so
        // both the insert and delete phases run under the cache.
        let mut ops = Vec::new();
        for (i, row) in inserts.iter().enumerate() {
            ops.push(ChangeOp::Insert(row.clone()));
            if i % 3 == 2 {
                // The id the i-th insert just received.
                ops.push(ChangeOp::Delete(RecordId(initial.len() as u64 + i as u64)));
            }
        }
        for batch in Batch::chunk(ops, batch_size) {
            let r_on = on.apply_batch(&batch).unwrap();
            let r_off = off.apply_batch(&batch).unwrap();
            prop_assert_eq!(on.positive_cover(), off.positive_cover());
            prop_assert_eq!(on.negative_cover(), off.negative_cover());
            prop_assert_eq!(&r_on.added, &r_off.added);
            prop_assert_eq!(&r_on.removed, &r_off.removed);
            // The disabled engine must never touch the cache.
            prop_assert_eq!(r_off.metrics.cache_hits, 0);
            prop_assert_eq!(r_off.metrics.cache_misses, 0);
            prop_assert_eq!(r_off.metrics.cache_bytes, 0);
        }
        on.verify_consistency().expect("cache-on consistency");
        off.verify_consistency().expect("cache-off consistency");
    }
}

/// Deterministic sanity check that [`TINY_BUDGET`] lives up to its
/// name: a modest uniform relation overflows it and forces evictions,
/// so the proptests above genuinely run in the churn regime.
#[test]
fn tiny_budget_forces_evictions() {
    let rows: Vec<Vec<String>> = (0..200)
        .map(|i| {
            (0..COLS)
                .map(|c| format!("v{}", (i * (c + 3)) % 7))
                .collect()
        })
        .collect();
    let rel = DynamicRelation::from_rows(Schema::anonymous("e", COLS), &rows).unwrap();
    let mut cache = PliCache::new(TINY_BUDGET);
    let jobs = level_jobs(2);
    let full = ValidationOptions::full();
    for _ in 0..2 {
        let _ = validate_many_cached(&rel, &jobs, &full, 1, &mut cache);
    }
    let stats = cache.stats();
    assert!(stats.misses > 0, "no builds at all: {stats:?}");
    assert!(stats.evictions > 0, "budget never overflowed: {stats:?}");
    assert!(
        cache.bytes() <= TINY_BUDGET,
        "eviction left the cache over budget: {} bytes in {} entries",
        cache.bytes(),
        cache.len()
    );
}
