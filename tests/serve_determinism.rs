//! Concurrency must be invisible per tenant: an interleaved
//! multi-tenant batch stream pushed through the `dynfd-serve` worker
//! pool has to leave every tenant in exactly the state a plain
//! sequential replay of its own batches produces — same relation, same
//! positive and negative covers, same §5.2 violation annotations, and
//! (durably) the same WAL bytes — **at any worker count**.
//!
//! The oracle lives in `dynfd_testkit::check_concurrent_serve`: it
//! replays N generated tenant traces round-robin interleaved on a
//! serve engine, quiesces, and diffs each tenant against a fresh
//! sequential replay with `DynFd::state_divergence` (bit-level), plus a
//! byte-for-byte WAL comparison for durable runs. These tests pin the
//! worker-count grid 1/2/8 — one worker (trivially sequential), two
//! (the smallest real interleaving), and eight (more workers than
//! shards are guaranteed distinct tenants, so every scheduling hazard
//! the pool can produce is in play).

use dynfd_testkit::check_concurrent_serve;
use proptest::prelude::*;
use std::path::PathBuf;

const SEED: u64 = 1709;
const TENANTS: usize = 6;

/// A scratch directory under the system temp dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("dynfd-serve-det-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn in_memory_state_identical_across_worker_counts() {
    for workers in [1usize, 2, 8] {
        let stats = check_concurrent_serve(SEED, TENANTS, workers, None)
            .unwrap_or_else(|e| panic!("{workers} workers: {e}"));
        assert_eq!(stats.states_compared, TENANTS);
        assert_eq!(stats.workers, workers);
        assert!(stats.batches > 0, "trace set must contain work");
    }
}

#[test]
fn durable_wal_bytes_identical_across_worker_counts() {
    // The strongest form of the claim: not only the in-memory covers
    // but the *durable log itself* is bit-identical to what a
    // sequential per-tenant engine writes, whatever the worker count.
    for workers in [1usize, 2, 8] {
        let scratch = Scratch::new(&format!("wal-{workers}"));
        let stats = check_concurrent_serve(SEED, TENANTS, workers, Some(&scratch.0))
            .unwrap_or_else(|e| panic!("{workers} workers durable: {e}"));
        assert_eq!(stats.states_compared, TENANTS);
        assert_eq!(stats.wals_compared, TENANTS, "every tenant WAL compared");
    }
}

#[test]
fn eight_workers_more_tenants_than_shards() {
    // 12 tenants on 8 workers forces shard sharing: several tenants are
    // pinned to the same FIFO, which is exactly where cross-tenant
    // reordering bugs would live. 64 tenants put eight on a shard on
    // average, and every one of their batches must still apply.
    for tenants in [12usize, 64] {
        let stats = check_concurrent_serve(SEED ^ 0xABCD, tenants, 8, None)
            .unwrap_or_else(|e| panic!("{tenants} tenants, 8 workers: {e}"));
        assert_eq!(stats.states_compared, tenants);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Seed-randomized form of the 8-worker property: any trace set,
    /// any tenant count 2–6, served on 8 workers, matches sequential
    /// replay bit for bit.
    #[test]
    fn random_seeds_serve_deterministically(seed in 0u64..1_000_000, tenants in 2usize..=6) {
        let stats = check_concurrent_serve(seed, tenants, 8, None)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(stats.states_compared, tenants);
    }
}
