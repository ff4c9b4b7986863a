//! Property tests for the vectorized intersection kernel: every
//! available kernel (scalar merge, SSE2, AVX2) computes the identical
//! payload sequence for the identical key lists, across all lengths,
//! alignments, densities, and tail shapes — and the cluster-level entry
//! point `intersect_clusters` is invariant under the per-thread SIMD
//! override, including the u64-record-id overflow fallback.

use dynfd::common::RecordId;
use dynfd::relation::intersect_clusters;
use dynfd::relation::kernel::{
    self, intersect_keyed, intersect_keyed_with, KernelKind, GALLOP_RATIO, SIMD_MIN_LEN,
};
use proptest::prelude::*;

/// Every kernel the host CPU can run, weakest first.
fn available_kinds() -> Vec<KernelKind> {
    [KernelKind::Scalar, KernelKind::Sse, KernelKind::Avx2]
        .into_iter()
        .filter(|&k| k <= kernel::detected_kernel())
        .collect()
}

/// Reference intersection: double loop over the key lists.
fn reference(a_keys: &[u32], a_vals: &[u32], b_keys: &[u32]) -> Vec<u32> {
    a_keys
        .iter()
        .zip(a_vals)
        .filter(|(k, _)| b_keys.contains(k))
        .map(|(_, v)| *v)
        .collect()
}

/// Strictly increasing key list drawn from a tunable universe, so the
/// densities range from disjoint to near-identical.
fn arb_keys(max_len: usize, universe: u32) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0..universe, 0..=max_len).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// All kernels agree with the reference on arbitrary key lists —
    /// covering empty/singleton lists, sub-block tails, dense overlaps,
    /// and disjoint inputs.
    #[test]
    fn kernels_agree_with_reference(
        a in arb_keys(64, 96),
        b in arb_keys(64, 96),
    ) {
        // Distinct payloads with the high bit set catch any key/payload
        // mix-up inside the compaction step.
        let vals: Vec<u32> = (0..a.len() as u32).map(|i| i ^ 0x8000_0000).collect();
        let want = reference(&a, &vals, &b);
        for kind in available_kinds() {
            let mut got = Vec::new();
            intersect_keyed_with(kind, &a, &vals, &b, &mut got);
            prop_assert_eq!(&got, &want, "kernel {} diverged", kind.name());
        }
        let mut via_dispatch = Vec::new();
        intersect_keyed(&a, &vals, &b, &mut via_dispatch);
        prop_assert_eq!(&via_dispatch, &want, "dispatched kernel diverged");
    }

    /// Alignment sweep: the same logical input presented at every
    /// possible offset from a block boundary produces the same output.
    #[test]
    fn kernels_are_alignment_invariant(
        base in arb_keys(48, 512),
        b in arb_keys(48, 512),
        skip in 0usize..9,
    ) {
        let a: Vec<u32> = base.iter().copied().skip(skip).collect();
        let vals: Vec<u32> = (0..a.len() as u32).collect();
        let want = reference(&a, &vals, &b);
        for kind in available_kinds() {
            let mut got = Vec::new();
            intersect_keyed_with(kind, &a, &vals, &b, &mut got);
            prop_assert_eq!(&got, &want, "kernel {} diverged at skip {}", kind.name(), skip);
        }
    }

    /// Cluster-level equivalence: `intersect_clusters` emits the same
    /// rid-ordered slots with the SIMD kernel enabled and disabled, on
    /// slot lists long enough to take the vectorized path and unbalanced
    /// enough to take the galloping path.
    #[test]
    fn cluster_intersection_is_toggle_invariant(
        a in arb_keys(3 * SIMD_MIN_LEN, 256),
        b in arb_keys(3 * SIMD_MIN_LEN * GALLOP_RATIO, 256),
    ) {
        let slot_rids: Vec<RecordId> = (0..256).map(|s| RecordId(s as u64 * 3 + 1)).collect();
        let mut scalar = Vec::new();
        let mut simd = Vec::new();
        kernel::set_simd_enabled(false);
        intersect_clusters(&a, &b, &slot_rids, &mut scalar);
        kernel::set_simd_enabled(true);
        intersect_clusters(&a, &b, &slot_rids, &mut simd);
        kernel::set_simd_enabled(true);
        prop_assert_eq!(scalar, simd);
    }

    /// Record ids beyond u32 cannot be narrowed for the vectorized
    /// kernel; the fallback must keep the output identical rather than
    /// truncate.
    #[test]
    fn oversized_rids_stay_exact(
        a in arb_keys(2 * SIMD_MIN_LEN, 128),
        b in arb_keys(2 * SIMD_MIN_LEN, 128),
    ) {
        let base = u32::MAX as u64 - 40;
        let slot_rids: Vec<RecordId> = (0..128).map(|s| RecordId(base + s as u64)).collect();
        let mut scalar = Vec::new();
        let mut simd = Vec::new();
        kernel::set_simd_enabled(false);
        intersect_clusters(&a, &b, &slot_rids, &mut scalar);
        kernel::set_simd_enabled(true);
        intersect_clusters(&a, &b, &slot_rids, &mut simd);
        kernel::set_simd_enabled(true);
        prop_assert_eq!(scalar, simd);
    }
}
