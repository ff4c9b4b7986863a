//! Shared sorted-set intersection kernel: an explicitly SIMD block-compare
//! path (SSE2 4-lane / AVX2 8-lane, `std::arch` x86_64 intrinsics) over a
//! scalar merge fallback, selected once at startup by runtime feature
//! detection.
//!
//! The primitive intersects two strictly-increasing `u32` *key* sequences
//! and emits, for every common key, the `a`-side *payload* at that key's
//! position. [`crate::intersect_clusters`] drives it with record ids as
//! keys and arena slots as payloads.
//!
//! The block-compare algorithm is the classic rotation scheme for sorted
//! u32 sets: load one L-lane block from each side, compare the `a` block
//! against all L lane-rotations of the `b` block, OR the equality masks
//! into a per-lane hit mask, compact the hit payloads, then advance the
//! side whose block maximum is smaller (both on a tie). Both inputs are
//! strictly increasing, so a key matched in one round cannot reappear in
//! a later `b` block and no duplicate is ever emitted. The scalar merge
//! finishes the sub-L tails.
//!
//! Selection is observationally pure: every kernel produces bit-identical
//! output, so the runtime-detected tier and the per-thread scalar
//! override ([`set_simd_enabled`]) change throughput only. The
//! equivalence proptests (in-crate and `tests/proptest_kernel.rs`) pin
//! that contract.

use std::cell::Cell;
use std::sync::OnceLock;

/// Size ratio above which [`crate::intersect_clusters`] abandons the
/// linear merge and *gallops*: when `large.len() / GALLOP_RATIO >=
/// small.len()`, each small-side member binary-searches the large side
/// with exponentially growing probes — O(small · log large) instead of
/// O(small + large). The boundary test in `pli.rs` pins that sizes at
/// ratios straddling this constant agree with the plain merge.
pub const GALLOP_RATIO: usize = 8;

/// Whether an intersection of these sizes should gallop instead of
/// merging linearly — the one place the [`GALLOP_RATIO`] tunable is
/// consulted.
pub fn use_gallop(small_len: usize, large_len: usize) -> bool {
    large_len / GALLOP_RATIO >= small_len
}

/// Minimum per-side length for the SIMD path. Below this the fixed
/// overhead (key gather + block setup) cannot amortize, so callers fall
/// back to the scalar merge and small intersections never regress.
pub const SIMD_MIN_LEN: usize = 16;

/// Which intersection kernel a call dispatches to. Ordered by strength:
/// stronger tiers require strictly more CPU features.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelKind {
    /// Portable scalar merge (also the non-x86_64 and SIMD-disabled path).
    #[default]
    Scalar,
    /// 4-lane SSE2 block compare (x86_64 baseline, no detection needed).
    Sse,
    /// 8-lane AVX2 block compare (runtime-detected).
    Avx2,
}

impl KernelKind {
    /// Human-readable kernel name for `--stats` and bench reports.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Sse => "sse2",
            KernelKind::Avx2 => "avx2",
        }
    }

    /// Number of `u32` lanes one block-compare step covers per side
    /// (1 for the scalar merge).
    pub fn lanes(self) -> usize {
        match self {
            KernelKind::Scalar => 1,
            KernelKind::Sse => 4,
            KernelKind::Avx2 => 8,
        }
    }
}

thread_local! {
    /// Per-thread SIMD enable switch. A test or bench arm that forces
    /// the scalar merge affects only its own thread, so tests running
    /// concurrently in the same process keep the detected kernel.
    static SIMD_ENABLED: Cell<bool> = const { Cell::new(true) };
}

/// Enables or disables the SIMD paths on the calling thread — the
/// scalar-vs-vectorized override of the kernel equivalence tests and
/// the `kernel_sweep` bench. Threads start enabled.
pub fn set_simd_enabled(enabled: bool) {
    SIMD_ENABLED.with(|e| e.set(enabled));
}

/// Whether the SIMD paths are enabled on the calling thread.
pub fn simd_enabled() -> bool {
    SIMD_ENABLED.with(Cell::get)
}

/// The strongest kernel this CPU supports, detected once at first use.
pub fn detected_kernel() -> KernelKind {
    static DETECTED: OnceLock<KernelKind> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                KernelKind::Avx2
            } else {
                // SSE2 is part of the x86_64 baseline ABI.
                KernelKind::Sse
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            KernelKind::Scalar
        }
    })
}

/// The kernel calls on this thread dispatch to: the detected tier, or
/// [`KernelKind::Scalar`] when [`set_simd_enabled`] turned SIMD off.
pub fn active_kernel() -> KernelKind {
    if simd_enabled() {
        detected_kernel()
    } else {
        KernelKind::Scalar
    }
}

/// Intersects two strictly-increasing `u32` key sequences, pushing
/// `a_vals[i]` (in key order) for every position `i` whose key also
/// occurs in `b_keys`. `a_keys` and `a_vals` run in lockstep and must
/// have equal length.
pub fn intersect_keyed(a_keys: &[u32], a_vals: &[u32], b_keys: &[u32], out: &mut Vec<u32>) {
    intersect_keyed_with(active_kernel(), a_keys, a_vals, b_keys, out);
}

/// [`intersect_keyed`] with an explicit kernel choice, clamped to what
/// the CPU supports — the equivalence tests drive every tier through
/// this entry point and compare outputs.
pub fn intersect_keyed_with(
    kind: KernelKind,
    a_keys: &[u32],
    a_vals: &[u32],
    b_keys: &[u32],
    out: &mut Vec<u32>,
) {
    debug_assert_eq!(a_keys.len(), a_vals.len());
    // Never dispatch above the detected tier: an explicit `Avx2` request
    // on a non-AVX2 CPU silently runs the strongest safe kernel instead.
    let kind = kind.min(detected_kernel());
    match kind {
        KernelKind::Scalar => scalar_merge_keyed(a_keys, a_vals, b_keys, 0, 0, out),
        #[cfg(target_arch = "x86_64")]
        KernelKind::Sse => x86::sse_intersect(a_keys, a_vals, b_keys, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2` survives the clamp above only when AVX2 was
        // runtime-detected on this CPU.
        KernelKind::Avx2 => unsafe { x86::avx2_intersect(a_keys, a_vals, b_keys, out) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar_merge_keyed(a_keys, a_vals, b_keys, 0, 0, out),
    }
}

/// Scalar keyed merge from positions `(i, j)` onward — both the portable
/// fallback and the tail finisher for the block-compare paths.
fn scalar_merge_keyed(
    a_keys: &[u32],
    a_vals: &[u32],
    b_keys: &[u32],
    mut i: usize,
    mut j: usize,
    out: &mut Vec<u32>,
) {
    while i < a_keys.len() && j < b_keys.len() {
        let (ka, kb) = (a_keys[i], b_keys[j]);
        match ka.cmp(&kb) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a_vals[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// `compact[mask]` lists, front-packed, the lane indices whose bit is
    /// set in `mask` — the shuffle control for compacting hit payloads
    /// with `_mm256_permutevar8x32_epi32`. Unused tail lanes stay 0; the
    /// store only keeps `mask.count_ones()` lanes.
    const fn avx2_compact_lut() -> [[u32; 8]; 256] {
        let mut lut = [[0u32; 8]; 256];
        let mut mask = 0usize;
        while mask < 256 {
            let mut dst = 0usize;
            let mut lane = 0usize;
            while lane < 8 {
                if mask & (1 << lane) != 0 {
                    lut[mask][dst] = lane as u32;
                    dst += 1;
                }
                lane += 1;
            }
            mask += 1;
        }
        lut
    }

    static AVX2_COMPACT: [[u32; 8]; 256] = avx2_compact_lut();

    /// 4-lane SSE2 block compare. SSE2 is baseline on x86_64, so this
    /// needs no feature gate; the only unsafety is the unaligned loads,
    /// which `_mm_loadu_si128` permits at any alignment.
    pub(super) fn sse_intersect(
        a_keys: &[u32],
        a_vals: &[u32],
        b_keys: &[u32],
        out: &mut Vec<u32>,
    ) {
        let (mut i, mut j) = (0usize, 0usize);
        let (an, bn) = (a_keys.len(), b_keys.len());
        while i + 4 <= an && j + 4 <= bn {
            // SAFETY: `i + 4 <= an` and `j + 4 <= bn` keep every 16-byte
            // unaligned load inside the slices.
            let mut mask = unsafe {
                let va = _mm_loadu_si128(a_keys.as_ptr().add(i) as *const __m128i);
                let vb = _mm_loadu_si128(b_keys.as_ptr().add(j) as *const __m128i);
                // Compare `va` against all 4 lane-rotations of `vb`:
                // every (a-lane, b-lane) pair is covered exactly once.
                let r0 = _mm_cmpeq_epi32(va, vb);
                let r1 = _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0b00_11_10_01));
                let r2 = _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0b01_00_11_10));
                let r3 = _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0b10_01_00_11));
                let hits = _mm_or_si128(_mm_or_si128(r0, r1), _mm_or_si128(r2, r3));
                _mm_movemask_ps(_mm_castsi128_ps(hits)) as u32
            };
            while mask != 0 {
                let lane = mask.trailing_zeros() as usize;
                out.push(a_vals[i + lane]);
                mask &= mask - 1;
            }
            let (amax, bmax) = (a_keys[i + 3], b_keys[j + 3]);
            if amax <= bmax {
                i += 4;
            }
            if bmax <= amax {
                j += 4;
            }
        }
        super::scalar_merge_keyed(a_keys, a_vals, b_keys, i, j, out);
    }

    /// 8-lane AVX2 block compare with shuffle-LUT payload compaction.
    ///
    /// # Safety
    ///
    /// The caller must have runtime-detected AVX2 support.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn avx2_intersect(
        a_keys: &[u32],
        a_vals: &[u32],
        b_keys: &[u32],
        out: &mut Vec<u32>,
    ) {
        let (mut i, mut j) = (0usize, 0usize);
        let (an, bn) = (a_keys.len(), b_keys.len());
        // Rotate-by-one lane permutation; applied cumulatively it walks
        // `vb` through all 7 non-identity rotations.
        let rot1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
        while i + 8 <= an && j + 8 <= bn {
            // SAFETY (for the unaligned loads/stores below): the loop
            // bound keeps both 32-byte loads inside the slices, and the
            // store target is a local [u32; 8].
            let va = _mm256_loadu_si256(a_keys.as_ptr().add(i) as *const __m256i);
            let vb = _mm256_loadu_si256(b_keys.as_ptr().add(j) as *const __m256i);
            let mut hits = _mm256_cmpeq_epi32(va, vb);
            let mut vr = vb;
            for _ in 0..7 {
                vr = _mm256_permutevar8x32_epi32(vr, rot1);
                hits = _mm256_or_si256(hits, _mm256_cmpeq_epi32(va, vr));
            }
            let mask = _mm256_movemask_ps(_mm256_castsi256_ps(hits)) as usize;
            if mask != 0 {
                let vals = _mm256_loadu_si256(a_vals.as_ptr().add(i) as *const __m256i);
                let perm = _mm256_loadu_si256(AVX2_COMPACT[mask].as_ptr() as *const __m256i);
                let packed = _mm256_permutevar8x32_epi32(vals, perm);
                let mut buf = [0u32; 8];
                _mm256_storeu_si256(buf.as_mut_ptr() as *mut __m256i, packed);
                out.extend_from_slice(&buf[..mask.count_ones() as usize]);
            }
            let (amax, bmax) = (a_keys[i + 7], b_keys[j + 7]);
            if amax <= bmax {
                i += 8;
            }
            if bmax <= amax {
                j += 8;
            }
        }
        super::scalar_merge_keyed(a_keys, a_vals, b_keys, i, j, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation: scalar merge over the full inputs.
    fn reference(a_keys: &[u32], a_vals: &[u32], b_keys: &[u32]) -> Vec<u32> {
        let mut out = Vec::new();
        scalar_merge_keyed(a_keys, a_vals, b_keys, 0, 0, &mut out);
        out
    }

    fn available_kinds() -> Vec<KernelKind> {
        let mut kinds = vec![KernelKind::Scalar];
        for k in [KernelKind::Sse, KernelKind::Avx2] {
            if k <= detected_kernel() {
                kinds.push(k);
            }
        }
        kinds
    }

    fn check_all_kinds(a_keys: &[u32], b_keys: &[u32]) {
        // Payloads distinct from keys so a keys-for-payloads mixup fails.
        let a_vals: Vec<u32> = (0..a_keys.len() as u32).map(|i| i ^ 0x8000_0000).collect();
        let expect = reference(a_keys, &a_vals, b_keys);
        for kind in available_kinds() {
            let mut got = Vec::new();
            intersect_keyed_with(kind, a_keys, &a_vals, b_keys, &mut got);
            assert_eq!(got, expect, "kernel {kind:?} diverged");
        }
    }

    /// Deterministic xorshift so the sweep needs no external RNG.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn sorted_unique(seed: u64, len: usize, spread: u64) -> Vec<u32> {
        let mut state = seed | 1;
        let mut v: Vec<u32> = (0..len * 2)
            .map(|_| (xorshift(&mut state) % spread) as u32)
            .collect();
        v.sort_unstable();
        v.dedup();
        v.truncate(len);
        v
    }

    #[test]
    fn all_lengths_and_alignments_agree() {
        // Lengths 0..64 on both sides cross every lane-remainder class
        // of both the 4-lane and 8-lane paths, plus empty and singleton.
        for la in 0..64usize {
            for lb in (0..64usize).step_by(3) {
                let a = sorted_unique(la as u64 + 1, la, 140);
                let b = sorted_unique(lb as u64 + 7777, lb, 140);
                check_all_kinds(&a, &b);
            }
        }
    }

    #[test]
    fn dense_sparse_and_disjoint_agree() {
        let dense: Vec<u32> = (0..256).collect();
        let evens: Vec<u32> = (0..256).map(|x| x * 2).collect();
        let odds: Vec<u32> = (0..256).map(|x| x * 2 + 1).collect();
        check_all_kinds(&dense, &dense);
        check_all_kinds(&dense, &evens);
        check_all_kinds(&evens, &odds); // fully disjoint
        check_all_kinds(&evens, &dense);
        check_all_kinds(&[], &dense);
        check_all_kinds(&dense, &[]);
        check_all_kinds(&[7], &dense);
    }

    #[test]
    fn high_bit_keys_agree() {
        // Keys above i32::MAX: the SIMD equality compare is bitwise, but
        // this guards against any signed-compare regression.
        let a: Vec<u32> = (0..96).map(|x| u32::MAX - 3 * x).rev().collect();
        let b: Vec<u32> = (0..96).map(|x| u32::MAX - 2 * x).rev().collect();
        check_all_kinds(&a, &b);
    }

    #[test]
    fn block_boundary_runs_agree() {
        // Long equal runs that straddle block boundaries at every phase.
        for shift in 0..9u32 {
            let a: Vec<u32> = (0..80).collect();
            let b: Vec<u32> = (shift..80 + shift).collect();
            check_all_kinds(&a, &b);
        }
    }

    #[test]
    fn detection_is_stable_and_ordered() {
        let d = detected_kernel();
        assert_eq!(d, detected_kernel());
        assert!(d >= KernelKind::Scalar);
        set_simd_enabled(false);
        assert_eq!(active_kernel(), KernelKind::Scalar);
        set_simd_enabled(true);
        assert_eq!(active_kernel(), d);
        assert_eq!(KernelKind::Scalar.lanes(), 1);
        assert!(d.lanes() >= 1);
    }

    #[test]
    fn simd_override_is_thread_local() {
        std::thread::spawn(|| {
            set_simd_enabled(false);
            assert_eq!(active_kernel(), KernelKind::Scalar);
        })
        .join()
        .expect("override thread");
        assert_eq!(active_kernel(), detected_kernel());
    }
}
