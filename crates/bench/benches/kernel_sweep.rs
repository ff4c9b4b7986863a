//! Kernel sweep: the explicitly vectorized PLI-intersection kernel
//! against the scalar merge on the six paper dataset shapes. Every A/B
//! pair is measured with **interleaved** samples (`bench_pair`): on a
//! shared CPU the machine drifts over the minutes a contiguous sample
//! block takes, and that drift used to land asymmetrically on whichever
//! arm ran second. Rows land in `BENCH_pr9.json` at the
//! workspace root (the committed copy also keeps the `ordering/*` rows
//! of the sampling-guided validation ordering, since removed; a rerun
//! drops them):
//!
//! * `kernel/<shape>/{scalar,simd}` — the top non-singleton clusters of
//!   the two busiest attributes of each shape (at `DYNFD_SCALE_ROWS`
//!   rows, default one million) pairwise-intersected through
//!   `intersect_clusters`, once with the SIMD kernel disabled (scalar
//!   merge/gallop) and once enabled (SSE2/AVX2 block compare). The
//!   workload is merge-shaped on purpose: comparable cluster sizes stay
//!   under the gallop ratio, which is exactly the path the kernel
//!   vectorizes. Acceptance bar: `simd` beats `scalar` on every shape.

use criterion::{black_box, criterion_group, Criterion};
use dynfd_datagen::{GeneratedDataset, PAPER_PROFILES};
use dynfd_relation::{intersect_clusters, kernel, DynamicRelation};

/// Top clusters taken per attribute for the kernel workload: 12×12
/// pairwise intersections per shape.
const TOP_CLUSTERS: usize = 12;

fn scale_rows() -> usize {
    std::env::var("DYNFD_SCALE_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000)
}

/// The two attributes with the most non-singleton clusters — the PLIs
/// that carry the intersection work.
fn busiest_pair(rel: &DynamicRelation) -> (usize, usize) {
    let mut ranked: Vec<(usize, usize)> = (0..rel.arity())
        .map(|a| (rel.pli(a).non_singleton_count(), a))
        .collect();
    ranked.sort_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)));
    (ranked[0].1, ranked[1].1)
}

/// The `n` largest non-singleton clusters of an attribute, largest
/// first, cloned out so the borrow doesn't pin the relation.
fn top_clusters(rel: &DynamicRelation, attr: usize, n: usize) -> Vec<Vec<u32>> {
    let mut clusters: Vec<Vec<u32>> = rel
        .pli(attr)
        .iter_non_singleton()
        .map(|(_, c)| c.to_vec())
        .collect();
    clusters.sort_by_key(|c| std::cmp::Reverse(c.len()));
    clusters.truncate(n);
    clusters
}

fn bench_kernel(c: &mut Criterion) {
    c.sample_size(dynfd_bench::bench_samples(15));
    let rows = scale_rows();

    for profile in PAPER_PROFILES {
        let mut p = profile.scaled_to_rows(rows);
        p.changes = 0; // the kernel sweep needs only the initial rows
        eprintln!(
            "[kernel] generating {} at {} rows...",
            p.name, p.initial_rows
        );
        let data = GeneratedDataset::generate(&p);
        let rel = data.to_relation();
        let (a, b) = busiest_pair(&rel);
        let left = top_clusters(&rel, a, TOP_CLUSTERS);
        let right = top_clusters(&rel, b, TOP_CLUSTERS);
        if left.is_empty() || right.is_empty() {
            continue;
        }
        let slot_rids = rel.slot_rids();
        let workload = |out: &mut Vec<u32>| {
            let mut total = 0usize;
            for l in &left {
                for r in &right {
                    out.clear();
                    intersect_clusters(black_box(l), black_box(r), slot_rids, out);
                    total += out.len();
                }
            }
            total
        };
        let (mut out_scalar, mut out_simd) = (Vec::new(), Vec::new());

        // Interleaved A/B samples: the kernel flavor is flipped in the
        // (untimed) setup hook, so every scalar sample has a simd
        // neighbor taken under the same instantaneous machine load.
        let mut group = c.benchmark_group(format!("kernel/{}", p.name));
        group.bench_pair(
            "scalar",
            || kernel::set_simd_enabled(false),
            |_| workload(&mut out_scalar),
            "simd",
            || kernel::set_simd_enabled(true),
            |_| workload(&mut out_simd),
        );
        group.finish();
    }
    kernel::set_simd_enabled(true);
}

criterion_group!(benches, bench_kernel);

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    benches();
    criterion::write_json_report(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr9.json"),
        &[
            ("bench", "simd kernel sweep".into()),
            ("kernel_rows_per_shape", scale_rows().into()),
            ("detected_kernel", kernel::detected_kernel().name().into()),
            ("kernel_lanes", kernel::detected_kernel().lanes().into()),
            ("available_cores", cores.into()),
        ],
        &|_| Vec::new(),
    )
    .expect("write BENCH_pr9.json");
}
