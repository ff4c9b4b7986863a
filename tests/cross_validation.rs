//! The strongest end-to-end correctness check available without the
//! original authors' code: after every batch, DynFD's maintained
//! positive cover must be identical to what each of the three static
//! algorithms discovers from scratch on the materialized relation —
//! under every pruning configuration.
//!
//! Since the testkit landed, this suite drives `dynfd-testkit`'s
//! differential runner instead of a private trace generator: every test
//! below gets the full oracle sweep (TANE, FDEP, HyFD after every
//! batch), the four metamorphic invariants, and the end-of-trace deep
//! consistency check for free. Failing traces can be handed straight to
//! `dynfd_testkit::shrink_trace` for minimization.

use dynfd::core::DynFdConfig;
use dynfd_testkit::{check_trace, RunnerOptions, Trace, TraceOp, TraceProfile};

/// Runs the full differential + metamorphic battery and panics with the
/// failure report on any discrepancy.
fn check(trace: &Trace, opts: &RunnerOptions) {
    if let Err(failure) = check_trace(trace, opts) {
        panic!("seed {} ({}): {failure}", trace.seed, trace.profile);
    }
}

#[test]
fn every_config_tracks_static_discovery_small() {
    // One trace per data shape, each replayed under all 32
    // configurations (the §6.5 ablation matrix crossed with the
    // PLI-cache axis).
    let opts = RunnerOptions::default();
    assert_eq!(opts.configs.len(), 32, "ablation matrix is the default");
    for profile in [TraceProfile::Uniform, TraceProfile::KeyHeavy] {
        check(&Trace::generate(profile, 1), &opts);
    }
}

#[test]
fn default_config_many_seeds() {
    let opts = RunnerOptions::focused(DynFdConfig::default(), None);
    for seed in 0..8 {
        for profile in TraceProfile::ALL {
            check(&Trace::generate(profile, seed), &opts);
        }
    }
}

#[test]
fn baseline_config_many_seeds() {
    let opts = RunnerOptions::focused(DynFdConfig::baseline(), None);
    for seed in 100..106 {
        for profile in [
            TraceProfile::Uniform,
            TraceProfile::ZipfSkewed,
            TraceProfile::NullHeavy,
        ] {
            check(&Trace::generate(profile, seed), &opts);
        }
    }
}

#[test]
fn wider_relations_fewer_seeds() {
    // The generator makes ~20 % of traces wide (9–12 columns); scan a
    // deterministic seed range and take the first few wide ones.
    let opts = RunnerOptions::focused(DynFdConfig::default(), None);
    let mut wide = 0;
    for seed in 200..300 {
        let trace = Trace::generate(TraceProfile::Uniform, seed);
        if trace.arity() >= 9 {
            check(&trace, &opts);
            wide += 1;
            if wide == 2 {
                return;
            }
        }
    }
    panic!("no wide traces in the scanned seed range");
}

#[test]
fn large_batches_rewrite_most_of_the_relation() {
    // Batches bigger than the relation stress the churn paths: take
    // normal traces and replay the whole script as one batch.
    let opts = RunnerOptions::focused(DynFdConfig::default(), None);
    for seed in 300..304 {
        let mut trace = Trace::generate(TraceProfile::AllDuplicates, seed);
        trace.batch_size = trace.ops.len().max(1);
        check(&trace, &opts);
    }
}

#[test]
fn delete_heavy_streams() {
    // Seed a large relation and drain most of it — a hand-built trace
    // showing the testkit accepts manual scripts, not just generated
    // ones.
    let base = Trace::generate(TraceProfile::ZipfSkewed, 777);
    let trace = Trace {
        seed: 0,
        profile: "manual".to_string(),
        schema: base.schema.clone(),
        initial_rows: base.initial_rows.clone(),
        // DeleteNth indexes the live list modulo its length, so a long
        // run of deletes drains the relation from varying positions.
        ops: (0..base.initial_rows.len().saturating_sub(3))
            .map(|i| TraceOp::DeleteNth(i * 7))
            .collect(),
        batch_size: 6,
    };
    for config in [DynFdConfig::default(), DynFdConfig::baseline()] {
        check(&trace, &RunnerOptions::focused(config, None));
    }
}
