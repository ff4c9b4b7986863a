//! Smoke scale of every workload, so the benchmark cannot rot: each
//! run must pass its correctness gate and print every metric
//! BENCHMARK.json names, and the traced work counters must repeat
//! exactly for a fixed seed.
//!
//! `serve-window` runs its listener in-process here (the test cannot
//! build the `dynfd` binary); set `DYNFD_BIN` to drive the real binary.

use dynfd_perfbench::{run, Options, Report, Scale, ServerKind, WORKLOADS};
use std::path::PathBuf;

fn options(workload: &str, trace: bool, tag: &str) -> Options {
    let server = std::env::var_os("DYNFD_BIN")
        .map(|bin| ServerKind::Binary(PathBuf::from(bin)))
        .unwrap_or(ServerKind::InProcess);
    Options {
        workload: workload.to_string(),
        seed: 11,
        // Below one episode: every run does exactly the minimum.
        seconds: 0.001,
        trace,
        scale: Scale::Smoke,
        server,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}")),
    }
}

/// The metric names one section of BENCHMARK.json declares.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("quoted name")].to_string())
        .collect()
}

fn assert_reports(report: &Report, section: &str, workload: &str) {
    assert!(report.correct, "{workload}: correctness gate failed");
    assert_eq!(report.failed, 0, "{workload}: operations failed");
    assert!(report.attempted > 0);
    for name in declared(section) {
        let value = report
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
    let json = report.to_json();
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
}

#[test]
fn every_workload_passes_its_gate_and_prints_every_metric() {
    for workload in WORKLOADS {
        let timed = run(&options(workload, false, &format!("timed-{workload}")))
            .unwrap_or_else(|e| panic!("{workload}: {e}"));
        assert_reports(&timed, "end_to_end", workload);
        for name in declared("end_to_end") {
            assert!(timed.get(&name).unwrap() > 0.0, "{workload}: {name} is 0");
        }
        let traced = run(&options(workload, true, &format!("traced-{workload}")))
            .unwrap_or_else(|e| panic!("{workload}: {e}"));
        assert_reports(&traced, "per_layer", workload);
    }
}

#[test]
fn work_counters_repeat_exactly_for_a_seed() {
    for workload in WORKLOADS {
        let counters = |tag: &str| -> Vec<(&'static str, f64)> {
            let report = run(&options(workload, true, &format!("det-{workload}-{tag}")))
                .unwrap_or_else(|e| panic!("{workload}: {e}"));
            report
                .metrics
                .iter()
                .filter(|m| {
                    let work = m.name.starts_with("core.")
                        || m.name.starts_with("relation.")
                        || m.name == "persist.wal_bytes_per_change";
                    work && m.unit != "s" && m.unit != "ms"
                })
                .map(|m| (m.name, m.value))
                .collect()
        };
        let first = counters("a");
        assert!(first.len() >= 10, "{workload}: {first:?}");
        assert_eq!(first, counters("b"), "{workload}: counters drifted");
    }
}
