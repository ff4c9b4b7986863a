//! The DynFD benchmark: three workloads, each run either timed (the
//! end-to-end metrics, no tracing) or traced (the per-layer metrics).
//!
//! * `disease-updates` and `artist-large` replay a paper-shaped change
//!   history through an in-process [`dynfd_core::DynFd`] (see
//!   [`engine`]);
//! * `serve-window` drives the real `dynfd serve --multi` binary over a
//!   unix socket with two closed-loop session clients (see [`serve`]).
//!
//! Every run checks its own output against an oracle; a mismatch makes
//! the report incorrect and the command fail. WORKLOADS.md has the
//! sizes, the reasons and the layer-to-metric predictions.

pub mod engine;
pub mod history;
pub mod serve;
pub mod stats;
pub mod trace;

use std::path::{Path, PathBuf};

/// The benchmark's workloads, by their command-line names.
pub const WORKLOADS: [&str; 3] = ["disease-updates", "artist-large", "serve-window"];

/// Input size: the measured scale, or a seconds-long smoke scale that
/// the benchmark's own tests run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// How `serve-window` starts its server.
#[derive(Clone, Debug)]
pub enum ServerKind {
    /// Spawn this `dynfd` executable as `serve --multi --listen`.
    Binary(PathBuf),
    /// Run the same listener on a thread of this process (smoke tests,
    /// which cannot build the binary themselves).
    InProcess,
}

#[derive(Clone, Debug)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// Measurement budget of a timed run.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub server: ServerKind,
    /// Scratch space for server roots, sockets and span files.
    pub out_dir: PathBuf,
}

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run prints.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub correct: bool,
    /// Change operations offered to the program.
    pub attempted: u64,
    /// Change operations it failed or rejected.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one workload as `opts` asks.
pub fn run(opts: &Options) -> Result<Report, String> {
    match opts.workload.as_str() {
        "disease-updates" | "artist-large" => {
            let spec = engine::EngineSpec::named(&opts.workload, opts.scale)?;
            if opts.trace {
                engine::traced(&spec, opts)
            } else {
                engine::timed(&spec, opts)
            }
        }
        "serve-window" => {
            let spec = serve::ServeSpec::at(opts.scale);
            if opts.trace {
                serve::traced(&spec, opts)
            } else {
                serve::timed(&spec, opts)
            }
        }
        other => Err(format!(
            "unknown workload {other:?} (want one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Mixes the benchmark seed into a workload's base seed.
pub fn mix_seed(base: u64, seed: u64) -> u64 {
    let mut x = base ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Peak resident memory (`VmHWM`) of process `pid` ("self" for this
/// one), in bytes.
pub fn peak_rss_bytes(pid: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| format!("read {}: {e}", dir.display()))?;
        let meta = entry
            .metadata()
            .map_err(|e| format!("stat {}: {e}", entry.path().display()))?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

pub const MB: f64 = 1024.0 * 1024.0;
