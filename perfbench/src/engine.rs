//! The in-process engine workloads: a paper-shaped change history
//! replayed through [`DynFd`] in batches of 100.

use crate::stats::{median, ratio, Latency};
use crate::trace::Tracer;
use crate::{mix_seed, peak_rss_bytes, Options, Report, Scale, MB};
use dynfd_core::{BatchMetrics, DynFd, DynFdConfig};
use dynfd_datagen::{DatasetProfile, GeneratedDataset, PAPER_PROFILES};
use dynfd_relation::{Batch, DynamicRelation};
use std::time::{Duration, Instant};

/// A timed run repeats set-up and replay at least this often, so set-up
/// time and every latency figure are medians over episodes.
pub const MIN_EPISODES: usize = 3;

/// A timed run starts no new episode after this much wall time, so it
/// ends well inside its time limit whatever the machine's speed.
const WALL_CAP: Duration = Duration::from_secs(100);

/// One engine workload's shape.
#[derive(Clone, Debug)]
pub struct EngineSpec {
    pub name: &'static str,
    /// The paper profile whose width, change mix and column structure
    /// the workload keeps.
    pub profile: &'static DatasetProfile,
    pub rows: usize,
    /// Changes replayed per episode.
    pub changes: usize,
    /// Dirty bursts in the history (see `DatasetProfile::bursts`).
    pub bursts: usize,
    pub batch_size: usize,
}

fn paper_profile(name: &str) -> &'static DatasetProfile {
    PAPER_PROFILES
        .iter()
        .find(|p| p.name == name)
        .expect("a paper profile of that name exists")
}

impl EngineSpec {
    pub fn named(name: &str, scale: Scale) -> Result<EngineSpec, String> {
        let smoke = scale == Scale::Smoke;
        let disease = paper_profile("disease");
        let (name, profile, rows, changes, bursts) = match name {
            "disease-updates" => (
                "disease-updates",
                disease,
                if smoke { 300 } else { 1_600 },
                if smoke { 1_000 } else { 40_000 },
                disease.bursts,
            ),
            // No dirty bursts: this workload is about cache pressure, and
            // a burst landing in one of its 100 batches decides a run's
            // throughput by itself.
            "artist-large" => (
                "artist-large",
                paper_profile("artist"),
                if smoke { 3_000 } else { 100_000 },
                if smoke { 400 } else { 10_000 },
                0,
            ),
            other => return Err(format!("{other:?} is not an engine workload")),
        };
        Ok(EngineSpec {
            name,
            profile,
            rows,
            changes,
            bursts,
            batch_size: 100,
        })
    }

    /// The workload's inputs for `seed`: the profile's table at this
    /// spec's size, with its dirty bursts shortened in proportion so
    /// they keep their share of the history.
    pub fn generate(&self, seed: u64) -> GeneratedDataset {
        let p = self.profile;
        let burst_len = (p.burst_len * self.changes / p.changes).max(4);
        let profile = DatasetProfile {
            initial_rows: self.rows,
            changes: self.changes,
            bursts: self.bursts,
            burst_len,
            ..p.clone()
        };
        crate::history::generate(&profile, mix_seed(p.seed, seed))
    }
}

fn relation_of(data: &GeneratedDataset) -> Result<DynamicRelation, String> {
    DynamicRelation::from_rows(data.schema.clone(), &data.initial_rows)
        .map_err(|e| format!("initial rows rejected: {e}"))
}

/// What one set-up plus replay measured.
struct Episode {
    setup: Duration,
    apply: Vec<Duration>,
    failed_ops: u64,
    resident_bytes: usize,
    snapshot_bytes: usize,
}

impl Episode {
    fn apply_total(&self) -> Duration {
        self.apply.iter().sum()
    }
}

/// Hands the initial rows to a fresh engine, then replays every batch.
fn episode(data: &GeneratedDataset, batches: &[Batch]) -> Result<(Episode, DynFd), String> {
    let start = Instant::now();
    let mut engine = DynFd::new(relation_of(data)?, DynFdConfig::default());
    let setup = start.elapsed();
    let mut apply = Vec::with_capacity(batches.len());
    let mut failed_ops = 0;
    for batch in batches {
        let start = Instant::now();
        let outcome = std::hint::black_box(engine.apply_batch(batch));
        apply.push(start.elapsed());
        if outcome.is_err() {
            failed_ops += batch.len() as u64;
        }
    }
    let episode = Episode {
        setup,
        apply,
        failed_ops,
        resident_bytes: engine.resident_bytes(),
        snapshot_bytes: dynfd_persist::snapshot::encode_snapshot(0, &engine).len(),
    };
    Ok((episode, engine))
}

/// Whether `engine`'s positive cover equals a static HyFD run on its
/// relation.
fn matches_oracle(engine: &DynFd) -> bool {
    dynfd_static::hyfd::discover(engine.relation()).all_fds() == engine.minimal_fds()
}

/// The timed run: episodes until the budget is spent, end-to-end
/// metrics as medians over episodes.
pub fn timed(spec: &EngineSpec, opts: &Options) -> Result<Report, String> {
    let data = spec.generate(opts.seed);
    let batches = data.batches(spec.batch_size, None);
    let changes: usize = batches.iter().map(Batch::len).sum();

    let started = Instant::now();
    let mut measured = Duration::ZERO;
    let mut episodes: Vec<Episode> = Vec::new();
    let mut last: Option<DynFd> = None;
    let mut covers_agree = true;
    let mut first_cover = None;
    while episodes.len() < MIN_EPISODES
        || (measured.as_secs_f64() < opts.seconds && started.elapsed() < WALL_CAP)
    {
        drop(last.take());
        let (ep, engine) = episode(&data, &batches)?;
        measured += ep.setup + ep.apply_total();
        let cover = engine.minimal_fds();
        match &first_cover {
            None => first_cover = Some(cover),
            Some(first) => covers_agree &= *first == cover,
        }
        episodes.push(ep);
        last = Some(engine);
    }
    let rss = peak_rss_bytes("self")? as f64;
    let engine = last.expect("at least one episode ran");

    let mut report = Report {
        attempted: (changes * episodes.len()) as u64,
        failed: episodes.iter().map(|e| e.failed_ops).sum(),
        ..Report::default()
    };
    report.correct = report.failed == 0 && covers_agree && matches_oracle(&engine);

    let per = |f: &dyn Fn(&Episode) -> f64| median(&episodes.iter().map(f).collect::<Vec<_>>());
    let lat: Vec<Latency> = episodes.iter().map(|e| Latency::of(&e.apply)).collect();
    let lat_med = |f: &dyn Fn(&Latency) -> f64| median(&lat.iter().map(f).collect::<Vec<_>>());
    let p50 = lat_med(&|l| l.p50_ms);
    let tail = lat_med(&|l| l.tail_ms);
    let setup = per(&|e| e.setup.as_secs_f64());
    report.push("setup_s", setup, "s");
    report.push(
        "changes_per_s",
        per(&|e| changes as f64 / e.apply_total().as_secs_f64()),
        "1/s",
    );
    report.push("batch_p50_ms", p50, "ms");
    report.push("batch_tail_ms", tail, "ms");
    report.push("resident_mb", per(&|e| e.resident_bytes as f64 / MB), "MB");
    report.push(
        "acks_per_s",
        per(&|e| batches.len() as f64 / e.apply_total().as_secs_f64()),
        "1/s",
    );
    report.push("ack_p50_ms", p50, "ms");
    report.push("ack_tail_ms", tail, "ms");
    report.push("server_rss_mb", rss / MB, "MB");
    report.push("disk_mb", per(&|e| e.snapshot_bytes as f64 / MB), "MB");
    report.notes.push(format!(
        "{}: {} rows x {} columns, {} changes in {} batches per episode, {} episodes; \
         tail = p{} of {} batches per episode",
        spec.name,
        data.initial_rows.len(),
        data.schema.arity(),
        changes,
        batches.len(),
        episodes.len(),
        lat[0].tail_pct,
        lat[0].samples,
    ));
    Ok(report)
}

/// Work counters and layer timings every traced workload reports for
/// the relation, core, static-discovery and lattice layers.
pub struct CoreLayers {
    pub totals: BatchMetrics,
    pub batches: usize,
    pub load_s: f64,
    pub bootstrap_s: f64,
    pub invert_s: f64,
    pub rediscover_s: f64,
    pub pos_fds: usize,
    pub neg_fds: usize,
}

impl CoreLayers {
    /// Pushes the layer metrics; `tracer` supplies the per-batch span
    /// timings.
    pub fn push(&self, tracer: &Tracer, report: &mut Report) {
        let spans = tracer.summary();
        let per_batch_ms = |name: &str, own: bool| {
            spans.get(name).map_or(0.0, |&(_, total, self_time)| {
                let d = if own { self_time } else { total };
                d.as_secs_f64() * 1e3 / self.batches.max(1) as f64
            })
        };
        let m = &self.totals;
        report.push("staticfd.bootstrap_s", self.bootstrap_s, "s");
        report.push("staticfd.rediscover_s", self.rediscover_s, "s");
        report.push("lattice.invert_s", self.invert_s, "s");
        report.push("lattice.pos_fds", self.pos_fds as f64, "count");
        report.push("lattice.neg_fds", self.neg_fds as f64, "count");
        report.push("relation.load_s", self.load_s, "s");
        report.push(
            "relation.apply_ms",
            per_batch_ms("relation.apply", false),
            "ms",
        );
        report.push(
            "relation.cache_hit_ratio",
            ratio(m.cache_hits as f64, (m.cache_hits + m.cache_misses) as f64),
            "ratio",
        );
        report.push(
            "relation.cache_evictions",
            m.cache_evictions as f64,
            "count",
        );
        report.push("relation.cache_mb", m.cache_bytes as f64 / MB, "MB");
        report.push(
            "relation.clusters_visited",
            m.clusters_visited as f64,
            "count",
        );
        report.push(
            "relation.cluster_prune_ratio",
            ratio(
                m.clusters_pruned as f64,
                (m.clusters_pruned + m.clusters_visited) as f64,
            ),
            "ratio",
        );
        report.push(
            "core.delete_ms",
            per_batch_ms("core.delete_phase", false),
            "ms",
        );
        report.push(
            "core.insert_ms",
            per_batch_ms("core.insert_phase", false),
            "ms",
        );
        report.push(
            "core.other_ms",
            per_batch_ms("core.apply_batch", true),
            "ms",
        );
        report.push("core.fd_validations", m.fd_validations as f64, "count");
        report.push(
            "core.non_fd_validations",
            m.non_fd_validations as f64,
            "count",
        );
        report.push("core.comparisons", m.comparisons as f64, "count");
        report.push("core.dfs_seeds", m.dfs_seeds as f64, "count");
        report.push(
            "core.validation_skip_ratio",
            ratio(
                m.validations_skipped as f64,
                (m.validations_skipped + m.non_fd_validations) as f64,
            ),
            "ratio",
        );
        report.push(
            "core.ordering_skip_ratio",
            ratio(m.sampling_skipped as f64, m.sampling_probes as f64),
            "ratio",
        );
        report.push("trace.unattributed_ms", per_batch_ms("batch", true), "ms");
    }
}

/// Replays `batches` through a shadow relation and an engine, one
/// `batch` span per batch with the two layer calls as children and the
/// engine's phase timers under its call. `batch_ids` offsets the shared
/// batch ids.
pub fn traced_replay(
    tracer: &mut Tracer,
    shadow: &mut DynamicRelation,
    engine: &mut DynFd,
    batches: &[Batch],
    batch_ids: u64,
    totals: &mut BatchMetrics,
) -> Result<(), String> {
    for (i, batch) in batches.iter().enumerate() {
        let id = batch_ids + i as u64;
        let root = tracer.begin("batch", None, id);
        let (_, shadow_out) = tracer.span("relation.apply", Some(root), id, || {
            shadow.apply_batch(batch)
        });
        shadow_out.map_err(|e| format!("shadow relation rejected batch {id}: {e}"))?;
        let (call, out) = tracer.span("core.apply_batch", Some(root), id, || {
            engine.apply_batch(batch)
        });
        let m = out
            .map_err(|e| format!("engine rejected batch {id}: {e}"))?
            .metrics;
        tracer.attach(
            "core.delete_phase",
            call,
            Duration::ZERO,
            m.delete_phase_time,
        );
        tracer.attach(
            "core.insert_phase",
            call,
            m.delete_phase_time,
            m.insert_phase_time,
        );
        tracer.end(root);
        totals.absorb(&m);
    }
    Ok(())
}

/// Bootstraps an engine layer by layer under spans: relation build,
/// HyFD, cover inversion. Returns the engine, a shadow copy of the
/// initial relation, and the three set-up times in seconds.
pub fn traced_setup(
    tracer: &mut Tracer,
    schema: &dynfd_common::Schema,
    rows: &[Vec<String>],
) -> Result<(DynFd, DynamicRelation, [f64; 3]), String> {
    let (load, rel) = tracer.span("relation.load", None, 0, || {
        DynamicRelation::from_rows(schema.clone(), rows)
    });
    let rel = rel.map_err(|e| format!("initial rows rejected: {e}"))?;
    let (boot, fds) = tracer.span("staticfd.bootstrap", None, 0, || {
        dynfd_static::hyfd::discover(&rel)
    });
    let (invert, _) = tracer.span("lattice.invert", None, 0, || {
        std::hint::black_box(dynfd_lattice::invert_positive_cover(&fds, rel.arity()))
    });
    let shadow = rel.clone();
    let engine = DynFd::with_cover(rel, fds, DynFdConfig::default());
    let secs = |id| tracer.duration(id).as_secs_f64();
    Ok((engine, shadow, [secs(load), secs(boot), secs(invert)]))
}

/// The traced run: one untraced episode as the reference, then the
/// same batches replayed at the relation and engine boundaries.
pub fn traced(spec: &EngineSpec, opts: &Options) -> Result<Report, String> {
    let data = spec.generate(opts.seed);
    let batches = data.batches(spec.batch_size, None);
    let (untraced, _) = episode(&data, &batches)?;

    let mut tracer = Tracer::default();
    let (mut engine, mut shadow, [load_s, bootstrap_s, invert_s]) =
        traced_setup(&mut tracer, &data.schema, &data.initial_rows)?;
    let mut totals = BatchMetrics::default();
    traced_replay(
        &mut tracer,
        &mut shadow,
        &mut engine,
        &batches,
        0,
        &mut totals,
    )?;
    let (rediscover, oracle) = tracer.span("staticfd.rediscover", None, 0, || {
        dynfd_static::hyfd::discover(engine.relation())
    });

    let mut report = Report {
        attempted: batches.iter().map(|b| b.len() as u64).sum(),
        failed: untraced.failed_ops,
        ..Report::default()
    };
    report.correct = untraced.failed_ops == 0
        && oracle.all_fds() == engine.minimal_fds()
        && shadow.len() == engine.relation().len();
    let layers = CoreLayers {
        totals,
        batches: batches.len(),
        load_s,
        bootstrap_s,
        invert_s,
        rediscover_s: tracer.duration(rediscover).as_secs_f64(),
        pos_fds: engine.positive_cover().len(),
        neg_fds: engine.negative_cover().len(),
    };
    layers.push(&tracer, &mut report);
    for name in [
        "persist.apply_ms",
        "persist.wal_bytes_per_change",
        "persist.fsyncs_per_batch",
        "persist.snapshot_ms",
        "serve.inproc_p50_ms",
        "serve.inproc_tail_ms",
        "serve.transport_ms",
        "serve.resident_mb",
        "serve.rejected",
    ] {
        // This workload never reaches the durable or serve layers.
        report.push(name, 0.0, unit_of(name));
    }
    let spans = tracer.summary();
    let traced_ms = spans["core.apply_batch"].1.as_secs_f64() * 1e3 / batches.len() as f64;
    let untraced_ms = untraced.apply_total().as_secs_f64() * 1e3 / batches.len() as f64;
    report.push("trace.overhead_ms", traced_ms - untraced_ms, "ms");
    let path = opts
        .out_dir
        .join(format!("trace-{}-seed{}.jsonl", spec.name, opts.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    report.notes.push(format!(
        "{}: {} spans written to {}",
        spec.name,
        spans.values().map(|s| s.0).sum::<usize>(),
        path.display()
    ));
    Ok(report)
}

/// Unit of a per-layer metric, from its name's suffix.
pub fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_mb") {
        "MB"
    } else if name.ends_with("_ratio") {
        "ratio"
    } else if name.ends_with("_per_change") {
        "B"
    } else {
        "count"
    }
}
