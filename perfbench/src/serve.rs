//! `serve-window`: the durable multi-tenant socket server under two
//! closed-loop session clients.
//!
//! Each client owns a few small tenants and cycles over them, one batch
//! in flight at a time. Every batch deletes a tenant's oldest rows and
//! inserts as many new ones, so live rows stay constant while the
//! `key` column never repeats a value (the dictionary keeps growing).

use crate::engine::{traced_setup, CoreLayers};
use crate::stats::{median, Latency};
use crate::trace::Tracer;
use crate::{dir_bytes, mix_seed, peak_rss_bytes, Options, Report, Scale, ServerKind, MB};
use dynfd_common::{RecordId, Schema};
use dynfd_core::{BatchMetrics, DynFd, DynFdConfig};
use dynfd_persist::FdEngine;
use dynfd_relation::Batch;
use dynfd_serve::{
    serve_listener, ConnOptions, ListenAddr, RetryPolicy, ServeConfig, ServeEngine, SessionClient,
    SessionRegistry, TransportConfig,
};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const COLUMNS: [&str; 6] = ["key", "grp", "region", "cls", "mix", "echo"];

/// A timed run starts no new episode after this much wall time.
const WALL_CAP: Duration = Duration::from_secs(100);

#[derive(Clone, Debug)]
pub struct ServeSpec {
    pub connections: usize,
    pub tenants_per_connection: usize,
    pub rows: usize,
    /// Rows each batch deletes and inserts (a batch is twice this many
    /// operations).
    pub churn: usize,
    /// Batches each connection sends per episode.
    pub batches_per_connection: usize,
}

impl ServeSpec {
    pub fn at(scale: Scale) -> ServeSpec {
        let smoke = scale == Scale::Smoke;
        ServeSpec {
            connections: 2,
            tenants_per_connection: 3,
            rows: if smoke { 40 } else { 200 },
            churn: 4,
            batches_per_connection: if smoke { 90 } else { 900 },
        }
    }

    fn tenants(&self) -> usize {
        self.connections * self.tenants_per_connection
    }

    fn batches_per_tenant(&self) -> usize {
        self.batches_per_connection / self.tenants_per_connection
    }

    fn ops_per_batch(&self) -> usize {
        2 * self.churn
    }
}

/// One tenant's inputs.
pub struct TenantData {
    pub name: String,
    pub schema: Schema,
    pub initial: Vec<Vec<String>>,
    pub batches: Vec<Batch>,
}

/// Row `k` of a tenant: a unique key, then columns with real FDs
/// (`grp -> region`, `grp,cls -> mix`) and one noisy copy (`echo`
/// mostly follows `region`) whose FD appears and disappears as rows
/// churn through the window.
fn row(tenant_seed: u64, k: u64) -> Vec<String> {
    let h = mix_seed(tenant_seed, k);
    let grp = h % 40;
    let region = grp % 8;
    let cls = (h >> 16) % 5;
    let mix = (grp + cls) % 6;
    let echo = if (h >> 32).is_multiple_of(50) {
        (h >> 40) % 8
    } else {
        region
    };
    vec![
        format!("k{k}"),
        format!("g{grp}"),
        format!("r{region}"),
        format!("c{cls}"),
        format!("m{mix}"),
        format!("e{echo}"),
    ]
}

pub fn tenant_data(spec: &ServeSpec, seed: u64) -> Vec<TenantData> {
    (0..spec.tenants())
        .map(|t| {
            let tenant_seed = mix_seed(0x5E4E, seed ^ ((t as u64) << 48));
            let n = spec.rows as u64;
            let churn = spec.churn as u64;
            let initial = (0..n).map(|k| row(tenant_seed, k)).collect();
            // Ids run 0..n for the initial rows, then one per insert in
            // order, so batch b's oldest live rows are b*churn.. onward.
            let batches = (0..spec.batches_per_tenant() as u64)
                .map(|b| {
                    let mut batch = Batch::new();
                    for j in 0..churn {
                        batch.delete(RecordId(b * churn + j));
                    }
                    for j in 0..churn {
                        batch.insert(row(tenant_seed, n + b * churn + j));
                    }
                    batch
                })
                .collect();
            TenantData {
                name: format!("t{t}"),
                schema: Schema::new(format!("t{t}"), COLUMNS.map(String::from).to_vec()),
                initial,
                batches,
            }
        })
        .collect()
}

/// The running server of one episode; dropping it stops the server.
struct Server {
    handle: ServerHandle,
    pid: String,
}

enum ServerHandle {
    Child(Child),
    Thread {
        stop: Arc<AtomicBool>,
        join: Option<JoinHandle<Result<(), String>>>,
    },
}

impl Server {
    fn start(kind: &ServerKind, sock: &Path, root: &Path) -> Result<Server, String> {
        let server = match kind {
            ServerKind::Binary(bin) => {
                let child = Command::new(bin)
                    .args(["serve", "--multi", "--listen"])
                    .arg(format!("unix:{}", sock.display()))
                    .arg("--root")
                    .arg(root)
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .spawn()
                    .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
                Server {
                    pid: child.id().to_string(),
                    handle: ServerHandle::Child(child),
                }
            }
            ServerKind::InProcess => {
                let stop = Arc::new(AtomicBool::new(false));
                let join = {
                    let stop = Arc::clone(&stop);
                    let (sock, root) = (sock.to_path_buf(), root.to_path_buf());
                    std::thread::spawn(move || serve_in_process(&sock, &root, &stop))
                };
                Server {
                    pid: "self".into(),
                    handle: ServerHandle::Thread {
                        stop,
                        join: Some(join),
                    },
                }
            }
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        while !sock.exists() {
            if Instant::now() > deadline {
                return Err("server never bound its socket".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(server)
    }

    /// Waits for the server to exit after a `Shutdown` request.
    fn wait(mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        match &mut self.handle {
            ServerHandle::Child(child) => loop {
                match child
                    .try_wait()
                    .map_err(|e| format!("wait for server: {e}"))?
                {
                    Some(status) if status.success() => return Ok(()),
                    Some(status) => return Err(format!("server exited with {status}")),
                    None if Instant::now() > deadline => {
                        return Err("server did not exit after shutdown".into())
                    }
                    None => std::thread::sleep(Duration::from_millis(2)),
                }
            },
            ServerHandle::Thread { join, .. } => join
                .take()
                .expect("joined once")
                .join()
                .map_err(|_| "server thread panicked".to_string())?,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        match &mut self.handle {
            ServerHandle::Child(child) => {
                if let Ok(None) = child.try_wait() {
                    let _ = child.kill();
                }
                let _ = child.wait();
            }
            ServerHandle::Thread { stop, join } => {
                stop.store(true, Ordering::SeqCst);
                if let Some(join) = join.take() {
                    let _ = join.join();
                }
            }
        }
    }
}

/// What `dynfd serve --multi --listen` runs, on a thread of this
/// process.
fn serve_in_process(sock: &Path, root: &Path, stop: &AtomicBool) -> Result<(), String> {
    let engine = Arc::new(ServeEngine::new(ServeConfig {
        root: Some(root.to_path_buf()),
        ..ServeConfig::default()
    }));
    let options = ConnOptions {
        sessions: Some(Arc::new(SessionRegistry::default())),
        ..ConnOptions::default()
    };
    serve_listener(
        &engine,
        &ListenAddr::Unix(sock.to_path_buf()),
        TransportConfig {
            options,
            ..TransportConfig::default()
        },
        || stop.load(Ordering::SeqCst),
    )
    .map_err(|e| format!("listener: {e}"))?;
    let mut engine = engine;
    for _ in 0..500 {
        match Arc::try_unwrap(engine) {
            Ok(engine) => {
                engine.shutdown();
                return Ok(());
            }
            Err(shared) => {
                engine = shared;
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    Err("serve engine still shared after the listener stopped".into())
}

/// A batch's shared id with its submit and completion instants.
type BatchSpan = (u64, Instant, Instant);

/// One client's view of an episode.
struct ClientRun {
    /// Per batch: tenant index, batch index, send and ack instants,
    /// whether it was applied.
    acks: Vec<(usize, usize, Instant, Instant, bool)>,
    finished: Instant,
}

/// What one socket episode measured.
struct Episode {
    setup: Duration,
    wall: Duration,
    rtts: Vec<Duration>,
    acked: u64,
    failed_ops: u64,
    rss_bytes: u64,
    disk_bytes: u64,
    resident_bytes: u64,
    correct: bool,
    /// Send and ack instants per batch, with its shared batch id.
    spans: Vec<(u64, Instant, Instant)>,
}

/// Scratch directory of one episode: the server root and the socket.
/// Relative to the working directory, which keeps the socket path short.
fn episode_dir(opts: &Options, tag: &str) -> Result<PathBuf, String> {
    let dir = opts
        .out_dir
        .join(format!("serve-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn client_thread(
    spec: &ServeSpec,
    data: &Arc<Vec<TenantData>>,
    sock: &Path,
    conn: usize,
    start: &Arc<Barrier>,
) -> JoinHandle<Result<ClientRun, String>> {
    let (data, start, sock) = (Arc::clone(data), Arc::clone(start), sock.to_path_buf());
    let tenants: Vec<usize> =
        (conn * spec.tenants_per_connection..(conn + 1) * spec.tenants_per_connection).collect();
    let batches = spec.batches_per_connection;
    std::thread::spawn(move || {
        let mut client = SessionClient::new(
            ListenAddr::Unix(sock),
            format!("bench-c{conn}"),
            RetryPolicy::default(),
        );
        let mut opened = Ok(());
        for &t in &tenants {
            let d = &data[t];
            opened = match client.open(&d.name, d.schema.columns(), &d.initial) {
                Ok(r) if r.code == 0 => Ok(()),
                Ok(r) => Err(format!("open {}: code {} ({})", d.name, r.code, r.detail)),
                Err(e) => Err(format!("open {}: {e}", d.name)),
            };
            if opened.is_err() {
                break;
            }
        }
        // Release the barrier either way so the episode cannot hang.
        start.wait();
        opened?;
        let mut acks = Vec::with_capacity(batches);
        for i in 0..batches {
            let t = tenants[i % tenants.len()];
            let b = i / tenants.len();
            let sent = Instant::now();
            let resp = client
                .apply(&data[t].name, &data[t].batches[b], 0)
                .map_err(|e| format!("apply to {}: {e}", data[t].name))?;
            acks.push((t, b, sent, Instant::now(), resp.code == 0));
        }
        Ok(ClientRun {
            acks,
            finished: Instant::now(),
        })
    })
}

/// Replays each tenant's acknowledged batches sequentially and checks
/// the server's durable state against it: every tenant is recovered
/// from its directory and must match in cover and row count. Returns
/// whether all matched and the replayed engines' resident bytes.
fn verify_durable(
    data: &[TenantData],
    acked: &[Vec<bool>],
    root: &Path,
) -> Result<(bool, u64), String> {
    let mut correct = true;
    let mut resident = 0u64;
    for (t, d) in data.iter().enumerate() {
        let rel = dynfd_relation::DynamicRelation::from_rows(d.schema.clone(), &d.initial)
            .map_err(|e| format!("{}: initial rows rejected: {e}", d.name))?;
        let mut replay = DynFd::new(rel, DynFdConfig::default());
        for (b, _) in acked[t].iter().enumerate().filter(|(_, ok)| **ok) {
            correct &= replay.apply_batch(&d.batches[b]).is_ok();
        }
        resident += replay.resident_bytes() as u64;
        let (recovered, _) = FdEngine::recover(&root.join(&d.name))
            .map_err(|e| format!("recover {}: {e}", d.name))?;
        correct &= recovered.dynfd().minimal_fds() == replay.minimal_fds()
            && recovered.dynfd().relation().len() == replay.relation().len();
    }
    Ok((correct, resident))
}

/// One socket episode: start the server, open every tenant, run both
/// clients, shut down, verify.
fn socket_episode(
    spec: &ServeSpec,
    data: &Arc<Vec<TenantData>>,
    opts: &Options,
    tag: &str,
) -> Result<Episode, String> {
    let dir = episode_dir(opts, tag)?;
    let (sock, root) = (dir.join("s.sock"), dir.join("root"));
    let start = Barrier::new(spec.connections + 1);
    let start = Arc::new(start);

    let t0 = Instant::now();
    let server = Server::start(&opts.server, &sock, &root)?;
    let clients: Vec<_> = (0..spec.connections)
        .map(|c| client_thread(spec, data, &sock, c, &start))
        .collect();
    start.wait();
    let setup = t0.elapsed();
    let loop_start = Instant::now();
    let mut runs = Vec::new();
    let mut errors = Vec::new();
    for c in clients {
        match c.join() {
            Ok(Ok(run)) => runs.push(run),
            Ok(Err(e)) => errors.push(e),
            Err(_) => errors.push("client thread panicked".into()),
        }
    }
    if let Some(e) = errors.into_iter().next() {
        return Err(e);
    }
    let finished = runs.iter().map(|r| r.finished).max().expect("clients ran");
    let wall = finished - loop_start;
    let rss_bytes = peak_rss_bytes(&server.pid)?;

    let mut control = SessionClient::new(
        ListenAddr::Unix(sock.clone()),
        "bench-control",
        RetryPolicy::default(),
    );
    control
        .shutdown_server()
        .map_err(|e| format!("shutdown: {e}"))?;
    drop(control);
    server.wait()?;
    let disk_bytes = dir_bytes(&root)?;

    let per_tenant = spec.batches_per_tenant();
    let mut acked = vec![vec![false; per_tenant]; data.len()];
    let mut rtts = Vec::new();
    let mut spans = Vec::new();
    let mut failed_ops = 0;
    for &(t, b, sent, got, ok) in runs.iter().flat_map(|r| &r.acks) {
        acked[t][b] = ok;
        rtts.push(got - sent);
        spans.push(((t * per_tenant + b) as u64, sent, got));
        if !ok {
            failed_ops += spec.ops_per_batch() as u64;
        }
    }
    let (correct, resident_bytes) = verify_durable(data, &acked, &root)?;
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    Ok(Episode {
        setup,
        wall,
        acked: acked.iter().flatten().filter(|ok| **ok).count() as u64,
        rtts,
        failed_ops,
        rss_bytes,
        disk_bytes,
        resident_bytes,
        correct,
        spans,
    })
}

fn batches_offered(spec: &ServeSpec) -> u64 {
    (spec.connections * spec.batches_per_connection) as u64
}

/// The timed run: socket episodes until the budget is spent.
pub fn timed(spec: &ServeSpec, opts: &Options) -> Result<Report, String> {
    let data = Arc::new(tenant_data(spec, opts.seed));
    let started = Instant::now();
    let mut measured = Duration::ZERO;
    let mut episodes: Vec<Episode> = Vec::new();
    while episodes.len() < crate::engine::MIN_EPISODES
        || (measured.as_secs_f64() < opts.seconds && started.elapsed() < WALL_CAP)
    {
        let ep = socket_episode(spec, &data, opts, &episodes.len().to_string())?;
        measured += ep.setup + ep.wall;
        episodes.push(ep);
    }

    let mut report = Report {
        correct: episodes.iter().all(|e| e.correct),
        attempted: episodes.len() as u64 * batches_offered(spec) * spec.ops_per_batch() as u64,
        failed: episodes.iter().map(|e| e.failed_ops).sum(),
        ..Report::default()
    };
    report.correct &= report.failed == 0;
    let per = |f: &dyn Fn(&Episode) -> f64| median(&episodes.iter().map(f).collect::<Vec<_>>());
    let lat: Vec<Latency> = episodes.iter().map(|e| Latency::of(&e.rtts)).collect();
    let lat_med = |f: &dyn Fn(&Latency) -> f64| median(&lat.iter().map(f).collect::<Vec<_>>());
    let p50 = lat_med(&|l| l.p50_ms);
    let tail = lat_med(&|l| l.tail_ms);
    let ops = spec.ops_per_batch() as f64;
    report.push("setup_s", per(&|e| e.setup.as_secs_f64()), "s");
    report.push(
        "changes_per_s",
        per(&|e| e.acked as f64 * ops / e.wall.as_secs_f64()),
        "1/s",
    );
    report.push("batch_p50_ms", p50, "ms");
    report.push("batch_tail_ms", tail, "ms");
    report.push("resident_mb", per(&|e| e.resident_bytes as f64 / MB), "MB");
    report.push(
        "acks_per_s",
        per(&|e| e.acked as f64 / e.wall.as_secs_f64()),
        "1/s",
    );
    report.push("ack_p50_ms", p50, "ms");
    report.push("ack_tail_ms", tail, "ms");
    report.push("server_rss_mb", per(&|e| e.rss_bytes as f64 / MB), "MB");
    report.push("disk_mb", per(&|e| e.disk_bytes as f64 / MB), "MB");
    report.notes.push(format!(
        "serve-window: {} tenants x {} rows x {} columns, {}-op batches, {} connections x {} \
         batches per episode, {} episodes; tail = p{} of {} acks per episode",
        spec.tenants(),
        spec.rows,
        COLUMNS.len(),
        spec.ops_per_batch(),
        spec.connections,
        spec.batches_per_connection,
        episodes.len(),
        lat[0].tail_pct,
        lat[0].samples,
    ));
    Ok(report)
}

/// In-process `ServeEngine::submit` to completion, driven like the
/// socket clients: one closed-loop thread per connection. Returns per
/// batch (shared batch id, submit instant, completion instant), the
/// engine's aggregate counters and whether every tenant's final cover
/// equals `expected`.
fn inproc_replay(
    spec: &ServeSpec,
    data: &Arc<Vec<TenantData>>,
    root: &Path,
    expected: &[Vec<dynfd_common::Fd>],
) -> Result<(Vec<BatchSpan>, dynfd_serve::GlobalSnapshot, bool), String> {
    let engine = Arc::new(ServeEngine::new(ServeConfig {
        root: Some(root.to_path_buf()),
        ..ServeConfig::default()
    }));
    for d in data.iter() {
        engine
            .open_tenant(&d.name, d.schema.clone(), &d.initial)
            .map_err(|e| format!("open {}: {e}", d.name))?;
    }
    let per_tenant = spec.batches_per_tenant();
    let threads: Vec<_> = (0..spec.connections)
        .map(|c| {
            let (engine, data) = (Arc::clone(&engine), Arc::clone(data));
            let tpc = spec.tenants_per_connection;
            let batches = spec.batches_per_connection;
            std::thread::spawn(move || -> Result<Vec<(u64, Instant, Instant)>, String> {
                let mut out = Vec::with_capacity(batches);
                for i in 0..batches {
                    let t = c * tpc + i % tpc;
                    let b = i / tpc;
                    let (tx, rx) = mpsc::channel();
                    let sent = Instant::now();
                    engine
                        .submit(
                            &data[t].name,
                            i as u64,
                            data[t].batches[b].clone(),
                            move |r| {
                                let _ = tx.send(r.outcome.is_ok());
                            },
                        )
                        .map_err(|e| format!("submit to {}: {e}", data[t].name))?;
                    let ok = rx
                        .recv()
                        .map_err(|_| "completion never fired".to_string())?;
                    if !ok {
                        return Err(format!("in-process apply to {} failed", data[t].name));
                    }
                    out.push(((t * per_tenant + b) as u64, sent, Instant::now()));
                }
                Ok(out)
            })
        })
        .collect();
    let mut spans = Vec::new();
    for th in threads {
        spans.extend(
            th.join()
                .map_err(|_| "submit thread panicked".to_string())??,
        );
    }
    let global = engine.global_metrics();
    let mut same = true;
    for (d, want) in data.iter().zip(expected) {
        same &= engine
            .with_tenant(&d.name, |e| e.minimal_fds() == *want)
            .map_err(|e| format!("read {}: {e}", d.name))?;
    }
    let engine = Arc::try_unwrap(engine).map_err(|_| "serve engine still shared".to_string())?;
    engine.shutdown();
    Ok((spans, global, same))
}

/// The traced run: the same tenants and batches replayed at every layer
/// boundary — relation, `DynFd`, `FdEngine`, in-process `ServeEngine`,
/// then the socket (once untraced as the reference, once traced).
pub fn traced(spec: &ServeSpec, opts: &Options) -> Result<Report, String> {
    let data = Arc::new(tenant_data(spec, opts.seed));
    let per_tenant = spec.batches_per_tenant();
    let dir = episode_dir(opts, "trace")?;
    let mut tracer = Tracer::default();

    // Relation, core and durable layers, batch by batch.
    let mut setup = [0.0f64; 3];
    let mut core_totals = BatchMetrics::default();
    let mut persist_totals = BatchMetrics::default();
    let mut covers = Vec::new();
    let (mut pos_fds, mut neg_fds, mut rediscover_s) = (0, 0, 0.0);
    let mut correct = true;
    for (t, d) in data.iter().enumerate() {
        let (mut engine, mut shadow, s) = traced_setup(&mut tracer, &d.schema, &d.initial)?;
        for (acc, v) in setup.iter_mut().zip(s) {
            *acc += v;
        }
        let rel = shadow.clone();
        let mut durable = FdEngine::create(
            &dir.join("persist").join(&d.name),
            rel,
            engine.config().to_owned(),
        )
        .map_err(|e| format!("create durable {}: {e}", d.name))?;
        for (b, batch) in d.batches.iter().enumerate() {
            let id = (t * per_tenant + b) as u64;
            let root = tracer.begin("batch", None, id);
            let (_, out) = tracer.span("relation.apply", Some(root), id, || {
                shadow.apply_batch(batch)
            });
            out.map_err(|e| format!("shadow relation rejected batch {id}: {e}"))?;
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
            core_totals.absorb(&m);
            let (call, out) = tracer.span("persist.apply_batch", Some(root), id, || {
                durable.apply_batch(batch)
            });
            let pm = out
                .map_err(|e| format!("durable engine rejected batch {id}: {e}"))?
                .metrics;
            if !pm.snapshot_time.is_zero() {
                tracer.attach("persist.snapshot", call, pm.wall_time, pm.snapshot_time);
            }
            persist_totals.absorb(&pm);
            tracer.end(root);
        }
        let (id, oracle) = tracer.span("staticfd.rediscover", None, 0, || {
            dynfd_static::hyfd::discover(engine.relation())
        });
        rediscover_s += tracer.duration(id).as_secs_f64();
        correct &= oracle.all_fds() == engine.minimal_fds()
            && durable.dynfd().minimal_fds() == engine.minimal_fds()
            && shadow.len() == engine.relation().len();
        pos_fds += engine.positive_cover().len();
        neg_fds += engine.negative_cover().len();
        covers.push(engine.minimal_fds());
    }

    // In-process serve engine.
    let (inproc, global, same) = inproc_replay(spec, &data, &dir.join("inproc"), &covers)?;
    correct &= same;
    for &(id, sent, done) in &inproc {
        tracer.record("serve.inproc", id, sent, done);
    }
    let inproc_lat = Latency::of(&inproc.iter().map(|&(_, s, d)| d - s).collect::<Vec<_>>());

    // The socket: untraced reference, then traced.
    let untraced = socket_episode(spec, &data, opts, "untraced")?;
    let traced_ep = socket_episode(spec, &data, opts, "traced")?;
    for &(id, sent, got) in &traced_ep.spans {
        tracer.record("serve.ack", id, sent, got);
    }
    correct &= untraced.correct && traced_ep.correct;
    let ack_lat = Latency::of(&traced_ep.rtts);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;

    let batches = data.len() * per_tenant;
    let mut report = Report {
        correct,
        attempted: (batches * spec.ops_per_batch()) as u64,
        failed: untraced.failed_ops + traced_ep.failed_ops,
        ..Report::default()
    };
    report.correct &= report.failed == 0;
    let layers = CoreLayers {
        totals: core_totals,
        batches,
        load_s: setup[0],
        bootstrap_s: setup[1],
        invert_s: setup[2],
        rediscover_s,
        pos_fds,
        neg_fds,
    };
    layers.push(&tracer, &mut report);
    let spans = tracer.summary();
    let mean_ms = |name: &str| {
        spans
            .get(name)
            .map_or(0.0, |s| s.1.as_secs_f64() * 1e3 / batches as f64)
    };
    let snapshots = spans.get("persist.snapshot").map_or(0, |s| s.0);
    let snapshot_ms = spans
        .get("persist.snapshot")
        .map_or(0.0, |s| s.1.as_secs_f64() * 1e3);
    let changes = (batches * spec.ops_per_batch()) as f64;
    report.push(
        "persist.apply_ms",
        mean_ms("persist.apply_batch") - mean_ms("core.apply_batch"),
        "ms",
    );
    report.push(
        "persist.wal_bytes_per_change",
        persist_totals.wal_bytes as f64 / changes,
        "B",
    );
    report.push(
        "persist.fsyncs_per_batch",
        persist_totals.fsyncs as f64 / batches as f64,
        "count",
    );
    report.push(
        "persist.snapshot_ms",
        crate::stats::ratio(snapshot_ms, snapshots as f64),
        "ms",
    );
    report.push("serve.inproc_p50_ms", inproc_lat.p50_ms, "ms");
    report.push("serve.inproc_tail_ms", inproc_lat.tail_ms, "ms");
    report.push(
        "serve.transport_ms",
        ack_lat.p50_ms - inproc_lat.p50_ms,
        "ms",
    );
    report.push("serve.resident_mb", global.resident_bytes as f64 / MB, "MB");
    report.push(
        "serve.rejected",
        (global.totals.rejected
            + global.totals.shed
            + global.totals.quota_rejected
            + global.totals.closed_rejected) as f64,
        "count",
    );
    report.push(
        "trace.overhead_ms",
        ack_lat.p50_ms - Latency::of(&untraced.rtts).p50_ms,
        "ms",
    );
    let path = opts
        .out_dir
        .join(format!("trace-serve-window-seed{}.jsonl", opts.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    report.notes.push(format!(
        "serve-window: {} spans written to {}; in-process tail = p{} of {}",
        spans.values().map(|s| s.0).sum::<usize>(),
        path.display(),
        inproc_lat.tail_pct,
        inproc_lat.samples,
    ));
    Ok(report)
}
