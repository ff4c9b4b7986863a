//! Network fault injection for the socket transport.
//!
//! [`NetProxy`] sits between a [`SessionClient`] and a real
//! `dynfd-serve` socket listener as a deterministic man-in-the-middle:
//! it forwards bytes, but injects one seeded [`NetFault`] shape into
//! the conversation — added latency, torn writes, duplicated frames,
//! half-open connections, or outright connection storms.
//!
//! [`check_net`] is the oracle around it: a compliant reconnecting
//! client pushes every tenant's batch stream through the proxy, and no
//! matter what the network does, every batch must land **exactly
//! once** — final tenant state bit-identical to a sequential replay
//! ([`DynFd::state_divergence`]), WAL bytes identical to a sequential
//! durable replay, and the served sequence number equal to the batch
//! count (a double-applied re-send would overshoot it; a lost batch
//! would undershoot). The client-side session protocol (hello +
//! per-tenant sequence numbers + verbatim re-send of unacked frames)
//! is what makes this hold; the proxy is how we prove it.
//!
//! Everything derives from the `(seed, fault)` pair: connection
//! damage sites, delays, and duplication points are seeded, so a
//! failing case reproduces bit-identically from the fuzz triple.

use crate::concurrent::tenant_traces;
use crate::trace::Trace;
use dynfd_common::Schema;
use dynfd_core::{DynFd, DynFdConfig};
use dynfd_persist::{wal_path, FdEngine};
use dynfd_relation::DynamicRelation;
use dynfd_serve::{
    serve_listener, AdmissionPolicy, ConnOptions, ListenAddr, RetryPolicy, ServeConfig,
    ServeEngine, SessionClient, TransportConfig, TransportReport,
};
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Connects to the unix socket at `path`, retrying every 5 ms for up to
/// 5 s while the socket file is missing or refuses: a listener creates
/// its socket file before it starts listening, so a connect can land in
/// between.
pub fn dial_unix(path: &Path) -> std::io::Result<UnixStream> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match UnixStream::connect(path) {
            Err(e)
                if matches!(e.kind(), ErrorKind::ConnectionRefused | ErrorKind::NotFound)
                    && Instant::now() < deadline =>
            {
                std::thread::sleep(Duration::from_millis(5));
            }
            result => return result,
        }
    }
}

/// The network damage modes `fuzz --inject` can place between a client
/// and the socket transport.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetFault {
    /// Seeded forwarding latency on some frames: the slow-network
    /// shape. Nothing is lost; deadlines and patience must cope.
    Delay,
    /// A connection dies mid-frame: the proxy forwards a strict prefix
    /// of a frame's bytes, then cuts both sides. The server sees torn
    /// framing; the client re-sends on a new connection.
    TornWrite,
    /// One frame is forwarded twice back-to-back. The server must
    /// absorb the duplicate (in-flight dedup or replay window) without
    /// applying twice.
    DuplicateFrame,
    /// Half-open connection: after a seeded frame the proxy goes
    /// silent in both directions but keeps the sockets open — no FIN,
    /// no RST. Only the client's patience timer and the server's idle
    /// budget can save either side, and an ack already settled
    /// server-side must come back via the replay window.
    HalfOpen,
    /// Reconnect storm: the first connections each get killed after a
    /// few frames (with a short grace so some responses make it back),
    /// forcing rapid resume cycles against the replay window.
    ReconnectStorm,
}

impl NetFault {
    /// All network faults, in the order the fuzz binary cycles them.
    pub const ALL: [NetFault; 5] = [
        NetFault::Delay,
        NetFault::TornWrite,
        NetFault::DuplicateFrame,
        NetFault::HalfOpen,
        NetFault::ReconnectStorm,
    ];

    /// The fault's `--inject` name.
    pub fn name(self) -> &'static str {
        match self {
            NetFault::Delay => "net-delay",
            NetFault::TornWrite => "net-torn",
            NetFault::DuplicateFrame => "net-dup",
            NetFault::HalfOpen => "net-half-open",
            NetFault::ReconnectStorm => "net-reconnect",
        }
    }

    /// Looks a fault up by its [`NetFault::name`].
    pub fn by_name(name: &str) -> Option<NetFault> {
        NetFault::ALL.iter().copied().find(|f| f.name() == name)
    }
}

/// Counters from one [`check_net`] run.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetStats {
    /// Tenants replayed through the proxy.
    pub tenants: u64,
    /// Serve-engine worker threads.
    pub workers: u64,
    /// Batches acknowledged exactly once.
    pub batches: u64,
    /// Client connections that reached a successful hello.
    pub connects: u64,
    /// Reconnects the client performed after drops/silence/notices.
    pub reconnects: u64,
    /// Unacked frames the client re-sent verbatim.
    pub resends: u64,
    /// Re-sent frames the server answered from its replay window.
    pub replays: u64,
    /// Duplicate frames the server absorbed while the original was in
    /// flight.
    pub dedups: u64,
    /// Tenant states compared bit-level against the sequential oracle.
    pub states_compared: u64,
    /// WAL files compared byte-for-byte.
    pub wals_compared: u64,
}

impl NetStats {
    /// Accumulates another run's counters.
    pub fn absorb(&mut self, other: &NetStats) {
        self.tenants += other.tenants;
        self.workers += other.workers;
        self.batches += other.batches;
        self.connects += other.connects;
        self.reconnects += other.reconnects;
        self.resends += other.resends;
        self.replays += other.replays;
        self.dedups += other.dedups;
        self.states_compared += other.states_compared;
        self.wals_compared += other.wals_compared;
    }
}

/// What the server built from the client's wire `Open`: the schema is
/// named after the *tenant* (`Schema::new(tenant, columns)`), not after
/// the trace — the oracle must replay from the identical starting
/// relation or the bit-level comparison fails on the name alone.
fn wire_relation(tenant: &str, trace: &Trace) -> Result<DynamicRelation, String> {
    let schema = Schema::new(tenant.to_string(), trace.schema.columns().to_vec());
    DynamicRelation::from_rows(schema, &trace.initial_rows)
        .map_err(|e| format!("wire relation for {tenant}: {e}"))
}

/// Sequential replay from the wire-faithful starting relation.
fn wire_oracle(tenant: &str, trace: &Trace, config: DynFdConfig) -> Result<DynFd, String> {
    let mut dynfd = DynFd::new(wire_relation(tenant, trace)?, config);
    for (i, batch) in trace.to_batches().iter().enumerate() {
        dynfd
            .apply_batch(batch)
            .map_err(|e| format!("oracle replay rejected batch {i}: {e}"))?;
    }
    Ok(dynfd)
}

fn splitmix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// What the proxy does to one specific connection (seeded per
/// connection index, so reconnects see fresh — but deterministic —
/// damage).
#[derive(Clone, Copy, Debug)]
enum ConnPlan {
    /// Forward everything unharmed.
    Clean,
    /// Sleep `ms` before forwarding every `every`-th frame.
    Delay { every: u64, ms: u64 },
    /// Forward frames before `at`, then forward only `keep` bytes of
    /// frame `at` and cut both sides.
    Torn { at: u64, keep_mod: u64 },
    /// Forward frame `at` twice.
    Duplicate { at: u64 },
    /// After forwarding frame `at`, go silent in both directions while
    /// keeping the sockets open.
    HalfOpen { at: u64 },
    /// After forwarding frame `at`, sleep `grace_ms`, then cut both
    /// sides. A zero grace usually loses the settled ack (forcing a
    /// window replay); a longer one usually lets it through.
    Kill { at: u64, grace_ms: u64 },
}

impl ConnPlan {
    /// The plan for connection number `conn` under `fault`. Destructive
    /// faults only fire on the first few connections (seeded budget),
    /// so a compliant client always converges: after the storm the
    /// network heals and the remaining work flows clean.
    fn for_conn(fault: NetFault, seed: u64, conn: u64) -> ConnPlan {
        let r = splitmix(seed ^ 0xA11CE ^ conn.wrapping_mul(0x9E3779B97F4A7C15));
        let budget = 2 + (splitmix(seed ^ 0xB0DCE7) % 3); // 2..=4 bad connections
        let destructive = conn < budget;
        match fault {
            NetFault::Delay => ConnPlan::Delay {
                every: 2 + r % 2,
                ms: 5 + splitmix(r) % 20,
            },
            NetFault::TornWrite if destructive => ConnPlan::Torn {
                // Frame 0 is the hello; tear inside a later frame so
                // sessions form and the window does real work.
                at: 1 + r % 3,
                keep_mod: splitmix(r) | 1,
            },
            NetFault::DuplicateFrame if destructive => ConnPlan::Duplicate { at: 1 + r % 4 },
            NetFault::HalfOpen if destructive => ConnPlan::HalfOpen { at: 1 + r % 3 },
            NetFault::ReconnectStorm if destructive => ConnPlan::Kill {
                at: 1 + r % 3,
                grace_ms: if splitmix(r ^ 0x6ACE).is_multiple_of(2) {
                    0
                } else {
                    30
                },
            },
            _ => ConnPlan::Clean,
        }
    }
}

/// A deterministic fault-injecting proxy between a client and a unix
/// socket server. Client→server traffic is pumped *frame-aware* (the
/// proxy parses length prefixes), so duplication and tearing operate
/// on whole protocol frames; server→client traffic is pumped raw.
pub struct NetProxy {
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    connections: Arc<AtomicUsize>,
}

impl NetProxy {
    /// Starts a proxy listening on `listen_path`, forwarding every
    /// connection to the server at `server_path` with `fault` damage
    /// seeded by `seed`.
    pub fn start(
        listen_path: &Path,
        server_path: &Path,
        fault: NetFault,
        seed: u64,
    ) -> std::io::Result<NetProxy> {
        let _ = std::fs::remove_file(listen_path);
        let listener = UnixListener::bind(listen_path)?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(AtomicUsize::new(0));
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let connections = Arc::clone(&connections);
            let server_path = server_path.to_path_buf();
            std::thread::Builder::new()
                .name("dynfd-netproxy".into())
                .spawn(move || {
                    let mut pumps: Vec<std::thread::JoinHandle<()>> = Vec::new();
                    while !stop.load(Ordering::SeqCst) {
                        match listener.accept() {
                            Ok((client, _)) => {
                                let conn = connections.fetch_add(1, Ordering::SeqCst) as u64;
                                let plan = ConnPlan::for_conn(fault, seed, conn);
                                let server_path = server_path.clone();
                                if let Ok(h) = std::thread::Builder::new()
                                    .name("dynfd-netproxy-conn".into())
                                    .spawn(move || {
                                        proxy_connection(client, &server_path, plan, seed ^ conn)
                                    })
                                {
                                    pumps.push(h);
                                }
                                pumps.retain(|h| !h.is_finished());
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(5));
                            }
                            Err(_) => std::thread::sleep(Duration::from_millis(5)),
                        }
                    }
                    for h in pumps {
                        let _ = h.join();
                    }
                })?
        };
        Ok(NetProxy {
            stop,
            accept_thread: Some(accept_thread),
            connections,
        })
    }

    /// Connections accepted so far.
    pub fn connections(&self) -> usize {
        self.connections.load(Ordering::SeqCst)
    }

    /// Stops accepting and joins the accept loop. Live pumps wind down
    /// as their sockets close.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for NetProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

/// Pumps one proxied connection: frame-aware client→server with the
/// damage plan applied, raw server→client in a sibling thread.
fn proxy_connection(client: UnixStream, server_path: &Path, plan: ConnPlan, seed: u64) {
    let Ok(server) = dial_unix(server_path) else {
        let _ = client.shutdown(std::net::Shutdown::Both);
        return;
    };
    let (Ok(client_r), Ok(server_w)) = (client.try_clone(), server.try_clone()) else {
        return;
    };
    // Once set, the proxy swallows bytes instead of forwarding them —
    // the half-open shape (sockets open, nothing moves).
    let mute = Arc::new(AtomicBool::new(false));
    // Server→client: transparent byte pump (until muted).
    let s2c = {
        let (Ok(mut server_r), Ok(client_w)) = (server.try_clone(), client.try_clone()) else {
            return;
        };
        let mute = Arc::clone(&mute);
        std::thread::spawn(move || {
            let mut client_w = client_w;
            let mut buf = [0u8; 4096];
            loop {
                match server_r.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        if mute.load(Ordering::SeqCst) {
                            continue;
                        }
                        if client_w.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                }
            }
            let _ = client_w.shutdown(std::net::Shutdown::Write);
        })
    };
    pump_frames(client_r, server_w, &client, &server, &mute, plan, seed);
    let _ = s2c.join();
    let _ = client.shutdown(std::net::Shutdown::Both);
    let _ = server.shutdown(std::net::Shutdown::Both);
}

/// Reads whole `len:u32 | payload` frames from the client and forwards
/// them to the server, applying `plan` at seeded frame indices.
fn pump_frames(
    mut client_r: UnixStream,
    mut server_w: UnixStream,
    client: &UnixStream,
    server: &UnixStream,
    mute: &AtomicBool,
    plan: ConnPlan,
    seed: u64,
) {
    let mut frame_idx: u64 = 0;
    loop {
        let mut prefix = [0u8; 4];
        if client_r.read_exact(&mut prefix).is_err() {
            let _ = server_w.shutdown(std::net::Shutdown::Write);
            return;
        }
        let len = u32::from_le_bytes(prefix) as usize;
        // A frame the proxy itself refuses to buffer ends the pump; the
        // real server enforces its own (smaller) bound.
        if len > (1 << 26) {
            let _ = server.shutdown(std::net::Shutdown::Both);
            return;
        }
        let mut frame = Vec::with_capacity(4 + len);
        frame.extend_from_slice(&prefix);
        frame.resize(4 + len, 0);
        if client_r.read_exact(&mut frame[4..]).is_err() {
            let _ = server_w.shutdown(std::net::Shutdown::Write);
            return;
        }
        match plan {
            ConnPlan::Clean => {
                if server_w.write_all(&frame).is_err() {
                    return;
                }
            }
            ConnPlan::Delay { every, ms } => {
                if frame_idx % every == every - 1 {
                    std::thread::sleep(Duration::from_millis(ms));
                }
                if server_w.write_all(&frame).is_err() {
                    return;
                }
            }
            ConnPlan::Torn { at, keep_mod } => {
                if frame_idx == at {
                    // A strict prefix: at least the length prefix, never
                    // the whole frame.
                    let keep = 4
                        + (splitmix(seed ^ keep_mod) as usize)
                            % frame.len().max(5).saturating_sub(4);
                    let _ = server_w.write_all(&frame[..keep.min(frame.len() - 1)]);
                    let _ = server.shutdown(std::net::Shutdown::Both);
                    let _ = client.shutdown(std::net::Shutdown::Both);
                    return;
                }
                if server_w.write_all(&frame).is_err() {
                    return;
                }
            }
            ConnPlan::Duplicate { at } => {
                if server_w.write_all(&frame).is_err() {
                    return;
                }
                if frame_idx == at && server_w.write_all(&frame).is_err() {
                    return;
                }
            }
            ConnPlan::HalfOpen { at } => {
                if server_w.write_all(&frame).is_err() {
                    return;
                }
                if frame_idx == at {
                    // Both directions go quiet, both sockets stay open.
                    // The client's patience must force a reconnect (its
                    // ack, if the apply settled, comes back as a window
                    // replay); the server's idle budget must reap the
                    // abandoned connection.
                    mute.store(true, Ordering::SeqCst);
                    let mut sink = [0u8; 4096];
                    while matches!(client_r.read(&mut sink), Ok(n) if n > 0) {}
                    return;
                }
            }
            ConnPlan::Kill { at, grace_ms } => {
                if server_w.write_all(&frame).is_err() {
                    return;
                }
                if frame_idx == at {
                    // Grace: let in-flight responses race back before
                    // the cut, so some storms lose the settled ack
                    // (forcing a window replay on re-send) and some
                    // don't — both paths must stay exactly-once.
                    if grace_ms > 0 {
                        std::thread::sleep(Duration::from_millis(grace_ms));
                    }
                    let _ = server.shutdown(std::net::Shutdown::Both);
                    let _ = client.shutdown(std::net::Shutdown::Both);
                    return;
                }
            }
        }
        frame_idx += 1;
    }
}

/// Replays `tenants` seeded traces through a socket server *behind a
/// fault-injecting proxy* with a compliant [`SessionClient`], then
/// verifies exactly-once application: served sequence numbers equal
/// batch counts, tenant states are bit-identical to a sequential
/// replay, and WAL bytes match a sequential durable replay. See the
/// module docs.
pub fn check_net(
    fault: NetFault,
    seed: u64,
    workers: usize,
    scratch: &Path,
) -> Result<NetStats, String> {
    std::fs::create_dir_all(scratch).map_err(|e| format!("scratch: {e}"))?;
    let data_root = scratch.join("data");
    let server_sock = scratch.join("server.sock");
    let proxy_sock = scratch.join("proxy.sock");
    let traces = tenant_traces(seed, 2);
    let config = DynFdConfig::default();

    let engine = Arc::new(ServeEngine::new(ServeConfig {
        workers,
        queue_capacity: 1024,
        policy: AdmissionPolicy::Block,
        root: Some(data_root.clone()),
        engine: config,
        ..ServeConfig::default()
    }));

    // The real socket transport, with an idle budget so connections the
    // proxy abandons half-open get reaped.
    let stop = Arc::new(AtomicBool::new(false));
    let listener_thread = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        let addr = ListenAddr::Unix(server_sock.clone());
        let config = TransportConfig {
            options: ConnOptions {
                idle: Some(Duration::from_millis(500)),
                ..ConnOptions::default()
            },
            ..TransportConfig::default()
        };
        std::thread::Builder::new()
            .name("dynfd-net-listener".into())
            .spawn(move || serve_listener(&engine, &addr, config, || stop.load(Ordering::SeqCst)))
            .map_err(|e| format!("spawn listener: {e}"))?
    };
    // Wait for the socket file to exist before dialing through it.
    for _ in 0..200 {
        if server_sock.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    let proxy = NetProxy::start(&proxy_sock, &server_sock, fault, seed)
        .map_err(|e| format!("proxy: {e}"))?;

    // A compliant client: stable session id, short patience so faults
    // turn into fast reconnects instead of long stalls.
    let policy = RetryPolicy {
        base: Duration::from_millis(2),
        cap: Duration::from_millis(50),
        max_attempts: 10,
        seed,
    };
    let mut client = SessionClient::new(
        ListenAddr::Unix(proxy_sock.clone()),
        format!("fuzz-{seed:x}"),
        policy,
    )
    .with_patience(Duration::from_millis(250));

    let run = (|| -> Result<u64, String> {
        for (name, trace) in &traces {
            let resp = client
                .open(name, trace.schema.columns(), &trace.initial_rows)
                .map_err(|e| format!("open {name}: {e}"))?;
            // 15 = TenantExists: a re-sent open whose first copy landed.
            if resp.code != 0 && u32::from(resp.code) != 15 {
                return Err(format!(
                    "open {name} rejected with code {}: {}",
                    resp.code, resp.detail
                ));
            }
        }
        // Round-robin interleave, like the in-process concurrent check.
        let mut streams: Vec<(&str, std::vec::IntoIter<dynfd_relation::Batch>)> = traces
            .iter()
            .map(|(name, trace)| (name.as_str(), trace.to_batches().into_iter()))
            .collect();
        let mut batches = 0u64;
        loop {
            let mut any = false;
            for (name, stream) in &mut streams {
                let Some(batch) = stream.next() else { continue };
                any = true;
                let resp = client
                    .apply(name, &batch, 0)
                    .map_err(|e| format!("apply to {name}: {e}"))?;
                if resp.code != 0 {
                    return Err(format!(
                        "apply to {name} rejected with code {}: {} — generated traces \
                         must replay cleanly under the blocking policy",
                        resp.code, resp.detail
                    ));
                }
                batches += 1;
            }
            if !any {
                break;
            }
        }
        Ok(batches)
    })();
    let report = client.report();
    client.disconnect();

    // Unwind the transport before judging the run, so the engine is
    // quiesced and single-owner even on the error path.
    stop.store(true, Ordering::SeqCst);
    let transport: TransportReport = listener_thread
        .join()
        .map_err(|_| "listener thread panicked".to_string())?
        .map_err(|e| format!("serve_listener: {e}"))?;
    proxy.shutdown();
    let batches = run?;

    // Exactly-once, part 1: the client consumed exactly one sequence
    // number per acknowledged batch per tenant, and the server's
    // applied sequence agrees.
    let mut stats = NetStats {
        tenants: traces.len() as u64,
        workers: workers as u64,
        batches,
        connects: report.connects,
        reconnects: report.reconnects,
        resends: report.resends,
        ..NetStats::default()
    };
    for (name, trace) in &traces {
        let expected = trace.to_batches().len() as u64;
        let m = engine
            .metrics(name)
            .map_err(|e| format!("metrics {name}: {e}"))?;
        stats.replays += m.session_replays;
        stats.dedups += m.session_dedups;
        let seq = engine
            .tenant_seq(name)
            .map_err(|e| format!("seq of {name}: {e}"))?;
        if seq != expected {
            return Err(format!(
                "tenant {name}: served seq {seq}, expected {expected} — a re-send was \
                 double-applied or a batch was lost (fault {}, {} reconnects, {} resends)",
                fault.name(),
                report.reconnects,
                report.resends
            ));
        }
        let oracle = wire_oracle(name, trace, config)?;
        let divergence = engine
            .with_tenant(name, |served| oracle.state_divergence(served))
            .map_err(|e| format!("inspect {name}: {e}"))?;
        if let Some(divergence) = divergence {
            return Err(format!(
                "tenant {name} diverged from sequential replay under {}: {divergence}",
                fault.name()
            ));
        }
        stats.states_compared += 1;
    }
    if transport.sessions == 0 {
        return Err("transport registered no sessions — the hello path never ran".into());
    }

    // Exactly-once, part 2: drain + fsync, then WAL bytes must equal a
    // sequential durable replay's, bit for bit.
    let mut engine = engine;
    let engine = loop {
        match Arc::try_unwrap(engine) {
            Ok(e) => break e,
            Err(shared) => {
                engine = shared;
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    };
    let shutdown = engine.shutdown();
    if shutdown.synced != shutdown.tenants || !shutdown.sync_errors.is_empty() {
        return Err(format!(
            "shutdown synced {} of {} tenants (errors: {:?})",
            shutdown.synced, shutdown.tenants, shutdown.sync_errors
        ));
    }
    for (name, trace) in &traces {
        let oracle_dir = scratch.join(format!("{name}.oracle"));
        let mut oracle_engine = FdEngine::create(&oracle_dir, wire_relation(name, trace)?, config)
            .map_err(|e| format!("oracle engine for {name}: {e}"))?;
        for (i, batch) in trace.to_batches().iter().enumerate() {
            oracle_engine
                .apply_batch(batch)
                .map_err(|e| format!("oracle durable replay {name} batch {i}: {e}"))?;
        }
        drop(oracle_engine);
        let served = std::fs::read(wal_path(&data_root.join(name)))
            .map_err(|e| format!("read served WAL of {name}: {e}"))?;
        let expected = std::fs::read(wal_path(&oracle_dir))
            .map_err(|e| format!("read oracle WAL of {name}: {e}"))?;
        if served != expected {
            let first_diff = served
                .iter()
                .zip(&expected)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| served.len().min(expected.len()));
            return Err(format!(
                "tenant {name}: WAL bytes diverge from sequential replay under {} \
                 (served {} bytes, oracle {} bytes, first difference at byte {first_diff})",
                fault.name(),
                served.len(),
                expected.len()
            ));
        }
        stats.wals_compared += 1;
    }
    Ok(stats)
}
