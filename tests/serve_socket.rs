//! The socket transport must be *transparent*: serving the same
//! workload over `--listen` and over stdin/stdout leaves bit-identical
//! durable state, at any worker count. On top of that transparency the
//! transport adds supervision the stdin path cannot have — graceful
//! drain with typed `ShuttingDown` notices (code 16), slow-client
//! shedding (code 21), and a crash-safe drain window — each pinned
//! here against the real listener (`dynfd_serve::serve_listener`) and,
//! for the kill test, against the real `dynfd` binary serving a unix
//! socket as a child process.

use dynfd::common::Schema;
use dynfd::core::{DynFd, DynFdConfig};
use dynfd::persist::{wal_path, FdEngine};
use dynfd::relation::DynamicRelation;
use dynfd::serve::wire::{self, Request};
use dynfd::serve::{
    serve_connection, serve_listener, AdmissionPolicy, ListenAddr, RetryPolicy, ServeConfig,
    ServeEngine, SessionClient, TransportConfig, TransportReport,
};
use dynfd_testkit::{dial_unix, tenant_traces, Trace};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 2203;
const TENANTS: usize = 3;

/// A scratch directory under the system temp dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("dynfd-sock-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn engine(workers: usize, root: &Path) -> Arc<ServeEngine> {
    Arc::new(ServeEngine::new(ServeConfig {
        workers,
        queue_capacity: 1024,
        policy: AdmissionPolicy::Block,
        root: Some(root.to_path_buf()),
        ..ServeConfig::default()
    }))
}

/// Runs `serve_listener` on a background thread until `stop` is set,
/// then returns its report and the (now single-owner) engine.
struct Server {
    engine: Arc<ServeEngine>,
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<std::io::Result<TransportReport>>,
    sock: PathBuf,
}

impl Server {
    fn start(engine: Arc<ServeEngine>, sock: PathBuf, config: TransportConfig) -> Server {
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let addr = ListenAddr::Unix(sock.clone());
            std::thread::spawn(move || {
                serve_listener(&engine, &addr, config, || stop.load(Ordering::SeqCst))
            })
        };
        for _ in 0..400 {
            if sock.exists() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(sock.exists(), "listener never bound {}", sock.display());
        Server {
            engine,
            stop,
            handle,
            sock,
        }
    }

    /// Stops the transport and hands back (report, owned engine).
    fn stop(self) -> (TransportReport, ServeEngine) {
        self.stop.store(true, Ordering::SeqCst);
        let report = self
            .handle
            .join()
            .expect("listener thread panicked")
            .expect("serve_listener failed");
        let mut shared = self.engine;
        let engine = loop {
            match Arc::try_unwrap(shared) {
                Ok(e) => break e,
                Err(s) => {
                    shared = s;
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        };
        (report, engine)
    }
}

fn session_client(sock: &Path, tag: &str) -> SessionClient {
    SessionClient::new(
        ListenAddr::Unix(sock.to_path_buf()),
        format!("test-{tag}"),
        RetryPolicy {
            base: Duration::from_millis(2),
            cap: Duration::from_millis(50),
            seed: SEED,
            ..RetryPolicy::default()
        },
    )
    .with_patience(Duration::from_millis(500))
}

/// Pushes every tenant's batches round-robin interleaved through a
/// session client; every apply must ack cleanly.
fn drive_workload(client: &mut SessionClient, traces: &[(String, Trace)]) -> u64 {
    for (name, trace) in traces {
        let resp = client
            .open(name, trace.schema.columns(), &trace.initial_rows)
            .unwrap_or_else(|e| panic!("open {name}: {e}"));
        assert!(
            resp.code == 0 || u32::from(resp.code) == 15,
            "open {name}: code {} ({})",
            resp.code,
            resp.detail
        );
    }
    let mut streams: Vec<(&str, std::vec::IntoIter<dynfd::relation::Batch>)> = traces
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
                .unwrap_or_else(|e| panic!("apply to {name}: {e}"));
            assert_eq!(resp.code, 0, "apply to {name}: {}", resp.detail);
            batches += 1;
        }
        if !any {
            break;
        }
    }
    batches
}

/// The identical workload as raw stdin-protocol frames (unsessioned),
/// in the same per-tenant order.
fn stdin_stream(traces: &[(String, Trace)]) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut request_id = 0u64;
    for (name, trace) in traces {
        request_id += 1;
        let open = Request::Open {
            request_id,
            tenant: name.clone(),
            columns: trace.schema.columns().to_vec(),
            rows: trace.initial_rows.clone(),
        };
        wire::write_frame(&mut bytes, &wire::encode_request(&open)).expect("encode open");
    }
    let mut streams: Vec<(&str, std::vec::IntoIter<dynfd::relation::Batch>)> = traces
        .iter()
        .map(|(name, trace)| (name.as_str(), trace.to_batches().into_iter()))
        .collect();
    loop {
        let mut any = false;
        for (name, stream) in &mut streams {
            let Some(batch) = stream.next() else { continue };
            any = true;
            request_id += 1;
            let apply = Request::Apply {
                request_id,
                tenant: name.to_string(),
                deadline_ms: 0,
                session_seq: 0,
                batch,
            };
            wire::write_frame(&mut bytes, &wire::encode_request(&apply)).expect("encode apply");
        }
        if !any {
            break;
        }
    }
    bytes
}

fn read_wal(root: &Path, tenant: &str) -> Vec<u8> {
    std::fs::read(wal_path(&root.join(tenant)))
        .unwrap_or_else(|e| panic!("read WAL of {tenant}: {e}"))
}

#[test]
fn socket_and_stdin_transports_write_identical_wal_bytes() {
    // The transport-transparency claim, at the strongest level: the
    // durable log a socket-served engine writes is byte-for-byte what
    // the stdin-served engine writes for the same workload — at one,
    // two, and eight workers.
    let traces = tenant_traces(SEED, TENANTS);
    for workers in [1usize, 2, 8] {
        let scratch = Scratch::new(&format!("det-{workers}"));
        let sock_root = scratch.0.join("sock-root");
        let stdin_root = scratch.0.join("stdin-root");

        let server = Server::start(
            engine(workers, &sock_root),
            scratch.0.join("s.sock"),
            TransportConfig::default(),
        );
        let mut client = session_client(&server.sock, &format!("det-{workers}"));
        let batches = drive_workload(&mut client, &traces);
        assert!(batches > 0);
        client.disconnect();
        let (report, engine) = server.stop();
        assert_eq!(report.sessions, 1, "one session formed");
        let shutdown = engine.shutdown();
        assert_eq!(shutdown.synced, shutdown.tenants);

        let stdin_engine = engine_for(workers, &stdin_root);
        let input = std::io::Cursor::new(stdin_stream(&traces));
        serve_connection(&stdin_engine, input, Vec::new(), || false);
        let stdin_engine = unwrap_engine(stdin_engine);
        let shutdown = stdin_engine.shutdown();
        assert_eq!(shutdown.synced, shutdown.tenants);

        for (name, _) in &traces {
            assert_eq!(
                read_wal(&sock_root, name),
                read_wal(&stdin_root, name),
                "tenant {name}: socket and stdin WAL bytes diverge at {workers} workers"
            );
        }
    }
}

fn engine_for(workers: usize, root: &Path) -> Arc<ServeEngine> {
    engine(workers, root)
}

fn unwrap_engine(mut shared: Arc<ServeEngine>) -> ServeEngine {
    loop {
        match Arc::try_unwrap(shared) {
            Ok(e) => break e,
            Err(s) => {
                shared = s;
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

#[test]
fn drain_notifies_connected_clients_with_code_16_and_syncs_wal() {
    let scratch = Scratch::new("drain");
    let root = scratch.0.join("root");
    let traces = tenant_traces(SEED, 1);
    let (name, trace) = &traces[0];
    let server = Server::start(
        engine(2, &root),
        scratch.0.join("s.sock"),
        TransportConfig::default(),
    );

    // A raw protocol client that stays connected across the drain.
    let mut stream = dial_unix(&server.sock).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let send = |stream: &mut UnixStream, req: &Request| {
        wire::write_frame(stream, &wire::encode_request(req)).expect("send frame");
    };
    send(
        &mut stream,
        &Request::Hello {
            request_id: 1,
            session_id: "drain-client".into(),
        },
    );
    send(
        &mut stream,
        &Request::Open {
            request_id: 2,
            tenant: name.clone(),
            columns: trace.schema.columns().to_vec(),
            rows: trace.initial_rows.clone(),
        },
    );
    let batches = trace.to_batches();
    let applied = 2usize.min(batches.len());
    for (i, batch) in batches.iter().take(applied).enumerate() {
        send(
            &mut stream,
            &Request::Apply {
                request_id: 3 + i as u64,
                tenant: name.clone(),
                deadline_ms: 0,
                session_seq: 1 + i as u64,
                batch: batch.clone(),
            },
        );
    }
    // Hello ack + open ack + one ack per apply.
    for _ in 0..2 + applied {
        let payload = wire::read_frame(&mut stream)
            .expect("read ack")
            .expect("ack before EOF");
        let resp = wire::decode_response(&payload).expect("decode ack");
        assert!(
            resp.code == 0 || u32::from(resp.code) == 15,
            "ack carried code {}: {}",
            resp.code,
            resp.detail
        );
    }

    // Drain while the client is still connected: it must receive the
    // typed ShuttingDown notice (code 16, request id 0), then EOF.
    server.stop.store(true, Ordering::SeqCst);
    let notice = wire::read_frame(&mut stream)
        .expect("read notice")
        .expect("notice before EOF");
    let notice = wire::decode_response(&notice).expect("decode notice");
    assert_eq!(notice.request_id, 0, "drain notice is unsolicited");
    assert_eq!(u32::from(notice.code), 16, "drain notice carries code 16");
    assert_eq!(
        wire::read_frame(&mut stream).expect("read EOF"),
        None,
        "connection closes after the notice"
    );

    let (report, engine) = server.stop();
    assert_eq!(report.connections, 1);
    let shutdown = engine.shutdown();
    assert_eq!(shutdown.synced, shutdown.tenants, "WAL tails synced");

    // Every acknowledged batch survived the drain durably.
    let (recovered, _) =
        FdEngine::recover_with_config(&root.join(name), DynFdConfig::default()).expect("recover");
    assert_eq!(recovered.seq() as usize, applied, "acked prefix durable");
}

#[test]
fn slow_reader_is_shed_and_bystanders_are_unharmed() {
    let scratch = Scratch::new("shed");
    let root = scratch.0.join("root");
    let traces = tenant_traces(SEED, 1);
    let (name, trace) = &traces[0];
    // A tiny outbox and a short write timeout make the shed fast once
    // the kernel socket buffer is full.
    let server = Server::start(
        engine(2, &root),
        scratch.0.join("s.sock"),
        TransportConfig {
            outbox: 4,
            write_timeout: Duration::from_millis(200),
            ..TransportConfig::default()
        },
    );

    // The slow reader: floods requests that each produce an immediate
    // typed error response (unknown tenant), and never reads a byte.
    // Responses pile into the kernel buffer, then the writer blocks,
    // then the 4-slot outbox overflows — the shed.
    let mut slow = dial_unix(&server.sock).expect("connect slow");
    let ghost = wire::encode_request(&Request::Close {
        request_id: 9,
        tenant: "ghost".into(),
    });
    let mut framed = Vec::new();
    wire::write_frame(&mut framed, &ghost).expect("frame");
    let mut sent = 0u64;
    for _ in 0..40_000 {
        match slow.write_all(&framed) {
            Ok(()) => sent += 1,
            // The server dooms the connection and closes the socket:
            // exactly the contract under test.
            Err(_) => break,
        }
    }
    assert!(sent > 0);

    // A well-behaved client on the same transport, while the slow one
    // is being shed: full workload, every ack clean.
    let mut client = session_client(&server.sock, "shed-bystander");
    let resp = client
        .open(name, trace.schema.columns(), &trace.initial_rows)
        .expect("open bystander");
    assert_eq!(resp.code, 0, "{}", resp.detail);
    for batch in trace.to_batches() {
        let resp = client.apply(name, &batch, 0).expect("apply bystander");
        assert_eq!(resp.code, 0, "{}", resp.detail);
    }
    drop(slow);
    client.disconnect();

    let (report, engine) = server.stop();
    assert!(
        report.slow_client_sheds >= 1,
        "the flooding client must be shed (report: {report:?})"
    );
    // The bystander's durable state is exactly its sequential replay.
    let seq = {
        let shutdown_engine = &engine;
        shutdown_engine.tenant_seq(name).expect("seq")
    };
    assert_eq!(seq as usize, trace.to_batches().len());
    let shutdown = engine.shutdown();
    assert_eq!(shutdown.synced, shutdown.tenants);
}

/// Fresh sequential replay of `prefix` batches from the wire-faithful
/// starting relation (the server names the schema after the tenant).
fn fresh_prefix(name: &str, trace: &Trace, prefix: usize) -> DynFd {
    let schema = Schema::new(name.to_string(), trace.schema.columns().to_vec());
    let rel = DynamicRelation::from_rows(schema, &trace.initial_rows).expect("relation");
    let mut dynfd = DynFd::new(rel, DynFdConfig::default());
    for batch in trace.to_batches().iter().take(prefix) {
        dynfd.apply_batch(batch).expect("oracle apply");
    }
    dynfd
}

/// A child process that is killed and reaped on drop if it still runs,
/// so a failing test leaves no server behind.
struct ChildGuard(std::process::Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

#[test]
fn drain_kill_in_the_socket_server_leaves_every_tenant_recoverable() {
    // The crash window the transport adds: a client queues a backlog
    // over the socket, asks for shutdown, and the server process is
    // killed *inside* the drain (after `kill_after` more jobs complete,
    // via the hidden --drain-kill-after hook). Every tenant directory
    // must recover to a bit-identical replay of its durable prefix.
    let kill_after = 2u64;
    let scratch = Scratch::new("kill");
    let root = scratch.0.join("root");
    let sock = scratch.0.join("s.sock");
    let traces = tenant_traces(SEED, TENANTS);

    let child = std::process::Command::new(env!("CARGO_BIN_EXE_dynfd"))
        .args([
            "serve",
            "--multi",
            "--listen",
            sock.to_str().expect("utf8 sock path"),
            "--root",
            root.to_str().expect("utf8 root path"),
            "--block",
            "--queue",
            "1024",
            "--workers",
            "2",
            "--start-paused",
            "--drain-kill-after",
            &kill_after.to_string(),
        ])
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn dynfd serve --multi --listen");
    let mut child = ChildGuard(child);

    // Queue the whole backlog (delivery is paused: nothing applies
    // yet), then request shutdown. The drain resumes delivery with the
    // kill budget armed — the abort lands mid-drain.
    let mut stream = dial_unix(&sock).expect("connect child");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut request_id = 0u64;
    for (name, trace) in &traces {
        request_id += 1;
        let open = Request::Open {
            request_id,
            tenant: name.clone(),
            columns: trace.schema.columns().to_vec(),
            rows: trace.initial_rows.clone(),
        };
        wire::write_frame(&mut stream, &wire::encode_request(&open)).expect("send open");
        let payload = wire::read_frame(&mut stream)
            .expect("read open ack")
            .expect("open ack");
        let resp = wire::decode_response(&payload).expect("decode open ack");
        assert_eq!(resp.code, 0, "open {name}: {}", resp.detail);
    }
    let mut total = 0usize;
    let mut streams: Vec<(&str, std::vec::IntoIter<dynfd::relation::Batch>)> = traces
        .iter()
        .map(|(name, trace)| (name.as_str(), trace.to_batches().into_iter()))
        .collect();
    loop {
        let mut any = false;
        for (name, stream_iter) in &mut streams {
            let Some(batch) = stream_iter.next() else {
                continue;
            };
            any = true;
            request_id += 1;
            total += 1;
            let apply = Request::Apply {
                request_id,
                tenant: name.to_string(),
                deadline_ms: 0,
                session_seq: 0,
                batch,
            };
            wire::write_frame(&mut stream, &wire::encode_request(&apply)).expect("send apply");
        }
        if !any {
            break;
        }
    }
    request_id += 1;
    wire::write_frame(
        &mut stream,
        &wire::encode_request(&Request::Shutdown { request_id }),
    )
    .expect("send shutdown");
    drop(stream);

    let status = child.0.wait().expect("wait for child");
    assert!(
        !status.success(),
        "the drain kill must abort the child (it exited cleanly)"
    );

    // Recover every tenant: a durable prefix, bit-identical to a fresh
    // replay of that prefix, and at least `kill_after` jobs total made
    // it to disk (a job is durable before its completion is counted).
    let mut durable_jobs = 0u64;
    for (name, trace) in &traces {
        let (recovered, _) =
            FdEngine::recover_with_config(&root.join(name), DynFdConfig::default())
                .unwrap_or_else(|e| panic!("recover {name}: {e}"));
        let prefix = recovered.seq() as usize;
        assert!(
            prefix <= trace.to_batches().len(),
            "{name} recovered past its stream"
        );
        durable_jobs += prefix as u64;
        let oracle = fresh_prefix(name, trace, prefix);
        assert_eq!(
            oracle.logical_divergence(recovered.dynfd()),
            None,
            "{name} must equal a fresh replay of its durable prefix"
        );
    }
    assert!(
        durable_jobs >= kill_after,
        "budget {kill_after}, only {durable_jobs} durable"
    );
    assert!(
        (durable_jobs as usize) < total,
        "the kill must land mid-drain, not after it"
    );
}

mod exactly_once {
    use super::Scratch;
    use dynfd_testkit::{check_net, NetFault};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The session-resume contract, seed-randomized: under any
        /// injected network fault (delays, torn writes, duplicated
        /// frames, half-open connections, mid-stream kills), a
        /// compliant [`SessionClient`] lands every batch exactly once —
        /// tenant state and WAL bytes bit-identical to a clean
        /// sequential run.
        #[test]
        fn every_batch_lands_exactly_once_under_network_faults(
            seed in 0u64..1_000_000,
            fault_idx in 0usize..NetFault::ALL.len(),
            workers_idx in 0usize..3,
        ) {
            let fault = NetFault::ALL[fault_idx];
            let workers = [1usize, 2, 8][workers_idx];
            let scratch = Scratch::new(&format!("prop-{seed}-{fault_idx}-{workers_idx}"));
            let stats = check_net(fault, seed, workers, &scratch.0)
                .map_err(TestCaseError::fail)?;
            prop_assert_eq!(stats.states_compared, stats.tenants);
            prop_assert_eq!(stats.wals_compared, stats.tenants);
            prop_assert!(stats.batches > 0);
        }
    }
}
