//! The socket transport: many concurrent framed connections feeding
//! one [`ServeEngine`].
//!
//! [`serve_listener`] binds a TCP or unix-domain socket and runs an
//! accept loop; every connection gets its own supervision thread pair:
//!
//! * a **read thread** running the same
//!   `Dispatcher` loop as the stdin transport
//!   (shared protocol, shared guards) with the socket's read deadline
//!   armed to [`TransportConfig::tick`] so the stop flag and the idle
//!   budget are polled even on a silent peer;
//! * a **writer thread** draining a bounded outbox. Worker completions
//!   `try_send` into the outbox and *never block*: a client that stops
//!   reading long enough for its outbox to fill is doomed — the writer
//!   sends one final code-21 (`SlowClient`) frame best-effort and the
//!   socket is closed. A write-deadline miss dooms the connection the
//!   same way.
//!
//! Per-tenant apply order is preserved across connections because every
//! connection submits into the same FNV-sharded worker pool — a
//! tenant's batches land in its one shard FIFO in arrival order no
//! matter which socket carried them.
//!
//! Graceful drain: when `stop` reports true (SIGINT) or any client
//! sends `Shutdown`, the accept loop closes, every live connection
//! gets a typed `ShuttingDown` notice (code 16) and is unwound, and
//! stragglers are force-closed at [`TransportConfig::drain_deadline`].
//! The caller then drains + fsyncs the engine itself
//! ([`ServeEngine::shutdown`]) — socket teardown first, durability
//! second, so every admitted batch's completion has settled (each read
//! thread quiesces the engine before it exits).
//!
//! Session resume (`Hello` + `session_seq`, see `crate::resume`) rides
//! on top: the registry is shared across connections, so a client
//! reconnecting after a drop re-sends its unacked frames and the server
//! deduplicates — batches apply exactly once even through reconnect
//! storms.

use crate::resume::SessionRegistry;
use crate::session::{drive_connection, ConnOptions, Dispatcher, ResponseSink};
use crate::wire::{self, Response};
use crate::{ServeEngine, CODE_SLOW_CLIENT};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Where the transport listens.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ListenAddr {
    /// A TCP host:port, e.g. `127.0.0.1:7333`.
    Tcp(String),
    /// A unix-domain socket path.
    Unix(PathBuf),
}

impl ListenAddr {
    /// `unix:<path>` or anything containing a `/` is a unix socket
    /// path; everything else is a TCP `host:port`.
    pub fn parse(s: &str) -> ListenAddr {
        if let Some(path) = s.strip_prefix("unix:") {
            ListenAddr::Unix(PathBuf::from(path))
        } else if s.contains('/') {
            ListenAddr::Unix(PathBuf::from(s))
        } else {
            ListenAddr::Tcp(s.to_string())
        }
    }
}

impl std::fmt::Display for ListenAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ListenAddr::Tcp(hp) => write!(f, "tcp {hp}"),
            ListenAddr::Unix(p) => write!(f, "unix {}", p.display()),
        }
    }
}

/// One accepted connection's stream, TCP or unix.
#[derive(Debug)]
pub(crate) enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    /// Client-side dial of a listen address.
    pub(crate) fn connect(addr: &ListenAddr) -> io::Result<Stream> {
        match addr {
            ListenAddr::Tcp(hp) => TcpStream::connect(hp.as_str()).map(|s| {
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            }),
            ListenAddr::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
        }
    }

    pub(crate) fn set_client_timeouts(&self, read: Duration, write: Duration) -> io::Result<()> {
        self.set_read_timeout(Some(read))?;
        self.set_write_timeout(Some(write))
    }

    pub(crate) fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(t),
            Stream::Unix(s) => s.set_read_timeout(t),
        }
    }

    fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_write_timeout(t),
            Stream::Unix(s) => s.set_write_timeout(t),
        }
    }

    pub(crate) fn shutdown(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn bind(addr: &ListenAddr) -> io::Result<Listener> {
        match addr {
            ListenAddr::Tcp(hp) => TcpListener::bind(hp.as_str()).map(Listener::Tcp),
            ListenAddr::Unix(path) => {
                // A stale socket file from a dead process blocks bind.
                let _ = std::fs::remove_file(path);
                UnixListener::bind(path).map(Listener::Unix)
            }
        }
    }

    fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(on),
            Listener::Unix(l) => l.set_nonblocking(on),
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            }),
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }
}

/// Knobs of the socket transport.
#[derive(Clone)]
pub struct TransportConfig {
    /// Per-connection guards (frame bound, idle budget) and the shared
    /// session registry. When [`ConnOptions::sessions`] is `None` the
    /// transport creates a registry itself — socket clients always get
    /// resume.
    pub options: ConnOptions,
    /// Bounded outbox depth per connection; overflow sheds the client
    /// (code 21).
    pub outbox: usize,
    /// Read-deadline tick: how often a silent connection polls the stop
    /// flag and idle budget.
    pub tick: Duration,
    /// Write deadline per response frame; a miss dooms the connection.
    pub write_timeout: Duration,
    /// Hard deadline for unwinding live connections at drain; past it,
    /// sockets are force-closed.
    pub drain_deadline: Duration,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            options: ConnOptions::default(),
            outbox: 256,
            tick: Duration::from_millis(25),
            write_timeout: Duration::from_secs(5),
            drain_deadline: Duration::from_secs(5),
        }
    }
}

/// What one [`serve_listener`] run served, totalled at drain.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TransportReport {
    /// Connections accepted.
    pub connections: u64,
    /// Frames read across all connections.
    pub frames: u64,
    /// Response frames actually written to sockets.
    pub responses: u64,
    /// Connections doomed for reading too slowly (outbox overflow or
    /// write-deadline miss).
    pub slow_client_sheds: u64,
    /// Connections killed by the idle budget.
    pub idle_kills: u64,
    /// Distinct client sessions seen.
    pub sessions: u64,
    /// Session re-attaches (reconnects that resumed a session).
    pub sessions_resumed: u64,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    frames: AtomicU64,
    responses: AtomicU64,
    sheds: AtomicU64,
    idle_kills: AtomicU64,
}

/// The bounded per-connection outbox. Senders (worker completions, the
/// read loop) never block: overflow or a closed channel drops the
/// response and, for overflow, dooms the connection.
struct Outbox {
    tx: Mutex<Option<mpsc::SyncSender<Vec<u8>>>>,
    doomed: Arc<AtomicBool>,
    capacity: usize,
    sent: AtomicU64,
    overflowed: AtomicBool,
}

impl Outbox {
    /// Drops the sender so the writer thread drains and exits once
    /// every queued frame is out.
    fn close(&self) {
        self.tx
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
    }
}

impl ResponseSink for Outbox {
    fn send(&self, resp: &Response) {
        if self.doomed.load(Ordering::SeqCst) {
            return;
        }
        let guard = self.tx.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(tx) = guard.as_ref() else { return };
        match tx.try_send(wire::encode_response(resp)) {
            Ok(()) => {
                self.sent.fetch_add(1, Ordering::SeqCst);
            }
            Err(mpsc::TrySendError::Full(_)) => {
                // Slow client: shed. The writer thread notices `doomed`,
                // sends the final code-21 frame, and closes the socket;
                // this caller (a worker completion) moves on unblocked.
                self.overflowed.store(true, Ordering::SeqCst);
                self.doomed.store(true, Ordering::SeqCst);
            }
            Err(mpsc::TrySendError::Disconnected(_)) => {}
        }
    }
}

fn writer_loop(
    rx: mpsc::Receiver<Vec<u8>>,
    mut stream: Stream,
    doomed: Arc<AtomicBool>,
    outbox: Arc<Outbox>,
    counters: Arc<Counters>,
) {
    let mut io = wire::FrameIo::new(&mut stream);
    loop {
        if doomed.load(Ordering::SeqCst) {
            break;
        }
        match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(frame) => {
                if io.write(&frame).is_err() {
                    // Write failed or timed out: the client is dead or
                    // wedged. Doom the connection; never retry into it.
                    doomed.store(true, Ordering::SeqCst);
                    break;
                }
                counters.responses.fetch_add(1, Ordering::SeqCst);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    if outbox.overflowed.load(Ordering::SeqCst) {
        // Best-effort goodbye so a live-but-slow client learns *why*.
        let shed = crate::ServeError::SlowClient {
            capacity: outbox.capacity,
        };
        let resp = Response::error(
            0,
            "",
            CODE_SLOW_CLIENT.min(u8::MAX as u32) as u8,
            shed.to_string(),
        );
        if io.write(&wire::encode_response(&resp)).is_ok() {
            counters.responses.fetch_add(1, Ordering::SeqCst);
        }
        counters.sheds.fetch_add(1, Ordering::SeqCst);
    }
    stream.shutdown();
}

fn handle_connection(
    engine: Arc<ServeEngine>,
    stream: Stream,
    options: ConnOptions,
    config: &TransportConfig,
    stopping: Arc<AtomicBool>,
    counters: Arc<Counters>,
) {
    if stream.set_read_timeout(Some(config.tick)).is_err()
        || stream
            .set_write_timeout(Some(config.write_timeout))
            .is_err()
    {
        return;
    }
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let doomed = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::sync_channel::<Vec<u8>>(config.outbox.max(1));
    let outbox = Arc::new(Outbox {
        tx: Mutex::new(Some(tx)),
        doomed: Arc::clone(&doomed),
        capacity: config.outbox.max(1),
        sent: AtomicU64::new(0),
        overflowed: AtomicBool::new(false),
    });
    let writer = {
        let doomed = Arc::clone(&doomed);
        let outbox = Arc::clone(&outbox);
        let counters = Arc::clone(&counters);
        std::thread::Builder::new()
            .name("dynfd-conn-writer".into())
            .spawn(move || writer_loop(rx, write_half, doomed, outbox, counters))
    };
    let Ok(writer) = writer else { return };
    let sink: Arc<dyn ResponseSink> = Arc::clone(&outbox) as Arc<dyn ResponseSink>;
    let mut dispatcher = Dispatcher::new(
        Arc::clone(&engine),
        options.sessions.clone(),
        Arc::clone(&sink),
    );
    let outcome = {
        let stopping = Arc::clone(&stopping);
        let doomed = Arc::clone(&doomed);
        drive_connection(stream, &sink, &mut dispatcher, &options, move || {
            stopping.load(Ordering::SeqCst) || doomed.load(Ordering::SeqCst)
        })
    };
    counters.frames.fetch_add(outcome.frames, Ordering::SeqCst);
    if outcome.idle_killed {
        counters.idle_kills.fetch_add(1, Ordering::SeqCst);
    }
    if outcome.shutdown_requested {
        // A client Shutdown frame drains the whole transport.
        stopping.store(true, Ordering::SeqCst);
    }
    // Teardown order matters: quiesce so every admitted batch's
    // completion has settled (and reached this outbox if the session is
    // still attached here), then detach, then close the outbox so the
    // writer drains the backlog and exits. A paused engine never goes
    // idle (crash-harness runs queue work only the shutdown drain
    // delivers), so skip the wait there.
    if !engine.is_paused() {
        engine.quiesce();
    }
    dispatcher.detach();
    outbox.close();
    let _ = writer.join();
}

/// Binds `addr` and serves connections until `stop` reports true or a
/// client sends `Shutdown`; then unwinds every connection (typed
/// `ShuttingDown` notices, hard deadline) and returns the totals.
/// The engine itself keeps running — callers drain + fsync it next
/// ([`ServeEngine::shutdown`]).
pub fn serve_listener(
    engine: &Arc<ServeEngine>,
    addr: &ListenAddr,
    mut config: TransportConfig,
    stop: impl Fn() -> bool,
) -> io::Result<TransportReport> {
    if config.options.sessions.is_none() {
        config.options.sessions = Some(Arc::new(SessionRegistry::default()));
    }
    let registry = config
        .options
        .sessions
        .clone()
        .unwrap_or_else(|| Arc::new(SessionRegistry::default()));
    let listener = Listener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let stopping = Arc::new(AtomicBool::new(false));
    let counters = Arc::new(Counters::default());
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        if stop() || stopping.load(Ordering::SeqCst) {
            stopping.store(true, Ordering::SeqCst);
            break;
        }
        match listener.accept() {
            Ok(stream) => {
                counters.connections.fetch_add(1, Ordering::SeqCst);
                let engine = Arc::clone(engine);
                let options = config.options.clone();
                let config = config.clone();
                let stopping = Arc::clone(&stopping);
                let conn_counters = Arc::clone(&counters);
                let spawned =
                    std::thread::Builder::new()
                        .name("dynfd-conn".into())
                        .spawn(move || {
                            handle_connection(
                                engine,
                                stream,
                                options,
                                &config,
                                stopping,
                                conn_counters,
                            )
                        });
                match spawned {
                    Ok(handle) => workers.push(handle),
                    Err(_) => {
                        // Thread exhaustion: shed the connection (drop
                        // closes the socket) rather than die.
                        counters.connections.fetch_sub(1, Ordering::SeqCst);
                    }
                }
                // Reap finished connections so a long-lived listener
                // does not accumulate handles.
                workers.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(config.tick.min(Duration::from_millis(25)));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // Transient accept failure (per-connection resource
                // limits): back off briefly, keep serving.
                std::thread::sleep(config.tick);
            }
        }
    }
    // Drain: connections observe `stopping` within one tick, notify
    // their client, quiesce, and unwind. Past the hard deadline they
    // are abandoned (their threads exit once the process's engine
    // quiesces; the sockets die with the process or the next write).
    let deadline = Instant::now() + config.drain_deadline;
    for handle in workers {
        let mut remaining = deadline.saturating_duration_since(Instant::now());
        while !handle.is_finished() && !remaining.is_zero() {
            std::thread::sleep(Duration::from_millis(5).min(remaining));
            remaining = deadline.saturating_duration_since(Instant::now());
        }
        if handle.is_finished() {
            let _ = handle.join();
        }
    }
    if let ListenAddr::Unix(path) = addr {
        let _ = std::fs::remove_file(path);
    }
    Ok(TransportReport {
        connections: counters.connections.load(Ordering::SeqCst),
        frames: counters.frames.load(Ordering::SeqCst),
        responses: counters.responses.load(Ordering::SeqCst),
        slow_client_sheds: counters.sheds.load(Ordering::SeqCst),
        idle_kills: counters.idle_kills.load(Ordering::SeqCst),
        sessions: registry.len() as u64,
        sessions_resumed: registry.resumed(),
    })
}
