//! The daemon: listeners, connection handlers, and graceful shutdown.
//!
//! Architecture (one box per thread kind):
//!
//! ```text
//!  accept loop ──► handler (1 per connection)
//!                    │  parse line → control ops answered inline
//!                    │  simulation ops → WorkerPool::try_submit
//!                    ▼                      │ queue full → "overloaded"
//!                  mpsc::recv ◄── worker ───┘ (bounded queue)
//!                    │              runs exec::execute over the
//!                    ▼              shared WorkspacePool
//!                  write response line
//! ```
//!
//! Backpressure is the bounded [`WorkerPool`] queue: when it fills, the
//! daemon *sheds* the request with an `overloaded` error instead of
//! buffering unboundedly, and counts the shed in `serve_rejected`.
//! Accepted submissions record the post-enqueue depth in the
//! `serve_queue_depth` histogram — the signal to watch when sizing
//! `--workers`/`--queue`.
//!
//! Shutdown (client `shutdown` op or [`Server::shutdown`]) drains rather
//! than aborts: the accept loop stops, blocked readers are unblocked via
//! `shutdown(Read)` so in-flight responses still go out, every handler
//! and worker is joined, and the Unix socket file is removed. No thread
//! outlives [`Server::shutdown`].
//!
//! Every close the daemon initiates (a protocol error, the `shutdown` op,
//! the drain) is a lingering close: the write half is shut first and
//! unread input discarded, so the client reads EOF after the last
//! response instead of a connection reset.

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use mkss_core::par::WorkerPool;
use mkss_obs::{
    metrics_doc, CounterId, HistogramId, MetricsDoc, MetricsSnapshot, Recorder, Registry, Stopwatch,
};
use mkss_sim::prelude::WorkspacePool;

use crate::conn::{linger_close, read_line_bounded, Conn, LineRead};
use crate::exec::{execute, ExecEnv};
use crate::protocol::{error_line, ok_line, Op, Request, WatchJob};

/// Tuning knobs for [`Server::bind_unix`] / [`Server::bind_tcp`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Simulation worker threads (`0` = available parallelism).
    pub workers: usize,
    /// Bounded job-queue capacity; submissions beyond it are shed.
    pub queue_capacity: usize,
    /// Per-request sweep fan-out threads (`0` = available parallelism).
    /// Defaults to 1: the worker pool, not the individual request, is
    /// the parallelism unit.
    pub fanout: usize,
    /// Maximum accepted request-line length in bytes; longer lines get a
    /// protocol error and the connection is closed.
    pub max_line_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            queue_capacity: 64,
            fanout: 1,
            max_line_bytes: 1 << 20,
        }
    }
}

/// Shutdown flag plus the condvar [`Server::wait_for_shutdown`] parks on.
struct ShutdownSignal {
    requested: AtomicBool,
    mutex: Mutex<()>,
    condvar: Condvar,
}

impl ShutdownSignal {
    fn new() -> ShutdownSignal {
        ShutdownSignal {
            requested: AtomicBool::new(false),
            mutex: Mutex::new(()),
            condvar: Condvar::new(),
        }
    }

    fn request(&self) {
        // mkss-lint: ordering — Release pairs with the Acquire load in is_requested; the flag carries no payload beyond itself and the notify below is already fenced by the mutex
        self.requested.store(true, Ordering::Release);
        let _guard = lock(&self.mutex);
        self.condvar.notify_all();
    }

    fn is_requested(&self) -> bool {
        // mkss-lint: ordering — Acquire pairs with the Release store in request; seeing `true` is the only obligation
        self.requested.load(Ordering::Acquire)
    }

    /// Park for up to `timeout` or until a shutdown request, whichever
    /// comes first. Returns whether shutdown has been requested — so a
    /// `watch` sampler sleeping between frames wakes *immediately* when
    /// the drain starts instead of stalling it for a full interval.
    fn wait_requested_for(&self, timeout: Duration) -> bool {
        let guard = lock(&self.mutex);
        if self.is_requested() {
            return true;
        }
        // mkss-lint: allow(condvar-wait-in-loop) — bounded doze, not a predicate wait: the caller re-checks is_requested() on return and waking early just re-samples a frame
        let (guard, _timed_out) = match self.condvar.wait_timeout(guard, timeout) {
            Ok(pair) => pair,
            Err(poisoned) => poisoned.into_inner(),
        };
        drop(guard);
        self.is_requested()
    }
}

/// State shared by the accept loop and every connection handler.
struct Shared {
    config: ServerConfig,
    jobs: WorkerPool,
    workspaces: WorkspacePool,
    registry: Arc<Registry>,
    signal: ShutdownSignal,
    /// Read-half handles of live connections (keyed by a per-connection
    /// token), shut down at exit to unblock parked readers. Handlers
    /// remove their entry when they close, so a tracked clone never
    /// holds a finished connection open.
    conns: Mutex<Vec<(u64, Conn)>>,
    next_conn: AtomicU64,
    /// Handler threads to join at exit.
    handlers: Mutex<Vec<JoinHandle<()>>>,
    /// Daemon birth time; `uptime_ms` in every published metrics doc.
    start: Stopwatch,
    /// Monotonic sequence number stamped on every published metrics doc
    /// (the `metrics` op and each `watch` frame share one stream), so
    /// pollers can detect restarts and ignore reordered frames.
    seq: AtomicU64,
}

/// Where the server listens.
enum Endpoint {
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener, SocketAddr),
}

/// A running daemon; dropping or [`Server::shutdown`] stops it cleanly.
pub struct Server {
    shared: Arc<Shared>,
    endpoint: EndpointInfo,
    accept: Option<JoinHandle<()>>,
}

/// Printable description of a bound endpoint.
#[derive(Debug, Clone)]
enum EndpointInfo {
    Unix(PathBuf),
    Tcp(SocketAddr),
}

impl Server {
    /// Bind a Unix-domain socket at `path` and start serving.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (e.g. a stale socket file).
    pub fn bind_unix(path: impl AsRef<Path>, config: ServerConfig) -> io::Result<Server> {
        let path = path.as_ref().to_path_buf();
        let listener = UnixListener::bind(&path)?;
        Ok(Server::start(Endpoint::Unix(listener, path), config))
    }

    /// Bind a TCP socket (e.g. `"127.0.0.1:0"`) and start serving.
    ///
    /// # Errors
    ///
    /// Propagates bind or local-address failures.
    pub fn bind_tcp(addr: &str, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        Ok(Server::start(Endpoint::Tcp(listener, local), config))
    }

    fn start(endpoint: Endpoint, config: ServerConfig) -> Server {
        let registry = Arc::new(Registry::new(Registry::MAX_SHARDS));
        let shared = Arc::new(Shared {
            config,
            jobs: WorkerPool::new(config.workers, config.queue_capacity),
            workspaces: WorkspacePool::new(),
            registry,
            signal: ShutdownSignal::new(),
            conns: Mutex::new(Vec::new()),
            next_conn: AtomicU64::new(0),
            handlers: Mutex::new(Vec::new()),
            start: Stopwatch::start(),
            seq: AtomicU64::new(0),
        });
        let info = match &endpoint {
            Endpoint::Unix(_, path) => EndpointInfo::Unix(path.clone()),
            Endpoint::Tcp(_, addr) => EndpointInfo::Tcp(*addr),
        };
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(endpoint, &shared))
        };
        Server {
            shared,
            endpoint: info,
            accept: Some(accept),
        }
    }

    /// The bound TCP address, when listening on TCP (lets callers bind
    /// port 0 and discover the ephemeral port).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match &self.endpoint {
            EndpointInfo::Tcp(addr) => Some(*addr),
            EndpointInfo::Unix(_) => None,
        }
    }

    /// Printable endpoint (socket path or address).
    pub fn endpoint(&self) -> String {
        match &self.endpoint {
            EndpointInfo::Unix(path) => path.display().to_string(),
            EndpointInfo::Tcp(addr) => addr.to_string(),
        }
    }

    /// The daemon's global metrics registry (serve counters plus a tee
    /// of every request's engine events).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.shared.registry
    }

    /// Whether a shutdown has been requested (by op or locally).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.signal.is_requested()
    }

    /// Block until some client sends the `shutdown` op (or
    /// [`Server::shutdown`] is called from another thread via a clone of
    /// the registry — normally the op).
    pub fn wait_for_shutdown(&self) {
        let mut guard = lock(&self.shared.signal.mutex);
        while !self.shared.signal.is_requested() {
            guard = match self.shared.signal.condvar.wait(guard) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Serve until a client requests shutdown, then stop cleanly and
    /// return the final metrics snapshot.
    pub fn run(self) -> MetricsSnapshot {
        self.wait_for_shutdown();
        self.shutdown()
    }

    /// Stop the daemon: stop accepting, let in-flight requests finish,
    /// join every thread, remove the socket file. Returns the final
    /// metrics snapshot.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.shutdown_inner();
        self.shared.registry.snapshot()
    }

    fn shutdown_inner(&mut self) {
        let Some(accept) = self.accept.take() else {
            return; // already shut down
        };
        self.shared.signal.request();
        // Wake the accept loop with a throwaway connection.
        match &self.endpoint {
            EndpointInfo::Unix(path) => drop(UnixStream::connect(path)),
            EndpointInfo::Tcp(addr) => drop(TcpStream::connect(addr)),
        }
        join_quiet(accept);
        // Unblock handlers parked in a read; responses still flush.
        for (_, conn) in lock(&self.shared.conns).drain(..) {
            let _ = conn.shutdown_read();
        }
        let handlers: Vec<_> = lock(&self.shared.handlers).drain(..).collect();
        for handler in handlers {
            join_quiet(handler);
        }
        if let EndpointInfo::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
        // The worker pool drains and joins when `shared` drops (every
        // submitted job's handler has already been joined, so the queue
        // is effectively empty by now).
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("endpoint", &self.endpoint)
            .field("shutdown_requested", &self.shutdown_requested())
            .finish_non_exhaustive()
    }
}

fn accept_loop(endpoint: Endpoint, shared: &Arc<Shared>) {
    loop {
        let conn = match &endpoint {
            Endpoint::Unix(listener, _) => listener.accept().map(|(s, _)| Conn::Unix(s)),
            Endpoint::Tcp(listener, _) => listener.accept().map(|(s, _)| Conn::Tcp(s)),
        };
        if shared.signal.is_requested() {
            return; // the waking dummy connection lands here too
        }
        let Ok(conn) = conn else { continue };
        let Ok(read_half) = conn.try_clone() else {
            continue;
        };
        // mkss-lint: ordering — token allocation needs uniqueness only; fetch_add is atomic under any ordering
        let token = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        lock(&shared.conns).push((token, read_half));
        let handler = {
            let shared = Arc::clone(shared);
            std::thread::spawn(move || {
                // Drop the tracked read-half even if the handler panics,
                // so a closed connection's peer sees EOF immediately.
                let _cleanup = ConnCleanup {
                    shared: &shared,
                    token,
                };
                handle_connection(conn, &shared);
            })
        };
        lock(&shared.handlers).push(handler);
    }
}

/// Removes a connection's tracked read-half when its handler exits.
struct ConnCleanup<'a> {
    shared: &'a Arc<Shared>,
    token: u64,
}

impl Drop for ConnCleanup<'_> {
    fn drop(&mut self) {
        lock(&self.shared.conns).retain(|(t, _)| *t != self.token);
    }
}

fn handle_connection(conn: Conn, shared: &Arc<Shared>) {
    let Ok(write_half) = conn.try_clone() else {
        return;
    };
    let mut writer = write_half;
    let mut reader = BufReader::new(conn);
    // One registry shard per connection for the serve counters, and one
    // tee handle cloned into each submitted job.
    let counters = shared.registry.handle();
    let tee: Arc<dyn Recorder> = Arc::new(shared.registry.handle());
    loop {
        let line = match read_line_bounded(&mut reader, shared.config.max_line_bytes) {
            Ok(LineRead::Line(line)) => line,
            // EOF is the client hanging up or the drain's
            // `shutdown(Read)`, which leaves the client's input unread.
            Ok(LineRead::Eof) => return linger_close(reader),
            Err(_) => return,
            Ok(LineRead::TooLong) => {
                counters.count(CounterId::ServeProtocolErrors);
                let resp = error_line(
                    None,
                    &format!(
                        "request line exceeds {} bytes; closing connection",
                        shared.config.max_line_bytes
                    ),
                );
                let _ = write_response(&mut writer, &resp);
                return linger_close(reader);
            }
            Ok(LineRead::NotUtf8) => {
                counters.count(CounterId::ServeProtocolErrors);
                let resp = error_line(None, "request line is not valid UTF-8; closing connection");
                let _ = write_response(&mut writer, &resp);
                return linger_close(reader);
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match Request::parse(&line) {
            Ok(request) => request,
            Err(e) => {
                counters.count(CounterId::ServeProtocolErrors);
                let resp = error_line(e.id, &e.message);
                if write_response(&mut writer, &resp).is_err() {
                    return;
                }
                continue;
            }
        };
        match respond(request, shared, &counters, &tee, &mut writer) {
            // The client may already have pipelined more requests behind
            // the shutdown op; they go unanswered, but without a reset.
            Ok(true) => return linger_close(reader),
            Ok(false) => {}
            Err(_) => return,
        }
    }
}

/// Answer one parsed request. Returns whether this was a `shutdown` op.
fn respond(
    request: Request,
    shared: &Arc<Shared>,
    counters: &impl Recorder,
    tee: &Arc<dyn Recorder>,
    writer: &mut Conn,
) -> io::Result<bool> {
    let id = request.id;
    match request.op {
        Op::Ping => {
            // Answered inline so liveness probes bypass a saturated
            // queue; bytes match `exec::execute` exactly.
            write_response(writer, &ok_line(id, "{\"pong\":true}", None))?;
            Ok(false)
        }
        Op::Metrics => {
            let doc = daemon_doc(shared, &[]);
            write_response(writer, &ok_line(id, &doc.to_json_line(), None))?;
            Ok(false)
        }
        Op::Watch(job) => {
            counters.count(CounterId::ServeWatches);
            let sent = stream_watch(id, job, shared, writer)?;
            let done = format!("{{\"watch_done\":true,\"frames\":{sent}}}");
            write_response(writer, &ok_line(id, &done, None))?;
            Ok(false)
        }
        Op::Shutdown => {
            shared.signal.request();
            write_response(writer, &ok_line(id, "{\"shutting_down\":true}", None))?;
            Ok(true)
        }
        op @ (Op::Simulate(_) | Op::Compare(_) | Op::Sweep(_)) => {
            let op_counter = match &op {
                Op::Simulate(_) => CounterId::ServeOpSimulate,
                Op::Compare(_) => CounterId::ServeOpCompare,
                _ => CounterId::ServeOpSweep,
            };
            let request = Request { id, op };
            let (tx, rx) = mpsc::channel::<String>();
            let job = {
                let shared = Arc::clone(shared);
                let tee = Arc::clone(tee);
                Box::new(move || {
                    let env = ExecEnv {
                        pool: &shared.workspaces,
                        global: Some(tee),
                        fanout: shared.config.fanout,
                    };
                    let _ = tx.send(execute(&request, &env));
                })
            };
            let latency = Stopwatch::start();
            let resp = match shared.jobs.try_submit(job) {
                Ok(depth) => {
                    counters.count(CounterId::ServeRequests);
                    counters.observe(HistogramId::ServeQueueDepth, depth as u64);
                    let resp = match rx.recv() {
                        Ok(resp) => resp,
                        // The worker died mid-job (a panicking policy);
                        // tell the client rather than hanging up.
                        Err(_) => error_line(Some(id), "internal error: worker terminated"),
                    };
                    // Per-op accounting lives in the daemon-global
                    // registry only; per-request registries inside
                    // `execute` stay byte-stable for the differential.
                    counters.observe(HistogramId::ServeOpLatencyUs, latency.elapsed_us());
                    counters.count(op_counter);
                    resp
                }
                Err(e) => {
                    counters.count(CounterId::ServeRejected);
                    error_line(Some(id), &format!("overloaded: {e}"))
                }
            };
            write_response(writer, &resp)?;
            Ok(false)
        }
    }
}

/// The daemon's self-describing metrics document: identity, uptime, the
/// publication sequence number, and worker-pool gauges, followed by any
/// caller-supplied entries (watch frames add their frame index), wrapping
/// the current global snapshot.
fn daemon_doc(shared: &Shared, extra: &[(&str, String)]) -> MetricsDoc {
    // mkss-lint: ordering — publication sequence label; monotonicity per document is all consumers read into it
    let seq = shared.seq.fetch_add(1, Ordering::Relaxed);
    let mut meta: Vec<(&str, String)> = vec![
        ("endpoint", "daemon".to_string()),
        ("seq", seq.to_string()),
        ("uptime_ms", shared.start.elapsed_ms_ceil().to_string()),
        ("workers", shared.jobs.worker_count().to_string()),
        ("busy_workers", shared.jobs.busy_count().to_string()),
        ("queue", shared.config.queue_capacity.to_string()),
        ("queue_depth", shared.jobs.queue_depth().to_string()),
        ("pid", std::process::id().to_string()),
    ];
    meta.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
    metrics_doc("mkss-serve", shared.registry.snapshot(), &meta, &[])
}

/// Push one metrics frame per interval until the subscription's frame
/// budget is spent, shutdown begins, or the client disconnects (a write
/// error, propagated). Returns the number of frames pushed.
fn stream_watch(id: u64, job: WatchJob, shared: &Shared, writer: &mut Conn) -> io::Result<u64> {
    let mut sent = 0u64;
    loop {
        let doc = daemon_doc(
            shared,
            &[
                ("frame", sent.to_string()),
                ("interval_ms", job.interval_ms.to_string()),
            ],
        );
        write_response(writer, &ok_line(id, &doc.to_json_line(), None))?;
        sent += 1;
        if job.frames != 0 && sent >= job.frames {
            return Ok(sent);
        }
        if shared
            .signal
            .wait_requested_for(Duration::from_millis(job.interval_ms))
        {
            return Ok(sent);
        }
    }
}

fn write_response(writer: &mut Conn, line: &str) -> io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn join_quiet(handle: JoinHandle<()>) {
    // A panicked handler already lost its connection; don't take the
    // daemon down with it.
    let _ = handle.join();
}
