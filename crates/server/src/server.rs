//! The serving core: a fixed-size worker pool over blocking sockets.
//!
//! One acceptor thread hands connections to `workers` threads through a
//! blocking `WorkQueue`; each worker owns one connection at a time and
//! runs its requests to completion (so the pool size bounds concurrent
//! connections — excess connections queue until a worker frees up).
//! [`FrontEnd`] runs this for any [`Handler`], monomorphised: `vdbd`'s
//! store-backed handler and the router's shard proxy share one loop.
//! Blocking reads use short socket timeouts as a poll interval, which
//! is what makes idle timeouts and prompt graceful shutdown possible
//! without an async runtime:
//!
//! * a connection silent longer than `idle_timeout` is closed;
//! * a frame that starts but does not complete within `frame_timeout` is
//!   treated as torn and costs the client its connection;
//! * on shutdown (wire `shutdown` command, [`ServerHandle::trigger_shutdown`],
//!   or a signal forwarded by [`shutdown_on_signal`]) the acceptor stops
//!   accepting and every worker *drains*: requests already sent by clients
//!   are still read, executed, and answered for `drain_grace` before the
//!   connection closes — no in-flight request loses its reply.
//!
//! Protocol violations (oversized length prefix, torn frame) close only
//! the offending connection and are counted in [`ServerMetrics`]; they can
//! never take down a worker.

use crate::metrics::{CommandKind, MetricsSnapshot, ServerEvent, ServerMetrics};
use crate::protocol::{
    decode_stream_request, encode_response, is_stream_request, write_frame, FrameError,
    StreamRequest, DEFAULT_MAX_FRAME,
};
use crate::queue::WorkQueue;
use crate::session::{SessionTable, StreamLimits, StreamStats};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vdb_obs::global_tracer;
pub use vdb_store::concurrent::ServerStore;
use vdb_store::db::DbError;
use vdb_store::shell::{self, Command};
use vdb_store::ListRow;

/// Tunables for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads (== max concurrent connections).
    pub workers: usize,
    /// Close a connection with no traffic for this long.
    pub idle_timeout: Duration,
    /// A frame whose first byte has arrived must complete within this.
    pub frame_timeout: Duration,
    /// Socket write timeout for responses.
    pub write_timeout: Duration,
    /// Reject request frames larger than this.
    pub max_frame: usize,
    /// Socket poll granularity: how often the acceptor looks for a new
    /// connection and how often an idle connection's read times out to
    /// check the shutdown flag and its idle/drain deadlines. Nothing on a
    /// request's path waits on it — the connection hand-off to workers
    /// and streaming backpressure are condvar hand-offs.
    pub poll_interval: Duration,
    /// After shutdown, keep reading already-sent requests for this long.
    pub drain_grace: Duration,
    /// Emit a one-line metrics log to stderr this often (`None` = never).
    pub metrics_log_interval: Option<Duration>,
    /// Log any request that takes at least this long to stderr, with its
    /// full span tree when the request's trace was sampled (`None` =
    /// never). Over-threshold requests are also counted in
    /// [`ServerMetrics`] as [`ServerEvent::SlowRequest`].
    pub slow_query_log: Option<Duration>,
    /// Maximum concurrently open streaming-ingest sessions; opens past
    /// the cap are rejected (admission control).
    pub max_sessions: usize,
    /// Frames the server buffers — and therefore credits — per streaming
    /// session (flow control; see [`crate::session`]).
    pub stream_credits: u32,
    /// Abort a streaming session with no traffic for this long (the
    /// reaper thread; independent of the connection `idle_timeout`).
    pub session_idle_timeout: Duration,
    /// Poison a streaming session if its analysis pump stays saturated
    /// this long while a frame waits to be buffered.
    pub stream_stall_timeout: Duration,
    /// Identity this server reports to the `shard-id` wire extra (the
    /// router's connect handshake verifies it against the ring slot).
    /// `None` answers `shard=?`, which the router tolerates.
    pub shard_id: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get().max(2))
                .unwrap_or(4),
            idle_timeout: Duration::from_secs(30),
            frame_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_frame: DEFAULT_MAX_FRAME,
            poll_interval: Duration::from_millis(20),
            drain_grace: Duration::from_millis(250),
            metrics_log_interval: None,
            slow_query_log: None,
            max_sessions: 64,
            stream_credits: 8,
            session_idle_timeout: Duration::from_secs(60),
            stream_stall_timeout: Duration::from_secs(10),
            shard_id: None,
        }
    }
}

/// Bind with `SO_REUSEADDR` so a restarted daemon can reclaim its old
/// port immediately instead of waiting out `TIME_WAIT` peers from its
/// previous life — shards restarting on a fixed address under a router
/// depend on this. Raw syscalls because std's `TcpListener::bind`
/// offers no socket-option hook; non-Linux targets fall back to the
/// plain bind.
#[cfg(target_os = "linux")]
fn bind_reuseaddr(addr: &str) -> io::Result<TcpListener> {
    use std::net::ToSocketAddrs;
    use std::os::fd::FromRawFd;

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const u8, len: u32) -> i32;
        fn bind(fd: i32, addr: *const u8, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn close(fd: i32) -> i32;
    }
    const AF_INET: i32 = 2;
    const AF_INET6: i32 = 10;
    const SOCK_STREAM: i32 = 1;
    const SOCK_CLOEXEC: i32 = 0o2000000;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;

    let mut last = io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing");
    for sa in addr.to_socket_addrs()? {
        // Raw sockaddr_in / sockaddr_in6 bytes for this address family.
        let (family, bytes): (i32, Vec<u8>) = match sa {
            SocketAddr::V4(v4) => {
                let mut b = vec![0u8; 16];
                b[0..2].copy_from_slice(&(AF_INET as u16).to_ne_bytes());
                b[2..4].copy_from_slice(&v4.port().to_be_bytes());
                b[4..8].copy_from_slice(&v4.ip().octets());
                (AF_INET, b)
            }
            SocketAddr::V6(v6) => {
                let mut b = vec![0u8; 28];
                b[0..2].copy_from_slice(&(AF_INET6 as u16).to_ne_bytes());
                b[2..4].copy_from_slice(&v6.port().to_be_bytes());
                b[4..8].copy_from_slice(&v6.flowinfo().to_be_bytes());
                b[8..24].copy_from_slice(&v6.ip().octets());
                b[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
                (AF_INET6, b)
            }
        };
        unsafe {
            let fd = socket(family, SOCK_STREAM | SOCK_CLOEXEC, 0);
            if fd < 0 {
                last = io::Error::last_os_error();
                continue;
            }
            let one: i32 = 1;
            if setsockopt(
                fd,
                SOL_SOCKET,
                SO_REUSEADDR,
                &one as *const i32 as *const u8,
                4,
            ) < 0
                || bind(fd, bytes.as_ptr(), bytes.len() as u32) < 0
                || listen(fd, 128) < 0
            {
                last = io::Error::last_os_error();
                close(fd);
                continue;
            }
            return Ok(TcpListener::from_raw_fd(fd));
        }
    }
    Err(last)
}

#[cfg(not(target_os = "linux"))]
fn bind_reuseaddr(addr: &str) -> io::Result<TcpListener> {
    TcpListener::bind(addr)
}

/// One request's outcome: its metrics kind and `+` (`Ok`) or `-` text.
pub type Reply = (CommandKind, Result<String, String>);

/// What a [`FrontEnd`] does with one connection's requests. The front
/// end owns the socket, framing and deadlines; the handler owns what a
/// request means and per-connection state. One value serves all workers.
pub trait Handler: Send + Sync + 'static {
    /// State kept from [`Handler::open`] to [`Handler::close`].
    type Conn;
    /// A connection was accepted and its socket configured.
    fn open(&self) -> Self::Conn;
    /// Execute one UTF-8 request line (inside its `server.request` span).
    fn line(&self, conn: &mut Self::Conn, line: &str) -> Reply;
    /// Execute one binary streaming message (a `0xF5` frame).
    fn stream(&self, conn: &mut Self::Conn, payload: &[u8]) -> Reply;
    /// The connection ended, however it ended.
    fn close(&self, conn: Self::Conn);
}

/// The connection-level settings of a [`FrontEnd`]; each daemon fills
/// them from its own config.
#[derive(Debug, Clone, Copy)]
pub struct FrontEndConfig {
    /// Log-line prefix and thread-name stem (`vdbd`, `vdb-router`).
    pub name: &'static str,
    /// Worker threads (== max concurrent connections).
    pub workers: usize,
    /// Accept poll and idle read timeout (see [`ServerConfig`]).
    pub poll_interval: Duration,
    /// Close a connection with no traffic for this long.
    pub idle_timeout: Duration,
    /// A started frame must complete within this.
    pub frame_timeout: Duration,
    /// Socket write timeout for responses.
    pub write_timeout: Duration,
    /// Reject request frames larger than this.
    pub max_frame: usize,
    /// After shutdown, keep serving already-sent requests for this long.
    pub drain_grace: Duration,
    /// Log requests at least this slow, with their span tree.
    pub slow_query_log: Option<Duration>,
}

/// A bound front-end socket whose address is known before any thread
/// starts; [`FrontEnd::serve`] runs it.
pub struct FrontEnd {
    listener: TcpListener,
    addr: SocketAddr,
}

impl FrontEnd {
    /// Bind with `SO_REUSEADDR` (a restarted daemon reclaims its port at
    /// once) in non-blocking mode (the acceptor polls).
    pub fn bind(addr: &str) -> io::Result<FrontEnd> {
        let listener = bind_reuseaddr(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        Ok(FrontEnd { listener, addr })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Spawn the acceptor and `config.workers` workers over `handler`,
    /// counting into `metrics`; they drain and exit once `shutdown` is set.
    pub fn serve<H: Handler>(
        self,
        config: FrontEndConfig,
        handler: H,
        metrics: Arc<ServerMetrics>,
        shutdown: Arc<AtomicBool>,
    ) -> Vec<JoinHandle<()>> {
        let name = config.name;
        let queue = Arc::new(WorkQueue::<TcpStream>::new());
        let handler = Arc::new(handler);
        let mut threads = Vec::with_capacity(config.workers + 1);
        {
            let listener = self.listener;
            let queue = Arc::clone(&queue);
            let shutdown = Arc::clone(&shutdown);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("{name}-accept"))
                    .spawn(move || {
                        accept_loop(listener, name, &queue, &shutdown, config.poll_interval)
                    })
                    .expect("spawn acceptor"),
            );
        }
        for i in 0..config.workers.max(1) {
            let queue = Arc::clone(&queue);
            let handler = Arc::clone(&handler);
            let metrics = Arc::clone(&metrics);
            let shutdown = Arc::clone(&shutdown);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("{name}-worker-{i}"))
                    .spawn(move || {
                        while let Some(stream) = queue.pop() {
                            handle_connection(stream, &config, &*handler, &metrics, &shutdown);
                        }
                    })
                    .expect("spawn worker"),
            );
        }
        threads
    }
}

/// A bound-but-not-yet-serving server.
pub struct Server {
    front: FrontEnd,
    store: ServerStore,
    config: ServerConfig,
}

impl Server {
    /// Bind the listening socket (so the ephemeral port is known before
    /// any thread starts).
    pub fn bind(store: ServerStore, config: ServerConfig) -> io::Result<Server> {
        Ok(Server {
            front: FrontEnd::bind(&config.addr)?,
            store,
            config,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Start the acceptor, worker pool, and (if configured) the metrics
    /// logger. Returns immediately.
    pub fn serve(self) -> ServerHandle {
        let Server {
            front,
            store,
            config,
        } = self;
        let addr = front.local_addr();
        let shutdown = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(ServerMetrics::new());
        let sessions = Arc::new(SessionTable::new(
            StreamLimits {
                max_sessions: config.max_sessions.max(1),
                credit_window: config.stream_credits.max(1),
                idle_timeout: config.session_idle_timeout,
                stall_timeout: config.stream_stall_timeout,
                max_frame: config.max_frame,
            },
            store.clone(),
            Arc::clone(&metrics),
        ));
        let front_config = FrontEndConfig {
            name: "vdbd",
            workers: config.workers,
            poll_interval: config.poll_interval,
            idle_timeout: config.idle_timeout,
            frame_timeout: config.frame_timeout,
            write_timeout: config.write_timeout,
            max_frame: config.max_frame,
            drain_grace: config.drain_grace,
            slow_query_log: config.slow_query_log,
        };
        let ctx = WorkerCtx {
            store: store.clone(),
            metrics: Arc::clone(&metrics),
            sessions: Arc::clone(&sessions),
            shutdown: Arc::clone(&shutdown),
            config: config.clone(),
        };
        let mut threads = front.serve(
            front_config,
            ctx,
            Arc::clone(&metrics),
            Arc::clone(&shutdown),
        );
        {
            // The session reaper: aborts streams idle past their timeout
            // so abandoned sessions release admission slots, and whatever
            // the drain leaves open at shutdown.
            let sessions = Arc::clone(&sessions);
            let shutdown = Arc::clone(&shutdown);
            let tick = config.poll_interval.max(Duration::from_millis(20));
            let drain_grace = config.drain_grace;
            threads.push(
                std::thread::Builder::new()
                    .name("vdbd-reaper".into())
                    .spawn(move || sessions.run_reaper(&shutdown, tick, drain_grace))
                    .expect("spawn session reaper"),
            );
        }
        if let Some(interval) = config.metrics_log_interval {
            let metrics = Arc::clone(&metrics);
            let shutdown = Arc::clone(&shutdown);
            let poll = config.poll_interval.max(Duration::from_millis(50));
            threads.push(
                std::thread::Builder::new()
                    .name("vdbd-metrics".into())
                    .spawn(move || {
                        let mut last = Instant::now();
                        while !shutdown.load(Ordering::SeqCst) {
                            std::thread::sleep(poll);
                            if last.elapsed() >= interval {
                                eprintln!("vdbd: {}", metrics.snapshot().one_line());
                                last = Instant::now();
                            }
                        }
                    })
                    .expect("spawn metrics logger"),
            );
        }
        ServerHandle {
            addr,
            shutdown,
            metrics,
            sessions,
            store,
            threads,
        }
    }
}

/// A running server: the address it listens on, its metrics, and the
/// shutdown controls.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<ServerMetrics>,
    sessions: Arc<SessionTable>,
    store: ServerStore,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time copy of the server's counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Streaming-session statistics (open sessions, peak buffered
    /// frames, credit window).
    pub fn stream_stats(&self) -> StreamStats {
        self.sessions.stats()
    }

    /// The store being served (e.g. for pre-loading data in tests).
    pub fn store(&self) -> &ServerStore {
        &self.store
    }

    /// The shared shutdown flag — setting it is equivalent to
    /// [`ServerHandle::trigger_shutdown`] (used by `vdbd`'s signal
    /// handler).
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Begin graceful shutdown: stop accepting, drain in-flight requests.
    pub fn trigger_shutdown(&self) {
        begin_shutdown(&self.shutdown, &self.sessions);
    }

    /// Move the streaming sessions' idle clock forward by `by` and wake
    /// the reaper — for tests that need a session to outlive a long
    /// `session_idle_timeout` without sleeping through it.
    pub fn advance_session_clock(&self, by: Duration) {
        self.sessions.advance_clock(by);
    }

    /// Wait for the server to finish (after a wire `shutdown`, a
    /// [`ServerHandle::trigger_shutdown`], or the signal flag), then sync
    /// the journal. Returns the final metrics.
    pub fn join(self) -> Result<MetricsSnapshot, DbError> {
        for t in self.threads {
            let _ = t.join();
        }
        // Workers have drained; any streaming session still open belongs
        // to a client that never committed — abort (do not commit) so no
        // partial video survives, then sync what did commit.
        self.sessions.abort_all();
        self.store.sync()?;
        Ok(self.metrics.snapshot())
    }

    /// Trigger shutdown and wait for the drain to complete.
    pub fn shutdown(self) -> Result<MetricsSnapshot, DbError> {
        self.trigger_shutdown();
        self.join()
    }
}

/// Set the shutdown flag and wake the reaper, which otherwise sees the
/// flag only at its next tick (as it does when a signal sets the bare
/// flag).
fn begin_shutdown(shutdown: &AtomicBool, sessions: &SessionTable) {
    shutdown.store(true, Ordering::SeqCst);
    sessions.kick_reaper();
}

/// Make SIGINT and SIGTERM set `flag` (a daemon's shutdown flag), so a
/// signal drains and exits like the wire `shutdown`. The signal handler
/// does one async-signal-safe atomic store; a watcher thread forwards it
/// to `flag` within 100 ms. On non-unix targets this does nothing.
pub fn shutdown_on_signal(flag: Arc<AtomicBool>) {
    #[cfg(unix)]
    {
        static SIGNALED: AtomicBool = AtomicBool::new(false);
        extern "C" fn on_signal(_signum: i32) {
            SIGNALED.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: `signal` is the C library's, called with valid signal
        // numbers and an `extern "C" fn(i32)` handler whose only action is
        // an atomic store to a static, which is async-signal-safe.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
        std::thread::spawn(move || {
            while !flag.load(Ordering::SeqCst) {
                if SIGNALED.load(Ordering::SeqCst) {
                    flag.store(true, Ordering::SeqCst);
                    break;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        });
    }
    #[cfg(not(unix))]
    drop(flag);
}

/// The acceptor thread's body: poll the non-blocking `listener` every
/// `poll` until `shutdown`, queueing each connection for the workers,
/// then close the queue. `who` prefixes the error log line.
fn accept_loop(
    listener: TcpListener,
    who: &str,
    queue: &WorkQueue<TcpStream>,
    shutdown: &AtomicBool,
    poll: Duration,
) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => queue.push(stream),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(poll),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                eprintln!("{who}: accept error: {e}");
                std::thread::sleep(poll);
            }
        }
    }
    // A client that finished its TCP handshake before shutdown may already
    // have sent a request, even if we have not accept()ed it yet. Drain
    // the backlog into the worker queue so those requests get their
    // replies too; only then close the queue (workers drain it and exit).
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => queue.push(stream),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    queue.close();
}

/// Outcome of one deadline-aware frame read (see [`FrameReader`]).
enum FrameRead<'a> {
    /// A complete frame's payload, valid until the next read.
    Frame(&'a [u8]),
    /// No bytes arrived within one poll interval.
    Idle,
    /// Clean end-of-stream at a frame boundary.
    Eof,
}

/// A connection's deadline-aware frame reader. It owns one payload
/// buffer for the connection's lifetime — grown to the largest frame
/// seen (at most the frame cap), never shrunk and never re-zeroed — so a
/// stream of 57.6 kB frames costs one socket read each, not an
/// allocation and a zero-fill besides.
#[derive(Default)]
struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// Read one frame with the stream's poll-interval read timeout.
    /// Returns `Idle` if no byte arrived; once a frame has started it
    /// must complete within `frame_timeout` or the frame counts as torn.
    fn try_read(
        &mut self,
        stream: &mut TcpStream,
        max: usize,
        frame_timeout: Duration,
    ) -> Result<FrameRead<'_>, FrameError> {
        let mut header = [0u8; 4];
        let mut deadline: Option<Instant> = None;
        let mut fill =
            |buf: &mut [u8], deadline: &mut Option<Instant>| -> Result<bool, FrameError> {
                let mut got = 0;
                while got < buf.len() {
                    match stream.read(&mut buf[got..]) {
                        Ok(0) => {
                            return if got == 0 && deadline.is_none() {
                                Ok(false) // clean EOF before any frame byte
                            } else {
                                Err(FrameError::Torn)
                            };
                        }
                        Ok(n) => {
                            got += n;
                            if deadline.is_none() {
                                *deadline = Some(Instant::now() + frame_timeout);
                            }
                        }
                        Err(e)
                            if e.kind() == io::ErrorKind::WouldBlock
                                || e.kind() == io::ErrorKind::TimedOut =>
                        {
                            match *deadline {
                                None => return Ok(true), // still idle, caller re-polls
                                Some(d) if Instant::now() >= d => return Err(FrameError::Torn),
                                Some(_) => {}
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(FrameError::Io(e)),
                    }
                }
                Ok(true)
            };

        if !fill(&mut header, &mut deadline)? {
            return Ok(FrameRead::Eof);
        }
        if deadline.is_none() {
            return Ok(FrameRead::Idle);
        }
        let declared = u32::from_le_bytes(header);
        if declared as usize > max {
            return Err(FrameError::TooLarge { declared, max });
        }
        let declared = declared as usize;
        if self.buf.len() < declared {
            self.buf.resize(declared, 0);
        }
        let payload = &mut self.buf[..declared];
        if !payload.is_empty() && !fill(payload, &mut deadline)? {
            return Err(FrameError::Torn);
        }
        Ok(FrameRead::Frame(payload))
    }
}

/// One connection, start to finish: each request runs through `handler`
/// under its own `server.request` root span; `close` runs on every exit.
fn handle_connection<H: Handler>(
    mut stream: TcpStream,
    cfg: &FrontEndConfig,
    handler: &H,
    metrics: &ServerMetrics,
    shutdown: &AtomicBool,
) {
    if stream.set_read_timeout(Some(cfg.poll_interval)).is_err()
        || stream.set_write_timeout(Some(cfg.write_timeout)).is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    metrics.count(ServerEvent::ConnectionOpened);
    let mut conn = handler.open();
    let mut reader = FrameReader::default();
    let mut idle_deadline = Instant::now() + cfg.idle_timeout;
    let mut drain_deadline: Option<Instant> = None;
    loop {
        if drain_deadline.is_none() && shutdown.load(Ordering::SeqCst) {
            drain_deadline = Some(Instant::now() + cfg.drain_grace);
        }
        match reader.try_read(&mut stream, cfg.max_frame, cfg.frame_timeout) {
            Ok(FrameRead::Idle) => {
                let now = Instant::now();
                if let Some(d) = drain_deadline {
                    if now >= d {
                        break;
                    }
                } else if now >= idle_deadline {
                    break;
                }
            }
            Ok(FrameRead::Eof) => break,
            Ok(FrameRead::Frame(payload)) => {
                idle_deadline = Instant::now() + cfg.idle_timeout;
                let started = Instant::now();
                let bytes_in = 4 + payload.len() as u64;
                // Every request gets a (head-sampled) trace of its own; the
                // server.request span is the root the store and core spans
                // hang off, and what the slow-query log renders.
                let tracer = global_tracer();
                let root = tracer.trace_root();
                let entered = root.enter();
                let mut rspan = tracer.span("server.request");
                let (kind, result) = if is_stream_request(payload) {
                    handler.stream(&mut conn, payload)
                } else {
                    match std::str::from_utf8(payload) {
                        Ok(line) => handler.line(&mut conn, line),
                        Err(_) => (
                            CommandKind::Other,
                            Err("request is not valid UTF-8".to_string()),
                        ),
                    }
                };
                let (ok, text) = match result {
                    Ok(text) => (true, text),
                    Err(text) => (false, text),
                };
                if rspan.is_recording() {
                    rspan.attr("cmd", kind.label());
                    rspan.attr("ok", ok);
                }
                drop(rspan);
                drop(entered);
                let response = encode_response(ok, &text);
                let bytes_out = 4 + response.len() as u64;
                let elapsed = started.elapsed();
                // Count before replying, so a client that has its reply is
                // guaranteed to be visible in the metrics.
                metrics.record_request(kind, ok, bytes_in, bytes_out, elapsed);
                if let Some(threshold) = cfg.slow_query_log {
                    if elapsed >= threshold {
                        metrics.count(ServerEvent::SlowRequest);
                        eprintln!(
                            "{}: slow request: {} took {}us (threshold {}us)\n{}",
                            cfg.name,
                            kind.label(),
                            elapsed.as_micros(),
                            threshold.as_micros(),
                            shell::render_trace(root.trace_id)
                        );
                    }
                }
                if write_frame(&mut stream, &response).is_err() || kind == CommandKind::Quit {
                    break;
                }
            }
            Err(e) => {
                // Protocol violation or socket failure: this connection is
                // done, the server is not. Oversized frames get a parting
                // error response (the declared length was read cleanly);
                // after a torn frame there is nothing sane to say.
                metrics.count(ServerEvent::ProtocolError);
                if matches!(e, FrameError::TooLarge { .. }) {
                    let _ = write_frame(&mut stream, &encode_response(false, &e.to_string()));
                }
                break;
            }
        }
    }
    handler.close(conn);
    metrics.count(ServerEvent::ConnectionClosed);
}

/// `vdbd`'s [`Handler`]: requests run against the store and the
/// streaming-session table.
struct WorkerCtx {
    store: ServerStore,
    metrics: Arc<ServerMetrics>,
    sessions: Arc<SessionTable>,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
}

impl Handler for WorkerCtx {
    /// The connection's id in the session table, which scopes the
    /// streaming sessions it owns.
    type Conn = u64;

    fn open(&self) -> u64 {
        self.sessions.register_conn()
    }

    fn line(&self, _conn: &mut u64, line: &str) -> Reply {
        dispatch(self, line)
    }

    fn stream(&self, conn: &mut u64, payload: &[u8]) -> Reply {
        stream_dispatch(self, *conn, payload)
    }

    /// Torn-disconnect cleanup: abort whatever sessions the connection
    /// left open.
    fn close(&self, conn: u64) {
        self.sessions.close_conn(conn);
    }
}

/// Execute one binary stream message against the session table. Session
/// failures come back as `-` responses on this connection; they never
/// close it and never touch other sessions.
fn stream_dispatch(ctx: &WorkerCtx, conn: u64, payload: &[u8]) -> Reply {
    match decode_stream_request(payload) {
        Err(e) => {
            ctx.metrics.count(ServerEvent::ProtocolError);
            (CommandKind::Other, Err(format!("bad stream message: {e}")))
        }
        Ok(StreamRequest::Open {
            name,
            width,
            height,
            fps_milli,
        }) => (
            CommandKind::StreamOpen,
            ctx.sessions.open(conn, name, width, height, fps_milli),
        ),
        Ok(StreamRequest::Frame { session, seq, data }) => (
            CommandKind::StreamFrame,
            ctx.sessions.frame(conn, session, seq, data),
        ),
        Ok(StreamRequest::Commit { session }) => (
            CommandKind::StreamCommit,
            ctx.sessions.commit(conn, session),
        ),
        Ok(StreamRequest::Abort { session }) => {
            (CommandKind::StreamAbort, ctx.sessions.abort(conn, session))
        }
    }
}

/// Execute one request line; store and core spans land under the
/// request's `server.request` span. The error side of the result becomes
/// a `-` status response.
fn dispatch(ctx: &WorkerCtx, line: &str) -> Reply {
    let trimmed = line.trim();
    match trimmed {
        "ping" => return (CommandKind::Ping, Ok("pong".to_string())),
        "shard-id" => {
            // The router's connect handshake: which shard is this?
            let id = ctx.config.shard_id.as_deref().unwrap_or("?");
            return (CommandKind::ShardId, Ok(format!("shard={id} proto=1")));
        }
        "xlist" => return (CommandKind::Xlist, Ok(xlist(ctx))),
        "metrics" => {
            // The server's own table, then the whole-stack sections: the
            // pipeline and store record into the process-global registry,
            // so one wire command reports every layer.
            let mut text = ctx.metrics.snapshot().render();
            let stack = vdb_obs::global().snapshot();
            for prefix in ["core", "store"] {
                if let Some(section) = stack.render_section(prefix) {
                    text.push_str(&section);
                }
            }
            return (CommandKind::Metrics, Ok(text));
        }
        "shutdown" => {
            begin_shutdown(&ctx.shutdown, &ctx.sessions);
            return (
                CommandKind::Shutdown,
                Ok("shutting down: draining connections".to_string()),
            );
        }
        _ => {}
    }
    if let Some(rest) = trimmed.strip_prefix("xquery ") {
        return (CommandKind::Xquery, xquery(ctx, rest));
    }
    if let Some(rest) = trimmed.strip_prefix("export ") {
        return (CommandKind::Export, export(ctx, rest));
    }
    if let Some(rest) = trimmed.strip_prefix("import ") {
        return (CommandKind::Import, import(ctx, rest));
    }
    let cmd = Command::parse(line);
    let kind = kind_of(&cmd);
    match &cmd {
        Command::Quit => (kind, Ok("bye".to_string())),
        Command::Unknown(word) => (
            kind,
            Err(format!(
                "unknown command '{word}' (try 'help'; wire extras: ping, metrics, shutdown, shard-id, xlist, xquery, export, import)"
            )),
        ),
        Command::Save(_) | Command::Load { .. } => (
            kind,
            Err(
                "save/load are not available over the wire; run vdbd with --journal for durability"
                    .to_string(),
            ),
        ),
        Command::Help => {
            let text = ctx
                .store
                .read(|db| shell::execute_readonly(db, &cmd))
                .expect("help is readonly");
            (
                kind,
                Ok(format!(
                    "{text}server commands:\n  ping              liveness probe\n  metrics           server counters and latency quantiles\n  shutdown          stop the server (drains in-flight requests)\n  shard-id          this server's shard identity (router handshake)\n  xlist / xquery    machine-readable catalog / query rows (router merge)\n  export / import   move one video's analysis between shards (rebalance)\nstreaming ingest uses binary frames on the same socket — see 'vdbc stream'\n"
                )),
            )
        }
        Command::Stats => {
            let text = ctx
                .store
                .read(|db| shell::execute_readonly(db, &cmd))
                .expect("stats is readonly");
            let snap = ctx.metrics.snapshot();
            let streams = ctx.sessions.stats();
            let stack = vdb_obs::global().snapshot();
            let frames = stack.counter("core.pipeline.frames").unwrap_or(0);
            let appends = stack.counter("store.journal.appends").unwrap_or(0);
            // Uniform whole-stack grammar past the db line: every line is
            // `  <dotted.key> <integer>` (the router appends `router.*`
            // lines in the same shape), pinned by a server test so
            // scripts can cut on whitespace.
            (
                kind,
                Ok(format!(
                    "{text}  server.requests {}\n  server.errors {}\n  server.connections {}\n  server.protocol_errors {}\n  server.stream.open {}\n  server.stream.committed {}\n  server.stream.buffered_peak {}\n  server.stream.credit_window {}\n  stack.frames_analyzed {}\n  stack.journal_appends {}\n",
                    snap.total_requests(),
                    snap.total_errors(),
                    snap.get(ServerEvent::ConnectionOpened),
                    snap.get(ServerEvent::ProtocolError),
                    streams.open_sessions,
                    snap.get(ServerEvent::SessionCommitted),
                    streams.buffered_peak,
                    streams.credit_window,
                    frames,
                    appends
                )),
            )
        }
        _ if cmd.is_readonly() => {
            let text = ctx
                .store
                .read(|db| shell::execute_readonly(db, &cmd))
                .expect("readonly command");
            (kind, Ok(text))
        }
        _ if cmd.is_mutation() => {
            let text = ctx
                .store
                .write(|backend| {
                    let out = shell::execute_mutation(backend, &cmd)
                        .expect("mutation command");
                    // Durable stores flush before the response leaves.
                    backend.sync().map(|()| out)
                })
                .unwrap_or_else(|e| format!("  journal sync failed: {e}\n"));
            (kind, Ok(text))
        }
        _ => (kind, Err("command not available over the wire".to_string())),
    }
}

/// `xlist`: one [`ListRow`] line per video, for the router's merge.
fn xlist(ctx: &WorkerCtx) -> String {
    ctx.store.read(|db| {
        let mut out = String::new();
        for meta in db.catalog().all() {
            ListRow::of(meta).encode(&mut out);
        }
        out
    })
}

/// `xquery <text>`: one shard's contribution to a distributed query
/// (see [`vdb_store::ShardQueryAnswers::encode`]).
fn xquery(ctx: &WorkerCtx, text: &str) -> Result<String, String> {
    ctx.store
        .read(|db| db.query_str_sharded(text))
        .map(|answers| answers.encode())
        .map_err(|e| e.to_string())
}

/// `export <id>`: the video's transfer record (analysis + catalog
/// metadata, no pixels) as hex, for shard-to-shard rebalance moves.
fn export(ctx: &WorkerCtx, rest: &str) -> Result<String, String> {
    let id: u64 = rest
        .trim()
        .parse()
        .map_err(|_| "usage: export <video-id>".to_string())?;
    let record = ctx
        .store
        .read(|db| vdb_store::transfer::ExportedVideo::from_db(db, id).map(|e| e.encode()))
        .map_err(|e| e.to_string())?;
    let hex = vdb_store::transfer::to_hex(&record);
    // The reply must fit the peer's frame cap (status byte + headroom).
    if hex.len() + 64 > ctx.config.max_frame {
        return Err(format!(
            "export of video {id} ({} bytes) exceeds the frame limit",
            record.len()
        ));
    }
    Ok(hex)
}

/// `import <hex>`: re-create an exported video through the streaming
/// ingest commit path; the reply mirrors a stream commit
/// (`video=… shots=… frames=… durable=…`).
fn import(ctx: &WorkerCtx, rest: &str) -> Result<String, String> {
    let bytes = vdb_store::transfer::from_hex(rest).map_err(|e| e.to_string())?;
    let exported = vdb_store::transfer::ExportedVideo::decode(&bytes).map_err(|e| e.to_string())?;
    let shots = exported.analysis.shots.len();
    let frames = exported.analysis.signs_ba.len();
    let (name, dims, fps, analysis, genres, forms) = exported.into_analysis();
    let (id, ticket) = ctx
        .store
        .write(|backend| backend.commit_stream(name, dims, fps, analysis, genres, forms))
        .map_err(|e| e.to_string())?;
    let durable = ticket.is_pending();
    // Wait outside the database lock so concurrent committers batch.
    ticket
        .wait()
        .map_err(|e| format!("journal sync failed: {e}"))?;
    Ok(format!(
        "video={id} shots={shots} frames={frames} durable={durable}"
    ))
}

fn kind_of(cmd: &Command) -> CommandKind {
    match cmd {
        Command::Help => CommandKind::Help,
        Command::List => CommandKind::List,
        Command::Stats => CommandKind::Stats,
        Command::Query(_) => CommandKind::Query,
        Command::Explain(_) => CommandKind::Explain,
        Command::Trace(_) => CommandKind::Trace,
        Command::DebugDump => CommandKind::Debug,
        Command::Board(..) => CommandKind::Board,
        Command::Tree(..) => CommandKind::Tree,
        Command::Demo(_) => CommandKind::Demo,
        Command::Remove(_) => CommandKind::Remove,
        Command::Quit => CommandKind::Quit,
        Command::Empty
        | Command::Usage(_)
        | Command::Unknown(_)
        | Command::Save(_)
        | Command::Load { .. } => CommandKind::Other,
    }
}
