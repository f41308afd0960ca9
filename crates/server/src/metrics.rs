//! Server observability: per-command counters and latency histograms,
//! re-based on the workspace-wide `vdb-obs` registry.
//!
//! Workers record into [`ServerMetrics`] through lock-free `vdb-obs`
//! handles (no lock is ever taken on the request path); readers take a
//! [`MetricsSnapshot`] whenever they like — the `metrics` wire command,
//! the periodic log line, and tests all consume the same snapshot.
//!
//! Each [`ServerMetrics`] owns a *private* [`Registry`] rather than
//! recording into [`vdb_obs::global`]: tests and `loadgen` run several
//! servers in one process and rely on count-exact per-server accounting.
//! The daemon composes the whole-stack view at render time by appending
//! the global registry's `core` and `store` sections (where the pipeline
//! and journal record) to its own table — see the `metrics` command in
//! [`crate::server`].

use std::sync::Arc;
use std::time::Duration;
use vdb_obs::{Counter, Histogram, HistogramSnapshot, Registry};

/// The kinds of request the server distinguishes in its metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandKind {
    /// `ping` liveness probe.
    Ping,
    /// `help`.
    Help,
    /// `list`.
    List,
    /// `stats` (database statistics + server summary).
    Stats,
    /// `metrics` (this registry, rendered).
    Metrics,
    /// `query <text>`.
    Query,
    /// `explain <text>` (query + planner report).
    Explain,
    /// `trace <command>` (wrapped command + span tree).
    Trace,
    /// `debug dump` (flight-recorder drain).
    Debug,
    /// `board <video> [cards]`.
    Board,
    /// `tree <video>`.
    Tree,
    /// `demo [n]` ingest.
    Demo,
    /// `remove <video>`.
    Remove,
    /// Binary stream-open message (start a streaming-ingest session).
    StreamOpen,
    /// Binary frame-push message into an open streaming session.
    StreamFrame,
    /// Binary stream-commit message (finalize + durable commit).
    StreamCommit,
    /// Binary stream-abort message (discard a session).
    StreamAbort,
    /// `shard-id` (router connect handshake).
    ShardId,
    /// `xquery <text>` (machine-readable shard query rows).
    Xquery,
    /// `xlist` (machine-readable catalog rows).
    Xlist,
    /// `export <id>` (transfer record out, for rebalance).
    Export,
    /// `import <hex>` (transfer record in, via the stream commit path).
    Import,
    /// `quit` (close this connection).
    Quit,
    /// `shutdown` (stop the server).
    Shutdown,
    /// Anything else (unknown commands, rejected save/load, non-UTF-8).
    Other,
}

impl CommandKind {
    /// Every kind, in display order.
    pub const ALL: [CommandKind; 25] = [
        CommandKind::Ping,
        CommandKind::Help,
        CommandKind::List,
        CommandKind::Stats,
        CommandKind::Metrics,
        CommandKind::Query,
        CommandKind::Explain,
        CommandKind::Trace,
        CommandKind::Debug,
        CommandKind::Board,
        CommandKind::Tree,
        CommandKind::Demo,
        CommandKind::Remove,
        CommandKind::StreamOpen,
        CommandKind::StreamFrame,
        CommandKind::StreamCommit,
        CommandKind::StreamAbort,
        CommandKind::ShardId,
        CommandKind::Xquery,
        CommandKind::Xlist,
        CommandKind::Export,
        CommandKind::Import,
        CommandKind::Quit,
        CommandKind::Shutdown,
        CommandKind::Other,
    ];

    fn index(self) -> usize {
        Self::ALL.iter().position(|k| *k == self).expect("listed")
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            CommandKind::Ping => "ping",
            CommandKind::Help => "help",
            CommandKind::List => "list",
            CommandKind::Stats => "stats",
            CommandKind::Metrics => "metrics",
            CommandKind::Query => "query",
            CommandKind::Explain => "explain",
            CommandKind::Trace => "trace",
            CommandKind::Debug => "debug",
            CommandKind::Board => "board",
            CommandKind::Tree => "tree",
            CommandKind::Demo => "demo",
            CommandKind::Remove => "remove",
            CommandKind::StreamOpen => "stream.open",
            CommandKind::StreamFrame => "stream.frame",
            CommandKind::StreamCommit => "stream.commit",
            CommandKind::StreamAbort => "stream.abort",
            CommandKind::ShardId => "shard-id",
            CommandKind::Xquery => "xquery",
            CommandKind::Xlist => "xlist",
            CommandKind::Export => "export",
            CommandKind::Import => "import",
            CommandKind::Quit => "quit",
            CommandKind::Shutdown => "shutdown",
            CommandKind::Other => "other",
        }
    }
}

/// One command's registry handles.
struct CommandHandles {
    requests: Counter,
    errors: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
    latency: Histogram,
}

/// The server's counter registry. One instance per server, shared by all
/// workers; all methods are `&self` and the record path is lock-free.
pub struct ServerMetrics {
    registry: Arc<Registry>,
    commands: [CommandHandles; CommandKind::ALL.len()],
    connections_opened: Counter,
    connections_closed: Counter,
    protocol_errors: Counter,
    slow_requests: Counter,
    stream: StreamHandles,
}

/// Streaming-ingest session counters (`server.stream.*`).
struct StreamHandles {
    sessions_opened: Counter,
    sessions_committed: Counter,
    sessions_aborted: Counter,
    sessions_reaped: Counter,
    sessions_rejected: Counter,
    session_errors: Counter,
    frames: Counter,
    frame_bytes: Counter,
    credit_waits: Counter,
    credit_wait_us: Histogram,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerMetrics {
    /// A zeroed registry (private to this server instance).
    pub fn new() -> Self {
        Self::with_registry(Arc::new(Registry::new()))
    }

    /// Build the per-command handles in `registry`. The registry should be
    /// enabled and dedicated to one server; the metric names are
    /// `server.cmd.<command>.*`, `server.connections_*`, and
    /// `server.protocol_errors`.
    pub fn with_registry(registry: Arc<Registry>) -> Self {
        let commands = std::array::from_fn(|i| {
            let label = CommandKind::ALL[i].label();
            CommandHandles {
                requests: registry.counter(&format!("server.cmd.{label}.requests")),
                errors: registry.counter(&format!("server.cmd.{label}.errors")),
                bytes_in: registry.counter(&format!("server.cmd.{label}.bytes_in")),
                bytes_out: registry.counter(&format!("server.cmd.{label}.bytes_out")),
                latency: registry.histogram(&format!("server.cmd.{label}.latency_us")),
            }
        });
        ServerMetrics {
            connections_opened: registry.counter("server.connections_opened"),
            connections_closed: registry.counter("server.connections_closed"),
            protocol_errors: registry.counter("server.protocol_errors"),
            slow_requests: registry.counter("server.slow_requests"),
            stream: StreamHandles {
                sessions_opened: registry.counter("server.stream.sessions_opened"),
                sessions_committed: registry.counter("server.stream.sessions_committed"),
                sessions_aborted: registry.counter("server.stream.sessions_aborted"),
                sessions_reaped: registry.counter("server.stream.sessions_reaped"),
                sessions_rejected: registry.counter("server.stream.sessions_rejected"),
                session_errors: registry.counter("server.stream.session_errors"),
                frames: registry.counter("server.stream.frames"),
                frame_bytes: registry.counter("server.stream.frame_bytes"),
                credit_waits: registry.counter("server.stream.credit_waits"),
                credit_wait_us: registry.histogram("server.stream.credit_wait_us"),
            },
            commands,
            registry,
        }
    }

    /// The backing registry (for JSON export of the raw metrics).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The raw registry as one JSON object (counters and histograms keyed
    /// by `server.*` metric names).
    pub fn to_json(&self) -> String {
        self.registry.to_json()
    }

    /// Record one completed request.
    pub fn record_request(
        &self,
        kind: CommandKind,
        ok: bool,
        bytes_in: u64,
        bytes_out: u64,
        latency: Duration,
    ) {
        let handles = &self.commands[kind.index()];
        handles.requests.incr();
        if !ok {
            handles.errors.incr();
        }
        handles.bytes_in.add(bytes_in);
        handles.bytes_out.add(bytes_out);
        handles.latency.record(latency);
    }

    /// Record an accepted connection.
    pub fn connection_opened(&self) {
        self.connections_opened.incr();
    }

    /// Record a closed connection.
    pub fn connection_closed(&self) {
        self.connections_closed.incr();
    }

    /// Record a protocol violation: either one that cost the offending
    /// client its connection (oversized frame, torn frame, …) or one that
    /// poisoned a streaming session (those also count under
    /// `server.stream.session_errors` and leave the connection open).
    pub fn protocol_error(&self) {
        self.protocol_errors.incr();
    }

    /// Record a request that ran longer than the configured slow-query
    /// threshold (see `ServerConfig::slow_query_log`).
    pub fn slow_request(&self) {
        self.slow_requests.incr();
    }

    /// Record an opened streaming-ingest session.
    pub fn stream_opened(&self) {
        self.stream.sessions_opened.incr();
    }

    /// Record a session that committed its video.
    pub fn stream_committed(&self) {
        self.stream.sessions_committed.incr();
    }

    /// Record a session aborted by the client or a torn disconnect.
    pub fn stream_aborted(&self) {
        self.stream.sessions_aborted.incr();
    }

    /// Record a session reaped by the idle timer.
    pub fn stream_reaped(&self) {
        self.stream.sessions_reaped.incr();
    }

    /// Record an open rejected by the admission cap or frame-size limit.
    pub fn stream_rejected(&self) {
        self.stream.sessions_rejected.incr();
    }

    /// Record an error that poisoned one session (bad sequence number,
    /// dimension mismatch, credit overrun, …). The connection survives —
    /// contrast with [`ServerMetrics::protocol_error`].
    pub fn stream_session_error(&self) {
        self.stream.session_errors.incr();
    }

    /// Record one accepted stream frame of `bytes` payload bytes.
    pub fn stream_frame(&self, bytes: u64) {
        self.stream.frames.incr();
        self.stream.frame_bytes.add(bytes);
    }

    /// Record a worker about to block for a free credit (the pump is
    /// `credit_window` frames behind). Frames that find a credit free
    /// record nothing. Counted when the wait *starts*, so a worker stuck
    /// behind a stalled pump shows as a wait with no duration yet.
    pub fn stream_credit_wait_begin(&self) {
        self.stream.credit_waits.incr();
    }

    /// Record how long a finished credit wait took.
    pub fn stream_credit_wait_end(&self, waited: Duration) {
        self.stream.credit_wait_us.record(waited);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let commands = CommandKind::ALL
            .iter()
            .map(|&kind| {
                let handles = &self.commands[kind.index()];
                let latency = handles.latency.snapshot();
                CommandSnapshot {
                    kind,
                    requests: handles.requests.get(),
                    errors: handles.errors.get(),
                    bytes_in: handles.bytes_in.get(),
                    bytes_out: handles.bytes_out.get(),
                    mean_us: latency.mean_us(),
                    p50_us: latency.p50_us(),
                    p99_us: latency.p99_us(),
                    latency,
                }
            })
            .collect();
        let credit_wait = self.stream.credit_wait_us.snapshot();
        MetricsSnapshot {
            commands,
            connections_opened: self.connections_opened.get(),
            connections_closed: self.connections_closed.get(),
            protocol_errors: self.protocol_errors.get(),
            slow_requests: self.slow_requests.get(),
            stream: StreamSnapshot {
                sessions_opened: self.stream.sessions_opened.get(),
                sessions_committed: self.stream.sessions_committed.get(),
                sessions_aborted: self.stream.sessions_aborted.get(),
                sessions_reaped: self.stream.sessions_reaped.get(),
                sessions_rejected: self.stream.sessions_rejected.get(),
                session_errors: self.stream.session_errors.get(),
                frames: self.stream.frames.get(),
                frame_bytes: self.stream.frame_bytes.get(),
                credit_waits: self.stream.credit_waits.get(),
                credit_wait_p50_us: credit_wait.p50_us(),
                credit_wait_p99_us: credit_wait.p99_us(),
            },
        }
    }
}

/// Streaming-ingest counters at snapshot time.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamSnapshot {
    /// Sessions opened since start.
    pub sessions_opened: u64,
    /// Sessions that committed their video.
    pub sessions_committed: u64,
    /// Sessions aborted (client abort or torn disconnect).
    pub sessions_aborted: u64,
    /// Sessions reaped by the idle timer.
    pub sessions_reaped: u64,
    /// Opens rejected (admission cap, bad dimensions, oversized frames).
    pub sessions_rejected: u64,
    /// Errors that poisoned one session without closing its connection.
    pub session_errors: u64,
    /// Stream frames accepted.
    pub frames: u64,
    /// Stream frame payload bytes accepted.
    pub frame_bytes: u64,
    /// Frames whose worker had to wait for the pump to free a credit.
    pub credit_waits: u64,
    /// Median such wait, µs (bucket upper bound; 0 with no waits).
    pub credit_wait_p50_us: u64,
    /// 99th-percentile such wait, µs (bucket upper bound).
    pub credit_wait_p99_us: u64,
}

/// Counters for one command kind at snapshot time.
#[derive(Debug, Clone)]
pub struct CommandSnapshot {
    /// Which command.
    pub kind: CommandKind,
    /// Requests handled.
    pub requests: u64,
    /// Requests answered with an error status.
    pub errors: u64,
    /// Request bytes read (frame headers included).
    pub bytes_in: u64,
    /// Response bytes written (frame headers included).
    pub bytes_out: u64,
    /// Mean handling latency, µs.
    pub mean_us: u64,
    /// Median handling latency, µs (bucket upper bound).
    pub p50_us: u64,
    /// 99th-percentile handling latency, µs (bucket upper bound).
    pub p99_us: u64,
    /// The raw power-of-two latency histogram, for cross-command
    /// aggregation.
    pub latency: HistogramSnapshot,
}

/// A point-in-time copy of the whole registry.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Per-command counters (every kind, including zero rows).
    pub commands: Vec<CommandSnapshot>,
    /// Connections accepted since start.
    pub connections_opened: u64,
    /// Connections closed since start.
    pub connections_closed: u64,
    /// Protocol violations that closed a connection.
    pub protocol_errors: u64,
    /// Requests that ran over the slow-query threshold (0 when the
    /// slow-query log is disabled).
    pub slow_requests: u64,
    /// Streaming-ingest session counters.
    pub stream: StreamSnapshot,
}

impl MetricsSnapshot {
    /// Total requests across all commands.
    pub fn total_requests(&self) -> u64 {
        self.commands.iter().map(|c| c.requests).sum()
    }

    /// Total error responses across all commands.
    pub fn total_errors(&self) -> u64 {
        self.commands.iter().map(|c| c.errors).sum()
    }

    /// Total bytes read / written.
    pub fn total_bytes(&self) -> (u64, u64) {
        self.commands
            .iter()
            .fold((0, 0), |(i, o), c| (i + c.bytes_in, o + c.bytes_out))
    }

    /// Overall `(p50, p99)` handling latency in µs, merged across every
    /// command's histogram (bucket upper bounds).
    pub fn overall_latency(&self) -> (u64, u64) {
        let mut merged = HistogramSnapshot::empty();
        for c in &self.commands {
            merged.merge(&c.latency);
        }
        (merged.p50_us(), merged.p99_us())
    }

    /// Multi-line table (the `metrics` wire command's server section).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  {:<13} {:>9} {:>7} {:>10} {:>10} {:>9} {:>9} {:>9}",
            "command", "requests", "errors", "bytes_in", "bytes_out", "mean_us", "p50_us", "p99_us"
        );
        for c in &self.commands {
            if c.requests == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<13} {:>9} {:>7} {:>10} {:>10} {:>9} {:>9} {:>9}",
                c.kind.label(),
                c.requests,
                c.errors,
                c.bytes_in,
                c.bytes_out,
                c.mean_us,
                c.p50_us,
                c.p99_us
            );
        }
        if self.stream.sessions_opened > 0 {
            let s = &self.stream;
            let _ = writeln!(
                out,
                "  streams: {} opened ({} committed, {} aborted, {} reaped, {} rejected, {} errors), {} frames / {} bytes",
                s.sessions_opened,
                s.sessions_committed,
                s.sessions_aborted,
                s.sessions_reaped,
                s.sessions_rejected,
                s.session_errors,
                s.frames,
                s.frame_bytes
            );
            if s.credit_waits > 0 {
                let _ = writeln!(
                    out,
                    "  stream credit waits: {} (p50 {}us, p99 {}us)",
                    s.credit_waits, s.credit_wait_p50_us, s.credit_wait_p99_us
                );
            }
        }
        let (bytes_in, bytes_out) = self.total_bytes();
        let _ = writeln!(
            out,
            "  total: {} requests ({} errors, {} slow), {}/{} bytes in/out, {} conns open, {} closed, {} protocol errors",
            self.total_requests(),
            self.total_errors(),
            self.slow_requests,
            bytes_in,
            bytes_out,
            self.connections_opened,
            self.connections_closed,
            self.protocol_errors
        );
        out
    }

    /// One-line summary (the periodic log line).
    pub fn one_line(&self) -> String {
        let (bytes_in, bytes_out) = self.total_bytes();
        let query = self
            .commands
            .iter()
            .find(|c| c.kind == CommandKind::Query)
            .expect("query row always present");
        format!(
            "{} reqs ({} errs, {} proto), {}/{} B in/out, {} conns, query p50={}us p99={}us",
            self.total_requests(),
            self.total_errors(),
            self.protocol_errors,
            bytes_in,
            bytes_out,
            self.connections_opened,
            query.p50_us,
            query.p99_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = ServerMetrics::new();
        m.record_request(CommandKind::Query, true, 20, 100, Duration::from_micros(30));
        m.record_request(CommandKind::Query, true, 20, 90, Duration::from_micros(40));
        m.record_request(
            CommandKind::Query,
            false,
            10,
            8,
            Duration::from_micros(2000),
        );
        m.record_request(CommandKind::List, true, 9, 50, Duration::from_micros(5));
        m.connection_opened();
        m.connection_closed();
        m.protocol_error();
        m.slow_request();
        let snap = m.snapshot();
        assert_eq!(snap.total_requests(), 4);
        assert_eq!(snap.total_errors(), 1);
        assert_eq!(snap.total_bytes(), (59, 248));
        assert_eq!(snap.protocol_errors, 1);
        assert_eq!(snap.slow_requests, 1);
        assert!(snap.render().contains("1 slow"));
        let q = &snap.commands[CommandKind::Query.index()];
        assert_eq!(q.requests, 3);
        assert_eq!(q.errors, 1);
        assert_eq!(q.mean_us, (30 + 40 + 2000) / 3);
        // p50 falls in the [32,64) bucket → upper bound 64; p99 in the
        // 2000µs bucket → upper bound 2048.
        assert_eq!(q.p50_us, 64);
        assert_eq!(q.p99_us, 2048);
        assert!(snap.render().contains("query"));
        assert!(!snap.render().contains("board"), "zero rows omitted");
        assert!(snap.one_line().contains("4 reqs"));
    }

    #[test]
    fn stream_counters_accumulate_and_render() {
        let m = ServerMetrics::new();
        let quiet = m.snapshot();
        assert!(
            !quiet.render().contains("streams:"),
            "no stream line before any session"
        );
        m.stream_opened();
        m.stream_frame(48);
        m.stream_frame(48);
        m.stream_committed();
        m.stream_session_error();
        m.stream_rejected();
        let snap = m.snapshot();
        assert_eq!(snap.stream.sessions_opened, 1);
        assert_eq!(snap.stream.sessions_committed, 1);
        assert_eq!(snap.stream.session_errors, 1);
        assert_eq!(snap.stream.sessions_rejected, 1);
        assert_eq!(snap.stream.frames, 2);
        assert_eq!(snap.stream.frame_bytes, 96);
        assert!(
            snap.render().contains("streams: 1 opened"),
            "{}",
            snap.render()
        );
        assert!(
            !snap.render().contains("credit waits"),
            "no credit line until a worker has waited"
        );
        for waited in [40, 3_000] {
            m.stream_credit_wait_begin();
            m.stream_credit_wait_end(Duration::from_micros(waited));
        }
        let snap = m.snapshot();
        assert_eq!(snap.stream.credit_waits, 2);
        assert_eq!(snap.stream.credit_wait_p50_us, 64);
        assert_eq!(snap.stream.credit_wait_p99_us, 4096);
        assert!(
            snap.render()
                .contains("stream credit waits: 2 (p50 64us, p99 4096us)"),
            "{}",
            snap.render()
        );
        assert!(m.to_json().contains("\"server.stream.credit_waits\":2"));
    }

    #[test]
    fn two_servers_do_not_share_counters() {
        // The per-instance registry is what keeps loadgen's and the test
        // suite's per-server accounting exact.
        let a = ServerMetrics::new();
        let b = ServerMetrics::new();
        a.record_request(CommandKind::Ping, true, 8, 9, Duration::from_micros(1));
        assert_eq!(a.snapshot().total_requests(), 1);
        assert_eq!(b.snapshot().total_requests(), 0);
    }

    #[test]
    fn registry_json_exposes_the_raw_metrics() {
        let m = ServerMetrics::new();
        m.record_request(CommandKind::Query, true, 10, 20, Duration::from_micros(33));
        let json = m.to_json();
        assert!(json.contains("\"server.cmd.query.requests\":1"), "{json}");
        assert!(
            json.contains("\"server.cmd.query.latency_us\":{\"count\":1"),
            "{json}"
        );
    }
}
