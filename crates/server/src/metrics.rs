//! Server observability: per-command counters and latency histograms
//! plus one counter per [`ServerEvent`], in a `vdb-obs` registry that is
//! the only place server metrics are named and read.
//!
//! Workers record through lock-free handles indexed by [`CommandKind`] or
//! [`ServerEvent`]; readers take a [`MetricsSnapshot`] (the registry's own
//! snapshot) whose accessors look the names up. Each daemon owns one
//! *private* [`Registry`], not [`vdb_obs::global`]: tests and `loadgen` run
//! several servers in one process and rely on count-exact accounting. The
//! router adds its `router.*` metrics to the same registry; `vdbd` appends
//! the global registry's `core` and `store` sections at render time (see
//! the `metrics` command in [`crate::server`]).

use std::sync::Arc;
use std::time::Duration;
use vdb_obs::{Counter, Histogram, HistogramSnapshot, Registry, Snapshot};

/// The kinds of request the server distinguishes in its metrics. The
/// discriminant indexes [`ServerMetrics`]' per-command handles.
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
    /// Every kind, in display (and discriminant) order.
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

/// Server-wide events, one counter each. The discriminant indexes
/// [`ServerEvent::NAMES`], the one place each event's metric is named.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerEvent {
    /// An accepted connection.
    ConnectionOpened,
    /// A closed connection.
    ConnectionClosed,
    /// A protocol violation: a frame error that closed its connection
    /// (oversized frame, torn frame, …), an undecodable stream message,
    /// or a poisoned streaming session. The last two keep the connection
    /// open; a poisoned session also counts a [`ServerEvent::SessionError`].
    ProtocolError,
    /// A request over the slow-query threshold (`ServerConfig::slow_query_log`).
    SlowRequest,
    /// An opened streaming-ingest session.
    SessionOpened,
    /// A session that committed its video.
    SessionCommitted,
    /// A session aborted by the client or a torn disconnect.
    SessionAborted,
    /// A session reaped by the idle timer.
    SessionReaped,
    /// An open rejected (admission cap, bad dimensions, frame-size limit).
    SessionRejected,
    /// An error that poisoned one session; its connection stays open.
    SessionError,
    /// An accepted stream frame.
    Frame,
    /// Payload bytes of accepted stream frames.
    FrameBytes,
    /// A worker about to block for a free credit. Counted when the wait
    /// *starts*, so a worker stuck behind a stalled pump shows as a wait
    /// with no duration yet.
    CreditWait,
}

impl ServerEvent {
    /// Each event's metric name, indexed by discriminant.
    pub const NAMES: [&'static str; 13] = [
        "server.connections_opened",
        "server.connections_closed",
        "server.protocol_errors",
        "server.slow_requests",
        "server.stream.sessions_opened",
        "server.stream.sessions_committed",
        "server.stream.sessions_aborted",
        "server.stream.sessions_reaped",
        "server.stream.sessions_rejected",
        "server.stream.session_errors",
        "server.stream.frames",
        "server.stream.frame_bytes",
        "server.stream.credit_waits",
    ];

    /// This event's metric name.
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }
}

/// The histogram of finished credit waits, µs.
const CREDIT_WAIT_US: &str = "server.stream.credit_wait_us";

/// The name of one per-command metric: `server.cmd.<label>.<field>`.
fn command_metric(kind: CommandKind, field: &str) -> String {
    format!("server.cmd.{}.{field}", kind.label())
}

/// One command's registry handles.
struct CommandHandles {
    requests: Counter,
    errors: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
    latency: Histogram,
}

/// The server's recording handles. One instance per daemon, shared by
/// all workers; all methods are `&self` and the record path is lock-free.
pub struct ServerMetrics {
    registry: Arc<Registry>,
    commands: [CommandHandles; CommandKind::ALL.len()],
    events: [Counter; ServerEvent::NAMES.len()],
    credit_wait: Histogram,
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

    /// Register the server's metrics in `registry`, which should be
    /// enabled and dedicated to one daemon (the router adds its own
    /// `router.*` metrics to it).
    pub fn with_registry(registry: Arc<Registry>) -> Self {
        let commands = std::array::from_fn(|i| {
            let kind = CommandKind::ALL[i];
            CommandHandles {
                requests: registry.counter(&command_metric(kind, "requests")),
                errors: registry.counter(&command_metric(kind, "errors")),
                bytes_in: registry.counter(&command_metric(kind, "bytes_in")),
                bytes_out: registry.counter(&command_metric(kind, "bytes_out")),
                latency: registry.histogram(&command_metric(kind, "latency_us")),
            }
        });
        ServerMetrics {
            commands,
            events: std::array::from_fn(|i| registry.counter(ServerEvent::NAMES[i])),
            credit_wait: registry.histogram(CREDIT_WAIT_US),
            registry,
        }
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
        let handles = &self.commands[kind as usize];
        handles.requests.incr();
        if !ok {
            handles.errors.incr();
        }
        handles.bytes_in.add(bytes_in);
        handles.bytes_out.add(bytes_out);
        handles.latency.record(latency);
    }

    /// Record one `ev`.
    pub fn count(&self, ev: ServerEvent) {
        self.add(ev, 1);
    }

    /// Add `n` to `ev`'s counter.
    pub fn add(&self, ev: ServerEvent, n: u64) {
        self.events[ev as usize].add(n);
    }

    /// Record how long a finished credit wait took (its start was counted
    /// as a [`ServerEvent::CreditWait`]).
    pub fn record_credit_wait(&self, waited: Duration) {
        self.credit_wait.record(waited);
    }

    /// A point-in-time copy of the whole registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot(self.registry.snapshot())
    }
}

/// A point-in-time copy of a daemon's registry. The accessors look the
/// server's metric names up, so they belong on read paths (`metrics`,
/// `stats`, the log line, tests), never on the request path.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot(pub Snapshot);

impl MetricsSnapshot {
    /// `ev`'s count (0 if the registry never registered it).
    pub fn get(&self, ev: ServerEvent) -> u64 {
        self.0.counter(ev.name()).unwrap_or(0)
    }

    fn command(&self, kind: CommandKind, field: &str) -> u64 {
        self.0.counter(&command_metric(kind, field)).unwrap_or(0)
    }

    fn histogram(&self, name: &str) -> HistogramSnapshot {
        self.0
            .histogram(name)
            .cloned()
            .unwrap_or_else(HistogramSnapshot::empty)
    }

    /// Requests of `kind` handled.
    pub fn requests(&self, kind: CommandKind) -> u64 {
        self.command(kind, "requests")
    }

    /// Requests of `kind` answered with an error status.
    pub fn errors(&self, kind: CommandKind) -> u64 {
        self.command(kind, "errors")
    }

    /// `kind`'s handling-latency histogram.
    pub fn latency(&self, kind: CommandKind) -> HistogramSnapshot {
        self.histogram(&command_metric(kind, "latency_us"))
    }

    /// The finished credit waits' histogram.
    pub fn credit_wait(&self) -> HistogramSnapshot {
        self.histogram(CREDIT_WAIT_US)
    }

    fn total(&self, field: &str) -> u64 {
        CommandKind::ALL
            .iter()
            .map(|&k| self.command(k, field))
            .sum()
    }

    /// Total requests across all commands.
    pub fn total_requests(&self) -> u64 {
        self.total("requests")
    }

    /// Total error responses across all commands.
    pub fn total_errors(&self) -> u64 {
        self.total("errors")
    }

    /// Total bytes read / written (frame headers included).
    pub fn total_bytes(&self) -> (u64, u64) {
        (self.total("bytes_in"), self.total("bytes_out"))
    }

    /// Overall `(p50, p99)` handling latency in µs, merged across every
    /// command's histogram (bucket upper bounds).
    pub fn overall_latency(&self) -> (u64, u64) {
        let mut merged = HistogramSnapshot::empty();
        for &kind in &CommandKind::ALL {
            merged.merge(&self.latency(kind));
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
        for &kind in &CommandKind::ALL {
            let requests = self.requests(kind);
            if requests == 0 {
                continue;
            }
            let latency = self.latency(kind);
            let _ = writeln!(
                out,
                "  {:<13} {:>9} {:>7} {:>10} {:>10} {:>9} {:>9} {:>9}",
                kind.label(),
                requests,
                self.errors(kind),
                self.command(kind, "bytes_in"),
                self.command(kind, "bytes_out"),
                latency.mean_us(),
                latency.p50_us(),
                latency.p99_us()
            );
        }
        use ServerEvent::*;
        if self.get(SessionOpened) > 0 {
            let _ = writeln!(
                out,
                "  streams: {} opened ({} committed, {} aborted, {} reaped, {} rejected, {} errors), {} frames / {} bytes",
                self.get(SessionOpened),
                self.get(SessionCommitted),
                self.get(SessionAborted),
                self.get(SessionReaped),
                self.get(SessionRejected),
                self.get(SessionError),
                self.get(Frame),
                self.get(FrameBytes)
            );
            if self.get(CreditWait) > 0 {
                let waits = self.credit_wait();
                let _ = writeln!(
                    out,
                    "  stream credit waits: {} (p50 {}us, p99 {}us)",
                    self.get(CreditWait),
                    waits.p50_us(),
                    waits.p99_us()
                );
            }
        }
        let (bytes_in, bytes_out) = self.total_bytes();
        let _ = writeln!(
            out,
            "  total: {} requests ({} errors, {} slow), {}/{} bytes in/out, {} conns open, {} closed, {} protocol errors",
            self.total_requests(),
            self.total_errors(),
            self.get(SlowRequest),
            bytes_in,
            bytes_out,
            self.get(ConnectionOpened),
            self.get(ConnectionClosed),
            self.get(ProtocolError)
        );
        out
    }

    /// One-line summary (the periodic log line).
    pub fn one_line(&self) -> String {
        let (bytes_in, bytes_out) = self.total_bytes();
        let query = self.latency(CommandKind::Query);
        format!(
            "{} reqs ({} errs, {} proto), {}/{} B in/out, {} conns, query p50={}us p99={}us",
            self.total_requests(),
            self.total_errors(),
            self.get(ServerEvent::ProtocolError),
            bytes_in,
            bytes_out,
            self.get(ServerEvent::ConnectionOpened),
            query.p50_us(),
            query.p99_us()
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
        m.count(ServerEvent::ConnectionOpened);
        m.count(ServerEvent::ConnectionClosed);
        m.count(ServerEvent::ProtocolError);
        m.count(ServerEvent::SlowRequest);
        let snap = m.snapshot();
        assert_eq!(snap.total_requests(), 4);
        assert_eq!(snap.total_errors(), 1);
        assert_eq!(snap.total_bytes(), (59, 248));
        assert_eq!(snap.get(ServerEvent::ProtocolError), 1);
        assert_eq!(snap.get(ServerEvent::SlowRequest), 1);
        assert!(snap.render().contains("1 slow"));
        assert_eq!(snap.requests(CommandKind::Query), 3);
        assert_eq!(snap.errors(CommandKind::Query), 1);
        let q = snap.latency(CommandKind::Query);
        assert_eq!(q.mean_us(), (30 + 40 + 2000) / 3);
        // p50 falls in the [32,64) bucket → upper bound 64; p99 in the
        // 2000µs bucket → upper bound 2048.
        assert_eq!(q.p50_us(), 64);
        assert_eq!(q.p99_us(), 2048);
        assert!(snap.render().contains("query"));
        assert!(!snap.render().contains("board"), "zero rows omitted");
        assert!(snap.one_line().contains("4 reqs"));
    }

    #[test]
    fn stream_counters_accumulate_and_render() {
        use ServerEvent::*;
        let m = ServerMetrics::new();
        let quiet = m.snapshot();
        assert!(
            !quiet.render().contains("streams:"),
            "no stream line before any session"
        );
        m.count(SessionOpened);
        for _ in 0..2 {
            m.count(Frame);
            m.add(FrameBytes, 48);
        }
        m.count(SessionCommitted);
        m.count(SessionError);
        m.count(SessionRejected);
        let snap = m.snapshot();
        assert_eq!(snap.get(SessionOpened), 1);
        assert_eq!(snap.get(SessionCommitted), 1);
        assert_eq!(snap.get(SessionError), 1);
        assert_eq!(snap.get(SessionRejected), 1);
        assert_eq!(snap.get(Frame), 2);
        assert_eq!(snap.get(FrameBytes), 96);
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
            m.count(CreditWait);
            m.record_credit_wait(Duration::from_micros(waited));
        }
        let snap = m.snapshot();
        assert_eq!(snap.get(CreditWait), 2);
        assert_eq!(snap.credit_wait().p50_us(), 64);
        assert_eq!(snap.credit_wait().p99_us(), 4096);
        assert!(
            snap.render()
                .contains("stream credit waits: 2 (p50 64us, p99 4096us)"),
            "{}",
            snap.render()
        );
        assert!(snap
            .0
            .to_json()
            .contains("\"server.stream.credit_waits\":2"));
    }

    /// The `metrics` table and the periodic log line for one fixed
    /// recorded sequence, byte for byte.
    #[test]
    fn server_table_and_log_line_are_pinned() {
        use ServerEvent::*;
        let m = ServerMetrics::new();
        let us = Duration::from_micros;
        m.record_request(CommandKind::Query, true, 20, 100, us(30));
        m.record_request(CommandKind::Query, false, 10, 8, us(2000));
        m.record_request(CommandKind::StreamCommit, true, 9, 50, us(5));
        m.record_request(CommandKind::Other, false, 3, 4, us(0));
        m.count(ConnectionOpened);
        m.count(ConnectionOpened);
        m.count(ConnectionClosed);
        m.count(ProtocolError);
        m.count(SlowRequest);
        m.count(SessionOpened);
        m.count(SessionCommitted);
        m.count(SessionAborted);
        m.count(SessionReaped);
        m.count(SessionRejected);
        m.count(SessionError);
        m.count(Frame);
        m.add(FrameBytes, 48);
        m.count(Frame);
        m.add(FrameBytes, 48);
        m.count(CreditWait);
        m.record_credit_wait(us(40));
        let snap = m.snapshot();
        assert_eq!(
            snap.render(),
            concat!(
                "  command        requests  errors   bytes_in  bytes_out   mean_us    p50_us    p99_us\n",
                "  query                 2       1         30        108      1015        32      2048\n",
                "  stream.commit         1       0          9         50         5         8         8\n",
                "  other                 1       1          3          4         0         1         1\n",
                "  streams: 1 opened (1 committed, 1 aborted, 1 reaped, 1 rejected, 1 errors), 2 frames / 96 bytes\n",
                "  stream credit waits: 1 (p50 64us, p99 64us)\n",
                "  total: 4 requests (2 errors, 1 slow), 42/162 bytes in/out, 2 conns open, 1 closed, 1 protocol errors\n",
            )
        );
        assert_eq!(
            snap.one_line(),
            "4 reqs (2 errs, 1 proto), 42/162 B in/out, 2 conns, query p50=32us p99=2048us"
        );
    }

    /// Both tables are indexed by discriminant, so their orders must
    /// match the enums' declaration orders.
    #[test]
    fn tables_follow_discriminant_order() {
        for (i, kind) in CommandKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i, "{kind:?}");
        }
        assert_eq!(
            ServerEvent::CreditWait as usize + 1,
            ServerEvent::NAMES.len()
        );
        assert_eq!(
            ServerEvent::SessionOpened.name(),
            "server.stream.sessions_opened"
        );
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
        let json = m.snapshot().0.to_json();
        assert!(json.contains("\"server.cmd.query.requests\":1"), "{json}");
        assert!(
            json.contains("\"server.cmd.query.latency_us\":{\"count\":1"),
            "{json}"
        );
    }
}
