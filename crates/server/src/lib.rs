//! # vdb-server
//!
//! The serving layer: everything the `vdbsh` REPL can do, on the wire for
//! many concurrent users.
//!
//! * [`protocol`] — length-prefixed request/response frames with a
//!   max-size limit and a one-byte status, plus the binary streaming
//!   messages (open/frame/commit/abort) that share the same framing;
//! * [`server`] — [`server::Server`]: acceptor + fixed worker pool over
//!   blocking sockets, per-connection timeouts, malformed-frame isolation,
//!   graceful drain on shutdown, optional journal-backed durability;
//! * [`session`] — [`session::SessionTable`]: server-side streaming-ingest
//!   sessions with credit-based flow control, admission control, idle
//!   reaping, and per-session failure isolation;
//! * [`queue`] — [`queue::WorkQueue`]: the blocking acceptor → worker
//!   connection hand-off (shared with the router front end);
//! * [`metrics`] — [`metrics::ServerMetrics`]: lock-free per-command
//!   counters and latency histograms (p50/p99), surfaced by the `metrics`
//!   wire command and a periodic log line;
//! * [`client`] — [`client::Client`]: the blocking client used by tests,
//!   `vdbc`, and the `loadgen` benchmark, including
//!   [`client::FrameStream`] for live streaming ingest.
//!
//! Two binaries ship with the crate: `vdbd` (the daemon) and `vdbc` (a
//! scriptable client).
//!
//! ```text
//! $ vdbd --addr 127.0.0.1:4650 --journal corpus.vdbj --workers 8 &
//! vdbd listening on 127.0.0.1:4650
//! $ printf 'demo 2\nquery ba=0.2 oa=12 limit=3\nshutdown\n' | vdbc 127.0.0.1:4650
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod session;

pub use client::{Client, ClientError, ConnectOptions, FrameStream, StreamCommit};
pub use metrics::{CommandKind, MetricsSnapshot, ServerMetrics};
pub use protocol::{Response, StreamRequest, DEFAULT_MAX_FRAME};
pub use queue::WorkQueue;
pub use server::{Server, ServerConfig, ServerHandle, ServerStore};
pub use session::{SessionTable, StreamStats};
