//! # vdb-server
//!
//! The serving layer: everything the `vdbsh` REPL can do, on the wire for
//! many concurrent users.
//!
//! * [`protocol`] — length-prefixed request/response frames with a
//!   max-size limit and a one-byte status, plus the binary streaming
//!   messages (open/frame/commit/abort) that share the same framing;
//! * [`server`] — [`server::FrontEnd`]: acceptor + fixed worker pool over
//!   blocking sockets, per-connection timeouts, malformed-frame isolation
//!   and graceful drain, generic over a [`server::Handler`] so `vdbd`
//!   and the router run one connection loop; [`server::Server`] runs
//!   `vdbd`'s handler on it, with optional journal-backed durability;
//! * [`session`] — [`session::SessionTable`]: server-side streaming-ingest
//!   sessions with credit-based flow control, admission control, idle
//!   reaping, and per-session failure isolation;
//! * [`metrics`] — [`metrics::ServerMetrics`]: lock-free per-command
//!   counters and latency histograms (p50/p99) plus one counter per
//!   [`metrics::ServerEvent`], surfaced by the `metrics` wire command,
//!   `stats` and a periodic log line;
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
mod queue;
pub mod server;
pub mod session;

pub use client::{Client, ClientError, ConnectOptions, FrameStream, StreamCommit};
pub use metrics::{CommandKind, MetricsSnapshot, ServerEvent, ServerMetrics};
pub use protocol::{Response, StreamRequest, DEFAULT_MAX_FRAME};
pub use server::{shutdown_on_signal, Server, ServerConfig, ServerHandle, ServerStore};
pub use session::{SessionTable, StreamStats};

#[cfg(test)]
mod tests {
    use crate::ServerStore;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, Ordering};
    use vdb_core::analyzer::AnalyzerConfig;
    use vdb_core::frame::Video;
    use vdb_synth::script::{generate, ShotSpec, VideoScript};

    fn clip(seed: u64) -> Video {
        let mut script = VideoScript::small(seed);
        script.push_shot(ShotSpec::fixed(0, 6));
        script.push_shot(ShotSpec::fixed(1, 6));
        generate(&script).video
    }

    fn temp_journal(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vdb-server-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("store.vdbj")
    }

    /// Both store kinds, the journaled one in a fresh directory.
    fn stores(tag: &str) -> Vec<(ServerStore, Option<PathBuf>)> {
        let path = temp_journal(tag);
        let _ = std::fs::remove_file(&path);
        let journaled = ServerStore::open_journal(&path, AnalyzerConfig::default()).unwrap();
        vec![(ServerStore::memory(), None), (journaled, Some(path))]
    }

    fn cleanup(path: Option<PathBuf>) {
        if let Some(dir) = path.as_deref().and_then(|p| p.parent()) {
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    #[test]
    fn poisoned_lock_recovers() {
        for (store, path) in stores("poison") {
            // A request that panics while holding the write lock, as a
            // failed mutation on a worker thread does.
            let s2 = store.clone();
            let panicked = std::thread::spawn(move || {
                s2.write(|_| panic!("mutation failed under the write lock"))
            })
            .join();
            assert!(panicked.is_err());
            // The store stays usable for every later request.
            assert_eq!(store.read(|db| db.len()), 0);
            store
                .write(|b| b.ingest_clip("after".into(), &clip(3), vec![], vec![]))
                .unwrap();
            store.sync().unwrap();
            assert_eq!(store.read(|db| db.len()), 1);
            cleanup(path);
        }
    }

    #[test]
    fn rwlock_many_readers_one_writer() {
        const INGESTS: usize = 3;
        for (store, path) in stores("rwlock") {
            let done = AtomicBool::new(false);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        // Readers run alongside the writer and only ever
                        // see whole ingests, in order.
                        let mut last = 0;
                        let mut reads = 0;
                        while !done.load(Ordering::Acquire) || reads < 100 {
                            let n = store.read(|db| db.len());
                            assert!(n >= last && n <= INGESTS, "saw {n} after {last}");
                            last = n;
                            reads += 1;
                        }
                    });
                }
                for i in 0..INGESTS {
                    store
                        .write(|b| {
                            b.ingest_clip(format!("clip{i}"), &clip(i as u64), vec![], vec![])
                        })
                        .unwrap();
                }
                done.store(true, Ordering::Release);
            });
            assert_eq!(store.read(|db| db.len()), INGESTS);
            cleanup(path);
        }
    }
}
