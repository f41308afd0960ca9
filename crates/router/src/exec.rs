//! The scatter-gather executor: fan a request out to shards under a
//! per-shard deadline, optionally hedge stragglers with a second
//! attempt, and account every outcome in `router.*` metrics.
//!
//! Attempt threads are detached: a supervisor returns the moment it has
//! an answer (or its deadline passes), and a straggling attempt dies on
//! its own socket timeout — its late result is discarded, its healthy
//! connection still returns to the pool. That is what turns a stalled
//! shard into a bounded `partial=` answer instead of a hung request.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vdb_obs::{Counter, Histogram, Registry};
use vdb_server::client::{Client, ClientError};

use crate::pool::ShardPool;

/// Why one shard's leg of a request failed.
#[derive(Debug, Clone)]
pub enum ShardError {
    /// Could not establish (or handshake) a connection.
    Connect {
        /// Ring slot of the shard.
        slot: usize,
        /// Human-readable cause.
        detail: String,
    },
    /// The connection died or misbehaved mid-request.
    Io {
        /// Ring slot of the shard.
        slot: usize,
        /// Human-readable cause.
        detail: String,
    },
    /// No attempt answered within the per-shard deadline.
    Timeout {
        /// Ring slot of the shard.
        slot: usize,
    },
    /// The shard answered with an error status.
    Server {
        /// Ring slot of the shard.
        slot: usize,
        /// The shard's error text.
        detail: String,
    },
}

impl ShardError {
    /// Map a client-side failure on `slot` to a shard error.
    pub fn from_client(slot: usize, e: ClientError) -> Self {
        match e {
            ClientError::Server(detail) => ShardError::Server { slot, detail },
            ClientError::Io(io) => ShardError::Io {
                slot,
                detail: io.to_string(),
            },
            ClientError::Protocol(p) => ShardError::Io {
                slot,
                detail: p.to_string(),
            },
            ClientError::ServerClosed => ShardError::Io {
                slot,
                detail: "shard closed the connection".to_string(),
            },
        }
    }

    /// The ring slot this error belongs to.
    pub fn slot(&self) -> usize {
        match self {
            ShardError::Connect { slot, .. }
            | ShardError::Io { slot, .. }
            | ShardError::Timeout { slot }
            | ShardError::Server { slot, .. } => *slot,
        }
    }
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Connect { slot, detail } => {
                write!(f, "shard {slot}: connect failed: {detail}")
            }
            ShardError::Io { slot, detail } => write!(f, "shard {slot}: {detail}"),
            ShardError::Timeout { slot } => write!(f, "shard {slot}: deadline exceeded"),
            ShardError::Server { slot, detail } => write!(f, "shard {slot}: {detail}"),
        }
    }
}

/// One shard's result of a scatter.
#[derive(Debug)]
pub struct ShardOutcome<T> {
    /// Ring slot of the shard.
    pub slot: usize,
    /// What happened.
    pub result: Result<T, ShardError>,
}

/// Deadline and hedging knobs for one scatter.
#[derive(Debug, Clone, Copy)]
pub struct ScatterOptions {
    /// Per-shard answer deadline.
    pub deadline: Duration,
    /// Launch a second attempt if the first has not answered within
    /// this (straggler hedging); `None` disables.
    pub hedge: Option<Duration>,
}

/// The router's `router.*` metrics: per-shard rtt histograms and error
/// counters, plus hedge/partial totals — registered in the router
/// daemon's one registry, beside its front end's `server.*` metrics, and
/// rendered by its `metrics` and `stats` commands.
pub struct RouterObs {
    /// Scatters that returned with at least one shard missing.
    pub partials: Counter,
    /// Hedge attempts launched.
    pub hedges: Counter,
    /// Streamed-ingest sessions proxied to shards.
    pub streams_proxied: Counter,
    /// Videos moved by `rebalance apply`.
    pub moves: Counter,
    shard_rtt: Vec<Histogram>,
    shard_errors: Vec<Counter>,
    shard_requests: Vec<Counter>,
}

impl RouterObs {
    /// Metrics for `shards` ring slots, registered in `registry`.
    pub fn new(registry: &Registry, shards: usize) -> Self {
        RouterObs {
            partials: registry.counter("router.partials"),
            hedges: registry.counter("router.hedges"),
            streams_proxied: registry.counter("router.streams_proxied"),
            moves: registry.counter("router.moves"),
            shard_rtt: (0..shards)
                .map(|i| registry.histogram(&format!("router.shard.{i}.rtt_us")))
                .collect(),
            shard_errors: (0..shards)
                .map(|i| registry.counter(&format!("router.shard.{i}.errors")))
                .collect(),
            shard_requests: (0..shards)
                .map(|i| registry.counter(&format!("router.shard.{i}.requests")))
                .collect(),
        }
    }

    /// Record one shard call's outcome.
    pub fn record(&self, slot: usize, ok: bool, rtt: Duration) {
        if let Some(c) = self.shard_requests.get(slot) {
            c.incr();
        }
        if ok {
            if let Some(h) = self.shard_rtt.get(slot) {
                h.record(rtt);
            }
        } else if let Some(c) = self.shard_errors.get(slot) {
            c.incr();
        }
    }
}

/// The operation a scatter arm runs against one shard connection;
/// shared (`Arc`) because hedging may run it on two attempt threads.
pub type ShardFn<T> = Arc<dyn Fn(&mut Client) -> Result<T, ClientError> + Send + Sync>;

/// Run `f` once against shard `slot` under `opts`, hedging stragglers.
/// Returns as soon as an attempt succeeds, every launched attempt has
/// failed, or the deadline passes — never blocks on a straggler.
pub fn call_shard<T: Send + 'static>(
    pool: &Arc<ShardPool>,
    obs: &Arc<RouterObs>,
    slot: usize,
    opts: ScatterOptions,
    f: ShardFn<T>,
) -> ShardOutcome<T> {
    let started = Instant::now();
    let (tx, rx) = mpsc::channel::<Result<T, ShardError>>();
    let outstanding = Arc::new(AtomicUsize::new(0));

    let launch = |tx: mpsc::Sender<Result<T, ShardError>>| {
        let pool = Arc::clone(pool);
        let f = Arc::clone(&f);
        outstanding.fetch_add(1, Ordering::SeqCst);
        let outstanding = Arc::clone(&outstanding);
        std::thread::spawn(move || {
            let result = pool.with_conn(slot, |c| f(c));
            outstanding.fetch_sub(1, Ordering::SeqCst);
            let _ = tx.send(result);
        });
    };
    launch(tx.clone());

    let mut hedged = false;
    let mut last_err = None;
    loop {
        let elapsed = started.elapsed();
        if elapsed >= opts.deadline {
            break;
        }
        // Wake at the hedge point if one is still pending, else at the
        // deadline.
        let wait = match opts.hedge {
            Some(h) if !hedged && h > elapsed => h - elapsed,
            _ => opts.deadline - elapsed,
        };
        match rx.recv_timeout(wait) {
            Ok(Ok(v)) => {
                obs.record(slot, true, started.elapsed());
                return ShardOutcome {
                    slot,
                    result: Ok(v),
                };
            }
            Ok(Err(e)) => {
                last_err = Some(e);
                if outstanding.load(Ordering::SeqCst) == 0 {
                    break;
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if let Some(h) = opts.hedge {
                    if !hedged && started.elapsed() >= h {
                        hedged = true;
                        obs.hedges.incr();
                        launch(tx.clone());
                        continue;
                    }
                }
                break;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    obs.record(slot, false, started.elapsed());
    ShardOutcome {
        slot,
        result: Err(last_err.unwrap_or(ShardError::Timeout { slot })),
    }
}

/// Scatter `f` to every listed slot concurrently and gather all
/// outcomes (in slot order). Bumps `router.partials` when any shard
/// misses.
pub fn scatter<T: Send + 'static>(
    pool: &Arc<ShardPool>,
    obs: &Arc<RouterObs>,
    slots: &[usize],
    opts: ScatterOptions,
    f: ShardFn<T>,
) -> Vec<ShardOutcome<T>> {
    let outcomes: Vec<ShardOutcome<T>> = std::thread::scope(|s| {
        let handles: Vec<_> = slots
            .iter()
            .map(|&slot| {
                let f = Arc::clone(&f);
                s.spawn(move || call_shard(pool, obs, slot, opts, f))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard supervisor panicked"))
            .collect()
    });
    if outcomes.iter().any(|o| o.result.is_err()) {
        obs.partials.incr();
    }
    outcomes
}
