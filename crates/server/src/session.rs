//! Server-side streaming-ingest sessions.
//!
//! A [`SessionTable`] tracks every live stream the daemon is ingesting.
//! Sessions are decoupled from the worker pool: the wire messages
//! (open/frame/commit/abort, see [`crate::protocol`]) are handled by
//! whichever worker owns the connection, but the per-frame analysis runs
//! on a dedicated *pump* thread per session, fed through a bounded
//! channel. The channel bound is the credit window — the server grants
//! `credit_window` in-flight frames at open, acks each frame only after it
//! is buffered, and holds (blocking the sending connection) rather than
//! buffer past the window — so a slow disk or an expensive analysis stage
//! pushes back on the client instead of growing an unbounded queue.
//!
//! The hold is a condvar hand-off, not a timer: a worker whose session has
//! no free credit waits on the session's [`Condvar`]; the pump signals it
//! after the next frame it consumes (a frame nobody waits for costs the
//! pump no wake-up call), and so does anything that poisons or tears down
//! the session (abort, reaper, shutdown), so the worker resumes the moment
//! a slot frees and never outlives its session. Only `stall_timeout`
//! bounds the wait.
//!
//! Lifecycle and failure handling:
//!
//! * **admission** — at most `max_sessions` sessions exist at once; opens
//!   past the cap are rejected (counted as `sessions_rejected`);
//! * **poisoning** — a bad frame (wrong sequence number, wrong byte
//!   length, dimension mismatch, analyzer stall) marks the *session*
//!   failed and every later message on it gets the sticky error; the
//!   connection, its other requests, and every other session continue
//!   unharmed;
//! * **torn disconnect** — when a connection dies, its sessions are
//!   aborted: the pump is stopped and nothing is committed, so no partial
//!   video becomes visible;
//! * **idle reaping** — a session with no traffic for `idle_timeout` is
//!   aborted by the reaper thread so abandoned streams cannot hold
//!   admission slots forever.
//!
//! Commit finalizes the analysis on the pump thread (outside any database
//! lock), registers the video under a brief write lock, and waits for
//! durability on the journal's group-commit barrier — concurrent
//! committing sessions share one write barrier (see `vdb-store`'s journal
//! docs).

use crate::metrics::ServerMetrics;
use crate::server::ServerStore;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vdb_core::frame::FrameBuf;
use vdb_obs::global_tracer;
use vdb_store::session::StreamIngest;

/// Streaming limits, derived from `ServerConfig`.
#[derive(Debug, Clone)]
pub struct StreamLimits {
    /// Maximum concurrently open sessions (admission cap).
    pub max_sessions: usize,
    /// Frames the server buffers (and therefore credits) per session.
    pub credit_window: u32,
    /// Abort a session with no traffic for this long.
    pub idle_timeout: Duration,
    /// Give up enqueueing a frame if the pump stays saturated this long.
    pub stall_timeout: Duration,
    /// The wire frame cap — opens whose frames could not fit are rejected.
    pub max_frame: usize,
}

/// What a session pump reports back for a commit.
struct CommitOutcome {
    video: u64,
    shots: usize,
    frames: usize,
    durable: bool,
}

enum PumpMsg {
    Frame(FrameBuf),
    Commit(mpsc::Sender<Result<CommitOutcome, String>>),
}

/// A session's flow-control state: everything a worker waiting for a
/// credit must re-check when it wakes. Guarded by [`StreamSession::flow`];
/// every change that can end a wait is followed by a signal on
/// [`StreamSession::credit`].
struct Flow {
    /// Frames buffered (enqueued, not yet analyzed).
    queued: u32,
    /// A worker is parked on `credit` until a slot frees; the pump
    /// signals only then, so a frame that found a credit free costs the
    /// pump no wake-up call.
    waiting: bool,
    /// Set on teardown: the pump drains without analyzing, a waiting
    /// worker gives up.
    aborting: bool,
    /// Sticky session error; set once, reported on every later message.
    poisoned: Option<String>,
}

impl Flow {
    /// Record a session-scoped failure: sticky error + counters, first
    /// error wins. The caller signals `credit` after releasing the lock.
    fn poison(&mut self, metrics: &ServerMetrics, msg: String) {
        if self.poisoned.is_none() {
            self.poisoned = Some(msg);
            metrics.protocol_error();
            metrics.stream_session_error();
        }
    }
}

/// One live streaming session.
struct StreamSession {
    id: u32,
    /// The connection that opened (and exclusively owns) the session.
    conn: u64,
    dims: (u32, u32),
    window: u32,
    /// Next expected frame sequence number.
    next_seq: AtomicU32,
    /// Last traffic, on the table's clock (for the reaper).
    last_active_ms: AtomicU64,
    flow: Mutex<Flow>,
    /// Signalled whenever `flow` changes in a way a waiting worker cares
    /// about: a credit freed, the session poisoned, the session torn down.
    credit: Condvar,
    /// Frame sender; `take`n on commit/abort, which closes the pump's
    /// channel.
    tx: Mutex<Option<SyncSender<PumpMsg>>>,
    pump: Mutex<Option<JoinHandle<()>>>,
}

impl StreamSession {
    fn lock_flow(&self) -> MutexGuard<'_, Flow> {
        // Every update leaves `Flow` valid at every step, so a panic on
        // another thread while it held the lock leaves nothing to repair.
        self.flow.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn poison_message(&self) -> Option<String> {
        self.lock_flow().poisoned.clone()
    }

    /// Poison the session and wake its worker if it is waiting for a
    /// credit. The connection stays open; only this session is lost.
    fn poison(&self, metrics: &ServerMetrics, msg: String) {
        self.lock_flow().poison(metrics, msg);
        self.credit.notify_all();
    }

    /// Give back a credit taken for a frame that was never enqueued.
    fn return_credit(&self) {
        self.lock_flow().queued -= 1;
    }
}

fn failed(msg: impl std::fmt::Display) -> String {
    format!("session failed: {msg}")
}

/// Point-in-time streaming statistics (see [`SessionTable::stats`]).
#[derive(Debug, Clone, Copy)]
pub struct StreamStats {
    /// Currently open sessions.
    pub open_sessions: usize,
    /// The most frames any session ever had buffered at once — the
    /// flow-control invariant is `buffered_peak <= credit_window`.
    pub buffered_peak: u32,
    /// The per-session credit window.
    pub credit_window: u32,
}

/// The table of live streaming sessions, shared by all workers and the
/// reaper thread.
pub struct SessionTable {
    inner: Mutex<HashMap<u32, Arc<StreamSession>>>,
    next_id: AtomicU32,
    next_conn: AtomicU64,
    buffered_peak: AtomicU32,
    limits: StreamLimits,
    store: ServerStore,
    metrics: Arc<ServerMetrics>,
    epoch: Instant,
    /// Added to the real time since `epoch`: lets a test age sessions past
    /// a long idle timeout without sleeping through it.
    clock_skew_ms: AtomicU64,
    /// The reaper thread's wake-up flag and its condvar.
    reaper_kick: Mutex<bool>,
    reaper_wake: Condvar,
    /// Pumps that have answered their commit and are exiting on their
    /// own; joined by the next open or teardown instead of by the commit,
    /// which would otherwise sit out a thread exit before replying.
    retired: Mutex<Vec<JoinHandle<()>>>,
}

impl SessionTable {
    pub(crate) fn new(
        limits: StreamLimits,
        store: ServerStore,
        metrics: Arc<ServerMetrics>,
    ) -> Self {
        SessionTable {
            inner: Mutex::new(HashMap::new()),
            next_id: AtomicU32::new(1),
            next_conn: AtomicU64::new(1),
            buffered_peak: AtomicU32::new(0),
            limits,
            store,
            metrics,
            epoch: Instant::now(),
            clock_skew_ms: AtomicU64::new(0),
            reaper_kick: Mutex::new(false),
            reaper_wake: Condvar::new(),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// Register a connection; the returned id scopes session ownership.
    pub(crate) fn register_conn(&self) -> u64 {
        self.next_conn.fetch_add(1, Ordering::Relaxed)
    }

    fn lock_map(&self) -> MutexGuard<'_, HashMap<u32, Arc<StreamSession>>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The table's clock: ms since it was built, plus any test skew.
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64 + self.clock_skew_ms.load(Ordering::Relaxed)
    }

    fn touch(&self, sess: &StreamSession) {
        sess.last_active_ms.store(self.now_ms(), Ordering::Relaxed);
    }

    /// Look up a session on behalf of the connection that must own it.
    fn owned(&self, conn: u64, session: u32) -> Result<Arc<StreamSession>, String> {
        let sess = self
            .lock_map()
            .get(&session)
            .cloned()
            .ok_or_else(|| format!("unknown session {session}"))?;
        if sess.conn != conn {
            return Err(format!("session {session} belongs to another connection"));
        }
        Ok(sess)
    }

    /// Take the session out of the table. Exactly one caller gets `true`
    /// and with it the duty to stop the pump and count the outcome, so a
    /// session torn down from two sides (say the reaper and its own
    /// connection closing) is still counted once.
    fn claim(&self, sess: &StreamSession) -> bool {
        self.lock_map().remove(&sess.id).is_some()
    }

    /// Stop a claimed session's pump. Wakes the session's worker if it is
    /// waiting for a credit, then blocks until the pump thread exits
    /// (bounded: it only drains its channel).
    fn stop_pump(&self, sess: &StreamSession) {
        sess.lock_flow().aborting = true;
        sess.credit.notify_all();
        drop(sess.tx.lock().unwrap_or_else(|e| e.into_inner()).take());
        let pump = sess.pump.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(handle) = pump {
            let _ = handle.join();
        }
    }

    /// Join the pumps of committed sessions. They were past their last
    /// instruction when they were retired, so this does not wait.
    fn join_retired(&self) {
        let retired = std::mem::take(&mut *self.retired.lock().unwrap_or_else(|e| e.into_inner()));
        for pump in retired {
            let _ = pump.join();
        }
    }

    /// Claim and stop every session in `doomed`, counting each through
    /// `count` — once, by whoever claimed it.
    fn teardown_all(&self, doomed: Vec<Arc<StreamSession>>, count: impl Fn(&ServerMetrics)) {
        self.join_retired();
        for sess in doomed {
            if self.claim(&sess) {
                self.stop_pump(&sess);
                count(&self.metrics);
            }
        }
    }

    /// Handle a stream-open message: admission, validation, pump spawn.
    pub(crate) fn open(
        &self,
        conn: u64,
        name: &str,
        width: u32,
        height: u32,
        fps_milli: u32,
    ) -> Result<String, String> {
        if width == 0 || height == 0 {
            self.metrics.stream_rejected();
            return Err(format!("bad stream dimensions {width}x{height}"));
        }
        let frame_bytes = (width as u64) * (height as u64) * 3;
        let wire_bytes = frame_bytes + crate::protocol::STREAM_HEADER as u64;
        if wire_bytes > self.limits.max_frame as u64 {
            self.metrics.stream_rejected();
            return Err(format!(
                "{width}x{height} frames need {wire_bytes}-byte messages, over the {}-byte frame cap",
                self.limits.max_frame
            ));
        }
        if fps_milli == 0 {
            self.metrics.stream_rejected();
            return Err("frame rate must be positive".to_string());
        }
        let fps = f64::from(fps_milli) / 1000.0;
        self.join_retired();
        let config = self.store.read(|db| db.config());
        let window = self.limits.credit_window.max(1);
        let mut map = self.lock_map();
        if map.len() >= self.limits.max_sessions {
            drop(map);
            self.metrics.stream_rejected();
            return Err(format!(
                "session limit reached ({} open); retry after a session closes",
                self.limits.max_sessions
            ));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // Frames (<= window, enforced by the credit gate) plus the commit
        // message always fit, so a send never finds the channel full.
        let (tx, rx) = mpsc::sync_channel::<PumpMsg>(window as usize + 1);
        let sess = Arc::new(StreamSession {
            id,
            conn,
            dims: (width, height),
            window,
            next_seq: AtomicU32::new(0),
            last_active_ms: AtomicU64::new(0),
            flow: Mutex::new(Flow {
                queued: 0,
                waiting: false,
                aborting: false,
                poisoned: None,
            }),
            credit: Condvar::new(),
            tx: Mutex::new(Some(tx)),
            pump: Mutex::new(None),
        });
        self.touch(&sess);
        let ingest = StreamIngest::new(name, (width, height), fps, config);
        let pump = {
            let sess = Arc::clone(&sess);
            let store = self.store.clone();
            let metrics = Arc::clone(&self.metrics);
            std::thread::Builder::new()
                .name(format!("vdbd-stream-{id}"))
                .spawn(move || pump_loop(sess, ingest, rx, store, metrics))
                .map_err(|e| format!("cannot spawn session pump: {e}"))?
        };
        *sess.pump.lock().unwrap_or_else(|e| e.into_inner()) = Some(pump);
        map.insert(id, Arc::clone(&sess));
        drop(map);
        self.metrics.stream_opened();
        Ok(format!("session={id} credits={window}"))
    }

    /// Take one credit for a frame about to be enqueued, waiting for the
    /// pump to free one if the window is full. Returns the credits left.
    ///
    /// The client releases a credit when it reads our ack, which happens
    /// before the pump has analyzed the frame — so a full-window pipeline
    /// can legitimately arrive while `queued` is still at the window.
    /// Backpressure here is blocking, not fatal: hold the frame until the
    /// pump frees a slot, and only poison if it makes no progress for the
    /// whole stall budget.
    fn take_credit(&self, sess: &StreamSession) -> Result<u32, String> {
        let mut flow = sess.lock_flow();
        if flow.queued >= sess.window {
            self.metrics.stream_credit_wait_begin();
            let started = Instant::now();
            flow.waiting = true;
            while flow.queued >= sess.window && flow.poisoned.is_none() && !flow.aborting {
                let Some(left) = self
                    .limits
                    .stall_timeout
                    .checked_sub(started.elapsed())
                    .filter(|left| !left.is_zero())
                else {
                    let msg = format!(
                        "session stalled: {} frames buffered against a window of {} and the \
                         analyzer made no progress",
                        flow.queued, sess.window
                    );
                    flow.poison(&self.metrics, msg);
                    break;
                };
                flow = sess
                    .credit
                    .wait_timeout(flow, left)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
            flow.waiting = false;
            self.metrics.stream_credit_wait_end(started.elapsed());
        }
        if let Some(msg) = &flow.poisoned {
            return Err(failed(msg));
        }
        if flow.aborting {
            return Err(format!("session {} was aborted", sess.id));
        }
        flow.queued += 1;
        self.buffered_peak.fetch_max(flow.queued, Ordering::AcqRel);
        Ok(sess.window - flow.queued)
    }

    /// Handle a frame-push message: validate, buffer, ack with the free
    /// credit count.
    pub(crate) fn frame(
        &self,
        conn: u64,
        session: u32,
        seq: u32,
        data: &[u8],
    ) -> Result<String, String> {
        let sess = self.owned(conn, session)?;
        if let Some(msg) = sess.poison_message() {
            return Err(failed(msg));
        }
        self.touch(&sess);
        let poisoned = |msg: String| {
            sess.poison(&self.metrics, msg.clone());
            Err(failed(msg))
        };
        let expected = sess.next_seq.load(Ordering::Acquire);
        if seq != expected {
            return poisoned(format!(
                "out-of-order frame: expected seq {expected}, got {seq}"
            ));
        }
        let need = (sess.dims.0 as usize) * (sess.dims.1 as usize) * 3;
        if data.len() != need {
            return poisoned(format!(
                "frame {} has {} bytes, expected {} for {}x{}",
                seq,
                data.len(),
                need,
                sess.dims.0,
                sess.dims.1
            ));
        }
        let frame = match FrameBuf::from_rgb24(sess.dims.0, sess.dims.1, data) {
            Ok(frame) => frame,
            Err(e) => return poisoned(e.to_string()),
        };
        let free = self.take_credit(&sess)?;
        // `try_send` never blocks, so holding the sender's lock across it
        // is fine — and a full channel is not backpressure (the credit
        // just taken proves a slot is free) but broken accounting.
        let sent = match &*sess.tx.lock().unwrap_or_else(|e| e.into_inner()) {
            Some(tx) => tx.try_send(PumpMsg::Frame(frame)),
            None => {
                sess.return_credit();
                return Err("session is closing".to_string());
            }
        };
        match sent {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                sess.return_credit();
                return poisoned("pump queue full with a credit in hand".to_string());
            }
            Err(TrySendError::Disconnected(_)) => {
                sess.return_credit();
                return poisoned(
                    sess.poison_message()
                        .unwrap_or_else(|| "session pump stopped".to_string()),
                );
            }
        }
        sess.next_seq.store(seq + 1, Ordering::Release);
        self.metrics.stream_frame(data.len() as u64);
        Ok(format!("seq={seq} credits={free}"))
    }

    /// Handle a commit message: drain, finalize, register, wait durable.
    pub(crate) fn commit(&self, conn: u64, session: u32) -> Result<String, String> {
        let sess = self.owned(conn, session)?;
        // From here the session is ours alone: the reaper and a shutdown
        // can no longer find it, so whatever happens below is counted once.
        // (Its admission slot frees now rather than when the commit ends;
        // a worker runs one commit at a time, so that overshoot is bounded
        // by the pool size.)
        if !self.claim(&sess) {
            return Err(format!("unknown session {session}"));
        }
        if let Some(msg) = sess.poison_message() {
            self.stop_pump(&sess);
            self.metrics.stream_aborted();
            return Err(failed(msg));
        }
        let (reply_tx, reply_rx) = mpsc::channel();
        // The channel holds at most `window` frames, so the commit slot
        // (capacity window+1) is always free — but if the pump died this
        // send fails, which the recv below reports.
        if let Some(tx) = sess.tx.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = tx.send(PumpMsg::Commit(reply_tx));
        }
        let outcome = reply_rx
            .recv_timeout(Duration::from_secs(120))
            .map_err(|_| "session pump stopped before the commit finished".to_string())
            .and_then(|r| r);
        match outcome {
            Ok(done) => {
                // The pump replied with its last breath: leave the join to
                // a later call rather than hold the client's reply for it.
                let pump = sess.pump.lock().unwrap_or_else(|e| e.into_inner()).take();
                self.retired
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .extend(pump);
                self.metrics.stream_committed();
                Ok(format!(
                    "video={} shots={} frames={} durable={}",
                    done.video, done.shots, done.frames, done.durable
                ))
            }
            Err(msg) => {
                self.stop_pump(&sess);
                // Failures first surfacing at commit (empty stream, write
                // error) have not been counted yet; poisoned sessions were.
                sess.poison(&self.metrics, msg.clone());
                self.metrics.stream_aborted();
                Err(failed(msg))
            }
        }
    }

    /// Handle an abort message: discard the session, commit nothing.
    pub(crate) fn abort(&self, conn: u64, session: u32) -> Result<String, String> {
        let sess = self.owned(conn, session)?;
        self.teardown_all(vec![sess], ServerMetrics::stream_aborted);
        Ok("aborted".to_string())
    }

    /// Abort every session owned by a connection (torn-disconnect
    /// cleanup; also runs after a clean `quit`/EOF with sessions open).
    pub(crate) fn close_conn(&self, conn: u64) {
        let owned = self
            .lock_map()
            .values()
            .filter(|s| s.conn == conn)
            .cloned()
            .collect();
        self.teardown_all(owned, ServerMetrics::stream_aborted);
    }

    /// Abort sessions idle longer than the limit (reaper thread).
    pub(crate) fn reap_idle(&self) {
        let now_ms = self.now_ms();
        let idle_ms = self.limits.idle_timeout.as_millis() as u64;
        let stale = self
            .lock_map()
            .values()
            .filter(|s| now_ms.saturating_sub(s.last_active_ms.load(Ordering::Relaxed)) > idle_ms)
            .cloned()
            .collect();
        self.teardown_all(stale, ServerMetrics::stream_reaped);
    }

    /// Abort everything (shutdown drain).
    pub(crate) fn abort_all(&self) {
        let all = self.lock_map().values().cloned().collect();
        self.teardown_all(all, ServerMetrics::stream_aborted);
    }

    /// The reaper thread's body. Until `shutdown` is set: reap idle
    /// sessions every `tick`, or at once when kicked. After it: sessions
    /// whose connections have not closed them within `drain_grace` are
    /// aborted, which also releases any worker still waiting for a credit
    /// from a pump that stopped making progress.
    pub(crate) fn run_reaper(&self, shutdown: &AtomicBool, tick: Duration, drain_grace: Duration) {
        while !shutdown.load(Ordering::SeqCst) {
            self.reap_idle();
            self.reaper_nap(tick);
        }
        let drained = Instant::now() + drain_grace;
        while !self.lock_map().is_empty() {
            let left = drained.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            self.reaper_nap(left.min(tick));
        }
        self.abort_all();
    }

    /// Wait for a kick, at most `limit`.
    fn reaper_nap(&self, limit: Duration) {
        let kicked = self.reaper_kick.lock().unwrap_or_else(|e| e.into_inner());
        let (mut kicked, _) = self
            .reaper_wake
            .wait_timeout_while(kicked, limit, |kicked| !*kicked)
            .unwrap_or_else(|e| e.into_inner());
        *kicked = false;
    }

    /// Wake the reaper thread now (shutdown, or the clock was advanced).
    pub(crate) fn kick_reaper(&self) {
        *self.reaper_kick.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.reaper_wake.notify_all();
    }

    /// Move the table's idle clock forward and wake the reaper, so a test
    /// can age sessions past a long idle timeout without sleeping.
    pub(crate) fn advance_clock(&self, by: Duration) {
        self.clock_skew_ms
            .fetch_add(by.as_millis() as u64, Ordering::Relaxed);
        self.kick_reaper();
    }

    /// Current table statistics.
    pub fn stats(&self) -> StreamStats {
        StreamStats {
            open_sessions: self.lock_map().len(),
            buffered_peak: self.buffered_peak.load(Ordering::Acquire),
            credit_window: self.limits.credit_window.max(1),
        }
    }
}

/// The per-session pump: drains buffered frames into the analyzer and,
/// on commit, finalizes and registers the video. Analysis runs here — on
/// the session's own thread — never on a worker and never under the
/// database lock. Every frame consumed frees a credit, and wakes the
/// session's worker if it is parked waiting for one.
fn pump_loop(
    sess: Arc<StreamSession>,
    mut ingest: StreamIngest,
    rx: Receiver<PumpMsg>,
    store: ServerStore,
    metrics: Arc<ServerMetrics>,
) {
    while let Ok(msg) = rx.recv() {
        match msg {
            PumpMsg::Frame(frame) => {
                let outcome = if sess.lock_flow().aborting {
                    Ok(()) // torn down: drain without analyzing
                } else {
                    ingest.push(&frame).map(|_| ())
                };
                drop(frame);
                let mut flow = sess.lock_flow();
                flow.queued -= 1;
                let stop = outcome.is_err();
                if let Err(e) = outcome {
                    flow.poison(&metrics, e.to_string());
                }
                let wake = flow.waiting;
                drop(flow);
                if wake {
                    sess.credit.notify_all();
                }
                if stop {
                    // Closing the channel makes the worker's next send
                    // fail fast with the sticky error.
                    break;
                }
            }
            PumpMsg::Commit(reply) => {
                let _ = reply.send(commit_now(&sess, ingest, &store));
                break;
            }
        }
    }
}

fn commit_now(
    sess: &StreamSession,
    ingest: StreamIngest,
    store: &ServerStore,
) -> Result<CommitOutcome, String> {
    if let Some(msg) = sess.poison_message() {
        return Err(msg);
    }
    let tracer = global_tracer();
    let root = tracer.trace_root();
    let mut span = tracer.span(&root, "server.stream.commit");
    if span.is_recording() {
        span.attr("session", u64::from(sess.id));
        span.attr("frames", ingest.frame_count() as u64);
    }
    let ctx = span.context();
    // Finalize outside any lock: this is the expensive tail.
    let finished = ingest.finish().map_err(|e| e.to_string())?;
    let shots = finished.shots();
    let frames = finished.frames();
    // Brief write lock: register + stage journal records only. The
    // durability wait happens after the lock is gone, so concurrent
    // committers batch onto one group-commit barrier.
    let (video, ticket) = store
        .write(|backend| finished.commit(backend))
        .map_err(|e| e.to_string())?;
    let durable = ticket.is_pending();
    ticket.wait_traced(&ctx).map_err(|e| e.to_string())?;
    Ok(CommitOutcome {
        video,
        shots,
        frames,
        durable,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const WINDOW: u32 = 2;
    const LONG: Duration = Duration::from_secs(60);

    fn table(stall_timeout: Duration) -> SessionTable {
        SessionTable::new(
            StreamLimits {
                max_sessions: 4,
                credit_window: WINDOW,
                idle_timeout: LONG,
                stall_timeout,
                max_frame: crate::protocol::DEFAULT_MAX_FRAME,
            },
            ServerStore::memory(),
            Arc::new(ServerMetrics::new()),
        )
    }

    /// Open an 8×6 session whose pump looks `WINDOW` frames behind and
    /// never catches up, so the next frame must wait for a credit.
    fn saturated_session(table: &SessionTable) -> (u64, u32) {
        let conn = table.register_conn();
        let reply = table.open(conn, "stuck", 8, 6, 30_000).unwrap();
        assert_eq!(reply, format!("session=1 credits={WINDOW}"));
        table.owned(conn, 1).unwrap().lock_flow().queued = WINDOW;
        (conn, 1)
    }

    /// Push frame 0 from a "worker" thread, wait until it is parked on the
    /// credit condvar, run `release`, and return the worker's reply.
    fn release_blocked_worker(
        table: &SessionTable,
        (conn, session): (u64, u32),
        release: impl FnOnce(),
    ) -> String {
        let frame = [7u8; 8 * 6 * 3];
        std::thread::scope(|s| {
            let worker = s.spawn(|| table.frame(conn, session, 0, &frame));
            // The counter moves under the flow lock just before the wait
            // gives that lock up, and every releaser takes the same lock:
            // once it reads 1, a release can only land on a parked worker.
            let deadline = Instant::now() + LONG;
            while table.metrics.snapshot().stream.credit_waits == 0 {
                assert!(Instant::now() < deadline, "worker never reached the wait");
                std::thread::yield_now();
            }
            let started = Instant::now();
            release();
            let reply = worker
                .join()
                .unwrap()
                .expect_err("no credit was ever freed");
            assert!(
                started.elapsed() < LONG / 2,
                "worker sat out the stall timeout instead of being woken"
            );
            reply
        })
    }

    #[test]
    fn reaper_releases_a_worker_blocked_on_a_credit() {
        let table = table(LONG);
        let owner = saturated_session(&table);
        let reply = release_blocked_worker(&table, owner, || {
            table.advance_clock(LONG + Duration::from_secs(1));
            table.reap_idle();
        });
        assert_eq!(reply, "session 1 was aborted");
        // Its connection closing afterwards finds nothing left to count.
        table.close_conn(owner.0);
        table.abort_all();
        let snap = table.metrics.snapshot().stream;
        assert_eq!((snap.sessions_reaped, snap.sessions_aborted), (1, 0));
        assert_eq!((snap.credit_waits, snap.session_errors), (1, 0));
        assert_eq!(table.stats().open_sessions, 0);
    }

    #[test]
    fn shutdown_releases_a_worker_blocked_on_a_credit() {
        let table = table(LONG);
        let owner = saturated_session(&table);
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|s| {
            // A tick this long means only the kick can wake the reaper.
            let reaper = s.spawn(|| table.run_reaper(&shutdown, LONG, Duration::from_millis(30)));
            let reply = release_blocked_worker(&table, owner, || {
                shutdown.store(true, Ordering::SeqCst);
                table.kick_reaper();
                reaper.join().unwrap();
            });
            assert_eq!(reply, "session 1 was aborted");
        });
        table.close_conn(owner.0);
        let snap = table.metrics.snapshot().stream;
        assert_eq!((snap.sessions_reaped, snap.sessions_aborted), (0, 1));
        assert_eq!(table.stats().open_sessions, 0);
    }

    #[test]
    fn a_pump_that_never_frees_a_credit_poisons_after_the_stall_timeout() {
        let table = table(Duration::from_millis(40));
        let (conn, session) = saturated_session(&table);
        let frame = [7u8; 8 * 6 * 3];
        let first = table.frame(conn, session, 0, &frame).unwrap_err();
        assert!(
            first.starts_with("session failed: session stalled"),
            "{first}"
        );
        // Sticky: the retry fails at once with the same text, uncounted.
        assert_eq!(table.frame(conn, session, 0, &frame).unwrap_err(), first);
        let snap = table.metrics.snapshot().stream;
        assert_eq!((snap.credit_waits, snap.session_errors), (1, 1));
        assert!(snap.credit_wait_p50_us >= 32_768, "{snap:?}");
        assert_eq!(table.abort(conn, session).unwrap(), "aborted");
    }

    /// With the pump alive, a full window is a pause, not an error: the
    /// worker is handed each credit as the pump frees it, every frame is
    /// accepted in order, and the buffer never exceeds the window.
    #[test]
    fn pump_hands_credits_to_a_waiting_worker() {
        let table = table(LONG);
        let conn = table.register_conn();
        table.open(conn, "live", 32, 24, 30_000).unwrap();
        let frame = vec![90u8; 32 * 24 * 3];
        for seq in 0..200 {
            let ack = table.frame(conn, 1, seq, &frame).unwrap();
            assert!(ack.starts_with(&format!("seq={seq} credits=")), "{ack}");
        }
        let reply = table.commit(conn, 1).unwrap();
        assert!(reply.contains("frames=200"), "{reply}");
        assert!(table.stats().buffered_peak <= WINDOW);
        let snap = table.metrics.snapshot().stream;
        assert_eq!((snap.sessions_committed, snap.sessions_aborted), (1, 0));
        assert_eq!(snap.frames, 200);
    }
}
