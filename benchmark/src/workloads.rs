//! The four workloads. Each is a closed loop driven by one thread, with
//! any server running inside this process; operation counts are fixed
//! (a per-second literal × `--seconds`), never a deadline, so every count
//! repeats exactly and the end state is the same on every commit.

use crate::inputs::{
    clip_order, preload, Clip, Inputs, Kind, Preloaded, RequestPool, Rng, BASE_COPIES, CYCLE,
};
use crate::spans::Spans;
use crate::stats::cpu_seconds;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use vdb_core::analyzer::AnalyzerConfig;
use vdb_server::{Client, Server, ServerConfig, ServerHandle, ServerStore, StreamCommit};
use vdb_store::journal::JournaledDatabase;
use vdb_store::shell::{execute_readonly, Command};

/// Operations per second of window, calibrated once on the builder's
/// 2-core box so that `--seconds` is close to the wall time of the window
/// there, then frozen. A faster or slower machine gets a shorter or longer
/// window over exactly the same operations.
const INGEST_PASSES_PER_S: u64 = 20;
const STREAM_PASSES_PER_S: u64 = 9;
const QUERY_CYCLES_PER_S: u64 = 100;
const MIXED_ROUNDS_PER_S: u64 = 180;

/// `mixed_rw` interleaves this many frames with this many requests.
const ROUND_FRAMES: u64 = 16;
const ROUND_REQUESTS: usize = 4;
/// Blocks of this many request cycles or rounds alternate between traced
/// and untraced in a traced run.
const BLOCK: u64 = 50;

pub const NAMES: [&str; 4] = ["ingest_batch", "stream_wire", "query_serve", "mixed_rw"];

pub struct Config {
    pub seed: u64,
    pub seconds: u64,
    /// 1, or 50 for `--quick`.
    pub divisor: u64,
    pub trace: bool,
    pub work_dir: PathBuf,
}

impl Config {
    pub fn scaled(&self, per_second: u64) -> u64 {
        (per_second * self.seconds / self.divisor).max(1)
    }
}

/// Warm-up outside the window: 5 % of the operations.
fn warmup(ops: u64) -> u64 {
    ops.div_ceil(20)
}

/// Operations attempted and failed. A reply that is an error, a client
/// error, or a wrong answer is a failed operation.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn pass(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, n: u64, why: impl FnOnce() -> String) {
        self.attempted += n;
        self.failed += n;
        if self.first_failure.is_none() {
            self.first_failure = Some(why());
        }
    }

    /// Add what another tally counted.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.first_failure = self.first_failure.take().or(other.first_failure);
    }

    pub fn check(&mut self, n: u64, ok: bool, why: impl FnOnce() -> String) {
        if ok {
            self.pass(n);
        } else {
            self.fail(n, why);
        }
    }
}

/// The timed window, split into blocks that a traced run records spans
/// for alternately: the same loop then gives the traced and the untraced
/// rate, and their ratio is the cost of the benchmark's own spans.
struct Window {
    trace: bool,
    started: Instant,
    cpu_started: f64,
    block: u64,
    block_started: Instant,
    seconds: [f64; 2],
    ops: [u64; 2],
}

impl Window {
    fn open(trace: bool) -> Self {
        let now = Instant::now();
        Window {
            trace,
            started: now,
            cpu_started: cpu_seconds(),
            block: 0,
            block_started: now,
            seconds: [0.0; 2],
            ops: [0; 2],
        }
    }

    /// In a traced run, odd blocks record spans and even blocks do not.
    fn begin_block(&mut self, spans: &mut Spans) {
        if self.trace {
            spans.on = self.block % 2 == 1;
        }
        self.block_started = Instant::now();
    }

    fn end_block(&mut self, ops: u64) {
        let side = (self.block % 2) as usize;
        self.seconds[side] += self.block_started.elapsed().as_secs_f64();
        self.ops[side] += ops;
        self.block += 1;
    }

    fn close(self, spans: &mut Spans) -> Measured {
        if self.trace {
            spans.on = false;
        }
        let rate = |side: usize| self.ops[side] as f64 / self.seconds[side];
        Measured {
            wall_s: self.started.elapsed().as_secs_f64(),
            cpu_s: cpu_seconds() - self.cpu_started,
            ops: self.ops[0] + self.ops[1],
            trace_overhead_ratio: if self.trace && self.ops[1] > 0 {
                rate(0) / rate(1)
            } else {
                f64::NAN
            },
        }
    }
}

/// The timed window of a main loop.
pub struct Measured {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Operations in the window.
    pub ops: u64,
    /// Untraced / traced rate; `NaN` in an untraced run.
    pub trace_overhead_ratio: f64,
}

/// What one workload run produced.
pub struct Outcome {
    pub setup_s: f64,
    pub window: Measured,
    /// The workload's latency sample, one operation kind only.
    pub latency_us: Vec<f64>,
    /// The journal as reopened after the window.
    pub journal: Reopened,
    /// Frames ever committed to the journal, preload included.
    pub journal_frames: u64,
    pub tally: Tally,
    /// Counts that must repeat exactly from run to run.
    pub counts: Vec<(&'static str, u64)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.journal.durable && self.tally.failed == 0
    }
}

/// A finished journal, reopened.
pub struct Reopened {
    /// It replayed to exactly what was acknowledged.
    pub durable: bool,
    /// How long the replay took, over how many videos.
    pub seconds: f64,
    pub videos: u64,
    pub journal_bytes: u64,
}

/// Reopen a finished journal: it must replay to exactly `videos` videos
/// and `shots` shots.
pub fn reopen_check(journal: &Path, videos: u64, shots: u64, tally: &mut Tally) -> Reopened {
    let journal_bytes = std::fs::metadata(journal).map_or(0, |m| m.len());
    let started = Instant::now();
    let reopened = JournaledDatabase::open(journal, AnalyzerConfig::default());
    let seconds = started.elapsed().as_secs_f64();
    let durable = match reopened {
        Ok(db) => {
            let stats = db.db().stats();
            let ok = stats.videos as u64 == videos && stats.shots as u64 == shots;
            tally.check(1, ok, || {
                format!(
                    "journal replayed to {} videos / {} shots, expected {videos} / {shots}",
                    stats.videos, stats.shots
                )
            });
            ok
        }
        Err(e) => {
            tally.fail(1, || format!("journal reopen failed: {e}"));
            false
        }
    };
    Reopened {
        durable,
        seconds,
        videos,
        journal_bytes,
    }
}

// ---------------------------------------------------------------- ingest_batch

pub fn ingest_batch(cfg: &Config, inputs: &mut Inputs, spans: &mut Spans) -> Outcome {
    let setup = Instant::now();
    inputs.need_corpus();
    let corpus = inputs.corpus();
    let order = clip_order(corpus, &mut Rng::new(cfg.seed));
    let journal = cfg.work_dir.join("ingest_batch.vdbj");
    let mut db = JournaledDatabase::open(&journal, AnalyzerConfig::default())
        .expect("open the ingest journal");
    let mut tally = Tally::default();
    let passes = cfg.scaled(INGEST_PASSES_PER_S);
    let warm = warmup(passes);

    let mut pass_no = 0u64;
    let mut one_pass = |db: &mut JournaledDatabase, spans: &mut Spans, tally: &mut Tally| {
        let pass = spans.enter("ingest_batch.pass", pass_no);
        for &c in &order {
            let clip = &corpus.clips[c];
            let frames = clip.video.len() as u64;
            let span = spans.enter("store.journal.ingest", pass_no);
            let result = db.ingest(
                format!("batch-{pass_no:06}-{c}"),
                &clip.video,
                vec![],
                vec![],
            );
            spans.exit(span);
            match result {
                Ok(id) => {
                    let shots = db.db().analysis(id).map_or(0, |a| a.shots.len());
                    tally.check(frames, shots == clip.ref_shots, || {
                        format!("clip {c}: {shots} shots, reference {}", clip.ref_shots)
                    });
                }
                Err(e) => tally.fail(frames, || format!("ingest failed: {e}")),
            }
        }
        pass_no += 1;
        spans.exit(pass)
    };

    for _ in 0..warm {
        one_pass(&mut db, spans, &mut tally);
    }
    let setup_s = setup.elapsed().as_secs_f64();

    let mut latency_us = Vec::with_capacity(passes as usize);
    let mut window = Window::open(cfg.trace);
    for _ in 0..passes {
        window.begin_block(spans);
        latency_us.push(one_pass(&mut db, spans, &mut tally));
        window.end_block(corpus.frames as u64);
    }
    let measured = window.close(spans);

    let stats = db.journal_stats();
    drop(db);
    let clips = (warm + passes) * corpus.clips.len() as u64;
    let shots = (warm + passes) * corpus.shots as u64;
    let reopened = reopen_check(&journal, clips, shots, &mut tally);
    Outcome {
        setup_s,
        window: measured,
        latency_us,
        journal: reopened,
        journal_frames: (warm + passes) * corpus.frames as u64,
        tally,
        counts: vec![
            ("clips_committed", clips),
            ("shots_committed", shots),
            ("journal_records", stats.staged_records),
            ("journal_batches", stats.batches),
        ],
    }
}

// ------------------------------------------------------------------ the server

/// An in-process server over a journal, optionally preloaded.
pub struct Served {
    pub handle: ServerHandle,
    pub journal: PathBuf,
    pub preloaded: Option<Preloaded>,
}

/// Two workers, one per connection the generator thread can hold open,
/// and a 1 ms poll interval instead of the default 20 ms. A stream that
/// saturates its credit window is held back by `thread::sleep(poll_interval)`
/// in the session's backpressure loop; at 20 ms a single saturating stream
/// spends over nine tenths of its time in that sleep and its rate moves
/// threefold from run to run (measured: 600 to 2 100 frames/s), so the
/// workload would gate on a timer. At 1 ms the sleep is still there to be
/// removed — `server.wire.self_us_per_frame` shows it — but the analysis
/// and the wire set the rate.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        poll_interval: Duration::from_millis(1),
        ..ServerConfig::default()
    }
}

pub fn serve(journal: PathBuf, inputs: Option<(&Inputs, &mut Rng)>) -> Served {
    let store = ServerStore::open_journal(&journal, AnalyzerConfig::default())
        .expect("open the server journal");
    let preloaded = inputs.map(|(inputs, rng)| {
        store.write(|backend| preload(backend, inputs.bases(), BASE_COPIES, rng))
    });
    let handle = Server::bind(store, server_config())
        .expect("bind the in-process server")
        .serve();
    Served {
        handle,
        journal,
        preloaded,
    }
}

pub fn connect(handle: &ServerHandle) -> Client {
    let mut client = Client::connect(handle.addr()).expect("connect to the in-process server");
    client
        .set_timeout(Some(Duration::from_secs(120)))
        .expect("set the client timeout");
    client
}

impl Served {
    /// Stop the server, then reopen its journal: it must hold exactly the
    /// preload plus the acknowledged commits. Returns the reopened journal
    /// and the frames ever committed to it.
    fn finish(self, done: &Committed, tally: &mut Tally) -> (Reopened, u64) {
        let (pre_videos, pre_shots, pre_frames) = self
            .preloaded
            .as_ref()
            .map_or((0, 0, 0), |p| (p.videos.len() as u64, p.shots, p.frames));
        if let Err(e) = self.handle.shutdown() {
            tally.fail(1, || format!("server shutdown failed: {e}"));
        }
        let reopened = reopen_check(
            &self.journal,
            pre_videos + done.clips,
            pre_shots + done.shots,
            tally,
        );
        (reopened, pre_frames + done.frames)
    }
}

/// Frames, clips and shots the server acknowledged as committed.
#[derive(Default)]
pub struct Committed {
    clips: u64,
    shots: u64,
    frames: u64,
}

// ----------------------------------------------------------------- stream_wire

impl Committed {
    /// Account for an acknowledged commit. It must cover every frame pushed,
    /// find the shots the reference analysis found, and be durable; `ops`
    /// operations pass or fail with it.
    fn record(&mut self, commit: StreamCommit, clip: &Clip, ops: u64, tally: &mut Tally) {
        let frames = clip.video.len();
        let ok = commit.frames == frames && commit.shots == clip.ref_shots && commit.durable;
        tally.check(ops, ok, || {
            format!(
                "committed {} frames / {} shots durable={}, expected {frames} / {}",
                commit.frames, commit.shots, commit.durable, clip.ref_shots
            )
        });
        self.clips += 1;
        self.shots += commit.shots as u64;
        self.frames += commit.frames as u64;
    }
}

/// Push one corpus clip frame by frame and commit it; returns the commit
/// latency (commit call → durable ack) in microseconds.
fn stream_clip(
    client: &mut Client,
    clip: &Clip,
    name: &str,
    op: u64,
    spans: &mut Spans,
    tally: &mut Tally,
    done: &mut Committed,
) -> f64 {
    let frames = clip.video.len() as u64;
    let (w, h) = clip.video.dims();
    let whole = spans.enter("stream_wire.clip", op);
    let result = (|| {
        let mut stream = client.open_stream(name, w, h, clip.video.fps())?;
        for frame in clip.video.frames() {
            let span = spans.enter("server.client.push", op);
            let pushed = stream.push(frame);
            spans.exit(span);
            pushed?;
        }
        let span = spans.enter("server.client.commit", op);
        let commit = stream.commit();
        let us = spans.exit(span);
        commit.map(|c| (c, us))
    })();
    spans.exit(whole);
    match result {
        Ok((commit, us)) => {
            done.record(commit, clip, frames, tally);
            us
        }
        Err(e) => {
            tally.fail(frames, || format!("stream '{name}' failed: {e}"));
            f64::NAN
        }
    }
}

pub fn stream_wire(cfg: &Config, inputs: &mut Inputs, spans: &mut Spans) -> Outcome {
    let setup = Instant::now();
    inputs.need_corpus();
    let inputs = &*inputs;
    let corpus = inputs.corpus();
    let order = clip_order(corpus, &mut Rng::new(cfg.seed));
    let served = serve(cfg.work_dir.join("stream_wire.vdbj"), None);
    let mut client = connect(&served.handle);
    let mut tally = Tally::default();
    let mut done = Committed::default();
    let passes = cfg.scaled(STREAM_PASSES_PER_S);
    let warm = warmup(passes);

    let mut pass_no = 0u64;
    // One pass streams the four clips; its latency sample is the mean of
    // their commit latencies, so every sample covers the same four clips.
    let mut one_pass = |spans: &mut Spans, tally: &mut Tally, done: &mut Committed| {
        let mut commit_us = 0.0;
        for &c in &order {
            let name = format!("wire-{pass_no:06}-{c}");
            let clip = &corpus.clips[c];
            commit_us += stream_clip(&mut client, clip, &name, pass_no, spans, tally, done);
        }
        pass_no += 1;
        commit_us / order.len() as f64
    };

    for _ in 0..warm {
        one_pass(spans, &mut tally, &mut done);
    }
    let setup_s = setup.elapsed().as_secs_f64();

    let mut latency_us = Vec::with_capacity(passes as usize);
    let mut window = Window::open(cfg.trace);
    for _ in 0..passes {
        window.begin_block(spans);
        latency_us.push(one_pass(spans, &mut tally, &mut done));
        window.end_block(corpus.frames as u64);
    }
    let measured = window.close(spans);
    latency_us.retain(|us| us.is_finite());

    let buffered_peak = u64::from(served.handle.stream_stats().buffered_peak);
    drop(client);
    let (reopened, journal_frames) = served.finish(&done, &mut tally);
    Outcome {
        setup_s,
        window: measured,
        latency_us,
        journal: reopened,
        journal_frames,
        tally,
        counts: vec![
            ("clips_committed", done.clips),
            ("shots_committed", done.shots),
            ("session_buffered_peak", buffered_peak),
        ],
    }
}

// ----------------------------------------------------------------- query_serve

/// Send every distinct request line once and compare the reply with
/// `execute_readonly` on the server's own store, keeping that text as the
/// line's expected answer. Run while nothing writes to the store.
pub fn verify_pool(
    client: &mut Client,
    handle: &ServerHandle,
    pool: &mut RequestPool,
    tally: &mut Tally,
) {
    for request in &mut pool.requests {
        let expected = handle
            .store()
            .read(|db| execute_readonly(db, &Command::parse(&request.line)));
        match client.request(&request.line) {
            Ok(reply) => tally.check(
                1,
                reply.ok && Some(&reply.text) == expected.as_ref(),
                || format!("'{}' answered differently over the wire", request.line),
            ),
            Err(e) => tally.fail(1, || format!("'{}' failed: {e}", request.line)),
        }
        request.expected = expected;
    }
}

fn span_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Range => "server.request.range",
        Kind::TopK => "server.request.topk",
        Kind::Tree => "server.request.tree",
        Kind::Board => "server.request.board",
    }
}

/// Send the next request of `kind`; returns its latency in microseconds.
/// `pinned` says whether the stored answer must still hold (false for
/// index queries while another connection commits new shots).
pub fn send(
    client: &mut Client,
    pool: &mut RequestPool,
    kind: Kind,
    pinned: bool,
    op: u64,
    spans: &mut Spans,
    tally: &mut Tally,
) -> f64 {
    let index = pool.next(kind);
    let request = &pool.requests[index];
    let span = spans.enter(span_name(kind), op);
    let reply = client.request(&request.line);
    let us = spans.exit(span);
    match reply {
        Ok(reply) => {
            let ok = reply.ok && (!pinned || Some(&reply.text) == request.expected.as_ref());
            tally.check(1, ok, || format!("'{}' got a wrong answer", request.line));
        }
        Err(e) => tally.fail(1, || format!("'{}' failed: {e}", request.line)),
    }
    us
}

pub fn query_serve(cfg: &Config, inputs: &mut Inputs, spans: &mut Spans) -> Outcome {
    let setup = Instant::now();
    inputs.need_bases();
    let mut rng = Rng::new(cfg.seed);
    let served = serve(
        cfg.work_dir.join("query_serve.vdbj"),
        Some((inputs, &mut rng)),
    );
    let mut pool = RequestPool::new(served.preloaded.as_ref().expect("preloaded"), &mut rng);
    let mut client = connect(&served.handle);
    let mut tally = Tally::default();
    let cycles = cfg.scaled(QUERY_CYCLES_PER_S);

    // The verification pass is the first part of the warm-up.
    verify_pool(&mut client, &served.handle, &mut pool, &mut tally);
    let warm = warmup(cycles).saturating_sub(pool.requests.len() as u64 / CYCLE.len() as u64);
    let mut op = 0u64;
    let mut one_cycle = |spans: &mut Spans, tally: &mut Tally, latency: &mut Vec<f64>| {
        for kind in CYCLE {
            let us = send(&mut client, &mut pool, kind, true, op, spans, tally);
            if kind == Kind::Range {
                latency.push(us);
            }
            op += 1;
        }
    };
    let mut latency_us = Vec::new();
    for _ in 0..warm {
        one_cycle(spans, &mut tally, &mut latency_us);
    }
    let setup_s = setup.elapsed().as_secs_f64();

    latency_us.clear();
    latency_us.reserve(cycles as usize * 4);
    let mut window = Window::open(cfg.trace);
    let mut left = cycles;
    while left > 0 {
        let block = left.min(BLOCK);
        window.begin_block(spans);
        for _ in 0..block {
            one_cycle(spans, &mut tally, &mut latency_us);
        }
        window.end_block(block * CYCLE.len() as u64);
        left -= block;
    }
    let measured = window.close(spans);

    drop(client);
    let (reopened, journal_frames) = served.finish(&Committed::default(), &mut tally);
    Outcome {
        setup_s,
        window: measured,
        latency_us,
        journal: reopened,
        journal_frames,
        tally,
        counts: vec![("requests", cycles * CYCLE.len() as u64)],
    }
}

// -------------------------------------------------------------------- mixed_rw

/// What `mixed_rounds` measured.
pub struct MixedRun {
    setup_s: f64,
    measured: Measured,
    pub range_us: Vec<f64>,
    done: Committed,
}

/// Connection A sends the request cycle, connection B streams the corpus;
/// one thread interleaves them in rounds of 16 frames then 4 requests and
/// commits at the end of every clip. Frames are acknowledged once
/// buffered, so the session's pump thread analyses (and, on commit, takes
/// the write lock) while this thread waits on requests. The first `warm`
/// rounds run before the window opens; the clip in flight when the last
/// round ends is aborted, outside the window.
#[allow(clippy::too_many_arguments)]
pub fn mixed_rounds(
    served: &Served,
    inputs: &Inputs,
    pool: &mut RequestPool,
    order: &[usize],
    warm: u64,
    rounds: u64,
    trace: bool,
    setup: Instant,
    spans: &mut Spans,
    tally: &mut Tally,
) -> MixedRun {
    let corpus = inputs.corpus();
    let mut reader = connect(&served.handle);
    let mut writer = connect(&served.handle);
    let total = warm + rounds;
    let round_ops = ROUND_FRAMES + ROUND_REQUESTS as u64;
    let mut done = Committed::default();
    let mut range_us = Vec::with_capacity(rounds as usize * 2);
    let mut window: Option<Window> = None;
    let mut setup_s = 0.0;
    let (mut round, mut block_rounds, mut frame_no, mut request_no) = (0u64, 0u64, 0u64, 0usize);

    // A connection-level error fails every operation still planned.
    let result: Result<(), String> = (|| {
        for clip_no in 0u64.. {
            let c = order[clip_no as usize % order.len()];
            let clip = &corpus.clips[c];
            let (w, h) = clip.video.dims();
            let mut stream = writer
                .open_stream(&format!("mixed-{clip_no:06}-{c}"), w, h, clip.video.fps())
                .map_err(|e| format!("open stream failed: {e}"))?;
            for frame in clip.video.frames() {
                if frame_no % ROUND_FRAMES == 0 {
                    if round == warm {
                        setup_s = setup.elapsed().as_secs_f64();
                        window = Some(Window::open(trace));
                    }
                    if let (Some(w), 0) = (window.as_mut(), block_rounds) {
                        w.begin_block(spans);
                    }
                }
                let span = spans.enter("server.client.push", round);
                let pushed = stream.push(frame);
                spans.exit(span);
                pushed.map_err(|e| format!("push failed: {e}"))?;
                tally.pass(1);
                frame_no += 1;
                if frame_no % ROUND_FRAMES != 0 {
                    continue;
                }
                for _ in 0..ROUND_REQUESTS {
                    let kind = CYCLE[request_no % CYCLE.len()];
                    request_no += 1;
                    // Tree and board of a preloaded video never change; an
                    // index query may gain the shots committed meanwhile.
                    let pinned = matches!(kind, Kind::Tree | Kind::Board);
                    let us = send(&mut reader, pool, kind, pinned, round, spans, tally);
                    if kind == Kind::Range && window.is_some() {
                        range_us.push(us);
                    }
                }
                round += 1;
                if let Some(w) = window.as_mut() {
                    block_rounds += 1;
                    if block_rounds == BLOCK || round == total {
                        w.end_block(block_rounds * round_ops);
                        block_rounds = 0;
                    }
                }
                if round == total {
                    // Stop the clock before the abort's round trip.
                    let _ = stream.abort();
                    return Ok(());
                }
            }
            let span = spans.enter("server.client.commit", round);
            let commit = stream.commit();
            spans.exit(span);
            let commit = commit.map_err(|e| format!("commit failed: {e}"))?;
            done.record(commit, clip, 1, tally);
        }
        Ok(())
    })();
    if let Err(why) = result {
        tally.fail((total - round) * round_ops, || why);
    }
    let measured = window.unwrap_or_else(|| Window::open(trace)).close(spans);
    MixedRun {
        setup_s,
        measured,
        range_us,
        done,
    }
}

pub fn mixed_rw(cfg: &Config, inputs: &mut Inputs, spans: &mut Spans) -> Outcome {
    let setup = Instant::now();
    inputs.need_corpus();
    inputs.need_bases();
    let inputs = &*inputs;
    let mut rng = Rng::new(cfg.seed);
    let served = serve(cfg.work_dir.join("mixed_rw.vdbj"), Some((inputs, &mut rng)));
    let mut pool = RequestPool::new(served.preloaded.as_ref().expect("preloaded"), &mut rng);
    let order = clip_order(inputs.corpus(), &mut rng);
    let mut tally = Tally::default();
    {
        let mut client = connect(&served.handle);
        verify_pool(&mut client, &served.handle, &mut pool, &mut tally);
    }
    let rounds = cfg.scaled(MIXED_ROUNDS_PER_S);
    let run = mixed_rounds(
        &served,
        inputs,
        &mut pool,
        &order,
        warmup(rounds),
        rounds,
        cfg.trace,
        setup,
        spans,
        &mut tally,
    );
    let buffered_peak = u64::from(served.handle.stream_stats().buffered_peak);
    let done = run.done;
    let (reopened, journal_frames) = served.finish(&done, &mut tally);
    Outcome {
        setup_s: run.setup_s,
        window: run.measured,
        latency_us: run.range_us,
        journal: reopened,
        journal_frames,
        tally,
        counts: vec![
            ("clips_committed", done.clips),
            ("shots_committed", done.shots),
            ("session_buffered_peak", buffered_peak),
        ],
    }
}

pub fn run(name: &str, cfg: &Config, inputs: &mut Inputs, spans: &mut Spans) -> Option<Outcome> {
    Some(match name {
        "ingest_batch" => ingest_batch(cfg, inputs, spans),
        "stream_wire" => stream_wire(cfg, inputs, spans),
        "query_serve" => query_serve(cfg, inputs, spans),
        "mixed_rw" => mixed_rw(cfg, inputs, spans),
        _ => return None,
    })
}
