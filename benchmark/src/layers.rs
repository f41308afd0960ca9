//! The per-layer breakdown of a traced run.
//!
//! Every layer's primary public entry point is called from here, on the
//! benchmark's thread, over the same inputs the workloads send; each call
//! is one span. A layer that wraps another is measured by subtraction on
//! the same clip (`JournaledDatabase::ingest` − `VideoDatabase::ingest` −
//! `VideoAnalyzer::analyze` …), which is the outside-the-program form of
//! "self time = span minus children". The breakdown is the same whichever
//! workload's traced run it rides on, so that every traced run reports
//! every layer; what differs per workload is the traced main loop.

use crate::inputs::{
    clip_order, preload, Clip, Inputs, Kind, RequestPool, Rng, BASE_COPIES, CYCLE, RANGE_TOLERANCE,
    TOPK_K,
};
use crate::spans::Spans;
use crate::stats::{mean, median, quantile};
use crate::workloads::{
    connect, mixed_rounds, send, serve, server_config, verify_pool, Config, Outcome, Tally,
};
use std::time::Instant;
use vdb_core::analyzer::AnalyzerConfig;
use vdb_core::features::{FeatureExtractor, ScratchBuffers};
use vdb_core::frame::FrameBuf;
use vdb_core::pipeline::AnalysisEngine;
use vdb_core::sbd::{CameraTrackingDetector, SbdStats};
use vdb_core::scenetree::build_scene_tree;
use vdb_router::{Router, RouterConfig};
use vdb_server::protocol::{
    decode_response, decode_stream_request, encode_response, encode_stream_request, StreamRequest,
};
use vdb_server::{Server, ServerStore};
use vdb_store::journal::JournaledDatabase;
use vdb_store::session::StreamIngest;
use vdb_store::shell::{execute_readonly, Command};
use vdb_store::{DbBackend, VideoDatabase};

/// Replay sizes per second of `--seconds`: a few percent of the main loop
/// is enough for means over hundreds of clips and thousands of requests.
const INGEST_REPLAY_PASSES_PER_S: u64 = 3;
const STREAM_REPLAY_PASSES_PER_S: u64 = 1;
const QUIET_CYCLES_PER_S: u64 = 10;
const MIXED_ROUNDS_PER_S: u64 = 20;
const ROUTER_REQUESTS_PER_S: u64 = 20;
const COMMIT_HOLD_SAMPLES: usize = 64;
const SIZE_FRAMES: usize = 48;
const SIZE_REPEATS: usize = 10;

pub type Metrics = Vec<(&'static str, f64)>;

/// What one way through the ingest layers added up to, in microseconds.
#[derive(Default)]
struct Path {
    frames: f64,
    clips: f64,
}

impl Path {
    fn add(&mut self, clip: &Clip) {
        self.frames += clip.video.len() as f64;
        self.clips += 1.0;
    }
}

/// Leg 1: the paper's pipeline, layer by layer, then the store around it.
///
/// A pass over the corpus goes one of three ways — the layers called one by
/// one, the whole analysis plus the store's registration, or the whole
/// journaled ingest — and the ways take turns pass by pass. Like the main
/// loop, each way then streams 69 MiB of frames through one warm code path.
/// Running every way on one clip back to back reads its 17 MiB warm and came
/// out 10–14 % faster per frame than the loop it is meant to explain; taking
/// turns clip by clip keeps evicting each way's scratch and came out 13 %
/// slower.
fn ingest_layers(
    cfg: &Config,
    inputs: &Inputs,
    spans: &mut Spans,
    tally: &mut Tally,
    out: &mut Metrics,
) {
    let corpus = inputs.corpus();
    let (w, h) = crate::inputs::STREAM_DIMS;
    let extractor = FeatureExtractor::new(w, h).expect("extractor for the stream size");
    let mut scratch = ScratchBuffers::default();
    let detector = CameraTrackingDetector::new();
    // A resident engine, as the database keeps one: `VideoAnalyzer::analyze`
    // builds a fresh engine per call, which the database never pays.
    let mut engine = AnalysisEngine::new(AnalyzerConfig::default());
    // The stores grow in step, so differences between them are taken at the
    // same database size.
    let mut memory_db = VideoDatabase::new();
    let mut journaled_commit = JournaledDatabase::open(
        cfg.work_dir.join("layers_commit.vdbj"),
        AnalyzerConfig::default(),
    )
    .expect("open the replay commit journal");
    let journal = cfg.work_dir.join("layers_ingest.vdbj");
    let mut journaled = JournaledDatabase::open(&journal, AnalyzerConfig::default())
        .expect("open the replay journal");

    let (mut layered, mut analysed, mut ingested) =
        (Path::default(), Path::default(), Path::default());
    let (mut extract, mut cascade, mut scenetree) = (0.0, 0.0, 0.0);
    let (mut analyze, mut db_commit, mut journal_commit, mut journal_ingest) = (0.0, 0.0, 0.0, 0.0);
    let mut sbd = SbdStats::default();
    // Whole turns only: every way sees every clip equally often.
    for pass in 0..cfg.scaled(INGEST_REPLAY_PASSES_PER_S).div_ceil(3) * 3 {
        for (c, clip) in corpus.clips.iter().enumerate() {
            let video = &clip.video;
            let name = format!("replay-{pass:04}-{c}");
            let clip_span = spans.enter("replay.ingest.clip", pass);
            let agree = match pass % 3 {
                0 => {
                    let span = spans.enter("core.features.extract", pass);
                    let features: Vec<_> = video
                        .frames()
                        .iter()
                        .map(|f| extractor.extract_with(f, &mut scratch).expect("extract"))
                        .collect();
                    extract += spans.exit(span);

                    let span = spans.enter("core.sbd.cascade", pass);
                    let segmentation = detector.segment_features(&features);
                    cascade += spans.exit(span);

                    let signs_ba: Vec<_> = features.iter().map(|f| f.sign_ba).collect();
                    let span = spans.enter("core.scenetree.build", pass);
                    let tree = build_scene_tree(&segmentation.shots, &signs_ba);
                    scenetree += spans.exit(span);
                    std::hint::black_box(tree);

                    layered.add(clip);
                    let s = segmentation.stats;
                    sbd.pairs += s.pairs;
                    sbd.stage1_same += s.stage1_same;
                    sbd.stage2_same += s.stage2_same;
                    sbd.boundaries += s.boundaries;
                    segmentation.shots.len() == clip.ref_shots
                }
                1 => {
                    let span = spans.enter("core.pipeline.analyze", pass);
                    let analysis = engine.analyze(video).expect("replay analysis");
                    analyze += spans.exit(span);

                    // The store's own work, timed directly: analysis takes a
                    // hundred times longer, so a difference of two whole
                    // ingests is all noise.
                    let (dims, fps) = (video.dims(), video.fps());
                    let shots = analysis.shots().len();
                    let for_journal = analysis.clone();
                    let span = spans.enter("store.db.commit_stream", pass);
                    let in_memory = DbBackend::commit_stream(
                        &mut memory_db,
                        name.clone(),
                        dims,
                        fps,
                        analysis,
                        vec![],
                        vec![],
                    );
                    db_commit += spans.exit(span);

                    let span = spans.enter("store.journal.commit_stream", pass);
                    let staged = journaled_commit
                        .commit_stream(name, dims, fps, for_journal, vec![], vec![])
                        .and_then(|(_, ticket)| ticket.wait());
                    journal_commit += spans.exit(span);

                    analysed.add(clip);
                    shots == clip.ref_shots && in_memory.is_ok() && staged.is_ok()
                }
                _ => {
                    let span = spans.enter("store.journal.ingest", pass);
                    let durable = journaled.ingest(name, video, vec![], vec![]);
                    journal_ingest += spans.exit(span);
                    ingested.add(clip);
                    durable.is_ok()
                }
            };
            spans.exit(clip_span);
            tally.check(1, agree, || {
                format!("layer replay of clip {c} disagrees with its reference")
            });
        }
    }

    let stats = journaled.journal_stats();
    drop(journaled);
    let journal_bytes = std::fs::metadata(&journal).map_or(0, |m| m.len()) as f64;
    let layers_per_frame = (extract + cascade + scenetree) / layered.frames;
    out.extend([
        (
            "core.features.extract_us_per_frame",
            extract / layered.frames,
        ),
        ("core.sbd.cascade_us_per_frame", cascade / layered.frames),
        (
            "core.sbd.quick_elimination_ratio",
            sbd.quick_elimination_rate(),
        ),
        (
            "core.sbd.boundaries_per_kframe",
            sbd.boundaries as f64 * 1000.0 / layered.frames,
        ),
        (
            "core.scenetree.build_us_per_clip",
            scenetree / layered.clips,
        ),
        (
            "core.pipeline.analyze_us_per_frame",
            analyze / analysed.frames,
        ),
        (
            "core.pipeline.self_us_per_frame",
            analyze / analysed.frames - layers_per_frame,
        ),
        (
            "store.db.ingest_self_us_per_clip",
            db_commit / analysed.clips,
        ),
        (
            "store.journal.self_us_per_clip",
            (journal_commit - db_commit) / analysed.clips,
        ),
        (
            "store.journal.ingest_us_per_frame",
            journal_ingest / ingested.frames,
        ),
        (
            "store.journal.records_per_clip",
            stats.staged_records as f64 / ingested.clips,
        ),
        (
            "store.journal.batches_per_clip",
            stats.batches as f64 / ingested.clips,
        ),
        (
            "store.journal.bytes_per_clip",
            journal_bytes / ingested.clips,
        ),
    ]);
}

/// Leg 1b: extraction cost per pixel at three frame sizes, on frames
/// resampled from the corpus (the kernels' cost does not depend on content).
fn extract_sizes(inputs: &Inputs, spans: &mut Spans, out: &mut Metrics) {
    let sources = inputs.corpus().clips[0].video.frames();
    let (sw, sh) = crate::inputs::STREAM_DIMS;
    for (name, w, h) in [
        ("core.features.extract_ns_per_pixel_64x48", 64u32, 48u32),
        ("core.features.extract_ns_per_pixel_160x120", 160, 120),
        ("core.features.extract_ns_per_pixel_320x240", 320, 240),
    ] {
        let frames: Vec<FrameBuf> = sources
            .iter()
            .take(SIZE_FRAMES)
            .map(|src| FrameBuf::from_fn(w, h, |x, y| src.get(x * sw / w, y * sh / h)))
            .collect();
        let extractor = FeatureExtractor::new(w, h).expect("extractor for a replay size");
        let mut scratch = ScratchBuffers::default();
        // Once untimed: tables built, scratch grown.
        for frame in &frames {
            std::hint::black_box(
                extractor
                    .extract_with(frame, &mut scratch)
                    .expect("extract"),
            );
        }
        let span = spans.enter("core.features.extract.sized", u64::from(w));
        for _ in 0..SIZE_REPEATS {
            for frame in &frames {
                std::hint::black_box(
                    extractor
                        .extract_with(frame, &mut scratch)
                        .expect("extract"),
                );
            }
        }
        let us = spans.exit(span);
        let pixels = (SIZE_REPEATS * frames.len()) as f64 * f64::from(w * h);
        out.push((name, us * 1000.0 / pixels));
    }
}

/// Leg 2: a streamed frame's way in — message codec, pixel copy, the
/// store's streaming session, and the same over the wire.
fn stream_layers(
    cfg: &Config,
    inputs: &Inputs,
    spans: &mut Spans,
    tally: &mut Tally,
    out: &mut Metrics,
) {
    let corpus = inputs.corpus();
    let journal = cfg.work_dir.join("layers_session.vdbj");
    let mut backend = JournaledDatabase::open(&journal, AnalyzerConfig::default())
        .expect("open the session journal");
    let store = ServerStore::open_journal(
        cfg.work_dir.join("layers_wire.vdbj"),
        AnalyzerConfig::default(),
    )
    .expect("open the wire journal");
    let handle = Server::bind(store, server_config()).expect("bind").serve();
    let mut client = connect(&handle);

    let (mut frames, mut clips) = (0.0, 0.0);
    let (mut encode, mut decode, mut from_rgb, mut push, mut finish, mut commit) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    let mut wire_push = 0.0;
    let mut wire_commit = Vec::new();
    for pass in 0..cfg.scaled(STREAM_REPLAY_PASSES_PER_S) {
        for (c, clip) in corpus.clips.iter().enumerate() {
            let video = &clip.video;
            let (w, h) = video.dims();
            let name = format!("replay-{pass:04}-{c}");
            let clip_span = spans.enter("replay.stream.clip", pass);

            for (seq, frame) in video.frames().iter().enumerate() {
                let data = frame.to_rgb24();
                let span = spans.enter("server.protocol.encode", pass);
                let payload = encode_stream_request(&StreamRequest::Frame {
                    session: 1,
                    seq: seq as u32,
                    data: &data,
                });
                encode += spans.exit(span);
                let span = spans.enter("server.protocol.decode", pass);
                let decoded = decode_stream_request(&payload);
                decode += spans.exit(span);
                let Ok(StreamRequest::Frame { data: body, .. }) = decoded else {
                    tally.fail(1, || {
                        "a frame message did not decode to a frame".to_string()
                    });
                    continue;
                };
                let span = spans.enter("core.frame.from_rgb24", pass);
                let rebuilt = FrameBuf::from_rgb24(w, h, body);
                from_rgb += spans.exit(span);
                tally.check(1, rebuilt.is_ok_and(|f| f == *frame), || {
                    "a frame did not survive the wire codec".to_string()
                });
            }

            let mut session =
                StreamIngest::new(name.clone(), (w, h), video.fps(), AnalyzerConfig::default());
            let span = spans.enter("store.session.push_clip", pass);
            for frame in video.frames() {
                session.push(frame).expect("session push");
            }
            push += spans.exit(span);
            let span = spans.enter("store.session.finish", pass);
            let finished = session.finish().expect("session finish");
            finish += spans.exit(span);
            let shots = finished.shots();
            let span = spans.enter("store.session.commit", pass);
            let committed = finished
                .commit(&mut backend)
                .and_then(|(_, ticket)| ticket.wait());
            commit += spans.exit(span);
            tally.check(1, committed.is_ok() && shots == clip.ref_shots, || {
                format!("session replay of clip {c} disagrees with its reference")
            });

            let span = spans.enter("server.client.push_clip", pass);
            let streamed = client
                .open_stream(&name, w, h, video.fps())
                .and_then(|mut stream| {
                    for frame in video.frames() {
                        stream.push(frame)?;
                    }
                    Ok(stream)
                });
            wire_push += spans.exit(span);
            let span = spans.enter("server.client.commit", pass);
            let acked = streamed.and_then(|stream| stream.commit());
            wire_commit.push(spans.exit(span));
            tally.check(
                1,
                acked.is_ok_and(|a| a.shots == clip.ref_shots && a.durable),
                || format!("wire replay of clip {c} disagrees with its reference"),
            );
            spans.exit(clip_span);
            frames += video.len() as f64;
            clips += 1.0;
        }
    }
    let buffered_peak = f64::from(handle.stream_stats().buffered_peak);
    drop(client);
    if let Err(e) = handle.shutdown() {
        tally.fail(1, || format!("replay server shutdown failed: {e}"));
    }
    let inner = (decode + from_rgb + push) / frames;
    out.extend([
        ("server.protocol.encode_us_per_frame", encode / frames),
        ("server.protocol.decode_us_per_frame", decode / frames),
        ("core.frame.from_rgb24_us_per_frame", from_rgb / frames),
        ("store.session.push_us_per_frame", push / frames),
        ("store.session.finish_us_per_clip", finish / clips),
        ("store.session.commit_us_per_clip", commit / clips),
        ("server.client.push_us_per_frame", wire_push / frames),
        ("server.client.commit_us_p50", median(&wire_commit)),
        ("server.wire.self_us_per_frame", wire_push / frames - inner),
        ("server.session.buffered_peak", buffered_peak),
    ]);
}

/// Per-kind samples (µs).
#[derive(Default)]
struct ByKind([Vec<f64>; 4]);

impl ByKind {
    fn of(&mut self, kind: Kind) -> &mut Vec<f64> {
        &mut self.0[kind as usize]
    }

    /// Mean over one request cycle's mix of kinds.
    fn cycle_mean(&mut self) -> f64 {
        CYCLE.iter().map(|kind| mean(self.of(*kind))).sum::<f64>() / CYCLE.len() as f64
    }
}

/// Legs 3–5: a request's way through — parse, index probe, scene-node
/// mapping, render, reply codec, the wire — then the same requests beside
/// a writer, and how long a commit locks readers out.
fn query_layers(
    cfg: &Config,
    inputs: &Inputs,
    main_range_us: &[f64],
    spans: &mut Spans,
    tally: &mut Tally,
    out: &mut Metrics,
) -> f64 {
    let mut rng = Rng::new(cfg.seed);
    let served = serve(
        cfg.work_dir.join("layers_query.vdbj"),
        Some((inputs, &mut rng)),
    );
    let mut pool = RequestPool::new(served.preloaded.as_ref().expect("preloaded"), &mut rng);
    let order = clip_order(inputs.corpus(), &mut rng);
    let mut client = connect(&served.handle);
    verify_pool(&mut client, &served.handle, &mut pool, tally);

    // In process, under one read lock: nothing else touches the store.
    let mut parse = Vec::new();
    let mut probe = ByKind::default();
    let mut query_str = Vec::new();
    let mut execute = ByKind::default();
    let mut codec = ByKind::default();
    let mut reply_bytes = ByKind::default();
    let (mut candidates, mut buckets, mut results, mut probes) = (0usize, 0usize, 0usize, 0usize);
    served.handle.store().read(|db| {
        for (op, request) in pool.requests.iter().enumerate() {
            let op = op as u64;
            let span = spans.enter("store.shell.parse", op);
            let command = Command::parse(&request.line);
            parse.push(spans.exit(span));

            if let Some(query) = &request.query {
                let span = spans.enter("core.index.probe", op);
                let (matches, stats) = if request.kind == Kind::Range {
                    db.index().probe_range(query)
                } else {
                    db.index().probe_topk(query, TOPK_K)
                };
                let probe_us = spans.exit(span);
                probe.of(request.kind).push(probe_us);
                candidates += stats.candidates;
                buckets += stats.buckets_touched;
                results += matches.len();
                probes += 1;

                let text = request.line.strip_prefix("query ").expect("a query line");
                let span = spans.enter("store.db.query_str", op);
                let answers = db.query_str(text);
                query_str.push(spans.exit(span) - probe_us);
                tally.check(1, answers.is_ok(), || {
                    format!("query_str rejected '{text}'")
                });
            }

            let span = spans.enter("store.shell.execute", op);
            let text = execute_readonly(db, &command);
            execute.of(request.kind).push(spans.exit(span));
            tally.check(1, text == request.expected, || {
                format!("'{}' executed differently the second time", request.line)
            });

            let text = text.unwrap_or_default();
            let span = spans.enter("server.protocol.response_codec", op);
            let payload = encode_response(true, &text);
            let decoded = decode_response(&payload);
            codec.of(request.kind).push(spans.exit(span));
            reply_bytes.of(request.kind).push(payload.len() as f64);
            tally.check(1, decoded.is_ok_and(|r| r.ok && r.text == text), || {
                "a reply did not survive the response codec".to_string()
            });
        }
    });

    // Over the wire with nothing else running: the quiet baseline.
    let mut quiet = ByKind::default();
    for cycle in 0..cfg.scaled(QUIET_CYCLES_PER_S) {
        for kind in CYCLE {
            let us = send(&mut client, &mut pool, kind, true, cycle, spans, tally);
            quiet.of(kind).push(us);
        }
    }
    drop(client);
    let quiet_range_p50 = median(quiet.of(Kind::Range));

    // The same requests beside the frame stream.
    let rounds = cfg.scaled(MIXED_ROUNDS_PER_S);
    let mixed = mixed_rounds(
        &served,
        inputs,
        &mut pool,
        &order,
        0,
        rounds,
        false,
        Instant::now(),
        spans,
        tally,
    );
    let mixed_range_p50 = median(&mixed.range_us);

    // How long a commit holds the write lock at this database size.
    let mut hold = Vec::with_capacity(COMMIT_HOLD_SAMPLES);
    for i in 0..COMMIT_HOLD_SAMPLES {
        let base = &inputs.bases()[i % inputs.bases().len()];
        let analysis = base.analysis.clone();
        let span = spans.enter("store.db.commit_hold", i as u64);
        let staged = served.handle.store().write(|backend| {
            backend.commit_stream(
                format!("hold-{i:03}"),
                base.dims,
                base.fps,
                analysis,
                vec![],
                vec![],
            )
        });
        hold.push(spans.exit(span));
        tally.check(
            1,
            staged.is_ok_and(|(_, ticket)| ticket.wait().is_ok()),
            || "a commit under the write lock failed".to_string(),
        );
    }
    if let Err(e) = served.handle.shutdown() {
        tally.fail(1, || format!("replay server shutdown failed: {e}"));
    }

    // The tail comes from the largest range sample this run has: the main
    // loop's where it sends range queries, else the mixed leg's.
    let tail = if main_range_us.len() > mixed.range_us.len() {
        main_range_us
    } else {
        &mixed.range_us
    };
    let request_mean = quiet.cycle_mean();
    out.extend([
        ("store.shell.parse_us_per_req", mean(&parse)),
        (
            "core.index.probe_range_us_p50",
            median(probe.of(Kind::Range)),
        ),
        ("core.index.probe_topk_us_p50", median(probe.of(Kind::TopK))),
        (
            "core.index.candidates_per_result",
            candidates as f64 / results.max(1) as f64,
        ),
        (
            "core.index.buckets_per_probe",
            buckets as f64 / probes.max(1) as f64,
        ),
        ("store.db.query_self_us_per_req", mean(&query_str)),
        (
            "store.shell.execute_range_us_p50",
            median(execute.of(Kind::Range)),
        ),
        (
            "store.shell.execute_topk_us_p50",
            median(execute.of(Kind::TopK)),
        ),
        (
            "store.shell.execute_tree_us_p50",
            median(execute.of(Kind::Tree)),
        ),
        (
            "store.shell.execute_board_us_p50",
            median(execute.of(Kind::Board)),
        ),
        (
            "server.protocol.response_codec_us_per_req",
            codec.cycle_mean(),
        ),
        ("server.resp_bytes_per_req", reply_bytes.cycle_mean()),
        ("server.request.range_us_p50", quiet_range_p50),
        ("server.request.topk_us_p50", median(quiet.of(Kind::TopK))),
        ("server.request.tree_us_p50", median(quiet.of(Kind::Tree))),
        ("server.request.board_us_p50", median(quiet.of(Kind::Board))),
        (
            "server.wire.self_us_per_req",
            request_mean - execute.cycle_mean() - codec.cycle_mean(),
        ),
        (
            "store.lock.read_slowdown_ratio",
            mixed_range_p50 / quiet_range_p50,
        ),
        ("store.db.commit_hold_us_per_clip", mean(&hold)),
        ("tail.range_us_p99", quantile(tail, 0.99)),
        ("tail.range_us_p999", quantile(tail, 0.999)),
        ("tail.range_us_max", quantile(tail, 1.0)),
        ("tail.samples", tail.len() as f64),
    ]);
    quiet_range_p50
}

/// Leg 6, informational: the same kinds of request through a router over
/// two in-process shards holding the same number of videos between them.
fn router_layers(
    cfg: &Config,
    inputs: &Inputs,
    direct_range_p50: f64,
    spans: &mut Spans,
    tally: &mut Tally,
    out: &mut Metrics,
) {
    let mut rng = Rng::new(cfg.seed ^ 0x726f_7574);
    let mut shards = Vec::new();
    let mut examples = Vec::new();
    let mut videos = 0usize;
    for slot in 0..2 {
        let config = vdb_server::ServerConfig {
            shard_id: Some(slot.to_string()),
            ..server_config()
        };
        let handle = Server::bind(ServerStore::memory(), config)
            .expect("bind a shard")
            .serve();
        let pre = handle
            .store()
            .write(|backend| preload(backend, inputs.bases(), BASE_COPIES / 2, &mut rng));
        examples.extend(pre.examples);
        videos += pre.videos.len();
        shards.push(handle);
    }
    let router = Router::bind(RouterConfig {
        shards: shards.iter().map(|s| s.addr().to_string()).collect(),
        workers: 1,
        ..RouterConfig::default()
    })
    .expect("bind the router")
    .serve();
    let mut client = vdb_server::Client::connect(router.addr()).expect("connect to the router");
    let refreshed = client.request("refresh");
    tally.check(1, refreshed.is_ok_and(|r| r.ok), || {
        "router refresh failed".to_string()
    });

    let (mut range, mut tree) = (Vec::new(), Vec::new());
    for op in 0..cfg.scaled(ROUTER_REQUESTS_PER_S) {
        let (ba, oa) = examples[rng.below(examples.len())];
        let lines = [
            format!("query ba={ba} oa={oa} alpha={RANGE_TOLERANCE} beta={RANGE_TOLERANCE} limit=8"),
            format!("tree {}", rng.below(videos)),
        ];
        for (line, samples, name) in [
            (&lines[0], &mut range, "router.request.range"),
            (&lines[1], &mut tree, "router.request.tree"),
        ] {
            let span = spans.enter(name, op);
            let reply = client.request(line);
            samples.push(spans.exit(span));
            tally.check(1, reply.is_ok_and(|r| r.ok), || {
                format!("'{line}' failed through the router")
            });
        }
    }
    drop(client);
    router.shutdown();
    for shard in shards {
        if let Err(e) = shard.shutdown() {
            tally.fail(1, || format!("shard shutdown failed: {e}"));
        }
    }
    out.extend([
        ("router.request.range_us_p50", median(&range)),
        ("router.request.tree_us_p50", median(&tree)),
        (
            "router.overhead_ratio_range",
            median(&range) / direct_range_p50,
        ),
    ]);
}

/// Run every leg; `main` is the traced main loop this breakdown rides on.
pub fn replay(
    cfg: &Config,
    inputs: &mut Inputs,
    main: &Outcome,
    main_has_range: bool,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Metrics {
    inputs.need_corpus();
    inputs.need_bases();
    let inputs = &*inputs;
    spans.on = true;
    let mut out = Metrics::new();
    ingest_layers(cfg, inputs, spans, tally, &mut out);
    extract_sizes(inputs, spans, &mut out);
    stream_layers(cfg, inputs, spans, tally, &mut out);
    let main_range: &[f64] = if main_has_range {
        &main.latency_us
    } else {
        &[]
    };
    let direct_range_p50 = query_layers(cfg, inputs, main_range, spans, tally, &mut out);
    router_layers(cfg, inputs, direct_range_p50, spans, tally, &mut out);
    spans.on = false;
    out.push((
        "store.journal.replay_us_per_video",
        main.journal.seconds * 1e6 / main.journal.videos as f64,
    ));
    out.push(("main.latency_p90_us", quantile(&main.latency_us, 0.9)));
    out.push((
        "bench.trace_overhead_ratio",
        main.window.trace_overhead_ratio,
    ));
    out
}
