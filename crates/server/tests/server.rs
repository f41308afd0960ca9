//! Loopback integration tests for `vdbd`'s serving core: concurrency,
//! protocol robustness, graceful shutdown, journal-backed durability, and
//! wire-level streaming ingest.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Duration;
use vdb_core::frame::{FrameBuf, Video};
use vdb_core::scenetree::SceneNode;
use vdb_core::variance::ShotFeature;
use vdb_server::client::Client;
use vdb_server::protocol::{
    decode_response, encode_stream_request, read_frame, write_frame, StreamRequest,
};
use vdb_server::server::{Server, ServerConfig, ServerHandle, ServerStore};
use vdb_server::{CommandKind, ServerEvent};
use vdb_store::codec::{Codec, Varint};
use vdb_store::transfer::{from_hex, to_hex, ExportedVideo, TRANSFER_VERSION};

fn test_config(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        idle_timeout: Duration::from_secs(20),
        frame_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(5),
        poll_interval: Duration::from_millis(5),
        drain_grace: Duration::from_millis(150),
        ..ServerConfig::default()
    }
}

fn start_memory_server(workers: usize, demo_clips: usize) -> ServerHandle {
    let store = ServerStore::memory();
    if demo_clips > 0 {
        use vdb_store::shell::{execute_mutation, Command};
        store.write(|backend| {
            execute_mutation(backend, &Command::Demo(demo_clips)).expect("demo is a mutation")
        });
    }
    Server::bind(store, test_config(workers))
        .expect("bind loopback")
        .serve()
}

/// The acceptance-criteria test: 16 concurrent clients, every response
/// parses, the metrics request count equals the number of requests sent,
/// and graceful shutdown answers every request that was already sent.
#[test]
fn sixteen_concurrent_clients_then_graceful_drain() {
    const CLIENTS: usize = 16;
    const REQUESTS_PER_CLIENT: usize = 10;
    let handle = start_memory_server(4, 2);
    let addr = handle.addr();
    let sent = AtomicUsize::new(0);

    // Phase A: 16 clients hammer a mix of commands over persistent
    // connections (only 4 workers — connections queue and still finish).
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let sent = &sent;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for i in 0..REQUESTS_PER_CLIENT {
                    let line = match (c + i) % 5 {
                        0 => "list".to_string(),
                        1 => "stats".to_string(),
                        2 => format!("query ba=0.{i} oa=1{i} alpha=4 beta=4"),
                        3 => "tree 0".to_string(),
                        _ => "board 1 4".to_string(),
                    };
                    let resp = client.request(&line).expect("response");
                    sent.fetch_add(1, Ordering::Relaxed);
                    assert!(resp.ok, "'{line}' failed: {}", resp.text);
                    match (c + i) % 5 {
                        0 => assert!(resp.text.contains("demo-movie")),
                        1 => assert!(resp.text.contains("videos 2")),
                        2 => assert!(resp.text.contains("answers")),
                        3 => assert!(resp.text.contains("SN_")),
                        _ => assert!(resp.text.contains("rep frame")),
                    }
                }
            });
        }
    });
    let total_sent = sent.load(Ordering::Relaxed) as u64;
    assert_eq!(total_sent, (CLIENTS * REQUESTS_PER_CLIENT) as u64);
    let snap = handle.metrics();
    assert_eq!(
        snap.total_requests(),
        total_sent,
        "metrics must count every request"
    );
    assert_eq!(snap.total_errors(), 0);
    assert_eq!(snap.get(ServerEvent::ProtocolError), 0);

    // Phase B: 16 fresh clients each send one request and do NOT read the
    // reply yet; shutdown is then triggered with most of those requests
    // still queued behind the 4 workers. Graceful drain must answer every
    // one of them.
    let mut streams: Vec<TcpStream> = (0..CLIENTS)
        .map(|_| {
            let stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(20)))
                .unwrap();
            stream
        })
        .collect();
    for stream in &mut streams {
        write_frame(stream, b"stats").expect("send request");
    }
    handle.trigger_shutdown();
    for stream in &mut streams {
        let payload = read_frame(stream, 1 << 20)
            .expect("drained response frame")
            .expect("reply must not be dropped by shutdown");
        let resp = decode_response(&payload).expect("well-formed response");
        assert!(resp.ok, "drained stats failed: {}", resp.text);
        assert!(resp.text.contains("videos 2"));
    }
    let final_snap = handle.join().expect("clean join");
    assert_eq!(
        final_snap.total_requests(),
        total_sent + CLIENTS as u64,
        "drained requests are counted too"
    );

    // The listener is gone after shutdown.
    assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err());
}

/// A malformed or oversized frame costs the sender its connection —
/// counted in the metrics — and nothing else.
#[test]
fn malformed_frames_close_only_that_connection() {
    let handle = start_memory_server(2, 1);
    let addr = handle.addr();

    // Oversized declared length: error response, then the connection dies.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(&(64u32 << 20).to_le_bytes()).unwrap();
        let payload = read_frame(&mut stream, 1 << 20).unwrap().unwrap();
        let resp = decode_response(&payload).unwrap();
        assert!(!resp.ok);
        assert!(resp.text.contains("exceeds"), "got: {}", resp.text);
        let mut rest = Vec::new();
        assert_eq!(
            stream.read_to_end(&mut rest).unwrap(),
            0,
            "server must close after an oversized frame"
        );
    }

    // Torn frame (declared 100 bytes, sent 10, then hung up): silently
    // closed, counted.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&100u32.to_le_bytes()).unwrap();
        stream.write_all(&[7u8; 10]).unwrap();
    }

    // Malformed `trace` / `debug` requests are per-request usage errors,
    // and an oversized frame afterwards still costs only that connection.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        for line in [
            "trace",
            "trace quit",
            "trace save x.vdbs",
            "debug",
            "debug everything",
        ] {
            write_frame(&mut stream, line.as_bytes()).unwrap();
            let resp =
                decode_response(&read_frame(&mut stream, 1 << 20).unwrap().unwrap()).unwrap();
            assert!(resp.ok, "'{line}' should answer, not drop: {}", resp.text);
            assert!(
                resp.text.contains("usage") || resp.text.contains("trace wraps"),
                "'{line}': {}",
                resp.text
            );
        }
        // A working trace request on the same connection...
        write_frame(&mut stream, b"trace list").unwrap();
        let resp = decode_response(&read_frame(&mut stream, 1 << 20).unwrap().unwrap()).unwrap();
        assert!(resp.ok && resp.text.contains("trace "), "{}", resp.text);
        // ...then an oversized frame: parting error, connection closed.
        stream.write_all(&(64u32 << 20).to_le_bytes()).unwrap();
        let payload = read_frame(&mut stream, 1 << 20).unwrap().unwrap();
        assert!(!decode_response(&payload).unwrap().ok);
        let mut rest = Vec::new();
        assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);
    }

    // Non-UTF-8 request: an error *response* (the frame itself was valid),
    // and the connection keeps working.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write_frame(&mut stream, &[0xff, 0xfe, 0x00]).unwrap();
        let resp = decode_response(&read_frame(&mut stream, 1 << 20).unwrap().unwrap()).unwrap();
        assert!(!resp.ok);
        assert!(resp.text.contains("UTF-8"));
        write_frame(&mut stream, b"ping").unwrap();
        let resp = decode_response(&read_frame(&mut stream, 1 << 20).unwrap().unwrap()).unwrap();
        assert!(resp.ok && resp.text == "pong");
    }

    // The server is still fully alive for new clients.
    let mut client = Client::connect(addr).unwrap();
    let text = client.expect_ok("stats").unwrap();
    assert!(text.contains("videos 1"));

    // Give the torn-frame close a moment to be recorded, then check the
    // counters: three violations, no command errors charged.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let snap = handle.metrics();
        let protocol_errors = snap.get(ServerEvent::ProtocolError);
        if protocol_errors >= 3 {
            assert_eq!(protocol_errors, 3);
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "protocol errors never counted: {protocol_errors}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(client);
    handle.shutdown().unwrap();
}

/// Undecodable stream messages (a truncated header, an unknown opcode)
/// are protocol errors that cost the sender neither its connection nor
/// anything else: each gets a `-bad stream message` reply and is charged
/// to the `other` command as a failed request.
#[test]
fn undecodable_stream_messages_keep_the_connection() {
    let handle = start_memory_server(2, 0);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut unknown_op = vec![0xF5, 0x7F];
    unknown_op.extend_from_slice(&[0u8; 8]);
    for payload in [vec![0xF5], unknown_op] {
        write_frame(&mut stream, &payload).unwrap();
        let resp = decode_response(&read_frame(&mut stream, 1 << 20).unwrap().unwrap()).unwrap();
        assert!(!resp.ok);
        assert!(
            resp.text.starts_with("bad stream message: "),
            "{}",
            resp.text
        );
    }
    write_frame(&mut stream, b"ping").unwrap();
    let resp = decode_response(&read_frame(&mut stream, 1 << 20).unwrap().unwrap()).unwrap();
    assert!(resp.ok && resp.text == "pong", "{}", resp.text);
    let snap = handle.metrics();
    assert_eq!(snap.get(ServerEvent::ProtocolError), 2);
    assert_eq!(snap.0.counter("server.cmd.other.errors"), Some(2));
    drop(stream);
    handle.shutdown().unwrap();
}

/// Satellite stress test: reader threads issue mixed `query`/`tree`/
/// `board` while an ingest thread pushes clips through `demo` — no
/// deadlocks, every response well-formed.
#[test]
fn stress_mixed_reads_with_concurrent_ingest() {
    const READERS: usize = 6;
    const REQUESTS: usize = 25;
    const INGESTS: usize = 4;
    let handle = start_memory_server(READERS + 2, 2);
    let addr = handle.addr();
    let barrier = Barrier::new(READERS + 1);

    std::thread::scope(|s| {
        for r in 0..READERS {
            let barrier = &barrier;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                barrier.wait();
                for i in 0..REQUESTS {
                    let line = match (r + i) % 3 {
                        0 => format!("query ba=0.{r} oa=1{i} alpha=3 beta=3"),
                        1 => "tree 0".to_string(),
                        _ => "board 0 5".to_string(),
                    };
                    let resp = client.request(&line).expect("response");
                    assert!(resp.ok, "'{line}' failed: {}", resp.text);
                    assert!(!resp.text.is_empty());
                }
            });
        }
        let barrier = &barrier;
        s.spawn(move || {
            let mut client = Client::connect(addr).expect("connect ingester");
            barrier.wait();
            for _ in 0..INGESTS {
                let text = client.expect_ok("demo 1").expect("ingest over wire");
                assert!(text.contains("ingested video"));
            }
        });
    });

    let snap = handle.metrics();
    assert_eq!(snap.total_requests(), (READERS * REQUESTS + INGESTS) as u64);
    assert_eq!(snap.total_errors(), 0);
    let mut client = Client::connect(addr).unwrap();
    let stats = client.expect_ok("stats").unwrap();
    assert!(
        stats.contains(&format!("videos {}", 2 + INGESTS)),
        "{stats}"
    );
    drop(client);
    handle.shutdown().unwrap();
}

/// The wire surface stays in parity with the REPL: the same commands
/// produce byte-identical output on both.
#[test]
fn wire_output_matches_shell_output() {
    use vdb_store::shell::{Shell, ShellOutcome};

    let commands = [
        "demo 2",
        "list",
        "stats",
        "query ba=0.3 oa=14 alpha=4 beta=4 limit=5",
        "query ba=0.3 oa=14 k=3",
        "tree 1",
        "board 0 3",
        "remove 0",
        "list",
    ];
    let mut shell = Shell::new();
    let handle = start_memory_server(2, 0);
    let mut client = Client::connect(handle.addr()).unwrap();
    for line in commands {
        let local = match shell.run(line) {
            ShellOutcome::Continue(out) => out,
            ShellOutcome::Quit => unreachable!(),
        };
        let wire = client.request(line).expect("response");
        assert!(wire.ok, "'{line}': {}", wire.text);
        // `stats` appends a server summary over the wire; compare the
        // shared prefix.
        if line == "stats" {
            assert!(wire.text.starts_with(&local), "'{line}' diverged");
        } else {
            assert_eq!(wire.text, local, "'{line}' diverged");
        }
    }
    drop(client);
    handle.shutdown().unwrap();
}

/// The top-k path works over the wire: `k=<n>` returns
/// exactly `n` nearest shots (the demo corpus has far more than `n`),
/// and `k` composes with `limit`.
#[test]
fn topk_query_over_the_wire() {
    let handle = start_memory_server(2, 2);
    let mut client = Client::connect(handle.addr()).unwrap();
    let resp = client.request("query ba=0.5 oa=12 k=3").unwrap();
    assert!(resp.ok, "{}", resp.text);
    assert!(resp.text.contains("3 answers"), "got: {}", resp.text);
    let resp = client.request("query ba=0.5 oa=12 k=5 limit=2").unwrap();
    assert!(resp.ok);
    assert!(resp.text.contains("2 answers"), "got: {}", resp.text);
    // Malformed k is a clean per-request error, not a dropped connection.
    let resp = client.request("query ba=0.5 oa=12 k=lots").unwrap();
    assert!(resp.text.contains("needs a number"), "got: {}", resp.text);
    let resp = client.request("stats").unwrap();
    assert!(resp.ok);
    drop(client);
    handle.shutdown().unwrap();
}

/// A client-chosen `k` far beyond the corpus answers like `k` = every
/// row: the daemon sizes nothing from `k`, and the connection stays
/// usable afterwards.
#[test]
fn huge_k_answers_every_row_and_keeps_the_connection() {
    let handle = start_memory_server(2, 2);
    let mut client = Client::connect(handle.addr()).unwrap();
    let stats = client.request("stats").unwrap().text;
    let rows = stats
        .split("index rows ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no index rows in '{stats}'"));
    let all = client
        .request(&format!("query ba=1 oa=1 k={rows}"))
        .unwrap();
    assert!(all.ok, "{}", all.text);
    assert!(
        all.text.starts_with(&format!("  {rows} answers\n")),
        "{}",
        all.text
    );
    for k in ["1000000000000", "18446744073709551615"] {
        let resp = client.request(&format!("query ba=1 oa=1 k={k}")).unwrap();
        assert!(resp.ok, "k={k}: {}", resp.text);
        assert_eq!(resp.text, all.text, "k={k}");
        let pong = client.request("ping").unwrap();
        assert!(pong.ok && pong.text == "pong", "k={k}: {}", pong.text);
    }
    drop(client);
    handle.shutdown().unwrap();
}

/// Journal-backed serving: mutations that were acknowledged over the wire
/// survive a server restart, including `remove` tombstones.
#[test]
fn journal_mode_survives_restart() {
    let dir = std::env::temp_dir().join(format!("vdb-server-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("served.vdbj");

    {
        let store = ServerStore::open_journal(&path, vdb_core::analyzer::AnalyzerConfig::default())
            .expect("open journal");
        let handle = Server::bind(store, test_config(2)).unwrap().serve();
        let mut client = Client::connect(handle.addr()).unwrap();
        let out = client.expect_ok("demo 3").unwrap();
        assert!(out.contains("ingested video 2"));
        client.expect_ok("remove 1").unwrap();
        // Shutdown over the wire; the handle drains and syncs.
        let resp = client.request("shutdown").expect("shutdown response");
        assert!(resp.ok && resp.text.contains("shutting down"));
        handle.join().unwrap();
    }

    // A fresh server over the same journal sees exactly the acknowledged
    // state.
    let store = ServerStore::open_journal(&path, vdb_core::analyzer::AnalyzerConfig::default())
        .expect("reopen journal");
    let handle = Server::bind(store, test_config(2)).unwrap().serve();
    let mut client = Client::connect(handle.addr()).unwrap();
    let stats = client.expect_ok("stats").unwrap();
    assert!(stats.contains("videos 2"), "{stats}");
    let list = client.expect_ok("list").unwrap();
    assert!(list.contains("demo-movie-9000") && list.contains("demo-movie-9002"));
    assert!(!list.contains("demo-movie-9001"), "tombstone must hold");
    drop(client);
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `quit` closes one connection; unknown commands and rejected shell-only
/// commands answer with an error status but keep the server healthy.
#[test]
fn per_connection_commands_and_rejections() {
    let handle = start_memory_server(2, 1);
    let addr = handle.addr();

    let mut client = Client::connect(addr).unwrap();
    let resp = client.request("frobnicate").unwrap();
    assert!(!resp.ok && resp.text.contains("unknown command"));
    let resp = client.request("save /tmp/x.vdbs").unwrap();
    assert!(!resp.ok && resp.text.contains("not available over the wire"));
    let resp = client.request("load /tmp/x.vdbs").unwrap();
    assert!(!resp.ok);
    let resp = client.request("board").unwrap();
    assert!(resp.ok && resp.text.contains("usage"), "{}", resp.text);
    let resp = client.request("quit").unwrap();
    assert!(resp.ok && resp.text == "bye");
    // The server closed this connection after `bye`...
    let mut stream = client.into_stream();
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);
    // ...but keeps serving new ones, and `metrics` reports the traffic.
    let mut client = Client::connect(addr).unwrap();
    let metrics = client.expect_ok("metrics").unwrap();
    assert!(metrics.contains("quit"), "{metrics}");
    assert!(metrics.contains("total:"), "{metrics}");
    drop(client);
    handle.shutdown().unwrap();
}

/// The `metrics` wire command reports the whole stack: after a demo
/// ingest over the wire, the pipeline's `core.*` section from the
/// process-global registry appears below the server's own table, and
/// `stats` carries the one-line stack summary.
#[test]
fn metrics_reports_core_pipeline_sections() {
    let handle = start_memory_server(2, 0);
    let addr = handle.addr();

    let mut client = Client::connect(addr).unwrap();
    let out = client.expect_ok("demo 1").unwrap();
    assert!(out.contains("ingested"), "{out}");

    let metrics = client.expect_ok("metrics").unwrap();
    assert!(metrics.contains("total:"), "server table first:\n{metrics}");
    assert!(
        metrics.contains("core:"),
        "core section present:\n{metrics}"
    );
    assert!(
        metrics.contains("core.pipeline.frames"),
        "pipeline counters listed:\n{metrics}"
    );
    assert!(
        metrics.contains("core.cascade.sign_same"),
        "cascade stage-hit counters listed:\n{metrics}"
    );

    let stats = client.expect_ok("stats").unwrap();
    assert!(
        stats.contains("stack.frames_analyzed") && stats.contains("stack.journal_appends"),
        "{stats}"
    );

    drop(client);
    handle.shutdown().unwrap();
}

/// Every `stats` line after the database summary follows one grammar —
/// `  <dotted.key> <integer>` — so scripts (and the router's merge) can
/// cut on whitespace without per-line special cases.
#[test]
fn stats_lines_follow_the_dotted_key_grammar() {
    let handle = start_memory_server(2, 2);
    let mut client = Client::connect(handle.addr()).unwrap();
    let stats = client.expect_ok("stats").unwrap();

    let mut lines = stats.lines();
    let db_line = lines.next().expect("db summary line");
    assert!(db_line.contains("videos"), "{db_line}");
    let mut seen = 0usize;
    for line in lines {
        let mut parts = line.split_whitespace();
        let (key, value, extra) = (parts.next(), parts.next(), parts.next());
        assert_eq!(extra, None, "more than two fields: '{line}'");
        let key = key.unwrap_or_default();
        assert!(
            key.contains('.') && !key.ends_with('.'),
            "key '{key}' is not dotted: '{line}'"
        );
        assert!(
            value.is_some_and(|v| v.parse::<u64>().is_ok()),
            "value is not an integer: '{line}'"
        );
        seen += 1;
    }
    for key in [
        "server.requests",
        "server.stream.open",
        "stack.frames_analyzed",
    ] {
        assert!(stats.contains(key), "stats missing '{key}':\n{stats}");
    }
    assert!(
        seen >= 8,
        "expected the full counter table, got {seen} lines"
    );

    drop(client);
    handle.shutdown().unwrap();
}

/// The router-facing wire extras: `shard-id` answers the configured
/// identity, `xlist`/`xquery` emit machine rows, and `export`/`import`
/// move one video's finished analysis between two live servers.
#[test]
fn wire_extras_identify_enumerate_and_transfer() {
    let src = Server::bind(
        ServerStore::memory(),
        ServerConfig {
            shard_id: Some("7".to_string()),
            ..test_config(2)
        },
    )
    .unwrap()
    .serve();
    let dst = start_memory_server(2, 0);
    let mut from = Client::connect(src.addr()).unwrap();
    let mut to = Client::connect(dst.addr()).unwrap();

    assert_eq!(from.expect_ok("shard-id").unwrap(), "shard=7 proto=1");
    assert_eq!(to.expect_ok("shard-id").unwrap(), "shard=? proto=1");

    from.expect_ok("demo 2").unwrap();
    let listing = from.expect_ok("xlist").unwrap();
    assert_eq!(listing.lines().count(), 2, "{listing}");
    assert!(
        listing.lines().all(|l| l.starts_with("video id=")),
        "{listing}"
    );
    let rows = from.expect_ok("xquery ba=0.4 oa=20").unwrap();
    assert!(rows.starts_with("mode="), "{rows}");

    // Transfer video 1 and confirm the copy answers queries on its own.
    let hex = from.expect_ok("export 1").unwrap();
    let imported = to.expect_ok(&format!("import {}", hex.trim())).unwrap();
    assert!(imported.contains("video=0"), "{imported}");
    let moved = to.expect_ok("xlist").unwrap();
    assert_eq!(moved.lines().count(), 1, "{moved}");
    let original = from.expect_ok("xlist").unwrap();
    let name = |s: &str| {
        s.lines()
            .map(|l| l.split(" name=").nth(1).unwrap_or_default().to_string())
            .collect::<Vec<_>>()
    };
    assert!(
        name(&original).contains(&name(&moved)[0]),
        "{original} vs {moved}"
    );

    drop((from, to));
    src.shutdown().unwrap();
    dst.shutdown().unwrap();
}

/// An export record written field by field with `Codec`, so a test can
/// send `import` parts that disagree. Shots are given as their lengths,
/// as the record stores them.
fn export_blob(
    e: &ExportedVideo,
    shot_lengths: &[usize],
    features: &[ShotFeature],
    nodes: &[SceneNode],
) -> Vec<u8> {
    let a = &e.analysis;
    let mut analysis = Vec::new();
    Varint(a.video).encode(&mut analysis);
    shot_lengths.to_vec().encode(&mut analysis);
    features.to_vec().encode(&mut analysis);
    a.signs_ba.encode(&mut analysis);
    a.signs_oa.encode(&mut analysis);
    nodes.to_vec().encode(&mut analysis);
    for v in [
        a.stats.pairs,
        a.stats.stage1_same,
        a.stats.stage2_same,
        a.stats.stage3_same,
        a.stats.boundaries,
    ] {
        v.encode(&mut analysis);
    }
    let mut buf = vec![TRANSFER_VERSION];
    e.name.encode(&mut buf);
    Varint(e.dims.0.into()).encode(&mut buf);
    Varint(e.dims.1.into()).encode(&mut buf);
    e.fps.encode(&mut buf);
    e.genres.encode(&mut buf);
    e.forms.encode(&mut buf);
    analysis.encode(&mut buf);
    buf
}

/// `import` cannot poison a shard: a record whose parts disagree, or
/// whose features are not finite and non-negative, gets an error reply;
/// the catalog, the index and the journal stay as they were, and the
/// connection keeps serving. Once committed, the first record would panic
/// a worker on the next query and the second would loop forever in the
/// ancestor walk, on every restart too; a NaN feature would sort to an
/// end of the index table and pass Eq. 7 for every query.
#[test]
fn inconsistent_imports_are_refused_and_leave_no_trace() {
    let dir = std::env::temp_dir().join(format!("vdb-server-import-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("imports.vdbj");
    let config = vdb_core::analyzer::AnalyzerConfig::default();
    {
        let store = ServerStore::open_journal(&path, config).expect("open journal");
        let handle = Server::bind(store, test_config(2)).unwrap().serve();
        let mut client = Client::connect(handle.addr()).unwrap();
        client.expect_ok("demo 2").unwrap();
        let listing = client.expect_ok("list").unwrap();
        let hex = client.expect_ok("export 0").unwrap();
        let exported = ExportedVideo::decode(&from_hex(&hex).unwrap()).unwrap();
        let a = &exported.analysis;
        let tree = &a.scene_tree;
        let nodes = tree.nodes();
        let lengths: Vec<usize> = a.shots.iter().map(|s| s.len()).collect();
        assert_eq!(
            to_hex(&export_blob(&exported, &lengths, &a.features, nodes)),
            hex.trim(),
            "the hand-written layout is the real one"
        );
        // A leaf with a grandparent: the cycle is on its ancestor path.
        let (leaf, up, top) = (0..tree.shot_count())
            .find_map(|s| {
                let leaf = tree.leaf_of_shot(s)?;
                let up = tree.node(leaf).parent?;
                Some((leaf, up, tree.node(up).parent?))
            })
            .unwrap();
        let mut wild_parent = nodes.to_vec();
        wild_parent[leaf].parent = Some(999);
        let mut cycle = nodes.to_vec();
        cycle[top].parent = Some(up);
        cycle[up].children.push(top);
        let mut short_shot = lengths.clone();
        let long = short_shot.iter().position(|&len| len > 1).unwrap();
        short_shot[long] -= 1;
        let short = &a.features[..a.features.len() - 1];
        let poisoned = |var_ba: f64, var_oa: f64| {
            let mut features = a.features.clone();
            features[0] = ShotFeature { var_ba, var_oa };
            export_blob(&exported, &lengths, &features, nodes)
        };
        let every_row = "explain ba=0 oa=0 alpha=1000 beta=1000 limit=1";
        let index = client.expect_ok(every_row).unwrap();

        for (what, record) in [
            (
                "leaf parent out of range",
                export_blob(&exported, &lengths, &a.features, &wild_parent),
            ),
            (
                "parent cycle",
                export_blob(&exported, &lengths, &a.features, &cycle),
            ),
            (
                "fewer features than shots",
                export_blob(&exported, &lengths, short, nodes),
            ),
            (
                "shot lengths sum to one frame fewer than the signs",
                export_blob(&exported, &short_shot, &a.features, nodes),
            ),
            ("a NaN Var^OA", poisoned(4.0, f64::NAN)),
            ("a Var^BA of -1", poisoned(-1.0, 4.0)),
            ("an infinite Var^BA", poisoned(f64::INFINITY, 4.0)),
        ] {
            let resp = client
                .request(&format!("import {}", to_hex(&record)))
                .unwrap();
            assert!(!resp.ok, "{what} was imported: {}", resp.text);
            assert_eq!(client.expect_ok("list").unwrap(), listing, "{what}");
            assert_eq!(client.expect_ok(every_row).unwrap(), index, "{what}");
            assert_eq!(client.expect_ok("ping").unwrap(), "pong", "{what}");
        }
        drop(client);
        handle.shutdown().unwrap();
    }
    let reopened = vdb_store::JournaledDatabase::open(&path, config).expect("reopen journal");
    assert_eq!(
        reopened.db().len(),
        2,
        "no refused import reached the journal"
    );
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `explain` over the wire reports the probe's exact work (its window,
/// the rows read and visited), alongside the query's answers.
#[test]
fn explain_over_the_wire_reports_plan_and_candidates() {
    let handle = start_memory_server(2, 2);
    let mut client = Client::connect(handle.addr()).unwrap();
    let resp = client
        .request("explain ba=0.3 oa=14 alpha=4 beta=4")
        .unwrap();
    assert!(resp.ok, "{}", resp.text);
    for key in ["window=[", "candidates=", "visited=", "answers"] {
        assert!(resp.text.contains(key), "missing {key} in: {}", resp.text);
    }
    // Top-k queries explain too, and the redundant `query` word is
    // tolerated.
    let resp = client.request("explain query ba=0.3 oa=14 k=3").unwrap();
    assert!(resp.ok, "{}", resp.text);
    assert!(
        resp.text.contains("visited=") && resp.text.contains("3 answers"),
        "{}",
        resp.text
    );
    // A parse error stays a per-request diagnostic.
    let resp = client.request("explain nonsense").unwrap();
    assert!(
        resp.ok && resp.text.contains("expected key=value"),
        "{}",
        resp.text
    );
    // `explain` traffic is metered under its own command kind.
    let snap = handle.metrics();
    assert_eq!(snap.requests(CommandKind::Explain), 3);
    drop(client);
    handle.shutdown().unwrap();
}

/// `debug dump` over the wire returns valid chrome://tracing JSON whose
/// span tree covers the core, store, and server layers (journaled store,
/// so journal append spans show up too).
#[test]
fn debug_dump_is_chrome_trace_json_spanning_the_stack() {
    let dir = std::env::temp_dir().join(format!("vdb-server-dump-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = ServerStore::open_journal(
        dir.join("dump.vdbj"),
        vdb_core::analyzer::AnalyzerConfig::default(),
    )
    .expect("open journal");
    let handle = Server::bind(store, test_config(2)).unwrap().serve();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.expect_ok("demo 1").unwrap();
    client
        .expect_ok("query ba=0.4 oa=13 alpha=3 beta=3")
        .unwrap();
    let dump = client.expect_ok("debug dump").unwrap();

    // Structurally valid chrome://tracing JSON...
    let json = serde_json::parse(dump.trim()).expect("dump must parse as JSON");
    let events = match json.get("traceEvents") {
        Some(serde::Value::Array(events)) => events,
        other => panic!("traceEvents array missing: {other:?}"),
    };
    assert!(!events.is_empty(), "dump must not be empty");
    for ev in events {
        for key in ["name", "cat", "ph", "ts", "dur", "pid", "tid", "args"] {
            assert!(ev.get(key).is_some(), "event missing {key}: {ev:?}");
        }
        assert_eq!(ev.get("ph"), Some(&serde::Value::Str("X".into())));
    }
    // ...with span names from every layer of the stack.
    for name in [
        "server.request",
        "store.ingest",
        "store.query",
        "store.journal.append",
        "core.pipeline.analyze",
        "core.index.probe",
    ] {
        assert!(dump.contains(name), "dump missing {name} span");
    }
    drop(client);
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `trace <command>` over the wire appends the request's span tree to the
/// wrapped command's normal output.
#[test]
fn trace_over_the_wire_appends_the_span_tree() {
    let handle = start_memory_server(2, 1);
    let mut client = Client::connect(handle.addr()).unwrap();
    let resp = client
        .request("trace query ba=0.3 oa=14 alpha=3 beta=3")
        .unwrap();
    assert!(resp.ok, "{}", resp.text);
    assert!(resp.text.contains("answers"), "{}", resp.text);
    assert!(resp.text.contains("trace "), "{}", resp.text);
    assert!(resp.text.contains("store.query"), "{}", resp.text);
    assert!(resp.text.contains("core.index.probe"), "{}", resp.text);
    let resp = client.request("trace demo 1").unwrap();
    assert!(resp.ok, "{}", resp.text);
    assert!(resp.text.contains("ingested video"), "{}", resp.text);
    assert!(resp.text.contains("store.ingest"), "{}", resp.text);
    drop(client);
    handle.shutdown().unwrap();
}

/// The slow-query log triggers exactly at the configured threshold: a
/// zero threshold counts every request as slow, an unreachable one counts
/// none.
#[test]
fn slow_query_log_triggers_exactly_at_threshold() {
    let zero = ServerConfig {
        slow_query_log: Some(Duration::ZERO),
        ..test_config(2)
    };
    let handle = Server::bind(ServerStore::memory(), zero).unwrap().serve();
    let mut client = Client::connect(handle.addr()).unwrap();
    for _ in 0..3 {
        client.expect_ok("stats").unwrap();
    }
    drop(client);
    let snap = handle.shutdown().unwrap();
    assert_eq!(
        snap.get(ServerEvent::SlowRequest),
        3,
        "zero threshold must count every request"
    );

    let unreachable = ServerConfig {
        slow_query_log: Some(Duration::from_secs(3600)),
        ..test_config(2)
    };
    let handle = Server::bind(ServerStore::memory(), unreachable)
        .unwrap()
        .serve();
    let mut client = Client::connect(handle.addr()).unwrap();
    for _ in 0..3 {
        client.expect_ok("stats").unwrap();
    }
    drop(client);
    let snap = handle.shutdown().unwrap();
    assert_eq!(
        snap.get(ServerEvent::SlowRequest),
        0,
        "unreachable threshold counts none"
    );
}

// ---------------------------------------------------------------------------
// Streaming ingest
// ---------------------------------------------------------------------------

/// A small deterministic clip for streaming tests.
fn stream_clip(seed: u64) -> Video {
    let script = vdb_synth::build_script(vdb_synth::Genre::Drama, 3, Some(8.0), (32, 24), seed);
    vdb_synth::generate(&script).video
}

/// A committed stream must be bit-identical to running the in-process
/// [`vdb_core::pipeline::AnalysisEngine`] on the same frames (the
/// server's memory store uses the default config).
fn assert_matches_local_analysis(handle: &ServerHandle, video: u64, frames: &[FrameBuf]) {
    let mut local =
        vdb_core::pipeline::AnalysisEngine::new(vdb_core::analyzer::AnalyzerConfig::default());
    for frame in frames {
        local.push_frame(frame).expect("local push");
    }
    let expected = local.finish().expect("local finish");
    let stored = handle
        .store()
        .read(|db| db.analysis(video).cloned())
        .expect("committed video must be queryable");
    assert_eq!(stored.shots, expected.segmentation.shots, "shots diverged");
    assert_eq!(stored.features, expected.features, "features diverged");
    assert_eq!(stored.signs_ba, expected.signs_ba, "BA signs diverged");
    assert_eq!(stored.signs_oa, expected.signs_oa, "OA signs diverged");
}

/// Pull `key=<value>` out of a response text.
fn reply_field(text: &str, key: &str) -> String {
    text.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("no {key}= in reply '{text}'"))
        .to_string()
}

/// The streaming acceptance test: 8 concurrent wire streams into one
/// server, every one commits, the committed analyses are bit-identical to
/// running the in-process [`vdb_core::pipeline::AnalysisEngine`] on
/// the same frames, and flow control never buffered more frames than the
/// granted credit window.
#[test]
fn eight_concurrent_wire_streams_commit_bit_identical() {
    const STREAMS: usize = 8;
    let handle = start_memory_server(STREAMS, 0);
    let addr = handle.addr();

    let committed: Vec<(u64, u64)> = std::thread::scope(|s| {
        let joins: Vec<_> = (0..STREAMS)
            .map(|c| {
                s.spawn(move || {
                    let seed = 100 + c as u64;
                    let clip = stream_clip(seed);
                    let (width, height) = clip.dims();
                    let mut client = Client::connect(addr).expect("connect");
                    let mut stream = client
                        .open_stream(&format!("live-{c}"), width, height, clip.fps())
                        .expect("open stream");
                    assert!(stream.credits() >= 1);
                    for frame in clip.frames() {
                        stream.push(frame).expect("push frame");
                    }
                    let commit = stream.commit().expect("commit");
                    assert_eq!(commit.frames, clip.frames().len());
                    assert!(commit.shots >= 1);
                    assert!(!commit.durable, "memory servers have nothing to sync");
                    (seed, commit.video)
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });

    for (seed, video) in committed {
        assert_matches_local_analysis(&handle, video, stream_clip(seed).frames());
    }

    // Flow control held: nobody ever buffered past the credit window.
    let stats = handle.stream_stats();
    assert!(stats.buffered_peak <= stats.credit_window, "{stats:?}");
    assert_eq!(stats.open_sessions, 0, "all sessions closed");

    let snap = handle.metrics();
    assert_eq!(snap.get(ServerEvent::SessionOpened), STREAMS as u64);
    assert_eq!(snap.get(ServerEvent::SessionCommitted), STREAMS as u64);
    assert_eq!(snap.get(ServerEvent::SessionError), 0);
    assert_eq!(snap.get(ServerEvent::ProtocolError), 0);
    handle.shutdown().unwrap();
}

/// A bad frame poisons exactly one session: the sticky error repeats on
/// every later message, the connection itself stays healthy, and a
/// parallel session on another connection commits untouched.
#[test]
fn stream_errors_poison_only_that_session() {
    let handle = start_memory_server(4, 0);
    let addr = handle.addr();
    let clip = stream_clip(9);
    let (width, height) = clip.dims();
    let frame_bytes = clip.frames()[0].to_rgb24();

    let mut bad = Client::connect(addr).unwrap().into_stream();
    bad.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let ask = |stream: &mut TcpStream, req: &StreamRequest<'_>| {
        write_frame(stream, &encode_stream_request(req)).unwrap();
        decode_response(&read_frame(stream, 1 << 20).unwrap().unwrap()).unwrap()
    };
    let open = ask(
        &mut bad,
        &StreamRequest::Open {
            name: "poisoned",
            width,
            height,
            fps_milli: 30_000,
        },
    );
    assert!(open.ok, "{}", open.text);
    let session: u32 = reply_field(&open.text, "session").parse().unwrap();

    // A healthy session on a second connection, mid-flight.
    let mut good_client = Client::connect(addr).unwrap();
    let mut good = good_client
        .open_stream("healthy", width, height, clip.fps())
        .unwrap();
    good.push(&clip.frames()[0]).unwrap();

    // Wrong byte count for the declared dimensions → poison.
    let resp = ask(
        &mut bad,
        &StreamRequest::Frame {
            session,
            seq: 0,
            data: &[1, 2, 3],
        },
    );
    assert!(
        !resp.ok && resp.text.contains("session failed"),
        "{}",
        resp.text
    );
    // The error is sticky: a now-correct frame is still rejected...
    let resp = ask(
        &mut bad,
        &StreamRequest::Frame {
            session,
            seq: 0,
            data: &frame_bytes,
        },
    );
    assert!(
        !resp.ok && resp.text.contains("session failed"),
        "{}",
        resp.text
    );
    // ...and so is commit — nothing of this session is ever visible.
    let resp = ask(&mut bad, &StreamRequest::Commit { session });
    assert!(!resp.ok, "{}", resp.text);
    // The connection survives its poisoned session.
    write_frame(&mut bad, b"ping").unwrap();
    let resp = decode_response(&read_frame(&mut bad, 1 << 20).unwrap().unwrap()).unwrap();
    assert!(resp.ok && resp.text == "pong");

    // The parallel session never noticed.
    for frame in &clip.frames()[1..] {
        good.push(frame).unwrap();
    }
    let commit = good.commit().expect("healthy session commits");
    assert_eq!(commit.frames, clip.frames().len());
    assert_eq!(
        handle.store().read(|db| db.len()),
        1,
        "only the healthy video"
    );

    let snap = handle.metrics();
    assert_eq!(snap.get(ServerEvent::SessionError), 1);
    assert_eq!(snap.get(ServerEvent::SessionCommitted), 1);
    assert_eq!(
        snap.get(ServerEvent::ProtocolError),
        1,
        "poison counts as a protocol error"
    );
    drop(good_client);
    handle.shutdown().unwrap();
}

/// Sequence gaps poison the session (the server never silently reorders
/// or drops frames), and a session cannot be driven from a connection
/// that does not own it.
#[test]
fn out_of_order_frames_and_foreign_connections_are_rejected() {
    let handle = start_memory_server(4, 0);
    let addr = handle.addr();
    let clip = stream_clip(11);
    let (width, height) = clip.dims();
    let data = clip.frames()[0].to_rgb24();

    let mut s1 = Client::connect(addr).unwrap().into_stream();
    s1.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let ask = |stream: &mut TcpStream, req: &StreamRequest<'_>| {
        write_frame(stream, &encode_stream_request(req)).unwrap();
        decode_response(&read_frame(stream, 1 << 20).unwrap().unwrap()).unwrap()
    };
    let open = ask(
        &mut s1,
        &StreamRequest::Open {
            name: "gappy",
            width,
            height,
            fps_milli: 30_000,
        },
    );
    let session: u32 = reply_field(&open.text, "session").parse().unwrap();
    let resp = ask(
        &mut s1,
        &StreamRequest::Frame {
            session,
            seq: 0,
            data: &data,
        },
    );
    assert!(resp.ok, "{}", resp.text);

    // Another connection may not push into this session.
    let mut s2 = Client::connect(addr).unwrap().into_stream();
    s2.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let resp = ask(
        &mut s2,
        &StreamRequest::Frame {
            session,
            seq: 1,
            data: &data,
        },
    );
    assert!(
        !resp.ok && resp.text.contains("another connection"),
        "{}",
        resp.text
    );

    // A gap (seq 2 after 0) poisons the session.
    let resp = ask(
        &mut s1,
        &StreamRequest::Frame {
            session,
            seq: 2,
            data: &data,
        },
    );
    assert!(
        !resp.ok && resp.text.contains("expected seq 1"),
        "{}",
        resp.text
    );
    let resp = ask(&mut s1, &StreamRequest::Commit { session });
    assert!(!resp.ok, "poisoned session cannot commit: {}", resp.text);
    assert_eq!(handle.store().read(|db| db.len()), 0);
    handle.shutdown().unwrap();
}

/// Admission control: opens past `max_sessions` are rejected, and slots
/// come back when a session aborts or its connection dies mid-stream.
#[test]
fn session_cap_rejects_then_reclaims_slots() {
    let config = ServerConfig {
        max_sessions: 2,
        ..test_config(4)
    };
    let handle = Server::bind(ServerStore::memory(), config).unwrap().serve();
    let addr = handle.addr();
    let clip = stream_clip(13);
    let (width, height) = clip.dims();

    let mut c1 = Client::connect(addr).unwrap();
    let s1 = c1.open_stream("one", width, height, 30.0).unwrap();
    let mut c2 = Client::connect(addr).unwrap();
    let mut s2 = c2.open_stream("two", width, height, 30.0).unwrap();
    s2.push(&clip.frames()[0]).unwrap();

    // Third open: rejected, with the cap in the error.
    let mut c3 = Client::connect(addr).unwrap();
    match c3.open_stream("three", width, height, 30.0) {
        Ok(_) => panic!("cap must reject the third session"),
        Err(e) => assert!(e.to_string().contains("session limit"), "{e}"),
    }

    // A clean abort frees one slot...
    s1.abort().unwrap();
    let s3 = c3.open_stream("three", width, height, 30.0).unwrap();
    // ...and a torn disconnect (client dies mid-stream, no commit) frees
    // the other without committing anything. Discard the stream handle —
    // no abort message, the socket just goes away.
    let _ = s2;
    drop(c2);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut c4 = Client::connect(addr).unwrap();
    let s4 = loop {
        match c4.open_stream("four", width, height, 30.0) {
            Ok(s) => break s,
            Err(e) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "torn session never reclaimed: {e}"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    s4.abort().unwrap();
    s3.abort().unwrap();
    assert_eq!(handle.store().read(|db| db.len()), 0, "nothing committed");
    let snap = handle.metrics();
    assert_eq!(snap.get(ServerEvent::SessionRejected), 1);
    // Loose on purpose: the torn session freed its slot at `claim`, a
    // moment before its abort is counted.
    assert!(
        snap.get(ServerEvent::SessionAborted) >= 3,
        "{}",
        snap.render()
    );
    drop(c1);
    // Once drained, every session is counted exactly once: the torn one
    // as an abort, and no later sweep counts it again.
    let snap = handle.shutdown().unwrap();
    assert_eq!(snap.get(ServerEvent::SessionOpened), 4);
    assert_eq!(snap.get(ServerEvent::SessionAborted), 4);
    assert_eq!(snap.get(ServerEvent::SessionRejected), 1);
    assert_eq!(snap.get(ServerEvent::SessionReaped), 0);
    assert_eq!(snap.get(ServerEvent::SessionCommitted), 0);
}

/// The reaper aborts sessions with no traffic past the idle timeout, so
/// abandoned streams cannot hold admission slots. The timeout is far
/// longer than the test; the session is aged by advancing the table's
/// clock, which also wakes the reaper thread.
#[test]
fn idle_streaming_sessions_are_reaped() {
    let config = ServerConfig {
        session_idle_timeout: Duration::from_secs(3600),
        ..test_config(2)
    };
    let handle = Server::bind(ServerStore::memory(), config).unwrap().serve();
    let mut client = Client::connect(handle.addr()).unwrap();
    let stream = client.open_stream("sleeper", 32, 24, 30.0).unwrap();
    assert_eq!(handle.stream_stats().open_sessions, 1);

    // Not idle long enough yet: a reaper pass leaves it alone.
    handle.advance_session_clock(Duration::from_secs(3599));
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(handle.stream_stats().open_sessions, 1);

    handle.advance_session_clock(Duration::from_secs(2));
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while handle.stream_stats().open_sessions > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "idle session never reaped"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(handle.metrics().get(ServerEvent::SessionReaped), 1);
    // The session id is gone; a commit attempt reports that cleanly.
    let err = stream.commit().expect_err("reaped session cannot commit");
    assert!(err.to_string().contains("unknown session"), "{err}");
    assert_eq!(handle.store().read(|db| db.len()), 0);
    drop(client);
    let snap = handle.shutdown().unwrap();
    assert_eq!(
        (
            snap.get(ServerEvent::SessionReaped),
            snap.get(ServerEvent::SessionAborted)
        ),
        (1, 0),
        "a reaped session is counted once"
    );
}

/// Backpressure is event-driven: with a poll interval far longer than the
/// whole stream may take, a two-credit window still moves 64 paper-sized
/// frames promptly, because the worker is handed each credit by the pump
/// instead of sleeping for it. The commit is bit-identical to the
/// in-process analyzer and the buffer never exceeded the window.
#[test]
fn backpressure_hands_off_credits_without_polling() {
    const FRAMES: usize = 64;
    let config = ServerConfig {
        poll_interval: Duration::from_secs(5),
        stream_credits: 2,
        ..test_config(2)
    };
    let handle = Server::bind(ServerStore::memory(), config).unwrap().serve();
    let script = vdb_synth::build_script(vdb_synth::Genre::Drama, 3, Some(22.0), (160, 120), 7);
    let clip = vdb_synth::generate(&script).video;
    let frames = &clip.frames()[..FRAMES];

    let mut client = Client::connect(handle.addr()).unwrap();
    let mut stream = client.open_stream("paced", 160, 120, clip.fps()).unwrap();
    assert_eq!(stream.credits(), 2);
    let started = std::time::Instant::now();
    for frame in frames {
        stream.push(frame).unwrap();
    }
    let commit = stream.commit().unwrap();
    let took = started.elapsed();
    assert_eq!(commit.frames, FRAMES);
    assert!(
        took < Duration::from_secs(2),
        "{FRAMES} frames took {took:?}: something on the path waits for a timer"
    );

    assert_matches_local_analysis(&handle, commit.video, frames);

    let stats = handle.stream_stats();
    assert!(stats.buffered_peak <= 2, "{stats:?}");
    // The window did fill (else this test exercised nothing), and the
    // waits are visible to an operator.
    let waits = handle.metrics().get(ServerEvent::CreditWait);
    assert!(waits > 0, "the two-frame window never filled");
    let metrics = client.expect_ok("metrics").unwrap();
    assert!(
        metrics.contains(&format!("stream credit waits: {waits} (p50 ")),
        "{metrics}"
    );
    drop(client);
    handle.shutdown().unwrap();
}

/// Shutdown with live uncommitted sessions drains cleanly: the server
/// aborts them (no partial video) and join() does not hang on the pumps.
#[test]
fn shutdown_aborts_live_sessions_without_committing() {
    let handle = start_memory_server(2, 0);
    let clip = stream_clip(17);
    let (width, height) = clip.dims();
    let mut client = Client::connect(handle.addr()).unwrap();
    let mut stream = client
        .open_stream("interrupted", width, height, clip.fps())
        .unwrap();
    for frame in &clip.frames()[..4] {
        stream.push(frame).unwrap();
    }
    handle.trigger_shutdown();
    let snap = handle.join().expect("drain with a live session");
    assert_eq!(snap.get(ServerEvent::SessionOpened), 1);
    assert_eq!(snap.get(ServerEvent::SessionCommitted), 0);
    assert_eq!(
        snap.get(ServerEvent::SessionAborted),
        1,
        "live session must be aborted, not committed"
    );
}

/// Journal-backed streaming: a committed stream survives a daemon
/// restart; a torn mid-stream disconnect leaves nothing behind.
#[test]
fn journaled_stream_commit_survives_restart_and_torn_stream_does_not() {
    let dir = std::env::temp_dir().join(format!("vdb-server-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("streams.vdbj");
    let clip = stream_clip(19);
    let (width, height) = clip.dims();

    {
        let store = ServerStore::open_journal(&path, vdb_core::analyzer::AnalyzerConfig::default())
            .expect("open journal");
        let handle = Server::bind(store, test_config(4)).unwrap().serve();
        let addr = handle.addr();

        // Stream A commits; the ack promises durability.
        let mut c1 = Client::connect(addr).unwrap();
        let mut s1 = c1
            .open_stream("committed", width, height, clip.fps())
            .unwrap();
        for frame in clip.frames() {
            s1.push(frame).unwrap();
        }
        let commit = s1.commit().unwrap();
        assert!(commit.durable, "journaled commits must wait for the disk");

        // Stream B dies mid-flight: connection dropped, no commit.
        let mut c2 = Client::connect(addr).unwrap();
        let mut s2 = c2.open_stream("torn", width, height, clip.fps()).unwrap();
        for frame in &clip.frames()[..3] {
            s2.push(frame).unwrap();
        }
        let _ = s2;
        drop(c2);

        drop(c1);
        handle.shutdown().unwrap();
    }

    // Restart: the committed stream is fully queryable, the torn one left
    // no trace — not even a catalog row.
    let store = ServerStore::open_journal(&path, vdb_core::analyzer::AnalyzerConfig::default())
        .expect("reopen journal");
    let handle = Server::bind(store, test_config(2)).unwrap().serve();
    let mut client = Client::connect(handle.addr()).unwrap();
    let list = client.expect_ok("list").unwrap();
    assert!(list.contains("committed"), "{list}");
    assert!(
        !list.contains("torn"),
        "torn stream must not survive: {list}"
    );
    assert_eq!(handle.store().read(|db| db.len()), 1);
    drop(client);
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A stream commit on a journaled daemon is one trace: the pipeline's
/// finish stages, both journal appends and the fsync it leads hang off
/// its `server.stream.commit` span.
#[test]
fn journaled_stream_commit_traces_its_journal_appends() {
    let dir = std::env::temp_dir().join(format!("vdb-server-commit-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = ServerStore::open_journal(
        dir.join("trace.vdbj"),
        vdb_core::analyzer::AnalyzerConfig::default(),
    )
    .expect("open journal");
    let handle = Server::bind(store, test_config(2)).unwrap().serve();
    let clip = stream_clip(23);
    let (width, height) = clip.dims();
    let mut client = Client::connect(handle.addr()).unwrap();
    let mut stream = client
        .open_stream("traced", width, height, clip.fps())
        .unwrap();
    for frame in clip.frames() {
        stream.push(frame).unwrap();
    }
    assert!(stream.commit().unwrap().durable);

    let events = vdb_obs::global_tracer().recorder().snapshot();
    let children = |parent: u64| -> Vec<&str> {
        events
            .iter()
            .filter(|e| e.parent_id == parent)
            .map(|e| e.name.as_str())
            .collect()
    };
    let expected = [
        "core.pipeline.assemble",
        "core.pipeline.scenetree",
        "core.pipeline.index",
        "store.journal.append",
        "store.journal.fsync",
    ];
    let commits: Vec<Vec<&str>> = events
        .iter()
        .filter(|e| e.name == "server.stream.commit")
        .map(|e| children(e.span_id))
        .collect();
    let traced = commits
        .iter()
        .find(|names| expected.iter().all(|name| names.contains(name)))
        .unwrap_or_else(|| panic!("no stream commit with {expected:?} as children: {commits:?}"));
    let appends = traced
        .iter()
        .filter(|n| **n == "store.journal.append")
        .count();
    assert_eq!(appends, 2, "META and ANALYSIS records: {traced:?}");
    drop(client);
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
