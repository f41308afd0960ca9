//! Multi-process-shaped integration: a router in front of real `vdbd`
//! servers (in-process, real sockets), checked against a single node
//! holding the union corpus — the distributed answers must be
//! byte-identical when every shard is healthy, and degrade to explicit
//! `partial=` answers (never hangs, never errors) when one is not.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};
use vdb_core::frame::FrameBuf;
use vdb_router::{Router, RouterConfig};
use vdb_server::client::ConnectOptions;
use vdb_server::protocol::{decode_response, read_frame, write_frame, Response};
use vdb_server::{Client, Server, ServerConfig, ServerHandle, ServerStore};

/// One streamable clip: name, frames, dims, fps.
type Clip = (String, Vec<FrameBuf>, (u32, u32), f64);

/// A deterministic mixed-genre corpus; same clips in the same order on
/// both sides of every comparison.
fn corpus(n: usize) -> Vec<Clip> {
    use vdb_synth::Genre;
    (0..n)
        .map(|i| {
            let genre = match i % 3 {
                0 => Genre::Drama,
                1 => Genre::TalkShow,
                _ => Genre::Cartoon,
            };
            let script = vdb_synth::build_script(genre, 3, Some(8.0), (48, 36), 11 + i as u64);
            let video = vdb_synth::generate(&script).video;
            (
                format!("clip-{i:02}"),
                video.frames().to_vec(),
                video.dims(),
                video.fps(),
            )
        })
        .collect()
}

fn shard(slot: usize) -> ServerHandle {
    let config = ServerConfig {
        workers: 2,
        shard_id: Some(slot.to_string()),
        ..ServerConfig::default()
    };
    Server::bind(ServerStore::memory(), config)
        .expect("bind shard")
        .serve()
}

fn journaled_shard(slot: usize, path: &std::path::Path) -> ServerHandle {
    let store = ServerStore::open_journal(path, vdb_core::analyzer::AnalyzerConfig::default())
        .expect("open journal");
    let config = ServerConfig {
        workers: 2,
        shard_id: Some(slot.to_string()),
        ..ServerConfig::default()
    };
    Server::bind(store, config).expect("bind shard").serve()
}

fn router_over(shards: &[&ServerHandle], config: RouterConfig) -> vdb_router::RouterHandle {
    let config = RouterConfig {
        shards: shards.iter().map(|h| h.addr().to_string()).collect(),
        ..config
    };
    Router::bind(config).expect("bind router").serve()
}

fn stream_corpus(addr: std::net::SocketAddr, corpus: &[Clip]) {
    let mut client = Client::connect(addr).expect("connect");
    for (name, frames, dims, fps) in corpus {
        let mut stream = client
            .open_stream(name, dims.0, dims.1, *fps)
            .expect("open stream");
        for frame in frames {
            stream.push(frame).expect("push frame");
        }
        stream.commit().expect("commit");
    }
}

fn ask(addr: std::net::SocketAddr, line: &str) -> String {
    let mut client = Client::connect(addr).expect("connect");
    client.expect_ok(line).expect("ok response")
}

#[test]
fn cluster_answers_byte_identical_to_single_node() {
    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    let journals: Vec<_> = (0..3)
        .map(|slot| tmp.join(format!("vdb-router-cluster-{pid}-{slot}.vdbj")))
        .collect();
    for j in &journals {
        let _ = std::fs::remove_file(j);
    }
    let shards: Vec<ServerHandle> = journals
        .iter()
        .enumerate()
        .map(|(slot, path)| journaled_shard(slot, path))
        .collect();
    let shard_refs: Vec<&ServerHandle> = shards.iter().collect();
    let router = router_over(&shard_refs, RouterConfig::default());
    let single = Server::bind(ServerStore::memory(), ServerConfig::default())
        .expect("bind single node")
        .serve();

    let clips = corpus(6);
    stream_corpus(router.addr(), &clips);
    stream_corpus(single.addr(), &clips);

    // The hash ring actually spread the corpus (no shard got everything).
    let placements: Vec<usize> = shards
        .iter()
        .map(|s| ask(s.addr(), "xlist").lines().count())
        .collect();
    assert_eq!(placements.iter().sum::<usize>(), clips.len());
    assert!(
        placements.iter().all(|&n| n < clips.len()),
        "corpus all landed on one shard: {placements:?}"
    );

    // Range, range+limit, top-k, top-k+limit, catalog, storyboard, tree:
    // ID-and-order byte-identical to the single node.
    for line in [
        "query ba=0.4 oa=20",
        "query ba=0.4 oa=20 limit=3",
        "query ba=0.3 oa=18 k=5",
        "query ba=0.3 oa=18 k=5 limit=2",
        "query ba=0.9 oa=45 k=12",
        "list",
        "board 2 6",
        "tree 0",
        "tree 5",
    ] {
        let via_router = ask(router.addr(), line);
        let via_single = ask(single.addr(), line);
        assert_eq!(via_router, via_single, "'{line}' diverged");
        assert!(
            !via_router.contains("partial="),
            "healthy cluster marked '{line}' partial"
        );
    }

    // The stats db line merges exactly; the rest is `router.*` grammar.
    let router_stats = ask(router.addr(), "stats");
    let single_stats = ask(single.addr(), "stats");
    assert_eq!(
        router_stats.lines().next(),
        single_stats.lines().next(),
        "merged db stats line diverged"
    );
    for key in [
        "router.shards 3",
        "router.epoch 0",
        "router.videos 6",
        "router.partials 0",
    ] {
        assert!(
            router_stats.contains(key),
            "stats missing '{key}':\n{router_stats}"
        );
    }
    // Per-shard request counters surface in the router's metrics table.
    let metrics = ask(router.addr(), "metrics");
    for key in ["router.shard.0.requests", "router.shard.2.requests"] {
        assert!(metrics.contains(key), "metrics missing '{key}':\n{metrics}");
    }

    // remove through the router: gone everywhere, gids of others stable.
    let removed = ask(router.addr(), "remove 3");
    assert!(removed.contains("removed video 3"), "{removed}");
    let after = ask(router.addr(), "list");
    assert!(!after.contains("clip-03"), "{after}");
    assert!(after.contains("clip-05"), "{after}");

    router.shutdown();
    for s in shards {
        s.shutdown().expect("shard shutdown");
    }
    single.shutdown().expect("single shutdown");
    for j in &journals {
        let _ = std::fs::remove_file(j);
    }
}

#[test]
fn dead_shard_degrades_to_partial_answers() {
    let shards: Vec<ServerHandle> = (0..2).map(shard).collect();
    let shard_refs: Vec<&ServerHandle> = shards.iter().collect();
    let router = router_over(
        &shard_refs,
        RouterConfig {
            shard_deadline: Duration::from_millis(700),
            connect: ConnectOptions::single(Duration::from_millis(300)),
            ..RouterConfig::default()
        },
    );
    let clips = corpus(4);
    stream_corpus(router.addr(), &clips);

    let mut shards = shards;
    let victim = shards.pop().expect("two shards");
    victim.shutdown().expect("kill shard 1");

    // Queries and listings still answer — with the loss made explicit.
    let answer = ask(router.addr(), "query ba=0.4 oa=20");
    assert!(answer.contains(" answers\n"), "{answer}");
    assert!(answer.contains("partial=1/2 missing=1"), "{answer}");
    let listing = ask(router.addr(), "list");
    assert!(listing.contains("partial=1/2 missing=1"), "{listing}");
    assert!(router.obs().partials.get() >= 2, "partials counter");

    // Surviving-shard videos still fully served; the stats line says so.
    let stats = ask(router.addr(), "stats");
    assert!(stats.contains("partial=1/2 missing=1"), "{stats}");
    assert!(stats.contains("router.partials"), "{stats}");

    router.shutdown();
    for s in shards {
        s.shutdown().expect("shard shutdown");
    }
}

#[test]
fn stalled_shard_hits_deadline_not_a_hang() {
    // A listener that accepts and then never responds — the worst
    // failure mode: TCP is up, the daemon is wedged.
    let stalled = TcpListener::bind("127.0.0.1:0").expect("bind stall listener");
    let stalled_addr = stalled.local_addr().expect("stalled addr");
    let _keeper = std::thread::spawn(move || {
        let mut held = Vec::new();
        while let Ok((conn, _)) = stalled.accept() {
            held.push(conn); // hold the socket open, say nothing
        }
    });

    let healthy = shard(0);
    let router = Router::bind(RouterConfig {
        shards: vec![healthy.addr().to_string(), stalled_addr.to_string()],
        shard_deadline: Duration::from_millis(300),
        shard_socket_timeout: Duration::from_millis(600),
        connect: ConnectOptions::single(Duration::from_millis(200)),
        ..RouterConfig::default()
    })
    .expect("bind router")
    .serve();

    let started = Instant::now();
    let answer = ask(router.addr(), "query ba=0.4 oa=20");
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "stalled shard held the query {elapsed:?}"
    );
    assert!(answer.contains("  0 answers\n"), "{answer}");
    assert!(answer.contains("partial=1/2 missing=1"), "{answer}");

    router.shutdown();
    healthy.shutdown().expect("shard shutdown");
}

#[test]
fn rebalance_drains_a_shard_with_stable_gids() {
    let shards: Vec<ServerHandle> = (0..3).map(shard).collect();
    let shard_refs: Vec<&ServerHandle> = shards.iter().collect();
    let router = router_over(&shard_refs, RouterConfig::default());
    let clips = corpus(8);
    stream_corpus(router.addr(), &clips);

    let list_before = ask(router.addr(), "list");
    let query_before = ask(router.addr(), "query ba=0.3 oa=18 k=6");
    let on_slot_2 = ask(shards[2].addr(), "xlist").lines().count();

    let plan = ask(router.addr(), "rebalance plan remove 2");
    assert!(
        plan.contains(&format!("{on_slot_2} of 8 videos move")),
        "{plan}"
    );
    let applied = ask(router.addr(), "rebalance apply remove 2");
    assert!(
        applied.contains(&format!("{on_slot_2} moved, epoch 1")),
        "{applied}"
    );

    // The drained shard is empty; every answer is unchanged — same gids,
    // same order, byte for byte.
    assert_eq!(ask(shards[2].addr(), "xlist"), "");
    assert_eq!(ask(router.addr(), "list"), list_before);
    assert_eq!(ask(router.addr(), "query ba=0.3 oa=18 k=6"), query_before);
    let stats = ask(router.addr(), "stats");
    assert!(stats.contains("router.shards 2"), "{stats}");
    assert!(
        stats.contains(&format!("router.moves {on_slot_2}")),
        "{stats}"
    );

    // Re-activating the slot moves its ring-home names back — and still
    // changes no answer.
    let readd = ask(router.addr(), "rebalance apply add 2");
    assert!(readd.contains("epoch 2"), "{readd}");
    assert_eq!(ask(router.addr(), "list"), list_before);
    assert_eq!(ask(router.addr(), "query ba=0.3 oa=18 k=6"), query_before);

    router.shutdown();
    for s in shards {
        s.shutdown().expect("shard shutdown");
    }
}

#[test]
fn oversized_k_is_rejected_upfront() {
    let healthy = shard(0);
    let refs = [&healthy];
    let router = router_over(&refs, RouterConfig::default());
    let mut client = Client::connect(router.addr()).expect("connect");
    let resp = client
        .request("query ba=0.4 oa=20 k=100000")
        .expect("response");
    assert!(!resp.ok);
    assert!(resp.text.contains("too large"), "{}", resp.text);
    router.shutdown();
    healthy.shutdown().expect("shard shutdown");
}

/// The router's front end contains a misbehaving client the way `vdbd`'s
/// does: an oversized length prefix gets a parting `-` reply and closes
/// only that connection, a non-UTF-8 request gets a `-` reply on a
/// connection that keeps serving, a torn frame closes its connection, and
/// a second client is answered normally throughout.
#[test]
fn router_contains_malformed_frames_per_connection() {
    let healthy = shard(0);
    let router = router_over(
        &[&healthy],
        RouterConfig {
            frame_timeout: Duration::from_millis(200),
            ..RouterConfig::default()
        },
    );
    let addr = router.addr();
    let connect = || {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
    };
    let reply = |stream: &mut TcpStream| -> Response {
        decode_response(&read_frame(stream, 1 << 20).unwrap().expect("a reply frame")).unwrap()
    };
    let closed = |mut stream: TcpStream| {
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap() == 0
    };
    let mut bystander = Client::connect(addr).expect("connect bystander");
    let mut bystander_ok = || {
        assert_eq!(bystander.expect_ok("ping").unwrap(), "pong");
        bystander.expect_ok("list").unwrap();
    };
    bystander_ok();

    // Oversized declared length: a parting error reply, then EOF.
    let mut oversized = connect();
    oversized.write_all(&(64u32 << 20).to_le_bytes()).unwrap();
    let resp = reply(&mut oversized);
    assert!(!resp.ok && resp.text.contains("exceeds"), "{}", resp.text);
    assert!(
        closed(oversized),
        "router must close after an oversized frame"
    );
    bystander_ok();

    // Non-UTF-8 request: an error reply, and the connection keeps working.
    let mut garbled = connect();
    write_frame(&mut garbled, &[0xff, 0xfe, 0x00]).unwrap();
    let resp = reply(&mut garbled);
    assert!(!resp.ok && resp.text.contains("UTF-8"), "{}", resp.text);
    write_frame(&mut garbled, b"ping").unwrap();
    let resp = reply(&mut garbled);
    assert!(resp.ok && resp.text == "pong", "{}", resp.text);
    bystander_ok();

    // Torn frame (declared 100 bytes, sent 10, then silence): closed
    // without a reply once `frame_timeout` runs out.
    let mut torn = connect();
    torn.write_all(&100u32.to_le_bytes()).unwrap();
    torn.write_all(&[7u8; 10]).unwrap();
    assert!(closed(torn), "router must close a torn frame's connection");
    bystander_ok();

    // The oversized and torn frames were protocol errors; the non-UTF-8
    // request was an ordinary failed request.
    let metrics = bystander.expect_ok("metrics").unwrap();
    assert!(metrics.contains(", 2 protocol errors"), "{metrics}");
    assert_eq!(router.metrics().protocol_errors, 2);
    drop(garbled);
    drop(bystander);
    router.shutdown();
    healthy.shutdown().expect("shard shutdown");
}
