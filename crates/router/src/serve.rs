//! The router daemon: the same wire protocol as `vdbd` on the front,
//! N shards on the back.
//!
//! The front end is `vdbd`'s own [`FrontEnd`], running `RouterCtx` as
//! its [`Handler`].
//!
//! Single-video commands (`board`, `tree`, `remove`, streaming ingest)
//! are routed to the owning shard; `query`, `list`, and `stats` are
//! scattered to every active shard and the replies merged *exactly* —
//! a healthy cluster answers byte-identically to a single `vdbd`
//! holding the union corpus. When a shard misses its deadline the
//! router still answers with what it has, appending a
//! `partial=<ok>/<total> missing=<slots>` line instead of hanging or
//! erroring.

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use vdb_obs::TraceContext;
use vdb_server::client::{Client, ConnectOptions};
use vdb_server::metrics::{CommandKind, MetricsSnapshot, ServerMetrics};
use vdb_server::protocol::{
    decode_stream_request, encode_stream_request, StreamRequest, DEFAULT_MAX_FRAME,
};
use vdb_server::server::{FrontEnd, FrontEndConfig, Handler, Reply};

use crate::catalog::RouterCatalog;
use crate::exec::{call_shard, scatter, RouterObs, ScatterOptions, ShardOutcome};
use crate::merge;
use crate::pool::ShardPool;
use crate::rebalance;
use crate::ring::{HashRing, DEFAULT_VNODES};

/// Largest `k=` a distributed top-k accepts: every shard ships its full
/// pre-filter top-k, so k bounds the per-shard reply size.
pub const MAX_DISTRIBUTED_K: usize = 2048;

/// Tunables for a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Shard addresses, in ring-slot order. Fixed for the router's
    /// lifetime; `rebalance` activates/drains slots within this set.
    pub shards: Vec<String>,
    /// Virtual nodes per shard on the hash ring.
    pub vnodes: u32,
    /// Front-end worker threads (== max concurrent client connections).
    pub workers: usize,
    /// Per-shard answer deadline for scatter-gather and forwards.
    pub shard_deadline: Duration,
    /// Launch a hedged second attempt if a shard has not answered
    /// within this (`None` disables hedging).
    pub hedge: Option<Duration>,
    /// How to dial shards (attempt timeout + bounded retry budget).
    pub connect: ConnectOptions,
    /// Socket timeout on shard connections — what finally kills a
    /// detached straggler attempt after its supervisor gave up.
    pub shard_socket_timeout: Duration,
    /// Reject client frames larger than this.
    pub max_frame: usize,
    /// Socket poll granularity: the acceptor's accept poll and an idle
    /// connection's read timeout (shutdown/idle checks).
    pub poll_interval: Duration,
    /// Close a client connection with no traffic for this long.
    pub idle_timeout: Duration,
    /// A started client frame must complete within this.
    pub frame_timeout: Duration,
    /// Socket write timeout for responses.
    pub write_timeout: Duration,
    /// After shutdown, keep serving already-sent requests for this long.
    pub drain_grace: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: Vec::new(),
            vnodes: DEFAULT_VNODES,
            workers: 4,
            shard_deadline: Duration::from_secs(5),
            hedge: None,
            connect: ConnectOptions::retrying(Duration::from_millis(500), Duration::from_secs(2)),
            shard_socket_timeout: Duration::from_secs(10),
            max_frame: DEFAULT_MAX_FRAME,
            poll_interval: Duration::from_millis(20),
            idle_timeout: Duration::from_secs(30),
            frame_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            drain_grace: Duration::from_millis(250),
        }
    }
}

/// The active subset of the shard set, plus the ring built over it.
/// `rebalance` is the only writer; every router request reads it.
pub(crate) struct ActiveRing {
    /// Bumped by every applied rebalance.
    pub epoch: u64,
    /// Pool slots currently in the ring, ascending.
    pub active: Vec<usize>,
    ring: HashRing,
}

impl ActiveRing {
    pub(crate) fn rebuild(pool: &ShardPool, active: Vec<usize>, vnodes: u32, epoch: u64) -> Self {
        let addrs: Vec<String> = active.iter().map(|&s| pool.addr(s).to_string()).collect();
        ActiveRing {
            epoch,
            ring: HashRing::build(&addrs, vnodes),
            active,
        }
    }

    /// The pool slot owning `name` (`None` with no active shards).
    pub(crate) fn route(&self, name: &str) -> Option<usize> {
        if self.active.is_empty() {
            return None;
        }
        Some(self.active[self.ring.route(name)])
    }

    /// Build the ring a hypothetical active set would have (rebalance
    /// planning) without touching the live one.
    pub(crate) fn hypothetical(
        pool: &ShardPool,
        active: &[usize],
        vnodes: u32,
    ) -> impl Fn(&str) -> Option<usize> {
        let addrs: Vec<String> = active.iter().map(|&s| pool.addr(s).to_string()).collect();
        let ring = HashRing::build(&addrs, vnodes);
        let active = active.to_vec();
        move |name| {
            if active.is_empty() {
                None
            } else {
                Some(active[ring.route(name)])
            }
        }
    }
}

/// Everything the router needs to serve one request: the front end's
/// [`Handler`].
pub(crate) struct RouterCtx {
    pub pool: Arc<ShardPool>,
    pub obs: Arc<RouterObs>,
    pub catalog: Arc<RouterCatalog>,
    pub ring: Arc<Mutex<ActiveRing>>,
    pub metrics: Arc<ServerMetrics>,
    pub shutdown: Arc<AtomicBool>,
    pub config: RouterConfig,
    next_sid: AtomicU32,
}

impl RouterCtx {
    pub(crate) fn scatter_opts(&self) -> ScatterOptions {
        ScatterOptions {
            deadline: self.config.shard_deadline,
            hedge: self.config.hedge,
        }
    }

    pub(crate) fn active_slots(&self) -> Vec<usize> {
        self.ring.lock().unwrap().active.clone()
    }
}

/// A bound-but-not-yet-serving router.
pub struct Router {
    front: FrontEnd,
    config: RouterConfig,
}

impl Router {
    /// Bind the front-end listening socket. The shard list must be
    /// non-empty; shards are dialed lazily, so they may come up later.
    pub fn bind(config: RouterConfig) -> io::Result<Router> {
        if config.shards.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a router needs at least one --shard",
            ));
        }
        Ok(Router {
            front: FrontEnd::bind(&config.addr)?,
            config,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Start the acceptor and worker pool. Returns immediately.
    pub fn serve(self) -> RouterHandle {
        let Router { front, config } = self;
        let addr = front.local_addr();
        let pool = Arc::new(ShardPool::new(
            config.shards.clone(),
            config.connect,
            config.shard_socket_timeout,
        ));
        let obs = Arc::new(RouterObs::new(pool.len()));
        let catalog = Arc::new(RouterCatalog::new());
        let ring = Arc::new(Mutex::new(ActiveRing::rebuild(
            &pool,
            (0..pool.len()).collect(),
            config.vnodes,
            0,
        )));
        let metrics = Arc::new(ServerMetrics::new());
        let shutdown = Arc::new(AtomicBool::new(false));
        let front_config = FrontEndConfig {
            name: "vdb-router",
            workers: config.workers,
            poll_interval: config.poll_interval,
            idle_timeout: config.idle_timeout,
            frame_timeout: config.frame_timeout,
            write_timeout: config.write_timeout,
            max_frame: config.max_frame,
            drain_grace: config.drain_grace,
            slow_query_log: None,
        };
        let ctx = RouterCtx {
            pool,
            obs: Arc::clone(&obs),
            catalog: Arc::clone(&catalog),
            ring,
            metrics: Arc::clone(&metrics),
            shutdown: Arc::clone(&shutdown),
            config,
            next_sid: AtomicU32::new(1),
        };
        let threads = front.serve(
            front_config,
            ctx,
            Arc::clone(&metrics),
            Arc::clone(&shutdown),
        );
        RouterHandle {
            addr,
            shutdown,
            metrics,
            obs,
            catalog,
            threads,
        }
    }
}

/// A running router: its address, metrics, and shutdown controls.
pub struct RouterHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<ServerMetrics>,
    obs: Arc<RouterObs>,
    catalog: Arc<RouterCatalog>,
    threads: Vec<JoinHandle<()>>,
}

impl RouterHandle {
    /// The address the router listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Front-end command metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The router's `router.*` observability (partials, hedges,
    /// per-shard counters).
    pub fn obs(&self) -> &RouterObs {
        &self.obs
    }

    /// The global-id catalog (tests inspect it).
    pub fn catalog(&self) -> &RouterCatalog {
        &self.catalog
    }

    /// The shared shutdown flag (for signal handlers).
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Begin graceful shutdown: stop accepting, drain in-flight requests.
    pub fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Wait for the router to finish; returns the final metrics.
    pub fn join(self) -> MetricsSnapshot {
        for t in self.threads {
            let _ = t.join();
        }
        self.metrics.snapshot()
    }

    /// Trigger shutdown and wait for the drain.
    pub fn shutdown(self) -> MetricsSnapshot {
        self.trigger_shutdown();
        self.join()
    }
}

/// One proxied streaming-ingest session: the dedicated downstream
/// connection and the shard-side session id.
pub(crate) struct ProxySession {
    slot: usize,
    conn: Client,
    ds_session: u32,
    name: String,
}

impl Handler for RouterCtx {
    /// The streaming sessions this connection has open, by the
    /// router-side session id.
    type Conn = HashMap<u32, ProxySession>;

    fn open(&self) -> Self::Conn {
        HashMap::new()
    }

    fn line(&self, _proxies: &mut Self::Conn, line: &str, _tctx: &TraceContext) -> Reply {
        dispatch(self, line)
    }

    fn stream(&self, proxies: &mut Self::Conn, payload: &[u8]) -> Reply {
        stream_proxy(self, proxies, payload)
    }

    /// Torn-disconnect cleanup: abort every proxied session downstream so
    /// no shard keeps an admission slot for a client that vanished.
    fn close(&self, proxies: Self::Conn) {
        for (_, mut p) in proxies {
            let _ = p
                .conn
                .raw_request(&encode_stream_request(&StreamRequest::Abort {
                    session: p.ds_session,
                }));
        }
    }
}

/// Execute one text command against the cluster.
fn dispatch(ctx: &RouterCtx, line: &str) -> Reply {
    let trimmed = line.trim();
    match trimmed {
        "" => return (CommandKind::Other, Ok(String::new())),
        "ping" => return (CommandKind::Ping, Ok("pong".to_string())),
        "help" => return (CommandKind::Help, Ok(help_text())),
        "ring" => return (CommandKind::Other, Ok(render_ring(ctx))),
        "refresh" => return (CommandKind::Other, refresh_catalog(ctx)),
        "list" => return (CommandKind::List, list(ctx)),
        "stats" => return (CommandKind::Stats, stats(ctx)),
        "metrics" => {
            let mut text = ctx.metrics.snapshot().render();
            if let Some(section) = ctx.obs.registry.snapshot().render_section("router") {
                text.push_str(&section);
            }
            return (CommandKind::Metrics, Ok(text));
        }
        "shutdown" => {
            ctx.shutdown.store(true, Ordering::SeqCst);
            return (
                CommandKind::Shutdown,
                Ok("shutting down: draining connections".to_string()),
            );
        }
        "quit" | "exit" => return (CommandKind::Quit, Ok("bye".to_string())),
        "query" => return (CommandKind::Query, query(ctx, "")),
        _ => {}
    }
    if let Some(rest) = trimmed.strip_prefix("query ") {
        return (CommandKind::Query, query(ctx, rest));
    }
    if let Some(rest) = trimmed.strip_prefix("board ") {
        return (CommandKind::Board, forward_by_gid(ctx, "board", rest));
    }
    if let Some(rest) = trimmed.strip_prefix("tree ") {
        return (CommandKind::Tree, forward_by_gid(ctx, "tree", rest));
    }
    if let Some(rest) = trimmed.strip_prefix("remove ") {
        return (CommandKind::Remove, remove(ctx, rest));
    }
    if let Some(rest) = trimmed.strip_prefix("rebalance") {
        return (CommandKind::Other, rebalance::handle(ctx, rest.trim()));
    }
    let word = trimmed.split_whitespace().next().unwrap_or(trimmed);
    let local_only = [
        "demo", "save", "load", "explain", "trace", "debug", "export", "import", "xquery", "xlist",
    ];
    if local_only.contains(&word) {
        return (
            CommandKind::Other,
            Err(format!(
                "'{word}' is not available through the router; connect to a shard directly"
            )),
        );
    }
    (
        CommandKind::Other,
        Err(format!(
            "unknown router command '{word}' (try 'help'; router extras: ring, refresh, rebalance)"
        )),
    )
}

fn help_text() -> String {
    "router commands:\n\
  ping                      liveness probe\n\
  query <spec>              scatter to every shard, merge exactly\n\
  list                      merged catalog (router-global ids)\n\
  board <id> / tree <id>    forwarded to the owning shard\n\
  remove <id>               remove from the owning shard\n\
  stats                     merged db line + router.* counters\n\
  metrics                   front-end command table + router section\n\
  ring                      hash-ring topology and epoch\n\
  refresh                   rebuild the id catalog from shard listings\n\
  rebalance plan|apply …    drain or activate a shard slot\n\
  shutdown / quit           stop the router / close this connection\n\
streaming ingest is proxied: open routes by video name, commit reports\n\
the router-global id\n"
        .to_string()
}

fn render_ring(ctx: &RouterCtx) -> String {
    use std::fmt::Write as _;
    let ring = ctx.ring.lock().unwrap();
    let mut out = format!(
        "  epoch {}  vnodes {}  shards {}  active {}\n",
        ring.epoch,
        ctx.config.vnodes,
        ctx.pool.len(),
        ring.active.len()
    );
    for slot in 0..ctx.pool.len() {
        let _ = writeln!(
            out,
            "  shard {} {} {}",
            slot,
            ctx.pool.addr(slot),
            if ring.active.contains(&slot) {
                "active"
            } else {
                "drained"
            }
        );
    }
    out
}

/// Scatter a command line to every active shard.
fn scatter_line(ctx: &RouterCtx, line: &str) -> Vec<ShardOutcome<String>> {
    let slots = ctx.active_slots();
    let line = line.to_string();
    scatter(
        &ctx.pool,
        &ctx.obs,
        &slots,
        ctx.scatter_opts(),
        Arc::new(move |c: &mut Client| c.expect_ok(&line)),
    )
}

/// Split outcomes into `(slot, text)` successes and missing slots.
fn split_outcomes(outcomes: Vec<ShardOutcome<String>>) -> (Vec<(usize, String)>, Vec<usize>) {
    let mut oks = Vec::new();
    let mut missing = Vec::new();
    for o in outcomes {
        match o.result {
            Ok(text) => oks.push((o.slot, text)),
            Err(_) => missing.push(o.slot),
        }
    }
    (oks, missing)
}

fn degraded(total: usize, oks: usize, missing: &[usize]) -> Option<String> {
    if missing.is_empty() {
        None
    } else {
        Some(merge::partial_marker(oks, total, missing))
    }
}

/// `query <spec>`: scatter `xquery`, merge exactly, mark partials.
fn query(ctx: &RouterCtx, rest: &str) -> Result<String, String> {
    if let Some(k) = rest
        .split_whitespace()
        .find_map(|t| t.strip_prefix("k=")?.parse::<usize>().ok())
    {
        if k > MAX_DISTRIBUTED_K {
            return Err(format!(
                "k={k} too large for a distributed merge (max {MAX_DISTRIBUTED_K})"
            ));
        }
    }
    let total = ctx.active_slots().len();
    let outcomes = scatter_line(ctx, &format!("xquery {rest}"));
    let first_err = outcomes
        .iter()
        .find_map(|o| o.result.as_ref().err().map(|e| e.to_string()));
    let (oks, missing) = split_outcomes(outcomes);
    if oks.is_empty() {
        return Err(first_err.unwrap_or_else(|| "no shard answered".to_string()));
    }
    let mut parsed = Vec::with_capacity(oks.len());
    for (slot, text) in &oks {
        parsed.push((
            *slot,
            merge::parse_xquery(text)
                .map_err(|e| format!("shard {slot} sent an unparseable xquery reply: {e}"))?,
        ));
    }
    let gid_of = |slot: usize, local: u64| ctx.catalog.gid_of_local(slot, local);
    let merged = match merge::merge_query(&parsed, gid_of) {
        Ok(m) => m,
        Err(_) => {
            // An unmapped local id means the catalog is stale (a shard
            // was loaded out-of-band); rebuild it and retry once.
            refresh_catalog(ctx)?;
            merge::merge_query(&parsed, gid_of)?
        }
    };
    let mut out = merged;
    if let Some(marker) = degraded(total, oks.len(), &missing) {
        out.push_str(&marker);
    }
    Ok(out)
}

/// `list`: scatter `xlist`, merge by gid, mark partials.
fn list(ctx: &RouterCtx) -> Result<String, String> {
    let total = ctx.active_slots().len();
    let outcomes = scatter_line(ctx, "xlist");
    let first_err = outcomes
        .iter()
        .find_map(|o| o.result.as_ref().err().map(|e| e.to_string()));
    let (oks, missing) = split_outcomes(outcomes);
    if oks.is_empty() {
        return Err(first_err.unwrap_or_else(|| "no shard answered".to_string()));
    }
    let mut parsed = Vec::with_capacity(oks.len());
    for (slot, text) in &oks {
        parsed.push((
            *slot,
            merge::parse_xlist(text)
                .map_err(|e| format!("shard {slot} sent an unparseable xlist reply: {e}"))?,
        ));
    }
    let gid_of = |slot: usize, local: u64| ctx.catalog.gid_of_local(slot, local);
    let merged = match merge::merge_list(&parsed, gid_of) {
        Ok(m) => m,
        Err(_) => {
            refresh_catalog(ctx)?;
            merge::merge_list(&parsed, gid_of)?
        }
    };
    let mut out = merged;
    if let Some(marker) = degraded(total, oks.len(), &missing) {
        out.push_str(&marker);
    }
    Ok(out)
}

/// `stats`: merged db line, then `router.*` lines in the same
/// `  <dotted.key> <integer>` grammar the shards use, then the partial
/// marker if any shard missed.
fn stats(ctx: &RouterCtx) -> Result<String, String> {
    let total = ctx.active_slots().len();
    let outcomes = scatter_line(ctx, "stats");
    let (oks, missing) = split_outcomes(outcomes);
    let mut shard_stats = Vec::with_capacity(oks.len());
    for (slot, text) in &oks {
        shard_stats.push(
            merge::parse_stats(text)
                .map_err(|e| format!("shard {slot} sent an unparseable stats reply: {e}"))?,
        );
    }
    let mut out = merge::merge_stats(&shard_stats);
    let ring = ctx.ring.lock().unwrap();
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "  router.shards {}\n  router.epoch {}\n  router.videos {}\n",
        ring.active.len(),
        ring.epoch,
        ctx.catalog.len()
    );
    drop(ring);
    out.push_str(&ctx.obs.registry.snapshot().render_kv("router"));
    if let Some(marker) = degraded(total, oks.len(), &missing) {
        out.push_str(&marker);
    }
    Ok(out)
}

/// `refresh`: rebuild the gid catalog from every active shard's
/// listing. Requires *all* shards (a partial rebuild would silently
/// drop videos).
fn refresh_catalog(ctx: &RouterCtx) -> Result<String, String> {
    let outcomes = scatter_line(ctx, "xlist");
    let mut rows = Vec::new();
    let mut shards = 0usize;
    for o in outcomes {
        let text = o
            .result
            .map_err(|e| format!("refresh requires every shard: {e}"))?;
        let videos = merge::parse_xlist(&text)
            .map_err(|e| format!("shard {} sent an unparseable xlist reply: {e}", o.slot))?;
        shards += 1;
        rows.extend(videos.into_iter().map(|v| (o.slot, v.local_id, v.name)));
    }
    let n = rows.len();
    ctx.catalog.rebuild(rows);
    Ok(format!(
        "  catalog rebuilt: {n} videos from {shards} shards\n"
    ))
}

/// Route `board`/`tree` to the shard owning the gid, rewriting the id.
fn forward_by_gid(ctx: &RouterCtx, cmd: &str, rest: &str) -> Result<String, String> {
    let mut parts = rest.splitn(2, char::is_whitespace);
    let gid: u64 = parts
        .next()
        .unwrap_or("")
        .parse()
        .map_err(|_| format!("usage: {cmd} <video-id> …"))?;
    let tail = parts.next().unwrap_or("").trim();
    let entry = ctx
        .catalog
        .get(gid)
        .ok_or_else(|| format!("no video with id {gid}"))?;
    let line = if tail.is_empty() {
        format!("{cmd} {}", entry.local_id)
    } else {
        format!("{cmd} {} {tail}", entry.local_id)
    };
    let outcome = call_shard(
        &ctx.pool,
        &ctx.obs,
        entry.shard,
        ctx.scatter_opts(),
        Arc::new(move |c: &mut Client| c.request(&line).map(|r| (r.ok, r.text))),
    );
    match outcome.result {
        Ok((true, text)) => Ok(text),
        Ok((false, text)) => Err(text),
        Err(e) => Err(e.to_string()),
    }
}

/// `remove <gid>`: forward to the owning shard, then drop the catalog
/// entry. Renders the router-global id, not the shard-local one.
fn remove(ctx: &RouterCtx, rest: &str) -> Result<String, String> {
    let gid: u64 = rest
        .trim()
        .parse()
        .map_err(|_| "usage: remove <video-id>".to_string())?;
    let entry = ctx
        .catalog
        .get(gid)
        .ok_or_else(|| format!("no video with id {gid}"))?;
    let line = format!("remove {}", entry.local_id);
    let outcome = call_shard(
        &ctx.pool,
        &ctx.obs,
        entry.shard,
        ctx.scatter_opts(),
        Arc::new(move |c: &mut Client| c.expect_ok(&line)),
    );
    outcome.result.map_err(|e| e.to_string())?;
    ctx.catalog.remove(gid);
    Ok(format!("  removed video {gid}\n"))
}

fn field(text: &str, key: &str) -> Option<String> {
    text.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('=').map(str::to_string))
}

/// Proxy one binary streaming-ingest message. Opens route by video name
/// through the ring; the session rides one dedicated downstream
/// connection; commit registers the video and reports its gid.
fn stream_proxy(
    ctx: &RouterCtx,
    proxies: &mut HashMap<u32, ProxySession>,
    payload: &[u8],
) -> Reply {
    let req = match decode_stream_request(payload) {
        Ok(req) => req,
        Err(e) => {
            ctx.metrics.protocol_error();
            return (CommandKind::Other, Err(format!("bad stream message: {e}")));
        }
    };
    match req {
        StreamRequest::Open { name, .. } => (
            CommandKind::StreamOpen,
            proxy_open(ctx, proxies, name, payload),
        ),
        StreamRequest::Frame { session, seq, data } => {
            let result = match proxies.get_mut(&session) {
                None => Err(format!("no open stream session {session}")),
                Some(p) => {
                    let relay = encode_stream_request(&StreamRequest::Frame {
                        session: p.ds_session,
                        seq,
                        data,
                    });
                    match p.conn.raw_request(&relay) {
                        Ok(resp) if resp.ok => Ok(resp.text),
                        Ok(resp) => {
                            // The shard poisoned the session; mirror that
                            // by forgetting it here.
                            proxies.remove(&session);
                            Err(resp.text)
                        }
                        Err(e) => {
                            proxies.remove(&session);
                            Err(format!("stream relay failed: {e}"))
                        }
                    }
                }
            };
            (CommandKind::StreamFrame, result)
        }
        StreamRequest::Commit { session } => {
            let result = match proxies.remove(&session) {
                None => Err(format!("no open stream session {session}")),
                Some(mut p) => {
                    let relay = encode_stream_request(&StreamRequest::Commit {
                        session: p.ds_session,
                    });
                    match p.conn.raw_request(&relay) {
                        Ok(resp) if resp.ok => {
                            let lid =
                                field(&resp.text, "video").and_then(|v| v.parse::<u64>().ok());
                            match lid {
                                Some(lid) => {
                                    let gid = ctx.catalog.register(&p.name, p.slot, lid);
                                    ctx.obs.streams_proxied.incr();
                                    ctx.pool.checkin(p.slot, p.conn);
                                    // Re-emit the commit summary with the
                                    // router-global id in place of the
                                    // shard-local one.
                                    let rest: Vec<&str> = resp
                                        .text
                                        .split_whitespace()
                                        .filter(|t| !t.starts_with("video="))
                                        .collect();
                                    Ok(format!("video={gid} {}", rest.join(" ")))
                                }
                                None => Err("shard sent a malformed commit reply".to_string()),
                            }
                        }
                        Ok(resp) => Err(resp.text),
                        Err(e) => Err(format!("stream commit relay failed: {e}")),
                    }
                }
            };
            (CommandKind::StreamCommit, result)
        }
        StreamRequest::Abort { session } => {
            let result = match proxies.remove(&session) {
                None => Err(format!("no open stream session {session}")),
                Some(mut p) => {
                    let relay = encode_stream_request(&StreamRequest::Abort {
                        session: p.ds_session,
                    });
                    match p.conn.raw_request(&relay) {
                        Ok(resp) if resp.ok => {
                            ctx.pool.checkin(p.slot, p.conn);
                            Ok(resp.text)
                        }
                        Ok(resp) => Err(resp.text),
                        Err(e) => Err(format!("stream abort relay failed: {e}")),
                    }
                }
            };
            (CommandKind::StreamAbort, result)
        }
    }
}

fn proxy_open(
    ctx: &RouterCtx,
    proxies: &mut HashMap<u32, ProxySession>,
    name: &str,
    payload: &[u8],
) -> Result<String, String> {
    // A re-streamed name goes back to wherever the video lives now (it
    // may have been rebalanced off its ring home); new names follow the
    // ring.
    let active = ctx.active_slots();
    let slot = ctx
        .catalog
        .get_by_name(name)
        .map(|e| e.shard)
        .filter(|s| active.contains(s))
        .or_else(|| ctx.ring.lock().unwrap().route(name))
        .ok_or_else(|| "no active shards".to_string())?;
    // The open payload carries session id 0, so it relays verbatim. A
    // reused pooled connection may be stale; retry once on a fresh dial.
    let (mut conn, reused) = ctx.pool.checkout(slot).map_err(|e| e.to_string())?;
    let resp = match conn.raw_request(payload) {
        Ok(resp) => resp,
        Err(first) => {
            drop(conn);
            if !reused {
                return Err(format!("stream open relay failed: {first}"));
            }
            conn = ctx.pool.dial(slot).map_err(|e| e.to_string())?;
            conn.raw_request(payload)
                .map_err(|e| format!("stream open relay failed: {e}"))?
        }
    };
    if !resp.ok {
        ctx.pool.checkin(slot, conn);
        return Err(resp.text);
    }
    let ds_session = field(&resp.text, "session")
        .and_then(|v| v.parse::<u32>().ok())
        .ok_or_else(|| "shard sent a malformed stream-open reply".to_string())?;
    let credits = field(&resp.text, "credits").unwrap_or_else(|| "1".to_string());
    let rsid = ctx.next_sid.fetch_add(1, Ordering::SeqCst);
    proxies.insert(
        rsid,
        ProxySession {
            slot,
            conn,
            ds_session,
            name: name.to_string(),
        },
    );
    Ok(format!("session={rsid} credits={credits}"))
}
