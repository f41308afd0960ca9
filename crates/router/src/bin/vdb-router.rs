//! `vdb-router` — the sharded-cluster coordinator daemon.
//!
//! ```text
//! vdb-router --shard HOST:PORT [--shard HOST:PORT …] [--addr HOST:PORT]
//!            [--vnodes N] [--workers N] [--shard-timeout-ms MILLIS]
//!            [--hedge-ms MILLIS] [--connect-timeout-ms MILLIS]
//! ```
//!
//! Binds (port 0 picks an ephemeral port), prints `vdb-router listening
//! on <addr>` on stdout, refreshes its id catalog from any shards that
//! already hold videos, and serves the `vdbd` wire protocol until a
//! wire `shutdown` command or SIGTERM/SIGINT.

use std::process::exit;
use std::time::Duration;
use vdb_router::{Router, RouterConfig};
use vdb_server::{shutdown_on_signal, ConnectOptions};

fn usage() -> ! {
    eprintln!(
        "usage: vdb-router --shard HOST:PORT [--shard HOST:PORT ...] [--addr HOST:PORT] [--vnodes N] [--workers N] [--shard-timeout-ms MILLIS] [--hedge-ms MILLIS] [--connect-timeout-ms MILLIS]"
    );
    exit(2);
}

fn parse_args() -> RouterConfig {
    let mut config = RouterConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("vdb-router: {flag} needs {what}");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => config.addr = value("an address"),
            "--shard" => config.shards.push(value("an address")),
            "--vnodes" => match value("a count").parse::<u32>() {
                Ok(n) if n > 0 => config.vnodes = n,
                _ => usage(),
            },
            "--workers" => match value("a count").parse() {
                Ok(n) if n > 0 => config.workers = n,
                _ => usage(),
            },
            "--shard-timeout-ms" => match value("milliseconds").parse::<u64>() {
                Ok(ms) if ms > 0 => config.shard_deadline = Duration::from_millis(ms),
                _ => usage(),
            },
            "--hedge-ms" => match value("milliseconds").parse::<u64>() {
                Ok(0) => config.hedge = None,
                Ok(ms) => config.hedge = Some(Duration::from_millis(ms)),
                Err(_) => usage(),
            },
            "--connect-timeout-ms" => match value("milliseconds").parse::<u64>() {
                Ok(ms) if ms > 0 => {
                    let attempt = Duration::from_millis(ms);
                    config.connect = ConnectOptions::retrying(attempt, attempt * 4);
                }
                _ => usage(),
            },
            "--help" | "-h" => usage(),
            _ => {
                eprintln!("vdb-router: unknown flag '{flag}'");
                usage()
            }
        }
    }
    if config.shards.is_empty() {
        eprintln!("vdb-router: at least one --shard is required");
        usage();
    }
    config
}

fn main() {
    let config = parse_args();
    let shards = config.shards.clone();
    let router = match Router::bind(config) {
        Ok(router) => router,
        Err(e) => {
            eprintln!("vdb-router: bind failed: {e}");
            exit(1);
        }
    };
    // The smoke script and supervisors parse this line for the port.
    println!("vdb-router listening on {}", router.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    for (slot, addr) in shards.iter().enumerate() {
        eprintln!("vdb-router: shard {slot} at {addr}");
    }

    let handle = router.serve();
    shutdown_on_signal(handle.shutdown_flag());

    let snapshot = handle.join();
    eprintln!("vdb-router: clean shutdown — {}", snapshot.one_line());
}
