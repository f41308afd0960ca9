//! `vdbd` — the video database daemon.
//!
//! ```text
//! vdbd [--addr HOST:PORT] [--journal PATH] [--workers N] [--demo N]
//!      [--idle-timeout SECS] [--metrics-interval SECS]
//!      [--slow-query-ms MILLIS] [--max-sessions N] [--stream-credits N]
//!      [--shard-id LABEL] [--simd LEVEL]
//! ```
//!
//! Binds (port 0 picks an ephemeral port), prints `vdbd listening on
//! <addr>` on stdout, and serves until a wire `shutdown` command or
//! SIGTERM/SIGINT, at which point it stops accepting, drains in-flight
//! requests, syncs the journal, and exits 0.

use std::process::exit;
use std::time::Duration;
use vdb_core::analyzer::AnalyzerConfig;
use vdb_core::simd::SimdLevel;
use vdb_server::server::{shutdown_on_signal, Server, ServerConfig, ServerStore};
use vdb_store::shell::{self, Command};
use vdb_store::SharedDatabase;

fn usage() -> ! {
    eprintln!(
        "usage: vdbd [--addr HOST:PORT] [--journal PATH] [--workers N] [--demo N] [--idle-timeout SECS] [--metrics-interval SECS] [--slow-query-ms MILLIS] [--max-sessions N] [--stream-credits N] [--shard-id LABEL] [--simd auto|scalar|sse2|avx2|neon]"
    );
    exit(2);
}

struct Args {
    config: ServerConfig,
    journal: Option<String>,
    demo: usize,
    analyzer: AnalyzerConfig,
}

fn parse_args() -> Args {
    let mut config = ServerConfig {
        metrics_log_interval: Some(Duration::from_secs(60)),
        ..ServerConfig::default()
    };
    let mut journal = None;
    let mut demo = 0;
    let mut analyzer = AnalyzerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("vdbd: {flag} needs {what}");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => config.addr = value("an address"),
            "--journal" => journal = Some(value("a path")),
            "--workers" => match value("a count").parse() {
                Ok(n) if n > 0 => config.workers = n,
                _ => usage(),
            },
            "--demo" => match value("a count").parse() {
                Ok(n) => demo = n,
                Err(_) => usage(),
            },
            "--idle-timeout" => match value("seconds").parse() {
                Ok(secs) => config.idle_timeout = Duration::from_secs(secs),
                Err(_) => usage(),
            },
            "--metrics-interval" => match value("seconds").parse::<u64>() {
                Ok(0) => config.metrics_log_interval = None,
                Ok(secs) => config.metrics_log_interval = Some(Duration::from_secs(secs)),
                Err(_) => usage(),
            },
            "--slow-query-ms" => match value("milliseconds").parse::<u64>() {
                Ok(ms) => config.slow_query_log = Some(Duration::from_millis(ms)),
                Err(_) => usage(),
            },
            "--max-sessions" => match value("a count").parse() {
                Ok(n) if n > 0 => config.max_sessions = n,
                _ => usage(),
            },
            "--stream-credits" => match value("a count").parse() {
                Ok(n) if n > 0 => config.stream_credits = n,
                _ => usage(),
            },
            "--shard-id" => config.shard_id = Some(value("a label")),
            "--simd" => match value("a level").parse::<SimdLevel>() {
                Ok(level) => match level.try_resolve() {
                    Ok(_) => analyzer.simd = level,
                    Err(e) => {
                        eprintln!("vdbd: {e}");
                        exit(1);
                    }
                },
                Err(e) => {
                    eprintln!("vdbd: --simd: {e}");
                    usage()
                }
            },
            "--help" | "-h" => usage(),
            _ => {
                eprintln!("vdbd: unknown flag '{flag}'");
                usage()
            }
        }
    }
    Args {
        config,
        journal,
        demo,
        analyzer,
    }
}

fn main() {
    let Args {
        config,
        journal,
        demo,
        analyzer,
    } = parse_args();

    let store = match &journal {
        Some(path) => match ServerStore::open_journal(path, analyzer) {
            Ok(store) => {
                eprintln!("vdbd: journal {path}: {} videos", store.read(|db| db.len()));
                store
            }
            Err(e) => {
                eprintln!("vdbd: could not open journal {path}: {e}");
                exit(1);
            }
        },
        None => {
            let shared = SharedDatabase::new();
            shared.set_simd(analyzer.simd);
            shared.set_parallelism(analyzer.parallelism);
            ServerStore::from_shared(shared)
        }
    };
    if demo > 0 {
        let out = store.write(|backend| {
            shell::execute_mutation(backend, &Command::Demo(demo)).expect("demo is a mutation")
        });
        eprint!("{out}");
    }

    let server = match Server::bind(store, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("vdbd: bind failed: {e}");
            exit(1);
        }
    };
    // The smoke script and supervisors parse this line for the port.
    println!("vdbd listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let handle = server.serve();
    shutdown_on_signal(handle.shutdown_flag());

    match handle.join() {
        Ok(snapshot) => {
            eprintln!("vdbd: clean shutdown — {}", snapshot.one_line());
        }
        Err(e) => {
            eprintln!("vdbd: shutdown failed to sync journal: {e}");
            exit(1);
        }
    }
}
