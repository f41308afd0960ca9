//! The repository's benchmark. Run from the repository root:
//!
//! ```text
//! vdb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! vdb-benchmark --quick [--seed <n>]
//! vdb-benchmark --compare <dir A> <dir B>
//! ```
//!
//! A run prints an environment line, the exact counts, every metric by
//! name with its unit, and as its last line one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See `README.md` beside this package for what is measured and why.

mod compare;
mod inputs;
mod layers;
mod spans;
mod spec;
mod stats;
mod workloads;

use inputs::Inputs;
use spans::Spans;
use spec::{MetricSpec, Spec};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Config, Outcome, Tally};

const USAGE: &str = "usage: vdb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       vdb-benchmark --quick [--seed <n>]\n       vdb-benchmark --compare <dir A> <dir B>";

/// Journals, work files and traces go here, inside the checkout.
const WORK_ROOT: &str = ".bench_work";

enum Mode {
    Run {
        workload: String,
        seed: u64,
        seconds: u64,
        trace: bool,
    },
    Quick {
        seed: u64,
    },
    Compare(PathBuf, PathBuf),
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    if args.first().map(String::as_str) == Some("--compare") {
        return match args {
            [_, a, b] => Ok(Mode::Compare(a.into(), b.into())),
            _ => Err("--compare takes two directories".to_string()),
        };
    }
    let (mut workload, mut seed, mut seconds, mut trace, mut quick) =
        (None, None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    if quick {
        return Ok(Mode::Quick {
            seed: seed.unwrap_or(1),
        });
    }
    Ok(Mode::Run {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0)
            .ok_or("--seconds must be at least 1")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The end-to-end metrics of one run.
fn end_to_end(outcome: &Outcome) -> Vec<(&'static str, f64)> {
    let ops = outcome.window.ops as f64;
    vec![
        ("setup_s", outcome.setup_s),
        ("work_per_s", ops / outcome.window.wall_s),
        ("latency_p50_us", stats::quantile(&outcome.latency_us, 0.5)),
        ("cpu_us_per_op", outcome.window.cpu_s * 1e6 / ops),
        (
            "journal_bytes_per_frame",
            outcome.journal.journal_bytes as f64 / outcome.journal_frames as f64,
        ),
        ("peak_rss_mib", stats::peak_rss_mib()),
    ]
}

/// Pair the metrics `BENCHMARK.json` lists with the values measured; the
/// two sets of names must be the same and every value finite.
fn reconcile<'a>(
    listed: &'a [MetricSpec],
    measured: &[(&'static str, f64)],
) -> Result<Vec<(&'a MetricSpec, f64)>, String> {
    if let Some((name, _)) = measured
        .iter()
        .find(|(n, _)| !listed.iter().any(|m| m.name == *n))
    {
        return Err(format!(
            "metric '{name}' is measured but not in BENCHMARK.json"
        ));
    }
    listed
        .iter()
        .map(
            |spec| match measured.iter().find(|(n, _)| *n == spec.name) {
                Some((_, value)) if value.is_finite() => Ok((spec, *value)),
                Some((_, value)) => Err(format!("metric '{}' is {value}", spec.name)),
                None => Err(format!(
                    "metric '{}' is in BENCHMARK.json but was not measured",
                    spec.name
                )),
            },
        )
        .collect()
}

/// The run's last line.
fn result_line(correct: bool, tally: &Tally, metrics: &[(&MetricSpec, f64)]) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted.max(1),
        tally.failed
    );
    for (i, (spec, value)) in metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            spec.name, spec.unit
        );
    }
    line.push_str("}}");
    line
}

struct Report {
    correct: bool,
    line: String,
}

/// Run one workload and print its report (everything but the last line).
fn run_workload(
    spec: &Spec,
    workload: &str,
    cfg: &Config,
    inputs: &mut Inputs,
) -> Result<Report, String> {
    if !spec.workloads.iter().any(|w| w == workload) {
        return Err(format!(
            "unknown workload '{workload}' (BENCHMARK.json lists {:?})",
            spec.workloads
        ));
    }
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("{}: {e}", cfg.work_dir.display()))?;
    let mut spans = Spans::new();
    let mut outcome = workloads::run(workload, cfg, inputs, &mut spans)
        .ok_or_else(|| format!("workload '{workload}' is listed but not implemented"))?;

    println!("workload: {workload}");
    println!(
        "{}",
        stats::environment(
            &cfg.work_dir,
            cfg.seed,
            outcome.window.ops,
            outcome.window.wall_s
        )
    );
    println!(
        "window: {} ops in {:.3} s; latency samples: {}",
        outcome.window.ops,
        outcome.window.wall_s,
        outcome.latency_us.len()
    );
    // Printed with every run, gated in none: on a shared machine the 90th
    // percentile moved by a quarter between sets of runs of one commit.
    println!(
        "info: latency_p90_us = {}",
        stats::quantile(&outcome.latency_us, 0.9)
    );
    for (name, count) in &outcome.counts {
        println!("count: {name} = {count}");
    }

    let measured = if cfg.trace {
        let has_range = matches!(workload, "query_serve" | "mixed_rw");
        let mut replayed = Tally::default();
        let layers = layers::replay(cfg, inputs, &outcome, has_range, &mut spans, &mut replayed);
        outcome.tally.merge(replayed);
        let trace_path = Path::new(WORK_ROOT).join(format!("trace-{workload}-{}.json", cfg.seed));
        std::fs::write(&trace_path, spans.to_chrome_json())
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        println!(
            "trace: {} spans written to {}",
            spans.len(),
            trace_path.display()
        );
        for (name, (count, total_us, self_us)) in spans.self_times() {
            println!("span: {name} count={count} total_us={total_us:.1} self_us={self_us:.1}");
        }
        layers
    } else {
        end_to_end(&outcome)
    };
    let _ = std::fs::remove_dir_all(&cfg.work_dir);

    let listed = if cfg.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let metrics = reconcile(listed, &measured)?;
    for (spec, value) in &metrics {
        println!("metric: {} = {value} {}", spec.name, spec.unit);
    }
    println!(
        "operations: attempted={} failed={}",
        outcome.tally.attempted, outcome.tally.failed
    );
    if let Some(why) = &outcome.tally.first_failure {
        println!("first failure: {why}");
    }
    Ok(Report {
        correct: outcome.correct(),
        line: result_line(outcome.correct(), &outcome.tally, &metrics),
    })
}

fn work_dir(workload: &str, seed: u64) -> PathBuf {
    Path::new(WORK_ROOT).join(format!("{workload}-{seed}-{}", std::process::id()))
}

/// `--quick`: every workload at 1/50 of its operations in one process, the
/// last one traced so the per-layer names are exercised too. Fails when a
/// check fails or when the names differ from `BENCHMARK.json`.
fn quick(spec: &Spec, seed: u64) -> Result<bool, String> {
    if spec.workloads != workloads::NAMES {
        return Err(format!(
            "BENCHMARK.json lists workloads {:?}, the benchmark has {:?}",
            spec.workloads,
            workloads::NAMES
        ));
    }
    let mut inputs = Inputs::default();
    let mut all_correct = true;
    for (i, workload) in workloads::NAMES.iter().enumerate() {
        let cfg = Config {
            seed,
            seconds: spec.run_seconds,
            divisor: 50,
            trace: i + 1 == workloads::NAMES.len(),
            work_dir: work_dir(workload, seed),
        };
        let report = run_workload(spec, workload, &cfg, &mut inputs)?;
        println!("{}", report.line);
        all_correct &= report.correct;
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&args) {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!("vdb-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match mode {
        Mode::Compare(a, b) => compare::run(&a, &b),
        Mode::Quick { seed } => Spec::load().and_then(|spec| quick(&spec, seed)),
        Mode::Run {
            workload,
            seed,
            seconds,
            trace,
        } => Spec::load().and_then(|spec| {
            let cfg = Config {
                seed,
                seconds,
                divisor: 1,
                trace,
                work_dir: work_dir(&workload, seed),
            };
            let report = run_workload(&spec, &workload, &cfg, &mut Inputs::default())?;
            // An incorrect run still reports: its line says `"correct": false`.
            println!("{}", report.line);
            Ok(true)
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("vdb-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
