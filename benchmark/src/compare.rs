//! `--compare A B`: the A/A (or parent/change) table over two sets of runs.
//!
//! A set is a directory with one `<workload>.jsonl` per workload, each
//! line the last stdout line of one untraced run (`aa.sh` writes them).
//! Per workload × end-to-end metric the table gives both medians, each
//! set's (Q3 − Q1) / median as the driver computes it, how much worse B's
//! median is than A's, and the bound from `BENCHMARK.json`.

use crate::spec::Spec;
use crate::stats::quartiles;
use serde::Value;
use std::path::Path;

/// The values of `metric` over the runs in one file; also checks that
/// every run was correct and nothing failed.
fn read_set(path: &Path, metric: &str) -> Result<Vec<f64>, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut values = Vec::new();
    for line in raw.lines().filter(|l| !l.trim().is_empty()) {
        let run = serde_json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
        if run.get("correct") != Some(&Value::Bool(true))
            || run.get("failed") != Some(&Value::Int(0))
        {
            return Err(format!(
                "{}: a run is incorrect or has failed operations",
                path.display()
            ));
        }
        match run
            .get("metrics")
            .and_then(|m| m.get(metric))
            .and_then(|m| m.get("value"))
        {
            Some(Value::Float(v)) => values.push(*v),
            Some(Value::Int(v)) => values.push(*v as f64),
            _ => return Err(format!("{}: a run lacks '{metric}'", path.display())),
        }
    }
    if values.len() < 5 {
        return Err(format!(
            "{}: {} runs, need at least 5",
            path.display(),
            values.len()
        ));
    }
    Ok(values)
}

/// Prints the table; `Ok(true)` when every pairing is within its bound.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let spec = Spec::load()?;
    println!("| workload | metric | median A | median B | spread A | spread B | B worse by | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut all_within = true;
    for workload in &spec.workloads {
        let file = format!("{workload}.jsonl");
        for metric in &spec.end_to_end {
            let bound = metric.bound.unwrap_or(0.0);
            let set_a = read_set(&a.join(&file), &metric.name)?;
            let set_b = read_set(&b.join(&file), &metric.name)?;
            let (a1, a2, a3) = quartiles(&set_a);
            let (b1, b2, b3) = quartiles(&set_b);
            let (spread_a, spread_b) = ((a3 - a1) / a2, (b3 - b1) / b2);
            let worse = if metric.lower_is_better {
                (b2 - a2) / a2
            } else {
                (a2 - b2) / a2
            };
            // The set-up time's spread is reported but not held to the bound.
            let spread_bound = if metric.name == "setup_s" {
                f64::INFINITY
            } else {
                bound
            };
            let verdict = if spread_a > spread_bound || spread_b > spread_bound {
                "spread over bound"
            } else if worse > bound {
                "worse than bound"
            } else {
                "ok"
            };
            all_within &= verdict == "ok";
            println!(
                "| {workload} | {} ({}) | {a2:.4} | {b2:.4} | {:.2} % | {:.2} % | {:+.2} % | {:.1} % | {verdict} |",
                metric.name,
                metric.unit,
                spread_a * 100.0,
                spread_b * 100.0,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(all_within)
}
