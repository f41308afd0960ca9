//! The 1M-shot pin on the sublinear index (run with `--ignored` in the
//! CI index-scale job, release profile):
//!
//! * the bucket index over one million synthetic shots builds inside a
//!   wall-clock budget;
//! * indexed top-k answers are *identical* to the full-ranking scan and
//!   at least 10× faster (the acceptance bar for this index existing
//!   at all);
//! * probe p99 stays under an absolute latency budget and resident
//!   memory stays bounded;
//! * the run is reported as `BENCH_INDEX.new.json` and, when a baseline
//!   snapshot is present, gated against it: probe p99 may not regress
//!   by more than 25% (plus a 100µs absolute allowance so µs-level
//!   noise cannot flap the gate).
//!
//! Knobs: `VDB_INDEX_BASELINE` overrides the baseline path (default
//! `<repo>/BENCH_INDEX.json`); `VDB_INDEX_MAX_REGRESS` the fractional
//! allowance (default `0.25`).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use vdb_core::index::{BucketParams, IndexEntry, ShotIndex, ShotKey, VarianceQuery};
use vdb_core::variance::ShotFeature;
use vdb_synth::rng::Srng;

const N: usize = 1_000_000;
const PROBES: usize = 64;
const K: usize = 10;
/// Build budget (seconds): sorting 1M rows takes well under a second in
/// release; the budget leaves room for a slow shared CI runner.
const BUILD_BUDGET_SECS: f64 = 30.0;
/// Absolute indexed-probe p99 budget (µs).
const PROBE_P99_BUDGET_US: f64 = 20_000.0;
/// Resident-set ceiling (MiB): ~32 MiB of entries plus index mirrors and
/// the test's own copies fit far below this even with allocator slack.
const RSS_BUDGET_MIB: u64 = 2_048;

/// The three-cluster mixture shared with the equivalence and cost-model
/// suites, at a million rows.
fn corpus() -> Vec<IndexEntry> {
    let clusters = [(2.0, 12.0, 1.5), (25.0, 18.0, 5.0), (60.0, 30.0, 10.0)];
    let mut rng = Srng::new(0x15ca1e);
    (0..N)
        .map(|i| {
            let (cb, co, s) = *rng.pick(&clusters);
            IndexEntry::new(
                ShotKey {
                    video: (i / 500) as u64,
                    shot: (i % 500) as u32,
                },
                ShotFeature {
                    var_ba: (cb + rng.gauss() * s).max(0.0),
                    var_oa: (co + rng.gauss() * s).max(0.0),
                },
            )
        })
        .collect()
}

fn probe_set(entries: &[IndexEntry]) -> Vec<VarianceQuery> {
    let mut rng = Srng::new(0xbeef);
    (0..PROBES)
        .map(|_| {
            let e = entries[rng.range_usize(0, entries.len() - 1)];
            VarianceQuery::by_example(ShotFeature {
                var_ba: e.var_ba,
                var_oa: e.var_oa,
            })
            .with_tolerances(0.5, 0.5)
        })
        .collect()
}

fn quantiles(mut us: Vec<f64>) -> (f64, f64) {
    us.sort_by(f64::total_cmp);
    let p = |q: f64| us[((us.len() - 1) as f64 * q).round() as usize];
    (p(0.5), p(0.99))
}

/// `VmRSS` in MiB, or `None` off Linux / if procfs is unreadable.
fn rss_mib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024)
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

fn baseline_probe_p99(path: &PathBuf) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let root = serde_json::parse(&text).ok()?;
    let serde::Value::Object(fields) = &root else {
        return None;
    };
    match fields.iter().find(|(k, _)| k == "probe_p99_us")?.1 {
        serde::Value::Float(x) => Some(x),
        serde::Value::Int(n) => Some(n as f64),
        _ => None,
    }
}

#[test]
#[ignore = "1M-shot scale pin: run in release via the CI index-scale job"]
fn one_million_shots_index_vs_scan() {
    let entries = corpus();
    let queries = probe_set(&entries);

    let t = Instant::now();
    let idx = ShotIndex::from_entries(entries, BucketParams::default());
    let build_seconds = t.elapsed().as_secs_f64();
    assert_eq!(idx.len(), N);
    assert!(
        build_seconds <= BUILD_BUDGET_SECS,
        "index build took {build_seconds:.1}s (budget {BUILD_BUDGET_SECS}s)"
    );

    // Warm both paths once so first-touch effects hit neither timing.
    idx.query_topk(&queries[0], K);
    idx.query_topk_scan(&queries[0], K);

    let mut probe_us = Vec::with_capacity(PROBES);
    let mut scan_us = Vec::with_capacity(PROBES);
    for q in &queries {
        let t = Instant::now();
        let fast = idx.query_topk(q, K);
        probe_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let slow = idx.query_topk_scan(q, K);
        scan_us.push(t.elapsed().as_secs_f64() * 1e6);
        let fast_keys: Vec<ShotKey> = fast.iter().map(|m| m.entry.key).collect();
        let slow_keys: Vec<ShotKey> = slow.iter().map(|m| m.entry.key).collect();
        assert_eq!(fast_keys, slow_keys, "indexed top-k diverged from scan");
    }
    let (probe_p50, probe_p99) = quantiles(probe_us);
    let (scan_p50, scan_p99) = quantiles(scan_us);
    let speedup = scan_p50 / probe_p50.max(1e-9);
    let rss = rss_mib();
    eprintln!(
        "index_scale: build {build_seconds:.2}s, probe p50/p99 {probe_p50:.0}/{probe_p99:.0}µs, \
         scan p50/p99 {scan_p50:.0}/{scan_p99:.0}µs, speedup {speedup:.1}x, rss {rss:?} MiB"
    );

    assert!(
        speedup >= 10.0,
        "indexed top-k must be ≥10× the scan at 1M shots, got {speedup:.1}x \
         (probe p50 {probe_p50:.0}µs vs scan p50 {scan_p50:.0}µs)"
    );
    assert!(
        probe_p99 <= PROBE_P99_BUDGET_US,
        "probe p99 {probe_p99:.0}µs over budget {PROBE_P99_BUDGET_US:.0}µs"
    );
    if let Some(mib) = rss {
        assert!(
            mib <= RSS_BUDGET_MIB,
            "resident set {mib} MiB over budget {RSS_BUDGET_MIB} MiB"
        );
    }

    // --- Snapshot for the CI artifact. ---
    let mut json = String::from("{\n  \"schema\": \"vdb-bench-index/v1\",\n");
    let _ = writeln!(json, "  \"shots\": {N}, \"probes\": {PROBES}, \"k\": {K},");
    let _ = writeln!(json, "  \"build_seconds\": {build_seconds:.3},");
    let _ = writeln!(
        json,
        "  \"probe_p50_us\": {probe_p50:.1}, \"probe_p99_us\": {probe_p99:.1},"
    );
    let _ = writeln!(
        json,
        "  \"scan_p50_us\": {scan_p50:.1}, \"scan_p99_us\": {scan_p99:.1},"
    );
    let _ = writeln!(json, "  \"speedup_p50\": {speedup:.2},");
    let _ = writeln!(json, "  \"rss_mib\": {}", rss.unwrap_or(0));
    json.push_str("}\n");
    let out = repo_root().join("BENCH_INDEX.new.json");
    std::fs::write(&out, &json).expect("write snapshot");
    eprintln!("index_scale: wrote {}", out.display());

    // --- Regression gate vs the checked-in baseline. ---
    let baseline_path = std::env::var("VDB_INDEX_BASELINE")
        .map(PathBuf::from)
        .unwrap_or_else(|_| repo_root().join("BENCH_INDEX.json"));
    let max_regress: f64 = std::env::var("VDB_INDEX_MAX_REGRESS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25);
    match baseline_probe_p99(&baseline_path) {
        Some(base_p99) => {
            // 25% relative plus a 100µs absolute allowance: machines
            // differ by µs even when nothing changed.
            let ceiling = base_p99 * (1.0 + max_regress) + 100.0;
            assert!(
                probe_p99 <= ceiling,
                "probe p99 regressed: {probe_p99:.0}µs > ceiling {ceiling:.0}µs \
                 (baseline {base_p99:.0}µs, max regress {:.0}%)",
                max_regress * 100.0
            );
            eprintln!(
                "index_scale: within budget: probe p99 {probe_p99:.0}µs vs baseline \
                 {base_p99:.0}µs (ceiling {ceiling:.0}µs)"
            );
        }
        None => eprintln!(
            "index_scale: no baseline at {} — gate skipped",
            baseline_path.display()
        ),
    }
}
