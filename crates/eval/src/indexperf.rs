//! The scan-vs-index crossover experiment: where does the index table
//! start paying for itself?
//!
//! For a sweep of corpus sizes, build a [`ShotIndex`] over a synthetic
//! feature mixture, run the same probe workload through the forced
//! linear scan and through the index, and report: measured median
//! latencies, the speedup, and the rows each probe read (exact, from
//! its `explain` work counters).
//! EXPERIMENTS.md quotes this table; the `tables` binary regenerates it
//! (`cargo run -p vdb-bench --release --bin tables crossover`).

use crate::report::Table;
use std::time::Instant;
use vdb_core::index::{IndexEntry, ShotIndex, ShotKey, VarianceQuery};
use vdb_core::variance::ShotFeature;
use vdb_synth::rng::Srng;

/// One corpus-size tier of the sweep.
#[derive(Debug, Clone)]
pub struct CrossoverPoint {
    /// Rows in the index.
    pub n: usize,
    /// Median forced-scan latency for the range probe (µs).
    pub scan_us: f64,
    /// Median index latency for the range probe (µs).
    pub probe_us: f64,
    /// Median full-ranking top-10 latency (µs).
    pub topk_scan_us: f64,
    /// Median indexed top-10 latency (µs).
    pub topk_probe_us: f64,
    /// Median rows the range probe read (its Eq. 7 window).
    pub range_rows: f64,
    /// Median rows the top-10 walk read.
    pub topk_rows: f64,
}

/// The mixture corpus shared with the test suites: three editing-style
/// clusters of `(Var^BA, Var^OA)`.
pub fn mixture_corpus(n: usize, seed: u64) -> Vec<IndexEntry> {
    let clusters = [(2.0, 12.0, 1.5), (25.0, 18.0, 5.0), (60.0, 30.0, 10.0)];
    let mut rng = Srng::new(seed);
    (0..n)
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

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Run the sweep. `sizes` is ascending; `probes` queries are timed per
/// tier (each as a by-example probe at α = β = 0.5).
pub fn run_crossover(sizes: &[usize], probes: usize, seed: u64) -> Vec<CrossoverPoint> {
    let mut out = Vec::new();
    for &n in sizes {
        let entries = mixture_corpus(n, seed);
        let idx = ShotIndex::from_entries(entries.clone());
        let mut rng = Srng::new(seed ^ n as u64);
        let queries: Vec<VarianceQuery> = (0..probes)
            .map(|_| {
                let e = entries[rng.range_usize(0, entries.len() - 1)];
                VarianceQuery::by_example(ShotFeature {
                    var_ba: e.var_ba,
                    var_oa: e.var_oa,
                })
                .with_tolerances(0.5, 0.5)
            })
            .collect();
        let mut scan_us = Vec::new();
        let mut probe_us = Vec::new();
        let mut topk_scan_us = Vec::new();
        let mut topk_probe_us = Vec::new();
        let mut range_rows = Vec::new();
        let mut topk_rows = Vec::new();
        for q in &queries {
            let t = Instant::now();
            let scan_hits = idx.query_scan(q);
            scan_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let (hits, stats) = idx.probe_range(q);
            probe_us.push(t.elapsed().as_secs_f64() * 1e6);
            assert_eq!(
                hits.len(),
                scan_hits.len(),
                "range probe diverged from scan"
            );
            let t = Instant::now();
            let ranked = idx.query_topk_scan(q, 10);
            topk_scan_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let (fast, walk) = idx.probe_topk(q, 10);
            topk_probe_us.push(t.elapsed().as_secs_f64() * 1e6);
            assert_eq!(fast.len(), ranked.len(), "indexed top-k diverged from scan");
            range_rows.push(stats.candidates as f64);
            topk_rows.push(walk.candidates as f64);
        }
        out.push(CrossoverPoint {
            n,
            scan_us: median(scan_us),
            probe_us: median(probe_us),
            topk_scan_us: median(topk_scan_us),
            topk_probe_us: median(topk_probe_us),
            range_rows: median(range_rows),
            topk_rows: median(topk_rows),
        });
    }
    out
}

/// Render the sweep as the EXPERIMENTS.md table.
pub fn render_crossover(points: &[CrossoverPoint]) -> String {
    let mut t = Table::new(vec![
        "Rows",
        "Range scan µs",
        "Range probe µs",
        "Top-10 scan µs",
        "Top-10 probe µs",
        "Top-10 speedup",
        "Range rows read",
        "Top-10 rows read",
    ]);
    let speedup = |scan: f64, probe: f64| if probe > 0.0 { scan / probe } else { 0.0 };
    for p in points {
        t.row(vec![
            format!("{}", p.n),
            format!("{:.1}", p.scan_us),
            format!("{:.1}", p.probe_us),
            format!("{:.1}", p.topk_scan_us),
            format!("{:.1}", p.topk_probe_us),
            format!("{:.1}x", speedup(p.topk_scan_us, p.topk_probe_us)),
            format!("{:.0}", p.range_rows),
            format!("{:.0}", p.topk_rows),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_sweep_is_coherent() {
        let points = run_crossover(&[1_000, 10_000], 5, 11);
        assert_eq!(points.len(), 2);
        // Bigger corpus, same probe → each probe reads a shrinking
        // fraction of the rows.
        assert!(points[1].range_rows < points[1].n as f64);
        assert!(points[1].topk_rows < points[1].n as f64 / 10.0);
        let rendered = render_crossover(&points);
        assert!(rendered.contains("speedup"));
        assert!(points[1].topk_probe_us <= points[1].topk_scan_us * 2.0);
        assert!(rendered.contains("10000"));
    }
}
