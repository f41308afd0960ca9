//! Exact work, in the lantern `EXPLAIN` style with the error at 0 %: on a
//! 100k-shot corpus, every probe's `explain` equals a brute-force count
//! of the rows it had to read.
//!
//! * a range probe reads exactly the rows of Eq. 7's window
//!   `[D_q^v − α, D_q^v + α]` (`candidates`), of which its walk visits
//!   some (`visited ≤ candidates`), and counts exactly the rows
//!   [`VarianceQuery::matches`] accepts (`matches`);
//! * a top-k probe reads the rows its walk visits (`candidates =
//!   visited`), never more than the scan reads.

use vdb_core::index::{IndexEntry, ShotIndex, ShotKey, VarianceQuery};
use vdb_core::variance::ShotFeature;
use vdb_synth::rng::Srng;

/// 100k rows from a three-cluster mixture (calm / medium / frantic
/// editing styles), the same shape the equivalence suite uses.
fn corpus_100k() -> Vec<IndexEntry> {
    mixture(100_000, 42)
}

fn mixture(n: usize, seed: u64) -> Vec<IndexEntry> {
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

/// The probe workload: by-example queries across the corpus at several
/// tolerances, then the degenerate ones: negative α, negative β, a NaN
/// query point and an infinite window.
fn workload(entries: &[IndexEntry]) -> Vec<VarianceQuery> {
    let mut rng = Srng::new(7);
    let mut out = Vec::new();
    for _ in 0..8 {
        let e = entries[rng.range_usize(0, entries.len() - 1)];
        for alpha in [0.25, 0.5, 1.0, 2.0] {
            out.push(
                VarianceQuery::by_example(ShotFeature {
                    var_ba: e.var_ba,
                    var_oa: e.var_oa,
                })
                .with_tolerances(alpha, alpha),
            );
        }
    }
    out.extend([
        VarianceQuery::new(4.0, 16.0).with_tolerances(-0.5, 1.0),
        VarianceQuery::new(4.0, 16.0).with_tolerances(1.0, -0.5),
        VarianceQuery::new(f64::NAN, 16.0),
        VarianceQuery::new(4.0, 16.0).with_tolerances(f64::INFINITY, 1.0),
    ]);
    out
}

/// Rows a brute-force pass finds inside Eq. 7's window.
fn window_rows(entries: &[IndexEntry], q: &VarianceQuery) -> usize {
    let (lo, hi) = (q.d_v() - q.alpha, q.d_v() + q.alpha);
    entries
        .iter()
        .filter(|e| lo <= e.d_v() && e.d_v() <= hi)
        .count()
}

/// A range probe reads exactly its window's rows, per query and summed
/// over the workload, on corpora of several sizes and seeds: the ±30 %
/// estimate margin of a histogram model is an equality here.
#[test]
fn range_candidates_equal_the_window_rows() {
    for (n, seed) in [(1_000, 3), (10_000, 5), (100_000, 42)] {
        let entries = mixture(n, seed);
        let idx = ShotIndex::from_entries(entries.clone());
        let (mut read, mut window) = (0usize, 0usize);
        for (qi, q) in workload(&entries).into_iter().enumerate() {
            let (matches, stats) = idx.probe_range(&q);
            let rows = window_rows(&entries, &q);
            assert_eq!(stats.candidates, rows, "n={n} query {qi}: window rows");
            assert_eq!(
                stats.buckets_touched,
                usize::from(rows > 0),
                "n={n} query {qi}"
            );
            let accepted = entries.iter().filter(|e| q.matches(e)).count();
            assert_eq!(matches.len(), accepted, "n={n} query {qi}");
            read += stats.candidates;
            window += rows;
        }
        assert_eq!(read, window, "n={n}: rows read over the workload");
    }
}

#[test]
fn explain_counts_the_window_exactly() {
    let entries = corpus_100k();
    let idx = ShotIndex::from_entries(entries.clone());
    for (qi, q) in workload(&entries).into_iter().enumerate() {
        let (matches, _, ex) = idx.select(&q, None, usize::MAX, None);
        let candidates = window_rows(&entries, &q);
        assert_eq!(ex.probe.candidates, candidates, "query {qi}: window rows");
        assert_eq!(ex.probe.buckets_touched, usize::from(candidates > 0));
        let accepted = entries.iter().filter(|e| q.matches(e)).count();
        assert_eq!(ex.matches, accepted, "query {qi}: matches");
        assert_eq!(matches.len(), accepted, "query {qi}");
        assert!(ex.visited <= ex.probe.candidates, "query {qi}: {ex:?}");
        assert_eq!(ex.rows, idx.len(), "query {qi}");
        assert_eq!(ex.staged_rows, 0, "query {qi}: nothing staged");
        assert_eq!(idx.probe_range(&q).1, ex.probe, "query {qi}");
    }

    // A top-k probe reads the rows its walk visits, an unbroken run whose
    // D^v bounds every answer's.
    let q = VarianceQuery::new(4.0, 16.0);
    for k in [1usize, 10, 100, 1_000] {
        let (matches, _, ex) = idx.select(&q, Some(k), usize::MAX, None);
        assert_eq!(matches.len(), k, "k={k}");
        assert_eq!(ex.matches, k, "k={k}");
        assert_eq!(ex.probe.candidates, ex.visited, "k={k}");
        assert!(ex.visited >= k, "k={k}: the walk read {} rows", ex.visited);
        let inside = |m: &vdb_core::index::Match| {
            ex.window.0 <= m.entry.d_v() && m.entry.d_v() <= ex.window.1
        };
        assert!(matches.iter().all(inside), "k={k}: {:?}", ex.window);
        let read = entries
            .iter()
            .filter(|e| ex.window.0 <= e.d_v() && e.d_v() <= ex.window.1)
            .count();
        assert_eq!(read, ex.visited, "k={k}: the run is the window's rows");
    }
}

/// Every probe reads no more rows than the scan would, and a selective
/// one far fewer: a narrow range reads its window, a top-10 walk a few
/// thousand rows of 100k.
#[test]
fn probes_read_no_more_rows_than_the_scan() {
    let entries = corpus_100k();
    let idx = ShotIndex::from_entries(entries.clone());
    for q in workload(&entries) {
        for k in [None, Some(10), Some(1 << 40)] {
            let (_, _, ex) = idx.select(&q, k, usize::MAX, None);
            assert!(ex.probe.candidates <= idx.len(), "{q:?} k={k:?}: {ex:?}");
        }
    }
    let q = VarianceQuery::new(4.0, 16.0).with_tolerances(0.5, 0.5);
    let (_, range) = idx.probe_range(&q);
    assert!(
        range.candidates < entries.len() / 2,
        "selective probe read {} of {}",
        range.candidates,
        entries.len()
    );
    let (_, top) = idx.probe_topk(&q, 10);
    assert!(
        top.candidates < entries.len() / 10,
        "top-10 walk read {} of {}",
        top.candidates,
        entries.len()
    );

    let tiny = ShotIndex::from_entries(mixture(4, 9));
    assert!(tiny.probe_range(&q).1.candidates <= 4);
    assert!(tiny.probe_topk(&q, 10).1.candidates <= 4);
}
