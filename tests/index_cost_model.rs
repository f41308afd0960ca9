//! Cost-model accuracy, in the lantern `hnsw_cost_estimate` style: for a
//! grid of index parameters, the *predicted* probe cost must (a) move
//! monotonically with every parameter that increases real work and
//! (b) track the *measured* candidates-scored of the live index within a
//! stated margin on a 100k-shot corpus.
//!
//! Margin contract: summed over the probe workload, estimated candidates
//! are within ±30% of measured; per-query, the median absolute relative
//! error is within 30%. (Individual off-distribution probes may miss by
//! more — the histogram has 256 bins, not a copy of the corpus — which is
//! exactly the imprecision the planner is designed to tolerate.)

use vdb_core::index::{BucketParams, IndexEntry, PlanChoice, ShotIndex, ShotKey, VarianceQuery};
use vdb_core::variance::ShotFeature;
use vdb_obs::TraceContext;
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
/// tolerances.
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
    out
}

fn params(width: f64) -> BucketParams {
    BucketParams {
        bucket_width: width,
        stats_bins: 256,
    }
}

/// ±30%: estimated candidates track measured candidates-scored, both
/// summed over the workload and per-query (median), for every bucket
/// width in the grid.
#[test]
fn estimate_tracks_measured_candidates_within_margin() {
    let entries = corpus_100k();
    for width in [0.1, 0.25, 0.5, 1.0] {
        let idx = ShotIndex::from_entries(entries.clone(), params(width));
        let model = idx.cost_model();
        let mut est_sum = 0.0;
        let mut meas_sum = 0.0;
        let mut rel_errors = Vec::new();
        for q in workload(&entries) {
            let est = model.estimate_range(q.d_v(), q.alpha);
            let (_, stats) = idx.probe_range(&q);
            est_sum += est.candidates;
            meas_sum += stats.candidates as f64;
            if stats.candidates > 0 {
                rel_errors.push(
                    (est.candidates - stats.candidates as f64).abs() / stats.candidates as f64,
                );
            }
        }
        let agg_err = (est_sum - meas_sum).abs() / meas_sum;
        assert!(
            agg_err <= 0.30,
            "width={width}: aggregate estimate off by {:.1}% (est {est_sum:.0} vs measured {meas_sum:.0})",
            agg_err * 100.0
        );
        rel_errors.sort_by(f64::total_cmp);
        let median = rel_errors[rel_errors.len() / 2];
        assert!(
            median <= 0.30,
            "width={width}: median per-query error {:.1}%",
            median * 100.0
        );
    }
}

/// Buckets-touched predictions must also track reality — within ±30% or
/// ±2 buckets (whichever is looser, for very narrow probes).
#[test]
fn estimate_tracks_measured_buckets_touched() {
    let entries = corpus_100k();
    let idx = ShotIndex::from_entries(entries.clone(), params(0.25));
    let model = idx.cost_model();
    for (qi, q) in workload(&entries).into_iter().enumerate() {
        let est = model.estimate_range(q.d_v(), q.alpha);
        let (_, stats) = idx.probe_range(&q);
        let diff = (est.buckets_touched - stats.buckets_touched as f64).abs();
        assert!(
            diff <= 2.0 + 0.30 * stats.buckets_touched as f64,
            "query {qi}: predicted {:.1} buckets, touched {}",
            est.buckets_touched,
            stats.buckets_touched
        );
    }
}

/// lantern-style monotonicity: a wider α window means more work.
#[test]
fn estimated_cost_monotone_in_alpha() {
    let idx = ShotIndex::from_entries(corpus_100k(), params(0.25));
    let model = idx.cost_model();
    let mut last = 0.0;
    for alpha in [0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0] {
        let est = model.estimate_range(3.0, alpha);
        assert!(
            est.total >= last,
            "alpha={alpha}: cost {} fell below {last}",
            est.total
        );
        last = est.total;
    }
}

/// More data, same query → more predicted work (and a bigger scan cost).
#[test]
fn estimated_cost_monotone_in_corpus_size() {
    let mut last_total = 0.0;
    let mut last_scan = 0.0;
    for n in [1_000usize, 10_000, 100_000] {
        let idx = ShotIndex::from_entries(mixture(n, 42), params(0.25));
        let est = idx.cost_model().estimate_range(3.0, 1.0);
        assert!(est.total > last_total, "n={n}");
        assert!(idx.cost_model().scan_cost() > last_scan, "n={n}");
        last_total = est.total;
        last_scan = idx.cost_model().scan_cost();
    }
}

/// Coarser buckets snap the probe window outward to coarser edges, so
/// along a doubling chain of widths (whose bucket edges nest) predicted
/// candidates may only grow.
#[test]
fn estimated_candidates_monotone_in_bucket_width() {
    let entries = corpus_100k();
    let mut last = 0.0;
    for width in [0.125, 0.25, 0.5, 1.0, 2.0] {
        let idx = ShotIndex::from_entries(entries.clone(), params(width));
        let est = idx.cost_model().estimate_range(3.0, 0.3);
        assert!(
            est.candidates + 1e-9 >= last,
            "width={width}: candidates {} fell below {last}",
            est.candidates
        );
        last = est.candidates;
    }
}

/// Larger k → at least as much predicted work.
#[test]
fn estimated_cost_monotone_in_k() {
    let idx = ShotIndex::from_entries(corpus_100k(), params(0.25));
    let model = idx.cost_model();
    let mut last = 0.0;
    for k in [1usize, 10, 100, 1_000, 10_000, 100_000] {
        let est = model.estimate_topk(3.0, k);
        assert!(est.total >= last, "k={k}");
        last = est.total;
    }
}

/// EXPLAIN consistency: over the same probe workload as the margin tests,
/// the explain payload's estimated side equals the cost model's numbers
/// *exactly* (explain reports the plan that was priced, it never re-prices),
/// its actual side equals the executed probe's measured work exactly, and
/// the ±30% estimate-vs-measured margin therefore carries over to the
/// explain payload itself.
#[test]
fn explain_is_consistent_with_model_and_measured_work() {
    let entries = corpus_100k();
    let idx = ShotIndex::from_entries(entries.clone(), params(0.25));
    let model = idx.cost_model();
    let mut rel_errors = Vec::new();
    for (qi, q) in workload(&entries).into_iter().enumerate() {
        let est = model.estimate_range(q.d_v(), q.alpha);
        let (matches, ex) = idx.search(&q, None, &TraceContext::disabled());

        // Estimated side: the cost model's numbers, bit-for-bit.
        assert_eq!(ex.plan.index_cost.candidates, est.candidates, "query {qi}");
        assert_eq!(
            ex.plan.index_cost.buckets_touched, est.buckets_touched,
            "query {qi}"
        );
        let (lo, hi, _) = model.probe_window(q.d_v(), q.alpha);
        assert_eq!(ex.probe_window, (lo, hi), "query {qi}");

        // Actual side: the measured work of the probe that really ran.
        match ex.plan.choice {
            PlanChoice::Buckets => {
                let (_, stats) = idx.probe_range(&q);
                assert_eq!(ex.probe.candidates, stats.candidates, "query {qi}");
                assert_eq!(
                    ex.probe.buckets_touched, stats.buckets_touched,
                    "query {qi}"
                );
            }
            PlanChoice::Scan => {
                assert_eq!(
                    ex.probe.candidates,
                    idx.len(),
                    "query {qi}: scan = all rows"
                );
            }
        }
        assert_eq!(ex.matches, matches.len(), "query {qi}");
        assert_eq!(ex.rows, idx.len(), "query {qi}");
        assert_eq!(ex.staged_rows, 0, "query {qi}: nothing staged");

        if ex.probe.candidates > 0 {
            rel_errors.push(
                (ex.plan.index_cost.candidates - ex.probe.candidates as f64).abs()
                    / ex.probe.candidates as f64,
            );
        }
    }
    // The margin contract, read off the explain payloads alone.
    rel_errors.sort_by(f64::total_cmp);
    let median = rel_errors[rel_errors.len() / 2];
    assert!(
        median <= 0.30,
        "median explain est-vs-actual error {:.1}%",
        median * 100.0
    );

    // Top-k explains obey the same contract against the top-k estimator.
    let q = VarianceQuery::new(4.0, 16.0);
    for k in [1usize, 10, 100, 1_000] {
        let est = model.estimate_topk(q.d_v(), k);
        let (matches, ex) = idx.search(&q, Some(k), &TraceContext::disabled());
        assert_eq!(ex.plan.index_cost.candidates, est.candidates, "k={k}");
        assert_eq!(
            ex.plan.index_cost.buckets_touched, est.buckets_touched,
            "k={k}"
        );
        let (lo, hi, _) = model.topk_window(q.d_v(), k);
        assert_eq!(ex.probe_window, (lo, hi), "k={k}");
        if ex.plan.choice == PlanChoice::Buckets {
            let (_, stats) = idx.probe_topk(&q, k);
            assert_eq!(ex.probe.candidates, stats.candidates, "k={k}");
        }
        assert_eq!(ex.matches, matches.len(), "k={k}");
        assert_eq!(matches.len(), k.min(idx.len()), "k={k}");
    }
}

/// The crossover the planner exists for: a selective probe on a big
/// corpus routes to the buckets, any probe on a tiny corpus routes to
/// the scan — and on the big corpus the bucket probe really does score
/// far fewer candidates than the scan would.
#[test]
fn planner_crossover_matches_measured_work() {
    let entries = corpus_100k();
    let idx = ShotIndex::from_entries(entries.clone(), params(0.25));
    let q = VarianceQuery::new(4.0, 16.0).with_tolerances(0.5, 0.5);
    let plan = idx.plan_range(&q);
    assert_eq!(plan.choice, PlanChoice::Buckets);
    assert!(plan.index_cost.total < plan.scan_cost);
    let (_, stats) = idx.probe_range(&q);
    assert!(
        (stats.candidates as f64) < 0.5 * entries.len() as f64,
        "selective probe scored {} of {}",
        stats.candidates,
        entries.len()
    );

    let tiny = ShotIndex::from_entries(mixture(4, 9), params(0.25));
    assert_eq!(tiny.plan_range(&q).choice, PlanChoice::Scan);
}
