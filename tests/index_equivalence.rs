//! The pin on the index table: its results are **exactly** the linear
//! scan's — same IDs, same order — for range and top-k, on corpora shaped
//! like three different genres at three sizes, three corpora per cell.
//!
//! The reference ranking is reimplemented *here* from the paper's
//! formulas (Eqs. 7–8 window, Euclidean distance in `(D^v, √Var^BA)`
//! space), independent of `vdb-core`'s own scan, so a shared bug cannot
//! hide. The tie-break contract under test: results ascend by
//! `(distance, ShotKey)` — equal-distance shots come back in
//! `(video, shot)` order.

use proptest::prelude::*;
use vdb_core::index::{IndexEntry, Match, ShotIndex, ShotKey, VarianceQuery};
use vdb_core::variance::ShotFeature;
use vdb_synth::rng::Srng;
use vdb_synth::Genre;

/// Per-genre feature statistics: cluster centres and spreads of
/// `(Var^BA, Var^OA)` loosely shaped like the genre's editing style
/// (sitcoms: static backgrounds, moderate foreground; sports: sweeping
/// pans, big background variance; music videos: everything everywhere).
fn genre_clusters(genre: Genre) -> &'static [(f64, f64, f64)] {
    // (var_ba centre, var_oa centre, spread)
    match genre {
        Genre::Sitcom => &[(2.0, 12.0, 1.5), (4.0, 20.0, 2.0), (1.0, 6.0, 0.8)],
        Genre::Sports => &[(40.0, 25.0, 8.0), (60.0, 30.0, 10.0), (25.0, 18.0, 5.0)],
        _ => &[(10.0, 10.0, 6.0), (50.0, 45.0, 15.0), (5.0, 30.0, 4.0)],
    }
}

/// A deterministic synthetic corpus of index rows for one genre.
/// Roughly 1 in 50 rows duplicates the previous row's feature exactly,
/// so equal-distance ties are always present.
fn corpus(genre: Genre, n: usize, seed: u64) -> Vec<IndexEntry> {
    let clusters = genre_clusters(genre);
    let mut rng = Srng::new(seed ^ 0x1db1);
    let mut out = Vec::with_capacity(n);
    let mut last = ShotFeature {
        var_ba: 1.0,
        var_oa: 1.0,
    };
    for i in 0..n {
        let feature = if i > 0 && rng.chance(0.02) {
            last // exact duplicate: forces the tie-break path
        } else {
            let (cb, co, s) = *rng.pick(clusters);
            ShotFeature {
                var_ba: (cb + rng.gauss() * s).max(0.0),
                var_oa: (co + rng.gauss() * s).max(0.0),
            }
        };
        last = feature;
        out.push(IndexEntry::new(
            ShotKey {
                video: (i / 200) as u64,
                shot: (i % 200) as u32,
            },
            feature,
        ));
    }
    out
}

/// Brute-force range reference, straight from the paper: keep entries
/// with `|D^v − D_q^v| ≤ α` (Eq. 7) and `|√Var^BA − √Var_q^BA| ≤ β`
/// (Eq. 8), rank by Euclidean distance in `(D^v, √Var^BA)`, ties by key.
fn brute_range(entries: &[IndexEntry], q: &VarianceQuery) -> Vec<ShotKey> {
    let dq = q.var_ba.sqrt() - q.var_oa.sqrt();
    let sq = q.var_ba.sqrt();
    let mut hits: Vec<(f64, ShotKey)> = entries
        .iter()
        .filter(|e| {
            let dv = e.var_ba.sqrt() - e.var_oa.sqrt();
            (dv - dq).abs() <= q.alpha && (e.var_ba.sqrt() - sq).abs() <= q.beta
        })
        .map(|e| {
            let dv = e.var_ba.sqrt() - e.var_oa.sqrt();
            let d = ((dv - dq).powi(2) + (e.var_ba.sqrt() - sq).powi(2)).sqrt();
            (d, e.key)
        })
        .collect();
    hits.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    hits.into_iter().map(|(_, k)| k).collect()
}

/// Brute-force top-k reference: every entry ranked, first `k` kept.
fn brute_topk(entries: &[IndexEntry], q: &VarianceQuery, k: usize) -> Vec<ShotKey> {
    let dq = q.var_ba.sqrt() - q.var_oa.sqrt();
    let sq = q.var_ba.sqrt();
    let mut ranked: Vec<(f64, ShotKey)> = entries
        .iter()
        .map(|e| {
            let dv = e.var_ba.sqrt() - e.var_oa.sqrt();
            let d = ((dv - dq).powi(2) + (e.var_ba.sqrt() - sq).powi(2)).sqrt();
            (d, e.key)
        })
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    ranked.truncate(k);
    ranked.into_iter().map(|(_, k)| k).collect()
}

/// Queries that stress a corpus: by-example probes on real rows, plus
/// off-distribution points, at mixed tolerances.
fn probe_set(entries: &[IndexEntry], seed: u64) -> Vec<VarianceQuery> {
    let mut rng = Srng::new(seed ^ 0x9e3);
    let mut out = Vec::new();
    for i in 0..4 {
        let e = entries[rng.range_usize(0, entries.len() - 1)];
        let q = VarianceQuery::by_example(ShotFeature {
            var_ba: e.var_ba,
            var_oa: e.var_oa,
        });
        out.push(q.with_tolerances(0.5 + i as f64, 0.5 + i as f64 * 1.5));
    }
    out.push(VarianceQuery::new(0.0, 0.0).with_tolerances(2.0, 2.0));
    out.push(VarianceQuery::new(500.0, 1.0).with_tolerances(3.0, 3.0));
    out
}

const GENRES: [Genre; 3] = [Genre::Sitcom, Genre::Sports, Genre::MusicVideo];

fn keys(matches: Vec<Match>) -> Vec<ShotKey> {
    matches.into_iter().map(|m| m.entry.key).collect()
}

fn check_corpus(entries: &[IndexEntry], seed: u64, label: &str) {
    let idx = ShotIndex::from_entries(entries.to_vec());
    for (qi, q) in probe_set(entries, seed).into_iter().enumerate() {
        let got = keys(idx.select(&q, None, usize::MAX, None).0);
        assert_eq!(got, brute_range(entries, &q), "{label} query {qi} (range)");
        let scan: Vec<ShotKey> = idx
            .query_scan(&q)
            .into_iter()
            .map(|m| m.entry.key)
            .collect();
        assert_eq!(got, scan, "{label} query {qi} (forced scan)");
        for k in [1usize, 10, 100] {
            let got = keys(idx.select(&q, Some(k), usize::MAX, None).0);
            assert_eq!(
                got,
                brute_topk(entries, &q, k),
                "{label} query {qi} (top-{k})"
            );
        }
    }
}

/// The deterministic grid: 3 genres × sizes {1e3, 1e4, 1e5}, three
/// corpus seeds per genre and size, every corpus pinned against the
/// brute-force reference. (The 1e5 tier runs one seed per genre to keep
/// debug-build wall time sane — the smaller tiers cover every seed.)
#[test]
fn grid_genres_sizes_params() {
    for (gi, &genre) in GENRES.iter().enumerate() {
        for variant in 0..3 {
            for (si, &n) in [1_000usize, 10_000].iter().enumerate() {
                let seed = 7_000 + (gi * 100 + variant * 10 + si) as u64;
                let entries = corpus(genre, n, seed);
                check_corpus(&entries, seed, &format!("{genre:?}/n={n}/seed={seed}"));
            }
        }
        let seed = 8_000 + gi as u64;
        let entries = corpus(genre, 100_000, seed);
        check_corpus(&entries, seed, &format!("{genre:?}/n=100000"));
    }
}

/// Adversarial shapes the grid's genre mixtures do not produce.
#[test]
fn degenerate_corpora() {
    // All rows identical: pure tie-break ordering.
    let same: Vec<IndexEntry> = (0..2_000)
        .map(|i| {
            IndexEntry::new(
                ShotKey {
                    video: (i % 17) as u64,
                    shot: i as u32,
                },
                ShotFeature {
                    var_ba: 9.0,
                    var_oa: 16.0,
                },
            )
        })
        .collect();
    check_corpus(&same, 1, "identical-rows");
    // Two far-apart clusters: probes between them, k spanning both.
    let mut split = corpus(Genre::Sitcom, 500, 2);
    for e in corpus(Genre::Sports, 500, 3) {
        split.push(IndexEntry::new(
            ShotKey {
                video: e.key.video + 1000,
                shot: e.key.shot,
            },
            ShotFeature {
                var_ba: e.var_ba + 5_000.0,
                var_oa: e.var_oa,
            },
        ));
    }
    check_corpus(&split, 4, "split-clusters");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn random_corpora_pin_bucket_to_brute_force(
        seed in 0u64..1_000_000,
        n in 1usize..2_000,
        ba in 0.0f64..120.0,
        oa in 0.0f64..120.0,
        alpha in 0.05f64..6.0,
        beta in 0.05f64..6.0,
        k in 1usize..64,
    ) {
        let genre = GENRES[(seed % 3) as usize];
        let entries = corpus(genre, n, seed);
        let idx = ShotIndex::from_entries(entries.clone());
        let q = VarianceQuery::new(ba, oa).with_tolerances(alpha, beta);
        let got = keys(idx.select(&q, None, usize::MAX, None).0);
        prop_assert_eq!(got, brute_range(&entries, &q));
        let got = keys(idx.select(&q, Some(k), usize::MAX, None).0);
        prop_assert_eq!(got, brute_topk(&entries, &q, k));
    }
}
