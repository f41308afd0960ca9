//! Query output pinned against an independent reference.
//!
//! The reference re-implements the §4.2 answer walk from public APIs
//! only: the uncapped index probe (`index().select`), the
//! catalog and [`QuerySpec::keeps`] for the genre/form predicate,
//! [`SceneTree::largest_scene_for_shot`] and `node().name()` for the
//! browsing node, then the `limit`. Every entry point that answers a
//! variance query — `query_str`, the shell's `query` and `explain`, and a
//! shard's `query_str_sharded` — must agree with it over a grid of
//! tolerances, limits, filters and top-k sizes. An `explain` line must
//! also report exactly the work of the index selection the reply needs.
//!
//! [`SceneTree::largest_scene_for_shot`]: vdb_core::scenetree::SceneTree::largest_scene_for_shot

use std::fmt::Write as _;

use vdb_core::analyzer::VideoAnalyzer;
use vdb_core::index::ShotKey;
use vdb_store::db::{QueryAnswer, ShardQueryAnswers, ShardQueryRow, SHOWN_ANSWERS};
use vdb_store::shell::{execute_readonly, Command};
use vdb_store::{QuerySpec, VideoDatabase};
use vdb_synth::script::generate;
use vdb_synth::{build_script, Genre};

/// Rows a shell `query`/`explain` reply prints.
const SHOWN: usize = 10;

/// Three analysed clips, each stored under several genre/form classes,
/// so identical features tie on distance and the filters bite.
fn corpus() -> VideoDatabase {
    let mut db = VideoDatabase::new();
    let t = db.taxonomy().clone();
    let classes = [
        ("comedy", "feature"),
        ("horror", "feature"),
        ("comedy", "short"),
        ("western", "short"),
    ];
    let genres = [Genre::Sitcom, Genre::Movie, Genre::Cartoon];
    for (seed, genre) in genres.into_iter().enumerate() {
        let clip = generate(&build_script(
            genre,
            10,
            Some(8.0),
            (80, 60),
            700 + seed as u64,
        ));
        let analysis = VideoAnalyzer::new().analyze(&clip.video).unwrap();
        for (g, f) in classes {
            db.ingest_precomputed(
                format!("clip-{seed}-{g}-{f}"),
                clip.video.dims(),
                clip.video.fps(),
                analysis.clone(),
                vec![t.genre(g).unwrap()],
                vec![t.form(f).unwrap()],
            )
            .unwrap();
        }
    }
    db
}

/// Every match of the index probe, tagged with the spec's predicate and
/// mapped to its largest scene node, nearest first, before any limit.
fn reference_rows(db: &VideoDatabase, spec: &QuerySpec) -> Vec<(QueryAnswer, bool)> {
    let (matches, _, _) = db.index().select(&spec.variance, spec.k, usize::MAX, None);
    let mut rows = Vec::new();
    for m in matches {
        let Some(meta) = db.catalog().get(m.entry.key.video) else {
            continue;
        };
        let Ok(stored) = db.analysis(m.entry.key.video) else {
            continue;
        };
        let tree = &stored.scene_tree;
        let Some(node_id) = tree.largest_scene_for_shot(m.entry.key.shot as usize) else {
            continue;
        };
        let node = tree.node(node_id);
        let answer = QueryAnswer {
            key: m.entry.key,
            distance: m.distance,
            var_ba: m.entry.var_ba,
            var_oa: m.entry.var_oa,
            scene_node: node_id,
            scene_name: node.name(),
            rep_frame: node.rep_frame,
        };
        rows.push((answer, spec.keeps(meta)));
    }
    rows
}

/// The single-node answer list: kept rows, then the limit.
fn reference_answers(db: &VideoDatabase, spec: &QuerySpec) -> Vec<QueryAnswer> {
    let mut kept: Vec<QueryAnswer> = reference_rows(db, spec)
        .into_iter()
        .filter(|(_, keep)| *keep)
        .map(|(a, _)| a)
        .collect();
    if let Some(limit) = spec.limit {
        kept.truncate(limit);
    }
    kept
}

/// The shell's count line and up to ten rows.
fn reference_render(answers: &[QueryAnswer]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "  {} answers", answers.len());
    for a in answers.iter().take(SHOWN) {
        let _ = writeln!(
            out,
            "  video {} shot#{:<3} Var^BA={:6.2} Var^OA={:6.2} -> {} (rep frame {})",
            a.key.video,
            a.key.shot + 1,
            a.var_ba,
            a.var_oa,
            a.scene_name,
            a.rep_frame
        );
    }
    out
}

/// A shard's reply: range mode ships the first kept rows up to the cap,
/// top-k mode every tagged row; `kept_total` counts kept rows pre-limit.
fn reference_sharded(db: &VideoDatabase, spec: &QuerySpec) -> ShardQueryAnswers {
    let rows = reference_rows(db, spec);
    let kept_total = rows.iter().filter(|(_, keep)| *keep).count();
    let cap = match spec.k {
        Some(_) => usize::MAX,
        None => SHOWN_ANSWERS,
    };
    let rows = rows
        .into_iter()
        .filter(|(_, keep)| spec.k.is_some() || *keep)
        .take(cap)
        .map(|(answer, keep)| ShardQueryRow { answer, keep })
        .collect();
    ShardQueryAnswers {
        k: spec.k,
        limit: spec.limit,
        rows,
        kept_total,
    }
}

/// Check every entry point against the reference for one query text.
fn check(db: &VideoDatabase, text: &str) {
    let spec = QuerySpec::parse(text, db.taxonomy()).unwrap();
    let answers = reference_answers(db, &spec);
    assert_eq!(db.query_str(text).unwrap(), answers, "query_str {text}");

    let render = reference_render(&answers);
    let query = execute_readonly(db, &Command::parse(&format!("query {text}"))).unwrap();
    assert_eq!(query, render, "shell query {text}");

    // `explain` reports the work of the probe the shell ran: capped at
    // the rows a reply prints, with the spec's filter as the keep
    // predicate (a range walk stops once no further kept row can show).
    let cap = spec.limit.unwrap_or(usize::MAX).min(SHOWN);
    let mut keep = |key: ShotKey| db.catalog().get(key.video).is_some_and(|m| spec.keeps(m));
    let keep = spec
        .filters()
        .then_some(&mut keep as &mut dyn FnMut(ShotKey) -> bool);
    let (_, _, explain) = db.index().select(&spec.variance, spec.k, cap, keep);
    let explained = execute_readonly(db, &Command::parse(&format!("explain {text}"))).unwrap();
    assert_eq!(
        explained,
        format!("  {}\n{render}", explain.summary()),
        "shell explain {text}"
    );

    let sharded = db.query_str_sharded(text).unwrap();
    assert_eq!(sharded, reference_sharded(db, &spec), "sharded {text}");
}

#[test]
fn every_entry_point_matches_the_reference_walk() {
    let db = corpus();
    let t = db.taxonomy().clone();
    let mut points: Vec<(f64, f64)> = vec![(0.0, 0.0)];
    for id in [1u64, 6, 11] {
        let features = &db.analysis(id).unwrap().features;
        for f in [features[0], features[features.len() / 2]] {
            points.push((f.var_ba, f.var_oa));
        }
    }
    let filters = ["", "genre=comedy", "genre=comedy form=feature"];
    let mut widest_kept = 0;

    for &(ba, oa) in &points {
        for alpha in [0.5, 1.0, 1000.0] {
            let base = format!("ba={ba} oa={oa} alpha={alpha} beta={alpha}");
            for filter in filters {
                let open = format!("{base} {filter}");
                let spec = QuerySpec::parse(&open, &t).unwrap();
                let kept = reference_answers(&db, &spec).len();
                widest_kept = widest_kept.max(kept);
                check(&db, &open);
                for limit in [0, 1, 8, 10, kept + 5] {
                    check(&db, &format!("{open} limit={limit}"));
                }
            }
        }
        for k in [1, 10, 50] {
            let base = format!("ba={ba} oa={oa} k={k}");
            check(&db, &base);
            check(&db, &format!("{base} limit=3"));
            check(&db, &format!("{base} genre=comedy"));
            check(&db, &format!("{base} genre=comedy form=feature limit=3"));
        }
    }
    assert!(
        widest_kept > SHOWN.max(SHOWN_ANSWERS),
        "some query must keep more rows than a reply shows ({widest_kept})"
    );
}

#[test]
fn typed_queries_match_the_reference_walk() {
    let db = corpus();
    let t = db.taxonomy().clone();
    let f = db.analysis(6).unwrap().features[1];
    for alpha in [0.5, 1.0, 1000.0] {
        let text = format!("ba={} oa={} alpha={alpha} beta={alpha}", f.var_ba, f.var_oa);
        let spec = QuerySpec::parse(&text, &t).unwrap();
        assert_eq!(db.query_str(&text).unwrap(), reference_answers(&db, &spec));

        let scoped_text = format!("{text} genre=horror form=feature");
        let scoped = QuerySpec::parse(&scoped_text, &t).unwrap();
        let answers = db.query_str(&scoped_text).unwrap();
        assert!(!answers.is_empty(), "the filter keeps some rows");
        assert_eq!(answers, reference_answers(&db, &scoped));
    }
    for k in [1, 10, 50] {
        let text = format!("ba={} oa={} k={k}", f.var_ba, f.var_oa);
        let spec = QuerySpec::parse(&text, &t).unwrap();
        assert_eq!(db.query_str(&text).unwrap(), reference_answers(&db, &spec));
    }
}
