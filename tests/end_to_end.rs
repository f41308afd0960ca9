//! End-to-end integration: synthetic clip → ingest → analyze → persist →
//! query → browse, spanning all five crates.

use vdb_core::index::VarianceQuery;
use vdb_eval::metrics::evaluate_boundaries;
use vdb_eval::retrieval::{label_for, location_for, movie_script};
use vdb_store::{find_node, node_view, VideoDatabase};
use vdb_synth::script::generate;
use vdb_synth::{build_script, Genre};

#[test]
fn genre_clip_roundtrip_through_database() {
    let script = build_script(Genre::Sitcom, 16, Some(9.0), (80, 60), 555);
    let clip = generate(&script);

    let mut db = VideoDatabase::new();
    let taxonomy = db.taxonomy().clone();
    let id = db
        .ingest(
            "sitcom-e2e",
            &clip.video,
            vec![taxonomy.genre("comedy").unwrap()],
            vec![taxonomy.form("television series").unwrap()],
        )
        .unwrap();

    let analysis = db.analysis(id).unwrap();

    // Detection quality against the script's ground truth.
    let detected: Vec<usize> = analysis.shots.iter().skip(1).map(|s| s.start).collect();
    let eval = evaluate_boundaries(&clip.truth.boundaries, &detected, 2);
    assert!(
        eval.recall() >= 0.6 && eval.precision() >= 0.6,
        "sitcom detection degraded: recall {:.2} precision {:.2}",
        eval.recall(),
        eval.precision()
    );

    // The scene tree is structurally sound and covers every shot.
    analysis.scene_tree.check_invariants().unwrap();
    assert_eq!(analysis.scene_tree.shot_count(), analysis.shots.len());

    // Features align with shots; the index has one row per shot.
    assert_eq!(analysis.features.len(), analysis.shots.len());
    assert_eq!(db.index().len(), analysis.shots.len());

    // Every query answer names a node that browsing can open, and the node
    // plays the answer's shot.
    let q = VarianceQuery::by_example(analysis.features[0]);
    let answers = db.query(&q);
    assert!(!answers.is_empty());
    for a in &answers {
        let analysis = db.analysis(a.key.video).unwrap();
        let name = a.scene_name.parse().unwrap();
        assert_eq!(find_node(&analysis.scene_tree, name), Some(a.scene_node));
        let (lo, hi) = node_view(analysis, a.scene_node).frame_range;
        let shot = &analysis.shots[a.key.shot as usize];
        assert!(lo <= shot.start && shot.end <= hi);
    }
}

#[test]
fn scenes_are_anchored_by_related_shots() {
    // The paper's scenes deliberately absorb interleaved shots (Fig. 6(a):
    // shot#2 joins EN1 because it sits *between* the related shots #1 and
    // #3), and scenario 3 can even place the anchor one level up (the
    // paper's Fig. 6(d): EN2 = {C, A2} is anchored by A2~A1 across EN3).
    // The guarantee on real pipeline output: every non-root multi-shot
    // scene contains a shot related to another shot under its parent.
    let script = build_script(Genre::SoapOpera, 14, Some(12.0), (80, 60), 808);
    let clip = generate(&script);
    let mut db = VideoDatabase::new();
    let id = db.ingest("soap", &clip.video, vec![], vec![]).unwrap();
    let analysis = db.analysis(id).unwrap();
    let _ = location_for(&clip.truth, &analysis.shots[0]); // mapping sanity

    let tree = &analysis.scene_tree;
    tree.check_invariants().unwrap();
    let shot_signs = |s: usize| {
        let shot = &analysis.shots[s];
        &analysis.signs_ba[shot.start..=shot.end]
    };
    let leaves_under = |root: vdb_core::scenetree::NodeId| {
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            let nd = tree.node(n);
            if let Some(s) = nd.shot {
                out.push(s);
            }
            stack.extend(nd.children.iter().copied());
        }
        out
    };
    for node in tree.nodes() {
        if node.is_leaf() || node.id == tree.root() {
            continue;
        }
        let inside = leaves_under(node.id);
        if inside.len() < 2 {
            continue;
        }
        let scope = leaves_under(node.parent.expect("non-root"));
        let anchored = inside.iter().any(|&a| {
            scope.iter().any(|&b| {
                a != b
                    && (vdb_core::relationship::shots_related(shot_signs(a), shot_signs(b))
                        || vdb_core::relationship::shots_related(shot_signs(b), shot_signs(a)))
            })
        });
        assert!(
            anchored,
            "scene {} groups shots {inside:?} without a related anchor",
            node.name()
        );
    }
}

#[test]
fn multi_video_queries_stay_isolated_per_class() {
    let mut db = VideoDatabase::new();
    let taxonomy = db.taxonomy().clone();
    let comedy = taxonomy.genre("comedy").unwrap();
    let western = taxonomy.genre("western").unwrap();
    let feature = taxonomy.form("feature").unwrap();

    let clip_a = generate(&movie_script(11, 12));
    let clip_b = generate(&movie_script(22, 12));
    let a = db
        .ingest("a", &clip_a.video, vec![comedy], vec![feature])
        .unwrap();
    let b = db
        .ingest("b", &clip_b.video, vec![western], vec![feature])
        .unwrap();

    // An open query may hit both; class-scoped queries never cross.
    let q = "ba=0.1 oa=12 alpha=3 beta=3";
    for ans in db
        .query_str(&format!("{q} genre=comedy form=feature"))
        .unwrap()
    {
        assert_eq!(ans.key.video, a);
    }
    for ans in db
        .query_str(&format!("{q} genre=western form=feature"))
        .unwrap()
    {
        assert_eq!(ans.key.video, b);
    }
}

#[test]
fn archetype_labels_survive_detection_mapping() {
    // The overlap mapping used by the retrieval experiments must assign a
    // label to every detected shot of an archetype movie.
    let clip = generate(&movie_script(33, 15));
    let mut db = VideoDatabase::new();
    let id = db.ingest("movie", &clip.video, vec![], vec![]).unwrap();
    let analysis = db.analysis(id).unwrap();
    for shot in &analysis.shots {
        assert!(
            label_for(&clip.truth, shot).is_some(),
            "unlabeled detected shot {shot:?}"
        );
    }
}

#[test]
fn production_pipeline_y4m_streaming_journal() {
    // The "real deployment" path: footage arrives as a .y4m stream, is
    // analyzed frame-at-a-time, and lands durably in a journaled store.
    use vdb_core::pipeline::AnalysisEngine;
    use vdb_store::JournaledDatabase;
    use vdb_synth::y4m::{read_y4m, write_y4m, ChromaMode};

    let dir = std::env::temp_dir().join(format!("vdb-prod-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let y4m_path = dir.join("feed.y4m");
    let db_path = dir.join("store.vdbs");

    // A clip goes out as real-world 4:2:0...
    let clip = generate(&build_script(Genre::News, 8, Some(8.0), (80, 60), 777));
    let mut f = std::fs::File::create(&y4m_path).unwrap();
    write_y4m(&clip.video, ChromaMode::C420, &mut f).unwrap();
    drop(f);

    // ...comes back in from the file...
    let file = std::fs::File::open(&y4m_path).unwrap();
    let video = read_y4m(&mut std::io::BufReader::new(file)).unwrap();

    // ...is analyzed incrementally...
    let mut analyzer = AnalysisEngine::default();
    for frame in video.frames() {
        analyzer.push_frame(frame).unwrap();
    }
    let analysis = analyzer.finish().unwrap();
    analysis.scene_tree.check_invariants().unwrap();

    // ...and persisted durably via the journal.
    {
        let mut journal = JournaledDatabase::open(&db_path, Default::default()).unwrap();
        let id = journal.ingest("live-feed", &video, vec![], vec![]).unwrap();
        // The streaming analysis equals what the store computed at ingest.
        assert_eq!(journal.db().analysis(id).unwrap().shots, analysis.shots());
    }
    // Survives a process restart.
    let journal = JournaledDatabase::open(&db_path, Default::default()).unwrap();
    assert_eq!(journal.db().len(), 1);
    let q = VarianceQuery::new(0.5, 5.0).with_tolerances(5.0, 5.0);
    let _ = journal.db().query(&q);
    std::fs::remove_dir_all(&dir).unwrap();
}
