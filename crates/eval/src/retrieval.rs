//! Scene-tree and indexing experiments: Figures 5–7 (scene trees),
//! Table 3 (the per-shot feature table), Table 4 (the index tables for the
//! two movies), Figures 8–10 (variance-similarity retrieval), and the
//! browsing-hierarchy comparison.

use crate::report::{ratio, Table};
use vdb_baselines::BrowseTree;
use vdb_core::analyzer::{VideoAnalysis, VideoAnalyzer};
use vdb_core::index::{BucketParams, IndexEntry, ShotIndex, ShotKey, VarianceQuery};
use vdb_core::shot::Shot;
use vdb_synth::rng::Srng;
use vdb_synth::script::{generate, GeneratedVideo, GroundTruth, ShotSpec, VideoScript};
use vdb_synth::ShotArchetype;

/// Map a detected shot to the scripted shot with the largest frame overlap.
pub fn scripted_shot_for(truth: &GroundTruth, shot: &Shot) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None; // (overlap, scripted idx)
    for (i, &(s, e)) in truth.shot_ranges.iter().enumerate() {
        let lo = shot.start.max(s);
        let hi = shot.end.min(e);
        if lo <= hi {
            let overlap = hi - lo + 1;
            if best.map_or(true, |(b, _)| overlap > b) {
                best = Some((overlap, i));
            }
        }
    }
    best.map(|(_, i)| i)
}

/// The ground-truth label of a detected shot (via overlap mapping).
pub fn label_for(truth: &GroundTruth, shot: &Shot) -> Option<String> {
    scripted_shot_for(truth, shot).and_then(|i| truth.labels[i].clone())
}

/// The ground-truth location of a detected shot.
pub fn location_for(truth: &GroundTruth, shot: &Shot) -> Option<u32> {
    scripted_shot_for(truth, shot).map(|i| truth.locations[i])
}

/// The Figure 5 clip: ten shots A B A1 B1 C A2 C1 D D1 D2 over four
/// locations, with mild foreground life so the feature table (Table 3) is
/// non-trivial. Shot lengths mirror the worked example's proportions.
pub fn figure5_script(seed: u64) -> VideoScript {
    let mut rng = Srng::new(seed);
    let mut script = VideoScript::small(seed);
    let plan: [(u32, usize, &str); 10] = [
        (0, 20, "A"),
        (1, 10, "B"),
        (0, 9, "A1"),
        (1, 8, "B1"),
        (2, 12, "C"),
        (0, 7, "A2"),
        (2, 13, "C1"),
        (3, 11, "D"),
        (3, 6, "D1"),
        (3, 5, "D2"),
    ];
    let dims = (script.width, script.height);
    let mut visits: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    for (location, frames, label) in plan {
        // Alternate lively and static foregrounds so Var^OA varies by shot.
        let spec = if location % 2 == 0 {
            ShotArchetype::TalkingHeadCloseUp
                .to_spec(location, frames, dims, &mut rng)
                .labeled(label)
        } else {
            ShotSpec::fixed(location, frames).labeled(label)
        };
        // Each revisit films from a different camera position in the same
        // world, so cuts between same-location shots are detectable.
        let visit = *visits.entry(location).and_modify(|v| *v += 1).or_insert(0);
        let spec = spec.with_camera(revisit_camera(location, visit));
        script.push_shot(spec);
    }
    script
}

/// A static camera placed per `(location, visit)`: far-apart origins in the
/// same world, so revisits share a palette (RELATIONSHIP-related) but not
/// pixel content (cuts stay detectable).
fn revisit_camera(location: u32, visit: usize) -> vdb_synth::Camera {
    vdb_synth::Camera::fixed(
        f64::from(location) * 197.0 + visit as f64 * 641.0,
        f64::from(location) * 89.0 + (visit as f64 * 53.0) % 300.0,
    )
}

/// Seed for which the Figure 5/6/Table 3 pipeline run is verified (all ten
/// shots detected, tree shape matches the paper's figure).
pub const FIGURE5_SEED: u64 = 20007;

/// Result of the Figure 6 experiment: the real pipeline run on the
/// Figure 5 clip.
#[derive(Debug, Clone)]
pub struct SceneTreeExperiment {
    /// The generated clip's truth.
    pub truth: GroundTruth,
    /// The full analysis.
    pub analysis: VideoAnalysis,
}

impl SceneTreeExperiment {
    /// ASCII rendering of the resulting scene tree.
    pub fn render_tree(&self) -> String {
        self.analysis.scene_tree.render_ascii()
    }
}

/// Run the full pipeline on the Figure 5 clip.
pub fn run_figure6(seed: u64) -> SceneTreeExperiment {
    let g: GeneratedVideo = generate(&figure5_script(seed));
    let analysis = VideoAnalyzer::new()
        .analyze(&g.video)
        .expect("figure-5 clip is analyzable");
    SceneTreeExperiment {
        truth: g.truth,
        analysis,
    }
}

/// Table 3: the per-shot feature table of the Figure 5 clip.
pub fn run_table3(seed: u64) -> String {
    let exp = run_figure6(seed);
    let mut t = Table::new(vec![
        "Shot", "Label", "Start", "End", "Var^BA", "Var^OA", "sqrt BA", "sqrt OA", "D^v",
    ]);
    for (shot, feature) in exp.analysis.shots().iter().zip(&exp.analysis.features) {
        let label = label_for(&exp.truth, shot).unwrap_or_default();
        t.row(vec![
            format!("#{}", shot.id + 1),
            label,
            (shot.start + 1).to_string(), // the paper numbers frames from 1
            (shot.end + 1).to_string(),
            format!("{:.2}", feature.var_ba),
            format!("{:.2}", feature.var_oa),
            format!("{:.2}", feature.sqrt_ba()),
            format!("{:.2}", feature.sqrt_oa()),
            format!("{:.2}", feature.d_v()),
        ]);
    }
    t.render()
}

/// The Figure 7 clip: a one-minute sitcom segment. "Two women and one man
/// are having a conversation in a restaurant, and two men come and join
/// them." Locations: the restaurant wide shot (0) and per-speaker close-up
/// angles (1–4); the story is conversation → arrivals → bigger
/// conversation.
pub fn figure7_script(seed: u64) -> VideoScript {
    let mut rng = Srng::new(seed);
    let mut script = VideoScript::small(seed);
    let dims = (script.width, script.height);
    let close = |loc: u32, frames: usize, label: &str, rng: &mut Srng| {
        ShotArchetype::TalkingHeadCloseUp
            .to_spec(loc, frames, dims, rng)
            .labeled(label)
    };
    let wide = |loc: u32, frames: usize, label: &str, rng: &mut Srng| {
        let mut r2 = rng.fork(99);
        ShotArchetype::TwoPeopleDistant
            .to_spec(loc, frames, dims, &mut r2)
            .labeled(label)
    };
    // ~180 frames at 3 fps = one minute.
    let shots: Vec<ShotSpec> = vec![
        wide(0, 18, "restaurant-wide", &mut rng),
        close(1, 14, "woman-1", &mut rng),
        close(2, 12, "woman-2", &mut rng),
        close(1, 10, "woman-1", &mut rng),
        close(3, 12, "man-1", &mut rng),
        wide(0, 16, "restaurant-wide", &mut rng),
        close(4, 12, "men-arrive", &mut rng),
        close(3, 10, "man-1", &mut rng),
        close(4, 10, "men-arrive", &mut rng),
        wide(0, 20, "restaurant-wide", &mut rng),
    ];
    let mut visits: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    for s in shots {
        let visit = *visits
            .entry(s.location)
            .and_modify(|v| *v += 1)
            .or_insert(0);
        let cam = revisit_camera(s.location, visit);
        script.push_shot(s.with_camera(cam));
    }
    script
}

/// Verified seed for the Figure 7 experiment.
pub const FIGURE7_SEED: u64 = 70007;

/// Run the Figure 7 experiment and render the resulting scene tree with
/// story labels.
pub fn run_figure7(seed: u64) -> (SceneTreeExperiment, String) {
    let g = generate(&figure7_script(seed));
    let analysis = VideoAnalyzer::new()
        .analyze(&g.video)
        .expect("figure-7 clip is analyzable");
    let exp = SceneTreeExperiment {
        truth: g.truth,
        analysis,
    };
    let mut out = String::from("Scene tree of the synthetic 'Friends' segment:\n");
    out.push_str(&exp.render_tree());
    out.push_str("\nShot story labels:\n");
    for shot in exp.analysis.shots() {
        let label = label_for(&exp.truth, shot).unwrap_or_default();
        out.push_str(&format!("  shot#{}: {}\n", shot.id + 1, label));
    }
    (exp, out)
}

/// A synthetic "movie" built from archetype shots, standing in for the
/// paper's 'Simon Birch' / 'Wag the Dog' clips in Table 4 and Figures 8–10.
pub fn movie_script(name_seed: u64, shots: usize) -> VideoScript {
    let mut rng = Srng::new(name_seed);
    let mut script = VideoScript::small(name_seed);
    let dims = (script.width, script.height);
    let cycle = [
        ShotArchetype::TalkingHeadCloseUp,
        ShotArchetype::TwoPeopleDistant,
        ShotArchetype::MovingObjectChangingBackground,
        ShotArchetype::StaticScenery,
        ShotArchetype::ActionPan,
        ShotArchetype::MovingObjectChangingBackground,
    ];
    for i in 0..shots {
        let archetype = cycle[i % cycle.len()];
        let location = i as u32; // every shot a fresh location: clean cuts
        let frames = rng.range_usize(8, 16);
        script.push_shot(archetype.to_spec(location, frames, dims, &mut rng));
    }
    script
}

/// The Table 4 / Figures 8–10 experiment bundle.
#[derive(Debug)]
pub struct RetrievalExperiment {
    /// Movie names.
    pub names: [&'static str; 2],
    /// Per movie: ground truth and analysis.
    pub movies: [(GroundTruth, VideoAnalysis); 2],
}

/// Per-query outcome of a Figure 8/9/10 retrieval.
#[derive(Debug, Clone)]
pub struct RetrievalOutcome {
    /// The queried archetype.
    pub archetype: ShotArchetype,
    /// `(movie idx, shot id)` of the query shot.
    pub query: (usize, usize),
    /// Top answers as `(movie idx, shot id, label)` (query itself excluded).
    pub answers: Vec<(usize, usize, String)>,
    /// Fraction of answers sharing the query's archetype label.
    pub agreement: f64,
    /// Fraction of answers sharing the query's coarse *motion class*
    /// (static scenery / static camera + moving objects / moving camera).
    /// The paper's own Figure 10 mixes contents of one motion class
    /// ("all show a single moving object with a changing background").
    pub class_agreement: f64,
}

/// Coarse motion class of an archetype label; answers within one class
/// share the motion character the paper's similarity model captures.
pub fn motion_class(label: &str) -> &'static str {
    match ShotArchetype::from_label(label) {
        Some(ShotArchetype::StaticScenery) => "static",
        Some(ShotArchetype::TalkingHeadCloseUp) | Some(ShotArchetype::TwoPeopleDistant) => {
            "static-camera-moving-object"
        }
        Some(ShotArchetype::MovingObjectChangingBackground) | Some(ShotArchetype::ActionPan) => {
            "moving-camera"
        }
        None => "unknown",
    }
}

/// Build the two movies and analyze them.
pub fn run_table4(seed: u64) -> RetrievalExperiment {
    // One engine for both movies: the scratch arena warms up on the first
    // and is reused for the second.
    let mut engine = vdb_core::pipeline::AnalysisEngine::default();
    let mut build = |tag: u64| {
        let g = generate(&movie_script(seed ^ tag, 30));
        let analysis = engine.analyze(&g.video).expect("analyzable");
        (g.truth, analysis)
    };
    RetrievalExperiment {
        names: ["Simon Birch (synthetic)", "Wag the Dog (synthetic)"],
        movies: [build(0x5173), build(0x3a6d)],
    }
}

impl RetrievalExperiment {
    /// Render the paper's Table 4: per movie, the index rows.
    pub fn render_index_tables(&self) -> String {
        let mut out = String::new();
        for (name, (truth, analysis)) in self.names.iter().zip(&self.movies) {
            out.push_str(&format!("Index information for '{name}':\n"));
            let mut t = Table::new(vec![
                "Shot", "Label", "Var^BA", "Var^OA", "sqrt BA", "sqrt OA", "D^v",
            ]);
            for (shot, f) in analysis.shots().iter().zip(&analysis.features) {
                t.row(vec![
                    format!("#{}", shot.id + 1),
                    label_for(truth, shot).unwrap_or_default(),
                    format!("{:.2}", f.var_ba),
                    format!("{:.2}", f.var_oa),
                    format!("{:.2}", f.sqrt_ba()),
                    format!("{:.2}", f.sqrt_oa()),
                    format!("{:.2}", f.d_v()),
                ]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
        out
    }

    /// Run one Figure 8/9/10 retrieval: query with a representative shot of
    /// the archetype from movie 1, return the `k` most similar other shots
    /// across both movies.
    pub fn retrieve(&self, archetype: ShotArchetype, k: usize) -> Option<RetrievalOutcome> {
        // Build a pooled index over both movies.
        let rows: Vec<IndexEntry> = self
            .movies
            .iter()
            .enumerate()
            .flat_map(|(m, (_, analysis))| {
                analysis
                    .shots()
                    .iter()
                    .zip(&analysis.features)
                    .map(move |(shot, f)| {
                        IndexEntry::new(
                            ShotKey {
                                video: m as u64,
                                shot: shot.id as u32,
                            },
                            *f,
                        )
                    })
            })
            .collect();
        let index = ShotIndex::from_entries(rows, BucketParams::default());
        // Find the query shot: among movie 1's shots of this archetype, the
        // one nearest the archetype's median in (D^v, √Var^BA) space — a
        // representative exemplar (the paper picks its query shots
        // "arbitrarily"; an outlier exemplar would under-fill the α = β = 1
        // window on a database this small).
        let (truth0, analysis0) = &self.movies[0];
        let candidates: Vec<&Shot> = analysis0
            .shots()
            .iter()
            .filter(|s| label_for(truth0, s).as_deref() == Some(archetype.label()))
            .collect();
        let coords: Vec<(f64, f64)> = candidates
            .iter()
            .map(|s| {
                let f = analysis0.features[s.id];
                (f.d_v(), f.sqrt_ba())
            })
            .collect();
        let median = |mut v: Vec<f64>| -> Option<f64> {
            if v.is_empty() {
                return None;
            }
            v.sort_by(f64::total_cmp);
            Some(v[v.len() / 2])
        };
        let med = (
            median(coords.iter().map(|c| c.0).collect())?,
            median(coords.iter().map(|c| c.1).collect())?,
        );
        let query_shot = *candidates
            .iter()
            .zip(&coords)
            .min_by(|(_, a), (_, b)| {
                let da = (a.0 - med.0).powi(2) + (a.1 - med.1).powi(2);
                let db = (b.0 - med.0).powi(2) + (b.1 - med.1).powi(2);
                da.total_cmp(&db)
            })
            .map(|(s, _)| s)?;
        let feature = analysis0.features[query_shot.id];
        // The paper widens tolerances implicitly by judging "similarity";
        // α = β = 1.0 is their setting. If the exact window returns too few
        // answers we keep it — the experiment reports what the model does.
        let q = VarianceQuery::by_example(feature);
        let mut answers = Vec::new();
        for m in index.query(&q) {
            let (mv, sid) = (m.entry.key.video as usize, m.entry.key.shot as usize);
            if (mv, sid) == (0, query_shot.id) {
                continue; // the query itself
            }
            let (truth, analysis) = &self.movies[mv];
            let label = label_for(truth, &analysis.shots()[sid]).unwrap_or_default();
            answers.push((mv, sid, label));
            if answers.len() == k {
                break;
            }
        }
        let matching = answers
            .iter()
            .filter(|(_, _, l)| l == archetype.label())
            .count();
        let class_matching = answers
            .iter()
            .filter(|(_, _, l)| motion_class(l) == motion_class(archetype.label()))
            .count();
        let (agreement, class_agreement) = if answers.is_empty() {
            (0.0, 0.0)
        } else {
            (
                matching as f64 / answers.len() as f64,
                class_matching as f64 / answers.len() as f64,
            )
        };
        Some(RetrievalOutcome {
            archetype,
            query: (0, query_shot.id),
            answers,
            agreement,
            class_agreement,
        })
    }

    /// Run all three figures' retrievals (8: close-up, 9: two people,
    /// 10: moving object) with the paper's three-answer display.
    pub fn run_figures_8_to_10(&self) -> Vec<RetrievalOutcome> {
        [
            ShotArchetype::TalkingHeadCloseUp,
            ShotArchetype::TwoPeopleDistant,
            ShotArchetype::MovingObjectChangingBackground,
        ]
        .iter()
        .filter_map(|&a| self.retrieve(a, 3))
        .collect()
    }

    /// Render the retrieval outcomes.
    pub fn render_retrieval(&self, outcomes: &[RetrievalOutcome]) -> String {
        let mut out = String::new();
        for (fig, o) in outcomes.iter().enumerate() {
            out.push_str(&format!(
                "Figure {}: query = {} (movie {}, shot #{})\n",
                fig + 8,
                o.archetype.label(),
                o.query.0 + 1,
                o.query.1 + 1
            ));
            for (mv, sid, label) in &o.answers {
                out.push_str(&format!(
                    "  -> movie {} shot #{:<3} [{}]\n",
                    mv + 1,
                    sid + 1,
                    label
                ));
            }
            out.push_str(&format!(
                "  archetype agreement: {}   motion-class agreement: {}\n\n",
                ratio(o.agreement),
                ratio(o.class_agreement)
            ));
        }
        out
    }
}

/// Browsing-hierarchy comparison: scene tree vs time-based \[18\] vs fixed
/// four-level \[22\], on location purity and shape, over a genre clip.
pub fn run_hierarchy_comparison(seed: u64) -> String {
    let script = vdb_synth::build_script(vdb_synth::Genre::Sitcom, 24, Some(8.0), (80, 60), seed);
    let g = generate(&script);
    let analysis = VideoAnalyzer::new().analyze(&g.video).expect("analyzable");
    let locations: Vec<u32> = analysis
        .shots()
        .iter()
        .map(|s| location_for(&g.truth, s).unwrap_or(u32::MAX))
        .collect();
    let scene = BrowseTree::from_scene_tree(&analysis.scene_tree);
    let time2 = BrowseTree::time_based(analysis.shots().len(), 2);
    let time4 = BrowseTree::time_based(analysis.shots().len(), 4);
    let fixed = BrowseTree::fixed_four_level(analysis.shots(), &analysis.signs_ba);
    let mut t = Table::new(vec!["Hierarchy", "Height", "Nodes", "Purity"]);
    for (name, tree) in [
        ("scene tree (ours)", &scene),
        ("time-based, b=2 [18]", &time2),
        ("time-based, b=4 [18]", &time4),
        ("fixed 4-level [22]", &fixed),
    ] {
        t.row(vec![
            name.to_string(),
            tree.height().to_string(),
            tree.node_count().to_string(),
            ratio(tree.location_purity(&locations)),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure6_pipeline_reproduces_ten_shots() {
        let exp = run_figure6(FIGURE5_SEED);
        assert_eq!(
            exp.analysis.shots().len(),
            10,
            "SBD must recover the scripted shots: {:?}",
            exp.analysis.segmentation.boundaries
        );
        exp.analysis.scene_tree.check_invariants().unwrap();
        // The grouping of Figure 6(g): shots 1-4 share a parent; 5-7 share
        // a parent; 8-10 share a parent.
        let tree = &exp.analysis.scene_tree;
        let parent = |s: usize| tree.node(tree.leaf_of_shot(s).unwrap()).parent.unwrap();
        assert_eq!(parent(0), parent(1));
        assert_eq!(parent(0), parent(2));
        assert_eq!(parent(0), parent(3));
        assert_eq!(parent(4), parent(5));
        assert_eq!(parent(4), parent(6));
        assert_eq!(parent(7), parent(8));
        assert_eq!(parent(7), parent(9));
        assert_ne!(parent(0), parent(4));
        assert_ne!(parent(4), parent(7));
    }

    #[test]
    fn table3_renders_all_shots() {
        let s = run_table3(FIGURE5_SEED);
        for i in 1..=10 {
            assert!(s.contains(&format!("#{i}")), "missing shot {i}:\n{s}");
        }
        assert!(s.contains("A1"));
        assert!(s.contains("D2"));
    }

    #[test]
    fn figure7_tree_tells_the_story() {
        let (exp, rendered) = run_figure7(FIGURE7_SEED);
        exp.analysis.scene_tree.check_invariants().unwrap();
        assert_eq!(exp.analysis.shots().len(), 10);
        // The wide restaurant shots must group: shots 1, 6, 10 share loc 0.
        let tree = &exp.analysis.scene_tree;
        let anc = |s: usize| {
            let leaf = tree.leaf_of_shot(s).unwrap();
            tree.ancestors(leaf)
        };
        // Shot 1 and shot 6 end up in one subtree below the root.
        let a1 = anc(0);
        let a6 = anc(5);
        let shared: Vec<_> = a1.iter().filter(|x| a6.contains(x)).collect();
        assert!(!shared.is_empty());
        assert!(rendered.contains("restaurant-wide"));
        // Multi-level structure, as in the paper's Figure 7.
        assert!(tree.height() >= 2, "tree:\n{}", tree.render_ascii());
    }

    #[test]
    fn table4_index_tables_render() {
        let exp = run_table4(4004);
        let s = exp.render_index_tables();
        assert!(s.contains("Simon Birch"));
        assert!(s.contains("Wag the Dog"));
        assert!(s.contains("D^v"));
        // Both movies analyzed into a healthy number of shots.
        for (_, analysis) in &exp.movies {
            assert!(analysis.shots().len() >= 15);
        }
    }

    #[test]
    fn figures_8_to_10_agreement() {
        let exp = run_table4(4004);
        let outcomes = exp.run_figures_8_to_10();
        assert_eq!(outcomes.len(), 3, "all three queries must find a shot");
        for o in &outcomes {
            assert!(!o.answers.is_empty(), "{}: no answers", o.archetype.label());
        }
        // The headline claim: retrieved shots resemble the query's motion
        // character. Averaged over the three figures, agreement beats the
        // 1-in-5 random baseline by a wide margin.
        let mean: f64 = outcomes.iter().map(|o| o.agreement).sum::<f64>() / outcomes.len() as f64;
        assert!(mean >= 0.6, "mean archetype agreement {mean:.2}");
        let rendered = exp.render_retrieval(&outcomes);
        assert!(rendered.contains("Figure 8"));
        assert!(rendered.contains("Figure 10"));
    }

    #[test]
    fn hierarchy_comparison_renders() {
        let s = run_hierarchy_comparison(31337);
        assert!(s.contains("scene tree (ours)"));
        assert!(s.contains("fixed 4-level"));
    }

    #[test]
    fn overlap_mapping_handles_merged_shots() {
        // A detected shot spanning two scripted shots maps to the larger
        // overlap.
        let truth = GroundTruth {
            boundaries: vec![10],
            shot_ranges: vec![(0, 9), (10, 29)],
            locations: vec![0, 1],
            labels: vec![Some("a".into()), Some("b".into())],
        };
        let merged = Shot {
            id: 0,
            start: 0,
            end: 29,
        };
        assert_eq!(scripted_shot_for(&truth, &merged), Some(1));
        assert_eq!(label_for(&truth, &merged).as_deref(), Some("b"));
        assert_eq!(location_for(&truth, &merged), Some(1));
        let outside = Shot {
            id: 1,
            start: 50,
            end: 60,
        };
        assert_eq!(scripted_shot_for(&truth, &outside), None);
    }
}
