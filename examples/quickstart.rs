//! Quickstart: generate a little clip, run the full Oh & Hua pipeline,
//! and poke at every artifact it produces.
//!
//! ```text
//! cargo run -p vdb-store --example quickstart
//! ```

use vdb_core::analyzer::VideoAnalyzer;
use vdb_core::index::{IndexEntry, ShotIndex, ShotKey, VarianceQuery};
use vdb_synth::script::{generate, ShotSpec, VideoScript};

fn main() {
    // 1. A six-shot synthetic clip: two scenes (locations 0 and 1) revisited
    //    in an A B A B A B dialogue pattern.
    let mut script = VideoScript::small(2024);
    for i in 0..6u32 {
        let location = i % 2;
        // Each revisit films from a different spot in the same world.
        let camera = vdb_synth::Camera::fixed(
            f64::from(location) * 500.0 + f64::from(i / 2) * 700.0,
            f64::from(location) * 120.0,
        );
        script.push_shot(ShotSpec::fixed(location, 10).with_camera(camera));
    }
    let clip = generate(&script);
    println!(
        "generated {} frames, true boundaries at {:?}",
        clip.video.len(),
        clip.truth.boundaries
    );

    // 2. Steps 1-3 of the paper: shots, scene tree, variance features.
    let analysis = VideoAnalyzer::new()
        .analyze(&clip.video)
        .expect("analyzable");
    println!(
        "\ncamera-tracking SBD found {} shots (boundaries {:?})",
        analysis.shots().len(),
        analysis.segmentation.boundaries
    );
    println!(
        "cascade: {} pairs, {:.0}% resolved by the quick stages",
        analysis.segmentation.stats.pairs,
        100.0 * analysis.segmentation.stats.quick_elimination_rate()
    );

    println!("\nper-shot feature vector (Var^BA, Var^OA) and D^v:");
    for (shot, f) in analysis.shots().iter().zip(&analysis.features) {
        println!(
            "  shot#{:<2} frames {:>3}..{:<3}  Var^BA={:7.2}  Var^OA={:7.2}  D^v={:6.2}",
            shot.id + 1,
            shot.start,
            shot.end,
            f.var_ba,
            f.var_oa,
            f.d_v()
        );
    }

    // 3. The scene tree: the A/B dialogue should group under one scene.
    println!("\nscene tree:\n{}", analysis.scene_tree.render_ascii());

    // 4. A variance query, answered with shots.
    let rows = analysis
        .shots()
        .iter()
        .zip(&analysis.features)
        .map(|(shot, f)| {
            IndexEntry::new(
                ShotKey {
                    video: 0,
                    shot: shot.id as u32,
                },
                *f,
            )
        })
        .collect();
    let index = ShotIndex::from_entries(rows);
    let q = VarianceQuery::by_example(analysis.features[0]);
    let (matches, _, _) = index.select(&q, None, usize::MAX, None);
    println!(
        "query by example of shot#1 -> {} matching shots: {:?}",
        matches.len(),
        matches
            .iter()
            .map(|m| m.entry.key.shot + 1)
            .collect::<Vec<_>>()
    );
}
