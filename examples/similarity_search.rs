//! Variance-based similarity search (§4, Figures 8-10): build a small video
//! database of two synthetic movies, query by a shot's "impression of
//! change", and start browsing at the scene nodes the index suggests.
//!
//! ```text
//! cargo run -p vdb-store --example similarity_search
//! ```

use vdb_core::index::VarianceQuery;
use vdb_eval::retrieval::{label_for, movie_script};
use vdb_store::{render_node, VideoDatabase};
use vdb_synth::script::generate;

fn main() {
    let mut db = VideoDatabase::new();
    let taxonomy = db.taxonomy().clone();
    let feature = taxonomy.form("feature").expect("taxonomy has feature");
    let drama = taxonomy
        .genre("adaptation")
        .expect("taxonomy has adaptation");

    // Two synthetic movies built from archetype shots (stand-ins for the
    // paper's 'Simon Birch' and 'Wag the Dog').
    let mut truths = Vec::new();
    let mut ids = Vec::new();
    for (name, seed) in [
        ("Simon Birch (synthetic)", 77u64),
        ("Wag the Dog (synthetic)", 78),
    ] {
        let clip = generate(&movie_script(seed, 18));
        let id = db
            .ingest(name, &clip.video, vec![drama], vec![feature])
            .expect("ingest");
        println!(
            "ingested '{name}' as video {id}: {} shots indexed",
            db.analysis(id).unwrap().shots.len()
        );
        truths.push(clip.truth);
        ids.push(id);
    }

    // Query: "a close-up of a person who is talking" — near-zero background
    // change, moderate object change (the paper's Figure 8 impression).
    let q = VarianceQuery::new(0.1, 16.0);
    println!(
        "\nquery: Var^BA={} Var^OA={} (D^v={:.2}), tolerances α=β=1.0",
        q.var_ba,
        q.var_oa,
        q.d_v()
    );
    let answers = db
        .query_str(&format!("ba={} oa={}", q.var_ba, q.var_oa))
        .expect("a well-formed query");
    println!("{} scene nodes suggested:", answers.len());
    for a in answers.iter().take(6) {
        let vid_idx = ids.iter().position(|&i| i == a.key.video).unwrap();
        let analysis = db.analysis(a.key.video).unwrap();
        let shot = &analysis.shots[a.key.shot as usize];
        let label = label_for(&truths[vid_idx], shot).unwrap_or_default();
        println!(
            "  video {} shot#{:<3} [{}]  Var^BA={:6.2} Var^OA={:6.2}  -> start browsing at {} (rep frame {})",
            a.key.video,
            a.key.shot + 1,
            label,
            a.var_ba,
            a.var_oa,
            a.scene_name,
            a.rep_frame
        );
    }

    // Take the best answer and actually start the browse there (§4.2: "the
    // user can browse the appropriate scene trees, starting from the
    // suggested scene nodes").
    if let Some(best) = answers.first() {
        let analysis = db.analysis(best.key.video).unwrap();
        println!(
            "\nbrowsing video {} from {}:",
            best.key.video, best.scene_name
        );
        print!("{}", render_node(analysis, best.scene_node));
    }
}
