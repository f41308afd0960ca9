//! Non-linear browsing demo (§3, Figure 7): ingest the synthetic 'Friends'
//! segment into the database and walk its scene tree the way a browsing UI
//! would — a node, its breadcrumbs and its children, opened by name.
//!
//! ```text
//! cargo run -p vdb-store --example scene_browser
//! ```

use std::io::Write;
use vdb_core::frame::FrameBuf;
use vdb_eval::retrieval::{figure7_script, FIGURE7_SEED};
use vdb_store::{find_node, render_node, storyboard, NodeName, VideoDatabase};
use vdb_synth::script::generate;

fn main() {
    let clip = generate(&figure7_script(FIGURE7_SEED));
    let mut db = VideoDatabase::new();
    let taxonomy = db.taxonomy().clone();
    let id = db
        .ingest(
            "Friends (synthetic segment)",
            &clip.video,
            vec![taxonomy.genre("comedy").expect("taxonomy has comedy")],
            vec![taxonomy
                .form("television series")
                .expect("taxonomy has tv series")],
        )
        .expect("ingest");
    let analysis = db.analysis(id).expect("stored");

    println!("scene tree of the one-minute segment:");
    println!("{}", analysis.scene_tree.render_ascii());

    // Browse the way `tree <video> <node>` replies: a node, its
    // breadcrumbs and its children; the user opens a child by name.
    let tree = &analysis.scene_tree;
    println!("browsing from the root:");
    print!("{}", render_node(analysis, tree.root()));
    if let Some(&first) = tree.node(tree.root()).children.first() {
        let name = tree.node(first).name();
        println!("\nopening {name}:");
        let node = find_node(tree, name.parse().expect("replies print node names"))
            .expect("a listed child exists");
        print!("{}", render_node(analysis, node));
    }
    // Follow the name chain down to the shot whose representative frame
    // the root displays.
    let root = tree.node(tree.root());
    let leaf = find_node(
        tree,
        NodeName {
            shot: root.name_shot,
            level: 0,
        },
    )
    .expect("every named shot has a leaf");
    println!("\nthe root's representative frame comes from shot leaf node {leaf}:");
    print!("{}", render_node(analysis, leaf));

    // Export the storyboard's representative frames as PPM images.
    let out_dir = std::env::temp_dir().join("vdb-storyboard");
    std::fs::create_dir_all(&out_dir).expect("create output dir");
    println!(
        "\nstoryboard ({} cards) written to {}:",
        6,
        out_dir.display()
    );
    for card in storyboard(analysis, 6) {
        let frame = &clip.video.frames()[card.rep_frame];
        let path = out_dir.join(format!(
            "{}-frame{:03}.ppm",
            card.name.replace('^', "-"),
            card.rep_frame
        ));
        let mut file = std::fs::File::create(&path).expect("create ppm");
        write_ppm(frame, &mut file).expect("write ppm");
        println!(
            "  {:<12} frames {:>3}..{:<3} -> {}",
            card.name,
            card.frame_range.0,
            card.frame_range.1,
            path.display()
        );
    }
}

/// Write a frame as binary PPM (P6), the zero-dependency format every
/// image viewer opens.
fn write_ppm(frame: &FrameBuf, out: &mut impl Write) -> std::io::Result<()> {
    let (w, h) = frame.dims();
    writeln!(out, "P6\n{w} {h}\n255")?;
    out.write_all(&frame.to_rgb24())
}
