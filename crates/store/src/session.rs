//! Browsing (§4.2) and live streaming ingest over the database.
//!
//! After a variance query suggests scene nodes, "the user can browse the
//! appropriate scene trees, starting from the suggested scene nodes, to
//! search for more specific scenes in the lower levels of the hierarchies."
//! A query reply names each node `SN_m^c`; [`NodeName`] parses that name,
//! [`find_node`] resolves it in a video's tree, and [`node_view`] is what a
//! browsing reply shows of a node — the shell's `tree <video> <node>`
//! renders one view for the node, its breadcrumbs and one per child.
//! [`storyboard`] summarizes a whole video as views of its top scenes.
//!
//! [`StreamIngest`] is the write side: a stateful session that feeds
//! frames into its own [`AnalysisEngine`] as they arrive (no database
//! lock held), then commits the finished analysis through
//! [`crate::backend::DbBackend::commit_stream`] — the server's wire-level
//! streaming ingest runs one of these per client session.

use crate::backend::{CommitTicket, DbBackend};
use crate::db::{DbError, StoredAnalysis};
use std::fmt::Write as _;
use vdb_core::analyzer::{AnalyzerConfig, VideoAnalysis};
use vdb_core::error::CoreError;
use vdb_core::frame::FrameBuf;
use vdb_core::pipeline::{AnalysisEngine, PushOutcome};
use vdb_core::scenetree::{NodeId, SceneTree};

/// A scene-node name as replies print it: `SN_m^c` names the level-`c`
/// node whose representative frame comes from shot `m` (1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeName {
    /// The named shot, 0-based (`m - 1`).
    pub shot: usize,
    /// The node's level (0 = shot).
    pub level: usize,
}

impl std::str::FromStr for NodeName {
    type Err = ();

    /// Parse `SN_m^c` with `m ≥ 1`; anything else is an error.
    fn from_str(s: &str) -> Result<Self, ()> {
        let (m, c) = s
            .strip_prefix("SN_")
            .and_then(|rest| rest.split_once('^'))
            .ok_or(())?;
        let m: usize = m.parse().map_err(|_| ())?;
        Ok(NodeName {
            shot: m.checked_sub(1).ok_or(())?,
            level: c.parse().map_err(|_| ())?,
        })
    }
}

impl std::fmt::Display for NodeName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SN_{}^{}", self.shot + 1, self.level)
    }
}

/// The node of `tree` called `name`, if there is one. A node is named
/// after a shot in its subtree, so it is the named shot's leaf or one of
/// that leaf's ancestors; the walk up from the leaf returns the first
/// match.
pub fn find_node(tree: &SceneTree, name: NodeName) -> Option<NodeId> {
    let leaf = tree.leaf_of_shot(name.shot)?;
    std::iter::once(leaf)
        .chain(tree.ancestors(leaf))
        .find(|&n| {
            let node = tree.node(n);
            node.level == name.level && node.name_shot == name.shot
        })
}

/// What a browsing reply shows of one scene node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeView {
    /// The node id.
    pub node: NodeId,
    /// The paper's node name, e.g. `SN_3^1`.
    pub name: String,
    /// Level in the tree (0 = shot).
    pub level: usize,
    /// Representative frame to display.
    pub rep_frame: usize,
    /// Inclusive frame range the node's subtree covers.
    pub frame_range: (usize, usize),
    /// Number of shots under the node.
    pub shot_count: usize,
}

/// The view of `node` in `analysis`'s scene tree: one walk of its
/// subtree gives the frame range and the shot count.
pub fn node_view(analysis: &StoredAnalysis, node: NodeId) -> NodeView {
    let tree = &analysis.scene_tree;
    let (mut lo, mut hi, mut shots) = (usize::MAX, 0usize, 0usize);
    let mut stack = vec![node];
    while let Some(m) = stack.pop() {
        let nd = tree.node(m);
        if let Some(s) = nd.shot {
            let shot = &analysis.shots[s];
            lo = lo.min(shot.start);
            hi = hi.max(shot.end);
            shots += 1;
        }
        stack.extend(nd.children.iter().copied());
    }
    let n = tree.node(node);
    NodeView {
        node,
        name: n.name(),
        level: n.level,
        rep_frame: n.rep_frame,
        frame_range: (lo, hi),
        shot_count: shots,
    }
}

/// The `tree <video> <node>` reply: the node's view, its breadcrumbs from
/// the root, and one line per child in temporal order.
pub fn render_node(analysis: &StoredAnalysis, node: NodeId) -> String {
    let tree = &analysis.scene_tree;
    let mut out = String::new();
    push_view(&mut out, "node ", &node_view(analysis, node));
    let mut path = tree.ancestors(node);
    path.reverse();
    path.push(node);
    out.push_str("  path ");
    for (i, &n) in path.iter().enumerate() {
        out.push_str(if i == 0 { " " } else { " > " });
        out.push_str(&tree.node(n).name());
    }
    out.push('\n');
    for &c in &tree.node(node).children {
        push_view(&mut out, "child", &node_view(analysis, c));
    }
    out
}

fn push_view(out: &mut String, label: &str, v: &NodeView) {
    let _ = writeln!(
        out,
        "  {label} {}  level {}  frames {}..{}  rep frame {}  shots {}",
        v.name, v.level, v.frame_range.0, v.frame_range.1, v.rep_frame, v.shot_count
    );
}

/// A storyboard: the video summarized as the representative frames of its
/// top-level scenes, in temporal order — what a browsing UI shows first
/// ("the representative frames serve well as a summary of important events
/// in the underlying video", §5.2).
///
/// `max_cards` bounds the summary length: the storyboard starts from the
/// root's children and recursively expands the widest-spanning cards until
/// the budget is met (so complex videos get deeper summaries, exactly
/// because the tree's shape follows the video's complexity).
pub fn storyboard(analysis: &StoredAnalysis, max_cards: usize) -> Vec<NodeView> {
    let tree = &analysis.scene_tree;
    let card = |node: NodeId| node_view(analysis, node);
    let mut cards: Vec<NodeView> = tree
        .node(tree.root())
        .children
        .iter()
        .map(|&c| card(c))
        .collect();
    if cards.is_empty() {
        return vec![card(tree.root())];
    }
    // Expand the widest card while under budget and expandable.
    while cards.len() < max_cards {
        let Some(pos) = cards
            .iter()
            .enumerate()
            .filter(|(_, c)| !tree.node(c.node).children.is_empty())
            .max_by_key(|(_, c)| c.shot_count)
            .map(|(i, _)| i)
        else {
            break;
        };
        let children = &tree.node(cards[pos].node).children;
        if cards.len() + children.len() - 1 > max_cards {
            break;
        }
        let expanded: Vec<NodeView> = children.iter().map(|&c| card(c)).collect();
        cards.splice(pos..=pos, expanded);
    }
    // Temporal order by covered range.
    cards.sort_by_key(|c| c.frame_range.0);
    cards
}

/// A live streaming-ingest session: frames in, one committed video out.
///
/// The session owns an [`AnalysisEngine`], so all per-frame work (the
/// extraction cascade) runs on the caller's thread with **no** database
/// lock held. Dimensions are declared up front and every frame is checked
/// against them — a mismatch is an error that leaves the session usable
/// by nobody (the server poisons the session; the engine never sees the
/// bad frame).
#[derive(Debug)]
pub struct StreamIngest {
    name: String,
    dims: (u32, u32),
    fps: f64,
    engine: AnalysisEngine,
}

impl StreamIngest {
    /// Open a session for a `width`×`height` stream. `config` should be
    /// the target database's analyzer configuration so queries behave
    /// uniformly across batch and streamed videos.
    pub fn new(
        name: impl Into<String>,
        dims: (u32, u32),
        fps: f64,
        config: AnalyzerConfig,
    ) -> Self {
        StreamIngest {
            name: name.into(),
            dims,
            fps,
            engine: AnalysisEngine::new(config),
        }
    }

    /// The declared dimensions.
    pub fn dims(&self) -> (u32, u32) {
        self.dims
    }

    /// The session's video name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Frames consumed so far.
    pub fn frame_count(&self) -> usize {
        self.engine.frame_count()
    }

    /// Consume the next frame. Frames not matching the declared
    /// dimensions are rejected without being consumed.
    pub fn push(&mut self, frame: &FrameBuf) -> Result<PushOutcome, DbError> {
        if frame.dims() != self.dims {
            return Err(DbError::Core(CoreError::InconsistentDimensions {
                first: self.dims,
                other: frame.dims(),
                frame: self.engine.frame_count(),
            }));
        }
        Ok(self.engine.push_frame(frame)?)
    }

    /// Close the stream and finalize the analysis (scene tree, per-shot
    /// features). Run this *outside* any database lock — it is the
    /// expensive tail of the session. Errors if no frame was ever pushed.
    pub fn finish(mut self) -> Result<FinishedStream, DbError> {
        let analysis = self.engine.finish()?;
        Ok(FinishedStream {
            name: self.name,
            dims: self.dims,
            fps: self.fps,
            analysis,
        })
    }
}

/// A finished streaming session, ready to commit. Produced by
/// [`StreamIngest::finish`]; holds the completed analysis so the only
/// work left under the database lock is registration + journal staging.
#[derive(Debug)]
pub struct FinishedStream {
    name: String,
    dims: (u32, u32),
    fps: f64,
    analysis: VideoAnalysis,
}

impl FinishedStream {
    /// Shots detected in the finished stream.
    pub fn shots(&self) -> usize {
        self.analysis.shots().len()
    }

    /// Frames consumed by the session.
    pub fn frames(&self) -> usize {
        self.analysis.frame_count()
    }

    /// Read access to the finished analysis (e.g. for equivalence tests).
    pub fn analysis(&self) -> &VideoAnalysis {
        &self.analysis
    }

    /// Register the video, with no genre or form. Hold the backend lock
    /// only for this call; wait on the returned [`CommitTicket`] after
    /// releasing it so concurrent sessions share one group-commit barrier.
    pub fn commit(self, backend: &mut dyn DbBackend) -> Result<(u64, CommitTicket), DbError> {
        backend.commit_stream(
            self.name,
            self.dims,
            self.fps,
            self.analysis,
            Vec::new(),
            Vec::new(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::StoredAnalysis;
    use vdb_core::pixel::Rgb;
    use vdb_core::sbd::SbdStats;
    use vdb_core::scenetree::build_scene_tree;
    use vdb_core::shot::Shot;
    use vdb_core::variance::ShotFeature;

    /// The Figure 5/6 ten-shot clip as a stored analysis.
    fn figure5_analysis() -> StoredAnalysis {
        let labels: [(u8, usize); 10] = [
            (0, 20),
            (1, 10),
            (0, 9),
            (1, 8),
            (2, 12),
            (0, 7),
            (2, 13),
            (3, 11),
            (3, 6),
            (3, 5),
        ];
        let mut shots = Vec::new();
        let mut signs = Vec::new();
        let mut start = 0usize;
        for (id, &(label, len)) in labels.iter().enumerate() {
            shots.push(Shot {
                id,
                start,
                end: start + len - 1,
            });
            signs.extend(std::iter::repeat(Rgb::gray(label * 40)).take(len));
            start += len;
        }
        let tree = build_scene_tree(&shots, &signs);
        let features = vec![
            ShotFeature {
                var_ba: 0.0,
                var_oa: 0.0
            };
            shots.len()
        ];
        StoredAnalysis {
            video: 0,
            shots,
            features,
            signs_oa: signs.clone(),
            signs_ba: signs,
            scene_tree: tree,
            stats: SbdStats::default(),
        }
    }

    /// Open a node by the name a reply printed.
    fn open(a: &StoredAnalysis, name: &str) -> NodeId {
        find_node(&a.scene_tree, name.parse().unwrap()).unwrap()
    }

    fn child_names(a: &StoredAnalysis, node: NodeId) -> Vec<String> {
        let tree = &a.scene_tree;
        tree.node(node)
            .children
            .iter()
            .map(|&c| tree.node(c).name())
            .collect()
    }

    #[test]
    fn root_view_covers_whole_video() {
        let a = figure5_analysis();
        let root = a.scene_tree.root();
        let v = node_view(&a, root);
        assert_eq!(v.frame_range, (0, 100));
        assert_eq!(v.name, "SN_1^3");
        assert_eq!(v.level, 3);
        assert_eq!(v.shot_count, 10);
        assert_eq!(child_names(&a, root), vec!["SN_1^2", "SN_8^1"]); // EN3, EN4
    }

    #[test]
    fn down_up_roundtrip() {
        // Down: open a child by the name the root's reply lists; up: its
        // breadcrumbs lead back to the root.
        let a = figure5_analysis();
        let root = a.scene_tree.root();
        for name in child_names(&a, root) {
            let child = open(&a, &name);
            assert_eq!(a.scene_tree.node(child).parent, Some(root));
            assert_eq!(a.scene_tree.ancestors(child), vec![root]);
        }
        assert!(
            a.scene_tree.ancestors(root).is_empty(),
            "root has no parent"
        );
    }

    #[test]
    fn down_out_of_range() {
        // Following first children ends at a shot node with no children,
        // and a name past the tree resolves to nothing.
        let a = figure5_analysis();
        let mut node = a.scene_tree.root();
        while let Some(&c) = a.scene_tree.node(node).children.first() {
            node = c;
        }
        let v = node_view(&a, node);
        assert_eq!((v.level, v.shot_count), (0, 1));
        assert!(child_names(&a, node).is_empty());
        assert_eq!(find_node(&a.scene_tree, "SN_11^0".parse().unwrap()), None);
        assert_eq!(find_node(&a.scene_tree, "SN_1^4".parse().unwrap()), None);
    }

    #[test]
    fn sibling_navigation() {
        // Siblings are listed in temporal order under their parent.
        let a = figure5_analysis();
        let en1 = open(&a, "SN_1^1");
        assert_eq!(
            child_names(&a, en1),
            vec!["SN_1^0", "SN_2^0", "SN_3^0", "SN_4^0"]
        );
        let ranges: Vec<(usize, usize)> = a
            .scene_tree
            .node(en1)
            .children
            .iter()
            .map(|&c| node_view(&a, c).frame_range)
            .collect();
        assert!(ranges.windows(2).all(|w| w[0].1 + 1 == w[1].0));
    }

    #[test]
    fn breadcrumbs_trace_the_story() {
        let a = figure5_analysis();
        let reply = render_node(&a, open(&a, "SN_7^1"));
        let path = reply.lines().nth(1).unwrap();
        assert_eq!(path, "  path  SN_1^3 > SN_1^2 > SN_7^1");
    }

    #[test]
    fn shot_frame_ranges_match_shots() {
        let a = figure5_analysis();
        // Leaf of shot#5 (C): frames 47..=58.
        let v = node_view(&a, a.scene_tree.leaf_of_shot(4).unwrap());
        assert_eq!(v.frame_range, (a.shots[4].start, a.shots[4].end));
        assert_eq!((v.level, v.shot_count), (0, 1));
    }

    #[test]
    fn drill_follows_name_chain() {
        // Root is SN_1^3: SN_1^c exists at every level below it, each a
        // child of the one above, ending at shot#1's leaf.
        let a = figure5_analysis();
        let tree = &a.scene_tree;
        let mut node = tree.root();
        for level in (0..tree.node(node).level).rev() {
            let next = find_node(tree, NodeName { shot: 0, level }).unwrap();
            assert_eq!(tree.node(next).parent, Some(node));
            node = next;
        }
        assert_eq!(node, tree.leaf_of_shot(0).unwrap());
        assert_eq!(tree.node(tree.root()).rep_frame, tree.node(node).rep_frame);
    }

    #[test]
    fn storyboard_covers_video_in_order() {
        let a = figure5_analysis();
        let cards = storyboard(&a, 2);
        // Root children: EN3, EN4 -> two cards spanning the whole video.
        assert_eq!(cards.len(), 2);
        assert_eq!(cards[0].frame_range.0, 0);
        assert_eq!(cards[1].frame_range.1, 100);
        assert!(cards[0].frame_range.1 + 1 == cards[1].frame_range.0);
        assert_eq!(cards[0].shot_count + cards[1].shot_count, 10);
    }

    #[test]
    fn storyboard_expands_within_budget() {
        let a = figure5_analysis();
        let few = storyboard(&a, 2);
        let more = storyboard(&a, 6);
        assert!(more.len() > few.len());
        assert!(more.len() <= 6);
        // Temporal order maintained after expansion.
        assert!(more
            .windows(2)
            .all(|w| w[0].frame_range.0 <= w[1].frame_range.0));
        // Total shot coverage unchanged.
        let total: usize = more.iter().map(|c| c.shot_count).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn storyboard_huge_budget_saturates_at_leaves() {
        let a = figure5_analysis();
        let cards = storyboard(&a, 1000);
        // Can never exceed the shot count.
        assert!(cards.len() <= 10);
        let total: usize = cards.iter().map(|c| c.shot_count).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn session_from_query_node() {
        let a = figure5_analysis();
        // Start where a query for shot#7 would: its largest scene (EN2).
        let node = a.scene_tree.largest_scene_for_shot(6).unwrap();
        assert_eq!(open(&a, "SN_7^1"), node);
        let reply = render_node(&a, node);
        assert_eq!(
            reply,
            "  node  SN_7^1  level 1  frames 47..78  rep frame 66  shots 3\n\
             \x20 path  SN_1^3 > SN_1^2 > SN_7^1\n\
             \x20 child SN_5^0  level 0  frames 47..58  rep frame 47  shots 1\n\
             \x20 child SN_6^0  level 0  frames 59..65  rep frame 59  shots 1\n\
             \x20 child SN_7^0  level 0  frames 66..78  rep frame 66  shots 1\n"
        );
    }

    #[test]
    fn node_names_parse_strictly() {
        let n: NodeName = "SN_12^2".parse().unwrap();
        assert_eq!(n, NodeName { shot: 11, level: 2 });
        assert_eq!(n.to_string(), "SN_12^2");
        for bad in [
            "", "SN_0^1", "SN_1", "SN_^1", "SN_1^", "sn_1^1", "SN_1^1x", "SN_-1^0", "4",
        ] {
            assert!(bad.parse::<NodeName>().is_err(), "{bad:?} parsed");
        }
    }

    fn stream_clip(seed: u64) -> vdb_core::frame::Video {
        let mut script = vdb_synth::script::VideoScript::small(seed);
        script.push_shot(vdb_synth::script::ShotSpec::fixed(0, 6));
        script.push_shot(vdb_synth::script::ShotSpec::fixed(1, 6));
        vdb_synth::script::generate(&script).video
    }

    #[test]
    fn stream_ingest_commit_matches_batch_ingest() {
        let video = stream_clip(70);
        let mut batch = crate::db::VideoDatabase::new();
        let batch_id = batch.ingest("clip", &video, vec![], vec![]).unwrap();

        let mut db = crate::db::VideoDatabase::new();
        let mut s = StreamIngest::new("clip", video.dims(), video.fps(), db.config());
        for f in video.frames() {
            s.push(f).unwrap();
        }
        let finished = s.finish().unwrap();
        assert_eq!(finished.frames(), video.len());
        let (id, ticket) = finished.commit(&mut db).unwrap();
        assert!(!ticket.is_pending(), "memory backend is settled at commit");
        ticket.wait().unwrap();
        assert_eq!(db.analysis(id).unwrap(), batch.analysis(batch_id).unwrap());
        assert_eq!(db.catalog().get(id).unwrap().name, "clip");
    }

    #[test]
    fn stream_ingest_honors_configured_simd_level() {
        // The session must inherit the database's SimdLevel (not rebuild a
        // default config), and every level must stream to the same analysis.
        let video = stream_clip(72);
        let mut reference_db = crate::db::VideoDatabase::new();
        let ref_id = reference_db.ingest("clip", &video, vec![], vec![]).unwrap();
        for simd in vdb_core::simd::SimdLevel::all_available() {
            let mut db = crate::db::VideoDatabase::with_config(AnalyzerConfig {
                simd,
                ..AnalyzerConfig::default()
            });
            assert_eq!(db.config().simd, simd, "the configured level must stick");
            let mut s = StreamIngest::new("clip", video.dims(), video.fps(), db.config());
            for f in video.frames() {
                s.push(f).unwrap();
            }
            let (id, ticket) = s.finish().unwrap().commit(&mut db).unwrap();
            ticket.wait().unwrap();
            assert_eq!(
                db.analysis(id).unwrap(),
                reference_db.analysis(ref_id).unwrap(),
                "streamed analysis must be bit-identical at {simd}"
            );
        }
    }

    #[test]
    fn stream_ingest_rejects_mismatched_dims_without_consuming() {
        let video = stream_clip(71);
        let (w, h) = video.dims();
        let mut s = StreamIngest::new("clip", (w, h), video.fps(), AnalyzerConfig::default());
        s.push(&video.frames()[0]).unwrap();
        let wrong = FrameBuf::black(w + 1, h);
        assert!(matches!(
            s.push(&wrong),
            Err(DbError::Core(CoreError::InconsistentDimensions { .. }))
        ));
        assert_eq!(s.frame_count(), 1, "bad frame was not consumed");
    }

    #[test]
    fn empty_stream_ingest_fails_to_finish() {
        let s = StreamIngest::new("empty", (80, 60), 3.0, AnalyzerConfig::default());
        assert!(s.finish().is_err());
    }
}
