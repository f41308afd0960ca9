//! Sessions over the database: non-linear browsing (§3, §4.2) and live
//! streaming ingest.
//!
//! After a variance query suggests scene nodes, "the user can browse the
//! appropriate scene trees, starting from the suggested scene nodes, to
//! search for more specific scenes in the lower levels of the hierarchies."
//! [`BrowseSession`] is that interaction: a cursor over one video's scene
//! tree with parent/child/sibling moves, breadcrumbs, and the frame range
//! each node plays.
//!
//! [`StreamIngest`] is the write-side twin: a stateful session that feeds
//! frames into a [`vdb_core::streaming::StreamingAnalyzer`] as they
//! arrive (no database lock held), then commits the finished analysis
//! through [`crate::backend::DbBackend::commit_stream`] — the server's
//! wire-level streaming ingest runs one of these per client session.

use crate::backend::{CommitTicket, DbBackend};
use crate::db::{DbError, StoredAnalysis};
use vdb_core::analyzer::{AnalyzerConfig, VideoAnalysis};
use vdb_core::error::CoreError;
use vdb_core::frame::FrameBuf;
use vdb_core::scenetree::NodeId;
use vdb_core::streaming::{PushOutcome, StreamingAnalyzer};

/// What the UI would show for the cursor's position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeView {
    /// The node id (pass back to `enter`).
    pub node: NodeId,
    /// The paper's node name, e.g. `SN_3^1`.
    pub name: String,
    /// Level in the tree (0 = shot).
    pub level: usize,
    /// Representative frame to display.
    pub rep_frame: usize,
    /// Inclusive frame range the node's subtree covers.
    pub frame_range: (usize, usize),
    /// Child node ids, in temporal order.
    pub children: Vec<NodeId>,
    /// Whether this is a level-0 shot node.
    pub is_shot: bool,
}

/// A browsing cursor over one video's scene tree.
#[derive(Debug)]
pub struct BrowseSession<'a> {
    analysis: &'a StoredAnalysis,
    cursor: NodeId,
}

impl<'a> BrowseSession<'a> {
    /// Start at the root (the whole video).
    pub fn at_root(analysis: &'a StoredAnalysis) -> Self {
        BrowseSession {
            cursor: analysis.scene_tree.root(),
            analysis,
        }
    }

    /// Start at a specific node — typically one suggested by a variance
    /// query ([`crate::db::QueryAnswer::scene_node`]).
    pub fn at_node(analysis: &'a StoredAnalysis, node: NodeId) -> Self {
        BrowseSession {
            cursor: node,
            analysis,
        }
    }

    /// The current node id.
    pub fn cursor(&self) -> NodeId {
        self.cursor
    }

    /// Inclusive frame range covered by a node's subtree.
    fn frame_range(&self, node: NodeId) -> (usize, usize) {
        let tree = &self.analysis.scene_tree;
        let mut lo = usize::MAX;
        let mut hi = 0usize;
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            let nd = tree.node(n);
            if let Some(s) = nd.shot {
                let shot = &self.analysis.shots[s];
                lo = lo.min(shot.start);
                hi = hi.max(shot.end);
            }
            stack.extend(nd.children.iter().copied());
        }
        (lo, hi)
    }

    /// View of the current node.
    pub fn view(&self) -> NodeView {
        let node = self.analysis.scene_tree.node(self.cursor);
        NodeView {
            node: node.id,
            name: node.name(),
            level: node.level,
            rep_frame: node.rep_frame,
            frame_range: self.frame_range(node.id),
            children: node.children.clone(),
            is_shot: node.is_leaf(),
        }
    }

    /// Move to the parent. Returns `false` at the root.
    pub fn up(&mut self) -> bool {
        match self.analysis.scene_tree.node(self.cursor).parent {
            Some(p) => {
                self.cursor = p;
                true
            }
            None => false,
        }
    }

    /// Move to the `i`-th child. Returns `false` if out of range.
    pub fn down(&mut self, i: usize) -> bool {
        let children = &self.analysis.scene_tree.node(self.cursor).children;
        match children.get(i) {
            Some(&c) => {
                self.cursor = c;
                true
            }
            None => false,
        }
    }

    /// Move to the next/previous sibling (`offset` = +1 / −1 etc.). Returns
    /// `false` if there is no such sibling.
    pub fn sibling(&mut self, offset: isize) -> bool {
        let tree = &self.analysis.scene_tree;
        let Some(parent) = tree.node(self.cursor).parent else {
            return false;
        };
        let siblings = &tree.node(parent).children;
        let pos = siblings
            .iter()
            .position(|&c| c == self.cursor)
            .expect("cursor is its parent's child") as isize;
        let target = pos + offset;
        if target < 0 || target as usize >= siblings.len() {
            return false;
        }
        self.cursor = siblings[target as usize];
        true
    }

    /// Jump to an arbitrary node.
    pub fn jump(&mut self, node: NodeId) {
        assert!(node < self.analysis.scene_tree.len(), "node out of range");
        self.cursor = node;
    }

    /// Breadcrumbs from the root to the cursor (inclusive), as names.
    pub fn breadcrumbs(&self) -> Vec<String> {
        let tree = &self.analysis.scene_tree;
        let mut path = vec![self.cursor];
        path.extend(tree.ancestors(self.cursor));
        path.reverse();
        path.into_iter().map(|n| tree.node(n).name()).collect()
    }

    /// Drill from the cursor to the level-0 shot whose representative frame
    /// the cursor displays (following the name chain downward).
    pub fn drill_to_named_shot(&mut self) -> NodeId {
        let tree = &self.analysis.scene_tree;
        let target_shot = tree.node(self.cursor).name_shot;
        while !tree.node(self.cursor).is_leaf() {
            let next = tree
                .node(self.cursor)
                .children
                .iter()
                .copied()
                .find(|&c| tree.node(c).name_shot == target_shot)
                .expect("the naming child chain reaches a leaf");
            self.cursor = next;
        }
        self.cursor
    }
}

/// One storyboard card: a scene node shown as its representative frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoryboardCard {
    /// The scene node.
    pub node: NodeId,
    /// Its name, e.g. `SN_3^1`.
    pub name: String,
    /// Representative frame to display.
    pub rep_frame: usize,
    /// Inclusive frame range the card covers.
    pub frame_range: (usize, usize),
    /// Number of shots under the card.
    pub shot_count: usize,
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
pub fn storyboard(analysis: &StoredAnalysis, max_cards: usize) -> Vec<StoryboardCard> {
    let tree = &analysis.scene_tree;
    let card = |node: NodeId| {
        let n = tree.node(node);
        let mut shots = 0usize;
        let mut stack = vec![node];
        while let Some(m) = stack.pop() {
            let nd = tree.node(m);
            if nd.is_leaf() {
                shots += 1;
            }
            stack.extend(nd.children.iter().copied());
        }
        StoryboardCard {
            node,
            name: n.name(),
            rep_frame: n.rep_frame,
            frame_range: BrowseSession::at_node(analysis, node).view().frame_range,
            shot_count: shots,
        }
    };
    let mut cards: Vec<StoryboardCard> = tree
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
        let expanded: Vec<StoryboardCard> = children.iter().map(|&c| card(c)).collect();
        cards.splice(pos..=pos, expanded);
    }
    // Temporal order by covered range.
    cards.sort_by_key(|c| c.frame_range.0);
    cards
}

/// A live streaming-ingest session: frames in, one committed video out.
///
/// The session owns a [`StreamingAnalyzer`], so all per-frame work (the
/// extraction cascade) runs on the caller's thread with **no** database
/// lock held. Dimensions are declared up front and every frame is checked
/// against them — a mismatch is an error that leaves the session usable
/// by nobody (the server poisons the session; the analyzer never sees the
/// bad frame).
#[derive(Debug)]
pub struct StreamIngest {
    name: String,
    dims: (u32, u32),
    fps: f64,
    analyzer: StreamingAnalyzer,
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
            analyzer: StreamingAnalyzer::new(config),
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
        self.analyzer.frame_count()
    }

    /// Consume the next frame. Frames not matching the declared
    /// dimensions are rejected without being consumed.
    pub fn push(&mut self, frame: &FrameBuf) -> Result<PushOutcome, DbError> {
        if frame.dims() != self.dims {
            return Err(DbError::Core(CoreError::InconsistentDimensions {
                first: self.dims,
                other: frame.dims(),
                frame: self.analyzer.frame_count(),
            }));
        }
        Ok(self.analyzer.push(frame)?)
    }

    /// Close the stream and finalize the analysis (scene tree, per-shot
    /// features). Run this *outside* any database lock — it is the
    /// expensive tail of the session. Errors if no frame was ever pushed.
    pub fn finish(self) -> Result<FinishedStream, DbError> {
        let analysis = self.analyzer.finish()?;
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

    #[test]
    fn root_view_covers_whole_video() {
        let a = figure5_analysis();
        let s = BrowseSession::at_root(&a);
        let v = s.view();
        assert_eq!(v.frame_range, (0, 100));
        assert!(!v.is_shot);
        assert_eq!(v.name, "SN_1^3");
        assert_eq!(v.children.len(), 2); // EN3, EN4
    }

    #[test]
    fn down_up_roundtrip() {
        let a = figure5_analysis();
        let mut s = BrowseSession::at_root(&a);
        let root = s.cursor();
        assert!(s.down(0));
        assert_ne!(s.cursor(), root);
        assert!(s.up());
        assert_eq!(s.cursor(), root);
        assert!(!s.up(), "root has no parent");
    }

    #[test]
    fn down_out_of_range() {
        let a = figure5_analysis();
        let mut s = BrowseSession::at_root(&a);
        assert!(!s.down(99));
        // Drill to a leaf: no children at all.
        while s.down(0) {}
        let v = s.view();
        assert!(v.is_shot);
        assert!(v.children.is_empty());
    }

    #[test]
    fn sibling_navigation() {
        let a = figure5_analysis();
        let mut s = BrowseSession::at_root(&a);
        s.down(0); // EN3
        s.down(0); // EN1
        s.down(0); // shot#1 leaf
        assert!(s.sibling(1)); // shot#2
        let v = s.view();
        assert_eq!(v.name, "SN_2^0");
        assert!(s.sibling(2)); // shot#4
        assert_eq!(s.view().name, "SN_4^0");
        assert!(!s.sibling(1), "shot#4 is the last child of EN1");
        assert!(s.sibling(-3)); // back to shot#1
        assert_eq!(s.view().name, "SN_1^0");
        assert!(!s.sibling(-1));
    }

    #[test]
    fn breadcrumbs_trace_the_story() {
        let a = figure5_analysis();
        let mut s = BrowseSession::at_root(&a);
        s.down(0);
        s.down(1); // EN2 (SN_7^1)
        assert_eq!(s.breadcrumbs(), vec!["SN_1^3", "SN_1^2", "SN_7^1"]);
    }

    #[test]
    fn shot_frame_ranges_match_shots() {
        let a = figure5_analysis();
        let mut s = BrowseSession::at_root(&a);
        // Leaf of shot#5 (C): frames 47..=58.
        s.jump(a.scene_tree.leaf_of_shot(4).unwrap());
        let v = s.view();
        assert_eq!(v.frame_range, (a.shots[4].start, a.shots[4].end));
        assert!(v.is_shot);
    }

    #[test]
    fn drill_follows_name_chain() {
        let a = figure5_analysis();
        let mut s = BrowseSession::at_root(&a);
        // Root is SN_1^3 -> drilling reaches shot#1's leaf.
        let leaf = s.drill_to_named_shot();
        assert_eq!(leaf, a.scene_tree.leaf_of_shot(0).unwrap());
        assert_eq!(s.view().name, "SN_1^0");
        // Rep frame at every step of that chain is the same.
        assert_eq!(
            a.scene_tree.node(a.scene_tree.root()).rep_frame,
            a.scene_tree.node(leaf).rep_frame
        );
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
        let mut s = BrowseSession::at_node(&a, node);
        assert_eq!(s.view().name, "SN_7^1");
        // The user refines downward: EN2's children are shots 5, 6, 7.
        assert!(s.down(2));
        assert_eq!(s.view().name, "SN_7^0");
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
