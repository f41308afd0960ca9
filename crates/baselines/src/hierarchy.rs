//! Browsing-hierarchy baselines the paper compares its scene tree against.
//!
//! * **Time-based** (Zhang et al. \[18\]): split the shot sequence into equal
//!   segments, recursively — "a drawback of this approach is that only time
//!   is considered; and no visual content is used".
//! * **Fixed four-level** (Rui et al. \[22\]): a video–scene–group–shot
//!   hierarchy whose height is the same for every video, however simple or
//!   complex its structure.
//!
//! Both are represented as a [`BrowseTree`] — a minimal rooted tree over
//! shot leaves — which the paper's scene tree also converts into, so the
//! evaluation can compare *shape* (height, node count) and *quality*
//! (location purity) uniformly.

use vdb_core::pixel::Rgb;
use vdb_core::relationship::shots_related;
use vdb_core::scenetree::SceneTree;
use vdb_core::shot::Shot;

/// A minimal rooted tree whose leaves are shot indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrowseTree {
    /// `children[n]` lists node `n`'s children.
    children: Vec<Vec<usize>>,
    /// `leaf_shot[n]` is `Some(shot)` for leaves.
    leaf_shot: Vec<Option<usize>>,
    root: usize,
}

impl BrowseTree {
    fn new_node(&mut self, leaf: Option<usize>) -> usize {
        self.children.push(Vec::new());
        self.leaf_shot.push(leaf);
        self.children.len() - 1
    }

    /// The root node id.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.children.len()
    }

    /// Children of a node.
    pub fn children(&self, n: usize) -> &[usize] {
        &self.children[n]
    }

    /// The shot of a leaf node.
    pub fn leaf_shot(&self, n: usize) -> Option<usize> {
        self.leaf_shot[n]
    }

    /// Height: edges on the longest root-to-leaf path.
    pub fn height(&self) -> usize {
        fn depth(t: &BrowseTree, n: usize) -> usize {
            t.children[n]
                .iter()
                .map(|&c| 1 + depth(t, c))
                .max()
                .unwrap_or(0)
        }
        depth(self, self.root)
    }

    /// All shot indices under a node, in order.
    pub fn shots_under(&self, n: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![n];
        while let Some(m) = stack.pop() {
            if let Some(s) = self.leaf_shot[m] {
                out.push(s);
            }
            for &c in self.children[m].iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Location purity: for every internal node except the root (which, in
    /// any hierarchy, groups the entire video), the fraction of its leaf
    /// shots that share the node's majority location, averaged over those
    /// nodes weighted by leaf count. 1.0 means every scene grouping is
    /// location-coherent; a content-blind hierarchy scores lower.
    ///
    /// `locations[s]` is the ground-truth location of shot `s`.
    pub fn location_purity(&self, locations: &[u32]) -> f64 {
        let mut weighted = 0.0;
        let mut weight = 0.0;
        for n in 0..self.node_count() {
            if n == self.root || self.leaf_shot[n].is_some() || self.children[n].is_empty() {
                continue;
            }
            let shots = self.shots_under(n);
            if shots.len() < 2 {
                continue;
            }
            let mut counts: std::collections::HashMap<u32, usize> =
                std::collections::HashMap::new();
            for &s in &shots {
                *counts.entry(locations[s]).or_insert(0) += 1;
            }
            let majority = counts.values().copied().max().unwrap_or(0);
            weighted += (majority as f64 / shots.len() as f64) * shots.len() as f64;
            weight += shots.len() as f64;
        }
        if weight == 0.0 {
            1.0
        } else {
            weighted / weight
        }
    }

    /// Convert the paper's scene tree into the common representation.
    pub fn from_scene_tree(tree: &SceneTree) -> Self {
        let mut out = BrowseTree {
            children: Vec::new(),
            leaf_shot: Vec::new(),
            root: 0,
        };
        // Map scene-tree node ids to BrowseTree ids via DFS.
        let mut map = vec![usize::MAX; tree.len()];
        for id in tree.dfs() {
            let node = tree.node(id);
            let new = out.new_node(node.shot);
            map[id] = new;
            if let Some(p) = node.parent {
                let mapped_parent = map[p];
                out.children[mapped_parent].push(new);
            }
        }
        out.root = map[tree.root()];
        out
    }

    /// The time-based hierarchy of \[18\]: recursively split the shot list
    /// into `branching` equal segments until segments are single shots.
    pub fn time_based(n_shots: usize, branching: usize) -> Self {
        assert!(n_shots > 0 && branching >= 2);
        let mut out = BrowseTree {
            children: Vec::new(),
            leaf_shot: Vec::new(),
            root: 0,
        };
        fn split(out: &mut BrowseTree, shots: std::ops::Range<usize>, branching: usize) -> usize {
            let len = shots.end - shots.start;
            if len == 1 {
                return out.new_node(Some(shots.start));
            }
            let node = out.new_node(None);
            let parts = branching.min(len);
            let mut kids = Vec::with_capacity(parts);
            for p in 0..parts {
                let a = shots.start + len * p / parts;
                let b = shots.start + len * (p + 1) / parts;
                kids.push(split(out, a..b, branching));
            }
            out.children[node] = kids;
            node
        }
        out.root = split(&mut out, 0..n_shots, branching);
        out
    }

    /// The fixed four-level video–scene–group–shot hierarchy of \[22\]:
    /// adjacent related shots merge into *groups*, adjacent groups with any
    /// related shot pair merge into *scenes*, all scenes under the video
    /// root — always exactly this shape, however complex the video.
    pub fn fixed_four_level(shots: &[Shot], signs_ba: &[Rgb]) -> Self {
        assert!(!shots.is_empty());
        let sig = |s: &Shot| &signs_ba[s.start..=s.end];
        // Level 1: groups of adjacent related shots.
        let mut groups: Vec<Vec<usize>> = vec![vec![0]];
        for i in 1..shots.len() {
            let prev = *groups.last().unwrap().last().unwrap();
            if shots_related(sig(&shots[i]), sig(&shots[prev])) {
                groups.last_mut().unwrap().push(i);
            } else {
                groups.push(vec![i]);
            }
        }
        // Level 2: scenes of adjacent groups that share any related pair.
        let related_groups = |a: &[usize], b: &[usize]| {
            a.iter().any(|&x| {
                b.iter()
                    .any(|&y| shots_related(sig(&shots[x]), sig(&shots[y])))
            })
        };
        let mut scenes: Vec<Vec<usize>> = vec![vec![0]]; // indices into groups
        for g in 1..groups.len() {
            let prev = *scenes.last().unwrap().last().unwrap();
            if related_groups(&groups[g], &groups[prev]) {
                scenes.last_mut().unwrap().push(g);
            } else {
                scenes.push(vec![g]);
            }
        }
        // Assemble.
        let mut out = BrowseTree {
            children: Vec::new(),
            leaf_shot: Vec::new(),
            root: 0,
        };
        let root = out.new_node(None);
        out.root = root;
        for scene in &scenes {
            let scene_node = out.new_node(None);
            out.children[root].push(scene_node);
            for &g in scene {
                let group_node = out.new_node(None);
                out.children[scene_node].push(group_node);
                for &s in &groups[g] {
                    let leaf = out.new_node(Some(s));
                    out.children[group_node].push(leaf);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf_count(h: &BrowseTree) -> usize {
        h.leaf_shot.iter().filter(|s| s.is_some()).count()
    }
    use vdb_core::scenetree::build_scene_tree;

    fn scripted(labels: &[(u8, usize)]) -> (Vec<Shot>, Vec<Rgb>) {
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
        (shots, signs)
    }

    #[test]
    fn time_based_shape() {
        let t = BrowseTree::time_based(8, 2);
        assert_eq!(leaf_count(&t), 8);
        assert_eq!(t.height(), 3); // 8 -> 4 -> 2 -> 1
        assert_eq!(t.shots_under(t.root()), (0..8).collect::<Vec<_>>());
        let t3 = BrowseTree::time_based(9, 3);
        assert_eq!(t3.height(), 2); // 9 -> 3 -> 1
    }

    #[test]
    fn time_based_single_shot() {
        let t = BrowseTree::time_based(1, 2);
        assert_eq!(leaf_count(&t), 1);
        assert_eq!(t.height(), 0);
    }

    #[test]
    fn time_based_ignores_content() {
        // Purity of a time split over an alternating A/B dialogue is ~0.5:
        // the groups mix locations because time alone decides.
        let locations = [0u32, 1, 0, 1, 0, 1, 0, 1];
        let t = BrowseTree::time_based(8, 2);
        let p = t.location_purity(&locations);
        assert!(p < 0.7, "time-based purity {p}");
    }

    #[test]
    fn fixed_four_level_height_is_constant() {
        // Simple video: all unrelated.
        let (shots, signs) = scripted(&[(0, 3), (1, 3), (2, 3), (3, 3)]);
        let t = BrowseTree::fixed_four_level(&shots, &signs);
        assert_eq!(t.height(), 3, "video-scene-group-shot");
        assert_eq!(leaf_count(&t), 4);
        // Complex video: many repetitions — height still 3.
        let (shots2, signs2) = scripted(&[
            (0, 3),
            (1, 3),
            (0, 3),
            (2, 3),
            (0, 3),
            (3, 3),
            (3, 3),
            (4, 3),
        ]);
        let t2 = BrowseTree::fixed_four_level(&shots2, &signs2);
        assert_eq!(t2.height(), 3);
    }

    #[test]
    fn fixed_four_level_groups_adjacent_related() {
        let (shots, signs) = scripted(&[(0, 3), (0, 3), (1, 3), (1, 3)]);
        let t = BrowseTree::fixed_four_level(&shots, &signs);
        // Two groups of two; perfectly pure.
        assert_eq!(t.location_purity(&[0, 0, 1, 1]), 1.0);
    }

    #[test]
    fn scene_tree_conversion_preserves_shape() {
        let (shots, signs) = scripted(&[(0, 5), (1, 4), (0, 4), (2, 6), (0, 3)]);
        let tree = build_scene_tree(&shots, &signs);
        let bt = BrowseTree::from_scene_tree(&tree);
        assert_eq!(leaf_count(&bt), 5);
        assert_eq!(bt.node_count(), tree.len());
        assert_eq!(bt.height(), tree.height());
        let mut under = bt.shots_under(bt.root());
        under.sort_unstable();
        assert_eq!(under, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn scene_tree_beats_time_based_on_purity() {
        // The paper's claim in measurable form: on a dialogue-structured
        // video, the content-based scene tree groups by location; the
        // time-based hierarchy does not.
        let labels = [
            (0u8, 4),
            (1, 4),
            (0, 4),
            (1, 4),
            (2, 4),
            (3, 4),
            (2, 4),
            (3, 4),
        ];
        let (shots, signs) = scripted(&labels);
        let locations: Vec<u32> = labels.iter().map(|&(l, _)| u32::from(l)).collect();
        let scene = BrowseTree::from_scene_tree(&build_scene_tree(&shots, &signs));
        let time = BrowseTree::time_based(shots.len(), 2);
        assert!(
            scene.location_purity(&locations) > time.location_purity(&locations),
            "scene {} vs time {}",
            scene.location_purity(&locations),
            time.location_purity(&locations)
        );
    }

    #[test]
    fn purity_of_single_location_video_is_one() {
        let (shots, signs) = scripted(&[(0, 3), (0, 3), (0, 3)]);
        let t = BrowseTree::fixed_four_level(&shots, &signs);
        assert_eq!(t.location_purity(&[5, 5, 5]), 1.0);
    }
}
