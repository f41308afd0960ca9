//! Scene-tree construction for non-linear browsing (§3, Figures 5–6).
//!
//! The scene tree is a browsing hierarchy of unbounded height built purely
//! from visual content: adjacent shots sharing similar backgrounds
//! (algorithm RELATIONSHIP) are grouped into scenes, scenes with related
//! shots into higher-level scenes, and so on. "The shape and size of a
//! scene tree are determined only by the semantic complexity of the video."
//!
//! # Construction (paper steps 1–6)
//!
//! 1. A level-0 scene node is created per shot.
//! 2. Shots are visited in order starting from the third.
//! 3. Each shot `i` is compared (RELATIONSHIP) against earlier shots in
//!    descending order until a related shot `j` is found. *Note:* the
//!    paper's step 3 lists the comparison sequence as `i−2, …, 1`, but its
//!    own worked example (Figure 6(g)) connects shot #9 to EN4 because it
//!    is "related to the immediate previous node, shot#8" — which requires
//!    comparing with `i−1` as well. We therefore compare `i−1, i−2, …, 1`;
//!    this is the only reading that reproduces the published figure.
//! 4. Depending on whether `SN⁰_{i−1}` and `SN⁰_j` have parents / share an
//!    ancestor, shot `i` joins an existing scene or forces creation of a
//!    new one (three scenarios, reproduced below).
//! 5. At the end, all parentless nodes are connected to a root.
//! 6. Every *empty* (internal) node is named `SN_m^{c+1}` after the child
//!    whose shot `m` has the longest run of identical `Sign^BA` values, and
//!    inherits that child's representative frame.

use crate::pixel::Rgb;
use crate::relationship::{shots_related_with_threshold, RELATED_THRESHOLD_PERCENT};
use crate::shot::{longest_sign_run, representative_frame_offset, Shot};

/// Identifier of a node within one [`SceneTree`]'s arena.
pub type NodeId = usize;

/// One scene node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SceneNode {
    /// Arena id.
    pub id: NodeId,
    /// Parent node (`None` only for the root).
    pub parent: Option<NodeId>,
    /// Children in temporal order.
    pub children: Vec<NodeId>,
    /// For level-0 nodes, the shot this node was created from.
    pub shot: Option<usize>,
    /// The `m` of the node's name `SN_m^c`: the shot whose representative
    /// frame this node displays.
    pub name_shot: usize,
    /// The `c` of the node's name `SN_m^c` (0 for leaves).
    pub level: usize,
    /// Absolute frame index of the representative frame.
    pub rep_frame: usize,
}

impl SceneNode {
    /// Whether this is a level-0 (shot) node.
    pub fn is_leaf(&self) -> bool {
        self.shot.is_some()
    }

    /// The paper's name notation, e.g. `SN_1^2` (shot ids printed 1-based
    /// as in the paper).
    pub fn name(&self) -> String {
        format!("SN_{}^{}", self.name_shot + 1, self.level)
    }
}

/// A fully built scene tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SceneTree {
    nodes: Vec<SceneNode>,
    root: NodeId,
    /// `leaf[s]` is the node id of shot `s`'s level-0 node.
    leaves: Vec<NodeId>,
}

/// Parameters of tree construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneTreeConfig {
    /// RELATIONSHIP threshold on `D_s` in percent (paper: 10.0).
    pub relationship_threshold_percent: f64,
}

impl Default for SceneTreeConfig {
    fn default() -> Self {
        SceneTreeConfig {
            relationship_threshold_percent: RELATED_THRESHOLD_PERCENT,
        }
    }
}

struct Builder<'a> {
    nodes: Vec<SceneNode>,
    leaves: Vec<NodeId>,
    shots: &'a [Shot],
    signs: &'a [Rgb],
    threshold: f64,
}

impl<'a> Builder<'a> {
    fn new(shots: &'a [Shot], signs: &'a [Rgb], threshold: f64) -> Self {
        let mut nodes = Vec::with_capacity(shots.len() * 2);
        let mut leaves = Vec::with_capacity(shots.len());
        for (s, shot) in shots.iter().enumerate() {
            let rep = shot.start + representative_frame_offset(&signs[shot.start..=shot.end]);
            let id = nodes.len();
            nodes.push(SceneNode {
                id,
                parent: None,
                children: Vec::new(),
                shot: Some(s),
                name_shot: s,
                level: 0,
                rep_frame: rep,
            });
            leaves.push(id);
        }
        Builder {
            nodes,
            leaves,
            shots,
            signs,
            threshold,
        }
    }

    fn shot_signs(&self, s: usize) -> &'a [Rgb] {
        let shot = &self.shots[s];
        &self.signs[shot.start..=shot.end]
    }

    fn new_empty(&mut self) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(SceneNode {
            id,
            parent: None,
            children: Vec::new(),
            shot: None,
            name_shot: usize::MAX, // assigned during naming
            level: 0,
            rep_frame: 0,
        });
        id
    }

    fn connect(&mut self, child: NodeId, parent: NodeId) {
        debug_assert!(
            self.nodes[child].parent.is_none(),
            "single-parent invariant"
        );
        self.nodes[child].parent = Some(parent);
        self.nodes[parent].children.push(child);
    }

    fn oldest_ancestor(&self, mut n: NodeId) -> NodeId {
        while let Some(p) = self.nodes[n].parent {
            n = p;
        }
        n
    }

    /// Proper ancestors of `n`, nearest first.
    fn ancestors(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = self.nodes[n].parent;
        while let Some(p) = cur {
            out.push(p);
            cur = self.nodes[p].parent;
        }
        out
    }

    /// Lowest common proper ancestor of two distinct nodes, if any.
    fn lowest_common_ancestor(&self, a: NodeId, b: NodeId) -> Option<NodeId> {
        let anc_a = self.ancestors(a);
        let anc_b = self.ancestors(b);
        anc_a.iter().copied().find(|x| anc_b.contains(x))
    }

    /// Step 3: find the related shot `j` for shot `i`, scanning
    /// `i−1, i−2, …, 0` (see module docs for why `i−1` is included).
    fn find_related(&self, i: usize) -> Option<usize> {
        (0..i).rev().find(|&j| {
            shots_related_with_threshold(self.shot_signs(i), self.shot_signs(j), self.threshold)
        })
    }

    /// Step 4 when the related shot is the immediate predecessor: shot `i`
    /// simply joins shot `i−1`'s scene.
    fn join_predecessor(&mut self, i: usize) {
        let prev = self.leaves[i - 1];
        match self.nodes[prev].parent {
            Some(p) => self.connect(self.leaves[i], p),
            None => {
                let en = self.new_empty();
                self.connect(prev, en);
                self.connect(self.leaves[i], en);
            }
        }
    }

    /// Step 4, the paper's three scenarios for `SN⁰_{i−1}` vs `SN⁰_j`.
    fn attach(&mut self, i: usize, j: usize) {
        if j == i - 1 {
            self.join_predecessor(i);
            return;
        }
        let p = self.leaves[i - 1];
        let q = self.leaves[j];
        let p_parentless = self.nodes[p].parent.is_none();
        let q_parentless = self.nodes[q].parent.is_none();
        if p_parentless && q_parentless {
            // Scenario 1: connect all scene nodes SN_j^0 .. SN_i^0 to a new
            // empty node. (Intermediate leaves may already sit in a subtree;
            // connecting each leaf's current oldest ancestor preserves the
            // single-parent invariant in that defensive case.)
            let en = self.new_empty();
            let mut seen = Vec::new();
            for t in j..=i {
                let top = self.oldest_ancestor(self.leaves[t]);
                if top != en && !seen.contains(&top) {
                    seen.push(top);
                    self.connect(top, en);
                }
            }
        } else if let Some(lca) = self.lowest_common_ancestor(p, q) {
            // Scenario 2: they share an ancestor; join it.
            self.connect(self.leaves[i], lca);
        } else {
            // Scenario 3: no shared ancestor. Shot i joins the previous
            // shot's subtree; then the two subtrees are united under a new
            // empty node.
            let mut top_prev = self.oldest_ancestor(p);
            if self.nodes[top_prev].is_leaf() {
                // Defensive: never give a leaf children — interpose an
                // empty node (the paper's scenarios implicitly assume the
                // previous shot is already grouped).
                let en = self.new_empty();
                self.connect(top_prev, en);
                top_prev = en;
            }
            self.connect(self.leaves[i], top_prev);
            let top_j = self.oldest_ancestor(q);
            debug_assert_ne!(top_j, top_prev);
            let en = self.new_empty();
            // Temporal order: the earlier subtree first (Figure 6(d) shows
            // EN1 left of EN2 under EN3).
            self.connect(top_j, en);
            self.connect(top_prev, en);
        }
    }

    /// Step 5: connect every parentless node to a root. If exactly one
    /// parentless node remains it *is* the root (avoids a single-child
    /// root; with more than one, the paper's new empty root is created).
    fn finish_root(&mut self) -> NodeId {
        let tops: Vec<NodeId> = (0..self.nodes.len())
            .filter(|&n| self.nodes[n].parent.is_none())
            .collect();
        if tops.len() == 1 {
            let only = tops[0];
            if !self.nodes[only].is_leaf() {
                return only;
            }
        }
        let root = self.new_empty();
        let tops: Vec<NodeId> = (0..self.nodes.len())
            .filter(|&n| n != root && self.nodes[n].parent.is_none())
            .collect();
        for t in tops {
            self.connect(t, root);
        }
        root
    }

    /// Step 6: name every empty node after the child whose shot has the
    /// longest run of identical `Sign^BA`s; inherit its representative
    /// frame; level = chosen child's level + 1.
    fn name_nodes(&mut self, root: NodeId) {
        // Post-order traversal without recursion.
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            order.push(n);
            stack.extend(self.nodes[n].children.iter().copied());
        }
        // Children appear after parents in `order`; reverse for post-order.
        for &n in order.iter().rev() {
            if self.nodes[n].is_leaf() {
                continue;
            }
            let mut best: Option<(usize, usize, usize, usize)> = None; // (run_len, neg? shot, level, rep)
            for &ch in &self.nodes[n].children {
                let m = self.nodes[ch].name_shot;
                let run = longest_sign_run(self.shot_signs(m)).1;
                let candidate = (run, m, self.nodes[ch].level, self.nodes[ch].rep_frame);
                best = Some(match best {
                    None => candidate,
                    Some(cur) => {
                        // Longest run wins; ties break toward the earliest
                        // shot (smallest id).
                        if candidate.0 > cur.0 || (candidate.0 == cur.0 && candidate.1 < cur.1) {
                            candidate
                        } else {
                            cur
                        }
                    }
                });
            }
            let (_, m, child_level, rep) =
                best.expect("empty internal nodes are never created without children");
            self.nodes[n].name_shot = m;
            self.nodes[n].level = child_level + 1;
            self.nodes[n].rep_frame = rep;
        }
    }

    fn build(mut self) -> SceneTree {
        // Step 2: i starts at the third shot.
        for i in 2..self.shots.len() {
            match self.find_related(i) {
                Some(j) => self.attach(i, j),
                None => {
                    let en = self.new_empty();
                    self.connect(self.leaves[i], en);
                }
            }
        }
        let root = self.finish_root();
        self.name_nodes(root);
        SceneTree {
            nodes: self.nodes,
            root,
            leaves: self.leaves,
        }
    }
}

/// Build a scene tree from the detected shots and the per-frame `Sign^BA`
/// sequence (indexed by absolute frame number).
///
/// # Panics
/// Panics if `shots` is empty or a shot's range exceeds `signs_ba`.
pub fn build_scene_tree(shots: &[Shot], signs_ba: &[Rgb]) -> SceneTree {
    build_scene_tree_with_config(shots, signs_ba, SceneTreeConfig::default())
}

/// [`build_scene_tree`] with an explicit configuration.
pub fn build_scene_tree_with_config(
    shots: &[Shot],
    signs_ba: &[Rgb],
    config: SceneTreeConfig,
) -> SceneTree {
    assert!(!shots.is_empty(), "cannot build a scene tree with no shots");
    let last = shots.last().unwrap();
    assert!(
        last.end < signs_ba.len(),
        "sign sequence shorter than the video"
    );
    Builder::new(shots, signs_ba, config.relationship_threshold_percent).build()
}

impl SceneTree {
    /// Rebuild a tree from its nodes in arena order (a stored tree's only
    /// persisted part). Each node's `id` is set to its position; the root
    /// is the one parentless node and the shot → leaf map comes from the
    /// leaves' `shot` fields. The result must pass
    /// [`SceneTree::check_invariants`], so nodes from an untrusted source
    /// either make a tree every accessor can walk or an `Err`.
    pub fn from_nodes(mut nodes: Vec<SceneNode>) -> std::result::Result<SceneTree, String> {
        let mut root = None;
        for (i, n) in nodes.iter_mut().enumerate() {
            n.id = i;
            if n.parent.is_none() && root.replace(i).is_some() {
                return Err("more than one parentless node".into());
            }
        }
        let root = root.ok_or("no parentless node")?;
        let mut leaves = vec![usize::MAX; nodes.iter().filter(|n| n.is_leaf()).count()];
        for n in &nodes {
            if let Some(s) = n.shot {
                match leaves.get_mut(s) {
                    Some(slot) if *slot == usize::MAX => *slot = n.id,
                    Some(_) => return Err(format!("shot {s} has two leaves")),
                    None => {
                        return Err(format!("leaf {} names shot {s} of {}", n.id, leaves.len()))
                    }
                }
            }
        }
        let tree = SceneTree {
            nodes,
            root,
            leaves,
        };
        tree.check_invariants()?;
        Ok(tree)
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// A node by id.
    pub fn node(&self, id: NodeId) -> &SceneNode {
        &self.nodes[id]
    }

    /// All nodes (arena order: leaves first, then internal nodes in
    /// creation order).
    pub fn nodes(&self) -> &[SceneNode] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// A scene tree always has at least one node.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The level-0 node of shot `s`.
    pub fn leaf_of_shot(&self, s: usize) -> Option<NodeId> {
        self.leaves.get(s).copied()
    }

    /// Number of shots (= leaves).
    pub fn shot_count(&self) -> usize {
        self.leaves.len()
    }

    /// Tree height: the maximum `level` over all nodes (leaves are 0).
    pub fn height(&self) -> usize {
        self.nodes.iter().map(|n| n.level).max().unwrap_or(0)
    }

    /// Proper ancestors of a node, nearest first.
    pub fn ancestors(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = self.nodes[id].parent;
        while let Some(p) = cur {
            out.push(p);
            cur = self.nodes[p].parent;
        }
        out
    }

    /// The *largest scene* for shot `m`: the highest ancestor of shot `m`'s
    /// leaf that is named after `m` (shares its representative frame). This
    /// is where index-guided browsing starts (§4.2).
    pub fn largest_scene_for_shot(&self, m: usize) -> Option<NodeId> {
        let leaf = self.leaf_of_shot(m)?;
        let mut best = leaf;
        for a in self.ancestors(leaf) {
            if self.nodes[a].name_shot == m {
                best = a;
            }
        }
        Some(best)
    }

    /// Depth-first pre-order traversal ids starting at the root.
    pub fn dfs(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            out.push(n);
            // Push children reversed so the leftmost child is visited first.
            for &c in self.nodes[n].children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Validate structural invariants; returns a description of the first
    /// violation, if any. Total: every id is bounds-checked before it is
    /// followed and the walk from the root marks what it visits, so a
    /// malformed tree (say, one decoded from a corrupt record) is an
    /// `Err`, never a panic or an endless loop.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        let node = |id: NodeId| {
            self.nodes
                .get(id)
                .ok_or_else(|| format!("node id {id} out of range"))
        };
        if node(self.root)?.parent.is_some() {
            return Err("root has a parent".into());
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.id != i {
                return Err(format!("node {i} carries id {}", n.id));
            }
            match n.parent {
                Some(p) => {
                    node(p)?;
                }
                None if i != self.root => {
                    return Err(format!("non-root node {i} has no parent"));
                }
                None => {}
            }
            // Parent/child pointers agree (with the single walk below,
            // this also makes every parent list its child).
            for &c in &n.children {
                if node(c)?.parent != Some(i) {
                    return Err(format!("child {c} of {i} disowns it"));
                }
            }
            match n.shot {
                Some(s) => {
                    if !n.children.is_empty() {
                        return Err(format!("leaf {i} has children"));
                    }
                    if n.level != 0 || n.name_shot != s {
                        return Err(format!("leaf {i} is not named after its shot {s}"));
                    }
                    if self.leaves.get(s) != Some(&i) {
                        return Err(format!("shot {s} does not map to its leaf {i}"));
                    }
                }
                // Step 6: an internal node takes its name, representative
                // frame and level (+1) from one of its children — so every
                // name_shot is a real shot, by induction from the leaves.
                None => {
                    let named_after = |c: &NodeId| {
                        let ch = &self.nodes[*c];
                        n.level.checked_sub(1) == Some(ch.level)
                            && ch.name_shot == n.name_shot
                            && ch.rep_frame == n.rep_frame
                    };
                    if !n.children.iter().any(named_after) {
                        return Err(format!("internal node {i} not named after a child"));
                    }
                }
            }
        }
        for (s, &leaf) in self.leaves.iter().enumerate() {
            if node(leaf)?.shot != Some(s) {
                return Err(format!("leaf {leaf} of shot {s} is not that shot's"));
            }
        }
        // Every node reachable from the root exactly once.
        let mut seen = vec![false; self.nodes.len()];
        let mut reached = 0usize;
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut seen[n], true) {
                return Err(format!("node {n} reached twice"));
            }
            reached += 1;
            stack.extend(&self.nodes[n].children);
        }
        if reached != self.nodes.len() {
            return Err(format!("reachable {reached} of {} nodes", self.nodes.len()));
        }
        Ok(())
    }

    /// Render the tree as indented ASCII, e.g. for the Figure 7 experiment.
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        self.render_node(self.root, 0, &mut out);
        out
    }

    fn render_node(&self, id: NodeId, depth: usize, out: &mut String) {
        let n = &self.nodes[id];
        for _ in 0..depth {
            out.push_str("  ");
        }
        if let Some(s) = n.shot {
            out.push_str(&format!(
                "{} [shot#{} rep-frame {}]\n",
                n.name(),
                s + 1,
                n.rep_frame
            ));
        } else {
            out.push_str(&format!("{} [rep-frame {}]\n", n.name(), n.rep_frame));
        }
        for &c in &n.children {
            self.render_node(c, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Build shots with constant per-shot signs from `(label, len)` pairs;
    /// same label ⇒ identical background ⇒ related (D_s = 0).
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
            // Labels spaced 40 gray-levels apart: D_s = 40/256 = 15.6% > 10%.
            signs.extend(std::iter::repeat(Rgb::gray(label * 40)).take(len));
            start += len;
        }
        (shots, signs)
    }

    /// The Figure 5/6 worked example: ten shots A B A1 B1 C A2 C1 D D1 D2.
    /// Shot lengths descend so shot#1 wins every naming contest it enters,
    /// as in the paper's narration.
    fn figure5_clip() -> (Vec<Shot>, Vec<Rgb>) {
        // labels: A=0, B=1, C=2, D=3
        scripted(&[
            (0, 20), // 1 A
            (1, 10), // 2 B
            (0, 9),  // 3 A1
            (1, 8),  // 4 B1
            (2, 12), // 5 C
            (0, 7),  // 6 A2
            (2, 13), // 7 C1  (longest within EN2 -> EN2 named SN_7^1)
            (3, 11), // 8 D
            (3, 6),  // 9 D1
            (3, 5),  // 10 D2
        ])
    }

    /// Golden test: the full Figure 6(g) structure.
    #[test]
    fn figure6_structure() {
        let (shots, signs) = figure5_clip();
        let tree = build_scene_tree(&shots, &signs);
        tree.check_invariants().unwrap();

        let leaf = |s: usize| tree.leaf_of_shot(s).unwrap();
        let parent = |n: NodeId| tree.node(n).parent.unwrap();

        // EN1 = parent of shots 1..4 (ids 0..=3).
        let en1 = parent(leaf(0));
        for s in 0..4 {
            assert_eq!(parent(leaf(s)), en1, "shot#{} must sit under EN1", s + 1);
        }
        // EN2 = parent of shots 5, 6, 7 (ids 4..=6).
        let en2 = parent(leaf(4));
        for s in 4..7 {
            assert_eq!(parent(leaf(s)), en2, "shot#{} must sit under EN2", s + 1);
        }
        assert_ne!(en1, en2);
        // EN3 = common parent of EN1 and EN2.
        let en3 = parent(en1);
        assert_eq!(parent(en2), en3);
        // EN4 = parent of shots 8, 9, 10.
        let en4 = parent(leaf(7));
        assert_eq!(parent(leaf(8)), en4, "shot#9 joins EN4 (Fig. 6(g))");
        assert_eq!(parent(leaf(9)), en4, "shot#10 joins EN4 (Fig. 6(g))");
        // Root = parent of EN3 and EN4.
        let root = parent(en3);
        assert_eq!(parent(en4), root);
        assert_eq!(root, tree.root());
        assert_eq!(tree.node(root).parent, None);

        // Naming (paper narration): EN1 -> SN_1^1, EN3 -> SN_1^2; EN2 is
        // named after its longest-run child (shot#7 here) -> SN_7^1.
        assert_eq!(tree.node(en1).name(), "SN_1^1");
        assert_eq!(tree.node(en3).name(), "SN_1^2");
        assert_eq!(tree.node(en2).name(), "SN_7^1");
        assert_eq!(tree.node(en4).name(), "SN_8^1");
        // Root: children levels are 2 (EN3) and 1 (EN4); shot#1's run (20)
        // beats shot#8's (11) -> SN_1^3.
        assert_eq!(tree.node(root).name(), "SN_1^3");
        assert_eq!(tree.height(), 3);

        // Representative frames propagate: EN3 shows shot#1's rep frame.
        assert_eq!(tree.node(en3).rep_frame, tree.node(leaf(0)).rep_frame);
    }

    #[test]
    fn figure6_largest_scenes() {
        let (shots, signs) = figure5_clip();
        let tree = build_scene_tree(&shots, &signs);
        // Shot#1's largest scene is the root (named SN_1^3).
        let big1 = tree.largest_scene_for_shot(0).unwrap();
        assert_eq!(big1, tree.root());
        // Shot#7's largest scene is EN2 (SN_7^1).
        let big7 = tree.largest_scene_for_shot(6).unwrap();
        assert_eq!(tree.node(big7).name(), "SN_7^1");
        // Shot#2 names nothing: its largest scene is its own leaf.
        let big2 = tree.largest_scene_for_shot(1).unwrap();
        assert_eq!(big2, tree.leaf_of_shot(1).unwrap());
    }

    #[test]
    fn single_shot_tree() {
        let (shots, signs) = scripted(&[(0, 5)]);
        let tree = build_scene_tree(&shots, &signs);
        tree.check_invariants().unwrap();
        assert_eq!(tree.shot_count(), 1);
        // One leaf under a root created by step 5.
        assert_eq!(tree.len(), 2);
        assert_eq!(tree.height(), 1);
    }

    #[test]
    fn two_unrelated_shots() {
        let (shots, signs) = scripted(&[(0, 5), (1, 5)]);
        let tree = build_scene_tree(&shots, &signs);
        tree.check_invariants().unwrap();
        // Loop never runs (starts at third shot): both leaves hang off the root.
        assert_eq!(tree.len(), 3);
        let r = tree.root();
        assert_eq!(tree.node(r).children.len(), 2);
    }

    #[test]
    fn all_related_shots_form_one_scene() {
        let (shots, signs) = scripted(&[(0, 5), (0, 5), (0, 5), (0, 5), (0, 5)]);
        let tree = build_scene_tree(&shots, &signs);
        tree.check_invariants().unwrap();
        // shot#3 relates to shot#2 (i−1): EN over {1?...}. Trace: i=2 (0-based)
        // relates to j=1 -> join_predecessor -> EN{leaf1, leaf2}... then each
        // later shot joins the same EN. Shot#1 (leaf 0) is picked up by the
        // root step.
        let en = tree.node(tree.leaf_of_shot(2).unwrap()).parent.unwrap();
        assert_eq!(tree.node(tree.leaf_of_shot(1).unwrap()).parent, Some(en));
        assert_eq!(tree.node(tree.leaf_of_shot(3).unwrap()).parent, Some(en));
        assert_eq!(tree.node(tree.leaf_of_shot(4).unwrap()).parent, Some(en));
    }

    #[test]
    fn alternating_dialogue_groups_under_one_scene() {
        // A B A B A B — the classic two-camera dialogue; Figure 6(a)/(b)
        // logic groups them all under EN1.
        let (shots, signs) = scripted(&[(0, 5), (1, 5), (0, 5), (1, 5), (0, 5), (1, 5)]);
        let tree = build_scene_tree(&shots, &signs);
        tree.check_invariants().unwrap();
        let en1 = tree.node(tree.leaf_of_shot(0).unwrap()).parent.unwrap();
        for s in 0..6 {
            assert_eq!(
                tree.node(tree.leaf_of_shot(s).unwrap()).parent,
                Some(en1),
                "shot {} must join the dialogue scene",
                s + 1
            );
        }
    }

    #[test]
    fn unrelated_run_creates_new_scene_each_time() {
        let (shots, signs) = scripted(&[(0, 4), (1, 4), (2, 4), (3, 4), (4, 4), (5, 4)]);
        let tree = build_scene_tree(&shots, &signs);
        tree.check_invariants().unwrap();
        // Every shot from the third onward got its own empty parent; no two
        // leaves share a parent.
        for a in 2..6 {
            for b in (a + 1)..6 {
                assert_ne!(
                    tree.node(tree.leaf_of_shot(a).unwrap()).parent,
                    tree.node(tree.leaf_of_shot(b).unwrap()).parent
                );
            }
        }
    }

    #[test]
    fn naming_prefers_longest_run_then_earliest() {
        // Two related shots with different run lengths: the longer run names
        // the scene; equal runs -> earliest shot.
        let (shots, signs) = scripted(&[(0, 3), (1, 5), (0, 9)]);
        let tree = build_scene_tree(&shots, &signs);
        tree.check_invariants().unwrap();
        let en1 = tree.node(tree.leaf_of_shot(0).unwrap()).parent.unwrap();
        // Children: shots 1 (run 3), 2 (run 5), 3 (run 9) -> named SN_3^1.
        assert_eq!(tree.node(en1).name(), "SN_3^1");

        let (shots, signs) = scripted(&[(0, 5), (1, 5), (0, 5)]);
        let tree = build_scene_tree(&shots, &signs);
        let en1 = tree.node(tree.leaf_of_shot(0).unwrap()).parent.unwrap();
        assert_eq!(tree.node(en1).name(), "SN_1^1", "ties break earliest");
    }

    #[test]
    fn ascii_render_contains_all_names() {
        let (shots, signs) = figure5_clip();
        let tree = build_scene_tree(&shots, &signs);
        let art = tree.render_ascii();
        for n in tree.nodes() {
            assert!(art.contains(&n.name()), "render must mention {}", n.name());
        }
        // Leaves mention their shot number.
        assert!(art.contains("shot#10"));
    }

    #[test]
    fn from_nodes_rebuilds_the_figure6_tree() {
        let (shots, signs) = figure5_clip();
        let tree = build_scene_tree(&shots, &signs);
        let mut nodes = tree.nodes().to_vec();
        // Ids are positions: whatever a node list carries is replaced.
        for n in &mut nodes {
            n.id = usize::MAX;
        }
        assert_eq!(SceneTree::from_nodes(nodes), Ok(tree));
    }

    /// Each edit breaks one rule; `from_nodes` answers `Err`, without a
    /// panic on a wild id and without looping on a cycle.
    #[test]
    fn from_nodes_refuses_malformed_node_lists() {
        let (shots, signs) = figure5_clip();
        let tree = build_scene_tree(&shots, &signs);
        let leaf = tree.leaf_of_shot(0).unwrap();
        let up = tree.node(leaf).parent.unwrap();
        let top = tree.node(up).parent.unwrap();
        type Edit = fn(&mut Vec<SceneNode>, NodeId, NodeId, NodeId);
        let edits: [(&str, Edit); 10] = [
            ("empty", |nodes, _, _, _| nodes.clear()),
            ("parent out of range", |nodes, leaf, _, _| {
                nodes[leaf].parent = Some(999)
            }),
            ("child out of range", |nodes, _, up, _| {
                nodes[up].children.push(999)
            }),
            ("two nodes each other's parent", |nodes, _, up, top| {
                nodes[top].parent = Some(up);
                nodes[up].children.push(top);
            }),
            ("own parent", |nodes, _, up, _| {
                nodes[up].parent = Some(up);
                nodes[up].children.push(up);
            }),
            ("child listed twice", |nodes, leaf, up, _| {
                nodes[up].children.push(leaf)
            }),
            ("shot out of range", |nodes, leaf, _, _| {
                nodes[leaf].shot = Some(usize::MAX)
            }),
            ("two leaves of one shot", |nodes, leaf, _, _| {
                nodes[leaf + 1].shot = nodes[leaf].shot
            }),
            ("level not derived from a child", |nodes, _, up, _| {
                nodes[up].level = usize::MAX
            }),
            ("named after no child", |nodes, _, up, _| {
                nodes[up].name_shot = usize::MAX
            }),
        ];
        for (what, edit) in edits {
            let mut nodes = tree.nodes().to_vec();
            edit(&mut nodes, leaf, up, top);
            assert!(SceneTree::from_nodes(nodes).is_err(), "{what} accepted");
        }
    }

    #[test]
    #[should_panic(expected = "no shots")]
    fn empty_shots_panic() {
        build_scene_tree(&[], &[]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random label scripts always yield structurally valid trees
        /// containing every shot exactly once.
        #[test]
        fn prop_tree_invariants(labels in prop::collection::vec((0u8..5, 1usize..6), 1..24)) {
            let (shots, signs) = scripted(&labels);
            let tree = build_scene_tree(&shots, &signs);
            prop_assert!(tree.check_invariants().is_ok(), "{:?}", tree.check_invariants());
            prop_assert_eq!(tree.shot_count(), labels.len());
            // Height bounded by node count.
            prop_assert!(tree.height() < tree.len());
            // dfs covers everything exactly once.
            let mut ids = tree.dfs();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), tree.len());
            prop_assert_eq!(SceneTree::from_nodes(tree.nodes().to_vec()), Ok(tree));
        }

        /// The representative frame of every node lies inside its named
        /// shot's frame range.
        #[test]
        fn prop_rep_frames_inside_named_shot(labels in prop::collection::vec((0u8..4, 1usize..6), 1..20)) {
            let (shots, signs) = scripted(&labels);
            let tree = build_scene_tree(&shots, &signs);
            for n in tree.nodes() {
                let shot = &shots[n.name_shot];
                prop_assert!(shot.contains(n.rep_frame),
                    "node {} rep {} outside shot {:?}", n.name(), n.rep_frame, shot);
            }
        }

        /// Content anchoring: every non-root internal node with at least two
        /// leaf descendants contains a shot that is RELATIONSHIP-related to
        /// another shot under the node's *parent*. (The pair is not always
        /// inside the node itself: in the paper's own Figure 6(d), EN2 holds
        /// {C, A2} with the anchor A2~A1 sitting across EN3. And scenes may
        /// absorb interleaved unrelated shots, Fig. 6(a).)
        #[test]
        fn prop_scenes_anchored_by_related_pair(labels in prop::collection::vec((0u8..5, 1usize..5), 1..20)) {
            use crate::relationship::shots_related;
            let (shots, signs) = scripted(&labels);
            let tree = build_scene_tree(&shots, &signs);
            let shot_signs = |s: usize| {
                let shot = &shots[s];
                &signs[shot.start..=shot.end]
            };
            let leaves_under = |root: NodeId| {
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
                            && (shots_related(shot_signs(a), shot_signs(b))
                                || shots_related(shot_signs(b), shot_signs(a)))
                    })
                });
                prop_assert!(anchored, "node {} shots {:?} unanchored", node.name(), inside);
            }
        }

        /// The "largest scene" of a shot is the shot's own leaf or one of
        /// its ancestors, and is always named after that shot.
        #[test]
        fn prop_largest_scene_is_ancestor(labels in prop::collection::vec((0u8..4, 1usize..5), 1..16)) {
            let (shots, signs) = scripted(&labels);
            let tree = build_scene_tree(&shots, &signs);
            for s in 0..shots.len() {
                let big = tree.largest_scene_for_shot(s).unwrap();
                let leaf = tree.leaf_of_shot(s).unwrap();
                prop_assert!(big == leaf || tree.ancestors(leaf).contains(&big));
                prop_assert_eq!(tree.node(big).name_shot, s);
            }
        }
    }
}
