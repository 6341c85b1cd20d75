//! The `Top` and `Bottom` partitions of §6.1 and the placement of the pieces
//! of information `I(F)` (§6.2).
//!
//! * **Top fragments** are the fragments with at least `⌈log n⌉` nodes; the
//!   others are **bottom** fragments.
//! * A top fragment that is a leaf of the subtree `T_Top` of the hierarchy is
//!   **red**; an internal one is **large**; a bottom fragment whose hierarchy
//!   parent is large is **blue**; one whose parent is red is **green**.
//! * Partition `P′` = red ∪ blue fragments; Procedure `Merge` coarsens it to
//!   `P′′` (each part contains exactly one red fragment plus blue fragments of
//!   ancestor large fragments); each `P′′` part is then split into **Top
//!   parts** of size ≥ `⌈log n⌉` and diameter `O(log n)`.
//! * The **Bottom parts** are the blue and green fragments themselves.
//!
//! Every node belongs to exactly one Top part and one Bottom part. The Top
//! part of a node stores the pieces `I(F)` of all top fragments that are
//! hierarchy ancestors of the part's red fragment; the Bottom part stores the
//! pieces of all bottom fragments it contains. Together these cover
//! `I(F_j(v))` for every level `j` at which `v` has a fragment.
//!
//! §6.2 stores each piece at one member of its part, at most two per node
//! and part. The holders are chosen once both partitions exist, so that a
//! node's two parts share its room and it stores at most two pieces in
//! total wherever such a placement exists: Bottom parts first, one piece per
//! node and a second only where the part has more pieces than nodes, moved
//! elsewhere where a Top part would run out of room, then each Top part on
//! its nodes with the least Bottom load (see `place_pieces`). Within a
//! part the holders follow its DFS preorder, which is the order of the
//! slots.

use crate::labels::{PieceInfo, StoredPiece};
use smst_graph::{Csr, Hierarchy, NodeId, RootedTree, WeightedGraph};
use std::collections::VecDeque;

/// One part of one of the two partitions.
#[derive(Debug, Clone)]
pub struct Part {
    /// The part's root (its node closest to the root of the candidate tree).
    pub root: NodeId,
    /// The part's nodes, in ascending order.
    pub nodes: Vec<NodeId>,
    /// The hop depth of each part node inside the part (aligned with
    /// [`Self::nodes`]).
    pub depth: Vec<usize>,
    /// The part's diameter (as a subtree of the candidate tree).
    pub diameter: usize,
    /// The pieces circulating in this part, in slot order.
    pub pieces: Vec<PieceInfo>,
    /// For each slot, the node permanently storing the piece.
    pub holders: Vec<NodeId>,
}

impl Part {
    /// The permanently stored pieces of a given member node, filled from the
    /// front as the label holds them (a scan over the part's `O(log n)`
    /// slots).
    ///
    /// # Panics
    ///
    /// Panics if the node holds more than two pieces, which §6.2's placement
    /// never does.
    pub fn stored_at(&self, v: NodeId) -> [Option<StoredPiece>; 2] {
        let mut held = (self.holders.iter().enumerate())
            .filter(|&(_, &h)| h == v)
            .map(|(slot, _)| StoredPiece::new(slot as u8, self.pieces[slot]));
        let stored = [held.next(), held.next()];
        assert!(
            held.next().is_none(),
            "§6.2 places at most two pieces per node"
        );
        stored
    }

    /// The depth of a member node inside the part (a binary search).
    pub fn depth_of(&self, v: NodeId) -> usize {
        let i = self.nodes.binary_search(&v);
        self.depth[i.expect("node belongs to the part")]
    }
}

/// The two partitions plus the per-node assignment.
#[derive(Debug, Clone)]
pub struct Partitions {
    /// The size threshold separating top from bottom fragments (`⌈log n⌉`).
    pub threshold: usize,
    /// For each fragment of the hierarchy, whether it is a top fragment.
    pub is_top: Vec<bool>,
    /// The parts of partition `Top`.
    pub top_parts: Vec<Part>,
    /// The parts of partition `Bottom`.
    pub bottom_parts: Vec<Part>,
    /// For each node, the index of its `Top` part.
    pub top_part_of: Vec<usize>,
    /// For each node, the index of its `Bottom` part.
    pub bottom_part_of: Vec<usize>,
}

/// Builds both partitions and the piece placement from a hierarchy with
/// candidates (as produced by SYNC_MST), in `O(n log n)` time: every step
/// walks fragments, hierarchy subtrees or tree neighbourhoods, never the
/// whole fragment list. Per-node state is a handful of flat arrays reused
/// across parts; what is allocated per part is what the part keeps.
///
/// # Panics
///
/// Panics if the hierarchy is inconsistent with the tree (these structures
/// come from the marker, which validated them).
pub fn build_partitions(g: &WeightedGraph, tree: &RootedTree, hierarchy: &Hierarchy) -> Partitions {
    let n = g.node_count();
    let threshold = ((n.max(2) as f64).log2().ceil() as usize).max(1);

    let is_top: Vec<bool> = (0..hierarchy.len())
        .map(|i| hierarchy.fragment(i).len() >= threshold)
        .collect();
    let is_red: Vec<bool> = (0..hierarchy.len())
        .map(|i| is_top[i] && hierarchy.children_of(i).iter().all(|&c| !is_top[c]))
        .collect();
    let is_large: Vec<bool> = (0..hierarchy.len())
        .map(|i| is_top[i] && !is_red[i])
        .collect();
    let is_blue: Vec<bool> = (0..hierarchy.len())
        .map(|i| !is_top[i] && hierarchy.parent_of(i).map(|p| is_large[p]).unwrap_or(false))
        .collect();
    let is_green: Vec<bool> = (0..hierarchy.len())
        .map(|i| !is_top[i] && hierarchy.parent_of(i).map(|p| is_red[p]).unwrap_or(false))
        .collect();

    // ---- partition P'' : red-centred parts --------------------------------
    // pp_red[part] = the part's red fragment, pp_of[v] = the part of node v
    let mut pp_red: Vec<usize> = Vec::new();
    let mut pp_of: Vec<Option<usize>> = vec![None; n];
    for (i, &red) in is_red.iter().enumerate() {
        if red {
            for &v in &hierarchy.fragment(i).nodes {
                pp_of[v.index()] = Some(pp_red.len());
            }
            pp_red.push(i);
        }
    }
    // Procedure Merge: processing large fragments bottom-up, every blue child
    // joins a part touching it through a tree edge that stays inside the
    // enclosing large fragment (so that every part keeps the Claim 6.3
    // property: its nodes all belong to ancestor fragments of its red
    // fragment). A breadth-first search from the assigned nodes touching a
    // blue child visits every node of a blue child once.
    let tree_neighbours =
        |v: NodeId| (tree.parent(v).into_iter()).chain(tree.children(v).iter().copied());
    let mut larges: Vec<usize> = (0..hierarchy.len()).filter(|&i| is_large[i]).collect();
    larges.sort_by_key(|&i| hierarchy.fragment(i).level);
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    for &flarge in &larges {
        let large = hierarchy.fragment(flarge);
        let blues = (hierarchy.children_of(flarge).iter()).filter(|&&c| is_blue[c]);
        for &b in blues.clone() {
            for &v in &hierarchy.fragment(b).nodes {
                let assigned = |u: &NodeId| pp_of[u.index()].is_some() && large.contains(*u);
                queue.extend(tree_neighbours(v).filter(assigned));
            }
        }
        while let Some(u) = queue.pop_front() {
            for w in tree_neighbours(u) {
                if pp_of[w.index()].is_none() && large.contains(w) {
                    let blue = (hierarchy.fragments_containing(w).iter().copied())
                        .find(|&b| hierarchy.parent_of(b) == Some(flarge))
                        .expect("an unassigned node of a large fragment is in a blue child");
                    for &x in &hierarchy.fragment(blue).nodes {
                        pp_of[x.index()] = pp_of[u.index()];
                        queue.push_back(x);
                    }
                }
            }
        }
        assert!(
            blues
                .clone()
                .all(|&b| pp_of[hierarchy.fragment(b).root.index()].is_some()),
            "Procedure Merge is stuck: some blue fragment touches no part"
        );
    }
    // any node still unassigned (only possible in degenerate tiny hierarchies)
    // becomes its own red-centred part anchored at the top fragment
    let top_idx = (0..hierarchy.len())
        .find(|&i| hierarchy.fragment(i).len() == n)
        .expect("the hierarchy contains the whole tree");
    let pp_of: Vec<usize> = (pp_of.into_iter())
        .map(|part| {
            part.unwrap_or_else(|| {
                pp_red.push(top_idx);
                pp_red.len() - 1
            })
        })
        .collect();
    let pp_nodes = Csr::from_pairs(
        pp_red.len(),
        (pp_of.iter().enumerate()).map(|(v, &part)| (part, NodeId(v))),
    );

    // ---- partition Top: split each P'' part into small-diameter subtrees --
    let mut top_parts: Vec<Part> = Vec::new();
    let mut top_part_of: Vec<usize> = vec![usize::MAX; n];
    let mut scratch: Vec<usize> = vec![0; n];
    for (nodes, &red) in pp_nodes.iter().zip(&pp_red) {
        // pieces shared by all sub-parts: the top ancestors (and self) of the
        // red fragment
        let mut anc = Vec::new();
        let mut cur = Some(red);
        while let Some(i) = cur {
            if is_top[i] {
                anc.push(i);
            }
            cur = hierarchy.parent_of(i);
        }
        let pieces = pieces_for(g, tree, hierarchy, &anc);
        let min_size = threshold.max(pieces.len().div_ceil(2)).max(1);
        for cluster in split_subtree(tree, nodes, min_size, &mut scratch).iter() {
            add_part(
                &mut top_parts,
                &mut top_part_of,
                tree,
                cluster,
                pieces.clone(),
            );
        }
    }

    // ---- partition Bottom: blue and green fragments -----------------------
    let mut bottom_parts: Vec<Part> = Vec::new();
    let mut bottom_part_of: Vec<usize> = vec![usize::MAX; n];
    let mut inner: Vec<usize> = Vec::new();
    for i in 0..hierarchy.len() {
        if is_blue[i] || is_green[i] {
            // all bottom fragments contained in this fragment: its subtree of
            // the hierarchy-tree
            inner.clear();
            inner.push(i);
            let mut visited = 0;
            while let Some(&j) = inner.get(visited) {
                visited += 1;
                inner.extend_from_slice(hierarchy.children_of(j));
            }
            let pieces = pieces_for(g, tree, hierarchy, &inner);
            let nodes = &hierarchy.fragment(i).nodes;
            add_part(&mut bottom_parts, &mut bottom_part_of, tree, nodes, pieces);
        }
    }
    // fallback for nodes not covered by any blue/green fragment (happens only
    // when their singleton fragment is itself top, i.e. for very small n)
    for v in g.nodes() {
        if bottom_part_of[v.index()] == usize::MAX {
            let singleton = hierarchy
                .fragment_at_level(v, 0)
                .expect("every node has a level-0 fragment");
            let pieces = pieces_for(g, tree, hierarchy, &[singleton]);
            add_part(&mut bottom_parts, &mut bottom_part_of, tree, &[v], pieces);
        }
    }

    let mut partitions = Partitions {
        threshold,
        is_top,
        top_parts,
        bottom_parts,
        top_part_of,
        bottom_part_of,
    };
    place_pieces(tree, &mut partitions);
    partitions
}

/// A Top part's placement steps, in order: `(load, held)` gives a Top piece
/// to each node of Bottom load `load` that holds `held - 1` Top pieces,
/// until the pieces run out. The totals the steps reach are 1, 2, 2, 3, 3,
/// 4, so the part's nodes fill to two before any reaches three.
const TOP_STEPS: [(usize, u8); 6] = [(0, 1), (1, 1), (0, 2), (2, 1), (1, 2), (2, 2)];

/// §6.2's placement over both partitions: each part's pieces go to members
/// of the part, at most two per node and part, and a node's two parts share
/// its room, so that it stores at most two pieces in total wherever such a
/// placement exists.
///
/// 1. Every Bottom part deals its pieces one per node in DFS preorder and
///    the surplus (a fragment may carry nearly two pieces per node) as
///    second pieces, again in DFS preorder.
/// 2. A Top part with `m` nodes and `k` pieces has room for `2m − k` Bottom
///    pieces. Where step 1 left it short, [`Augmenter`] moves Bottom pieces
///    out along augmenting paths to Top parts with room to spare; a part
///    that stays short has no placement of two per node (max-flow
///    min-cut).
/// 3. Each Top part buckets its nodes by Bottom load (0, 1 or 2) and fills
///    them in [`TOP_STEPS`] order, which fits the part's pieces in two per
///    node wherever it has the room.
///
/// Steps 1 and 3 are `O(n)`. Step 2 searches once per missing unit of room,
/// at most `O(n)` each; at n = 2·10⁵ that was 195 units on a path, 605 on a
/// ring, 8 on an expander and none on random graphs, every search ending
/// within a part or two, well under a millisecond in all. Within a part the
/// holders are listed in DFS preorder, a node with two pieces taking two
/// consecutive slots.
fn place_pieces(tree: &RootedTree, p: &mut Partitions) {
    let n = p.top_part_of.len();
    let mut stack: Vec<NodeId> = Vec::new();
    // the Bottom parts' nodes, each part's in DFS preorder, part after part
    let mut order: Vec<NodeId> = Vec::with_capacity(n);
    for (idx, part) in p.bottom_parts.iter().enumerate() {
        preorder(
            tree,
            part.root,
            &p.bottom_part_of,
            idx,
            &mut stack,
            &mut order,
        );
    }
    // bottom[v]: the pieces v stores for its Bottom part
    let mut bottom = vec![0u8; n];
    let mut start = 0;
    for part in &p.bottom_parts {
        let nodes = &order[start..start + part.nodes.len()];
        start += nodes.len();
        for &v in nodes.iter().cycle().take(part.pieces.len()) {
            bottom[v.index()] += 1;
        }
    }
    let mut room: Vec<isize> = (p.top_parts.iter())
        .map(|t| (2 * t.nodes.len()) as isize - t.pieces.len() as isize)
        .collect();
    for (v, &load) in bottom.iter().enumerate() {
        room[p.top_part_of[v]] -= isize::from(load);
    }
    let mut augmenter = Augmenter::new(p);
    for t in 0..p.top_parts.len() {
        while room[t] < 0 && augmenter.augment(p, &mut bottom, &mut room, t) {}
    }
    let mut start = 0;
    for part in &mut p.bottom_parts {
        let nodes = &order[start..start + part.nodes.len()];
        start += nodes.len();
        part.holders = holders_in(nodes, &bottom, part.pieces.len());
    }

    let mut top = vec![0u8; n];
    let mut by_load: [Vec<NodeId>; 3] = Default::default();
    for (idx, part) in p.top_parts.iter_mut().enumerate() {
        order.clear();
        preorder(tree, part.root, &p.top_part_of, idx, &mut stack, &mut order);
        by_load.iter_mut().for_each(Vec::clear);
        for &v in &order {
            by_load[usize::from(bottom[v.index()])].push(v);
        }
        let mut left = part.pieces.len();
        for (load, held) in TOP_STEPS {
            for &v in by_load[load].iter().take(left) {
                top[v.index()] = held;
                left -= 1;
            }
        }
        part.holders = holders_in(&order, &top, part.pieces.len());
    }
}

/// Breadth-first search for augmenting paths over the parts: from a Top
/// part short of room, through a node `v` of it storing a Bottom piece, to
/// `v`'s Bottom part, through a node `w` of that part with a free cell, to
/// `w`'s Top part; moving one piece from each such `v` to its `w` gives the
/// first Top part one unit of room and takes one from the last, which must
/// have some to spare. Every part is visited once per search, so the nodes
/// on a path are distinct.
struct Augmenter {
    stamp: u32,
    // the stamp of the search that last reached each Top / Bottom part
    top_seen: Vec<u32>,
    bottom_seen: Vec<u32>,
    // for each Top part reached, the move `(v, w)` that reached it
    came: Vec<(NodeId, NodeId)>,
    queue: Vec<usize>,
}

impl Augmenter {
    fn new(p: &Partitions) -> Self {
        Augmenter {
            stamp: 0,
            top_seen: vec![0; p.top_parts.len()],
            bottom_seen: vec![0; p.bottom_parts.len()],
            came: vec![(NodeId(0), NodeId(0)); p.top_parts.len()],
            queue: Vec::new(),
        }
    }

    /// Gives Top part `t` one unit of room along an augmenting path, and
    /// returns whether one exists.
    fn augment(&mut self, p: &Partitions, bottom: &mut [u8], room: &mut [isize], t: usize) -> bool {
        self.stamp += 1;
        self.top_seen[t] = self.stamp;
        self.queue.clear();
        self.queue.push(t);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            for &v in &p.top_parts[u].nodes {
                let b = p.bottom_part_of[v.index()];
                if bottom[v.index()] == 0 || self.bottom_seen[b] == self.stamp {
                    continue;
                }
                self.bottom_seen[b] = self.stamp;
                for &w in &p.bottom_parts[b].nodes {
                    let reached = p.top_part_of[w.index()];
                    if bottom[w.index()] == 2 || self.top_seen[reached] == self.stamp {
                        continue;
                    }
                    self.top_seen[reached] = self.stamp;
                    self.came[reached] = (v, w);
                    if room[reached] > 0 {
                        let mut at = reached;
                        while at != t {
                            let (v, w) = self.came[at];
                            bottom[v.index()] -= 1;
                            bottom[w.index()] += 1;
                            at = p.top_part_of[v.index()];
                        }
                        room[reached] -= 1;
                        room[t] += 1;
                        return true;
                    }
                    self.queue.push(reached);
                }
            }
        }
        false
    }
}

/// Appends the nodes of part `idx` (by `part_of`) to `out` in DFS preorder
/// from the part's root, children pushed in tree order (so popped in
/// reverse). `stack` is scratch, empty on entry and on return.
fn preorder(
    tree: &RootedTree,
    root: NodeId,
    part_of: &[usize],
    idx: usize,
    stack: &mut Vec<NodeId>,
    out: &mut Vec<NodeId>,
) {
    stack.push(root);
    while let Some(v) = stack.pop() {
        out.push(v);
        let inside = |c: &&NodeId| part_of[c.index()] == idx;
        stack.extend(tree.children(v).iter().filter(inside));
    }
}

/// The holders of a part's slots: each node of `order` repeated as many
/// times as `count` says it stores pieces.
fn holders_in(order: &[NodeId], count: &[u8], pieces: usize) -> Vec<NodeId> {
    let mut holders = Vec::with_capacity(pieces);
    for &v in order {
        holders.extend(std::iter::repeat_n(v, usize::from(count[v.index()])));
    }
    assert_eq!(holders.len(), pieces, "every piece has one holder");
    holders
}

/// Builds the `I(F)` pieces of the given fragments, sorted by (level, root
/// identity) — the slot order of the part's cycle.
fn pieces_for(
    g: &WeightedGraph,
    tree: &RootedTree,
    hierarchy: &Hierarchy,
    fragment_indices: &[usize],
) -> Vec<PieceInfo> {
    let mut pieces: Vec<PieceInfo> = fragment_indices
        .iter()
        .map(|&i| {
            let frag = hierarchy.fragment(i);
            let min_out = hierarchy
                .candidate(i)
                .map(|e| g.composite_weight(e, tree.contains_edge(e)));
            PieceInfo {
                root_id: g.id(frag.root),
                level: frag.level,
                min_out,
            }
        })
        .collect();
    pieces.sort_by_key(|p| (p.level, p.root_id));
    pieces.dedup();
    pieces
}

/// Splits the subtree induced by `nodes` into connected clusters of size at
/// least `min_size` (except that the final cluster absorbs the remainder),
/// each of diameter `O(min_size)`, returned one row per cluster.
///
/// Bottom-up, a node closes a cluster — itself and everything pending below
/// it — once that reaches `min_size`; what reaches the root unclosed is the
/// remainder. Clusters are numbered in closing order. `scratch` is one
/// counter per node, all zero on entry and again on return.
fn split_subtree(
    tree: &RootedTree,
    nodes: &[NodeId],
    min_size: usize,
    scratch: &mut [usize],
) -> Csr<NodeId> {
    // Ascending depth is a top-down order of the induced subtree, so its
    // reverse visits children before parents. Children outside `nodes` have
    // nothing pending.
    let mut order = nodes.to_vec();
    order.sort_by_key(|&v| tree.depth(v));
    let root = *order.first().expect("parts are non-empty");
    // bottom-up: scratch[v] = the number of nodes pending at `v`
    let mut heads: Vec<NodeId> = Vec::new();
    for &v in order.iter().rev() {
        let mut size = 1;
        for &c in tree.children(v) {
            size += std::mem::take(&mut scratch[c.index()]);
        }
        if size >= min_size && v != root {
            heads.push(v);
        } else {
            scratch[v.index()] = size;
        }
    }
    let remainder_size = std::mem::take(&mut scratch[root.index()]);
    // top-down: scratch[v] = 1 + the cluster of `v`, a head's own or else
    // its parent's, the root's being the remainder's (numbered last)
    let remainder = heads.len();
    for (k, &h) in heads.iter().enumerate() {
        scratch[h.index()] = k + 1;
    }
    scratch[root.index()] = remainder + 1;
    for &v in &order[1..] {
        if scratch[v.index()] == 0 {
            let up = tree.parent(v).map_or(0, |p| scratch[p.index()]);
            assert_ne!(up, 0, "a P'' part must induce a connected subtree");
            scratch[v.index()] = up;
        }
    }
    let cluster_of = |v: NodeId| scratch[v.index()] - 1;
    // a remainder below `min_size` joins the first cluster (in closing
    // order) hanging off it, which keeps it connected
    let (count, remainder_joins) = if remainder_size >= min_size || heads.is_empty() {
        (remainder + 1, remainder)
    } else {
        let target = (heads.iter())
            .position(|&h| tree.parent(h).is_some_and(|p| cluster_of(p) == remainder))
            .expect("some closed cluster hangs off the remainder");
        (remainder, target)
    };
    let clusters = Csr::from_pairs(
        count,
        (order.iter()).map(|&v| match cluster_of(v) {
            k if k == remainder => (remainder_joins, v),
            k => (k, v),
        }),
    );
    for &v in &order {
        scratch[v.index()] = 0;
    }
    clusters
}

/// Assembles a [`Part`] from its node set and pieces and appends it to
/// `parts`, recording it in `part_of`: computes the part root, per-node
/// depths and the diameter. The holders are left empty for
/// [`place_pieces`], which needs both partitions.
fn add_part(
    parts: &mut Vec<Part>,
    part_of: &mut [usize],
    tree: &RootedTree,
    nodes: &[NodeId],
    pieces: Vec<PieceInfo>,
) {
    let idx = parts.len();
    for &v in nodes {
        part_of[v.index()] = idx;
    }
    let root = *(nodes.iter())
        .min_by_key(|&&v| tree.depth(v))
        .expect("parts are non-empty");
    // connected iff every node but the root has its parent inside; the hop
    // depth inside the part is then the depth below the part's root
    assert!(
        (nodes.iter())
            .all(|&v| v == root || tree.parent(v).is_some_and(|p| part_of[p.index()] == idx)),
        "a part must induce a connected subtree"
    );
    assert!(
        pieces.len() <= 2 * nodes.len(),
        "a part must have room for its pieces (at most two per node)"
    );
    let mut sorted = nodes.to_vec();
    sorted.sort_unstable();
    let depth: Vec<usize> = (sorted.iter())
        .map(|&v| tree.depth(v) - tree.depth(root))
        .collect();
    parts.push(Part {
        root,
        nodes: sorted,
        diameter: 2 * depth.iter().copied().max().unwrap_or(0),
        depth,
        pieces,
        holders: Vec::new(),
    });
}

/// The placement before the pieces were spread across both partitions, kept
/// as the oracle of [`place_pieces`]: each part on its own gives slots
/// `2i` and `2i + 1` to the `i`-th node of its DFS preorder.
#[cfg(test)]
mod reference {
    use super::{build_partitions, preorder, Part, Partitions};
    use smst_graph::{Hierarchy, RootedTree, WeightedGraph};

    /// [`build_partitions`] with every part's holders placed two per node
    /// in DFS preorder.
    pub fn build_partitions_dfs(
        g: &WeightedGraph,
        tree: &RootedTree,
        hierarchy: &Hierarchy,
    ) -> Partitions {
        let mut p = build_partitions(g, tree, hierarchy);
        two_per_node(tree, &mut p.top_parts, &p.top_part_of);
        two_per_node(tree, &mut p.bottom_parts, &p.bottom_part_of);
        p
    }

    fn two_per_node(tree: &RootedTree, parts: &mut [Part], part_of: &[usize]) {
        let (mut stack, mut order) = (Vec::new(), Vec::new());
        for (idx, part) in parts.iter_mut().enumerate() {
            order.clear();
            preorder(tree, part.root, part_of, idx, &mut stack, &mut order);
            part.holders = (order.iter())
                .flat_map(|&v| [v, v])
                .take(part.pieces.len())
                .collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync_mst::SyncMst;
    use proptest::prelude::*;
    use smst_graph::generators::{path_graph, random_connected_graph};

    fn build(n: usize, seed: u64) -> (WeightedGraph, RootedTree, Hierarchy, Partitions) {
        let g = random_connected_graph(n, 3 * n, seed);
        let outcome = SyncMst.run(&g);
        let parts = build_partitions(&g, &outcome.tree, &outcome.hierarchy);
        (g, outcome.tree, outcome.hierarchy, parts)
    }

    fn check_invariants(g: &WeightedGraph, tree: &RootedTree, h: &Hierarchy, parts: &Partitions) {
        let n = g.node_count();
        // every node in exactly one part of each partition
        for v in 0..n {
            assert!(parts.top_part_of[v] < parts.top_parts.len());
            assert!(parts.bottom_part_of[v] < parts.bottom_parts.len());
            assert!(parts.top_parts[parts.top_part_of[v]]
                .nodes
                .contains(&NodeId(v)));
            assert!(parts.bottom_parts[parts.bottom_part_of[v]]
                .nodes
                .contains(&NodeId(v)));
        }
        let covered: usize = parts.top_parts.iter().map(|p| p.nodes.len()).sum();
        assert_eq!(covered, n, "Top parts partition the nodes");
        let covered: usize = parts.bottom_parts.iter().map(|p| p.nodes.len()).sum();
        assert_eq!(covered, n, "Bottom parts partition the nodes");

        let log_n = (n.max(2) as f64).log2().ceil() as usize;
        for p in parts.top_parts.iter().chain(parts.bottom_parts.iter()) {
            assert!(
                p.diameter <= 6 * log_n + 4,
                "part diameter {} is not O(log n)",
                p.diameter
            );
            assert!(p.pieces.len() <= 2 * p.nodes.len());
            assert_eq!(p.holders.len(), p.pieces.len());
            for (slot, &h) in p.holders.iter().enumerate() {
                assert!(p.nodes.contains(&h), "slot {slot} holder is in the part");
            }
            // at most two stored pieces per node, filled from the front
            for &v in &p.nodes {
                let stored = p.stored_at(v);
                assert!(stored[0].is_some() || stored[1].is_none());
            }
        }

        // coverage: for every node and every level at which it has a
        // fragment, the piece of that fragment is carried by one of its two
        // parts
        for v in g.nodes() {
            for &idx in h.fragments_containing(v) {
                let frag = h.fragment(idx);
                let id = (g.id(frag.root), frag.level);
                let tp = &parts.top_parts[parts.top_part_of[v.index()]];
                let bp = &parts.bottom_parts[parts.bottom_part_of[v.index()]];
                let found = tp
                    .pieces
                    .iter()
                    .chain(bp.pieces.iter())
                    .any(|p| (p.root_id, p.level) == id);
                assert!(
                    found,
                    "node {v} misses the piece of its level-{} fragment",
                    frag.level
                );
            }
        }
        let _ = tree;
    }

    #[test]
    fn invariants_on_random_graphs() {
        for seed in 0..6 {
            let (g, tree, h, parts) = build(40, seed);
            check_invariants(&g, &tree, &h, &parts);
        }
    }

    #[test]
    fn invariants_on_a_path() {
        let g = path_graph(64, 9);
        let outcome = SyncMst.run(&g);
        let parts = build_partitions(&g, &outcome.tree, &outcome.hierarchy);
        check_invariants(&g, &outcome.tree, &outcome.hierarchy, &parts);
    }

    #[test]
    fn invariants_on_small_graphs() {
        for n in 1..8usize {
            let g = random_connected_graph(n, 3 * n, 11);
            let outcome = SyncMst.run(&g);
            let parts = build_partitions(&g, &outcome.tree, &outcome.hierarchy);
            check_invariants(&g, &outcome.tree, &outcome.hierarchy, &parts);
        }
    }

    #[test]
    fn top_parts_are_reasonably_large() {
        let (g, _, _, parts) = build(120, 3);
        let threshold = parts.threshold;
        for p in &parts.top_parts {
            assert!(
                p.nodes.len() >= threshold.min(g.node_count()),
                "top part of {} nodes is below the threshold {threshold}",
                p.nodes.len()
            );
        }
    }

    #[test]
    fn top_parts_intersect_one_top_fragment_per_level() {
        let (g, _, h, parts) = build(100, 4);
        let threshold = parts.threshold;
        for p in &parts.top_parts {
            let mut seen_levels = std::collections::BTreeSet::new();
            for i in 0..h.len() {
                let frag = h.fragment(i);
                if frag.len() >= threshold && p.nodes.iter().any(|v| frag.contains(*v)) {
                    assert!(
                        seen_levels.insert(frag.level),
                        "part intersects two top fragments of level {}",
                        frag.level
                    );
                }
            }
        }
        let _ = g;
    }

    /// The most pieces one node stores, over both of its parts.
    fn max_stored(parts: &Partitions) -> usize {
        let mut held = vec![0; parts.top_part_of.len()];
        for p in parts.top_parts.iter().chain(&parts.bottom_parts) {
            for &h in &p.holders {
                held[h.index()] += 1;
            }
        }
        held.into_iter().max().unwrap_or(0)
    }

    /// Only the holders move against the DFS two-per-node reference: each
    /// part keeps its pieces, root, depths and diameter, and its holders are
    /// members, in DFS preorder, at most two per node. The widest node
    /// stores two pieces in total on every family here, where the reference
    /// stored four on all but the star (two).
    #[test]
    fn only_the_holders_move_against_the_reference() {
        use smst_graph::generators::*;
        // (family, graph, the widest node's pieces: now and in the reference)
        let families: Vec<(&str, WeightedGraph, [usize; 2])> = vec![
            ("path", path_graph(500, 1), [2, 4]),
            ("ring", ring_graph(300, 2), [2, 4]),
            ("star", star_graph(200, 3), [2, 2]),
            ("grid", grid_graph(30, 30, 4), [2, 4]),
            ("caterpillar", caterpillar_graph(60, 4, 5), [2, 4]),
            ("complete", complete_graph(48, 6), [2, 4]),
            ("random", random_connected_graph(600, 1800, 7), [2, 4]),
            (
                "scrambled",
                random_graph_scrambled_ids(600, 1800, 8),
                [2, 4],
            ),
            ("expander", expander_graph(600, 6, 9), [2, 4]),
            ("kmw_hybrid", kmw_hybrid_graph(3, 3, 10), [2, 4]),
        ];
        for (family, g, widest) in families {
            let outcome = SyncMst.run(&g);
            let (tree, h) = (&outcome.tree, &outcome.hierarchy);
            let parts = build_partitions(&g, tree, h);
            let old = reference::build_partitions_dfs(&g, tree, h);
            check_invariants(&g, tree, h, &parts);
            let sides = [
                (&parts.top_parts, &old.top_parts, &parts.top_part_of),
                (
                    &parts.bottom_parts,
                    &old.bottom_parts,
                    &parts.bottom_part_of,
                ),
            ];
            let mut order = Vec::new();
            for (new, old, part_of) in sides {
                assert_eq!(new.len(), old.len(), "{family}");
                for (idx, (p, q)) in new.iter().zip(old).enumerate() {
                    assert_eq!(p.pieces, q.pieces, "{family}");
                    assert_eq!((p.root, p.diameter), (q.root, q.diameter), "{family}");
                    assert_eq!((&p.nodes, &p.depth), (&q.nodes, &q.depth), "{family}");
                    order.clear();
                    preorder(tree, p.root, part_of, idx, &mut Vec::new(), &mut order);
                    let position = |v: NodeId| order.iter().position(|&u| u == v);
                    let at: Vec<usize> = (p.holders.iter())
                        .map(|&v| position(v).expect("a holder is a member of its part"))
                        .collect();
                    assert!(at.is_sorted(), "{family}: holders follow the DFS preorder");
                    assert!(
                        at.windows(3).all(|w| w[0] != w[2]),
                        "{family}: at most two pieces per node and part"
                    );
                }
            }
            assert_eq!([max_stored(&parts), max_stored(&old)], widest, "{family}");
        }
    }

    /// Whether any placement stores at most two pieces per node in total,
    /// as a flow (Edmonds–Karp): each Top part sends its pieces through its
    /// nodes, two units each, into their Bottom parts, which absorb the
    /// cells their own pieces leave free.
    fn two_per_node_exists(p: &Partitions) -> bool {
        let (tops, bottoms, n) = (p.top_parts.len(), p.bottom_parts.len(), p.top_part_of.len());
        let (source, sink) = (tops + bottoms + n, tops + bottoms + n + 1);
        let mut adj = vec![Vec::new(); sink + 1];
        let mut arcs: Vec<(usize, usize)> = Vec::new(); // (head, capacity)
        let mut arc = |a: usize, b: usize, cap: usize| {
            adj[a].push(arcs.len());
            arcs.push((b, cap));
            adj[b].push(arcs.len());
            arcs.push((a, 0));
        };
        for (t, part) in p.top_parts.iter().enumerate() {
            arc(source, t, part.pieces.len());
        }
        for (b, part) in p.bottom_parts.iter().enumerate() {
            arc(tops + b, sink, 2 * part.nodes.len() - part.pieces.len());
        }
        for v in 0..n {
            arc(p.top_part_of[v], tops + bottoms + v, 2);
            arc(tops + bottoms + v, tops + p.bottom_part_of[v], 2);
        }
        let mut flow = 0;
        loop {
            let mut via = vec![usize::MAX; sink + 1];
            let mut queue = VecDeque::from([source]);
            while let Some(x) = queue.pop_front() {
                for &e in &adj[x] {
                    let (y, cap) = arcs[e];
                    if cap > 0 && y != source && via[y] == usize::MAX {
                        via[y] = e;
                        queue.push_back(y);
                    }
                }
            }
            if via[sink] == usize::MAX {
                break;
            }
            let mut y = sink;
            while y != source {
                let e = via[y];
                arcs[e].1 -= 1;
                arcs[e ^ 1].1 += 1;
                y = arcs[e ^ 1].0;
            }
            flow += 1;
        }
        flow == p.top_parts.iter().map(|t| t.pieces.len()).sum::<usize>()
    }

    /// The placement is exact: the widest node stores two pieces wherever a
    /// placement of two per node exists, and three where none does. Sampled
    /// on the sparse families, where a Top part's room runs short: of these
    /// 96 instances, 9 have no placement of two, and 6 more would store three
    /// at a node without the augmenting paths.
    #[test]
    fn the_widest_node_stores_two_wherever_a_placement_can() {
        use smst_graph::generators::{grid_graph, ring_graph};
        for seed in 0..8 {
            for n in [17, 64, 100, 257] {
                for g in [
                    path_graph(n, seed),
                    ring_graph(n, seed),
                    grid_graph(n / 8, 8, seed),
                ] {
                    let outcome = SyncMst.run(&g);
                    let parts = build_partitions(&g, &outcome.tree, &outcome.hierarchy);
                    let widest = if two_per_node_exists(&parts) { 2 } else { 3 };
                    assert_eq!(max_stored(&parts), widest, "n={n} seed={seed}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        #[test]
        fn partitions_cover_all_needed_pieces(n in 2usize..50, seed in 0u64..100) {
            let g = random_connected_graph(n, 3 * n, seed);
            let outcome = SyncMst.run(&g);
            let parts = build_partitions(&g, &outcome.tree, &outcome.hierarchy);
            check_invariants(&g, &outcome.tree, &outcome.hierarchy, &parts);
        }
    }
}
