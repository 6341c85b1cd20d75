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

use crate::labels::{PieceCell, BOTTOM, TOP};
use smst_graph::csr::{narrow, NONE};
use smst_graph::{Csr, Hierarchy, NodeId, RootedTree, WeightedGraph};
use std::collections::VecDeque;

/// One part of one of the two partitions, read from its partition's
/// [`Parts`].
#[derive(Debug, Clone, Copy)]
pub struct Part<'a> {
    /// The part's root (its node closest to the root of the candidate tree).
    pub root: NodeId,
    /// The part's diameter (as a subtree of the candidate tree).
    pub diameter: usize,
    /// The pieces circulating in this part, in slot order.
    pieces: &'a [PieceCell],
    /// The part's nodes, ascending.
    nodes: &'a [u32],
    /// The hop depth of each node inside the part, aligned with `nodes`.
    depth: &'a [u8],
    /// For each slot, the node permanently storing the piece.
    holders: &'a [u32],
}

impl<'a> Part<'a> {
    /// The pieces circulating in this part, in slot order.
    pub fn pieces(&self) -> &'a [PieceCell] {
        self.pieces
    }

    /// Number of pieces circulating in this part.
    pub fn piece_count(&self) -> usize {
        self.pieces.len()
    }

    /// Number of nodes in the part.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The part's nodes, ascending.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone + 'a {
        self.nodes.iter().map(|&v| NodeId(v as usize))
    }

    /// The hop depth of each node inside the part, aligned with
    /// [`Self::nodes`].
    pub fn depths(&self) -> &'a [u8] {
        self.depth
    }

    /// For each slot, the node permanently storing its piece.
    pub fn holders(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone + 'a {
        self.holders.iter().map(|&v| NodeId(v as usize))
    }

    /// `true` if `v` is a member of the part (a binary search).
    pub fn contains(&self, v: NodeId) -> bool {
        self.position(v).is_some()
    }

    /// Where `v` lies in [`Self::nodes`].
    fn position(&self, v: NodeId) -> Option<usize> {
        let v = u32::try_from(v.index()).ok()?;
        self.nodes.binary_search(&v).ok()
    }

    /// The permanently stored pieces of a given member node, filled from the
    /// front as the label holds them (a scan over the part's `O(log n)`
    /// slots).
    ///
    /// # Panics
    ///
    /// Panics if the node holds more than two pieces, which §6.2's placement
    /// never does.
    pub fn stored_at(&self, v: NodeId) -> [Option<PieceCell>; 2] {
        let mut held = (self.holders().zip(self.pieces))
            .filter(|&(h, _)| h == v)
            .map(|(_, &cell)| cell);
        let stored = [held.next(), held.next()];
        assert!(
            held.next().is_none(),
            "§6.2 places at most two pieces per node"
        );
        stored
    }

    /// The depth of a member node inside the part (a binary search).
    pub fn depth_of(&self, v: NodeId) -> usize {
        usize::from(self.depth[self.position(v).expect("node belongs to the part")])
    }
}

/// The parts of one partition, each a row of flat tables: its nodes
/// (ascending, 32-bit) beside their depths (8-bit), its holders (one 32-bit
/// node per slot), and the row of the piece lists it circulates, which the
/// Top parts cut from one `P′′` part share.
#[derive(Debug, Clone, Default)]
pub struct Parts {
    root: Vec<u32>,
    diameter: Vec<u8>,
    nodes: Csr<u32>,
    /// Aligned with `nodes`' values.
    depth: Vec<u8>,
    /// Part `p` circulates row `list[p]` of `pieces`.
    list: Vec<u32>,
    pieces: Csr<PieceCell>,
    /// Row `p` = part `p`'s holders in slot order; empty until
    /// [`place_pieces`] has placed them.
    holders: Csr<u32>,
}

impl Parts {
    /// Room for parts covering `n` nodes.
    fn with_nodes(n: usize) -> Self {
        Parts {
            nodes: Csr::with_capacity(0, n),
            depth: Vec::with_capacity(n),
            ..Parts::default()
        }
    }

    /// Number of parts.
    pub fn len(&self) -> usize {
        self.root.len()
    }

    /// `true` if the partition has no parts.
    pub fn is_empty(&self) -> bool {
        self.root.is_empty()
    }

    /// Part `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not below [`Self::len`].
    pub fn part(&self, idx: usize) -> Part<'_> {
        let span = self.nodes.span(idx);
        Part {
            root: NodeId(self.root[idx] as usize),
            diameter: usize::from(self.diameter[idx]),
            pieces: self.pieces.row(self.list[idx] as usize),
            nodes: &self.nodes.values()[span.clone()],
            depth: &self.depth[span],
            holders: if idx < self.holders.rows() {
                self.holders.row(idx)
            } else {
                &[]
            },
        }
    }

    /// The parts, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Part<'_>> + '_ {
        (0..self.len()).map(|idx| self.part(idx))
    }

    /// Appends a piece list: the `I(F)` of the given fragments, sorted by
    /// (level, root identity) — the slot order of a part's cycle — each at
    /// its index in the list as its slot, and returns its row. Sorts
    /// `fragments` that way.
    fn push_pieces(
        &mut self,
        g: &WeightedGraph,
        tree: &RootedTree,
        hierarchy: &Hierarchy,
        fragments: &mut Vec<usize>,
    ) -> u32 {
        let key = |&i: &usize| {
            let frag = hierarchy.fragment(i);
            (frag.level, g.id(frag.root))
        };
        fragments.sort_by_key(key);
        fragments.dedup_by_key(|i| key(i));
        self.pieces
            .push_row(fragments.iter().enumerate().map(|(slot, &i)| {
                let frag = hierarchy.fragment(i);
                let min_out = hierarchy
                    .candidate(i)
                    .map(|e| g.composite_weight(e, tree.contains_edge(e)));
                PieceCell::new(slot as u8, g.id(frag.root), frag.level, min_out)
            }));
        narrow(self.pieces.rows() - 1)
    }

    /// Appends the part of `nodes`, which circulates piece list `list`, and
    /// records it in `part_of`: computes the part root, per-node depths and
    /// the diameter. The holders are left for [`place_pieces`], which needs
    /// both partitions.
    fn push(
        &mut self,
        part_of: &mut [u32],
        tree: &RootedTree,
        nodes: impl Iterator<Item = NodeId> + Clone,
        list: u32,
    ) {
        let idx = narrow(self.len());
        for v in nodes.clone() {
            part_of[v.index()] = idx;
        }
        let root = (nodes.clone())
            .min_by_key(|&v| tree.depth(v))
            .expect("parts are non-empty");
        // connected iff every node but the root has its parent inside; the hop
        // depth inside the part is then the depth below the part's root
        assert!(
            (nodes.clone())
                .all(|v| v == root || tree.parent(v).is_some_and(|p| part_of[p.index()] == idx)),
            "a part must induce a connected subtree"
        );
        self.nodes.push_row(nodes.map(|v| narrow(v.index())));
        let row = self.nodes.row_mut(idx as usize);
        row.sort_unstable();
        assert!(
            self.pieces.row(list as usize).len() <= 2 * row.len(),
            "a part must have room for its pieces (at most two per node)"
        );
        let hops = |v: &u32| tree.depth(NodeId(*v as usize)) - tree.depth(root);
        let deepest = row.iter().map(hops).max().unwrap_or(0);
        self.depth.extend(
            (row.iter()).map(|v| u8::try_from(hops(v)).expect("a part's depth is below 2⁸ hops")),
        );
        self.diameter
            .push(u8::try_from(2 * deepest).expect("a part's diameter is below 2⁸ hops"));
        self.root.push(narrow(root.index()));
        self.list.push(list);
    }

    /// Releases the room the tables grew beyond what the parts hold.
    fn shrink_to_fit(&mut self) {
        self.root.shrink_to_fit();
        self.diameter.shrink_to_fit();
        self.nodes.shrink_to_fit();
        self.list.shrink_to_fit();
        self.pieces.shrink_to_fit();
    }
}

/// The two partitions plus the per-node assignment, each a pair indexed by
/// [`TOP`] and [`BOTTOM`].
#[derive(Debug, Clone)]
pub struct Partitions {
    /// The size threshold separating top from bottom fragments (`⌈log n⌉`).
    pub threshold: usize,
    /// For each fragment of the hierarchy, whether it is a top fragment.
    pub is_top: Vec<bool>,
    /// The parts of each partition.
    pub parts: [Parts; 2],
    /// For each partition and node, the index of the node's part in it.
    pub part_of: [Vec<u32>; 2],
}

/// Builds both partitions and the piece placement from a hierarchy with
/// candidates (as produced by SYNC_MST), in `O(n log n)` time: every step
/// walks fragments, hierarchy subtrees or tree neighbourhoods, never the
/// whole fragment list. Every table is flat and allocated per stage, never
/// per part: per-node state is a handful of arrays reused across parts, and
/// the parts are rows of their partition's [`Parts`].
///
/// # Panics
///
/// Panics if the hierarchy is inconsistent with the tree (these structures
/// come from the marker, which validated them), or if an identity or weight
/// exceeds [`MAX_FIELD`](crate::labels::MAX_FIELD): the piece lists hold
/// register cells, narrowed here ([`crate::Marker::label`] refuses such an
/// instance first, with a typed error).
pub fn build_partitions(g: &WeightedGraph, tree: &RootedTree, hierarchy: &Hierarchy) -> Partitions {
    let n = g.node_count();
    narrow(n);
    let threshold = ((n.max(2) as f64).log2().ceil() as usize).max(1);
    let count = hierarchy.len();

    let is_top: Vec<bool> = (0..count)
        .map(|i| hierarchy.fragment(i).len() >= threshold)
        .collect();
    let is_red: Vec<bool> = (0..count)
        .map(|i| is_top[i] && hierarchy.children_of(i).all(|c| !is_top[c]))
        .collect();
    let is_large: Vec<bool> = (0..count).map(|i| is_top[i] && !is_red[i]).collect();
    let is_blue: Vec<bool> = (0..count)
        .map(|i| !is_top[i] && hierarchy.parent_of(i).is_some_and(|p| is_large[p]))
        .collect();
    let is_green: Vec<bool> = (0..count)
        .map(|i| !is_top[i] && hierarchy.parent_of(i).is_some_and(|p| is_red[p]))
        .collect();

    // ---- partition P'' : red-centred parts --------------------------------
    // pp_red[part] = the part's red fragment, pp_of[v] = the part of node v
    let mut pp_red: Vec<usize> = Vec::new();
    let mut pp_of: Vec<u32> = vec![NONE; n];
    for (i, &red) in is_red.iter().enumerate() {
        if red {
            for v in hierarchy.fragment(i).nodes() {
                pp_of[v.index()] = narrow(pp_red.len());
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
    let mut larges: Vec<usize> = (0..count).filter(|&i| is_large[i]).collect();
    larges.sort_by_key(|&i| hierarchy.fragment(i).level);
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    for &flarge in &larges {
        let large = hierarchy.fragment(flarge);
        let blues = hierarchy.children_of(flarge).filter(|&c| is_blue[c]);
        for b in blues.clone() {
            for v in hierarchy.fragment(b).nodes() {
                let assigned = |u: &NodeId| pp_of[u.index()] != NONE && large.contains(*u);
                queue.extend(tree_neighbours(v).filter(assigned));
            }
        }
        while let Some(u) = queue.pop_front() {
            for w in tree_neighbours(u) {
                if pp_of[w.index()] == NONE && large.contains(w) {
                    let blue = (hierarchy.fragments_containing(w))
                        .find(|&b| hierarchy.parent_of(b) == Some(flarge))
                        .expect("an unassigned node of a large fragment is in a blue child");
                    for x in hierarchy.fragment(blue).nodes() {
                        pp_of[x.index()] = pp_of[u.index()];
                        queue.push_back(x);
                    }
                }
            }
        }
        assert!(
            blues
                .clone()
                .all(|b| pp_of[hierarchy.fragment(b).root.index()] != NONE),
            "Procedure Merge is stuck: some blue fragment touches no part"
        );
    }
    // any node still unassigned (only possible in degenerate tiny hierarchies)
    // becomes its own red-centred part anchored at the top fragment
    let top_idx = (0..count)
        .find(|&i| hierarchy.fragment(i).len() == n)
        .expect("the hierarchy contains the whole tree");
    for part in &mut pp_of {
        if *part == NONE {
            *part = narrow(pp_red.len());
            pp_red.push(top_idx);
        }
    }
    let pp_nodes = Csr::from_pairs(
        pp_red.len(),
        (pp_of.iter().zip(0..)).map(|(&part, v)| (part as usize, v)),
    );
    drop(pp_of);

    // ---- partition Top: split each P'' part into small-diameter subtrees --
    let mut tops = Parts::with_nodes(n);
    let mut top_of: Vec<u32> = vec![NONE; n];
    let mut splitter = Splitter::new(n);
    let mut fragments = Vec::new();
    for (nodes, &red) in pp_nodes.iter().zip(&pp_red) {
        // pieces shared by all sub-parts: the top ancestors (and self) of the
        // red fragment
        fragments.clear();
        let mut cur = Some(red);
        while let Some(i) = cur {
            if is_top[i] {
                fragments.push(i);
            }
            cur = hierarchy.parent_of(i);
        }
        let list = tops.push_pieces(g, tree, hierarchy, &mut fragments);
        let piece_count = tops.pieces.row(list as usize).len();
        let min_size = threshold.max(piece_count.div_ceil(2)).max(1);
        for cluster in splitter.split(tree, nodes, min_size).iter() {
            let cluster = cluster.iter().map(|&v| NodeId(v as usize));
            tops.push(&mut top_of, tree, cluster, list);
        }
    }
    drop((pp_nodes, splitter));

    // ---- partition Bottom: blue and green fragments -----------------------
    let mut bottoms = Parts::with_nodes(n);
    let mut bottom_of: Vec<u32> = vec![NONE; n];
    for i in 0..count {
        if is_blue[i] || is_green[i] {
            // all bottom fragments contained in this fragment: its subtree of
            // the hierarchy-tree
            fragments.clear();
            fragments.push(i);
            let mut visited = 0;
            while let Some(&j) = fragments.get(visited) {
                visited += 1;
                fragments.extend(hierarchy.children_of(j));
            }
            let list = bottoms.push_pieces(g, tree, hierarchy, &mut fragments);
            let nodes = hierarchy.fragment(i).nodes();
            bottoms.push(&mut bottom_of, tree, nodes, list);
        }
    }
    // fallback for nodes not covered by any blue/green fragment (happens only
    // when their singleton fragment is itself top, i.e. for very small n)
    for v in g.nodes() {
        if bottom_of[v.index()] == NONE {
            let singleton = hierarchy
                .fragment_at_level(v, 0)
                .expect("every node has a level-0 fragment");
            fragments.clear();
            fragments.push(singleton);
            let list = bottoms.push_pieces(g, tree, hierarchy, &mut fragments);
            bottoms.push(&mut bottom_of, tree, std::iter::once(v), list);
        }
    }
    tops.shrink_to_fit();
    bottoms.shrink_to_fit();

    let mut partitions = Partitions {
        threshold,
        is_top,
        parts: [tops, bottoms],
        part_of: [top_of, bottom_of],
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
    let [tops, bottoms] = &p.parts;
    let [top_of, bottom_of] = &p.part_of;
    let n = top_of.len();
    let mut stack: Vec<NodeId> = Vec::new();
    // the Bottom parts' nodes, each part's in DFS preorder, part after part
    let mut order: Vec<u32> = Vec::with_capacity(n);
    for (idx, part) in bottoms.iter().enumerate() {
        preorder(tree, part.root, bottom_of, idx, &mut stack, &mut order);
    }
    // bottom[v]: the pieces v stores for its Bottom part
    let mut bottom = vec![0u8; n];
    let mut start = 0;
    for part in bottoms.iter() {
        let nodes = &order[start..start + part.node_count()];
        start += nodes.len();
        for &v in nodes.iter().cycle().take(part.piece_count()) {
            bottom[v as usize] += 1;
        }
    }
    let mut room: Vec<isize> = (tops.iter())
        .map(|t| (2 * t.node_count()) as isize - t.piece_count() as isize)
        .collect();
    for (&part, &load) in top_of.iter().zip(&bottom) {
        room[part as usize] -= isize::from(load);
    }
    let mut augmenter = Augmenter::new(p);
    for t in 0..tops.len() {
        while room[t] < 0 && augmenter.augment(p, &mut bottom, &mut room, t) {}
    }
    drop((room, augmenter));
    let total = |parts: &Parts| parts.iter().map(|part| part.piece_count()).sum();
    let mut bottom_holders = Csr::with_capacity(bottoms.len(), total(bottoms));
    let mut start = 0;
    for part in bottoms.iter() {
        let nodes = &order[start..start + part.node_count()];
        start += nodes.len();
        push_holders(&mut bottom_holders, nodes, &bottom, part.piece_count());
    }

    let mut top = vec![0u8; n];
    let mut by_load: [Vec<u32>; 3] = Default::default();
    let mut top_holders = Csr::with_capacity(tops.len(), total(tops));
    for (idx, part) in tops.iter().enumerate() {
        order.clear();
        preorder(tree, part.root, top_of, idx, &mut stack, &mut order);
        by_load.iter_mut().for_each(Vec::clear);
        for &v in &order {
            by_load[usize::from(bottom[v as usize])].push(v);
        }
        let mut left = part.piece_count();
        for (load, held) in TOP_STEPS {
            for &v in by_load[load].iter().take(left) {
                top[v as usize] = held;
                left -= 1;
            }
        }
        push_holders(&mut top_holders, &order, &top, part.piece_count());
    }
    p.parts[BOTTOM].holders = bottom_holders;
    p.parts[TOP].holders = top_holders;
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
        let [tops, bottoms] = &p.parts;
        Augmenter {
            stamp: 0,
            top_seen: vec![0; tops.len()],
            bottom_seen: vec![0; bottoms.len()],
            came: vec![(NodeId(0), NodeId(0)); tops.len()],
            queue: Vec::new(),
        }
    }

    /// Gives Top part `t` one unit of room along an augmenting path, and
    /// returns whether one exists.
    fn augment(&mut self, p: &Partitions, bottom: &mut [u8], room: &mut [isize], t: usize) -> bool {
        let [tops, bottoms] = &p.parts;
        let [top_of, bottom_of] = &p.part_of;
        self.stamp += 1;
        self.top_seen[t] = self.stamp;
        self.queue.clear();
        self.queue.push(t);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            for v in tops.part(u).nodes() {
                let b = bottom_of[v.index()] as usize;
                if bottom[v.index()] == 0 || self.bottom_seen[b] == self.stamp {
                    continue;
                }
                self.bottom_seen[b] = self.stamp;
                for w in bottoms.part(b).nodes() {
                    let reached = top_of[w.index()] as usize;
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
                            at = top_of[v.index()] as usize;
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
    part_of: &[u32],
    idx: usize,
    stack: &mut Vec<NodeId>,
    out: &mut Vec<u32>,
) {
    stack.push(root);
    while let Some(v) = stack.pop() {
        out.push(v.index() as u32);
        let inside = |c: &&NodeId| part_of[c.index()] as usize == idx;
        stack.extend(tree.children(v).iter().filter(inside));
    }
}

/// Appends a part's holders to `holders`: each node of `order` repeated as
/// many times as `count` says it stores pieces.
fn push_holders(holders: &mut Csr<u32>, order: &[u32], count: &[u8], pieces: usize) {
    holders.push_row(
        (order.iter()).flat_map(|&v| std::iter::repeat_n(v, usize::from(count[v as usize]))),
    );
    let placed = holders.row(holders.rows() - 1).len();
    assert_eq!(placed, pieces, "every piece has one holder");
}

/// The buffers of [`Splitter::split`], reused from one `P′′` part to the
/// next.
struct Splitter {
    /// One counter per node, all zero between calls.
    pending: Vec<u32>,
    order: Vec<NodeId>,
    heads: Vec<NodeId>,
    clusters: Csr<u32>,
}

impl Splitter {
    fn new(n: usize) -> Self {
        Splitter {
            pending: vec![0; n],
            order: Vec::new(),
            heads: Vec::new(),
            clusters: Csr::default(),
        }
    }

    /// Splits the subtree induced by `nodes` into connected clusters of size
    /// at least `min_size` (except that the final cluster absorbs the
    /// remainder), each of diameter `O(min_size)`, returned one row per
    /// cluster.
    ///
    /// Bottom-up, a node closes a cluster — itself and everything pending
    /// below it — once that reaches `min_size`; what reaches the root
    /// unclosed is the remainder. Clusters are numbered in closing order.
    fn split(&mut self, tree: &RootedTree, nodes: &[u32], min_size: usize) -> &Csr<u32> {
        let Splitter {
            pending,
            order,
            heads,
            clusters,
        } = self;
        // Ascending depth is a top-down order of the induced subtree, so its
        // reverse visits children before parents. Children outside `nodes`
        // have nothing pending.
        order.clear();
        order.extend(nodes.iter().map(|&v| NodeId(v as usize)));
        order.sort_by_key(|&v| tree.depth(v));
        let root = *order.first().expect("parts are non-empty");
        // bottom-up: pending[v] = the number of nodes pending at `v`
        heads.clear();
        for &v in order.iter().rev() {
            let mut size = 1;
            for &c in tree.children(v) {
                size += std::mem::take(&mut pending[c.index()]) as usize;
            }
            if size >= min_size && v != root {
                heads.push(v);
            } else {
                pending[v.index()] = size as u32;
            }
        }
        let remainder_size = std::mem::take(&mut pending[root.index()]) as usize;
        // top-down: pending[v] = 1 + the cluster of `v`, a head's own or else
        // its parent's, the root's being the remainder's (numbered last)
        let remainder = heads.len();
        for (k, &h) in (1..).zip(heads.iter()) {
            pending[h.index()] = k;
        }
        pending[root.index()] = narrow(remainder + 1);
        for &v in &order[1..] {
            if pending[v.index()] == 0 {
                let up = tree.parent(v).map_or(0, |p| pending[p.index()]);
                assert_ne!(up, 0, "a P'' part must induce a connected subtree");
                pending[v.index()] = up;
            }
        }
        let cluster_of = |v: NodeId| pending[v.index()] as usize - 1;
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
        clusters.refill(
            count,
            (order.iter()).map(|&v| match cluster_of(v) {
                k if k == remainder => (remainder_joins, v.index() as u32),
                k => (k, v.index() as u32),
            }),
        );
        for &v in order.iter() {
            pending[v.index()] = 0;
        }
        clusters
    }
}

/// The placement before the pieces were spread across both partitions, kept
/// as the oracle of [`place_pieces`]: each part on its own gives slots
/// `2i` and `2i + 1` to the `i`-th node of its DFS preorder.
#[cfg(test)]
mod reference {
    use super::{build_partitions, preorder, Partitions, Parts};
    use smst_graph::{Csr, Hierarchy, RootedTree, WeightedGraph};

    /// [`build_partitions`] with every part's holders placed two per node
    /// in DFS preorder.
    pub fn build_partitions_dfs(
        g: &WeightedGraph,
        tree: &RootedTree,
        hierarchy: &Hierarchy,
    ) -> Partitions {
        let mut p = build_partitions(g, tree, hierarchy);
        for (parts, part_of) in p.parts.iter_mut().zip(&p.part_of) {
            two_per_node(tree, parts, part_of);
        }
        p
    }

    fn two_per_node(tree: &RootedTree, parts: &mut Parts, part_of: &[u32]) {
        let (mut stack, mut order) = (Vec::new(), Vec::new());
        let mut holders = Csr::default();
        for (idx, part) in parts.iter().enumerate() {
            order.clear();
            preorder(tree, part.root, part_of, idx, &mut stack, &mut order);
            holders.push_row(
                (order.iter())
                    .flat_map(|&v| [v, v])
                    .take(part.piece_count()),
            );
        }
        parts.holders = holders;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync_mst::SyncMst;
    use proptest::prelude::*;
    use smst_graph::generators::{path_graph, random_connected_graph};

    /// The piece lists are register cells: an identity beyond 32 bits does
    /// not fit one.
    #[test]
    #[should_panic(expected = "identities and weights fit in 32 bits")]
    fn an_identity_beyond_32_bits_does_not_fit_a_piece_list() {
        let mut b = smst_graph::GraphBuilder::new();
        let v = [0, 1 << 32, 2].map(|id| b.add_node_with_id(id));
        b.add_edge(v[0], v[1], 1).unwrap();
        b.add_edge(v[1], v[2], 2).unwrap();
        let g = b.finish();
        let outcome = SyncMst.run(&g);
        build_partitions(&g, &outcome.tree, &outcome.hierarchy);
    }

    fn build(n: usize, seed: u64) -> (WeightedGraph, RootedTree, Hierarchy, Partitions) {
        let g = random_connected_graph(n, 3 * n, seed);
        let outcome = SyncMst.run(&g);
        let parts = build_partitions(&g, &outcome.tree, &outcome.hierarchy);
        (g, outcome.tree, outcome.hierarchy, parts)
    }

    fn check_invariants(g: &WeightedGraph, tree: &RootedTree, h: &Hierarchy, parts: &Partitions) {
        let n = g.node_count();
        // every node in exactly one part of each partition
        for (side, part_of) in parts.parts.iter().zip(&parts.part_of) {
            for (v, &idx) in part_of.iter().enumerate() {
                assert!((idx as usize) < side.len());
                assert!(side.part(idx as usize).contains(NodeId(v)));
            }
            let covered: usize = side.iter().map(|p| p.node_count()).sum();
            assert_eq!(covered, n, "each partition's parts partition the nodes");
        }

        let log_n = (n.max(2) as f64).log2().ceil() as usize;
        for p in parts.parts.iter().flat_map(Parts::iter) {
            assert!(
                p.diameter <= 6 * log_n + 4,
                "part diameter {} is not O(log n)",
                p.diameter
            );
            assert!(p.piece_count() <= 2 * p.node_count());
            assert_eq!(p.holders().len(), p.piece_count());
            for (slot, h) in p.holders().enumerate() {
                assert!(p.contains(h), "slot {slot} holder is in the part");
            }
            // at most two stored pieces per node, filled from the front
            for v in p.nodes() {
                let stored = p.stored_at(v);
                assert!(stored[0].is_some() || stored[1].is_none());
            }
        }

        // coverage: for every node and every level at which it has a
        // fragment, the piece of that fragment is carried by one of its two
        // parts
        for v in g.nodes() {
            for idx in h.fragments_containing(v) {
                let frag = h.fragment(idx);
                let id = (g.id(frag.root), frag.level);
                let found = (parts.parts.iter().zip(&parts.part_of))
                    .flat_map(|(side, part_of)| side.part(part_of[v.index()] as usize).pieces())
                    .any(|p| (p.root_id(), p.level()) == id);
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
        for p in parts.parts[TOP].iter() {
            assert!(
                p.node_count() >= threshold.min(g.node_count()),
                "top part of {} nodes is below the threshold {threshold}",
                p.node_count()
            );
        }
    }

    #[test]
    fn top_parts_intersect_one_top_fragment_per_level() {
        let (g, _, h, parts) = build(100, 4);
        let threshold = parts.threshold;
        for p in parts.parts[TOP].iter() {
            let mut seen_levels = std::collections::BTreeSet::new();
            for i in 0..h.len() {
                let frag = h.fragment(i);
                if frag.len() >= threshold && p.nodes().any(|v| frag.contains(v)) {
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
        let mut held = vec![0; parts.part_of[TOP].len()];
        for p in parts.parts.iter().flat_map(Parts::iter) {
            for h in p.holders() {
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
            let sides = (parts.parts.iter().zip(&old.parts)).zip(&parts.part_of);
            let mut order = Vec::new();
            for ((new, old), part_of) in sides {
                assert_eq!(new.len(), old.len(), "{family}");
                for (idx, (p, q)) in new.iter().zip(old.iter()).enumerate() {
                    assert_eq!(p.pieces, q.pieces, "{family}");
                    assert_eq!((p.root, p.diameter), (q.root, q.diameter), "{family}");
                    assert_eq!((p.nodes, p.depth), (q.nodes, q.depth), "{family}");
                    order.clear();
                    preorder(tree, p.root, part_of, idx, &mut Vec::new(), &mut order);
                    let position = |v: NodeId| order.iter().position(|&u| u as usize == v.index());
                    let at: Vec<usize> = (p.holders())
                        .map(|v| position(v).expect("a holder is a member of its part"))
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
        let ([top, bottom], [top_of, bottom_of]) = (&p.parts, &p.part_of);
        let (tops, bottoms, n) = (top.len(), bottom.len(), top_of.len());
        let (source, sink) = (tops + bottoms + n, tops + bottoms + n + 1);
        let mut adj = vec![Vec::new(); sink + 1];
        let mut arcs: Vec<(usize, usize)> = Vec::new(); // (head, capacity)
        let mut arc = |a: usize, b: usize, cap: usize| {
            adj[a].push(arcs.len());
            arcs.push((b, cap));
            adj[b].push(arcs.len());
            arcs.push((a, 0));
        };
        for (t, part) in top.iter().enumerate() {
            arc(source, t, part.piece_count());
        }
        for (b, part) in bottom.iter().enumerate() {
            arc(tops + b, sink, 2 * part.node_count() - part.piece_count());
        }
        for v in 0..n {
            arc(top_of[v] as usize, tops + bottoms + v, 2);
            arc(tops + bottoms + v, tops + bottom_of[v] as usize, 2);
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
        flow == top.iter().map(|t| t.piece_count()).sum::<usize>()
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

    /// A Top part circulates the pieces of its red fragment's top
    /// ancestors, and some of those fragments contain no member of the
    /// part: no member reads such a piece for its own levels. On these
    /// instances that is about one Top-part piece in eleven, and no
    /// Bottom-part piece. Whether such labels are legal is ROADMAP item 1's
    /// question; until it is answered the counts are pinned, so that a
    /// change that moves them shows. Each part's row of nodes is read
    /// against its row of the shared piece lists.
    #[test]
    fn top_parts_carry_pieces_no_member_belongs_to() {
        use smst_graph::mst::kruskal;
        // (seed, pieces no member belongs to, Top-part pieces in all)
        for (seed, foreign, total) in [(1u64, 21, 231), (2, 27, 274), (7, 19, 204)] {
            let g = random_connected_graph(1000, 3000, seed);
            let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
            let outcome = SyncMst.run_for_candidate(&g, &tree);
            let h = &outcome.hierarchy;
            let parts = build_partitions(&g, &outcome.tree, h);
            let count = |side: &Parts| {
                let (mut foreign, mut total) = (0, 0);
                for idx in 0..side.len() {
                    let members = side.nodes.row(idx);
                    for piece in side.pieces.row(side.list[idx] as usize) {
                        let belongs = |&v: &u32| {
                            (h.fragment_at_level(NodeId(v as usize), piece.level()))
                                .is_some_and(|f| g.id(h.fragment(f).root) == piece.root_id())
                        };
                        foreign += usize::from(!members.iter().any(belongs));
                        total += 1;
                    }
                }
                (foreign, total)
            };
            assert_eq!(count(&parts.parts[TOP]), (foreign, total), "seed {seed}");
            assert_eq!(count(&parts.parts[BOTTOM]).0, 0, "seed {seed}");
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
