//! Fragments, laminar families and fragment hierarchies (Definition 5.1).
//!
//! A *fragment* is a connected subtree of the candidate spanning tree `T`.
//! A *hierarchy* `H` for `T` (Definition 5.1) is a laminar collection of
//! fragments containing `T` itself and every singleton `{v}`. Viewed as a
//! rooted tree (the *hierarchy-tree*), its leaves are the singletons and its
//! root is `T`. A *candidate function* χ (Definition 5.2) maps every fragment
//! `F ≠ T` to an edge of `T` such that each fragment is exactly the union of
//! its children's candidate edges; if each candidate edge is moreover a
//! *minimum outgoing* edge of its fragment, then `T` is an MST (Lemma 5.1).
//!
//! These structures are shared by the marker (which builds the hierarchy from
//! the SYNC_MST execution) and by the reference checks the tests use.
//!
//! A [`Hierarchy`] is an *indexed* laminar forest. Building it from `F`
//! fragments of total size `S` costs `O(S + F log F)` (`S ≤ n (ℓ + 1)` and
//! `F < 2n` for the hierarchy of SYNC_MST, i.e. `O(n log n)`): one
//! ascending-size sweep finds every parent, and each node keeps the
//! level-sorted chain of the fragments containing it, so the per-node queries
//! ([`Hierarchy::fragments_containing`], [`Hierarchy::fragment_at_level`])
//! cost `O(log n)` and [`Hierarchy::validate`] costs `O(S log n)`. Fragment
//! indices are the caller's: SYNC_MST supplies them by level, then by
//! ascending smallest node.
//!
//! Every table is flat and 32-bit: the fragments' nodes are the rows of one
//! [`Csr`] (sorted, so membership is a binary search), and so are the
//! hierarchy-tree's children and the per-node chains; levels are bytes and
//! roots, parents and candidate edges one 32-bit word per fragment. A
//! hierarchy holds `8 S + O(F)` bytes in a constant number of allocations,
//! and [`Hierarchy::fragment`] lends a fragment out as a [`Fragment`] view
//! into those tables.

use crate::csr::{narrow, NONE};
use crate::graph::{EdgeId, NodeId, WeightedGraph};
use crate::tree::RootedTree;
use crate::Csr;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The identity of a fragment: the identity of its root node together with
/// its level, exactly as in §3.4/§6 (`ID(F) = ID(r(F)) ∘ lev(F)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FragmentId {
    /// Identity of the fragment's root node.
    pub root_id: u64,
    /// Level of the fragment.
    pub level: u32,
}

impl fmt::Display for FragmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F(root={}, lev={})", self.root_id, self.level)
    }
}

/// A fragment: a connected subtree of the candidate tree at a given level,
/// read from its [`Hierarchy`]'s tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fragment<'a> {
    /// The nodes, ascending.
    nodes: &'a [u32],
    /// The fragment's level (SYNC_MST phase at which it was *active*).
    pub level: u32,
    /// The fragment's root: its node closest to the root of `T`.
    pub root: NodeId,
}

impl<'a> Fragment<'a> {
    /// Number of nodes in the fragment.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` (never): fragments are non-empty by construction. Provided to
    /// satisfy the `len`/`is_empty` convention.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// `true` if the fragment is a singleton.
    pub fn is_singleton(&self) -> bool {
        self.nodes.len() == 1
    }

    /// The nodes, ascending.
    pub fn nodes(
        &self,
    ) -> impl ExactSizeIterator<Item = NodeId> + DoubleEndedIterator + Clone + 'a {
        self.nodes.iter().map(|&v| NodeId(v as usize))
    }

    /// `true` if `v` belongs to the fragment (a binary search).
    pub fn contains(&self, v: NodeId) -> bool {
        u32::try_from(v.0).is_ok_and(|v| self.nodes.binary_search(&v).is_ok())
    }

    /// `true` if every node of `other` belongs to this fragment.
    pub fn contains_all(&self, other: Fragment<'_>) -> bool {
        other.nodes().all(|v| self.contains(v))
    }

    /// The fragment's identity `ID(F) = ID(root) ∘ level`.
    pub fn id(&self, g: &WeightedGraph) -> FragmentId {
        FragmentId {
            root_id: g.id(self.root),
            level: self.level,
        }
    }

    /// All edges of `g` that are *outgoing* from the fragment (exactly one
    /// endpoint inside).
    pub fn outgoing_edges(&self, g: &WeightedGraph) -> Vec<EdgeId> {
        let mut out = Vec::new();
        for v in self.nodes() {
            for &e in g.incident_edges(v) {
                let other = g.edge(e).other(v);
                if !self.contains(other) {
                    out.push(e);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The minimum outgoing edge of the fragment under the composite weights
    /// ω′ (with the candidate-tree indicator supplied per edge by `in_tree`).
    ///
    /// Returns `None` if the fragment has no outgoing edge (i.e. it spans the
    /// whole graph).
    pub fn minimum_outgoing_edge<F>(&self, g: &WeightedGraph, in_tree: F) -> Option<EdgeId>
    where
        F: Fn(EdgeId) -> bool,
    {
        self.outgoing_edges(g)
            .into_iter()
            .min_by_key(|&e| g.composite_weight(e, in_tree(e)))
    }
}

/// A row of 32-bit fragment indices, widened.
fn indices(row: &[u32]) -> impl ExactSizeIterator<Item = usize> + DoubleEndedIterator + Clone + '_ {
    row.iter().map(|&i| i as usize)
}

/// A fragment hierarchy (Definition 5.1) together with an optional candidate
/// function χ (Definition 5.2).
///
/// Fragments are the rows of flat tables; `parent`/`children` encode the
/// hierarchy-tree induced by containment, and `chain` indexes it by node, so
/// every per-node query costs `O(log n)` instead of a scan over all fragments.
#[derive(Debug, Clone, Default)]
pub struct Hierarchy {
    /// Row `i` = the nodes of fragment `i`, ascending.
    nodes: Csr<u32>,
    level: Vec<u8>,
    root: Vec<u32>,
    /// The hierarchy-tree parent of each fragment, or [`NONE`].
    parent: Vec<u32>,
    /// Row `i` = the children of fragment `i`, ascending.
    children: Csr<u32>,
    /// Row `v` = the fragments containing node `v`, sorted by level (ties by
    /// index); in a legal hierarchy this is a leaf-to-root path of the
    /// hierarchy-tree, of length at most `height + 1`.
    chain: Csr<u32>,
    /// Candidate edge χ(F) of each non-top fragment, or [`NONE`].
    candidate: Vec<u32>,
}

impl Hierarchy {
    /// Builds the hierarchy whose fragment `i` holds the nodes of row `i` of
    /// `nodes` (each row ascending and without repeats) at level `level[i]`,
    /// its root the node of least depth in `tree`, in time linear in the
    /// total size of the fragments (plus sorting them by size).
    ///
    /// The hierarchy-tree is derived from containment: the parent of `F` is
    /// the smallest fragment strictly containing `F`. The input is expected
    /// to be laminar; call [`Self::validate`] to verify all the properties of
    /// Definition 5.1.
    ///
    /// # Panics
    ///
    /// Panics if a row is empty, `level` has another length than `nodes`,
    /// or a fragment index exceeds 2³² − 2.
    pub fn from_rows(tree: &RootedTree, nodes: Csr<u32>, level: Vec<u8>) -> Self {
        assert_eq!(level.len(), nodes.rows(), "one level per fragment");
        let count = nodes.rows();
        narrow(count);
        let root = (nodes.iter())
            .map(|row| {
                debug_assert!(row.is_sorted_by(|a, b| a < b), "rows are ascending");
                let depth = |&&v: &&u32| tree.depth(NodeId(v as usize));
                *row.iter()
                    .min_by_key(depth)
                    .expect("fragments are non-empty")
            })
            .collect();
        let node_bound = (nodes.iter())
            .filter_map(|row| row.last())
            .map(|&v| v as usize + 1)
            .max()
            .unwrap_or(0);
        // Ascending-size sweep: `largest[v]` is the largest fragment seen so
        // far that contains `v`. In a laminar family the first later fragment
        // touching it is its smallest strict superset.
        let mut by_size: Vec<u32> = (0..count as u32).collect();
        by_size.sort_by_key(|&i| nodes.row(i as usize).len());
        let mut parent = vec![NONE; count];
        let mut largest = vec![NONE; node_bound];
        for &i in &by_size {
            for &v in nodes.row(i as usize) {
                let inner = std::mem::replace(&mut largest[v as usize], i);
                if inner != NONE && parent[inner as usize] == NONE {
                    parent[inner as usize] = i;
                }
            }
        }
        drop(largest);
        let children = Csr::from_pairs(
            count,
            (parent.iter().zip(0..))
                .filter(|&(&p, _)| p != NONE)
                .map(|(&p, i)| (p as usize, i)),
        );
        // fragments by level, ties by index, so every chain fills in order
        let mut by_level = by_size;
        by_level.sort_by_key(|&i| (level[i as usize], i));
        let chain = Csr::from_pairs(
            node_bound,
            (by_level.iter())
                .flat_map(|&i| nodes.row(i as usize).iter().map(move |&v| (v as usize, i))),
        );
        Hierarchy {
            candidate: vec![NONE; count],
            nodes,
            level,
            root,
            parent,
            children,
            chain,
        }
    }

    /// Number of fragments.
    pub fn len(&self) -> usize {
        self.nodes.rows()
    }

    /// `true` if the hierarchy contains no fragments.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fragments, in storage order.
    pub fn fragments(&self) -> impl ExactSizeIterator<Item = Fragment<'_>> + '_ {
        (0..self.len()).map(|i| self.fragment(i))
    }

    /// The fragment at a given index.
    pub fn fragment(&self, idx: usize) -> Fragment<'_> {
        Fragment {
            nodes: self.nodes.row(idx),
            level: u32::from(self.level[idx]),
            root: NodeId(self.root[idx] as usize),
        }
    }

    /// The index of the parent fragment in the hierarchy-tree.
    pub fn parent_of(&self, idx: usize) -> Option<usize> {
        Some(self.parent[idx])
            .filter(|&p| p != NONE)
            .map(|p| p as usize)
    }

    /// The indices of the child fragments in the hierarchy-tree, ascending.
    pub fn children_of(
        &self,
        idx: usize,
    ) -> impl ExactSizeIterator<Item = usize> + DoubleEndedIterator + Clone + '_ {
        indices(self.children.row(idx))
    }

    /// Sets the candidate edge χ(F) of a fragment.
    ///
    /// # Panics
    ///
    /// Panics if the edge index exceeds 2³² − 2.
    pub fn set_candidate(&mut self, idx: usize, edge: EdgeId) {
        self.candidate[idx] = narrow(edge.0);
    }

    /// The candidate edge χ(F) of a fragment, if assigned.
    pub fn candidate(&self, idx: usize) -> Option<EdgeId> {
        Some(self.candidate[idx])
            .filter(|&e| e != NONE)
            .map(|e| EdgeId(e as usize))
    }

    /// The height of the hierarchy: the maximum fragment level.
    pub fn height(&self) -> u32 {
        self.level.iter().copied().max().map_or(0, u32::from)
    }

    /// Indices of the fragments containing a node, sorted by level (ties by
    /// index); empty for a node no fragment contains.
    pub fn fragments_containing(
        &self,
        v: NodeId,
    ) -> impl ExactSizeIterator<Item = usize> + DoubleEndedIterator + Clone + '_ {
        indices(self.chain_of(v))
    }

    /// Row `v` of the chains, empty beyond the last node.
    fn chain_of(&self, v: NodeId) -> &[u32] {
        if v.0 < self.chain.rows() {
            self.chain.row(v.0)
        } else {
            &[]
        }
    }

    /// The index of the level-`lev` fragment containing `v`, if one exists.
    pub fn fragment_at_level(&self, v: NodeId, lev: u32) -> Option<usize> {
        let chain = self.chain_of(v);
        let level = |i: u32| u32::from(self.level[i as usize]);
        let at = chain.partition_point(|&i| level(i) < lev);
        (chain.get(at).copied())
            .filter(|&i| level(i) == lev)
            .map(|i| i as usize)
    }

    /// Checks the structural properties of Definition 5.1:
    ///
    /// 1. the whole tree and every singleton appear as fragments;
    /// 2. the collection is laminar;
    /// 3. levels strictly increase along containment;
    /// 4. every fragment induces a connected subtree of `tree`;
    /// 5. no two distinct fragments share both a node and a level.
    ///
    /// Returns a human-readable description of the first violation found.
    pub fn validate(
        &self,
        g: &WeightedGraph,
        tree: &RootedTree,
    ) -> std::result::Result<(), String> {
        if !self.fragments().any(|f| spans(g, f)) {
            return Err("the whole tree is not a fragment of the hierarchy".into());
        }
        for v in g.nodes() {
            if !(self.fragments_containing(v)).any(|i| self.fragment(i).is_singleton()) {
                return Err(format!("missing singleton fragment for node {v}"));
            }
        }
        for (i, f) in self.fragments().enumerate() {
            if let Some(p) = self.parent_of(i) {
                if self.fragment(p).level <= f.level {
                    return Err(format!(
                        "fragment {i} (level {}) has parent {p} of level {}",
                        f.level,
                        self.fragment(p).level
                    ));
                }
            }
            if !fragment_is_connected(tree, f) {
                return Err(format!("fragment {i} is not a connected subtree"));
            }
        }
        // The family is laminar, with one fragment per node and level, iff
        // the fragments containing a node are exactly a leaf-to-root path of
        // the hierarchy-tree: if `F` and `F'` share `v`, one is then an
        // ancestor of the other, and the path of every other node of the
        // descendant climbs through the same ancestors.
        for chain in self.chain.iter() {
            let mut chain = indices(chain).peekable();
            while let Some(i) = chain.next() {
                let next = chain.peek().copied();
                if let Some(j) = next.filter(|&j| self.level[j] == self.level[i]) {
                    return Err(format!(
                        "fragments {i} and {j} share a node at the same level {}",
                        self.level[i]
                    ));
                }
                if self.parent_of(i) != next {
                    let j = next
                        .or(self.parent_of(i))
                        .expect("one of the two differs from None");
                    return Err(format!("fragments {i} and {j} overlap without containment"));
                }
            }
        }
        Ok(())
    }

    /// Checks that the stored candidate edges form a candidate function χ
    /// (Definition 5.2): every non-top fragment has exactly one candidate,
    /// the candidate is an outgoing tree edge, and every fragment equals the
    /// union of its strict descendants' candidates.
    pub fn validate_candidate_function(
        &self,
        g: &WeightedGraph,
        tree: &RootedTree,
    ) -> std::result::Result<(), String> {
        for (i, f) in self.fragments().enumerate() {
            let is_top = spans(g, f);
            match (is_top, self.candidate(i)) {
                (true, Some(_)) => {
                    return Err("the whole-tree fragment must not have a candidate".into())
                }
                (false, None) => return Err(format!("fragment {i} has no candidate edge")),
                (false, Some(e)) => {
                    if !tree.contains_edge(e) {
                        return Err(format!("candidate of fragment {i} is not a tree edge"));
                    }
                    let edge = g.edge(e);
                    let inside = f.contains(edge.u) as u8 + f.contains(edge.v) as u8;
                    if inside != 1 {
                        return Err(format!(
                            "candidate of fragment {i} is not outgoing (has {inside} endpoints inside)"
                        ));
                    }
                }
                (true, None) => {}
            }
        }
        // E(F) = { χ(F') : F' strictly contained in F }
        for (i, f) in self.fragments().enumerate() {
            let mut expected: BTreeSet<EdgeId> = BTreeSet::new();
            for (j, f2) in self.fragments().enumerate() {
                if i != j && f2.len() < f.len() && f.contains_all(f2) {
                    if let Some(e) = self.candidate(j) {
                        expected.insert(e);
                    }
                }
            }
            let actual: BTreeSet<EdgeId> = tree
                .edges()
                .into_iter()
                .filter(|&e| {
                    let edge = g.edge(e);
                    f.contains(edge.u) && f.contains(edge.v)
                })
                .collect();
            if expected != actual {
                return Err(format!(
                    "fragment {i}: edge set does not equal the union of its descendants' candidates"
                ));
            }
        }
        Ok(())
    }

    /// Checks the *Minimality* property (P2 of §3.2): every candidate edge is
    /// a minimum outgoing edge of its fragment under ω′.
    pub fn validate_minimality(
        &self,
        g: &WeightedGraph,
        tree: &RootedTree,
    ) -> std::result::Result<(), String> {
        for (i, f) in self.fragments().enumerate() {
            if let Some(chi) = self.candidate(i) {
                let min = f
                    .minimum_outgoing_edge(g, |e| tree.contains_edge(e))
                    .ok_or_else(|| format!("fragment {i} has no outgoing edge"))?;
                if min != chi {
                    return Err(format!(
                        "fragment {i}: candidate {chi:?} is not the minimum outgoing edge {min:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Groups fragment indices by level.
    pub fn levels(&self) -> BTreeMap<u32, Vec<usize>> {
        let mut map: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (i, f) in self.fragments().enumerate() {
            map.entry(f.level).or_default().push(i);
        }
        map
    }
}

/// `true` if the fragment holds every node of `g`.
fn spans(g: &WeightedGraph, f: Fragment<'_>) -> bool {
    f.nodes().map(|v| v.0).eq(0..g.node_count())
}

/// `true` if the fragment's node set induces a connected subtree of `tree`.
fn fragment_is_connected(tree: &RootedTree, f: Fragment<'_>) -> bool {
    // A set S of nodes induces a connected subtree iff every node except the
    // (unique) minimum-depth node has its parent in S.
    let mut roots = 0;
    for v in f.nodes() {
        match tree.parent(v) {
            Some(p) if f.contains(p) => {}
            _ => roots += 1,
        }
    }
    roots == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, NodeId};
    use crate::mst::kruskal;

    /// The hierarchy of the given `(nodes, level)` fragments, in order.
    fn hierarchy(tree: &RootedTree, fragments: &[(&[u32], u8)]) -> Hierarchy {
        let mut nodes = Csr::default();
        for (row, _) in fragments {
            let mut row = row.to_vec();
            row.sort_unstable();
            row.dedup();
            nodes.push_row(row);
        }
        let levels = fragments.iter().map(|&(_, level)| level).collect();
        Hierarchy::from_rows(tree, nodes, levels)
    }

    /// Path 0-1-2-3 (weights 1, 10, 3) with a hierarchy: singletons (lvl 0),
    /// {0,1} and {2,3} (lvl 1), whole tree (lvl 2). The middle edge is the
    /// heaviest, so the level-1 merges along the outer edges are minimal.
    fn sample() -> (WeightedGraph, RootedTree, Hierarchy) {
        let mut b = GraphBuilder::with_nodes(4);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 10).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 3).unwrap();
        let g = b.finish();
        let mst = kruskal(&g);
        let tree = mst.rooted_at(&g, NodeId(0)).unwrap();
        let h = hierarchy(
            &tree,
            &[
                (&[0], 0),
                (&[1], 0),
                (&[2], 0),
                (&[3], 0),
                (&[0, 1], 1),
                (&[2, 3], 1),
                (&[0, 1, 2, 3], 2),
            ],
        );
        (g, tree, h)
    }

    #[test]
    fn hierarchy_tree_structure() {
        let (_, _, h) = sample();
        assert_eq!(h.len(), 7);
        assert_eq!(h.height(), 2);
        // the whole-tree fragment is index 6 and has two children at level 1
        assert_eq!(h.children_of(6).len(), 2);
        assert_eq!(h.parent_of(4), Some(6));
        assert_eq!(h.parent_of(0), Some(4));
    }

    #[test]
    fn validate_accepts_legal_hierarchy() {
        let (g, t, h) = sample();
        assert_eq!(h.validate(&g, &t), Ok(()));
    }

    #[test]
    fn validate_rejects_missing_singleton() {
        let (g, t, _) = sample();
        let h = hierarchy(&t, &[(&[0, 1, 2, 3], 1), (&[0], 0)]);
        assert!(h.validate(&g, &t).is_err());
    }

    #[test]
    fn validate_rejects_non_laminar() {
        let (g, t, _) = sample();
        let h = hierarchy(
            &t,
            &[
                (&[0], 0),
                (&[1], 0),
                (&[2], 0),
                (&[3], 0),
                (&[0, 1, 2], 1),
                (&[1, 2, 3], 1),
                (&[0, 1, 2, 3], 2),
            ],
        );
        assert!(h.validate(&g, &t).is_err());
    }

    #[test]
    fn validate_rejects_disconnected_fragment() {
        let (g, t, _) = sample();
        let h = hierarchy(
            &t,
            &[
                (&[0], 0),
                (&[1], 0),
                (&[2], 0),
                (&[3], 0),
                (&[0, 3], 1),
                (&[0, 1, 2, 3], 2),
            ],
        );
        assert!(h.validate(&g, &t).is_err());
    }

    #[test]
    fn candidate_function_validation() {
        let (g, t, mut h) = sample();
        // candidates: each singleton points at its path edge; level-1 fragments
        // point at the middle edge.
        let e01 = g.edge_between(NodeId(0), NodeId(1)).unwrap();
        let e12 = g.edge_between(NodeId(1), NodeId(2)).unwrap();
        let e23 = g.edge_between(NodeId(2), NodeId(3)).unwrap();
        h.set_candidate(0, e01);
        h.set_candidate(1, e01);
        h.set_candidate(2, e23);
        h.set_candidate(3, e23);
        h.set_candidate(4, e12);
        h.set_candidate(5, e12);
        assert_eq!(h.validate_candidate_function(&g, &t), Ok(()));
        assert_eq!(h.validate_minimality(&g, &t), Ok(()));
    }

    #[test]
    fn candidate_function_rejects_non_outgoing_candidate() {
        let (g, t, mut h) = sample();
        let e01 = g.edge_between(NodeId(0), NodeId(1)).unwrap();
        // fragment {0,1} must not select its own internal edge
        for i in 0..6 {
            h.set_candidate(i, e01);
        }
        assert!(h.validate_candidate_function(&g, &t).is_err());
    }

    #[test]
    fn minimality_rejects_heavier_choice() {
        let (g, t, mut h) = sample();
        let e01 = g.edge_between(NodeId(0), NodeId(1)).unwrap();
        let e12 = g.edge_between(NodeId(1), NodeId(2)).unwrap();
        let e23 = g.edge_between(NodeId(2), NodeId(3)).unwrap();
        h.set_candidate(0, e01);
        // singleton {1} selects the heavy middle edge e12 even though e01 is
        // lighter -> violates minimality
        h.set_candidate(1, e12);
        h.set_candidate(2, e23);
        h.set_candidate(3, e23);
        h.set_candidate(4, e12);
        h.set_candidate(5, e12);
        assert!(h.validate_minimality(&g, &t).is_err());
    }

    #[test]
    fn fragment_queries() {
        let (g, t, h) = sample();
        let f = h.fragment(4);
        assert_eq!(f.len(), 2);
        assert!(!f.is_singleton());
        assert!(!f.is_empty());
        assert_eq!(f.root, NodeId(0));
        assert_eq!(f.id(&g).level, 1);
        let out = f.outgoing_edges(&g);
        assert_eq!(out.len(), 1);
        let min = f.minimum_outgoing_edge(&g, |_| false).unwrap();
        assert_eq!(min, g.edge_between(NodeId(1), NodeId(2)).unwrap());
        assert_eq!(
            h.fragments_containing(NodeId(0)).collect::<Vec<_>>(),
            [0, 4, 6]
        );
        assert_eq!(h.fragment_at_level(NodeId(3), 1), Some(5));
        assert_eq!(h.fragment_at_level(NodeId(3), 3), None);
        assert_eq!(h.levels()[&1].len(), 2);
        let _ = t;
    }

    #[test]
    fn whole_graph_fragment_has_no_outgoing_edge() {
        let (g, t, h) = sample();
        let top = h.fragment(6);
        assert!(top.outgoing_edges(&g).is_empty());
        assert!(top.minimum_outgoing_edge(&g, |_| false).is_none());
        let _ = t;
    }

    #[test]
    fn fragment_id_display() {
        let id = FragmentId {
            root_id: 9,
            level: 3,
        };
        assert_eq!(id.to_string(), "F(root=9, lev=3)");
    }
}
