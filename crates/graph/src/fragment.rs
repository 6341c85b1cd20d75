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
//! A fragment's nodes are one sorted `Vec` (membership is a binary search),
//! and the hierarchy-tree's children and the per-node chains are two
//! [`Csr`]s: building a hierarchy allocates once per fragment, not once per
//! node or per tree entry.

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

/// A fragment: a connected subtree of the candidate tree, at a given level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fragment {
    /// The nodes of the fragment, ascending and without repeats.
    pub nodes: Vec<NodeId>,
    /// The fragment's level (SYNC_MST phase at which it was *active*).
    pub level: u32,
    /// The fragment's root: its node closest to the root of `T`.
    pub root: NodeId,
}

impl Fragment {
    /// Creates a fragment from its node set and level, computing the root as
    /// the node of minimum depth in `tree`.
    pub fn new<I: IntoIterator<Item = NodeId>>(tree: &RootedTree, nodes: I, level: u32) -> Self {
        let mut nodes: Vec<NodeId> = nodes.into_iter().collect();
        nodes.sort_unstable();
        nodes.dedup();
        let root = *nodes
            .iter()
            .min_by_key(|&&v| tree.depth(v))
            .expect("fragment must be non-empty");
        Fragment { nodes, level, root }
    }

    /// Number of nodes in the fragment.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the fragment is a singleton.
    pub fn is_singleton(&self) -> bool {
        self.nodes.len() == 1
    }

    /// `true` (never): fragments are non-empty by construction. Provided to
    /// satisfy the `len`/`is_empty` convention.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// `true` if `v` belongs to the fragment (a binary search).
    pub fn contains(&self, v: NodeId) -> bool {
        self.nodes.binary_search(&v).is_ok()
    }

    /// `true` if every node of `other` belongs to this fragment.
    pub fn contains_all(&self, other: &Fragment) -> bool {
        other.nodes.iter().all(|&v| self.contains(v))
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
        for &v in &self.nodes {
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

/// A fragment hierarchy (Definition 5.1) together with an optional candidate
/// function χ (Definition 5.2).
///
/// Fragments are stored in a flat vector; `parent`/`children` encode the
/// hierarchy-tree induced by containment, and `chain` indexes it by node, so
/// every per-node query costs `O(log n)` instead of a scan over all fragments.
#[derive(Debug, Clone, Default)]
pub struct Hierarchy {
    fragments: Vec<Fragment>,
    parent: Vec<Option<usize>>,
    /// Row `i` = the children of fragment `i`, ascending.
    children: Csr<usize>,
    /// Row `v` = the fragments containing node `v`, sorted by level (ties by
    /// index); in a legal hierarchy this is a leaf-to-root path of the
    /// hierarchy-tree, of length at most `height + 1`.
    chain: Csr<usize>,
    /// Candidate edge χ(F) for each non-top fragment.
    candidate: Vec<Option<EdgeId>>,
}

impl Hierarchy {
    /// Builds a hierarchy from a flat list of fragments, in time linear in
    /// the total size of the fragments (plus sorting them by size).
    ///
    /// The hierarchy-tree is derived from containment: the parent of `F` is
    /// the smallest fragment strictly containing `F`. The input is expected
    /// to be laminar; call [`Self::validate`] to verify all the properties of
    /// Definition 5.1.
    pub fn from_fragments(fragments: Vec<Fragment>) -> Self {
        let count = fragments.len();
        let node_bound = fragments
            .iter()
            .filter_map(|f| f.nodes.last())
            .map(|v| v.0 + 1)
            .max()
            .unwrap_or(0);
        // Ascending-size sweep: `largest[v]` is the largest fragment seen so
        // far that contains `v`. In a laminar family the first later fragment
        // touching it is its smallest strict superset.
        let mut by_size: Vec<usize> = (0..count).collect();
        by_size.sort_by_key(|&i| fragments[i].len());
        let mut parent: Vec<Option<usize>> = vec![None; count];
        let mut largest: Vec<Option<usize>> = vec![None; node_bound];
        for &i in &by_size {
            for v in &fragments[i].nodes {
                if let Some(inner) = largest[v.0].replace(i) {
                    parent[inner].get_or_insert(i);
                }
            }
        }
        let children = Csr::from_pairs(
            count,
            (parent.iter().enumerate()).filter_map(|(i, &p)| Some((p?, i))),
        );
        // fragments by level, ties by index, so every chain fills in order
        let mut by_level: Vec<usize> = (0..count).collect();
        by_level.sort_by_key(|&i| fragments[i].level);
        let chain = Csr::from_pairs(
            node_bound,
            (by_level.iter()).flat_map(|&i| fragments[i].nodes.iter().map(move |v| (v.0, i))),
        );
        Hierarchy {
            candidate: vec![None; count],
            fragments,
            parent,
            children,
            chain,
        }
    }

    /// Number of fragments.
    pub fn len(&self) -> usize {
        self.fragments.len()
    }

    /// `true` if the hierarchy contains no fragments.
    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty()
    }

    /// The fragments, in storage order.
    pub fn fragments(&self) -> &[Fragment] {
        &self.fragments
    }

    /// The fragment at a given index.
    pub fn fragment(&self, idx: usize) -> &Fragment {
        &self.fragments[idx]
    }

    /// The index of the parent fragment in the hierarchy-tree.
    pub fn parent_of(&self, idx: usize) -> Option<usize> {
        self.parent[idx]
    }

    /// The indices of the child fragments in the hierarchy-tree.
    pub fn children_of(&self, idx: usize) -> &[usize] {
        self.children.row(idx)
    }

    /// Sets the candidate edge χ(F) of a fragment.
    pub fn set_candidate(&mut self, idx: usize, edge: EdgeId) {
        self.candidate[idx] = Some(edge);
    }

    /// The candidate edge χ(F) of a fragment, if assigned.
    pub fn candidate(&self, idx: usize) -> Option<EdgeId> {
        self.candidate[idx]
    }

    /// The height of the hierarchy: the maximum fragment level.
    pub fn height(&self) -> u32 {
        self.fragments.iter().map(|f| f.level).max().unwrap_or(0)
    }

    /// Indices of the fragments containing a node, sorted by level (ties by
    /// index); empty for a node no fragment contains.
    pub fn fragments_containing(&self, v: NodeId) -> &[usize] {
        if v.0 < self.chain.rows() {
            self.chain.row(v.0)
        } else {
            &[]
        }
    }

    /// The index of the level-`lev` fragment containing `v`, if one exists.
    pub fn fragment_at_level(&self, v: NodeId, lev: u32) -> Option<usize> {
        let chain = self.fragments_containing(v);
        let at = chain.partition_point(|&i| self.fragments[i].level < lev);
        chain
            .get(at)
            .copied()
            .filter(|&i| self.fragments[i].level == lev)
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
        if !self.fragments.iter().any(|f| spans(g, f)) {
            return Err("the whole tree is not a fragment of the hierarchy".into());
        }
        for v in g.nodes() {
            let chain = self.fragments_containing(v);
            if !chain.iter().any(|&i| self.fragments[i].is_singleton()) {
                return Err(format!("missing singleton fragment for node {v}"));
            }
        }
        for (i, f) in self.fragments.iter().enumerate() {
            if let Some(p) = self.parent[i] {
                if self.fragments[p].level <= f.level {
                    return Err(format!(
                        "fragment {i} (level {}) has parent {p} of level {}",
                        f.level, self.fragments[p].level
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
            for (k, &i) in chain.iter().enumerate() {
                let next = chain.get(k + 1).copied();
                if let Some(j) =
                    next.filter(|&j| self.fragments[j].level == self.fragments[i].level)
                {
                    return Err(format!(
                        "fragments {i} and {j} share a node at the same level {}",
                        self.fragments[i].level
                    ));
                }
                if self.parent[i] != next {
                    let j = next
                        .or(self.parent[i])
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
        for (i, f) in self.fragments.iter().enumerate() {
            let is_top = spans(g, f);
            match (is_top, self.candidate[i]) {
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
        for (i, f) in self.fragments.iter().enumerate() {
            let mut expected: BTreeSet<EdgeId> = BTreeSet::new();
            for (j, f2) in self.fragments.iter().enumerate() {
                if i != j && f2.len() < f.len() && f.contains_all(f2) {
                    if let Some(e) = self.candidate[j] {
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
        for (i, f) in self.fragments.iter().enumerate() {
            if let Some(chi) = self.candidate[i] {
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
        for (i, f) in self.fragments.iter().enumerate() {
            map.entry(f.level).or_default().push(i);
        }
        map
    }
}

/// `true` if the fragment holds every node of `g`.
fn spans(g: &WeightedGraph, f: &Fragment) -> bool {
    f.nodes.iter().map(|v| v.0).eq(0..g.node_count())
}

/// `true` if the fragment's node set induces a connected subtree of `tree`.
fn fragment_is_connected(tree: &RootedTree, f: &Fragment) -> bool {
    // A set S of nodes induces a connected subtree iff every node except the
    // (unique) minimum-depth node has its parent in S.
    let mut roots = 0;
    for &v in &f.nodes {
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
        let mut frags = Vec::new();
        for v in 0..4 {
            frags.push(Fragment::new(&tree, [NodeId(v)], 0));
        }
        frags.push(Fragment::new(&tree, [NodeId(0), NodeId(1)], 1));
        frags.push(Fragment::new(&tree, [NodeId(2), NodeId(3)], 1));
        frags.push(Fragment::new(&tree, (0..4).map(NodeId), 2));
        let h = Hierarchy::from_fragments(frags);
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
        let frags = vec![
            Fragment::new(&t, (0..4).map(NodeId), 1),
            Fragment::new(&t, [NodeId(0)], 0),
        ];
        let h = Hierarchy::from_fragments(frags);
        assert!(h.validate(&g, &t).is_err());
    }

    #[test]
    fn validate_rejects_non_laminar() {
        let (g, t, _) = sample();
        let mut frags: Vec<Fragment> = (0..4).map(|v| Fragment::new(&t, [NodeId(v)], 0)).collect();
        frags.push(Fragment::new(&t, [NodeId(0), NodeId(1), NodeId(2)], 1));
        frags.push(Fragment::new(&t, [NodeId(1), NodeId(2), NodeId(3)], 1));
        frags.push(Fragment::new(&t, (0..4).map(NodeId), 2));
        let h = Hierarchy::from_fragments(frags);
        assert!(h.validate(&g, &t).is_err());
    }

    #[test]
    fn validate_rejects_disconnected_fragment() {
        let (g, t, _) = sample();
        let mut frags: Vec<Fragment> = (0..4).map(|v| Fragment::new(&t, [NodeId(v)], 0)).collect();
        frags.push(Fragment::new(&t, [NodeId(0), NodeId(3)], 1));
        frags.push(Fragment::new(&t, (0..4).map(NodeId), 2));
        let h = Hierarchy::from_fragments(frags);
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
        assert_eq!(h.fragments_containing(NodeId(0)), vec![0, 4, 6]);
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
