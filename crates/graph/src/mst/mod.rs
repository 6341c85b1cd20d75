//! Reference (centralized) minimum-spanning-tree algorithms.
//!
//! These are the ground truth the tests and benches compare the distributed
//! algorithms against. Three classical algorithms are provided —
//! [`kruskal`], [`prim`] and [`boruvka`] — all operating on the composite
//! (perturbed, unique) weights of [`crate::weight`], so they return the same
//! unique MST. [`is_mst`] checks a candidate edge set using the cut/cycle
//! properties.

mod boruvka;
mod kruskal;
mod prim;
mod union_find;

pub use boruvka::{boruvka, boruvka_phase_count};
pub use kruskal::kruskal;
pub use prim::prim;
pub use union_find::UnionFind;

use crate::graph::{EdgeId, WeightedGraph};
use crate::tree::RootedTree;
use crate::{CompositeWeight, NodeId};

/// The result of an MST computation: the tree edge set plus its total weight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MstResult {
    edges: Vec<EdgeId>,
    total_weight: u128,
}

impl MstResult {
    pub(crate) fn new(g: &WeightedGraph, mut edges: Vec<EdgeId>) -> Self {
        edges.sort_unstable();
        let total_weight = g.total_weight(edges.iter().copied());
        MstResult {
            edges,
            total_weight,
        }
    }

    /// The MST edges, sorted by edge id.
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// The total raw weight of the MST.
    pub fn total_weight(&self) -> u128 {
        self.total_weight
    }

    /// Converts the edge set into a [`RootedTree`] rooted at the given node.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::GraphError::NotASpanningTree`] if the edge set is
    /// not spanning (e.g. if the input graph was disconnected).
    pub fn rooted_at(&self, g: &WeightedGraph, root: NodeId) -> crate::Result<RootedTree> {
        RootedTree::from_edges(g, &self.edges, root)
    }

    /// Returns `true` if the given edge belongs to the MST.
    pub fn contains(&self, e: EdgeId) -> bool {
        self.edges.binary_search(&e).is_ok()
    }
}

/// Checks whether `candidate` is a minimum spanning tree of `g`.
///
/// The check uses the *cycle property* under the composite weights ω′ of
/// §2.1: a spanning tree `T` is an MST iff every non-tree edge `e = (u, v)` is
/// at least as heavy (under ω′ with the indicator of `T`) as every tree edge on
/// the `u`–`v` path in `T`. This matches the verification semantics of the
/// paper exactly (it is agnostic to how ties outside `T` are broken).
///
/// A union–find pass checks that the `n − 1` candidate edges close no cycle,
/// i.e. span `g`; then one Kruskal pass in ω′ order (`O(m log m)`) decides
/// minimality: a non-tree edge joins two components of the lighter edges
/// exactly when some tree edge on its cycle is heavier.
pub fn is_mst(g: &WeightedGraph, candidate: &[EdgeId]) -> bool {
    let n = g.node_count();
    if n == 0 {
        return true;
    }
    if candidate.len() != n - 1 {
        return false;
    }
    let mut in_tree = vec![false; g.edge_count()];
    let mut components = UnionFind::new(n);
    for &e in candidate {
        if e.0 >= g.edge_count() || !components.union(g.edge(e).u.0, g.edge(e).v.0) {
            return false;
        }
        in_tree[e.0] = true;
    }
    let mut components = UnionFind::new(n);
    by_composite_weight(g, |e| in_tree[e.0])
        .into_iter()
        .all(|(_, e)| {
            let edge = g.edge(e);
            !components.union(edge.u.0, edge.v.0) || in_tree[e.0]
        })
}

/// The edges of `g` by ascending ω′ under the candidate-tree indicator
/// `in_tree`, with their weights, ties by edge id (what a stable sort of the
/// ids gives): every key is computed once instead of on every comparison.
pub fn by_composite_weight<F>(g: &WeightedGraph, in_tree: F) -> Vec<(CompositeWeight, EdgeId)>
where
    F: Fn(EdgeId) -> bool,
{
    let mut order: Vec<(CompositeWeight, EdgeId)> = (0..g.edge_count())
        .map(|e| (g.composite_weight(EdgeId(e), in_tree(EdgeId(e))), EdgeId(e)))
        .collect();
    order.sort_unstable();
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete_graph, random_connected_graph};
    use crate::graph::GraphBuilder;
    use proptest::prelude::*;

    #[test]
    fn three_algorithms_agree_on_small_graph() {
        let g = complete_graph(6, 7);
        let k = kruskal(&g);
        let p = prim(&g);
        let b = boruvka(&g);
        assert_eq!(k.edges(), p.edges());
        assert_eq!(k.edges(), b.edges());
        assert_eq!(k.total_weight(), p.total_weight());
    }

    #[test]
    fn is_mst_accepts_kruskal_output() {
        let g = random_connected_graph(20, 50, 3);
        let mst = kruskal(&g);
        assert!(is_mst(&g, mst.edges()));
    }

    #[test]
    fn is_mst_rejects_non_spanning_set() {
        let g = random_connected_graph(10, 20, 5);
        let mst = kruskal(&g);
        let mut edges = mst.edges().to_vec();
        edges.pop();
        assert!(!is_mst(&g, &edges));
    }

    #[test]
    fn is_mst_rejects_heavier_spanning_tree() {
        // square with a heavy diagonal swap
        let mut b = GraphBuilder::with_nodes(4);
        let e01 = b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        let e12 = b.add_edge(NodeId(1), NodeId(2), 2).unwrap();
        let e23 = b.add_edge(NodeId(2), NodeId(3), 3).unwrap();
        let e30 = b.add_edge(NodeId(3), NodeId(0), 100).unwrap();
        let g = b.finish();
        assert!(is_mst(&g, &[e01, e12, e23]));
        assert!(!is_mst(&g, &[e01, e12, e30]));
    }

    #[test]
    fn mst_result_contains_and_root() {
        let g = complete_graph(5, 11);
        let mst = kruskal(&g);
        for &e in mst.edges() {
            assert!(mst.contains(e));
        }
        let tree = mst.rooted_at(&g, NodeId(2)).unwrap();
        assert_eq!(tree.root(), NodeId(2));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn algorithms_agree_on_random_graphs(n in 2usize..24, seed in 0u64..500) {
            let m = (n * (n.saturating_sub(1)) / 2).min(3 * n);
            let g = random_connected_graph(n, m, seed);
            let k = kruskal(&g);
            let p = prim(&g);
            let b = boruvka(&g);
            prop_assert_eq!(k.edges(), p.edges());
            prop_assert_eq!(k.edges(), b.edges());
            prop_assert!(is_mst(&g, k.edges()));
        }

        #[test]
        fn swapping_an_edge_breaks_minimality_or_equals(n in 4usize..16, seed in 0u64..200) {
            let g = random_connected_graph(n, 3 * n, seed);
            let mst = kruskal(&g);
            // replace a tree edge by a non-tree edge that closes a cycle over it:
            // the result is either not spanning or not minimal.
            let non_tree: Vec<EdgeId> = g
                .edge_entries()
                .map(|(e, _)| e)
                .filter(|e| !mst.contains(*e))
                .collect();
            if let Some(&extra) = non_tree.first() {
                let mut edges = mst.edges().to_vec();
                edges[0] = extra;
                // either it is no longer a spanning tree, or it is a spanning tree
                // but strictly heavier; in both cases is_mst must not hold unless
                // it accidentally reconstructs an MST of equal weight, which the
                // unique composite ordering forbids for a *different* edge set.
                prop_assert!(!is_mst(&g, &edges) || edges == mst.edges());
            }
        }
    }
}
