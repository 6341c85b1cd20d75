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

pub use boruvka::{boruvka, boruvka_phase_count, boruvka_phases};
pub use kruskal::kruskal;
pub use prim::prim;
pub use union_find::UnionFind;

use crate::graph::{EdgeId, WeightedGraph};
use crate::tree::RootedTree;
use crate::NodeId;

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
/// i.e. span `g`; then one Kruskal pass in ω′ order decides minimality: a
/// non-tree edge joins two components of the lighter edges exactly when
/// some tree edge on its cycle is heavier. The order comes from the graph's
/// shared ω order in `O(m)` ([`by_composite_weight`]).
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
        .all(|e| {
            let edge = g.edge(e);
            !components.union(edge.u.0, edge.v.0) || in_tree[e.0]
        })
}

/// The edges of `g` by ascending ω′ under the candidate-tree indicator
/// `in_tree`, ties by edge id (what a stable sort of the ids gives).
///
/// ω′ differs from ω only inside a run of equal raw weights, where the
/// candidate's edges come first: so the graph's shared ω order
/// (`WeightedGraph::edges_by_weight`, sorted once per graph) becomes the
/// ω′ order in `O(m)`, by moving each run's tree edges to its front and
/// keeping both groups in their order.
pub fn by_composite_weight<F>(g: &WeightedGraph, in_tree: F) -> Vec<EdgeId>
where
    F: Fn(EdgeId) -> bool,
{
    let by_weight = g.edges_by_weight();
    let weight = |e: &u32| g.weight(EdgeId(*e as usize));
    let mut order = Vec::with_capacity(by_weight.len());
    for run in by_weight.chunk_by(|a, b| weight(a) == weight(b)) {
        let run = run.iter().map(|&e| EdgeId(e as usize));
        order.extend(run.clone().filter(|&e| in_tree(e)));
        order.extend(run.filter(|&e| !in_tree(e)));
    }
    order
}

/// What [`by_composite_weight`] returns, by one full sort of the ω′ keys.
#[cfg(test)]
fn by_composite_weight_reference<F>(g: &WeightedGraph, in_tree: F) -> Vec<EdgeId>
where
    F: Fn(EdgeId) -> bool,
{
    let mut order: Vec<(crate::CompositeWeight, EdgeId)> = (0..g.edge_count())
        .map(|e| (g.composite_weight(EdgeId(e), in_tree(EdgeId(e))), EdgeId(e)))
        .collect();
    order.sort_unstable();
    order.into_iter().map(|(_, e)| e).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{
        complete_graph, random_connected_graph, random_graph_scrambled_ids, reweighted,
    };
    use crate::graph::GraphBuilder;
    use proptest::prelude::*;
    use smst_rng::{Rng, SeedableRng, StdRng};

    /// A random graph with scrambled identities whose weights are taken
    /// mod `k`: long runs of equal weights, ordered inside by identities
    /// that are not the node indices.
    fn tied_graph(n: usize, k: u64, seed: u64) -> WeightedGraph {
        let g = random_graph_scrambled_ids(n, 3 * n, seed);
        reweighted(&g, |_, w| w % k)
    }

    /// Kruskal's algorithm over the reference order.
    fn kruskal_reference(g: &WeightedGraph) -> Vec<EdgeId> {
        let mut uf = UnionFind::new(g.node_count());
        let mut chosen: Vec<EdgeId> = by_composite_weight_reference(g, |_| false)
            .into_iter()
            .filter(|&e| uf.union(g.edge(e).u.0, g.edge(e).v.0))
            .collect();
        chosen.sort_unstable();
        chosen
    }

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

        /// Weights mod 3–7 with random candidate-tree indicators: the order
        /// derived from the shared one equals the full sort, and Kruskal and
        /// `is_mst` decide as they do over the reference order (an MST is a
        /// spanning tree of the minimum total weight, whatever its ties).
        #[test]
        fn tied_weights_keep_the_reference_order(
            n in 1usize..40, k in 3u64..8, density in 0u32..4, seed in 0u64..1000
        ) {
            let g = tied_graph(n, k, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let p = f64::from(density) / 3.0;
            let in_tree: Vec<bool> = (0..g.edge_count()).map(|_| rng.gen_bool(p)).collect();
            prop_assert_eq!(
                by_composite_weight(&g, |e| in_tree[e.0]),
                by_composite_weight_reference(&g, |e| in_tree[e.0])
            );
            let mst = kruskal(&g);
            prop_assert_eq!(mst.edges(), &kruskal_reference(&g)[..]);
            prop_assert!(is_mst(&g, mst.edges()));
            // another spanning tree: an MST iff it weighs what Kruskal's does
            let other = kruskal(&reweighted(&g, |_, _| rng.gen_range(0u64..1 << 20)));
            let minimal = g.total_weight(other.edges().iter().copied()) == mst.total_weight();
            prop_assert_eq!(is_mst(&g, other.edges()), minimal);
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
