//! The edge→path blow-up transformation of §9 (Figures 10 and 11).
//!
//! The lower-bound proof of the paper transforms a graph `G` (carrying a
//! candidate subgraph `H(G)` represented by per-node components) into a graph
//! `G′` in which every edge `(u, v)` of `G` is replaced by a simple path of
//! `2τ + 2` nodes carrying the original edge's weight on a single *heavy*
//! path edge (all other path edges have weight 1). The path nodes' components
//! are oriented so that `H(G′)` is a spanning tree of `G′` which is an MST
//! **iff** `H(G)` is an MST of `G`. Because the informative weight now sits
//! Θ(τ) hops away from both original endpoints, a verifier that runs fewer
//! than `τ` rounds with small labels cannot distinguish correct from
//! incorrect instances — this is the engine of the Ω(log n) time lower bound
//! (Lemma 9.1) and of the `fig_lowerbound` experiment.
//!
//! **Deviation from the paper's text.** §9 places the original weight on the
//! last path edge `(x_{2τ+1}, x_{2τ+2})` while orienting the components of a
//! non-tree path so that the interior nodes split half towards each endpoint,
//! omitting the *middle* path edge from `H(G′)`. For minimality to be
//! preserved, the edge omitted from `H(G′)` must be the weight-carrying one
//! (its fundamental cycle is the blown-up image of the original fundamental
//! cycle); we therefore place the original weight on the **middle** path edge
//! `(x_{τ+1}, x_{τ+2})` — the one the split orientation omits. This keeps all
//! three properties Lemma 9.1 relies on: `H(G′)` is a spanning tree, the MST
//! property is preserved in both directions, and the informative weight is
//! `τ` hops from either endpoint.

use crate::component::ComponentMap;
use crate::graph::{GraphBuilder, NodeId, WeightedGraph};
use crate::tree::RootedTree;

/// The result of blowing up a graph: the new graph, its distributed candidate
/// representation, and the mapping from new nodes back to original nodes
/// (`None` for the interior path nodes added by the transformation).
#[derive(Debug, Clone)]
pub struct BlowupResult {
    /// The transformed graph `G′`.
    pub graph: WeightedGraph,
    /// The per-node components representing `H(G′)`.
    pub components: ComponentMap,
    /// For each node of `G′`, the original node of `G` it corresponds to
    /// (`None` for interior path nodes).
    pub original: Vec<Option<NodeId>>,
}

/// Applies the §9 transformation with parameter `τ` to a graph and a rooted
/// candidate tree.
///
/// Every original node keeps its identity; interior path nodes get fresh
/// identities above the original range. For an edge `(u, v)` of `G` with
/// `ID(u) < ID(v)`, the path runs `u = x₁, x₂, …, x_{2τ+2} = v`; the middle
/// edge `(x_{τ+1}, x_{τ+2})` carries the original weight `ω(u, v)` and every
/// other path edge has weight 1 (see the module documentation for why the
/// heavy edge is the middle one rather than the last one).
///
/// Components (Figures 10/11):
/// * if `(u, v)` is a tree edge with, say, `u` pointing at `v` in the rooted
///   candidate tree, then `x₁, …, x_{2τ+1}` all point "forward" towards `v`,
///   so the whole path belongs to `H(G′)`;
/// * if `(u, v)` is a non-tree edge, then `x₂, …, x_{τ+1}` point back towards
///   `u` and `x_{τ+2}, …, x_{2τ+1}` point forward towards `v`, so the path
///   contributes every edge except the heavy middle one. The fundamental
///   cycle of that missing heavy edge in `H(G′)` is the blown-up image of the
///   fundamental cycle of `(u, v)` in `H(G)`, which is what preserves the MST
///   property in both directions.
///
/// # Panics
///
/// Panics if `tau == 0`.
pub fn blowup(g: &WeightedGraph, tree: &RootedTree, tau: usize) -> BlowupResult {
    assert!(tau > 0, "blowup requires τ ≥ 1");
    let n = g.node_count();
    let mut out = GraphBuilder::new();
    out.reserve_edges(g.edge_count() * (2 * tau + 1));
    let mut original = Vec::new();
    // copy original nodes with their identities
    for v in g.nodes() {
        out.add_node_with_id(g.id(v));
        original.push(Some(v));
    }
    let mut next_id: u64 = g.max_id().unwrap_or(0) + 1;

    let mut pointers: Vec<Option<NodeId>> = vec![None; n];
    for v in g.nodes() {
        pointers[v.0] = tree.parent(v);
    }

    let mut comp_targets: Vec<Option<NodeId>> = vec![None; n];
    // interior nodes appended later; collect (node, target) pairs
    let mut interior_targets: Vec<(NodeId, NodeId)> = Vec::new();

    for (eid, edge) in g.edge_entries() {
        // orient the path from the lower-identity endpoint to the higher one
        let (u, v) = if g.id(edge.u) < g.id(edge.v) {
            (edge.u, edge.v)
        } else {
            (edge.v, edge.u)
        };
        // build interior nodes x₂ … x_{2τ+1}
        let mut path = vec![u];
        for _ in 0..(2 * tau) {
            let x = out.add_node_with_id(next_id);
            next_id += 1;
            original.push(None);
            path.push(x);
        }
        path.push(v);
        // edges along the path; the middle edge (index τ) carries the weight
        let last = path.len() - 1;
        for i in 0..last {
            let w = if i == tau { edge.weight } else { 1 };
            out.add_edge(path[i], path[i + 1], w)
                .expect("blow-up path edges are fresh");
        }
        let is_tree_edge = tree.contains_edge(eid);
        if is_tree_edge {
            // the child endpoint points towards the parent endpoint in the
            // original tree; orient the whole path that way.
            let (from, to) = if tree.parent(edge.u) == Some(edge.v) {
                (edge.u, edge.v)
            } else {
                (edge.v, edge.u)
            };
            // re-orient path so it runs from `from` to `to`
            let oriented: Vec<NodeId> = if path[0] == from {
                path.clone()
            } else {
                path.iter().rev().copied().collect()
            };
            for i in 0..oriented.len() - 1 {
                let node = oriented[i];
                let target = oriented[i + 1];
                if node.0 < n {
                    comp_targets[node.0] = Some(target);
                } else {
                    interior_targets.push((node, target));
                }
            }
            let _ = to;
        } else {
            // non-tree edge: interior nodes split, pointing away from the
            // heavy edge (x_{τ+1} towards u-side, x_{τ+2} towards v-side),
            // exactly as in Figure 11. Endpoints keep their tree pointers.
            for i in 1..=tau {
                interior_targets.push((path[i], path[i - 1]));
            }
            for i in (tau + 1)..=(2 * tau) {
                interior_targets.push((path[i], path[i + 1]));
            }
        }
    }

    let out = out.finish();
    let mut components = ComponentMap::empty(out.node_count());
    for v in g.nodes() {
        if let Some(target) = comp_targets[v.0] {
            components
                .point_at(&out, v, target)
                .expect("blow-up components point along path edges");
        }
    }
    for (node, target) in interior_targets {
        components
            .point_at(&out, node, target)
            .expect("blow-up components point along path edges");
    }

    BlowupResult {
        graph: out,
        components,
        original,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::random_connected_graph;
    use crate::mst::{is_mst, kruskal};
    use proptest::prelude::*;

    fn mst_tree(g: &WeightedGraph) -> RootedTree {
        kruskal(g).rooted_at(g, NodeId(0)).unwrap()
    }

    #[test]
    fn node_and_edge_counts() {
        let g = random_connected_graph(6, 9, 1);
        let t = mst_tree(&g);
        let tau = 2;
        let b = blowup(&g, &t, tau);
        assert_eq!(
            b.graph.node_count(),
            g.node_count() + g.edge_count() * 2 * tau
        );
        assert_eq!(b.graph.edge_count(), g.edge_count() * (2 * tau + 1));
    }

    #[test]
    fn blowup_of_mst_instance_is_mst_instance() {
        let g = random_connected_graph(8, 16, 2);
        let t = mst_tree(&g);
        let b = blowup(&g, &t, 2);
        let tree = b
            .components
            .rooted_spanning_tree(&b.graph)
            .expect("blow-up of a spanning tree yields a spanning tree");
        assert!(is_mst(&b.graph, &tree.edges()));
    }

    #[test]
    fn blowup_of_non_mst_instance_is_not_mst() {
        // build a spanning tree that is NOT minimal: swap a tree edge for a
        // heavier non-tree edge closing the same cycle.
        let mut b = GraphBuilder::with_nodes(4);
        let e01 = b.add_edge(NodeId(0), NodeId(1), 2).unwrap();
        let e12 = b.add_edge(NodeId(1), NodeId(2), 4).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 6).unwrap();
        let e30 = b.add_edge(NodeId(3), NodeId(0), 100).unwrap();
        let g = b.finish();
        // tree {e01, e12, e30} is spanning but not minimal
        let bad_tree = RootedTree::from_edges(&g, &[e01, e12, e30], NodeId(0)).unwrap();
        assert!(!is_mst(&g, &[e01, e12, e30]));
        let b = blowup(&g, &bad_tree, 2);
        let tree = b.components.rooted_spanning_tree(&b.graph).unwrap();
        assert!(!is_mst(&b.graph, &tree.edges()));
    }

    #[test]
    fn original_mapping_covers_exactly_original_nodes() {
        let g = random_connected_graph(5, 8, 3);
        let t = mst_tree(&g);
        let b = blowup(&g, &t, 1);
        let originals: Vec<NodeId> = b.original.iter().flatten().copied().collect();
        assert_eq!(originals.len(), 5);
        for v in g.nodes() {
            assert!(originals.contains(&v));
        }
    }

    #[test]
    fn heavy_edge_is_far_from_low_id_endpoint() {
        let g = random_connected_graph(5, 8, 4);
        let t = mst_tree(&g);
        let tau = 3;
        let b = blowup(&g, &t, tau);
        // every original edge's weight now appears only at hop distance
        // 2τ+1 from its low-identity endpoint along the replacing path
        for edge in g.edges() {
            let (u, v) = if g.id(edge.u) < g.id(edge.v) {
                (edge.u, edge.v)
            } else {
                (edge.v, edge.u)
            };
            let d = b.graph.hop_distance(u, v).unwrap();
            assert_eq!(d, 2 * tau + 1);
        }
    }

    #[test]
    #[should_panic(expected = "τ ≥ 1")]
    fn zero_tau_panics() {
        let g = random_connected_graph(4, 5, 5);
        let t = mst_tree(&g);
        let _ = blowup(&g, &t, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn mst_property_is_preserved(n in 3usize..10, seed in 0u64..100, tau in 1usize..4) {
            let g = random_connected_graph(n, 2 * n, seed);
            let t = mst_tree(&g);
            let b = blowup(&g, &t, tau);
            let tree = b.components.rooted_spanning_tree(&b.graph).unwrap();
            prop_assert!(is_mst(&b.graph, &tree.edges()));
        }
    }
}
