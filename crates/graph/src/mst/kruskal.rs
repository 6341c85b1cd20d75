//! Kruskal's algorithm over the composite (unique) edge weights.

use super::union_find::UnionFind;
use super::MstResult;
use crate::graph::{EdgeId, WeightedGraph};

/// Computes the minimum spanning forest of `g` by Kruskal's algorithm.
///
/// Edges are ordered by the composite weight ω′ (raw weight, then endpoint
/// identities), so the result is the unique MST the paper's algorithms
/// construct. With no candidate tree ω′ is ω, so the pass reads the
/// graph's shared ω order as is. On a disconnected graph the result is the
/// minimum spanning forest.
///
/// # Examples
///
/// ```
/// use smst_graph::generators::complete_graph;
/// use smst_graph::mst::kruskal;
///
/// let g = complete_graph(5, 1);
/// let mst = kruskal(&g);
/// assert_eq!(mst.edges().len(), 4);
/// ```
pub fn kruskal(g: &WeightedGraph) -> MstResult {
    let mut uf = UnionFind::new(g.node_count());
    let mut chosen = Vec::with_capacity(g.node_count().saturating_sub(1));
    for &e in g.edges_by_weight() {
        let e = EdgeId(e as usize);
        let edge = g.edge(e);
        if uf.union(edge.u.0, edge.v.0) {
            chosen.push(e);
        }
    }
    MstResult::new(g, chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{path_graph, random_connected_graph};
    use crate::{EdgeId, GraphBuilder, NodeId};

    #[test]
    fn path_graph_mst_is_the_path() {
        let g = path_graph(6, 9);
        let mst = kruskal(&g);
        assert_eq!(mst.edges().len(), 5);
        assert_eq!(
            mst.total_weight(),
            g.total_weight(mst.edges().iter().copied())
        );
    }

    #[test]
    fn picks_light_edges() {
        let mut b = GraphBuilder::with_nodes(3);
        let cheap1 = b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        let cheap2 = b.add_edge(NodeId(1), NodeId(2), 2).unwrap();
        let heavy = b.add_edge(NodeId(0), NodeId(2), 10).unwrap();
        let g = b.finish();
        let mst = kruskal(&g);
        assert!(mst.contains(cheap1) && mst.contains(cheap2));
        assert!(!mst.contains(heavy));
    }

    #[test]
    fn handles_equal_weights_deterministically() {
        let mut builder = GraphBuilder::with_nodes(4);
        for i in 0..3 {
            builder.add_edge(NodeId(i), NodeId(i + 1), 5).unwrap();
        }
        builder.add_edge(NodeId(0), NodeId(3), 5).unwrap();
        let g = builder.finish();
        let a = kruskal(&g);
        let b = kruskal(&g);
        assert_eq!(a.edges(), b.edges());
        assert_eq!(a.edges().len(), 3);
    }

    #[test]
    fn disconnected_graph_gives_forest() {
        let mut b = GraphBuilder::with_nodes(4);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 1).unwrap();
        let g = b.finish();
        let mst = kruskal(&g);
        assert_eq!(mst.edges().len(), 2);
    }

    #[test]
    fn mst_weight_is_minimal_by_exhaustion() {
        // exhaustively check on a small random graph that no spanning tree is lighter
        let g = random_connected_graph(6, 10, 17);
        let mst = kruskal(&g);
        let edges: Vec<EdgeId> = g.edge_entries().map(|(e, _)| e).collect();
        let n = g.node_count();
        let mut best = u128::MAX;
        // enumerate all (m choose n-1) subsets
        let m = edges.len();
        for mask in 0u32..(1 << m) {
            if mask.count_ones() as usize != n - 1 {
                continue;
            }
            let subset: Vec<EdgeId> = (0..m)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| edges[i])
                .collect();
            if crate::tree::RootedTree::from_edges(&g, &subset, NodeId(0)).is_ok() {
                best = best.min(g.total_weight(subset.iter().copied()));
            }
        }
        assert_eq!(mst.total_weight(), best);
    }
}
