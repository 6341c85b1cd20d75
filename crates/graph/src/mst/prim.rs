//! Prim's algorithm over the composite (unique) edge weights.

use super::MstResult;
use crate::graph::{EdgeId, NodeId, WeightedGraph};
use crate::weight::CompositeWeight;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Computes the minimum spanning forest of `g` by Prim's algorithm.
///
/// Equivalent to [`super::kruskal`] (same unique MST under the composite
/// weights); provided as an independent cross-check and for benchmarking the
/// centralized baseline.
pub fn prim(g: &WeightedGraph) -> MstResult {
    let n = g.node_count();
    let mut in_tree = vec![false; n];
    let mut chosen: Vec<EdgeId> = Vec::with_capacity(n.saturating_sub(1));
    let mut heap: BinaryHeap<Reverse<(CompositeWeight, usize, usize)>> = BinaryHeap::new();

    for start in 0..n {
        if in_tree[start] {
            continue;
        }
        in_tree[start] = true;
        push_edges(g, NodeId(start), &mut heap);
        while let Some(Reverse((_, eid, to))) = heap.pop() {
            if in_tree[to] {
                continue;
            }
            in_tree[to] = true;
            chosen.push(EdgeId(eid));
            push_edges(g, NodeId(to), &mut heap);
        }
    }
    MstResult::new(g, chosen)
}

fn push_edges(
    g: &WeightedGraph,
    v: NodeId,
    heap: &mut BinaryHeap<Reverse<(CompositeWeight, usize, usize)>>,
) {
    for &e in g.incident_edges(v) {
        let other = g.edge(e).other(v);
        heap.push(Reverse((g.composite_weight(e, false), e.0, other.0)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{grid_graph, random_connected_graph};
    use crate::graph::GraphBuilder;
    use crate::mst::kruskal;

    #[test]
    fn matches_kruskal_on_grid() {
        let g = grid_graph(4, 5, 3);
        assert_eq!(prim(&g).edges(), kruskal(&g).edges());
    }

    #[test]
    fn matches_kruskal_on_random_graphs() {
        for seed in 0..10 {
            let g = random_connected_graph(30, 90, seed);
            assert_eq!(prim(&g).edges(), kruskal(&g).edges());
        }
    }

    #[test]
    fn single_node_graph() {
        let g = GraphBuilder::with_nodes(1).finish();
        assert!(prim(&g).edges().is_empty());
    }

    #[test]
    fn disconnected_graph_gives_forest() {
        let mut b = GraphBuilder::with_nodes(5);
        b.add_edge(NodeId(0), NodeId(1), 3).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 1).unwrap();
        b.add_edge(NodeId(3), NodeId(4), 2).unwrap();
        let g = b.finish();
        let mst = prim(&g);
        assert_eq!(mst.edges().len(), 3);
    }
}
