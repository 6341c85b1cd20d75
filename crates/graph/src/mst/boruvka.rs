//! Borůvka's algorithm over the composite (unique) edge weights.
//!
//! Borůvka's algorithm is the closest centralized analogue of the GHS /
//! SYNC_MST fragment-merging process: every phase, each fragment selects its
//! minimum outgoing edge and all selected edges are added simultaneously.
//! It is used by tests to cross-validate the fragment hierarchies that the
//! distributed construction produces.

use super::union_find::UnionFind;
use super::MstResult;
use crate::graph::{EdgeId, WeightedGraph};
use crate::weight::CompositeWeight;

/// Computes the minimum spanning forest of `g` by Borůvka phases.
///
/// Relies on unique (composite) edge weights to avoid cycles when merging.
pub fn boruvka(g: &WeightedGraph) -> MstResult {
    let n = g.node_count();
    let mut uf = UnionFind::new(n);
    let mut chosen: Vec<EdgeId> = Vec::new();
    if n == 0 {
        return MstResult::new(g, chosen);
    }
    loop {
        // cheapest outgoing edge per component
        let mut best: Vec<Option<(CompositeWeight, EdgeId)>> = vec![None; n];
        for (eid, edge) in g.edge_entries() {
            let (cu, cv) = (uf.find(edge.u.0), uf.find(edge.v.0));
            if cu == cv {
                continue;
            }
            let w = g.composite_weight(eid, false);
            for c in [cu, cv] {
                if best[c].is_none_or(|(bw, _)| w < bw) {
                    best[c] = Some((w, eid));
                }
            }
        }
        let mut merged_any = false;
        for entry in best.iter().flatten() {
            let edge = g.edge(entry.1);
            if uf.union(edge.u.0, edge.v.0) {
                chosen.push(entry.1);
                merged_any = true;
            }
        }
        if !merged_any {
            break;
        }
    }
    MstResult::new(g, chosen)
}

/// The number of Borůvka phases needed until no further merge happens.
///
/// For a connected graph this is `O(log n)`; the paper's hierarchy height
/// bound (`ℓ ≤ ⌈log n⌉`) is the distributed analogue of this fact.
pub fn boruvka_phase_count(g: &WeightedGraph) -> usize {
    let n = g.node_count();
    let mut uf = UnionFind::new(n);
    let mut phases = 0;
    if n == 0 {
        return 0;
    }
    loop {
        let mut best: Vec<Option<(CompositeWeight, EdgeId)>> = vec![None; n];
        for (eid, edge) in g.edge_entries() {
            let (cu, cv) = (uf.find(edge.u.0), uf.find(edge.v.0));
            if cu == cv {
                continue;
            }
            let w = g.composite_weight(eid, false);
            for c in [cu, cv] {
                if best[c].is_none_or(|(bw, _)| w < bw) {
                    best[c] = Some((w, eid));
                }
            }
        }
        let mut merged_any = false;
        for entry in best.iter().flatten() {
            let edge = g.edge(entry.1);
            if uf.union(edge.u.0, edge.v.0) {
                merged_any = true;
            }
        }
        if !merged_any {
            break;
        }
        phases += 1;
    }
    phases
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{random_connected_graph, ring_graph};
    use crate::mst::kruskal;

    #[test]
    fn matches_kruskal_on_ring() {
        let g = ring_graph(10, 4);
        assert_eq!(boruvka(&g).edges(), kruskal(&g).edges());
    }

    #[test]
    fn matches_kruskal_on_random_graphs() {
        for seed in 0..10 {
            let g = random_connected_graph(25, 70, seed + 100);
            assert_eq!(boruvka(&g).edges(), kruskal(&g).edges());
        }
    }

    #[test]
    fn phase_count_is_logarithmic() {
        for n in [2usize, 4, 16, 64, 128] {
            let g = random_connected_graph(n, 3 * n, 7);
            let phases = boruvka_phase_count(&g);
            assert!(
                phases <= (n as f64).log2().ceil() as usize + 1,
                "n={n}: {phases} phases exceeds log bound"
            );
            assert!(phases >= 1);
        }
    }

    #[test]
    fn empty_graph_zero_phases() {
        let g = WeightedGraph::default();
        assert_eq!(boruvka_phase_count(&g), 0);
        assert!(boruvka(&g).edges().is_empty());
    }
}
