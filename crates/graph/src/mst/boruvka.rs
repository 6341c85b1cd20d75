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
    MstResult::new(g, boruvka_phases(g, |_| false, |_, _| {}))
}

/// The number of Borůvka phases needed until no further merge happens.
///
/// For a connected graph this is `O(log n)`; the paper's hierarchy height
/// bound (`ℓ ≤ ⌈log n⌉`) is the distributed analogue of this fact.
pub fn boruvka_phase_count(g: &WeightedGraph) -> usize {
    let mut phases = 0;
    boruvka_phases(g, |_| false, |_, _| phases += 1);
    // the last phase finds no edge to merge along
    phases - 1
}

/// Runs Borůvka phases on `g` under ω′ with the candidate-tree indicator
/// `in_tree`, and returns the edges merged along. Each phase every
/// component picks its minimum outgoing edge, ties by edge id, and all
/// picks merge at once; the phases stop at the first one that picks
/// nothing. Before each merge — and once more at that last phase — `phase`
/// sees `(component, picks)`: `component[v]` is the representative of node
/// `v`'s component, and `picks[c]` the edge representative `c` picked.
pub fn boruvka_phases<F, P>(g: &WeightedGraph, in_tree: F, mut phase: P) -> Vec<EdgeId>
where
    F: Fn(EdgeId) -> bool,
    P: FnMut(&[usize], &[Option<EdgeId>]),
{
    let n = g.node_count();
    let mut uf = UnionFind::new(n);
    let mut component = vec![0; n];
    let mut best: Vec<Option<(CompositeWeight, EdgeId)>> = vec![None; n];
    let mut picks = vec![None; n];
    let mut merged = Vec::new();
    loop {
        for (v, c) in component.iter_mut().enumerate() {
            *c = uf.find(v);
        }
        best.fill(None);
        for (eid, edge) in g.edge_entries() {
            let (cu, cv) = (component[edge.u.0], component[edge.v.0]);
            if cu == cv {
                continue;
            }
            let w = g.composite_weight(eid, in_tree(eid));
            for c in [cu, cv] {
                if best[c].is_none_or(|(bw, _)| w < bw) {
                    best[c] = Some((w, eid));
                }
            }
        }
        for (pick, b) in picks.iter_mut().zip(&best) {
            *pick = b.map(|(_, e)| e);
        }
        phase(&component, &picks);
        let before = merged.len();
        for &e in picks.iter().flatten() {
            let edge = g.edge(e);
            if uf.union(edge.u.0, edge.v.0) {
                merged.push(e);
            }
        }
        if merged.len() == before {
            return merged;
        }
    }
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
