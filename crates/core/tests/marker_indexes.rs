//! The marker's indexes against the definitions they replaced, and a size
//! tripwire.
//!
//! `Hierarchy` and `RootedTree` answer their queries from indexes built once
//! (an ascending-size sweep, per-node chains, an edge bitmap, subtree sizes)
//! and `build_partitions` reads a bottom part's pieces off its hierarchy
//! subtree. The reference functions below are the containment scans those
//! indexes replaced — quadratic, and obviously right — and every query must
//! agree with them. The tripwire labels a 16 384-node graph: with any of the
//! scans back on the marker's path it takes minutes in a debug build.

use proptest::prelude::*;
use smst_core::labels::PieceInfo;
use smst_core::partition::build_partitions;
use smst_core::{Marker, MstVerificationScheme, SyncMst};
use smst_graph::generators::{complete_graph, path_graph, random_connected_graph, star_graph};
use smst_graph::mst::kruskal;
use smst_graph::{EdgeId, Hierarchy, NodeId, RootedTree, WeightedGraph};
use smst_labeling::Instance;
use smst_sim::SyncRunner;

/// The smallest fragment strictly containing fragment `i`.
fn reference_parent(h: &Hierarchy, i: usize) -> Option<usize> {
    let nodes = &h.fragment(i).nodes;
    (0..h.len())
        .filter(|&j| {
            j != i && h.fragment(j).len() > nodes.len() && h.fragment(j).nodes.is_superset(nodes)
        })
        .min_by_key(|&j| h.fragment(j).len())
}

/// The fragments containing `v`, by level.
fn reference_containing(h: &Hierarchy, v: NodeId) -> Vec<usize> {
    let mut idxs: Vec<usize> = (0..h.len())
        .filter(|&i| h.fragment(i).contains(v))
        .collect();
    idxs.sort_by_key(|&i| h.fragment(i).level);
    idxs
}

/// The pieces of all fragments inside `nodes`, in slot order.
fn reference_pieces(
    g: &WeightedGraph,
    tree: &RootedTree,
    h: &Hierarchy,
    nodes: &[NodeId],
) -> Vec<PieceInfo> {
    let tree_edges = tree.edges();
    let mut pieces: Vec<PieceInfo> = (0..h.len())
        .filter(|&j| h.fragment(j).nodes.iter().all(|v| nodes.contains(v)))
        .map(|j| PieceInfo {
            root_id: g.id(h.fragment(j).root),
            level: h.fragment(j).level,
            min_out: h
                .candidate(j)
                .map(|e| g.composite_weight(e, tree_edges.contains(&e))),
        })
        .collect();
    pieces.sort_by_key(|p| (p.level, p.root_id));
    pieces
}

fn check_against_references(g: &WeightedGraph) {
    let outcome = SyncMst.run(g);
    let (tree, h) = (&outcome.tree, &outcome.hierarchy);
    h.validate(g, tree).expect("a legal hierarchy");

    for i in 0..h.len() {
        assert_eq!(h.parent_of(i), reference_parent(h, i), "parent of {i}");
        let children: Vec<usize> = (0..h.len())
            .filter(|&j| reference_parent(h, j) == Some(i))
            .collect();
        assert_eq!(h.children_of(i), children, "children of {i}");
    }
    for v in g.nodes() {
        let containing = reference_containing(h, v);
        assert_eq!(h.fragments_containing(v), containing, "chain of {v}");
        for lev in 0..=h.height() + 1 {
            let at_level = containing
                .iter()
                .copied()
                .find(|&i| h.fragment(i).level == lev);
            assert_eq!(h.fragment_at_level(v, lev), at_level, "{v} at level {lev}");
        }
        assert_eq!(tree.subtree_size(v), tree.dfs_preorder_from(v).len());
    }
    let tree_edges = tree.edges();
    for e in (0..g.edge_count() + 2).map(EdgeId) {
        assert_eq!(tree.contains_edge(e), tree_edges.contains(&e), "{e:?}");
    }

    let parts = build_partitions(g, tree, h);
    for part in &parts.bottom_parts {
        assert_eq!(
            part.pieces,
            reference_pieces(g, tree, h, &part.nodes),
            "pieces of the bottom part rooted at {}",
            part.root
        );
    }
    for part in parts.top_parts.iter().chain(&parts.bottom_parts) {
        for &v in &part.nodes {
            assert_eq!(tree.depth(v) - tree.depth(part.root), part.depth_of(v));
            let held = part.holders.iter().filter(|&&holder| holder == v).count();
            assert_eq!(part.stored_at(v).len(), held);
        }
    }
}

#[test]
fn indexes_match_the_references_on_paths_stars_and_cliques() {
    for n in [1usize, 2, 3, 9, 33] {
        check_against_references(&path_graph(n, 5));
        check_against_references(&star_graph(n.max(2), 6));
        check_against_references(&complete_graph(n.min(12), 7));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn indexes_match_the_references_on_random_graphs(
        n in 1usize..65,
        density in 1usize..4,
        seed in 0u64..1000,
    ) {
        check_against_references(&random_connected_graph(n, density * n, seed));
    }
}

/// A quadratic marker takes minutes on this input in a debug build; the
/// near-linear one takes seconds.
#[test]
fn labels_sixteen_thousand_nodes_and_the_verifier_accepts() {
    let n = 16_384;
    let g = random_connected_graph(n, 49_152, 13);
    let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
    let instance = Instance::from_tree(g, &tree);
    let (labels, report, (outcome, parts)) = Marker.label_with_internals(&instance).unwrap();

    let log_n = (n as f64).log2();
    assert!(labels.iter().all(|l| l.n_claim == n as u64));
    assert!(report.hierarchy_height <= log_n.ceil() as u32 + 1);
    assert_eq!(report.hierarchy_height, outcome.hierarchy.height());
    for part in parts.top_parts.iter().chain(&parts.bottom_parts) {
        assert!(part.pieces.len() <= 2 * part.nodes.len());
    }
    let max_weight = instance.graph.edges().iter().map(|e| e.weight).max();
    for label in &labels {
        assert!(label.top_part.stored.len() <= 2 && label.bottom_part.stored.len() <= 2);
        let bits = label.bits(n as u64, max_weight.unwrap(), n);
        assert!(
            bits as f64 <= 60.0 * log_n + 80.0,
            "{bits} bits exceeds the O(log n) budget"
        );
    }

    let verifier = MstVerificationScheme::new().verifier(&instance, labels);
    let mut runner = SyncRunner::new(&verifier, verifier.network());
    runner.run_rounds(4);
    assert!(runner.network().all_accept(&verifier));
}
