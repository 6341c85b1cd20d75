//! The marker's indexes against the definitions they replaced, and a size
//! tripwire.
//!
//! `Hierarchy` and `RootedTree` answer their queries from indexes built once
//! (an ascending-size sweep, per-node chains, an edge bitmap, subtree sizes)
//! and `build_partitions` reads a bottom part's pieces off its hierarchy
//! subtree. The reference functions below are the containment scans those
//! indexes replaced — quadratic, and obviously right — and every query must
//! agree with them. The flat layouts (a tree's children as runs of its BFS
//! order, the hierarchy's children and chains as CSR rows) are held to the
//! `Vec`-per-entry structures they replaced, rebuilt naively. The tripwire
//! labels a 16 384-node graph: with any of the scans back on the marker's
//! path it takes minutes in a debug build.

use proptest::prelude::*;
use smst_core::labels::{PieceCell, Widths, BOTTOM};
use smst_core::partition::{build_partitions, Parts};
use smst_core::{Marker, MstVerificationScheme, SyncMst};
use smst_graph::generators::{complete_graph, path_graph, random_connected_graph, star_graph};
use smst_graph::mst::kruskal;
use smst_graph::mst::UnionFind;
use smst_graph::{Csr, EdgeId, Hierarchy, NodeId, RootedTree, WeightedGraph};
use smst_labeling::Instance;
use smst_rng::{Rng, SeedableRng, SliceRandom, StdRng};
use smst_sim::ReferenceRunner;
use std::collections::VecDeque;

/// The smallest fragment strictly containing fragment `i`.
fn reference_parent(h: &Hierarchy, i: usize) -> Option<usize> {
    let f = h.fragment(i);
    (0..h.len())
        .filter(|&j| j != i && h.fragment(j).len() > f.len() && h.fragment(j).contains_all(f))
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

/// The pieces of all fragments inside `nodes`, in slot order, each at its
/// slot.
fn reference_pieces(
    g: &WeightedGraph,
    tree: &RootedTree,
    h: &Hierarchy,
    nodes: &[NodeId],
) -> Vec<PieceCell> {
    let tree_edges = tree.edges();
    let mut fragments: Vec<usize> = (0..h.len())
        .filter(|&j| h.fragment(j).nodes().all(|v| nodes.contains(&v)))
        .collect();
    fragments.sort_by_key(|&j| (h.fragment(j).level, g.id(h.fragment(j).root)));
    (fragments.iter().enumerate())
        .map(|(slot, &j)| {
            let min_out = (h.candidate(j)).map(|e| g.composite_weight(e, tree_edges.contains(&e)));
            PieceCell::new(
                slot as u8,
                g.id(h.fragment(j).root),
                h.fragment(j).level,
                min_out,
            )
        })
        .collect()
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
        assert_eq!(
            h.children_of(i).collect::<Vec<_>>(),
            children,
            "children of {i}"
        );
    }
    for v in g.nodes() {
        let containing = reference_containing(h, v);
        assert_eq!(
            h.fragments_containing(v).collect::<Vec<_>>(),
            containing,
            "chain of {v}"
        );
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
    for part in parts.parts[BOTTOM].iter() {
        assert_eq!(
            part.pieces(),
            reference_pieces(g, tree, h, &part.nodes().collect::<Vec<_>>()),
            "pieces of the bottom part rooted at {}",
            part.root
        );
    }
    for part in parts.parts.iter().flat_map(Parts::iter) {
        for v in part.nodes() {
            assert_eq!(tree.depth(v) - tree.depth(part.root), part.depth_of(v));
            let held = part.holders().filter(|&holder| holder == v).count();
            assert_eq!(part.stored_at(v).iter().flatten().count(), held);
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

/// `RootedTree::from_edges` as it was: a `Vec` of `(neighbour, edge)` per
/// node, a queue, and a `Vec` of children per node. Returns the BFS order
/// and the children.
fn naive_tree(
    g: &WeightedGraph,
    edges: &[EdgeId],
    root: NodeId,
) -> (Vec<NodeId>, Vec<Vec<NodeId>>) {
    let n = g.node_count();
    let mut adj: Vec<Vec<(NodeId, EdgeId)>> = vec![Vec::new(); n];
    for &e in edges {
        let edge = g.edge(e);
        adj[edge.u.index()].push((edge.v, e));
        adj[edge.v.index()].push((edge.u, e));
    }
    let mut seen = vec![false; n];
    let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut order = Vec::new();
    let mut queue = VecDeque::from([root]);
    seen[root.index()] = true;
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for &(u, _) in &adj[v.index()] {
            if !seen[u.index()] {
                seen[u.index()] = true;
                children[v.index()].push(u);
                queue.push_back(u);
            }
        }
    }
    (order, children)
}

/// The DFS preorder the piece placement walks, over the naive children.
fn naive_preorder(children: &[Vec<NodeId>], root: NodeId) -> Vec<NodeId> {
    let mut order = Vec::new();
    let mut stack = vec![root];
    while let Some(v) = stack.pop() {
        order.push(v);
        stack.extend(children[v.index()].iter().rev());
    }
    order
}

/// The hierarchy's indexes as they were: a `Vec` of children per fragment
/// and a `Vec` of containing fragments per node, stably sorted by level.
fn naive_hierarchy(h: &Hierarchy, n: usize) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); h.len()];
    for i in 0..h.len() {
        if let Some(p) = h.parent_of(i) {
            children[p].push(i);
        }
    }
    let mut chain: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..h.len() {
        for v in h.fragment(i).nodes() {
            chain[v.index()].push(i);
        }
    }
    for c in &mut chain {
        c.sort_by_key(|&i| h.fragment(i).level);
    }
    (children, chain)
}

/// A random spanning tree of a random graph, its edges in a random order
/// (which decides the order children are discovered in), and a random root.
fn random_tree(n: usize, seed: u64) -> (WeightedGraph, Vec<EdgeId>, NodeId) {
    let g = random_connected_graph(n, 3 * n, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut candidates: Vec<EdgeId> = (0..g.edge_count()).map(EdgeId).collect();
    candidates.shuffle(&mut rng);
    let mut components = UnionFind::new(n);
    let mut edges: Vec<EdgeId> = (candidates.into_iter())
        .filter(|&e| components.union(g.edge(e).u.index(), g.edge(e).v.index()))
        .collect();
    edges.shuffle(&mut rng);
    let mut nodes: Vec<NodeId> = g.nodes().collect();
    nodes.shuffle(&mut rng);
    (g, edges, nodes[0])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn flat_tree_children_match_the_naive_rebuild(n in 1usize..300, seed in 0u64..1000) {
        let (g, edges, root) = random_tree(n, seed);
        let tree = RootedTree::from_edges(&g, &edges, root).unwrap();
        let (order, children) = naive_tree(&g, &edges, root);
        prop_assert_eq!(tree.bfs_order(), &order[..]);
        for v in g.nodes() {
            // discovery order included: the piece placement walks it
            prop_assert_eq!(tree.children(v), &children[v.index()][..], "children of {}", v);
            for &c in tree.children(v) {
                prop_assert_eq!(tree.parent(c), Some(v));
            }
        }
        prop_assert_eq!(tree.dfs_preorder(), naive_preorder(&children, root));
        prop_assert_eq!(tree.height(), g.nodes().map(|v| tree.depth(v)).max().unwrap());
    }

    #[test]
    fn csr_hierarchy_indexes_match_the_naive_rebuild(
        n in 1usize..150,
        density in 1usize..4,
        seed in 0u64..1000,
    ) {
        let g = random_connected_graph(n, density * n, seed);
        let outcome = SyncMst.run(&g);
        let mut rng = StdRng::seed_from_u64(seed);
        // SYNC_MST's own indices, the same fragments in a random order, and
        // a random family that is not laminar, so that a node lies in two
        // fragments of one level and the chain's ties show
        let mut shuffled: Vec<(Vec<u32>, u8)> = (outcome.hierarchy.fragments())
            .map(|f| (f.nodes().map(|v| v.index() as u32).collect(), f.level as u8))
            .collect();
        shuffled.shuffle(&mut rng);
        let overlapping: Vec<(Vec<u32>, u8)> = (0..2 * n)
            .map(|_| {
                let mut nodes: Vec<u32> = (0..n as u32).collect();
                nodes.shuffle(&mut rng);
                nodes.truncate(rng.gen_range(1..n + 1));
                nodes.sort_unstable();
                (nodes, rng.gen_range(0u8..3))
            })
            .collect();
        let families = [shuffled, overlapping].map(|family| {
            let mut rows = Csr::default();
            for (nodes, _) in &family {
                rows.push_row(nodes.iter().copied());
            }
            let levels = family.iter().map(|&(_, level)| level).collect();
            Hierarchy::from_rows(&outcome.tree, rows, levels)
        });
        for h in [&outcome.hierarchy, &families[0], &families[1]] {
            let (children, chain) = naive_hierarchy(h, n);
            for (i, expected) in children.iter().enumerate() {
                prop_assert_eq!(h.children_of(i).collect::<Vec<_>>(), &expected[..], "children of {}", i);
            }
            for v in g.nodes() {
                prop_assert_eq!(h.fragments_containing(v).collect::<Vec<_>>(), &chain[v.index()][..], "chain of {}", v);
            }
            prop_assert_eq!(h.fragments_containing(NodeId(n)).len(), 0);
        }
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
    assert!(labels.iter().all(|l| u64::from(l.n_claim) == n as u64));
    assert!(report.hierarchy_height <= log_n.ceil() as u32 + 1);
    assert_eq!(report.hierarchy_height, outcome.hierarchy.height());
    for part in parts.parts.iter().flat_map(Parts::iter) {
        assert!(part.piece_count() <= 2 * part.node_count());
    }
    let widths = Widths::of(&instance.graph);
    for label in &labels {
        assert!(label.parts.iter().all(|p| p.stored.len() <= 2));
        let bits = label.bits(&widths);
        assert!(
            bits as f64 <= 60.0 * log_n + 80.0,
            "{bits} bits exceeds the O(log n) budget"
        );
    }

    let verifier = MstVerificationScheme::new().verifier(&instance, labels);
    let mut runner = ReferenceRunner::rounds(&verifier, verifier.network());
    runner.run(4);
    assert!(runner.network().all_accept(&verifier));
}
