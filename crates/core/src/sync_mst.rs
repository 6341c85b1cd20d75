//! SYNC_MST (§4): a synchronous MST construction that is simultaneously
//! `O(n)`-time and `O(log n)`-memory.
//!
//! The algorithm proceeds in phases. At the start of phase `i` every fragment
//! root counts its fragment (Procedure `Count_Size`, budgeted `2^{i+2} − 1`
//! rounds); a root is **active** in phase `i` iff the count finishes, i.e.
//! `|F| ≤ 2^{i+1} − 1` (Definition 4.1), in which case its level is `i`.
//! Active fragments then search for their minimum outgoing edge
//! (`Find_Min_Out_Edge`, a Wave&Echo), re-orient their edges towards its
//! endpoint and hook onto the other endpoint; a mutual pair of fragments
//! selecting the same edge merges with the higher-identity endpoint becoming
//! the root (the "handshake"/pivot rule). Phase `i` occupies rounds
//! `[11·2^i, 22·2^i)`, so the total time is `O(n)` (Lemma 4.1, Theorem 4.4).
//!
//! This module executes the algorithm at fragment granularity while keeping
//! the paper's phase timing for the ideal-time accounting, and records the
//! *active fragments* and their selected (candidate) edges — exactly the
//! hierarchy `H_M` and candidate function `χ_M` that the marker of §5.1 uses.
//!
//! **Cost and order of the simulation.** The `O(n)` above counts the paper's
//! ideal rounds ([`SyncMstOutcome::rounds`]); the centralized execution takes
//! `O((n + m) log n)` wall time on flat arrays: the edges in ω′ order, derived
//! in `O(m)` from the graph's ω order, which is sorted once per graph and
//! shared with Kruskal and `is_mst` (an edge is compared by its rank from
//! then on), `⌈log n⌉ + 1` phases of one pass over the nodes each (the
//! searches for minimum outgoing edges advance one cursor per node and so
//! cost `O(m)` more in total), and recording the active fragments, whose
//! sizes sum to at most `n` per level.
//! Every list — a node's edges by weight, a phase's fragment members, the
//! recorded fragments — is a row of one [`Csr`] of 32-bit entries (a node's
//! edge rows take 8 B per edge end: rank and other end), so a phase
//! allocates a bounded number of times and the run never once per fragment;
//! the recorded rows become the [`Hierarchy`]'s own, and the phases' tables
//! are freed before the tree and the hierarchy's indexes are built. A
//! disconnected graph shows in the phase loop: with more than one fragment
//! left, an active fragment finds no outgoing edge.
//!
//! Fragments are kept in a **canonical order**, by ascending smallest node
//! index, in which every phase scans them, merges them and records the
//! active ones. The outcome (tree edge order, fragment indices of the
//! hierarchy, and everything the marker derives from them) is therefore a
//! pure function of the graph.

use smst_graph::csr::narrow;
use smst_graph::mst::{by_composite_weight, UnionFind};
use smst_graph::weight::bits_for;
use smst_graph::{Csr, EdgeId, Hierarchy, NodeId, RootedTree, WeightedGraph};

/// The outcome of running SYNC_MST.
#[derive(Debug, Clone)]
pub struct SyncMstOutcome {
    /// The constructed MST, rooted at the final surviving root.
    pub tree: RootedTree,
    /// The hierarchy of active fragments (including the final spanning
    /// fragment), with candidate edges attached.
    pub hierarchy: Hierarchy,
    /// The number of phases executed (the height of the hierarchy).
    pub phases: u32,
    /// Ideal-time rounds charged according to the paper's phase schedule
    /// (phase `i` spans rounds `[11·2^i, 22·2^i)`).
    pub rounds: u64,
    /// Memory bits per node used by the construction (Observation 4.3).
    pub memory_bits_per_node: u64,
}

/// The SYNC_MST construction algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct SyncMst;

impl SyncMst {
    /// Creates the algorithm.
    pub fn new() -> Self {
        SyncMst
    }

    /// Runs the construction on a connected weighted graph.
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty or disconnected (the paper assumes a
    /// connected network).
    pub fn run(&self, g: &WeightedGraph) -> SyncMstOutcome {
        self.run_in_order(g, by_composite_weight(g, |_| false), None)
    }

    /// Runs the construction using the composite weights ω′ with the
    /// candidate-tree indicator of the given tree, re-rooting the outcome at
    /// that tree's root.
    ///
    /// This is what the marker uses (§5.1): when the candidate tree `T` is an
    /// MST of `G` under ω, it is the unique MST under ω′ with `T`'s indicator,
    /// so SYNC_MST reconstructs exactly `T` and the hierarchy / candidate
    /// function it records is a hierarchy *for `T`*.
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty or disconnected.
    pub fn run_for_candidate(&self, g: &WeightedGraph, tree: &RootedTree) -> SyncMstOutcome {
        let order = by_composite_weight(g, |e| tree.contains_edge(e));
        self.run_in_order(g, order, Some(tree.root()))
    }

    /// The construction with the edges ranked by `edge_of` (every edge of
    /// `g` once, by ascending ω′), rooted at `root_override` if given.
    pub(crate) fn run_in_order(
        &self,
        g: &WeightedGraph,
        edge_of: Vec<EdgeId>,
        root_override: Option<NodeId>,
    ) -> SyncMstOutcome {
        let n = g.node_count();
        assert!(n > 0, "SYNC_MST requires a non-empty graph");
        narrow(n);
        narrow(edge_of.len());

        // Fragment state, dense and in canonical order: at every phase the
        // fragments are numbered 0..k by ascending smallest node, `comp` maps
        // a node to its fragment and row `f` of `members` lists fragment
        // `f`'s nodes in ascending order.
        let mut comp: Vec<u32> = (0..n as u32).collect();
        let mut members = Csr::from_pairs(n, (0..n as u32).map(|v| (v as usize, v)));
        let mut root_of: Vec<u32> = (0..n as u32).collect();
        // An edge is compared by its rank in `edge_of` from here on. Row `v`
        // of `by_weight` lists `v`'s edges (rank, other end) in that order,
        // with a cursor at the lightest one still leaving `v`'s fragment: an
        // edge inside a fragment stays inside, so the cursors only advance,
        // and all the Find_Min_Out_Edge searches together cost O(m) plus O(n)
        // per phase.
        let by_weight: Csr<(u32, u32)> = Csr::from_pairs(
            n,
            (edge_of.iter().zip(0..)).flat_map(|(&e, rank)| {
                let edge = g.edge(e);
                let (u, v) = (edge.u.index(), edge.v.index());
                [(u, (rank, v as u32)), (v, (rank, u as u32))]
            }),
        );
        let mut cursor: Vec<u32> = vec![0; n];

        // the active fragments: their nodes, one row each, and per fragment
        // its level and its selected candidate edge
        let mut fragments: Csr<u32> = Csr::with_capacity(2 * n, 2 * n);
        let mut levels: Vec<u8> = Vec::with_capacity(2 * n);
        let mut candidates: Vec<Option<EdgeId>> = Vec::with_capacity(2 * n);
        let mut tree_edges: Vec<EdgeId> = Vec::with_capacity(n - 1);
        let mut phase: u32 = 0;
        let level = |phase: u32| u8::try_from(phase).expect("fewer than 2⁸ phases");

        let final_root = loop {
            // Count_Size: a fragment is active in this phase iff its size
            // fits the budget, and its level is then the phase.
            let k = members.rows();
            let budget = 1usize << (phase + 1);

            // termination: a single fragment spanning the graph whose count
            // succeeded ends the algorithm at the end of Count_Size
            if k == 1 {
                if members.row(0).len() < budget {
                    // record the spanning fragment as the top of the hierarchy
                    fragments.push_row(members.row(0).iter().copied());
                    levels.push(level(phase));
                    candidates.push(None);
                    break root_of[0];
                }
                // otherwise keep doubling the budget (still O(n) total)
                phase += 1;
                continue;
            }

            // Find_Min_Out_Edge for every active fragment: the lightest of
            // its nodes' lightest outgoing edges. With more than one fragment
            // left, an active fragment without one is cut off from the rest.
            let mut selected: Vec<Option<u32>> = vec![None; k];
            for (f, chosen) in (0..).zip(selected.iter_mut()) {
                let nodes = members.row(f as usize);
                if nodes.len() >= budget {
                    continue;
                }
                let lightest = nodes.iter().filter_map(|&v| {
                    let (edges, at) = (by_weight.row(v as usize), &mut cursor[v as usize]);
                    let skipped = (edges[*at as usize..].iter())
                        .take_while(|&&(_, u)| comp[u as usize] == f)
                        .count();
                    *at += skipped as u32;
                    edges.get(*at as usize).map(|&(rank, _)| rank)
                });
                let rank = lightest.min().expect("SYNC_MST requires a connected graph");
                *chosen = Some(rank);
                fragments.push_row(nodes.iter().copied());
                levels.push(level(phase));
                candidates.push(Some(edge_of[rank as usize]));
            }

            // Merging: every active fragment hooks onto the other endpoint of
            // its selected edge. The connected components of the "selected
            // edge" relation merge into one fragment each.
            let mut groups = UnionFind::new(k);
            for (f, rank) in selected.iter().enumerate() {
                if let Some(rank) = *rank {
                    let e = edge_of[rank as usize];
                    let edge = g.edge(e);
                    let (cu, cv) = (comp[edge.u.index()], comp[edge.v.index()]);
                    let other = if cu as usize == f { cv } else { cu };
                    if groups.union(f, other as usize) {
                        tree_edges.push(e);
                    }
                }
            }

            // The merged fragments, numbered by first appearance (which keeps
            // the canonical order), each with its new root: if the group
            // contains a fragment that selected no edge this phase (it was
            // passive), that fragment's root survives; otherwise the mutual
            // pair of the minimum selected edge in the group decides — the
            // higher-identity endpoint of that edge becomes the new root (the
            // handshake/pivot rule).
            let mut id_of_group: Vec<Option<u32>> = vec![None; k];
            let mut passive_root: Vec<Option<u32>> = Vec::new();
            let mut min_selected: Vec<Option<u32>> = Vec::new();
            let new_id: Vec<u32> = (0..k)
                .map(|f| {
                    let id = *id_of_group[groups.find(f)].get_or_insert_with(|| {
                        passive_root.push(None);
                        min_selected.push(None);
                        narrow(passive_root.len() - 1)
                    });
                    match selected[f] {
                        None => passive_root[id as usize] = Some(root_of[f]),
                        Some(rank) => {
                            let lightest = min_selected[id as usize].get_or_insert(rank);
                            *lightest = rank.min(*lightest);
                        }
                    }
                    id
                })
                .collect();
            for c in &mut comp {
                *c = new_id[*c as usize];
            }
            members.refill(
                passive_root.len(),
                (comp.iter().zip(0..)).map(|(&c, v)| (c as usize, v)),
            );
            root_of = (passive_root.iter().zip(&min_selected))
                .map(|(&passive, &min_rank)| {
                    passive.unwrap_or_else(|| {
                        // all fragments in the group were active; the group's
                        // minimum selected edge is shared by a mutual pair
                        let min_rank = min_rank.expect("active group selects at least one edge");
                        let edge = g.edge(edge_of[min_rank as usize]);
                        let higher = if g.id(edge.u) > g.id(edge.v) {
                            edge.u
                        } else {
                            edge.v
                        };
                        higher.index() as u32
                    })
                })
                .collect();
            phase += 1;
        };
        // the phases' tables go before the tree and the hierarchy's
        // indexes are built
        drop((comp, members, root_of, by_weight, cursor, edge_of));

        let root = root_override.unwrap_or(NodeId(final_root as usize));
        let tree = RootedTree::from_edges(g, &tree_edges, root)
            .expect("SYNC_MST produces a spanning tree of a connected graph");
        drop(tree_edges);

        // the singletons are already the level-0 active fragments; indices
        // are the recording order: by level, then canonical order
        fragments.shrink_to_fit();
        levels.shrink_to_fit();
        let mut hierarchy = Hierarchy::from_rows(&tree, fragments, levels);
        for (i, &candidate) in candidates.iter().enumerate() {
            if let Some(e) = candidate {
                hierarchy.set_candidate(i, e);
            }
        }

        // ideal-time accounting: phases 0..=phase each occupy [11·2^i, 22·2^i)
        let rounds: u64 = 22u64 << phase;
        // memory: level + root-ID estimate + parent ID + candidate port +
        // stage flags + echo variable (Observation 4.3)
        let max_id = g.max_id().unwrap_or(1);
        let memory_bits_per_node = 3 * u64::from(bits_for(max_id))
            + u64::from(bits_for(n as u64)) * 2
            + u64::from(bits_for(g.max_degree() as u64))
            + 8;

        SyncMstOutcome {
            tree,
            hierarchy,
            phases: phase,
            rounds,
            memory_bits_per_node,
        }
    }
}

/// The edges of `g` by ascending ω′ under `in_tree`, by one full sort of
/// the composite weights: the reference [`by_composite_weight`] must equal.
#[cfg(test)]
pub(crate) fn reference_order<F>(g: &WeightedGraph, in_tree: F) -> Vec<EdgeId>
where
    F: Fn(EdgeId) -> bool,
{
    let mut keyed: Vec<_> = (g.edge_entries())
        .map(|(e, _)| (g.composite_weight(e, in_tree(e)), e))
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, e)| e).collect()
}

/// A random graph with scrambled identities whose weights are taken mod
/// `k`, and a random spanning tree of it.
#[cfg(test)]
pub(crate) fn tied_instance(n: usize, k: u64, seed: u64) -> (WeightedGraph, RootedTree) {
    use smst_graph::generators::{random_graph_scrambled_ids, reweighted};
    use smst_rng::{Rng, SeedableRng, StdRng};
    let g = reweighted(&random_graph_scrambled_ids(n, 3 * n, seed), |_, w| w % k);
    let mut rng = StdRng::seed_from_u64(seed);
    let shuffled = reweighted(&g, |_, _| rng.gen_range(0..1u64 << 20));
    let tree = smst_graph::mst::kruskal(&shuffled)
        .rooted_at(&g, NodeId(rng.gen_range(0..n)))
        .expect("a connected graph");
    (g, tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use smst_graph::generators::{complete_graph, path_graph, random_connected_graph};
    use smst_graph::mst::{is_mst, kruskal};
    use smst_graph::GraphBuilder;

    #[test]
    fn builds_the_unique_mst() {
        for seed in 0..6 {
            let g = random_connected_graph(30, 80, seed);
            let outcome = SyncMst.run(&g);
            let mut edges = outcome.tree.edges();
            edges.sort_unstable();
            assert_eq!(edges, kruskal(&g).edges(), "seed {seed}");
        }
    }

    #[test]
    fn hierarchy_is_valid_and_minimal() {
        let g = random_connected_graph(24, 60, 7);
        let outcome = SyncMst.run(&g);
        outcome
            .hierarchy
            .validate(&g, &outcome.tree)
            .expect("hierarchy satisfies Definition 5.1");
        outcome
            .hierarchy
            .validate_candidate_function(&g, &outcome.tree)
            .expect("candidates form a candidate function");
        outcome
            .hierarchy
            .validate_minimality(&g, &outcome.tree)
            .expect("candidates are minimum outgoing edges");
    }

    #[test]
    fn hierarchy_height_is_logarithmic() {
        for n in [4usize, 16, 64, 200] {
            let g = random_connected_graph(n, 3 * n, 3);
            let outcome = SyncMst.run(&g);
            let bound = (n as f64).log2().ceil() as u32 + 1;
            assert!(
                outcome.hierarchy.height() <= bound,
                "n={n}: height {} exceeds {bound}",
                outcome.hierarchy.height()
            );
        }
    }

    #[test]
    fn rounds_are_linear_in_n() {
        // the phase schedule charges 22·2^phases rounds; fragment sizes double
        // per phase so this is O(n)
        for n in [8usize, 32, 128, 512] {
            let g = path_graph(n, 5);
            let outcome = SyncMst.run(&g);
            assert!(
                outcome.rounds <= 100 * n as u64,
                "n={n}: {} rounds is not O(n)",
                outcome.rounds
            );
            assert!(outcome.rounds >= n as u64 / 2);
        }
    }

    #[test]
    fn memory_is_logarithmic() {
        let g = random_connected_graph(256, 600, 1);
        let outcome = SyncMst.run(&g);
        assert!(outcome.memory_bits_per_node <= 8 * 8 + 40);
    }

    #[test]
    fn works_on_complete_and_path_graphs() {
        let g = complete_graph(12, 2);
        let outcome = SyncMst.run(&g);
        assert!(is_mst(&g, &outcome.tree.edges()));
        let p = path_graph(17, 3);
        let outcome = SyncMst.run(&p);
        assert_eq!(outcome.tree.edges().len(), 16);
    }

    #[test]
    fn single_node_graph() {
        let g = GraphBuilder::with_nodes(1).finish();
        let outcome = SyncMst.run(&g);
        assert_eq!(outcome.tree.node_count(), 1);
        assert_eq!(outcome.hierarchy.height(), 0);
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn rejects_disconnected_graph() {
        let mut b = GraphBuilder::with_nodes(4);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        let _ = SyncMst.run(&b.finish());
    }

    /// A connected graph plus one isolated node: the singleton is active in
    /// phase 0 and has no outgoing edge.
    #[test]
    #[should_panic(expected = "SYNC_MST requires a connected graph")]
    fn rejects_an_isolated_node() {
        let g = random_connected_graph(40, 100, 3);
        let mut b = GraphBuilder::with_nodes(g.node_count() + 1);
        for e in g.edges() {
            b.add_edge(e.u, e.v, e.weight).unwrap();
        }
        let _ = SyncMst.run(&b.finish());
    }

    /// Two components of many nodes: the clique becomes one fragment while
    /// the path is still merging, and the first phase that counts it finds
    /// no outgoing edge (without the check, the budget would double until
    /// the shift overflows).
    #[test]
    #[should_panic(expected = "SYNC_MST requires a connected graph")]
    fn rejects_two_large_components() {
        let (a, b) = (path_graph(300, 1), complete_graph(20, 2));
        let mut g = GraphBuilder::with_nodes(a.node_count() + b.node_count());
        let shift = a.node_count();
        for (e, offset) in
            (a.edges().iter().map(|e| (e, 0))).chain(b.edges().iter().map(|e| (e, shift)))
        {
            g.add_edge(NodeId(e.u.0 + offset), NodeId(e.v.0 + offset), e.weight)
                .unwrap();
        }
        let _ = SyncMst.run(&g.finish());
    }

    proptest! {
        /// Weights mod 3–7 and a random candidate tree: SYNC_MST builds the
        /// same tree and hierarchy from the shared order as from the full
        /// sort, and its plain run builds Kruskal's tree.
        #[test]
        fn tied_weights_build_what_the_reference_order_builds(
            n in 1usize..48, k in 3u64..8, seed in 0u64..1000
        ) {
            let (g, candidate) = tied_instance(n, k, seed);
            let outcome = SyncMst.run_for_candidate(&g, &candidate);
            let order = reference_order(&g, |e| candidate.contains_edge(e));
            let reference = SyncMst.run_in_order(&g, order, Some(candidate.root()));
            prop_assert_eq!(&outcome.tree, &reference.tree);
            prop_assert_eq!(format!("{:?}", outcome.hierarchy), format!("{:?}", reference.hierarchy));
            let mut edges = SyncMst.run(&g).tree.edges();
            edges.sort_unstable();
            let mst = kruskal(&g);
            prop_assert_eq!(&edges[..], mst.edges());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn matches_kruskal_and_valid_hierarchy(n in 2usize..40, seed in 0u64..200) {
            let g = random_connected_graph(n, 3 * n, seed);
            let outcome = SyncMst.run(&g);
            let mut edges = outcome.tree.edges();
            edges.sort_unstable();
            let expected = kruskal(&g);
            prop_assert_eq!(edges, expected.edges());
            prop_assert!(outcome.hierarchy.validate(&g, &outcome.tree).is_ok());
            prop_assert!(outcome.hierarchy.validate_minimality(&g, &outcome.tree).is_ok());
        }
    }
}
