//! The Korman–Kutten style 1-round MST proof labeling scheme with
//! `O(log² n)` bits per node ([54, 55] in the paper).
//!
//! This is the memory-heavy baseline the paper improves on: the verifier runs
//! in a single round (and is therefore trivially self-stabilizing, with
//! detection distance `f`), but every node stores one `O(log n)`-bit *piece of
//! information* `I(F) = ID(F) ∘ ω(F)` for **each** of the `O(log n)` fragments
//! containing it, for a total of `Θ(log² n)` bits.
//!
//! The label of a node `v` contains, besides the Example SP fields:
//! for every level `j` of a GHS/Borůvka-style fragment hierarchy,
//! the identity of `v`'s level-`j` fragment (the identity of its root), the
//! weight of that fragment's minimum outgoing edge, whether `v` is the
//! endpoint of that edge (and through which tree edge), and the number of
//! such endpoints in `v`'s subtree (used to certify uniqueness, as in the
//! Or-EndP aggregation of §5.3). The verifier checks the Well-Forming
//! conditions that are expressible with fragment-identity comparisons plus
//! the minimality conditions C1/C2 of §8.

use crate::scheme::{Instance, LabelView, MarkError, OneRoundScheme};
use crate::sp::{SpLabel, SpanningTreeScheme};
use smst_graph::weight::{bits_for, CompositeWeight};
use smst_graph::{EdgeId, NodeId, RootedTree, WeightedGraph};

/// Whether a node is the endpoint of its level-`j` fragment's candidate edge,
/// and if so through which tree edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointMark {
    /// The node is not an endpoint of the candidate edge at this level.
    NotEndpoint,
    /// The candidate edge is the edge to the node's tree parent.
    Up,
    /// The candidate edge is the edge to the tree child with this identity.
    Down(u64),
}

/// The per-level piece of information stored in a [`KkpLabel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KkpLevel {
    /// Identity of the root of the node's fragment at this level.
    pub fragment_root_id: u64,
    /// The (composite) weight of the fragment's minimum outgoing edge
    /// (`None` only at the top level, where the fragment is the whole tree).
    pub min_out: Option<CompositeWeight>,
    /// Whether this node is the endpoint of the fragment's candidate edge.
    pub endpoint: EndpointMark,
    /// Number of candidate-edge endpoints of this level's fragment inside
    /// the node's subtree (the Or-EndP style aggregation certifying
    /// uniqueness).
    pub subtree_endpoint_count: u64,
}

/// The full `O(log² n)`-bit label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KkpLabel {
    /// The embedded Example SP proof.
    pub sp: SpLabel,
    /// One entry per hierarchy level `0..=ℓ`.
    pub levels: Vec<KkpLevel>,
}

/// The Korman–Kutten style 1-round MST scheme.
#[derive(Debug, Clone, Copy, Default)]
pub struct KkpMstScheme;

impl KkpMstScheme {
    /// Creates the scheme.
    pub fn new() -> Self {
        KkpMstScheme
    }
}

/// A Borůvka-style fragment history: `partition[j][v]` is the fragment
/// representative (union–find root index) of node `v` at level `j`, and
/// `min_out[j]` maps each level-`j` representative to the fragment's minimum
/// outgoing edge.
struct FragmentHistory {
    partition: Vec<Vec<usize>>,
    min_out: Vec<Vec<Option<EdgeId>>>,
}

/// Runs Borůvka phases under the composite weights (with the candidate-tree
/// indicator), recording the per-level partitions and minimum outgoing edges.
fn fragment_history(g: &WeightedGraph, tree: &RootedTree) -> FragmentHistory {
    let n = g.node_count();
    let weight = |e: EdgeId| g.composite_weight(e, tree.contains_edge(e));

    let mut comp: Vec<usize> = (0..n).collect();
    let mut partition = vec![comp.clone()];
    let mut min_out_levels: Vec<Vec<Option<EdgeId>>> = Vec::new();

    loop {
        // minimum outgoing edge per component
        let mut best: Vec<Option<EdgeId>> = vec![None; n];
        for (eid, edge) in g.edge_entries() {
            let (cu, cv) = (comp[edge.u.index()], comp[edge.v.index()]);
            if cu == cv {
                continue;
            }
            for c in [cu, cv] {
                if best[c].is_none_or(|b| weight(eid) < weight(b)) {
                    best[c] = Some(eid);
                }
            }
        }
        min_out_levels.push(best.clone());
        if best.iter().all(Option::is_none) {
            break;
        }
        // merge every component along its minimum outgoing edge
        let mut new_comp = comp.clone();
        // iterate until stable: union the two components of each selected edge
        let mut changed = true;
        while changed {
            changed = false;
            for sel in best.iter().flatten() {
                let edge = g.edge(*sel);
                let (a, b) = (new_comp[edge.u.index()], new_comp[edge.v.index()]);
                if a != b {
                    let keep = a.min(b);
                    let drop = a.max(b);
                    for c in new_comp.iter_mut() {
                        if *c == drop {
                            *c = keep;
                        }
                    }
                    changed = true;
                }
            }
        }
        comp = new_comp;
        partition.push(comp.clone());
    }
    // the last min_out level is all-None (top); keep partitions aligned:
    // partition has ℓ+1 entries, min_out has ℓ+1 entries (last all None).
    FragmentHistory {
        partition,
        min_out: min_out_levels,
    }
}

impl OneRoundScheme for KkpMstScheme {
    type Label = KkpLabel;

    fn name(&self) -> &str {
        "kkp-1round-mst"
    }

    fn mark(&self, instance: &Instance) -> Result<Vec<KkpLabel>, MarkError> {
        if !instance.satisfies_mst() {
            return Err(MarkError::PredicateViolated(
                "candidate subgraph is not an MST".into(),
            ));
        }
        let g = &instance.graph;
        let tree = instance.candidate_tree()?;
        let sp_labels = SpanningTreeScheme.mark(instance)?;
        let history = fragment_history(g, &tree);
        let n = g.node_count();
        let levels = history.partition.len();

        // fragment root (minimum tree depth node) per level per representative
        let mut frag_root_id: Vec<Vec<u64>> = vec![vec![0; n]; levels];
        for (j, part) in history.partition.iter().enumerate() {
            // representative -> root node
            let mut best: Vec<Option<NodeId>> = vec![None; n];
            for v in g.nodes() {
                let rep = part[v.index()];
                let better = match best[rep] {
                    None => true,
                    Some(cur) => tree.depth(v) < tree.depth(cur),
                };
                if better {
                    best[rep] = Some(v);
                }
            }
            for v in g.nodes() {
                let rep = part[v.index()];
                frag_root_id[j][v.index()] = g.id(best[rep].expect("every fragment has a root"));
            }
        }

        // endpoint marks per level per node
        let mut endpoint: Vec<Vec<EndpointMark>> = vec![vec![EndpointMark::NotEndpoint; n]; levels];
        let mut min_out_w: Vec<Vec<Option<CompositeWeight>>> = vec![vec![None; n]; levels];
        for (j, part) in history.partition.iter().enumerate() {
            for v in g.nodes() {
                let rep = part[v.index()];
                if let Some(e) = history.min_out[j][rep] {
                    min_out_w[j][v.index()] = Some(g.composite_weight(e, tree.contains_edge(e)));
                    let edge = g.edge(e);
                    // the endpoint inside the fragment
                    let inside = if part[edge.u.index()] == rep {
                        edge.u
                    } else {
                        edge.v
                    };
                    if inside == v {
                        let other = edge.other(v);
                        endpoint[j][v.index()] = if tree.parent(v) == Some(other) {
                            EndpointMark::Up
                        } else {
                            EndpointMark::Down(g.id(other))
                        };
                    }
                }
            }
        }

        // subtree endpoint counts per level (within the same fragment)
        let mut counts: Vec<Vec<u64>> = vec![vec![0; n]; levels];
        let order = tree.dfs_preorder();
        for j in 0..levels {
            for &v in order.iter().rev() {
                let mut c = u64::from(endpoint[j][v.index()] != EndpointMark::NotEndpoint);
                for &child in tree.children(v) {
                    if history.partition[j][child.index()] == history.partition[j][v.index()] {
                        c += counts[j][child.index()];
                    }
                }
                counts[j][v.index()] = c;
            }
        }

        Ok(g.nodes()
            .map(|v| KkpLabel {
                sp: sp_labels[v.index()],
                levels: (0..levels)
                    .map(|j| KkpLevel {
                        fragment_root_id: frag_root_id[j][v.index()],
                        min_out: min_out_w[j][v.index()],
                        endpoint: endpoint[j][v.index()],
                        subtree_endpoint_count: counts[j][v.index()],
                    })
                    .collect(),
            })
            .collect())
    }

    fn verify_at(&self, instance: &Instance, view: &LabelView<'_, KkpLabel>) -> bool {
        let g = &instance.graph;
        let v = view.node;
        let own = view.own;

        // 1. the embedded SP proof
        let sp_view = LabelView {
            node: v,
            own: &own.sp,
            neighbors: view.neighbors.iter().map(|l| &l.sp).collect(),
        };
        if !SpanningTreeScheme.verify_at(instance, &sp_view) {
            return false;
        }

        let levels = own.levels.len();
        if levels == 0 || levels > (instance.node_count().max(2) as f64).log2().ceil() as usize + 1
        {
            return false;
        }
        // 2. all neighbours agree on the number of levels
        if view.neighbors.iter().any(|l| l.levels.len() != levels) {
            return false;
        }
        let top = levels - 1;

        // parent label, located through the component pointer (SP already
        // verified it is consistent)
        let parent_port = instance.components.pointer(v);
        let parent_label = parent_port.and_then(|p| {
            if p.index() < view.degree() {
                Some(view.at(p))
            } else {
                None
            }
        });

        // 3. structural per-level checks
        if own.levels[0].fragment_root_id != g.id(v) {
            return false;
        }
        for j in 0..levels {
            let lev = &own.levels[j];
            if (j == top) != lev.min_out.is_none() {
                return false;
            }
            if j == top && lev.endpoint != EndpointMark::NotEndpoint {
                return false;
            }
            if lev.fragment_root_id != g.id(v) {
                // non-root of its fragment: the tree parent must exist and be
                // in the same fragment
                match parent_label {
                    None => return false,
                    Some(p) => {
                        if p.levels[j].fragment_root_id != lev.fragment_root_id {
                            return false;
                        }
                    }
                }
            }
            // monotone containment along the parent edge
            if let Some(p) = parent_label {
                if p.levels[j].fragment_root_id == lev.fragment_root_id {
                    for lev2 in (j + 1)..levels {
                        if p.levels[lev2].fragment_root_id != own.levels[lev2].fragment_root_id {
                            return false;
                        }
                    }
                }
            }
        }

        // helper: composite weight of the edge behind port p
        let edge_weight = |port: usize, other: &KkpLabel| {
            let e = g.incident_edges(v)[port];
            let w = g.weight(e);
            let is_tree_edge = other.sp.parent_id == Some(g.id(v))
                || parent_port.map(|pp| pp.index()) == Some(port);
            CompositeWeight::new(w, is_tree_edge, g.id(v), other.sp.own_id)
        };

        // 4. C2: the claimed minimum outgoing weight is at most the weight of
        //    every outgoing edge this node can see
        for (port, other) in view.neighbors.iter().enumerate() {
            for j in 0..levels {
                if other.levels[j].fragment_root_id != own.levels[j].fragment_root_id {
                    match own.levels[j].min_out {
                        None => return false,
                        Some(mw) => {
                            if edge_weight(port, other) < mw {
                                return false;
                            }
                        }
                    }
                }
            }
        }

        // 5. C1: endpoint marks designate a real outgoing tree edge of exactly
        //    the claimed minimum weight
        for j in 0..levels {
            match own.levels[j].endpoint {
                EndpointMark::NotEndpoint => {}
                EndpointMark::Up => {
                    let (Some(pp), Some(p)) = (parent_port, parent_label) else {
                        return false;
                    };
                    if p.levels[j].fragment_root_id == own.levels[j].fragment_root_id {
                        return false;
                    }
                    match own.levels[j].min_out {
                        Some(mw) if edge_weight(pp.index(), p) == mw => {}
                        _ => return false,
                    }
                }
                EndpointMark::Down(child_id) => {
                    let child =
                        view.neighbors.iter().enumerate().find(|(_, l)| {
                            l.sp.own_id == child_id && l.sp.parent_id == Some(g.id(v))
                        });
                    let Some((port, c)) = child else {
                        return false;
                    };
                    if c.levels[j].fragment_root_id == own.levels[j].fragment_root_id {
                        return false;
                    }
                    match own.levels[j].min_out {
                        Some(mw) if edge_weight(port, c) == mw => {}
                        _ => return false,
                    }
                }
            }
        }

        // 6. uniqueness of the candidate endpoint per fragment, via the
        //    subtree aggregation
        for j in 0..levels {
            let mut expected = u64::from(own.levels[j].endpoint != EndpointMark::NotEndpoint);
            for other in view.neighbors.iter() {
                if other.sp.parent_id == Some(g.id(v))
                    && other.levels[j].fragment_root_id == own.levels[j].fragment_root_id
                {
                    expected += other.levels[j].subtree_endpoint_count;
                }
            }
            if own.levels[j].subtree_endpoint_count != expected {
                return false;
            }
            if own.levels[j].fragment_root_id == g.id(v)
                && j < top
                && own.levels[j].subtree_endpoint_count != 1
            {
                return false;
            }
        }

        // 7. merge witness: the tree edge to the parent must be the candidate
        //    of the level just below the first level where the two endpoints
        //    share a fragment
        if let Some(p) = parent_label {
            let j_star = (0..levels)
                .find(|&j| p.levels[j].fragment_root_id == own.levels[j].fragment_root_id);
            match j_star {
                None | Some(0) => return false,
                Some(j_star) => {
                    let below = j_star - 1;
                    let own_claims = own.levels[below].endpoint == EndpointMark::Up;
                    let parent_claims = p.levels[below].endpoint == EndpointMark::Down(g.id(v));
                    if !own_claims && !parent_claims {
                        return false;
                    }
                }
            }
        }

        true
    }

    fn label_bits(&self, instance: &Instance, node: NodeId, label: &KkpLabel) -> u64 {
        let g = &instance.graph;
        let max_id = g.max_id().unwrap_or(1);
        let max_w = g.max_weight().unwrap_or(1);
        let id_bits = u64::from(bits_for(max_id));
        let n_bits = u64::from(bits_for(instance.node_count() as u64));
        let w_bits = u64::from(bits_for(max_w)) + 2 * id_bits + 1; // composite weight
        let per_level = id_bits + w_bits + 2 + id_bits + n_bits;
        SpanningTreeScheme.label_bits(instance, node, &label.sp)
            + label.levels.len() as u64 * per_level
    }
}

/// [`KkpMstScheme::label_bits`] as it was while it scanned the graph for
/// the largest identity and weight on every call — the oracle for the
/// accessor-based body.
#[cfg(test)]
mod reference {
    use super::{bits_for, Instance, KkpLabel};

    pub fn label_bits(instance: &Instance, label: &KkpLabel) -> u64 {
        let g = &instance.graph;
        let max_id = g.nodes().map(|v| g.id(v)).max().unwrap_or(1);
        let max_w = g.edges().iter().map(|e| e.weight).max().unwrap_or(1);
        let id_bits = u64::from(bits_for(max_id));
        let n_bits = u64::from(bits_for(instance.node_count() as u64));
        let w_bits = u64::from(bits_for(max_w)) + 2 * id_bits + 1;
        let per_level = id_bits + w_bits + 2 + id_bits + n_bits;
        crate::sp::reference::label_bits(instance, &label.sp)
            + label.levels.len() as u64 * per_level
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{max_label_bits, verify_all};
    use proptest::prelude::*;
    use smst_graph::generators::{random_connected_graph, ring_graph};
    use smst_graph::mst::kruskal;
    use smst_graph::ComponentMap;

    fn mst_instance(n: usize, m: usize, seed: u64) -> Instance {
        let g = random_connected_graph(n, m, seed);
        let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
        Instance::from_tree(g, &tree)
    }

    #[test]
    fn marker_labels_are_accepted() {
        for seed in 0..5 {
            let inst = mst_instance(20, 50, seed);
            let labels = KkpMstScheme.mark(&inst).unwrap();
            let outcome = verify_all(&KkpMstScheme, &inst, &labels);
            assert!(
                outcome.accepted(),
                "seed {seed}: rejecting nodes {:?}",
                outcome.rejecting
            );
        }
    }

    #[test]
    fn label_bits_agree_with_the_scanning_reference() {
        use smst_graph::generators::random_graph_scrambled_ids;
        for seed in 0..20u64 {
            let n = 10 + seed as usize;
            let g = random_graph_scrambled_ids(n, 2 * n, seed);
            let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
            let inst = Instance::from_tree(g, &tree);
            let labels = KkpMstScheme.mark(&inst).unwrap();
            for v in inst.graph.nodes() {
                let label = &labels[v.index()];
                assert_eq!(
                    KkpMstScheme.label_bits(&inst, v, label),
                    reference::label_bits(&inst, label),
                    "seed {seed}, node {v}"
                );
            }
        }
    }

    #[test]
    fn marker_refuses_non_mst_instance() {
        // build a non-minimal spanning tree on a ring: drop the lightest edge's
        // place in the tree and use the heaviest instead
        let g = ring_graph(6, 3);
        let mut edges: Vec<EdgeId> = g.edge_entries().map(|(e, _)| e).collect();
        edges.sort_by_key(|&e| g.weight(e));
        // spanning tree missing the *lightest* edge is not an MST of a ring
        let tree_edges: Vec<EdgeId> = edges[1..].to_vec();
        let tree = RootedTree::from_edges(&g, &tree_edges, NodeId(0)).unwrap();
        let inst = Instance::new(g.clone(), ComponentMap::from_rooted_tree(&g, &tree));
        assert!(matches!(
            KkpMstScheme.mark(&inst),
            Err(MarkError::PredicateViolated(_))
        ));
    }

    #[test]
    fn non_mst_tree_is_rejected_even_with_recomputed_like_labels() {
        // non-MST candidate tree + labels produced for the *correct* MST:
        // some node must reject (the verifier never accepts a non-MST).
        let g = ring_graph(8, 5);
        let mst = kruskal(&g);
        let mst_tree = mst.rooted_at(&g, NodeId(0)).unwrap();
        let correct = Instance::from_tree(g.clone(), &mst_tree);
        let labels = KkpMstScheme.mark(&correct).unwrap();

        let mut edges: Vec<EdgeId> = g.edge_entries().map(|(e, _)| e).collect();
        edges.sort_by_key(|&e| g.weight(e));
        let bad_edges: Vec<EdgeId> = edges[1..].to_vec();
        let bad_tree = RootedTree::from_edges(&g, &bad_edges, NodeId(0)).unwrap();
        let bad = Instance::from_tree(g, &bad_tree);
        assert!(!bad.satisfies_mst());
        assert!(!verify_all(&KkpMstScheme, &bad, &labels).accepted());
    }

    #[test]
    fn corrupting_a_min_out_weight_is_detected() {
        let inst = mst_instance(16, 40, 7);
        let mut labels = KkpMstScheme.mark(&inst).unwrap();
        // claim a smaller minimum at some level of some node
        for l in labels.iter_mut() {
            for lev in l.levels.iter_mut() {
                if let Some(w) = lev.min_out.as_mut() {
                    w.weight = 0;
                }
            }
        }
        assert!(!verify_all(&KkpMstScheme, &inst, &labels).accepted());
    }

    #[test]
    fn corrupting_fragment_identity_is_detected() {
        let inst = mst_instance(16, 40, 8);
        let mut labels = KkpMstScheme.mark(&inst).unwrap();
        let levels = labels[4].levels.len();
        labels[4].levels[levels / 2].fragment_root_id = 12345;
        assert!(!verify_all(&KkpMstScheme, &inst, &labels).accepted());
    }

    #[test]
    fn label_size_is_order_log_squared() {
        // the per-node label grows like log² n: with n = 64 and Θ(log n)
        // levels, it is an order of magnitude above the SP label
        let inst = mst_instance(64, 160, 9);
        let labels = KkpMstScheme.mark(&inst).unwrap();
        let kkp_bits = max_label_bits(&KkpMstScheme, &inst, &labels);
        let sp_labels = SpanningTreeScheme.mark(&inst).unwrap();
        let sp_bits = max_label_bits(&SpanningTreeScheme, &inst, &sp_labels);
        assert!(kkp_bits > 4 * sp_bits, "kkp {kkp_bits} vs sp {sp_bits}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        #[test]
        fn accepts_marker_output_on_random_graphs(n in 4usize..24, seed in 0u64..100) {
            let inst = mst_instance(n, 3 * n, seed);
            let labels = KkpMstScheme.mark(&inst).unwrap();
            prop_assert!(verify_all(&KkpMstScheme, &inst, &labels).accepted());
        }

        #[test]
        fn random_single_label_corruption_never_turns_non_mst_into_accept(
            n in 5usize..16, seed in 0u64..50
        ) {
            // swap one tree edge for a heavier non-tree edge; no labels
            // (we reuse the marker's labels for the original MST) may make
            // the verifier accept the modified instance
            let g = random_connected_graph(n, 3 * n, seed);
            let mst = kruskal(&g);
            let tree = mst.rooted_at(&g, NodeId(0)).unwrap();
            let correct = Instance::from_tree(g.clone(), &tree);
            let labels = KkpMstScheme.mark(&correct).unwrap();
            // find a non-tree edge and the heaviest tree edge on its cycle
            let non_tree: Vec<EdgeId> = g.edge_entries().map(|(e, _)| e)
                .filter(|e| !mst.contains(*e)).collect();
            prop_assume!(!non_tree.is_empty());
            let extra = non_tree[0];
            let mut new_edges: Vec<EdgeId> = mst.edges().to_vec();
            // remove a tree edge on the cycle of `extra` (the parent edge of one endpoint)
            let u = g.edge(extra).u;
            if let Some(pe) = tree.parent_edge(u) {
                let pos = new_edges.iter().position(|&e| e == pe).unwrap();
                new_edges[pos] = extra;
                if let Ok(bad_tree) = RootedTree::from_edges(&g, &new_edges, NodeId(0)) {
                    let bad = Instance::from_tree(g, &bad_tree);
                    if !bad.satisfies_mst() {
                        prop_assert!(!verify_all(&KkpMstScheme, &bad, &labels).accepted());
                    }
                }
            }
        }
    }
}
