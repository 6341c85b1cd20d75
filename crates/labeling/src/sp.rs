//! Example SP (§2.6): a 1-round proof labeling scheme for "the components
//! induce a rooted spanning tree".
//!
//! The label of `v` stores the identity of the claimed root, the (hop)
//! distance of `v` from the root in the tree, `v`'s own identity and the
//! identity of `v`'s parent. The verifier checks that all neighbours agree on
//! the root, that distances decrease by exactly one along component pointers,
//! that the unique distance-0 node is the claimed root, and (per the remark in
//! §2.6) that the claimed parent identity matches the identity of the node the
//! component actually points at — which lets every node identify its tree
//! parent and children among its graph neighbours in one round.
//!
//! The scheme uses `O(log n)` bits per node and its marker runs in `O(n)`
//! time.

use crate::scheme::{Instance, LabelView, MarkError, OneRoundScheme};
use smst_graph::weight::bits_for;
use smst_graph::{NodeId, RootedTree, WeightedGraph};

/// The Example SP label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpLabel {
    /// Claimed identity of the root of the spanning tree.
    pub root_id: u64,
    /// Claimed hop distance from the root.
    pub dist: u64,
    /// The node's own identity (the remark of §2.6).
    pub own_id: u64,
    /// The identity of the claimed parent (`None` for the root).
    pub parent_id: Option<u64>,
}

impl SpLabel {
    /// Number of bits of a faithful encoding of the label.
    pub fn bits(&self, max_id: u64, n: usize) -> u64 {
        // root id + own id + parent id + distance + two presence flags
        u64::from(bits_for(max_id)) * 3 + u64::from(bits_for(n as u64)) + 2
    }
}

/// The Example SP scheme.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanningTreeScheme;

impl SpanningTreeScheme {
    /// Creates the scheme.
    pub fn new() -> Self {
        SpanningTreeScheme
    }

    /// The labels of the rooted spanning tree `tree` of `g`: what
    /// [`OneRoundScheme::mark`] assigns once it has rooted the instance's
    /// components, for a caller that already holds that tree.
    pub fn labels_of(g: &WeightedGraph, tree: &RootedTree) -> Vec<SpLabel> {
        g.nodes().map(|v| Self::label_of(g, tree, v)).collect()
    }

    /// Node `v`'s entry of [`Self::labels_of`], for a caller that writes it
    /// into a label of its own.
    pub fn label_of(g: &WeightedGraph, tree: &RootedTree, v: NodeId) -> SpLabel {
        SpLabel {
            root_id: g.id(tree.root()),
            dist: tree.depth(v) as u64,
            own_id: g.id(v),
            parent_id: tree.parent(v).map(|p| g.id(p)),
        }
    }
}

impl OneRoundScheme for SpanningTreeScheme {
    type Label = SpLabel;

    fn name(&self) -> &str {
        "sp-spanning-tree"
    }

    fn mark(&self, instance: &Instance) -> Result<Vec<SpLabel>, MarkError> {
        let tree = instance.candidate_tree()?;
        Ok(Self::labels_of(&instance.graph, &tree))
    }

    fn verify_at(&self, instance: &Instance, view: &LabelView<'_, SpLabel>) -> bool {
        let g = &instance.graph;
        let v = view.node;
        let own = view.own;
        // the designated own-identity field must be truthful
        if own.own_id != g.id(v) {
            return false;
        }
        // all graph neighbours agree on the root identity
        if view.neighbors.iter().any(|l| l.root_id != own.root_id) {
            return false;
        }
        match instance.components.pointer(v) {
            None => {
                // a pointer-less node is the root: distance 0 and the claimed
                // root identity is its own
                own.dist == 0 && own.root_id == g.id(v) && own.parent_id.is_none()
            }
            Some(port) => {
                if port.index() >= view.degree() {
                    return false;
                }
                let parent = view.at(port);
                own.dist == parent.dist + 1 && own.parent_id == Some(parent.own_id) && own.dist > 0
            }
        }
    }

    fn label_bits(&self, instance: &Instance, _node: NodeId, label: &SpLabel) -> u64 {
        let max_id = instance.graph.max_id().unwrap_or(1);
        label.bits(max_id, instance.node_count())
    }
}

/// [`SpanningTreeScheme::label_bits`] as it was while it scanned the node
/// identities for their maximum on every call — the oracle for the
/// accessor-based body.
#[cfg(test)]
pub(crate) mod reference {
    use super::{Instance, SpLabel};

    pub fn label_bits(instance: &Instance, label: &SpLabel) -> u64 {
        let max_id = instance
            .graph
            .nodes()
            .map(|v| instance.graph.id(v))
            .max()
            .unwrap_or(1);
        label.bits(max_id, instance.node_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{max_label_bits, verify_all};
    use proptest::prelude::*;
    use smst_graph::generators::random_connected_graph;
    use smst_graph::mst::kruskal;
    use smst_graph::ComponentMap;

    fn mst_instance(n: usize, m: usize, seed: u64) -> Instance {
        let g = random_connected_graph(n, m, seed);
        let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
        Instance::from_tree(g, &tree)
    }

    #[test]
    fn marker_labels_are_accepted() {
        let inst = mst_instance(20, 50, 1);
        let labels = SpanningTreeScheme.mark(&inst).unwrap();
        assert!(verify_all(&SpanningTreeScheme, &inst, &labels).accepted());
    }

    #[test]
    fn label_size_is_logarithmic() {
        let inst = mst_instance(64, 150, 2);
        let labels = SpanningTreeScheme.mark(&inst).unwrap();
        let bits = max_label_bits(&SpanningTreeScheme, &inst, &labels);
        assert!(bits <= 4 * 64f64.log2() as u64 + 16, "bits = {bits}");
    }

    #[test]
    fn label_bits_agree_with_the_scanning_reference() {
        use smst_graph::generators::random_graph_scrambled_ids;
        for seed in 0..20u64 {
            let n = 10 + seed as usize;
            let g = random_graph_scrambled_ids(n, 2 * n, seed);
            let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
            let inst = Instance::from_tree(g, &tree);
            let labels = SpanningTreeScheme.mark(&inst).unwrap();
            for v in inst.graph.nodes() {
                let label = &labels[v.index()];
                assert_eq!(
                    SpanningTreeScheme.label_bits(&inst, v, label),
                    reference::label_bits(&inst, label),
                    "seed {seed}, node {v}"
                );
            }
        }
    }

    #[test]
    fn corrupting_distance_is_detected() {
        let inst = mst_instance(15, 40, 3);
        let mut labels = SpanningTreeScheme.mark(&inst).unwrap();
        labels[7].dist += 5;
        let outcome = verify_all(&SpanningTreeScheme, &inst, &labels);
        assert!(!outcome.accepted());
    }

    #[test]
    fn corrupting_root_id_is_detected() {
        let inst = mst_instance(15, 40, 4);
        let mut labels = SpanningTreeScheme.mark(&inst).unwrap();
        labels[3].root_id = 999;
        assert!(!verify_all(&SpanningTreeScheme, &inst, &labels).accepted());
    }

    #[test]
    fn non_spanning_components_are_detected() {
        // break the tree: point a node at a non-parent so a cycle of pointers
        // appears; whatever labels we give, some node must reject.
        let g = random_connected_graph(12, 30, 5);
        let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
        let correct = Instance::from_tree(g.clone(), &tree);
        let labels = SpanningTreeScheme.mark(&correct).unwrap();
        // re-point the root at one of its children, creating a 2-cycle
        let root = tree.root();
        let child = tree.children(root)[0];
        let mut components = ComponentMap::from_rooted_tree(&g, &tree);
        components
            .point_at(&g, root, child)
            .expect("child is a neighbour");
        let broken = Instance::new(g, components);
        assert!(!verify_all(&SpanningTreeScheme, &broken, &labels).accepted());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn adversarial_distance_labels_rejected(n in 4usize..20, seed in 0u64..100, victim in 0usize..20, delta in 1u64..5) {
            let inst = mst_instance(n, 3 * n, seed);
            let mut labels = SpanningTreeScheme.mark(&inst).unwrap();
            let victim = victim % n;
            labels[victim].dist = labels[victim].dist.wrapping_add(delta);
            prop_assert!(!verify_all(&SpanningTreeScheme, &inst, &labels).accepted());
        }
    }
}
