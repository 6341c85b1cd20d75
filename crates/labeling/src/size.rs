//! Example NumK (§2.6): a 1-round scheme proving that every node "knows" the
//! number of nodes `n`.
//!
//! The label extends the Example SP label with the claimed network size and
//! the number of nodes in the subtree hanging from the node. The verifier
//! checks the SP conditions, that all neighbours agree on the claimed size,
//! that every node's subtree count equals one plus the sum of its children's
//! counts, and that the root's count equals the claimed size.

use crate::scheme::{Instance, LabelView, MarkError, OneRoundScheme};
use crate::sp::{SpLabel, SpanningTreeScheme};
use smst_graph::weight::bits_for;
use smst_graph::NodeId;

/// The Example NumK label: SP fields plus the size claim and subtree count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SizeLabel {
    /// The underlying spanning-tree proof.
    pub sp: SpLabel,
    /// The claimed number of nodes in the network.
    pub n_claim: u64,
    /// The number of nodes in the subtree of the candidate tree rooted at
    /// this node.
    pub subtree_count: u64,
}

/// The Example NumK scheme.
#[derive(Debug, Clone, Copy, Default)]
pub struct SizeScheme;

impl SizeScheme {
    /// Creates the scheme.
    pub fn new() -> Self {
        SizeScheme
    }
}

impl OneRoundScheme for SizeScheme {
    type Label = SizeLabel;

    fn name(&self) -> &str {
        "numk-size"
    }

    fn mark(&self, instance: &Instance) -> Result<Vec<SizeLabel>, MarkError> {
        let sp_labels = SpanningTreeScheme.mark(instance)?;
        let tree = instance.candidate_tree()?;
        let n = instance.node_count() as u64;
        Ok(instance
            .graph
            .nodes()
            .map(|v| SizeLabel {
                sp: sp_labels[v.index()],
                n_claim: n,
                subtree_count: tree.subtree_size(v) as u64,
            })
            .collect())
    }

    fn verify_at(&self, instance: &Instance, view: &LabelView<'_, SizeLabel>) -> bool {
        // SP conditions on the embedded labels
        let sp_view = LabelView {
            node: view.node,
            own: &view.own.sp,
            neighbors: view.neighbors.iter().map(|l| &l.sp).collect(),
        };
        if !SpanningTreeScheme.verify_at(instance, &sp_view) {
            return false;
        }
        // all neighbours agree on the claimed size
        if view.neighbors.iter().any(|l| l.n_claim != view.own.n_claim) {
            return false;
        }
        // subtree count = 1 + sum over children (neighbours claiming this
        // node as their parent)
        let children_sum: u64 = view
            .neighbors
            .iter()
            .filter(|l| l.sp.parent_id == Some(view.own.sp.own_id))
            .map(|l| l.subtree_count)
            .sum();
        if view.own.subtree_count != 1 + children_sum {
            return false;
        }
        // the root's count must equal the claimed size
        if view.own.sp.parent_id.is_none() && view.own.subtree_count != view.own.n_claim {
            return false;
        }
        true
    }

    fn label_bits(&self, instance: &Instance, node: NodeId, label: &SizeLabel) -> u64 {
        SpanningTreeScheme.label_bits(instance, node, &label.sp)
            + 2 * u64::from(bits_for(instance.node_count() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::verify_all;
    use smst_graph::generators::random_connected_graph;
    use smst_graph::mst::kruskal;

    fn mst_instance(n: usize, m: usize, seed: u64) -> Instance {
        let g = random_connected_graph(n, m, seed);
        let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
        Instance::from_tree(g, &tree)
    }

    #[test]
    fn marker_labels_are_accepted() {
        let inst = mst_instance(25, 60, 1);
        let labels = SizeScheme.mark(&inst).unwrap();
        assert!(verify_all(&SizeScheme, &inst, &labels).accepted());
    }

    #[test]
    fn wrong_size_claim_is_detected() {
        let inst = mst_instance(16, 40, 2);
        let mut labels = SizeScheme.mark(&inst).unwrap();
        for l in &mut labels {
            l.n_claim += 1; // globally consistent lie
        }
        // the root's subtree count no longer matches the claim
        assert!(!verify_all(&SizeScheme, &inst, &labels).accepted());
    }

    #[test]
    fn inconsistent_size_claims_detected() {
        let inst = mst_instance(16, 40, 3);
        let mut labels = SizeScheme.mark(&inst).unwrap();
        labels[5].n_claim = 999;
        assert!(!verify_all(&SizeScheme, &inst, &labels).accepted());
    }

    #[test]
    fn corrupt_subtree_count_detected() {
        let inst = mst_instance(16, 40, 4);
        let mut labels = SizeScheme.mark(&inst).unwrap();
        labels[8].subtree_count += 2;
        assert!(!verify_all(&SizeScheme, &inst, &labels).accepted());
    }

    #[test]
    fn label_bits_are_logarithmic() {
        let inst = mst_instance(128, 300, 5);
        let labels = SizeScheme.mark(&inst).unwrap();
        let bits = crate::scheme::max_label_bits(&SizeScheme, &inst, &labels);
        assert!(bits <= 6 * 8 + 20, "bits = {bits}");
    }
}
