//! Example EDIAM (§2.6): a 1-round scheme proving that every node "knows" an
//! upper bound on the height of the candidate tree.
//!
//! The label extends the Example SP label with a claimed bound `x ≥ height`.
//! The verifier checks the SP conditions, agreement on `x` among neighbours,
//! and that `x` is at least the node's own distance from the root. The paper
//! uses this scheme to certify that the diameter of every *part* of the train
//! partitions is `O(log n)` (§3.4.3 / §8).

use crate::scheme::{Instance, LabelView, MarkError, OneRoundScheme};
use crate::sp::{SpLabel, SpanningTreeScheme};
use smst_graph::weight::bits_for;
use smst_graph::NodeId;

/// The Example EDIAM label: SP fields plus the claimed height bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiameterLabel {
    /// The underlying spanning-tree proof.
    pub sp: SpLabel,
    /// The claimed upper bound `x` on the height of the tree.
    pub height_bound: u64,
}

/// The Example EDIAM scheme, parameterized by how much slack the marker adds
/// above the true height.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiameterBoundScheme {
    /// Extra slack the marker adds to the true height when producing labels.
    pub slack: u64,
}

impl DiameterBoundScheme {
    /// A scheme whose marker claims exactly the true height.
    pub fn exact() -> Self {
        Self::default()
    }

    /// A scheme whose marker claims `height + slack`.
    pub fn with_slack(slack: u64) -> Self {
        DiameterBoundScheme { slack }
    }
}

impl OneRoundScheme for DiameterBoundScheme {
    type Label = DiameterLabel;

    fn name(&self) -> &str {
        "ediam-height-bound"
    }

    fn mark(&self, instance: &Instance) -> Result<Vec<DiameterLabel>, MarkError> {
        let sp_labels = SpanningTreeScheme.mark(instance)?;
        let tree = instance.candidate_tree()?;
        let bound = tree.height() as u64 + self.slack;
        Ok(instance
            .graph
            .nodes()
            .map(|v| DiameterLabel {
                sp: sp_labels[v.index()],
                height_bound: bound,
            })
            .collect())
    }

    fn verify_at(&self, instance: &Instance, view: &LabelView<'_, DiameterLabel>) -> bool {
        let sp_view = LabelView {
            node: view.node,
            own: &view.own.sp,
            neighbors: view.neighbors.iter().map(|l| &l.sp).collect(),
        };
        if !SpanningTreeScheme.verify_at(instance, &sp_view) {
            return false;
        }
        if view
            .neighbors
            .iter()
            .any(|l| l.height_bound != view.own.height_bound)
        {
            return false;
        }
        view.own.height_bound >= view.own.sp.dist
    }

    fn label_bits(&self, instance: &Instance, node: NodeId, label: &DiameterLabel) -> u64 {
        SpanningTreeScheme.label_bits(instance, node, &label.sp)
            + u64::from(bits_for(instance.node_count() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::verify_all;
    use smst_graph::generators::{path_graph, random_connected_graph};
    use smst_graph::mst::kruskal;

    fn mst_instance(n: usize, m: usize, seed: u64) -> Instance {
        let g = random_connected_graph(n, m, seed);
        let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
        Instance::from_tree(g, &tree)
    }

    #[test]
    fn exact_bound_accepted() {
        let inst = mst_instance(20, 45, 1);
        let labels = DiameterBoundScheme::exact().mark(&inst).unwrap();
        assert!(verify_all(&DiameterBoundScheme::exact(), &inst, &labels).accepted());
    }

    #[test]
    fn slack_bound_accepted() {
        let inst = mst_instance(20, 45, 2);
        let scheme = DiameterBoundScheme::with_slack(7);
        let labels = scheme.mark(&inst).unwrap();
        assert!(verify_all(&scheme, &inst, &labels).accepted());
    }

    #[test]
    fn too_small_bound_rejected() {
        // a path rooted at the end has height n-1; claiming a small bound fails
        let g = path_graph(10, 3);
        let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
        let inst = Instance::from_tree(g, &tree);
        let scheme = DiameterBoundScheme::exact();
        let mut labels = scheme.mark(&inst).unwrap();
        for l in &mut labels {
            l.height_bound = 2; // consistent but too small
        }
        assert!(!verify_all(&scheme, &inst, &labels).accepted());
    }

    #[test]
    fn inconsistent_bounds_rejected() {
        let inst = mst_instance(14, 30, 4);
        let scheme = DiameterBoundScheme::exact();
        let mut labels = scheme.mark(&inst).unwrap();
        labels[3].height_bound += 1;
        assert!(!verify_all(&scheme, &inst, &labels).accepted());
    }
}
