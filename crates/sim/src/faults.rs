//! Transient-fault injection.
//!
//! The paper's adversary may arbitrarily corrupt the state of any subset of
//! nodes (and, before the verifier even starts, may have chosen the labels
//! adversarially). A [`FaultPlan`] names the faulty nodes; applying it rewrites
//! their registers through a caller-supplied mutator, which keeps the injector
//! agnostic of the program's state type while letting each algorithm crate
//! provide "realistic" corruptions (bit flips in labels, pointer rewires,
//! train-buffer scrambling, …).

use crate::network::Network;
use crate::program::NodeProgram;
use smst_graph::NodeId;
use smst_rng::{SeedableRng, SliceRandom, StdRng};

/// A set of nodes hit by a transient fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    nodes: Vec<NodeId>,
}

impl FaultPlan {
    /// A plan hitting exactly the given nodes (duplicates are removed).
    pub fn new<I: IntoIterator<Item = NodeId>>(nodes: I) -> Self {
        let mut nodes: Vec<NodeId> = nodes.into_iter().collect();
        nodes.sort_unstable();
        nodes.dedup();
        FaultPlan { nodes }
    }

    /// A plan hitting a single node.
    pub fn single(node: NodeId) -> Self {
        FaultPlan { nodes: vec![node] }
    }

    /// A plan hitting `f` distinct nodes chosen uniformly at random.
    ///
    /// # Panics
    ///
    /// Panics if `f > n`.
    pub fn random(n: usize, f: usize, seed: u64) -> Self {
        assert!(f <= n, "cannot pick {f} faulty nodes out of {n}");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut all: Vec<NodeId> = (0..n).map(NodeId).collect();
        all.shuffle(&mut rng);
        all.truncate(f);
        Self::new(all)
    }

    /// The faulty nodes.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The number of faults `f`.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Applies the plan to a network: every faulty node's register is passed
    /// to `mutate`, which may rewrite it arbitrarily.
    pub fn apply<P, F>(&self, network: &mut Network<P>, mut mutate: F)
    where
        P: NodeProgram,
        F: FnMut(NodeId, &mut P::State),
    {
        for &v in &self.nodes {
            mutate(v, network.state_mut(v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{NodeContext, NodeProgram};
    use smst_graph::generators::path_graph;

    struct Stub;
    impl NodeProgram for Stub {
        type State = u32;
        type Update = u32;
        fn init(&self, _ctx: &NodeContext) -> u32 {
            0
        }
        fn step(&self, _ctx: &NodeContext, own: &u32, _neighbors: &[&u32]) -> u32 {
            *own
        }
        fn apply(state: &mut u32, update: u32) {
            *state = update;
        }
    }

    #[test]
    fn plan_deduplicates() {
        let plan = FaultPlan::new([NodeId(3), NodeId(1), NodeId(3)]);
        assert_eq!(plan.nodes(), &[NodeId(1), NodeId(3)]);
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
    }

    #[test]
    fn random_plan_has_f_distinct_nodes() {
        let plan = FaultPlan::random(20, 5, 7);
        assert_eq!(plan.len(), 5);
        let plan2 = FaultPlan::random(20, 5, 7);
        assert_eq!(plan, plan2, "plans are deterministic per seed");
    }

    #[test]
    #[should_panic(expected = "cannot pick")]
    fn random_plan_rejects_too_many_faults() {
        let _ = FaultPlan::random(3, 4, 0);
    }

    #[test]
    fn apply_rewrites_only_planned_nodes() {
        let g = path_graph(4, 0);
        let mut net: Network<Stub> = Network::new(&Stub, g);
        let plan = FaultPlan::new([NodeId(1), NodeId(2)]);
        plan.apply(&mut net, |_v, s| *s = 99);
        assert_eq!(net.states(), &[0, 99, 99, 0]);
    }

    #[test]
    fn single_plan() {
        let plan = FaultPlan::single(NodeId(2));
        assert_eq!(plan.nodes(), &[NodeId(2)]);
    }
}
