//! The register arena: everything a run owns about its nodes, in the
//! engine's internal (layout) order, behind an original-id surface.
//!
//! [`Arena`] is the one place the `(program, graph, CSR, layout, contexts,
//! registers)` tuple and its id translation live. It is built by one
//! pipeline — `CsrTopology::build → LayoutPolicy::build → Layout::apply →
//! contexts → registers` — and every execution path (the two sharded
//! runners here, the `smst-net` coordinator) holds one and adds only its
//! schedule; a remote worker process holds one halo region cut out of the
//! coordinator's.
//!
//! # Invariants
//!
//! * `topology()`, `contexts()` and `states()` are indexed by **internal**
//!   index `i`, which stores original node `layout().original(i)`; all
//!   three always hold exactly one entry per node.
//! * Row `i` of the topology lists internal neighbour indices in the
//!   original node's port order, so a [`sweep`](crate::kernel::sweep) over
//!   the arena feeds `step` exactly what the sequential reference does.
//! * Every method taking or returning a [`NodeId`] speaks **original**
//!   ids; [`alarming_nodes`](Arena::alarming_nodes) is ascending in them.

use crate::layout::{Layout, LayoutPolicy};
use crate::topology::CsrTopology;
use smst_graph::{NodeId, WeightedGraph};
use smst_sim::{FaultPlan, Network, NodeContext, NodeProgram, Verdict};

/// The program, graph, renumbered CSR, layout, contexts and registers of
/// one run. See the [module docs](self).
#[derive(Debug)]
pub struct Arena<'p, P: NodeProgram> {
    pub(crate) program: &'p P,
    pub(crate) graph: WeightedGraph,
    pub(crate) topo: CsrTopology,
    pub(crate) layout: Layout,
    pub(crate) contexts: Vec<NodeContext>,
    pub(crate) states: Vec<P::State>,
}

impl<'p, P: NodeProgram> Arena<'p, P> {
    /// Builds the arena of `graph` under `policy`, every register
    /// initialized by `program.init`.
    pub fn new(program: &'p P, graph: WeightedGraph, policy: LayoutPolicy) -> Self {
        Self::build(program, graph, policy, None)
    }

    /// [`Arena::new`] with explicitly provided initial registers, indexed
    /// by original node id (a run that continues another's registers
    /// instead of starting from `init`).
    ///
    /// # Panics
    ///
    /// Panics if `states.len()` differs from the node count.
    pub fn with_states(
        program: &'p P,
        graph: WeightedGraph,
        policy: LayoutPolicy,
        states: Vec<P::State>,
    ) -> Self {
        assert_eq!(
            states.len(),
            graph.node_count(),
            "one initial state per node is required"
        );
        Self::build(program, graph, policy, Some(states))
    }

    fn build(
        program: &'p P,
        graph: WeightedGraph,
        policy: LayoutPolicy,
        states: Option<Vec<P::State>>,
    ) -> Self {
        let base = CsrTopology::build(&graph);
        let layout = policy.build(&base);
        let topo = if layout.is_identity() {
            base
        } else {
            layout.apply(&base)
        };
        let contexts: Vec<NodeContext> = (0..graph.node_count())
            .map(|internal| NodeContext::for_node(&graph, NodeId(layout.original(internal))))
            .collect();
        let states = match states {
            Some(original_order) => layout.permute(original_order),
            None => contexts.iter().map(|ctx| program.init(ctx)).collect(),
        };
        Arena {
            program,
            graph,
            topo,
            layout,
            contexts,
            states,
        }
    }

    /// The program being executed.
    pub fn program(&self) -> &'p P {
        self.program
    }

    /// The graph being executed.
    pub fn graph(&self) -> &WeightedGraph {
        &self.graph
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.states.len()
    }

    /// The node layout (identity unless built with
    /// [`LayoutPolicy::Rcm`]).
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The CSR the rounds sweep, in internal order.
    pub fn topology(&self) -> &CsrTopology {
        &self.topo
    }

    /// The static contexts, in internal order.
    pub fn contexts(&self) -> &[NodeContext] {
        &self.contexts
    }

    /// All registers in **internal order** — original node-id order exactly
    /// when [`layout`](Self::layout)`.is_identity()`. Use
    /// [`states_snapshot`](Self::states_snapshot) for an order-independent
    /// view.
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// Mutable access to the registers in internal order (a remote
    /// coordinator commits its workers' interiors through this).
    pub fn states_mut(&mut self) -> &mut [P::State] {
        &mut self.states
    }

    /// The registers in original node-id order (clones; layout-independent).
    pub fn states_snapshot(&self) -> Vec<P::State> {
        (0..self.states.len())
            .map(|v| self.states[self.layout.internal(v)].clone())
            .collect()
    }

    /// The register of one node (original id).
    pub fn state(&self, v: NodeId) -> &P::State {
        &self.states[self.layout.internal(v.index())]
    }

    /// Mutable access to one register (fault injection; original id).
    pub fn state_mut(&mut self, v: NodeId) -> &mut P::State {
        &mut self.states[self.layout.internal(v.index())]
    }

    /// The static context of a node (original id).
    pub fn context(&self, v: NodeId) -> &NodeContext {
        &self.contexts[self.layout.internal(v.index())]
    }

    /// Every node's verdict, in internal order (lazy, so the stop checks
    /// short-circuit).
    fn verdicts(&self) -> impl Iterator<Item = Verdict> + '_ {
        self.contexts
            .iter()
            .zip(&self.states)
            .map(|(ctx, state)| self.program.verdict(ctx, state))
    }

    /// `true` if at least one node raises an alarm.
    pub fn any_alarm(&self) -> bool {
        self.verdicts().any(|verdict| verdict == Verdict::Reject)
    }

    /// `true` if every node accepts.
    pub fn all_accept(&self) -> bool {
        self.verdicts().all(|verdict| verdict == Verdict::Accept)
    }

    /// How many nodes currently raise an alarm (no allocation — the
    /// per-round figure observers record).
    pub fn alarm_count(&self) -> usize {
        self.verdicts()
            .filter(|&verdict| verdict == Verdict::Reject)
            .count()
    }

    /// The nodes currently raising an alarm (original ids, ascending).
    pub fn alarming_nodes(&self) -> Vec<NodeId> {
        (0..self.states.len())
            .map(NodeId)
            .filter(|&v| self.program.verdict(self.context(v), self.state(v)) == Verdict::Reject)
            .collect()
    }

    /// Applies a [`FaultPlan`] by passing every planned node's register to
    /// `mutate` (mirrors [`FaultPlan::apply`] for the sequential runner).
    pub fn apply_faults(
        &mut self,
        plan: &FaultPlan,
        mut mutate: impl FnMut(NodeId, &mut P::State),
    ) {
        for &v in plan.nodes() {
            mutate(v, self.state_mut(v));
        }
    }

    /// Consumes the arena, returning a sequential [`Network`] holding the
    /// registers in original node-id order (interop with the rest of the
    /// workspace).
    pub fn into_network(self) -> Network<P> {
        Network::with_states(self.graph, self.layout.unpermute(self.states))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smst_graph::generators::{path_graph, random_connected_graph};

    /// Registers start at the node's identity; `POISON` raises an alarm.
    struct Marked;

    const POISON: u64 = u64::MAX;

    impl NodeProgram for Marked {
        type State = u64;
        type Update = u64;
        fn init(&self, ctx: &NodeContext) -> u64 {
            ctx.id
        }
        fn step(&self, _ctx: &NodeContext, own: &u64, _neighbors: &[&u64]) -> u64 {
            *own
        }
        fn apply(state: &mut u64, update: u64) {
            *state = update;
        }
        fn verdict(&self, _ctx: &NodeContext, state: &u64) -> Verdict {
            if *state == POISON {
                Verdict::Reject
            } else {
                Verdict::Accept
            }
        }
    }

    #[test]
    fn original_ids_round_trip_under_rcm() {
        let g = random_connected_graph(30, 80, 5);
        let mut arena = Arena::new(&Marked, g.clone(), LayoutPolicy::Rcm);
        assert!(!arena.layout().is_identity(), "RCM moved something");
        for v in g.nodes() {
            assert_eq!(
                *arena.state(v),
                g.id(v),
                "init ran on the node's own context"
            );
            assert_eq!(arena.context(v).node, v);
            let internal = arena.layout().internal(v.index());
            assert_eq!(arena.states()[internal], g.id(v));
            assert_eq!(arena.contexts()[internal].node, v);
        }
        assert!(arena.all_accept() && !arena.any_alarm());
        assert_eq!(arena.alarm_count(), 0);

        *arena.state_mut(NodeId(5)) = POISON;
        let plan = FaultPlan::new([NodeId(17), NodeId(2), NodeId(9)]);
        arena.apply_faults(&plan, |v, state| {
            assert_eq!(
                *state,
                g.id(v),
                "the mutator sees the planned node's register"
            );
            *state = POISON;
        });
        assert_eq!(
            arena.alarming_nodes(),
            [2, 5, 9, 17].map(NodeId),
            "original ids, ascending"
        );
        assert_eq!(arena.alarm_count(), 4);
        assert!(arena.any_alarm() && !arena.all_accept());

        let snapshot = arena.states_snapshot();
        for v in g.nodes() {
            assert_eq!(snapshot[v.index()], *arena.state(v));
        }
        assert_eq!(arena.into_network().states(), snapshot);
    }

    #[test]
    fn with_states_adopts_a_networks_registers() {
        let g = path_graph(5, 0);
        let mut net = Network::new(&Marked, g);
        net.set_state(NodeId(4), 99);
        let arena = Arena::with_states(
            &Marked,
            net.graph().clone(),
            LayoutPolicy::Identity,
            net.states().to_vec(),
        );
        assert_eq!(arena.state(NodeId(4)), &99);
        assert_eq!(arena.into_network().state(NodeId(4)), &99);
    }

    #[test]
    fn rcm_arena_round_trips_through_network_interop() {
        let g = random_connected_graph(25, 60, 8);
        let mut net = Network::new(&Marked, g);
        net.set_state(NodeId(17), 1234);
        let arena = Arena::with_states(
            &Marked,
            net.graph().clone(),
            LayoutPolicy::Rcm,
            net.states().to_vec(),
        );
        assert_eq!(arena.state(NodeId(17)), &1234);
        assert_eq!(arena.into_network().states(), net.states());
    }

    #[test]
    #[should_panic(expected = "one initial state per node")]
    fn with_states_checks_the_length() {
        let _ = Arena::with_states(&Marked, path_graph(3, 0), LayoutPolicy::Identity, vec![1]);
    }
}
