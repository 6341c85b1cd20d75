//! A network: a graph plus the per-node contexts and registers of a running
//! program.

use crate::program::{NodeContext, NodeProgram, Verdict};
use smst_graph::Csr;
use smst_graph::{NodeId, WeightedGraph};

/// A network executing a [`NodeProgram`]: the topology, the per-node static
/// contexts, and the current register of every node.
///
/// The network itself is scheduler-agnostic; [`crate::ReferenceRunner`]
/// drives it in rounds or under a daemon.
#[derive(Debug, Clone)]
pub struct Network<P: NodeProgram> {
    graph: WeightedGraph,
    contexts: Vec<NodeContext>,
    states: Vec<P::State>,
    /// The allocation [`Self::activate`] gathers neighbour registers in,
    /// kept empty between activations.
    spare: Vec<usize>,
}

/// `v` emptied and retyped on its own allocation: `collect` of a
/// `vec::IntoIter` into elements of the same size and alignment reuses the
/// buffer. That lets one allocation carry references of a new lifetime on
/// every call (`crates/core/tests/zero_alloc.rs` counts that it does).
fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter()
        .map(|_| unreachable!("the vector is empty"))
        .collect()
}

impl<P: NodeProgram> Network<P> {
    /// Creates a network over `graph` with every node initialized by
    /// `program.init`.
    pub fn new(program: &P, graph: WeightedGraph) -> Self {
        let contexts: Vec<NodeContext> = graph
            .nodes()
            .map(|v| NodeContext::for_node(&graph, v))
            .collect();
        let states: Vec<P::State> = contexts.iter().map(|ctx| program.init(ctx)).collect();
        Network {
            graph,
            contexts,
            states,
            spare: Vec::new(),
        }
    }

    /// Creates a network with explicitly provided initial registers (used to
    /// model arbitrary initial configurations / adversarial initialization).
    ///
    /// # Panics
    ///
    /// Panics if `states.len()` differs from the number of nodes.
    pub fn with_states(graph: WeightedGraph, states: Vec<P::State>) -> Self {
        assert_eq!(
            states.len(),
            graph.node_count(),
            "one initial state per node is required"
        );
        let contexts: Vec<NodeContext> = graph
            .nodes()
            .map(|v| NodeContext::for_node(&graph, v))
            .collect();
        Network {
            graph,
            contexts,
            states,
            spare: Vec::new(),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &WeightedGraph {
        &self.graph
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// The static context of a node.
    pub fn context(&self, v: NodeId) -> &NodeContext {
        &self.contexts[v.index()]
    }

    /// The current register of a node.
    pub fn state(&self, v: NodeId) -> &P::State {
        &self.states[v.index()]
    }

    /// Mutable access to the register of a node (used by fault injection).
    pub fn state_mut(&mut self, v: NodeId) -> &mut P::State {
        &mut self.states[v.index()]
    }

    /// All registers, indexed by node.
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// Replaces the register of a node.
    pub fn set_state(&mut self, v: NodeId, state: P::State) {
        self.states[v.index()] = state;
    }

    /// What `v` rewrites of its register, read off the current
    /// configuration, its neighbours' registers gathered into `neighbors` in
    /// port order by `rows`, the graph's [`WeightedGraph::neighbor_rows`]:
    /// the one place the simulator calls [`NodeProgram::step`].
    fn next_update<'a>(
        &'a self,
        program: &P,
        rows: &Csr<u32>,
        v: NodeId,
        neighbors: &mut Vec<&'a P::State>,
    ) -> P::Update {
        neighbors.clear();
        let row = rows.row(v.index());
        neighbors.extend(row.iter().map(|&u| &self.states[u as usize]));
        program.step(
            &self.contexts[v.index()],
            &self.states[v.index()],
            neighbors,
        )
    }

    /// Performs one atomic activation of node `v`: reads the neighbours'
    /// registers and applies the step's update to `v`'s register (always;
    /// change detection is the caller's). `rows` is the graph's
    /// [`WeightedGraph::neighbor_rows`]. Once the network has activated a
    /// node of the largest degree, an activation allocates nothing.
    pub(crate) fn activate(&mut self, program: &P, rows: &Csr<u32>, v: NodeId) {
        let mut neighbors = recycle(std::mem::take(&mut self.spare));
        let update = self.next_update(program, rows, v, &mut neighbors);
        self.spare = recycle(neighbors);
        P::apply(&mut self.states[v.index()], update);
    }

    /// One synchronous round: every node's update is computed into
    /// `updates` off the current configuration, then each is applied to
    /// its node's register in place. The neighbour buffer is allocated once
    /// for the whole round; `rows` is the graph's
    /// [`WeightedGraph::neighbor_rows`].
    ///
    /// # Panics
    ///
    /// Panics if `updates` does not hold one update per node.
    pub(crate) fn round(&mut self, program: &P, rows: &Csr<u32>, updates: &mut [P::Update]) {
        assert_eq!(
            updates.len(),
            self.states.len(),
            "one update per node is required"
        );
        let mut neighbors = Vec::with_capacity(16);
        for (v, slot) in self.graph.nodes().zip(updates.iter_mut()) {
            *slot = self.next_update(program, rows, v, &mut neighbors);
        }
        for (state, update) in self.states.iter_mut().zip(updates.iter()) {
            P::apply(state, update.clone());
        }
    }

    /// The verdict of every node under the current configuration, in node
    /// order (lazy: the stop checks below short-circuit on it).
    fn verdict_iter<'a>(&'a self, program: &'a P) -> impl Iterator<Item = Verdict> + 'a {
        self.contexts
            .iter()
            .zip(&self.states)
            .map(move |(ctx, state)| program.verdict(ctx, state))
    }

    /// The verdicts of all nodes under the current configuration.
    pub fn verdicts(&self, program: &P) -> Vec<Verdict> {
        self.verdict_iter(program).collect()
    }

    /// The nodes currently raising an alarm ([`Verdict::Reject`]).
    pub fn alarming_nodes(&self, program: &P) -> Vec<NodeId> {
        self.graph
            .nodes()
            .zip(self.verdict_iter(program))
            .filter_map(|(v, verdict)| (verdict == Verdict::Reject).then_some(v))
            .collect()
    }

    /// How many nodes currently raise an alarm (no allocation).
    pub fn alarm_count(&self, program: &P) -> usize {
        self.verdict_iter(program)
            .filter(|&verdict| verdict == Verdict::Reject)
            .count()
    }

    /// `true` if at least one node raises an alarm (stops at the first).
    pub fn any_alarm(&self, program: &P) -> bool {
        self.verdict_iter(program)
            .any(|verdict| verdict == Verdict::Reject)
    }

    /// `true` if every node outputs [`Verdict::Accept`] (stops at the first
    /// that does not).
    pub fn all_accept(&self, program: &P) -> bool {
        self.verdict_iter(program)
            .all(|verdict| verdict == Verdict::Accept)
    }

    /// Per-node register sizes in bits, as reported by the program.
    pub fn memory_bits(&self, program: &P) -> Vec<u64> {
        self.graph
            .nodes()
            .map(|v| program.state_bits(&self.contexts[v.index()], &self.states[v.index()]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::NodeContext;
    use smst_graph::generators::{path_graph, random_connected_graph};

    /// Each node repeatedly adopts the minimum identity it has seen.
    struct MinId;

    impl NodeProgram for MinId {
        type State = u64;
        type Update = u64;

        fn init(&self, ctx: &NodeContext) -> u64 {
            ctx.id
        }

        fn step(&self, _ctx: &NodeContext, own: &u64, neighbors: &[&u64]) -> u64 {
            neighbors.iter().fold(*own, |acc, &&x| acc.min(x))
        }

        fn apply(state: &mut u64, update: u64) {
            *state = update;
        }

        fn verdict(&self, _ctx: &NodeContext, state: &u64) -> Verdict {
            if *state == 0 {
                Verdict::Accept
            } else {
                Verdict::Working
            }
        }

        fn state_bits(&self, _ctx: &NodeContext, _state: &u64) -> u64 {
            64
        }
    }

    #[test]
    fn activation_reads_neighbors() {
        let g = path_graph(3, 0);
        let mut net: Network<MinId> = Network::new(&MinId, g);
        // node 2 initially holds id 2
        assert_eq!(*net.state(NodeId(2)), 2);
        let rows = net.graph().neighbor_rows();
        net.activate(&MinId, &rows, NodeId(2));
        // after one activation it sees node 1's register (1)
        assert_eq!(*net.state(NodeId(2)), 1);
    }

    /// A step sensitive to the order its neighbours arrive in.
    #[derive(Clone)]
    struct PortMix;

    impl NodeProgram for PortMix {
        type State = u64;
        type Update = u64;

        fn init(&self, ctx: &NodeContext) -> u64 {
            ctx.id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        }

        fn step(&self, _ctx: &NodeContext, own: &u64, neighbors: &[&u64]) -> u64 {
            (neighbors.iter().enumerate()).fold(own.rotate_left(7), |acc, (port, &&x)| {
                acc.wrapping_mul(31).wrapping_add(x ^ port as u64)
            })
        }
        fn apply(state: &mut u64, update: u64) {
            *state = update;
        }
    }

    #[test]
    fn a_round_is_every_node_activated_on_the_previous_registers() {
        let net = Network::new(&PortMix, random_connected_graph(30, 80, 5));
        let mut stepped = net.clone();
        let mut updates = vec![0; net.node_count()];
        let rows = net.graph().neighbor_rows();
        stepped.round(&PortMix, &rows, &mut updates);
        assert_eq!(
            updates,
            stepped.states(),
            "the buffer keeps the round's updates"
        );
        for v in net.graph().nodes() {
            let mut single = net.clone();
            single.activate(&PortMix, &rows, v);
            assert_eq!(stepped.state(v), single.state(v), "{v:?}");
        }
    }

    #[test]
    fn verdicts_and_alarms() {
        let g = path_graph(3, 0);
        let net: Network<MinId> = Network::new(&MinId, g);
        let verdicts = net.verdicts(&MinId);
        assert_eq!(verdicts[0], Verdict::Accept);
        assert_eq!(verdicts[2], Verdict::Working);
        assert!(!net.any_alarm(&MinId));
        assert!(!net.all_accept(&MinId));
    }

    /// Rejects on odd registers and counts its verdict evaluations.
    struct RejectOdd(std::cell::Cell<usize>);

    impl NodeProgram for RejectOdd {
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
            self.0.set(self.0.get() + 1);
            if state % 2 == 1 {
                Verdict::Reject
            } else {
                Verdict::Accept
            }
        }
    }

    #[test]
    fn alarm_queries_agree_and_short_circuit() {
        let program = RejectOdd(std::cell::Cell::new(0));
        let net = Network::new(&program, path_graph(10, 0));
        assert_eq!(
            net.alarming_nodes(&program),
            [1, 3, 5, 7, 9].map(NodeId),
            "identities 0..10: the odd ones reject"
        );
        assert_eq!(net.alarm_count(&program), 5);
        // the stop checks end at the first deciding node (node 1)
        program.0.set(0);
        assert!(net.any_alarm(&program));
        assert_eq!(program.0.get(), 2);
        program.0.set(0);
        assert!(!net.all_accept(&program));
        assert_eq!(program.0.get(), 2);
    }

    #[test]
    fn with_states_and_mutation() {
        let g = path_graph(2, 0);
        let mut net: Network<MinId> = Network::with_states(g, vec![7, 9]);
        assert_eq!(*net.state(NodeId(1)), 9);
        *net.state_mut(NodeId(1)) = 3;
        assert_eq!(*net.state(NodeId(1)), 3);
        net.set_state(NodeId(0), 5);
        assert_eq!(net.states(), &[5, 3]);
        assert_eq!(net.memory_bits(&MinId), vec![64, 64]);
    }

    #[test]
    #[should_panic(expected = "one initial state per node")]
    fn with_states_checks_length() {
        let g = path_graph(3, 0);
        let _: Network<MinId> = Network::with_states(g, vec![1]);
    }
}
