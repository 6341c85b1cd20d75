//! The proof-labeling-scheme framework (§2.4).
//!
//! A proof labeling scheme for a predicate Ψ consists of a *marker* `M` that
//! assigns a label to every node of a correct instance, and a *verifier* `V`
//! that runs at every node forever and must
//!
//! * accept everywhere when the instance satisfies Ψ and the labels are the
//!   marker's, and
//! * raise an alarm at some node (within the scheme's detection time) when the
//!   instance violates Ψ, **no matter what labels an adversary assigned**.
//!
//! This module defines the *1-round* flavour ([`OneRoundScheme`]): the
//! verifier at `v` sees only `v`'s own label, the labels of `v`'s neighbours,
//! and `v`'s local input (identity, ports, edge weights, component pointer).
//! 1-round schemes are trivially self-stabilizing. The paper's main scheme is
//! *not* 1-round; it lives in `smst-core` and uses the simulator directly.

use smst_graph::{ComponentMap, GraphError, NodeId, Port, RootedTree, WeightedGraph};
use std::fmt;

/// A distributed instance: the network graph together with the candidate
/// subgraph `H(G)` represented by per-node components (§2.1).
#[derive(Debug, Clone)]
pub struct Instance {
    /// The network.
    pub graph: WeightedGraph,
    /// The per-node component pointers describing the candidate subgraph.
    pub components: ComponentMap,
}

impl Instance {
    /// Bundles a graph and a component map.
    pub fn new(graph: WeightedGraph, components: ComponentMap) -> Self {
        Instance { graph, components }
    }

    /// Builds the instance whose candidate subgraph is the given rooted tree.
    pub fn from_tree(graph: WeightedGraph, tree: &RootedTree) -> Self {
        let components = ComponentMap::from_rooted_tree(&graph, tree);
        Instance { graph, components }
    }

    /// The rooted spanning tree described by the components, if they describe
    /// one.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NotASpanningTree`] when the components do not
    /// induce a spanning tree.
    pub fn candidate_tree(&self) -> Result<RootedTree, GraphError> {
        self.components.rooted_spanning_tree(&self.graph)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// `true` if the candidate subgraph is an MST of the graph: the
    /// components designate a root, as [`Self::candidate_tree`] requires,
    /// and [`smst_graph::mst::is_mst`] checks the edges they induce, which
    /// span the graph iff they are `n − 1` and close no cycle. No tree is
    /// rooted.
    pub fn satisfies_mst(&self) -> bool {
        let (g, components) = (&self.graph, &self.components);
        components.node_count() == g.node_count()
            && components.designated_root(g).is_ok()
            && smst_graph::mst::is_mst(g, &components.induced_edges(g))
    }
}

/// Why a marker refused to label an instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MarkError {
    /// The instance does not satisfy the scheme's predicate, so there is
    /// nothing to prove.
    PredicateViolated(String),
    /// The instance is malformed (e.g. the components do not induce a
    /// spanning tree when the predicate assumes one).
    MalformedInstance(String),
}

impl fmt::Display for MarkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarkError::PredicateViolated(msg) => write!(f, "predicate violated: {msg}"),
            MarkError::MalformedInstance(msg) => write!(f, "malformed instance: {msg}"),
        }
    }
}

impl std::error::Error for MarkError {}

impl From<GraphError> for MarkError {
    fn from(err: GraphError) -> Self {
        MarkError::MalformedInstance(err.to_string())
    }
}

/// What the verifier at node `v` can see in one round: its own label and the
/// labels of its neighbours, indexed by port.
#[derive(Debug)]
pub struct LabelView<'a, L> {
    /// The node being verified.
    pub node: NodeId,
    /// The node's own label.
    pub own: &'a L,
    /// Neighbour labels, `neighbor[p]` behind port `p`.
    pub neighbors: Vec<&'a L>,
}

impl<'a, L> LabelView<'a, L> {
    /// The label behind a port.
    ///
    /// # Panics
    ///
    /// Panics if the port is out of range.
    pub fn at(&self, port: Port) -> &'a L {
        self.neighbors[port.index()]
    }

    /// Number of neighbours.
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }
}

/// A 1-round proof labeling scheme.
pub trait OneRoundScheme {
    /// The per-node label type.
    type Label: Clone + fmt::Debug;

    /// A short, stable name used in reports.
    fn name(&self) -> &str;

    /// The (centralized) marker: labels a *correct* instance.
    ///
    /// # Errors
    ///
    /// Returns a [`MarkError`] if the instance does not satisfy the scheme's
    /// predicate.
    fn mark(&self, instance: &Instance) -> Result<Vec<Self::Label>, MarkError>;

    /// The 1-round verifier at a node. Returns `true` to accept, `false` to
    /// raise an alarm.
    fn verify_at(&self, instance: &Instance, view: &LabelView<'_, Self::Label>) -> bool;

    /// The number of bits a faithful encoding of the label uses.
    fn label_bits(&self, instance: &Instance, node: NodeId, label: &Self::Label) -> u64;
}

/// The outcome of running a 1-round verifier at every node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerificationOutcome {
    /// Nodes that raised an alarm.
    pub rejecting: Vec<NodeId>,
}

impl VerificationOutcome {
    /// `true` if every node accepted.
    pub fn accepted(&self) -> bool {
        self.rejecting.is_empty()
    }
}

/// Runs the verifier of a 1-round scheme at every node of the instance.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the number of nodes.
pub fn verify_all<S: OneRoundScheme>(
    scheme: &S,
    instance: &Instance,
    labels: &[S::Label],
) -> VerificationOutcome {
    assert_eq!(
        labels.len(),
        instance.node_count(),
        "one label per node is required"
    );
    let g = &instance.graph;
    let rejecting = g
        .nodes()
        .filter(|&v| {
            let view = LabelView {
                node: v,
                own: &labels[v.index()],
                neighbors: g
                    .incident_edges(v)
                    .iter()
                    .map(|&e| &labels[g.edge(e).other(v).index()])
                    .collect(),
            };
            !scheme.verify_at(instance, &view)
        })
        .collect();
    VerificationOutcome { rejecting }
}

/// The maximum label size (in bits) over all nodes — the scheme's memory-size
/// measure for the marker part.
pub fn max_label_bits<S: OneRoundScheme>(
    scheme: &S,
    instance: &Instance,
    labels: &[S::Label],
) -> u64 {
    instance
        .graph
        .nodes()
        .map(|v| scheme.label_bits(instance, v, &labels[v.index()]))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smst_graph::generators::random_connected_graph;
    use smst_graph::mst::kruskal;

    fn mst_instance(n: usize, m: usize, seed: u64) -> Instance {
        let g = random_connected_graph(n, m, seed);
        let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
        Instance::from_tree(g, &tree)
    }

    /// A toy scheme: the label is the node's degree; the verifier checks it.
    struct DegreeScheme;
    impl OneRoundScheme for DegreeScheme {
        type Label = usize;
        fn name(&self) -> &str {
            "degree"
        }
        fn mark(&self, instance: &Instance) -> Result<Vec<usize>, MarkError> {
            Ok(instance
                .graph
                .nodes()
                .map(|v| instance.graph.degree(v))
                .collect())
        }
        fn verify_at(&self, instance: &Instance, view: &LabelView<'_, usize>) -> bool {
            *view.own == instance.graph.degree(view.node)
        }
        fn label_bits(&self, _i: &Instance, _v: NodeId, _l: &usize) -> u64 {
            8
        }
    }

    #[test]
    fn instance_mst_check() {
        let inst = mst_instance(12, 30, 1);
        assert!(inst.satisfies_mst());
        assert!(inst.candidate_tree().is_ok());
        assert_eq!(inst.node_count(), 12);
    }

    #[test]
    fn broken_components_fail_mst_check() {
        let mut inst = mst_instance(8, 20, 2);
        inst.components.set_pointer(NodeId(3), None);
        // two pointer-less nodes (the root and node 3) -> not a spanning tree
        assert!(!inst.satisfies_mst());
    }

    /// The MST check by rooting the candidate tree first: the reference
    /// `satisfies_mst` must agree with.
    fn satisfies_mst_by_rooting(inst: &Instance) -> bool {
        match inst.candidate_tree() {
            Ok(tree) => smst_graph::mst::is_mst(&inst.graph, &tree.edges()),
            Err(_) => false,
        }
    }

    #[test]
    fn mst_check_agrees_with_rooting_the_tree() {
        use smst_graph::generators::{random_graph_scrambled_ids, reweighted};
        use smst_rng::{Rng, SeedableRng, StdRng};

        let empty = Instance::new(WeightedGraph::default(), ComponentMap::empty(0));
        assert!(!empty.satisfies_mst() && !satisfies_mst_by_rooting(&empty));
        let mut rng = StdRng::seed_from_u64(7);
        let (mut held, mut seen) = (0, 0);
        for seed in 0..300u64 {
            let n = rng.gen_range(1usize..30);
            let g = random_graph_scrambled_ids(n, 3 * n, seed);
            // ties on every third seed, so that another MST may be the candidate
            let g = reweighted(&g, |_, w| if seed % 3 == 0 { w % 4 } else { w });
            let shuffled = reweighted(&g, |_, w| (w << 20) | rng.gen_range(0..1u64 << 20));
            let tree = kruskal(&shuffled).rooted_at(&g, NodeId(rng.gen_range(0..n)));
            let mut inst = Instance::from_tree(g, &tree.unwrap());
            // malformed maps: cleared pointers, pointers at any port
            // (invalid ones too), mutual pairs, a map of the wrong size
            for _ in 0..rng.gen_range(0u32..4) {
                let v = NodeId(rng.gen_range(0..n));
                let degree = inst.graph.degree(v);
                let port = match rng.gen_range(0u32..3) {
                    0 => None,
                    _ => Some(Port(rng.gen_range(0..degree + 2))),
                };
                inst.components.set_pointer(v, port);
            }
            if rng.gen_range(0u32..20) == 0 {
                inst.components = ComponentMap::empty(n + 1);
            }
            let answer = satisfies_mst_by_rooting(&inst);
            assert_eq!(inst.satisfies_mst(), answer, "seed {seed}");
            held += usize::from(answer);
            seen += 1;
        }
        assert!(held > 30 && seen - held > 30, "{held} of {seen} hold");
    }

    #[test]
    fn verify_all_accepts_marker_labels() {
        let inst = mst_instance(10, 20, 3);
        let labels = DegreeScheme.mark(&inst).unwrap();
        let outcome = verify_all(&DegreeScheme, &inst, &labels);
        assert!(outcome.accepted());
        assert!(max_label_bits(&DegreeScheme, &inst, &labels) == 8);
    }

    #[test]
    fn verify_all_localizes_corruption() {
        let inst = mst_instance(10, 20, 4);
        let mut labels = DegreeScheme.mark(&inst).unwrap();
        labels[5] = 999;
        let outcome = verify_all(&DegreeScheme, &inst, &labels);
        assert_eq!(outcome.rejecting, vec![NodeId(5)]);
        assert!(!outcome.accepted());
    }

    #[test]
    fn mark_error_display() {
        let e = MarkError::PredicateViolated("not an MST".into());
        assert!(e.to_string().contains("not an MST"));
        let e2: MarkError = GraphError::Disconnected.into();
        assert!(matches!(e2, MarkError::MalformedInstance(_)));
    }

    #[test]
    #[should_panic(expected = "one label per node")]
    fn verify_all_checks_label_count() {
        let inst = mst_instance(5, 8, 5);
        let _ = verify_all(&DegreeScheme, &inst, &[1, 2]);
    }
}
