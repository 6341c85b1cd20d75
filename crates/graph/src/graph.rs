//! The undirected, weighted, port-numbered graph underlying the network model.
//!
//! The paper's model (§2.1): each node `v` has a unique identity `ID(v)` of
//! `O(log n)` bits, and every edge incident to `v` carries a *port number*
//! that is unique at `v` (but unrelated to the port number of the same edge at
//! the other endpoint). [`WeightedGraph`] represents exactly this: nodes are
//! dense indices [`NodeId`], identities are arbitrary `u64`s, and each node's
//! incidence list defines its port numbering (port `p` of node `v` is the
//! `p`-th entry of `v`'s incidence list).
//!
//! A [`WeightedGraph`] is built once by a [`GraphBuilder`] and never changes
//! afterwards. Its tables — identities, edges and the incidence lists as
//! one [`Csr`] — sit behind one `Arc`, so every layer that takes the graph
//! by value (the instance, the verifier, each runner) shares one copy:
//! cloning a graph is a reference-count increment. The edges in ω order,
//! which Kruskal, `is_mst` and SYNC_MST all start from, are sorted the
//! first time one of them asks and shared the same way.

use crate::csr::Csr;
use crate::error::GraphError;
use crate::weight::{CompositeWeight, Weight};
use crate::Result;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A dense node index (`0..n`).
///
/// Distinct from the node's *identity* ([`WeightedGraph::id`]), which is the
/// `O(log n)`-bit value the distributed algorithms actually compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// A dense edge index (`0..m`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub usize);

/// A port number, unique among the ports of a single node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Port(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v)
    }
}

impl NodeId {
    /// Returns the underlying dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl EdgeId {
    /// Returns the underlying dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl Port {
    /// Returns the underlying port number.
    pub fn index(self) -> usize {
        self.0
    }
}

/// An undirected weighted edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// One endpoint.
    pub u: NodeId,
    /// The other endpoint.
    pub v: NodeId,
    /// The raw (possibly non-distinct) weight ω(e).
    pub weight: Weight,
}

impl Edge {
    /// Given one endpoint, returns the other.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint of this edge.
    pub fn other(&self, x: NodeId) -> NodeId {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!(
                "node {x} is not an endpoint of edge ({}, {})",
                self.u, self.v
            )
        }
    }

    /// Returns `true` if `x` is an endpoint of this edge.
    pub fn has_endpoint(&self, x: NodeId) -> bool {
        x == self.u || x == self.v
    }
}

/// Marks the end of a node's chain of edge ends in a [`GraphBuilder`].
const NO_END: usize = usize::MAX;

/// One end of an edge while the graph is built: end `2e + s` is edge `e`
/// seen from its endpoint `s` (0 for `u`, 1 for `v`).
#[derive(Debug, Clone, Copy)]
struct EdgeEnd {
    /// The endpoint on the other side.
    across: NodeId,
    /// The end added at the same node just before this one, or [`NO_END`].
    previous: usize,
}

/// A node while the graph is built: its degree so far and its newest edge
/// end, or [`NO_END`].
#[derive(Debug, Clone, Copy)]
struct Chain {
    degree: usize,
    last: usize,
}

const EMPTY_CHAIN: Chain = Chain {
    degree: 0,
    last: NO_END,
};

/// Builds a [`WeightedGraph`]: nodes first (with explicit identities or
/// defaults), then edges, then [`GraphBuilder::finish`].
///
/// The order in which edges are added is the port numbering: the `p`-th
/// edge added at `v` becomes `Port(p)` of `v`. Building allocates per
/// table, never per node — the duplicate check walks each node's edge
/// ends, chained through one flat array.
///
/// # Examples
///
/// ```
/// use smst_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new();
/// let x = b.add_node();
/// let y = b.add_node();
/// let z = b.add_node();
/// b.add_edge(x, y, 5).unwrap();
/// b.add_edge(y, z, 3).unwrap();
/// assert!(b.add_edge(z, y, 9).is_err(), "the edge exists");
/// let g = b.finish();
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.degree(y), 2);
/// assert!(g.is_connected());
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    ids: Vec<u64>,
    edges: Vec<Edge>,
    max_id: Option<u64>,
    max_weight: Option<Weight>,
    chains: Vec<Chain>,
    ends: Vec<EdgeEnd>,
}

impl GraphBuilder {
    /// Starts an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a graph with `n` isolated nodes whose identities equal their
    /// indices.
    pub fn with_nodes(n: usize) -> Self {
        GraphBuilder {
            ids: (0..n as u64).collect(),
            max_id: n.checked_sub(1).map(|top| top as u64),
            chains: vec![EMPTY_CHAIN; n],
            ..Self::default()
        }
    }

    /// Makes room for `m` more edges, so adding them does not grow the
    /// edge tables step by step.
    pub fn reserve_edges(&mut self, m: usize) {
        self.edges.reserve_exact(m);
        self.ends.reserve_exact(2 * m);
    }

    /// Adds a node whose identity is its index, returning its [`NodeId`].
    pub fn add_node(&mut self) -> NodeId {
        let id = self.ids.len() as u64;
        self.add_node_with_id(id)
    }

    /// Adds a node with an explicit identity, returning its [`NodeId`].
    pub fn add_node_with_id(&mut self, id: u64) -> NodeId {
        self.max_id = self.max_id.max(Some(id));
        self.ids.push(id);
        self.chains.push(EMPTY_CHAIN);
        NodeId(self.ids.len() - 1)
    }

    /// Adds an undirected edge of the given weight.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] if `u == v`,
    /// [`GraphError::UnknownNode`] if either endpoint does not exist, and
    /// [`GraphError::DuplicateEdge`] if the edge already exists.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, weight: Weight) -> Result<EdgeId> {
        if u == v {
            return Err(GraphError::SelfLoop(u.0));
        }
        for x in [u, v] {
            if x.0 >= self.ids.len() {
                return Err(GraphError::UnknownNode(x.0));
            }
        }
        if self.edge_between(u, v).is_some() {
            return Err(GraphError::DuplicateEdge(u.0, v.0));
        }
        let id = self.edges.len();
        self.max_weight = self.max_weight.max(Some(weight));
        self.edges.push(Edge { u, v, weight });
        for (side, (x, across)) in [(u, v), (v, u)].into_iter().enumerate() {
            let chain = &mut self.chains[x.0];
            self.ends.push(EdgeEnd {
                across,
                previous: chain.last,
            });
            chain.last = 2 * id + side;
            chain.degree += 1;
        }
        Ok(EdgeId(id))
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.ids.len()
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The edge between `u` and `v` added so far, if any (`None` when
    /// `u == v` or either node does not exist).
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        if u == v || u.0 >= self.ids.len() || v.0 >= self.ids.len() {
            return None;
        }
        // an edge is unique, so walking the shorter chain finds the same
        // one — and growing a hub stays linear from either side
        let (from, to) = if self.chains[v.0].degree < self.chains[u.0].degree {
            (v, u)
        } else {
            (u, v)
        };
        let mut end = self.chains[from.0].last;
        while end != NO_END {
            let EdgeEnd { across, previous } = self.ends[end];
            if across == to {
                return Some(EdgeId(end / 2));
            }
            end = previous;
        }
        None
    }

    /// The graph: one counting pass over the edges in the order they were
    /// added lays out every node's incidence list.
    pub fn finish(self) -> WeightedGraph {
        let GraphBuilder {
            ids,
            edges,
            max_id,
            max_weight,
            chains,
            ends,
        } = self;
        // the chains served only the duplicate check: freed before the rows
        let max_degree = chains.iter().map(|c| c.degree).max().unwrap_or(0);
        drop((chains, ends));
        // end 2e is edge e at u, end 2e + 1 at v
        let ports = (0..2 * edges.len()).map(|end| {
            let edge = &edges[end / 2];
            let at = if end % 2 == 0 { edge.u } else { edge.v };
            (at.0, EdgeId(end / 2))
        });
        let incidence = Csr::from_pairs(ids.len(), ports);
        WeightedGraph(Arc::new(Tables {
            ids: ids.into_boxed_slice(),
            edges: edges.into_boxed_slice(),
            incidence,
            max_id,
            max_weight,
            max_degree,
            by_weight: OnceLock::new(),
        }))
    }
}

/// What a [`WeightedGraph`] shares among its clones.
struct Tables {
    ids: Box<[u64]>,
    edges: Box<[Edge]>,
    /// Row `v` holds the edge ids reachable from `v`, in port order.
    incidence: Csr<EdgeId>,
    /// The largest entry of `ids` / weight in `edges` / row of `incidence`.
    max_id: Option<u64>,
    max_weight: Option<Weight>,
    max_degree: usize,
    /// The edge ids in ω order, filled on first use (see
    /// [`WeightedGraph::edges_by_weight`]).
    by_weight: OnceLock<Box<[u32]>>,
}

impl fmt::Debug for Tables {
    /// Everything but the lazily filled order, so that a graph prints the
    /// same whether or not an MST was computed on it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tables")
            .field("ids", &self.ids)
            .field("edges", &self.edges)
            .field("incidence", &self.incidence)
            .field("max_id", &self.max_id)
            .field("max_weight", &self.max_weight)
            .field("max_degree", &self.max_degree)
            .finish()
    }
}

/// An undirected, edge-weighted, port-numbered graph.
///
/// Built by a [`GraphBuilder`] and immutable from then on. The incidence
/// list of each node defines its port numbering: the `p`-th incident edge
/// of `v` is reachable through `Port(p)`. `clone()` shares the tables
/// instead of copying them.
///
/// # Examples
///
/// ```
/// use smst_graph::{GraphBuilder, NodeId, Port};
///
/// let mut b = GraphBuilder::with_nodes(3);
/// b.add_edge(NodeId(0), NodeId(1), 5).unwrap();
/// let e = b.add_edge(NodeId(1), NodeId(2), 3).unwrap();
/// let g = b.finish();
/// assert_eq!(g.edge_at_port(NodeId(1), Port(1)), Ok(e));
/// assert_eq!(g.max_degree(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct WeightedGraph(Arc<Tables>);

impl Default for WeightedGraph {
    /// The empty graph.
    fn default() -> Self {
        GraphBuilder::new().finish()
    }
}

impl WeightedGraph {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.0.ids.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.0.edges.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId)
    }

    /// The edges of the graph.
    pub fn edges(&self) -> &[Edge] {
        &self.0.edges
    }

    /// Iterator over `(EdgeId, &Edge)` pairs.
    pub fn edge_entries(&self) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges().iter().enumerate().map(|(i, e)| (EdgeId(i), e))
    }

    /// The identity `ID(v)` of a node.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn id(&self, v: NodeId) -> u64 {
        self.0.ids[v.0]
    }

    /// The largest node identity (`None` for the empty graph), in `O(1)`.
    ///
    /// Together with [`WeightedGraph::max_weight`] this is what every
    /// register-width formula reads (`bits_for(max_id)`,
    /// `bits_for(max_weight)`), once per node, instead of scanning for it.
    pub fn max_id(&self) -> Option<u64> {
        self.0.max_id
    }

    /// The largest raw edge weight (`None` for a graph without edges), in
    /// `O(1)`.
    pub fn max_weight(&self) -> Option<Weight> {
        self.0.max_weight
    }

    /// The edge record for an edge id.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.0.edges[e.0]
    }

    /// The raw weight ω(e) of an edge.
    pub fn weight(&self, e: EdgeId) -> Weight {
        self.edge(e).weight
    }

    /// The composite (perturbed, guaranteed-distinct) weight ω′(e) of §2.1.
    ///
    /// `in_candidate_tree` is the indicator `Y(e)`: whether `e` belongs to the
    /// candidate tree being verified.
    pub fn composite_weight(&self, e: EdgeId, in_candidate_tree: bool) -> CompositeWeight {
        let edge = self.edge(e);
        CompositeWeight::new(
            edge.weight,
            in_candidate_tree,
            self.id(edge.u),
            self.id(edge.v),
        )
    }

    /// The edge ids by ascending ω: raw weight, then smaller endpoint
    /// identity, then larger, then edge id — ω′ of §2.1 with no candidate
    /// tree. Sorted on the first call (`O(m log m)`, 16 bytes per edge while
    /// it lasts) and kept at 4 bytes per edge, shared by every clone.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than `u32::MAX` edges.
    pub(crate) fn edges_by_weight(&self) -> &[u32] {
        self.0.by_weight.get_or_init(|| {
            let (ids, edges) = (&self.0.ids, &self.0.edges);
            let mut keyed: Vec<(Weight, u32)> = (edges.iter().enumerate())
                .map(|(e, edge)| {
                    let e = u32::try_from(e).expect("an edge id below 2³²");
                    (edge.weight, e)
                })
                .collect();
            // distinct weights never reach the identities
            let tail = |e: u32| {
                let edge = &edges[e as usize];
                let (a, b) = (ids[edge.u.0], ids[edge.v.0]);
                (a.min(b), a.max(b), e)
            };
            keyed.sort_unstable_by(|x, y| x.0.cmp(&y.0).then_with(|| tail(x.1).cmp(&tail(y.1))));
            keyed.into_iter().map(|(_, e)| e).collect()
        })
    }

    /// The degree of a node.
    pub fn degree(&self, v: NodeId) -> usize {
        self.incident_edges(v).len()
    }

    /// The maximum degree Δ of the graph (0 for an empty graph), in `O(1)`.
    pub fn max_degree(&self) -> usize {
        self.0.max_degree
    }

    /// The edges incident to a node, in port order.
    pub fn incident_edges(&self, v: NodeId) -> &[EdgeId] {
        self.0.incidence.row(v.0)
    }

    /// The neighbours of a node, in port order.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.incident_edges(v)
            .iter()
            .map(move |&e| self.edge(e).other(v))
    }

    /// The edge reachable from `v` through `port`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownPort`] if the port does not exist at `v`.
    pub fn edge_at_port(&self, v: NodeId, port: Port) -> Result<EdgeId> {
        self.incident_edges(v)
            .get(port.0)
            .copied()
            .ok_or(GraphError::UnknownPort {
                node: v.0,
                port: port.0,
            })
    }

    /// The neighbour reachable from `v` through `port`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownPort`] if the port does not exist at `v`.
    pub fn neighbor_at_port(&self, v: NodeId, port: Port) -> Result<NodeId> {
        Ok(self.edge(self.edge_at_port(v, port)?).other(v))
    }

    /// The port through which `v` reaches neighbour `u`, if the edge exists.
    pub fn port_to(&self, v: NodeId, u: NodeId) -> Option<Port> {
        self.neighbors(v).position(|w| w == u).map(Port)
    }

    /// The edge between `u` and `v`, if present (`None` when `u == v`, since
    /// self-loops are not allowed).
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        if u == v || u.0 >= self.node_count() || v.0 >= self.node_count() {
            return None;
        }
        // an edge is unique, so scanning the shorter incidence list finds
        // the same one
        let (from, to) = if self.degree(v) < self.degree(u) {
            (v, u)
        } else {
            (u, v)
        };
        self.incident_edges(from)
            .iter()
            .copied()
            .find(|&e| self.edge(e).has_endpoint(to))
    }

    /// Breadth-first hop distances from `source` (`usize::MAX` for unreachable
    /// nodes).
    pub fn bfs_distances(&self, source: NodeId) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.node_count()];
        let mut queue = VecDeque::new();
        dist[source.0] = 0;
        queue.push_back(source);
        while let Some(v) = queue.pop_front() {
            for u in self.neighbors(v) {
                if dist[u.0] == usize::MAX {
                    dist[u.0] = dist[v.0] + 1;
                    queue.push_back(u);
                }
            }
        }
        dist
    }

    /// Hop distance between two nodes (`None` if unreachable).
    pub fn hop_distance(&self, u: NodeId, v: NodeId) -> Option<usize> {
        let d = self.bfs_distances(u)[v.0];
        if d == usize::MAX {
            None
        } else {
            Some(d)
        }
    }

    /// Whether the graph is connected (the empty graph counts as connected).
    pub fn is_connected(&self) -> bool {
        if self.node_count() == 0 {
            return true;
        }
        self.bfs_distances(NodeId(0))
            .iter()
            .all(|&d| d != usize::MAX)
    }

    /// The hop diameter of the graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Disconnected`] if the graph is not connected.
    pub fn diameter(&self) -> Result<usize> {
        if !self.is_connected() {
            return Err(GraphError::Disconnected);
        }
        let mut diam = 0;
        for v in self.nodes() {
            let d = self.bfs_distances(v);
            diam = diam.max(
                d.into_iter()
                    .filter(|&x| x != usize::MAX)
                    .max()
                    .unwrap_or(0),
            );
        }
        Ok(diam)
    }

    /// Total weight of a set of edges.
    pub fn total_weight<I: IntoIterator<Item = EdgeId>>(&self, edges: I) -> u128 {
        edges.into_iter().map(|e| u128::from(self.weight(e))).sum()
    }

    /// Returns `true` if all raw edge weights are pairwise distinct.
    pub fn has_distinct_weights(&self) -> bool {
        let mut ws: Vec<Weight> = self.edges().iter().map(|e| e.weight).collect();
        ws.sort_unstable();
        ws.windows(2).all(|w| w[0] != w[1])
    }
}

impl fmt::Display for WeightedGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "WeightedGraph(n={}, m={}, Δ={})",
            self.node_count(),
            self.edge_count(),
            self.max_degree()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> WeightedGraph {
        let mut b = GraphBuilder::with_nodes(3);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 2).unwrap();
        b.add_edge(NodeId(2), NodeId(0), 3).unwrap();
        b.finish()
    }

    #[test]
    fn add_nodes_and_edges() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(NodeId(0)), 2);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::with_nodes(2);
        assert_eq!(
            b.add_edge(NodeId(0), NodeId(0), 1),
            Err(GraphError::SelfLoop(0))
        );
    }

    #[test]
    fn rejects_duplicate_edge() {
        let mut b = GraphBuilder::with_nodes(2);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        assert_eq!(
            b.add_edge(NodeId(1), NodeId(0), 9),
            Err(GraphError::DuplicateEdge(1, 0))
        );
        assert_eq!(b.finish().edge_count(), 1);
    }

    #[test]
    fn rejects_unknown_node() {
        let mut b = GraphBuilder::with_nodes(2);
        assert_eq!(
            b.add_edge(NodeId(0), NodeId(7), 1),
            Err(GraphError::UnknownNode(7))
        );
        assert_eq!(
            b.add_edge(NodeId(9), NodeId(1), 1),
            Err(GraphError::UnknownNode(9))
        );
    }

    #[test]
    fn port_numbering_round_trip() {
        let g = triangle();
        for v in g.nodes() {
            for (p, &e) in g.incident_edges(v).iter().enumerate() {
                assert_eq!(g.edge_at_port(v, Port(p)).unwrap(), e);
                let u = g.neighbor_at_port(v, Port(p)).unwrap();
                assert_eq!(g.port_to(v, u), Some(Port(p)));
            }
        }
    }

    #[test]
    fn unknown_port_is_an_error() {
        let g = triangle();
        assert!(matches!(
            g.edge_at_port(NodeId(0), Port(5)),
            Err(GraphError::UnknownPort { node: 0, port: 5 })
        ));
    }

    #[test]
    fn edge_between_is_symmetric() {
        let g = triangle();
        assert_eq!(
            g.edge_between(NodeId(0), NodeId(1)),
            g.edge_between(NodeId(1), NodeId(0))
        );
        assert!(g.edge_between(NodeId(0), NodeId(0)).is_none());
        let g = crate::generators::random_connected_graph(60, 240, 17);
        for u in g.nodes() {
            for v in g.nodes() {
                let edge = g.edge_between(u, v);
                assert_eq!(edge, g.edge_between(v, u), "{u:?} {v:?}");
                assert_eq!(edge.is_some(), u != v && g.neighbors(u).any(|w| w == v));
            }
        }
    }

    #[test]
    fn a_hub_grows_in_linear_time() {
        // `add_edge` checks for a duplicate by walking an endpoint's chain
        // of edges; from the hub's side that walk made this star quadratic
        // (seconds at this size)
        let n = 100_000;
        let g = crate::generators::star_graph(n, 1);
        assert_eq!(g.edge_count(), n - 1);
        assert_eq!(g.degree(NodeId(0)), n - 1);
    }

    #[test]
    fn bfs_and_diameter() {
        let mut b = GraphBuilder::with_nodes(4);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 1).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 1).unwrap();
        let g = b.finish();
        assert_eq!(g.bfs_distances(NodeId(0)), vec![0, 1, 2, 3]);
        assert_eq!(g.diameter().unwrap(), 3);
        assert_eq!(g.hop_distance(NodeId(0), NodeId(3)), Some(3));
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut b = GraphBuilder::with_nodes(4);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 1).unwrap();
        let g = b.finish();
        assert!(!g.is_connected());
        assert_eq!(g.diameter(), Err(GraphError::Disconnected));
        assert_eq!(g.hop_distance(NodeId(0), NodeId(3)), None);
    }

    #[test]
    fn composite_weight_uses_node_identities() {
        let mut b = GraphBuilder::new();
        let x = b.add_node_with_id(100);
        let y = b.add_node_with_id(7);
        let e = b.add_edge(x, y, 42).unwrap();
        let w = b.finish().composite_weight(e, true);
        assert_eq!(w.weight, 42);
        assert_eq!(w.id_min, 7);
        assert_eq!(w.id_max, 100);
        assert!(w.in_candidate_tree());
    }

    #[test]
    fn distinct_weight_detection() {
        let mut b = GraphBuilder::with_nodes(3);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 1).unwrap();
        assert!(!b.finish().has_distinct_weights());
        assert!(triangle().has_distinct_weights());
    }

    #[test]
    fn total_weight_sums() {
        let g = triangle();
        let all: Vec<EdgeId> = (0..3).map(EdgeId).collect();
        assert_eq!(g.total_weight(all), 6);
    }

    /// The incidence lists as a naive `Vec<Vec<_>>`: every edge, in id
    /// order, appended at `u` and then at `v`.
    fn naive_incidence(g: &WeightedGraph) -> Vec<Vec<EdgeId>> {
        let mut lists = vec![Vec::new(); g.node_count()];
        for (e, edge) in g.edge_entries() {
            lists[edge.u.0].push(e);
            lists[edge.v.0].push(e);
        }
        lists
    }

    /// The scans the `O(1)` accessors replace, the port order against the
    /// naive lists, and a clone that shares rather than copies.
    fn assert_tables_match_scans(g: &WeightedGraph, what: &str) {
        let scanned_id = g.nodes().map(|v| g.id(v)).max();
        let scanned_w = g.edges().iter().map(|e| e.weight).max();
        let naive = naive_incidence(g);
        let scanned_degree = naive.iter().map(Vec::len).max().unwrap_or(0);
        assert_eq!(g.max_id(), scanned_id, "max_id of {what}");
        assert_eq!(g.max_weight(), scanned_w, "max_weight of {what}");
        assert_eq!(g.max_degree(), scanned_degree, "max_degree of {what}");
        for v in g.nodes() {
            assert_eq!(g.incident_edges(v), naive[v.0], "ports of {v} in {what}");
        }
        let copy = g.clone();
        assert!(Arc::ptr_eq(&g.0, &copy.0), "a clone of {what} copied it");
    }

    #[test]
    fn maxima_match_the_scans_however_the_graph_was_built() {
        use crate::generators::*;
        use smst_rng::{Rng, SeedableRng, StdRng};

        let empty = GraphBuilder::new().finish();
        assert_eq!((empty.max_id(), empty.max_weight()), (None, None));
        assert_tables_match_scans(&empty, "the empty graph");
        assert_tables_match_scans(&WeightedGraph::default(), "the default graph");
        let mut single = GraphBuilder::new();
        single.add_node_with_id(17);
        let single = single.finish();
        assert_eq!((single.max_id(), single.max_weight()), (Some(17), None));
        assert_tables_match_scans(&GraphBuilder::with_nodes(1).finish(), "with_nodes(1)");

        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // hand-built: default and sparse unsorted identities mixed,
            // random weights (ties allowed), checked after every insertion
            let n = rng.gen_range(2usize..40);
            let mut b = GraphBuilder::with_nodes(rng.gen_range(0usize..4));
            while b.node_count() < n {
                if rng.gen_range(0u32..3) == 0 {
                    b.add_node();
                } else {
                    b.add_node_with_id(rng.gen_range(0u64..1 << 40));
                }
                assert_tables_match_scans(&b.clone().finish(), "a graph under construction");
            }
            for _ in 0..3 * n {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                // rejected insertions (loops, duplicates) must not count
                let _ = b.add_edge(NodeId(u), NodeId(v), rng.gen_range(0u64..50));
                assert_tables_match_scans(&b.clone().finish(), "a graph under construction");
            }
            // the builder's chains and the built rows agree on every pair
            let g = b.clone().finish();
            for u in g.nodes() {
                for v in g.nodes() {
                    assert_eq!(b.edge_between(u, v), g.edge_between(u, v), "{u} {v}");
                }
            }

            let n = 8 + seed as usize;
            for (name, g) in [
                ("path", path_graph(n, seed)),
                ("ring", ring_graph(n, seed)),
                ("complete", complete_graph(n.min(12), seed)),
                ("star", star_graph(n, seed)),
                ("grid", grid_graph(3, n / 2, seed)),
                ("caterpillar", caterpillar_graph(n / 2, 2, seed)),
                ("random_connected", random_connected_graph(n, 3 * n, seed)),
                ("scrambled_ids", random_graph_scrambled_ids(n, 2 * n, seed)),
                ("expander", expander_graph(2 * n, 4, seed)),
                ("kmw_cluster_tree", kmw_cluster_tree(2, 3, seed)),
                ("kmw_hybrid", kmw_hybrid_graph(2, 3, seed)),
            ] {
                assert_tables_match_scans(&g, name);
            }
            let g = random_graph_scrambled_ids(n, 2 * n, seed);
            let tree = crate::mst::kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
            let blown = crate::blowup::blowup(&g, &tree, 2);
            assert_tables_match_scans(&blown.graph, "blowup");
        }
    }

    #[test]
    fn the_weight_order_is_sorted_once_per_graph() {
        let tied = || {
            let g = crate::generators::random_graph_scrambled_ids(40, 120, 1);
            crate::generators::reweighted(&g, |_, w| w % 5)
        };
        let g = tied();
        assert!(tied().0.by_weight.get().is_none(), "filled before use");
        let first = g.edges_by_weight();
        assert!(std::ptr::eq(first, g.edges_by_weight()), "a second call");
        assert!(std::ptr::eq(first, g.clone().edges_by_weight()), "a clone");
        assert_eq!(format!("{g:?}"), format!("{:?}", tied()), "in Debug");
        let key = |&e: &u32| {
            let edge = g.edge(EdgeId(e as usize));
            let (a, b) = (g.id(edge.u), g.id(edge.v));
            (edge.weight, a.min(b), a.max(b), e)
        };
        assert!(first.windows(2).all(|w| key(&w[0]) < key(&w[1])));
        assert_eq!(first.len(), g.edge_count());
    }

    #[test]
    fn display_formats() {
        let g = triangle();
        assert_eq!(g.to_string(), "WeightedGraph(n=3, m=3, Δ=2)");
        assert_eq!(NodeId(4).to_string(), "v4");
        assert_eq!(EdgeId(2).to_string(), "e2");
        assert_eq!(Port(1).to_string(), "p1");
    }
}
