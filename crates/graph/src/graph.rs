//! The undirected, weighted, port-numbered graph underlying the network model.
//!
//! The paper's model (§2.1): each node `v` has a unique identity `ID(v)` of
//! `O(log n)` bits, and every edge incident to `v` carries a *port number*
//! that is unique at `v` (but unrelated to the port number of the same edge at
//! the other endpoint). [`WeightedGraph`] represents exactly this: nodes are
//! dense indices [`NodeId`], identities are arbitrary `u64`s, and each node's
//! incidence list defines its port numbering (port `p` of node `v` is the
//! `p`-th entry of `v`'s incidence list).

use crate::error::GraphError;
use crate::weight::{CompositeWeight, Weight};
use crate::Result;
use std::collections::VecDeque;
use std::fmt;

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

/// An undirected, edge-weighted, port-numbered graph.
///
/// Nodes are added first (with explicit identities or defaults), then edges.
/// The incidence list of each node defines its port numbering: the `p`-th
/// incident edge of `v` is reachable through `Port(p)`.
///
/// # Examples
///
/// ```
/// use smst_graph::{WeightedGraph, NodeId};
///
/// let mut g = WeightedGraph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// let c = g.add_node();
/// g.add_edge(a, b, 5).unwrap();
/// g.add_edge(b, c, 3).unwrap();
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.degree(b), 2);
/// assert!(g.is_connected());
/// ```
#[derive(Debug, Clone, Default)]
pub struct WeightedGraph {
    ids: Vec<u64>,
    edges: Vec<Edge>,
    /// incidence[v][p] = edge id reachable from v through port p.
    incidence: Vec<Vec<EdgeId>>,
    /// The largest entry of `ids` / largest weight in `edges`: the graph is
    /// append-only, so both are kept current by the two mutators below.
    max_id: Option<u64>,
    max_weight: Option<Weight>,
}

impl WeightedGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph with `n` isolated nodes whose identities equal their
    /// indices.
    pub fn with_nodes(n: usize) -> Self {
        let mut g = Self::new();
        for _ in 0..n {
            g.add_node();
        }
        g
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
        self.incidence.push(Vec::new());
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
        self.check_node(u)?;
        self.check_node(v)?;
        if self.edge_between(u, v).is_some() {
            return Err(GraphError::DuplicateEdge(u.0, v.0));
        }
        let id = EdgeId(self.edges.len());
        self.max_weight = self.max_weight.max(Some(weight));
        self.edges.push(Edge { u, v, weight });
        self.incidence[u.0].push(id);
        self.incidence[v.0].push(id);
        Ok(id)
    }

    fn check_node(&self, v: NodeId) -> Result<()> {
        if v.0 < self.ids.len() {
            Ok(())
        } else {
            Err(GraphError::UnknownNode(v.0))
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.ids.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.ids.len()).map(NodeId)
    }

    /// The edges of the graph.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Iterator over `(EdgeId, &Edge)` pairs.
    pub fn edge_entries(&self) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges.iter().enumerate().map(|(i, e)| (EdgeId(i), e))
    }

    /// The identity `ID(v)` of a node.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn id(&self, v: NodeId) -> u64 {
        self.ids[v.0]
    }

    /// The largest node identity (`None` for the empty graph), in `O(1)`.
    ///
    /// Together with [`WeightedGraph::max_weight`] this is what every
    /// register-width formula reads (`bits_for(max_id)`,
    /// `bits_for(max_weight)`), once per node, instead of scanning for it.
    pub fn max_id(&self) -> Option<u64> {
        self.max_id
    }

    /// The largest raw edge weight (`None` for a graph without edges), in
    /// `O(1)`.
    pub fn max_weight(&self) -> Option<Weight> {
        self.max_weight
    }

    /// Looks up a node by identity, if present.
    pub fn node_by_id(&self, id: u64) -> Option<NodeId> {
        self.ids.iter().position(|&x| x == id).map(NodeId)
    }

    /// The edge record for an edge id.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.0]
    }

    /// The raw weight ω(e) of an edge.
    pub fn weight(&self, e: EdgeId) -> Weight {
        self.edges[e.0].weight
    }

    /// The composite (perturbed, guaranteed-distinct) weight ω′(e) of §2.1.
    ///
    /// `in_candidate_tree` is the indicator `Y(e)`: whether `e` belongs to the
    /// candidate tree being verified.
    pub fn composite_weight(&self, e: EdgeId, in_candidate_tree: bool) -> CompositeWeight {
        let edge = &self.edges[e.0];
        CompositeWeight::new(
            edge.weight,
            in_candidate_tree,
            self.id(edge.u),
            self.id(edge.v),
        )
    }

    /// The degree of a node.
    pub fn degree(&self, v: NodeId) -> usize {
        self.incidence[v.0].len()
    }

    /// The maximum degree Δ of the graph (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.incidence.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The edges incident to a node, in port order.
    pub fn incident_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.incidence[v.0]
    }

    /// The neighbours of a node, in port order.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.incidence[v.0]
            .iter()
            .map(move |&e| self.edges[e.0].other(v))
    }

    /// The edge reachable from `v` through `port`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownPort`] if the port does not exist at `v`.
    pub fn edge_at_port(&self, v: NodeId, port: Port) -> Result<EdgeId> {
        self.incidence[v.0]
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
        Ok(self.edges[self.edge_at_port(v, port)?.0].other(v))
    }

    /// The port through which `v` reaches neighbour `u`, if the edge exists.
    pub fn port_to(&self, v: NodeId, u: NodeId) -> Option<Port> {
        self.incidence[v.0]
            .iter()
            .position(|&e| self.edges[e.0].other(v) == u)
            .map(Port)
    }

    /// The edge between `u` and `v`, if present (`None` when `u == v`, since
    /// self-loops are not allowed).
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        if u == v || u.0 >= self.ids.len() || v.0 >= self.ids.len() {
            return None;
        }
        // an edge is unique, so scanning the shorter incidence list finds
        // the same one — and growing a hub stays linear from either side
        let (from, to) = if self.incidence[v.0].len() < self.incidence[u.0].len() {
            (v, u)
        } else {
            (u, v)
        };
        self.incidence[from.0]
            .iter()
            .copied()
            .find(|&e| self.edges[e.0].has_endpoint(to))
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
        edges
            .into_iter()
            .map(|e| u128::from(self.edges[e.0].weight))
            .sum()
    }

    /// Returns `true` if all raw edge weights are pairwise distinct.
    pub fn has_distinct_weights(&self) -> bool {
        let mut ws: Vec<Weight> = self.edges.iter().map(|e| e.weight).collect();
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
        let mut g = WeightedGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 2).unwrap();
        g.add_edge(NodeId(2), NodeId(0), 3).unwrap();
        g
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
        let mut g = WeightedGraph::with_nodes(2);
        assert_eq!(
            g.add_edge(NodeId(0), NodeId(0), 1),
            Err(GraphError::SelfLoop(0))
        );
    }

    #[test]
    fn rejects_duplicate_edge() {
        let mut g = WeightedGraph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        assert_eq!(
            g.add_edge(NodeId(1), NodeId(0), 9),
            Err(GraphError::DuplicateEdge(1, 0))
        );
    }

    #[test]
    fn rejects_unknown_node() {
        let mut g = WeightedGraph::with_nodes(2);
        assert_eq!(
            g.add_edge(NodeId(0), NodeId(7), 1),
            Err(GraphError::UnknownNode(7))
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
        // `add_edge` checks for a duplicate by scanning an endpoint's
        // incidence list; from the hub's side that scan made this star
        // quadratic (seconds at this size)
        let n = 100_000;
        let g = crate::generators::star_graph(n, 1);
        assert_eq!(g.edge_count(), n - 1);
        assert_eq!(g.degree(NodeId(0)), n - 1);
    }

    #[test]
    fn bfs_and_diameter() {
        let mut g = WeightedGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 1).unwrap();
        assert_eq!(g.bfs_distances(NodeId(0)), vec![0, 1, 2, 3]);
        assert_eq!(g.diameter().unwrap(), 3);
        assert_eq!(g.hop_distance(NodeId(0), NodeId(3)), Some(3));
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut g = WeightedGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 1).unwrap();
        assert!(!g.is_connected());
        assert_eq!(g.diameter(), Err(GraphError::Disconnected));
        assert_eq!(g.hop_distance(NodeId(0), NodeId(3)), None);
    }

    #[test]
    fn composite_weight_uses_node_identities() {
        let mut g = WeightedGraph::new();
        let a = g.add_node_with_id(100);
        let b = g.add_node_with_id(7);
        let e = g.add_edge(a, b, 42).unwrap();
        let w = g.composite_weight(e, true);
        assert_eq!(w.weight, 42);
        assert_eq!(w.id_min, 7);
        assert_eq!(w.id_max, 100);
        assert!(w.in_candidate_tree());
    }

    #[test]
    fn distinct_weight_detection() {
        let mut g = WeightedGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1).unwrap();
        assert!(!g.has_distinct_weights());
        let g2 = triangle();
        assert!(g2.has_distinct_weights());
    }

    #[test]
    fn total_weight_sums() {
        let g = triangle();
        let all: Vec<EdgeId> = (0..3).map(EdgeId).collect();
        assert_eq!(g.total_weight(all), 6);
    }

    #[test]
    fn node_by_id_lookup() {
        let mut g = WeightedGraph::new();
        g.add_node_with_id(55);
        g.add_node_with_id(66);
        assert_eq!(g.node_by_id(66), Some(NodeId(1)));
        assert_eq!(g.node_by_id(1), None);
    }

    /// The scans the accessors replace.
    fn assert_maxima_match_scans(g: &WeightedGraph, what: &str) {
        let scanned_id = g.nodes().map(|v| g.id(v)).max();
        let scanned_w = g.edges().iter().map(|e| e.weight).max();
        assert_eq!(g.max_id(), scanned_id, "max_id of {what}");
        assert_eq!(g.max_weight(), scanned_w, "max_weight of {what}");
        let copy = g.clone();
        assert_eq!(copy.max_id(), scanned_id, "max_id of a clone of {what}");
        assert_eq!(
            copy.max_weight(),
            scanned_w,
            "max_weight of a clone of {what}"
        );
    }

    #[test]
    fn maxima_match_the_scans_however_the_graph_was_built() {
        use crate::generators::*;
        use smst_rng::{Rng, SeedableRng, StdRng};

        let empty = WeightedGraph::new();
        assert_eq!((empty.max_id(), empty.max_weight()), (None, None));
        assert_maxima_match_scans(&empty, "the empty graph");
        let mut single = WeightedGraph::new();
        single.add_node_with_id(17);
        assert_eq!((single.max_id(), single.max_weight()), (Some(17), None));
        assert_maxima_match_scans(&WeightedGraph::with_nodes(1), "with_nodes(1)");

        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // hand-built: default and sparse unsorted identities mixed,
            // random weights (ties allowed), checked after every insertion
            let n = rng.gen_range(2usize..40);
            let mut g = WeightedGraph::with_nodes(rng.gen_range(0usize..4));
            while g.node_count() < n {
                if rng.gen_range(0u32..3) == 0 {
                    g.add_node();
                } else {
                    g.add_node_with_id(rng.gen_range(0u64..1 << 40));
                }
                assert_maxima_match_scans(&g, "a graph under construction");
            }
            for _ in 0..3 * n {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                // rejected insertions (loops, duplicates) must not count
                let _ = g.add_edge(NodeId(u), NodeId(v), rng.gen_range(0u64..50));
                assert_maxima_match_scans(&g, "a graph under construction");
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
                assert_maxima_match_scans(&g, name);
            }
            let g = random_graph_scrambled_ids(n, 2 * n, seed);
            let tree = crate::mst::kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
            let blown = crate::blowup::blowup(&g, &tree, 2);
            assert_maxima_match_scans(&blown.graph, "blowup");
        }
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
