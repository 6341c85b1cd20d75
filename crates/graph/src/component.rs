//! The distributed representation `H(G)` of a candidate subgraph (§2.1).
//!
//! In the paper, the network "stores" an object such as an MST by having each
//! node hold a *component* `c(v)`: a single pointer (port number) to one of
//! its neighbours, or no pointer. The subgraph `H(G)` induced by the
//! components contains an edge if and only if at least one endpoint points at
//! the other. A [`ComponentMap`] is exactly this per-node pointer table, plus
//! the operations the verifier needs: extracting `H(G)`, deciding whether it
//! is a spanning tree, and rooting it according to the paper's convention
//! (Example SP of §2.6).

use crate::error::GraphError;
use crate::graph::{EdgeId, NodeId, Port, WeightedGraph};
use crate::tree::RootedTree;
use crate::Result;

/// Per-node parent pointers representing a candidate subgraph distributively.
///
/// # Examples
///
/// ```
/// use smst_graph::{GraphBuilder, NodeId, ComponentMap};
///
/// let mut b = GraphBuilder::with_nodes(3);
/// b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
/// b.add_edge(NodeId(1), NodeId(2), 2).unwrap();
/// let g = b.finish();
/// // 1 and 2 point towards 0-side parents; 0 has no pointer (it is the root).
/// let mut c = ComponentMap::empty(3);
/// c.point_at(&g, NodeId(1), NodeId(0)).unwrap();
/// c.point_at(&g, NodeId(2), NodeId(1)).unwrap();
/// let tree = c.rooted_spanning_tree(&g).unwrap();
/// assert_eq!(tree.root(), NodeId(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentMap {
    /// `pointer[v]` is the port at `v` through which `v` points at a
    /// neighbour, or `None` if `v` stores no pointer.
    pointer: Vec<Option<Port>>,
}

impl ComponentMap {
    /// A component map for `n` nodes with no pointers.
    pub fn empty(n: usize) -> Self {
        ComponentMap {
            pointer: vec![None; n],
        }
    }

    /// Builds the component map encoding a rooted tree: every non-root node
    /// points at its parent; the root stores no pointer.
    pub fn from_rooted_tree(g: &WeightedGraph, tree: &RootedTree) -> Self {
        let mut c = Self::empty(g.node_count());
        for v in g.nodes() {
            if let Some(p) = tree.parent(v) {
                let port = g
                    .port_to(v, p)
                    .expect("tree parent must be a graph neighbour");
                c.pointer[v.0] = Some(port);
            }
        }
        c
    }

    /// Number of nodes covered by the map.
    pub fn node_count(&self) -> usize {
        self.pointer.len()
    }

    /// The raw pointer (port) stored at `v`.
    pub fn pointer(&self, v: NodeId) -> Option<Port> {
        self.pointer[v.0]
    }

    /// Sets the pointer of `v` to the given port (or clears it).
    pub fn set_pointer(&mut self, v: NodeId, port: Option<Port>) {
        self.pointer[v.0] = port;
    }

    /// Makes `v` point at its neighbour `target`.
    ///
    /// # Errors
    ///
    /// Returns an error if `(v, target)` is not an edge of `g`.
    pub fn point_at(&mut self, g: &WeightedGraph, v: NodeId, target: NodeId) -> Result<()> {
        let port = g.port_to(v, target).ok_or(GraphError::UnknownPort {
            node: v.0,
            port: usize::MAX,
        })?;
        self.pointer[v.0] = Some(port);
        Ok(())
    }

    /// The node that `v` points at (if any, and if the pointer is a valid
    /// port of `v` in `g`).
    pub fn target(&self, g: &WeightedGraph, v: NodeId) -> Option<NodeId> {
        let port = self.pointer[v.0]?;
        g.neighbor_at_port(v, port).ok()
    }

    /// The set of edges of the induced subgraph `H(G)`: an edge is present if
    /// at least one endpoint points at the other (§2.1).
    pub fn induced_edges(&self, g: &WeightedGraph) -> Vec<EdgeId> {
        let mut present = vec![false; g.edge_count()];
        for v in g.nodes() {
            if let Some(port) = self.pointer[v.0] {
                if let Ok(e) = g.edge_at_port(v, port) {
                    present[e.0] = true;
                }
            }
        }
        present
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p)
            .map(|(i, _)| EdgeId(i))
            .collect()
    }

    /// Decides whether `H(G)` is a spanning tree of `g`, and if so, roots it
    /// according to the paper's convention (Example SP of §2.6):
    ///
    /// * if there is a node with no pointer, that node is the root
    ///   (the paper observes there can be at most one such node in a correct
    ///   instance);
    /// * otherwise there must be two nodes pointing at each other, and the
    ///   one with the larger identity is chosen as root.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NotASpanningTree`] if the induced subgraph is not
    /// a spanning tree, or if the pointer structure violates the convention
    /// (e.g. several pointer-less nodes).
    pub fn rooted_spanning_tree(&self, g: &WeightedGraph) -> Result<RootedTree> {
        let n = g.node_count();
        if self.pointer.len() != n {
            return Err(GraphError::NotASpanningTree(
                "component map covers a different node set".into(),
            ));
        }
        let edges = self.induced_edges(g);
        if edges.len() != n.saturating_sub(1) {
            return Err(GraphError::NotASpanningTree(format!(
                "induced subgraph has {} edges, expected {}",
                edges.len(),
                n.saturating_sub(1)
            )));
        }
        let root = self.designated_root(g)?;
        RootedTree::from_edges(g, &edges, root)
    }

    /// The root designated by the pointer structure (see
    /// [`Self::rooted_spanning_tree`]).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NotASpanningTree`] if no valid root exists.
    pub fn designated_root(&self, g: &WeightedGraph) -> Result<NodeId> {
        let pointerless: Vec<NodeId> = g.nodes().filter(|&v| self.pointer[v.0].is_none()).collect();
        match pointerless.len() {
            1 => Ok(pointerless[0]),
            0 => {
                // find a mutual pair, root at the higher identity endpoint
                for v in g.nodes() {
                    if let Some(u) = self.target(g, v) {
                        if self.target(g, u) == Some(v) {
                            return Ok(if g.id(v) > g.id(u) { v } else { u });
                        }
                    }
                }
                Err(GraphError::NotASpanningTree(
                    "no pointer-less node and no mutually-pointing pair".into(),
                ))
            }
            k => Err(GraphError::NotASpanningTree(format!(
                "{k} nodes store no pointer"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn path_graph(n: usize) -> WeightedGraph {
        let mut b = GraphBuilder::with_nodes(n);
        for i in 0..n - 1 {
            b.add_edge(NodeId(i), NodeId(i + 1), (i + 1) as u64)
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn empty_map_has_no_edges() {
        let g = path_graph(4);
        let c = ComponentMap::empty(4);
        assert!(c.induced_edges(&g).is_empty());
        assert!(c.rooted_spanning_tree(&g).is_err());
    }

    #[test]
    fn chain_of_pointers_forms_spanning_tree() {
        let g = path_graph(4);
        let mut c = ComponentMap::empty(4);
        for i in 1..4 {
            c.point_at(&g, NodeId(i), NodeId(i - 1)).unwrap();
        }
        let t = c.rooted_spanning_tree(&g).unwrap();
        assert_eq!(t.root(), NodeId(0));
        assert_eq!(t.parent(NodeId(3)), Some(NodeId(2)));
    }

    #[test]
    fn mutual_pair_roots_at_higher_id() {
        let mut builder = GraphBuilder::new();
        let a = builder.add_node_with_id(10);
        let b = builder.add_node_with_id(20);
        builder.add_edge(a, b, 1).unwrap();
        let g = builder.finish();
        let mut c = ComponentMap::empty(2);
        c.point_at(&g, a, b).unwrap();
        c.point_at(&g, b, a).unwrap();
        let t = c.rooted_spanning_tree(&g).unwrap();
        assert_eq!(t.root(), b);
    }

    #[test]
    fn two_pointerless_nodes_rejected() {
        let g = path_graph(3);
        let mut c = ComponentMap::empty(3);
        c.point_at(&g, NodeId(1), NodeId(0)).unwrap();
        // nodes 0 and 2 have no pointer and only 1 induced edge -> not spanning
        assert!(c.rooted_spanning_tree(&g).is_err());
        // make induced edges count right but still two roots
        c.point_at(&g, NodeId(1), NodeId(2)).unwrap();
        c.set_pointer(NodeId(0), None);
        assert!(c.rooted_spanning_tree(&g).is_err());
    }

    #[test]
    fn from_rooted_tree_round_trips() {
        let g = path_graph(5);
        let edges: Vec<EdgeId> = (0..4).map(EdgeId).collect();
        let t = RootedTree::from_edges(&g, &edges, NodeId(2)).unwrap();
        let c = ComponentMap::from_rooted_tree(&g, &t);
        let t2 = c.rooted_spanning_tree(&g).unwrap();
        assert_eq!(t2.root(), NodeId(2));
        for v in g.nodes() {
            assert_eq!(t2.parent(v), t.parent(v));
        }
    }

    #[test]
    fn target_resolves_ports() {
        let g = path_graph(3);
        let mut c = ComponentMap::empty(3);
        c.point_at(&g, NodeId(1), NodeId(2)).unwrap();
        assert_eq!(c.target(&g, NodeId(1)), Some(NodeId(2)));
        assert_eq!(c.target(&g, NodeId(0)), None);
    }

    #[test]
    fn point_at_non_neighbor_fails() {
        let g = path_graph(4);
        let mut c = ComponentMap::empty(4);
        assert!(c.point_at(&g, NodeId(0), NodeId(3)).is_err());
    }

    #[test]
    fn induced_edges_counts_one_sided_pointers_once() {
        let g = path_graph(3);
        let mut c = ComponentMap::empty(3);
        c.point_at(&g, NodeId(0), NodeId(1)).unwrap();
        c.point_at(&g, NodeId(1), NodeId(0)).unwrap();
        assert_eq!(c.induced_edges(&g).len(), 1);
    }
}
