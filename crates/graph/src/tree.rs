//! Rooted spanning-tree utilities.
//!
//! A [`RootedTree`] is a rooted spanning tree of a [`WeightedGraph`],
//! represented by a parent-pointer array (exactly the "component" encoding of
//! §2.1 once rooted). It offers the traversals and bookkeeping the marker and
//! the verifier need: children lists, BFS and DFS orders, subtree sizes,
//! depths and tree distances.

use crate::error::GraphError;
use crate::graph::{EdgeId, NodeId, WeightedGraph};
use crate::Csr;
use crate::Result;

/// A rooted spanning tree over the nodes of a [`WeightedGraph`].
///
/// Every per-node table is one flat array: the nodes in BFS order from the
/// root, and the children of each node as one contiguous run of that order,
/// in the order the BFS discovered them.
///
/// # Examples
///
/// ```
/// use smst_graph::{GraphBuilder, NodeId, RootedTree};
///
/// let mut b = GraphBuilder::with_nodes(4);
/// b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
/// b.add_edge(NodeId(1), NodeId(2), 2).unwrap();
/// b.add_edge(NodeId(1), NodeId(3), 3).unwrap();
/// let g = b.finish();
/// let tree_edges: Vec<_> = (0..3).map(smst_graph::EdgeId).collect();
/// let t = RootedTree::from_edges(&g, &tree_edges, NodeId(0)).unwrap();
/// assert_eq!(t.parent(NodeId(2)), Some(NodeId(1)));
/// assert_eq!(t.depth(NodeId(3)), 2);
/// assert_eq!(t.subtree_size(NodeId(1)), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootedTree {
    root: NodeId,
    /// parent[v] = None for the root.
    parent: Vec<Option<NodeId>>,
    /// parent_edge[v] = the graph edge to the parent (None for the root).
    parent_edge: Vec<Option<EdgeId>>,
    /// The nodes in BFS order from the root.
    order: Vec<NodeId>,
    /// children[v] = the run of `order` holding v's children.
    children: Vec<(usize, usize)>,
    depth: Vec<usize>,
    /// subtree_size[v] = number of nodes in the subtree rooted at v.
    subtree_size: Vec<usize>,
    /// is_tree_edge[e] for every edge of the graph the tree was built over.
    is_tree_edge: Vec<bool>,
}

impl RootedTree {
    /// Builds a rooted tree from a set of `n − 1` tree edges of `g`, in a
    /// constant number of allocations: the BFS runs over a CSR adjacency
    /// that lists each node's tree edges in the order `tree_edges` gives
    /// them, which fixes the order children are discovered in.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NotASpanningTree`] if the edges do not form a
    /// spanning tree of `g` (wrong count, cycle, or not spanning).
    pub fn from_edges(g: &WeightedGraph, tree_edges: &[EdgeId], root: NodeId) -> Result<Self> {
        let n = g.node_count();
        if n == 0 {
            return Err(GraphError::NotASpanningTree("empty graph".into()));
        }
        if root.0 >= n {
            return Err(GraphError::UnknownNode(root.0));
        }
        if tree_edges.len() != n - 1 {
            return Err(GraphError::NotASpanningTree(format!(
                "expected {} edges, got {}",
                n - 1,
                tree_edges.len()
            )));
        }
        if let Some(e) = tree_edges.iter().find(|e| e.0 >= g.edge_count()) {
            return Err(GraphError::UnknownEdge(e.0));
        }
        let adj = Csr::from_pairs(
            n,
            tree_edges.iter().flat_map(|&e| {
                let edge = g.edge(e);
                [(edge.u.0, (edge.v, e)), (edge.v.0, (edge.u, e))]
            }),
        );
        let mut parent = vec![None; n];
        let mut parent_edge = vec![None; n];
        let mut depth = vec![usize::MAX; n];
        let mut children = vec![(0, 0); n];
        let mut is_tree_edge = vec![false; g.edge_count()];
        // BFS; `order` doubles as the queue, and the children of `v` are
        // what it appends while `v` is at its head
        let mut order = Vec::with_capacity(n);
        order.push(root);
        depth[root.0] = 0;
        let mut head = 0;
        while let Some(&v) = order.get(head) {
            head += 1;
            let first = order.len();
            for &(u, e) in adj.row(v.0) {
                if depth[u.0] == usize::MAX {
                    depth[u.0] = depth[v.0] + 1;
                    parent[u.0] = Some(v);
                    parent_edge[u.0] = Some(e);
                    is_tree_edge[e.0] = true;
                    order.push(u);
                }
            }
            children[v.0] = (first, order.len());
        }
        let visited = order.len();
        if visited != n {
            return Err(GraphError::NotASpanningTree(format!(
                "only {visited} of {n} nodes reachable from the root"
            )));
        }
        let mut subtree_size = vec![1; n];
        for &v in order.iter().skip(1).rev() {
            let p = parent[v.0].expect("non-root node has a parent");
            subtree_size[p.0] += subtree_size[v.0];
        }
        Ok(RootedTree {
            root,
            parent,
            parent_edge,
            order,
            children,
            depth,
            subtree_size,
            is_tree_edge,
        })
    }

    /// The root of the tree.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.parent.len()
    }

    /// The parent of `v` (`None` for the root).
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v.0]
    }

    /// The graph edge connecting `v` to its parent (`None` for the root).
    pub fn parent_edge(&self, v: NodeId) -> Option<EdgeId> {
        self.parent_edge[v.0]
    }

    /// The children of `v`, in the order they were discovered.
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        let (first, end) = self.children[v.0];
        &self.order[first..end]
    }

    /// The depth (hop distance from the root) of `v`.
    pub fn depth(&self, v: NodeId) -> usize {
        self.depth[v.0]
    }

    /// The height of the tree (maximum depth).
    pub fn height(&self) -> usize {
        // BFS order is by depth, so its last node is a deepest one
        self.order.last().map_or(0, |v| self.depth[v.0])
    }

    /// The tree edges, one per non-root node.
    pub fn edges(&self) -> Vec<EdgeId> {
        self.parent_edge.iter().filter_map(|&e| e).collect()
    }

    /// Returns `true` if `e` is one of the tree's edges.
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        self.is_tree_edge.get(e.0).copied().unwrap_or(false)
    }

    /// Nodes in preorder DFS, children visited in stored order.
    pub fn dfs_preorder(&self) -> Vec<NodeId> {
        self.dfs_preorder_from(self.root)
    }

    /// Preorder DFS of the subtree rooted at `start`.
    pub fn dfs_preorder_from(&self, start: NodeId) -> Vec<NodeId> {
        let mut order = Vec::new();
        let mut stack = vec![start];
        while let Some(v) = stack.pop() {
            order.push(v);
            // push children in reverse so that the first child is visited first
            for &c in self.children(v).iter().rev() {
                stack.push(c);
            }
        }
        order
    }

    /// Nodes in BFS order from the root: every node comes after its parent,
    /// and siblings come in discovery order.
    pub fn bfs_order(&self) -> &[NodeId] {
        &self.order
    }

    /// Size of the subtree rooted at `v` (including `v`).
    pub fn subtree_size(&self, v: NodeId) -> usize {
        self.subtree_size[v.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    /// A small fixed tree:
    /// ```text
    ///        0
    ///       / \
    ///      1   2
    ///     / \    \
    ///    3   4    5
    /// ```
    fn sample() -> (WeightedGraph, RootedTree) {
        let mut b = GraphBuilder::with_nodes(6);
        let e01 = b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        let e02 = b.add_edge(NodeId(0), NodeId(2), 2).unwrap();
        let e13 = b.add_edge(NodeId(1), NodeId(3), 3).unwrap();
        let e14 = b.add_edge(NodeId(1), NodeId(4), 4).unwrap();
        let e25 = b.add_edge(NodeId(2), NodeId(5), 5).unwrap();
        // one extra non-tree edge
        b.add_edge(NodeId(3), NodeId(5), 10).unwrap();
        let g = b.finish();
        let t = RootedTree::from_edges(&g, &[e01, e02, e13, e14, e25], NodeId(0)).unwrap();
        (g, t)
    }

    #[test]
    fn parents_and_children() {
        let (_, t) = sample();
        assert_eq!(t.root(), NodeId(0));
        assert_eq!(t.parent(NodeId(0)), None);
        assert_eq!(t.parent(NodeId(3)), Some(NodeId(1)));
        assert_eq!(t.children(NodeId(1)), &[NodeId(3), NodeId(4)]);
        assert!(t.children(NodeId(4)).is_empty());
    }

    #[test]
    fn depth_and_height() {
        let (_, t) = sample();
        assert_eq!(t.depth(NodeId(0)), 0);
        assert_eq!(t.depth(NodeId(5)), 2);
        assert_eq!(t.height(), 2);
    }

    #[test]
    fn dfs_preorder_visits_all_once() {
        let (_, t) = sample();
        let order = t.dfs_preorder();
        assert_eq!(order.len(), 6);
        assert_eq!(order[0], NodeId(0));
        let mut sorted: Vec<usize> = order.iter().map(|v| v.0).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5]);
        // children before siblings' subtrees
        assert_eq!(order[1], NodeId(1));
        assert_eq!(order[2], NodeId(3));
    }

    #[test]
    fn bfs_order_is_level_by_level() {
        let (_, t) = sample();
        let order = t.bfs_order();
        assert_eq!(order[0], NodeId(0));
        assert_eq!(&order[1..3], &[NodeId(1), NodeId(2)]);
    }

    #[test]
    fn subtree_sizes() {
        let (_, t) = sample();
        assert_eq!(t.subtree_size(NodeId(0)), 6);
        assert_eq!(t.subtree_size(NodeId(1)), 3);
        assert_eq!(t.subtree_size(NodeId(5)), 1);
    }

    #[test]
    fn rejects_wrong_edge_count() {
        let (g, _) = sample();
        let err = RootedTree::from_edges(&g, &[EdgeId(0)], NodeId(0)).unwrap_err();
        assert!(matches!(err, GraphError::NotASpanningTree(_)));
    }

    #[test]
    fn rejects_cycle_as_spanning_tree() {
        let mut b = GraphBuilder::with_nodes(4);
        let e0 = b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        let e1 = b.add_edge(NodeId(1), NodeId(2), 1).unwrap();
        let e2 = b.add_edge(NodeId(2), NodeId(0), 1).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 1).unwrap();
        let g = b.finish();
        // three edges but they form a triangle, leaving node 3 unreached
        let err = RootedTree::from_edges(&g, &[e0, e1, e2], NodeId(0)).unwrap_err();
        assert!(matches!(err, GraphError::NotASpanningTree(_)));
    }

    #[test]
    fn contains_edge_and_edges() {
        let (_, t) = sample();
        let edges = t.edges();
        assert_eq!(edges.len(), 5);
        assert!(t.contains_edge(EdgeId(0)));
        assert!(!t.contains_edge(EdgeId(5)));
    }
}
