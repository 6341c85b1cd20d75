//! A compressed-sparse-row (CSR) view of a [`WeightedGraph`].
//!
//! The simulator's [`smst_graph::WeightedGraph`] stores one incidence `Vec`
//! per node — flexible for graph construction, but cache-hostile when a
//! million-node round has to walk every adjacency list. [`CsrTopology`]
//! flattens the port-ordered neighbour indices into two arrays so a round is
//! a single linear sweep: `neighbors[offsets[v]..offsets[v + 1]]` are the
//! dense indices of `v`'s neighbours, **in port order** (port `p` of `v` is
//! entry `offsets[v] + p`), matching the `neighbors` slice order that
//! [`smst_sim::NodeProgram::step`] expects.

use smst_graph::WeightedGraph;

/// Flattened, port-ordered adjacency of a graph, indexed by dense node id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrTopology {
    /// `offsets[v]..offsets[v + 1]` delimits `v`'s neighbour slice.
    offsets: Vec<usize>,
    /// Dense index of the neighbour behind each port, node-major, port order.
    neighbors: Vec<u32>,
}

impl CsrTopology {
    /// Builds the CSR index of a graph.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than `u32::MAX` nodes (the engine packs
    /// neighbour indices into 32 bits to halve the index's footprint).
    pub fn build(graph: &WeightedGraph) -> Self {
        let n = graph.node_count();
        assert!(
            u32::try_from(n).is_ok(),
            "CsrTopology supports at most 2^32 - 1 nodes"
        );
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(2 * graph.edge_count());
        offsets.push(0);
        for v in graph.nodes() {
            for &e in graph.incident_edges(v) {
                neighbors.push(graph.edge(e).other(v).index() as u32);
            }
            offsets.push(neighbors.len());
        }
        CsrTopology { offsets, neighbors }
    }

    /// Assembles a topology from raw CSR arrays (used by the layout pass to
    /// build a renumbered copy without round-tripping through a graph).
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is not a monotone cover of `neighbors`.
    pub(crate) fn from_raw(offsets: Vec<usize>, neighbors: Vec<u32>) -> Self {
        if let Err(what) = check_cover(&offsets, neighbors.len()) {
            panic!("{what}");
        }
        CsrTopology { offsets, neighbors }
    }

    /// Assembles a topology from CSR arrays that arrived from outside the
    /// process (a remote worker's region frame), checking where
    /// `from_raw` panics: `offsets` must start at 0, ascend and end at
    /// `neighbors.len()`, and every row and every neighbour index must lie
    /// below `columns` — the length of the register window the rows will
    /// be swept against (a halo region has more columns than rows). The
    /// error names the violated condition.
    pub fn from_parts(
        offsets: Vec<usize>,
        neighbors: Vec<u32>,
        columns: usize,
    ) -> Result<Self, &'static str> {
        check_cover(&offsets, neighbors.len())?;
        if offsets.len() - 1 > columns {
            return Err("more rows than columns");
        }
        if neighbors.iter().any(|&u| u as usize >= columns) {
            return Err("neighbour index out of range");
        }
        Ok(CsrTopology { offsets, neighbors })
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The dense neighbour indices of node `v`, in port order.
    pub fn neighbors_of(&self, v: usize) -> &[u32] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The degree of node `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Total number of directed adjacency entries (`2·m`).
    pub fn entry_count(&self) -> usize {
        self.neighbors.len()
    }

    /// The work weight of node `v` used for shard balancing: reading all
    /// neighbour registers plus rewriting one's own.
    pub fn work(&self, v: usize) -> usize {
        self.degree(v) + 1
    }

    /// Prefix of total work up to (excluding) node `v`; used by the
    /// balanced partitioner.
    pub fn work_prefix(&self, v: usize) -> usize {
        self.offsets[v] + v
    }

    /// Total work of a full round.
    pub fn total_work(&self) -> usize {
        self.entry_count() + self.node_count()
    }
}

/// `offsets` delimits one row per node over an array of `entries`
/// neighbour indices: a leading 0, ascending, ending at `entries`.
fn check_cover(offsets: &[usize], entries: usize) -> Result<(), &'static str> {
    if offsets.first() != Some(&0) {
        return Err("offsets must start at 0");
    }
    if offsets.last() != Some(&entries) {
        return Err("offsets must cover the neighbour array");
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err("offsets must be monotone");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use smst_graph::generators::{path_graph, random_connected_graph, star_graph};

    #[test]
    fn csr_matches_incidence_lists() {
        let g = random_connected_graph(40, 120, 7);
        let topo = CsrTopology::build(&g);
        assert_eq!(topo.node_count(), 40);
        assert_eq!(topo.entry_count(), 2 * g.edge_count());
        for v in g.nodes() {
            assert_eq!(topo.degree(v.index()), g.degree(v));
            let expected: Vec<u32> = g
                .incident_edges(v)
                .iter()
                .map(|&e| g.edge(e).other(v).index() as u32)
                .collect();
            assert_eq!(topo.neighbors_of(v.index()), expected.as_slice());
        }
    }

    #[test]
    fn port_order_is_preserved() {
        // star: centre's ports are 0..n-1 in leaf order
        let g = star_graph(6, 1);
        let topo = CsrTopology::build(&g);
        assert_eq!(topo.neighbors_of(0), &[1, 2, 3, 4, 5]);
        for leaf in 1..6 {
            assert_eq!(topo.neighbors_of(leaf), &[0]);
        }
    }

    #[test]
    fn work_accounting() {
        let g = path_graph(4, 0);
        let topo = CsrTopology::build(&g);
        // degrees 1, 2, 2, 1 → work 2, 3, 3, 2
        assert_eq!(topo.total_work(), 10);
        assert_eq!(topo.work(0), 2);
        assert_eq!(topo.work(1), 3);
        assert_eq!(topo.work_prefix(0), 0);
        assert_eq!(topo.work_prefix(2), 5);
    }

    #[test]
    fn from_parts_accepts_what_build_produces_and_names_what_it_refuses() {
        let g = random_connected_graph(12, 30, 3);
        let topo = CsrTopology::build(&g);
        let parts = || (topo.offsets.clone(), topo.neighbors.clone());
        let (offsets, neighbors) = parts();
        assert_eq!(
            CsrTopology::from_parts(offsets, neighbors, 12),
            Ok(topo.clone())
        );
        // a neighbour the window has no register for
        let (offsets, mut neighbors) = parts();
        neighbors[5] = 12;
        assert_eq!(
            CsrTopology::from_parts(offsets, neighbors, 12),
            Err("neighbour index out of range")
        );
        let (mut offsets, neighbors) = parts();
        offsets.swap(3, 4);
        assert_eq!(
            CsrTopology::from_parts(offsets, neighbors, 12),
            Err("offsets must be monotone")
        );
        let (offsets, mut neighbors) = parts();
        neighbors.pop();
        assert_eq!(
            CsrTopology::from_parts(offsets, neighbors, 12),
            Err("offsets must cover the neighbour array")
        );
        let (mut offsets, neighbors) = parts();
        offsets[0] = 1;
        assert_eq!(
            CsrTopology::from_parts(offsets, neighbors, 12),
            Err("offsets must start at 0")
        );
        assert_eq!(
            CsrTopology::from_parts(Vec::new(), Vec::new(), 0),
            Err("offsets must start at 0")
        );
        // rows the window has no register for
        assert_eq!(
            CsrTopology::from_parts(vec![0, 0, 0], Vec::new(), 1),
            Err("more rows than columns")
        );
    }
}
