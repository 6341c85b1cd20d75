//! Graph families used by the tests, examples and experiments.
//!
//! All generators are deterministic in their `seed` argument, assign distinct
//! raw edge weights where convenient, and produce connected graphs (except
//! where documented). These are the workloads of the paper's experiments:
//! random connected graphs for Table 1 and the scaling figures, paths/rings
//! for the low-degree extremes, stars and complete graphs for the Δ sweeps,
//! grids and caterpillars as structured topologies.

use crate::graph::{EdgeId, GraphBuilder, NodeId, WeightedGraph};
use crate::weight::Weight;
use smst_rng::{Rng, SeedableRng, SliceRandom, StdRng};

/// A path `0 − 1 − ⋯ − (n−1)` with pseudo-random distinct weights.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn path_graph(n: usize, seed: u64) -> WeightedGraph {
    assert!(n > 0, "path_graph requires at least one node");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = GraphBuilder::with_nodes(n);
    let mut weights = distinct_weights(n.saturating_sub(1), &mut rng);
    g.reserve_edges(weights.len());
    for i in 0..n - 1 {
        g.add_edge(NodeId(i), NodeId(i + 1), weights.pop().unwrap())
            .expect("path edges are unique");
    }
    g.finish()
}

/// A cycle on `n ≥ 3` nodes with distinct weights.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn ring_graph(n: usize, seed: u64) -> WeightedGraph {
    assert!(n >= 3, "ring_graph requires at least three nodes");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = GraphBuilder::with_nodes(n);
    let mut weights = distinct_weights(n, &mut rng);
    g.reserve_edges(n);
    for i in 0..n {
        g.add_edge(NodeId(i), NodeId((i + 1) % n), weights.pop().unwrap())
            .expect("ring edges are unique");
    }
    g.finish()
}

/// The complete graph on `n` nodes with distinct weights.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn complete_graph(n: usize, seed: u64) -> WeightedGraph {
    assert!(n > 0, "complete_graph requires at least one node");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = GraphBuilder::with_nodes(n);
    let mut weights = distinct_weights(n * (n - 1) / 2, &mut rng);
    g.reserve_edges(weights.len());
    for i in 0..n {
        for j in (i + 1)..n {
            g.add_edge(NodeId(i), NodeId(j), weights.pop().unwrap())
                .expect("complete graph edges are unique");
        }
    }
    g.finish()
}

/// A star: node 0 is the centre, connected to every other node.
///
/// The star maximizes Δ and is used for the asynchronous detection-time
/// experiments (whose bound is `O(Δ log³ n)`).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star_graph(n: usize, seed: u64) -> WeightedGraph {
    assert!(n > 0, "star_graph requires at least one node");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = GraphBuilder::with_nodes(n);
    let mut weights = distinct_weights(n.saturating_sub(1), &mut rng);
    g.reserve_edges(weights.len());
    for i in 1..n {
        g.add_edge(NodeId(0), NodeId(i), weights.pop().unwrap())
            .expect("star edges are unique");
    }
    g.finish()
}

/// An `rows × cols` grid with distinct weights.
///
/// # Panics
///
/// Panics if `rows == 0` or `cols == 0`.
pub fn grid_graph(rows: usize, cols: usize, seed: u64) -> WeightedGraph {
    assert!(
        rows > 0 && cols > 0,
        "grid_graph requires positive dimensions"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rows * cols;
    let mut g = GraphBuilder::with_nodes(n);
    let m = rows * (cols - 1) + cols * (rows - 1);
    let mut weights = distinct_weights(m, &mut rng);
    g.reserve_edges(m);
    let at = |r: usize, c: usize| NodeId(r * cols + c);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge(at(r, c), at(r, c + 1), weights.pop().unwrap())
                    .expect("grid edges are unique");
            }
            if r + 1 < rows {
                g.add_edge(at(r, c), at(r + 1, c), weights.pop().unwrap())
                    .expect("grid edges are unique");
            }
        }
    }
    g.finish()
}

/// A caterpillar: a spine path of `spine` nodes, each with `legs` leaf
/// children. Total nodes: `spine * (1 + legs)`.
///
/// # Panics
///
/// Panics if `spine == 0`.
pub fn caterpillar_graph(spine: usize, legs: usize, seed: u64) -> WeightedGraph {
    assert!(spine > 0, "caterpillar_graph requires a non-empty spine");
    let mut rng = StdRng::seed_from_u64(seed);
    let n = spine * (1 + legs);
    let mut g = GraphBuilder::with_nodes(n);
    let m = (spine - 1) + spine * legs;
    let mut weights = distinct_weights(m, &mut rng);
    g.reserve_edges(m);
    for i in 0..spine - 1 {
        g.add_edge(NodeId(i), NodeId(i + 1), weights.pop().unwrap())
            .expect("spine edges are unique");
    }
    for s in 0..spine {
        for l in 0..legs {
            let leaf = spine + s * legs + l;
            g.add_edge(NodeId(s), NodeId(leaf), weights.pop().unwrap())
                .expect("leg edges are unique");
        }
    }
    g.finish()
}

/// A random connected graph with `n` nodes and (approximately) `m` edges:
/// a uniformly random spanning tree backbone plus random extra edges, with
/// distinct weights.
///
/// If `m < n − 1` the edge count is raised to `n − 1`; if `m` exceeds the
/// complete graph it is clamped.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_connected_graph(n: usize, m: usize, seed: u64) -> WeightedGraph {
    assert!(n > 0, "random_connected_graph requires at least one node");
    let mut rng = StdRng::seed_from_u64(seed);
    let max_m = n * n.saturating_sub(1) / 2;
    let m = m.clamp(n.saturating_sub(1), max_m.max(n.saturating_sub(1)));
    let mut g = GraphBuilder::with_nodes(n);
    let mut weights = distinct_weights(m, &mut rng);
    g.reserve_edges(m);

    // random spanning tree backbone: random permutation, attach each node to a
    // random earlier node (a random recursive tree).
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(&mut rng);
    for i in 1..n {
        let j = rng.gen_range(0..i);
        g.add_edge(NodeId(perm[i]), NodeId(perm[j]), weights.pop().unwrap())
            .expect("backbone edges are unique");
    }
    // extra edges
    let mut attempts = 0usize;
    while g.edge_count() < m && attempts < 50 * m + 100 {
        attempts += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        if g.edge_between(NodeId(u), NodeId(v)).is_some() {
            continue;
        }
        let w = weights
            .pop()
            .unwrap_or_else(|| rng.gen_range(1u64..1_000_000) * 2 + 1);
        g.add_edge(NodeId(u), NodeId(v), w)
            .expect("checked for duplicates");
    }
    g.finish()
}

/// A random connected graph with scrambled (non-consecutive) node identities.
///
/// Useful for checking that algorithms only rely on identity *comparisons*,
/// never on identities being `0..n`.
pub fn random_graph_scrambled_ids(n: usize, m: usize, seed: u64) -> WeightedGraph {
    let base = random_connected_graph(n, m, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF);
    let mut ids: Vec<u64> = (0..n as u64).map(|i| i * 7 + 3).collect();
    ids.shuffle(&mut rng);
    let mut g = GraphBuilder::new();
    for &id in ids.iter().take(n) {
        g.add_node_with_id(id);
    }
    g.reserve_edges(base.edge_count());
    for e in base.edges() {
        g.add_edge(e.u, e.v, e.weight)
            .expect("copying unique edges");
    }
    g.finish()
}

/// `g` with the weight of every edge `e` replaced by `weight(e, ω(e))`:
/// the same identities, edges and ports. Taking the weights mod a small
/// number gives the runs of equal weights that the other generators never
/// draw.
pub fn reweighted<F>(g: &WeightedGraph, mut weight: F) -> WeightedGraph
where
    F: FnMut(EdgeId, Weight) -> Weight,
{
    let mut b = GraphBuilder::new();
    for v in g.nodes() {
        b.add_node_with_id(g.id(v));
    }
    b.reserve_edges(g.edge_count());
    for (e, edge) in g.edge_entries() {
        b.add_edge(edge.u, edge.v, weight(e, edge.weight))
            .expect("copying unique edges");
    }
    b.finish()
}

/// A circulant "expander": every node `v` is joined to `v ± o (mod n)` for
/// each offset `o` in a set containing `1` plus `degree/2 − 1` random
/// distinct offsets in `2..=n/2`. Random circulant graphs of constant degree
/// have strong expansion and `O(log n)` diameter w.h.p., giving the
/// execution engine a low-diameter, regular workload family that stresses
/// cross-shard traffic (every shard boundary is crossed by long chords).
///
/// The resulting degree is `2 × offsets` (one less for the antipodal offset
/// on even `n`). Weights are distinct. The graph is connected because
/// offset `1` is always included.
///
/// # Panics
///
/// Panics if `n < 3` or `degree < 2`.
pub fn expander_graph(n: usize, degree: usize, seed: u64) -> WeightedGraph {
    assert!(n >= 3, "expander_graph requires at least three nodes");
    assert!(degree >= 2, "expander_graph requires degree >= 2");
    let mut rng = StdRng::seed_from_u64(seed);
    let wanted = (degree / 2).max(1);
    let mut candidates: Vec<usize> = (2..=n / 2).collect();
    candidates.shuffle(&mut rng);
    let mut offsets = vec![1usize];
    offsets.extend(candidates.into_iter().take(wanted.saturating_sub(1)));

    let edge_count: usize = offsets
        .iter()
        .map(|&o| if 2 * o == n { n / 2 } else { n })
        .sum();
    let mut weights = distinct_weights(edge_count, &mut rng);
    let mut g = GraphBuilder::with_nodes(n);
    g.reserve_edges(edge_count);
    for &o in &offsets {
        // the antipodal offset on even n yields each chord twice
        let span = if 2 * o == n { n / 2 } else { n };
        for v in 0..span {
            g.add_edge(NodeId(v), NodeId((v + o) % n), weights.pop().unwrap())
                .expect("circulant chords are unique");
        }
    }
    g.finish()
}

/// One cluster of the KMW skeleton: a contiguous node range at a depth,
/// optionally attached to a parent cluster exactly `delta` times larger.
struct KmwCluster {
    start: usize,
    size: usize,
    parent: Option<usize>,
}

/// The cluster-tree skeleton shared by [`kmw_cluster_tree`] and
/// [`kmw_hybrid_graph`]: a root cluster of `δ^levels` nodes at depth 0;
/// every depth-`d` cluster has `levels − d` child clusters, each `δ`
/// times smaller — the degree asymmetry of the CT_k cluster trees from
/// "A Breezing Proof of the KMW Bound" (arXiv:2002.06005). `max_depth`
/// trims the recursion (the hybrid stops one level early so its leaf
/// clusters keep `δ` nodes).
fn kmw_skeleton(levels: usize, delta: usize, max_depth: usize) -> Vec<KmwCluster> {
    let root_size = delta
        .checked_pow(levels as u32)
        .expect("kmw cluster tree too large");
    let mut clusters = vec![KmwCluster {
        start: 0,
        size: root_size,
        parent: None,
    }];
    let mut next = root_size;
    let mut frontier = vec![0usize];
    for d in 0..max_depth {
        let child_size = delta.pow((levels - d - 1) as u32);
        let mut new_frontier = Vec::new();
        for &ci in &frontier {
            for _ in 0..(levels - d) {
                clusters.push(KmwCluster {
                    start: next,
                    size: child_size,
                    parent: Some(ci),
                });
                next += child_size;
                new_frontier.push(clusters.len() - 1);
            }
        }
        frontier = new_frontier;
    }
    clusters
}

fn kmw_node_count(levels: usize, delta: usize, max_depth: usize) -> usize {
    let mut clusters = 1usize;
    let mut total = 0usize;
    for d in 0..=max_depth {
        total += clusters
            * delta
                .checked_pow((levels - d) as u32)
                .expect("kmw cluster tree too large");
        clusters *= levels - d;
    }
    total
}

/// Number of nodes of [`kmw_cluster_tree`]`(levels, delta, _)`.
pub fn kmw_cluster_tree_node_count(levels: usize, delta: usize) -> usize {
    kmw_node_count(levels, delta, levels)
}

/// Number of nodes of [`kmw_hybrid_graph`]`(levels, delta, _)`.
pub fn kmw_hybrid_node_count(levels: usize, delta: usize) -> usize {
    kmw_node_count(levels, delta, levels - 1)
}

fn build_kmw(
    levels: usize,
    delta: usize,
    seed: u64,
    max_depth: usize,
    hybrid: bool,
) -> WeightedGraph {
    let clusters = kmw_skeleton(levels, delta, max_depth);
    let n = clusters.last().map_or(0, |c| c.start + c.size);
    let mut m = 0usize;
    for c in &clusters {
        m += if hybrid && c.size >= 4 {
            c.size // ring interior
        } else {
            c.size.saturating_sub(1) // path interior
        };
        if let Some(p) = c.parent {
            m += clusters[p].size; // one gadget edge per parent node
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut weights = distinct_weights(m, &mut rng);
    let mut g = GraphBuilder::with_nodes(n);
    g.reserve_edges(m);
    for c in &clusters {
        if hybrid && c.size >= 4 {
            for i in 0..c.size {
                g.add_edge(
                    NodeId(c.start + i),
                    NodeId(c.start + (i + 1) % c.size),
                    weights.pop().unwrap(),
                )
                .expect("ring interiors are unique");
            }
        } else {
            for i in 0..c.size.saturating_sub(1) {
                g.add_edge(
                    NodeId(c.start + i),
                    NodeId(c.start + i + 1),
                    weights.pop().unwrap(),
                )
                .expect("path interiors are unique");
            }
        }
        if let Some(pi) = c.parent {
            let p = &clusters[pi];
            debug_assert_eq!(p.size, delta * c.size, "parent is exactly δ× larger");
            for j in 0..c.size {
                for i in 0..delta {
                    // contiguous groups realize the biregular (1, δ)
                    // gadget; the hybrid spreads each child's parents a
                    // stride of `c.size` apart so no two of them are
                    // interior-adjacent (triangle-freeness)
                    let off = if hybrid {
                        (j + i * c.size) % p.size
                    } else {
                        j * delta + i
                    };
                    g.add_edge(
                        NodeId(c.start + j),
                        NodeId(p.start + off),
                        weights.pop().unwrap(),
                    )
                    .expect("gadget edges are unique");
                }
            }
        }
    }
    g.finish()
}

/// A KMW cluster tree: the hard-instance family of the KMW lower bound
/// (Ω(√(log n / log log n)) for LOCAL-model verification-style problems),
/// in the simplified deterministic realization of the CT_k skeleton from
/// "A Breezing Proof of the KMW Bound" (arXiv:2002.06005).
///
/// The root cluster has `δ^levels` nodes; every depth-`d` cluster has
/// `levels − d` child clusters, each `δ` times smaller, down to
/// singleton leaves. Cluster interiors are paths (connectivity), and
/// each parent–child pair is joined by a biregular `(1, δ)` bipartite
/// gadget: every child node sees `δ` parent nodes, every parent node
/// exactly one node per child cluster — the degree asymmetry that makes
/// parent and child locally hard to distinguish. Weights are distinct
/// and seeded; the topology itself is deterministic in `(levels, delta)`.
///
/// # Panics
///
/// Panics if `levels == 0`, `delta < 2`, or the node count overflows.
pub fn kmw_cluster_tree(levels: usize, delta: usize, seed: u64) -> WeightedGraph {
    assert!(levels >= 1, "kmw_cluster_tree requires at least one level");
    assert!(delta >= 2, "kmw_cluster_tree requires delta >= 2");
    build_kmw(levels, delta, seed, levels, false)
}

/// The high-girth hybrid of [`kmw_cluster_tree`]: the same cluster-tree
/// skeleton trimmed one level early (leaf clusters keep `δ` nodes),
/// cluster interiors of size ≥ 4 upgraded from paths to rings, and the
/// `(1, δ)` gadgets spread so a child's `δ` parent neighbors sit a full
/// child-cluster-size stride apart. The result is triangle-free (girth
/// ≥ 4, pinned by a test) while keeping the hierarchy's degree asymmetry
/// — a step toward the high-girth G_k realizations the KMW bound needs.
///
/// # Panics
///
/// Panics if `levels < 2`, `delta < 3` (the stride argument needs it), or
/// the node count overflows.
pub fn kmw_hybrid_graph(levels: usize, delta: usize, seed: u64) -> WeightedGraph {
    assert!(levels >= 2, "kmw_hybrid_graph requires at least two levels");
    assert!(delta >= 3, "kmw_hybrid_graph requires delta >= 3");
    build_kmw(levels, delta, seed, levels - 1, true)
}

/// Distinct odd weights in random order (odd so that explicitly-chosen even
/// weights in tests can never collide with generated ones).
fn distinct_weights(count: usize, rng: &mut StdRng) -> Vec<u64> {
    let mut ws: Vec<u64> = (0..count as u64).map(|i| 2 * i + 1).collect();
    ws.shuffle(rng);
    ws
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn path_ring_star_shapes() {
        let p = path_graph(5, 1);
        assert_eq!((p.node_count(), p.edge_count(), p.max_degree()), (5, 4, 2));
        let r = ring_graph(5, 1);
        assert_eq!((r.node_count(), r.edge_count(), r.max_degree()), (5, 5, 2));
        let s = star_graph(5, 1);
        assert_eq!((s.node_count(), s.edge_count(), s.max_degree()), (5, 4, 4));
    }

    #[test]
    fn complete_graph_edge_count() {
        let g = complete_graph(7, 2);
        assert_eq!(g.edge_count(), 21);
        assert!(g.is_connected());
        assert!(g.has_distinct_weights());
    }

    #[test]
    fn grid_dimensions() {
        let g = grid_graph(3, 4, 9);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 4 * 2);
        assert!(g.is_connected());
    }

    #[test]
    fn caterpillar_structure() {
        let g = caterpillar_graph(4, 3, 5);
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.edge_count(), 3 + 12);
        assert!(g.is_connected());
        assert_eq!(g.degree(NodeId(15)), 1);
    }

    #[test]
    fn random_graph_is_connected_and_distinct() {
        for seed in 0..8 {
            let g = random_connected_graph(40, 100, seed);
            assert!(g.is_connected());
            assert!(g.has_distinct_weights() || g.edge_count() > 100);
            assert_eq!(g.node_count(), 40);
            assert!(g.edge_count() >= 39);
        }
    }

    #[test]
    fn random_graph_clamps_edge_count() {
        let g = random_connected_graph(5, 1000, 3);
        assert_eq!(g.edge_count(), 10);
        let g2 = random_connected_graph(5, 0, 3);
        assert_eq!(g2.edge_count(), 4);
    }

    #[test]
    fn generators_are_deterministic() {
        let a = random_connected_graph(20, 50, 77);
        let b = random_connected_graph(20, 50, 77);
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn scrambled_ids_are_distinct() {
        let g = random_graph_scrambled_ids(15, 30, 4);
        let mut ids: Vec<u64> = g.nodes().map(|v| g.id(v)).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 15);
        assert!(g.is_connected());
    }

    #[test]
    fn expander_is_connected_regular_and_low_diameter() {
        let g = expander_graph(200, 6, 3);
        assert_eq!(g.node_count(), 200);
        assert!(g.is_connected());
        assert!(g.has_distinct_weights());
        assert!(g.max_degree() <= 6);
        assert!(g.degree(NodeId(17)) >= 4, "circulants are near-regular");
        // 200 nodes, degree 6: an expander's diameter is far below n / 4
        assert!(g.diameter().unwrap() < 50);
        let g2 = expander_graph(200, 6, 3);
        assert_eq!(g.edges(), g2.edges(), "deterministic per seed");
    }

    #[test]
    fn expander_handles_even_antipodal_offset() {
        // n = 6, degree 4: offset 3 (= n/2) may be drawn; every edge unique
        for seed in 0..10 {
            let g = expander_graph(6, 4, seed);
            assert!(g.is_connected());
        }
    }

    #[test]
    fn kmw_cluster_tree_shape() {
        // levels 2, δ 3: root of 9, two depth-1 clusters of 3, two
        // singleton leaves — 17 nodes
        let g = kmw_cluster_tree(2, 3, 1);
        assert_eq!(g.node_count(), 17);
        assert_eq!(g.node_count(), kmw_cluster_tree_node_count(2, 3));
        assert!(g.is_connected());
        assert!(g.has_distinct_weights());
        // every depth-1 node sees δ root nodes plus interior/leaf edges
        assert!(g.degree(NodeId(9)) >= 3);
        let g3 = kmw_cluster_tree(3, 3, 1);
        assert_eq!(g3.node_count(), kmw_cluster_tree_node_count(3, 3));
        assert_eq!(kmw_cluster_tree_node_count(3, 3), 27 + 3 * 9 + 6 * 3 + 6);
        assert!(g3.is_connected());
    }

    #[test]
    fn kmw_generators_are_deterministic_and_seed_only_moves_weights() {
        let a = kmw_cluster_tree(3, 3, 7);
        let b = kmw_cluster_tree(3, 3, 7);
        assert_eq!(a.edges(), b.edges(), "same seed, identical graph");
        let c = kmw_cluster_tree(3, 3, 8);
        assert_eq!(a.edge_count(), c.edge_count());
        let ends = |g: &WeightedGraph| g.edges().iter().map(|e| (e.u, e.v)).collect::<Vec<_>>();
        assert_eq!(ends(&a), ends(&c), "topology is seed-independent");
        assert_ne!(
            a.edges(),
            c.edges(),
            "weights are seeded (distinct assignment)"
        );
    }

    #[test]
    fn kmw_hybrid_is_connected_and_triangle_free() {
        for levels in [2usize, 3, 4] {
            let g = kmw_hybrid_graph(levels, 3, 5);
            assert_eq!(g.node_count(), kmw_hybrid_node_count(levels, 3));
            assert!(g.is_connected());
            assert!(g.has_distinct_weights());
            for e in g.edges() {
                let u_adjacent: std::collections::BTreeSet<NodeId> = g.neighbors(e.u).collect();
                assert!(
                    !g.neighbors(e.v).any(|w| u_adjacent.contains(&w)),
                    "levels {levels}: edge ({:?},{:?}) closes a triangle",
                    e.u,
                    e.v
                );
            }
        }
    }

    #[test]
    fn kmw_diameter_tracks_cluster_depth() {
        // the biregular gadgets shortcut the interior paths, so the
        // diameter is set by the cluster hierarchy's depth — two hops per
        // level (down the gadget, across, back up), not by node count
        for levels in 2..=4 {
            let tree = kmw_cluster_tree(levels, 3, 2);
            assert_eq!(tree.diameter().unwrap(), 2 * levels, "tree levels={levels}");
            let hybrid = kmw_hybrid_graph(levels, 3, 2);
            assert_eq!(
                hybrid.diameter().unwrap(),
                2 * levels - 1,
                "hybrid levels={levels}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn kmw_cluster_trees_connected_with_invariant_sizes(
            levels in 1usize..5,
            delta in 2usize..5,
            seed in 0u64..100,
        ) {
            let g = kmw_cluster_tree(levels, delta, seed);
            prop_assert_eq!(g.node_count(), kmw_cluster_tree_node_count(levels, delta));
            prop_assert!(g.is_connected());
            prop_assert!(g.has_distinct_weights());
            // size is a pure function of (levels, delta): another seed
            // builds the identical node set and edge skeleton
            let h = kmw_cluster_tree(levels, delta, seed ^ 0xABCD);
            prop_assert_eq!(g.node_count(), h.node_count());
            prop_assert_eq!(g.edge_count(), h.edge_count());
        }
    }

    #[test]
    fn single_node_generators() {
        assert_eq!(path_graph(1, 0).node_count(), 1);
        assert_eq!(star_graph(1, 0).edge_count(), 0);
        assert_eq!(complete_graph(1, 0).edge_count(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20))]
        #[test]
        fn random_graphs_always_connected(n in 1usize..60, extra in 0usize..100, seed in 0u64..1000) {
            let g = random_connected_graph(n, n + extra, seed);
            prop_assert!(g.is_connected());
            prop_assert!(g.edge_count() >= n.saturating_sub(1));
        }
    }
}
