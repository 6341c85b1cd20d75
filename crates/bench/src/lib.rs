//! Shared experiment drivers for the benchmark harness.
//!
//! Each public function regenerates one of the paper's evaluation
//! artifacts, and each artifact has **one** sweep — the one its `bin`
//! target prints (`ci/figures/*.txt` pins the tables):
//!
//! | artifact | sweep | bin |
//! |---|---|---|
//! | Table 1 | [`table1`] | `table1` |
//! | detection time | [`engine_metrics::engine_detection_sweep`] | `fig_detection` |
//! | detection locality | [`engine_metrics::engine_locality_sweep`] | `fig_locality` |
//! | memory | [`memory_sweep`] | `fig_memory` |
//! | construction time | [`construction_sweep`] | `fig_construction` |
//! | lower bound | [`lower_bound_sweep`] | `fig_lowerbound` |
//!
//! The two fault-experiment figures run on whatever execution path an
//! `EngineConfig` describes (`EngineConfig::reference()` *is* the
//! sequential simulator); memory and construction measure the centralized
//! marker and need no runner at all. Timing is the repository benchmark's
//! job (`e2e/`, declared by `BENCHMARK.json`): it times the same pipeline
//! end to end and per layer; [`harness`] holds what the smoke binaries and
//! that benchmark share.

#![forbid(unsafe_code)]

pub mod engine_metrics;
pub mod harness;

use smst_core::scheme::MstVerificationScheme;
use smst_core::Marker;
use smst_graph::generators::random_connected_graph;
use smst_graph::mst::kruskal;
use smst_graph::NodeId;
use smst_labeling::kkp::KkpMstScheme;
use smst_labeling::scheme::max_label_bits;
use smst_labeling::{Instance, OneRoundScheme};
use smst_selfstab::{SelfStabilizingMst, Variant};

/// Builds a correct MST instance on a random connected graph.
pub fn mst_instance(n: usize, m: usize, seed: u64) -> Instance {
    let g = random_connected_graph(n, m, seed);
    let tree = kruskal(&g).rooted_at(&g, NodeId(0)).expect("connected");
    Instance::from_tree(g, &tree)
}

/// One row of Table 1: a self-stabilizing MST construction variant with its
/// measured stabilization time and memory.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// The variant (paper / 1-round labels / recompute checker).
    pub variant: Variant,
    /// Number of nodes.
    pub n: usize,
    /// Number of edges.
    pub m: usize,
    /// Measured stabilization rounds from an adversarial configuration.
    pub stabilization_rounds: u64,
    /// Maximum bits per node.
    pub memory_bits: u64,
}

/// Regenerates Table 1: stabilization time and memory of the three
/// self-stabilizing MST constructions, for each graph size.
pub fn table1(sizes: &[usize], seed: u64) -> Vec<Table1Row> {
    let mut rows = Vec::new();
    for &n in sizes {
        let g = random_connected_graph(n, 3 * n, seed);
        for variant in Variant::all() {
            let outcome = SelfStabilizingMst::new(variant).stabilize_from_garbage(&g, seed);
            assert!(outcome.output_correct, "{variant:?} failed to stabilize");
            rows.push(Table1Row {
                variant,
                n,
                m: g.edge_count(),
                stabilization_rounds: outcome.total_rounds(),
                memory_bits: outcome.memory_bits_per_node,
            });
        }
    }
    rows
}

/// One point of the memory figure.
#[derive(Debug, Clone)]
pub struct MemoryPoint {
    /// Number of nodes.
    pub n: usize,
    /// Maximum register bits of the paper's scheme (label + verifier).
    pub paper_bits: u64,
    /// Maximum label bits of the `O(log² n)` 1-round baseline.
    pub one_round_bits: u64,
    /// `paper_bits / log₂ n` — constant for the paper's scheme.
    pub paper_words: f64,
    /// `one_round_bits / log₂ n` — grows like `log n` for the baseline.
    pub one_round_words: f64,
}

/// Regenerates the memory figure: per-node memory of the paper's scheme vs.
/// the `O(log² n)`-bit 1-round baseline.
pub fn memory_sweep(sizes: &[usize], seed: u64) -> Vec<MemoryPoint> {
    let mut points = Vec::new();
    for &n in sizes {
        let inst = mst_instance(n, 3 * n, seed);
        let scheme = MstVerificationScheme::new();
        let (labels, _) = scheme.mark(&inst).expect("correct instance");
        let verifier = scheme.verifier(&inst, labels);
        let paper_bits = verifier
            .network()
            .memory_bits(&verifier)
            .into_iter()
            .max()
            .unwrap_or(0);
        let kkp_labels = KkpMstScheme.mark(&inst).expect("correct instance");
        let one_round_bits = max_label_bits(&KkpMstScheme, &inst, &kkp_labels);
        let log_n = (n as f64).log2();
        points.push(MemoryPoint {
            n,
            paper_bits,
            one_round_bits,
            paper_words: paper_bits as f64 / log_n,
            one_round_words: one_round_bits as f64 / log_n,
        });
    }
    points
}

/// One point of the construction-time figure.
#[derive(Debug, Clone)]
pub struct ConstructionPoint {
    /// Number of nodes.
    pub n: usize,
    /// SYNC_MST rounds (Theorem 4.4: `O(n)`).
    pub sync_mst_rounds: u64,
    /// Marker rounds (label assignment, `O(n)`).
    pub marker_rounds: u64,
    /// `total / n` — roughly constant when the construction is linear.
    pub rounds_per_node: f64,
}

/// Regenerates the construction-time figure: SYNC_MST + marker rounds as a
/// function of `n`.
pub fn construction_sweep(sizes: &[usize], seed: u64) -> Vec<ConstructionPoint> {
    let mut points = Vec::new();
    for &n in sizes {
        let inst = mst_instance(n, 3 * n, seed);
        let (_, report) = Marker.label(&inst).expect("correct instance");
        points.push(ConstructionPoint {
            n,
            sync_mst_rounds: report.construction_rounds,
            marker_rounds: report.marker_rounds,
            rounds_per_node: report.total_rounds() as f64 / n as f64,
        });
    }
    points
}

/// The lower-bound demonstration (§9, Lemma 9.1): build two blow-up instances
/// `G′(τ)` that share the same topology, the same candidate components and
/// the same labels-visible structure, and differ **only** in one edge weight
/// placed on the heavy middle edge of a blown-up path — in one instance the
/// candidate tree is the MST, in the other it is not. A verifier whose
/// detection radius around the original nodes is `k ≤ τ` sees identical
/// views in both instances and therefore cannot reject the bad one, while the
/// paper's (Θ(log n)-round, O(log n)-bit) verifier does; this is the
/// mechanism behind the Ω(log n)-time lower bound at O(log n) bits.
#[derive(Debug, Clone)]
pub struct LowerBoundPoint {
    /// The blow-up parameter τ.
    pub tau: usize,
    /// The probe radius `k`.
    pub radius: usize,
    /// Whether radius-`k` views at the original nodes distinguish the non-MST
    /// instance from the MST instance.
    pub distinguishable: bool,
}

/// Regenerates the lower-bound figure.
pub fn lower_bound_sweep(tau: usize, seed: u64) -> Vec<LowerBoundPoint> {
    use smst_graph::blowup::blowup;
    use smst_graph::WeightedGraph;
    let g = random_connected_graph(8, 16, seed);
    let mst = kruskal(&g);
    let tree = mst.rooted_at(&g, NodeId(0)).expect("connected");
    // second weight assignment: raise one tree edge above every other weight,
    // so the *same* candidate tree is no longer minimal
    let heavy_edge = tree.edges()[0];
    let max_w = g.max_weight().unwrap_or(1);
    let mut g_bad = WeightedGraph::new();
    for v in g.nodes() {
        g_bad.add_node_with_id(g.id(v));
    }
    for (eid, e) in g.edge_entries() {
        let w = if eid == heavy_edge {
            max_w + 1000
        } else {
            e.weight
        };
        g_bad.add_edge(e.u, e.v, w).expect("copying edges");
    }
    let tree_bad = smst_graph::RootedTree::from_edges(&g_bad, &tree.edges(), tree.root())
        .expect("same edge set");
    assert!(!smst_graph::mst::is_mst(&g_bad, &tree_bad.edges()));

    let correct = blowup(&g, &tree, tau);
    let tampered = blowup(&g_bad, &tree_bad, tau);

    // radius-k view of a node: distances, incident-edge weights visible within
    // the radius, and component-pointer orientation — everything a k-round
    // verifier anchored at that node can learn
    let view = |b: &smst_graph::blowup::BlowupResult, v: NodeId, k: usize| {
        let d = b.graph.bfs_distances(v);
        let mut sig: Vec<(usize, u64, bool)> = b
            .graph
            .nodes()
            .filter(|u| d[u.index()] <= k)
            .map(|u| {
                let w: u64 = b
                    .graph
                    .incident_edges(u)
                    .iter()
                    .filter(|&&e| d[b.graph.edge(e).other(u).index()] <= k)
                    .map(|&e| b.graph.weight(e))
                    .sum();
                (d[u.index()], w, b.components.pointer(u).is_some())
            })
            .collect();
        sig.sort_unstable();
        sig
    };

    let originals: Vec<NodeId> = g.nodes().collect();
    (0..=2 * tau + 1)
        .map(|radius| {
            let distinguishable = originals
                .iter()
                .any(|&v| view(&correct, v, radius) != view(&tampered, v, radius));
            LowerBoundPoint {
                tau,
                radius,
                distinguishable,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_orders_variants() {
        let rows = table1(&[24], 1);
        assert_eq!(rows.len(), 3);
        let get = |v: Variant| rows.iter().find(|r| r.variant == v).unwrap().clone();
        let paper = get(Variant::Paper);
        let recompute = get(Variant::Recompute);
        assert!(recompute.stabilization_rounds > paper.stabilization_rounds);
    }

    #[test]
    fn detection_is_polylogarithmic_in_practice() {
        let reference = smst_engine::EngineConfig::reference();
        let points = engine_metrics::engine_detection_sweep(&[16, 32], 2, &reference);
        for p in &points {
            let detected = p.detection_steps.expect("a stored-piece fault is detected");
            assert!(detected < p.n * p.n, "detection should beat Θ(n²)");
        }
    }

    #[test]
    fn memory_sweep_shows_the_gap_in_words() {
        let points = memory_sweep(&[32, 256], 3);
        // the baseline's words-per-log-n grows; the paper's stays bounded
        assert!(points[1].one_round_words > points[0].one_round_words * 1.05);
        assert!(points[1].paper_words < points[0].paper_words * 1.5);
    }

    #[test]
    fn construction_is_linear() {
        let points = construction_sweep(&[32, 128], 4);
        for p in &points {
            assert!(p.rounds_per_node < 120.0);
        }
    }

    #[test]
    fn lower_bound_views_are_identical_up_to_tau() {
        let tau = 3;
        let points = lower_bound_sweep(tau, 5);
        for p in &points {
            if p.radius <= tau {
                assert!(
                    !p.distinguishable,
                    "radius {} must not distinguish",
                    p.radius
                );
            }
        }
        assert!(
            points.last().unwrap().distinguishable,
            "the full radius must distinguish"
        );
        let first = points.iter().position(|p| p.distinguishable).unwrap();
        assert_eq!(first, tau + 1, "the threshold radius is exactly τ + 1");
    }
}
