//! The enhanced Awerbuch–Varghese transformer (§10).
//!
//! The transformer turns an input/output construction algorithm plus a
//! self-stabilizing verification scheme into a self-stabilizing algorithm:
//! construct once, verify forever, reset-and-reconstruct whenever a fault is
//! detected. Following the paper's accounting (Theorem 10.3), one
//! stabilization episode from an arbitrary initial configuration costs
//!
//! * the detection time of the verification scheme on the (arbitrary,
//!   possibly corrupted) initial configuration,
//! * a reset wave (`O(n)` in the paper's model; the underlying self-
//!   stabilizing spanning-tree / reset substrate of \[13\] and \[1, 28\] is
//!   charged as a linear number of rounds), and
//! * the construction + marker time.
//!
//! The driver below *measures* the detection part by actually running the
//! verifier of the chosen variant on the corrupted configuration, then
//! charges the reset and reconstruction and re-checks functional correctness
//! (the output components describe the unique MST).

use crate::baselines::{detection_cost, verification_memory_bits, DetectionCost};
use smst_core::{Marker, SyncMst};
use smst_graph::mst::kruskal;
use smst_graph::{ComponentMap, WeightedGraph};
use smst_labeling::Instance;

/// Which verification scheme the transformer is instantiated with
/// (the rows of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// SYNC_MST + the paper's `O(log n)`-bit polylog-time verifier.
    Paper,
    /// SYNC_MST + the `O(log² n)`-bit 1-round scheme of \[54, 55\]
    /// (stand-in for the `O(log² n)`-memory algorithm of \[17\]).
    OneRoundLabels,
    /// SYNC_MST + label-free re-verification by recomputation
    /// (stand-in for the `Ω(n·|E|)`-time algorithms of [48, 18]).
    Recompute,
}

impl Variant {
    /// All variants, in Table 1 order.
    pub fn all() -> [Variant; 3] {
        [Variant::Recompute, Variant::OneRoundLabels, Variant::Paper]
    }

    /// A short label for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Variant::Paper => "this paper (O(log n) bits)",
            Variant::OneRoundLabels => "1-round labels (O(log^2 n) bits)",
            Variant::Recompute => "recompute checker (O(log n) bits)",
        }
    }
}

/// The outcome of one stabilization episode.
#[derive(Debug, Clone)]
pub struct StabilizationOutcome {
    /// Rounds until the corruption was detected (0 if the initial
    /// configuration was already flagged as requiring construction).
    pub detection_rounds: u64,
    /// Rounds charged to the reset wave.
    pub reset_rounds: u64,
    /// Rounds used by SYNC_MST plus the marker.
    pub construction_rounds: u64,
    /// Maximum register size over all nodes (construction and verification).
    pub memory_bits_per_node: u64,
    /// The stabilized output: the components describing the constructed MST.
    pub components: ComponentMap,
    /// Whether the stabilized output is indeed the MST (sanity check; always
    /// `true` unless something is broken).
    pub output_correct: bool,
}

impl StabilizationOutcome {
    /// Total stabilization time in rounds.
    pub fn total_rounds(&self) -> u64 {
        self.detection_rounds + self.reset_rounds + self.construction_rounds
    }
}

/// The self-stabilizing MST construction obtained from the transformer.
#[derive(Debug, Clone, Copy)]
pub struct SelfStabilizingMst {
    variant: Variant,
}

impl SelfStabilizingMst {
    /// Instantiates the transformer with a verification variant.
    pub fn new(variant: Variant) -> Self {
        SelfStabilizingMst { variant }
    }

    /// The variant in use.
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// Runs one stabilization episode starting from an arbitrary (possibly
    /// adversarial) component configuration.
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty or disconnected.
    pub fn stabilize(
        &self,
        graph: &WeightedGraph,
        initial_components: &ComponentMap,
    ) -> StabilizationOutcome {
        let instance = Instance::new(graph.clone(), initial_components.clone());

        // 1. detection: how long until the chosen verifier flags the initial
        //    configuration (0 when it is already a correct MST, in which case
        //    no reconstruction is needed at all).
        let already_correct = instance.satisfies_mst();
        let detection = if already_correct {
            DetectionCost {
                rounds: 0,
                detected: false,
            }
        } else {
            detection_cost(self.variant, &instance)
        };

        self.complete_episode(graph, initial_components, already_correct, detection)
    }

    /// Completes a stabilization episode **given the detection phase's
    /// outcome**: reset + reconstruction, memory and functional-correctness
    /// accounting (steps 2–4 of [`Self::stabilize`]).
    fn complete_episode(
        &self,
        graph: &WeightedGraph,
        initial_components: &ComponentMap,
        already_correct: bool,
        detection: DetectionCost,
    ) -> StabilizationOutcome {
        let DetectionCost {
            rounds: detection_rounds,
            detected,
        } = detection;

        // 2. reset + reconstruction (skipped if nothing was detected and the
        //    configuration is already correct). The construction run also
        //    provides the memory accounting of step 3 (SYNC_MST is
        //    deterministic, so re-running it for the skipped branch gives
        //    the same footprint).
        let n = graph.node_count() as u64;
        let (reset_rounds, construction_rounds, components, construction_bits) =
            if already_correct && !detected {
                let bits = SyncMst.run(graph).memory_bits_per_node;
                (0, 0, initial_components.clone(), bits)
            } else {
                let outcome = SyncMst.run(graph);
                let components = ComponentMap::from_rooted_tree(graph, &outcome.tree);
                // the marker re-labels the fresh output so that verification
                // can resume (for the label-free variant this is a no-op)
                let marker_rounds = match self.variant {
                    Variant::Recompute => 0,
                    _ => {
                        let fresh = Instance::new(graph.clone(), components.clone());
                        Marker
                            .label(&fresh)
                            .map(|(_, report)| report.marker_rounds)
                            .unwrap_or(0)
                    }
                };
                (
                    n,
                    outcome.rounds + marker_rounds,
                    components,
                    outcome.memory_bits_per_node,
                )
            };

        // 3. memory: the maximum of the construction's and the verifier's
        //    per-node footprint.
        let verification_bits = verification_memory_bits(self.variant, graph);
        let memory_bits_per_node = construction_bits.max(verification_bits);

        // 4. functional correctness of the stabilized output
        let final_instance = Instance::new(graph.clone(), components.clone());
        let output_correct = final_instance.satisfies_mst()
            && final_instance
                .candidate_tree()
                .map(|t| {
                    let mut a = t.edges();
                    a.sort_unstable();
                    a == kruskal(graph).edges()
                })
                .unwrap_or(false);

        StabilizationOutcome {
            detection_rounds,
            reset_rounds,
            construction_rounds,
            memory_bits_per_node,
            components,
            output_correct,
        }
    }

    /// Convenience: stabilizes from an adversarial configuration in which
    /// every node's component pointer is chosen pseudo-randomly.
    pub fn stabilize_from_garbage(&self, graph: &WeightedGraph, seed: u64) -> StabilizationOutcome {
        let components = garbage_components(graph, seed);
        self.stabilize(graph, &components)
    }
}

/// An adversarial component configuration: every node points at a pseudo-
/// random port (or stores no pointer).
pub fn garbage_components(graph: &WeightedGraph, seed: u64) -> ComponentMap {
    use smst_rng::{Rng, SeedableRng, StdRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut components = ComponentMap::empty(graph.node_count());
    for v in graph.nodes() {
        let d = graph.degree(v);
        if d > 0 && rng.gen_bool(0.8) {
            components.set_pointer(v, Some(smst_graph::Port(rng.gen_range(0..d))));
        }
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use smst_graph::generators::random_connected_graph;

    #[test]
    fn stabilizes_from_garbage_for_all_variants() {
        let g = random_connected_graph(20, 50, 1);
        for variant in Variant::all() {
            let outcome = SelfStabilizingMst::new(variant).stabilize_from_garbage(&g, 7);
            assert!(outcome.output_correct, "{variant:?} must output the MST");
            assert!(outcome.total_rounds() > 0);
        }
    }

    #[test]
    fn already_correct_configuration_is_left_untouched() {
        let g = random_connected_graph(16, 40, 2);
        let mst = SyncMst.run(&g);
        let components = ComponentMap::from_rooted_tree(&g, &mst.tree);
        let outcome = SelfStabilizingMst::new(Variant::Paper).stabilize(&g, &components);
        assert!(outcome.output_correct);
        assert_eq!(outcome.construction_rounds, 0);
        assert_eq!(outcome.reset_rounds, 0);
    }

    #[test]
    fn paper_variant_is_linear_time_and_log_memory() {
        for n in [16usize, 64, 128] {
            let g = random_connected_graph(n, 3 * n, 3);
            let outcome = SelfStabilizingMst::new(Variant::Paper).stabilize_from_garbage(&g, 5);
            assert!(
                outcome.construction_rounds + outcome.reset_rounds <= 200 * n as u64,
                "n={n}: construction part must be O(n)"
            );
            let log_n = (n as f64).log2();
            assert!(
                (outcome.memory_bits_per_node as f64) < 150.0 * log_n + 400.0,
                "n={n}: {} bits is not O(log n)",
                outcome.memory_bits_per_node
            );
        }
    }

    #[test]
    fn recompute_variant_costs_much_more_time_on_larger_graphs() {
        let g = random_connected_graph(64, 200, 4);
        let paper = SelfStabilizingMst::new(Variant::Paper).stabilize_from_garbage(&g, 6);
        let recompute = SelfStabilizingMst::new(Variant::Recompute).stabilize_from_garbage(&g, 6);
        assert!(
            recompute.total_rounds() > 4 * paper.total_rounds(),
            "the n·|E| checker should dominate the paper's transformer"
        );
    }

    #[test]
    fn one_round_variant_memory_grows_faster_than_paper() {
        // growth-rate comparison (the Table 1 claim is asymptotic; see the
        // memory figure harness for the full sweep)
        let small = random_connected_graph(64, 180, 5);
        let large = random_connected_graph(512, 1300, 5);
        let p_small = SelfStabilizingMst::new(Variant::Paper).stabilize_from_garbage(&small, 8);
        let p_large = SelfStabilizingMst::new(Variant::Paper).stabilize_from_garbage(&large, 8);
        let k_small =
            SelfStabilizingMst::new(Variant::OneRoundLabels).stabilize_from_garbage(&small, 8);
        let k_large =
            SelfStabilizingMst::new(Variant::OneRoundLabels).stabilize_from_garbage(&large, 8);
        let paper_ratio = p_large.memory_bits_per_node as f64 / p_small.memory_bits_per_node as f64;
        assert!(
            paper_ratio <= 1.8,
            "the paper's memory must stay O(log n) (ratio {paper_ratio})"
        );
        assert!(
            k_large.memory_bits_per_node >= k_small.memory_bits_per_node,
            "the O(log^2 n) baseline's memory must grow with n"
        );
    }

    #[test]
    fn garbage_components_are_deterministic_per_seed() {
        let g = random_connected_graph(12, 30, 9);
        assert_eq!(garbage_components(&g, 1), garbage_components(&g, 1));
    }
}
