//! A facade tying the marker and the verifier together, plus the
//! **sequential oracle** of the paper's fault experiment.
//!
//! The experiment every figure measures — warm a correct, marker-labelled
//! configuration up, corrupt `f` registers, count rounds to the first
//! alarm — is written once for every execution path in `smst-engine`
//! (`run_fault_experiment`, reached for the verifier through
//! `smst_bench::engine_metrics::verifier_point`). [`run_sync_fault_experiment`]
//! is the same protocol spelled out on `smst-sim`'s [`ReferenceRunner`]
//! in rounds and nothing else: the reference the engine path is pinned
//! equal to (`smst_bench`'s
//! `engine_metrics::tests::engine_detection_sweep_equals_the_sequential_experiment`,
//! on four envelopes) and the driver this crate's own tests, the examples
//! and the integration tests use.

use crate::faults::{corrupt, FaultKind};
use crate::labels::CoreLabel;
use crate::marker::{ConstructionReport, Marker};
use crate::verifier::CoreVerifier;
use smst_labeling::scheme::{Instance, MarkError};
use smst_sim::{DetectionReport, FaultPlan, Network, ReferenceRunner, StopCondition};

/// The paper's MST proof labeling scheme: `O(log n)` bits per node,
/// polylogarithmic detection time, `O(n)`-time marker.
#[derive(Debug, Clone, Copy, Default)]
pub struct MstVerificationScheme;

impl MstVerificationScheme {
    /// Creates the scheme.
    pub fn new() -> Self {
        MstVerificationScheme
    }

    /// Runs the marker on a correct instance.
    ///
    /// # Errors
    ///
    /// Returns a [`MarkError`] if the instance's candidate subgraph is not an
    /// MST.
    pub fn mark(
        &self,
        instance: &Instance,
    ) -> Result<(Vec<CoreLabel>, ConstructionReport), MarkError> {
        Marker.label(instance)
    }

    /// Builds the verifier program for an instance and a label assignment
    /// (the labels may come from the marker or from an adversary).
    pub fn verifier(&self, instance: &Instance, labels: Vec<CoreLabel>) -> CoreVerifier {
        CoreVerifier::new(instance.graph.clone(), instance.components.clone(), labels)
    }

    /// A generous synchronous detection-time budget, polylogarithmic in `n`
    /// (used as the time-out of the experiment drivers).
    pub fn sync_budget(n: usize) -> usize {
        let log_n = (n.max(2) as f64).log2().ceil() as usize;
        800 * log_n.pow(3) + 800
    }
}

/// The sequential oracle of the fault experiment: runs the synchronous
/// verifier on a correct, marker-labelled instance for the scheme's
/// warm-up budget, injects faults of the given kind at the planned nodes
/// (`corrupt(state, kind, seed + i)` in plan order), and measures the
/// detection time and detection distance.
///
/// [`ReferenceRunner::run_until`] consults the alarm before its first
/// post-injection round where the engine's driver always steps once first; [`corrupt`]
/// never writes a verdict, so no fault it injects can tell the two apart.
///
/// # Panics
///
/// Panics if the instance is not a correct MST instance (the experiment
/// measures detection of *injected* faults, so it starts from a correct
/// configuration), or if the verifier raises an alarm on it during the
/// warm-up.
pub fn run_sync_fault_experiment(
    instance: &Instance,
    plan: &FaultPlan,
    kind: FaultKind,
    seed: u64,
) -> DetectionReport {
    let scheme = MstVerificationScheme::new();
    let (labels, _) = scheme
        .mark(instance)
        .expect("fault experiments start from a correct instance");
    let verifier = scheme.verifier(instance, labels);
    let n = instance.node_count();
    let budget = MstVerificationScheme::sync_budget(n);

    let net = verifier.network();
    let mut runner = ReferenceRunner::rounds(&verifier, net);
    // let the trains reach steady state (no alarms may occur here)
    runner.run(budget);
    assert!(
        runner.network().alarming_nodes(&verifier).is_empty(),
        "a correct instance must not raise alarms during warm-up"
    );

    // inject the faults
    let mut i = 0u64;
    plan.apply(runner.network_mut(), |_v, state| {
        corrupt(state, kind, seed.wrapping_add(i));
        i += 1;
    });

    match runner.run_until(StopCondition::FirstAlarm, 4 * budget) {
        Some(t) => DetectionReport::from_alarms(
            &instance.graph,
            t,
            runner.network().alarming_nodes(&verifier),
            plan.nodes(),
        ),
        None => DetectionReport::not_detected(),
    }
}

/// Runs the synchronous verifier on an instance whose candidate subgraph is
/// **not** an MST (with labels taken from an adversary or from a stale
/// marker) and returns the number of rounds until the first alarm.
pub fn rounds_until_rejection(
    instance: &Instance,
    labels: Vec<CoreLabel>,
    max_rounds: usize,
) -> Option<usize> {
    let verifier = MstVerificationScheme::new().verifier(instance, labels);
    let net: Network<CoreVerifier> = verifier.network();
    let mut runner = ReferenceRunner::rounds(&verifier, net);
    runner.run_until(StopCondition::FirstAlarm, max_rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smst_graph::generators::random_connected_graph;
    use smst_graph::mst::kruskal;
    use smst_graph::NodeId;

    fn mst_instance(n: usize, m: usize, seed: u64) -> Instance {
        let g = random_connected_graph(n, m, seed);
        let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
        Instance::from_tree(g, &tree)
    }

    #[test]
    fn sp_distance_fault_is_detected_quickly_and_locally() {
        let inst = mst_instance(20, 50, 3);
        let plan = FaultPlan::single(NodeId(7));
        let report = run_sync_fault_experiment(&inst, &plan, FaultKind::SpDistance, 1);
        assert!(report.detected);
        // a structural (1-round checkable) fault is caught within one round
        // at distance at most 1
        assert!(report.detection_time.unwrap() <= 2);
        assert!(report.max_detection_distance <= 1);
    }

    #[test]
    fn stored_piece_fault_is_detected() {
        let inst = mst_instance(24, 60, 4);
        let plan = FaultPlan::single(NodeId(5));
        let report = run_sync_fault_experiment(&inst, &plan, FaultKind::StoredPieceWeight, 2);
        assert!(report.detected, "a corrupted piece weight must be detected");
    }

    #[test]
    fn train_buffer_scrambling_is_tolerated() {
        // the dynamic train state is self-healing: scrambling it must not
        // produce a *permanent* rejection, and the network must return to
        // all-accept
        let inst = mst_instance(16, 40, 5);
        let scheme = MstVerificationScheme::new();
        let (labels, _) = scheme.mark(&inst).unwrap();
        let verifier = scheme.verifier(&inst, labels);
        let budget = MstVerificationScheme::sync_budget(16);
        let net = verifier.network();
        let mut runner = ReferenceRunner::rounds(&verifier, net);
        runner.run(budget);
        let plan = FaultPlan::random(16, 3, 9);
        let mut i = 0;
        plan.apply(runner.network_mut(), |_v, s| {
            corrupt(s, FaultKind::TrainBuffers, 100 + i);
            i += 1;
        });
        runner.run(2 * budget);
        assert!(
            runner.network().alarming_nodes(&verifier).is_empty(),
            "scrambled train buffers must heal without a permanent alarm"
        );
    }

    #[test]
    fn non_mst_candidate_is_rejected() {
        // swap a tree edge for a heavier non-tree edge and keep the stale labels
        let g = random_connected_graph(14, 40, 6);
        let mst = kruskal(&g);
        let tree = mst.rooted_at(&g, NodeId(0)).unwrap();
        let correct = Instance::from_tree(g.clone(), &tree);
        let (labels, _) = MstVerificationScheme::new().mark(&correct).unwrap();

        let non_tree: Vec<_> = g
            .edge_entries()
            .map(|(e, _)| e)
            .filter(|e| !mst.contains(*e))
            .collect();
        let mut bad = None;
        'search: for &extra in &non_tree {
            for i in 0..mst.edges().len() {
                let mut edges = mst.edges().to_vec();
                edges[i] = extra;
                if let Ok(t) = smst_graph::RootedTree::from_edges(&g, &edges, NodeId(0)) {
                    let candidate = Instance::from_tree(g.clone(), &t);
                    if !candidate.satisfies_mst() {
                        bad = Some(candidate);
                        break 'search;
                    }
                }
            }
        }
        let bad = bad.expect("a spanning non-MST tree exists");
        let budget = MstVerificationScheme::sync_budget(14);
        let detected = rounds_until_rejection(&bad, labels, 8 * budget);
        assert!(detected.is_some(), "a non-MST candidate must be rejected");
    }
}
