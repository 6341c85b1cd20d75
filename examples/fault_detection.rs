//! Fault detection: corrupt the proof at a few nodes of a correctly labelled
//! MST and watch how quickly — and how close to the faults — the verifier
//! raises alarms (properties (1) and (2) of the paper's abstract).
//!
//! Run with: `cargo run --example fault_detection`

use smst_core::faults::FaultKind;
use smst_core::scheme::run_sync_fault_experiment;
use smst_graph::generators::random_connected_graph;
use smst_graph::mst::kruskal;
use smst_graph::NodeId;
use smst_labeling::Instance;
use smst_sim::FaultPlan;

fn main() {
    let n = 32;
    let graph = random_connected_graph(n, 3 * n, 7);
    let tree = kruskal(&graph)
        .rooted_at(&graph, NodeId(0))
        .expect("connected");
    let instance = Instance::from_tree(graph, &tree);

    for (f, kind) in [
        (1usize, FaultKind::SpDistance),
        (2, FaultKind::StoredPieceWeight),
        (4, FaultKind::RootsString),
    ] {
        let plan = FaultPlan::random(n, f, 1000 + f as u64);
        let report = run_sync_fault_experiment(&instance, &plan, kind, 5);
        println!(
            "{f} fault(s) of kind {kind:?}: detected = {}, detection time = {:?} rounds, \
             max distance fault→alarm = {} hops",
            report.detected, report.detection_time, report.max_detection_distance
        );
    }
}
