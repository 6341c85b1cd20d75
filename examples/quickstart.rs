//! Quickstart: construct the MST of a random network with SYNC_MST, assign
//! the O(log n)-bit proof labels, and run the self-stabilizing verifier until
//! every node accepts.
//!
//! Run with: `cargo run --example quickstart`

use smst_core::MstVerificationScheme;
use smst_graph::generators::random_connected_graph;
use smst_graph::mst::kruskal;
use smst_graph::NodeId;
use smst_labeling::Instance;
use smst_sim::ReferenceRunner;

fn main() {
    let n = 24;
    let graph = random_connected_graph(n, 3 * n, 2026);
    println!("network: {graph}");

    // centralized ground truth and the distributed candidate representation
    let mst = kruskal(&graph);
    println!("MST total weight: {}", mst.total_weight());
    let tree = mst.rooted_at(&graph, NodeId(0)).expect("connected graph");
    let instance = Instance::from_tree(graph, &tree);

    // the marker assigns the O(log n)-bit labels in O(n) time
    let scheme = MstVerificationScheme::new();
    let (labels, report) = scheme.mark(&instance).expect("the candidate is an MST");
    println!(
        "marker: hierarchy height {}, construction {} rounds, marker {} rounds",
        report.hierarchy_height, report.construction_rounds, report.marker_rounds
    );

    // the verifier runs forever; on a correct instance no node ever rejects
    let verifier = scheme.verifier(&instance, labels);
    let budget = MstVerificationScheme::sync_budget(n);
    let mut runner = ReferenceRunner::rounds(&verifier, verifier.network());
    runner.run(budget);
    let alarms = runner.network().alarming_nodes(&verifier);
    println!(
        "after {} synchronous rounds: {} alarms (expected 0), all accept = {}",
        runner.steps(),
        alarms.len(),
        runner.network().all_accept(&verifier)
    );
    let bits = runner.network().memory_bits(&verifier);
    println!(
        "per-node memory: max {} bits (≈ {:.1} words of log n)",
        bits.iter().max().unwrap(),
        *bits.iter().max().unwrap() as f64 / (n as f64).log2()
    );
}
