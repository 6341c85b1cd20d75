//! Cross-crate integration tests: construction → marking → verification →
//! fault detection → self-stabilization, exercised end to end.

use smst_core::faults::FaultKind;
use smst_core::scheme::{rounds_until_rejection, run_sync_fault_experiment, MstVerificationScheme};
use smst_core::SyncMst;
use smst_graph::generators::{caterpillar_graph, grid_graph, random_connected_graph, ring_graph};
use smst_graph::mst::{is_mst, kruskal};
use smst_graph::{NodeId, RootedTree};
use smst_labeling::Instance;
use smst_selfstab::{SelfStabilizingMst, Variant};
use smst_sim::{FaultPlan, ReferenceRunner};

fn instance_from(graph: smst_graph::WeightedGraph) -> Instance {
    let tree = kruskal(&graph)
        .rooted_at(&graph, NodeId(0))
        .expect("connected");
    Instance::from_tree(graph, &tree)
}

#[test]
fn construction_marking_and_verification_agree_across_topologies() {
    let graphs = vec![
        random_connected_graph(20, 60, 1),
        ring_graph(16, 2),
        grid_graph(4, 5, 3),
        caterpillar_graph(5, 3, 4),
    ];
    for graph in graphs {
        // SYNC_MST agrees with Kruskal
        let outcome = SyncMst.run(&graph);
        assert!(is_mst(&graph, &outcome.tree.edges()));

        // marker labels are accepted by the verifier
        let inst = instance_from(graph);
        let scheme = MstVerificationScheme::new();
        let (labels, report) = scheme.mark(&inst).unwrap();
        assert!(report.total_rounds() <= 130 * inst.node_count() as u64);
        let verifier = scheme.verifier(&inst, labels);
        let mut runner = ReferenceRunner::rounds(&verifier, verifier.network());
        runner.run(MstVerificationScheme::sync_budget(inst.node_count()));
        assert!(runner.network().all_accept(&verifier));
    }
}

#[test]
fn injected_faults_are_detected_within_the_polylog_budget() {
    let inst = instance_from(random_connected_graph(24, 70, 9));
    for kind in [
        FaultKind::SpDistance,
        FaultKind::StoredPieceWeight,
        FaultKind::EndpString,
    ] {
        let plan = FaultPlan::random(24, 1, 77);
        let report = run_sync_fault_experiment(&inst, &plan, kind, 8);
        assert!(report.detected, "{kind:?} was not detected");
        let n = inst.node_count();
        assert!(
            report.detection_time.unwrap() <= 4 * MstVerificationScheme::sync_budget(n),
            "{kind:?} took too long"
        );
    }
}

#[test]
fn a_non_mst_candidate_with_stale_labels_is_rejected() {
    let graph = random_connected_graph(16, 48, 11);
    let mst = kruskal(&graph);
    let tree = mst.rooted_at(&graph, NodeId(0)).unwrap();
    let correct = Instance::from_tree(graph.clone(), &tree);
    let (labels, _) = MstVerificationScheme::new().mark(&correct).unwrap();

    // swap a tree edge for a heavier non-tree edge
    let mut bad = None;
    'outer: for (e, _) in graph.edge_entries() {
        if mst.contains(e) {
            continue;
        }
        for i in 0..mst.edges().len() {
            let mut edges = mst.edges().to_vec();
            edges[i] = e;
            if let Ok(t) = RootedTree::from_edges(&graph, &edges, NodeId(0)) {
                let cand = Instance::from_tree(graph.clone(), &t);
                if !cand.satisfies_mst() {
                    bad = Some(cand);
                    break 'outer;
                }
            }
        }
    }
    let bad = bad.expect("a non-MST spanning tree exists");
    let budget = 8 * MstVerificationScheme::sync_budget(16);
    assert!(rounds_until_rejection(&bad, labels, budget).is_some());
}

#[test]
fn self_stabilization_reaches_the_mst_from_arbitrary_configurations() {
    let graph = random_connected_graph(32, 90, 13);
    for variant in Variant::all() {
        let outcome = SelfStabilizingMst::new(variant).stabilize_from_garbage(&graph, 3);
        assert!(
            outcome.output_correct,
            "{variant:?} did not stabilize to the MST"
        );
        // the stabilized components are exactly the unique MST
        let inst = Instance::new(graph.clone(), outcome.components.clone());
        let mut edges = inst.candidate_tree().unwrap().edges();
        edges.sort_unstable();
        assert_eq!(edges, kruskal(&graph).edges());
    }
}

#[test]
fn verifier_register_memory_stays_logarithmic_while_baseline_grows() {
    let points = smst_bench::memory_sweep(&[32, 128, 512], 21);
    // paper: words of log n stay within a constant band
    let w: Vec<f64> = points.iter().map(|p| p.paper_words).collect();
    assert!(w[2] < w[0] * 1.6 + 1.0);
    // baseline: words of log n grow with n
    assert!(points[2].one_round_words > points[0].one_round_words);
}

#[test]
fn blown_up_instances_preserve_the_mst_property() {
    use smst_graph::blowup::blowup;
    let graph = random_connected_graph(10, 20, 5);
    let tree = kruskal(&graph).rooted_at(&graph, NodeId(0)).unwrap();
    let b = blowup(&graph, &tree, 3);
    let blown_tree = b.components.rooted_spanning_tree(&b.graph).unwrap();
    assert!(is_mst(&b.graph, &blown_tree.edges()));
    // and the blown-up instance is accepted by the verifier end-to-end
    let inst = Instance::new(b.graph.clone(), b.components.clone());
    assert!(inst.satisfies_mst());
}

#[test]
fn broken_component_pointers_are_detected() {
    let inst = instance_from(random_connected_graph(18, 50, 6));
    let (labels, _) = MstVerificationScheme::new().mark(&inst).unwrap();
    // re-point one node at a different neighbour, producing a non-tree
    let graph = inst.graph.clone();
    let mut components = inst.components.clone();
    let victim = NodeId(5);
    let current = components.pointer(victim);
    let new_port = (0..graph.degree(victim))
        .map(smst_graph::Port)
        .find(|&p| Some(p) != current)
        .unwrap();
    components.set_pointer(victim, Some(new_port));
    let broken = Instance::new(graph, components);
    if !broken.satisfies_mst() {
        let budget = 8 * MstVerificationScheme::sync_budget(18);
        assert!(rounds_until_rejection(&broken, labels, budget).is_some());
    }
}
