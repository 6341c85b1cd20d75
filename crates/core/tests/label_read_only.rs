//! A verifier step never rewrites the label: its update
//! ([`smst_core::CoreUpdate`]) is every other field of the register, so on
//! every execution path the label each register holds after a fault-free
//! run is, bit for bit, the one the marker wrote.

use smst_core::{CoreLabel, CoreVerifier, Marker};
use smst_engine::{EngineConfig, LayoutPolicy, StopCondition};
use smst_graph::generators::random_connected_graph;
use smst_graph::mst::kruskal;
use smst_graph::NodeId;
use smst_labeling::Instance;
use smst_sim::Daemon;

const N: usize = 200;
const ROUNDS: usize = 64;

#[test]
fn sixty_four_rounds_leave_every_label_as_marked() {
    let g = random_connected_graph(N, 3 * N, 21);
    let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
    let inst = Instance::from_tree(g, &tree);
    let (labels, _) = Marker.label(&inst).unwrap();
    let verifier = CoreVerifier::new(inst.graph.clone(), inst.components.clone(), labels.clone());
    let random = Daemon::Random {
        seed: 5,
        extra_factor: 1,
    };
    let paths = [
        ("reference rounds", EngineConfig::reference()),
        (
            "reference daemon",
            EngineConfig::reference().asynchronous(random.clone(), 1),
        ),
        ("sharded, 1 thread", EngineConfig::new()),
        ("sharded, 2 threads", EngineConfig::new().threads(2)),
        ("halo, 2 threads", EngineConfig::new().threads(2).halo(true)),
        (
            "rcm, 2 threads",
            EngineConfig::new().threads(2).layout(LayoutPolicy::Rcm),
        ),
        (
            "batches of 16, 2 threads",
            EngineConfig::new().threads(2).asynchronous(random, 16),
        ),
    ];
    for (path, config) in paths {
        let mut runner = config
            .instantiate(&verifier, inst.graph.clone())
            .expect("a valid envelope");
        runner.run_until(StopCondition::Steps, ROUNDS);
        assert_eq!(runner.steps(), ROUNDS, "{path}");
        assert!(!runner.any_alarm(), "{path}: a correct instance alarmed");
        let held: Vec<CoreLabel> = runner.states_snapshot().iter().map(|s| s.label).collect();
        assert!(held == labels, "{path}: a step rewrote a label");
    }
}
