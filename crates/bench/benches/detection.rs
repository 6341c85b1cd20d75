//! Bench: one synchronous round of the paper's verifier and a full
//! single-fault detection episode (the F-DET experiment). Results land in
//! `BENCH_detection.json`.
use smst_bench::harness::BenchGroup;
use smst_core::faults::FaultKind;
use smst_core::MstVerificationScheme;
use smst_engine::adapters::run_engine_fault_experiment;
use smst_engine::EngineConfig;
use smst_graph::NodeId;
use smst_sim::{FaultPlan, SyncRunner};

fn main() {
    let mut group = BenchGroup::new("detection");
    let reference = EngineConfig::reference();
    for n in [16usize, 32] {
        let inst = smst_bench::mst_instance(n, 3 * n, 2);
        let scheme = MstVerificationScheme::new();
        let (labels, _) = scheme.mark(&inst).unwrap();
        let verifier = scheme.verifier(&inst, labels);
        let net = verifier.network();
        let mut runner = SyncRunner::new(&verifier, net);
        group.bench(&format!("verifier_round/{n}"), 10, || runner.step_round());
        group.bench(&format!("single_fault_episode/{n}"), 10, || {
            run_engine_fault_experiment(
                &inst,
                &FaultPlan::single(NodeId(n / 2)),
                FaultKind::SpDistance,
                3,
                &reference,
            )
            .expect("the reference envelope is valid")
            .report
            .detection_time
        });
    }
    group.finish();
}
