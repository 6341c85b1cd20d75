//! Adapters: the paper's verifier and the self-stabilizing transformer on
//! the engine.
//!
//! [`smst_core::CoreVerifier`] already implements
//! [`NodeProgram`], so the engine runs it *unchanged*
//! — these drivers only bind the paper's objects (instance, marker labels,
//! fault kinds, the scheme's polylog budgets) to the engine's generic
//! pieces, producing the outcome types of [`smst_core::scheme`] and
//! [`smst_selfstab`] so downstream tables and figures accept either.
//!
//! [`run_engine_fault_experiment`] is mark → instantiate →
//! [`run_fault_experiment`]: the synchronous and asynchronous variants
//! differ only in the envelope's [`Mode`](crate::config::Mode) (and hence
//! in the warm-up budget), not in code path. Its sequential oracle is
//! [`smst_core::scheme::run_sync_fault_experiment`], which lives below the
//! engine on `smst-sim`'s `SyncRunner`; because the engine's rounds are
//! bit-for-bit the sequential ones, every number the two return (warm-up
//! rounds, detection time, alarming nodes, memory) is **equal**, pinned on
//! every execution path by the adapter tests.

use crate::config::{ConfigError, EngineConfig};
use crate::runner::{Runner, StopCondition};
use crate::scenario::run_fault_experiment;
use smst_core::faults::{corrupt, FaultKind};
use smst_core::scheme::FaultExperimentOutcome;
use smst_core::{CoreLabel, CoreVerifier, Marker, MstVerificationScheme};
use smst_graph::mst::kruskal;
use smst_graph::{ComponentMap, NodeId, WeightedGraph};
use smst_labeling::Instance;
use smst_selfstab::baselines::DetectionCost;
use smst_selfstab::{SelfStabilizingMst, StabilizationOutcome, Variant};
use smst_sim::{DetectionReport, FaultPlan, MemoryUsage, NodeProgram};

/// Per-node register sizes of a run, as reported by the program.
fn memory_bits(runner: &dyn Runner<CoreVerifier>, verifier: &CoreVerifier, n: usize) -> Vec<u64> {
    (0..n)
        .map(|v| verifier.state_bits(&runner.context(NodeId(v)), runner.state(NodeId(v))))
        .collect()
}

/// The paper's fault experiment on the engine: warm the verifier up on a
/// correct, marker-labelled instance, inject the planned faults, and
/// measure detection — [`run_fault_experiment`] on whatever execution path
/// `engine` describes (sequential reference, sharded synchronous with any
/// layout/halo, or any batch daemon). The warm-up budget is the
/// scheme's synchronous budget for synchronous envelopes and its
/// asynchronous budget otherwise; the reported memory is the registers'
/// width, a function of the labels, which no fault-free step rewrites.
///
/// # Panics
///
/// Panics if the instance is not a correct MST instance (the experiment's
/// precondition), if the verifier raises an alarm on it before any fault
/// is injected, or if execution fails past the envelope's recovery
/// policy; invalid envelopes return [`ConfigError`] instead.
pub fn run_engine_fault_experiment(
    instance: &Instance,
    plan: &FaultPlan,
    kind: FaultKind,
    seed: u64,
    engine: &EngineConfig,
) -> Result<FaultExperimentOutcome, ConfigError> {
    engine.validate()?;
    let scheme = MstVerificationScheme::new();
    let (labels, _) = scheme
        .mark(instance)
        .expect("fault experiments start from a correct instance");
    let verifier = scheme.verifier(instance, labels);
    let n = instance.node_count();
    let budget = if engine.mode.is_async() {
        MstVerificationScheme::async_budget(n, instance.graph.max_degree())
    } else {
        MstVerificationScheme::sync_budget(n)
    };

    let mut runner = engine.instantiate(&verifier, instance.graph.clone())?;
    let memory = MemoryUsage::from_bits(memory_bits(runner.as_ref(), &verifier, n));
    let mut i = 0u64;
    let run = run_fault_experiment(
        runner.as_mut(),
        Some((budget, plan)),
        &mut |_v, state| {
            corrupt(state, kind, seed.wrapping_add(i));
            i += 1;
        },
        StopCondition::FirstAlarm,
        5 * budget,
    )
    .unwrap_or_else(|err| panic!("{err}"));
    assert!(
        !run.warmup_alarm,
        "a correct instance must not raise alarms during warm-up"
    );
    let report = match run.first_alarm {
        Some(t) => DetectionReport::from_alarms(&instance.graph, t, run.alarm_nodes, plan.nodes()),
        None => DetectionReport::not_detected(),
    };
    Ok(FaultExperimentOutcome {
        warmup_rounds: budget,
        report,
        memory,
    })
}

/// Engine mirror of [`smst_core::scheme::rounds_until_rejection`]: runs
/// the verifier on a (non-MST) instance with the given labels until the
/// first alarm, on whatever execution path `engine` describes.
pub fn rounds_until_rejection_engine(
    instance: &Instance,
    labels: Vec<CoreLabel>,
    max_rounds: usize,
    engine: &EngineConfig,
) -> Result<Option<usize>, ConfigError> {
    let verifier = MstVerificationScheme::new().verifier(instance, labels);
    let mut runner = engine.instantiate(&verifier, instance.graph.clone())?;
    Ok(runner.run_until(StopCondition::FirstAlarm, max_rounds))
}

/// Stale labels of the graph's correct MST (what an adversarially corrupted
/// configuration still carries); mirrors the transformer's baseline.
fn stale_core_labels(graph: &WeightedGraph) -> Option<Vec<CoreLabel>> {
    let tree = kruskal(graph).rooted_at(graph, NodeId(0)).ok()?;
    let correct = Instance::from_tree(graph.clone(), &tree);
    Marker.label(&correct).ok().map(|(labels, _)| labels)
}

/// One stabilization episode of the transformer with its **detection phase
/// executed on the engine** (the construction and marking phases are the
/// centralized reference algorithms, exactly as in
/// [`smst_selfstab::SelfStabilizingMst::stabilize`]).
///
/// Only [`Variant::Paper`] has a per-round distributed verifier to
/// parallelize; the baseline variants fall back to the sequential
/// transformer unchanged.
pub fn stabilize_with_engine(
    variant: Variant,
    graph: &WeightedGraph,
    initial_components: &ComponentMap,
    engine: &EngineConfig,
) -> Result<StabilizationOutcome, ConfigError> {
    engine.validate()?;
    let transformer = SelfStabilizingMst::new(variant);
    if variant != Variant::Paper {
        return Ok(transformer.stabilize(graph, initial_components));
    }
    let instance = Instance::new(graph.clone(), initial_components.clone());
    let already_correct = instance.satisfies_mst();

    // 1. detection, on the engine (mirrors the sequential baseline's
    //    stale-labels protocol, executed by whatever runner the envelope
    //    describes)
    let detection = if already_correct {
        DetectionCost {
            rounds: 0,
            detected: false,
        }
    } else {
        let budget = MstVerificationScheme::sync_budget(graph.node_count()) * 4;
        match stale_core_labels(graph) {
            Some(labels) => match rounds_until_rejection_engine(&instance, labels, budget, engine)?
            {
                Some(rounds) => DetectionCost {
                    rounds: rounds as u64,
                    detected: true,
                },
                None => DetectionCost {
                    rounds: budget as u64,
                    detected: false,
                },
            },
            None => DetectionCost {
                rounds: 1,
                detected: true,
            },
        }
    };

    // 2.–4. reset, reconstruction, memory and correctness accounting: the
    // transformer's own episode completion, shared with the sequential path
    Ok(transformer.complete_episode(graph, initial_components, already_correct, detection))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LayoutPolicy;
    use smst_core::scheme::run_sync_fault_experiment;
    use smst_graph::generators::random_connected_graph;
    use smst_selfstab::transformer::garbage_components;
    use smst_selfstab::SelfStabilizingMst;
    use smst_sim::Daemon;

    fn mst_instance(n: usize, m: usize, seed: u64) -> Instance {
        let g = random_connected_graph(n, m, seed);
        let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
        Instance::from_tree(g, &tree)
    }

    #[test]
    fn engine_fault_experiment_equals_sequential_on_every_path() {
        let inst = mst_instance(16, 40, 3);
        let plan = FaultPlan::single(NodeId(7));
        let seq = run_sync_fault_experiment(&inst, &plan, FaultKind::SpDistance, 1);
        let envelopes = [
            EngineConfig::reference(),
            EngineConfig::new().threads(4),
            EngineConfig::new().threads(4).layout(LayoutPolicy::Rcm),
            EngineConfig::new()
                .threads(4)
                .layout(LayoutPolicy::Rcm)
                .halo(true),
        ];
        for engine in envelopes {
            let label = engine.describe();
            let par = run_engine_fault_experiment(&inst, &plan, FaultKind::SpDistance, 1, &engine)
                .expect("valid envelope");
            assert_eq!(par.warmup_rounds, seq.warmup_rounds, "{label}");
            assert_eq!(par.report.detected, seq.report.detected, "{label}");
            assert_eq!(
                par.report.detection_time, seq.report.detection_time,
                "{label}"
            );
            assert_eq!(par.report.alarm_nodes, seq.report.alarm_nodes, "{label}");
            assert_eq!(par.memory.max_bits(), seq.memory.max_bits(), "{label}");
        }
    }

    #[test]
    fn invalid_envelope_is_an_error_not_a_panic() {
        let inst = mst_instance(12, 30, 2);
        let plan = FaultPlan::single(NodeId(3));
        let err = run_engine_fault_experiment(
            &inst,
            &plan,
            FaultKind::SpDistance,
            1,
            &EngineConfig::new().threads(0),
        )
        .expect_err("zero threads must be rejected");
        assert_eq!(err, ConfigError::ZeroThreads);
    }

    #[test]
    fn transformer_stabilizes_on_the_engine_and_matches_sequential() {
        let g = random_connected_graph(18, 45, 5);
        let components = garbage_components(&g, 7);
        let seq = SelfStabilizingMst::new(Variant::Paper).stabilize(&g, &components);
        let par = stabilize_with_engine(
            Variant::Paper,
            &g,
            &components,
            &EngineConfig::new().threads(3),
        )
        .expect("valid envelope");
        assert!(par.output_correct);
        assert_eq!(par.detection_rounds, seq.detection_rounds);
        assert_eq!(par.construction_rounds, seq.construction_rounds);
        assert_eq!(par.memory_bits_per_node, seq.memory_bits_per_node);
    }

    #[test]
    fn baseline_variants_fall_back_to_the_sequential_transformer() {
        let g = random_connected_graph(14, 35, 2);
        let components = garbage_components(&g, 4);
        let outcome = stabilize_with_engine(
            Variant::Recompute,
            &g,
            &components,
            &EngineConfig::new().threads(2),
        )
        .expect("valid envelope");
        assert!(outcome.output_correct);
    }

    #[test]
    fn async_envelope_detects_injected_faults() {
        // path graph: Δ = 2 keeps the async warm-up budget small
        let g = smst_graph::generators::path_graph(8, 9);
        let tree = kruskal(&g).rooted_at(&g, NodeId(0)).unwrap();
        let inst = Instance::from_tree(g, &tree);
        let plan = FaultPlan::single(NodeId(5));
        let outcome = run_engine_fault_experiment(
            &inst,
            &plan,
            FaultKind::SpDistance,
            2,
            &EngineConfig::new()
                .threads(2)
                .asynchronous(Daemon::RoundRobin, 4),
        )
        .expect("valid envelope");
        assert!(outcome.report.detected);
    }
}
