//! Golden numbers of the single-burst experiment: warm-up → inject →
//! detect / recover, as every trial and every [`ScenarioSpec`] runs it.
//!
//! `golden/trials.txt` was recorded at the commit *before* the four
//! copies of that protocol became one driver
//! (`smst_engine::run_fault_experiment`) and is never edited to make a
//! test pass. It was recorded again once, when §6.2's pieces moved to one
//! placement across both partitions: the eight stored-piece rows changed
//! their latencies (which node holds the corrupted piece moved), every
//! detection stayed a detection. 60 trial rows, `TrialSpec::id() -> steps_run,
//! injected_faults, detection, recovered`: {Monitor far from the monitor
//! node, Monitor *on* the monitor node, Heal, Verifier with a slow
//! stored-piece fault, Verifier with a one-round fault kind} ×
//! {round-robin, random, two adversarial batch daemons} × `inject_at ∈
//! {0, mid, budget − 1}`. The burst on the monitor node is the corner
//! where the latency rule ("executed steps after the injection, ≥ 1")
//! differs from a plain `run_until(FirstAlarm)`, which would answer 0.
//! Then 12 scenario rows: the same four numbers plus a digest of the
//! final registers for one alarm-stopped and one accept-stopped
//! [`ScenarioSpec`] per execution envelope {reference, sharded t = 1 / 3,
//! RCM, halo, asynchronous batch 4}. A change to the burst plan, the
//! corruption order, the stop-condition handling or the latency rule
//! shows up here as a one-line diff.

use smst_adversary::{run_trial, DaemonSpec, TrialSpec, Workload};
use smst_core::faults::FaultKind;
use smst_engine::programs::{AlarmedFlood, MinIdFlood};
use smst_engine::{EngineConfig, GraphFamily, LayoutPolicy, ScenarioSpec, StopCondition};
use smst_graph::NodeId;
use smst_sim::{Daemon, FaultPlan, NodeProgram};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/trials.txt");

fn opt(value: Option<usize>) -> String {
    value.map_or_else(|| "-".to_string(), |v| v.to_string())
}

/// The four daemons of the grid, each with the cheap verifier fault kind
/// it is paired with (so the Verifier rows cover five kinds, not one).
fn daemons() -> [(DaemonSpec, FaultKind); 4] {
    [
        (DaemonSpec::RoundRobin { batch: 1 }, FaultKind::SpDistance),
        (
            DaemonSpec::Random {
                seed: 9,
                extra_factor: 1,
                batch: 4,
            },
            FaultKind::TrainBuffers,
        ),
        (
            DaemonSpec::BoundaryStall {
                shards: 2,
                repeats: 1,
            },
            FaultKind::PartRoot,
        ),
        (
            DaemonSpec::CutFocus {
                source_seed: 3,
                repeats: 1,
            },
            FaultKind::RootsString,
        ),
    ]
}

/// The smallest seed whose one-node plan on `n` nodes is exactly `node`.
fn seed_hitting(n: usize, node: usize) -> u64 {
    (0u64..)
        .find(|&seed| FaultPlan::random(n, 1, seed).nodes() == [NodeId(node)])
        .expect("some seed picks every node")
}

fn trial_specs() -> Vec<TrialSpec> {
    // floods on a path, so the daemon decides how fast a value travels;
    // the verifier on the 17-node expander of the KMW accounting, where a
    // stored-piece fault takes tens of units to surface
    let flood_family = GraphFamily::Path { n: 24 };
    let verifier_family = GraphFamily::Expander { n: 17, degree: 4 };
    let n = flood_family.node_count();
    let (far_seed, monitor_seed) = (seed_hitting(n, 2), seed_hitting(n, n - 1));
    let stored = FaultKind::StoredPieceWeight;
    let mut specs = Vec::new();
    for (daemon, kind) in daemons() {
        // (workload, family, fault kind, fault count, fault seed, budget)
        let workloads = [
            (Workload::Monitor, &flood_family, kind, 1, far_seed, 60),
            (Workload::Monitor, &flood_family, kind, 1, monitor_seed, 60),
            (Workload::Heal, &flood_family, kind, 5, 17, 60),
            (Workload::Verifier, &verifier_family, stored, 1, 1, 400),
            (Workload::Verifier, &verifier_family, kind, 2, 21, 400),
        ];
        for (workload, family, fault_kind, fault_count, fault_seed, budget) in workloads {
            for inject_at in [0, budget / 2, budget - 1] {
                specs.push(TrialSpec {
                    workload,
                    family: family.clone(),
                    graph_seed: 3,
                    daemon: daemon.clone(),
                    fault_kind,
                    fault_count,
                    fault_seed,
                    inject_at,
                    budget,
                });
            }
        }
    }
    specs
}

/// FNV-1a over the final registers, in node order.
fn digest(states: &[u64]) -> u64 {
    states
        .iter()
        .flat_map(|s| s.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

fn envelopes() -> Vec<(&'static str, EngineConfig)> {
    let sharded = |threads| EngineConfig::new().threads(threads);
    vec![
        ("reference", EngineConfig::reference()),
        ("sharded-t1", sharded(1)),
        ("sharded-t3", sharded(3)),
        ("rcm", sharded(3).layout(LayoutPolicy::Rcm)),
        ("halo", sharded(3).layout(LayoutPolicy::Rcm).halo(true)),
        (
            "async-b4",
            sharded(2).asynchronous(
                Daemon::Random {
                    seed: 4,
                    extra_factor: 1,
                },
                4,
            ),
        ),
    ]
}

fn scenario_row<P>(
    out: &mut String,
    envelope: &str,
    engine: &EngineConfig,
    program: &P,
    until: StopCondition,
    bogus: u64,
) where
    P: NodeProgram<State = u64> + Sync + 'static,
{
    let spec = ScenarioSpec::new(GraphFamily::Expander { n: 60, degree: 4 })
        .seed(5)
        .engine(engine.clone())
        .fault_burst(4, 10, 99)
        .until(until);
    let outcome = spec
        .run(program, |_v, s| *s = bogus, 200)
        .expect("a valid envelope");
    let report = &outcome.report;
    writeln!(
        out,
        "scenario;env={envelope};prog={} -> steps={} injected={} first_alarm={} recovered={} digest={:016x}",
        program.name(),
        report.steps_run,
        report.injected_faults,
        opt(report.first_alarm),
        opt(report.recovered),
        digest(outcome.network.states()),
    )
    .unwrap();
}

fn actual_rows() -> String {
    let mut out = String::new();
    for spec in trial_specs() {
        let outcome = run_trial(&spec);
        writeln!(
            out,
            "{} -> steps={} injected={} detection={} recovered={}",
            spec.id(),
            outcome.steps_run,
            outcome.injected_faults,
            opt(outcome.detection),
            opt(outcome.recovered),
        )
        .unwrap();
    }
    for (envelope, engine) in envelopes() {
        scenario_row(
            &mut out,
            envelope,
            &engine,
            &AlarmedFlood::new(0, 59),
            StopCondition::FirstAlarm,
            AlarmedFlood::BOGUS,
        );
        scenario_row(
            &mut out,
            envelope,
            &engine,
            &MinIdFlood::new(0),
            StopCondition::AllAccept,
            u64::MAX,
        );
    }
    out
}

#[test]
fn trials_and_scenarios_reproduce_the_recorded_numbers() {
    let actual = actual_rows();
    if actual != GOLDEN {
        let path = std::env::temp_dir().join("smst_trials_actual.txt");
        std::fs::write(&path, &actual).expect("writing the actual rows");
        let differing = actual
            .lines()
            .zip(GOLDEN.lines())
            .filter(|(a, g)| a != g)
            .map(|(a, g)| format!("  now:      {a}\n  recorded: {g}\n"))
            .collect::<String>();
        panic!(
            "{} rows now vs {} recorded; actual rows written to {}\n{differing}",
            actual.lines().count(),
            GOLDEN.lines().count(),
            path.display()
        );
    }
}

#[test]
fn the_grid_covers_the_latency_corner() {
    // a Monitor burst on the monitor node itself: the alarm condition
    // already holds before the first post-injection step, and the
    // recorded latency is still 1 (never 0)
    let monitor_hit = format!(";fs={};", seed_hitting(24, 23));
    let corner: Vec<&str> = GOLDEN
        .lines()
        .filter(|row| row.contains("wl=mon") && row.contains(&monitor_hit))
        .collect();
    assert_eq!(corner.len(), 12, "4 daemons × 3 injection steps");
    for row in corner {
        assert!(row.ends_with("detection=1 recovered=-"), "{row}");
    }
    assert_eq!(GOLDEN.lines().count(), 60 + 12, "trial + scenario rows");
}
