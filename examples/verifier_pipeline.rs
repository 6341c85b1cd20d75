//! The paper's whole pipeline at n = 10⁶, stage by stage: generate a graph,
//! build its MST, label it with the marker, run the `O(log n)`-bit verifier
//! on the engine, corrupt one register and wait for the first alarm.
//!
//! After each stage it prints the stage's wall time, the process's resident
//! set and its peak so far (`VmRSS` and `VmHWM` from `/proc/self/status`;
//! `n/a` where that file does not exist), so the memory each layer adds can
//! be read off the output: the graph, the tree, the labels, the verifier and
//! the engine's two register buffers. The resident set also shows what a
//! stage freed but the allocator kept: memory the next stage reuses before
//! it grows the peak. Then it prints the bits the paper charges the
//! widest register (`bits_per_node_max`, the widest node's `state_bits`)
//! beside the most pieces one node stores
//! (`ConstructionReport::max_stored_pieces`), and sets the bytes a node
//! holds — its register and the verifier's copy of its label — beside those
//! bits.
//!
//! Run with: `cargo run --release --example verifier_pipeline [-- rounds]`
//! (release mode matters: a debug verifier round is ~50x slower).
//! `SMST_BENCH_SMOKE=1` shrinks the run to 20 000 nodes. A `rounds`
//! argument makes it the kernel's profile run instead: n = 4 000 (the size
//! of the benchmark's `verify_sync_rc4k`) and `rounds` fault-free rounds
//! (16 otherwise), a run the verifier's rounds dominate, the one
//! `ci/profile/profile.sh` samples.

#![expect(
    clippy::disallowed_methods,
    reason = "the demo prints how long each stage took"
)]

use smst_core::faults::{corrupt, FaultKind};
use smst_core::{CoreLabel, CoreState, Marker, MstVerificationScheme};
use smst_engine::{EngineConfig, StopCondition};
use smst_graph::generators::random_connected_graph;
use smst_graph::mst::kruskal;
use smst_graph::NodeId;
use smst_labeling::Instance;
use smst_sim::{FaultPlan, NodeProgram};
use std::mem::size_of;
use std::time::Instant;

const SEED: u64 = 7;
/// The node count of the profile run.
const PROFILE_N: usize = 4_000;

fn smoke_mode() -> bool {
    std::env::var_os("SMST_BENCH_SMOKE").is_some_and(|v| v != "0")
}

/// A line of `/proc/self/status` (`VmRSS`, `VmHWM`) in MiB, if the
/// platform reports it.
fn status_mib(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs one stage and prints its time and the resident set and its peak
/// after it.
fn stage<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    let took = t0.elapsed().as_secs_f64();
    let [rss, peak] = ["VmRSS:", "VmHWM:"]
        .map(|key| status_mib(key).map_or_else(|| "n/a".into(), |mib| format!("{mib:.0} MiB")));
    println!("  {name:<48} {took:>7.2} s  {rss:>9}  {peak:>9}");
    out
}

fn main() {
    let profile_rounds = std::env::args().nth(1).map(|a| {
        a.parse::<usize>()
            .unwrap_or_else(|_| panic!("usage: verifier_pipeline [rounds], got {a:?}"))
    });
    let n = match profile_rounds {
        Some(_) => PROFILE_N,
        None if smoke_mode() => 20_000,
        None => 1_000_000,
    };
    let rounds = profile_rounds.unwrap_or(16);
    let m = 3 * n;
    println!("verifier pipeline: n = {n}, m = {m}, seed {SEED}, one engine thread");
    println!(
        "  {:<48} {:>9}  {:>9}  {:>9}",
        "stage", "time", "VmRSS", "VmHWM"
    );

    let graph = stage("random_connected_graph", || {
        random_connected_graph(n, m, SEED)
    });
    let tree = stage("kruskal + rooted_at", || {
        kruskal(&graph)
            .rooted_at(&graph, NodeId(0))
            .expect("a connected graph has a spanning tree")
    });
    let inst = stage("Instance::from_tree", || Instance::from_tree(graph, &tree));
    drop(tree);
    let (labels, report) = stage("Marker::label", || {
        Marker.label(&inst).expect("the MST is a correct instance")
    });
    let verifier = stage("MstVerificationScheme::verifier", || {
        MstVerificationScheme.verifier(&inst, labels)
    });
    let engine = EngineConfig::new().threads(1);
    let mut runner = stage("EngineConfig::instantiate", || {
        engine
            .instantiate(&verifier, inst.graph.clone())
            .expect("a one-thread sync envelope is valid")
    });
    stage(&format!("{rounds} rounds"), || {
        runner.run_until(StopCondition::Steps, rounds)
    });
    assert!(
        !runner.any_alarm(),
        "a correct instance must not raise alarms"
    );
    let bits_max = (0..n)
        .map(|v| verifier.state_bits(&runner.context(NodeId(v)), runner.state(NodeId(v))))
        .max()
        .unwrap_or(0);
    let (register, label) = (size_of::<CoreState>(), size_of::<CoreLabel>());
    let charged = bits_max as f64 / 8.0;

    let victim = NodeId(n / 2);
    let budget = MstVerificationScheme::sync_budget(n);
    let rounds = stage("SpDistance fault at one node -> first alarm", || {
        runner.apply_faults(&FaultPlan::single(victim), &mut |_, state| {
            corrupt(state, FaultKind::SpDistance, SEED)
        });
        runner.run_until(StopCondition::FirstAlarm, budget)
    });
    let rounds = rounds.expect("a corrupted SP distance is detected");
    println!(
        "first alarm {rounds} round(s) after the fault, at {:?}",
        runner.alarming_nodes()
    );
    println!(
        "widest register: bits_per_node_max {bits_max}; most pieces I(F) one node stores: {}",
        report.max_stored_pieces
    );
    println!(
        "held per node: {register} B register + {label} B label copy = {} B; charged: \
         bits_per_node_max {bits_max} / 8 = {charged:.1} B; register {:.1}x, held {:.1}x the charge",
        register + label,
        register as f64 / charged,
        (register + label) as f64 / charged,
    );
}
