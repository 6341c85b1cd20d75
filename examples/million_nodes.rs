//! Million-node run on the sharded execution engine, driven through the
//! **one engine API**: an [`EngineConfig`] envelope builds the runner
//! (the typed [`ShardedRunner::from_config`] here, so the renumbered
//! topology stays inspectable; the type-erased
//! [`EngineConfig::instantiate`] in the determinism check), a
//! [`RecordingObserver`] reports per-round alarm counts and phase
//! timings, and the final spot check runs the same prefix under two
//! differently-knobbed envelopes and asserts bit-for-bit equality — the
//! engine's determinism contract covers every knob.
//!
//! Builds a ~10⁶-node random connected graph, floods the minimum identity
//! with [`MinIdFlood`] until every node accepts, injects a burst of
//! transient faults, and measures the healing wave.
//!
//! Run with: `cargo run --release --example million_nodes`
//! (release mode matters: this is a throughput demonstration).
//! `SMST_BENCH_SMOKE=1` shrinks the run to CI smoke sizes.

#![expect(
    clippy::disallowed_methods,
    reason = "the demo prints how long each stage took"
)]

use smst_engine::layout::mean_bandwidth;
use smst_engine::programs::MinIdFlood;
use smst_engine::{
    default_threads, CsrTopology, EngineConfig, LayoutPolicy, Runner, ShardedRunner, StopCondition,
};
use smst_graph::generators::random_connected_graph;
use smst_sim::{FaultPlan, RecordingObserver};
use std::time::Instant;

fn smoke_mode() -> bool {
    std::env::var_os("SMST_BENCH_SMOKE").is_some_and(|v| v != "0")
}

fn main() {
    let (n, faults) = if smoke_mode() {
        (20_000usize, 500usize)
    } else {
        (1_000_000, 10_000)
    };
    let m = 3 * n / 2;
    let threads = default_threads();
    println!("building a random connected graph: n = {n}, m ≈ {m} ...");
    let t0 = Instant::now();
    let graph = random_connected_graph(n, m, 2026);
    println!(
        "  built {} nodes / {} edges in {:.1?}",
        graph.node_count(),
        graph.edge_count(),
        t0.elapsed()
    );

    // pre-layout bandwidth for the comparison below (the runner builds its
    // own renumbered CSR; no second RCM pass is run for the stat)
    let before = mean_bandwidth(&CsrTopology::build(&graph));

    // the typed EngineConfig constructor: same validated envelope as
    // `instantiate`, but the concrete runner stays visible so its
    // renumbered topology can be inspected
    let program = MinIdFlood::new(0);
    let engine = EngineConfig::new()
        .threads(threads)
        .layout(LayoutPolicy::Rcm);
    let t0 = Instant::now();
    let mut runner = ShardedRunner::from_config(&program, graph, &engine)
        .expect("a sync sharded envelope is valid");
    println!(
        "  {} runner ready in {:.1?}",
        engine.describe(),
        t0.elapsed()
    );
    let after = mean_bandwidth(runner.arena().topology());
    println!(
        "  RCM layout: mean neighbour index distance {before:.0} -> {after:.0} ({:.1}x)",
        before / after.max(1.0),
    );

    // phase 1: flood to global acceptance
    let t0 = Instant::now();
    let rounds = runner
        .run_until(StopCondition::AllAccept, 10_000)
        .expect("the flood converges within the graph's diameter");
    let elapsed = t0.elapsed();
    println!(
        "converged in {rounds} rounds, {:.2?} ({:.1}M node-rounds/s)",
        elapsed,
        (n as f64 * rounds as f64) / elapsed.as_secs_f64() / 1e6
    );

    // phase 2: transient-fault burst, then watch the healing wave — with a
    // RoundObserver recording per-round alarm counts and phase timings
    let plan = FaultPlan::random(n, faults, 7);
    runner.apply_faults(&plan, &mut |_v, state| *state = u64::MAX);
    println!("injected {faults} corrupted registers");
    let recording = RecordingObserver::new();
    runner.set_observer(Box::new(recording.clone()));
    let t0 = Instant::now();
    let heal = runner
        .run_until(StopCondition::AllAccept, 10_000)
        .expect("the flood re-stabilizes after transient faults");
    println!(
        "healed in {heal} rounds, {:.2?} — self-stabilization at n = {n}",
        t0.elapsed()
    );
    println!(
        "  observed {} rounds, mean round {:.1} µs (mean compute {:.1} µs)",
        recording.rounds_observed(),
        recording.mean_round_ns() / 1e3,
        recording.mean_compute_ns() / 1e3,
    );

    // determinism spot check: a genuinely multi-threaded, RCM-renumbered,
    // halo-exchange run reaches the same configuration as a 1-thread run
    // without any layout — two envelopes, one result (forced to ≥ 4
    // threads so the check stays meaningful on single-core hosts)
    let small_n = if smoke_mode() { 5_000 } else { 50_000 };
    let check_threads = threads.max(4);
    let g = random_connected_graph(small_n, 2 * small_n, 11);
    let tuned = EngineConfig::new()
        .threads(check_threads)
        .layout(LayoutPolicy::Rcm)
        .halo(true);
    let mut a = tuned
        .instantiate(&program, g.clone())
        .expect("a tuned sync envelope is valid");
    let mut b = EngineConfig::new()
        .instantiate(&program, g)
        .expect("the plain envelope is valid");
    a.run_until(StopCondition::Steps, 10);
    b.run_until(StopCondition::Steps, 10);
    assert_eq!(
        a.states_snapshot(),
        b.states_snapshot(),
        "thread count / layout / halo must not change results"
    );
    println!(
        "determinism check passed: {} == {} (n = {small_n})",
        tuned.describe(),
        EngineConfig::new().describe()
    );
}
