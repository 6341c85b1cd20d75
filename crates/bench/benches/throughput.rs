//! Bench: sequential vs. sharded round throughput.
//!
//! Runs the same program over the same graph with the sequential
//! [`SyncRunner`] and the pool-backed [`ParallelSyncRunner`] at several
//! thread counts, reporting rounds/s and the speedup over sequential. Two
//! workloads:
//!
//! * `flood` — the compact [`MinIdFlood`] register (memory-bound floor);
//! * `verifier` — the paper's full [`CoreVerifier`](smst_core::CoreVerifier)
//!   register (compute-heavy, the workload the engine exists for), with and
//!   without the RCM layout pass.
//!
//! On a multi-core host the `verifier/100k` case is the acceptance gauge:
//! ≥ 2× speedup at ≥ 4 threads. (On a single-core container the sharded
//! runner degenerates to the sequential sweep plus noise — the printed
//! speedup makes that visible rather than hiding it.) Results land in
//! `BENCH_throughput.json`; set `SMST_BENCH_SMOKE=1` for CI-sized runs.

use smst_bench::harness::{smoke_mode, BenchGroup};
use smst_core::MstVerificationScheme;
use smst_engine::programs::MinIdFlood;
use smst_engine::{EngineConfig, LayoutPolicy, ParallelSyncRunner, Runner, StopCondition};
use smst_graph::generators::random_connected_graph;
use smst_graph::mst::kruskal;
use smst_graph::NodeId;
use smst_labeling::Instance;
use smst_sim::{Network, SyncRunner};

// the threads=1 row isolates the engine's single-thread win (CSR layout,
// persistent pool, no per-round spawn) from actual parallel scaling
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn flood_case(group: &mut BenchGroup, n: usize, rounds: usize, iters: u32) {
    let g = random_connected_graph(n, 2 * n, 42);
    let program = MinIdFlood::new(0);
    // runners are built once; only the rounds are timed
    let mut seq_runner = SyncRunner::new(&program, Network::new(&program, g.clone()));
    let seq = group.bench(&format!("flood/{n}/sequential"), iters, || {
        seq_runner.run_rounds(rounds);
        seq_runner.rounds()
    });
    for threads in THREAD_COUNTS {
        let mut par_runner = ParallelSyncRunner::from_config(
            &program,
            g.clone(),
            &EngineConfig::new().threads(threads),
        )
        .expect("a sync envelope is valid");
        let par = group.bench(&format!("flood/{n}/threads={threads}"), iters, || {
            par_runner.run_until(StopCondition::Steps, rounds);
            par_runner.steps()
        });
        println!(
            "    -> speedup over sequential at {} threads: {:.2}x",
            threads,
            seq.mean_ns / par.mean_ns
        );
    }
}

fn verifier_case(group: &mut BenchGroup, n: usize, rounds: usize, iters: u32) {
    let g = random_connected_graph(n, 2 * n, 7);
    let tree = kruskal(&g).rooted_at(&g, NodeId(0)).expect("connected");
    let inst = Instance::from_tree(g, &tree);
    let scheme = MstVerificationScheme::new();
    let (labels, _) = scheme.mark(&inst).expect("correct instance");
    let verifier = scheme.verifier(&inst, labels);

    let mut seq_runner = SyncRunner::new(&verifier, verifier.network());
    let seq = group.bench(&format!("verifier/{n}/sequential"), iters, || {
        seq_runner.run_rounds(rounds);
        seq_runner.rounds()
    });
    println!(
        "    sequential: {:.0} node-rounds/s",
        (n * rounds) as f64 / seq.mean_secs()
    );
    for threads in THREAD_COUNTS {
        for layout in [LayoutPolicy::Identity, LayoutPolicy::Rcm] {
            let tag = match layout {
                LayoutPolicy::Identity => "",
                LayoutPolicy::Rcm => "/rcm",
            };
            let mut par_runner = ParallelSyncRunner::from_config(
                &verifier,
                inst.graph.clone(),
                &EngineConfig::new().threads(threads).layout(layout),
            )
            .expect("a sync envelope is valid");
            let par = group.bench(
                &format!("verifier/{n}/threads={threads}{tag}"),
                iters,
                || {
                    par_runner.run_until(StopCondition::Steps, rounds);
                    par_runner.steps()
                },
            );
            println!(
                "    -> {:.0} node-rounds/s, speedup over sequential at {} threads{tag}: {:.2}x",
                (n * rounds) as f64 / par.mean_secs(),
                threads,
                seq.mean_ns / par.mean_ns
            );
        }
    }
    // correctness spot check: parallel equals sequential bit-for-bit, with
    // the layout pass on
    let mut a = SyncRunner::new(&verifier, verifier.network());
    let mut b = ParallelSyncRunner::from_config(
        &verifier,
        inst.graph.clone(),
        &EngineConfig::new().threads(4).layout(LayoutPolicy::Rcm),
    )
    .expect("a sync envelope is valid");
    a.run_rounds(5);
    b.run_until(StopCondition::Steps, 5);
    assert!(
        a.network().states() == b.states_snapshot().as_slice(),
        "sharded run diverged from sequential"
    );
}

fn main() {
    let mut group = BenchGroup::new("throughput");
    if smoke_mode() {
        flood_case(&mut group, 2_000, 5, 3);
        verifier_case(&mut group, 2_000, 2, 2);
    } else {
        flood_case(&mut group, 100_000, 10, 5);
        verifier_case(&mut group, 100_000, 3, 3);
    }
    group.finish();
}
