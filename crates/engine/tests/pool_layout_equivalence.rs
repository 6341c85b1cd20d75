//! Property tests for PR 2's pool + layout pass: the pool-based runners
//! must be **bit-identical** to PR 1's scoped-thread results — which were
//! themselves pinned bit-identical to the sequential runners, so the
//! sequential runners remain the oracle — at 1/2/8 threads, with the RCM
//! layout on and off; and the RCM renumbering must round-trip node ids on
//! random and expander graphs.

use proptest::prelude::*;
use smst_engine::layout::mean_bandwidth;
use smst_engine::programs::MinIdFlood;
use smst_engine::{
    CsrTopology, EngineConfig, Layout, LayoutPolicy, Runner, ShardedRunner, StopCondition,
};
use smst_graph::generators::{expander_graph, random_connected_graph};
use smst_graph::WeightedGraph;
use smst_sim::{Daemon, Network, ReferenceRunner};

fn graph_for(kind: bool, n: usize, seed: u64) -> WeightedGraph {
    if kind {
        // circulant expanders need an even degree >= 2 and n > degree
        expander_graph(n.max(8), 4, seed)
    } else {
        random_connected_graph(n, 3 * n, seed)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn pool_sync_runner_is_bit_identical_to_sequential(
        expander in proptest::bool::ANY,
        n in 8usize..40,
        seed in 0u64..1000,
        rounds in 1usize..10,
    ) {
        let g = graph_for(expander, n, seed);
        let program = MinIdFlood::new(0);
        let mut seq = ReferenceRunner::rounds(&program, Network::new(&program, g.clone()));
        seq.run(rounds);
        for threads in [1usize, 2, 8] {
            for policy in [LayoutPolicy::Identity, LayoutPolicy::Rcm] {
                let config = EngineConfig::new().threads(threads).layout(policy);
                let mut par = ShardedRunner::from_config(&program, g.clone(), &config)
                    .expect("a valid sharded sync envelope");
                par.run_until(StopCondition::Steps, rounds);
                let snapshot = par.states_snapshot();
                prop_assert_eq!(
                    snapshot.as_slice(),
                    seq.network().states(),
                    "threads {}, {:?}", threads, policy
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn pool_async_runner_replays_the_central_daemon(
        expander in proptest::bool::ANY,
        n in 8usize..30,
        seed in 0u64..1000,
        daemon_seed in 0u64..100,
        units in 1usize..5,
    ) {
        let g = graph_for(expander, n, seed);
        let program = MinIdFlood::new(0);
        let daemon = Daemon::Random { seed: daemon_seed, extra_factor: 1 };
        let mut seq = ReferenceRunner::daemon(&program, Network::new(&program, g.clone()), daemon.clone());
        seq.run(units);
        for threads in [1usize, 2, 8] {
            for policy in [LayoutPolicy::Identity, LayoutPolicy::Rcm] {
                let config = EngineConfig::new()
                    .asynchronous(daemon.clone(), 1)
                    .threads(threads)
                    .layout(policy);
                let mut par = ShardedRunner::from_config(&program, g.clone(), &config)
                    .expect("a valid sharded async envelope");
                par.run_until(StopCondition::Steps, units);
                let snapshot = par.states_snapshot();
                prop_assert_eq!(
                    snapshot.as_slice(),
                    seq.network().states(),
                    "threads {}, {:?}", threads, policy
                );
                prop_assert_eq!(par.activations(), seq.activations());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn batched_async_outcomes_are_thread_and_layout_invariant(
        expander in proptest::bool::ANY,
        n in 10usize..40,
        seed in 0u64..1000,
        batch in 2usize..40,
        units in 1usize..4,
    ) {
        let g = graph_for(expander, n, seed);
        let program = MinIdFlood::new(0);
        let daemon = Daemon::Random { seed: seed ^ 0x5a, extra_factor: 1 };
        let reference_config = EngineConfig::new().asynchronous(daemon.clone(), batch);
        let mut reference =
            ShardedRunner::from_config(&program, g.clone(), &reference_config)
                .expect("a valid sharded async envelope");
        reference.run_until(StopCondition::Steps, units);
        for threads in [2usize, 8] {
            for policy in [LayoutPolicy::Identity, LayoutPolicy::Rcm] {
                let config = EngineConfig::new()
                    .asynchronous(daemon.clone(), batch)
                    .threads(threads)
                    .layout(policy);
                let mut runner = ShardedRunner::from_config(&program, g.clone(), &config)
                    .expect("a valid sharded async envelope");
                runner.run_until(StopCondition::Steps, units);
                prop_assert_eq!(
                    runner.states_snapshot(),
                    reference.states_snapshot(),
                    "batch {}, threads {}, {:?}", batch, threads, policy
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn rcm_round_trips_node_ids(
        expander in proptest::bool::ANY,
        n in 8usize..80,
        seed in 0u64..1000,
    ) {
        let g = graph_for(expander, n, seed);
        let topo = CsrTopology::build(&g);
        let layout = Layout::rcm(&topo);
        let count = topo.node_count();
        for v in 0..count {
            prop_assert_eq!(layout.original(layout.internal(v)), v);
            prop_assert_eq!(layout.internal(layout.original(v)), v);
        }
        // the renumbered CSR maps every port through the same bijection
        let permuted = layout.apply(&topo);
        for v in 0..count {
            let expected: Vec<u32> = topo
                .neighbors_of(v)
                .iter()
                .map(|&u| layout.internal(u as usize) as u32)
                .collect();
            prop_assert_eq!(permuted.neighbors_of(layout.internal(v)), expected.as_slice());
        }
        // and a data round-trip through permute/unpermute is the identity
        let data: Vec<u64> = (0..count as u64).collect();
        prop_assert_eq!(layout.unpermute(layout.permute(data.clone())), data);
    }
}

#[test]
fn rcm_reduces_bandwidth_on_expanders() {
    // not a property (RCM is a heuristic), but on the fixed benchmark
    // expander the bandwidth win is what the layout pass exists for
    let g = expander_graph(2000, 8, 5);
    let topo = CsrTopology::build(&g);
    let before = mean_bandwidth(&topo);
    let after = mean_bandwidth(&Layout::rcm(&topo).apply(&topo));
    assert!(
        after < before,
        "RCM should cut index bandwidth on the expander: {before:.1} -> {after:.1}"
    );
}
