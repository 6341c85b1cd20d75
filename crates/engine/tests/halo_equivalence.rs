//! Property tests for the halo-exchange execution mode: halo-mode runs must
//! be **bit-for-bit identical** to the sequential [`ReferenceRunner`]'s
//! rounds across threads ∈ {1, 2, 8} × layout ∈ {Identity, Rcm} (the sequential runner
//! stays the oracle, as in the PR 2 equivalence suite), and on the expander
//! scenario the RCM layout must leave strictly smaller halos than the
//! identity layout.

use proptest::prelude::*;
use smst_engine::programs::MinIdFlood;
use smst_engine::{
    partition_balanced, CsrTopology, EngineConfig, HaloPlan, LayoutPolicy, Runner, ShardedRunner,
    StopCondition,
};
use smst_graph::generators::{expander_graph, random_connected_graph};
use smst_graph::WeightedGraph;
use smst_sim::{Network, ReferenceRunner};

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
    fn halo_runs_are_bit_identical_to_the_sequential_runner(
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
                let config = EngineConfig::new()
                    .threads(threads)
                    .layout(policy)
                    .halo(true);
                let mut par = ShardedRunner::from_config(&program, g.clone(), &config)
                    .expect("a valid halo envelope");
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
    fn halo_stepping_interleaves_like_direct_stepping(
        expander in proptest::bool::ANY,
        n in 8usize..32,
        seed in 0u64..1000,
    ) {
        // single steps and chunks must agree: the halo arenas are re-
        // gathered per call, so mutating states between calls (as fault
        // injection does) must never desynchronize them
        let g = graph_for(expander, n, seed);
        let program = MinIdFlood::new(0);
        let rcm4 = EngineConfig::new().threads(4).layout(LayoutPolicy::Rcm);
        let mut halo =
            ShardedRunner::from_config(&program, g.clone(), &rcm4.clone().halo(true))
                .expect("a valid halo envelope");
        let mut direct = ShardedRunner::from_config(&program, g.clone(), &rcm4)
            .expect("a valid sharded sync envelope");
        halo.step();
        direct.step();
        halo.run_until(StopCondition::Steps, 3);
        direct.run_until(StopCondition::Steps, 3);
        halo.step();
        direct.step();
        prop_assert_eq!(halo.states_snapshot(), direct.states_snapshot());
        prop_assert_eq!(halo.steps(), 5);
    }
}

/// Total halo of a topology under a layout policy, at the given shard
/// count (the quantity the halo exchange moves every round).
fn total_halo(g: &WeightedGraph, policy: LayoutPolicy, shards: usize) -> usize {
    let base = CsrTopology::build(g);
    let layout = policy.build(&base);
    let topo = layout.apply(&base);
    let parts = partition_balanced(&topo, shards);
    HaloPlan::build(&topo, &parts).total_halo()
}

#[test]
fn rcm_halos_are_strictly_smaller_than_identity_halos_on_the_expander() {
    // the acceptance scenario: the low-diameter expander motivated by the
    // KMW lower-bound line, where nearly every read is cross-shard under
    // the generator's arbitrary numbering; RCM packs neighbours into
    // nearby indices, which must strictly shrink the boundary
    let g = expander_graph(2000, 8, 5);
    for shards in [2usize, 4, 8] {
        let identity = total_halo(&g, LayoutPolicy::Identity, shards);
        let rcm = total_halo(&g, LayoutPolicy::Rcm, shards);
        assert!(
            rcm < identity,
            "{shards} shards: RCM halo {rcm} must be < identity halo {identity}"
        );
    }
}

#[test]
fn halo_size_is_bounded_by_the_cross_shard_edge_count() {
    let g = random_connected_graph(500, 1500, 7);
    let topo = CsrTopology::build(&g);
    let shards = partition_balanced(&topo, 8);
    let plan = HaloPlan::build(&topo, &shards);
    // each shard's halo is a *set* of external endpoints, so it cannot
    // exceed the shard's external-edge endpoint count, nor n
    for (s, sh) in shards.iter().enumerate() {
        let endpoints: usize = sh
            .nodes()
            .map(|v| {
                topo.neighbors_of(v)
                    .iter()
                    .filter(|&&u| (u as usize) < sh.start || (u as usize) >= sh.end)
                    .count()
            })
            .sum();
        assert!(plan.halo_size(s) <= endpoints);
        assert!(plan.halo_size(s) <= 500);
    }
}
