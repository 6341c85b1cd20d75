//! Property tests over every `BatchDaemon` in the workspace — built-in
//! (central daemons, chunked central daemons) and adversarial (stall,
//! starve, cut-focus):
//!
//! 1. **Fairness** — every time unit activates each node at least once;
//! 2. **Determinism** — the schedule is a pure function of
//!    `(spec, n, unit_index)`: re-querying and rebuilding the daemon gives
//!    identical batches;
//! 3. **Replay** — at batch width 1 the chunked central daemons replay the
//!    sequential `ReferenceRunner::daemon` register-for-register on the engine.

use smst_adversary::{CutFocusDaemon, DaemonSpec, StallDaemon, StarveDaemon};
use smst_engine::{EngineConfig, StopCondition};
use smst_graph::generators::{caterpillar_graph, path_graph, random_connected_graph, ring_graph};
use smst_graph::WeightedGraph;
use smst_sim::{
    BatchDaemon, ChunkedDaemon, Daemon, Network, NodeContext, NodeProgram, ReferenceRunner, Verdict,
};

fn graphs() -> Vec<WeightedGraph> {
    vec![
        path_graph(17, 0),
        ring_graph(12, 1),
        caterpillar_graph(5, 2, 2),
        random_connected_graph(26, 60, 3),
    ]
}

/// Every daemon shape the workspace can schedule, instantiated for `g`.
fn roster(g: &WeightedGraph) -> Vec<Box<dyn BatchDaemon>> {
    let centrals = [
        Daemon::RoundRobin,
        Daemon::Random {
            seed: 9,
            extra_factor: 2,
        },
        Daemon::Adversarial {
            pivot: 3,
            pivot_repeats: 2,
        },
    ];
    let mut out: Vec<Box<dyn BatchDaemon>> = Vec::new();
    for central in &centrals {
        out.push(central.clone_box());
        for batch in [1usize, 4, 64] {
            out.push(Box::new(ChunkedDaemon::new(central.clone(), batch)));
        }
    }
    for shards in [2usize, 4] {
        out.push(Box::new(StallDaemon::new(g, shards, 1)));
        out.push(Box::new(StarveDaemon::new(g, shards, 2)));
    }
    out.push(Box::new(CutFocusDaemon::new(g, 5, 1)));
    out
}

#[test]
fn every_daemon_is_fair() {
    for g in graphs() {
        let n = g.node_count();
        for daemon in roster(&g) {
            for unit in 0..5 {
                let mut seen = vec![false; n];
                for batch in daemon.unit_batches(n, unit) {
                    for v in batch {
                        seen[v.index()] = true;
                    }
                }
                assert!(
                    seen.iter().all(|&s| s),
                    "{} misses a node in unit {unit} (n = {n})",
                    daemon.describe()
                );
            }
        }
    }
}

#[test]
fn every_daemon_is_deterministic_per_seed() {
    for g in graphs() {
        let n = g.node_count();
        let roster_a = roster(&g);
        let roster_b = roster(&g);
        for (a, b) in roster_a.iter().zip(&roster_b) {
            for unit in 0..4 {
                assert_eq!(
                    a.unit_batches(n, unit),
                    a.unit_batches(n, unit),
                    "{} is not pure",
                    a.describe()
                );
                assert_eq!(
                    a.unit_batches(n, unit),
                    b.unit_batches(n, unit),
                    "{} differs across rebuilds",
                    a.describe()
                );
            }
        }
    }
}

#[test]
fn for_each_batch_equals_unit_batches() {
    // the borrowed hot-path visitor and the owned inspection API must
    // describe the same schedule for every daemon shape
    for g in graphs() {
        let n = g.node_count();
        for daemon in roster(&g) {
            for unit in 0..4 {
                let mut visited: Vec<Vec<smst_graph::NodeId>> = Vec::new();
                daemon.for_each_batch(n, unit, &mut |batch| visited.push(batch.to_vec()));
                let owned: Vec<Vec<smst_graph::NodeId>> = daemon
                    .unit_batches(n, unit)
                    .into_iter()
                    .filter(|b| !b.is_empty())
                    .collect();
                assert_eq!(
                    visited,
                    owned,
                    "{} for_each_batch diverges at unit {unit}",
                    daemon.describe()
                );
            }
        }
    }
}

#[test]
fn daemon_spec_builds_are_deterministic() {
    let g = random_connected_graph(20, 45, 7);
    let specs = [
        DaemonSpec::RoundRobin { batch: 4 },
        DaemonSpec::Random {
            seed: 3,
            extra_factor: 1,
            batch: 2,
        },
        DaemonSpec::Pivot {
            pivot: 5,
            repeats: 2,
            batch: 1,
        },
        DaemonSpec::BoundaryStall {
            shards: 3,
            repeats: 1,
        },
        DaemonSpec::ShardStarve {
            shards: 3,
            repeats: 1,
        },
        DaemonSpec::CutFocus {
            source_seed: 2,
            repeats: 1,
        },
    ];
    for spec in &specs {
        let a = spec.build(&g);
        let b = spec.build(&g);
        for unit in 0..3 {
            assert_eq!(a.unit_batches(20, unit), b.unit_batches(20, unit));
        }
    }
}

struct MinId;

impl NodeProgram for MinId {
    type State = u64;
    type Update = u64;
    fn init(&self, ctx: &NodeContext) -> u64 {
        ctx.id
    }
    fn step(&self, _ctx: &NodeContext, own: &u64, neighbors: &[&u64]) -> u64 {
        neighbors.iter().fold(*own, |acc, &&x| acc.min(x))
    }
    fn apply(state: &mut u64, update: u64) {
        *state = update;
    }
    fn verdict(&self, _ctx: &NodeContext, state: &u64) -> Verdict {
        if *state == 0 {
            Verdict::Accept
        } else {
            Verdict::Working
        }
    }
}

#[test]
fn chunked_daemons_at_batch_one_replay_the_central_daemon() {
    let g = random_connected_graph(24, 55, 4);
    for central in [
        Daemon::RoundRobin,
        Daemon::Random {
            seed: 6,
            extra_factor: 2,
        },
        Daemon::Adversarial {
            pivot: 2,
            pivot_repeats: 3,
        },
    ] {
        let mut sequential =
            ReferenceRunner::daemon(&MinId, Network::new(&MinId, g.clone()), central.clone());
        let mut engine = EngineConfig::new()
            .batch_daemon(Box::new(ChunkedDaemon::new(central.clone(), 1)))
            .threads(3)
            .instantiate(&MinId, g.clone())
            .expect("a valid batch-daemon envelope");
        for unit in 0..6 {
            assert_eq!(
                engine.states_snapshot(),
                sequential.network().states(),
                "{central:?} diverged at unit {unit}"
            );
            sequential.step();
            engine.step();
        }
        assert_eq!(
            engine.activations(),
            sequential.activations(),
            "{central:?}"
        );
    }
}

#[test]
fn adversarial_daemons_run_on_the_engine_and_converge() {
    // fairness in action: under every adversarial batch daemon the min-id
    // flood still converges within n time units (one hop per unit is the
    // worst fairness allows)
    let g = path_graph(14, 2);
    let n = g.node_count();
    for spec in [
        DaemonSpec::BoundaryStall {
            shards: 2,
            repeats: 1,
        },
        DaemonSpec::ShardStarve {
            shards: 3,
            repeats: 1,
        },
        DaemonSpec::CutFocus {
            source_seed: 1,
            repeats: 1,
        },
    ] {
        let mut runner = EngineConfig::new()
            .batch_daemon(spec.build(&g))
            .threads(2)
            .instantiate(&MinId, g.clone())
            .expect("a valid batch-daemon envelope");
        let t = runner
            .run_until(StopCondition::AllAccept, 2 * n)
            .unwrap_or_else(|| panic!("{spec:?} starved the flood"));
        assert!(t <= n, "{spec:?} took {t} > n = {n} units");
    }
}
