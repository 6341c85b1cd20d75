//! CI smoke for the distributed backend: a coordinator plus local worker
//! processes over the default localhost transport, checked **bit-for-bit**
//! against the in-process sharded backend and the sequential reference,
//! then timed. Writes the round benchmarks and wire accounting to
//! `BENCH_remote.json` (the `smst-analyze check` gate consumes it).
//! `SMST_BENCH_SMOKE=1` shrinks the graph and iteration counts.

use smst_bench::harness::{smoke_mode, BenchGroup};
use smst_engine::programs::AlarmedFlood;
use smst_engine::{Backend, EngineConfig, GraphFamily};

fn main() {
    smst_net::install_stock();
    let peers = 2usize;
    let n = if smoke_mode() { 96 } else { 384 };
    let rounds = 24usize;
    let iters = if smoke_mode() { 8 } else { 24 };
    let family = GraphFamily::Expander { n, degree: 4 };
    let graph = family.build(11);
    let program = AlarmedFlood::new(0, n as u64 - 1);
    println!("remote smoke: {n}-node expander, {peers} worker processes, {rounds} rounds");

    // the headline acceptance: the remote register stream equals the
    // in-process sharded backend's, round by round
    let remote_config = EngineConfig::remote(peers);
    let sharded_config = EngineConfig::new().threads(peers).halo(true);
    let mut remote = remote_config
        .instantiate(&program, graph.clone())
        .expect("a valid remote envelope");
    let mut sharded = sharded_config
        .instantiate(&program, graph.clone())
        .expect("a valid sharded envelope");
    for round in 0..rounds {
        remote.step();
        sharded.step();
        assert_eq!(
            remote.states_snapshot(),
            sharded.states_snapshot(),
            "remote diverged from the sharded backend at round {round}"
        );
    }
    assert!(
        remote.all_accept(),
        "the flood must quiesce in {rounds} rounds"
    );
    let reference = EngineConfig::new()
        .backend(Backend::Reference)
        .instantiate(&program, graph.clone())
        .expect("a valid reference envelope");
    let mut reference = reference;
    for _ in 0..rounds {
        reference.step();
    }
    assert_eq!(
        remote.states_snapshot(),
        reference.states_snapshot(),
        "remote diverged from the sequential reference"
    );
    println!("  bit-for-bit vs sharded ({rounds} rounds) and reference: ok");

    // the timed leg: per-round wall time over the wire vs in-process
    let mut group = BenchGroup::new("remote");
    group.bench("round_remote_p2", iters as u32, || remote.step());
    group.bench("round_sharded_t2", iters as u32, || sharded.step());
    group.record_meta("nodes", n as f64);
    group.record_meta("peers", peers as f64);
    group.record_meta("rounds_checked", rounds as f64);
    let report = remote.report();
    println!("  engine: {} ({} steps)", report.engine, report.steps);
    group.finish();
}
