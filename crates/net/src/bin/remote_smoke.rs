//! CI smoke for the distributed backend: a coordinator plus local worker
//! processes over the default localhost transport, checked **bit-for-bit**
//! against the in-process sharded backend and the sequential reference.
//! Prints what the checked rounds put on the sockets
//! ([`RemoteRunner::wire_totals`] — a pure function of graph and seed) and
//! asserts the quiescent tail ships no register. Set-up is printed, not
//! gated on time: bytes per worker (asserted equal to what its region of
//! the plan accounts for) and the first round, which is where a worker's
//! set-up work would show. Round timing is the repository benchmark's
//! (`net.round_us_p50`, `net.remote_over_sharded_halo` on
//! `flood_remote_x100k`). `SMST_BENCH_SMOKE=1` shrinks the graph.

use smst_bench::harness::smoke_mode;
use smst_engine::programs::AlarmedFlood;
use smst_engine::{
    partition_balanced, Arena, Backend, EngineConfig, GraphFamily, HaloPlan, Runner,
};
use smst_net::{RemoteRunner, WireProgram};
use smst_sim::RecordingObserver;

/// Payload bytes of the set-up frame of region `part` (wire v5): tag, part,
/// program name, spec, `halo_len`, five `u32` counts, then per interior a
/// CSR offset (plus the closing one), a node and an id, per port a target,
/// and one 8-byte flood register per region slot. A pure function of graph
/// and plan: a field added to the region re-inflates the frame here.
fn region_setup_bytes(plan: &HaloPlan, part: usize, spec_len: usize) -> usize {
    let header = 1 + 4 + (4 + AlarmedFlood::WIRE_NAME.len()) + (4 + spec_len) + 4 + 5 * 4;
    let (rows, halo) = (plan.shards()[part].len(), plan.halo_nodes(part).len());
    let ports = plan.local_csr(part).expect("a halo plan").entry_count();
    header + 4 + rows * (4 + 4 + 8 + 8) + 4 * ports + 8 * halo
}

fn main() {
    smst_net::install_stock();
    let peers = 2usize;
    let n = if smoke_mode() { 96 } else { 384 };
    let rounds = 24usize;
    let family = GraphFamily::Expander { n, degree: 4 };
    let graph = family.build(11);
    let program = AlarmedFlood::new(0, n as u64 - 1);
    println!("remote smoke: {n}-node expander, {peers} worker processes, {rounds} rounds");

    // the headline acceptance: the remote register stream equals the
    // in-process sharded backend's, round by round
    let remote_config = EngineConfig::remote(peers);
    let sharded_config = EngineConfig::new().threads(peers).halo(true);
    let mut remote = RemoteRunner::launch(&program, graph.clone(), &remote_config)
        .expect("a valid remote envelope");
    let mut sharded = sharded_config
        .instantiate(&program, graph.clone())
        .expect("a valid sharded envelope");
    // a worker holds its region, not the world: each set-up frame is
    // exactly what its region of the coordinator's plan accounts for
    let mut spec = Vec::new();
    program.encode_spec(&mut spec);
    let arena = Arena::new(&program, graph.clone(), remote_config.layout);
    let plan = HaloPlan::build(
        arena.topology(),
        &partition_balanced(arena.topology(), peers),
    );
    let expected: Vec<_> = (0..peers)
        .map(|part| region_setup_bytes(&plan, part, spec.len()))
        .collect();
    let setup_bytes = remote.setup_bytes();
    assert_eq!(setup_bytes, expected, "set-up bytes per worker");
    let tail = 8usize;
    let mut before_tail = remote.wire_totals();
    for round in 0..rounds {
        if round + tail == rounds {
            before_tail = remote.wire_totals();
        }
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
    // only what changed crosses the wire: the quiescent tail ships frames
    // and no register
    let wire = remote.wire_totals();
    assert_eq!(
        (wire.registers_out, wire.registers_in),
        (before_tail.registers_out, before_tail.registers_in),
        "the last {tail} of {rounds} rounds shipped registers"
    );
    // the first round is where a worker's set-up work would show; read it
    // off an observed throwaway runner, so the timed runner stays unobserved
    let observed = RecordingObserver::new();
    let mut probe = RemoteRunner::launch(&program, graph.clone(), &remote_config)
        .expect("a valid remote envelope");
    probe.set_observer(Box::new(observed.clone()));
    for _ in 0..rounds {
        probe.step();
    }
    drop(probe);
    let round_us: Vec<f64> = observed
        .stats()
        .iter()
        .map(|stats| stats.total_phase_ns() as f64 / 1e3)
        .collect();
    println!(
        "  set-up: {setup_bytes:?} B per worker; first round {:.0} us, second {:.0} us, \
         last (quiescent) {:.0} us",
        round_us[0],
        round_us[1],
        round_us[rounds - 1],
    );
    println!(
        "  wire: {} frames, {} B out / {} B in, {} registers out / {} in ({} + {} B per \
         quiescent round), the dense protocol shipped {}",
        wire.frames,
        wire.bytes_out,
        wire.bytes_in,
        wire.registers_out,
        wire.registers_in,
        (wire.bytes_out - before_tail.bytes_out) / tail as u64,
        (wire.bytes_in - before_tail.bytes_in) / tail as u64,
        wire.registers_dense,
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
    let report = remote.report();
    println!("  engine: {} ({} steps)", report.engine, report.steps);
}
