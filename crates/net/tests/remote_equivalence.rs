//! The distributed backend's acceptance suite: `Backend::Remote` over
//! real localhost worker processes must be **bit-for-bit** equal to the
//! in-process sharded backend and the sequential reference — register
//! streams, chaos books and deterministic observer traces alike — at 1
//! to 5 workers under both layouts (a worker is shipped its region and
//! never learns the layout, so the RCM rows prove the region carries
//! everything), through the unmodified `EngineConfig::instantiate`
//! entry point. A worker killed mid-campaign and respawned under the
//! `RecoveryPolicy` must be invisible in the trace; a permanently hung
//! peer must surface the barrier watchdog as a typed
//! [`PoolError::BarrierTimeout`] through `Runner::try_step`; a wire
//! version skew must be a typed [`WireError::VersionMismatch`], never a
//! misparse. The wire ships only registers that changed, so the suite also
//! pins what that must never cost: a coordinator write reaches the other
//! part's halo the next round, a round in which nothing changed ships no
//! register, and a replay leaves no residue in the shipped totals. Set-up
//! is per region: a worker's frame shrinks with its share of the graph,
//! and a dispatch it cannot honor comes back as a typed error frame.

use smst_engine::programs::{AlarmedFlood, MinIdFlood};
use smst_engine::{
    partition_balanced, run_chaos, Arena, ChaosReport, EngineConfig, EngineError, HaloPlan,
    InjectionSpec, LayoutPolicy, PoolError, RecoveryPolicy, Runner, StopCondition,
};
use smst_graph::generators::{expander_graph, path_graph};
use smst_graph::NodeId;
use smst_net::remote::setup_frame;
use smst_net::wire::{DeltaIndex, Frame, RegisterDelta, RoundFrame, ERR_PROTOCOL, WIRE_VERSION};
use smst_net::{
    handshake_accept, unique_endpoint, unique_tcp_endpoint, Conn, Listener, RemoteRunner,
    WireError, WireTotals,
};
use smst_sim::{FaultSchedule, RecordingObserver};
use std::process::{Child, Command, Stdio};
use std::sync::Once;
use std::time::Duration;

const N: usize = 48;

/// Installs the remote factories and points the coordinator at the
/// `smst-net` worker binary Cargo built for this test run.
fn setup() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        smst_net::install_stock();
        std::env::set_var("SMST_NET_WORKER", env!("CARGO_BIN_EXE_smst-net"));
    });
}

/// Three periodic fault waves (the `chaos_determinism` schedule): 30
/// steps apart, room for the [`AlarmedFlood`] garbage to decay and the
/// flood to re-converge between waves.
fn schedule() -> FaultSchedule {
    FaultSchedule::periodic(30, 5, 23).offset(3)
}

/// Everything a campaign determines: per-wave books, final registers and
/// the full deterministic observer trace (halo bytes included — the
/// remote wire must account exactly like the in-process halo engine).
#[derive(Debug, PartialEq, Eq)]
struct CampaignTrace {
    report: ChaosReport,
    states: Vec<u64>,
    trace: Vec<(usize, usize, usize, u64)>,
}

/// One seeded chaos campaign on `runner`: the books and the deterministic
/// observer trace.
fn drive_campaign(
    runner: &mut dyn Runner<AlarmedFlood>,
    steps: usize,
) -> (ChaosReport, Vec<(usize, usize, usize, u64)>) {
    let recording = RecordingObserver::new();
    runner.set_observer(Box::new(recording.clone()));
    let report = run_chaos(runner, &schedule(), steps, &mut |_v, s| {
        *s = AlarmedFlood::BOGUS
    })
    .expect("the campaign survives the schedule");
    (report, recording.deterministic_trace())
}

/// The campaign on whatever path `config` describes.
fn run_campaign(config: &EngineConfig, steps: usize) -> CampaignTrace {
    let program = AlarmedFlood::new(0, N as u64 - 1);
    let mut runner = config
        .instantiate(&program, expander_graph(N, 4, 7))
        .expect("a valid chaos envelope");
    let (report, trace) = drive_campaign(runner.as_mut(), steps);
    CampaignTrace {
        report,
        states: runner.into_network().states().to_vec(),
        trace,
    }
}

/// The campaign on the remote backend, with what it put on the sockets.
fn run_remote_campaign(config: &EngineConfig, steps: usize) -> (CampaignTrace, WireTotals) {
    let program = AlarmedFlood::new(0, N as u64 - 1);
    let mut runner = RemoteRunner::launch(&program, expander_graph(N, 4, 7), config)
        .expect("a valid remote chaos envelope");
    let (report, trace) = drive_campaign(&mut runner, steps);
    let totals = runner.wire_totals();
    let campaign = CampaignTrace {
        report,
        states: Box::new(runner).into_network().states().to_vec(),
        trace,
    };
    (campaign, totals)
}

#[test]
fn remote_matches_sharded_and_reference_round_by_round() {
    setup();
    // every row twice: a clean run, and one whose last worker is killed
    // mid-run and respawned from a region frame of the mirror as it stands
    // then — both must be the sharded twin's register stream
    let rounds = 30usize;
    let kill_at = 4usize;
    for peers in [1usize, 2, 3, 4, 5] {
        for layout in [LayoutPolicy::Identity, LayoutPolicy::Rcm] {
            let program = AlarmedFlood::new(0, N as u64 - 1);
            let graph = expander_graph(N, 4, 7);
            let clean = EngineConfig::remote(peers).layout(layout);
            let killed = clean
                .clone()
                .recovery(RecoveryPolicy::retries(1).backoff(Duration::from_millis(1)))
                .inject(InjectionSpec::panic_at(kill_at, peers - 1));
            let mut reference = EngineConfig::reference()
                .instantiate(&program, graph.clone())
                .expect("a valid reference envelope");
            for _ in 0..rounds {
                reference.step();
            }
            for (config, what) in [(clean, "clean"), (killed, "killed")] {
                let row = format!("remote({peers}, {layout:?}, {what})");
                let mut remote = config
                    .instantiate(&program, graph.clone())
                    .expect("a valid remote envelope");
                // the in-process twin: same shard count, same layout,
                // halo-structured exchange
                let mut sharded = EngineConfig::new()
                    .threads(peers)
                    .layout(layout)
                    .halo(true)
                    .instantiate(&program, graph.clone())
                    .expect("a valid sharded envelope");
                for round in 0..rounds {
                    remote.step();
                    sharded.step();
                    assert_eq!(
                        remote.states_snapshot(),
                        sharded.states_snapshot(),
                        "{row} diverged from sharded at round {round}"
                    );
                    assert_eq!(remote.alarming_nodes(), sharded.alarming_nodes());
                }
                assert_eq!(remote.steps(), rounds);
                assert_eq!(
                    remote.states_snapshot(),
                    reference.states_snapshot(),
                    "{row} diverged from the sequential reference"
                );
            }
        }
    }
}

#[test]
fn a_set_up_frame_carries_a_region_not_the_world() {
    // no process needed: the frame is a pure function of arena and plan.
    // An eighth of the graph costs about a quarter of what a half does
    // (plus its halo registers, which weigh more since v5 stopped shipping
    // 8 B per port: 0.37 under Identity on this 4096-node expander), and
    // the regions together hold every node once plus every halo slot —
    // nothing of the graph is shipped twice except what is mirrored
    let n = 4096usize;
    let program = AlarmedFlood::new(0, n as u64 - 1);
    let frames_at = |peers: usize, layout: LayoutPolicy| {
        let arena = Arena::new(&program, expander_graph(n, 8, 2026), layout);
        let plan = HaloPlan::build(
            arena.topology(),
            &partition_balanced(arena.topology(), peers),
        );
        assert_eq!(plan.shard_count(), peers);
        let frames: Vec<_> = (0..peers)
            .map(|part| setup_frame(&arena, &plan, part))
            .collect();
        let slots: usize = frames.iter().map(|f| f.region.region_len()).sum();
        assert_eq!(slots, n + plan.total_halo(), "{peers} peers, {layout:?}");
        let interiors: usize = frames.iter().map(|f| f.region.nodes.len()).sum();
        assert_eq!(interiors, n);
        frames
            .into_iter()
            .map(|f| Frame::Setup(f).encode().len())
            .collect::<Vec<_>>()
    };
    for layout in [LayoutPolicy::Identity, LayoutPolicy::Rcm] {
        let halves = frames_at(2, layout);
        let eighths = frames_at(8, layout);
        let (small, large) = (eighths.iter().max().unwrap(), halves.iter().min().unwrap());
        assert!(
            *small as f64 <= 0.4 * *large as f64,
            "{layout:?}: one of 8 parts ships {small} B, one of 2 ships {large} B"
        );
    }
}

/// A worker process of the build under test, dialed in to a listener the
/// test owns (the test plays the coordinator by hand).
fn lone_worker(wire_version: u16) -> (Child, Conn) {
    let (listener, endpoint) = Listener::bind(&unique_endpoint()).expect("bind");
    let child = Command::new(env!("CARGO_BIN_EXE_smst-net"))
        .arg("worker")
        .arg("--connect")
        .arg(endpoint.to_arg())
        .arg("--part")
        .arg("0")
        .arg("--wire-version")
        .arg(wire_version.to_string())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning the worker");
    let conn = listener
        .accept_deadline(Duration::from_secs(10))
        .expect("the worker dials in");
    (child, conn)
}

/// Waits for a worker that must have given up: a nonzero exit, and what
/// it said on the way out.
fn last_words(child: Child) -> String {
    let output = child.wait_with_output().expect("the worker exits");
    assert!(
        !output.status.success(),
        "a worker that gave up exits nonzero"
    );
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn a_dispatch_the_worker_cannot_honor_comes_back_as_a_typed_error() {
    setup();
    // a worker used to drop the connection on a delta that does not fit
    // its region, and the coordinator saw only "socket closed"; now the
    // cause travels back first
    let program = MinIdFlood::new(0);
    let arena = Arena::new(&program, path_graph(6, 5), LayoutPolicy::Identity);
    let plan = HaloPlan::build(arena.topology(), &partition_balanced(arena.topology(), 2));
    let interiors = plan.shards()[0].len() as u32;
    let (child, mut conn) = lone_worker(WIRE_VERSION);
    assert_eq!(handshake_accept(&mut conn), Ok(0));
    conn.send(&Frame::Setup(setup_frame(&arena, &plan, 0)))
        .expect("the region ships");
    let dispatch = |patch| {
        Frame::Round(RoundFrame {
            round: 0,
            dispatch: 1,
            patch,
            halo: RegisterDelta::empty(),
            inject: None,
        })
    };
    // a well-formed dispatch is served
    conn.send(&dispatch(RegisterDelta::empty())).expect("send");
    assert!(matches!(conn.recv(), Ok(Frame::Interiors(_))));
    // one that patches a register the region does not have is refused,
    // by name, before the connection goes down
    let beyond = RegisterDelta {
        index: DeltaIndex::Listed(vec![interiors]),
        states: 9u64.to_le_bytes().to_vec(),
    };
    conn.send(&dispatch(beyond)).expect("send");
    let refused = WireError::BadValue("delta index out of range");
    assert_eq!(
        conn.recv(),
        Ok(Frame::Error {
            code: ERR_PROTOCOL,
            message: refused.to_string(),
        })
    );
    assert_eq!(conn.recv(), Err(WireError::PeerClosed));
    assert!(last_words(child).contains(&refused.to_string()));
}

#[test]
fn remote_replays_the_rcm_layout_bit_for_bit() {
    setup();
    // a layout permutation must stay invisible: the wire ships original-
    // order registers and both sides re-derive the permutation locally
    let program = MinIdFlood::new(0);
    let graph = expander_graph(N, 4, 11);
    let mut remote = EngineConfig::remote(2)
        .layout(LayoutPolicy::Rcm)
        .instantiate(&program, graph.clone())
        .expect("a valid remote RCM envelope");
    let mut plain = EngineConfig::remote(2)
        .instantiate(&program, graph)
        .expect("a valid remote envelope");
    for _ in 0..12 {
        remote.step();
        plain.step();
        assert_eq!(remote.states_snapshot(), plain.states_snapshot());
    }
}

#[test]
fn more_peers_than_nodes_collapses_gracefully() {
    setup();
    // the balanced partition caps the shard count at the node count; the
    // coordinator spawns only as many workers as there are shards
    let program = MinIdFlood::new(0);
    let graph = path_graph(3, 5);
    let config = EngineConfig::remote(4);
    let mut remote = RemoteRunner::launch(&program, graph.clone(), &config)
        .expect("a valid degenerate envelope");
    assert!(remote.worker_count() <= 3, "at most one worker per node");
    let mut reference = EngineConfig::reference()
        .instantiate(&program, graph)
        .expect("a valid reference envelope");
    for _ in 0..4 {
        remote.step();
        reference.step();
        assert_eq!(remote.states_snapshot(), reference.states_snapshot());
    }
}

#[test]
fn chaos_campaigns_replay_identically_over_the_wire() {
    setup();
    // the full campaign — books, registers, observer trace with halo
    // accounting — matches the in-process halo engine at both widths
    for peers in [2usize, 4] {
        let sharded = run_campaign(&EngineConfig::new().threads(peers).halo(true), 75);
        let remote = run_campaign(&EngineConfig::remote(peers), 75);
        assert_eq!(
            remote, sharded,
            "the remote campaign at {peers} peers diverged"
        );
        assert_eq!(remote.report.waves.len(), 3, "waves at 3, 33 and 63");
    }
}

#[test]
fn a_killed_worker_recovers_invisibly() {
    setup();
    // worker 1's process dies (an injected panic aborts it) mid-campaign;
    // the coordinator respawns it under the recovery policy and replays
    // the round from the pre-round mirror — the clean run's books,
    // registers and trace must reproduce bit-for-bit, and so must what the
    // rounds shipped: a failed attempt retires neither the coordinator's
    // writes nor the change set it was sending. The wave lands at step 3:
    // the kill hits the dispatch that carries the corrupted registers
    // (3), the wave while it spreads (4) and while it decays (7).
    for peers in [2usize, 4] {
        let config = EngineConfig::remote(peers);
        let (clean, clean_totals) = run_remote_campaign(&config, 40);
        assert!(clean_totals.registers_out > 0 && clean_totals.registers_in > 0);
        for kill_at in [3usize, 4, 7] {
            let (chaotic, totals) = run_remote_campaign(
                &config
                    .clone()
                    .recovery(RecoveryPolicy::retries(2).backoff(Duration::from_millis(1)))
                    .inject(InjectionSpec::panic_at(kill_at, 1)),
                40,
            );
            assert_eq!(
                chaotic, clean,
                "recovery at round {kill_at}, {peers} peers, leaked into the deterministic trace"
            );
            assert_eq!(
                totals, clean_totals,
                "recovery at round {kill_at}, {peers} peers, left residue on the wire"
            );
        }
    }
}

#[test]
fn a_coordinator_write_reaches_the_neighbouring_part_the_next_round() {
    setup();
    // a `state_mut` write is the one register change no worker computed:
    // it must reach the owner (patch) and every part that mirrors the node
    // (halo). On a path every cut edge is covered by writing each node in
    // turn; the garbage must show, halved, in both neighbours one round
    // later, and the run must stay on the reference for good.
    let n = 12usize;
    let garbage = n as u64; // the smallest value above the ceiling
    let program = AlarmedFlood::new(0, n as u64 - 1);
    let graph = path_graph(n, 5);
    let mut remote = RemoteRunner::launch(&program, graph.clone(), &EngineConfig::remote(2))
        .expect("a valid remote envelope");
    assert_eq!(remote.worker_count(), 2);
    let mut reference = EngineConfig::reference()
        .instantiate(&program, graph)
        .expect("a valid reference envelope");
    remote.run_until(StopCondition::AllAccept, 64);
    reference.run_until(StopCondition::AllAccept, 64);
    for v in 0..n {
        *remote.state_mut(NodeId(v)) = garbage;
        *reference.state_mut(NodeId(v)) = garbage;
        remote.step();
        reference.step();
        for u in [v.wrapping_sub(1), v + 1] {
            if u < n {
                assert_eq!(
                    *remote.state(NodeId(u)),
                    garbage >> 1,
                    "write at {v}, read at {u}"
                );
            }
        }
        for round in 0..6 {
            assert_eq!(
                remote.states_snapshot(),
                reference.states_snapshot(),
                "write at {v} diverged {round} rounds later"
            );
            remote.step();
            reference.step();
        }
        assert!(remote.all_accept(), "the garbage decays within six rounds");
    }
}

#[test]
fn a_quiescent_round_ships_no_register() {
    setup();
    // after `AllAccept` nothing changes any more: every further round is
    // one empty dispatch and one empty reply per worker — at both widths,
    // over both transports
    for peers in [2usize, 4] {
        for endpoint in [unique_endpoint(), unique_tcp_endpoint()] {
            let program = AlarmedFlood::new(0, N as u64 - 1);
            let config = EngineConfig::remote(peers);
            let mut remote =
                RemoteRunner::launch_on(&program, expander_graph(N, 4, 7), &config, endpoint)
                    .expect("a valid remote envelope");
            remote
                .run_until(StopCondition::AllAccept, 64)
                .expect("the flood converges");
            // the round that reached AllAccept still changed registers:
            // one more round ships them, the tail after it is quiet
            remote.step();
            let before = remote.wire_totals();
            assert!(before.registers_in >= N as u64, "every node changed once");
            assert!(before.registers_out < before.registers_dense);
            let rounds = 5u64;
            for _ in 0..rounds {
                remote.step();
            }
            let after = remote.wire_totals();
            let frames = 2 * peers as u64 * rounds;
            assert_eq!(after.frames - before.frames, frames);
            assert_eq!(after.registers_out, before.registers_out);
            assert_eq!(after.registers_in, before.registers_in);
            assert!(after.bytes_out - before.bytes_out <= 64 * frames / 2);
            assert!(after.bytes_in - before.bytes_in <= 64 * frames / 2);
            assert!(
                after.registers_dense - before.registers_dense >= rounds * N as u64,
                "the dense protocol re-shipped every interior every round"
            );
        }
    }
}

#[test]
fn a_hung_peer_is_a_typed_timeout_not_a_deadlock() {
    setup();
    // a peer stalled past the watchdog must surface the configured limit
    // as a typed timeout through try_step — timeouts are never retried
    let watchdog = Duration::from_millis(100);
    let program = AlarmedFlood::new(0, N as u64 - 1);
    let graph = expander_graph(N, 4, 7);
    let config = EngineConfig::remote(2)
        .recovery(RecoveryPolicy::retries(3).watchdog(watchdog))
        .inject(InjectionSpec::stall_at(2, 1, 800));
    let mut runner = config
        .instantiate(&program, graph)
        .expect("a valid stall envelope");
    let outcome = (0..6).try_for_each(|_| runner.try_step());
    match outcome {
        Err(EngineError::Pool(PoolError::BarrierTimeout { timeout })) => {
            assert_eq!(timeout, watchdog, "the configured watchdog surfaced")
        }
        other => panic!("a hung peer must trip the watchdog, got {other:?}"),
    }
}

#[test]
fn worker_exhausting_retries_is_a_typed_panic_error() {
    setup();
    // with no retries budgeted, the first dead peer is terminal and typed
    let program = AlarmedFlood::new(0, N as u64 - 1);
    let graph = expander_graph(N, 4, 7);
    let config = EngineConfig::remote(2).inject(InjectionSpec::panic_at(1, 0));
    let mut runner = config
        .instantiate(&program, graph)
        .expect("a valid envelope");
    let outcome = (0..4).try_for_each(|_| runner.try_step());
    match outcome {
        Err(EngineError::Pool(PoolError::WorkerPanic { attempts, .. })) => {
            assert_eq!(attempts, 1, "one attempt, zero retries")
        }
        other => panic!("a dead peer without recovery must be typed, got {other:?}"),
    }
}

#[test]
fn version_skew_is_a_typed_rejection() {
    setup();
    // a worker announcing another protocol version — a future one, or the
    // weighted region's v4 this build replaced — is refused with a typed
    // mismatch on both sides of the wire
    for theirs in [99u16, 4] {
        let (child, mut conn) = lone_worker(theirs);
        assert_eq!(
            handshake_accept(&mut conn),
            Err(WireError::VersionMismatch { ours: 5, theirs })
        );
        // the worker sees the typed Error frame and exits nonzero
        assert!(last_words(child).contains("peer rejected us"));
    }
    // and the other way round: a coordinator still on v4 acknowledges a
    // v5 worker with its own version, and the worker refuses to go on
    let (child, mut conn) = lone_worker(WIRE_VERSION);
    assert_eq!(
        conn.recv(),
        Ok(Frame::Hello {
            version: 5,
            part: 0
        })
    );
    conn.send(&Frame::HelloAck { version: 4 }).expect("send");
    let mismatch = WireError::VersionMismatch { ours: 5, theirs: 4 };
    assert!(last_words(child).contains(&mismatch.to_string()));
}

#[test]
fn the_tcp_transport_replays_the_reference() {
    setup();
    // same protocol over TCP loopback (the multi-host transport): the
    // register stream still matches the sequential reference
    let program = MinIdFlood::new(0);
    let graph = expander_graph(N, 4, 3);
    let config = EngineConfig::remote(2);
    let mut remote =
        RemoteRunner::launch_on(&program, graph.clone(), &config, unique_tcp_endpoint())
            .expect("a valid TCP envelope");
    let mut reference = EngineConfig::reference()
        .instantiate(&program, graph)
        .expect("a valid reference envelope");
    for round in 0..10 {
        remote.step();
        reference.step();
        assert_eq!(
            remote.states_snapshot(),
            reference.states_snapshot(),
            "TCP transport diverged at round {round}"
        );
    }
}
