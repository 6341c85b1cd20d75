//! Fault-schedule determinism across the full backend matrix: the same
//! seeded [`FaultSchedule`] replayed through every backend — the
//! sequential sync/async references and the sharded sync/async engines at
//! 1/2/8 threads — must produce identical per-wave chaos books
//! ([`ChaosReport`]), identical final registers, and identical
//! deterministic `(round, alarms, activations)` observer traces. Layering
//! an injected worker panic plus a successful retry on top must change
//! **nothing** (recovery is invisible in the deterministic trace), and a
//! hung worker must surface as a typed
//! [`PoolError::BarrierTimeout`] instead of a deadlock.
//!
//! Last, the two loops that step a runner are held to one latency rule:
//! a single-wave schedule under [`run_chaos`] and the same wave under the
//! burst driver [`run_fault_experiment`] must measure the same detection
//! latency and the same rounds to quiescence.

use proptest::prelude::*;
use smst_engine::programs::AlarmedFlood;
use smst_engine::{
    run_chaos, run_fault_experiment, ChaosReport, EngineConfig, EngineError, InjectionSpec,
    LayoutPolicy, PoolError, RecoveryPolicy, Runner, ShardedRunner, StopCondition,
};
use smst_graph::generators::expander_graph;
use smst_sim::{Daemon, FaultSchedule, RecordingObserver};
use std::time::Duration;

const N: usize = 48;

/// Three periodic waves at steps 3, 33 and 63 — 30 steps apart, enough
/// for the [`AlarmedFlood`] garbage (≈15 halvings plus the expander
/// diameter: 25 steps measured on this graph) to decay and the flood to
/// re-converge between waves.
fn schedule() -> FaultSchedule {
    FaultSchedule::periodic(30, 5, 23).offset(3)
}

/// Everything a chaos campaign determines: the per-wave books, the final
/// configuration, and the per-step observer trace.
#[derive(Debug, PartialEq, Eq)]
struct CampaignTrace {
    report: ChaosReport,
    states: Vec<u64>,
    trace: Vec<(usize, usize, usize)>,
}

/// One seeded campaign on whatever execution path `config` describes.
fn run_campaign(config: &EngineConfig, steps: usize) -> CampaignTrace {
    let program = AlarmedFlood::new(0, N as u64 - 1);
    let graph = expander_graph(N, 4, 7);
    let recording = RecordingObserver::new();
    let mut runner = config
        .instantiate(&program, graph)
        .expect("a valid chaos envelope");
    runner.set_observer(Box::new(recording.clone()));
    let report = run_chaos(runner.as_mut(), &schedule(), steps, &mut |_v, s| {
        *s = AlarmedFlood::BOGUS
    })
    .expect("the campaign survives the schedule");
    let states = runner.into_network().states().to_vec();
    let trace = recording
        .deterministic_trace()
        .into_iter()
        .map(|(round, alarms, activations, _halo_bytes)| (round, alarms, activations))
        .collect();
    CampaignTrace {
        report,
        states,
        trace,
    }
}

#[test]
fn every_sync_backend_replays_the_same_campaign() {
    // the sequential reference plus the sharded engine at 1/2/8 threads
    // (with a layout permutation and halo exchange thrown in): one trace
    let envelopes = [
        EngineConfig::reference(),
        EngineConfig::new().threads(1),
        EngineConfig::new().threads(2).layout(LayoutPolicy::Rcm),
        EngineConfig::new()
            .threads(8)
            .layout(LayoutPolicy::Rcm)
            .halo(true),
    ];
    let baseline = run_campaign(&envelopes[0], 90);
    // the baseline campaign is a real one: every wave detected by the
    // monitor and fully digested, the flood back at the true maximum
    assert_eq!(baseline.report.waves.len(), 3, "waves at 3, 33 and 63");
    assert_eq!(baseline.report.detected_waves(), 3);
    assert_eq!(baseline.report.quiesced_waves(), 3);
    assert_eq!(baseline.trace.len(), 90);
    assert!(baseline.states.iter().all(|&s| s == N as u64 - 1));
    for config in &envelopes[1..] {
        let replay = run_campaign(config, 90);
        assert_eq!(
            replay,
            baseline,
            "{} diverged from {}",
            config.describe(),
            envelopes[0].describe()
        );
    }
}

#[test]
fn every_async_backend_replays_the_same_campaign() {
    // batch 1 under the central round-robin daemon replays the sequential
    // asynchronous reference exactly — whatever the thread count
    let reference = EngineConfig::reference().asynchronous(Daemon::RoundRobin, 1);
    let baseline = run_campaign(&reference, 75);
    assert_eq!(baseline.report.waves.len(), 3);
    assert_eq!(baseline.trace.len(), 75);
    for threads in [1usize, 2, 8] {
        let config = EngineConfig::new()
            .threads(threads)
            .asynchronous(Daemon::RoundRobin, 1);
        let replay = run_campaign(&config, 75);
        assert_eq!(
            replay,
            baseline,
            "{} diverged from {}",
            config.describe(),
            reference.describe()
        );
    }
}

#[test]
fn wide_async_batches_replay_across_thread_counts() {
    // batch 16 makes each step a real concurrent slice (three sweeps of
    // the graph per wave period) — still one trace at every thread count
    let config_for = |threads: usize| {
        EngineConfig::new()
            .threads(threads)
            .asynchronous(Daemon::RoundRobin, 16)
    };
    let baseline = run_campaign(&config_for(1), 90);
    assert_eq!(baseline.report.waves.len(), 3, "waves at 3, 33 and 63");
    assert!(
        baseline.report.detected_waves() >= 1,
        "the monitor hears at least one wave within the budget"
    );
    for threads in [2usize, 8] {
        let replay = run_campaign(&config_for(threads), 90);
        assert_eq!(
            replay,
            baseline,
            "{} diverged from {}",
            config_for(threads).describe(),
            config_for(1).describe()
        );
    }
}

#[test]
fn a_recovered_panic_is_invisible_at_every_thread_count() {
    // the same campaign with a worker panic injected mid-run and retried
    // away must reproduce the clean run bit-for-bit — books, registers
    // and observer trace — under both sharded schedules at 1/2/8 threads
    let envelopes: Vec<EngineConfig> = [1usize, 2, 8]
        .into_iter()
        .flat_map(|threads| {
            [
                EngineConfig::new().threads(threads),
                EngineConfig::new()
                    .threads(threads)
                    .asynchronous(Daemon::RoundRobin, 16),
            ]
        })
        .collect();
    for config in envelopes {
        let clean = run_campaign(&config, 75);
        let chaotic = run_campaign(
            &config
                .clone()
                .recovery(RecoveryPolicy::retries(2).backoff(Duration::from_millis(1)))
                .inject(InjectionSpec::panic_at(7, 0)),
            75,
        );
        assert_eq!(
            chaotic,
            clean,
            "recovery leaked into the deterministic trace of {}",
            config.describe()
        );
    }
}

#[test]
fn a_hung_worker_is_a_typed_timeout_not_a_deadlock() {
    // the watchdog guards the round barrier inside multi-round chunks, so
    // drive a chunked run: the stalled worker must surface the configured
    // limit as a typed error instead of hanging the barrier forever
    let watchdog = Duration::from_millis(50);
    let program = AlarmedFlood::new(0, N as u64 - 1);
    let graph = expander_graph(N, 4, 7);
    let config = EngineConfig::new()
        .threads(2)
        .recovery(RecoveryPolicy::retries(1).watchdog(watchdog))
        .inject(InjectionSpec::stall_at(2, 1, 400));
    let mut runner =
        ShardedRunner::from_config(&program, graph, &config).expect("a valid stall envelope");
    match runner.try_run_until(StopCondition::Steps, 6) {
        Err(EngineError::Pool(PoolError::BarrierTimeout { timeout })) => {
            assert_eq!(timeout, watchdog, "the configured watchdog surfaced")
        }
        other => panic!("a hung worker must trip the watchdog, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn the_burst_driver_and_the_chaos_loop_share_the_latency_rule(
        n in 8usize..40,
        graph_seed in 0u64..1000,
        at in 0usize..24,
        faults in 1usize..6,
        fault_seed in 0u64..1000,
        envelope in 0usize..4,
    ) {
        // small graphs, so the wave regularly hits the monitor (node 0)
        // itself — the corner where the alarm condition holds before the
        // first post-injection step and the latency is still 1 — and small
        // `at`, so it regularly lands on a flood that has not converged yet
        let config = match envelope {
            0 => EngineConfig::reference(),
            1 => EngineConfig::new().threads(3).layout(LayoutPolicy::Rcm).halo(true),
            2 => EngineConfig::reference().asynchronous(Daemon::RoundRobin, 1),
            _ => EngineConfig::new().threads(2).asynchronous(
                Daemon::Random { seed: graph_seed, extra_factor: 1 },
                4,
            ),
        };
        let program = AlarmedFlood::new(0, n as u64 - 1);
        let graph = expander_graph(n, 4, graph_seed);
        let schedule = FaultSchedule::bursts([at], faults, fault_seed);
        let steps = at + 64;
        let mut bogus = |_v, s: &mut u64| *s = AlarmedFlood::BOGUS;

        let mut runner = config.instantiate(&program, graph.clone()).expect("valid");
        let chaos = run_chaos(runner.as_mut(), &schedule, steps, &mut bogus).expect("runs");
        prop_assert_eq!(chaos.waves.len(), 1);
        let wave = &chaos.waves[0];
        prop_assert!(wave.quiescence.is_some(), "the budget leaves room to digest the wave");

        let plan = schedule.wave_plan(0, n);
        for until in [StopCondition::FirstAlarm, StopCondition::AllAccept] {
            let mut runner = config.instantiate(&program, graph.clone()).expect("valid");
            let burst = Some((at, &plan));
            let report = run_fault_experiment(runner.as_mut(), burst, &mut bogus, until, steps)
                .expect("runs");
            prop_assert_eq!(report.injected_faults, wave.faults);
            prop_assert!(!report.warmup_alarm, "the flood only alarms on garbage");
            if until == StopCondition::FirstAlarm {
                prop_assert_eq!(report.first_alarm, wave.detection_latency, "{}", config.describe());
            } else {
                prop_assert_eq!(report.recovered, wave.quiescence, "{}", config.describe());
            }
        }
    }
}
