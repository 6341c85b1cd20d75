//! The one-engine-API equivalence suite: a `Box<dyn Runner>` built from
//! **every** `EngineConfig` combination (sync/async × 1/2/8 threads ×
//! Identity/Rcm × halo on/off) must be bit-for-bit equal to the matching
//! sequential reference runner — itself instantiated through the *same*
//! `EngineConfig` API ([`EngineConfig::reference`]) — and `RoundObserver`
//! callbacks must be deterministic across thread counts, layouts, halo
//! modes and telemetry modes (no trace / a trace).

use proptest::prelude::*;
use smst_engine::programs::{MinIdFlood, MonitorFlood};
use smst_engine::{ConfigError, EngineConfig, LayoutPolicy, Runner, StopCondition};
use smst_graph::generators::{expander_graph, random_connected_graph};
use smst_graph::{NodeId, WeightedGraph};
use smst_sim::{Daemon, FaultPlan, RecordingObserver, TeeObserver};
use smst_telemetry::TraceWriter;

fn graph_for(kind: bool, n: usize, seed: u64) -> WeightedGraph {
    if kind {
        expander_graph(n, 4, seed)
    } else {
        random_connected_graph(n, 5 * n / 2, seed)
    }
}

/// Every sharded synchronous envelope the satellite matrix names.
fn sync_envelopes() -> Vec<EngineConfig> {
    let mut configs = Vec::new();
    for threads in [1usize, 2, 8] {
        for layout in [LayoutPolicy::Identity, LayoutPolicy::Rcm] {
            for halo in [false, true] {
                configs.push(
                    EngineConfig::new()
                        .threads(threads)
                        .layout(layout)
                        .halo(halo),
                );
            }
        }
    }
    configs
}

/// Every sharded asynchronous envelope the satellite matrix names
/// (batch 1 replays the sequential reference; halo is sync-only by
/// validation, so the async matrix is threads × layout).
fn async_envelopes(daemon: Daemon, batch: usize) -> Vec<EngineConfig> {
    let mut configs = Vec::new();
    for threads in [1usize, 2, 8] {
        for layout in [LayoutPolicy::Identity, LayoutPolicy::Rcm] {
            configs.push(
                EngineConfig::new()
                    .threads(threads)
                    .layout(layout)
                    .asynchronous(daemon.clone(), batch),
            );
        }
    }
    configs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn every_sync_envelope_matches_the_reference_runner(
        kind in proptest::bool::ANY,
        n in 24usize..60,
        seed in 0u64..1000,
    ) {
        let g = graph_for(kind, n, seed);
        let program = MinIdFlood::new(0);
        let mut reference = EngineConfig::reference()
            .instantiate(&program, g.clone())
            .expect("the reference envelope is valid");
        let mut engines: Vec<(String, Box<dyn Runner<MinIdFlood>>)> = sync_envelopes()
            .into_iter()
            .map(|c| {
                (
                    c.describe(),
                    c.instantiate(&program, g.clone()).expect("valid envelope"),
                )
            })
            .collect();
        for round in 0..8 {
            let oracle = reference.states_snapshot();
            for (label, runner) in &mut engines {
                prop_assert_eq!(
                    &runner.states_snapshot(),
                    &oracle,
                    "round {}, {}",
                    round,
                    &*label
                );
                runner.step();
            }
            reference.step();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn every_async_envelope_replays_the_reference_daemon(
        kind in proptest::bool::ANY,
        n in 20usize..40,
        seed in 0u64..1000,
        daemon_seed in 0u64..64,
    ) {
        let g = graph_for(kind, n, seed);
        let program = MinIdFlood::new(0);
        let daemon = Daemon::Random { seed: daemon_seed, extra_factor: 1 };
        // batch width 1 is the sequential semantics: every sharded envelope
        // must replay the reference daemon schedule register for register
        let mut reference = EngineConfig::reference()
            .asynchronous(daemon.clone(), 1)
            .instantiate(&program, g.clone())
            .expect("the reference envelope is valid");
        let mut engines: Vec<(String, Box<dyn Runner<MinIdFlood>>)> =
            async_envelopes(daemon.clone(), 1)
                .into_iter()
                .map(|c| {
                    (
                        c.describe(),
                        c.instantiate(&program, g.clone()).expect("valid envelope"),
                    )
                })
                .collect();
        for unit in 0..5 {
            let oracle = reference.states_snapshot();
            for (label, runner) in &mut engines {
                prop_assert_eq!(
                    &runner.states_snapshot(),
                    &oracle,
                    "unit {}, {}",
                    unit,
                    &*label
                );
                runner.step();
            }
            reference.step();
        }
        // wider batches have no sequential twin; they must agree with the
        // single-threaded identity-layout envelope of the same batch width
        let wide = EngineConfig::new().threads(1).asynchronous(daemon.clone(), 4);
        let mut wide_reference = wide.instantiate(&program, g.clone()).expect("valid");
        wide_reference.run_until(StopCondition::Steps, 5);
        for config in async_envelopes(daemon, 4) {
            let mut runner = config.instantiate(&program, g.clone()).expect("valid");
            runner.run_until(StopCondition::Steps, 5);
            prop_assert_eq!(
                &runner.states_snapshot(),
                &wide_reference.states_snapshot(),
                "{}",
                config.describe()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    #[test]
    fn observer_callbacks_are_deterministic_across_envelopes(
        n in 24usize..48,
        seed in 0u64..500,
    ) {
        // the monitor flood raises real alarms, so the observed alarm
        // counts are non-trivial; every sharded sync envelope (and the
        // sequential reference) must report the same deterministic
        // (round, alarms, activations) trace — halo_bytes legitimately
        // varies with shard geometry, so it is compared only within a
        // fixed envelope shape
        let g = graph_for(true, n, seed);
        let program = MonitorFlood::new(n as u64 - 1, n as u64 - 1);
        let plan = FaultPlan::random(n, 2, seed ^ 0x5EED);
        let mut traces = Vec::new();
        let mut configs = sync_envelopes();
        configs.push(EngineConfig::reference());
        for config in configs {
            let recording = RecordingObserver::new();
            let mut runner = config.instantiate(&program, g.clone()).expect("valid");
            runner.set_observer(Box::new(recording.clone()));
            runner.run_until(StopCondition::Steps, 3);
            runner.apply_faults(&plan, &mut |_v, s| *s = MonitorFlood::BOGUS);
            runner.run_until(StopCondition::Steps, 6);
            let trace: Vec<(usize, usize, usize)> = recording
                .deterministic_trace()
                .into_iter()
                .map(|(round, alarms, activations, _halo_bytes)| (round, alarms, activations))
                .collect();
            prop_assert_eq!(trace.len(), 9, "{}", config.describe());
            traces.push((config.describe(), trace));
        }
        let (first_label, first) = &traces[0];
        for (label, trace) in &traces[1..] {
            prop_assert_eq!(
                trace,
                first,
                "observer trace of {} diverged from {}",
                &**label,
                &**first_label
            );
        }
    }
}

#[test]
fn telemetry_modes_never_change_the_deterministic_trace() {
    // telemetry is measurement, not computation: the deterministic
    // (round, alarms, activations) trace is identical with no trace (no
    // observer at all) and with round tracing — at every thread count
    let n = 40usize;
    let g = graph_for(true, n, 11);
    let program = MonitorFlood::new(n as u64 - 1, n as u64 - 1);
    let plan = FaultPlan::random(n, 2, 0x5EED);
    let trace_dir = std::env::temp_dir().join("smst_engine_telemetry_determinism");
    std::fs::create_dir_all(&trace_dir).expect("temp trace dir");
    let mut traces = Vec::new();
    for threads in [1usize, 2, 8] {
        for mode in ["off", "traced"] {
            // an explicit directory instead of SMST_BENCH_DIR: tests must
            // not mutate process-global environment
            let sink = (mode == "traced").then(|| {
                TraceWriter::create_in(&trace_dir, &format!("equiv_t{threads}"))
                    .expect("trace file")
            });
            let label = format!("threads={threads};mode={mode}");
            let recording = RecordingObserver::new();
            let mut tee = TeeObserver::new().with(Box::new(recording.clone()));
            if let Some(sink) = &sink {
                tee.push(sink.observer(&label));
            }
            let mut runner = EngineConfig::new()
                .threads(threads)
                .instantiate(&program, g.clone())
                .expect("valid");
            runner.set_observer(Box::new(tee));
            runner.run_until(StopCondition::Steps, 3);
            runner.apply_faults(&plan, &mut |_v, s| *s = MonitorFlood::BOGUS);
            runner.run_until(StopCondition::Steps, 6);
            let trace: Vec<(usize, usize, usize)> = recording
                .deterministic_trace()
                .into_iter()
                .map(|(round, alarms, activations, _halo_bytes)| (round, alarms, activations))
                .collect();
            assert_eq!(trace.len(), 9, "{label}");
            if let Some(sink) = &sink {
                sink.flush().expect("flushing the test trace");
                let body = std::fs::read_to_string(sink.path()).expect("trace file");
                assert_eq!(body.lines().count(), 9, "{label}: rounds 0 to 8");
            }
            traces.push((label, trace));
        }
    }
    let (first_label, first) = traces[0].clone();
    for (label, trace) in &traces[1..] {
        assert_eq!(trace, &first, "{label} diverged from {first_label}");
    }
}

#[test]
fn halo_bytes_are_reported_and_layout_sensitive() {
    // a multi-shard halo run reports nonzero exchanged bytes per round;
    // RCM packs neighbours so its halos are strictly smaller on the
    // expander (the PR 4 geometry result, now visible through the
    // observer instead of runner internals)
    let g = expander_graph(2000, 8, 5);
    let program = MinIdFlood::new(0);
    let mut per_layout = Vec::new();
    for layout in [LayoutPolicy::Identity, LayoutPolicy::Rcm] {
        let recording = RecordingObserver::new();
        let mut runner = EngineConfig::new()
            .threads(4)
            .layout(layout)
            .halo(true)
            .instantiate(&program, g.clone())
            .expect("valid");
        runner.set_observer(Box::new(recording.clone()));
        runner.run_until(StopCondition::Steps, 3);
        let stats = recording.stats();
        assert_eq!(stats.len(), 3);
        assert!(
            stats.iter().all(|s| s.halo_bytes > 0),
            "halo mode must report exchanged bytes"
        );
        assert!(
            stats.windows(2).all(|w| w[0].halo_bytes == w[1].halo_bytes),
            "halo geometry is static across rounds"
        );
        // observed sharded rounds split into phases: every round times its
        // compute, and the halo rounds show an exchange or a barrier
        assert!(
            stats.iter().all(|s| s.compute_ns > 0),
            "observed rounds time their compute"
        );
        assert!(
            stats.iter().any(|s| s.exchange_ns > 0 || s.barrier_ns > 0),
            "halo rounds time their exchange and barrier phases"
        );
        per_layout.push(stats[0].halo_bytes);
    }
    assert!(
        per_layout[1] < per_layout[0],
        "RCM must exchange strictly fewer halo bytes than identity ({} vs {})",
        per_layout[1],
        per_layout[0]
    );
}

#[test]
fn invalid_envelopes_surface_as_config_errors() {
    let g = expander_graph(16, 4, 1);
    let program = MinIdFlood::new(0);
    let cases: Vec<(EngineConfig, ConfigError)> = vec![
        (EngineConfig::new().threads(0), ConfigError::ZeroThreads),
        (
            EngineConfig::new()
                .asynchronous(Daemon::RoundRobin, 2)
                .halo(true),
            ConfigError::HaloRequiresSync,
        ),
        (
            EngineConfig::reference().threads(8),
            ConfigError::ReferenceKnob("threads > 1"),
        ),
        (
            EngineConfig::reference().asynchronous(Daemon::RoundRobin, 2),
            ConfigError::ReferenceNeedsCentralDaemon,
        ),
    ];
    for (config, expected) in cases {
        match config.instantiate(&program, g.clone()) {
            Err(err) => assert_eq!(err, expected),
            Ok(_) => panic!("{} must not instantiate", config.describe()),
        }
    }
}

#[test]
fn dyn_runners_expose_the_full_driving_surface() {
    // fault injection, stop conditions, reports and network interop all
    // work uniformly through the trait object, whatever the path
    let g = random_connected_graph(30, 75, 9);
    let program = MinIdFlood::new(0);
    for config in [
        EngineConfig::reference(),
        EngineConfig::new().threads(4).halo(true),
        EngineConfig::new()
            .threads(4)
            .asynchronous(Daemon::RoundRobin, 8),
    ] {
        let mut runner = config.instantiate(&program, g.clone()).expect("valid");
        runner
            .run_until(StopCondition::AllAccept, 200)
            .expect("the flood converges");
        let plan = FaultPlan::random(30, 5, 3);
        runner.apply_faults(&plan, &mut |_v, s| *s = u64::MAX);
        assert!(!runner.all_accept(), "{}", config.describe());
        runner
            .run_until(StopCondition::AllAccept, 200)
            .expect("the flood heals");
        assert_eq!(runner.graph().node_count(), 30);
        assert!(runner.steps() > 0 && runner.activations() >= runner.steps());
        assert_eq!(*runner.state(NodeId(7)), 0);
        let network = runner.into_network();
        assert!(network.states().iter().all(|&s| s == 0));
    }
}
