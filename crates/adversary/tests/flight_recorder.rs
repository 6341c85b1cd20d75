//! The chaos-postmortem acceptance path: a forced
//! [`PoolError::BarrierTimeout`] must leave a `FLIGHT_*.json` artifact
//! carrying the final ring-buffer window of rounds — the typed error says
//! *what* killed the run, the flight recorder says what the rounds before
//! it looked like.

use smst_engine::programs::AlarmedFlood;
use smst_engine::{
    EngineConfig, EngineError, GraphFamily, InjectionSpec, PoolError, RecoveryPolicy, Runner,
    ShardedRunner, StopCondition,
};
use smst_telemetry::FlightRecorder;
use std::time::Duration;

#[test]
fn forced_barrier_timeout_dumps_a_flight_artifact() {
    let n = 48;
    let watchdog = Duration::from_millis(50);
    let graph = GraphFamily::Expander { n, degree: 4 }.build(7);
    let program = AlarmedFlood::new(0, n as u64 - 1);
    let config = EngineConfig::new()
        .threads(2)
        .recovery(RecoveryPolicy::retries(1).watchdog(watchdog))
        .inject(InjectionSpec::stall_at(2, 1, 400));
    let mut runner =
        ShardedRunner::from_config(&program, graph, &config).expect("a valid stall envelope");
    let flight = FlightRecorder::new(16);
    runner.set_observer(Box::new(flight.clone()));

    let timeout = match runner.try_run_until(StopCondition::Steps, 6) {
        Err(EngineError::Pool(PoolError::BarrierTimeout { timeout })) => timeout,
        other => panic!("a hung worker must trip the watchdog, got {other:?}"),
    };
    assert_eq!(timeout, watchdog);

    // the stall fires at round 2, so the recorder saw the completed
    // rounds before the barrier hung
    assert!(!flight.is_empty(), "the ring saw the pre-failure rounds");
    assert!(flight.rounds_seen() < 6, "the run died before its budget");

    let dir = std::env::temp_dir().join("smst_adversary_flight_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = flight
        .dump("stall_test", &format!("barrier timeout after {timeout:?}"))
        .write_json_to(&dir)
        .expect("writing the flight artifact");
    assert_eq!(
        path.file_name().unwrap().to_string_lossy(),
        "FLIGHT_stall_test.json"
    );
    let body = std::fs::read_to_string(&path).unwrap();
    assert!(body.starts_with("{\"schema\":\"smst-flight-v1\",\"name\":\"stall_test\""));
    assert!(body.contains("\"reason\":\"barrier timeout after 50ms\""));
    assert!(
        body.contains("\"round\":0") && body.contains("\"activations\":48"),
        "the final window carries real per-round records: {body}"
    );
}
