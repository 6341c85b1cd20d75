//! A seeded verify-forever chaos campaign for CI: periodic, burst and
//! Poisson fault schedules endured on the engine's self-healing pool,
//! with worker-level chaos layered on top. Every schedule runs twice —
//! clean, and with an injected worker panic recovered under a
//! [`RecoveryPolicy`] — and the two outcomes must match **bit-for-bit**
//! (recovery is invisible in the deterministic trace). A hung-worker
//! injection must trip the barrier watchdog as a typed
//! [`PoolError::BarrierTimeout`] instead of deadlocking. Writes the
//! per-wave books to `BENCH_chaos.json`, the campaign's one artifact, and
//! prints the pool's self-healing counters. `SMST_BENCH_SMOKE=1` shrinks
//! the graph.

use smst_adversary::chaos::ChaosCase;
use smst_bench::harness::smoke_mode;
use smst_engine::programs::AlarmedFlood;
use smst_engine::{
    EngineConfig, EngineError, GraphFamily, InjectionSpec, PoolError, PoolHandle, RecoveryPolicy,
    Runner, ShardedRunner, StopCondition,
};
use smst_sim::FaultSchedule;
use smst_telemetry::{artifact_dir, ChaosArtifact, FlightRecorder};
use std::time::Duration;

fn main() {
    // the barrier watchdog needs a real barrier, so at least two parts
    let threads = smst_engine::default_threads().clamp(2, 8);
    let n = if smoke_mode() { 96 } else { 192 };
    let family = GraphFamily::Expander { n, degree: 4 };
    // the AlarmedFlood garbage decays in ~log2(BOGUS / n) ≈ 14 steps, plus
    // the expander's diameter to re-converge (~28 steps in total): waves
    // 30 steps apart leave every wave room to quiesce before the next one
    // fires, and the budget leaves the last wave room to quiesce too
    let steps = 95;
    let schedules = [
        ("periodic", FaultSchedule::periodic(30, 6, 23).offset(5)),
        ("burst", FaultSchedule::bursts([5, 35, 65], 8, 91)),
        ("poisson", FaultSchedule::poisson(0.02, 4, 7)),
    ];
    println!(
        "chaos campaign: {} schedules × {} steps on {n}-node expander, {threads} threads",
        schedules.len(),
        steps
    );

    // hold one handle for the whole campaign: the pool registry frees a
    // pool when its last handle drops, which would zero the self-healing
    // counters between cases
    let pool = PoolHandle::for_threads(threads);
    let mut artifact = ChaosArtifact::new("chaos");
    let mut reports = Vec::new();
    for (name, schedule) in schedules {
        let envelope = EngineConfig::new().threads(threads);
        let case = ChaosCase::new(name, family.clone(), schedule, steps)
            .seed(11)
            .engine(envelope.clone());
        let clean = case.run().expect("a valid chaos case");
        // the injected twin: a pool-worker panic mid-campaign (part 1, a
        // real pooled thread, so the retirement/respawn machinery runs),
        // retried away under the recovery policy — it must reproduce the
        // clean run bit-for-bit
        let chaotic = case
            .clone()
            .engine(
                envelope
                    .recovery(RecoveryPolicy::retries(2).backoff(Duration::from_millis(1)))
                    .inject(InjectionSpec::panic_at(7, 1)),
            )
            .run()
            .expect("the injected panic is retried away");
        assert!(
            chaotic == clean,
            "case `{name}`: recovery leaked into the deterministic trace"
        );
        println!(
            "  {name}: {} waves, {} detected, {} quiesced, mean detection {:?}, \
             mean quiescence {:?}, recovery invisible",
            clean.report.waves.len(),
            clean.report.detected_waves(),
            clean.report.quiesced_waves(),
            clean.report.mean_detection_latency(),
            clean.report.mean_quiescence(),
        );
        artifact.push(case.chaos_run(&clean.report));
        reports.push((name, clean.report));
    }

    // the acceptance schedules must have measured both latencies
    for (name, report) in &reports {
        if *name == "periodic" || *name == "burst" {
            assert!(
                report.mean_detection_latency().is_some(),
                "case `{name}` measured no detection latency"
            );
            assert!(
                report.mean_quiescence().is_some(),
                "case `{name}` measured no quiescence"
            );
        }
    }

    // a hung worker must become a typed timeout within the watchdog, not
    // a deadlock — the watchdog guards the round barrier inside
    // multi-round chunks, so drive a chunked run directly
    let watchdog = Duration::from_millis(100);
    let graph = family.build(11);
    let program = AlarmedFlood::new(0, n as u64 - 1);
    let stalled_config = EngineConfig::new()
        .threads(threads)
        .recovery(RecoveryPolicy::retries(2).watchdog(watchdog))
        .inject(InjectionSpec::stall_at(3, 1, 800));
    let mut stalled = ShardedRunner::from_config(&program, graph, &stalled_config)
        .expect("a valid stall envelope");
    // the flight recorder rides along as an observer: when the watchdog
    // trips, its final ring-buffer window becomes the postmortem artifact
    let flight = FlightRecorder::new(32);
    stalled.set_observer(Box::new(flight.clone()));
    #[expect(
        clippy::disallowed_methods,
        reason = "smoke binary prints watchdog wall time for the operator readout"
    )]
    let started = std::time::Instant::now();
    match stalled.try_run_until(StopCondition::Steps, 8) {
        Err(EngineError::Pool(PoolError::BarrierTimeout { timeout })) => {
            assert_eq!(timeout, watchdog, "the configured watchdog surfaced");
            println!(
                "  stall: barrier watchdog tripped after {:?} (limit {watchdog:?})",
                started.elapsed()
            );
            let reason = format!("barrier timeout after {timeout:?}");
            let path = flight
                .dump("chaos_stall", &reason)
                .write_json_to(&artifact_dir())
                .expect("writing the flight-recorder artifact");
            println!(
                "  flight -> {} ({} of {} rounds retained)",
                path.display(),
                flight.len(),
                flight.rounds_seen()
            );
        }
        other => panic!("a hung worker must trip the watchdog, got {other:?}"),
    }

    let stats = pool.pool().stats();
    assert!(
        stats.panics() >= reports.len() as u64,
        "every injected panic is accounted"
    );
    assert!(
        stats.barrier_timeouts() >= 1,
        "the tripped watchdog is accounted"
    );
    println!(
        "  pool: {} panics, {} respawns, {} barrier timeouts; chaos: {} waves, {} faults",
        stats.panics(),
        stats.respawns(),
        stats.barrier_timeouts(),
        reports.iter().map(|(_, r)| r.waves.len()).sum::<usize>(),
        reports
            .iter()
            .map(|(_, r)| r.injected_faults)
            .sum::<usize>(),
    );

    artifact.finish();
}
